//! Parallel anonymization of a multi-router corpus under one keyed state,
//! with per-file fault isolation.
//!
//! §3.2 requires every identifier of a network to map consistently
//! *across* its files, which is why one [`Anonymizer`] processes the
//! whole network and why the paper notes the table-based IP scheme does
//! not parallelize trivially (unlike Xu's stateless scheme). The pipeline
//! here recovers the parallelism anyway, with the output guaranteed
//! byte-identical to a sequential run at any worker count. Each pass is
//! one algorithm at every `--jobs`; the job and file counts set only how
//! many threads join it, and the calling thread is always the first:
//!
//! 1. **Discovery (observe, merge, replay).** `min(jobs, files)` shards
//!    scan disjoint contiguous file ranges with the observation log
//!    armed: every rule runs and every order-independent accumulator
//!    (leak record, emitted images, statistics) fills in normally, but
//!    the order-dependent trie insertions are deferred — each shard logs
//!    the first corpus position of every address it would have mapped
//!    ([`crate::discover::ObservationLog`]). Shard 0 is the calling
//!    thread scanning on the retained anonymizer itself, with no copy
//!    and no spawn; each other shard scans an observer copy on a scoped
//!    thread. The logs merge commutatively (min position per address)
//!    and one canonical replay, sorted by position, then drives the real
//!    tries through exactly the insertion sequence a sequential scan of
//!    the whole corpus would have produced.
//! 2. **Rewrite (copy workers).** `min(jobs, files)` workers take files
//!    off one shared work index, each from its own copy of the warmed
//!    anonymizer — all but the leak record and the emitted set, which no
//!    rewrite reads (`Anonymizer::worker_copy`). Worker 0 is the calling
//!    thread, so a one-job run spawns no thread at all. Every mapping the
//!    emit pass needs already exists, so workers only perform pure
//!    lookups and stateless keyed hashes; no cross-thread state is shared
//!    and no insertion order can differ, so byte output *and* failure
//!    reports are identical at every `--jobs` value.
//!
//! Byte-identity follows from the mappings being *sticky*: once an
//! address (or any identifier) has an image, re-anonymizing it returns
//! the same image without mutating state, and the discovery pass creates
//! all images in exactly the order the sequential run would have. The
//! sequential walk and one-worker rewrite this replaced survive as the
//! test-only oracle in `batch/reference.rs`, which the equivalence
//! properties compare every job count against.
//!
//! ## Fault isolation
//!
//! A corpus of a thousand files must not lose nine hundred ninety-nine of
//! them to one hostile input. Each per-file pass runs inside
//! [`catch_unwind`]: a panic is converted into a [`BatchFailure`] record
//! (file name, phase, panic message) and the file's output is withheld —
//! fail closed — while every other file emits the bytes it would have
//! emitted anyway. That stronger claim holds because a mid-file
//! discovery panic leaves the same partial per-file contributions at
//! every shard layout (a shard keeps the observations logged before the
//! panic, exactly mirroring the partial trie mutations a sequential scan
//! would have kept) and the rewrite pass is a pure function of the
//! warmed state; a worker whose copy panicked discards it and re-copies
//! before taking more work. A shard or worker that dies *outside* the
//! per-file containment (which should be impossible) fails closed too,
//! whichever thread it ran on: every file of the shard's range, or the
//! file the worker held, is reported failed and withheld, and the panic
//! never unwinds out of the run. Mutex poisoning from a contained panic
//! is likewise recovered: slot writes are index-disjoint, so a poisoned
//! lock holds no broken invariant.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use confanon_obs::{Clock, ObsShard};

use crate::anonymizer::{Anonymizer, AnonymizerConfig};
use crate::discover::ObservationLog;
use crate::error::{panic_message, BatchFailure, BatchPhase};
use crate::stats::{AnonymizationStats, RewriteStats};

#[cfg(test)]
mod reference;

/// One input file of a batch: a display name and its configuration text.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Name used for reporting (typically the relative file path).
    pub name: String,
    /// The raw configuration text.
    pub text: String,
}

/// One anonymized file of a batch, in input order.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// The input's display name.
    pub name: String,
    /// Anonymized configuration text.
    pub text: String,
    /// Per-file rule counters.
    pub stats: AnonymizationStats,
    /// Borrow-or-own accounting for this file's emit pass. Carried
    /// separately from `stats` (which is pinned byte-identical between
    /// the discovery and emit passes).
    pub rewrite: RewriteStats,
}

/// What one file's discovery pass contributed to the shared state's
/// order-independent accumulators: its per-file statistics and its
/// prefilter path counts (pure functions of the file's lines). Persisted
/// state stores one of these per file so an incremental run can skip the
/// file entirely and still report deterministic metrics byte-identical
/// to a cold run over the same corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileDiscovery {
    /// The per-file counters [`Anonymizer::discover_config`] returned.
    pub stats: AnonymizationStats,
    /// Prefilter fast-path lines this file contributed.
    pub prefilter_fast: u64,
    /// Prefilter slow-path lines this file contributed.
    pub prefilter_slow: u64,
}

/// The whole-corpus result.
pub struct BatchReport {
    /// Per-file outputs for every file that survived both passes, in
    /// input order. Skipped files (resume) emit no output.
    pub outputs: Vec<BatchOutput>,
    /// Files whose processing panicked (contained), in input order.
    /// Their outputs are withheld.
    pub failures: Vec<BatchFailure>,
    /// Files whose rewrite was skipped (`--resume` verified their
    /// released bytes already match), in input order.
    pub skipped: Vec<String>,
    /// Per-file discovery contributions, keyed by input name: freshly
    /// scanned files record what discovery measured; prewarmed files
    /// (incremental runs) echo back their stored contributions. Files
    /// whose discovery panicked have no entry.
    pub discoveries: BTreeMap<String, FileDiscovery>,
    /// Aggregate counters across the emitted outputs.
    pub totals: AnonymizationStats,
    /// Aggregate borrow-or-own accounting across the emitted outputs
    /// (the sum of each output's `rewrite` block).
    pub rewrite: RewriteStats,
    /// Worker threads used for the rewrite pass, the calling thread
    /// included.
    pub jobs: usize,
    /// The run's observability shard: phase/per-file spans plus
    /// discovery-pass counters and histograms. The `phase.discover.*`
    /// counters are deterministic across `--jobs`, shard layouts, and
    /// resumed-vs-one-shot runs, because discovery always covers the
    /// whole corpus and its counter merges are commutative sums; the
    /// shard count, which depends on the layout, reports under the
    /// `discovery.*` prefix, which the metrics document files in its
    /// timing section.
    pub obs: ObsShard,
}

/// A corpus anonymizer: one keyed state, many files, optional
/// parallelism with sequential-identical output and per-file panic
/// containment.
pub struct BatchPipeline {
    anonymizer: Anonymizer,
    jobs: usize,
    clock: Clock,
}

/// What one discovery shard found over its file range.
struct ShardScan {
    /// Contained per-file panics, by corpus index.
    fails: Vec<(usize, BatchFailure)>,
    /// Per-file contributions of the files that scanned cleanly.
    found: Vec<(String, FileDiscovery)>,
    /// The shard's spans, counters and histograms.
    obs: ObsShard,
}

/// The output and failure slots the rewrite workers fill, by corpus
/// index.
type RewriteCells<'a> = Mutex<(&'a mut [Option<BatchOutput>], &'a mut [Option<BatchFailure>])>;

impl BatchPipeline {
    /// Creates a pipeline over one owner secret. `jobs` is the worker
    /// count for the discovery and rewrite passes; `0` means the logical
    /// core count, and values above the corpus size are clamped to one
    /// worker per file.
    pub fn new(cfg: AnonymizerConfig, jobs: usize) -> BatchPipeline {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        BatchPipeline {
            anonymizer: Anonymizer::new(cfg),
            jobs,
            clock: Clock::new(),
        }
    }

    /// Puts the pipeline's observability on the caller's run timeline
    /// (or strips it entirely with [`Clock::disabled`] — the overhead
    /// benchmark's baseline).
    pub fn with_clock(mut self, clock: Clock) -> BatchPipeline {
        self.clock = clock;
        self
    }

    /// The warmed anonymizer (for audits: leak record, emitted
    /// exclusions, mapping audit). Meaningful after [`Self::run`].
    pub fn anonymizer(&self) -> &Anonymizer {
        &self.anonymizer
    }

    /// Mutable access to the pipeline's anonymizer, so a persisted state
    /// can be restored into it *before* the run (see
    /// [`crate::state::AnonState::restore_into`]). Restoring after
    /// discovery has begun would fork the insertion order the mappings
    /// depend on; callers restore first, then [`Self::run_incremental`].
    pub fn anonymizer_mut(&mut self) -> &mut Anonymizer {
        &mut self.anonymizer
    }

    /// Consumes the pipeline, returning the warmed anonymizer.
    pub fn into_anonymizer(self) -> Anonymizer {
        self.anonymizer
    }

    /// Anonymizes the corpus. Output order matches input order and the
    /// bytes are identical for every `jobs` value; files that panic are
    /// reported in [`BatchReport::failures`] instead of aborting the run.
    pub fn run(&mut self, inputs: &[BatchInput]) -> BatchReport {
        self.run_incremental(inputs, &BTreeSet::new(), &BTreeMap::new())
    }

    /// [`Self::run`] with a resume skip set and a prewarmed-discovery
    /// map.
    ///
    /// Discovery still covers the *whole* corpus in input order — the
    /// shared mapping state is order-dependent, so a resumed run must
    /// perform the identical sequence of mutations an uninterrupted run
    /// would — but files in `skip` (their released bytes already
    /// verified on disk) are not re-emitted. Byte-identity of the
    /// re-emitted files follows: the warmed state is the same, and
    /// rewrite is a pure function of it.
    ///
    /// Files whose name has an entry in `prewarmed` are *not* scanned at
    /// all — the run trusts that their identifier contributions are
    /// already present in the anonymizer (restored from persisted state
    /// via journal replay) and synthesizes their deterministic per-file
    /// counters from the stored [`FileDiscovery`] instead, so the metrics
    /// document stays byte-identical to a cold run over the same corpus.
    /// The remaining files are observed with their *original* corpus
    /// positions, so the canonical replay order matches the cold run's
    /// first-occurrence order.
    pub fn run_incremental(
        &mut self,
        inputs: &[BatchInput],
        skip: &BTreeSet<String>,
        prewarmed: &BTreeMap<String, FileDiscovery>,
    ) -> BatchReport {
        let mut obs = ObsShard::new(self.clock);

        // Pass 1 — discovery with per-file containment. The warmed state,
        // including the partial mapping state a mid-file panic leaves
        // behind, is identical at any job count, so downstream emission
        // stays deterministic. The counters and histograms recorded here
        // inherit that determinism (resume skip sets only affect the
        // rewrite pass), which is what lets the metrics document put them
        // in its deterministic section.
        let t_discover = obs.span_start();
        let mut failed: Vec<Option<BatchFailure>> = vec![None; inputs.len()];
        let mut discoveries: BTreeMap<String, FileDiscovery> = BTreeMap::new();
        self.discover_pass(inputs, prewarmed, &mut failed, &mut obs, &mut discoveries);
        obs.span_end("discover", "phase", 0, t_discover);

        // Prefilter path counters are pure functions of line content —
        // deterministic across job counts and shard layouts — so they
        // live under the deterministic `phase.discover.` prefix. Snapshot
        // now: rewrite copies keep their own discarded counters.
        let pf = *self.anonymizer.prefilter_stats();
        obs.count("phase.discover.prefilter_fast_path_lines", pf.fast_path_lines);
        obs.count("phase.discover.prefilter_slow_path_lines", pf.slow_path_lines);

        // Pass 2 — rewrite the survivors from copies of the warmed
        // state, except files the resume verification already vouched
        // for.
        let pending: Vec<usize> = (0..inputs.len())
            .filter(|&i| failed[i].is_none() && !skip.contains(&inputs[i].name))
            .collect();
        let skipped: Vec<String> = inputs
            .iter()
            .filter(|f| skip.contains(&f.name))
            .map(|f| f.name.clone())
            .collect();
        let mut slots: Vec<Option<BatchOutput>> = Vec::new();
        slots.resize_with(inputs.len(), || None);

        let t_rewrite = obs.span_start();
        let jobs = self.rewrite_pass(inputs, &pending, &mut slots, &mut failed, &mut obs);
        obs.span_end("rewrite", "phase", 0, t_rewrite);
        obs.count("phase.rewrite.skipped", skipped.len() as u64);

        let outputs: Vec<BatchOutput> = slots.into_iter().flatten().collect();
        let failures: Vec<BatchFailure> = failed.into_iter().flatten().collect();
        let mut totals = AnonymizationStats::default();
        let mut rewrite = RewriteStats::default();
        for o in &outputs {
            totals.merge(&o.stats);
            rewrite.absorb(&o.rewrite);
        }
        // Borrow verdicts depend on the emit pass only and never feed the
        // deterministic metrics section, so they report under the
        // timing-section `phase.rewrite.` prefix.
        obs.count("phase.rewrite.lines_borrowed", rewrite.lines_borrowed);
        obs.count("phase.rewrite.lines_rewritten", rewrite.lines_rewritten);
        obs.count("phase.rewrite.allocations_avoided", rewrite.allocations_avoided);
        obs.count("phase.rewrite.hash_memo_hits", rewrite.hash_memo_hits);
        obs.count("phase.rewrite.hash_memo_misses", rewrite.hash_memo_misses);
        BatchReport {
            outputs,
            failures,
            skipped,
            discoveries,
            totals,
            rewrite,
            jobs,
            obs,
        }
    }

    /// Runs *only* the discovery pass, warming the mapping state exactly
    /// as [`Self::run`] would before its rewrite pass, and returns the
    /// contained per-file failures. This is the benchmark entry point
    /// behind the CLI's `--bench-json` `discovery` block and the
    /// perfbench discovery layer; production runs use [`Self::run`].
    pub fn discover_corpus(&mut self, inputs: &[BatchInput]) -> Vec<BatchFailure> {
        let mut obs = ObsShard::new(self.clock);
        let mut failed: Vec<Option<BatchFailure>> = vec![None; inputs.len()];
        let mut discoveries = BTreeMap::new();
        self.discover_pass(inputs, &BTreeMap::new(), &mut failed, &mut obs, &mut discoveries);
        failed.into_iter().flatten().collect()
    }

    /// The discovery pass: prewarmed files contribute their stored,
    /// order-independent accumulators (statistics, prefilter path
    /// counts) and synthesized per-file counters without being scanned —
    /// their trie insertions are already present via journal replay.
    /// The remaining files are observed by `min(jobs, files)` shards over
    /// contiguous ranges, and the merged log replays in canonical order.
    /// See the module docs and [`crate::discover`] for why the warmed
    /// state is byte-identical to a sequential scan.
    fn discover_pass(
        &mut self,
        inputs: &[BatchInput],
        prewarmed: &BTreeMap<String, FileDiscovery>,
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
        discoveries: &mut BTreeMap<String, FileDiscovery>,
    ) {
        let mut to_scan: Vec<usize> = Vec::with_capacity(inputs.len());
        for (i, f) in inputs.iter().enumerate() {
            match prewarmed.get(&f.name) {
                Some(d) => {
                    // The deterministic per-file counters a cold scan
                    // would have recorded, reconstructed from the stored
                    // contribution (the file's text is watermark-verified
                    // unchanged, so byte/line counts are the cold run's).
                    obs.count("phase.discover.files", 1);
                    obs.count("phase.discover.input_bytes", f.text.len() as u64);
                    obs.record("file.input_bytes", f.text.len() as u64);
                    obs.record("file.input_lines", d.stats.lines_total);
                    obs.count("discovery.files_prewarmed", 1);
                    self.anonymizer.absorb_stats(&d.stats);
                    self.anonymizer
                        .absorb_prefilter_counts(d.prefilter_fast, d.prefilter_slow);
                    discoveries.insert(f.name.clone(), d.clone());
                }
                None => to_scan.push(i),
            }
        }

        let shards = self.jobs.min(to_scan.len()).max(1);
        obs.count("discovery.shards", shards as u64);
        let clock = obs.clock();
        // Contiguous ranges over the to-scan list keep every
        // observation's corpus position globally ordered no matter which
        // shard logged it; each observation carries its file's
        // *original* corpus index, so the canonical replay matches a
        // cold sequential scan's first-occurrence order.
        let indices = to_scan.as_slice();
        let range =
            move |w: usize| &indices[w * indices.len() / shards..(w + 1) * indices.len() / shards];
        let observers: Vec<Anonymizer> = (1..shards).map(|_| self.anonymizer.observer()).collect();
        let retained = &mut self.anonymizer;
        let scans: Vec<std::thread::Result<(ShardScan, ObservationLog)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..)
                    .zip(observers)
                    .map(|(w, mut anon)| {
                        scope.spawn(move || {
                            (scan_range(&mut anon, inputs, range(w), w as u32 + 1, clock), anon)
                        })
                    })
                    .collect();
                // Shard 0 observes on the retained anonymizer itself; its
                // log is disarmed whether or not the range completes.
                retained.start_observing();
                let first = catch_unwind(AssertUnwindSafe(|| {
                    scan_range(retained, inputs, range(0), 1, clock)
                }));
                let log = retained.stop_observing();
                let mut scans = vec![first.map(|scan| (scan, log))];
                for handle in handles {
                    let joined = handle.join();
                    scans.push(joined.map(|(scan, anon)| (scan, retained.absorb_observer(anon))));
                }
                scans
            });

        // Commutative merges in shard order, then the canonical replay
        // that drives the tries through the sequential insertion order.
        // A shard that died outside the per-file containment (should be
        // impossible) fails its whole range closed and forfeits its
        // observations; on shard 0 the leak record and statistics keep
        // what the range added before the crash.
        let mut merged = ObservationLog::default();
        for (w, scan) in scans.into_iter().enumerate() {
            match scan {
                Ok((scan, log)) => {
                    obs.merge(&scan.obs);
                    for (i, f) in scan.fails {
                        failed[i] = Some(f);
                    }
                    discoveries.extend(scan.found);
                    merged.merge(log);
                }
                Err(_) => {
                    for &i in range(w) {
                        failed[i] = Some(BatchFailure {
                            name: inputs[i].name.clone(),
                            phase: BatchPhase::Discover,
                            cause: "discovery worker crashed".to_string(),
                        });
                    }
                }
            }
        }
        self.anonymizer.replay_observed(merged.into_canonical_order());
    }

    /// The rewrite pass: `min(jobs, files)` workers over one shared work
    /// index, worker 0 on the calling thread (so one job spawns no
    /// thread, and no thread's separate allocator arena adds to the peak
    /// RSS). Each worker re-emits from its own copy of the warmed state
    /// and records into a private shard; the shards merge in worker
    /// order, and counter/histogram merges are sums, so the merged values
    /// are independent of work-stealing order — only span timestamps
    /// (timing data) vary run to run. Returns the worker count.
    fn rewrite_pass(
        &self,
        inputs: &[BatchInput],
        pending: &[usize],
        slots: &mut [Option<BatchOutput>],
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
    ) -> usize {
        let workers = self.jobs.min(pending.len()).max(1);
        let next = AtomicUsize::new(0);
        let cells: RewriteCells = Mutex::new((slots, failed));
        let clock = obs.clock();
        let warmed = &self.anonymizer;
        let work = |w: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                rewrite_worker(warmed, inputs, pending, &next, &cells, w as u32 + 1, clock)
            }))
        };
        let shards: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
            let mut shards = vec![work(0)];
            shards.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(Err)));
            shards
        });
        for shard in shards.iter().flatten() {
            obs.merge(shard);
        }

        // A worker that died outside the per-file containment (should be
        // impossible) left the file it held with neither an output nor a
        // failure, and so did the rest of the index if no other worker
        // was left to drain it: fail them closed.
        let (slots, failed) = cells.into_inner().unwrap_or_else(|e| e.into_inner());
        for &i in pending {
            if slots[i].is_none() && failed[i].is_none() {
                failed[i] = Some(BatchFailure {
                    name: inputs[i].name.clone(),
                    phase: BatchPhase::Rewrite,
                    cause: "rewrite worker crashed".to_string(),
                });
            }
        }
        workers
    }
}

/// One discovery shard: observes every file of `range` in corpus order
/// on `anon`, whose observation log is armed, containing each file's
/// panic. A contained panic keeps the observations logged before it —
/// exactly the partial mutations a sequential scan would have kept.
fn scan_range(
    anon: &mut Anonymizer,
    inputs: &[BatchInput],
    range: &[usize],
    tid: u32,
    clock: Clock,
) -> ShardScan {
    let mut scan = ShardScan {
        fails: Vec::new(),
        found: Vec::new(),
        obs: ObsShard::new(clock),
    };
    for &i in range {
        let f = &inputs[i];
        let pf_before = *anon.prefilter_stats();
        let t_file = scan.obs.span_start();
        let result = catch_unwind(AssertUnwindSafe(|| anon.observe_file(i as u64, &f.text)));
        scan.obs.span_end(&f.name, "discover", tid, t_file);
        scan.obs.count("phase.discover.files", 1);
        scan.obs.count("phase.discover.input_bytes", f.text.len() as u64);
        scan.obs.record("file.input_bytes", f.text.len() as u64);
        match result {
            Ok(stats) => {
                scan.obs.record("file.input_lines", stats.lines_total);
                let pf = *anon.prefilter_stats();
                scan.found.push((
                    f.name.clone(),
                    FileDiscovery {
                        stats,
                        prefilter_fast: pf.fast_path_lines - pf_before.fast_path_lines,
                        prefilter_slow: pf.slow_path_lines - pf_before.slow_path_lines,
                    },
                ));
            }
            Err(payload) => {
                scan.obs.count("phase.discover.panics_contained", 1);
                scan.fails.push((
                    i,
                    BatchFailure {
                        name: f.name.clone(),
                        phase: BatchPhase::Discover,
                        cause: panic_message(payload.as_ref()),
                    },
                ));
            }
        }
        #[cfg(test)]
        crash_outside_containment(&f.name, BatchPhase::Discover);
    }
    scan
}

/// One rewrite worker: takes files off the shared index until it runs
/// dry, re-emitting each from a copy of the warmed state (only lookups
/// happen, so copies never diverge in any way that affects output) and
/// re-copying after a contained panic, which may have left partial
/// state in the copy.
fn rewrite_worker(
    warmed: &Anonymizer,
    inputs: &[BatchInput],
    pending: &[usize],
    next: &AtomicUsize,
    cells: &RewriteCells,
    tid: u32,
    clock: Clock,
) -> ObsShard {
    let mut anon = warmed.worker_copy();
    let mut shard = ObsShard::new(clock);
    while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
        let t_file = shard.span_start();
        let result = catch_unwind(AssertUnwindSafe(|| anon.anonymize_config(&inputs[i].text)));
        shard.span_end(&inputs[i].name, "rewrite", tid, t_file);
        shard.count("phase.rewrite.files", 1);
        #[cfg(test)]
        crash_outside_containment(&inputs[i].name, BatchPhase::Rewrite);
        // A panicking sibling poisons the mutex; writes are
        // index-disjoint, so the guarded data holds no broken invariant
        // and the lock is recovered.
        let mut guard = cells.lock().unwrap_or_else(|e| e.into_inner());
        match result {
            Ok(out) => {
                shard.count("phase.rewrite.output_bytes", out.text.len() as u64);
                guard.0[i] = Some(BatchOutput {
                    name: inputs[i].name.clone(),
                    text: out.text,
                    stats: out.stats,
                    rewrite: anon.take_rewrite_stats(),
                });
            }
            Err(payload) => {
                shard.count("phase.rewrite.panics_contained", 1);
                guard.1[i] = Some(BatchFailure {
                    name: inputs[i].name.clone(),
                    phase: BatchPhase::Rewrite,
                    cause: panic_message(payload.as_ref()),
                });
                drop(guard);
                anon = warmed.worker_copy();
            }
        }
    }
    shard
}

/// Test seam: a file named `crash-<phase>.cfg` crashes its discovery
/// shard or rewrite worker just outside the per-file containment, where
/// no input can reach, so the tests can drive the fail-closed handling
/// of a crash that should be impossible.
#[cfg(test)]
fn crash_outside_containment(name: &str, phase: BatchPhase) {
    assert_ne!(name, format!("crash-{}.cfg", phase.name()), "worker crashed");
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn corpus() -> Vec<BatchInput> {
        let mk = |i: u32| {
            format!(
                "hostname r{i}.backbone.example.net\n\
                 ! link to chicago pop {i}\n\
                 interface Serial0/{i}\n ip address 10.{i}.0.1 255.255.255.0\n\
                 router bgp 70{i}\n neighbor 12.126.236.{i} remote-as 1239\n\
                 ip route 192.168.{i}.0 255.255.255.0 Null0\n"
            )
        };
        (1..=6)
            .map(|i| BatchInput {
                name: format!("r{i}.cfg"),
                text: mk(i),
            })
            .collect()
    }

    fn secret() -> AnonymizerConfig {
        AnonymizerConfig::new(b"batch-test-secret".to_vec())
    }

    /// A config that injects a panic on any line containing `marker`
    /// during the given phase.
    fn faulty(marker: &str, phase: BatchPhase) -> AnonymizerConfig {
        let mut cfg = secret();
        cfg.fault_marker = Some((marker.to_string(), phase));
        cfg
    }

    #[test]
    fn parallel_output_matches_sequential_bytes() {
        let inputs = corpus();
        let seq = BatchPipeline::new(secret(), 1).run(&inputs);
        for jobs in [2, 4, 8] {
            let par = BatchPipeline::new(secret(), jobs).run(&inputs);
            assert_eq!(par.outputs.len(), seq.outputs.len());
            for (a, b) in seq.outputs.iter().zip(&par.outputs) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.text, b.text, "jobs={jobs} diverged on {}", a.name);
                assert_eq!(a.stats, b.stats, "jobs={jobs} stats diverged");
            }
            assert_eq!(seq.totals, par.totals);
        }
    }

    #[test]
    fn discovery_then_emit_matches_plain_anonymizer() {
        // The batch pipeline must agree with the plain sequential API a
        // caller would have used before it existed.
        let inputs = corpus();
        let mut plain = Anonymizer::new(secret());
        let expect: Vec<String> = inputs
            .iter()
            .map(|f| plain.anonymize_config(&f.text).text)
            .collect();
        let got = BatchPipeline::new(secret(), 4).run(&inputs);
        for (e, g) in expect.iter().zip(&got.outputs) {
            assert_eq!(e, &g.text);
        }
    }

    #[test]
    fn discover_config_warms_identical_state() {
        // Discovery followed by emit gives the same bytes as cold emit,
        // and the same leak record / emitted exclusions.
        let inputs = corpus();
        let mut cold = Anonymizer::new(secret());
        let cold_texts: Vec<String> = inputs
            .iter()
            .map(|f| cold.anonymize_config(&f.text).text)
            .collect();

        let mut warm = Anonymizer::new(secret());
        for f in &inputs {
            warm.discover_config(&f.text);
        }
        let warm_texts: Vec<String> = inputs
            .iter()
            .map(|f| warm.anonymize_config(&f.text).text)
            .collect();

        assert_eq!(cold_texts, warm_texts);
        assert_eq!(cold.leak_record().asns, warm.leak_record().asns);
        assert_eq!(cold.leak_record().ips, warm.leak_record().ips);
        assert_eq!(cold.leak_record().words, warm.leak_record().words);
    }

    #[test]
    fn discovery_stats_match_emit_stats() {
        let inputs = corpus();
        let mut emit = Anonymizer::new(secret());
        let mut discover = Anonymizer::new(secret());
        for f in &inputs {
            let e = emit.anonymize_config(&f.text).stats;
            let d = discover.discover_config(&f.text);
            assert_eq!(e, d);
        }
    }

    #[test]
    fn totals_match_anonymizer_totals_in_parallel_mode() {
        let inputs = corpus();
        let mut p = BatchPipeline::new(secret(), 3);
        let report = p.run(&inputs);
        // The pipeline's retained (discovery-warmed) anonymizer saw the
        // whole corpus once, so its totals agree with the report.
        assert_eq!(report.totals, *p.anonymizer().total_stats());
    }

    #[test]
    fn jobs_zero_uses_available_parallelism() {
        let p = BatchPipeline::new(secret(), 0);
        assert!(p.jobs >= 1);
    }

    #[test]
    fn cross_file_referential_integrity_survives_parallelism() {
        // The same route-map name in two different files must map to the
        // same token — the §3.2 consistency requirement the shared warmed
        // state exists to honor.
        let inputs = vec![
            BatchInput {
                name: "a.cfg".into(),
                text: " neighbor 9.9.9.9 route-map CHI-IMPORT in\n".into(),
            },
            BatchInput {
                name: "b.cfg".into(),
                text: "route-map CHI-IMPORT permit 10\n".into(),
            },
        ];
        let report = BatchPipeline::new(secret(), 2).run(&inputs);
        let use_tok = report.outputs[0]
            .text
            .split_whitespace()
            .nth(3)
            .expect("use site")
            .to_string();
        let def_tok = report.outputs[1]
            .text
            .split_whitespace()
            .nth(1)
            .expect("def site")
            .to_string();
        assert_eq!(use_tok, def_tok);
    }

    #[test]
    fn discovery_panic_is_contained_and_reported() {
        let mut inputs = corpus();
        inputs[2].text.push_str("POISON PILL here\n");
        let mut p = BatchPipeline::new(faulty("POISON", BatchPhase::Discover), 1);
        let report = p.run(&inputs);
        assert_eq!(report.outputs.len(), inputs.len() - 1);
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert_eq!(f.name, "r3.cfg");
        assert_eq!(f.phase, BatchPhase::Discover);
        assert!(f.cause.contains("injected fault"), "cause: {}", f.cause);
        // The failed file's output was withheld, not emitted empty.
        assert!(report.outputs.iter().all(|o| o.name != "r3.cfg"));
    }

    #[test]
    fn rewrite_panic_is_contained_at_any_job_count() {
        let mut inputs = corpus();
        inputs[4].text.push_str("POISON PILL here\n");
        for jobs in [1, 2, 8] {
            let mut p = BatchPipeline::new(faulty("POISON", BatchPhase::Rewrite), jobs);
            let report = p.run(&inputs);
            assert_eq!(report.failures.len(), 1, "jobs={jobs}");
            assert_eq!(report.failures[0].name, "r5.cfg");
            assert_eq!(report.failures[0].phase, BatchPhase::Rewrite);
            assert_eq!(report.outputs.len(), inputs.len() - 1);
        }
    }

    #[test]
    fn contained_panic_leaves_other_outputs_byte_identical() {
        // The defining fail-closed property: a hostile file changes
        // nothing about any other file's bytes.
        let clean = corpus();
        let baseline = BatchPipeline::new(secret(), 2).run(&clean);

        let mut hostile = clean.clone();
        hostile.push(BatchInput {
            name: "evil.cfg".into(),
            text: "hostname evil\nPOISON PILL\n".into(),
        });
        for jobs in [1, 2, 8] {
            let mut p = BatchPipeline::new(faulty("POISON", BatchPhase::Discover), jobs);
            let report = p.run(&hostile);
            assert_eq!(report.failures.len(), 1, "jobs={jobs}");
            assert_eq!(report.outputs.len(), clean.len());
            for (a, b) in baseline.outputs.iter().zip(&report.outputs) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.text, b.text, "jobs={jobs} diverged on {}", a.name);
            }
        }
    }

    #[test]
    fn failure_report_is_deterministic_across_job_counts() {
        let mut inputs = corpus();
        inputs[0].text.push_str("POISON first\n");
        inputs[3].text.push_str("POISON second\n");
        inputs[5].text.push_str("POISON third\n");
        let reference: Vec<(String, BatchPhase, String)> =
            BatchPipeline::new(faulty("POISON", BatchPhase::Rewrite), 1)
                .run(&inputs)
                .failures
                .iter()
                .map(|f| (f.name.clone(), f.phase, f.cause.clone()))
                .collect();
        assert_eq!(reference.len(), 3);
        for jobs in [2, 4, 8] {
            let got: Vec<(String, BatchPhase, String)> =
                BatchPipeline::new(faulty("POISON", BatchPhase::Rewrite), jobs)
                    .run(&inputs)
                    .failures
                    .iter()
                    .map(|f| (f.name.clone(), f.phase, f.cause.clone()))
                    .collect();
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn skipping_preserves_other_files_bytes() {
        // The resume property at the pipeline level: skipping verified
        // files changes nothing about the bytes of the files that are
        // re-emitted, because discovery still walks the whole corpus.
        let inputs = corpus();
        let full = BatchPipeline::new(secret(), 2).run(&inputs);
        let skip = BTreeSet::from(["r2.cfg".to_string(), "r5.cfg".to_string()]);
        for jobs in [1, 4] {
            let partial = BatchPipeline::new(secret(), jobs).run_incremental(
                &inputs,
                &skip,
                &BTreeMap::new(),
            );
            assert_eq!(partial.skipped, vec!["r2.cfg".to_string(), "r5.cfg".to_string()]);
            assert_eq!(partial.outputs.len(), inputs.len() - 2);
            for o in &partial.outputs {
                let reference = full
                    .outputs
                    .iter()
                    .find(|f| f.name == o.name)
                    .expect("present in full run");
                assert_eq!(o.text, reference.text, "jobs={jobs}: {} diverged", o.name);
            }
        }
    }

    #[test]
    fn empty_corpus_is_a_clean_report() {
        let report = BatchPipeline::new(secret(), 4).run(&[]);
        assert!(report.outputs.is_empty());
        assert!(report.failures.is_empty());
    }

    /// The warmed-state fingerprint a discovery pass leaves behind.
    fn state_fingerprint(a: &Anonymizer) -> (Vec<String>, crate::leak::LeakRecord, (usize, usize)) {
        (
            a.emitted_exclusions(),
            a.leak_record().clone(),
            a.trie_node_counts(),
        )
    }

    #[test]
    fn sharded_discovery_warms_identical_state() {
        // The equivalence at the state level: emitted set, leak record,
        // trie node counts, and total stats match between one shard and
        // several (`reference.rs` pins both to the sequential walk).
        let inputs = corpus();
        let mut seq = BatchPipeline::new(secret(), 1);
        seq.discover_corpus(&inputs);
        for jobs in [2, 3, 4, 8] {
            let mut par = BatchPipeline::new(secret(), jobs);
            par.discover_corpus(&inputs);
            assert_eq!(
                state_fingerprint(seq.anonymizer()),
                state_fingerprint(par.anonymizer()),
                "jobs={jobs}"
            );
            assert_eq!(
                seq.anonymizer().total_stats(),
                par.anonymizer().total_stats(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn sharded_discovery_contains_panics_like_sequential() {
        // A poisoned file mid-corpus: the failure report and every other
        // file's bytes match the one-shard run exactly.
        let mut inputs = corpus();
        inputs[2].text.push_str("POISON PILL here\n");
        let reference = BatchPipeline::new(faulty("POISON", BatchPhase::Discover), 1).run(&inputs);
        assert_eq!(reference.failures.len(), 1);
        for jobs in [2, 4, 8] {
            let run = BatchPipeline::new(faulty("POISON", BatchPhase::Discover), jobs).run(&inputs);
            assert_eq!(run.failures.len(), 1, "jobs={jobs}");
            assert_eq!(run.failures[0].name, "r3.cfg");
            assert_eq!(run.failures[0].phase, BatchPhase::Discover);
            assert_eq!(run.outputs.len(), reference.outputs.len());
            for (a, b) in reference.outputs.iter().zip(&run.outputs) {
                assert_eq!(a.text, b.text, "jobs={jobs} diverged on {}", a.name);
            }
        }
    }

    #[test]
    fn discover_corpus_matches_run_state() {
        // The benchmark entry point warms exactly the state `run` does.
        let inputs = corpus();
        let mut via_run = BatchPipeline::new(secret(), 4);
        via_run.run(&inputs);
        let mut via_discover = BatchPipeline::new(secret(), 4);
        let failures = via_discover.discover_corpus(&inputs);
        assert!(failures.is_empty());
        assert_eq!(
            state_fingerprint(via_run.anonymizer()),
            state_fingerprint(via_discover.anonymizer())
        );
    }

    #[test]
    fn prefilter_counters_are_mode_invariant() {
        // Fast/slow line counts are pure functions of the corpus: every
        // shard layout agrees (cache hits, by design, may not — they
        // live in the timing section).
        let inputs = corpus();
        let mut seq = BatchPipeline::new(secret(), 1);
        seq.discover_corpus(&inputs);
        let s = *seq.anonymizer().prefilter_stats();
        assert!(s.fast_path_lines > 0, "corpus has fast-path lines");
        assert!(s.slow_path_lines > 0, "corpus has slow-path lines");
        for jobs in [2, 4, 8] {
            let mut par = BatchPipeline::new(secret(), jobs);
            par.discover_corpus(&inputs);
            let p = *par.anonymizer().prefilter_stats();
            assert_eq!(s.fast_path_lines, p.fast_path_lines, "jobs={jobs}");
            assert_eq!(s.slow_path_lines, p.slow_path_lines, "jobs={jobs}");
        }
    }

    #[test]
    fn discoveries_are_mode_and_job_invariant() {
        // The per-file discovery records (stats + prefilter deltas) are
        // pure functions of each file's text: every shard layout agrees,
        // and the deltas sum to the whole-corpus prefilter counters.
        let inputs = corpus();
        let mut seq = BatchPipeline::new(secret(), 1);
        let reference = seq.run(&inputs).discoveries;
        assert_eq!(reference.len(), inputs.len());
        let s = *seq.anonymizer().prefilter_stats();
        assert_eq!(
            reference.values().map(|d| d.prefilter_fast).sum::<u64>(),
            s.fast_path_lines
        );
        assert_eq!(
            reference.values().map(|d| d.prefilter_slow).sum::<u64>(),
            s.slow_path_lines
        );
        for jobs in [2, 4, 8] {
            let mut par = BatchPipeline::new(secret(), jobs);
            assert_eq!(par.run(&inputs).discoveries, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn incremental_prewarmed_run_matches_cold_run() {
        // The tentpole equivalence at the pipeline level: session 1 over
        // a prefix of the corpus, state captured and restored via
        // journal replay, session 2 prewarmed over the grown corpus —
        // every byte, per-file stat, and state fingerprint matches one
        // continuous cold run, at several job counts.
        let inputs = corpus();
        let mut cold = BatchPipeline::new(secret(), 2);
        let cold_report = cold.run(&inputs);

        let mut s1 = BatchPipeline::new(secret(), 2);
        let r1 = s1.run(&inputs[..4]);
        let state = crate::state::AnonState::capture(
            s1.anonymizer(),
            "test-fingerprint".to_string(),
            BTreeMap::new(),
        );

        for jobs in [1, 2, 4] {
            let mut s2 = BatchPipeline::new(secret(), jobs);
            state
                .restore_into("state.json", s2.anonymizer_mut())
                .expect("restore");
            let r2 = s2.run_incremental(&inputs, &BTreeSet::new(), &r1.discoveries);
            assert_eq!(r2.outputs.len(), cold_report.outputs.len());
            for (a, b) in cold_report.outputs.iter().zip(&r2.outputs) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.text, b.text, "jobs={jobs} diverged on {}", a.name);
                assert_eq!(a.stats, b.stats, "jobs={jobs} stats diverged on {}", a.name);
            }
            assert_eq!(r2.discoveries, cold_report.discoveries, "jobs={jobs}");
            assert_eq!(
                s2.anonymizer().total_stats(),
                cold.anonymizer().total_stats(),
                "jobs={jobs}"
            );
            assert_eq!(
                state_fingerprint(s2.anonymizer()),
                state_fingerprint(cold.anonymizer()),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn fully_prewarmed_run_scans_nothing_and_reports_cold_state() {
        // An unchanged corpus under warm state: every file prewarmed and
        // rewrite-skipped — no outputs, but the retained state and the
        // per-file discovery map still match the cold run exactly.
        let inputs = corpus();
        let mut cold = BatchPipeline::new(secret(), 2);
        let cold_report = cold.run(&inputs);
        let state = crate::state::AnonState::capture(
            cold.anonymizer(),
            "test-fingerprint".to_string(),
            BTreeMap::new(),
        );

        let skip: BTreeSet<String> = inputs.iter().map(|f| f.name.clone()).collect();
        let mut warm = BatchPipeline::new(secret(), 4);
        state
            .restore_into("state.json", warm.anonymizer_mut())
            .expect("restore");
        let r = warm.run_incremental(&inputs, &skip, &cold_report.discoveries);
        assert!(r.outputs.is_empty());
        assert!(r.failures.is_empty());
        assert_eq!(r.skipped.len(), inputs.len());
        assert_eq!(r.discoveries, cold_report.discoveries);
        assert_eq!(warm.anonymizer().total_stats(), cold.anonymizer().total_stats());
        assert_eq!(
            state_fingerprint(warm.anonymizer()),
            state_fingerprint(cold.anonymizer())
        );
    }

    /// Every job count runs the same observe-merge-replay discovery, so
    /// the shard count is `min(jobs, files)` throughout: one shard — the
    /// calling thread — at one job or for a one-file corpus, and it is
    /// recorded even then.
    #[test]
    fn discovery_mode_follows_jobs_and_file_count() {
        let inputs = corpus();
        let shards = |jobs: usize, inputs: &[BatchInput]| {
            BatchPipeline::new(secret(), jobs)
                .run(inputs)
                .obs
                .counters()
                .get("discovery.shards")
                .copied()
        };
        assert_eq!(shards(1, &inputs), Some(1));
        assert_eq!(shards(4, &inputs[..1]), Some(1));
        for jobs in [2, 3, 4, 8] {
            assert_eq!(
                shards(jobs, &inputs),
                Some(jobs.min(inputs.len()) as u64),
                "jobs={jobs}"
            );
        }
    }

    /// A one-job run is the calling thread alone in both passes: every
    /// span it records is on lane 1, the first worker's.
    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let report = BatchPipeline::new(secret(), 1).run(&corpus());
        assert_eq!(report.jobs, 1);
        let lanes: BTreeSet<u32> = report
            .obs
            .spans()
            .iter()
            .filter(|s| s.cat != "phase")
            .map(|s| s.tid)
            .collect();
        assert_eq!(lanes, BTreeSet::from([1]));
    }

    /// A discovery shard that dies outside the per-file containment fails
    /// its whole range closed, on the calling thread (shard 0) as on a
    /// spawned one, and the run returns normally. The surviving files
    /// release exactly what a run over them alone releases: the crashed
    /// range's observations are forfeited.
    #[test]
    fn crashed_discovery_shard_fails_its_range_closed() {
        // (crashing file, jobs, the crashing shard's range)
        for (at, jobs, lo, hi) in [(1, 1, 0, 6), (1, 2, 0, 3), (4, 2, 3, 6), (2, 3, 2, 4)] {
            let mut inputs = corpus();
            inputs[at].name = "crash-discover.cfg".to_string();
            let report = BatchPipeline::new(secret(), jobs).run(&inputs);
            let failed: Vec<&str> = report.failures.iter().map(|f| f.name.as_str()).collect();
            let range: Vec<&str> = inputs[lo..hi].iter().map(|f| f.name.as_str()).collect();
            assert_eq!(failed, range, "crash at {at}, jobs={jobs}");
            assert!(report
                .failures
                .iter()
                .all(|f| f.phase == BatchPhase::Discover && f.cause == "discovery worker crashed"));
            let survivors = [&inputs[..lo], &inputs[hi..]].concat();
            let alone = BatchPipeline::new(secret(), 1).run(&survivors);
            let texts = |r: &BatchReport| -> Vec<(String, String)> {
                r.outputs.iter().map(|o| (o.name.clone(), o.text.clone())).collect()
            };
            assert_eq!(texts(&report), texts(&alone), "crash at {at}, jobs={jobs}");
        }
    }

    /// A rewrite worker that dies outside the per-file containment fails
    /// the file it held closed, and the run returns normally. Other
    /// workers go on taking files; the calling thread alone (one job)
    /// leaves the rest of the index to be failed closed with it.
    #[test]
    fn crashed_rewrite_worker_fails_its_files_closed() {
        let mut inputs = corpus();
        inputs[2].name = "crash-rewrite.cfg".to_string();
        let failed = |jobs: usize| -> Vec<String> {
            let report = BatchPipeline::new(secret(), jobs).run(&inputs);
            assert_eq!(report.outputs.len() + report.failures.len(), inputs.len());
            assert!(report
                .failures
                .iter()
                .all(|f| f.phase == BatchPhase::Rewrite && f.cause == "rewrite worker crashed"));
            report.failures.into_iter().map(|f| f.name).collect()
        };
        let held_and_after: Vec<String> = inputs[2..].iter().map(|f| f.name.clone()).collect();
        assert_eq!(failed(1), held_and_after);
        for jobs in [2, 4] {
            assert_eq!(failed(jobs), vec!["crash-rewrite.cfg".to_string()], "jobs={jobs}");
        }
    }

    /// The borrow-or-own accounting covers every emitted line exactly
    /// once, at every job count.
    #[test]
    fn rewrite_stats_account_for_every_emitted_line() {
        let inputs = corpus();
        for jobs in [1, 4] {
            let run = BatchPipeline::new(secret(), jobs).run(&inputs);
            assert_eq!(
                run.rewrite.lines_total,
                run.rewrite.lines_borrowed + run.rewrite.lines_rewritten,
                "jobs={jobs}"
            );
            assert!(run.rewrite.lines_total > 0, "jobs={jobs}");
        }
    }
}
