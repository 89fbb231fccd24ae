//! Parallel anonymization of a multi-router corpus under one keyed state,
//! with per-file fault isolation.
//!
//! §3.2 requires every identifier of a network to map consistently
//! *across* its files, which is why one [`Anonymizer`] processes the
//! whole network and why the paper notes the table-based IP scheme does
//! not parallelize trivially (unlike Xu's stateless scheme). The pipeline
//! here recovers the parallelism anyway, with the output guaranteed
//! byte-identical to a sequential run at any worker count:
//!
//! 1. **Discovery (sharded).** Workers scan disjoint contiguous file
//!    ranges with *observer* clones of the anonymizer: every rule runs
//!    and every order-independent accumulator (leak record, emitted
//!    images, statistics) fills in normally, but the order-dependent
//!    trie insertions are deferred — each worker logs the first corpus
//!    position of every address it would have mapped
//!    ([`crate::discover::ObservationLog`]). The shard logs merge
//!    commutatively (min position per address) and one canonical replay,
//!    sorted by position, then drives the real tries through exactly the
//!    insertion sequence a sequential scan of the whole corpus would
//!    have produced. A `jobs <= 1` pipeline, or a corpus with at most
//!    one file to scan, skips the machinery and scans sequentially via
//!    [`Anonymizer::discover_config`]; both modes warm byte-identical
//!    state.
//! 2. **Rewrite (clone workers).** Each worker takes a clone of the
//!    warmed anonymizer and re-emits files. Every mapping the emit pass
//!    needs already exists, so workers only perform pure lookups and
//!    stateless keyed hashes; no cross-thread state is shared and no
//!    insertion order can differ. A single-job run uses the same two
//!    passes (with one inline worker), so byte output *and* failure
//!    reports are identical at every `--jobs` value.
//!
//! Byte-identity follows from the mappings being *sticky*: once an
//! address (or any identifier) has an image, re-anonymizing it returns
//! the same image without mutating state, and the discovery pass creates
//! all images in exactly the order the sequential run would have.
//!
//! ## Fault isolation
//!
//! A corpus of a thousand files must not lose nine hundred ninety-nine of
//! them to one hostile input. Each per-file pass runs inside
//! [`catch_unwind`]: a panic is converted into a [`BatchFailure`] record
//! (file name, phase, panic message) and the file's output is withheld —
//! fail closed — while every other file emits the bytes it would have
//! emitted anyway. That stronger claim holds because a mid-file
//! discovery panic leaves the same partial per-file contributions in
//! every mode (an observer shard keeps the observations logged before
//! the panic, exactly mirroring the partial trie mutations a sequential
//! scan would have kept) and the rewrite pass is a pure function of the
//! warmed state; a worker whose clone panicked discards it and
//! re-clones before taking more work. Mutex poisoning from a contained
//! panic is likewise recovered: slot writes are index-disjoint, so a
//! poisoned lock holds no broken invariant.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use confanon_obs::{Clock, ObsShard};

use crate::anonymizer::{Anonymizer, AnonymizerConfig};
use crate::discover::ObservationLog;
use crate::error::{panic_message, BatchFailure, BatchPhase};
use crate::stats::{AnonymizationStats, RewriteStats};

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
    /// Worker threads used for the rewrite pass.
    pub jobs: usize,
    /// The run's observability shard: phase/per-file spans plus
    /// discovery-pass counters and histograms. The `phase.discover.*`
    /// counters are deterministic across `--jobs`, discovery modes, and
    /// resumed-vs-one-shot runs, because discovery always covers the
    /// whole corpus and its counter merges are commutative sums;
    /// shard-layout-dependent values (shard count, prefilter cache hits)
    /// report under the `discovery.*` prefix, which the metrics document
    /// files in its timing section.
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
        self.run_skipping(inputs, &BTreeSet::new())
    }

    /// [`Self::run`] with a resume skip set. Discovery still covers the
    /// *whole* corpus in input order — the shared mapping state is
    /// order-dependent, so a resumed run must perform the identical
    /// sequence of mutations an uninterrupted run would — but files in
    /// `skip` (their released bytes already verified on disk) are not
    /// re-emitted. Byte-identity of the re-emitted files follows: the
    /// warmed state is the same, and rewrite is a pure function of it.
    pub fn run_skipping(&mut self, inputs: &[BatchInput], skip: &BTreeSet<String>) -> BatchReport {
        self.run_incremental(inputs, skip, &BTreeMap::new())
    }

    /// [`Self::run_skipping`] with a prewarmed-discovery map: files whose
    /// name has an entry are *not* scanned at all — the run trusts that
    /// their identifier contributions are already present in the
    /// anonymizer (restored from persisted state via journal replay) and
    /// synthesizes their deterministic per-file counters from the stored
    /// [`FileDiscovery`] instead, so the metrics document stays
    /// byte-identical to a cold run over the same corpus. Discovery of
    /// the remaining files runs in corpus order (sequential or sharded),
    /// observing with their *original* corpus positions so the canonical
    /// replay order matches the cold run's first-occurrence order.
    pub fn run_incremental(
        &mut self,
        inputs: &[BatchInput],
        skip: &BTreeSet<String>,
        prewarmed: &BTreeMap<String, FileDiscovery>,
    ) -> BatchReport {
        let mut obs = ObsShard::new(self.clock);

        // Pass 1 — discovery with per-file containment, sequential or
        // sharded (the warmed state is byte-identical either way; the
        // determinism suite pins that equivalence). The partial mapping
        // state a mid-file panic leaves behind is identical at any job
        // count, so downstream emission stays deterministic. The
        // counters and histograms recorded here inherit that determinism
        // (resume skip sets only affect the rewrite pass), which is what
        // lets the metrics document put them in its deterministic
        // section.
        let t_discover = obs.span_start();
        let mut failed: Vec<Option<BatchFailure>> = vec![None; inputs.len()];
        let mut discoveries: BTreeMap<String, FileDiscovery> = BTreeMap::new();
        self.discover_pass(inputs, prewarmed, &mut failed, &mut obs, &mut discoveries);
        obs.span_end("discover", "phase", 0, t_discover);

        // Prefilter path counters are pure functions of line content —
        // deterministic across job counts and discovery modes — so they
        // live under the deterministic `phase.discover.` prefix. Cache
        // hit counts vary with shard layout (each shard warms its own
        // cache), so they report under the timing-section `discovery.`
        // prefix instead. Snapshot now: rewrite clones keep their own
        // discarded copies.
        let pf = *self.anonymizer.prefilter_stats();
        obs.count("phase.discover.prefilter_fast_path_lines", pf.fast_path_lines);
        obs.count("phase.discover.prefilter_slow_path_lines", pf.slow_path_lines);
        obs.count("discovery.prefilter_cache_hits", pf.cache_hits);

        // Pass 2 — rewrite the survivors from clones of the warmed
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
        let jobs = if self.jobs <= 1 || pending.len() <= 1 {
            self.rewrite_inline(inputs, &pending, &mut slots, &mut failed, &mut obs);
            1
        } else {
            self.rewrite_parallel(inputs, &pending, &mut slots, &mut failed, &mut obs);
            self.jobs
        };
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

    /// Runs *only* the discovery pass (sequential at `jobs <= 1` or for
    /// a single file, sharded otherwise), warming the mapping state
    /// exactly as [`Self::run`] would before its rewrite pass, and
    /// returns the contained per-file failures. This is the benchmark
    /// entry point behind the CLI's `--bench-json` `discovery` block and
    /// the perfbench discovery layer; production runs use [`Self::run`].
    pub fn discover_corpus(&mut self, inputs: &[BatchInput]) -> Vec<BatchFailure> {
        let mut obs = ObsShard::new(self.clock);
        let mut failed: Vec<Option<BatchFailure>> = vec![None; inputs.len()];
        let mut discoveries = BTreeMap::new();
        self.discover_pass(inputs, &BTreeMap::new(), &mut failed, &mut obs, &mut discoveries);
        failed.into_iter().flatten().collect()
    }

    /// Discovery dispatch: prewarmed files contribute their stored,
    /// order-independent accumulators (statistics, prefilter path
    /// counts) and synthesized per-file counters without being scanned —
    /// their trie insertions are already present via journal replay.
    /// The remaining files scan sequentially or sharded; the sharded
    /// path pays a worker-spawn and merge/replay cost that only
    /// amortizes over multiple files, so single-file (or single-job)
    /// runs take the sequential path.
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
        if self.jobs <= 1 || to_scan.len() <= 1 {
            self.discover_sequential(inputs, &to_scan, failed, obs, discoveries);
        } else {
            self.discover_sharded(inputs, &to_scan, failed, obs, discoveries);
        }
    }

    /// Sequential discovery: every file through
    /// [`Anonymizer::discover_config`] in corpus order, mutating the
    /// retained anonymizer directly.
    fn discover_sequential(
        &mut self,
        inputs: &[BatchInput],
        indices: &[usize],
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
        discoveries: &mut BTreeMap<String, FileDiscovery>,
    ) {
        for &i in indices {
            let f = &inputs[i];
            let pf_before = *self.anonymizer.prefilter_stats();
            let t_file = obs.span_start();
            let result = catch_unwind(AssertUnwindSafe(|| self.anonymizer.discover_config(&f.text)));
            obs.span_end(&f.name, "discover", 0, t_file);
            obs.count("phase.discover.files", 1);
            obs.count("phase.discover.input_bytes", f.text.len() as u64);
            obs.record("file.input_bytes", f.text.len() as u64);
            match result {
                Ok(stats) => {
                    obs.record("file.input_lines", stats.lines_total);
                    let pf = *self.anonymizer.prefilter_stats();
                    discoveries.insert(
                        f.name.clone(),
                        FileDiscovery {
                            stats,
                            prefilter_fast: pf.fast_path_lines - pf_before.fast_path_lines,
                            prefilter_slow: pf.slow_path_lines - pf_before.slow_path_lines,
                        },
                    );
                }
                Err(payload) => {
                    obs.count("phase.discover.panics_contained", 1);
                    failed[i] = Some(BatchFailure {
                        name: f.name.clone(),
                        phase: BatchPhase::Discover,
                        cause: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }

    /// Sharded discovery: disjoint contiguous file ranges scanned by
    /// observer clones in parallel, commutative merges, then one
    /// canonical replay in first-occurrence order. See the module docs
    /// and [`crate::discover`] for why the warmed state is byte-identical
    /// to [`Self::discover_sequential`].
    fn discover_sharded(
        &mut self,
        inputs: &[BatchInput],
        indices: &[usize],
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
        discoveries: &mut BTreeMap<String, FileDiscovery>,
    ) {
        let workers = self.jobs.min(indices.len());
        let clock = obs.clock();
        obs.count("discovery.shards", workers as u64);
        let template = self.anonymizer.observer();
        // Contiguous ranges over the to-scan list keep every
        // observation's corpus position globally ordered no matter which
        // worker logged it; each observation carries its file's
        // *original* corpus index, so the canonical replay matches a
        // cold sequential scan's first-occurrence order.
        let bounds: Vec<(usize, usize)> = (0..workers)
            .map(|w| (w * indices.len() / workers, (w + 1) * indices.len() / workers))
            .collect();

        let mut shards: Vec<(Anonymizer, ObsShard)> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .enumerate()
                .map(|(w, &(lo, hi))| {
                    let template = &template;
                    scope.spawn(move || {
                        let mut anon = template.clone();
                        let mut shard = ObsShard::new(clock);
                        let tid = w as u32 + 1;
                        let mut fails: Vec<(usize, BatchFailure)> = Vec::new();
                        let mut found: Vec<(String, FileDiscovery)> = Vec::new();
                        for &i in &indices[lo..hi] {
                            let f = &inputs[i];
                            let pf_before = *anon.prefilter_stats();
                            let t_file = shard.span_start();
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                anon.observe_file(i as u64, &f.text)
                            }));
                            shard.span_end(&f.name, "discover", tid, t_file);
                            shard.count("phase.discover.files", 1);
                            shard.count("phase.discover.input_bytes", f.text.len() as u64);
                            shard.record("file.input_bytes", f.text.len() as u64);
                            match result {
                                Ok(stats) => {
                                    shard.record("file.input_lines", stats.lines_total);
                                    let pf = *anon.prefilter_stats();
                                    found.push((
                                        f.name.clone(),
                                        FileDiscovery {
                                            stats,
                                            prefilter_fast: pf.fast_path_lines
                                                - pf_before.fast_path_lines,
                                            prefilter_slow: pf.slow_path_lines
                                                - pf_before.slow_path_lines,
                                        },
                                    ));
                                }
                                Err(payload) => {
                                    // The observations logged before the
                                    // panic stay in the shard — exactly
                                    // the partial mutations a sequential
                                    // scan would have kept.
                                    shard.count("phase.discover.panics_contained", 1);
                                    fails.push((
                                        i,
                                        BatchFailure {
                                            name: f.name.clone(),
                                            phase: BatchPhase::Discover,
                                            cause: panic_message(payload.as_ref()),
                                        },
                                    ));
                                }
                            }
                        }
                        (anon, fails, found, shard)
                    })
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((anon, fails, found, shard)) => {
                        for (i, f) in fails {
                            failed[i] = Some(f);
                        }
                        for (name, d) in found {
                            discoveries.insert(name, d);
                        }
                        shards.push((anon, shard));
                    }
                    Err(_) => {
                        // Worker infrastructure died outside the per-file
                        // containment (should be impossible). Fail
                        // closed: report every file of the shard and
                        // forfeit its observations.
                        for &i in &indices[bounds[w].0..bounds[w].1] {
                            if failed[i].is_none() {
                                failed[i] = Some(BatchFailure {
                                    name: inputs[i].name.clone(),
                                    phase: BatchPhase::Discover,
                                    cause: "discovery worker crashed".to_string(),
                                });
                            }
                        }
                    }
                }
            }
        });

        // Commutative merges in shard order, then the canonical replay
        // that drives the tries through the sequential insertion order.
        let mut log = ObservationLog::default();
        for (anon, shard) in shards {
            obs.merge(&shard);
            log.merge(self.anonymizer.absorb_observer(anon));
        }
        for observed in log.into_canonical_order() {
            self.anonymizer.replay_observed(observed);
        }
    }

    /// Single-worker rewrite. Uses a clone (not the retained anonymizer)
    /// so the retained state keeps exactly one pass of total statistics,
    /// matching the parallel mode.
    ///
    /// It stays separate from [`BatchPipeline::rewrite_parallel`] for
    /// memory, not speed: running the one-job rewrite on a one-worker
    /// pool raised perfbench's warm_append peak RSS from 85.2 to 100.4 MB
    /// (two alternating 15 s pairs, 2-core Linux host; e9_batch moved
    /// from 79.8 to 80.1 MB), past the benchmark's 15% bound. The cause
    /// is unverified; the spawned thread's separate malloc arena is one
    /// candidate.
    fn rewrite_inline(
        &self,
        inputs: &[BatchInput],
        pending: &[usize],
        slots: &mut [Option<BatchOutput>],
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
    ) {
        let mut anon = self.anonymizer.clone();
        for &i in pending {
            let t_file = obs.span_start();
            let result = catch_unwind(AssertUnwindSafe(|| anon.anonymize_config(&inputs[i].text)));
            obs.span_end(&inputs[i].name, "rewrite", 1, t_file);
            obs.count("phase.rewrite.files", 1);
            match result {
                Ok(out) => {
                    obs.count("phase.rewrite.output_bytes", out.text.len() as u64);
                    slots[i] = Some(BatchOutput {
                        name: inputs[i].name.clone(),
                        text: out.text,
                        stats: out.stats,
                        rewrite: anon.take_rewrite_stats(),
                    });
                }
                Err(payload) => {
                    obs.count("phase.rewrite.panics_contained", 1);
                    failed[i] = Some(BatchFailure {
                        name: inputs[i].name.clone(),
                        phase: BatchPhase::Rewrite,
                        cause: panic_message(payload.as_ref()),
                    });
                    // The clone may hold partial state from the aborted
                    // emit; start fresh from the warmed original.
                    anon = self.anonymizer.clone();
                }
            }
        }
    }

    /// Worker-pool rewrite over a shared work index.
    fn rewrite_parallel(
        &self,
        inputs: &[BatchInput],
        pending: &[usize],
        slots: &mut [Option<BatchOutput>],
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
    ) {
        let next = AtomicUsize::new(0);
        let cells = Mutex::new((slots, failed));
        let warmed = &self.anonymizer;
        let clock = obs.clock();
        let workers = self.jobs.min(pending.len());
        // Each worker records into a private shard; the shards merge
        // below in worker order. Counter/histogram merges are sums, so
        // the merged values are independent of work-stealing order —
        // only span timestamps (timing data) vary run to run.
        let shards = Mutex::new(vec![ObsShard::new(clock); workers]);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let shards = &shards;
                let next = &next;
                let cells = &cells;
                scope.spawn(move || {
                    // Each worker re-emits from its own copy of the warmed
                    // state; only lookups happen, so copies never diverge
                    // in any way that affects output.
                    let mut anon = warmed.clone();
                    let mut shard = ObsShard::new(clock);
                    let tid = w as u32 + 1;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= pending.len() {
                            break;
                        }
                        let i = pending[k];
                        let t_file = shard.span_start();
                        let result =
                            catch_unwind(AssertUnwindSafe(|| anon.anonymize_config(&inputs[i].text)));
                        shard.span_end(&inputs[i].name, "rewrite", tid, t_file);
                        shard.count("phase.rewrite.files", 1);
                        // A panicking sibling poisons the mutex; writes
                        // are index-disjoint, so the guarded data holds
                        // no broken invariant and the lock is recovered.
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
                                anon = warmed.clone();
                            }
                        }
                    }
                    let mut guard = shards.lock().unwrap_or_else(|e| e.into_inner());
                    guard[w] = shard;
                });
            }
        });

        let collected = shards.into_inner().unwrap_or_else(|e| e.into_inner());
        for shard in &collected {
            obs.merge(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<BatchInput> {
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
    fn run_skipping_preserves_other_files_bytes() {
        // The resume property at the pipeline level: skipping verified
        // files changes nothing about the bytes of the files that are
        // re-emitted, because discovery still walks the whole corpus.
        let inputs = corpus();
        let full = BatchPipeline::new(secret(), 2).run(&inputs);
        let skip = BTreeSet::from(["r2.cfg".to_string(), "r5.cfg".to_string()]);
        for jobs in [1, 4] {
            let partial = BatchPipeline::new(secret(), jobs).run_skipping(&inputs, &skip);
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
        // The tentpole equivalence at the state level: emitted set, leak
        // record, trie node counts, and total stats all match the
        // sequential scan, at several worker counts.
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
        // file's bytes match the sequential-discovery run exactly.
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
        // Fast/slow line counts are pure functions of the corpus: the
        // sequential scan and any shard layout agree (cache hits, by
        // design, may not — they live in the timing section).
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
        // pure functions of each file's text: sequential and sharded
        // scans agree at every job count, and the deltas sum to the
        // whole-corpus prefilter counters.
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

    /// `BatchPipeline::new(cfg, 1)` is the sequential-discovery
    /// reference the determinism properties compare against, so the
    /// selection is pinned: no shards at one job or for a one-file
    /// corpus, `min(jobs, files)` shards otherwise.
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
        assert_eq!(shards(1, &inputs), None);
        assert_eq!(shards(4, &inputs[..1]), None);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(
                shards(jobs, &inputs),
                Some(jobs.min(inputs.len()) as u64),
                "jobs={jobs}"
            );
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
