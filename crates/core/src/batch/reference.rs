//! The sequential reference for [`BatchPipeline`], and the properties
//! that pin the shipped passes to it.
//!
//! The shipped pipeline runs one discovery algorithm and one rewrite loop
//! at every `--jobs`: discovery observes with the calling thread as
//! shard 0, then merges and replays the observation logs; rewrite takes
//! files off a shared index with the calling thread as worker 0. Before
//! that, a one-job run (or one with at most one file left) took a second
//! path through each pass: a sequential walk that mapped every address
//! in place through [`Anonymizer::discover_config`], and an inline rewrite
//! on one worker copy. Both are kept here verbatim, composed into a
//! whole-run reference by [`BatchPipeline::reference_run`], and the
//! properties below demand that `run_incremental` at 1, 2, 3, 4 and 8
//! jobs matches it in everything a run leaves behind: outputs, failures,
//! the skipped list, per-file discoveries, totals, prefilter path counts,
//! the leak record, the emitted set, the journal order, and the tries'
//! node counts and structure digests. The corpora cover planted
//! discovery and rewrite faults, generated and chaos-mutated networks,
//! resume skip sets, and prewarmed runs over a restored state.

use std::collections::{BTreeMap, BTreeSet};

use super::*;
use crate::discover::ObservedIp;
use crate::input::sanitize_bytes;
use crate::leak::LeakRecord;
use crate::state::AnonState;
use confanon_confgen::{generate_dataset, DatasetSpec};
use confanon_testkit::chaos::ChaosMutator;

impl BatchPipeline {
    /// The whole-run reference: prewarmed files absorbed as the shipped
    /// pass absorbs them, every other file through
    /// [`Self::discover_sequential`], then [`Self::rewrite_inline`].
    fn reference_run(
        &mut self,
        inputs: &[BatchInput],
        skip: &BTreeSet<String>,
        prewarmed: &BTreeMap<String, FileDiscovery>,
    ) -> BatchReport {
        let mut obs = ObsShard::new(self.clock);
        let mut failed: Vec<Option<BatchFailure>> = vec![None; inputs.len()];
        let mut discoveries: BTreeMap<String, FileDiscovery> = BTreeMap::new();
        let mut to_scan = Vec::new();
        for (i, f) in inputs.iter().enumerate() {
            match prewarmed.get(&f.name) {
                Some(d) => {
                    self.anonymizer.absorb_stats(&d.stats);
                    self.anonymizer
                        .absorb_prefilter_counts(d.prefilter_fast, d.prefilter_slow);
                    discoveries.insert(f.name.clone(), d.clone());
                }
                None => to_scan.push(i),
            }
        }
        self.discover_sequential(inputs, &to_scan, &mut failed, &mut obs, &mut discoveries);

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
        self.rewrite_inline(inputs, &pending, &mut slots, &mut failed, &mut obs);

        let outputs: Vec<BatchOutput> = slots.into_iter().flatten().collect();
        let failures: Vec<BatchFailure> = failed.into_iter().flatten().collect();
        let mut totals = AnonymizationStats::default();
        let mut rewrite = RewriteStats::default();
        for o in &outputs {
            totals.merge(&o.stats);
            rewrite.absorb(&o.rewrite);
        }
        BatchReport {
            outputs,
            failures,
            skipped,
            discoveries,
            totals,
            rewrite,
            jobs: 1,
            obs,
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

    /// Single-worker rewrite. Uses a worker copy (not the retained
    /// anonymizer) so the retained state keeps exactly one pass of total
    /// statistics, matching the parallel mode.
    fn rewrite_inline(
        &self,
        inputs: &[BatchInput],
        pending: &[usize],
        slots: &mut [Option<BatchOutput>],
        failed: &mut [Option<BatchFailure>],
        obs: &mut ObsShard,
    ) {
        let mut anon = self.anonymizer.worker_copy();
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
                    // The copy may hold partial state from the aborted
                    // emit; start fresh from the warmed original.
                    anon = self.anonymizer.worker_copy();
                }
            }
        }
    }
}

/// Everything the properties compare: what the report says and what the
/// warmed anonymizer holds afterwards.
#[derive(Debug, PartialEq)]
struct RunView {
    outputs: Vec<(String, String, AnonymizationStats)>,
    failures: Vec<(String, BatchPhase, String)>,
    skipped: Vec<String>,
    discoveries: BTreeMap<String, FileDiscovery>,
    totals: AnonymizationStats,
    retained_totals: AnonymizationStats,
    prefilter_paths: (u64, u64),
    record: LeakRecord,
    emitted: Vec<String>,
    journal: Vec<ObservedIp>,
    trie_nodes: (usize, usize),
    trie_digests: (u64, u64),
}

fn view(p: &BatchPipeline, r: BatchReport) -> RunView {
    let a = p.anonymizer();
    let pf = a.prefilter_stats();
    RunView {
        outputs: r
            .outputs
            .into_iter()
            .map(|o| (o.name, o.text, o.stats))
            .collect(),
        failures: r
            .failures
            .into_iter()
            .map(|f| (f.name, f.phase, f.cause))
            .collect(),
        skipped: r.skipped,
        discoveries: r.discoveries,
        totals: r.totals,
        retained_totals: a.total_stats().clone(),
        prefilter_paths: (pf.fast_path_lines, pf.slow_path_lines),
        record: a.leak_record().clone(),
        emitted: a.emitted_exclusions(),
        journal: a.journal().to_vec(),
        trie_nodes: a.trie_node_counts(),
        trie_digests: a.trie_digests(),
    }
}

/// A run over `inputs`, started from `state` when given (the prewarmed
/// map then names the files it already covers).
struct Case<'a> {
    cfg: AnonymizerConfig,
    inputs: &'a [BatchInput],
    skip: BTreeSet<String>,
    state: Option<&'a AnonState>,
    prewarmed: BTreeMap<String, FileDiscovery>,
}

impl Case<'_> {
    fn pipeline(&self, jobs: usize) -> BatchPipeline {
        let mut p = BatchPipeline::new(self.cfg.clone(), jobs);
        if let Some(state) = self.state {
            state
                .restore_into("state.json", p.anonymizer_mut())
                .expect("restore");
        }
        p
    }

    /// The reference run's view.
    fn reference(&self) -> RunView {
        let mut p = self.pipeline(1);
        let report = p.reference_run(self.inputs, &self.skip, &self.prewarmed);
        view(&p, report)
    }

    /// Asserts the shipped run matches the reference at every job count,
    /// and returns the reference view.
    fn assert_every_job_count_matches(&self) -> RunView {
        let expect = self.reference();
        for jobs in [1, 2, 3, 4, 8] {
            let mut p = self.pipeline(jobs);
            let report = p.run_incremental(self.inputs, &self.skip, &self.prewarmed);
            assert_eq!(view(&p, report), expect, "jobs={jobs}");
        }
        expect
    }
}

fn cold(cfg: AnonymizerConfig, inputs: &[BatchInput]) -> Case<'_> {
    Case {
        cfg,
        inputs,
        skip: BTreeSet::new(),
        state: None,
        prewarmed: BTreeMap::new(),
    }
}

fn inputs_of(texts: Vec<String>) -> Vec<BatchInput> {
    texts
        .into_iter()
        .enumerate()
        .map(|(i, text)| BatchInput {
            name: format!("r{i:02}.cfg"),
            text,
        })
        .collect()
}

fn generated(seed: u64, routers: usize) -> Vec<BatchInput> {
    let ds = generate_dataset(&DatasetSpec {
        seed,
        networks: 1,
        mean_routers: routers,
        backbone_fraction: 0.5,
    });
    inputs_of(
        ds.networks[0]
            .routers
            .iter()
            .map(|r| r.config.clone())
            .collect(),
    )
}

/// `generated` through the chaos mutator, sanitized as the CLI sanitizes
/// file reads.
fn chaos(seed: u64) -> Vec<BatchInput> {
    let mut mutator = ChaosMutator::new(seed);
    let mut files = generated(seed ^ 0xC4A0_5EED, 5);
    for f in &mut files {
        let mutated = mutator.mutate(f.text.as_bytes());
        f.text = sanitize_bytes(&mutated.bytes).0;
    }
    files
}

fn secret() -> AnonymizerConfig {
    AnonymizerConfig::new(b"batch-reference-secret".to_vec())
}

fn faulty(phase: BatchPhase) -> AnonymizerConfig {
    let mut cfg = secret();
    cfg.fault_marker = Some(("POISON".to_string(), phase));
    cfg
}

/// The fixed corpus with a planted fault at each end and in the middle,
/// in either pass: failures, withheld outputs and the partial discovery
/// contributions a mid-file panic leaves all match the reference.
#[test]
fn planted_faults_match_the_reference() {
    let mut inputs = super::tests::corpus();
    for i in [0, 2, 5] {
        inputs[i]
            .text
            .push_str("POISON PILL\n hostname after-the-pill\n");
    }
    for phase in [BatchPhase::Discover, BatchPhase::Rewrite] {
        let v = cold(faulty(phase), &inputs).assert_every_job_count_matches();
        assert_eq!(v.failures.len(), 3, "{phase:?}");
        assert!(v.failures.iter().all(|f| f.1 == phase));
    }
}

/// A resume skip set and a one-file corpus take the same one path.
#[test]
fn skip_sets_and_single_files_match_the_reference() {
    let inputs = super::tests::corpus();
    let mut case = cold(secret(), &inputs);
    case.skip = BTreeSet::from(["r1.cfg".to_string(), "r4.cfg".to_string()]);
    assert_eq!(case.assert_every_job_count_matches().skipped.len(), 2);
    cold(secret(), &inputs[2..3]).assert_every_job_count_matches();
    cold(secret(), &[]).assert_every_job_count_matches();
}

confanon_testkit::props! {
    cases = 3;

    /// Generated networks, cold.
    fn generated_corpora_match_the_reference(seed in 0u64..1_000_000) {
        let inputs = generated(seed, 5);
        cold(secret(), &inputs).assert_every_job_count_matches();
    }

    /// Chaos-mutated networks with a planted discovery fault.
    fn chaos_corpora_match_the_reference(seed in 0u64..1_000_000) {
        let mut inputs = chaos(seed);
        let last = inputs.len() - 1;
        inputs[last / 2].text.push_str("\nPOISON marker\n");
        let v = cold(faulty(BatchPhase::Discover), &inputs).assert_every_job_count_matches();
        assert!(!v.failures.is_empty(), "the planted fault fires");
    }

    /// A warm run over a restored state: the first `cut` files were
    /// scanned by an earlier session, whose state and per-file
    /// contributions the run starts from, and every few files are
    /// resume-verified.
    fn prewarmed_runs_match_the_reference(seed in 0u64..1_000_000, cut in 1usize..5) {
        let inputs = generated(seed, 6);
        let cut = cut.min(inputs.len() - 1);
        let mut first = BatchPipeline::new(secret(), 2);
        let prewarmed = first.run(&inputs[..cut]).discoveries;
        let state = AnonState::capture(first.anonymizer(), "test".to_string(), BTreeMap::new());
        let case = Case {
            skip: inputs.iter().step_by(3).map(|f| f.name.clone()).collect(),
            state: Some(&state),
            prewarmed,
            ..cold(secret(), &inputs)
        };
        case.assert_every_job_count_matches();
    }
}
