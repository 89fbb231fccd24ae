//! `perfbench` — the confanon benchmark: two workloads run end to end
//! through the shipped `confanon` binary, a correctness gate, and (with
//! `--trace 1`) a traced in-process replay that splits each workload's
//! time by layer. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload e9_batch|warm_append \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last stdout line is the result
//! object; the human-readable report goes to stderr.

mod gate;
mod inputs;
mod layers;
mod proc;
mod trace;

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, UNIX_EPOCH};

use confanon::core::{AnonState, AnonymizerConfig, BatchInput, BatchPipeline, RUN_MANIFEST_NAME};
use confanon_testkit::json::Json;

use inputs::{Inputs, DEFAULT_SEED};
use layers::{put, Metrics};
use proc::{clear, copy_tree, Measured};
use trace::Trace;

/// The owner secret every workload anonymizes under.
const SECRET: &str = "perfbench-owner-secret";
/// `--jobs` of every batch run. One worker leaves the second core of a
/// two-core box to the benchmark, the kernel and other load; with two,
/// each run waits on whichever worker that load delays, so it measures
/// the scheduler as much as the program.
const JOBS: &str = "1";
/// Repetitions a run makes even when `--seconds` runs out earlier, so
/// every median has at least this many samples.
const MIN_REPS: usize = 3;
/// Traced replays per workload; per-layer numbers are medians.
const TRACE_REPS: usize = 5;
/// Files the isolated tenant probe serves.
const TENANT_PROBE_FILES: usize = 8;
const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// End-to-end metrics, in `BENCHMARK.json` order, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("lines_per_s", "lines/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, in `BENCHMARK.json` order, with units.
const PER_LAYER: [(&str, &str); 36] = [
    ("fsx.read_s", "s"),
    ("input.sanitize_s", "s"),
    ("manifest.watermark_s", "s"),
    ("batch.discover_s", "s"),
    ("anonymizer.clone_s", "s"),
    ("batch.rewrite_s", "s"),
    ("leak.gate_s", "s"),
    ("publish.release_s", "s"),
    ("fsx.write_atomic_s", "s"),
    ("publish.journal_bytes", "bytes"),
    ("publish.fsyncs", "count"),
    ("publish.begin_incremental_s", "s"),
    ("state.load_s", "s"),
    ("state.restore_s", "s"),
    ("state.capture_s", "s"),
    ("state.serialize_s", "s"),
    ("state.write_s", "s"),
    ("state.bytes", "bytes"),
    ("iosparse.tokenize_s", "s"),
    ("rules.prefilter_s", "s"),
    ("rules.slow_path_ratio", "ratio"),
    ("ipanon.trie4_s", "s"),
    ("ipanon.trie4_nodes", "count"),
    ("asnanon.regex_s", "s"),
    ("asnanon.regex_distinct_ratio", "ratio"),
    ("anonymizer.hash_memo_hit_ratio", "ratio"),
    ("anonymizer.lines_borrowed_ratio", "ratio"),
    ("tenant.open_s", "s"),
    ("tenant.handle_anon_ms.p50", "ms"),
    ("tenant.handle_anon_ms.p90", "ms"),
    ("tenant.flush_ms.p50", "ms"),
    ("tenant.flush_ms.p90", "ms"),
    ("anonymizer.clone_ms.p50", "ms"),
    ("leak.scan_excluding_ms.p50", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.gap_s", "s"),
];

/// Layers whose path self time becomes a `<name>_s` metric.
const PATH_LAYERS: [&str; 14] = [
    "fsx.read",
    "input.sanitize",
    "manifest.watermark",
    "state.load",
    "state.restore",
    "publish.begin_incremental",
    "batch.discover",
    "anonymizer.clone",
    "batch.rewrite",
    "leak.gate",
    "publish.release",
    "state.capture",
    "state.serialize",
    "state.write",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    E9Batch,
    WarmAppend,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::E9Batch, Workload::WarmAppend];

    pub fn name(self) -> &'static str {
        match self {
            Workload::E9Batch => "e9_batch",
            Workload::WarmAppend => "warm_append",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.line);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunResult {
    correct: bool,
    line: String,
}

/// What the untraced runs measured.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    lines_per_s: Vec<f64>,
    /// Every published file's latency, and each repetition's p50 and p90.
    latency_ms: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    rss_kib: Vec<f64>,
    /// CPU seconds of each `confanon` process (diagnostic).
    cpu_s: Vec<f64>,
    /// Spawn to exit.
    wall_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Digest of each batch run's released bytes.
    digests: Vec<String>,
}

/// The workload's prepared directories and inputs.
struct Bench {
    root: PathBuf,
    work: PathBuf,
    bin: PathBuf,
    inputs: Inputs,
    seconds: Duration,
}

fn run(args: &Args) -> Result<RunResult, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/confanon.rs").is_file() {
        return Err(format!("{} is not a confanon checkout", root.display()));
    }
    let pinned = inputs::pinned_fingerprint(&root, args.workload)?;
    let inputs = Inputs::generate(args.workload, args.seed)?;
    let reference = if args.seed == DEFAULT_SEED {
        inputs.fingerprint.clone()
    } else {
        Inputs::generate(args.workload, DEFAULT_SEED)?.fingerprint
    };
    eprintln!(
        "perfbench: {} seed {} inputs sha1 {} (seed {DEFAULT_SEED}: {reference})",
        args.workload.name(),
        args.seed,
        inputs.fingerprint
    );
    eprintln!(
        "inputs: {} files, {} lines; {} appended ({} lines)",
        inputs.all().count(),
        Inputs::lines(inputs.all()),
        inputs.appended.len(),
        Inputs::lines(&inputs.appended),
    );
    if reference != pinned {
        return Err(format!(
            "inputs at seed {DEFAULT_SEED} hash to {reference} but BENCHMARK.json pins {pinned}: \
             the generator changed, so these runs are not comparable with the baseline \
             (update the pinned fingerprint in a change of its own)"
        ));
    }
    let bin = proc::build_confanon(&root)?;
    let work = root.join(".bench_work").join(args.workload.name());
    clear(&work)?;
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let bench = Bench {
        root,
        work,
        bin,
        inputs,
        seconds: Duration::from_secs(args.seconds),
    };

    let (samples, gate, spec) = match args.workload {
        Workload::E9Batch => e9_batch(&bench)?,
        Workload::WarmAppend => warm_append(&bench)?,
    };
    report_samples(&samples);
    let mut correct = gate.is_ok();
    match &gate {
        Ok(note) => eprintln!("gate: pass ({note})"),
        Err(e) => eprintln!("gate: FAIL: {e}"),
    }
    if samples.failed > 0 {
        correct = false;
        eprintln!(
            "gate: FAIL: {} of {} operations failed",
            samples.failed, samples.attempted
        );
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut m = match traced(&bench, args.workload, &samples, &spec) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("gate: FAIL: traced run: {e}");
                correct = false;
                Metrics::new()
            }
        };
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, m.remove(n).unwrap_or(f64::NAN)))
            .collect()
    } else {
        let values = [
            median(&samples.setup_s),
            median(&samples.lines_per_s),
            median(&samples.p50_ms),
            median(&samples.p90_ms),
            median(&samples.rss_kib) / 1024.0,
            1.0 - layers::ratio(samples.failed as f64, samples.attempted as f64),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        correct = false;
        eprintln!("gate: FAIL: a metric could not be measured");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            eprintln!("  {n:<34} {v:>16.6} {u}");
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.attempted.max(1),
        samples.failed,
        body.join(", ")
    );
    Ok(RunResult { correct, line })
}

impl Samples {
    /// Records one repetition's per-file latencies. Reported percentiles
    /// are medians over repetitions, so one repetition hit by a burst
    /// of machine noise moves them little.
    fn push_latencies(&mut self, rep: Vec<f64>) {
        if !rep.is_empty() {
            self.p50_ms.push(quantile(&rep, 0.5));
            self.p90_ms.push(quantile(&rep, 0.9));
            self.latency_ms.extend(rep);
        }
    }
}

fn report_samples(s: &Samples) {
    eprintln!(
        "samples: {} run(s), {} latency sample(s), setup {:?} s, lines/s {:?}, \
         median wall {:.3} s, median process CPU {:.3} s",
        s.setup_s.len(),
        s.latency_ms.len(),
        s.setup_s
            .iter()
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        s.lines_per_s.iter().map(|v| v.round()).collect::<Vec<_>>(),
        median(&s.wall_s),
        median(&s.cpu_s),
    );
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", p.display()))
}

/// Seconds since the epoch of a file's last status change (the rename
/// that published it).
fn ctime_s(path: &Path) -> Result<f64, String> {
    let md = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(md.ctime() as f64 + md.ctime_nsec() as f64 * 1e-9)
}

/// One measured `confanon batch` run. Returns the released outputs.
fn batch_once(
    b: &Bench,
    args: &[&str],
    out: &Path,
    ready: impl Fn() -> bool,
    lines: u64,
    files: u64,
    s: &mut Samples,
) -> Result<BTreeMap<String, String>, String> {
    let log = b.work.join("batch.log");
    let child = Measured::spawn(&b.bin, args, &b.root, &log)?;
    let setup = child.wait_ready(ready, CHILD_LIMIT);
    let started = child
        .started_wall
        .duration_since(UNIX_EPOCH)
        .map_err(|e| e.to_string())?;
    let exit = child.finish(CHILD_LIMIT)?;
    let wall = exit.wall.as_secs_f64();
    s.attempted += files;
    if exit.code != 0 {
        eprintln!("batch exited {} (see {})", exit.code, log.display());
        s.failed += files;
        return Ok(BTreeMap::new());
    }
    let setup = setup?;
    s.failed += gate::unreleased(out)? as u64;
    s.setup_s.push(setup.as_secs_f64());
    s.wall_s.push(wall);
    s.lines_per_s.push(lines as f64 / wall);
    s.rss_kib.push(exit.maxrss_kib as f64);
    s.cpu_s.push(exit.cpu_s);
    let outputs = gate::released(out)?;
    // Per-file latency: submission (spawn) to the output's publishing
    // rename. Outputs carried forward from an earlier run predate it.
    let mut latency = Vec::new();
    for name in outputs.keys() {
        let t = ctime_s(&out.join(format!("{name}.anon")))? - started.as_secs_f64();
        if t >= 0.0 {
            latency.push(t * 1e3);
        }
    }
    s.push_latencies(latency);
    s.digests.push(gate::digest(&outputs));
    Ok(outputs)
}

fn keep_going(start: Instant, reps: usize, b: &Bench) -> bool {
    reps < MIN_REPS || start.elapsed() < b.seconds
}

/// Emitted images of an in-process discovery over `files`: the
/// exclusion set the ground-truth scan needs for a run without state.
fn discovered_exclusions(files: &[&inputs::InputFile]) -> Result<Vec<String>, String> {
    let inputs: Vec<BatchInput> = files
        .iter()
        .map(|f| BatchInput {
            name: f.rel.clone(),
            text: f.text.clone(),
        })
        .collect();
    let mut p = BatchPipeline::new(AnonymizerConfig::new(SECRET.as_bytes().to_vec()), 1);
    if let Some(f) = p.discover_corpus(&inputs).first() {
        return Err(format!("discovery failed on {}", f.name));
    }
    Ok(p.anonymizer().emitted_exclusions())
}

fn state_exclusions(dir: &Path) -> Result<Vec<String>, String> {
    let state = AnonState::load(&confanon::core::StdFs, dir)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{}: no state", dir.display()))?;
    Ok(state.emitted.into_iter().collect())
}

fn same_digest(digests: &[String]) -> Result<String, String> {
    let first = digests.first().ok_or("no successful run")?;
    if digests.iter().any(|d| d != first) {
        return Err(format!("released bytes differ across runs: {digests:?}"));
    }
    Ok(first.clone())
}

type GateResult = Result<String, String>;

/// A batch workload: the binary's command line, and the directories
/// every run starts from.
struct BatchSpec {
    args: Vec<String>,
    out: PathBuf,
    /// `--state DIR` of a warm workload, restored before every run.
    state: Option<PathBuf>,
    files: u64,
    lines: u64,
    /// Outputs a run must publish (a warm run carries the rest forward).
    fresh: usize,
}

impl BatchSpec {
    /// Restores the output (and state) directory, then runs the binary
    /// once. Set-up ends when the journal is first written: for a warm
    /// run, when the carried-over manifest is replaced.
    fn run_once(&self, b: &Bench, s: &mut Samples) -> Result<BTreeMap<String, String>, String> {
        let manifest = self.out.join(RUN_MANIFEST_NAME);
        let prior = match &self.state {
            Some(st) => {
                reset_warm(b, st, &self.out)?;
                let md = std::fs::metadata(&manifest).map_err(|e| e.to_string())?;
                Some(md.ino())
            }
            None => {
                clear(&self.out)?;
                clear(&b.work.join("out-quarantine"))?;
                proc::sync_path(&b.work)?;
                None
            }
        };
        let ready = || match prior {
            Some(ino) => std::fs::metadata(&manifest).is_ok_and(|m| m.ino() != ino),
            None => manifest.exists(),
        };
        let args: Vec<&str> = self.args.iter().map(String::as_str).collect();
        let (before, failed) = (s.latency_ms.len(), s.failed);
        let outputs = batch_once(b, &args, &self.out, ready, self.lines, self.files, s)?;
        let fresh = s.latency_ms.len() - before;
        if s.failed == failed && fresh != self.fresh {
            return Err(format!(
                "a run published {fresh} files, expected {}",
                self.fresh
            ));
        }
        Ok(outputs)
    }

    /// Repeats until `--seconds` have passed (at least `MIN_REPS`
    /// times) or an operation fails. Returns the last repetition's
    /// releases.
    fn measure(&self, b: &Bench) -> Result<(Samples, BTreeMap<String, String>), String> {
        // One warm-up run first, checked like the rest but not timed:
        // the first run after the inputs are written is the slowest.
        let mut warm_up = Samples::default();
        let mut last = self.run_once(b, &mut warm_up)?;
        let mut s = Samples {
            attempted: warm_up.attempted,
            failed: warm_up.failed,
            digests: warm_up.digests,
            ..Samples::default()
        };
        let start = Instant::now();
        while keep_going(start, s.setup_s.len(), b) && s.failed == 0 {
            last = self.run_once(b, &mut s)?;
        }
        Ok((s, last))
    }
}

fn e9_batch(b: &Bench) -> Result<(Samples, GateResult, BatchSpec), String> {
    let corpus = b.work.join("corpus");
    Inputs::write_tree(&corpus, &b.inputs.base)?;
    let files: Vec<&inputs::InputFile> = b.inputs.base.iter().collect();
    let out = b.work.join("out");
    let args = [
        "batch",
        path_str(&corpus)?,
        "--jobs",
        JOBS,
        "--secret",
        SECRET,
        "--out-dir",
        path_str(&out)?,
    ];
    let spec = BatchSpec {
        args: args.iter().map(|a| a.to_string()).collect(),
        out,
        state: None,
        files: files.len() as u64,
        lines: Inputs::lines(files.iter().copied()),
        fresh: files.len(),
    };
    let (s, last) = spec.measure(b)?;
    let gate = (|| -> GateResult {
        let digest = same_digest(&s.digests)?;
        let exclusions = discovered_exclusions(&files)?;
        let nets = gate::check_networks(&b.inputs, &last, &exclusions)?;
        Ok(format!(
            "{} runs, outputs sha1 {digest}, {nets} networks clean",
            s.digests.len()
        ))
    })();
    Ok((s, gate, spec))
}

fn warm_append(b: &Bench) -> Result<(Samples, GateResult, BatchSpec), String> {
    let base = b.work.join("base");
    let grown = b.work.join("grown");
    Inputs::write_tree(&base, &b.inputs.base)?;
    Inputs::write_tree(&grown, b.inputs.all())?;
    let (st0, out0) = (b.work.join("st0"), b.work.join("out0"));
    cold_state_run(b, &base, &st0, &out0)?;

    let files: Vec<&inputs::InputFile> = b.inputs.all().collect();
    let (st, out) = (b.work.join("st"), b.work.join("out"));
    let args = [
        "batch",
        path_str(&grown)?,
        "--jobs",
        JOBS,
        "--secret",
        SECRET,
        "--state",
        path_str(&st)?,
        "--out-dir",
        path_str(&out)?,
    ];
    let spec = BatchSpec {
        args: args.iter().map(|a| a.to_string()).collect(),
        out,
        state: Some(st.clone()),
        files: files.len() as u64,
        lines: Inputs::lines(files.iter().copied()),
        fresh: b.inputs.appended.len(),
    };
    let (s, last) = spec.measure(b)?;
    let gate = (|| -> GateResult {
        let digest = same_digest(&s.digests)?;
        if last.len() != files.len() {
            return Err(format!(
                "{} of {} outputs released",
                last.len(),
                files.len()
            ));
        }
        let nets = gate::check_networks(&b.inputs, &last, &state_exclusions(&st)?)?;
        Ok(format!(
            "{} runs, outputs sha1 {digest}, {nets} networks clean",
            s.digests.len()
        ))
    })();
    Ok((s, gate, spec))
}

/// Makes `st`/`out` equal to the cold state run's `st0`/`out0`. A warm
/// run only adds the appended outputs and rewrites the journal and the
/// state, so after the first full copy only those are restored: less
/// set-up I/O left for the measured run to contend with.
fn reset_warm(b: &Bench, st: &Path, out: &Path) -> Result<(), String> {
    let (st0, out0) = (b.work.join("st0"), b.work.join("out0"));
    if !out.exists() {
        clear(st)?;
        copy_tree(&st0, st)?;
        return copy_tree(&out0, out);
    }
    clear(&out.join(inputs::APPEND_DIR))?;
    proc::copy_file(&out0.join(RUN_MANIFEST_NAME), &out.join(RUN_MANIFEST_NAME))?;
    let state = confanon::core::STATE_FILE_NAME;
    proc::copy_file(&st0.join(state), &st.join(state))?;
    proc::sync_path(out)?;
    let (now, want) = (gate::released(out)?.len(), gate::released(&out0)?.len());
    if now != want {
        return Err(format!(
            "{} holds {now} outputs after reset, expected {want}",
            out.display()
        ));
    }
    Ok(())
}

/// The untimed `batch --state` run a warm workload starts from.
fn cold_state_run(b: &Bench, corpus: &Path, st: &Path, out: &Path) -> Result<(), String> {
    let log = b.work.join("prepare.log");
    let args = [
        "batch",
        path_str(corpus)?,
        "--jobs",
        JOBS,
        "--secret",
        SECRET,
        "--state",
        path_str(st)?,
        "--out-dir",
        path_str(out)?,
    ];
    let exit = Measured::spawn(&b.bin, &args, &b.root, &log)?.finish(CHILD_LIMIT)?;
    if exit.code != 0 {
        return Err(format!(
            "preparing state failed with exit {} (see {})",
            exit.code,
            log.display()
        ));
    }
    Ok(())
}

/// The traced run: path replays, isolated probes, coverage report, and
/// the trace artifact. Returns the per-layer metrics.
fn traced(b: &Bench, workload: Workload, s: &Samples, spec: &BatchSpec) -> Result<Metrics, String> {
    let tr = Trace::new();
    let mut m = Metrics::new();
    let mut adjacent = Samples::default();
    let secret = SECRET.as_bytes();
    let probe = tr.open("probe", "isolated", None);
    let warm = workload == Workload::WarmAppend;
    let (corpus, files): (PathBuf, Vec<&inputs::InputFile>) = if warm {
        (b.work.join("grown"), b.inputs.all().collect())
    } else {
        (b.work.join("corpus"), b.inputs.base.iter().collect())
    };
    let names: Vec<String> = files.iter().map(|f| f.rel.clone()).collect();
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    for rep in 0..TRACE_REPS {
        // Each replay is paired with an untraced run right before it, so
        // coverage compares the two under the same machine load.
        drop(last.take());
        spec.run_once(b, &mut adjacent)?;
        let (st, out) = (b.work.join("trace-st"), b.work.join("trace-out"));
        if warm {
            reset_warm(b, &st, &out)?;
        } else {
            clear(&out)?;
        }
        tr.clear_counts();
        let job = layers::BatchJob {
            corpus_dir: &corpus,
            names: &names,
            secret,
            out_dir: &out,
            state_dir: warm.then_some(st.as_path()),
        };
        let root = tr.open("path", &format!("rep-{rep}"), None);
        let run = layers::batch_replay(&tr, root, &job)?;
        tr.close(root);
        let digest = gate::digest(&gate::released(&out)?);
        if s.digests.first() != Some(&digest) {
            return Err(format!(
                "traced replay released sha1 {digest}, the binary {:?}",
                s.digests.first()
            ));
        }
        let selfs = tr.self_times(root);
        for layer in PATH_LAYERS {
            per_layer
                .entry(layer)
                .or_default()
                .push(selfs.get(layer).copied().unwrap_or(0.0));
        }
        last = Some((run, st, out));
    }
    let (run, st, out) = last.ok_or("no traced replay")?;
    if adjacent.failed > 0
        || adjacent
            .digests
            .iter()
            .any(|d| Some(d) != s.digests.first())
    {
        return Err("an untraced run next to the replay failed or released other bytes".into());
    }
    let wall = median(&adjacent.wall_s);
    let layer_self: BTreeMap<&str, f64> = per_layer
        .into_iter()
        .filter(|(_, v)| v.iter().any(|x| *x > 0.0))
        .map(|(k, v)| (k, median(&v)))
        .collect();
    for (layer, v) in &layer_self {
        put(&mut m, &format!("{layer}_s"), *v);
    }
    let path_sum: f64 = layer_self.values().sum();
    layers::batch_counts(&run, &mut m);
    layers::rewrite_ratios(&run.rewrite, &mut m);

    // Isolated probes for what this path does not exercise. The tenant
    // probe opens the run's state and serves its newest files (for the
    // warm workload: the append itself, onto the state before it).
    let tenant_source = if warm {
        let written = std::fs::metadata(st.join(confanon::core::STATE_FILE_NAME));
        put(
            &mut m,
            "state.bytes",
            written.map_err(|e| e.to_string())?.len() as f64,
        );
        b.work.join("st0")
    } else {
        let probe_state = b.work.join("trace-probe-state");
        clear(&probe_state)?;
        layers::state_probe(
            &tr,
            probe,
            &run.anonymizer,
            BTreeMap::new(),
            secret,
            &probe_state,
            &mut m,
        )?;
        layers::begin_incremental_probe(&tr, probe, &out, secret, &names, &mut m)?;
        probe_state
    };
    let plain = b.work.join("trace-plain");
    clear(&plain)?;
    layers::write_atomic_probe(&tr, probe, &run.outputs, &plain, &mut m)?;
    let texts: Vec<&str> = files.iter().map(|f| f.text.as_str()).collect();
    layers::micro_probe(&tr, probe, &texts, &run.anonymizer, secret, &mut m);
    let tenant_dir = b.work.join("trace-tenant");
    clear(&tenant_dir)?;
    copy_tree(&tenant_source, &tenant_dir)?;
    let newest: Vec<(String, &str)> = files[files.len() - TENANT_PROBE_FILES..]
        .iter()
        .map(|f| (inputs::request_name(&f.rel), f.text.as_str()))
        .collect();
    let t = layers::tenant_replay(&tr, probe, &tenant_dir, secret, &newest)?;
    layers::tenant_metrics(&t, &mut m);
    tr.close(probe);
    let coverage = path_sum / wall;
    put(&mut m, "trace.coverage", coverage);
    put(&mut m, "trace.gap_s", wall - path_sum);

    eprintln!("trace: per-layer self time on the path (median untraced wall {wall:.4} s)");
    for (layer, v) in &layer_self {
        eprintln!("  {layer:<28} {v:>10.4} s  {:>6.1}%", 100.0 * v / wall);
    }
    eprintln!(
        "  {:<28} {:>10.4} s  {:>6.1}%",
        "trace.gap_s",
        wall - path_sum,
        100.0 * (1.0 - coverage)
    );
    eprintln!("  trace.coverage {coverage:.4}");
    for (k, v) in tr.counts() {
        eprintln!("  count {k} = {v}");
    }
    let mut metrics = Json::obj();
    for (k, v) in &m {
        metrics.set(k, *v);
    }
    let header = Json::obj()
        .with("schema", "confanon-perfbench-trace-v1")
        .with("workload", workload.name())
        .with("fingerprint", b.inputs.fingerprint.as_str())
        .with("untraced_wall_s", s.wall_s.clone())
        .with("adjacent_untraced_wall_s", adjacent.wall_s)
        .with("metrics", metrics);
    let artifact = b.work.join("trace.json");
    std::fs::write(&artifact, tr.to_json(header).to_string_pretty()).map_err(|e| e.to_string())?;
    eprintln!("trace: spans and counts written to {}", artifact.display());
    Ok(m)
}
