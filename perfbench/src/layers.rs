//! The traced run: the workload's path replayed in-process with a span
//! around every call into a layer, plus isolated micro-runs of each
//! layer on the workload's own inputs.
//!
//! A path replay mirrors what the shipped binary does for the workload,
//! call for call and in the same order, so its per-layer self times add
//! up to the binary's untraced wall minus process start and glue. Layers
//! the workload's path does not use are still timed, on its inputs, as
//! isolated probes; those never count towards `trace.coverage`.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use confanon::asnanon::rewrite::{
    rewrite_aspath_regex_full, rewrite_community_regex_full, RewriteOptions,
};
use confanon::core::discover::ObservedIp;
use confanon::core::fsx::FileBytes;
use confanon::core::state::{state_path, FileMark};
use confanon::core::{
    sanitize_bytes, write_atomic, AnonState, Anonymizer, AnonymizerConfig, BatchInput,
    BatchPipeline, DurabilityStats, FileDiscovery, FlushMode, Fs, LeakScanner, LineClass,
    Prefilter, Publisher, RewriteStats, RunManifest, Status, StdFs, Tenant, TenantSpec,
};
use confanon::iosparse::tokenize;
use confanon::ipanon::IpAnonymizer;

use crate::trace::Trace;
use crate::{median, quantile};

/// Layer metrics by name (units are fixed by `BENCHMARK.json`).
pub type Metrics = BTreeMap<String, f64>;

/// A filesystem that counts the bytes written into run-manifest
/// staging files: the journal's write volume.
#[derive(Default)]
pub struct CountingFs {
    manifest_bytes: Cell<u64>,
}

impl Fs for CountingFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let staged_manifest = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with(".run_manifest.json."));
        if staged_manifest {
            self.manifest_bytes
                .set(self.manifest_bytes.get() + bytes.len() as u64);
        }
        StdFs.write_sync(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        StdFs.sync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdFs.remove_file(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdFs.read(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdFs.exists(path)
    }
    fn read_mapped(&self, path: &Path) -> io::Result<FileBytes> {
        StdFs.read_mapped(path)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What the batch binary is asked to do, replayed in-process.
pub struct BatchJob<'a> {
    pub corpus_dir: &'a Path,
    /// Corpus-relative names, in corpus order.
    pub names: &'a [String],
    pub secret: &'a [u8],
    pub out_dir: &'a Path,
    /// `--state DIR` (a warm run when it holds a state).
    pub state_dir: Option<&'a Path>,
}

/// What a batch replay leaves for the probes and the gate.
pub struct BatchRun {
    pub anonymizer: Anonymizer,
    /// Released outputs, in corpus order.
    pub outputs: Vec<(String, String)>,
    pub rewrite: RewriteStats,
    pub clone_s: Vec<f64>,
    pub scan_s: Vec<f64>,
    pub durability: DurabilityStats,
    pub journal_bytes: u64,
}

/// Replays `confanon batch` under `parent`, one span per layer call, in
/// the binary's order: read, sanitize, watermark, [state load], journal
/// begin, [state restore], discover, clone + rewrite, leak gate,
/// release, [state capture/serialize/write], finish.
pub fn batch_replay(tr: &Trace, parent: usize, job: &BatchJob) -> Result<BatchRun, String> {
    let p = Some(parent);
    let fs = CountingFs::default();
    let cfg = AnonymizerConfig::new(job.secret.to_vec());

    let phase = tr.open("fsx.read", "phase", p);
    let mut raw = Vec::with_capacity(job.names.len());
    for n in job.names {
        let path = job.corpus_dir.join(n);
        let bytes = tr.span("fsx.read", n, Some(phase), || StdFs.read_mapped(&path));
        let bytes = bytes.map_err(|e| format!("{}: {e}", path.display()))?;
        tr.count("fsx.read.bytes", bytes.len() as f64);
        raw.push(bytes);
    }
    tr.close(phase);

    let phase = tr.open("input.sanitize", "phase", p);
    let mut texts = Vec::with_capacity(raw.len());
    for (n, bytes) in job.names.iter().zip(raw) {
        let (text, tally) = tr.span("input.sanitize", n, Some(phase), || sanitize_bytes(&bytes));
        tr.count(
            "input.sanitize.repaired_files",
            f64::from(u8::from(!tally.is_clean())),
        );
        texts.push(text);
    }
    tr.close(phase);

    let phase = tr.open("manifest.watermark", "phase", p);
    let watermarks: BTreeMap<String, String> = job
        .names
        .iter()
        .zip(&texts)
        .map(|(n, t)| {
            let w = tr.span("manifest.watermark", n, Some(phase), || {
                RunManifest::digest_hex(t.as_bytes())
            });
            (n.clone(), w)
        })
        .collect();
    tr.close(phase);

    let fingerprint = RunManifest::fingerprint(job.secret);
    let loaded = match job.state_dir {
        Some(dir) => tr.span(
            "state.load",
            "state",
            p,
            || -> Result<Option<AnonState>, String> {
                let Some(state) = AnonState::load(&StdFs, dir).map_err(err)? else {
                    return Ok(None);
                };
                let perms = Anonymizer::new(cfg.clone()).perm_fingerprint();
                let file = state_path(dir).display().to_string();
                state
                    .check_owner(&file, &fingerprint, &perms)
                    .map_err(err)?;
                Ok(Some(state))
            },
        )?,
        None => None,
    };
    let mut prewarmed: BTreeMap<String, FileDiscovery> = BTreeMap::new();
    if let Some(state) = &loaded {
        for (name, mark) in &state.files {
            if watermarks.get(name) == Some(&mark.watermark) {
                prewarmed.insert(
                    name.clone(),
                    FileDiscovery {
                        stats: mark.stats.clone(),
                        prefilter_fast: mark.prefilter_fast,
                        prefilter_slow: mark.prefilter_slow,
                    },
                );
            }
        }
    }
    let unchanged: BTreeSet<String> = prewarmed.keys().cloned().collect();

    let (mut publisher, skip) = if job.state_dir.is_some() {
        tr.span("publish.begin_incremental", "begin", p, || {
            Publisher::begin_incremental(&fs, job.out_dir, job.secret, job.names, &unchanged)
        })
        .map_err(err)?
    } else {
        let pb = tr.span("publish.release", "begin", p, || {
            Publisher::begin(&fs, job.out_dir, job.secret, job.names)
        });
        (pb.map_err(err)?, BTreeSet::new())
    };

    let inputs: Vec<BatchInput> = job
        .names
        .iter()
        .zip(&texts)
        .map(|(n, t)| BatchInput {
            name: n.clone(),
            text: t.clone(),
        })
        .collect();
    let mut pipeline = BatchPipeline::new(cfg.clone(), 1);
    if let (Some(state), Some(dir)) = (&loaded, job.state_dir) {
        let file = state_path(dir).display().to_string();
        tr.span("state.restore", "state", p, || {
            state.restore_into(&file, pipeline.anonymizer_mut())
        })
        .map_err(err)?;
    }

    // Discovery. Cold: the whole corpus through `discover_corpus`.
    // Warm: stored contributions of unchanged files are absorbed, the
    // rest scanned in corpus order — what `run_incremental` does.
    let mut discoveries = prewarmed.clone();
    if loaded.is_some() {
        let phase = tr.open("batch.discover", "phase", p);
        let anon = pipeline.anonymizer_mut();
        for input in &inputs {
            if let Some(d) = prewarmed.get(&input.name) {
                anon.absorb_stats(&d.stats);
                anon.absorb_prefilter_counts(d.prefilter_fast, d.prefilter_slow);
            }
        }
        for input in inputs.iter().filter(|i| !prewarmed.contains_key(&i.name)) {
            let before = *anon.prefilter_stats();
            let stats = tr.span("batch.discover", &input.name, Some(phase), || {
                anon.discover_config(&input.text)
            });
            let after = *anon.prefilter_stats();
            tr.count("batch.discover.files", 1.0);
            discoveries.insert(
                input.name.clone(),
                FileDiscovery {
                    stats,
                    prefilter_fast: after.fast_path_lines - before.fast_path_lines,
                    prefilter_slow: after.slow_path_lines - before.slow_path_lines,
                },
            );
        }
        tr.close(phase);
    } else {
        let failures = tr.span("batch.discover", "corpus", p, || {
            pipeline.discover_corpus(&inputs)
        });
        tr.count("batch.discover.files", inputs.len() as f64);
        if let Some(f) = failures.first() {
            return Err(format!("discovery failed on {}: {}", f.name, f.cause));
        }
    }
    let anonymizer = pipeline.into_anonymizer();

    // Rewrite every file not carried forward from one clone of the
    // warmed state, as the pipeline's one-job rewrite pass does.
    let phase = tr.open("batch.rewrite", "phase", p);
    let id = tr.open("anonymizer.clone", "worker-1", Some(phase));
    let mut anon = anonymizer.clone();
    tr.close(id);
    let clone_s = vec![tr.duration(id)];
    let mut outputs = Vec::new();
    let mut rewrite = RewriteStats::default();
    for input in inputs.iter().filter(|i| !skip.contains(&i.name)) {
        let out = tr.span("batch.rewrite", &input.name, Some(phase), || {
            anon.anonymize_config(&input.text)
        });
        rewrite.absorb(&anon.take_rewrite_stats());
        outputs.push((input.name.clone(), out.text));
    }
    drop(anon);
    tr.close(phase);
    tr.count("batch.rewrite.files", outputs.len() as f64);

    let phase = tr.open("leak.gate", "phase", p);
    let scanner = tr.span("leak.gate", "scanner", Some(phase), || {
        LeakScanner::with_exclusions(anonymizer.leak_record(), anonymizer.emitted_exclusions())
    });
    let mut scan_s = Vec::with_capacity(outputs.len());
    for (n, text) in &outputs {
        let id = tr.open("leak.gate", n, Some(phase));
        let report = scanner.scan(text);
        tr.close(id);
        scan_s.push(tr.duration(id));
        if !report.is_clean() {
            return Err(format!(
                "leak gate: {} residual hit(s) in {n}",
                report.leaks.len()
            ));
        }
    }
    drop(scanner);
    tr.close(phase);

    let phase = tr.open("publish.release", "phase", p);
    for (n, text) in &outputs {
        tr.span("publish.release", n, Some(phase), || {
            publisher.release(n, text.as_bytes())
        })
        .map_err(err)?;
    }
    tr.close(phase);

    if let Some(dir) = job.state_dir {
        let marks: BTreeMap<String, FileMark> = discoveries
            .iter()
            .filter_map(|(name, d)| {
                watermarks.get(name).map(|w| {
                    let mark = FileMark {
                        watermark: w.clone(),
                        stats: d.stats.clone(),
                        prefilter_fast: d.prefilter_fast,
                        prefilter_slow: d.prefilter_slow,
                    };
                    (name.clone(), mark)
                })
            })
            .collect();
        let state = tr.span("state.capture", "state", p, || {
            AnonState::capture(&anonymizer, fingerprint, marks)
        });
        let bytes = tr.span("state.serialize", "state", p, || state.to_bytes());
        tr.count("state.bytes", bytes.len() as f64);
        tr.span("state.write", "state", p, || {
            publisher.write_report(&state_path(dir), &bytes)
        })
        .map_err(err)?;
    }
    let (_manifest, durability) = tr.span("publish.release", "finish", p, || publisher.finish());
    let journal_bytes = fs.manifest_bytes.get();
    tr.count("publish.journal_bytes", journal_bytes as f64);
    tr.count("publish.fsyncs", durability.fsyncs as f64);
    tr.count("publish.retries", durability.transient_retries as f64);

    Ok(BatchRun {
        anonymizer,
        outputs,
        rewrite,
        clone_s,
        scan_s,
        durability,
        journal_bytes,
    })
}

/// What a tenant replay measured per request.
pub struct TenantRun {
    pub open_s: f64,
    pub handle_s: Vec<f64>,
    pub flush_s: Vec<f64>,
}

/// Replays serve requests in-process: `Tenant::open` on `state_dir`
/// with drain flushing, then per request `handle_anon` and an explicit
/// `flush` (what `flush = "request"` does before each `OK`). Every
/// reply must pass the tenant's own leak scan.
pub fn tenant_replay(
    tr: &Trace,
    parent: usize,
    state_dir: &Path,
    secret: &[u8],
    requests: &[(String, &str)],
) -> Result<TenantRun, String> {
    let spec = TenantSpec {
        name: "bench".to_string(),
        secret: secret.to_vec(),
        state_dir: state_dir.to_path_buf(),
        disabled_rules: Vec::new(),
        max_request_bytes: confanon::core::MAX_PAYLOAD,
        queue_depth: None,
    };
    let id = tr.open("tenant.open", "tenant", Some(parent));
    let mut tenant = Tenant::open(&spec, FlushMode::Drain, &StdFs);
    tr.close(id);
    let open_s = tr.duration(id);
    if let Some(defect) = tenant.state_defect() {
        return Err(format!("tenant state refused: {defect}"));
    }
    let mut run = TenantRun {
        open_s,
        handle_s: Vec::new(),
        flush_s: Vec::new(),
    };
    for (i, (name, text)) in requests.iter().enumerate() {
        let unit = format!("req-{i}");
        let id = tr.open("tenant.handle_anon", &unit, Some(parent));
        let (status, reply) = tenant.handle_anon(name, text.as_bytes(), &StdFs);
        tr.close(id);
        run.handle_s.push(tr.duration(id));
        if status != Status::Ok {
            return Err(format!("request {name}: {}", status.name()));
        }
        let id = tr.open("tenant.flush", &unit, Some(parent));
        let flushed = tenant.flush(&StdFs);
        tr.close(id);
        run.flush_s.push(tr.duration(id));
        flushed.map_err(err)?;

        let reply = String::from_utf8(reply).map_err(err)?;
        let anon = tenant.anonymizer();
        let scan =
            LeakScanner::scan_excluding(anon.leak_record(), anon.emitted_exclusions(), &reply);
        if !scan.is_clean() {
            return Err(format!("request {name}: reply fails the leak scan"));
        }
        tr.count("tenant.requests_ok", 1.0);
    }
    Ok(run)
}

/// State layer in isolation on `anon`: capture, serialize, durable
/// write into `dir`, then load, owner check and restore into a fresh
/// anonymizer.
pub fn state_probe(
    tr: &Trace,
    parent: usize,
    anon: &Anonymizer,
    files: BTreeMap<String, FileMark>,
    secret: &[u8],
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let p = Some(parent);
    let fingerprint = RunManifest::fingerprint(secret);
    let (state, capture) = timed(tr, "state.capture", p, || {
        AnonState::capture(anon, fingerprint.clone(), files)
    });
    let (bytes, serialize) = timed(tr, "state.serialize", p, || state.to_bytes());
    let mut stats = DurabilityStats::default();
    let (written, write) = timed(tr, "state.write", p, || {
        write_atomic(&StdFs, &state_path(dir), &bytes, &mut stats)
    });
    written.map_err(err)?;
    let cfg = AnonymizerConfig::new(secret.to_vec());
    let (loaded, load) = timed(tr, "state.load", p, || -> Result<AnonState, String> {
        let state = AnonState::load(&StdFs, dir)
            .map_err(err)?
            .ok_or("state vanished")?;
        let perms = Anonymizer::new(cfg.clone()).perm_fingerprint();
        state
            .check_owner("state", &fingerprint, &perms)
            .map_err(err)?;
        Ok(state)
    });
    let loaded = loaded?;
    let mut fresh = Anonymizer::new(cfg);
    let (restored, restore) = timed(tr, "state.restore", p, || {
        loaded.restore_into("state", &mut fresh)
    });
    restored.map_err(err)?;
    put(m, "state.capture_s", capture);
    put(m, "state.serialize_s", serialize);
    put(m, "state.write_s", write);
    put(m, "state.load_s", load);
    put(m, "state.restore_s", restore);
    put(m, "state.bytes", bytes.len() as f64);
    Ok(())
}

/// `Publisher::begin_incremental` in isolation over a released output
/// directory whose files are all unchanged (every digest re-verified).
pub fn begin_incremental_probe(
    tr: &Trace,
    parent: usize,
    out_dir: &Path,
    secret: &[u8],
    names: &[String],
    m: &mut Metrics,
) -> Result<(), String> {
    let unchanged: BTreeSet<String> = names.iter().cloned().collect();
    let (r, s) = timed(tr, "publish.begin_incremental", Some(parent), || {
        Publisher::begin_incremental(&StdFs, out_dir, secret, names, &unchanged)
            .map(|(p, v)| (p.finish(), v))
    });
    let (_, verified) = r.map_err(err)?;
    if verified.len() != names.len() {
        return Err(format!(
            "begin_incremental verified {} of {} outputs",
            verified.len(),
            names.len()
        ));
    }
    put(m, "publish.begin_incremental_s", s);
    Ok(())
}

/// The same output bytes written through `write_atomic` without the
/// journal: the difference to `publish.release_s` is the journal.
pub fn write_atomic_probe(
    tr: &Trace,
    parent: usize,
    outputs: &[(String, String)],
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut stats = DurabilityStats::default();
    let (r, s) = timed(
        tr,
        "fsx.write_atomic",
        Some(parent),
        || -> Result<(), String> {
            for (n, text) in outputs {
                write_atomic(
                    &StdFs,
                    &dir.join(format!("{n}.anon")),
                    text.as_bytes(),
                    &mut stats,
                )
                .map_err(err)?;
            }
            Ok(())
        },
    );
    r?;
    put(m, "fsx.write_atomic_s", s);
    Ok(())
}

/// Isolated micro-runs on the workload's own lines: tokenizer,
/// prefilter, a fresh keyed v4 trie fed the journal's order, and the
/// regexp-language rewrites.
pub fn micro_probe(
    tr: &Trace,
    parent: usize,
    texts: &[&str],
    anon: &Anonymizer,
    secret: &[u8],
    m: &mut Metrics,
) {
    let p = Some(parent);
    let lines: Vec<&str> = texts.iter().flat_map(|t| t.lines()).collect();
    let (tokens, tok) = timed(tr, "iosparse.tokenize", p, || {
        lines
            .iter()
            .map(|l| std::hint::black_box(tokenize(l)).len())
            .sum::<usize>()
    });
    tr.count("iosparse.tokens", tokens as f64);
    put(m, "iosparse.tokenize_s", tok);

    let (slow, pf) = timed(tr, "rules.prefilter", p, || {
        lines
            .iter()
            .filter(|l| {
                matches!(
                    std::hint::black_box(Prefilter::classify(l)),
                    LineClass::ContextScan
                )
            })
            .count()
    });
    put(m, "rules.prefilter_s", pf);
    put(
        m,
        "rules.slow_path_ratio",
        ratio(slow as f64, lines.len() as f64),
    );

    let v4: Vec<_> = anon
        .journal()
        .iter()
        .filter_map(|o| match o {
            ObservedIp::V4(ip) => Some(*ip),
            ObservedIp::V6(_) => None,
        })
        .collect();
    let (nodes, trie) = timed(tr, "ipanon.trie4", p, || {
        let mut t = IpAnonymizer::with_options(secret, true);
        for ip in &v4 {
            std::hint::black_box(t.anonymize(*ip));
        }
        t.node_count()
    });
    put(m, "ipanon.trie4_s", trie);
    put(m, "ipanon.trie4_nodes", nodes as f64);

    // The regexp lines the anonymizer hands to `asnanon`: as-path lists
    // from token 5, community lists from token 4 unless every token is
    // a literal community.
    let mut regexps: Vec<(bool, String)> = Vec::new();
    for l in &lines {
        let toks: Vec<&str> = l.split_whitespace().collect();
        let lower: Vec<String> = toks
            .iter()
            .take(5)
            .map(|t| t.to_ascii_lowercase())
            .collect();
        let head: Vec<&str> = lower.iter().map(String::as_str).collect();
        match head.as_slice() {
            ["ip", "as-path", "access-list", _, "permit" | "deny", ..] if toks.len() >= 6 => {
                regexps.push((true, toks[5..].join(" ")));
            }
            ["ip", "community-list", _, "permit" | "deny", ..]
                if toks.len() >= 5
                    && !toks[4..]
                        .iter()
                        .all(|t| anon.community_map().map_token(t).is_some()) =>
            {
                regexps.push((false, toks[4..].join(" ")));
            }
            _ => {}
        }
    }
    let opts = RewriteOptions::default();
    let (ok, rx) = timed(tr, "asnanon.regex", p, || {
        regexps
            .iter()
            .filter(|(aspath, pattern)| {
                if *aspath {
                    rewrite_aspath_regex_full(pattern, anon.asn_map(), opts).is_ok()
                } else {
                    rewrite_community_regex_full(pattern, anon.community_map(), opts).is_ok()
                }
            })
            .count()
    });
    let distinct: BTreeSet<&(bool, String)> = regexps.iter().collect();
    tr.count("asnanon.regex_lines", regexps.len() as f64);
    tr.count("asnanon.regex_parsed", ok as f64);
    put(m, "asnanon.regex_s", rx);
    put(
        m,
        "asnanon.regex_distinct_ratio",
        ratio(distinct.len() as f64, regexps.len() as f64),
    );
}

/// Rewrite-side ratios from the emit pass's own counters.
pub fn rewrite_ratios(r: &RewriteStats, m: &mut Metrics) {
    let hashes = (r.hash_memo_hits + r.hash_memo_misses) as f64;
    put(
        m,
        "anonymizer.hash_memo_hit_ratio",
        ratio(r.hash_memo_hits as f64, hashes),
    );
    put(
        m,
        "anonymizer.lines_borrowed_ratio",
        ratio(r.lines_borrowed as f64, r.lines_total as f64),
    );
}

/// Tenant-layer metrics from a replay.
pub fn tenant_metrics(t: &TenantRun, m: &mut Metrics) {
    let ms = |v: &[f64], q: f64| quantile(v, q) * 1e3;
    put(m, "tenant.open_s", t.open_s);
    put(m, "tenant.handle_anon_ms.p50", ms(&t.handle_s, 0.5));
    put(m, "tenant.handle_anon_ms.p90", ms(&t.handle_s, 0.9));
    put(m, "tenant.flush_ms.p50", ms(&t.flush_s, 0.5));
    put(m, "tenant.flush_ms.p90", ms(&t.flush_s, 0.9));
}

/// Batch-layer metrics a replay measured that self times do not cover.
pub fn batch_counts(b: &BatchRun, m: &mut Metrics) {
    put(m, "publish.journal_bytes", b.journal_bytes as f64);
    put(m, "publish.fsyncs", b.durability.fsyncs as f64);
    put(m, "anonymizer.clone_ms.p50", median(&b.clone_s) * 1e3);
    put(m, "leak.scan_excluding_ms.p50", median(&b.scan_s) * 1e3);
}

/// Runs `f` in a span and returns its result and duration.
pub fn timed<T>(
    tr: &Trace,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = tr.open(name, "probe", parent);
    let out = f();
    tr.close(id);
    (out, tr.duration(id))
}

/// Sets `name` unless a path measurement already did.
pub fn put(m: &mut Metrics, name: &str, v: f64) {
    m.entry(name.to_string()).or_insert(v);
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
