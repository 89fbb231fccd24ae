//! Workload inputs: generated from the seed with `confgen`, laid out on
//! disk as `confanon generate` writes them, and fingerprinted so runs
//! over different inputs are never compared.

use std::path::{Path, PathBuf};

use confanon::confgen::{generate_dataset, DatasetSpec, Network};
use confanon::crypto::Sha1;

use crate::Workload;

/// The seed `BENCHMARK.json` pins input fingerprints for.
pub const DEFAULT_SEED: u64 = 2004;

/// Mean routers per network. The paper's E9 shape is 31 networks at a
/// mean of ~247; the benchmark keeps the 31 networks and the backbone
/// share and scales routers down so a cold batch takes ~2.5 s, which
/// fits several repetitions into one measured run.
pub const MEAN_ROUTERS: usize = 8;

/// Corpus size band (total config lines). Router counts are sampled
/// per network, so at a fixed spec the corpus of one seed can be a
/// third larger than another's; every seed's corpus is drawn from this
/// band instead, so timings compare across seeds.
const TARGET_LINES: f64 = 150_000.0;
const LINES_BAND: f64 = 0.03;

/// Files appended by `warm_append`, and the directory they go in. The
/// directory must sort after every base network (append growth).
pub const APPEND_FILES: usize = 8;
pub const APPEND_DIR: &str = "zzzz-append";

/// One generated config file.
pub struct InputFile {
    /// Path relative to the corpus root, as the batch binary names it.
    pub rel: String,
    /// Index into [`Inputs::networks`].
    pub network: usize,
    pub text: String,
}

/// Everything one workload feeds the program.
pub struct Inputs {
    pub networks: Vec<Network>,
    /// Base corpus in the batch binary's (path-sorted) order.
    pub base: Vec<InputFile>,
    /// `warm_append` only: the appended files, in corpus order.
    pub appended: Vec<InputFile>,
    /// SHA-1 over everything the program receives.
    pub fingerprint: String,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
        // Seeds should vary the corpus's content, not its size: take the
        // first derived seed whose corpus lies in the size band.
        let mut attempt = 0u64;
        let ds = loop {
            let ds = generate_dataset(&DatasetSpec {
                seed: seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                networks: 31,
                mean_routers: MEAN_ROUTERS,
                backbone_fraction: 0.35,
            });
            let lines = ds.total_lines() as f64;
            if (lines - TARGET_LINES).abs() <= TARGET_LINES * LINES_BAND {
                break ds;
            }
            attempt += 1;
            if attempt == 256 {
                return Err(format!("no corpus within the size band for seed {seed}"));
            }
        };
        let mut networks = ds.networks;
        let mut base = files_of(&networks, 0, |net| net.name.clone());
        base.sort_by(|a, b| Path::new(&a.rel).cmp(Path::new(&b.rel)));

        let mut appended = Vec::new();
        if workload == Workload::WarmAppend {
            // A further network from its own seed; its first routers by
            // hostname are the growth.
            let extra = generate_dataset(&DatasetSpec {
                seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
                networks: 1,
                mean_routers: 40,
                backbone_fraction: 0.35,
            });
            let index = networks.len();
            networks.extend(extra.networks);
            appended = files_of(&networks[index..], index, |_| APPEND_DIR.to_string());
            appended.sort_by(|a, b| a.rel.cmp(&b.rel));
            if appended.len() < APPEND_FILES {
                return Err(format!(
                    "append network has {} routers, need {APPEND_FILES}",
                    appended.len()
                ));
            }
            appended.truncate(APPEND_FILES);
            if let Some(last) = base.last() {
                if Path::new(&last.rel) >= Path::new(&appended[0].rel) {
                    return Err(format!("{APPEND_DIR} does not sort after {}", last.rel));
                }
            }
        }
        let mut sha = Sha1::new();
        sha.update(format!("perfbench-inputs-v2 {}\n", workload.name()).as_bytes());
        for f in base.iter().chain(&appended) {
            sha.update(format!("{} {}\n", f.rel, f.text.len()).as_bytes());
            sha.update(f.text.as_bytes());
        }
        let fingerprint = Sha1::to_hex(&sha.finalize());
        Ok(Inputs {
            networks,
            base,
            appended,
            fingerprint,
        })
    }

    /// Base corpus plus appended files, in corpus order.
    pub fn all(&self) -> impl Iterator<Item = &InputFile> {
        self.base.iter().chain(&self.appended)
    }

    pub fn lines<'a>(files: impl IntoIterator<Item = &'a InputFile>) -> u64 {
        files
            .into_iter()
            .map(|f| f.text.lines().count() as u64)
            .sum()
    }

    /// Writes `files` under `dir` (which must not exist yet), synced.
    pub fn write_tree<'a>(
        dir: &Path,
        files: impl IntoIterator<Item = &'a InputFile>,
    ) -> Result<(), String> {
        let mut dirs = std::collections::BTreeSet::new();
        for f in files {
            let path = dir.join(&f.rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
                dirs.insert(parent.to_path_buf());
            }
            crate::proc::write_synced(&path, f.text.as_bytes())?;
        }
        dirs.iter().try_for_each(|d| crate::proc::sync_path(d))
    }
}

fn files_of(
    networks: &[Network],
    first_index: usize,
    dir: impl Fn(&Network) -> String,
) -> Vec<InputFile> {
    let mut out = Vec::new();
    for (i, net) in networks.iter().enumerate() {
        for r in &net.routers {
            out.push(InputFile {
                rel: format!("{}/{}.cfg", dir(net), r.hostname),
                network: first_index + i,
                text: r.config.clone(),
            });
        }
    }
    out
}

/// A file's name as a serve request carries it (`CONFANON/1` name
/// tokens are restricted to `[A-Za-z0-9._-]`).
pub fn request_name(rel: &str) -> String {
    rel.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The fingerprint `BENCHMARK.json` pins for `workload` at the default
/// seed, read from the workload's `why` line (`inputs@2004 sha1 <hex>`).
pub fn pinned_fingerprint(root: &Path, workload: Workload) -> Result<String, String> {
    let path: PathBuf = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = confanon_testkit::json::Json::parse(&text)
        .map_err(|e| format!("{}: {e:?}", path.display()))?;
    let why = doc
        .get("workloads")
        .and_then(|w| w.as_array())
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload.name()))
        })
        .and_then(|w| w.get("why"))
        .and_then(|w| w.as_str())
        .ok_or_else(|| format!("{}: no workload {:?}", path.display(), workload.name()))?;
    let marker = format!("inputs@{DEFAULT_SEED} sha1 ");
    why.split_once(marker.as_str())
        .map(|(_, rest)| rest.chars().take(40).collect())
        .ok_or_else(|| {
            format!(
                "{}: {:?} pins no input fingerprint",
                path.display(),
                workload.name()
            )
        })
}
