//! The correctness gate: released bytes agree across runs, no planted
//! identifier survives, and the §5 validation suites pass per network.

use std::collections::BTreeMap;
use std::path::Path;

use confanon::core::{LeakScanner, RunManifest};
use confanon::crypto::Sha1;
use confanon::iosparse::Config;
use confanon::validate::{compare_designs, compare_properties, network_properties};
use confanon::workflow::ground_truth_record;

use crate::inputs::Inputs;

/// Every `.anon` file under `dir`, keyed by corpus-relative name.
pub fn released(dir: &Path) -> Result<BTreeMap<String, String>, String> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, String>) -> Result<(), String> {
        for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else if let Some(rel) = path
                .strip_prefix(root)
                .ok()
                .and_then(|r| r.to_str())
                .and_then(|r| r.strip_suffix(".anon"))
            {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                out.insert(rel.to_string(), text);
            }
        }
        Ok(())
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out)?;
    Ok(out)
}

/// One SHA-1 over every released name and its bytes.
pub fn digest(outputs: &BTreeMap<String, String>) -> String {
    let mut sha = Sha1::new();
    for (name, text) in outputs {
        sha.update(format!("{name} {}\n", text.len()).as_bytes());
        sha.update(text.as_bytes());
    }
    Sha1::to_hex(&sha.finalize())
}

/// Files the run journal does not list as released (quarantined,
/// failed, or still pending).
pub fn unreleased(out_dir: &Path) -> Result<usize, String> {
    let path = out_dir.join(confanon::core::RUN_MANIFEST_NAME);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = RunManifest::from_json_str(&text).map_err(|e| e.to_string())?;
    Ok(manifest
        .files
        .iter()
        .filter(|f| f.status != confanon::core::FileStatus::Released)
        .count())
}

/// Ground-truth leak scan and validation suites 1 and 2, per network,
/// over `released` (original name → anonymized text). `exclusions` are
/// the images the anonymizer legitimately emitted.
pub fn check_networks(
    inputs: &Inputs,
    released: &BTreeMap<String, String>,
    exclusions: &[String],
) -> Result<usize, String> {
    let mut by_net: BTreeMap<usize, (Vec<&str>, Vec<&str>)> = BTreeMap::new();
    for f in inputs.all() {
        if let Some(post) = released.get(&f.rel) {
            let e = by_net.entry(f.network).or_default();
            e.0.push(&f.text);
            e.1.push(post);
        }
    }
    for (&n, (pre, post)) in &by_net {
        let net = &inputs.networks[n];
        let record = ground_truth_record(net);
        let scan =
            LeakScanner::scan_excluding(&record, exclusions.iter().cloned(), &post.join("\n"));
        if let Some(leak) = scan.leaks.first() {
            return Err(format!(
                "network {}: ground-truth identifier {:?} survives ({} line(s))",
                net.name,
                leak.token,
                scan.leaks.len()
            ));
        }
        let pre: Vec<Config> = pre.iter().map(|t| Config::parse(t)).collect();
        let post: Vec<Config> = post.iter().map(|t| Config::parse(t)).collect();
        if !compare_properties(&network_properties(&pre), &network_properties(&post)).passed() {
            return Err(format!("network {}: validation suite 1 fails", net.name));
        }
        if !compare_designs(&pre, &post).passed() {
            return Err(format!("network {}: validation suite 2 fails", net.name));
        }
    }
    Ok(by_net.len())
}
