//! E9 at the paper's full scale: "4.3 million lines of configuration from
//! 7655 routers running more than 200 different IOS versions."
//!
//! Generates the paper-shaped corpus (31 networks, ≈7.7k routers),
//! anonymizes all of it through the gated batch pipeline `confanon
//! batch` runs (one keyed state per network, discovery and rewrite on
//! every core, the §6.1 leak gate on every output), scans every network
//! for residual leaks against generator ground truth, and runs both
//! validation suites — then reports wall time and throughput. The paper took "fewer than 5 iterations over 3
//! months" with humans in the loop; the mechanical pass is minutes.
//!
//! ```sh
//! cargo run --release --example paper_scale [mean-routers]
//! ```

use std::collections::HashMap;
use std::time::Instant;

use confanon::confgen::{generate_dataset, paper_dataset_spec};
use confanon::core::leak::LeakScanner;
use confanon::core::AnonymizerConfig;
use confanon::workflow::{
    anonymize_corpus_gated, ground_truth_record, run_suite1, run_suite2, GatedOptions, NetworkRun,
};

fn main() {
    let mut spec = paper_dataset_spec(2004);
    if let Some(m) = std::env::args().nth(1).and_then(|a| a.parse().ok()) {
        spec.mean_routers = m;
    }

    let t0 = Instant::now();
    let ds = generate_dataset(&spec);
    let gen_time = t0.elapsed();
    let lines = ds.total_lines();
    let versions: std::collections::HashSet<&str> = ds
        .networks
        .iter()
        .flat_map(|n| n.routers.iter().map(|r| r.ios_version.as_str()))
        .collect();
    println!(
        "corpus: {} networks, {} routers, {} lines, {} IOS versions (generated in {:.1?})",
        ds.networks.len(),
        ds.total_routers(),
        lines,
        versions.len(),
        gen_time
    );
    println!(
        "paper:  31 networks, 7655 routers, 4.3M lines, 200+ IOS versions\n"
    );

    let t1 = Instant::now();
    let mut withheld = 0usize;
    // One run per network; `None` when a file's processing failed, so
    // the network has no output for every router to validate.
    let runs: Vec<Option<NetworkRun>> = ds
        .networks
        .iter()
        .enumerate()
        .map(|(i, net)| {
            let files: Vec<(String, String)> = net
                .routers
                .iter()
                .map(|r| (format!("{}.cfg", r.hostname), r.config.clone()))
                .collect();
            let cfg = AnonymizerConfig::new(format!("scale-{i}").into_bytes());
            let run = anonymize_corpus_gated(&files, cfg, GatedOptions::jobs(0))
                .expect("a cold run restores no state");
            withheld += run.quarantined.len() + run.failures.len();
            if !run.failures.is_empty() {
                return None;
            }
            // Validate and scan what the anonymizer produced, released or
            // withheld by the gate, in input order.
            let order: HashMap<&str, usize> =
                files.iter().enumerate().map(|(k, (name, _))| (name.as_str(), k)).collect();
            let mut outputs = run.clean;
            outputs.extend(run.quarantined.into_iter().map(|q| q.output));
            outputs.sort_by_key(|o| order[o.name.as_str()]);
            Some(NetworkRun {
                anonymized: outputs.into_iter().map(|o| o.text).collect(),
                anonymizer: run.anonymizer,
            })
        })
        .collect();
    let anon_time = t1.elapsed();
    println!(
        "anonymized {} lines in {:.1?} ({:.0} lines/s on {} cores), {} file(s) withheld by the gate",
        lines,
        anon_time,
        lines as f64 / anon_time.as_secs_f64(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        withheld
    );

    let t2 = Instant::now();
    let mut validated = 0;
    let mut s1_pass = 0;
    let mut s2_pass = 0;
    let mut leaks = 0usize;
    for (net, run) in ds.networks.iter().zip(&runs) {
        let Some(run) = run else { continue };
        validated += 1;
        s1_pass += usize::from(run_suite1(net, run).passed());
        s2_pass += usize::from(run_suite2(net, run).passed());
        let record = ground_truth_record(net);
        let text = run.anonymized.join("\n");
        leaks += LeakScanner::scan_excluding(&record, run.anonymizer.emitted_exclusions(), &text)
            .leaks
            .len();
    }
    println!(
        "validated {}/{} networks (released and withheld outputs) in {:.1?}: \
         suite1 {}/{}, suite2 {}/{}, residual leaks {}",
        validated,
        ds.networks.len(),
        t2.elapsed(),
        s1_pass,
        validated,
        s2_pass,
        validated,
        leaks
    );
}
