//! E12/E13 — the §4.3 trade-off between IP anonymization schemes.
//!
//! §4.3 contrasts Xu's stateless scheme ("very little state must be
//! shared … amenable to parallelization") with Minshall's table-based
//! scheme, which the paper extends because "using a data-structure-based
//! mapping scheme makes it easier to implement these requirements". This
//! prints the per-address cost of the trie on first sight (cold) and on
//! repeat (warm) against the stateless Crypto-PAn-style PRF chain, and the
//! trie nodes the table keeps per address. Each scheme maps one fixed
//! stream of ordinary addresses per batch, on one thread; a cost is the
//! median batch divided by the stream length.
//!
//! ```sh
//! cargo run --release --example ip_schemes
//! ```

use std::hint::black_box;
use std::time::Instant;

use confanon::ipanon::{CryptoPan, IpAnonymizer};
use confanon::netprim::Ip;

const SECRET: &[u8] = b"bench";
const STREAM: u32 = 1024;
const BATCHES: usize = 101;

/// Median nanoseconds per address of `batch`, which maps the whole stream
/// once, over [`BATCHES`] timed runs after one warmup run.
fn ns_per_address(mut batch: impl FnMut()) -> f64 {
    batch();
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / f64::from(STREAM)
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[BATCHES / 2]
}

fn main() {
    // A deterministic pseudo-random stream of ordinary addresses.
    let addrs: Vec<Ip> = (0..STREAM)
        .map(|i| Ip(i.wrapping_mul(2_654_435_761) | 0x0800_0000))
        .collect();

    let cold = ns_per_address(|| {
        let mut trie = IpAnonymizer::new(SECRET);
        for &ip in &addrs {
            black_box(trie.anonymize(ip));
        }
    });
    let mut warm_trie = IpAnonymizer::new(SECRET);
    for &ip in &addrs {
        warm_trie.anonymize(ip);
    }
    let warm = ns_per_address(|| {
        for &ip in &addrs {
            black_box(warm_trie.anonymize(ip));
        }
    });
    let cryptopan = CryptoPan::new(SECRET);
    let stateless = ns_per_address(|| {
        for &ip in &addrs {
            black_box(cryptopan.anonymize(ip));
        }
    });

    println!("E12/E13: {STREAM}-address stream, median of {BATCHES} batches, one thread");
    println!("{:<32} {:>12}", "scheme", "per address");
    for (scheme, ns) in [
        ("trie, cold (first sight)", cold),
        ("trie, warm (repeat)", warm),
        ("Crypto-PAn-style, stateless", stateless),
    ] {
        println!("{scheme:<32} {:>9.2} µs", ns / 1000.0);
    }
    let nodes = warm_trie.node_count();
    println!(
        "{:<32} {:>12.1}   ({nodes} nodes for {STREAM} addresses)",
        "trie nodes per address",
        nodes as f64 / f64::from(STREAM)
    );
}
