//! The per-node walk, and the differential tests that pin the shipped
//! walk to it.
//!
//! [`IpAnonymizer::map_raw`] reuses the raw keyed bit of the last path
//! it keyed, because a fresh node reached by input bit 0 has its
//! parent's path as its PRF input. The reference below computes one
//! keyed bit per fresh node, as the walk did before; the tests insert
//! the same addresses into a shipped and a reference trie and demand
//! the same image after every insert, the same node count, the same
//! node table and the same structure digest.

use super::*;
use confanon_testkit::rng::{Rng, SeedableRng, XorShift64Star};

impl IpAnonymizer {
    /// The reference for [`IpAnonymizer::map_raw`]: one keyed bit per
    /// fresh node.
    fn reference_map_raw(&mut self, ip: Ip) -> Ip {
        let tz = if self.preserve_trailing_zeros {
            ip.0.trailing_zeros().min(32) as u8
        } else {
            0
        };
        let trailing_zero_from = 32 - tz;

        let mut out = 0u32;
        let mut node = 0usize;
        let mut path = 0u32;
        let mut visited: [(u32, bool); 32] = [(0, false); 32];
        for depth in 0u8..32 {
            let in_bit = ip.bit(depth);
            visited[depth as usize].0 = node as u32;
            let flip = self.nodes[node].flip;
            let out_bit = in_bit ^ flip;
            out = (out << 1) | u32::from(out_bit);

            let idx = usize::from(in_bit);
            let next_path = path | (u32::from(in_bit) << (31 - depth));
            if depth < 31 {
                if self.nodes[node].child[idx] == NONE {
                    let flip = if Self::forced_identity(next_path, depth + 1, trailing_zero_from) {
                        false
                    } else {
                        self.prf.bit("iptrie", &next_path.to_be_bytes()[..])
                            ^ self.depth_salts[usize::from(depth) + 1]
                    };
                    self.nodes.push(Node {
                        flip,
                        child: [NONE, NONE],
                    });
                    let new_id = (self.nodes.len() - 1) as u32;
                    self.nodes[node].child[idx] = new_id;
                    visited[depth as usize + 1].1 = true;
                }
                node = self.nodes[node].child[idx] as usize;
            }
            path = next_path;
        }

        if special_kind(Ip(out)).is_some() {
            for depth in (0u8..32).rev() {
                let (node_id, fresh) = visited[depth as usize];
                if !fresh || Self::pinned(ip, depth) {
                    continue;
                }
                let candidate = out ^ (1u32 << (31 - depth));
                if special_kind(Ip(candidate)).is_none() {
                    self.nodes[node_id as usize].flip ^= true;
                    out = candidate;
                    break;
                }
            }
        }
        Ip(out)
    }

    /// [`IpAnonymizer::anonymize`] over the reference walk.
    fn reference_anonymize(&mut self, ip: Ip) -> Ip {
        if special_kind(ip).is_some() {
            return ip;
        }
        let mut out = self.reference_map_raw(ip);
        while special_kind(out).is_some() {
            out = self.reference_map_raw(out);
        }
        out
    }

    /// The node table as comparable values.
    fn node_table(&self) -> Vec<(bool, [u32; 2])> {
        self.nodes.iter().map(|n| (n.flip, n.child)).collect()
    }
}

/// Inserts `addrs` into a shipped and a reference trie keyed by
/// `secret`, comparing the image and node count after every insert and
/// the node table and structure digest at the end.
fn assert_same_trie(secret: &[u8], preserve_trailing_zeros: bool, addrs: &[Ip]) {
    let mut shipped = IpAnonymizer::with_options(secret, preserve_trailing_zeros);
    let mut reference = IpAnonymizer::with_options(secret, preserve_trailing_zeros);
    for &ip in addrs {
        assert_eq!(
            shipped.anonymize(ip),
            reference.reference_anonymize(ip),
            "image of {ip} diverged"
        );
        assert_eq!(shipped.node_count(), reference.node_count(), "after {ip}");
    }
    assert!(
        shipped.node_table() == reference.node_table(),
        "node tables diverged"
    );
    assert_eq!(shipped.structure_digest(), reference.structure_digest());
}

/// Seeded addresses shaped like a config corpus: hosts and subnet
/// addresses (long trailing zero runs) under a few shared prefixes, plus
/// uniform addresses.
fn corpus_addresses(seed: u64, n: usize) -> Vec<Ip> {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let bases: Vec<u32> = (0..16).map(|_| rng.gen::<u32>() & 0xFFFF_0000).collect();
    (0..n)
        .map(|_| {
            let raw = match rng.gen_range(0u8..4) {
                0 => rng.gen::<u32>(),
                shape => {
                    let base = bases[rng.gen_range(0..bases.len())];
                    let host = rng.gen::<u32>() & 0xFFFF;
                    // Shape 1 keeps a whole host, 2 and 3 zero a host part
                    // of up to 16 bits (a subnet address).
                    let zeros = if shape == 1 {
                        0
                    } else {
                        rng.gen_range(2u32..=16)
                    };
                    base | (host >> zeros << zeros)
                }
            };
            Ip(raw)
        })
        .collect()
}

#[test]
fn zero_run_reuse_matches_the_per_node_walk() {
    for seed in 0..4u64 {
        let addrs = corpus_addresses(seed, 3_000);
        for preserve in [true, false] {
            assert_same_trie(&seed.to_be_bytes(), preserve, &addrs);
        }
    }
}

#[test]
fn zero_run_reuse_matches_the_per_node_walk_through_collision_repair() {
    // The 64 keys of `classful_network_stays_containing_after_collision_repair`,
    // whose `10.0.0.0` insert is repaired at creation time for some of them.
    let addrs = ["10.181.0.18", "10.0.0.0"].map(|s| s.parse::<Ip>().unwrap());
    for seed in 0u32..64 {
        for preserve in [true, false] {
            assert_same_trie(&seed.to_be_bytes(), preserve, &addrs);
        }
    }
}
