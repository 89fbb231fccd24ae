//! The per-node IPv6 walk, and the differential test that pins the
//! shipped walk to it (see the v4 trie's reference module).

use super::*;
use confanon_testkit::rng::{Rng, SeedableRng, XorShift64Star};

impl Ip6Anonymizer {
    /// The reference for [`Ip6Anonymizer::map_raw`]: one keyed bit per
    /// fresh node.
    fn reference_map_raw(&mut self, ip: Ip6) -> Ip6 {
        let tz = ip.0.trailing_zeros().min(128) as u8;
        let trailing_zero_from = 128 - tz;

        let mut out: u128 = 0;
        let mut node = 0usize;
        let mut path: u128 = 0;
        let mut visited: [(u32, bool); 128] = [(0, false); 128];
        for depth in 0u8..128 {
            let in_bit = ip.bit(depth);
            visited[depth as usize].0 = node as u32;
            let flip = self.nodes[node].flip;
            out = (out << 1) | u128::from(in_bit ^ flip);

            let idx = usize::from(in_bit);
            let next_path = path | (u128::from(in_bit) << (127 - depth));
            if depth < 127 {
                if self.nodes[node].child[idx] == NONE {
                    let flip = if Self::forced_identity(next_path, depth + 1, trailing_zero_from) {
                        false
                    } else {
                        self.prf.bit("ip6trie", &next_path.to_be_bytes()[..])
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

        if special6_kind(Ip6(out)).is_some() {
            for depth in (0u8..128).rev() {
                let (node_id, fresh) = visited[depth as usize];
                if !fresh || Self::pinned(ip, depth) {
                    continue;
                }
                let candidate = out ^ (1u128 << (127 - depth));
                if special6_kind(Ip6(candidate)).is_none() {
                    self.nodes[node_id as usize].flip ^= true;
                    out = candidate;
                    break;
                }
            }
        }
        Ip6(out)
    }

    /// [`Ip6Anonymizer::anonymize`] over the reference walk.
    fn reference_anonymize(&mut self, ip: Ip6) -> Ip6 {
        if special6_kind(ip).is_some() {
            return ip;
        }
        let mut out = self.reference_map_raw(ip);
        while special6_kind(out).is_some() {
            out = self.reference_map_raw(out);
        }
        out
    }

    /// The node table as comparable values.
    fn node_table(&self) -> Vec<(bool, [u32; 2])> {
        self.nodes.iter().map(|n| (n.flip, n.child)).collect()
    }
}

/// Seeded addresses with long zero runs: a few `/32`s and `/48`s, each
/// address keeping a random handful of its 16-bit groups and zeroing
/// the rest (`2001:db8::1`, `2001:db8:7::`, `2001:db8:0:5::a:0`), plus
/// uniform global-unicast addresses.
fn zero_run_addresses(seed: u64, n: usize) -> Vec<Ip6> {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let bases: Vec<u128> = (0..8)
        .map(|_| {
            let len = if rng.gen::<bool>() { 32 } else { 48 };
            (rng.gen::<u128>() >> 3 | 1 << 125) >> (128 - len) << (128 - len)
        })
        .collect();
    (0..n)
        .map(|_| {
            if rng.gen_range(0u8..8) == 0 {
                return Ip6(rng.gen::<u128>() >> 3 | 1 << 125);
            }
            let base = bases[rng.gen_range(0..bases.len())];
            let mut host = 0u128;
            for group in 0..5 {
                if rng.gen_range(0u8..4) == 0 {
                    host |= u128::from(rng.gen::<u16>()) << (16 * group);
                }
            }
            Ip6(base | host)
        })
        .collect()
}

#[test]
fn zero_run_reuse_matches_the_per_node_walk() {
    for seed in 0..4u64 {
        let secret = seed.to_be_bytes();
        let mut shipped = Ip6Anonymizer::new(&secret);
        let mut reference = Ip6Anonymizer::new(&secret);
        for ip in zero_run_addresses(seed, 1_500) {
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
}
