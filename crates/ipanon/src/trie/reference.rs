//! The per-node walk, and the differential tests that pin the shipped
//! walk to it for both address families.
//!
//! [`Trie::map_raw`] reuses the raw keyed bit of the last path it keyed,
//! because a fresh node reached by input bit 0 has its parent's path as
//! its PRF input, reads each depth's salt from one word, and finds the
//! nodes it created as one suffix of its walk. The reference below keys
//! every fresh node and its depth with the PRF and keeps a per-depth
//! table of the nodes it visited; the tests insert the same addresses
//! into a shipped and a reference trie and demand the same image after
//! every insert, the same node count, the same node table and the same
//! structure digest.

use super::*;
use crate::{Ip6Anonymizer, V6};
use confanon_netprim::Ip6;
use confanon_testkit::rng::{Rng, SeedableRng, XorShift64Star};

impl<F: Family> Trie<F> {
    /// The reference for [`Trie::map_raw`]: one keyed bit and one salt
    /// per fresh node, and a table of the node visited at each depth.
    fn reference_map_raw(&mut self, addr: F::Addr) -> F::Addr {
        let ip = F::word(addr);
        let bits = F::Word::BITS;
        let zero = F::Word::from(false);
        let tz = if self.preserve_trailing_zeros {
            ip.trailing_zeros() as u8
        } else {
            0
        };
        let trailing_zero_from = bits - tz;

        let mut out = zero;
        let mut node = 0usize;
        let mut path = zero;
        let mut visited = vec![(0u32, false); usize::from(bits)];
        for depth in 0..bits {
            let in_bit = ip & F::Word::at(depth) != zero;
            visited[usize::from(depth)].0 = node as u32;
            let out_bit = in_bit ^ self.nodes[node].flip;
            out = out << 1 | F::Word::from(out_bit);

            let idx = usize::from(in_bit);
            let next_path = path | F::Word::from(in_bit) << (bits - 1 - depth);
            if depth < bits - 1 {
                if self.nodes[node].child[idx] == NONE {
                    let flip = if F::pinned(next_path, depth + 1) || depth + 1 >= trailing_zero_from
                    {
                        false
                    } else {
                        self.prf.bit(F::LABEL, next_path.to_be_bytes().as_ref())
                            ^ self.prf.bit(F::DEPTH_LABEL, &[depth + 1])
                    };
                    self.nodes.push(Node {
                        flip,
                        child: [NONE, NONE],
                    });
                    let new_id = (self.nodes.len() - 1) as u32;
                    self.nodes[node].child[idx] = new_id;
                    visited[usize::from(depth) + 1].1 = true;
                }
                node = self.nodes[node].child[idx] as usize;
            }
            path = next_path;
        }

        if F::is_special(out) {
            for depth in (0..bits).rev() {
                let (node_id, fresh) = visited[usize::from(depth)];
                if !fresh || F::pinned(ip, depth) {
                    continue;
                }
                let candidate = out ^ F::Word::from(true) << (bits - 1 - depth);
                if !F::is_special(candidate) {
                    self.nodes[node_id as usize].flip ^= true;
                    out = candidate;
                    break;
                }
            }
        }
        F::addr(out)
    }

    /// [`Trie::anonymize`] over the reference walk.
    fn reference_anonymize(&mut self, addr: F::Addr) -> F::Addr {
        if F::is_special(F::word(addr)) {
            return addr;
        }
        let mut out = self.reference_map_raw(addr);
        while F::is_special(F::word(out)) {
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
fn assert_same_trie<F: Family>(secret: &[u8], preserve_trailing_zeros: bool, addrs: &[F::Addr]) {
    let mut shipped = Trie::<F>::with_options(secret, preserve_trailing_zeros);
    let mut reference = Trie::<F>::with_options(secret, preserve_trailing_zeros);
    for &ip in addrs {
        let (image, expected) = (shipped.anonymize(ip), reference.reference_anonymize(ip));
        assert!(
            F::word(image) == F::word(expected),
            "image of {ip} diverged: {image}, not {expected}"
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
        let addrs = corpus_addresses(seed, 3_000);
        for preserve in [true, false] {
            assert_same_trie::<V4>(&seed.to_be_bytes(), preserve, &addrs);
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
            assert_same_trie::<V4>(&seed.to_be_bytes(), preserve, &addrs);
        }
    }
}

#[test]
fn ipv6_zero_run_reuse_matches_the_per_node_walk() {
    for seed in 0..4u64 {
        let addrs = zero_run_addresses(seed, 1_500);
        for preserve in [true, false] {
            assert_same_trie::<V6>(&seed.to_be_bytes(), preserve, &addrs);
        }
    }
}

/// An IPv6 walk whose image would be `::`: under a mapped `p` in `::/3`
/// whose image has `l` leading zeros and input bit `l` clear, the address
/// that keeps `p`'s first `l` bits, then sets bit `l` and ends in zeros,
/// walks `p`'s nodes to depth `l` and unflipped fresh nodes below. The
/// repair re-flips the deepest fresh node whose image is ordinary:
/// `::1` is loopback, so the image is `::2`.
#[test]
fn ipv6_collision_repair_matches_the_per_node_walk() {
    let mut repaired = 0;
    for seed in 0u64..64 {
        let secret = seed.to_be_bytes();
        let mut rng = XorShift64Star::seed_from_u64(seed);
        let p = rng.gen::<u128>() >> 3;
        let mut trie = Ip6Anonymizer::new(&secret);
        let l = trie.anonymize(Ip6(p)).0.leading_zeros() as u8;
        if p & <u128 as Word>::at(l) != 0 {
            continue;
        }
        let q = (p & !(u128::MAX >> l)) | <u128 as Word>::at(l);
        assert_eq!(trie.anonymize(Ip6(q)), Ip6(2), "seed {seed}");
        assert_same_trie::<V6>(&secret, true, &[Ip6(p), Ip6(q)]);
        repaired += 1;
    }
    assert!(
        repaired >= 16,
        "only {repaired} of 64 keys reached the repair"
    );
}
