//! The IPv6 family of the prefix-preserving trie — the 128-bit
//! generalization of the paper's extended `-a50` scheme.
//!
//! The walk is [`crate::Trie`]'s; this family drops classful addressing
//! (IPv6 has none) and pins the IPv6 regions instead: the global-unicast
//! `2000::/3` leading bits (so anonymized addresses remain plausibly
//! global unicast), and link-local `fe80::/10` and multicast `ff00::/8`,
//! which map to themselves. Trailing zeros are preserved at first sight
//! (subnet-address readability, §3.2).

use crate::trie::{Family, Trie};
use confanon_netprim::{special6_kind, Ip6};

/// The IPv6 family.
#[derive(Clone)]
pub enum V6 {}

/// Protected prefix regions: (leading bits left-aligned in u128, length).
/// Inputs inside them are special (passthrough); the pinning guarantees
/// ordinary inputs can never map *into* them.
const REGIONS6: [(u128, u8); 2] = [
    (0xfe80u128 << 112, 10), // fe80::/10 link-local
    (0xffu128 << 120, 8),    // ff00::/8 multicast
];

impl Family for V6 {
    type Addr = Ip6;
    type Word = u128;
    const LABEL: &'static str = "ip6trie";
    const DEPTH_LABEL: &'static str = "ip6trie-depth";
    const REMAP_GUARD: u32 = 256;

    fn word(addr: Ip6) -> u128 {
        addr.0
    }

    fn addr(word: u128) -> Ip6 {
        Ip6(word)
    }

    fn is_special(word: u128) -> bool {
        special6_kind(Ip6(word)).is_some()
    }

    fn pinned(path: u128, depth: u8) -> bool {
        // The first three bits: `2000::/3` (global unicast) maps to
        // itself, the address-family analogue of v4 class preservation.
        depth < 3
            || REGIONS6
                .iter()
                .any(|&(bits, len)| depth < len && (path ^ bits) >> (128 - depth) == 0)
    }
}

/// The IPv6 trie anonymizer.
pub type Ip6Anonymizer = Trie<V6>;

#[cfg(test)]
mod tests {
    use super::*;

    fn anon() -> Ip6Anonymizer {
        Ip6Anonymizer::new(b"v6-test-secret")
    }

    fn ip(s: &str) -> Ip6 {
        s.parse().unwrap()
    }

    #[test]
    fn deterministic_and_keyed() {
        let mut a = anon();
        let x = a.anonymize(ip("2001:db8::1"));
        assert_eq!(anon().anonymize(ip("2001:db8::1")), x);
        assert_ne!(
            Ip6Anonymizer::new(b"other").anonymize(ip("2001:db8::1")),
            x
        );
    }

    #[test]
    fn prefix_preserving() {
        let mut a = anon();
        let x = a.anonymize(ip("2001:db8:1:2::1"));
        let y = a.anonymize(ip("2001:db8:1:2::2"));
        let z = a.anonymize(ip("2001:db8:9::1"));
        assert_eq!(
            ip("2001:db8:1:2::1").common_prefix_len(ip("2001:db8:1:2::2")),
            x.common_prefix_len(y)
        );
        assert_eq!(
            ip("2001:db8:1:2::1").common_prefix_len(ip("2001:db8:9::1")),
            x.common_prefix_len(z)
        );
    }

    #[test]
    fn specials_pass_through() {
        let mut a = anon();
        for s in ["::", "::1", "fe80::1", "ff02::5", "::ffff:192.0.2.1"] {
            assert_eq!(a.anonymize(ip(s)), ip(s), "{s}");
        }
    }

    #[test]
    fn global_unicast_stays_global_unicast() {
        let mut a = anon();
        for s in ["2001:db8::1", "2400:cb00::1", "3fff:ffff::9"] {
            let out = a.anonymize(ip(s));
            assert_eq!(out.0 >> 125, 0b001, "{s} -> {out} left 2000::/3");
        }
    }

    #[test]
    fn ordinary_never_maps_into_protected_regions() {
        let mut a = anon();
        for i in 0..512u32 {
            let addr = Ip6((0x2001u128 << 112) | (u128::from(i) * 0x9E37_79B9) << 40 | 1);
            let out = a.anonymize(addr);
            assert!(out.0 >> 118 != 0x3fa, "{addr} -> {out} in fe80::/10");
            assert!(out.0 >> 120 != 0xff, "{addr} -> {out} in ff00::/8");
        }
    }

    #[test]
    fn trailing_zeros_preserved_first_seen() {
        let mut a = anon();
        let out = a.anonymize(ip("2001:db8:42::"));
        assert!(out.0.trailing_zeros() >= 80, "{out}");
    }

    #[test]
    fn injective_on_a_batch() {
        let mut a = anon();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u128 {
            let addr = Ip6((0x2400u128 << 112) | (i * 0x0001_0001_0001));
            assert!(seen.insert(a.anonymize(addr)));
        }
    }

    /// [`V6::pinned`] against the two predicates it replaced, copied here
    /// as they were: creation's `forced_identity` (with no trailing-zero
    /// run) on the path above the node, and repair's `pinned` on the
    /// whole address, at every depth of every region boundary and of
    /// seeded paths.
    #[test]
    fn pinned_matches_the_creation_and_repair_predicates_it_replaced() {
        const REGIONS6: [(u128, u8); 2] = [(0xfe80u128 << 112, 10), (0xffu128 << 120, 8)];
        fn forced_identity(path_bits: u128, depth: u8, trailing_zero_from: u8) -> bool {
            if depth < 3 {
                return true;
            }
            for (bits, len) in REGIONS6 {
                if depth < len && (path_bits ^ bits) >> (128 - depth) == 0 {
                    return true;
                }
            }
            depth >= trailing_zero_from
        }
        fn pinned(ip: Ip6, depth: u8) -> bool {
            if depth < 3 {
                return true;
            }
            let path = ip.0 & (u128::MAX << (128 - depth));
            for (bits, len) in REGIONS6 {
                if depth < len && (path ^ bits) >> (128 - depth) == 0 {
                    return true;
                }
            }
            false
        }

        use confanon_testkit::rng::{Rng, SeedableRng, XorShift64Star};
        let boundaries: Vec<u128> = [1u128 << 125, 0xfe80 << 112, 0xff << 120]
            .iter()
            .flat_map(|&r| [r, r - 1, r | ((1 << 112) - 1), r + (1 << 118)])
            .chain([0, 0x3fff << 112, 0xe000 << 112, 0xfec0 << 112, u128::MAX])
            .collect();
        let mut rng = XorShift64Star::seed_from_u64(0x9116);
        let near: Vec<u128> = boundaries
            .iter()
            .map(|&b| b ^ rng.gen::<u128>() >> 12)
            .collect();
        let uniform: Vec<u128> = (0..1024).map(|_| rng.gen()).collect();
        for path in boundaries.into_iter().chain(near).chain(uniform) {
            for depth in 0..128u8 {
                let above = path & !(u128::MAX >> depth);
                let at = format!("{path:#x} @ {depth}");
                assert_eq!(
                    V6::pinned(above, depth),
                    forced_identity(above, depth, 128),
                    "{at}"
                );
                assert_eq!(V6::pinned(path, depth), pinned(Ip6(path), depth), "{at}");
            }
        }
    }
}
