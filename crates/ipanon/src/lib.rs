//! # confanon-ipanon — structure-preserving IP address anonymization
//!
//! Paper §4.3. Two schemes are implemented:
//!
//! * [`Trie`] — the scheme the paper ships: an extended version of
//!   Minshall's tcpdpriv `-a50` table-based prefix-preserving mapping,
//!   written once and instantiated per address [`Family`]:
//!   [`IpAnonymizer`] (`Trie<V4>`) and [`Ip6Anonymizer`] (`Trie<V6>`,
//!   DESIGN §6b's 128-bit generalization). "We have found that using a
//!   data-structure-based mapping scheme makes it easier to implement
//!   these requirements. By controlling how new entries are added to the
//!   data-structure, we can shape the mapping to have the needed
//!   properties while maintaining as much of the randomness needed for
//!   security as possible." The extensions:
//!
//!   1. **class preserving** — the class-defining leading bits (1 for A,
//!      2 for B, 3 for C, 4 for D/E) map identically; IPv6 pins the
//!      `2000::/3` bits instead;
//!   2. **special addresses pass through** — netmask-valued quads,
//!      wildcard-valued quads, multicast, reserved, loopback, and
//!      link-local (and their IPv6 counterparts) are returned unchanged
//!      and never entered in the trie;
//!   3. **collision remapping** — when an ordinary address's image lands
//!      on a special value, the image is recursively re-mapped "until
//!      there is no collision". Termination and injectivity are argued in
//!      [`Trie::anonymize`]'s docs and enforced by tests;
//!   4. **subnet-address preserving** — an address whose host part is all
//!      zeros maps to another all-zeros-suffix address whenever the trie
//!      nodes for that suffix are first created by it (best-effort, as in
//!      the paper: a readability property, not a guarantee).
//!
//! * [`CryptoPan`] — the stateless cryptographic scheme of Xu et al.,
//!   which the paper credits with "very little state must be shared to
//!   consistently map addresses, making it amenable to parallelization",
//!   but which cannot express the class/special constraints. It serves as
//!   the comparison baseline for experiment E13.
//!
//! A third mapping, [`RandomScramble`], is the *negative control*: fully
//! anonymous, zero structure. Experiment E15 runs the validation suites
//! over it to quantify what prefix preservation buys.
//!
//! All schemes are keyed by the owner secret and fully deterministic, so
//! re-running the anonymizer on the same network maps it consistently.

#![deny(rustdoc::broken_intra_doc_links)]

mod cryptopan;
mod scramble;
mod trie;
mod trie6;

pub use cryptopan::CryptoPan;
pub use scramble::RandomScramble;
pub use trie::{Family, IpAnonymizer, Trie, Word, V4};
pub use trie6::{Ip6Anonymizer, V6};

#[cfg(test)]
mod property_tests {
    use super::*;
    use confanon_netprim::{special_kind, Ip};
    use confanon_testkit::props::{any, assume, vec_of};

    confanon_testkit::props! {
        cases = 256;

        /// The headline guarantee: for ordinary addresses whose images do
        /// not collide with specials (the overwhelmingly common case),
        /// the longest common prefix of the images equals the longest
        /// common prefix of the inputs.
        fn trie_prefix_preserving(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            let (a, b) = (Ip(a), Ip(b));
            assume(special_kind(a).is_none() && special_kind(b).is_none());
            let mut anon = IpAnonymizer::new(&seed.to_be_bytes());
            let fa = anon.map_raw(a);
            let fb = anon.map_raw(b);
            assert_eq!(a.common_prefix_len(b), fa.common_prefix_len(fb));
        }

        /// Class preservation on the raw map.
        fn trie_class_preserving(a in any::<u32>(), seed in any::<u64>()) {
            let a = Ip(a);
            assume(special_kind(a).is_none());
            let mut anon = IpAnonymizer::new(&seed.to_be_bytes());
            assert_eq!(anon.anonymize(a).class(), a.class());
        }

        /// End-to-end map (with remapping) never outputs a special
        /// address for an ordinary input, and is injective over a batch.
        fn trie_total_map_avoids_specials(addrs in vec_of(any::<u32>(), 1usize..200), seed in any::<u64>()) {
            let mut anon = IpAnonymizer::new(&seed.to_be_bytes());
            let mut seen = std::collections::HashMap::new();
            for &raw in &addrs {
                let ip = Ip(raw);
                let out = anon.anonymize(ip);
                if special_kind(ip).is_some() {
                    assert_eq!(out, ip);
                } else {
                    assert!(special_kind(out).is_none(), "{ip} -> {out} is special");
                }
                if let Some(prev) = seen.insert(ip, out) {
                    assert_eq!(prev, out, "inconsistent mapping for {ip}");
                }
            }
            // Injectivity: distinct inputs, distinct outputs.
            let mut by_out = std::collections::HashMap::new();
            for (i, o) in &seen {
                if let Some(other) = by_out.insert(*o, *i) {
                    assert_eq!(other, *i, "two inputs map to {o}");
                }
            }
        }

        /// Crypto-PAn baseline: prefix preserving and stateless
        /// (order-independent).
        fn cryptopan_prefix_preserving(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            let (a, b) = (Ip(a), Ip(b));
            let cp = CryptoPan::new(&seed.to_be_bytes());
            assert_eq!(
                a.common_prefix_len(b),
                cp.anonymize(a).common_prefix_len(cp.anonymize(b))
            );
        }

        /// The two schemes agree on the *shape* requirement (prefix
        /// preservation) while producing different mappings — they are
        /// genuinely distinct implementations.
        fn schemes_are_distinct(seed in any::<u64>()) {
            let mut trie = IpAnonymizer::new(&seed.to_be_bytes());
            let cp = CryptoPan::new(&seed.to_be_bytes());
            let sample: Vec<Ip> = (0..64u32).map(|i| Ip(0x0A00_0000 + i * 65537)).collect();
            let differs = sample
                .iter()
                .any(|&ip| trie.anonymize(ip) != cp.anonymize(ip));
            assert!(differs);
        }
    }
}

#[cfg(test)]
mod property_tests6 {
    use super::*;
    use confanon_netprim::{special6_kind, Ip6};
    use confanon_testkit::props::{any, assume};

    confanon_testkit::props! {
        cases = 256;

        /// 128-bit prefix preservation for ordinary global-unicast pairs.
        fn trie6_prefix_preserving(a in any::<u128>(), b in any::<u128>(), seed in any::<u64>()) {
            // Constrain to global unicast (2000::/3) — the space configs
            // actually use; region pinning makes other spaces special-ish.
            let a = Ip6((a & !(0b111u128 << 125)) | (0b001u128 << 125));
            let b = Ip6((b & !(0b111u128 << 125)) | (0b001u128 << 125));
            assume(special6_kind(a).is_none() && special6_kind(b).is_none());
            let mut anon = Ip6Anonymizer::new(&seed.to_be_bytes());
            let fa = anon.map_raw(a);
            let fb = anon.map_raw(b);
            assert_eq!(a.common_prefix_len(b), fa.common_prefix_len(fb));
        }

        /// The total v6 map never outputs a special for ordinary input
        /// and stays consistent.
        fn trie6_total_map(a in any::<u128>(), seed in any::<u64>()) {
            let a = Ip6(a);
            let mut anon = Ip6Anonymizer::new(&seed.to_be_bytes());
            let out = anon.anonymize(a);
            if special6_kind(a).is_some() {
                assert_eq!(out, a);
            } else {
                assert!(special6_kind(out).is_none());
                assert_eq!(anon.anonymize(a), out);
            }
        }
    }
}
