//! The table-based (binary trie) prefix-preserving mapping, written once
//! for both address families.
//!
//! Every trie node corresponds to an input bit-prefix `p` and stores one
//! bit `flip`: the output bit at depth `|p|` is `input_bit ⊕ flip`. Two
//! addresses sharing a k-bit input prefix walk the same k nodes and hence
//! share exactly k output bits — prefix preservation by construction.
//!
//! The paper's extensions are implemented as constraints on `flip` when a
//! node is first created:
//!
//! * **pinned bits** — `flip = 0` wherever the [`Family`] pins the path
//!   ([`Family::pinned`]). IPv4 pins the class-defining bits (depth 0,
//!   and depths 1..4 while the path so far is all ones) and the proper
//!   prefixes of 127/8 and 169.254/16; IPv6 pins the `2000::/3` bits and
//!   the proper prefixes of `fe80::/10` and `ff00::/8`. Each region maps
//!   onto itself, so ordinary inputs can never land inside one;
//! * **trailing zeros** — if the address being inserted ends in `t` zero
//!   bits, nodes created in the last `t` levels get `flip = 0`, mapping
//!   subnet addresses to subnet addresses when first seen;
//! * otherwise `flip` is a keyed PRF bit of the input path — deterministic
//!   per owner secret but unpredictable without it.
//!
//! Point specials (netmask- and wildcard-valued quads, `::`, `::1`) are
//! not prefix regions and are instead handled by the creation-time repair
//! in [`Trie::map_raw`] and the §4.3 recursive remap in
//! [`Trie::anonymize`].

use std::fmt;
use std::marker::PhantomData;
use std::ops::{BitAnd, BitOr, BitXor, Shl};

use confanon_crypto::Prf;
use confanon_netprim::{special_kind, Ip};

/// An address as a word, `u32` or `u128`, read from its most significant
/// bit: the bit at depth `d` is the `d`-th from the top.
pub trait Word:
    Copy
    + Eq
    + From<bool>
    + Shl<u8, Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
{
    /// The width in bits.
    const BITS: u8;
    /// The byte array of the word.
    type Bytes: AsRef<[u8]>;
    /// The big-endian bytes: the PRF input of a node's path.
    fn to_be_bytes(self) -> Self::Bytes;
    /// The number of trailing zero bits (`BITS` for zero).
    fn trailing_zeros(self) -> u32;
    /// The word with only the bit at `depth` set.
    fn at(depth: u8) -> Self {
        Self::from(true) << (Self::BITS - 1 - depth)
    }
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const BITS: u8 = <$t>::BITS as u8;
            type Bytes = [u8; std::mem::size_of::<$t>()];
            fn to_be_bytes(self) -> Self::Bytes {
                <$t>::to_be_bytes(self)
            }
            fn trailing_zeros(self) -> u32 {
                <$t>::trailing_zeros(self)
            }
        }
    )*};
}
word!(u32, u128);

/// What differs between the IPv4 and the IPv6 trie.
pub trait Family {
    /// The address.
    type Addr: Copy + fmt::Display;
    /// The address's word.
    type Word: Word;
    /// PRF domain of a node's keyed bit.
    const LABEL: &'static str;
    /// PRF domain of the per-depth salt.
    const DEPTH_LABEL: &'static str;
    /// Bound on the recursive remap's steps in [`Trie::anonymize`].
    const REMAP_GUARD: u32;
    /// The word of `addr`.
    fn word(addr: Self::Addr) -> Self::Word;
    /// The address of `word`.
    fn addr(word: Self::Word) -> Self::Addr;
    /// Whether the address passes through unchanged; no ordinary input
    /// may map onto one.
    fn is_special(word: Self::Word) -> bool;
    /// Whether the node at `depth` on `path` keeps `flip = 0` for good: a
    /// class or family bit, or a proper prefix of a protected region.
    /// Reads only the `depth` bits above the node. A fresh node is
    /// created unflipped there, and the repair never re-flips it.
    fn pinned(path: Self::Word, depth: u8) -> bool;
}

/// Sentinel for "no child".
const NONE: u32 = u32::MAX;

/// One trie node.
#[derive(Clone, Copy)]
struct Node {
    /// Output-bit flip at this node's depth.
    flip: bool,
    /// Children indexed by the input bit.
    child: [u32; 2],
}

/// The extended `-a50` anonymizer of one address family (see module
/// docs).
#[derive(Clone)]
pub struct Trie<F: Family> {
    prf: Prf,
    nodes: Vec<Node>,
    preserve_trailing_zeros: bool,
    /// Bit `d` is the keyed salt of depth `d` (see [`Trie::map_raw`]),
    /// computed once at construction: the salt is a pure function of
    /// (secret, depth), and paying one HMAC per *fresh trie node* for it
    /// was measurably the second-largest cost of corpus discovery.
    depth_salts: u128,
    family: PhantomData<F>,
}

impl<F: Family> Trie<F> {
    /// Creates an anonymizer keyed by the owner secret (with the paper's
    /// subnet-address preservation on).
    pub fn new(owner_secret: &[u8]) -> Trie<F> {
        Trie::with_options(owner_secret, true)
    }

    /// Like [`Trie::new`], optionally disabling the subnet-address
    /// (trailing-zero) preservation of §3.2 — rule R24's ablation switch.
    /// Prefix/class/special guarantees are unaffected.
    pub fn with_options(owner_secret: &[u8], preserve_trailing_zeros: bool) -> Trie<F> {
        let prf = Prf::new(owner_secret);
        // The depths a node can be created at; the root's is pinned.
        let depth_salts = (1..F::Word::BITS)
            .filter(|&depth| prf.bit(F::DEPTH_LABEL, &[depth]))
            .fold(0u128, |salts, depth| salts | 1 << depth);
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node {
            flip: false, // depth 0 is pinned in both families
            child: [NONE, NONE],
        });
        Trie {
            prf,
            nodes,
            preserve_trailing_zeros,
            depth_salts,
            family: PhantomData,
        }
    }

    /// Number of trie nodes allocated (size of the shared state the paper
    /// contrasts against Xu's stateless scheme).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// FNV-1a digest of the full node table — flip bit and child ids in
    /// allocation order — so a persisted-state load can verify that its
    /// journal replay rebuilt the trie node-for-node.
    pub fn structure_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        };
        for node in &self.nodes {
            mix(u8::from(node.flip));
            for child in node.child {
                for b in child.to_be_bytes() {
                    mix(b);
                }
            }
        }
        h
    }

    /// The raw trie map: prefix-preserving and pin-respecting, but with no
    /// passthrough or collision handling. Exposed for the property tests
    /// and benchmarks; production callers use [`Trie::anonymize`].
    ///
    /// A fresh node's keyed bit is a PRF bit of its left-aligned input
    /// path, XORed with a keyed salt of its depth (the path `1` at depth 1
    /// and `10` at depth 2 share the left-aligned encoding; the salt
    /// removes the aliasing). A node reached by input bit 0 has its
    /// parent's path, so the walk keeps the last path it keyed with its
    /// raw bit and computes one keyed bit per distinct path, not one per
    /// node.
    ///
    /// When the computed image collides with a *point* special (the
    /// trailing-zero rule can steer an image onto `0.0.0.0`, a mask-valued
    /// quad or `::`), the walk repairs itself **at creation time**: it
    /// re-flips one freshly created node — deepest first, skipping pinned
    /// depths — so that the image is ordinary. Fresh nodes are not yet
    /// shared with any other mapping, so the repair never disturbs an
    /// established prefix relation; this is how the paper's claim that
    /// collision handling "maintains the structure-preserving property" is
    /// realized. A walk's fresh nodes are its deepest ones, created in
    /// depth order, so the depth and id of the first locate them all.
    pub fn map_raw(&mut self, addr: F::Addr) -> F::Addr {
        let ip = F::word(addr);
        let bits = F::Word::BITS;
        let zero = F::Word::from(false);
        // Depth at which the trailing zero run of `ip` begins (`bits` =
        // none).
        let trailing_zero_from = if self.preserve_trailing_zeros {
            bits - ip.trailing_zeros() as u8
        } else {
            bits
        };

        let mut out = ip;
        let mut node = 0usize;
        // The input bits above the next node, left-aligned.
        let mut path = zero;
        // The depth and id of the walk's first fresh node.
        let mut fresh: Option<(u8, u32)> = None;
        // The last keyed path of this walk and its raw (unsalted) bit.
        let mut keyed: Option<(F::Word, bool)> = None;
        for depth in 0..bits {
            if self.nodes[node].flip {
                out = out ^ F::Word::at(depth);
            }
            if depth + 1 == bits {
                break;
            }
            // Descend, creating the child if needed.
            let in_bit = ip & F::Word::at(depth);
            path = path | in_bit;
            let idx = usize::from(in_bit != zero);
            if self.nodes[node].child[idx] == NONE {
                let flip = if F::pinned(path, depth + 1) || depth + 1 >= trailing_zero_from {
                    false
                } else {
                    let raw = match keyed {
                        Some((p, raw)) if p == path => raw,
                        _ => self.prf.bit(F::LABEL, path.to_be_bytes().as_ref()),
                    };
                    keyed = Some((path, raw));
                    raw ^ (self.depth_salts >> (depth + 1) & 1 == 1)
                };
                let id = self.nodes.len() as u32;
                self.nodes.push(Node {
                    flip,
                    child: [NONE, NONE],
                });
                self.nodes[node].child[idx] = id;
                fresh.get_or_insert((depth + 1, id));
            }
            node = self.nodes[node].child[idx] as usize;
        }

        // Point-special escape: re-flip one fresh, unpinned node (deepest
        // first). Never touches a pinned bit or any node another mapping
        // already walked.
        if let Some((from, first)) = fresh.filter(|_| F::is_special(out)) {
            let repairs =
                |&depth: &u8| !F::pinned(ip, depth) && !F::is_special(out ^ F::Word::at(depth));
            if let Some(depth) = (from..bits).rev().find(repairs) {
                self.nodes[(first + u32::from(depth - from)) as usize].flip ^= true;
                out = out ^ F::Word::at(depth);
            }
        }
        F::addr(out)
    }

    /// The full §4.3 scheme: specials pass through unchanged; ordinary
    /// addresses go through the trie; if the image collides with a special
    /// value it is recursively re-mapped until ordinary.
    ///
    /// **Termination**: the realized trie map is a bijection on the words
    /// (each level XORs a path-determined bit), so iterating it from `a`
    /// walks a finite cycle through `a`; because `a` itself is ordinary,
    /// the walk meets an ordinary value after at most
    /// `|specials-on-cycle| + 1` steps. **Injectivity**: if two ordinary
    /// inputs reached the same final image, the earlier one on the shared
    /// cycle suffix would itself have been an (ordinary) intermediate of
    /// the other — contradicting that only special values are re-mapped.
    pub fn anonymize(&mut self, addr: F::Addr) -> F::Addr {
        if F::is_special(F::word(addr)) {
            return addr;
        }
        let mut out = self.map_raw(addr);
        let mut guard = 0;
        while F::is_special(F::word(out)) {
            out = self.map_raw(out);
            guard += 1;
            assert!(
                guard <= F::REMAP_GUARD,
                "collision remapping failed to terminate for {addr}"
            );
        }
        out
    }
}

/// The IPv4 family: classful pins and the paper's specials.
#[derive(Clone)]
pub enum V4 {}

/// The two special *prefix regions* that must map to themselves and that
/// ordinary traffic must therefore avoid: loopback and link-local.
/// Encoded as (bits, length). Multicast 224/4 and reserved 240/4 are
/// already pinned by the class bits.
const REGIONS: [(u32, u8); 2] = [
    (0x7F00_0000, 8),  // 127.0.0.0/8
    (0xA9FE_0000, 16), // 169.254.0.0/16
];

impl Family for V4 {
    type Addr = Ip;
    type Word = u32;
    const LABEL: &'static str = "iptrie";
    const DEPTH_LABEL: &'static str = "iptrie-depth";
    const REMAP_GUARD: u32 = 128;

    fn word(addr: Ip) -> u32 {
        addr.0
    }

    fn addr(word: u32) -> Ip {
        Ip(word)
    }

    fn is_special(word: u32) -> bool {
        special_kind(Ip(word)).is_some()
    }

    fn pinned(path: u32, depth: u8) -> bool {
        // Class-defining bits: depth 0 always; depths 1..4 while every bit
        // of the path so far is 1.
        if depth == 0 {
            return true;
        }
        let top = path >> (32 - depth);
        (depth < 4 && top == (1 << depth) - 1)
            || REGIONS
                .iter()
                .any(|&(bits, len)| depth < len && top == bits >> (32 - depth))
    }
}

/// The paper's IPv4 anonymizer.
pub type IpAnonymizer = Trie<V4>;

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use confanon_netprim::{AddrClass, Prefix};

    fn anon() -> IpAnonymizer {
        IpAnonymizer::new(b"unit-test-secret")
    }

    #[test]
    fn deterministic_and_consistent() {
        let mut a = anon();
        let ip: Ip = "12.126.236.17".parse().unwrap();
        let first = a.anonymize(ip);
        assert_eq!(a.anonymize(ip), first);
        // Fresh instance with the same secret reproduces the mapping.
        let mut b = anon();
        assert_eq!(b.anonymize(ip), first);
    }

    #[test]
    fn different_secrets_different_mappings() {
        let ip: Ip = "12.126.236.17".parse().unwrap();
        let x = IpAnonymizer::new(b"s1").anonymize(ip);
        let y = IpAnonymizer::new(b"s2").anonymize(ip);
        assert_ne!(x, y);
    }

    #[test]
    fn specials_pass_through() {
        let mut a = anon();
        for s in [
            "255.255.255.0",
            "0.0.0.255",
            "224.0.0.5",
            "127.0.0.1",
            "169.254.1.1",
            "0.0.0.0",
            "255.255.255.255",
        ] {
            let ip: Ip = s.parse().unwrap();
            assert_eq!(a.anonymize(ip), ip, "{s}");
        }
    }

    #[test]
    fn class_preserved_for_every_class() {
        let mut a = anon();
        for (s, c) in [
            ("10.20.30.40", AddrClass::A),
            ("150.60.70.80", AddrClass::B),
            ("200.90.100.110", AddrClass::C),
        ] {
            let out = a.anonymize(s.parse().unwrap());
            assert_eq!(out.class(), c, "{s} -> {out}");
        }
    }

    #[test]
    fn subnet_contains_preserved() {
        // The Figure 1 relationship: 1.0.0.0/8 contains 1.1.1.1; the
        // anonymized pair must preserve containment.
        let mut a = anon();
        let net = a.anonymize("1.0.0.0".parse().unwrap());
        let host = a.anonymize("1.1.1.1".parse().unwrap());
        let net_pfx = Prefix::new(net, 8);
        assert!(net_pfx.contains(host));
    }

    #[test]
    fn subnet_address_maps_to_subnet_address() {
        // First-seen subnet addresses keep their zero host parts.
        let mut a = anon();
        for s in ["10.2.3.0", "172.20.0.0", "192.200.4.0", "1.0.0.0"] {
            let ip: Ip = s.parse().unwrap();
            let out = a.anonymize(ip);
            let tz_in = ip.0.trailing_zeros();
            let tz_out = out.0.trailing_zeros();
            assert!(
                tz_out >= tz_in,
                "{s} (tz {tz_in}) -> {out} (tz {tz_out})"
            );
        }
    }

    #[test]
    fn ordinary_never_maps_into_loopback_or_linklocal() {
        // 1/128 of random class A images would land in 127/8 without the
        // region pinning; with it, none may.
        let mut a = anon();
        for i in 0..4096u32 {
            let ip = Ip(0x0100_0000u32.wrapping_add(i.wrapping_mul(2_654_435_761)) & 0x7FFF_FFFF);
            if special_kind(ip).is_some() {
                continue;
            }
            let out = a.anonymize(ip);
            assert!(
                !Prefix::new(Ip(0x7F00_0000), 8).contains(out),
                "{ip} -> {out} in 127/8"
            );
            assert!(
                !Prefix::new(Ip(0xA9FE_0000), 16).contains(out),
                "{ip} -> {out} in 169.254/16"
            );
        }
    }

    #[test]
    fn loopback_region_maps_to_itself_conceptually() {
        // Addresses in 127/8 are special and pass through — the region
        // maps to itself trivially; this documents the invariant.
        let mut a = anon();
        let ip: Ip = "127.5.6.7".parse().unwrap();
        assert_eq!(a.anonymize(ip), ip);
    }

    #[test]
    fn prefix_structure_of_a_realistic_plan_is_preserved() {
        // Carve a /16 into /24s and check the images still share the /16
        // image and are distinct /24s: the "number of subnets of each
        // size" validation property (paper §5) in miniature.
        let mut a = anon();
        let base: Ip = "10.50.0.0".parse().unwrap();
        let out_base = a.anonymize(base);
        let mut images = std::collections::HashSet::new();
        for i in 0..32u32 {
            let sub = Ip(base.0 + (i << 8));
            let out = a.anonymize(sub);
            assert!(
                out.common_prefix_len(out_base) >= 16,
                "{sub} escaped the /16"
            );
            images.insert(out.0 >> 8);
        }
        assert_eq!(images.len(), 32, "images collided at /24 granularity");
    }

    #[test]
    fn node_count_grows_linearly() {
        let mut a = anon();
        let before = a.node_count();
        a.anonymize("10.0.0.1".parse().unwrap());
        let after_one = a.node_count();
        assert!(after_one > before);
        a.anonymize("10.0.0.1".parse().unwrap());
        assert_eq!(a.node_count(), after_one, "re-mapping allocates nothing");
        a.anonymize("10.0.0.2".parse().unwrap());
        assert!(a.node_count() <= after_one + 2, "shared path re-used");
    }

    #[test]
    fn remap_guard_is_untriggered_on_saturation() {
        // Map a large batch; the guard assertion inside anonymize must
        // never fire and all outputs must be ordinary.
        let mut a = anon();
        for i in 0..10_000u32 {
            let ip = Ip(i.wrapping_mul(2_654_435_761));
            if special_kind(ip).is_none() {
                let out = a.anonymize(ip);
                assert!(special_kind(out).is_none());
            }
        }
    }

    /// [`V4::pinned`] against the two predicates it replaced, copied here
    /// as they were: creation's `forced_identity` (with no trailing-zero
    /// run) on the path above the node, and repair's `pinned` on the
    /// whole address, at every depth of every class and region boundary
    /// and of seeded paths.
    #[test]
    fn pinned_matches_the_creation_and_repair_predicates_it_replaced() {
        const REGIONS: [(u32, u8); 2] = [(0x7F00_0000, 8), (0xA9FE_0000, 16)];
        fn forced_identity(path_bits: u32, depth: u8, trailing_zero_from: u8) -> bool {
            if depth == 0 {
                return true;
            }
            if depth < 4 {
                let ones = path_bits >> (32 - depth);
                if ones == (1u32 << depth) - 1 {
                    return true;
                }
            }
            for (bits, len) in REGIONS {
                if depth < len && (path_bits ^ bits) >> (32 - depth) == 0 {
                    return true;
                }
            }
            depth >= trailing_zero_from
        }
        fn pinned(ip: Ip, depth: u8) -> bool {
            if depth == 0 {
                return true;
            }
            let path = if depth == 0 { 0 } else { ip.0 & (u32::MAX << (32 - depth)) };
            if depth < 4 && path >> (32 - depth) == (1u32 << depth) - 1 {
                return true;
            }
            for (bits, len) in REGIONS {
                if depth < len && (path ^ bits) >> (32 - depth) == 0 {
                    return true;
                }
            }
            false
        }

        use confanon_testkit::rng::{Rng, SeedableRng, XorShift64Star};
        let boundaries: Vec<u32> = [0x7F00_0000u32, 0xA9FE_0000]
            .iter()
            .flat_map(|&r| [r, r - 1, r | 0xFFFF, r + 0x1_0000, r | 0xFF_FFFF])
            .chain([0, 0x7FFF_FFFF, 0x8000_0000, 0xBFFF_FFFF, 0xC000_0000])
            .chain([0xDFFF_FFFF, 0xE000_0000, 0xEFFF_FFFF, 0xF000_0000, u32::MAX])
            .collect();
        let mut rng = XorShift64Star::seed_from_u64(0x9113);
        let near: Vec<u32> = boundaries
            .iter()
            .map(|&b| b ^ rng.gen::<u32>() >> 12)
            .collect();
        let uniform: Vec<u32> = (0..4096).map(|_| rng.gen()).collect();
        for path in boundaries.into_iter().chain(near).chain(uniform) {
            for depth in 0..32u8 {
                let above = path & !(u32::MAX >> depth);
                let at = format!("{path:#x} @ {depth}");
                assert_eq!(
                    V4::pinned(above, depth),
                    forced_identity(above, depth, 32),
                    "{at}"
                );
                assert_eq!(V4::pinned(path, depth), pinned(Ip(path), depth), "{at}");
            }
        }
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use confanon_netprim::Prefix;

    /// The scenario that motivated creation-time repair: interfaces in
    /// `10.x` are mapped first, then the classful `network 10.0.0.0`
    /// statement. With unlucky flips the network address's image is
    /// `0.0.0.0` (first-octet image 0 + trailing-zero preservation) —
    /// a special — and a naive remap would tear it away from the
    /// interfaces it must still contain. The repair keeps containment
    /// for every key, so this exhaustively checks many keys.
    #[test]
    fn classful_network_stays_containing_after_collision_repair() {
        for seed in 0u32..64 {
            let mut a = IpAnonymizer::new(&seed.to_be_bytes());
            let host = a.anonymize("10.181.0.18".parse().unwrap());
            let net = a.anonymize("10.0.0.0".parse().unwrap());
            assert!(
                special_kind(net).is_none(),
                "seed {seed}: network image {net} still special"
            );
            // Classful containment: same class-A network.
            assert_eq!(
                Prefix::new(net, 8).network(),
                Prefix::new(host, 8).network(),
                "seed {seed}: {net} vs {host} lost the /8 relation"
            );
        }
    }

    /// The repair must never disturb an *established* mapping: images
    /// computed before a colliding insertion stay bit-identical.
    #[test]
    fn repair_never_changes_prior_mappings() {
        for seed in 0u32..32 {
            let mut reference = IpAnonymizer::new(&seed.to_be_bytes());
            let h1 = reference.anonymize("10.181.0.18".parse().unwrap());
            let h2 = reference.anonymize("10.44.7.9".parse().unwrap());

            let mut with_collider = IpAnonymizer::new(&seed.to_be_bytes());
            assert_eq!(with_collider.anonymize("10.181.0.18".parse().unwrap()), h1);
            assert_eq!(with_collider.anonymize("10.44.7.9".parse().unwrap()), h2);
            with_collider.anonymize("10.0.0.0".parse().unwrap());
            // Re-mapping the earlier addresses still yields the same images.
            assert_eq!(with_collider.anonymize("10.181.0.18".parse().unwrap()), h1);
            assert_eq!(with_collider.anonymize("10.44.7.9".parse().unwrap()), h2);
        }
    }
}
