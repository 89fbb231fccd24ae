//! The table-based (binary trie) prefix-preserving mapping.
//!
//! Every trie node corresponds to an input bit-prefix `p` and stores one
//! bit `flip`: the output bit at depth `|p|` is `input_bit ⊕ flip`. Two
//! addresses sharing a k-bit input prefix walk the same k nodes and hence
//! share exactly k output bits — prefix preservation by construction.
//!
//! The paper's extensions are implemented as constraints on `flip` when a
//! node is first created:
//!
//! * **class bits** — `flip = 0` at depth 0 and at depths 1..4 while the
//!   path so far is all ones (those are the class-defining bits);
//! * **special prefix regions** — `flip = 0` while the path is a proper
//!   prefix of 127/8 or 169.254/16, so each region maps onto itself and
//!   ordinary inputs can never land inside one (multicast 224/4 and
//!   reserved 240/4 are already pinned by the class bits);
//! * **trailing zeros** — if the address being inserted ends in `t` zero
//!   bits, nodes created in the last `t` levels get `flip = 0`, mapping
//!   subnet addresses to subnet addresses when first seen;
//! * otherwise `flip` is a keyed PRF bit of the input path — deterministic
//!   per owner secret but unpredictable without it.
//!
//! Point specials (netmask- and wildcard-valued quads) are not prefix
//! regions and are instead handled by the §4.3 recursive remap in
//! [`IpAnonymizer::anonymize`].

use confanon_crypto::Prf;
use confanon_netprim::{special_kind, Ip};

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

/// The extended `-a50` anonymizer (see module docs).
#[derive(Clone)]
pub struct IpAnonymizer {
    prf: Prf,
    nodes: Vec<Node>,
    preserve_trailing_zeros: bool,
    /// [`IpAnonymizer::depth_salt`] for depths 0..=32, computed once at
    /// construction: the salt is a pure function of (secret, depth), and
    /// paying one HMAC per *fresh trie node* for one of 33 values was
    /// measurably the second-largest cost of corpus discovery.
    depth_salts: [bool; 33],
}

/// The two special *prefix regions* that must map to themselves and that
/// ordinary traffic must therefore avoid: loopback and link-local.
/// Encoded as (bits, length).
const REGIONS: [(u32, u8); 2] = [
    (0x7F00_0000, 8),  // 127.0.0.0/8
    (0xA9FE_0000, 16), // 169.254.0.0/16
];

impl IpAnonymizer {
    /// Creates an anonymizer keyed by the owner secret (with the paper's
    /// subnet-address preservation on).
    pub fn new(owner_secret: &[u8]) -> IpAnonymizer {
        IpAnonymizer::with_options(owner_secret, true)
    }

    /// Like [`IpAnonymizer::new`], optionally disabling the
    /// subnet-address (trailing-zero) preservation of §3.2 — rule R24's
    /// ablation switch. Prefix/class/special guarantees are unaffected.
    pub fn with_options(owner_secret: &[u8], preserve_trailing_zeros: bool) -> IpAnonymizer {
        let prf = Prf::new(owner_secret);
        let mut depth_salts = [false; 33];
        for (depth, salt) in depth_salts.iter_mut().enumerate() {
            *salt = Self::depth_salt(&prf, depth as u8);
        }
        let mut a = IpAnonymizer {
            prf,
            nodes: Vec::with_capacity(1024),
            preserve_trailing_zeros,
            depth_salts,
        };
        a.nodes.push(Node {
            flip: false, // depth-0 bit is class-defining: identity
            child: [NONE, NONE],
        });
        a
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

    /// Whether a freshly created node at `depth` (with input path
    /// `path_bits`, the bits above `depth`) must have `flip = 0`.
    fn forced_identity(path_bits: u32, depth: u8, trailing_zero_from: u8) -> bool {
        // Class-defining bits: depth 0 always; depths 1..4 when every bit
        // of the path so far is 1.
        if depth == 0 {
            return true;
        }
        if depth < 4 {
            let ones = path_bits >> (32 - depth);
            if ones == (1u32 << depth) - 1 {
                return true;
            }
        }
        // Proper prefix of a protected region.
        for (bits, len) in REGIONS {
            if depth < len && (path_bits ^ bits) >> (32 - depth) == 0 {
                return true;
            }
        }
        // Trailing-zero (subnet address) preservation.
        depth >= trailing_zero_from
    }

    /// The raw trie map: prefix-, class-, and region-preserving, but with
    /// no passthrough or collision handling. Exposed for the property
    /// tests and benchmarks; production callers use
    /// [`IpAnonymizer::anonymize`].
    ///
    /// When the computed image collides with a *point* special (the
    /// trailing-zero rule can steer an image onto `0.0.0.0` or a
    /// mask-valued quad), the walk repairs itself **at creation time**:
    /// it re-flips one freshly created node — deepest first, skipping
    /// class/region-pinned depths — until the image is ordinary. Fresh
    /// nodes are not yet shared with any other mapping, so the repair
    /// never disturbs an established prefix relation; this is how the
    /// paper's claim that collision handling "maintains the
    /// structure-preserving property" is realized. (The recursive remap
    /// in [`IpAnonymizer::anonymize`] remains as a last-resort fallback.)
    ///
    /// A fresh node's keyed bit is a pure function of its left-aligned
    /// input path, and a node reached by input bit 0 has its parent's
    /// path, so the walk keeps the last path it keyed with its raw bit
    /// and computes one keyed bit per distinct path, not one per node.
    pub fn map_raw(&mut self, ip: Ip) -> Ip {
        // Depth at which the trailing zero run of `ip` begins (32 = none).
        let tz = if self.preserve_trailing_zeros {
            ip.0.trailing_zeros().min(32) as u8
        } else {
            0
        };
        let trailing_zero_from = 32 - tz;

        let mut out = 0u32;
        let mut node = 0usize;
        let mut path = 0u32; // input bits consumed so far, left-aligned
        // Node id visited at each depth, plus whether it was created by
        // *this* walk (fresh nodes are repairable, below).
        let mut visited: [(u32, bool); 32] = [(0, false); 32];
        // The last keyed path of this walk and its raw (unsalted) bit.
        let mut keyed: Option<(u32, bool)> = None;
        for depth in 0u8..32 {
            let in_bit = ip.bit(depth);
            visited[depth as usize].0 = node as u32;
            let flip = self.nodes[node].flip;
            let out_bit = in_bit ^ flip;
            out = (out << 1) | u32::from(out_bit);

            // Descend, creating the child if needed.
            let idx = usize::from(in_bit);
            let next_path = path | (u32::from(in_bit) << (31 - depth));
            if depth < 31 {
                if self.nodes[node].child[idx] == NONE {
                    let flip = if Self::forced_identity(next_path, depth + 1, trailing_zero_from)
                    {
                        false
                    } else {
                        let raw = match keyed {
                            Some((p, raw)) if p == next_path => raw,
                            _ => self.prf.bit("iptrie", &next_path.to_be_bytes()[..]),
                        };
                        keyed = Some((next_path, raw));
                        raw ^ self.depth_salts[usize::from(depth) + 1]
                    };
                    self.nodes.push(Node {
                        flip,
                        child: [NONE, NONE],
                    });
                    let new_id = (self.nodes.len() - 1) as u32;
                    self.nodes[node].child[idx] = new_id;
                    visited[depth as usize + 1].1 = true; // fresh
                }
                node = self.nodes[node].child[idx] as usize;
            }
            path = next_path;
        }

        // Point-special escape: re-flip one fresh, unpinned node (deepest
        // first). Never touches class bits, protected regions, or any
        // node another mapping already walked.
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

    /// Whether the node at `depth` on `ip`'s path is pinned by the class
    /// or protected-region rules (and therefore may never be re-flipped).
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

    /// Extra keyed diffusion so `flip` is not a function of the path bits
    /// alone across different depths with equal left-aligned paths (e.g.
    /// the path `1` at depth 1 vs `10` at depth 2 share the left-aligned
    /// encoding; mixing the depth in removes the aliasing).
    fn depth_salt(prf: &Prf, depth: u8) -> bool {
        prf.bit("iptrie-depth", &[depth])
    }

    /// The full §4.3 scheme: specials pass through unchanged; ordinary
    /// addresses go through the trie; if the image collides with a special
    /// value it is recursively re-mapped until ordinary.
    ///
    /// **Termination**: the realized trie map is a bijection on `u32`
    /// (each level XORs a path-determined bit), so iterating it from `a`
    /// walks a finite cycle through `a`; because `a` itself is ordinary,
    /// the walk meets an ordinary value after at most
    /// `|specials-on-cycle| + 1` steps. **Injectivity**: if two ordinary
    /// inputs reached the same final image, the earlier one on the shared
    /// cycle suffix would itself have been an (ordinary) intermediate of
    /// the other — contradicting that only special values are re-mapped.
    pub fn anonymize(&mut self, ip: Ip) -> Ip {
        if special_kind(ip).is_some() {
            return ip;
        }
        let mut out = self.map_raw(ip);
        let mut guard = 0;
        while special_kind(out).is_some() {
            out = self.map_raw(out);
            guard += 1;
            assert!(
                guard <= 128,
                "collision remapping failed to terminate for {ip}"
            );
        }
        out
    }
}

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
