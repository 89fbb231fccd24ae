//! The registry of the 28 contextual rules.
//!
//! "In practice, we have discovered a set of 28 rules that is sufficient
//! for anonymizing the 200-plus IOS versions we have tested them on"
//! (§4.2). The paper gives the breakdown — 2 segmentation, 3 comment
//! stripping, 12 ASN location, 4 miscellaneous — and this registry names
//! our concrete realization of each. A rule is declared once, as its
//! [`RuleInfo`] entry: a contextual rule lists its [`Anchor`]s — the
//! leading words of the lines it fires on, each with the [`Locator`]
//! that maps tokens there — and the prefilter, the context matcher and
//! the fire counters all read that entry. The [`crate::Anonymizer`] consults
//! the enabled-rule set before applying each behaviour, which is what
//! makes the §6.1 ablation/iteration experiments possible: disable a
//! locator, watch the leak scanner light up, re-enable it, converge.

use std::fmt;
use std::sync::OnceLock;

/// Rule categories, matching the paper's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCategory {
    /// Word segmentation before pass-list lookup (2 rules).
    Segmentation,
    /// Comment and banner stripping (3 rules).
    Comments,
    /// Locating AS numbers in their many syntactic homes (12 rules).
    AsnLocation,
    /// Miscellaneous identity leaks: phone numbers, hostnames, secrets,
    /// server literals (4 rules).
    Misc,
    /// Address and identifier transformation (7 rules).
    Identifiers,
}

impl RuleCategory {
    /// Stable kebab-case name, used as a metrics key.
    pub fn name(self) -> &'static str {
        match self {
            RuleCategory::Segmentation => "segmentation",
            RuleCategory::Comments => "comments",
            RuleCategory::AsnLocation => "asn-location",
            RuleCategory::Misc => "misc",
            RuleCategory::Identifiers => "identifiers",
        }
    }
}

/// Identifier of one of the 28 rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the table below documents each variant
pub enum RuleId {
    R01SplitAlphaRuns,
    R02SplitPunctuation,
    R03BangComments,
    R04DescriptionText,
    R05BannerBlocks,
    R06RouterBgpAsn,
    R07NeighborRemoteAs,
    R08AsPathPrepend,
    R09AsPathAccessListRegex,
    R10ConfederationIdentifier,
    R11ConfederationPeers,
    R12CommunityListPattern,
    R13SetCommunity,
    R14CommunityAttributeToken,
    R15NeighborLocalAs,
    R16BgpListenRange,
    R17ExtCommunityContext,
    R18DialerStrings,
    R19HostnameDomain,
    R20SecretsAndKeys,
    R21ServerLiterals,
    R22Ipv4Literal,
    R23PrefixToken,
    R24SubnetAddressPreserve,
    R25SpecialAddressPassthrough,
    R26TokenHashing,
    R27CommunityValueHashing,
    R28LeakHighlighting,
}

/// Static description of a rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule's identifier.
    pub id: RuleId,
    /// Category per the paper's breakdown.
    pub category: RuleCategory,
    /// Short name.
    pub name: &'static str,
    /// What the rule does and why.
    pub description: &'static str,
    /// The lines a contextual rule fires on; empty for the rules the line
    /// classifier and the per-token pass apply.
    pub anchors: &'static [Anchor],
}

/// A line shape a contextual rule fires on, and what it maps there.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Lowercased leading words: a literal (always first), `*` for any
    /// word, or alternatives joined by `|` (`permit|deny`).
    pub head: &'static [&'static str],
    /// Which tokens the rule maps on a matching line, and how.
    pub locator: Locator,
}

/// Which tokens of an anchored line a rule maps (positions are token
/// indexes), and how. A declined token falls to the per-token pass, and
/// the leak gate sees only what was recorded, so each variant says what
/// it declines: a non-identifier, or one it records for the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locator {
    /// Permutes the 16-bit ASN at the position. Declines words, which the
    /// per-token pass hashes or passes as keywords, and wider numbers: a
    /// public 4-byte ASN (RFC 6793), asplain (`262154`) or asdot (`4.10`),
    /// is recorded as written, a private one (RFC 6996) names no network,
    /// and one past 32 bits is no ASN. 4-byte ASNs are not yet mapped
    /// (ROADMAP.md).
    Asn(usize),
    /// [`Locator::Asn`] on every token from the position on.
    AsnsFrom(usize),
    /// [`Locator::Asn`] after the line's first `remote-as`, if any.
    AsnAfterRemoteAs,
    /// [`Locator::Asn`] on the token after every `bgp` from the position
    /// on: a `match source-protocol` line may name several protocols,
    /// BGP's with its ASN (`match source-protocol ospf 1 bgp 702`).
    /// Declines the numbers of the other protocols, an OSPF process id
    /// (`ospf 1`) or an EIGRP autonomous-system number (`eigrp 100`),
    /// which are local numbers and name no BGP network, and declines as
    /// [`Locator::Asn`] does.
    AsnAfterEachBgp(usize),
    /// [`Locator::Asn`] at the position, then on every token after the
    /// first `alternate-as` past it, if any: the other ASNs a dynamic
    /// neighbor may take (`neighbor x remote-as 702 alternate-as 703
    /// 704`). Declines as [`Locator::Asn`] does.
    AsnThenAlternates(usize),
    /// Maps every `asn:value` community from the position on. Declines
    /// symbolic ones (`additive`, `no-export`), which name nobody, wider
    /// or asdot (`4.10:100`) ASN halves, recording a public one as
    /// [`Locator::Asn`] does, and `a.b.c.d:nn` route targets, whose
    /// address the per-token pass maps through the trie.
    CommunitiesFrom(usize),
    /// Rewrites the as-path regexp from the position to the line's end by
    /// language enumeration over 16-bit ASNs, or hashes it whole if it
    /// does not parse. A wider digit run survives; a public one is recorded.
    AsPathRegex(usize),
    /// Maps literal communities from the position on, or else rewrites the
    /// rest as one community regexp, declining as the two variants above.
    CommunityList(usize),
    /// Hashes the token at the position whole, so a domain's structure
    /// does not survive segmentation. Declines nothing.
    HashWhole(usize),
    /// Hashes the secret at the position whole. Declines nothing.
    Secret(usize),
    /// Re-digits the phone number at the position. Declines nothing.
    Phone(usize),
    /// Hashes the server name at the position whole. Declines an IPv4
    /// literal, which the per-token pass maps through the trie.
    ServerName(usize),
}

/// The keyword [`Locator::AsnAfterRemoteAs`] looks for.
pub(crate) const REMOTE_AS: &str = "remote-as";

/// The keyword [`Locator::AsnThenAlternates`] looks for.
pub(crate) const ALTERNATE_AS: &str = "alternate-as";

/// Keywords whose presence anywhere on a line fires R20's trailer: the
/// token after each (past a one-digit encryption type) hashes as a secret.
pub(crate) const SECRET_KEYWORDS: [&str; 4] = ["password", "secret", "key", "md5"];

/// Shorthand for the table below.
const fn at(head: &'static [&'static str], locator: Locator) -> Anchor {
    Anchor { head, locator }
}

/// All 28 rules, in order.
#[rustfmt::skip] // a table: one anchor per line
pub const ALL_RULES: [RuleInfo; 28] = [
    RuleInfo {
        id: RuleId::R01SplitAlphaRuns,
        category: RuleCategory::Segmentation,
        name: "split-alpha-runs",
        description: "Segment words into alphabetic and non-alphabetic runs so \
                      `Ethernet0/0` checks `ethernet` against the pass-list and leaves `0/0`.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R02SplitPunctuation,
        category: RuleCategory::Segmentation,
        name: "split-punctuation",
        description: "Treat punctuation runs as separators between independently \
                      checked alphabetic segments (`cr1.lax.foo.com`).",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R03BangComments,
        category: RuleCategory::Comments,
        name: "bang-comments",
        description: "Strip `!` comment text; keep the bare bang as a structural separator.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R04DescriptionText,
        category: RuleCategory::Comments,
        name: "description-text",
        description: "Drop `description`/`remark` free text entirely — pass-list words in \
                      comments can still leak (`global crossing`).",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R05BannerBlocks,
        category: RuleCategory::Comments,
        name: "banner-blocks",
        description: "Drop multi-line banner bodies, tracking the per-banner delimiter.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R06RouterBgpAsn,
        category: RuleCategory::AsnLocation,
        name: "router-bgp-asn",
        description: "`router bgp <asn>`, `redistribute bgp <asn>`, `match source-protocol … \
                      bgp <asn>`: permute the process ASN.",
        anchors: &[
            at(&["router", "bgp"], Locator::Asn(2)),
            at(&["redistribute", "bgp"], Locator::Asn(2)),
            at(&["match", "source-protocol"], Locator::AsnAfterEachBgp(2)),
        ],
    },
    RuleInfo {
        id: RuleId::R07NeighborRemoteAs,
        category: RuleCategory::AsnLocation,
        name: "neighbor-remote-as",
        description: "`neighbor <ip> remote-as <asn> [alternate-as <asn>…]`: permute the peer \
                      ASN and every alternate.",
        anchors: &[
            at(&["neighbor", "*", REMOTE_AS], Locator::AsnThenAlternates(3)),
            at(&["neighbor", "*", ALTERNATE_AS], Locator::AsnsFrom(3)),
        ],
    },
    RuleInfo {
        id: RuleId::R08AsPathPrepend,
        category: RuleCategory::AsnLocation,
        name: "as-path-prepend",
        description: "`set as-path prepend <asn>…`, `set origin egp <asn>`: permute every ASN a \
                      route-map sets; `last-as <n>` keeps its repeat count.",
        // `last-as <n>` repeats the last AS n times (IOS takes 1–10): the
        // count is no ASN, so this anchor declines it and maps only past
        // it. It precedes the next one, which also matches its lines.
        anchors: &[
            at(&["set", "as-path", "prepend", "last-as"], Locator::AsnsFrom(5)),
            at(&["set", "as-path", "prepend"], Locator::AsnsFrom(3)),
            at(&["set", "origin", "egp"], Locator::Asn(3)),
        ],
    },
    RuleInfo {
        id: RuleId::R09AsPathAccessListRegex,
        category: RuleCategory::AsnLocation,
        name: "as-path-regexp",
        description: "`ip as-path access-list <n> permit <regexp>`: rewrite the regexp by \
                      language enumeration over all 2^16 ASNs.",
        anchors: &[
            at(&["ip", "as-path", "access-list", "*", "permit|deny"], Locator::AsPathRegex(5)),
        ],
    },
    RuleInfo {
        id: RuleId::R10ConfederationIdentifier,
        category: RuleCategory::AsnLocation,
        name: "confed-identifier",
        description: "`bgp confederation identifier <asn>`: permute.",
        anchors: &[at(&["bgp", "confederation", "identifier"], Locator::Asn(3))],
    },
    RuleInfo {
        id: RuleId::R11ConfederationPeers,
        category: RuleCategory::AsnLocation,
        name: "confed-peers",
        description: "`bgp confederation peers <asn>…`: permute each.",
        anchors: &[at(&["bgp", "confederation", "peers"], Locator::AsnsFrom(3))],
    },
    RuleInfo {
        id: RuleId::R12CommunityListPattern,
        category: RuleCategory::AsnLocation,
        name: "community-list-pattern",
        description: "`ip community-list <n> permit <pattern>`: map literal communities; \
                      rewrite community regexps (both halves).",
        // The numbered form comes first: a line both forms match
        // (`ip community-list standard permit permit …`) takes it.
        anchors: &[
            at(&["ip", "community-list", "*", "permit|deny"], Locator::CommunityList(4)),
            at(&["ip", "community-list", "standard|expanded", "*", "permit|deny"],
               Locator::CommunityList(5)),
        ],
    },
    RuleInfo {
        id: RuleId::R13SetCommunity,
        category: RuleCategory::AsnLocation,
        name: "set-community",
        description: "`set community <asn:value>…`: map each community attribute.",
        anchors: &[at(&["set", "community"], Locator::CommunitiesFrom(2))],
    },
    RuleInfo {
        id: RuleId::R14CommunityAttributeToken,
        category: RuleCategory::AsnLocation,
        name: "community-token",
        description: "Any bare `<asn>:<value>` token in BGP context: map both halves.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R15NeighborLocalAs,
        category: RuleCategory::AsnLocation,
        name: "neighbor-local-as",
        description: "`neighbor <ip> local-as <asn>`: permute.",
        anchors: &[at(&["neighbor", "*", "local-as"], Locator::Asn(3))],
    },
    RuleInfo {
        id: RuleId::R16BgpListenRange,
        category: RuleCategory::AsnLocation,
        name: "bgp-listen-range",
        description: "`bgp listen range <prefix> peer-group … remote-as <asn>` forms: permute.",
        anchors: &[at(&["bgp", "listen", "range"], Locator::AsnAfterRemoteAs)],
    },
    RuleInfo {
        id: RuleId::R17ExtCommunityContext,
        category: RuleCategory::AsnLocation,
        name: "extcommunity-context",
        description: "`set extcommunity rt|soo <asn:value>…`: permute the ASN half and \
                      the value half of extended-community route targets.",
        anchors: &[at(&["set", "extcommunity", "*"], Locator::CommunitiesFrom(3))],
    },
    RuleInfo {
        id: RuleId::R18DialerStrings,
        category: RuleCategory::Misc,
        name: "dialer-strings",
        description: "`dialer string <digits>`: phone numbers map to same-length keyed digits.",
        anchors: &[at(&["dialer", "string"], Locator::Phone(2))],
    },
    RuleInfo {
        id: RuleId::R19HostnameDomain,
        category: RuleCategory::Misc,
        name: "hostname-domain",
        description: "`hostname`/`ip domain-name` arguments hash as whole tokens so domain \
                      structure does not survive segmentation.",
        anchors: &[
            at(&["hostname"], Locator::HashWhole(1)),
            at(&["ip", "domain-name"], Locator::HashWhole(2)),
            at(&["ip", "domain", "name"], Locator::HashWhole(3)),
        ],
    },
    RuleInfo {
        id: RuleId::R20SecretsAndKeys,
        category: RuleCategory::Misc,
        name: "secrets-and-keys",
        description: "SNMP community strings, `username`/`password`/`secret`, tacacs/radius \
                      keys: hash as whole tokens.",
        // Plus the keyword trailer on every line (`SECRET_KEYWORDS`).
        anchors: &[
            at(&["snmp-server", "community"], Locator::Secret(2)),
            at(&["username"], Locator::Secret(1)),
        ],
    },
    RuleInfo {
        id: RuleId::R21ServerLiterals,
        category: RuleCategory::Misc,
        name: "server-literals",
        description: "`ntp server`, `logging host`, `tacacs-server host`, name-server \
                      literals: addresses map, names hash whole.",
        anchors: &[
            at(&["ntp", "server"], Locator::ServerName(2)),
            at(&["logging", "host"], Locator::ServerName(2)),
            at(&["tacacs-server", "host"], Locator::ServerName(2)),
            at(&["radius-server", "host"], Locator::ServerName(2)),
        ],
    },
    RuleInfo {
        id: RuleId::R22Ipv4Literal,
        category: RuleCategory::Identifiers,
        name: "ipv4-literal",
        description: "Every dotted-quad token maps through the prefix-preserving trie.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R23PrefixToken,
        category: RuleCategory::Identifiers,
        name: "prefix-token",
        description: "`a.b.c.d/len` tokens map the network part, keep the length.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R24SubnetAddressPreserve,
        category: RuleCategory::Identifiers,
        name: "subnet-address-preserve",
        description: "Host-part-all-zeros addresses map to all-zeros-suffix addresses \
                      (readability property of §3.2).",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R25SpecialAddressPassthrough,
        category: RuleCategory::Identifiers,
        name: "special-passthrough",
        description: "Netmasks, wildcards, multicast, loopback, link-local pass through \
                      unchanged; colliding images are recursively remapped.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R26TokenHashing,
        category: RuleCategory::Identifiers,
        name: "token-hashing",
        description: "Alphabetic segments missing from the pass-list are replaced by salted \
                      SHA-1 digests, preserving referential integrity.",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R27CommunityValueHashing,
        category: RuleCategory::Identifiers,
        name: "community-value-permutation",
        description: "The integer half of community attributes is permuted — \"we have \
                      chosen to favor anonymity over information\".",
        anchors: &[],
    },
    RuleInfo {
        id: RuleId::R28LeakHighlighting,
        category: RuleCategory::Identifiers,
        name: "leak-highlighting",
        description: "Record every public ASN and address seen pre-anonymization and grep \
                      the output for survivors (the §6.1 defence).",
        anchors: &[],
    },
];

impl RuleId {
    /// Static info for this rule.
    ///
    /// `ALL_RULES` is declared in variant order, so the discriminant is
    /// the index; `rules_table_is_index_aligned` below pins that.
    pub fn info(self) -> &'static RuleInfo {
        &ALL_RULES[self as usize]
    }

    /// The rule called `name` (its [`RuleInfo::name`]), if any.
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().find(|r| r.name == name).map(|r| r.id)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.info().name)
    }
}

impl Anchor {
    /// Does the lowered line `words` start with this anchor's head?
    pub(crate) fn matches(&self, words: &[&str]) -> bool {
        self.head.len() <= words.len()
            && self.head.iter().zip(words).all(|(pat, word)| {
                pat == word || *pat == "*" || pat.split('|').any(|alt| alt == *word)
            })
    }
}

/// Every anchor with its rule, in table order.
pub(crate) fn anchors() -> impl Iterator<Item = (RuleId, &'static Anchor)> {
    ALL_RULES
        .iter()
        .flat_map(|r| r.anchors.iter().map(move |a| (r.id, a)))
}

/// The first anchor whose head the lowered line `words` starts with.
/// Anchors of different rules never match the same line, so only
/// R08's `last-as` form and R12's two forms depend on this order.
pub(crate) fn anchor_for(words: &[&str]) -> Option<(RuleId, &'static Anchor)> {
    let first = *words.first()?;
    anchors().find(|(_, a)| a.head[0] == first && a.matches(words))
}

/// The distinct first words of the anchors, derived once from
/// [`ALL_RULES`]: several anchors share a first word (`ip`, `set`,
/// `neighbor`), and the prefilter compares each line's first word with
/// each head word once.
fn anchor_heads() -> &'static [&'static str] {
    static HEADS: OnceLock<Vec<&'static str>> = OnceLock::new();
    HEADS.get_or_init(|| {
        let mut heads: Vec<&'static str> = anchors().map(|(_, a)| a.head[0]).collect();
        heads.sort_unstable();
        heads.dedup();
        heads
    })
}

/// Verdict of the rule-engine prefilter for one command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineClass {
    /// The line *may* trigger a contextual rule (R06–R21): the full
    /// lowered-token context matcher must run.
    ContextScan,
    /// No contextual rule can possibly fire on this line; the per-token
    /// pass (addresses, communities, segmentation + hashing) suffices.
    TokenLocal,
}

/// The contextual-rule prefilter: one cheap scan that decides whether a
/// line can trigger any of the context rules at all.
///
/// A contextual rule fires only on a line whose first word is the first
/// word of one of its [`Anchor`]s, except R20's trailer, which needs one
/// of the secret keywords (`password`, `secret`, `key`, `md5`) in the
/// line. Both checks read the rule table, so a line that passes neither
/// provably cannot fire a context rule, and the context matcher can
/// skip it without changing a byte of output or a rule fire count.
///
/// The filter is a *conservative superset*: a false positive (`keyboard`
/// contains `key`) merely runs the matcher needlessly. The lockstep
/// properties cross-check it on random and chaos-mutated corpora.
pub struct Prefilter;

/// `SECRET_CANDIDATE[b]`: the one secret keyword that starts with byte
/// `b` (either case), or the empty slice. The scan loop does one indexed
/// load per byte instead of a lowercase-and-match.
static SECRET_CANDIDATE: [&[u8]; 256] = build_secret_candidates();

const fn build_secret_candidates() -> [&'static [u8]; 256] {
    let mut table: [&[u8]; 256] = [&[]; 256];
    let mut i = 0;
    while i < SECRET_KEYWORDS.len() {
        let kw = SECRET_KEYWORDS[i].as_bytes();
        assert!(table[kw[0] as usize].is_empty(), "shared first byte");
        table[kw[0] as usize] = kw;
        table[kw[0].to_ascii_uppercase() as usize] = kw;
        i += 1;
    }
    table
}

impl Prefilter {
    /// Classifies one line. Case-insensitive, allocation-free.
    pub fn classify(line: &str) -> LineClass {
        if Self::head_can_anchor_rule(line) || Self::contains_secret_keyword(line) {
            LineClass::ContextScan
        } else {
            LineClass::TokenLocal
        }
    }

    /// Does the line's first word, split as the tokenizer splits it,
    /// equal the first word of an anchor?
    fn head_can_anchor_rule(line: &str) -> bool {
        use confanon_iosparse::{BYTE_CLASS, CLASS_WS};
        let is_ws = |b: &u8| BYTE_CLASS[*b as usize] & CLASS_WS != 0;
        let Some(first) = line.as_bytes().split(is_ws).find(|w| !w.is_empty()) else {
            return false;
        };
        anchor_heads()
            .iter()
            .any(|h| first.eq_ignore_ascii_case(h.as_bytes()))
    }

    /// Single pass over the line: one [`SECRET_CANDIDATE`] load per byte;
    /// at the few bytes with a candidate, compare the keyword in place.
    fn contains_secret_keyword(line: &str) -> bool {
        let bytes = line.as_bytes();
        for i in 0..bytes.len() {
            let kw = SECRET_CANDIDATE[bytes[i] as usize];
            if !kw.is_empty()
                && bytes.len() - i >= kw.len()
                && bytes[i..i + kw.len()].eq_ignore_ascii_case(kw)
            {
                return true;
            }
        }
        false
    }
}

/// Prefilter path counters: pure functions of the lines classified, so
/// they sum the same at any shard layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Lines classified [`LineClass::TokenLocal`] (context matcher skipped).
    pub fast_path_lines: u64,
    /// Lines classified [`LineClass::ContextScan`] (full matcher ran).
    pub slow_path_lines: u64,
}

impl PrefilterStats {
    /// Adds another instance's counts (commutative).
    pub fn absorb(&mut self, other: &PrefilterStats) {
        self.fast_path_lines += other.fast_path_lines;
        self.slow_path_lines += other.slow_path_lines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_28_rules() {
        assert_eq!(ALL_RULES.len(), 28);
    }

    #[test]
    fn rules_table_is_index_aligned() {
        // `RuleId::info` indexes ALL_RULES by discriminant; a reordered
        // table entry would silently mislabel every rule.
        for (i, rule) in ALL_RULES.iter().enumerate() {
            assert_eq!(rule.id as usize, i, "ALL_RULES[{i}] out of order");
        }
    }

    #[test]
    fn category_breakdown_matches_paper() {
        let count = |c: RuleCategory| ALL_RULES.iter().filter(|r| r.category == c).count();
        assert_eq!(count(RuleCategory::Segmentation), 2, "2 segmentation rules");
        assert_eq!(count(RuleCategory::Comments), 3, "3 comment rules");
        assert_eq!(count(RuleCategory::AsnLocation), 12, "12 ASN locators");
        assert_eq!(count(RuleCategory::Misc), 4, "4 misc rules");
        assert_eq!(count(RuleCategory::Identifiers), 7);
    }

    #[test]
    fn ids_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for r in &ALL_RULES {
            assert!(seen.insert(r.id), "duplicate {:?}", r.id);
            assert_eq!(r.id.info().id, r.id);
        }
    }

    #[test]
    fn display_uses_names() {
        assert_eq!(RuleId::R09AsPathAccessListRegex.to_string(), "as-path-regexp");
    }

    /// The anchor as lines: every alternative, `7` for a wildcard and for
    /// each word an ASN locator skips (`last-as 7`), then an argument its
    /// locator maps, in lower and upper case.
    fn anchor_lines(anchor: &Anchor) -> Vec<String> {
        let mut lines = vec![String::new()];
        for word in anchor.head.iter().map(|w| if *w == "*" { "7" } else { w }) {
            lines = lines
                .iter()
                .flat_map(|l| word.split('|').map(move |alt| format!("{l}{alt} ")))
                .collect();
        }
        let arg = match anchor.locator {
            Locator::Asn(_) | Locator::AsnsFrom(_) => "701",
            Locator::AsnAfterRemoteAs => "10.0.0.0/8 peer-group pg remote-as 701",
            Locator::AsnAfterEachBgp(_) => "ospf 1 bgp 701",
            Locator::AsnThenAlternates(_) => "701 alternate-as 702",
            Locator::CommunitiesFrom(_) | Locator::CommunityList(_) => "701:120",
            Locator::AsPathRegex(_) => "_701_",
            Locator::HashWhole(_) | Locator::ServerName(_) => "cr1.foo.com",
            Locator::Secret(_) => "s3cr3t",
            Locator::Phone(_) => "14155551234",
        };
        let skip = match anchor.locator {
            Locator::Asn(at) | Locator::AsnsFrom(at) => at - anchor.head.len(),
            _ => 0,
        };
        let lines = lines.into_iter().map(|l| l + &"7 ".repeat(skip) + arg);
        lines.flat_map(|l| [l.to_ascii_uppercase(), l]).collect()
    }

    #[test]
    fn prefilter_flags_every_context_rule_anchor() {
        use crate::anonymizer::{Anonymizer, AnonymizerConfig};
        let flagged = |line: &str| Prefilter::classify(line) == LineClass::ContextScan;
        // Every anchor, as lines: the prefilter flags each, its rule
        // fires, and the argument its locator maps does not survive.
        for (rule, anchor) in anchors() {
            assert!(!anchor.head[0].contains(['*', '|']), "{rule}");
            for line in anchor_lines(anchor) {
                assert!(flagged(&line), "{line:?}");
                let mut a = Anonymizer::new(AnonymizerConfig::new(b"anchor-tests".to_vec()));
                let mut stats = crate::stats::AnonymizationStats::default();
                let out = a.anonymize_command_line(&line, &mut stats);
                assert!(stats.fires(rule) > 0, "{rule} did not fire on {line:?}");
                let arg = line.split_whitespace().last();
                assert_ne!(out.split_whitespace().last(), arg, "{line:?} -> {out:?}");
            }
        }
        // R20 trailer keywords at arbitrary positions, whole and inside
        // longer words, and in any case.
        for line in [
            "enable secret 5 $1$abcd$efgh",
            "enable password 7 ABCD",
            " ip ospf message-digest-key 1 md5 s3cr3t",
            " standby 1 authentication md5 key-string k3y",
            "crypto isakmp key k3y address 0.0.0.0",
            "ROUTER BGP 701",
            "Enable SECRET 5 x",
        ] {
            assert!(flagged(line), "{line:?}");
        }
    }

    #[test]
    fn anchors_of_different_rules_are_disjoint() {
        // Two heads match one line iff each word pair they share can.
        let overlap = |x: &str, y: &str| {
            x == "*" || y == "*" || x.split('|').any(|a| y.split('|').any(|b| a == b))
        };
        for ((ra, a), (rb, b)) in anchors().flat_map(|x| anchors().map(move |y| (x, y))) {
            let one_line = a.head.iter().zip(b.head).all(|(x, y)| overlap(x, y));
            assert!(ra == rb || !one_line, "{ra} overlaps {rb}");
        }
    }

    #[test]
    fn from_name_round_trips_every_rule() {
        for rule in &ALL_RULES {
            assert_eq!(RuleId::from_name(rule.name), Some(rule.id));
        }
        assert_eq!(RuleId::from_name("no-such-rule"), None);
        assert_eq!(RuleId::from_name("Router-BGP-ASN"), None);
    }

    #[test]
    fn prefilter_fast_paths_common_token_local_lines() {
        // `ip …` lines anchor a head, so they stay on the slow path; the
        // genuinely fast lines have non-head first tokens and no secret
        // keywords.
        assert_eq!(
            Prefilter::classify(" ip address 1.2.3.4 255.255.255.0"),
            LineClass::ContextScan
        );
        let fast = [
            "interface Ethernet0/0",
            " no shutdown",
            " route-map CHI-IMPORT permit 10",
            " access-list 143 permit ip 1.2.3.0 0.0.0.255 any",
            "",
            "   ",
            "version 12.2",
        ];
        for line in fast {
            assert_eq!(
                Prefilter::classify(line),
                LineClass::TokenLocal,
                "prefilter slow-pathed {line:?}"
            );
        }
    }

    #[test]
    fn head_words_answer_as_the_anchor_walk_did() {
        // The check `head_can_anchor_rule` made before the head words were
        // derived: every anchor's first word, compared in table order.
        let walk = |line: &str| {
            use confanon_iosparse::{BYTE_CLASS, CLASS_WS};
            let is_ws = |b: &u8| BYTE_CLASS[*b as usize] & CLASS_WS != 0;
            line.as_bytes()
                .split(is_ws)
                .find(|w| !w.is_empty())
                .is_some_and(|first| {
                    anchors().any(|(_, a)| first.eq_ignore_ascii_case(a.head[0].as_bytes()))
                })
        };
        let heads = anchor_heads();
        assert!(heads.len() < anchors().count(), "anchors share first words");
        let mut lines = vec![String::new(), " ".into(), "\t".into(), "!".into()];
        for (_, a) in anchors() {
            let h = a.head[0];
            let near = [&h[1..], &h[..h.len() - 1]];
            for w in [
                h.to_string(),
                h.to_ascii_uppercase(),
                format!("{h}x"),
                format!("x{h}"),
            ]
            .into_iter()
            .chain(near.map(str::to_string))
            {
                lines.extend([
                    w.clone(),
                    format!(" {w} 701"),
                    format!("\t{w}\x0b7"),
                    format!("no {w}"),
                ]);
            }
        }
        for line in &lines {
            assert_eq!(
                Prefilter::head_can_anchor_rule(line),
                walk(line),
                "{line:?}"
            );
        }
    }

    #[test]
    fn prefilter_is_substring_conservative() {
        // False positives are allowed (and expected) — `keyboard`
        // contains `key` — but head matching is whole-token, so a first
        // token merely *starting* with a head is not anchored.
        assert_eq!(Prefilter::classify("x keyboard y"), LineClass::ContextScan);
        assert_eq!(Prefilter::classify("ipx network 1"), LineClass::TokenLocal);
        assert_eq!(Prefilter::classify("settings on"), LineClass::TokenLocal);
    }
}
