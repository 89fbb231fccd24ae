//! Anonymization statistics.
//!
//! The paper reports aggregate numbers — fraction of words removed as
//! comments (1.5% average, 6% at the 90th percentile), rule sufficiency,
//! dataset scale — and the validation methodology is built on comparing
//! machine-readable pre/post reports. Everything here serializes to JSON
//! through the in-tree writer so experiment harnesses can diff runs.

use std::collections::BTreeMap;

use confanon_testkit::json::Json;

use crate::rules::{RuleId, ALL_RULES};

/// Counters accumulated while anonymizing one or more configurations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnonymizationStats {
    /// Total input lines processed.
    pub lines_total: u64,
    /// Lines whose comment text was stripped (bang comments).
    pub comment_lines_stripped: u64,
    /// Description/remark lines dropped.
    pub freetext_lines_dropped: u64,
    /// Banner body lines dropped.
    pub banner_lines_dropped: u64,
    /// Banner blocks still open at end of file (corrupt input: the
    /// delimiter never reappeared; the tail was treated as banner text).
    pub unterminated_banners: u64,
    /// Words counted across all input lines.
    pub words_total: u64,
    /// Words removed by the comment rules (the paper's 1.5%/6% metric
    /// counts these against `words_total`).
    pub words_removed_as_comments: u64,
    /// Alphabetic segments found on the pass-list (left alone).
    pub segments_passed: u64,
    /// Alphabetic segments hashed.
    pub segments_hashed: u64,
    /// IPv4 literals mapped through the trie.
    pub ips_mapped: u64,
    /// IPv4 literals passed through as special.
    pub ips_special_passthrough: u64,
    /// IPv6 literals mapped through the 128-bit trie (extension).
    pub ips6_mapped: u64,
    /// ASNs permuted.
    pub asns_mapped: u64,
    /// Community attributes mapped.
    pub communities_mapped: u64,
    /// Policy regexps rewritten by language enumeration.
    pub regexps_rewritten: u64,
    /// Regexps that failed to parse and were conservatively hashed.
    pub regexps_fallback_hashed: u64,
    /// Phone numbers re-digited.
    pub phone_numbers_mapped: u64,
    /// Secrets (passwords, SNMP communities, keys) hashed whole.
    pub secrets_hashed: u64,
    /// Fire count per rule, indexed by [`RuleId`].
    rule_fires: [u64; ALL_RULES.len()],
}

impl AnonymizationStats {
    /// Records one firing of `rule`.
    pub fn fire(&mut self, rule: RuleId) {
        self.rule_fires[rule as usize] += 1;
    }

    /// How often `rule` fired.
    pub fn fires(&self, rule: RuleId) -> u64 {
        self.rule_fires[rule as usize]
    }

    /// The paper's comment metric: fraction of words removed as comments.
    pub fn comment_word_fraction(&self) -> f64 {
        if self.words_total == 0 {
            0.0
        } else {
            self.words_removed_as_comments as f64 / self.words_total as f64
        }
    }

    /// Per-rule fire counts over the full 28-rule registry, zero-filled:
    /// every rule appears even when it never fired, so two runs over the
    /// same corpus serialize the same key set and diff cleanly.
    pub fn rule_fires_complete(&self) -> BTreeMap<&'static str, u64> {
        ALL_RULES
            .iter()
            .map(|r| (r.name, self.fires(r.id)))
            .collect()
    }

    /// Total rule firings across all rules.
    pub fn rules_fired_total(&self) -> u64 {
        self.rule_fires.iter().sum()
    }

    /// Rule firings rolled up by the paper's category breakdown,
    /// zero-filled like [`AnonymizationStats::rule_fires_complete`].
    pub fn rule_fires_by_category(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for rule in &ALL_RULES {
            *out.entry(rule.category.name()).or_insert(0) += self.fires(rule.id);
        }
        out
    }

    /// Merges another stats block into this one (for per-network then
    /// per-dataset aggregation).
    pub fn merge(&mut self, other: &AnonymizationStats) {
        self.lines_total += other.lines_total;
        self.comment_lines_stripped += other.comment_lines_stripped;
        self.freetext_lines_dropped += other.freetext_lines_dropped;
        self.banner_lines_dropped += other.banner_lines_dropped;
        self.unterminated_banners += other.unterminated_banners;
        self.words_total += other.words_total;
        self.words_removed_as_comments += other.words_removed_as_comments;
        self.segments_passed += other.segments_passed;
        self.segments_hashed += other.segments_hashed;
        self.ips_mapped += other.ips_mapped;
        self.ips_special_passthrough += other.ips_special_passthrough;
        self.ips6_mapped += other.ips6_mapped;
        self.asns_mapped += other.asns_mapped;
        self.communities_mapped += other.communities_mapped;
        self.regexps_rewritten += other.regexps_rewritten;
        self.regexps_fallback_hashed += other.regexps_fallback_hashed;
        self.phone_numbers_mapped += other.phone_numbers_mapped;
        self.secrets_hashed += other.secrets_hashed;
        for (n, m) in self.rule_fires.iter_mut().zip(&other.rule_fires) {
            *n += m;
        }
    }

    /// The stats block as a JSON document: the counters, and the rules
    /// that fired with their counts, in name order.
    pub fn to_json(&self) -> Json {
        let mut fires = Json::obj();
        for (rule, count) in self.rule_fires_complete() {
            if count > 0 {
                fires.set(rule, count);
            }
        }
        Json::obj()
            .with("lines_total", self.lines_total)
            .with("comment_lines_stripped", self.comment_lines_stripped)
            .with("freetext_lines_dropped", self.freetext_lines_dropped)
            .with("banner_lines_dropped", self.banner_lines_dropped)
            .with("unterminated_banners", self.unterminated_banners)
            .with("words_total", self.words_total)
            .with("words_removed_as_comments", self.words_removed_as_comments)
            .with("segments_passed", self.segments_passed)
            .with("segments_hashed", self.segments_hashed)
            .with("ips_mapped", self.ips_mapped)
            .with("ips_special_passthrough", self.ips_special_passthrough)
            .with("ips6_mapped", self.ips6_mapped)
            .with("asns_mapped", self.asns_mapped)
            .with("communities_mapped", self.communities_mapped)
            .with("regexps_rewritten", self.regexps_rewritten)
            .with("regexps_fallback_hashed", self.regexps_fallback_hashed)
            .with("phone_numbers_mapped", self.phone_numbers_mapped)
            .with("secrets_hashed", self.secrets_hashed)
            .with("comment_word_fraction", self.comment_word_fraction())
            .with("rule_fires", fires)
    }

    /// Parses the shape produced by [`AnonymizationStats::to_json`]. The
    /// derived `comment_word_fraction` member is ignored (it is a
    /// function of the counters); missing counters read as 0 so minor
    /// schema growth stays loadable. A rule name the table does not know
    /// is refused.
    pub fn from_json(doc: &Json) -> Result<AnonymizationStats, String> {
        let counter = |key: &str| -> Result<u64, String> {
            match doc.get(key) {
                None => Ok(0),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
            }
        };
        let mut rule_fires = [0; ALL_RULES.len()];
        if let Some(fires) = doc.get("rule_fires") {
            let Json::Obj(members) = fires else {
                return Err("\"rule_fires\" must be an object".to_string());
            };
            for (rule, count) in members {
                let id = RuleId::from_name(rule)
                    .ok_or_else(|| format!("rule_fires names an unknown rule {rule:?}"))?;
                rule_fires[id as usize] = count
                    .as_u64()
                    .ok_or_else(|| format!("rule_fires[{rule:?}] must be an integer"))?;
            }
        }
        Ok(AnonymizationStats {
            lines_total: counter("lines_total")?,
            comment_lines_stripped: counter("comment_lines_stripped")?,
            freetext_lines_dropped: counter("freetext_lines_dropped")?,
            banner_lines_dropped: counter("banner_lines_dropped")?,
            unterminated_banners: counter("unterminated_banners")?,
            words_total: counter("words_total")?,
            words_removed_as_comments: counter("words_removed_as_comments")?,
            segments_passed: counter("segments_passed")?,
            segments_hashed: counter("segments_hashed")?,
            ips_mapped: counter("ips_mapped")?,
            ips_special_passthrough: counter("ips_special_passthrough")?,
            ips6_mapped: counter("ips6_mapped")?,
            asns_mapped: counter("asns_mapped")?,
            communities_mapped: counter("communities_mapped")?,
            regexps_rewritten: counter("regexps_rewritten")?,
            regexps_fallback_hashed: counter("regexps_fallback_hashed")?,
            phone_numbers_mapped: counter("phone_numbers_mapped")?,
            secrets_hashed: counter("secrets_hashed")?,
            rule_fires,
        })
    }
}

/// Borrow-or-own accounting for the zero-copy rewrite path (DESIGN.md
/// §17).
///
/// Kept *outside* [`AnonymizationStats`] deliberately, like
/// [`crate::rules::PrefilterStats`]: borrow verdicts and hash-memo hits
/// only exist in emit mode (and memo hits additionally vary with which
/// worker clone rewrote which file), while per-file stats are pinned
/// byte-identical between the discovery and emit passes. These counters
/// therefore report under timing-section metrics keys and in the
/// `--bench-json` `rewrite` block, never in the deterministic section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Command lines that went through the emit-mode rewrite path.
    pub lines_total: u64,
    /// Lines returned as `Cow::Borrowed` — no rewrite changed a byte, so
    /// no line-level allocation or copy happened.
    pub lines_borrowed: u64,
    /// Lines where at least one token changed (allocated and rebuilt).
    pub lines_rewritten: u64,
    /// Allocations the zero-copy path skipped versus owning every token
    /// and rebuilding every line: one per token kept verbatim (`None`
    /// slot) plus one per borrowed line (the elided rebuild `String`).
    pub allocations_avoided: u64,
    /// Salted token hashes answered from the memo (SHA-1 skipped).
    pub hash_memo_hits: u64,
    /// Salted token hashes actually computed.
    pub hash_memo_misses: u64,
}

impl RewriteStats {
    /// Adds another instance's counts (commutative).
    pub fn absorb(&mut self, other: &RewriteStats) {
        self.lines_total += other.lines_total;
        self.lines_borrowed += other.lines_borrowed;
        self.lines_rewritten += other.lines_rewritten;
        self.allocations_avoided += other.allocations_avoided;
        self.hash_memo_hits += other.hash_memo_hits;
        self.hash_memo_misses += other.hash_memo_misses;
    }

    /// Fraction of emit-mode lines that stayed `Borrowed` (0.0 when no
    /// lines were rewritten yet).
    pub fn borrowed_fraction(&self) -> f64 {
        if self.lines_total == 0 {
            0.0
        } else {
            self.lines_borrowed as f64 / self.lines_total as f64
        }
    }

    /// The counters as a JSON object (for bench reports).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("lines_total", self.lines_total)
            .with("lines_borrowed", self.lines_borrowed)
            .with("lines_rewritten", self.lines_rewritten)
            .with("borrowed_fraction", self.borrowed_fraction())
            .with("allocations_avoided", self.allocations_avoided)
            .with("hash_memo_hits", self.hash_memo_hits)
            .with("hash_memo_misses", self.hash_memo_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_stats_absorb_and_fraction() {
        let mut a = RewriteStats {
            lines_total: 8,
            lines_borrowed: 6,
            lines_rewritten: 2,
            allocations_avoided: 40,
            hash_memo_hits: 10,
            hash_memo_misses: 3,
        };
        a.absorb(&RewriteStats {
            lines_total: 2,
            lines_borrowed: 2,
            lines_rewritten: 0,
            allocations_avoided: 10,
            hash_memo_hits: 1,
            hash_memo_misses: 0,
        });
        assert_eq!(a.lines_total, 10);
        assert_eq!(a.lines_borrowed, 8);
        assert_eq!(a.lines_rewritten, 2);
        assert_eq!(a.allocations_avoided, 50);
        assert_eq!(a.hash_memo_hits, 11);
        assert_eq!(a.hash_memo_misses, 3);
        assert!((a.borrowed_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(RewriteStats::default().borrowed_fraction(), 0.0);
        assert!(a.to_json().get("borrowed_fraction").is_some());
    }

    #[test]
    fn comment_fraction() {
        let mut s = AnonymizationStats::default();
        assert_eq!(s.comment_word_fraction(), 0.0);
        s.words_total = 200;
        s.words_removed_as_comments = 3;
        assert!((s.comment_word_fraction() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn fire_accumulates() {
        let mut s = AnonymizationStats::default();
        s.fire(RuleId::R22Ipv4Literal);
        s.fire(RuleId::R22Ipv4Literal);
        assert_eq!(s.fires(RuleId::R22Ipv4Literal), 2);
    }

    #[test]
    fn complete_fires_cover_all_28_rules_zero_filled() {
        let mut s = AnonymizationStats::default();
        s.fire(RuleId::R22Ipv4Literal);
        s.fire(RuleId::R22Ipv4Literal);
        let complete = s.rule_fires_complete();
        assert_eq!(complete.len(), 28);
        assert_eq!(complete["ipv4-literal"], 2);
        assert_eq!(complete["banner-blocks"], 0);
        assert_eq!(s.rules_fired_total(), 2);
        let by_cat = s.rule_fires_by_category();
        assert_eq!(by_cat.len(), 5);
        assert_eq!(by_cat["identifiers"], 2);
        assert_eq!(by_cat["comments"], 0);
        assert_eq!(
            by_cat.values().sum::<u64>(),
            s.rules_fired_total(),
            "category rollup conserves the total"
        );
    }

    #[test]
    fn json_round_trips() {
        let mut s = AnonymizationStats {
            lines_total: 42,
            words_total: 400,
            words_removed_as_comments: 6,
            ips_mapped: 7,
            ips6_mapped: 3,
            asns_mapped: 2,
            secrets_hashed: 1,
            ..Default::default()
        };
        s.fire(RuleId::R22Ipv4Literal);
        s.fire(RuleId::R06RouterBgpAsn);
        let back = AnonymizationStats::from_json(&s.to_json()).expect("parse");
        assert_eq!(back, s);
        // Text round trip through the parser too.
        let doc = Json::parse(&s.to_json().to_string()).expect("reparse");
        assert_eq!(AnonymizationStats::from_json(&doc).expect("parse"), s);
    }

    #[test]
    fn from_json_rejects_bad_shapes() {
        let doc = Json::obj().with("lines_total", "ten");
        assert!(AnonymizationStats::from_json(&doc).is_err());
        let doc = Json::obj().with("rule_fires", Json::Arr(vec![]));
        assert!(AnonymizationStats::from_json(&doc).is_err());
        let doc = Json::obj().with("rule_fires", Json::obj().with("no-such-rule", 1u64));
        assert!(AnonymizationStats::from_json(&doc).is_err());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = AnonymizationStats {
            lines_total: 10,
            words_total: 100,
            ..Default::default()
        };
        a.fire(RuleId::R06RouterBgpAsn);
        let mut b = AnonymizationStats {
            lines_total: 5,
            words_total: 50,
            ..Default::default()
        };
        b.fire(RuleId::R06RouterBgpAsn);
        a.merge(&b);
        assert_eq!(a.lines_total, 15);
        assert_eq!(a.words_total, 150);
        assert_eq!(a.fires(RuleId::R06RouterBgpAsn), 2);
    }
}
