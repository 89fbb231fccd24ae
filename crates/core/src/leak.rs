//! Leak recording and the §6.1 residual-leak scanner.
//!
//! "Our best defense against textual attacks is an iterative methodology.
//! After anonymizing configs, we highlight for a human operator lines
//! that seem likely to leak information. … As an example of a
//! leak-highlighting method, the anonymizer can record all AS numbers it
//! sees before hashing them, and then grep out all lines from the
//! anonymized configs that still include any of those numbers."
//!
//! The scanner tokenizes first: the paper's plain `grep` would flag AS 1
//! inside unrelated integers (its own Genuity footnote). A whitespace
//! token of a line is one of two kinds:
//!
//! * an IPv6 address or `addr/len` prefix, looked up whole. Nothing
//!   inside it is scanned: its hex groups may be all-decimal
//!   (`3a07:148:577::`) or spell a word (`2b91:35a8:de5::`).
//! * anything else, scanned for maximal runs. A digit-and-dot run whose
//!   core (the run without its leading and trailing dots) has four parts
//!   is looked up as an address wherever it sits in the token
//!   (`tftp://12.1.1.1/cfg`, `12.1.1.1:100`, `host12.1.1.1`,
//!   `12.1.1.1.`). A run whose core has one part, or two (asdot,
//!   `4.10`), is looked up as an ASN by its core (`702.`, `(702.)`)
//!   unless a letter or a salted-hash image touches the run
//!   (`Serial701`, `h…701`). Other runs (`1.3.6.1.4.1.9`, `12.1.1.1.5`,
//!   `1.702.3`) are neither. An alphabetic run that is not a hash image
//!   is looked up as a word, case-insensitively.
//!
//! A line is flagged on its first address, else its first ASN, else its
//! first word. Because the ASN map is a
//! permutation over a shared space, a legitimate image may coincide with
//! a recorded original; callers that know the mapping can pass the image
//! set to [`LeakScanner::scan_excluding`] to suppress those
//! false positives, which is exactly what the human reviewer of §6.1 does
//! with context.

use std::borrow::Cow;
use std::collections::BTreeSet;

use confanon_testkit::json::Json;

use crate::error::BatchFailure;
use crate::fasthash::FastSet;

/// Everything the anonymizer saw that must not appear in the output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakRecord {
    /// Public ASNs located by the 12 locator rules, as decimal strings.
    pub asns: BTreeSet<String>,
    /// IPv4 literals mapped (ordinary addresses only; specials are
    /// expected to survive).
    pub ips: BTreeSet<String>,
    /// Identity words hashed whole (hostnames, domains, secrets).
    pub words: BTreeSet<String>,
}

impl LeakRecord {
    /// Merges another record into this one.
    pub fn merge(&mut self, other: &LeakRecord) {
        self.asns.extend(other.asns.iter().cloned());
        self.ips.extend(other.ips.iter().cloned());
        self.words.extend(other.words.iter().cloned());
    }

    /// Total recorded items.
    pub fn len(&self) -> usize {
        self.asns.len() + self.ips.len() + self.words.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parses a record document, `{"asns": [...], "ips": [...],
    /// "words": [...]}`. Missing keys are treated as empty sets;
    /// non-string members are an error.
    pub fn from_json_str(text: &str) -> Result<LeakRecord, String> {
        LeakRecord::from_json(Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// [`LeakRecord::from_json_str`] over an already-parsed document (a
    /// state document's `record` member), whose strings it moves into
    /// the sets.
    pub fn from_json(mut doc: Json) -> Result<LeakRecord, String> {
        let mut set = |key: &str| -> Result<BTreeSet<String>, String> {
            match doc.take(key) {
                None => Ok(BTreeSet::new()),
                Some(Json::Arr(items)) => items
                    .into_iter()
                    .map(|item| match item {
                        Json::Str(s) => Ok(s),
                        _ => Err(format!("{key:?} must hold strings")),
                    })
                    .collect(),
                Some(_) => Err(format!("{key:?} must be an array")),
            }
        };
        Ok(LeakRecord {
            asns: set("asns")?,
            ips: set("ips")?,
            words: set("words")?,
        })
    }
}

/// One flagged line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leak {
    /// Zero-based line number in the anonymized text.
    pub line_no: usize,
    /// The offending line.
    pub line: String,
    /// The recorded item that survived.
    pub token: String,
}

/// The scan result.
#[derive(Debug, Clone, Default)]
pub struct LeakReport {
    /// Flagged lines, in order.
    pub leaks: Vec<Leak>,
}

impl LeakReport {
    /// True when the output is clean.
    pub fn is_clean(&self) -> bool {
        self.leaks.is_empty()
    }
}

/// The `confanon-leak-report-v1` document (README.md): how many files
/// were released, quarantined and panic-contained, every quarantined
/// file's flagged lines, and the contained failures. A batch run writes
/// it as `leak_report.json`; a serve tenant answers a quarantined request
/// with it, for that one file. Round-trips through [`Json::parse`].
pub fn leak_report_json<'r>(
    clean_files: usize,
    quarantined: impl IntoIterator<Item = (&'r str, &'r LeakReport)>,
    failures: &[BatchFailure],
) -> Json {
    let mut total_leaks = 0;
    let quarantined: Vec<Json> = quarantined
        .into_iter()
        .map(|(name, report)| {
            total_leaks += report.leaks.len();
            let leaks: Vec<Json> = report
                .leaks
                .iter()
                .map(|l| {
                    Json::obj()
                        .with("line_no", l.line_no as u64)
                        .with("token", l.token.as_str())
                        .with("line", l.line.as_str())
                })
                .collect();
            Json::obj()
                .with("name", name)
                .with("leaks", Json::Arr(leaks))
        })
        .collect();
    let failures: Vec<Json> = failures
        .iter()
        .map(|f| {
            Json::obj()
                .with("name", f.name.as_str())
                .with("phase", f.phase.name())
                .with("cause", f.cause.as_str())
        })
        .collect();
    Json::obj()
        .with("schema", "confanon-leak-report-v1")
        .with("clean_files", clean_files as u64)
        .with("quarantined_files", quarantined.len() as u64)
        .with("panic_contained_files", failures.len() as u64)
        .with("total_leaks", total_leaks as u64)
        .with("quarantined", Json::Arr(quarantined))
        .with("failures", Json::Arr(failures))
}

/// Scans anonymized text against a [`LeakRecord`].
///
/// Construction indexes the record's ordered sets into borrowed hash
/// sets, so one scanner should be built per *corpus* and reused across
/// files (the gate loop in `workflow` does exactly this); per-token
/// membership checks are then O(1) instead of a string-compare walk of
/// a `BTreeSet`.
pub struct LeakScanner<'a> {
    /// The legitimate images, borrowed from the anonymizer that emitted
    /// them or collected from the caller's list.
    excluded: Cow<'a, BTreeSet<String>>,
    /// Hash views over the record's sets (borrowing the record).
    ips: FastSet<&'a str>,
    asns: FastSet<&'a str>,
    words: FastSet<&'a str>,
}

impl<'a> LeakScanner<'a> {
    /// A scanner with no exclusions (the paper's raw grep, tokenized).
    pub fn new(record: &'a LeakRecord) -> LeakScanner<'a> {
        LeakScanner::with_exclusions(record, [])
    }

    /// A reusable scanner that suppresses tokens known to be legitimate
    /// images of the permutation (auditor-with-mapping mode). Build once
    /// per corpus, then call [`LeakScanner::scan`] per file.
    pub fn with_exclusions(
        record: &'a LeakRecord,
        legitimate_images: impl IntoIterator<Item = String>,
    ) -> LeakScanner<'a> {
        LeakScanner::excluding(record, Cow::Owned(legitimate_images.into_iter().collect()))
    }

    /// [`LeakScanner::with_exclusions`] over a set it borrows instead of
    /// copying: the gate's scanner over an anonymizer's own record and
    /// images ([`crate::Anonymizer::emitted`]).
    pub fn borrowing(record: &'a LeakRecord, excluded: &'a BTreeSet<String>) -> LeakScanner<'a> {
        LeakScanner::excluding(record, Cow::Borrowed(excluded))
    }

    fn excluding(record: &'a LeakRecord, excluded: Cow<'a, BTreeSet<String>>) -> LeakScanner<'a> {
        LeakScanner {
            excluded,
            ips: record.ips.iter().map(String::as_str).collect(),
            asns: record.asns.iter().map(String::as_str).collect(),
            words: record.words.iter().map(String::as_str).collect(),
        }
    }

    /// One-shot convenience over [`LeakScanner::with_exclusions`] +
    /// [`LeakScanner::scan`].
    pub fn scan_excluding(
        record: &'a LeakRecord,
        legitimate_images: impl IntoIterator<Item = String>,
        text: &str,
    ) -> LeakReport {
        LeakScanner::with_exclusions(record, legitimate_images).scan(text)
    }

    /// Scans `text`, returning every line still containing a recorded
    /// item as one of the runs the module doc describes.
    pub fn scan(&self, text: &str) -> LeakReport {
        let mut report = LeakReport::default();
        let mut buf = String::new();
        for (line_no, line) in text.lines().enumerate() {
            if let Some(token) = self.first_leak_in(line, &mut buf) {
                report.leaks.push(Leak {
                    line_no,
                    line: line.to_string(),
                    token,
                });
            }
        }
        report
    }

    /// The first recorded item `line` still holds, in the order
    /// address, ASN, word: the first address anywhere in the line wins,
    /// then the first ASN, then the first word. One pass over the line's
    /// whitespace tokens (see the module doc for the token model).
    fn first_leak_in(&self, line: &str, buf: &mut String) -> Option<String> {
        let mut asn: Option<&str> = None;
        let mut word: Option<String> = None;
        for token in line.split(|c: char| c.is_ascii_whitespace()) {
            if token.is_empty() {
                continue;
            }
            // An IPv6 address or prefix is looked up whole, and nothing
            // inside it is scanned: its hex groups are identifiers even
            // when they are all-decimal (`3a07:148:577::`) or spell a word
            // (`2b91:35a8:de5::`).
            let bare = token.split_once('/').map_or(token, |(a, _)| a);
            if token.contains(':') && bare.parse::<confanon_netprim::Ip6>().is_ok() {
                if let Some(t) = [token, bare].into_iter().find(|t| self.hit(&self.ips, t)) {
                    return Some(t.to_string());
                }
                continue;
            }
            let bytes = token.as_bytes();
            // Where the last skipped hash image ended: digits right after
            // one are an identifier's fragment (`rtr701` → `h…701`), as
            // are digits next to a letter.
            let mut after_image = usize::MAX;
            let mut i = 0;
            while i < bytes.len() {
                let b = bytes[i];
                if b.is_ascii_digit() || b == b'.' {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                        i += 1;
                    }
                    // Dots around a run are punctuation: its core is an
                    // address when it has four parts (`12.1.1.1.`), an
                    // ASN when it has one or two (`702.`, asdot `4.10`).
                    let core = token[start..i].trim_matches('.');
                    let dots = core.bytes().filter(|&b| b == b'.').count();
                    if dots == 3 {
                        if self.hit(&self.ips, core) {
                            return Some(core.to_string());
                        }
                    } else if dots <= 1 && asn.is_none() {
                        let in_ident = start == after_image
                            || (start > 0 && bytes[start - 1].is_ascii_alphabetic())
                            || bytes.get(i).is_some_and(u8::is_ascii_alphabetic);
                        if !in_ident && self.hit(&self.asns, core) {
                            asn = Some(core);
                        }
                    }
                } else if b.is_ascii_alphabetic() {
                    if let Some(end) = image_end(bytes, i) {
                        i = end;
                        after_image = end;
                        continue;
                    }
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                        i += 1;
                    }
                    if word.is_none() && !self.words.is_empty() {
                        // Runs that are already lowercase (the overwhelming
                        // majority of anonymized output) are checked as
                        // borrowed slices; only mixed-case runs are
                        // lowercased, into a buffer reused across lines.
                        let run = &token[start..i];
                        let lowered: &str = if run.bytes().any(|b| b.is_ascii_uppercase()) {
                            buf.clear();
                            buf.extend(run.chars().map(|c| c.to_ascii_lowercase()));
                            buf.as_str()
                        } else {
                            run
                        };
                        if self.hit(&self.words, lowered) {
                            word = Some(lowered.to_string());
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
        asn.map(str::to_string).or(word)
    }

    /// `item` is in `set` and is not a legitimate image.
    fn hit(&self, set: &FastSet<&str>, item: &str) -> bool {
        set.contains(item) && !self.excluded.contains(item)
    }
}

/// The end of the salted-hash image that starts the alphabetic run at
/// `start`, if it is one: `h` and exactly 16 lowercase hex digits
/// (`TokenHasher::hash_token`), with no letter right after them. The
/// hasher replaces alphabetic segments, so digits may abut an image
/// (`Serial0` → `h…0`) but letters never do.
fn image_end(bytes: &[u8], start: usize) -> Option<usize> {
    let end = start + 17;
    let image = bytes[start] == b'h'
        && bytes
            .get(start + 1..end)?
            .iter()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        && !bytes.get(end).is_some_and(u8::is_ascii_alphabetic);
    image.then_some(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(asns: &[&str], ips: &[&str], words: &[&str]) -> LeakRecord {
        LeakRecord {
            asns: asns.iter().map(|s| s.to_string()).collect(),
            ips: ips.iter().map(|s| s.to_string()).collect(),
            words: words.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn clean_text_is_clean() {
        let r = record(&["701"], &["1.1.1.1"], &["uunet"]);
        let report = LeakScanner::new(&r).scan("router bgp 9000\n neighbor 9.9.9.9\n");
        assert!(report.is_clean());
    }

    #[test]
    fn whole_number_match_only() {
        let r = record(&["701"], &[], &[]);
        let s = LeakScanner::new(&r);
        assert!(!s.scan("neighbor x remote-as 701").is_clean());
        assert!(s.scan("neighbor x remote-as 17012").is_clean());
        assert!(s.scan("neighbor x remote-as 7011").is_clean());
    }

    #[test]
    fn asn_inside_regexp_alternation_found() {
        let r = record(&["701"], &[], &[]);
        let report = LeakScanner::new(&r).scan("ip as-path access-list 5 permit (44|701|9)");
        assert_eq!(report.leaks.len(), 1);
        assert_eq!(report.leaks[0].token, "701");
    }

    #[test]
    fn octets_do_not_false_match_asns() {
        // 1.2.3.701 contains the digit run 701 but as an octet, not an ASN.
        let r = record(&["701"], &[], &[]);
        assert!(LeakScanner::new(&r).scan("ip address 1.2.3.701").is_clean());
    }

    #[test]
    fn asn_beside_a_dot_is_found_by_its_core() {
        let r = record(&["702"], &[], &[]);
        let s = LeakScanner::new(&r);
        for line in ["description peer 702.", "peer .702", "see (702.)"] {
            let report = s.scan(line);
            assert_eq!(report.leaks.len(), 1, "{line}");
            assert_eq!(report.leaks[0].token, "702", "{line}");
        }
        for line in [
            "description peer 7020.",
            "interface Serial702.",
            "oid 1.702.3",
        ] {
            assert!(s.scan(line).is_clean(), "{line}");
        }
    }

    #[test]
    fn ip_match_is_exact_token() {
        let r = record(&[], &["1.1.1.1"], &[]);
        let s = LeakScanner::new(&r);
        assert!(!s.scan(" ip address 1.1.1.1 255.255.255.0").is_clean());
        assert!(s.scan(" ip address 11.1.1.11 255.255.255.0").is_clean());
    }

    #[test]
    fn addresses_are_found_beside_dots() {
        let r = record(&[], &["12.1.1.1"], &[]);
        let s = LeakScanner::new(&r);
        for leaky in ["logging 12.1.1.1.", "logging .12.1.1.1", "see (12.1.1.1.)"] {
            let report = s.scan(leaky);
            assert_eq!(report.leaks.len(), 1, "{leaky}");
            assert_eq!(report.leaks[0].token, "12.1.1.1", "{leaky}");
        }
        for clean in [
            "oid 12.1.1.1.5",
            "oid 1.12.1.1.1",
            "oid ..12.1.1",
            "version 12.1.1.",
        ] {
            assert!(s.scan(clean).is_clean(), "{clean}");
        }
    }

    #[test]
    fn addresses_are_found_inside_compound_tokens() {
        let r = record(&[], &["12.1.1.1"], &[]);
        let s = LeakScanner::new(&r);
        for leaky in [
            "boot host tftp://12.1.1.1/cfg",
            " set extcommunity rt 12.1.1.1:100",
            "hostname host12.1.1.1",
            "access-list 151 deny ip host 12.1.1.1\u{FFFD}\u{FFFD}",
        ] {
            let report = s.scan(leaky);
            assert_eq!(report.leaks.len(), 1, "{leaky}");
            assert_eq!(report.leaks[0].token, "12.1.1.1", "{leaky}");
        }
        // Only a whole four-part run is an address.
        for clean in [
            "host 112.1.1.1",
            "host 12.1.1.12",
            "oid 12.1.1.1.5",
            "x 2.1.1.1",
        ] {
            assert!(s.scan(clean).is_clean(), "{clean}");
        }
    }

    #[test]
    fn asdot_runs_match_recorded_asdot_asns() {
        let r = record(&["4.10"], &[], &[]);
        let s = LeakScanner::new(&r);
        for leaky in ["router bgp 4.10", " remote-as 4.10", "(4.10|7)", "rt 4.10:100"] {
            assert!(!s.scan(leaky).is_clean(), "{leaky}");
        }
        for clean in [
            "ip address 12.1.4.10",
            "version 14.10",
            "x 4.10.1",
            "Serial4.10",
        ] {
            assert!(s.scan(clean).is_clean(), "{clean}");
        }
    }

    #[test]
    fn first_address_then_first_asn_then_first_word() {
        let r = record(&["701"], &["1.1.1.1"], &["uunet"]);
        let s = LeakScanner::new(&r);
        let token = |line: &str| s.scan(line).leaks[0].token.clone();
        assert_eq!(token("uunet 701 x/1.1.1.1"), "1.1.1.1");
        assert_eq!(token("uunet 701"), "701");
        assert_eq!(token("uunet rtr-uunet"), "uunet");
    }

    #[test]
    fn word_match_case_insensitive() {
        let r = record(&[], &[], &["uunet"]);
        let s = LeakScanner::new(&r);
        assert!(!s.scan("route-map UUNET-import deny 10").is_clean());
        assert!(s.scan("route-map h1234-import deny 10").is_clean());
    }

    #[test]
    fn words_inside_hash_images_do_not_flag() {
        // `b` and `h` spelled by an image's hex are not the recorded
        // words; the same words in plaintext beside an image still are.
        let r = record(&[], &[], &["b", "h", "rtr"]);
        let s = LeakScanner::new(&r);
        assert!(s.scan("hostname h53abe13b3533afe9").is_clean());
        assert!(s.scan(" path tftp://10.0.0.9/$h666bb529d40ed5c7-$h852f65b119bd43c1").is_clean());
        assert!(s.scan("interface h53abe13b3533afe90/1").is_clean());
        for leaky in [
            "hostname b h53abe13b3533afe9",
            "hostname rtr-h53abe13b3533afe9",
            "hostname h53abe13b3533afe9-b",
            "hostname h53abe13b3533afe9.b.h",
            "$h-$t h53abe13b3533afe9",
        ] {
            assert!(!s.scan(leaky).is_clean(), "{leaky}");
        }
        // Not image-shaped: a letter after the 16 digits, too few digits,
        // or an uppercase digit.
        for near in ["h53abe13b3533afe9b", "h53abe13b3533afe", "h53ABE13b3533afe9"] {
            assert!(!s.scan(near).is_clean(), "{near}");
        }
    }

    #[test]
    fn exclusion_suppresses_legitimate_images() {
        let r = record(&["701"], &[], &[]);
        let clean = LeakScanner::scan_excluding(
            &r,
            ["701".to_string()],
            "router bgp 701 appears as someone else's image",
        );
        assert!(clean.is_clean());
    }

    #[test]
    fn borrowing_and_owned_scanners_agree_on_generated_and_chaos_corpora() {
        use crate::anonymizer::{Anonymizer, AnonymizerConfig};
        use confanon_confgen::{generate_dataset, DatasetSpec};
        use confanon_testkit::chaos::ChaosMutator;
        let clean: Vec<String> = generate_dataset(&DatasetSpec {
            seed: 0x1ea5,
            networks: 2,
            mean_routers: 3,
            backbone_fraction: 0.5,
        })
        .networks
        .into_iter()
        .flat_map(|n| n.routers.into_iter().map(|r| r.config))
        .collect();
        let mut chaos = ChaosMutator::new(0x1ea5);
        let hostile: Vec<String> = clean
            .iter()
            .map(|t| crate::input::sanitize_bytes(&chaos.mutate(t.as_bytes()).bytes).0)
            .collect();
        for corpus in [clean, hostile] {
            let mut a = Anonymizer::new(AnonymizerConfig::new(b"gate".to_vec()));
            let released: Vec<String> = corpus.iter().map(|t| a.anonymize_config(t).text).collect();
            let owned = LeakScanner::with_exclusions(a.leak_record(), a.emitted_exclusions());
            let borrowing = LeakScanner::borrowing(a.leak_record(), a.emitted());
            // The inputs themselves flag, so both verdicts are compared
            // on leaking lines as well as on the clean releases.
            let mut flagged = 0;
            for text in released.iter().chain(&corpus) {
                let (want, got) = (owned.scan(text), borrowing.scan(text));
                assert_eq!(got.leaks, want.leaks);
                flagged += want.leaks.len();
            }
            assert!(flagged > 0);
        }
    }

    #[test]
    fn report_carries_line_numbers() {
        let r = record(&["99"], &[], &[]);
        let report = LeakScanner::new(&r).scan("a\nb 99\nc\n");
        assert_eq!(report.leaks[0].line_no, 1);
    }

    #[test]
    fn record_merge_and_len() {
        let mut a = record(&["1"], &[], &[]);
        let b = record(&["2"], &["3.3.3.3"], &["x"]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }
}

#[cfg(test)]
mod ipv6_scan_tests {
    use super::*;

    #[test]
    fn decimal_hex_groups_in_v6_tokens_are_not_numbers() {
        // `577` here is a hex group of an anonymized address, not an ASN.
        let r = LeakRecord {
            asns: ["577".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let s = LeakScanner::new(&r);
        assert!(s.scan(" ipv6 address 3a07:148:577:b000::1/64").is_clean());
        assert!(s.scan("ipv6 route 3a07:148:577::/48 Null0").is_clean());
        // But the same digits as a standalone number still flag.
        assert!(!s.scan(" neighbor 9.9.9.9 remote-as 577").is_clean());
        // And inside a community token (not a valid v6 address) too.
        assert!(!s.scan(" set community 577:100").is_clean());
    }

    #[test]
    fn words_spelled_by_v6_hex_groups_are_not_words() {
        let r = LeakRecord {
            words: ["de".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let s = LeakScanner::new(&r);
        assert!(!s.scan("hostname de").is_clean());
        assert!(s.scan(" ipv6 address 2b91:35a8:de5::1/64").is_clean());
        assert!(s.scan(" ipv6 address 2b91:35a8:de5::1").is_clean());
    }

    #[test]
    fn recorded_v6_addresses_still_flag() {
        let r = LeakRecord {
            ips: ["2001:db8::1".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let s = LeakScanner::new(&r);
        assert!(!s.scan(" ipv6 address 2001:db8::1/64").is_clean());
        assert!(s.scan(" ipv6 address 2001:db8::2/64").is_clean());
    }
}
