//! The anonymization pipeline.
//!
//! One pass over the config: classify lines (comments, banners, free
//! text, commands), then rewrite command lines token by token under the
//! 28 rules. The order of checks per token mirrors the paper's
//! conservatism — context rules (ASNs, secrets, regexps) first, then
//! addresses, then the generic "hash anything not on the pass-list"
//! fallback, so nothing escapes by being unrecognized.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use confanon_asnanon::rewrite::{
    rewrite_aspath_regex_full, rewrite_community_regex_full, RewriteOutcome,
};
use confanon_asnanon::{is_public32, AsnMap, CommunityMap, LargeCommunityMap, RewriteOptions};
use confanon_crypto::TokenHasher;
use confanon_iosparse::{
    classify_lines, rebuild_sparse, segment, tokenize, LineKind, Segment, BYTE_CLASS, CLASS_ALPHA,
    CLASS_DIGIT,
};
use confanon_ipanon::{Ip6Anonymizer, IpAnonymizer, RandomScramble};
use confanon_netprim::{special6_kind, special_kind, Ip, Ip6};

use crate::discover::{ObservationLog, ObservedIp};
use crate::error::BatchPhase;
use crate::leak::LeakRecord;
use crate::passlist::PassList;
use crate::rules::{
    anchor_for, LineClass, LineClassCache, Locator, PrefilterStats, RuleId, ALTERNATE_AS,
    REMOTE_AS, SECRET_KEYWORDS,
};
use crate::stats::{AnonymizationStats, RewriteStats};

/// Distinct-token cap for the salted-hash memo: beyond it, hashes are
/// still computed but no longer interned, so a hostile corpus of unique
/// identifiers cannot grow the memo without bound. The memo is a pure
/// function of (owner secret, token), so capping — like clearing or
/// cloning it — can never change an output byte.
const HASH_MEMO_CAP: usize = 65_536;

/// Byte budget of the regexp-rewrite memo (pattern texts plus rewritten
/// patterns). A generated E9-shaped corpus's distinct patterns take
/// ~20 KB in all, but one wide image alternation can run to ~390 KB, so
/// the budget holds some forty of those; beyond it rewrites are still
/// computed but no longer interned. Like the hash memo, the memo is a
/// pure function of its key and the keyed maps, so no budget can change
/// an output byte.
const REGEX_MEMO_BUDGET: usize = 16 << 20;

/// Bytes charged per memo entry beyond its strings (table slot, `Arc`
/// header, vector headers) — so a flood of tiny patterns is bounded too.
const REGEX_MEMO_ENTRY_OVERHEAD: usize = 96;

/// One interned §4.4 rewrite: `None` when the pattern does not parse
/// (the occurrence is hashed whole instead).
type InternedRewrite = Option<Arc<RewriteOutcome>>;

/// A memo key: the regexp's domain and its pattern text.
type RegexKey = (RegexDomain, String);

/// One memo entry, filled once by whichever holder of the memo misses
/// first; a concurrent miss on the same key waits for that enumeration
/// instead of repeating it.
type MemoSlot = Arc<OnceLock<InternedRewrite>>;

/// Interned regexp-language rewrites, keyed by (domain, pattern text).
///
/// The rewrite of an as-path or community regexp enumerates the §4.4
/// atom languages over all 2^16 ASNs — milliseconds per pattern — and
/// is a pure function of the pattern and the keyed permutations, while
/// the same patterns repeat across a network's routers. An anonymizer
/// and every clone of it share one memo (the field is an `Arc`): the
/// discovery shards fill it together, so each distinct
/// pattern is enumerated once at any `--jobs`, and the rewrite workers
/// enumerate nothing. Clones share the secret and `compact_regexps`,
/// so every holder computes the same rewrite for a key and sharing can
/// never change an output byte.
#[derive(Default)]
struct RegexMemo {
    table: Mutex<MemoTable>,
}

#[derive(Default)]
struct MemoTable {
    entries: HashMap<RegexKey, MemoSlot>,
    /// Bytes charged for the entries held (see [`REGEX_MEMO_BUDGET`]).
    bytes: usize,
}

/// What an entry's key costs against the budget.
fn memo_key_cost(key: &RegexKey) -> usize {
    REGEX_MEMO_ENTRY_OVERHEAD + key.1.len()
}

impl RegexMemo {
    /// The table; a panic elsewhere never leaves it half-updated, so a
    /// poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, MemoTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The interned rewrite of `key`, running `rewrite` on a miss. The
    /// lock is never held while a pattern is enumerated. A key is
    /// charged when its entry is made and the outcome when it is
    /// filled; an outcome the budget cannot hold is still returned, but
    /// its entry is dropped again.
    fn get_or_rewrite(
        &self,
        key: &RegexKey,
        rewrite: impl FnOnce() -> InternedRewrite,
    ) -> InternedRewrite {
        let slot = {
            let mut table = self.lock();
            match table.entries.get(key) {
                Some(slot) => Arc::clone(slot),
                None if table.bytes + memo_key_cost(key) <= REGEX_MEMO_BUDGET => {
                    table.bytes += memo_key_cost(key);
                    let slot = MemoSlot::default();
                    table.entries.insert(key.clone(), Arc::clone(&slot));
                    slot
                }
                None => return rewrite(),
            }
        };
        let mut filled = false;
        let value = slot
            .get_or_init(|| {
                filled = true;
                rewrite()
            })
            .clone();
        if filled {
            let cost = value.as_ref().map_or(0, |r| {
                r.pattern.len() + std::mem::size_of_val(r.public_asns_named.as_slice())
            });
            let mut table = self.lock();
            if table.bytes + cost <= REGEX_MEMO_BUDGET {
                table.bytes += cost;
            } else if table.entries.remove(key).is_some() {
                table.bytes -= memo_key_cost(key);
            }
        }
        value
    }
}

/// Which IP-address mapping the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IpScheme {
    /// The paper's extended `-a50` trie: prefix-, class-, and
    /// subnet-address-preserving (the production scheme).
    #[default]
    StructurePreserving,
    /// The negative control: injective per-address scramble with no
    /// structural guarantees. The validation suites are *expected to
    /// fail* under this scheme — that failure is experiment E15's
    /// quantified argument for the paper's design.
    Scramble,
}

/// Configuration for an [`Anonymizer`].
#[derive(Clone)]
pub struct AnonymizerConfig {
    /// The secret chosen by the network owner (salts every hash and keys
    /// every permutation; §6.1).
    pub owner_secret: Vec<u8>,
    /// Compact rewritten regexps through the minimal-DFA synthesis
    /// extension instead of emitting raw alternations.
    pub compact_regexps: bool,
    /// Rules disabled for ablation experiments (§6.1 iteration). Empty in
    /// production.
    pub disabled_rules: HashSet<RuleId>,
    /// The pass-list of unprivileged tokens.
    pub pass_list: PassList,
    /// IP mapping scheme (default: the paper's structure-preserving trie).
    pub ip_scheme: IpScheme,
    /// Chaos-engineering knob: when set, the anonymizer panics upon
    /// seeing a line containing the marker string during the given batch
    /// phase ([`BatchPhase::Discover`] = the discovery pass,
    /// [`BatchPhase::Rewrite`] = the emit pass). This exists so the
    /// batch pipeline's panic containment can be exercised
    /// deterministically in tests; production callers leave it `None`.
    pub fault_marker: Option<(String, crate::error::BatchPhase)>,
}

impl AnonymizerConfig {
    /// Production defaults: all 28 rules on, builtin pass-list.
    pub fn new(owner_secret: Vec<u8>) -> AnonymizerConfig {
        AnonymizerConfig {
            owner_secret,
            compact_regexps: false,
            disabled_rules: HashSet::new(),
            pass_list: PassList::builtin(),
            ip_scheme: IpScheme::default(),
            fault_marker: None,
        }
    }

    /// Disables one rule (builder style).
    pub fn without_rule(mut self, rule: RuleId) -> AnonymizerConfig {
        self.disabled_rules.insert(rule);
        self
    }
}

/// The result of anonymizing one configuration.
#[derive(Debug, Clone)]
pub struct AnonymizedConfig {
    /// The anonymized text.
    pub text: String,
    /// Counters for this config.
    pub stats: AnonymizationStats,
}

/// The anonymizer. Holds the keyed mapping state shared across all
/// configs of one network — "all identifiers must be anonymized in a
/// consistent manner" (§3.2), which extends across files: the same
/// route-map name, address, or ASN in two routers of one network must map
/// identically, so one `Anonymizer` instance processes the whole network.
///
/// `Anonymizer` is `Clone` so that, once its mapping state has been
/// warmed by a discovery pass ([`Anonymizer::discover_config`]), worker
/// threads can each take a copy and re-emit files in parallel with pure
/// lookups — see [`crate::batch::BatchPipeline`].
#[derive(Clone)]
pub struct Anonymizer {
    cfg: AnonymizerConfig,
    hasher: TokenHasher,
    ip: IpAnonymizer,
    ip6: Ip6Anonymizer,
    scramble: RandomScramble,
    community: CommunityMap,
    large_community: LargeCommunityMap,
    record: LeakRecord,
    /// Numeric strings and dotted quads the anonymizer itself emitted
    /// (permutation images, rewritten-regexp members, re-digited phones).
    /// These are the principled exclusion set for the §6.1 scanner: a
    /// *leak* is an original value surviving, not an image coinciding
    /// with one.
    emitted: BTreeSet<String>,
    total_stats: AnonymizationStats,
    /// `true` in the normal (emit) mode; `false` during a discovery pass,
    /// where output assembly and the stateless token hashes are skipped
    /// but every rule, mapping-state mutation, and counter still runs.
    emit: bool,
    /// Interned prefilter verdicts per line text (a pure function of the
    /// line, so cache state can never change behaviour).
    line_cache: LineClassCache,
    prefilter_stats: PrefilterStats,
    /// Interned salted token hashes (a pure function of the owner secret
    /// and the token — identifiers repeat heavily in real configs, so
    /// most SHA-1 invocations are answered by one lookup). Capped at
    /// [`HASH_MEMO_CAP`].
    hash_memo: HashMap<String, String>,
    /// Interned regexp-language rewrites, shared with every clone (see
    /// [`RegexMemo`]); like `hash_memo`, a cache that persisted state
    /// never serializes.
    regex_memo: Arc<RegexMemo>,
    /// Borrow-or-own accounting for the zero-copy rewrite path. Kept
    /// outside [`AnonymizationStats`] deliberately: borrow verdicts only
    /// exist in emit mode, and per-file stats must stay identical
    /// between the discovery and emit passes.
    rewrite_stats: RewriteStats,
    /// `Some` only while a discovery shard scans (on the retained
    /// anonymizer or an observer copy): instead of mutating the tries,
    /// [`Anonymizer::map_ip`]/[`Anonymizer::map_ip6`] log the address's
    /// first corpus position here for the canonical replay. See
    /// [`crate::discover`].
    observe: Option<ObservationLog>,
    /// Append-only journal of every distinct trie-mapped identifier in
    /// first-mapped order — the replayable transcript persistent state
    /// (`crate::state`) serializes. Re-mapping the journal through a
    /// fresh anonymizer with the same secret rebuilds the tries
    /// node-for-node (mappings are sticky, so the trie is a function of
    /// the first-insertion sequence alone).
    journal: IdJournal,
}

/// The identifier journal: distinct mapped addresses in first-mapped
/// order (see [`Anonymizer::journal`]), each beside its image. Images
/// are sticky, so the one stored when an address is first mapped is the
/// one every later occurrence gets: a journaled address is answered by
/// one hash probe instead of a trie walk.
#[derive(Clone, Default)]
struct IdJournal {
    images4: HashMap<u32, Ip>,
    images6: HashMap<u128, Ip6>,
    order: Vec<ObservedIp>,
}

impl IdJournal {
    /// The stored image of `obs`, if it is journaled.
    fn image(&self, obs: ObservedIp) -> Option<ObservedIp> {
        match obs {
            ObservedIp::V4(ip) => self.images4.get(&ip.0).copied().map(ObservedIp::V4),
            ObservedIp::V6(ip) => self.images6.get(&ip.0).copied().map(ObservedIp::V6),
        }
    }

    /// Journals a fresh v4 address beside its image.
    fn push4(&mut self, ip: Ip, image: Ip) {
        self.images4.insert(ip.0, image);
        self.order.push(ObservedIp::V4(ip));
    }

    /// Journals a fresh v6 address beside its image.
    fn push6(&mut self, ip: Ip6, image: Ip6) {
        self.images6.insert(ip.0, image);
        self.order.push(ObservedIp::V6(ip));
    }
}

impl Anonymizer {
    /// Creates an anonymizer for one network.
    pub fn new(cfg: AnonymizerConfig) -> Anonymizer {
        let hasher = TokenHasher::new(&cfg.owner_secret);
        let ip = IpAnonymizer::with_options(
            &cfg.owner_secret,
            !cfg.disabled_rules.contains(&RuleId::R24SubnetAddressPreserve),
        );
        let ip6 = Ip6Anonymizer::new(&cfg.owner_secret);
        let scramble = RandomScramble::new(&cfg.owner_secret);
        let community = CommunityMap::new(&cfg.owner_secret);
        let large_community = LargeCommunityMap::new(&cfg.owner_secret);
        Anonymizer {
            cfg,
            hasher,
            ip,
            ip6,
            scramble,
            community,
            large_community,
            record: LeakRecord::default(),
            emitted: BTreeSet::new(),
            total_stats: AnonymizationStats::default(),
            emit: true,
            line_cache: LineClassCache::default(),
            prefilter_stats: PrefilterStats::default(),
            hash_memo: HashMap::new(),
            regex_memo: Arc::default(),
            rewrite_stats: RewriteStats::default(),
            observe: None,
            journal: IdJournal::default(),
        }
    }

    /// The ASN permutation in use (for audits and experiments).
    pub fn asn_map(&self) -> &AsnMap {
        self.community.asn_map()
    }

    /// The community map in use (for audits and experiments).
    pub fn community_map(&self) -> &CommunityMap {
        &self.community
    }

    /// Everything recorded so far for leak scanning (§6.1).
    pub fn leak_record(&self) -> &LeakRecord {
        &self.record
    }

    /// Every numeric string / dotted quad the anonymizer emitted as a
    /// replacement value — pass these to
    /// [`crate::leak::LeakScanner::scan_excluding`] to suppress the
    /// image-coincidence false positives the paper's Genuity footnote
    /// describes.
    pub fn emitted_exclusions(&self) -> Vec<String> {
        self.emitted.iter().cloned().collect()
    }

    /// Aggregate statistics across every config processed so far.
    pub fn total_stats(&self) -> &AnonymizationStats {
        &self.total_stats
    }

    /// Node counts of the (v4, v6) prefix-preserving tries. Discovery
    /// walks the whole corpus in a fixed order, so after a discovery
    /// pass these are a deterministic fingerprint of the corpus's
    /// address structure — resume and job count cannot change them.
    pub fn trie_node_counts(&self) -> (usize, usize) {
        (self.ip.node_count(), self.ip6.node_count())
    }

    fn enabled(&self, rule: RuleId) -> bool {
        !self.cfg.disabled_rules.contains(&rule)
    }

    /// One token hash, skipped (empty string) during discovery: the hash
    /// is a pure function of the owner secret and the token, so eliding
    /// it cannot change any mapping state a later emit pass depends on.
    ///
    /// Emitted hashes are interned in [`Anonymizer::hash_memo`]; the
    /// test-only reference line path hashes its per-token fallback
    /// uncached, so the differential properties pin the memo too.
    fn hash_emit(&mut self, tok: &str) -> String {
        if !self.emit {
            return String::new();
        }
        if let Some(h) = self.hash_memo.get(tok) {
            self.rewrite_stats.hash_memo_hits += 1;
            return h.clone();
        }
        let h = self.hasher.hash_token(tok);
        self.rewrite_stats.hash_memo_misses += 1;
        if self.hash_memo.len() < HASH_MEMO_CAP {
            self.hash_memo.insert(tok.to_string(), h.clone());
        }
        h
    }

    /// Runs the full rule pipeline over one configuration *without*
    /// producing output text.
    ///
    /// It performs exactly the mapping mutations an
    /// [`Anonymizer::anonymize_config`] call would — trie inserts (in the
    /// same order), leak-record and emitted-image set inserts, statistics
    /// — while skipping the two costs that dominate emission and touch no
    /// shared state: per-segment salted hashing (§4.1: one SHA-1 per
    /// non-pass-list token) and output-string assembly. After discovering
    /// every file of a corpus, a clone of this anonymizer re-emits any of
    /// those files with pure lookups, byte-identical to a sequential run.
    /// [`crate::batch::BatchPipeline`] runs it per file with the
    /// observation log armed, which defers the trie inserts to one
    /// canonical replay.
    pub fn discover_config(&mut self, text: &str) -> AnonymizationStats {
        self.emit = false;
        // Restore emit-mode even if the rule pipeline panics: the batch
        // layer contains per-file panics, and a poisoned `emit` flag
        // would silently turn every later emission into empty output.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.anonymize_config(text)
        }));
        self.emit = true;
        match result {
            Ok(out) => out.stats,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Anonymizes one configuration file.
    pub fn anonymize_config(&mut self, text: &str) -> AnonymizedConfig {
        let lines: Vec<&str> = text.lines().collect();
        let kinds = classify_lines(&lines);
        let mut stats = AnonymizationStats::default();
        let mut out = String::with_capacity(if self.emit { text.len() } else { 0 });
        // Delimiter of the banner block currently open, for BannerEnd.
        let mut current_banner_delim: Option<String> = None;

        for (&line, kind) in lines.iter().zip(&kinds) {
            if let Some((marker, phase)) = &self.cfg.fault_marker {
                let armed = match phase {
                    BatchPhase::Discover => !self.emit,
                    BatchPhase::Rewrite => self.emit,
                    BatchPhase::Scan => false,
                };
                assert!(
                    !(armed && line.contains(marker.as_str())),
                    "injected fault: marker {marker:?} hit"
                );
            }
            stats.lines_total += 1;
            // Word counting: command-shaped lines count inside
            // `anonymize_command_line` (which tokenizes anyway); the
            // other kinds count here.
            match kind {
                LineKind::Blank => {
                    out.push('\n');
                }
                LineKind::Comment => {
                    let words = tokenize(line).len() as u64;
                    stats.words_total += words;
                    if self.enabled(RuleId::R03BangComments) {
                        stats.fire(RuleId::R03BangComments);
                        stats.comment_lines_stripped += 1;
                        // Keep the structural bang; drop the text. The
                        // bang itself is one "word" that survives.
                        stats.words_removed_as_comments += words.saturating_sub(1);
                        out.push_str("!\n");
                    } else {
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                LineKind::FreeText => {
                    if self.enabled(RuleId::R04DescriptionText) {
                        let words = tokenize(line).len() as u64;
                        stats.words_total += words;
                        stats.fire(RuleId::R04DescriptionText);
                        stats.freetext_lines_dropped += 1;
                        stats.words_removed_as_comments += words;
                        // Drop the whole line.
                    } else {
                        out.push_str(&self.anonymize_command_line(line, &mut stats));
                        out.push('\n');
                    }
                }
                LineKind::BannerHeader => {
                    let toks = tokenize(line);
                    let words = toks.len() as u64;
                    stats.words_total += words;
                    let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
                    // Track the delimiter only when the classifier actually
                    // opened a block: a self-closing one-line banner must
                    // not leave stale state behind, or an intact file would
                    // be miscounted as ending inside a banner.
                    current_banner_delim = confanon_iosparse::banner_delimiter(&texts)
                        .filter(|d| !confanon_iosparse::banner_self_closes(line, d));
                    if self.enabled(RuleId::R05BannerBlocks) {
                        stats.fire(RuleId::R05BannerBlocks);
                        // Keep `banner <type> <delim…>` but truncate any
                        // text after the opening delimiter on this line
                        // (one-line banners).
                        let kept = banner_header_skeleton(line);
                        let kept_words = tokenize(&kept).len() as u64;
                        stats.words_removed_as_comments += words.saturating_sub(kept_words);
                        out.push_str(&kept);
                        out.push('\n');
                    } else {
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                LineKind::BannerBody => {
                    let words = tokenize(line).len() as u64;
                    stats.words_total += words;
                    if self.enabled(RuleId::R05BannerBlocks) {
                        stats.banner_lines_dropped += 1;
                        stats.words_removed_as_comments += words;
                    } else {
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                LineKind::BannerEnd => {
                    let words = tokenize(line).len() as u64;
                    stats.words_total += words;
                    // The block closed: clear the open-delimiter state in
                    // both branches so EOF accounting stays accurate.
                    let delim = current_banner_delim.take().unwrap_or_default();
                    if self.enabled(RuleId::R05BannerBlocks) {
                        // Emit only the delimiter: the closing line may
                        // carry banner text before/after it (IOS discards
                        // text after the delimiter, but text *before* it
                        // is content — e.g. a body line that happens to
                        // contain the delimiter character).
                        let kept_words = u64::from(!delim.is_empty());
                        stats.words_removed_as_comments += words.saturating_sub(kept_words);
                        out.push_str(&delim);
                        out.push('\n');
                    } else {
                        out.push_str(line.trim_end());
                        out.push('\n');
                    }
                }
                LineKind::Command => {
                    out.push_str(&self.anonymize_command_line(line, &mut stats));
                    out.push('\n');
                }
            }
        }

        if current_banner_delim.take().is_some() {
            // The banner never closed before EOF (truncated or corrupt
            // file). The classifier already treated the whole tail as
            // banner text — counted in `banner_lines_dropped` above when
            // R05 is on — so nothing leaks; record that the file ended
            // inside a banner for the operator's report.
            stats.unterminated_banners += 1;
        }

        self.total_stats.merge(&stats);
        if !self.emit {
            // Discovery: the assembled fragments are meaningless; return
            // an empty text so no caller can mistake them for output.
            out.clear();
        }
        AnonymizedConfig { text: out, stats }
    }

    /// Token-level rewriting of one command line, borrow-or-own: the
    /// returned [`Cow`] is `Borrowed` (no allocation, no copy) exactly
    /// when no rewrite changed a byte of the line, and `Owned` otherwise.
    ///
    /// The borrow verdict is a *byte* property, not a rule-fire
    /// property: classification-only fires (a pass-listed keyword still
    /// fires R01, a special address passes through under R25) leave the
    /// line `Borrowed`, and a coincidental identity (a permutation
    /// fixed point emitting the original digits) is normalized back to
    /// "untouched" before assembly. DESIGN.md §17 states the invariant
    /// and the untouched-line identity proof. Output bytes, per-line
    /// stats, the leak record, and the emitted exclusions are pinned
    /// against a test-only reference line path — full context matcher
    /// on every line, every token owned, dense reassembly — by the
    /// differential properties in this module's `reference` tests.
    pub fn anonymize_command_line<'a>(
        &mut self,
        line: &'a str,
        stats: &mut AnonymizationStats,
    ) -> Cow<'a, str> {
        let toks = tokenize(line);
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        stats.words_total += texts.len() as u64;
        let mut out: Vec<Option<String>> = vec![None; texts.len()];

        // Prefilter fast path: most lines provably cannot fire a context
        // rule, and for those the lowercased line and the full
        // slice-pattern matcher are skipped wholesale. The verdict is a
        // conservative superset (see [`crate::rules::Prefilter`]), so
        // output bytes and rule fire counts are identical either way.
        if self.line_cache.classify(line, &mut self.prefilter_stats) == LineClass::ContextScan {
            // One lowercase copy of the whole line instead of one String
            // per token: ASCII lowercasing is byte-for-byte, so the token
            // spans index into the lowered copy directly.
            let lowered = line.to_ascii_lowercase();
            let lower: Vec<&str> = toks.iter().map(|t| &lowered[t.start..t.end()]).collect();
            self.apply_context_rules(&lower, &texts, &mut out, stats);
        }

        // Per-token pass for everything the context rules left alone;
        // `None` now means "kept verbatim" and stays `None`.
        for (i, tok) in texts.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            out[i] = self.rewrite_token(tok, stats);
        }

        if !self.emit {
            // Discovery discards all output; every counter and mapping
            // mutation above already happened.
            return Cow::Borrowed("");
        }
        // Normalize coincidental identities — a rewrite that emitted the
        // original bytes (permutation fixed point, context rule re-issuing
        // the token) — so the borrow verdict below means exactly "no byte
        // of this line changed".
        for (slot, text) in out.iter_mut().zip(&texts) {
            if slot.as_deref() == Some(*text) {
                *slot = None;
            }
        }
        self.rewrite_stats.lines_total += 1;
        self.rewrite_stats.allocations_avoided +=
            out.iter().filter(|s| s.is_none()).count() as u64;
        let rebuilt = rebuild_sparse(line, &toks, &out);
        match &rebuilt {
            Cow::Borrowed(_) => {
                self.rewrite_stats.lines_borrowed += 1;
                // The skipped line rebuild itself.
                self.rewrite_stats.allocations_avoided += 1;
            }
            Cow::Owned(_) => self.rewrite_stats.lines_rewritten += 1,
        }
        rebuilt
    }

    /// The line-context rules: the first anchor whose head the lowered
    /// line starts with runs its locator, if its rule is enabled (see
    /// [`crate::rules::Anchor`]); then R20's keyword trailer scans the
    /// whole line. Fills `out[i]` for every token it decides; leaves the
    /// rest `None`.
    fn apply_context_rules(
        &mut self,
        lower: &[&str],
        texts: &[&str],
        out: &mut [Option<String>],
        stats: &mut AnonymizationStats,
    ) {
        let n = texts.len();
        if let Some((rule, anchor)) = anchor_for(lower).filter(|(rule, _)| self.enabled(*rule)) {
            match anchor.locator {
                Locator::Asn(i) => self.asn_at(i, texts, out, stats, rule),
                Locator::AsnsFrom(from) => {
                    for i in from..n {
                        self.asn_at(i, texts, out, stats, rule);
                    }
                }
                Locator::AsnAfterRemoteAs => {
                    if let Some(pos) = lower.iter().position(|t| *t == REMOTE_AS) {
                        self.asn_at(pos + 1, texts, out, stats, rule);
                    }
                }
                Locator::AsnThenAlternates(i) => {
                    self.asn_at(i, texts, out, stats, rule);
                    let rest = lower.get(i + 1..).unwrap_or_default();
                    if let Some(pos) = rest.iter().position(|t| *t == ALTERNATE_AS) {
                        for j in i + pos + 2..n {
                            self.asn_at(j, texts, out, stats, rule);
                        }
                    }
                }
                Locator::CommunitiesFrom(from) => {
                    for i in from..n {
                        if let Some(mapped) = self.try_community(texts[i], stats) {
                            stats.fire(rule);
                            out[i] = Some(mapped);
                        }
                    }
                }
                Locator::AsPathRegex(from) => {
                    self.rewrite_regex_tokens(from, texts, out, stats, RegexDomain::AsPath);
                }
                // Literal communities map one by one (a token the map
                // then refuses hashes whole: never emit the original);
                // anything else is one community regexp.
                Locator::CommunityList(from) if from < n => {
                    if texts[from..]
                        .iter()
                        .all(|t| self.community.map_token(t).is_some())
                    {
                        for i in from..n {
                            let mapped = match self.try_community(texts[i], stats) {
                                Some(m) => m,
                                None => self.hash_emit(texts[i]),
                            };
                            stats.fire(rule);
                            out[i] = Some(mapped);
                        }
                    } else {
                        self.rewrite_regex_tokens(from, texts, out, stats, RegexDomain::Community);
                    }
                }
                Locator::Phone(i) if i < n => {
                    stats.fire(rule);
                    stats.phone_numbers_mapped += 1;
                    let image = self.map_phone(texts[i]);
                    self.emitted.insert(image.clone());
                    out[i] = Some(image);
                }
                // A server address is left to the per-token IP rule.
                Locator::ServerName(i) if i < n && texts[i].parse::<Ip>().is_ok() => {}
                Locator::HashWhole(i) | Locator::Secret(i) | Locator::ServerName(i) if i < n => {
                    stats.fire(rule);
                    if matches!(anchor.locator, Locator::Secret(_)) {
                        stats.secrets_hashed += 1;
                    }
                    self.record_word(texts[i]);
                    out[i] = Some(self.hash_emit(texts[i]));
                }
                // Out of range: the line ends at the head.
                Locator::CommunityList(_)
                | Locator::HashWhole(_)
                | Locator::Secret(_)
                | Locator::Phone(_)
                | Locator::ServerName(_) => {}
            }
        }
        self.hash_after_keyword(lower, texts, out, stats);
    }

    /// Permutes the ASN token at `i` if it parses as a 16-bit number; a
    /// wider one is declined and recorded if public (see
    /// [`Locator::Asn`]).
    fn asn_at(
        &mut self,
        i: usize,
        texts: &[&str],
        out: &mut [Option<String>],
        stats: &mut AnonymizationStats,
        rule: RuleId,
    ) {
        let Some(tok) = texts.get(i) else {
            return;
        };
        let Ok(asn) = tok.parse::<u16>() else {
            self.record_wide_asn(tok);
            return;
        };
        stats.fire(rule);
        stats.asns_mapped += 1;
        if confanon_asnanon::map::is_public(asn) {
            self.record.asns.insert(asn.to_string());
        }
        let image = self.asn_map().map(asn).to_string();
        self.emitted.insert(image.clone());
        out[i] = Some(image);
    }

    /// Records, as written, an ASN token the 16-bit map declined when it
    /// is public in the 4-byte space (RFC 6793): asplain digits, or asdot
    /// `X.Y` with `1 ≤ X ≤ 65535` and `Y ≤ 65535`, which is `65536·X + Y`.
    /// The leak gate then withholds any output that releases it.
    fn record_wide_asn(&mut self, tok: &str) {
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let asn = match tok.split_once('.') {
            Some((x, y)) if digits(x) && digits(y) => match (x.parse::<u16>(), y.parse::<u16>()) {
                (Ok(x), Ok(y)) if x >= 1 => Some((u32::from(x) << 16) | u32::from(y)),
                _ => None,
            },
            None if digits(tok) => tok.parse::<u32>().ok(),
            _ => None,
        };
        if asn.is_some_and(is_public32) {
            self.record.asns.insert(tok.to_string());
        }
    }

    /// Maps a community literal token, recording the ASN half. With R27
    /// disabled (ablation) the value half keeps its original integer —
    /// exactly the information/anonymity trade-off of §4.5. A community
    /// with a half wider than 16 bits, or an asdot ASN half (`4.10:100`),
    /// is declined, its ASN half recorded if public.
    fn try_community(&mut self, token: &str, stats: &mut AnonymizationStats) -> Option<String> {
        let (a, v) = token.split_once(':')?;
        if !v.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        if !a.bytes().all(|b| b.is_ascii_digit()) {
            self.record_wide_asn(a);
            return None;
        }
        let (Ok(asn), Ok(value)) = (a.parse::<u16>(), v.parse::<u16>()) else {
            self.record_wide_asn(a);
            return None;
        };
        stats.communities_mapped += 1;
        if confanon_asnanon::map::is_public(asn) {
            self.record.asns.insert(asn.to_string());
        }
        let ma = self.asn_map().map(asn);
        let mv = if self.enabled(RuleId::R27CommunityValueHashing) {
            stats.fire(RuleId::R27CommunityValueHashing);
            self.community.map_value(value)
        } else {
            value
        };
        self.emitted.insert(ma.to_string());
        self.emitted.insert(mv.to_string());
        Some(format!("{ma}:{mv}"))
    }

    /// Rewrites the regexp occupying tokens `from..` (joined by spaces).
    ///
    /// The §4.4 enumeration runs once per distinct (domain, pattern) and
    /// is interned in [`Anonymizer::regex_memo`]; everything else — the
    /// rule fire, the counters, the R28 leak-record and emitted-image
    /// inserts, and the whole-pattern hash of an unparseable pattern —
    /// happens per occurrence, so a memo hit is indistinguishable from
    /// a fresh rewrite.
    fn rewrite_regex_tokens(
        &mut self,
        from: usize,
        texts: &[&str],
        out: &mut [Option<String>],
        stats: &mut AnonymizationStats,
        domain: RegexDomain,
    ) {
        if from >= texts.len() {
            return;
        }
        let rule = match domain {
            RegexDomain::AsPath => RuleId::R09AsPathAccessListRegex,
            RegexDomain::Community => RuleId::R12CommunityListPattern,
        };
        let key = (domain, texts[from..].join(" "));
        let rewritten = self.regex_memo.get_or_rewrite(&key, || {
            let opts = RewriteOptions {
                compact: self.cfg.compact_regexps,
            };
            let fresh = match domain {
                RegexDomain::AsPath => rewrite_aspath_regex_full(&key.1, self.asn_map(), opts),
                RegexDomain::Community => {
                    rewrite_community_regex_full(&key.1, &self.community, opts)
                }
            };
            fresh.ok().map(Arc::new)
        });
        stats.fire(rule);
        out[from] = Some(match rewritten {
            Some(r) => {
                // Record exactly the public ASNs the original pattern
                // named (R28): the pre-image language of its atoms, plus
                // the public 4-byte ASNs it spells, which match no
                // 16-bit ASN and so survive the rewrite.
                if self.enabled(RuleId::R28LeakHighlighting) {
                    for asn in &r.public_asns_named {
                        self.record.asns.insert(asn.to_string());
                    }
                    for run in key.1.split(|c: char| !c.is_ascii_digit()) {
                        if !run.is_empty() && run.parse::<u16>().is_err() {
                            self.record_wide_asn(run);
                        }
                    }
                }
                stats.regexps_rewritten += 1;
                // Every 16-bit digit run the rewritten pattern contains
                // is an emitted image; no image is wider.
                for run in r.pattern.split(|c: char| !c.is_ascii_digit()) {
                    if run.parse::<u16>().is_ok() && !self.emitted.contains(run) {
                        self.emitted.insert(run.to_string());
                    }
                }
                if self.emit {
                    r.pattern.clone()
                } else {
                    String::new()
                }
            }
            None => {
                // Conservative fallback: an unparseable pattern is hashed
                // whole. Structure dies, anonymity survives.
                stats.regexps_fallback_hashed += 1;
                self.hash_emit(&key.1)
            }
        });
        for slot in out.iter_mut().take(texts.len()).skip(from + 1) {
            *slot = Some(String::new());
        }
    }

    /// R20's trailer: hashes every token following one of the
    /// [`SECRET_KEYWORDS`], skipping a single-digit encryption-type code
    /// (`password 7 ABCDEF`).
    fn hash_after_keyword(
        &mut self,
        lower: &[&str],
        texts: &[&str],
        out: &mut [Option<String>],
        stats: &mut AnonymizationStats,
    ) {
        if !self.enabled(RuleId::R20SecretsAndKeys) {
            return;
        }
        #[allow(clippy::needless_range_loop)] // indexes three slices
        for i in 0..lower.len() {
            if SECRET_KEYWORDS.contains(&lower[i]) {
                let mut j = i + 1;
                if j < texts.len() && texts[j].len() == 1 && texts[j].chars().all(|c| c.is_ascii_digit()) {
                    j += 1; // encryption type code
                }
                if j < texts.len() && out[j].is_none() {
                    stats.fire(RuleId::R20SecretsAndKeys);
                    stats.secrets_hashed += 1;
                    self.record_word(texts[j]);
                    out[j] = Some(self.hash_emit(texts[j]));
                }
            }
        }
    }

    fn record_word(&mut self, word: &str) {
        if self.enabled(RuleId::R28LeakHighlighting) {
            // Record the alphabetic segments (the scanner matches runs).
            for seg in segment(word) {
                if let Segment::Alpha(a) = seg {
                    if !self.cfg.pass_list.contains(a) {
                        self.record_alpha(a);
                    }
                }
            }
        }
    }

    /// Records one already-segmented, non-pass-list alphabetic run,
    /// skipping the lowercase allocation when the run is already
    /// lowercase and present (the common repeat case on the hot path).
    fn record_alpha(&mut self, a: &str) {
        if a.bytes().any(|b| b.is_ascii_uppercase()) {
            self.record.words.insert(a.to_ascii_lowercase());
        } else if !self.record.words.contains(a) {
            self.record.words.insert(a.to_string());
        }
    }

    /// Keyed re-digiting of a phone number: digits map to digits, other
    /// characters (quotes, dashes) survive.
    fn map_phone(&self, token: &str) -> String {
        let digest = self.hasher.digest(&format!("phone:{token}"));
        let mut di = 0usize;
        token
            .chars()
            .map(|c| {
                if c.is_ascii_digit() {
                    let d = digest[di % digest.len()] % 10;
                    di += 1;
                    char::from(b'0' + d)
                } else {
                    c
                }
            })
            .collect()
    }

    /// The generic per-token transformation — addresses, prefixes,
    /// community literals, numbers, and the segmentation + pass-list +
    /// hash fallback, which also maps the dotted quads of a compound
    /// token's non-alphabetic segments — in borrow-or-own form: returns
    /// `None` — no allocation — when the token is kept verbatim (pure
    /// numbers, pass-listed words, disabled-rule keeps). During
    /// discovery it always returns `None`: output is discarded, and the
    /// side effects above are all that matters.
    fn rewrite_token(&mut self, tok: &str, stats: &mut AnonymizationStats) -> Option<String> {
        // First-byte dispatch: every numeric form below — IPv4 literal,
        // prefix token, classic and large community, bare integer — is
        // strict-decimal and therefore starts with a digit, and the IPv6
        // forms require a ':' somewhere in the token. One byte-class
        // table load lets the common keyword token (`interface`,
        // `neighbor`, …) skip every parse attempt wholesale; the order of
        // checks inside each arm is the reference path's order, so rule
        // fires and side effects are unchanged.
        let first = tok.as_bytes().first().copied().unwrap_or(b' ');
        if BYTE_CLASS[usize::from(first)] & CLASS_DIGIT != 0 {
            // R22/R24/R25: IPv4 literal.
            if let Ok(ip) = tok.parse::<Ip>() {
                if self.enabled(RuleId::R22Ipv4Literal) {
                    let mapped = self.map_ip(ip, stats);
                    return self.emit.then(|| mapped.to_string());
                }
                return None;
            }
            // R23: prefix token `a.b.c.d/len`. A length past 32 is no
            // prefix: the token falls through to the compound-token pass,
            // which maps its quad under R22 and keeps `/len` as written.
            if let Some((addr, len)) = tok.split_once('/') {
                if let (Ok(ip), Ok(len)) = (addr.parse::<Ip>(), len.parse::<u8>()) {
                    if !self.enabled(RuleId::R23PrefixToken) {
                        return None;
                    }
                    if len <= 32 {
                        stats.fire(RuleId::R23PrefixToken);
                        let mapped = self.map_ip(ip, stats);
                        return self.emit.then(|| format!("{mapped}/{len}"));
                    }
                }
            }
            // R14: bare community attribute — classic `asn:value` or RFC
            // 8092 large `ga:d1:d2`.
            if self.enabled(RuleId::R14CommunityAttributeToken) {
                if let Some(mapped) = self.try_community(tok, stats) {
                    stats.fire(RuleId::R14CommunityAttributeToken);
                    return Some(mapped);
                }
                if let Some(mapped) = self.large_community.map_token(tok) {
                    stats.fire(RuleId::R14CommunityAttributeToken);
                    stats.communities_mapped += 1;
                    if let Some(ga) = tok.split(':').next() {
                        if ga.parse::<u32>().is_ok_and(confanon_asnanon::is_public32) {
                            self.record.asns.insert(ga.to_string());
                        }
                    }
                    for field in mapped.split(':') {
                        self.emitted.insert(field.to_string());
                    }
                    return Some(mapped);
                }
            }
            if tok.contains(':') {
                if let Some(result) = self.rewrite_ipv6_forms(tok, stats) {
                    return result;
                }
            }
            // Simple integers are generally not anonymized (§4.1): kept
            // verbatim with no clone.
            if tok.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
        } else if tok.contains(':') {
            if let Some(result) = self.rewrite_ipv6_forms(tok, stats) {
                return result;
            }
        }
        // R22 on the dotted quads inside a compound token
        // (`tftp://12.1.1.1/cfg`, `12.1.1.1:100`), and R01/R02/R26:
        // segmentation, pass-list, hash.
        let hashing = self.enabled(RuleId::R26TokenHashing);
        let mapping = self.enabled(RuleId::R22Ipv4Literal);
        if !hashing && !mapping {
            return None;
        }
        // Fast path: a token that is one pure alphabetic run (most IOS
        // keywords) needs no segment vector — one byte-class scan and
        // one pass-list lookup decide it.
        if tok.bytes().all(|b| BYTE_CLASS[b as usize] & CLASS_ALPHA != 0) {
            if !hashing {
                return None;
            }
            stats.fire(RuleId::R01SplitAlphaRuns);
            if self.cfg.pass_list.contains(tok) {
                stats.segments_passed += 1;
                return None;
            }
            stats.fire(RuleId::R26TokenHashing);
            stats.segments_hashed += 1;
            if self.enabled(RuleId::R28LeakHighlighting) {
                self.record_alpha(tok);
            }
            return self.emit.then(|| self.hash_emit(tok));
        }
        let segs = segment(tok);
        if hashing && segs.len() > 1 {
            // R02: punctuation split the word into independently checked
            // segments (`cr1.lax.foo.com`, `Ethernet0/0`).
            stats.fire(RuleId::R02SplitPunctuation);
        }
        // Pass 1 — classification and side effects only: decide whether
        // any alphabetic segment actually hashes, and map every dotted
        // quad of the other segments, once per occurrence. If nothing
        // hashes or maps, the token is byte-identical and no assembly
        // happens at all.
        let mut any_hashed = false;
        let mut images = Vec::new();
        for seg in &segs {
            match *seg {
                Segment::Alpha(a) if hashing => {
                    if self.cfg.pass_list.contains(a) {
                        stats.segments_passed += 1;
                    } else {
                        any_hashed = true;
                        stats.fire(RuleId::R26TokenHashing);
                        stats.segments_hashed += 1;
                        // `a` is already one non-pass-list alpha segment,
                        // so the re-segmentation in `record_word` is
                        // skipped.
                        if self.enabled(RuleId::R28LeakHighlighting) {
                            self.record_alpha(a);
                        }
                    }
                }
                Segment::Other(o) if mapping => {
                    for (_, ip) in quads_in(o) {
                        images.push(self.map_ip(ip, stats));
                    }
                }
                _ => {}
            }
        }
        if hashing {
            stats.fire(RuleId::R01SplitAlphaRuns);
        }
        if !self.emit || (!any_hashed && images.is_empty()) {
            return None;
        }
        // Pass 2 — assembly, emit mode only, reusing pass 1's images.
        let mut images = images.into_iter();
        let mut outb = String::with_capacity(tok.len());
        for seg in segs {
            match seg {
                Segment::Other(o) if mapping => {
                    let mut kept = 0;
                    for ((run, _), image) in quads_in(o).zip(images.by_ref()) {
                        outb.push_str(&o[kept..run.start]);
                        outb.push_str(&image.to_string());
                        kept = run.end;
                    }
                    outb.push_str(&o[kept..]);
                }
                Segment::Alpha(a) if hashing && !self.cfg.pass_list.contains(a) => {
                    let h = self.hash_emit(a);
                    outb.push_str(&h);
                }
                Segment::Other(kept) | Segment::Alpha(kept) => outb.push_str(kept),
            }
        }
        Some(outb)
    }

    /// R22/R23 for IPv6 (post-paper extension), shared by both arms of
    /// [`Anonymizer::rewrite_token`]'s first-byte dispatch. Returns
    /// `Some(result)` when the token matched an IPv6 form — `result` is
    /// the emit-gated replacement to return as-is — and `None` when the
    /// token is not IPv6-shaped (caller falls through to the next check).
    fn rewrite_ipv6_forms(
        &mut self,
        tok: &str,
        stats: &mut AnonymizationStats,
    ) -> Option<Option<String>> {
        if !self.enabled(RuleId::R22Ipv4Literal) {
            return None;
        }
        if let Ok(ip6) = tok.parse::<Ip6>() {
            let mapped = self.map_ip6(ip6, stats);
            return Some(self.emit.then(|| mapped.to_string()));
        }
        if let Some((addr, len)) = tok.rsplit_once('/') {
            if let (Ok(ip6), Ok(len)) = (addr.parse::<Ip6>(), len.parse::<u8>()) {
                if len <= 128 {
                    stats.fire(RuleId::R23PrefixToken);
                    let mapped = self.map_ip6(ip6, stats);
                    return Some(self.emit.then(|| format!("{mapped}/{len}")));
                }
            }
        }
        None
    }

    /// Maps one address with recording and stats.
    fn map_ip(&mut self, ip: Ip, stats: &mut AnonymizationStats) -> Ip {
        if special_kind(ip).is_some()
            && self.enabled(RuleId::R25SpecialAddressPassthrough) {
                stats.fire(RuleId::R25SpecialAddressPassthrough);
                stats.ips_special_passthrough += 1;
                return ip;
            }
            // Ablation: treat as ordinary (this is precisely the bug the
            // rule exists to prevent; the validation suite catches it).
        stats.fire(RuleId::R22Ipv4Literal);
        if self.enabled(RuleId::R24SubnetAddressPreserve) && ip.0.trailing_zeros() >= 8 {
            // Subnet-address preservation applies to this mapping.
            stats.fire(RuleId::R24SubnetAddressPreserve);
        }
        stats.ips_mapped += 1;
        // Shard-scan observe mode: the image depends on shared trie
        // order, so defer it — along with the leak-record and emitted-set
        // entries of a fresh address — to the canonical replay. The
        // return value only feeds output assembly, which discovery
        // discards.
        if let Some(log) = self.observe.as_mut() {
            log.note_v4(ip);
            return ip;
        }
        if let Some(&image) = self.journal.images4.get(&ip.0) {
            return image;
        }
        let image = self.image4(ip);
        self.journal.push4(ip, image);
        self.record_fresh(ip, image);
        image
    }

    /// The image of a v4 address under the configured scheme (creating
    /// its trie path on first sight; sticky thereafter).
    fn image4(&mut self, ip: Ip) -> Ip {
        match self.cfg.ip_scheme {
            IpScheme::StructurePreserving => self.ip.anonymize(ip),
            IpScheme::Scramble => self.scramble.anonymize(ip),
        }
    }

    /// The per-identifier bookkeeping of an address just journaled as
    /// fresh: the original into the leak record (R28), the image into
    /// the emitted set. A journaled address already has both, with the
    /// same sticky image, so only fresh addresses pay the formatting.
    fn record_fresh(&mut self, original: impl Display, image: impl Display) {
        if self.enabled(RuleId::R28LeakHighlighting) {
            self.record.ips.insert(original.to_string());
        }
        self.emitted.insert(image.to_string());
    }
}

impl Anonymizer {
    /// Maps one IPv6 address with recording and stats.
    fn map_ip6(&mut self, ip: Ip6, stats: &mut AnonymizationStats) -> Ip6 {
        if special6_kind(ip).is_some()
            && self.enabled(RuleId::R25SpecialAddressPassthrough) {
                stats.fire(RuleId::R25SpecialAddressPassthrough);
                stats.ips_special_passthrough += 1;
                return ip;
            }
        stats.fire(RuleId::R22Ipv4Literal);
        stats.ips6_mapped += 1;
        // See `map_ip`: trie-order-dependent and per-identifier work
        // defers to the replay.
        if let Some(log) = self.observe.as_mut() {
            log.note_v6(ip);
            return ip;
        }
        if let Some(&image) = self.journal.images6.get(&ip.0) {
            return image;
        }
        let image = self.ip6.anonymize(ip);
        self.journal.push6(ip, image);
        self.record_fresh(ip, image);
        image
    }

    /// A copy of `self` for one discovery or rewrite worker: everything
    /// but the leak record and the emitted-image set, which start empty.
    /// No rewrite reads those two sets and a rewrite worker is dropped
    /// after its pass, so copying them — the bulk of a warmed
    /// anonymizer — would be wasted; a shard observer needs them empty
    /// anyway. The destructuring names every field, so a field added
    /// later must be placed here on purpose.
    pub(crate) fn worker_copy(&self) -> Anonymizer {
        let Anonymizer {
            cfg,
            hasher,
            ip,
            ip6,
            scramble,
            community,
            large_community,
            record: _,
            emitted: _,
            total_stats,
            emit,
            line_cache,
            prefilter_stats,
            hash_memo,
            regex_memo,
            rewrite_stats,
            observe,
            journal,
        } = self;
        Anonymizer {
            cfg: cfg.clone(),
            hasher: hasher.clone(),
            ip: ip.clone(),
            ip6: ip6.clone(),
            scramble: scramble.clone(),
            community: community.clone(),
            large_community: large_community.clone(),
            record: LeakRecord::default(),
            emitted: BTreeSet::new(),
            total_stats: total_stats.clone(),
            emit: *emit,
            line_cache: line_cache.clone(),
            prefilter_stats: *prefilter_stats,
            hash_memo: hash_memo.clone(),
            regex_memo: Arc::clone(regex_memo),
            rewrite_stats: *rewrite_stats,
            observe: observe.clone(),
            journal: journal.clone(),
        }
    }

    /// A copy prepared for one spawned discovery shard: empty
    /// accumulators (so absorbing it back never double-counts) and an
    /// armed observation log (so its scans log trie insertions instead of
    /// performing them). Shares the keyed stateless maps, the regexp
    /// memo and the enabled-rule set with `self`.
    pub(crate) fn observer(&self) -> Anonymizer {
        let mut a = self.worker_copy();
        a.total_stats = AnonymizationStats::default();
        a.prefilter_stats = PrefilterStats::default();
        a.rewrite_stats = RewriteStats::default();
        a.start_observing();
        a
    }

    /// Arms a fresh observation log: from now on scans log the trie
    /// insertions they would have made instead of making them, while
    /// every order-independent accumulator fills in place. Discovery's
    /// first shard observes this way on the retained anonymizer itself.
    pub(crate) fn start_observing(&mut self) {
        self.observe = Some(ObservationLog::default());
    }

    /// Disarms the observation log and returns what it logged.
    pub(crate) fn stop_observing(&mut self) -> ObservationLog {
        self.observe.take().unwrap_or_default()
    }

    /// One file of a shard scan: positions the observation log at
    /// `file_idx` and runs the full discovery pipeline over `text`.
    pub(crate) fn observe_file(&mut self, file_idx: u64, text: &str) -> AnonymizationStats {
        if let Some(log) = self.observe.as_mut() {
            log.begin_file(file_idx);
        }
        self.discover_config(text)
    }

    /// Folds a finished shard worker's order-independent accumulators
    /// into `self` (all commutative merges) and returns its observation
    /// log for the canonical replay.
    pub(crate) fn absorb_observer(&mut self, shard: Anonymizer) -> ObservationLog {
        self.record.merge(&shard.record);
        self.emitted.extend(shard.emitted);
        self.total_stats.merge(&shard.total_stats);
        self.prefilter_stats.absorb(&shard.prefilter_stats);
        self.rewrite_stats.absorb(&shard.rewrite_stats);
        shard.observe.unwrap_or_default()
    }

    /// Replays the observed identifiers, in canonical first-occurrence
    /// order, against the real mapping state, as the deferred
    /// `map_ip`/`map_ip6` calls would have run: a fresh address gets its
    /// image (mutating the trie), its original in the leak record and its
    /// image in the emitted set; an address already journaled (mapped by
    /// an earlier file or a restored state) changes nothing. The tries
    /// are driven in order first; the strings then file into each set in
    /// one sorted merge (`BTreeSet::append`), which moves each string once
    /// instead of searching the tree for it.
    pub(crate) fn replay_observed(&mut self, observed: Vec<ObservedIp>) {
        let first = self.journal.order.len();
        let images: Vec<String> = observed
            .into_iter()
            .filter_map(|obs| self.journal_fresh(obs))
            .map(|image| image.to_string())
            .collect();
        if self.enabled(RuleId::R28LeakHighlighting) {
            let originals = self.journal.order[first..].iter().map(ObservedIp::to_string);
            self.record.ips.append(&mut originals.collect());
        }
        self.emitted.append(&mut images.into_iter().collect());
    }

    /// Journals `obs` if it is new: a fresh address is mapped (creating
    /// its trie path), journaled beside its image, and the image
    /// returned.
    fn journal_fresh(&mut self, obs: ObservedIp) -> Option<ObservedIp> {
        if self.journal.image(obs).is_some() {
            return None;
        }
        Some(match obs {
            ObservedIp::V4(ip) => {
                let image = self.image4(ip);
                self.journal.push4(ip, image);
                ObservedIp::V4(image)
            }
            ObservedIp::V6(ip) => {
                let image = self.ip6.anonymize(ip);
                self.journal.push6(ip, image);
                ObservedIp::V6(image)
            }
        })
    }

    /// Prefilter fast/slow/cache counters accumulated so far (summed in
    /// from the spawned shards after discovery).
    pub fn prefilter_stats(&self) -> &PrefilterStats {
        &self.prefilter_stats
    }

    /// Borrow-or-own rewrite counters accumulated so far (emit-mode
    /// only; see [`RewriteStats`]).
    pub fn rewrite_stats(&self) -> &RewriteStats {
        &self.rewrite_stats
    }

    /// Takes (and resets) the accumulated rewrite counters — how the
    /// batch layer extracts a per-file delta from a rewrite worker.
    pub fn take_rewrite_stats(&mut self) -> RewriteStats {
        std::mem::take(&mut self.rewrite_stats)
    }

    /// The identifier journal: every distinct trie-mapped address in
    /// first-mapped order. Replaying it through a fresh anonymizer with
    /// the same secret rebuilds the mapping state exactly (persistent
    /// state rests on this; see `crate::state`).
    pub fn journal(&self) -> &[ObservedIp] {
        &self.journal.order
    }

    /// Replays a persisted identifier journal into this (fresh)
    /// anonymizer: rebuilds the tries through the original insertion
    /// sequence and re-populates the journal itself. The leak record and
    /// the emitted set are not touched; [`Self::adopt_recorded`] takes
    /// them from the same document.
    pub(crate) fn replay_journal(&mut self, entries: &[ObservedIp]) {
        for &obs in entries {
            self.journal_fresh(obs);
        }
    }

    /// Adopts a persisted leak record and emitted-image set after
    /// [`Self::replay_journal`]. Into a fresh anonymizer (every caller's
    /// case) the sets are taken as they are; into one that has already
    /// recorded something they are unioned. With leak-highlighting (R28)
    /// on, every journaled address must be in the record; a record
    /// saved with R28 off lacks them, and then the journal is formatted
    /// into it. A captured record's addresses are a subset of its
    /// journal's, so equal counts mean equal sets and the check is a
    /// length comparison.
    pub(crate) fn adopt_recorded(&mut self, record: &LeakRecord, emitted: &BTreeSet<String>) {
        if self.record.is_empty() {
            self.record = record.clone();
        } else {
            self.record.merge(record);
        }
        if self.emitted.is_empty() {
            self.emitted = emitted.clone();
        } else {
            self.emitted.extend(emitted.iter().cloned());
        }
        if self.enabled(RuleId::R28LeakHighlighting)
            && self.record.ips.len() < self.journal.order.len()
        {
            let formatted = self.journal.order.iter().map(ObservedIp::to_string);
            self.record.ips.extend(formatted);
        }
    }

    /// Folds an externally stored per-file stats block into the running
    /// totals — how a warm run accounts for files it skipped scanning.
    pub fn absorb_stats(&mut self, stats: &AnonymizationStats) {
        self.total_stats.merge(stats);
    }

    /// Folds externally stored prefilter path counts (per-line pure
    /// functions, so stored per-file counts sum exactly like a rescan).
    pub fn absorb_prefilter_counts(&mut self, fast_path_lines: u64, slow_path_lines: u64) {
        self.prefilter_stats.fast_path_lines += fast_path_lines;
        self.prefilter_stats.slow_path_lines += slow_path_lines;
    }

    /// Structure digests of the (v4, v6) tries — the post-replay
    /// integrity check for persisted state.
    pub fn trie_digests(&self) -> (u64, u64) {
        (self.ip.structure_digest(), self.ip6.structure_digest())
    }

    /// Domain-separated check value over every keyed permutation the
    /// anonymizer uses (ASN, community value, large-community halves),
    /// as a hex string. Persisted state stores it so a load under
    /// different permutation parameters is refused even if the secret
    /// fingerprint were to collide.
    pub fn perm_fingerprint(&self) -> String {
        let a = self.community.check_value();
        let b = self.large_community.check_value();
        format!("{a:016x}{b:016x}")
    }
}

/// Regexp domains for [`Anonymizer::rewrite_regex_tokens`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum RegexDomain {
    AsPath,
    Community,
}

/// The dotted quads inside a non-alphabetic segment, with their byte
/// ranges: every maximal digit-and-dot run whose core, the run without
/// its leading and trailing dots, parses as IPv4 (`12.1.1.1.` holds
/// one). A core of more or fewer than four parts (`1.3.6.1.4.1.9`,
/// `0/0.5`, `12.1.1.1.5`) is none.
fn quads_in(seg: &str) -> impl Iterator<Item = (std::ops::Range<usize>, Ip)> + '_ {
    let bytes = seg.as_bytes();
    let in_run = |b: u8| b.is_ascii_digit() || b == b'.';
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if !in_run(bytes[i]) {
                i += 1;
                continue;
            }
            let mut start = i;
            while i < bytes.len() && in_run(bytes[i]) {
                i += 1;
            }
            let mut end = i;
            while start < end && bytes[start] == b'.' {
                start += 1;
            }
            while end > start && bytes[end - 1] == b'.' {
                end -= 1;
            }
            // The shortest quad is `0.0.0.0`.
            if end - start >= 7 {
                if let Ok(ip) = seg[start..end].parse::<Ip>() {
                    return Some((start..end, ip));
                }
            }
        }
        None
    })
}

/// Truncates a banner header to `banner <type> <delim>` (drops any
/// same-line banner text).
fn banner_header_skeleton(line: &str) -> String {
    let toks = tokenize(line);
    if toks.len() < 3 {
        return line.trim_end().to_string();
    }
    let delim_tok = toks[2].text;
    let delim: String = if delim_tok.starts_with('^') && delim_tok.len() >= 2 {
        delim_tok[..2].to_string()
    } else {
        delim_tok.chars().take(1).collect()
    };
    format!("{} {} {}", toks[0].text, toks[1].text, delim)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::FIGURE1_CONFIG;

    fn run(text: &str) -> AnonymizedConfig {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"test-secret".to_vec()));
        a.anonymize_config(text)
    }

    #[test]
    fn figure1_end_to_end_removes_identity() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"test-secret".to_vec()));
        let out = a.anonymize_config(FIGURE1_CONFIG);
        // Identity words: these cannot appear even as substrings (the
        // hash alphabet is hex, which cannot spell any of them).
        for leak in ["foo", "lax", "uunet", "sfo", "xxx", "main st"] {
            assert!(
                !out.text.to_ascii_lowercase().contains(leak),
                "{leak:?} survived:\n{}",
                out.text
            );
        }
        // Numbers and addresses: whole-token scan via the §6.1 scanner,
        // excluding legitimate permutation images (a mapped ASN may
        // coincide with another recorded ASN's digits).
        let rec = a.leak_record().clone();
        let mut images: Vec<String> = rec
            .asns
            .iter()
            .map(|s| a.asn_map().map(s.parse().unwrap()).to_string())
            .collect();
        // Legitimate community-value images from the rewritten
        // `701:7[1-5]..` pattern: values 7100..=7599 permute into the
        // output, and any of them may collide with a recorded ASN's
        // digits. The §6.1 reviewer dismisses those from context.
        images.extend((7100u16..=7599).map(|v| a.community_map().map_value(v).to_string()));
        let report = crate::leak::LeakScanner::scan_excluding(&rec, images, &out.text);
        assert!(report.is_clean(), "leaks: {:#?}", report.leaks);
    }

    #[test]
    fn figure1_preserves_structure() {
        let out = run(FIGURE1_CONFIG);
        // Keywords survive.
        for kept in [
            "interface Ethernet0",
            "router bgp",
            "redistribute rip",
            "route-map",
            "255.255.255.0",
            "router rip",
            "access-list 143 permit ip",
        ] {
            assert!(out.text.contains(kept), "{kept:?} lost:\n{}", out.text);
        }
    }

    #[test]
    fn referential_integrity_of_route_map_names() {
        let out = run(FIGURE1_CONFIG);
        // `UUNET-import` appears at a use (line 19) and a definition
        // (lines 22, 25); after anonymization the same hashed form must
        // appear at all three places.
        let hashed: Vec<&str> = out
            .text
            .lines()
            .filter(|l| l.contains("route-map") && l.contains("-import"))
            .collect();
        assert!(hashed.len() >= 3, "{:?}", hashed);
        let name = hashed[0]
            .split_whitespace()
            .find(|t| t.ends_with("-import"))
            .unwrap();
        for l in &hashed {
            assert!(l.contains(name), "inconsistent name in {l}");
        }
    }

    #[test]
    fn subnet_contains_relationship_preserved() {
        // Figure 1: RIP's `network 1.0.0.0` must still contain the
        // interface address post-anonymization.
        let out = run(FIGURE1_CONFIG);
        let mut rip_net = None;
        let mut eth_addr = None;
        for l in out.text.lines() {
            if let Some(rest) = l.trim().strip_prefix("network ") {
                rip_net = Some(rest.trim().parse::<Ip>().unwrap());
            }
            if l.trim().starts_with("ip address") {
                let t: Vec<&str> = l.split_whitespace().collect();
                if eth_addr.is_none() {
                    eth_addr = Some(t[2].parse::<Ip>().unwrap());
                }
            }
        }
        let (net, host) = (rip_net.unwrap(), eth_addr.unwrap());
        assert!(
            confanon_netprim::Prefix::new(net, 8).contains(host),
            "{net} no longer contains {host}"
        );
    }

    #[test]
    fn masks_and_wildcards_survive() {
        let out = run(" ip address 1.2.3.4 255.255.255.252\naccess-list 1 permit 1.2.3.0 0.0.0.255\n");
        assert!(out.text.contains("255.255.255.252"));
        assert!(out.text.contains("0.0.0.255"));
        assert!(!out.text.contains("1.2.3.4"));
    }

    #[test]
    fn asn_consistency_across_lines_and_files() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"s".to_vec()));
        let o1 = a.anonymize_config("router bgp 701\n");
        let o2 = a.anonymize_config(" neighbor 9.9.9.9 remote-as 701\n");
        let asn1 = o1.text.split_whitespace().last().unwrap().to_string();
        let asn2 = o2.text.split_whitespace().last().unwrap().to_string();
        assert_eq!(asn1, asn2);
        assert_ne!(asn1, "701");
    }

    #[test]
    fn private_asns_unchanged() {
        let out = run("router bgp 65001\n");
        assert!(out.text.contains("65001"));
    }

    #[test]
    fn comments_stripped_and_counted() {
        let out = run("! Foo Corp core router\nhostname r1\n");
        assert!(out.text.starts_with("!\n"));
        assert!(!out.text.to_lowercase().contains("foo"));
        assert_eq!(out.stats.comment_lines_stripped, 1);
        assert_eq!(out.stats.words_removed_as_comments, 4);
    }

    #[test]
    fn banner_blocks_emptied() {
        let out = run("banner motd ^C\nWelcome to FooNet!\ncall 555-1234\n^C\nhostname r1\n");
        assert!(!out.text.contains("FooNet"));
        assert!(!out.text.contains("555"));
        assert!(out.text.contains("banner motd ^C"));
        assert_eq!(out.stats.banner_lines_dropped, 2);
    }

    #[test]
    fn descriptions_dropped() {
        let out = run("interface e0\n description Foo Corp LAX office\n ip address 1.1.1.1 255.0.0.0\n");
        assert!(!out.text.to_lowercase().contains("foo"));
        assert!(!out.text.contains("description"));
        assert_eq!(out.stats.freetext_lines_dropped, 1);
    }

    #[test]
    fn snmp_and_passwords_hashed() {
        let out = run("snmp-server community s3cr3tstring RO\nenable secret 5 $1$abcd$efgh\nusername admin password 7 094F471A1A0A\n");
        assert!(!out.text.contains("s3cr3tstring"));
        assert!(!out.text.contains("$1$abcd$efgh"));
        assert!(!out.text.contains("094F471A1A0A"));
        assert!(!out.text.contains("admin"));
        assert!(out.stats.secrets_hashed >= 3);
    }

    #[test]
    fn dialer_string_redigited() {
        let out = run("dialer string 14155551234\n");
        let mapped = out.text.split_whitespace().last().unwrap();
        assert_ne!(mapped, "14155551234");
        assert_eq!(mapped.len(), 11);
        assert!(mapped.bytes().all(|b| b.is_ascii_digit()));
        assert_eq!(out.stats.phone_numbers_mapped, 1);
    }

    #[test]
    fn hostname_hashes_whole_not_per_segment() {
        let out = run("hostname cr1.lax.foo.com\n");
        let arg = out.text.split_whitespace().last().unwrap();
        assert!(!arg.contains('.'), "domain structure survived: {arg}");
        assert!(arg.starts_with('h'));
    }

    #[test]
    fn interface_types_survive_segmentation() {
        let out = run("interface Serial1/0.5 point-to-point\n");
        assert!(out.text.contains("Serial1/0.5"));
    }

    #[test]
    fn aspath_regexp_rewritten_language_preserved() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"s".to_vec()));
        let out = a.anonymize_config("ip as-path access-list 50 permit (_1239_|_70[2-5]_)\n");
        let line = out.text.lines().next().unwrap();
        let pattern = line
            .splitn(6, ' ')
            .nth(5)
            .unwrap()
            .trim();
        let re = confanon_regexlang::Regex::compile(pattern).unwrap();
        let m = a.asn_map();
        for asn in [1239u16, 702, 703, 704, 705] {
            assert!(
                re.is_match(&m.map(asn).to_string()),
                "image of {asn} rejected by {pattern}"
            );
        }
        assert!(!re.is_match(&m.map(700).to_string()));
        assert_eq!(out.stats.regexps_rewritten, 1);
    }

    /// Regexp lines repeating across three routers: two as-path
    /// patterns, a community regexp, and an unparseable pattern.
    const REPEATED_REGEXPS: &str = "ip as-path access-list 10 permit _701_\n\
        ip as-path access-list 11 permit ^(1239|3356)_[0-9]+$\n\
        ip community-list 5 permit ^701:1[0-9][0-9]$\n\
        ip as-path access-list 12 permit _(70[0-9]_\n";

    fn repeated_corpus() -> Vec<String> {
        (0..3)
            .map(|i| format!("hostname r{i}\nrouter bgp 701\n{REPEATED_REGEXPS}{REPEATED_REGEXPS}"))
            .collect()
    }

    #[test]
    fn regex_memo_interns_each_distinct_pattern_and_serves_every_repeat() {
        let mut warmed = Anonymizer::new(AnonymizerConfig::new(b"s".to_vec()));
        for f in repeated_corpus() {
            warmed.discover_config(&f);
        }
        assert_eq!(
            warmed.regex_memo.lock().entries.len(),
            4,
            "one entry per distinct pattern"
        );
        let unparseable = (RegexDomain::AsPath, "_(70[0-9]_".to_string());
        assert!(matches!(
            warmed
                .regex_memo
                .lock()
                .entries
                .get(&unparseable)
                .map(|slot| slot.get()),
            Some(Some(None))
        ));

        // A rewrite clone answers every occurrence from the memo: with
        // the interned outcomes swapped for a sentinel, every parseable
        // regexp line carries the sentinel, so nothing was enumerated.
        // The clone and the warmed original hold one memo.
        let mut emit = warmed.clone();
        assert!(Arc::ptr_eq(&emit.regex_memo, &warmed.regex_memo));
        for slot in emit.regex_memo.lock().entries.values_mut() {
            if matches!(slot.get(), Some(Some(_))) {
                *slot = Arc::new(OnceLock::from(Some(Arc::new(RewriteOutcome {
                    pattern: "interned".to_string(),
                    public_asns_named: Vec::new(),
                }))));
            }
        }
        for f in repeated_corpus() {
            let out = emit.anonymize_config(&f);
            assert_eq!(out.stats.regexps_rewritten, 6);
            assert_eq!(out.stats.regexps_fallback_hashed, 2);
            let sentinels = out
                .text
                .lines()
                .filter(|l| l.ends_with(" interned"))
                .count();
            assert_eq!(sentinels, 6, "{}", out.text);
        }
        assert_eq!(emit.regex_memo.lock().entries.len(), 4);
    }

    #[test]
    fn regex_memo_stays_within_its_byte_budget() {
        // 64 distinct wide patterns, each rewritten to a ~390 KB image
        // alternation naming 50,000 public ASNs — ~25 MB in all. The
        // outcome is synthetic: enumerating 64 real ones is slow in an
        // unoptimized test build, and the budget charges only sizes.
        let wide: InternedRewrite = Some(Arc::new(RewriteOutcome {
            pattern: "65534|".repeat(65_000),
            public_asns_named: vec![701; 50_000],
        }));
        let key = |i: usize| {
            (
                RegexDomain::AsPath,
                format!("^{i}_[1-5][0-9][0-9][0-9][0-9]$"),
            )
        };
        let memo = Arc::new(RegexMemo::default());
        for i in 0..64 {
            let got = memo.get_or_rewrite(&key(i), || wide.clone());
            assert!(
                got.is_some(),
                "a rewrite the budget cannot hold is still served"
            );
        }
        let bytes = memo.lock().bytes;
        assert!(bytes <= REGEX_MEMO_BUDGET, "{bytes}");
        let held = memo.lock().entries.len();
        assert!(
            (30..64).contains(&held),
            "the budget bound the memo: {held}"
        );

        // Misses through another holder of the shared memo (a spawned
        // discovery shard) respect it too.
        let shard = Arc::clone(&memo);
        for i in 64..128 {
            shard.get_or_rewrite(&key(i), || wide.clone());
        }
        let bytes = memo.lock().bytes;
        assert!(bytes <= REGEX_MEMO_BUDGET, "{bytes}");
        assert_eq!(
            memo.lock().entries.len(),
            held,
            "a full memo interns nothing more"
        );
    }

    #[test]
    fn set_community_mapped() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"s".to_vec()));
        let out = a.anonymize_config(" set community 701:120\n");
        assert!(!out.text.contains("701:120"));
        let tok = out.text.split_whitespace().last().unwrap();
        let (asn, val) = tok.split_once(':').unwrap();
        assert_eq!(asn, a.asn_map().map(701).to_string());
        assert!(val.parse::<u16>().is_ok());
    }

    #[test]
    fn disabled_rule_leaks_and_is_recorded_elsewhere() {
        let cfg = AnonymizerConfig::new(b"s".to_vec()).without_rule(RuleId::R07NeighborRemoteAs);
        let mut a = Anonymizer::new(cfg);
        let out = a.anonymize_config(" neighbor 9.9.9.9 remote-as 701\n");
        assert!(out.text.contains("701"), "ablated rule must leak");
    }

    #[test]
    fn leak_record_populates() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"s".to_vec()));
        a.anonymize_config(
            "router bgp 1111\n neighbor 12.126.236.17 remote-as 701\nhostname cr1.foo.com\n",
        );
        let rec = a.leak_record();
        assert!(rec.asns.contains("1111"));
        assert!(rec.asns.contains("701"));
        assert!(rec.ips.contains("12.126.236.17"));
        assert!(rec.words.contains("foo"));
    }

    #[test]
    fn idempotent_keywords_line_unchanged() {
        // A line consisting purely of pass-list keywords and plain
        // numbers must come through byte-identical.
        let line = " ip route 0.0.0.0 0.0.0.0 permanent\n";
        let out = run(line);
        assert_eq!(out.text, line);
    }

    #[test]
    fn stats_totals_accumulate_across_configs() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"s".to_vec()));
        a.anonymize_config("hostname r1\n");
        a.anonymize_config("hostname r2\n");
        assert_eq!(a.total_stats().lines_total, 2);
    }
}

/// The owner-side record of the realized mapping, for audit by "a
/// colleague with access to the unanonymized configuration files" (§5).
/// Contains the original→image pairs for everything located; it is as
/// sensitive as the originals and must never leave the owner's side.
#[derive(Debug, Clone)]
pub struct MappingAudit {
    /// Public ASN mappings.
    pub asns: std::collections::BTreeMap<String, String>,
    /// Address mappings (ordinary addresses located in the configs).
    pub addresses: std::collections::BTreeMap<String, String>,
    /// Identity-word hash mappings.
    pub words: std::collections::BTreeMap<String, String>,
}

impl MappingAudit {
    /// The audit as JSON: three original→image maps, keys sorted.
    pub fn to_json(&self) -> confanon_testkit::json::Json {
        use confanon_testkit::json::Json;
        let map = |m: &std::collections::BTreeMap<String, String>| {
            let mut obj = Json::obj();
            for (k, v) in m {
                obj.set(k, v.as_str());
            }
            obj
        };
        Json::obj()
            .with("asns", map(&self.asns))
            .with("addresses", map(&self.addresses))
            .with("words", map(&self.words))
    }
}

impl Anonymizer {
    /// Exports the realized mapping for everything recorded so far.
    /// Requires `&mut self` because re-deriving address images walks (and
    /// may extend) the trie; the mapping itself is unchanged.
    pub fn mapping_audit(&mut self) -> MappingAudit {
        let asns = self
            .record
            .asns
            .iter()
            .filter_map(|a| {
                let asn: u16 = a.parse().ok()?;
                Some((a.clone(), self.asn_map().map(asn).to_string()))
            })
            .collect();
        let ips: Vec<Ip> = self
            .record
            .ips
            .iter()
            .filter_map(|s| s.parse().ok())
            .collect();
        let addresses = ips
            .into_iter()
            .map(|ip| (ip.to_string(), self.image4(ip).to_string()))
            .collect();
        let words = self
            .record
            .words
            .iter()
            .map(|w| (w.clone(), self.hasher.hash_token(w)))
            .collect();
        MappingAudit {
            asns,
            addresses,
            words,
        }
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use crate::figure1::FIGURE1_CONFIG;

    #[test]
    fn audit_pairs_are_consistent_with_output() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"audit".to_vec()));
        let out = a.anonymize_config(FIGURE1_CONFIG);
        let audit = a.mapping_audit();
        // Every original is recorded with an image that appears in the
        // output (addresses and ASNs; words map to hash prefixes).
        assert!(audit.asns.contains_key("701"));
        assert!(audit.addresses.contains_key("12.126.236.17"));
        for (orig, image) in audit.asns.iter().take(5) {
            assert_ne!(orig, image);
        }
        let mapped_peer = &audit.addresses["12.126.236.17"];
        assert!(out.text.contains(mapped_peer), "{mapped_peer}");
    }

    #[test]
    fn audit_is_stable_across_calls() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"audit".to_vec()));
        a.anonymize_config(FIGURE1_CONFIG);
        let first = a.mapping_audit();
        let second = a.mapping_audit();
        assert_eq!(first.asns, second.asns);
        assert_eq!(first.addresses, second.addresses);
        assert_eq!(first.words, second.words);
    }

    #[test]
    fn audit_covers_all_record_categories() {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"audit".to_vec()));
        a.anonymize_config("hostname r1.foo.com\nrouter bgp 701\n neighbor 1.2.3.4 remote-as 1239\n");
        let audit = a.mapping_audit();
        assert_eq!(audit.asns.len(), 2);
        assert!(audit.addresses.contains_key("1.2.3.4"));
        assert!(audit.words.contains_key("foo"));
        // Word images are the rendered hash forms used in the output.
        assert!(audit.words["foo"].starts_with('h'));
    }
}
