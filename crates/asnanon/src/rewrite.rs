//! Regexp rewriting: the §4.4 language-enumeration method.
//!
//! A policy regexp such as `(_1239_|_70[2-5]_)` must accept, after
//! anonymization, exactly the images of the ASNs it accepted before. The
//! algorithm (verbatim from the paper):
//!
//! 1. locate the *numeric atoms* — the maximal subpatterns standing in a
//!    number position (between delimiters like `_`, `^`, `$`, `:`, or
//!    alternation boundaries);
//! 2. enumerate the language of each atom by "simply applying the regexp
//!    to a list of all 2^16 ASNs and seeing which it accepts";
//! 3. if the language contains only private ASNs, leave the atom alone;
//!    otherwise map every accepted number (public through the
//!    permutation, private to itself) and replace the atom with the
//!    alternation of the image set — `70[1-3]` becomes, e.g.,
//!    `14041|2212|33618`;
//! 4. optionally compact the alternation through minimal-DFA → regexp
//!    synthesis ([`RewriteOptions::compact`], the paper's proposed
//!    extension).
//!
//! Inside a numeric atom, `.` is a *digit* wildcard (`7[1-5]..` accepts
//! 7100..=7599): enumeration over decimal strings makes this exact. A
//! repeated dot (`.*`, `.+`) is path-level glue, never part of an atom.
//!
//! Community regexps (`701:7[1-5]..`) are handled the same way with the
//! `:` literal splitting ASN-domain atoms from value-domain atoms (§4.5).
//!
//! **Semantic model.** Enumeration treats an atom as matching *whole*
//! numbers, exactly as the paper's example does ("70[1-3], becomes
//! 701|702|703"). POSIX unanchored search would additionally let an
//! unanchored atom match a digit substring of a longer number
//! (`7[1-5]..` against `71234`); neither the paper nor this
//! implementation models that corner, and well-formed policies always
//! delimit number positions with `_`, `^`, `$`, or `:` anyway.

use confanon_regexlang::ast::Ast;
use confanon_regexlang::dfa::dfa_for;
use confanon_regexlang::lang::{accepted_asns, alternation_of, count_accepted_asns};
use confanon_regexlang::synth::synthesize;
use confanon_regexlang::{parse, CharClass, ParseErr};

use crate::map::{is_public, AsnMap, CommunityMap};

/// Options controlling the rewriting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// Re-synthesize each rewritten atom from its minimal DFA instead of
    /// emitting the raw alternation. "The resulting regexps could be very
    /// long, but this is not a problem when anonymized configs are
    /// primarily analyzed by software tools" — so the paper left this
    /// off; we implement it as the documented extension.
    pub compact: bool,
}

/// Which permutation applies to an atom.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Domain {
    AsPath,
    CommunityAsn,
    CommunityValue,
}

/// A rewriting result: the new pattern plus the public ASNs the original
/// pattern named (the pre-image language of its ASN-domain atoms), which
/// the leak recorder of the §6.1 methodology needs.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten pattern text.
    pub pattern: String,
    /// Public ASNs accepted by the original pattern's ASN-position atoms
    /// (empty for universal atoms, which name nobody in particular).
    pub public_asns_named: Vec<u16>,
}

/// Rewrites an AS-path regexp (e.g. from `ip as-path access-list`).
pub fn rewrite_aspath_regex(
    pattern: &str,
    map: &AsnMap,
    opts: RewriteOptions,
) -> Result<String, ParseErr> {
    rewrite_aspath_regex_full(pattern, map, opts).map(|o| o.pattern)
}

/// Like [`rewrite_aspath_regex`] but also reports the named public ASNs.
pub fn rewrite_aspath_regex_full(
    pattern: &str,
    map: &AsnMap,
    opts: RewriteOptions,
) -> Result<RewriteOutcome, ParseErr> {
    let ast = parse(pattern)?;
    let mut ctx = Ctx {
        asn: map,
        community: None,
        opts,
        named: Vec::new(),
    };
    let pattern = ctx.rewrite(&ast, Domain::AsPath).to_pattern();
    Ok(RewriteOutcome {
        pattern,
        public_asns_named: ctx.named,
    })
}

/// Rewrites a community regexp (e.g. from `ip community-list`): atoms left
/// of the top-level `:` use the ASN permutation, atoms right of it the
/// value permutation.
pub fn rewrite_community_regex(
    pattern: &str,
    map: &CommunityMap,
    opts: RewriteOptions,
) -> Result<String, ParseErr> {
    rewrite_community_regex_full(pattern, map, opts).map(|o| o.pattern)
}

/// Like [`rewrite_community_regex`] but also reports the named public ASNs.
pub fn rewrite_community_regex_full(
    pattern: &str,
    map: &CommunityMap,
    opts: RewriteOptions,
) -> Result<RewriteOutcome, ParseErr> {
    let ast = parse(pattern)?;
    let mut ctx = Ctx {
        asn: map.asn_map(),
        community: Some(map),
        opts,
        named: Vec::new(),
    };
    let pattern = ctx.rewrite(&ast, Domain::CommunityAsn).to_pattern();
    Ok(RewriteOutcome {
        pattern,
        public_asns_named: ctx.named,
    })
}

struct Ctx<'a> {
    asn: &'a AsnMap,
    community: Option<&'a CommunityMap>,
    opts: RewriteOptions,
    /// Public ASNs named by ASN-domain atoms, for the leak recorder.
    named: Vec<u16>,
}

impl Ctx<'_> {
    fn rewrite(&mut self, ast: &Ast, domain: Domain) -> Ast {
        // Normalize so the scanner always sees a concat sequence.
        let parts: Vec<Ast> = match ast {
            Ast::Concat(v) => v.clone(),
            Ast::Alt(v) => {
                return Ast::alt(v.iter().map(|p| self.rewrite(p, domain)).collect());
            }
            other => vec![other.clone()],
        };

        let mut out: Vec<Ast> = Vec::with_capacity(parts.len());
        let mut run: Vec<Ast> = Vec::new();
        let mut dom = domain;
        for p in &parts {
            if is_atomish(p) {
                run.push(p.clone());
                continue;
            }
            self.flush_run(&mut run, dom, &mut out);
            // A `:` literal switches community regexps to the value
            // domain for the remainder of this concat.
            if dom == Domain::CommunityAsn && is_colon(p) && self.community.is_some() {
                dom = Domain::CommunityValue;
            }
            // Non-atom structure: recurse (alternations / groups may hold
            // their own atoms).
            out.push(match p {
                Ast::Alt(_) | Ast::Concat(_) => self.rewrite(p, dom),
                Ast::Star(a) => Ast::Star(Box::new(self.rewrite(a, dom))),
                Ast::Plus(a) => Ast::Plus(Box::new(self.rewrite(a, dom))),
                Ast::Opt(a) => Ast::Opt(Box::new(self.rewrite(a, dom))),
                other => other.clone(),
            });
        }
        self.flush_run(&mut run, dom, &mut out);
        Ast::concat(out)
    }

    /// Rewrites and emits a pending numeric run.
    fn flush_run(&mut self, run: &mut Vec<Ast>, domain: Domain, out: &mut Vec<Ast>) {
        if run.is_empty() {
            return;
        }
        let atom = Ast::concat(std::mem::take(run));
        // Runs that contain no digit at all (e.g. a lone `.` between
        // underscores) are glue, not numbers.
        if !contains_digit(&atom) {
            out.push(atom);
            return;
        }
        out.push(self.rewrite_atom(&atom, domain));
    }

    fn rewrite_atom(&mut self, atom: &Ast, domain: Domain) -> Ast {
        // An atom that accepts nothing in the 16-bit universe (e.g. a 6+
        // digit pattern) names nothing to anonymize, and a universal one
        // (e.g. `[0-9]+`) has the image set equal to the pre-image set
        // under any permutation: both stay, decided by a count that never
        // lists the 2^16 members.
        let size = count_accepted_asns(atom);
        if size == 0 || size == 1 << 16 {
            return atom.clone();
        }
        let lang = accepted_asns(atom);
        let mapped: Vec<u16> = match domain {
            Domain::AsPath | Domain::CommunityAsn => {
                if lang.iter().all(|&a| !is_public(a)) {
                    // Only private ASNs: "no changes are required".
                    return atom.clone();
                }
                self.named.extend(lang.iter().copied().filter(|&a| is_public(a)));
                lang.iter().map(|&a| self.asn.map(a)).collect()
            }
            Domain::CommunityValue => {
                let cm = self.community.expect("value domain implies community");
                lang.iter().map(|&v| cm.map_value(v)).collect()
            }
        };
        let mut mapped = mapped;
        mapped.sort_unstable();
        let alt = alternation_of(&mapped).expect("nonempty language");
        if self.opts.compact {
            let dfa = dfa_for(&alt).minimize();
            if let Some(compact) = synthesize(&dfa) {
                // Use the compact form only when it actually is smaller.
                if compact.to_pattern().len() < alt.to_pattern().len() {
                    return compact;
                }
            }
        }
        alt
    }
}

/// True for nodes that can belong to a numeric atom: digit classes, the
/// single (un-repeated) dot, and any combination thereof. Repeats are
/// allowed only when their body contains a digit (`(0)*` yes, `.*` no).
fn is_atomish(ast: &Ast) -> bool {
    match ast {
        Ast::Epsilon => true,
        Ast::Class(c) => c.is_digit_subset() && !c.is_empty() || *c == CharClass::dot(),
        Ast::Concat(v) | Ast::Alt(v) => v.iter().all(is_atomish),
        Ast::Star(a) | Ast::Plus(a) | Ast::Opt(a) => is_atomish(a) && contains_digit(a),
    }
}

/// True if the subtree contains at least one digit-only class.
fn contains_digit(ast: &Ast) -> bool {
    match ast {
        Ast::Epsilon => false,
        Ast::Class(c) => c.is_digit_subset() && !c.is_empty(),
        Ast::Concat(v) | Ast::Alt(v) => v.iter().any(contains_digit),
        Ast::Star(a) | Ast::Plus(a) | Ast::Opt(a) => contains_digit(a),
    }
}

/// True for the literal `:` class.
fn is_colon(ast: &Ast) -> bool {
    matches!(ast, Ast::Class(c) if *c == CharClass::single(b':'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use confanon_regexlang::Regex;

    fn maps() -> (AsnMap, CommunityMap) {
        (AsnMap::new(b"secret"), CommunityMap::new(b"secret"))
    }

    /// Oracle check: for every ASN in the universe, `rewritten` accepts
    /// `map(asn)` exactly when `original` accepts `asn` (as a full
    /// number, in as-path position).
    fn check_aspath_language(original: &str, rewritten: &str, m: &AsnMap) {
        let pre = Regex::compile(original).unwrap();
        let post = Regex::compile(rewritten).unwrap();
        for asn in 0..=u16::MAX {
            let s = asn.to_string();
            let t = m.map(asn).to_string();
            assert_eq!(
                pre.is_match(&s),
                post.is_match(&t),
                "{original} vs {rewritten} at asn {asn}"
            );
        }
    }

    #[test]
    fn range_atom_becomes_image_alternation() {
        let (m, _) = maps();
        let out = rewrite_aspath_regex("70[1-3]", &m, RewriteOptions::default()).unwrap();
        let mut want: Vec<String> = [701u16, 702, 703].iter().map(|&a| m.map(a).to_string()).collect();
        want.sort_by_key(|s| s.parse::<u16>().unwrap());
        assert_eq!(out, want.join("|"));
    }

    #[test]
    fn figure1_aspath_regexp_language_preserved() {
        let (m, _) = maps();
        let pat = "(_1239_|_70[2-5]_)";
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        // The delimiters must survive.
        assert!(out.contains('_'));
        check_aspath_language(pat, &out, &m);
    }

    #[test]
    fn digit_wildcard_is_enumerated() {
        let (m, _) = maps();
        let pat = "_123._"; // 1230..=1239 in as-path position
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        check_aspath_language(pat, &out, &m);
    }

    #[test]
    fn private_only_atoms_unchanged() {
        let (m, _) = maps();
        // 65000..=65009: all private.
        let pat = "_6500[0-9]_";
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        assert_eq!(out, pat);
    }

    #[test]
    fn mixed_public_private_maps_public_keeps_private() {
        let (m, _) = maps();
        // 64510 public, 64512+ private: pattern accepting 64510..=64513.
        let pat = "6451[0-3]";
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        let post = Regex::compile(&out).unwrap();
        assert!(post.is_full_match(&m.map(64510).to_string()));
        assert!(post.is_full_match(&m.map(64511).to_string()));
        assert!(post.is_full_match("64512"));
        assert!(post.is_full_match("64513"));
    }

    #[test]
    fn dot_star_glue_untouched() {
        let (m, _) = maps();
        let pat = "^701_.*";
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        assert!(out.ends_with(".*"), "glue lost: {out}");
        assert!(out.starts_with('^'));
        check_aspath_language_prefixed(pat, &out, &m);
    }

    /// Like `check_aspath_language` but tests paths with a suffix, since
    /// `.*` patterns are about multi-ASN paths.
    fn check_aspath_language_prefixed(original: &str, rewritten: &str, m: &AsnMap) {
        let pre = Regex::compile(original).unwrap();
        let post = Regex::compile(rewritten).unwrap();
        for asn in (0..=u16::MAX).step_by(127) {
            let s = format!("{} 100", asn);
            let t = format!("{} 100", m.map(asn));
            assert_eq!(pre.is_match(&s), post.is_match(&t), "at asn {asn}");
        }
    }

    #[test]
    fn alternation_of_plain_asns() {
        // "The use of alternation in regexps (e.g., (701|1239).*) is very
        // common … easily handled by anonymizing each ASN individually."
        let (m, _) = maps();
        let pat = "(701|1239).*";
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        let a = m.map(701);
        let b = m.map(1239);
        assert!(out.contains(&a.to_string()), "{out}");
        assert!(out.contains(&b.to_string()), "{out}");
        assert!(out.ends_with(".*"));
    }

    #[test]
    fn community_regexp_both_halves() {
        let (_, cm) = maps();
        let pat = "701:7[1-5]..";
        let out = rewrite_community_regex(pat, &cm, RewriteOptions::default()).unwrap();
        let post = Regex::compile(&out).unwrap();
        let pre = Regex::compile(pat).unwrap();
        // For a sample of values, pre accepts `701:v` iff post accepts
        // `map(701):map_value(v)`.
        // Whole-community semantics (the paper's model: a regexp accepts
        // whole numbers, not digit substrings of longer numbers).
        let masn = cm.asn_map().map(701);
        for v in (0..=u16::MAX).step_by(97) {
            let s = format!("701:{v}");
            let t = format!("{masn}:{}", cm.map_value(v));
            assert_eq!(pre.is_full_match(&s), post.is_full_match(&t), "value {v}");
        }
        // And a wrong ASN half must not match.
        assert!(!post.is_full_match(&format!("{}:{}", masn.wrapping_add(1), cm.map_value(7100))));
    }

    #[test]
    fn universal_value_side_untouched() {
        let (_, cm) = maps();
        let pat = "701:[0-9]+";
        let out = rewrite_community_regex(pat, &cm, RewriteOptions::default()).unwrap();
        assert!(out.ends_with(":[0-9]+"), "{out}");
    }

    #[test]
    fn universal_atoms_stay_and_near_universal_ones_map() {
        let (m, _) = maps();
        let opts = RewriteOptions::default();
        for pat in ["_[0-9]+_", "_[0-9]*_", "_(0|[1-9][0-9]{0,4})_"] {
            let out = rewrite_aspath_regex(pat, &m, opts).unwrap();
            assert_eq!(out, parse(pat).unwrap().to_pattern(), "{pat}");
        }
        // Every ASN but 0: one member short of universal, so every member
        // maps and the atom becomes a 65,535-member alternation.
        let out = rewrite_aspath_regex("_[1-9][0-9]*_", &m, opts).unwrap();
        assert_eq!(out.matches('|').count(), 65_534);
    }

    #[test]
    fn compact_option_produces_equivalent_smaller_pattern() {
        let (m, _) = maps();
        let pat = "70[1-5]";
        let plain = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        let compact = rewrite_aspath_regex(pat, &m, RewriteOptions { compact: true }).unwrap();
        assert!(compact.len() <= plain.len());
        // Same language either way.
        let a = Regex::compile(&plain).unwrap();
        let b = Regex::compile(&compact).unwrap();
        for asn in (0..=u16::MAX).step_by(61) {
            let s = asn.to_string();
            assert_eq!(a.is_full_match(&s), b.is_full_match(&s), "{asn}");
        }
    }

    #[test]
    fn five_digit_overlong_pattern_untouched() {
        let (m, _) = maps();
        // Accepts only 6-digit strings: empty within the u16 universe.
        let pat = "[1-9][0-9][0-9][0-9][0-9][0-9]";
        let out = rewrite_aspath_regex(pat, &m, RewriteOptions::default()).unwrap();
        assert_eq!(out, pat);
    }

    #[test]
    fn parse_errors_propagate() {
        let (m, _) = maps();
        assert!(rewrite_aspath_regex("(701", &m, RewriteOptions::default()).is_err());
    }
}

// ---------------------------------------------------------------------
// 4-byte ASN rewriting (RFC 4893 extension; see `crate::map32`).
// ---------------------------------------------------------------------

use confanon_regexlang::lang::{accepted_numbers_bounded, LanguageTooLarge};

use crate::map32::{is_public32, AsnMap32};

/// Errors from the 32-bit rewriting path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite32Error {
    /// The pattern failed to parse.
    Parse(ParseErr),
    /// An atom's language over the 2^32 universe is too large to rewrite
    /// as an alternation (and is not universal). The caller should fall
    /// back to hashing the pattern whole.
    LanguageTooLarge(LanguageTooLarge),
}

impl std::fmt::Display for Rewrite32Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rewrite32Error::Parse(e) => write!(f, "{e}"),
            Rewrite32Error::LanguageTooLarge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Rewrite32Error {}

/// Languages larger than this rewrite to alternations no one can read or
/// run; the caller falls back to conservative hashing.
const LANG32_CAP: usize = 1 << 16;

/// Rewrites an AS-path regexp in the 4-byte ASN world: numeric atoms are
/// enumerated over `0..=u32::MAX` by DFA digit-tree walk, mapped through
/// [`AsnMap32`], and replaced by the alternation of the image.
pub fn rewrite_aspath_regex32(
    pattern: &str,
    map: &AsnMap32,
    _opts: RewriteOptions,
) -> Result<String, Rewrite32Error> {
    let ast = parse(pattern).map_err(Rewrite32Error::Parse)?;
    let out = rewrite32_node(&ast, map)?;
    Ok(out.to_pattern())
}

fn rewrite32_node(ast: &Ast, map: &AsnMap32) -> Result<Ast, Rewrite32Error> {
    let parts: Vec<Ast> = match ast {
        Ast::Concat(v) => v.clone(),
        Ast::Alt(v) => {
            let rewritten: Result<Vec<Ast>, _> =
                v.iter().map(|p| rewrite32_node(p, map)).collect();
            return Ok(Ast::alt(rewritten?));
        }
        other => vec![other.clone()],
    };
    let mut out: Vec<Ast> = Vec::with_capacity(parts.len());
    let mut run: Vec<Ast> = Vec::new();
    for p in &parts {
        if is_atomish(p) {
            run.push(p.clone());
            continue;
        }
        flush32(&mut run, map, &mut out)?;
        out.push(match p {
            Ast::Alt(_) | Ast::Concat(_) => rewrite32_node(p, map)?,
            Ast::Star(a) => Ast::Star(Box::new(rewrite32_node(a, map)?)),
            Ast::Plus(a) => Ast::Plus(Box::new(rewrite32_node(a, map)?)),
            Ast::Opt(a) => Ast::Opt(Box::new(rewrite32_node(a, map)?)),
            other => other.clone(),
        });
    }
    flush32(&mut run, map, &mut out)?;
    Ok(Ast::concat(out))
}

fn flush32(run: &mut Vec<Ast>, map: &AsnMap32, out: &mut Vec<Ast>) -> Result<(), Rewrite32Error> {
    if run.is_empty() {
        return Ok(());
    }
    let atom = Ast::concat(std::mem::take(run));
    if !contains_digit(&atom) {
        out.push(atom);
        return Ok(());
    }
    let lang = accepted_numbers_bounded(&atom, u64::from(u32::MAX), LANG32_CAP)
        .map_err(Rewrite32Error::LanguageTooLarge)?;
    if lang.is_empty() || lang.iter().all(|&a| !is_public32(a as u32)) {
        out.push(atom);
        return Ok(());
    }
    let mut mapped: Vec<u64> = lang
        .iter()
        .map(|&a| u64::from(map.map(a as u32)))
        .collect();
    mapped.sort_unstable();
    out.push(Ast::alt(
        mapped
            .iter()
            .map(|&n| Ast::literal_str(&n.to_string()))
            .collect(),
    ));
    Ok(())
}

#[cfg(test)]
mod tests32 {
    use super::*;
    use confanon_regexlang::Regex;

    #[test]
    fn four_byte_range_rewritten() {
        let m = AsnMap32::new(b"s32");
        let pat = "_39999[0-4]_"; // 399990..=399994, all 4-byte public
        let out = rewrite_aspath_regex32(pat, &m, RewriteOptions::default()).unwrap();
        let re = Regex::compile(&out).unwrap();
        for asn in 399_990u32..=399_994 {
            assert!(re.is_match(&m.map(asn).to_string()), "{asn}: {out}");
        }
        assert!(!re.is_match(&m.map(399_995).to_string()));
    }

    #[test]
    fn two_byte_patterns_agree_with_16bit_path() {
        let m32 = AsnMap32::new(b"shared");
        let m16 = AsnMap::new(b"shared");
        let out32 =
            rewrite_aspath_regex32("_70[1-3]_", &m32, RewriteOptions::default()).unwrap();
        let out16 = rewrite_aspath_regex("_70[1-3]_", &m16, RewriteOptions::default()).unwrap();
        // The 2-byte halves share the permutation (modulo the AS_TRANS
        // dodge), so the outputs coincide for these ASNs.
        assert_eq!(out32, out16);
    }

    #[test]
    fn private_32bit_atoms_unchanged() {
        let m = AsnMap32::new(b"s32");
        let pat = "_420000000[0-9]_";
        let out = rewrite_aspath_regex32(pat, &m, RewriteOptions::default()).unwrap();
        assert_eq!(out, pat);
    }

    #[test]
    fn universal_pattern_rejected_not_exploded() {
        let m = AsnMap32::new(b"s32");
        let err =
            rewrite_aspath_regex32("_[0-9]+_", &m, RewriteOptions::default()).unwrap_err();
        assert!(matches!(err, Rewrite32Error::LanguageTooLarge(_)));
    }
}
