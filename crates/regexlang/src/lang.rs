//! Language enumeration over the AS-number universe.
//!
//! Paper §4.4: "Since there are only 2^16 ASNs in BGPv4, we can find the
//! language accepted by the regexp by simply applying the regexp to a list
//! of all 2^16 ASNs and seeing which it accepts." This module computes the
//! same set without formatting every number: it determinizes the regexp
//! once and walks the decimal digit tree through the DFA, descending only
//! from prefixes the automaton has not rejected. The paper's loop over
//! every ASN is kept as the test oracle the walk is checked against.

use crate::ast::Ast;
use crate::dfa::dfa_for;

/// Enumerates the ASNs (0..=65535) whose decimal representation is
/// accepted (full match) by `ast`, in ascending order.
///
/// This is only meaningful for *numeric* subtrees ([`Ast::is_numeric`]);
/// callers pass the numeric atoms extracted from a policy regexp, e.g.
/// the `70[1-3]` between two `_` delimiters. It is the uncapped 16-bit
/// case of [`accepted_numbers_bounded`].
pub fn accepted_asns(ast: &Ast) -> Vec<u16> {
    accepted_numbers_bounded(ast, u64::from(u16::MAX), usize::MAX)
        .expect("an uncapped walk never exceeds its cap")
        .into_iter()
        .map(|n| u16::try_from(n).expect("the walk stays within u16::MAX"))
        .collect()
}

/// The paper's enumeration, verbatim: apply the regexp to the decimal
/// string of every one of the 2^16 ASNs. The test oracle for
/// [`accepted_asns`].
#[cfg(test)]
fn brute_force_asns(ast: &Ast) -> Vec<u16> {
    let dfa = dfa_for(ast);
    (0..=u16::MAX)
        .filter(|n| dfa.accepts(n.to_string().as_bytes()))
        .collect()
}

/// Builds the alternation-of-literals AST accepting exactly `asns`
/// (paper §4.4: "we construct a regexp that is the alternation of all
/// ASNs in the language", e.g. `70[1-3]` → `701|702|703`).
///
/// Returns `None` for an empty set (the caller decides how to handle a
/// regexp whose language became empty — cannot happen under a bijective
/// ASN mapping, but the API is total).
pub fn alternation_of(asns: &[u16]) -> Option<Ast> {
    if asns.is_empty() {
        return None;
    }
    Some(Ast::alt(
        asns.iter()
            .map(|&n| Ast::literal_str(&n.to_string()))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::parser::parse;
    use confanon_testkit::props::{from_fn, Source, Strategy};
    use confanon_testkit::rng::Rng;

    /// One random numeric atom as pattern text: digit literals, classes
    /// and ranges, `.`, the repeats, groups and alternation, plus the
    /// shapes the digit walk treats specially — leading zeros, a
    /// six-digit (empty) language and the universal `[0-9]+`.
    fn gen_atom(src: &mut Source, depth: u32) -> String {
        let choices = if depth == 0 { 7 } else { 12 };
        let sub = |src: &mut Source| gen_atom(src, depth - 1);
        match src.gen_range(0..choices) {
            0u32 => src.gen_range(0u32..10).to_string(),
            1 => {
                let lo = src.gen_range(0u32..10);
                let hi = src.gen_range(lo..10);
                let extra = src.gen_range(0u32..10);
                format!("[{extra}{lo}-{hi}]")
            }
            2 => ".".to_string(),
            3 => ["0", "00", "0[0-9]"][src.gen_range(0usize..3)].to_string(),
            4 => src.gen_range(100_000u32..1_000_000).to_string(),
            5 => "[0-9]+".to_string(),
            6 => format!("{}{}", src.gen_range(1u32..10), src.gen_range(0u32..100)),
            7 | 8 => (0..src.gen_range(1usize..4)).map(|_| sub(src)).collect(),
            9 => {
                let arms: Vec<String> = (0..src.gen_range(2usize..4)).map(|_| sub(src)).collect();
                format!("({})", arms.join("|"))
            }
            _ => {
                let repeat = ["?", "*", "+"][src.gen_range(0usize..3)];
                format!("({}){repeat}", sub(src))
            }
        }
    }

    fn atom_strategy() -> impl Strategy<Value = String> {
        from_fn(|src| gen_atom(src, 3))
    }

    confanon_testkit::props! {
        cases = 256;

        /// The digit-tree walk returns exactly the brute-force language.
        fn digit_walk_equals_brute_force(pattern in atom_strategy()) {
            let ast = parse(&pattern).expect("generated atoms parse");
            assert_eq!(accepted_asns(&ast), brute_force_asns(&ast), "{pattern}");
        }
    }

    #[test]
    fn walk_equals_brute_force_on_edge_shapes() {
        for pat in [
            "0",
            "00",
            "0[0-9]",
            "0*",
            "123456",
            "[0-9]+",
            ".",
            "..",
            "(0|1)*",
            "6553[5-9]",
        ] {
            let ast = parse(pat).unwrap();
            assert_eq!(accepted_asns(&ast), brute_force_asns(&ast), "{pat}");
        }
    }

    #[test]
    fn range_pattern_enumerates_exactly() {
        let asns = accepted_asns(&parse("70[1-3]").unwrap());
        assert_eq!(asns, vec![701, 702, 703]);
    }

    #[test]
    fn wildcard_pattern() {
        // `123.` accepts 1230..=1239.
        let asns = accepted_asns(&parse("123[0-9]").unwrap());
        assert_eq!(asns, (1230..=1239).collect::<Vec<u16>>());
    }

    #[test]
    fn uunet_block() {
        // The paper's footnote: UUNET owns the contiguous 7046..7059... we
        // use the documented example 70[2-5] = non-US UUNET ASNs 702-705.
        let asns = accepted_asns(&parse("70[2-5]").unwrap());
        assert_eq!(asns, vec![702, 703, 704, 705]);
    }

    #[test]
    fn star_patterns_stay_within_u16() {
        // `1(0)*` accepts 1, 10, 100, 1000, 10000 — and nothing longer
        // fits in a u16 decimal string.
        let asns = accepted_asns(&parse("1(0)*").unwrap());
        assert_eq!(asns, vec![1, 10, 100, 1000, 10000]);
    }

    #[test]
    fn alternation_round_trip() {
        let set = vec![7u16, 701, 1239, 65535];
        let ast = alternation_of(&set).unwrap();
        let nfa = Nfa::from_ast(&ast);
        for n in 0..=u16::MAX {
            let expect = set.contains(&n);
            if expect != nfa.full_match(n.to_string().as_bytes()) {
                panic!("mismatch at {n}");
            }
        }
    }

    #[test]
    fn alternation_of_empty_is_none() {
        assert!(alternation_of(&[]).is_none());
    }

    #[test]
    fn enumeration_then_alternation_preserves_language() {
        // The full §4.4 loop for a numeric atom, pre-permutation: language
        // of rebuild equals language of original.
        let orig = parse("6[45][0-9][0-9][0-9]").unwrap();
        let lang = accepted_asns(&orig);
        assert!(!lang.is_empty());
        let rebuilt = alternation_of(&lang).unwrap();
        assert_eq!(accepted_asns(&rebuilt), lang);
    }
}

/// Error from [`accepted_numbers_bounded`]: the language over the bounded
/// universe exceeds `cap` members, so alternation rewriting would explode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanguageTooLarge {
    /// The configured cap that was exceeded.
    pub cap: usize,
}

impl std::fmt::Display for LanguageTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "accepted language exceeds {} members", self.cap)
    }
}

impl std::error::Error for LanguageTooLarge {}

/// Enumerates the numbers in `0..=max` whose decimal representation is
/// accepted by `ast`, stopping with an error once more than `cap` members
/// are found.
///
/// This extends the paper's 2^16 enumeration to the 4-byte ASN space
/// (RFC 4893): brute force over 2^32 strings is out, but walking the
/// decimal digit tree through the DFA visits only live prefixes, so
/// realistic policy patterns (ranges, wildcards over a few digits)
/// enumerate in microseconds. Truly huge languages (e.g. `[0-9]+`) are
/// rejected via `cap` — the caller leaves such universal atoms unchanged,
/// exactly as the 16-bit path does.
pub fn accepted_numbers_bounded(
    ast: &Ast,
    max: u64,
    cap: usize,
) -> Result<Vec<u64>, LanguageTooLarge> {
    let dfa = dfa_for(ast);
    let mut out = Vec::new();

    // "0" is the only representation with a leading zero.
    if let Some(s) = dfa.step(dfa.start_state(), b'0') {
        if dfa.is_accepting(s) {
            out.push(0);
        }
    }

    // DFS over non-zero-leading decimal strings.
    let max_len = max.to_string().len();
    let mut stack: Vec<(u32, u64, usize)> = Vec::new();
    for d in 1..=9u8 {
        if let Some(s) = dfa.step(dfa.start_state(), b'0' + d) {
            stack.push((s, u64::from(d), 1));
        }
    }
    while let Some((state, value, len)) = stack.pop() {
        if value <= max && dfa.is_accepting(state) {
            out.push(value);
            if out.len() > cap {
                return Err(LanguageTooLarge { cap });
            }
        }
        if len >= max_len {
            continue;
        }
        for d in 0..=9u8 {
            let next = value * 10 + u64::from(d);
            if next > max {
                continue;
            }
            if let Some(s) = dfa.step(state, b'0' + d) {
                stack.push((s, next, len + 1));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests32 {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn agrees_with_exhaustive_16bit_enumeration() {
        for pat in ["70[1-3]", "1(0)*", "6[45][0-9][0-9][0-9]", "123[0-9]"] {
            let ast = parse(pat).unwrap();
            let exhaustive: Vec<u64> = brute_force_asns(&ast).into_iter().map(u64::from).collect();
            let walked = accepted_numbers_bounded(&ast, 65535, 1 << 20).unwrap();
            assert_eq!(walked, exhaustive, "{pat}");
        }
    }

    #[test]
    fn four_byte_ranges() {
        // RFC 6996 private 32-bit block boundary digits.
        let ast = parse("420000000[0-5]").unwrap();
        let lang = accepted_numbers_bounded(&ast, u64::from(u32::MAX), 100).unwrap();
        assert_eq!(
            lang,
            (4_200_000_000u64..=4_200_000_005).collect::<Vec<_>>()
        );
    }

    #[test]
    fn max_bound_respected() {
        // `4294967[0-9][0-9][0-9]` crosses u32::MAX = 4294967295.
        let ast = parse("4294967[0-9][0-9][0-9]").unwrap();
        let lang = accepted_numbers_bounded(&ast, u64::from(u32::MAX), 1000).unwrap();
        assert_eq!(lang.first(), Some(&4_294_967_000));
        assert_eq!(lang.last(), Some(&4_294_967_295));
        assert_eq!(lang.len(), 296);
    }

    #[test]
    fn huge_language_rejected() {
        let ast = parse("[0-9]+").unwrap();
        let err = accepted_numbers_bounded(&ast, u64::from(u32::MAX), 10_000).unwrap_err();
        assert_eq!(err.cap, 10_000);
    }

    #[test]
    fn zero_handled() {
        let ast = parse("0").unwrap();
        assert_eq!(
            accepted_numbers_bounded(&ast, u64::from(u32::MAX), 10).unwrap(),
            vec![0]
        );
    }
}
