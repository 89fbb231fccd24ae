//! Whitespace-preserving tokenization and word segmentation.
//!
//! The anonymizer rewrites configs token by token and must reproduce the
//! file byte-for-byte where nothing changed (operators diff pre/post
//! configs to audit the tool), so tokens carry their positions and the
//! inter-token whitespace is reconstructable.
//!
//! Scanning is byte-table dispatched: one 256-entry class table
//! ([`BYTE_CLASS`]) answers "is this byte whitespace?" and "is this byte
//! alphabetic?" with a single indexed load, so [`tokenize`] and
//! [`segment`] advance through a line without per-byte predicate calls
//! or branching on byte ranges. This module's tests keep per-char
//! reference scanners and prove both pairs agree on arbitrary (including
//! chaos-mutated) input.

use std::borrow::Cow;

/// [`BYTE_CLASS`] bit: the byte is ASCII whitespace (what
/// `u8::is_ascii_whitespace` accepts: space, tab, LF, FF, CR).
pub const CLASS_WS: u8 = 1 << 0;

/// [`BYTE_CLASS`] bit: the byte is an ASCII letter.
pub const CLASS_ALPHA: u8 = 1 << 1;

/// [`BYTE_CLASS`] bit: the byte is an ASCII digit.
pub const CLASS_DIGIT: u8 = 1 << 2;

/// The byte-class dispatch table: `BYTE_CLASS[b]` is a bitset of
/// `CLASS_*` flags for byte `b`. One load replaces the range comparisons
/// of `is_ascii_whitespace`/`is_ascii_alphabetic` on the tokenizer's and
/// segmenter's hot loops, and the rule prefilter reuses the same idea
/// for its head-byte table (`confanon-core`'s `rules` module).
pub static BYTE_CLASS: [u8; 256] = build_byte_class();

const fn build_byte_class() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        let mut class = 0u8;
        if byte.is_ascii_whitespace() {
            class |= CLASS_WS;
        }
        if byte.is_ascii_alphabetic() {
            class |= CLASS_ALPHA;
        }
        if byte.is_ascii_digit() {
            class |= CLASS_DIGIT;
        }
        table[b] = class;
        b += 1;
    }
    table
}

/// A whitespace-delimited token within one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (no whitespace).
    pub text: &'a str,
    /// Byte offset of the token within the line.
    pub start: usize,
}

impl<'a> Token<'a> {
    /// Byte offset one past the end of the token.
    pub fn end(&self) -> usize {
        self.start + self.text.len()
    }
}

/// Splits `line` into whitespace-delimited tokens with positions.
///
/// ```
/// use confanon_iosparse::tokenize;
/// let toks = tokenize(" ip address 1.1.1.1 255.255.255.0");
/// let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
/// assert_eq!(texts, ["ip", "address", "1.1.1.1", "255.255.255.0"]);
/// assert_eq!(toks[0].start, 1);
/// ```
pub fn tokenize(line: &str) -> Vec<Token<'_>> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Skip the whitespace run via the class table.
        while i < bytes.len() && BYTE_CLASS[bytes[i] as usize] & CLASS_WS != 0 {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        let start = i;
        while i < bytes.len() && BYTE_CLASS[bytes[i] as usize] & CLASS_WS == 0 {
            i += 1;
        }
        out.push(Token {
            text: &line[start..i],
            start,
        });
    }
    out
}

/// Borrow-or-own line assembly: rebuilds `line` from sparse rewrites,
/// allocating only when at least one token actually changed.
///
/// `rewritten[i]` is `Some(new_text)` where token `i` was rewritten and
/// `None` where it is kept verbatim. When every entry is `None` the
/// original line *is* the output — the untouched-line identity is
/// structural, not re-assembled: interleaving the original whitespace
/// runs with the original token slices reproduces `line`'s exact bytes
/// (see DESIGN.md §17), so returning `Cow::Borrowed(line)` skips both
/// the allocation and the copy without changing a byte.
///
/// ```
/// use std::borrow::Cow;
/// use confanon_iosparse::{rebuild_sparse, tokenize};
/// let line = " neighbor 12.126.236.17 remote-as 701 ";
/// let toks = tokenize(line);
/// let untouched = vec![None; toks.len()];
/// assert!(matches!(rebuild_sparse(line, &toks, &untouched), Cow::Borrowed(_)));
/// let mut one = vec![None; toks.len()];
/// one[3] = Some("1239".to_string());
/// assert_eq!(rebuild_sparse(line, &toks, &one), " neighbor 12.126.236.17 remote-as 1239 ");
/// ```
pub fn rebuild_sparse<'a>(
    line: &'a str,
    originals: &[Token<'_>],
    rewritten: &[Option<String>],
) -> Cow<'a, str> {
    assert_eq!(originals.len(), rewritten.len());
    if rewritten.iter().all(Option::is_none) {
        return Cow::Borrowed(line);
    }
    let mut out = String::with_capacity(line.len());
    let mut cursor = 0;
    for (tok, new) in originals.iter().zip(rewritten) {
        out.push_str(&line[cursor..tok.start]); // the whitespace run
        match new {
            Some(s) => out.push_str(s),
            None => out.push_str(tok.text),
        }
        cursor = tok.end();
    }
    out.push_str(&line[cursor..]); // trailing whitespace, if any
    Cow::Owned(out)
}

/// A segment of a word: a maximal run of alphabetic characters, or a
/// maximal run of everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment<'a> {
    /// Letters only — the part checked against the pass-list.
    Alpha(&'a str),
    /// Digits/punctuation — never anonymized on its own (paper §4.2:
    /// `0/0` of `Ethernet0/0` "doesn't need anonymization").
    Other(&'a str),
}

impl<'a> Segment<'a> {
    /// The underlying text.
    pub fn text(&self) -> &'a str {
        match self {
            Segment::Alpha(s) | Segment::Other(s) => s,
        }
    }
}

/// The paper's two segmentation rules: split a word into alphabetic and
/// non-alphabetic runs, so `ethernet0/0` → `ethernet` + `0/0` and
/// `cr1.lax.foo.com` → `cr` + `1.` + `lax` + `.` + `foo` + `.` + `com`.
///
/// ```
/// use confanon_iosparse::{segment, Segment};
/// let segs = segment("Serial1/0.5");
/// assert_eq!(segs, vec![Segment::Alpha("Serial"), Segment::Other("1/0.5")]);
/// ```
pub fn segment(word: &str) -> Vec<Segment<'_>> {
    let mut out = Vec::new();
    let bytes = word.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let alpha = BYTE_CLASS[bytes[i] as usize] & CLASS_ALPHA;
        while i < bytes.len() && BYTE_CLASS[bytes[i] as usize] & CLASS_ALPHA == alpha {
            i += 1;
        }
        let s = &word[start..i];
        out.push(if alpha != 0 {
            Segment::Alpha(s)
        } else {
            Segment::Other(s)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use confanon_testkit::chaos::ChaosMutator;
    use confanon_testkit::props::any;

    /// The per-char reference tokenizer: byte-for-byte the pre-dispatch
    /// implementation of [`tokenize`].
    fn tokenize_chars(line: &str) -> Vec<Token<'_>> {
        let mut out = Vec::new();
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i].is_ascii_whitespace() {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            out.push(Token {
                text: &line[start..i],
                start,
            });
        }
        out
    }

    /// The per-char reference segmenter for [`segment`].
    fn segment_chars(word: &str) -> Vec<Segment<'_>> {
        let mut out = Vec::new();
        let bytes = word.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            let alpha = bytes[i].is_ascii_alphabetic();
            while i < bytes.len() && bytes[i].is_ascii_alphabetic() == alpha {
                i += 1;
            }
            let s = &word[start..i];
            out.push(if alpha {
                Segment::Alpha(s)
            } else {
                Segment::Other(s)
            });
        }
        out
    }

    /// The dense reference assembler for [`rebuild_sparse`]: every token
    /// replaced by its (possibly unchanged) rewrite, original whitespace
    /// runs in between.
    fn rebuild(line: &str, originals: &[Token<'_>], rewritten: &[String]) -> String {
        assert_eq!(originals.len(), rewritten.len());
        let mut out = String::with_capacity(line.len());
        let mut cursor = 0;
        for (tok, new) in originals.iter().zip(rewritten) {
            out.push_str(&line[cursor..tok.start]);
            out.push_str(new);
            cursor = tok.end();
        }
        out.push_str(&line[cursor..]);
        out
    }

    /// A chaos-mutated generated config, decoded lossily (the scanners
    /// take any `&str`).
    fn chaos_text(seed: u64) -> String {
        let ds = confanon_confgen::generate_dataset(&confanon_confgen::DatasetSpec {
            seed: 0x2e20_c0de,
            networks: 1,
            mean_routers: 2,
            backbone_fraction: 0.5,
        });
        let routers = &ds.networks[0].routers;
        let base = &routers[seed as usize % routers.len()].config;
        let mutated = ChaosMutator::new(seed).mutate(base.as_bytes());
        String::from_utf8_lossy(&mutated.bytes).into_owned()
    }

    confanon_testkit::props! {
        cases = 256;

        /// The byte-class tokenizer and segmenter agree with the per-char
        /// references on every line of a chaos-mutated config.
        fn byte_dispatch_scanners_match_references(seed in any::<u64>()) {
            for line in chaos_text(seed).lines() {
                assert_eq!(tokenize(line), tokenize_chars(line), "line {line:?}");
                for tok in tokenize(line) {
                    assert_eq!(
                        segment(tok.text),
                        segment_chars(tok.text),
                        "word {:?}",
                        tok.text
                    );
                }
            }
        }
    }

    #[test]
    fn byte_class_table_matches_std_predicates() {
        for b in 0u16..256 {
            let byte = b as u8;
            assert_eq!(
                BYTE_CLASS[b as usize] & CLASS_WS != 0,
                byte.is_ascii_whitespace(),
                "WS flag wrong for byte {byte:#04x}"
            );
            assert_eq!(
                BYTE_CLASS[b as usize] & CLASS_ALPHA != 0,
                byte.is_ascii_alphabetic(),
                "ALPHA flag wrong for byte {byte:#04x}"
            );
            assert_eq!(
                BYTE_CLASS[b as usize] & CLASS_DIGIT != 0,
                byte.is_ascii_digit(),
                "DIGIT flag wrong for byte {byte:#04x}"
            );
        }
    }

    #[test]
    fn tokenize_empty_and_blank() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t ").is_empty());
    }

    #[test]
    fn tokenize_positions() {
        let toks = tokenize("a  bb\tccc");
        assert_eq!(toks.len(), 3);
        assert_eq!((toks[0].text, toks[0].start), ("a", 0));
        assert_eq!((toks[1].text, toks[1].start), ("bb", 3));
        assert_eq!((toks[2].text, toks[2].start), ("ccc", 6));
    }

    #[test]
    fn dispatch_and_reference_tokenizers_agree() {
        for line in [
            "",
            "   \t ",
            " ip address 1.1.1.1 255.255.255.0",
            "x",
            "trailing space ",
            "\tmixed\u{7f}bytes\u{b}here",
        ] {
            assert_eq!(tokenize(line), tokenize_chars(line), "line {line:?}");
        }
    }

    #[test]
    fn rebuild_identity() {
        let line = " neighbor 12.126.236.17 remote-as 701 ";
        let toks = tokenize(line);
        let same: Vec<String> = toks.iter().map(|t| t.text.to_string()).collect();
        assert_eq!(rebuild(line, &toks, &same), line);
    }

    #[test]
    fn rebuild_with_rewrites_preserves_separators() {
        let line = "  route-map UUNET-import deny 10";
        let toks = tokenize(line);
        let mut texts: Vec<String> = toks.iter().map(|t| t.text.to_string()).collect();
        texts[1] = "h0123456789abcdef".to_string();
        let rebuilt = rebuild(line, &toks, &texts);
        assert_eq!(rebuilt, "  route-map h0123456789abcdef deny 10");
    }

    #[test]
    fn rebuild_sparse_borrows_untouched_lines() {
        let line = "  access-list 143 permit ip 1.2.3.0 0.0.0.255 any ";
        let toks = tokenize(line);
        let untouched: Vec<Option<String>> = vec![None; toks.len()];
        let cow = rebuild_sparse(line, &toks, &untouched);
        assert!(matches!(cow, Cow::Borrowed(_)));
        assert_eq!(cow, line);
    }

    #[test]
    fn rebuild_sparse_matches_dense_rebuild_on_rewrites() {
        let line = "  route-map UUNET-import deny 10";
        let toks = tokenize(line);
        let mut sparse: Vec<Option<String>> = vec![None; toks.len()];
        sparse[1] = Some("h0123456789abcdef".to_string());
        let dense: Vec<String> = toks
            .iter()
            .zip(&sparse)
            .map(|(t, s)| s.clone().unwrap_or_else(|| t.text.to_string()))
            .collect();
        let cow = rebuild_sparse(line, &toks, &sparse);
        assert!(matches!(cow, Cow::Owned(_)));
        assert_eq!(cow, rebuild(line, &toks, &dense));
    }

    #[test]
    fn segment_interface_names() {
        assert_eq!(
            segment("Ethernet0"),
            vec![Segment::Alpha("Ethernet"), Segment::Other("0")]
        );
        assert_eq!(
            segment("Serial1/0.5"),
            vec![Segment::Alpha("Serial"), Segment::Other("1/0.5")]
        );
    }

    #[test]
    fn segment_hostnames() {
        let segs = segment("cr1.lax.foo.com");
        let texts: Vec<&str> = segs.iter().map(|s| s.text()).collect();
        assert_eq!(texts, ["cr", "1.", "lax", ".", "foo", ".", "com"]);
    }

    #[test]
    fn segment_pure_runs() {
        assert_eq!(segment("hostname"), vec![Segment::Alpha("hostname")]);
        assert_eq!(segment("10.1.2.3"), vec![Segment::Other("10.1.2.3")]);
        assert!(segment("").is_empty());
    }

    #[test]
    fn dispatch_and_reference_segmenters_agree() {
        for w in ["", "Ethernet0/0", "cr1.lax.foo.com", "AS701", "701:1234", "übergang"] {
            assert_eq!(segment(w), segment_chars(w), "word {w:?}");
        }
    }

    #[test]
    fn segments_reassemble_to_word() {
        for w in ["Ethernet0/0", "cr1.lax.foo.com", "AS701", "x", "701:1234"] {
            let joined: String = segment(w).iter().map(|s| s.text()).collect();
            assert_eq!(joined, w);
        }
    }
}
