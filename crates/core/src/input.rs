//! Hostile-input sanitization: everything that happens to raw bytes
//! before the rule pipeline sees them.
//!
//! Real corpora contain damaged files — truncated transfers, EBCDIC or
//! latin-1 mojibake, editor droppings, multi-megabyte pasted lines. The
//! paper's contract (§1: "fully automated to avoid human errors") means
//! none of those may abort a run; fail-closed means none of them may
//! *silently* alter a clean file either. Sanitization is therefore the
//! identity function on well-formed UTF-8 configuration text and a
//! counted, deterministic repair everywhere else:
//!
//! * invalid UTF-8 sequences become U+FFFD via lossy decoding;
//! * C0 control characters (other than `\t`, `\n`, `\r`) and DEL become
//!   spaces, so a spliced NUL cannot fuse two tokens into a new
//!   identifier nor hide one from the leak scanner;
//! * lines longer than [`MAX_LINE_LEN`] bytes are truncated at a char
//!   boundary (a megabyte "line" is an attack or corruption, never IOS).

/// Upper bound on one input line, in bytes. Real IOS lines are < 1 KiB;
/// the cap only exists so pathological input cannot balloon memory or
/// hashing work.
pub const MAX_LINE_LEN: usize = 64 * 1024;

/// What sanitization had to repair. All-zero for clean input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputSanitation {
    /// Invalid UTF-8 byte sequences replaced with U+FFFD.
    pub invalid_utf8_replaced: u64,
    /// Control characters replaced with spaces.
    pub controls_replaced: u64,
    /// Lines truncated to [`MAX_LINE_LEN`].
    pub lines_truncated: u64,
}

impl InputSanitation {
    /// True when the input needed no repair (output == input).
    pub fn is_clean(&self) -> bool {
        *self == InputSanitation::default()
    }
}

/// Decodes and repairs raw config bytes. Returns the text the rule
/// pipeline should see plus a tally of repairs; clean UTF-8 config text
/// round-trips byte-identically. Input the repair loop could not change
/// (see `needs_no_repair`) is returned as one copy.
pub fn sanitize_bytes(bytes: &[u8]) -> (String, InputSanitation) {
    match std::str::from_utf8(bytes) {
        Ok(s) if needs_no_repair(bytes) => (s.to_owned(), InputSanitation::default()),
        _ => repair(bytes),
    }
}

/// The repair loop: one `char` at a time, over any input.
fn repair(bytes: &[u8]) -> (String, InputSanitation) {
    let mut tally = InputSanitation::default();

    let text = match std::str::from_utf8(bytes) {
        Ok(s) => std::borrow::Cow::Borrowed(s),
        Err(_) => {
            let lossy = String::from_utf8_lossy(bytes);
            tally.invalid_utf8_replaced = lossy.chars().filter(|&c| c == '\u{FFFD}').count() as u64;
            lossy
        }
    };

    let mut out = String::with_capacity(text.len());
    let mut line_len = 0usize; // bytes of the current line already kept
    let mut truncating = false;
    for c in text.chars() {
        if c == '\n' {
            if truncating {
                tally.lines_truncated += 1;
                truncating = false;
            }
            line_len = 0;
            out.push('\n');
            continue;
        }
        if truncating {
            continue;
        }
        let repaired = if c.is_control() && !matches!(c, '\t' | '\r') {
            tally.controls_replaced += 1;
            ' '
        } else {
            c
        };
        if line_len + repaired.len_utf8() > MAX_LINE_LEN {
            truncating = true;
            continue;
        }
        line_len += repaired.len_utf8();
        out.push(repaired);
    }
    if truncating {
        tally.lines_truncated += 1;
    }
    (out, tally)
}

/// Whether the repair loop would return `bytes` unchanged for a reason
/// that is cheap to see: every byte printable ASCII, tab, CR or LF, and
/// no line longer than [`MAX_LINE_LEN`]. The bytes are classified in one
/// branch-free pass per 64-byte chunk; lines are measured only in input
/// longer than the cap, since shorter input cannot hold a long line.
fn needs_no_repair(bytes: &[u8]) -> bool {
    let repaired = |b: u8| (b >= 0x7F) | ((b < 0x20) & (b != b'\t') & (b != b'\n') & (b != b'\r'));
    let mut chunks = bytes.chunks_exact(64);
    for chunk in &mut chunks {
        if chunk.iter().fold(false, |any, &b| any | repaired(b)) {
            return false;
        }
    }
    !chunks.remainder().iter().any(|&b| repaired(b))
        && (bytes.len() <= MAX_LINE_LEN
            || bytes
                .split(|&b| b == b'\n')
                .all(|line| line.len() <= MAX_LINE_LEN))
}

#[cfg(test)]
mod tests {
    use super::*;
    use confanon_testkit::chaos::ChaosMutator;
    use confanon_testkit::props::{any, vec_of};

    /// The repair loop is the reference for the clean copy.
    fn assert_matches_reference(bytes: &[u8]) {
        assert!(
            sanitize_bytes(bytes) == repair(bytes),
            "sanitize diverged on {} bytes starting {:?}",
            bytes.len(),
            String::from_utf8_lossy(&bytes[..bytes.len().min(80)])
        );
    }

    #[test]
    fn clean_copy_matches_the_repair_loop_at_the_edges() {
        let line = |n: usize| {
            let mut v = vec![b'x'; n];
            v.push(b'\n');
            v
        };
        let short_lines: Vec<u8> = b"interface Serial0\r\n ip address 10.0.0.1 255.0.0.0\n"
            .iter()
            .copied()
            .cycle()
            .take(3 * MAX_LINE_LEN)
            .collect();
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            line(MAX_LINE_LEN),
            line(MAX_LINE_LEN + 1),
            vec![b'y'; MAX_LINE_LEN],
            vec![b'y'; MAX_LINE_LEN + 1],
            [line(10), line(MAX_LINE_LEN), line(3)].concat(),
            [line(10), line(MAX_LINE_LEN + 1), line(3)].concat(),
            short_lines.clone(),
            [short_lines, vec![0x7F]].concat(),
            b"a\x7Fb\n".to_vec(),
            "c1 \u{85} control\n".as_bytes().to_vec(),
            "caf\u{e9} and \u{e9}\n".as_bytes().to_vec(),
            b"a\r\nb\r\n".to_vec(),
            b"tab\there\n".to_vec(),
            b"nul\x00and\x1Bescape".to_vec(),
            b"bad \xFF utf8\n".to_vec(),
            (0u8..=255).collect(),
        ];
        for bytes in &cases {
            assert_matches_reference(bytes);
        }
        // The clean copies really are taken, and only for clean input.
        assert!(needs_no_repair(&line(MAX_LINE_LEN)));
        assert!(!needs_no_repair(&line(MAX_LINE_LEN + 1)));
        assert!(needs_no_repair(&cases[7]));
        assert!(needs_no_repair(b""));
        assert!(needs_no_repair(b"a\r\nb\r\n"));
        for dirty in [
            &b"\x7F"[..],
            "\u{85}".as_bytes(),
            "\u{e9}".as_bytes(),
            b"\x00",
        ] {
            assert!(!needs_no_repair(dirty), "{dirty:?}");
        }
    }

    confanon_testkit::props! {
        cases = 64;

        /// Chaos-mutated generated configs sanitize exactly as the repair
        /// loop does, whether or not they take the clean copy.
        fn sanitize_matches_reference_on_chaos(seed in any::<u64>()) {
            let texts: Vec<String> = confanon_confgen::generate_dataset(
                &confanon_confgen::DatasetSpec {
                    seed,
                    networks: 1,
                    mean_routers: 2,
                    backbone_fraction: 0.5,
                },
            )
            .networks
            .into_iter()
            .flat_map(|n| n.routers.into_iter().map(|r| r.config))
            .collect();
            let mut mutator = ChaosMutator::new(seed);
            for text in &texts {
                assert_matches_reference(text.as_bytes());
                assert_matches_reference(&mutator.mutate(text.as_bytes()).bytes);
            }
        }
    }

    confanon_testkit::props! {
        cases = 256;

        /// Raw random bytes, mostly printable, sanitize exactly as the
        /// repair loop does.
        fn sanitize_matches_reference_on_random_bytes(
            raw in vec_of(any::<u8>(), 0usize..300),
            bias in any::<u8>(),
        ) {
            // Fold most bytes into printable ASCII so clean inputs and
            // single stray bytes both occur.
            let bytes: Vec<u8> = raw
                .iter()
                .map(|&b| if b > bias { b } else { b' ' + b % 95 })
                .collect();
            assert_matches_reference(&bytes);
        }
    }

    #[test]
    fn clean_text_is_identity() {
        let text = "hostname r1\n! comment\n interface Serial0/0\r\n ip address 1.2.3.4 255.0.0.0\n";
        let (out, tally) = sanitize_bytes(text.as_bytes());
        assert_eq!(out, text);
        assert!(tally.is_clean());
    }

    #[test]
    fn invalid_utf8_is_lossy_decoded_and_counted() {
        let bytes = b"router bgp 7\xFF\xFE01\n";
        let (out, tally) = sanitize_bytes(bytes);
        assert!(out.contains('\u{FFFD}'));
        assert_eq!(tally.invalid_utf8_replaced, 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn control_chars_become_spaces() {
        let bytes = b"router\x00bgp\x0b701\n\tkeep tab\n";
        let (out, tally) = sanitize_bytes(bytes);
        assert_eq!(out, "router bgp 701\n\tkeep tab\n");
        assert_eq!(tally.controls_replaced, 2);
    }

    #[test]
    fn megabyte_line_is_capped() {
        let mut bytes = vec![b'x'; 1 << 20];
        bytes.push(b'\n');
        bytes.extend_from_slice(b"hostname r1\n");
        let (out, tally) = sanitize_bytes(&bytes);
        let first = out.lines().next().unwrap();
        assert_eq!(first.len(), MAX_LINE_LEN);
        assert_eq!(tally.lines_truncated, 1);
        assert!(out.ends_with("hostname r1\n"));
    }

    #[test]
    fn unterminated_capped_line_still_counts() {
        let bytes = vec![b'y'; MAX_LINE_LEN + 5];
        let (out, tally) = sanitize_bytes(&bytes);
        assert_eq!(out.len(), MAX_LINE_LEN);
        assert_eq!(tally.lines_truncated, 1);
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        // A multi-byte char straddling the cap must not split.
        let mut s = "a".repeat(MAX_LINE_LEN - 1);
        s.push('é'); // 2 bytes: would end at MAX_LINE_LEN + 1
        s.push('\n');
        let (out, tally) = sanitize_bytes(s.as_bytes());
        assert_eq!(out.lines().next().unwrap().len(), MAX_LINE_LEN - 1);
        assert_eq!(tally.lines_truncated, 1);
        assert!(std::str::from_utf8(out.as_bytes()).is_ok());
    }

    #[test]
    fn crlf_survives() {
        let (out, tally) = sanitize_bytes(b"a\r\nb\r\n");
        assert_eq!(out, "a\r\nb\r\n");
        assert!(tally.is_clean());
    }
}
