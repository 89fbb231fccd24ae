//! Property tests for tokenization: the byte-faithfulness contract that
//! lets operators diff pre/post configs meaningfully.

use confanon_iosparse::{rebuild_sparse, segment, tokenize, Config, Segment};
use confanon_testkit::props::pattern;

confanon_testkit::props! {
    cases = 256;

    /// Rebuilding a line from its own tokens is the identity, whether
    /// every token is kept (the borrowed line) or rewritten to itself
    /// (the assembled line).
    fn rebuild_identity(line in pattern("[ -~]{0,120}")) {
        let toks = tokenize(&line);
        assert_eq!(rebuild_sparse(&line, &toks, &vec![None; toks.len()]), line);
        let same: Vec<Option<String>> = toks.iter().map(|t| Some(t.text.to_string())).collect();
        assert_eq!(rebuild_sparse(&line, &toks, &same), line);
    }

    /// Tokens cover exactly the non-whitespace bytes, in order.
    fn tokens_cover_non_whitespace(line in pattern("[ -~\t]{0,120}")) {
        let toks = tokenize(&line);
        let mut covered = vec![false; line.len()];
        for t in &toks {
            assert!(!t.text.contains(' ') && !t.text.contains('\t'));
            for c in covered.iter_mut().take(t.end()).skip(t.start) {
                *c = true;
            }
        }
        for (i, b) in line.bytes().enumerate() {
            assert_eq!(covered[i], !b.is_ascii_whitespace(), "byte {i}");
        }
    }

    /// Segments of a word concatenate back to the word, alternate between
    /// alpha and non-alpha, and are never empty.
    fn segmentation_laws(word in pattern("[!-~]{1,40}")) {
        let segs = segment(&word);
        let joined: String = segs.iter().map(|s| s.text()).collect();
        assert_eq!(joined, word.clone());
        for pair in segs.windows(2) {
            let alpha = |s: &Segment<'_>| matches!(s, Segment::Alpha(_));
            assert_ne!(alpha(&pair[0]), alpha(&pair[1]), "segments must alternate");
        }
        for s in &segs {
            assert!(!s.text().is_empty());
        }
    }

    /// Config parse/print round trip (modulo a trailing newline).
    fn config_round_trip(text in pattern("([ -~]{0,60}\n){0,10}")) {
        let cfg = Config::parse(&text);
        let mut expect = text.clone();
        if !expect.is_empty() && !expect.ends_with('\n') {
            expect.push('\n');
        }
        if expect.is_empty() {
            assert!(cfg.is_empty());
        } else {
            assert_eq!(cfg.to_text(), expect);
        }
    }

    /// Classification is total and aligned.
    fn classification_total(text in pattern("([ -~]{0,60}\n){0,10}")) {
        let cfg = Config::parse(&text);
        assert_eq!(cfg.kinds().len(), cfg.lines().len());
    }
}
