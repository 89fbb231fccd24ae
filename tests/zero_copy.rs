//! The zero-copy suite: the borrow-or-own verdict and the mmap read path.
//!
//! 1. **Borrow verdict** — `anonymize_command_line` returns
//!    `Cow::Borrowed` *exactly* when no byte of the line changed;
//! 2. **Read-path identity** — `read_mapped` returns the same bytes as
//!    `read` for every size class, on `StdFs` (real mmap above the
//!    threshold) and on `FaultFs` (default-method fallback).
//!
//! The rewrite and scanner identities need the test-only reference
//! paths, so they live beside them as unit properties: the shipped line
//! path against the reference line path in `confanon-core`
//! (`anonymizer::reference`), and the byte-class tokenizer and segmenter
//! against the per-char references in `confanon-iosparse`
//! (`token::tests`).

use std::borrow::Cow;
use std::path::PathBuf;

use confanon::core::{
    sanitize_bytes, Anonymizer, AnonymizerConfig, Fs, StdFs, MMAP_MIN_LEN,
};
use confanon::workflow::{anonymize_corpus_gated, GatedOptions};
use confanon_testkit::props::{any, pattern, Strategy};

/// Strategy: one plausible config line, biased toward the shapes the
/// rules care about (addresses, ASNs, hostnames, pass-list keywords).
fn config_line() -> impl Strategy<Value = String> {
    (
        any::<u32>(),
        1u16..64000,
        pattern("[a-zA-Z][a-zA-Z0-9.-]{0,12}"),
        0u8..6,
    )
        .prop_map(|(raw, asn, word, shape)| {
            let ip = confanon::netprim::Ip(raw);
            match shape {
                0 => format!(" neighbor {ip} remote-as {asn}"),
                1 => format!("hostname {word}"),
                2 => format!(" ip address {ip} 255.255.255.0"),
                3 => format!(" description link to {word} via {ip}"),
                4 => "interface Serial0/0".to_string(),
                _ => format!(" snmp-server community {word} RO"),
            }
        })
}

fn anon(secret: u64) -> Anonymizer {
    Anonymizer::new(AnonymizerConfig::new(secret.to_be_bytes().to_vec()))
}

confanon_testkit::props! {
    cases = 256;

    /// The borrow-or-own invariant (DESIGN.md §17): `Borrowed` is
    /// returned exactly when the emitted line is byte-identical to the
    /// input — classification-only rule fires and permutation fixed
    /// points included.
    fn borrowed_iff_no_byte_changed(line in config_line(), secret in any::<u64>()) {
        let mut a = anon(secret);
        let mut stats = Default::default();
        let out = a.anonymize_command_line(&line, &mut stats);
        match &out {
            Cow::Borrowed(s) => assert_eq!(*s, line, "Borrowed must alias the input"),
            Cow::Owned(s) => assert_ne!(
                s, &line,
                "an Owned line equal to its input is a missed borrow"
            ),
        }
        let r = a.rewrite_stats();
        assert_eq!(r.lines_total, r.lines_borrowed + r.lines_rewritten);
        assert_eq!(
            matches!(out, Cow::Borrowed(_)),
            r.lines_borrowed == 1,
            "the counters must agree with the verdict"
        );
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("confanon-zerocopy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mk tmpdir");
    d
}

/// `read_mapped` vs. `read` identity at every size class, on both the
/// real filesystem (which maps files at or above [`MMAP_MIN_LEN`]) and
/// the fault injector (which inherits the trait's buffered default —
/// identity by construction, pinned here so an override would have to
/// re-prove it).
#[test]
fn read_mapped_is_read_on_std_and_fault_fs() {
    let dir = tmpdir("readpath");
    let fault = confanon_testkit::faultfs::FaultFs::quiet(2004);
    let sizes = [
        0usize,
        1,
        4096,
        MMAP_MIN_LEN as usize - 1,
        MMAP_MIN_LEN as usize,
        2 * MMAP_MIN_LEN as usize + 17,
    ];
    for (i, size) in sizes.into_iter().enumerate() {
        let bytes: Vec<u8> = (0..size).map(|b| (b * 31 % 251) as u8).collect();
        let path = dir.join(format!("f{i}.cfg"));
        std::fs::write(&path, &bytes).expect("write fixture");

        let buffered = Fs::read(&StdFs, &path).expect("std read");
        let mapped = Fs::read_mapped(&StdFs, &path).expect("std read_mapped");
        assert_eq!(&*mapped, buffered.as_slice(), "StdFs size {size}");

        let fb = Fs::read(&fault, &path).expect("faultfs read");
        let fm = Fs::read_mapped(&fault, &path).expect("faultfs read_mapped");
        assert_eq!(&*fm, fb.as_slice(), "FaultFs size {size}");
        assert!(
            !fm.is_mapped(),
            "FaultFs must inherit the buffered default, size {size}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An anonymization run fed through `read_mapped` produces the same
/// released bytes as one fed through buffered `read` — the corpus-level
/// closure of the per-file identity above.
#[test]
fn pipeline_output_identical_across_read_paths() {
    let ds = confanon::confgen::generate_dataset(&confanon::confgen::DatasetSpec {
        seed: 0x7e5d,
        networks: 1,
        mean_routers: 3,
        backbone_fraction: 0.5,
    });
    let dir = tmpdir("pipeline");
    let mut names: Vec<PathBuf> = Vec::new();
    for r in &ds.networks[0].routers {
        // Tile each config past MMAP_MIN_LEN so the mapped arm actually
        // exercises mmap on at least some files.
        let mut text = String::new();
        while text.len() <= MMAP_MIN_LEN as usize {
            text.push_str(&r.config);
        }
        let p = dir.join(format!("{}.cfg", r.hostname));
        std::fs::write(&p, text.as_bytes()).expect("write corpus file");
        names.push(p);
    }

    let corpus_via = |mapped: bool| -> Vec<(String, String)> {
        names
            .iter()
            .map(|p| {
                let bytes: Vec<u8> = if mapped {
                    Fs::read_mapped(&StdFs, p).expect("read_mapped").to_vec()
                } else {
                    Fs::read(&StdFs, p).expect("read")
                };
                let (text, _) = sanitize_bytes(&bytes);
                (p.file_name().unwrap().to_string_lossy().into_owned(), text)
            })
            .collect()
    };

    let run = |files: &[(String, String)]| -> Vec<(String, String)> {
        let cfg = AnonymizerConfig::new(b"readpath-secret".to_vec());
        let run = anonymize_corpus_gated(files, cfg, GatedOptions::jobs(2)).expect("cold run");
        run.clean
            .into_iter()
            .map(|o| (o.name, o.text))
            .collect()
    };

    assert_eq!(
        run(&corpus_via(true)),
        run(&corpus_via(false)),
        "released bytes must not depend on the read path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
