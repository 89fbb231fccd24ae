//! CLI integration: generate → anonymize → validate, through the binary.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_confanon"))
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("confanon-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mktemp");
    d
}

#[test]
fn generate_anonymize_validate_round_trip() {
    let root = tmpdir("roundtrip");
    let gen_dir = root.join("gen");
    let status = bin()
        .args(["generate", "--networks", "1", "--routers", "4", "--seed", "11"])
        .arg("--out-dir")
        .arg(&gen_dir)
        .status()
        .expect("run generate");
    assert!(status.success());

    // The single network directory.
    let net_dir = std::fs::read_dir(&gen_dir)
        .expect("gen dir")
        .next()
        .expect("one network")
        .expect("entry")
        .path();
    let cfgs: Vec<std::path::PathBuf> = std::fs::read_dir(&net_dir)
        .expect("net dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert!(cfgs.len() >= 3);

    // Anonymize into post/.
    let post = root.join("post");
    let mut cmd = bin();
    cmd.args(["anonymize", "--secret", "cli-test-secret"])
        .arg("--out-dir")
        .arg(&post);
    for c in &cfgs {
        cmd.arg(c);
    }
    assert!(cmd.status().expect("run anonymize").success());

    // Strip the .anon suffix so the validate file sets line up.
    let pre = root.join("pre");
    std::fs::create_dir_all(&pre).expect("mk pre");
    for c in &cfgs {
        std::fs::copy(c, pre.join(c.file_name().expect("name"))).expect("copy");
    }
    for e in std::fs::read_dir(&post).expect("post dir") {
        let p = e.expect("entry").path();
        let name = p.file_name().expect("name").to_string_lossy().to_string();
        if let Some(stripped) = name.strip_suffix(".anon") {
            std::fs::rename(&p, p.with_file_name(stripped)).expect("rename");
        }
    }

    let out = bin()
        .arg("validate")
        .arg("--pre-dir")
        .arg(&pre)
        .arg("--post-dir")
        .arg(&post)
        .output()
        .expect("run validate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("suite1: PASS"), "{stdout}");
    assert!(stdout.contains("suite2: PASS"), "{stdout}");

    // The anonymized output must not contain the generated hostnames.
    let any_pre = std::fs::read_to_string(&cfgs[0]).expect("read pre");
    let hostname_line = any_pre
        .lines()
        .find(|l| l.starts_with("hostname"))
        .expect("hostname line");
    let hostname = hostname_line.split_whitespace().nth(1).expect("arg");
    for e in std::fs::read_dir(&post).expect("post dir") {
        let text = std::fs::read_to_string(e.expect("e").path()).expect("read post");
        assert!(!text.contains(hostname), "{hostname} survived");
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rules_lists_all_28() {
    let out = bin().arg("rules").output().expect("run rules");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with('R')).count(),
        28,
        "{stdout}"
    );
    assert!(stdout.contains("as-path-regexp"));
}

#[test]
fn anonymize_requires_secret() {
    let out = bin()
        .args(["anonymize", "somefile.cfg"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--secret"));
}

#[test]
fn usage_on_no_args() {
    let out = bin().output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn anonymize_to_stdout() {
    let root = tmpdir("stdout");
    let cfg = root.join("r1.cfg");
    std::fs::write(&cfg, "hostname secret-router.corp.com\nrouter bgp 701\n").expect("write");
    let out = bin()
        .args(["anonymize", "--secret", "s"])
        .arg(&cfg)
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hostname h"));
    assert!(!stdout.contains("corp"));
    assert!(!stdout.contains("701"));
    assert!(Path::new(&cfg).exists(), "input untouched");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn anonymize_withholds_outputs_its_self_audit_flags() {
    // `ip ospf cost 701` is a cost, which no locator maps, but 701 is
    // the recorded `router bgp` ASN: the self-audit flags the line, so
    // the file must not be written.
    let root = tmpdir("anonymize-gated");
    let cfg = root.join("g.cfg");
    std::fs::write(&cfg, "router bgp 701\n ip ospf cost 701\n").expect("write");
    let up = root.join("up");
    let out = bin()
        .args(["anonymize", "--secret", "s", "--out-dir"])
        .arg(&up)
        .arg(&cfg)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("ip ospf cost 701"), "{stderr}");
    assert_eq!(count_files(&up, "anon"), 0, "a flagged output was written");
    let out = bin()
        .args(["anonymize", "--secret", "s"])
        .arg(&cfg)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(4));
    assert!(out.stdout.is_empty(), "a flagged output was printed");
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `batch` over a one-file corpus holding `text`; returns the exit
/// code, the number of `.anon` files released into the out dir, and the
/// leak report (empty when none was written).
fn batch_one_file(root: &Path, text: impl AsRef<[u8]>) -> (Option<i32>, usize, String) {
    batch_one_file_under(root, "s", text)
}

/// [`batch_one_file`] under the owner secret `secret`.
fn batch_one_file_under(
    root: &Path,
    secret: &str,
    text: impl AsRef<[u8]>,
) -> (Option<i32>, usize, String) {
    let _ = std::fs::remove_dir_all(root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    std::fs::write(corpus.join("a.cfg"), text).expect("write");
    let (out_dir, quarantine) = (root.join("out"), root.join("quar"));
    let out = bin()
        .args(["batch", "--secret", secret, "--out-dir"])
        .arg(&out_dir)
        .arg("--quarantine-dir")
        .arg(&quarantine)
        .arg(&corpus)
        .output()
        .expect("batch");
    let report = std::fs::read_to_string(quarantine.join("leak_report.json")).unwrap_or_default();
    (out.status.code(), count_files(&out_dir, "anon"), report)
}

#[test]
fn public_4byte_asns_are_withheld_not_released() {
    // The 16-bit ASN map cannot permute RFC 6793 ASNs; until they are
    // mapped, every locator records a public one so the gate withholds
    // the file instead of releasing it in plaintext.
    let root = tmpdir("asn32");
    let (code, released, report) = batch_one_file(
        &root,
        "router bgp 262144\n neighbor 12.1.1.2 remote-as 396982\n\
         ip as-path access-list 5 permit _396982_\n",
    );
    assert_eq!((code, released), (Some(4), 0));
    for asn in ["262144", "396982"] {
        let token = format!("\"token\": \"{asn}\"");
        assert!(report.contains(&token), "{asn}: {report}");
    }
    // Asdot spells the same ASNs: 4.10 is 262,154 and 6.20 is 393,236.
    let (code, released, report) = batch_one_file(
        &root,
        "router bgp 4.10\n neighbor 12.1.1.2 remote-as 6.20\n",
    );
    assert_eq!((code, released), (Some(4), 0));
    for asn in ["4.10", "6.20"] {
        let token = format!("\"token\": \"{asn}\"");
        assert!(report.contains(&token), "{asn}: {report}");
    }
    for line in [
        "ip as-path access-list 6 permit _396982_\n",
        " set community 396982:100\n",
        " bgp confederation peers 262145\n",
        " set extcommunity rt 4.10:100\n",
    ] {
        let (code, released, _) = batch_one_file(&root, line);
        assert_eq!((code, released), (Some(4), 0), "{line:?}");
    }
    // A private 4-byte ASN (RFC 6996) names no network, in either
    // notation (64086.59904 is 4,200,000,000).
    for text in ["router bgp 4200000001\n", "router bgp 64086.59904\n"] {
        let (code, released, _) = batch_one_file(&root, text);
        assert_eq!((code, released), (Some(0), 1), "{text:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn words_spelled_by_hash_images_are_not_leaks() {
    // Under this secret the image of `b` spells a lone `b`
    // (`hostname h53abe13b3533afe9`), every image starts with `h`, which
    // the IOS archive path's `$h` records as an identity word, and the
    // image of `2400:bb5:1ff5::1` spells `de` in its hex groups
    // (`3156:de4:…`). All were quarantined (exit 4) although nothing
    // leaked.
    let root = tmpdir("image-words");
    for text in [
        "hostname b\n",
        "hostname rtr3\narchive\n path tftp://10.0.0.9/$h-$t\n",
        "hostname de\n ipv6 address 2400:bb5:1ff5::1/64\n",
    ] {
        let (code, released, report) = batch_one_file_under(&root, "incr-suite-secret", text);
        assert_eq!((code, released), (Some(0), 1), "{text:?}: {report}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn alternate_as_asns_are_mapped() {
    // Every ASN after `alternate-as` is permuted (and recorded), with or
    // without `remote-as` in front; the keyword itself survives.
    let root = tmpdir("alternate-as");
    let (code, released, report) = batch_one_file_under(
        &root,
        "incr-suite-secret",
        "router bgp 701\n neighbor 12.1.1.2 remote-as 702 alternate-as 703\n\
         neighbor 12.1.1.3 alternate-as 704 705\n",
    );
    assert_eq!((code, released), (Some(0), 1), "{report}");
    let out = std::fs::read_to_string(root.join("out").join("a.cfg.anon")).expect("released");
    assert_eq!(out.matches(" alternate-as ").count(), 2, "{out}");
    for asn in ["701", "702", "703", "704", "705"] {
        assert!(!out.split_whitespace().any(|t| t == asn), "{asn} released: {out}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dotted_quads_inside_compound_tokens_are_mapped() {
    // The per-token pass maps the address inside a URL, a route target
    // and a token with repaired bytes after it; each was released in
    // plaintext with exit 0.
    let root = tmpdir("compound-quads");
    for (addr, text) in [
        (
            "12.1.1.1",
            &b" ip address 12.1.1.1 255.255.255.252\nboot host tftp://12.1.1.1/cfg\n"[..],
        ),
        (
            "12.1.1.1",
            b" ip address 12.1.1.1 255.255.255.252\n set extcommunity rt 12.1.1.1:100\n",
        ),
        (
            "21.164.249.240",
            b"access-list 151 deny ip host 21.164.249.240\xC0\xAF any log\n",
        ),
    ] {
        let (code, released, report) = batch_one_file(&root, text);
        assert_eq!((code, released), (Some(0), 1), "{addr}: {report}");
        let out = std::fs::read_to_string(root.join("out").join("a.cfg.anon")).expect("released");
        let mut runs = out.split(|c: char| !(c.is_ascii_digit() || c == '.'));
        assert!(!runs.any(|run| run == addr), "{addr} released: {out}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `batch` over one file holding `text` and asserts that it exits 0
/// and releases the file with no digit-and-dot run equal to `addr` once
/// the dots around the run are set aside. Returns the released text.
fn assert_released_without(root: &Path, addr: &str, text: &str) -> String {
    let (code, released, report) = batch_one_file(root, text);
    assert_eq!((code, released), (Some(0), 1), "{text:?}: {report}");
    let out = std::fs::read_to_string(root.join("out").join("a.cfg.anon")).expect("released");
    let mut runs = out.split(|c: char| !(c.is_ascii_digit() || c == '.'));
    assert!(
        !runs.any(|run| run.trim_matches('.') == addr),
        "{addr} released: {out}"
    );
    out
}

#[test]
fn out_of_range_prefix_lengths_map_their_address() {
    // R23 kept `12.1.1.1/33` verbatim: the address was released in
    // plaintext with exit 0, or, when another line recorded it, the
    // whole file was withheld (exit 4).
    let root = tmpdir("prefix-len-33");
    for iface in ["10.9.9.1", "12.1.1.1"] {
        let text = format!(
            "hostname rtr\ninterface Serial0\n ip address {iface} 255.255.255.252\n\
             ip route 12.1.1.1/33 Null0\n"
        );
        let out = assert_released_without(&root, "12.1.1.1", &text);
        assert!(
            out.contains("/33 Null0"),
            "the length stays as written: {out}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dotted_quads_beside_dots_are_mapped() {
    // A dot beside a quad made a five-part run that neither the
    // per-token pass mapped nor the gate looked up: released in
    // plaintext with exit 0, even when another line recorded it.
    let root = tmpdir("quad-dots");
    for line in [
        "logging 12.1.1.1.",
        "logging .12.1.1.1",
        "logging (12.1.1.1.)",
    ] {
        for iface in ["10.9.9.1", "12.1.1.1"] {
            let text = format!(
                "hostname rtr\ninterface Serial0\n ip address {iface} 255.255.255.252\n{line}\n"
            );
            assert_released_without(&root, "12.1.1.1", &text);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn recorded_asns_beside_a_dot_are_withheld() {
    // The gate looked the run `702.` up with its dot, so it never matched
    // the recorded `702`: the line was released in plaintext with exit 0.
    let root = tmpdir("asn-dot");
    let (code, released, report) = batch_one_file(
        &root,
        "router bgp 701\n neighbor 12.1.1.2 remote-as 702\n neighbor 12.1.1.2 \
         description peer 702.\n",
    );
    assert_eq!((code, released), (Some(4), 0), "{report}");
    assert!(report.contains("\"token\": \"702\""), "{report}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn redistribute_bgp_maps_the_process_asn() {
    // No anchor located the ASN after `redistribute bgp`, so the gate
    // found the `701` that `router bgp 701` recorded and withheld a file
    // in which nothing else leaked (exit 4).
    let root = tmpdir("redistribute-bgp");
    let (code, released, report) = batch_one_file(
        &root,
        "router bgp 701\n neighbor 12.1.1.2 remote-as 702\n\
         router ospf 1\n redistribute bgp 701 subnets\n",
    );
    assert_eq!((code, released), (Some(0), 1), "{report}");
    let out = std::fs::read_to_string(root.join("out").join("a.cfg.anon")).expect("released");
    assert!(out.contains("redistribute bgp "), "{out}");
    let mut words = out.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    assert!(!words.any(|w| w == "701"), "701 released: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Files with extension `ext` under `dir`, recursively.
fn count_files(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .map(|p| {
            if p.is_dir() {
                count_files(&p, ext)
            } else {
                usize::from(p.extension().is_some_and(|x| x == ext))
            }
        })
        .sum()
}

#[test]
fn batch_clean_corpus_exits_zero_and_releases_everything() {
    let root = tmpdir("batch-clean");
    let gen_dir = root.join("gen");
    assert!(bin()
        .args(["generate", "--networks", "1", "--routers", "4", "--seed", "21"])
        .arg("--out-dir")
        .arg(&gen_dir)
        .status()
        .expect("generate")
        .success());

    let out_dir = root.join("out");
    let out = bin()
        .args(["batch", "--secret", "s", "--jobs", "2"])
        .arg("--out-dir")
        .arg(&out_dir)
        .arg(&gen_dir)
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // Outputs mirror the corpus layout (one subdirectory per network).
    assert!(count_files(&out_dir, "anon") >= 3, "all files released");
    // No quarantine directory appears on a clean run.
    assert!(!root.join("out-quarantine").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_journals_with_two_manifest_writes_at_any_corpus_size() {
    // One commit group per run: the manifest is written at begin and
    // once for every verdict, then each output lands once — N + 2
    // atomic writes, so the journal can never again grow with files².
    let root = tmpdir("batch-group-commit");
    let gen_dir = root.join("gen");
    assert!(bin()
        .args(["generate", "--networks", "3", "--routers", "4", "--seed", "2004"])
        .arg("--out-dir")
        .arg(&gen_dir)
        .status()
        .expect("generate")
        .success());
    let n = count_files(&gen_dir, "cfg");
    assert!(n >= 6, "corpus too small: {n} file(s)");

    let out = bin()
        .args(["batch", "--secret", "s", "--jobs", "1"])
        .arg("--out-dir")
        .arg(root.join("out"))
        .arg(&gen_dir)
        .output()
        .expect("batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let want = format!(
        "durability: {} atomic write(s), {} fsync(s)",
        n + 2,
        2 * (n + 2)
    );
    assert!(
        stderr.contains(&want),
        "want {want:?} for {n} file(s):\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_planted_leak_exits_4_and_quarantines() {
    let root = tmpdir("batch-leak");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    std::fs::write(
        corpus.join("a.cfg"),
        "router bgp 701\n neighbor 10.0.0.2 remote-as 701\n",
    )
    .expect("write");
    std::fs::write(
        corpus.join("b.cfg"),
        "router bgp 65001\n neighbor 10.0.0.1 remote-as 701\n",
    )
    .expect("write");

    let out_dir = root.join("out");
    let quarantine = root.join("quar");
    let out = bin()
        .args(["batch", "--secret", "s", "--disable-rule", "neighbor-remote-as"])
        .arg("--out-dir")
        .arg(&out_dir)
        .arg("--quarantine-dir")
        .arg(&quarantine)
        .arg(&corpus)
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));

    // The leak report is machine-readable and names the quarantine.
    let report = std::fs::read_to_string(quarantine.join("leak_report.json")).expect("report");
    assert!(report.contains("confanon-leak-report-v1"));
    assert!(report.contains("\"quarantined\""));

    // Quarantined bytes are in the quarantine dir, not the output dir.
    let quarantined: Vec<String> = std::fs::read_dir(&quarantine)
        .expect("quar dir")
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().to_string()))
        .filter(|n| n.ends_with(".anon"))
        .collect();
    assert!(!quarantined.is_empty());
    for name in &quarantined {
        assert!(!out_dir.join(name).exists(), "{name} must not be released");
        let text = std::fs::read_to_string(quarantine.join(name)).expect("read");
        assert!(text.contains("701"), "quarantine holds the leak");
    }
    // Whatever was released is clean. (The run journal also lives in
    // the output directory; its hex digests are not config bytes.)
    if let Ok(entries) = std::fs::read_dir(&out_dir) {
        for e in entries {
            let path = e.expect("e").path();
            if path.extension().is_some_and(|x| x == "anon") {
                let text = std::fs::read_to_string(&path).expect("read");
                assert!(!text.contains("701"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_unknown_rule_is_a_usage_error() {
    let root = tmpdir("batch-badrule");
    let out = bin()
        .args(["batch", "--secret", "s", "--disable-rule", "no-such-rule"])
        .arg(&root)
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_options_and_bad_numbers_are_usage_errors() {
    // A misspelled --secret must not fall back to the well-known default
    // secret: the run would "succeed" with reversible output.
    let root = tmpdir("unknown-opt");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    std::fs::write(corpus.join("a.cfg"), "hostname r1.foo.com\n").expect("write");
    let out_dir = root.join("out");
    let cases: [&[&str]; 5] = [
        &["batch", "--secert", "MINE"],
        &["batch", "--secret", "--jobs", "1"],
        &["generate", "--networks", "two"],
        &["generate", "--seed", "-1"],
        &["chaos", "--count", "lots"],
    ];
    for args in cases {
        let out = bin()
            .args(args)
            .arg("--out-dir")
            .arg(&out_dir)
            .arg(&corpus)
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[1]), "{args:?} must be named: {stderr}");
        assert!(!out_dir.exists(), "{args:?} wrote output");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quarantine_dir_resolving_inside_out_dir_is_a_usage_error() {
    // Withheld bytes must never land where a release step globs, however
    // the output directory (or a child of it) is spelled.
    let root = tmpdir("quarantine-inside");
    let corpus = root.join("leak-in");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    for (name, asn) in [("a.cfg", 701), ("b.cfg", 65001)] {
        let text = format!("router bgp {asn}\n neighbor 10.0.0.2 remote-as 701\n");
        std::fs::write(corpus.join(name), text).expect("write");
    }
    let abs_out = root.join("o").to_string_lossy().into_owned();
    for quarantine in ["./o", abs_out.as_str(), "o/q"] {
        let out = bin()
            .current_dir(&root)
            .args(["batch", "leak-in", "--disable-rule", "neighbor-remote-as"])
            .args(["--out-dir", "o", "--quarantine-dir", quarantine])
            .output()
            .expect("batch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{quarantine}: {stderr}");
        assert!(!root.join("o").exists(), "{quarantine}: output written");
    }
    // The default is the output directory's sibling however it is
    // spelled: `o/` quarantines to `o-quarantine`, not `o/-quarantine`.
    let out = bin()
        .current_dir(&root)
        .args(["batch", "leak-in", "--disable-rule", "neighbor-remote-as"])
        .args(["--out-dir", "o/"])
        .output()
        .expect("batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(root.join("o-quarantine/leak_report.json").exists(), "{stderr}");
    assert!(!root.join("o/-quarantine").exists(), "{stderr}");
    assert!(!root.join("o/leak_report.json").exists(), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

/// The mapping state (every original address, hex-encoded) and the
/// plaintext mapping audit are private, like quarantined bytes: inside
/// the release directory, however spelled, they are refused before any
/// work, and nothing is written.
#[test]
fn private_artifacts_resolving_inside_out_dir_are_usage_errors() {
    let root = tmpdir("private-inside");
    std::fs::create_dir_all(root.join("corpus")).expect("mk corpus");
    let text = "hostname r1\ninterface Ethernet0\n ip address 119.28.155.26 255.255.255.0\n";
    std::fs::write(root.join("corpus/r1.cfg"), text).expect("write");
    let abs_out = root.join("o").to_string_lossy().into_owned();
    for state in ["o", "./o", abs_out.as_str(), "o/state"] {
        let out = bin()
            .current_dir(&root)
            .args(["batch", "corpus", "--secret", "s", "--out-dir", "o", "--state", state])
            .output()
            .expect("batch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--state {state}: {stderr}");
        assert!(stderr.contains("--state"), "{stderr}");
        assert!(!root.join("o").exists(), "--state {state}: output written");
    }
    let out = bin()
        .current_dir(&root)
        .args(["anonymize", "--secret", "s", "--out-dir", "o", "--audit", "o/audit.json"])
        .arg("corpus/r1.cfg")
        .output()
        .expect("anonymize");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--audit"), "{stderr}");
    assert!(!root.join("o").exists(), "--audit inside --out-dir: output written");

    // Beside the output directory, both are written where asked.
    let out = bin()
        .current_dir(&root)
        .args(["batch", "corpus", "--secret", "s", "--out-dir", "o", "--state", "st"])
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(root.join("st/state.json").exists());
    let out = bin()
        .current_dir(&root)
        .args(["anonymize", "--secret", "s", "--out-dir", "a", "--audit", "audit.json"])
        .arg("corpus/r1.cfg")
        .output()
        .expect("anonymize");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(root.join("audit.json").exists() && root.join("a/r1.cfg.anon").exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// Two inputs with one file name would write one `<name>.anon`: the
/// second would silently replace the first.
#[test]
fn anonymize_refuses_inputs_that_share_an_output_name() {
    let root = tmpdir("anon-collide");
    for (dir, asn) in [("a", 701), ("b", 1239)] {
        std::fs::create_dir_all(root.join(dir)).expect("mk dir");
        let text = format!("hostname r1\nrouter bgp {asn}\n");
        std::fs::write(root.join(dir).join("r1.cfg"), text).expect("write");
    }
    let out = bin()
        .current_dir(&root)
        .args(["anonymize", "--secret", "s", "--out-dir", "o", "a/r1.cfg", "b/r1.cfg"])
        .output()
        .expect("anonymize");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("a/r1.cfg") && stderr.contains("b/r1.cfg"), "{stderr}");
    assert!(!root.join("o").exists(), "output written: {stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

/// `validate` reads the layout `batch` writes (`<net>/<host>.cfg.anon`
/// beside `run_manifest.json`) and runs both suites over every config;
/// an empty post side fails instead of passing over nothing.
#[test]
fn validate_compares_every_config_batch_released() {
    let root = tmpdir("validate-batch");
    let corpus = root.join("corpus");
    let out = root.join("out");
    let generated = bin()
        .args(["generate", "--networks", "2", "--routers", "4"])
        .arg("--out-dir")
        .arg(&corpus)
        .output()
        .expect("generate");
    assert!(generated.status.success());
    let batch = bin()
        .args(["batch", "--secret", "s", "--out-dir"])
        .arg(&out)
        .arg(&corpus)
        .output()
        .expect("batch");
    assert_eq!(batch.status.code(), Some(0), "{}", String::from_utf8_lossy(&batch.stderr));

    let validate = |post: &Path| {
        bin()
            .arg("validate")
            .arg("--pre-dir")
            .arg(&corpus)
            .arg("--post-dir")
            .arg(post)
            .output()
            .expect("validate")
    };
    let run = validate(&out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("compared 9 config(s)"), "{stdout}");
    assert!(stdout.contains("suite1: PASS") && stdout.contains("suite2: PASS"), "{stdout}");

    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).expect("mk empty");
    let run = validate(&empty);
    assert_eq!(run.status.code(), Some(1), "{}", String::from_utf8_lossy(&run.stdout));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn smoke_corpus_release_is_byte_pinned_at_any_job_count() {
    // The CI smoke corpus under the smoke secret: the manifest records
    // the digest of all 9 released files, so its SHA-1 pins every byte.
    let root = tmpdir("smoke-pin");
    let corpus = root.join("corpus");
    let status = bin()
        .args("generate --networks 2 --routers 4 --seed 2004 --out-dir".split(' '))
        .arg(&corpus)
        .status()
        .expect("generate");
    assert!(status.success());
    for jobs in ["1", "4"] {
        let out_dir = root.join(format!("out-{jobs}"));
        let out = bin()
            .args(["batch", "--secret", "smoke-bench-secret", "--jobs", jobs])
            .arg("--out-dir")
            .arg(&out_dir)
            .arg(&corpus)
            .output()
            .expect("batch");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let manifest = std::fs::read(out_dir.join("run_manifest.json")).expect("manifest");
        assert_eq!(
            confanon::core::RunManifest::digest_hex(&manifest),
            "5a75e7d4fc58a5712b12f47f3cb7c435a5769d7a",
            "jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_jobs_validation_and_clamping() {
    let root = tmpdir("batch-jobs");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mkdir");
    std::fs::write(corpus.join("r1.cfg"), "hostname r1\n").expect("write");

    // Absurd --jobs values are a usage error, not a silent thread army.
    let out = bin()
        .args(["batch", "--secret", "s", "--jobs", "100000"])
        .arg(&corpus)
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("512"), "cap named in the error: {stderr}");

    // Non-numeric values stay a usage error.
    let out = bin()
        .args(["batch", "--secret", "s", "--jobs", "four"])
        .arg(&corpus)
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(2));

    // --jobs 0 (core count) and --jobs above the file count (clamped to
    // one worker per file) both run to a clean release.
    for jobs in ["0", "64"] {
        let out_dir = root.join(format!("out-{jobs}"));
        let out = bin()
            .args(["batch", "--secret", "s", "--jobs", jobs])
            .arg("--out-dir")
            .arg(&out_dir)
            .arg(&corpus)
            .output()
            .expect("batch");
        assert_eq!(
            out.status.code(),
            Some(0),
            "--jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let released = std::fs::read_dir(&out_dir)
            .expect("out dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "anon"))
            .count();
        assert_eq!(released, 1, "--jobs {jobs}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_missing_dir_is_an_io_error() {
    let out = bin()
        .args(["batch", "--secret", "s", "/nonexistent/confanon-test-dir"])
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn chaos_corpus_is_deterministic_and_survives_batch() {
    let root = tmpdir("chaos-cli");
    let a = root.join("a");
    let b = root.join("b");
    for dir in [&a, &b] {
        assert!(bin()
            .args(["chaos", "--seed", "7", "--count", "6"])
            .arg("--out-dir")
            .arg(dir)
            .status()
            .expect("chaos")
            .success());
    }
    // Same seed, same bytes.
    for i in 0..6 {
        let name = format!("chaos-{i:03}.cfg");
        let fa = std::fs::read(a.join(&name)).expect("a");
        let fb = std::fs::read(b.join(&name)).expect("b");
        assert_eq!(fa, fb, "{name} differs between identical seeds");
    }

    // The hostile corpus goes through batch without tripping panic
    // containment: exit 0 or 4 (a mutation may re-expose a recorded
    // identifier), never 3, never a crash.
    let out = bin()
        .args(["batch", "--secret", "s", "--jobs", "4"])
        .arg("--out-dir")
        .arg(root.join("out"))
        .arg(&a)
        .output()
        .expect("batch");
    let code = out.status.code().expect("no signal/crash");
    assert!(
        code == 0 || code == 4,
        "unexpected exit {code}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_reads_non_utf8_input_lossily() {
    let root = tmpdir("batch-lossy");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk");
    std::fs::write(
        corpus.join("r1.cfg"),
        b"hostname r1\xFF\xFE.corp.example\nrouter bgp 65001\n",
    )
    .expect("write");
    let out = bin()
        .args(["batch", "--secret", "s"])
        .arg("--out-dir")
        .arg(root.join("out"))
        .arg(&corpus)
        .output()
        .expect("batch");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("repaired hostile input"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn validate_ignores_observability_artifacts_in_post_dir() {
    // Regression: metrics.json and *.trace.json written next to released
    // outputs must not enter the validate file set (they would parse as
    // "configs" and break the pre/post name match).
    let root = tmpdir("validate-obs");
    let pre = root.join("pre");
    let post = root.join("post");
    std::fs::create_dir_all(&pre).expect("mk pre");
    std::fs::create_dir_all(&post).expect("mk post");
    let cfg_text = "hostname r1\nrouter bgp 65001\n";
    std::fs::write(pre.join("r1.cfg"), cfg_text).expect("write pre");
    std::fs::write(post.join("r1.cfg"), cfg_text).expect("write post");
    std::fs::write(post.join("metrics.json"), "{}").expect("write metrics");
    std::fs::write(post.join("run.trace.json"), "{\"traceEvents\":[]}").expect("write trace");

    let out = bin()
        .arg("validate")
        .arg("--pre-dir")
        .arg(&pre)
        .arg("--post-dir")
        .arg(&post)
        .output()
        .expect("run validate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        !stderr.contains("file sets differ"),
        "observability artifacts entered the file set: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_ignores_observability_artifacts_in_corpus_dir() {
    // A prior run's metrics/trace files sitting inside the corpus tree
    // are bookkeeping, not input — discovery must skip them.
    let root = tmpdir("batch-obs");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    std::fs::write(corpus.join("r1.cfg"), "hostname r1\nrouter bgp 65001\n").expect("write");
    std::fs::write(corpus.join("metrics.json"), "{}").expect("write metrics");
    std::fs::write(corpus.join("old.trace.json"), "{\"traceEvents\":[]}").expect("write trace");

    let metrics = root.join("metrics.json");
    let out = bin()
        .args(["batch", "--secret", "s", "--jobs", "1"])
        .arg("--metrics")
        .arg(&metrics)
        .arg("--out-dir")
        .arg(root.join("out"))
        .arg(&corpus)
        .output()
        .expect("batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("released 1 file(s)"),
        "exactly the one .cfg must be processed: {stderr}"
    );

    // And `confanon metrics` validates what batch wrote.
    let out = bin().arg("metrics").arg(&metrics).output().expect("metrics");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("confanon-metrics-v1"));

    // A torn/malformed metrics file is rejected.
    let bad = root.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"confanon-met").expect("write bad");
    let out = bin().arg("metrics").arg(&bad).output().expect("metrics");
    assert!(!out.status.success(), "malformed metrics must be rejected");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scan_flags_recorded_items() {
    let root = tmpdir("scan");
    let record = root.join("record.json");
    std::fs::write(
        &record,
        r#"{"asns": ["701"], "ips": ["1.1.1.1"], "words": ["uunet"]}"#,
    )
    .expect("write record");
    let dirty = root.join("dirty.cfg");
    std::fs::write(&dirty, "router bgp 701\nroute-map UUNET-in\n").expect("write cfg");
    let clean = root.join("clean.cfg");
    std::fs::write(&clean, "router bgp 9000\n").expect("write cfg");

    let out = bin()
        .args(["scan", "--record"])
        .arg(&record)
        .arg(&dirty)
        .output()
        .expect("run scan");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[701]"), "{stdout}");
    assert!(stdout.contains("[uunet]"), "{stdout}");

    let out = bin()
        .args(["scan", "--record"])
        .arg(&record)
        .arg(&clean)
        .output()
        .expect("run scan");
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---- persistent state (`confanon-state-v1`): golden + negative paths --

/// The fixed corpus behind `tests/golden/state.json`. Regenerating the
/// golden: run `batch --secret golden-state-secret --jobs 1` with
/// `--state` over these two files and copy the resulting `state.json`.
fn write_golden_state_corpus(root: &Path) -> std::path::PathBuf {
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    std::fs::write(
        corpus.join("edge1.cfg"),
        "hostname edge1.golden.example.com\n\
         router bgp 64801\n \
         neighbor 12.126.236.17 remote-as 701\n \
         neighbor 2001:db8:77::9 remote-as 1239\n\
         interface Ethernet0\n \
         ip address 192.168.41.5 255.255.255.0\n\
         ipv6 route 2001:db8:41::/48 2001:db8::5\n",
    )
    .expect("write edge1");
    std::fs::write(
        corpus.join("core9.cfg"),
        "hostname core9.golden.example.com\n\
         router bgp 64802\n \
         neighbor 12.126.236.17 remote-as 701\n\
         access-list 10 permit 172.22.9.0 0.0.0.255\n",
    )
    .expect("write core9");
    corpus
}

/// Runs `batch --state` over the golden corpus; returns the state dir.
fn golden_state_run(root: &Path, secret: &str) -> std::path::PathBuf {
    let corpus = write_golden_state_corpus(root);
    let st = root.join("st");
    let out = bin()
        .args(["batch", "--secret", secret, "--jobs", "1"])
        .arg("--state")
        .arg(&st)
        .arg("--out-dir")
        .arg(root.join("out"))
        .arg(&corpus)
        .output()
        .expect("run batch");
    assert!(
        out.status.success(),
        "golden corpus run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    st
}

#[test]
fn golden_state_document_is_stable() {
    // The checked-in golden both (a) loads byte-stably — parse then
    // re-serialize reproduces the exact file — and (b) is reproduced
    // byte-for-byte by a fresh run over its fixed corpus, so any drift
    // in serialization, mapping, or journal order is caught here.
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/state.json");
    let golden = std::fs::read(&golden_path).expect("read golden state");

    let text = String::from_utf8(golden.clone()).expect("golden is utf-8");
    let state = confanon::core::AnonState::from_json_str("golden", &text)
        .expect("golden state parses");
    assert_eq!(state.to_bytes(), golden, "golden must re-serialize identically");

    // Replay succeeds on a fresh anonymizer under the golden secret.
    let cfg = confanon::core::AnonymizerConfig::new(b"golden-state-secret".to_vec());
    let mut anon = confanon::core::Anonymizer::new(cfg);
    state
        .check_owner(
            "golden",
            &confanon::core::RunManifest::fingerprint(b"golden-state-secret"),
            &anon.perm_fingerprint(),
        )
        .expect("owner binding");
    state.restore_into("golden", &mut anon).expect("journal replays");

    let root = tmpdir("golden-state");
    let st = golden_state_run(&root, "golden-state-secret");
    assert_eq!(
        std::fs::read(st.join("state.json")).expect("read produced state"),
        golden,
        "a fresh run over the fixed corpus must reproduce the golden state"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn invalid_state_documents_refuse_with_exit_2() {
    let root = tmpdir("state-negative");
    let corpus = write_golden_state_corpus(&root);
    let st = golden_state_run(&root, "golden-state-secret");
    let state_text = std::fs::read_to_string(st.join("state.json")).expect("read state");

    // Each defect gets its own state dir, a fresh out dir, and must be
    // refused with exit 2 and its distinct error class on stderr.
    let run = |tag: &str, state_body: &str, secret: &str| -> (Option<i32>, String) {
        let sdir = root.join(format!("st-{tag}"));
        std::fs::create_dir_all(&sdir).expect("mk state dir");
        std::fs::write(sdir.join("state.json"), state_body).expect("write state");
        let out = bin()
            .args(["batch", "--secret", secret, "--jobs", "1"])
            .arg("--state")
            .arg(&sdir)
            .arg("--out-dir")
            .arg(root.join(format!("out-{tag}")))
            .arg(&corpus)
            .output()
            .expect("run batch");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    let (code, stderr) = run(
        "version",
        &state_text.replace("confanon-state-v1", "confanon-state-v99"),
        "golden-state-secret",
    );
    assert_eq!(code, Some(2), "version mismatch: {stderr}");
    assert!(stderr.contains("state version mismatch"), "{stderr}");

    let (code, stderr) = run("foreign", &state_text, "some-other-secret");
    assert_eq!(code, Some(2), "fingerprint mismatch: {stderr}");
    assert!(stderr.contains("state fingerprint mismatch"), "{stderr}");

    let (code, stderr) = run(
        "truncated",
        &state_text[..state_text.len() / 2],
        "golden-state-secret",
    );
    assert_eq!(code, Some(2), "truncation: {stderr}");
    assert!(stderr.contains("state corrupted"), "{stderr}");

    let (code, stderr) = run(
        "corrupt-journal",
        &state_text.replace("\"4:", "\"9:"),
        "golden-state-secret",
    );
    assert_eq!(code, Some(2), "corrupt journal: {stderr}");
    assert!(stderr.contains("state corrupted"), "{stderr}");

    // --state without --out-dir is a usage error before any work.
    let out = bin()
        .args(["batch", "--secret", "s", "--state"])
        .arg(root.join("st-nowhere"))
        .arg(&corpus)
        .output()
        .expect("run batch");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--state requires --out-dir"),
        "stderr should explain the missing --out-dir"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Satellite: the serve-mode exit-code taxonomy. Each failure class
/// gets its own code *and* its own unmistakable message, so automation
/// can branch on the code and operators can read the reason.
#[test]
fn serve_exit_codes_are_distinct() {
    let root = tmpdir("serve-exits");

    // Exit 7: config parse failure, with a line-numbered message.
    let bad = root.join("bad.toml");
    std::fs::write(&bad, "listen = \"127.0.0.1:0\"\nqueue_depth = \"deep\"\n").expect("write");
    let out = bin()
        .args(["serve", "--config"])
        .arg(&bad)
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(7), "config parse failure");
    let config_err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(config_err.contains("invalid config"), "{config_err}");
    assert!(config_err.contains("line 2"), "{config_err}");

    // Exit 6: bind failure on an unroutable listen address.
    let good = root.join("good.toml");
    std::fs::write(
        &good,
        format!(
            "[tenant.alpha]\nsecret = \"s\"\nstate_dir = \"{}\"\n",
            root.join("state-alpha").display()
        ),
    )
    .expect("write");
    let out = bin()
        .args(["serve", "--config"])
        .arg(&good)
        .args(["--listen", "256.256.256.256:1"])
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(6), "bind failure");
    let bind_err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(bind_err.contains("bind failed"), "{bind_err}");
    assert!(bind_err.contains("256.256.256.256:1"), "{bind_err}");

    // Exit 8: --require-clean-state refusal on a torn tenant state.
    let torn_dir = root.join("state-torn");
    std::fs::create_dir_all(&torn_dir).expect("mk state");
    std::fs::write(torn_dir.join("state.json"), b"{ torn").expect("write torn");
    let torn_cfg = root.join("torn.toml");
    std::fs::write(
        &torn_cfg,
        format!(
            "[tenant.alpha]\nsecret = \"s\"\nstate_dir = \"{}\"\n",
            torn_dir.display()
        ),
    )
    .expect("write");
    let out = bin()
        .args(["serve", "--config"])
        .arg(&torn_cfg)
        .args(["--listen", "127.0.0.1:0", "--require-clean-state"])
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(8), "tenant-state refusal");
    let refusal = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(refusal.contains("state refused"), "{refusal}");
    assert!(refusal.contains("alpha"), "{refusal}");

    // Without --require-clean-state the same torn state is NOT a
    // startup failure — the tenant opens quarantined instead. Exits 0
    // after a shutdown frame (proven end-to-end in tests/serve.rs);
    // here we only assert the three failure messages are distinct.
    for (a, b) in [
        (&config_err, &bind_err),
        (&config_err, &refusal),
        (&bind_err, &refusal),
    ] {
        assert_ne!(a, b, "failure messages must be distinguishable");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `confanon metrics --serve` validates the daemon's stats frame the
/// same way `metrics FILE` validates a batch metrics document.
#[test]
fn metrics_validates_serve_stats_frames() {
    let root = tmpdir("serve-metrics");
    let valid = root.join("frame.json");
    std::fs::write(
        &valid,
        r#"{"schema": "confanon-serve-metrics-v1",
            "tenants": {"alpha": {"health": "serving"}},
            "daemon": {"connections": 1,
                       "faults": {"frames_rejected": 0, "read_timeouts": 0,
                                  "idle_closed": 0, "connections_shed": 0,
                                  "recoveries": 0, "degraded_transitions": 0}}}"#,
    )
    .expect("write frame");
    let out = bin()
        .args(["metrics", "--serve"])
        .arg(&valid)
        .output()
        .expect("run metrics");
    assert!(out.status.success(), "valid frame must validate");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("confanon-serve-metrics-v1"),
        "stderr names the schema"
    );

    let invalid = root.join("bad-frame.json");
    std::fs::write(
        &invalid,
        r#"{"schema": "confanon-serve-metrics-v1",
            "tenants": {"alpha": {"requests": 3}},
            "daemon": {}}"#,
    )
    .expect("write frame");
    let out = bin()
        .args(["metrics", "--serve"])
        .arg(&invalid)
        .output()
        .expect("run metrics");
    assert_eq!(out.status.code(), Some(1), "healthless snapshot must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("health"),
        "stderr names the missing member"
    );

    // A frame predating the fault taxonomy (no daemon.faults) is now
    // rejected, and the error names the missing counter group.
    let faultless = root.join("faultless-frame.json");
    std::fs::write(
        &faultless,
        r#"{"schema": "confanon-serve-metrics-v1",
            "tenants": {"alpha": {"health": "serving"}},
            "daemon": {"connections": 1}}"#,
    )
    .expect("write frame");
    let out = bin()
        .args(["metrics", "--serve"])
        .arg(&faultless)
        .output()
        .expect("run metrics");
    assert_eq!(out.status.code(), Some(1), "faultless frame must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("faults"),
        "stderr names the missing fault object"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The netchaos proxy subcommand's usage/bind errors follow the same
/// exit-code taxonomy as serve.
#[test]
fn netchaos_usage_and_bind_errors() {
    let out = bin().args(["netchaos"]).output().expect("run netchaos");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--upstream"));

    let out = bin()
        .args(["netchaos", "--upstream", "127.0.0.1:1", "--profile", "mild"])
        .output()
        .expect("run netchaos");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown profile"));

    let out = bin()
        .args(["netchaos", "--upstream", "127.0.0.1:1", "--seed", "banana"])
        .output()
        .expect("run netchaos");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
}

/// The client subcommand's usage errors are exit 2 like every other.
#[test]
fn client_usage_errors() {
    let out = bin().args(["client", "ping"]).output().expect("run client");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--endpoint"));

    let out = bin()
        .args(["client", "--endpoint", "127.0.0.1:1", "frobnicate"])
        .output()
        .expect("run client");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown action"));
}

/// The client's backoff knobs are validated before any connection is
/// attempted, so bad values are usage errors even with no daemon up.
#[test]
fn client_backoff_flag_validation() {
    for (flag, value) in [
        ("--backoff-base-ms", "0"),
        ("--backoff-cap-ms", "zero"),
        ("--backoff-seed", "banana"),
    ] {
        let out = bin()
            .args(["client", "--endpoint", "127.0.0.1:1", "anon"])
            .args(["--tenant", "alpha", flag, value])
            .output()
            .expect("run client");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag.trim_start_matches("--")),
            "{flag}: stderr names the flag"
        );
    }
}

// ---- risk audit (`confanon-risk-v1`): golden + negative paths -------

/// The fixed two-network corpus behind `tests/golden/risk_report.json`.
/// Regenerating the golden: `batch --secret golden-audit-secret
/// --jobs 1 --out-dir OUT` over this corpus, then `audit --risk
/// --pre-dir CORPUS --post-dir OUT --secret golden-audit-secret
/// --decoys 1 --jobs 1` and copy the resulting `risk_report.json`.
fn write_audit_corpus(root: &Path) -> std::path::PathBuf {
    let corpus = root.join("corpus");
    for (name, body) in [
        (
            "alpha/edge1.cfg",
            "hostname edge1.alpha.example.com\n\
             router bgp 64801\n \
             neighbor 12.126.236.17 remote-as 701\n \
             neighbor 4.68.121.9 remote-as 3356\n \
             neighbor 203.181.248.27 remote-as 2914\n\
             interface Ethernet0\n \
             ip address 192.168.41.5 255.255.255.0\n\
             interface Serial1\n \
             ip address 10.40.7.2 255.255.255.252\n",
        ),
        (
            "alpha/core9.cfg",
            "hostname core9.alpha.example.com\n\
             router bgp 64801\n \
             neighbor 12.126.236.18 remote-as 1239\n \
             neighbor 192.205.32.109 remote-as 7018\n\
             interface Ethernet0\n \
             ip address 192.168.44.1 255.255.255.0\n\
             access-list 10 permit 172.22.9.0 0.0.0.255\n",
        ),
        (
            "beta/gw3.cfg",
            "hostname gw3.beta.example.net\n\
             router bgp 64702\n \
             neighbor 144.232.8.90 remote-as 1239\n \
             neighbor 195.219.0.5 remote-as 6453\n\
             interface FastEthernet0/0\n \
             ip address 172.19.3.1 255.255.252.0\n\
             interface FastEthernet0/1\n \
             ip address 172.19.8.1 255.255.255.128\n",
        ),
        (
            "beta/gw4.cfg",
            "hostname gw4.beta.example.net\n\
             router bgp 64702\n \
             neighbor 157.130.10.1 remote-as 701\n \
             neighbor 80.231.10.7 remote-as 1299\n\
             interface FastEthernet0/0\n \
             ip address 172.19.12.1 255.255.255.0\n",
        ),
    ] {
        let path = corpus.join(name);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mk net dir");
        std::fs::write(&path, body).expect("write cfg");
    }
    corpus
}

/// Runs batch then `audit --risk` over the fixed corpus; returns
/// (audit output, report path).
fn golden_audit_run(root: &Path) -> (std::process::Output, std::path::PathBuf) {
    let corpus = write_audit_corpus(root);
    let out_dir = root.join("out");
    let out = bin()
        .args(["batch", "--secret", "golden-audit-secret", "--jobs", "1"])
        .arg("--out-dir")
        .arg(&out_dir)
        .arg(&corpus)
        .output()
        .expect("run batch");
    assert!(
        out.status.success(),
        "golden corpus batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let audit = bin()
        .args(["audit", "--risk", "--secret", "golden-audit-secret"])
        .args(["--decoys", "1", "--jobs", "1"])
        .arg("--pre-dir")
        .arg(&corpus)
        .arg("--post-dir")
        .arg(&out_dir)
        .output()
        .expect("run audit");
    (audit, out_dir.join("risk_report.json"))
}

#[test]
fn golden_risk_report_is_byte_stable() {
    let root = tmpdir("golden-audit");
    let (audit, report_path) = golden_audit_run(&root);
    assert!(
        audit.status.success(),
        "audit failed: {}",
        String::from_utf8_lossy(&audit.stderr)
    );

    // The tradeoff table goes to stdout, one line per row, baseline
    // first — this is the greppable CI surface.
    let stdout = String::from_utf8_lossy(&audit.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.first().is_some_and(|l| l.starts_with("tradeoff baseline ")),
        "{stdout}"
    );
    for label in ["disable:router-bgp-asn", "disable:neighbor-remote-as", "scramble", "decoys:1"] {
        assert!(
            lines.iter().any(|l| l.starts_with(&format!("tradeoff {label} "))),
            "missing tradeoff row {label}: {stdout}"
        );
    }

    // Byte-for-byte against the checked-in golden: any drift in attack
    // seeding, rate arithmetic, report serialization, or the
    // anonymizer itself is a diff to explain deliberately.
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/risk_report.json");
    let golden = std::fs::read(&golden_path).expect("read golden risk report");
    let produced = std::fs::read(&report_path).expect("read produced report");
    assert_eq!(
        produced,
        golden,
        "risk_report.json changed — if intentional, regenerate \
         tests/golden/risk_report.json and document the break"
    );

    // And the golden validates through the CLI checker.
    let check = bin()
        .args(["audit", "--check-report"])
        .arg(&golden_path)
        .output()
        .expect("run check-report");
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stderr));
    assert!(
        String::from_utf8_lossy(&check.stderr).contains("confanon-risk-v1"),
        "checker names the schema"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `audit --risk` refuses a post-dir that is not an anonymized output
/// directory (no run manifest) with a usage error, not an I/O error:
/// scoring raw bytes as a release would produce nonsense numbers.
#[test]
fn audit_refuses_non_anonymized_post_dir() {
    let root = tmpdir("audit-refuse");
    let corpus = write_audit_corpus(&root);
    let out = bin()
        .args(["audit", "--risk", "--secret", "s"])
        .arg("--pre-dir")
        .arg(&corpus)
        .arg("--post-dir")
        .arg(&corpus)
        .output()
        .expect("run audit");
    assert_eq!(out.status.code(), Some(2), "non-anonymized post-dir");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not an anonymized output directory"),
        "stderr explains the refusal"
    );

    // Missing required flags are usage errors too.
    let out = bin().args(["audit"]).output().expect("run audit");
    assert_eq!(out.status.code(), Some(2), "bare audit");
    let out = bin()
        .args(["audit", "--risk"])
        .output()
        .expect("run audit");
    assert_eq!(out.status.code(), Some(2), "audit --risk without dirs");
    let _ = std::fs::remove_dir_all(&root);
}

/// `audit --check-report` rejects malformed reports: torn JSON, a
/// foreign schema, and internally inconsistent rates each fail with a
/// nonzero exit and a reason on stderr.
#[test]
fn audit_check_report_rejects_malformed_documents() {
    let root = tmpdir("audit-check");
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/risk_report.json"),
    )
    .expect("read golden");

    let run = |tag: &str, body: &str| -> (Option<i32>, String) {
        let path = root.join(format!("{tag}.json"));
        std::fs::write(&path, body).expect("write report");
        let out = bin()
            .args(["audit", "--check-report"])
            .arg(&path)
            .output()
            .expect("run check-report");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    let (code, stderr) = run("torn", &golden[..golden.len() / 2]);
    assert_eq!(code, Some(1), "torn JSON: {stderr}");

    let (code, stderr) = run("schema", &golden.replace("confanon-risk-v1", "confanon-risk-v99"));
    assert_eq!(code, Some(1), "foreign schema: {stderr}");
    assert!(stderr.contains("schema"), "{stderr}");

    let (code, stderr) = run(
        "sections",
        &golden.replace("\"utility\": {", "\"utility_gone\": {"),
    );
    assert_eq!(code, Some(1), "missing utility section: {stderr}");
    assert!(stderr.contains("utility"), "{stderr}");

    // A missing file is an I/O error, not a validation failure.
    let out = bin()
        .args(["audit", "--check-report"])
        .arg(root.join("absent.json"))
        .output()
        .expect("run check-report");
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&root);
}

/// `batch --decoys N` appends chaff without perturbing real outputs:
/// every real released file is byte-identical to a decoy-free run, and
/// only decoys are flagged in the manifest.
#[test]
fn batch_decoys_leave_real_outputs_byte_identical() {
    let root = tmpdir("batch-decoys");
    let corpus = write_audit_corpus(&root);
    let plain_dir = root.join("plain");
    let chaff_dir = root.join("chaff");
    for (dir, extra) in [(&plain_dir, None), (&chaff_dir, Some(["--decoys", "2"]))] {
        let mut cmd = bin();
        cmd.args(["batch", "--secret", "decoy-cli-secret", "--jobs", "1"])
            .arg("--out-dir")
            .arg(dir)
            .arg(&corpus);
        if let Some(extra) = extra {
            cmd.args(extra);
        }
        let out = cmd.output().expect("run batch");
        assert!(
            out.status.success(),
            "batch failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let manifest = confanon::core::RunManifest::from_json_str(
        &std::fs::read_to_string(chaff_dir.join("run_manifest.json")).expect("read manifest"),
    )
    .expect("parse manifest");
    let decoys = manifest.decoy_names();
    assert_eq!(decoys.len(), 4, "2 decoys per network x 2 networks: {decoys:?}");
    assert!(
        decoys.iter().all(|n| n.contains("zz-decoy-")),
        "decoy names are the reserved chaff slots: {decoys:?}"
    );

    for f in &manifest.files {
        let chaffed = chaff_dir.join(format!("{}.anon", f.name));
        assert!(chaffed.is_file(), "{} must be released", f.name);
        if f.decoy {
            continue;
        }
        let plain = plain_dir.join(format!("{}.anon", f.name));
        assert_eq!(
            std::fs::read(&plain).expect("read plain"),
            std::fs::read(&chaffed).expect("read chaffed"),
            "{}: real output must not move when chaff is added",
            f.name
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
