//! Integration suite for `confanon serve`: the robustness proof
//! obligations of the service mode, driven end-to-end through the real
//! binary and the independent `CONFANON/1` wire client.
//!
//! What is proven here, each against a live daemon process:
//!
//! 1. **Isolation + equivalence** — K clients interleave requests
//!    across tenants (one of them hostile, fed chaos-mutated configs)
//!    and every clean tenant's responses are byte-identical to a solo
//!    `confanon batch` run over the same files in the same order.
//! 2. **Back-pressure** — a saturated bounded queue answers `BUSY`
//!    (retriable), never buffers unboundedly, and a cooperative retry
//!    loop eventually succeeds.
//! 3. **Panic containment** — a poisoned request fails closed with an
//!    error frame; the tenant keeps serving, other tenants never
//!    notice, and the resident state shows no trace of the poison.
//! 4. **Graceful drain** — SIGTERM lets in-flight requests finish,
//!    flushes every tenant's state atomically, and exits 0; a restart
//!    serves warm, byte-identical mappings.
//! 5. **Crash recovery** — a simulated kill -9 (`CONFANON_CRASH_AFTER`)
//!    at *every* durable-write crash point restarts into a serving
//!    daemon whose replayed outputs are byte-identical to an
//!    uninterrupted session.
//! 6. **Torn-state quarantine** — a corrupted tenant state dir
//!    quarantines that tenant with a distinct error while healthy
//!    tenants serve; the torn evidence is never overwritten.
//!
//! Plus the satellite: `confanon batch` under SIGTERM finishes the
//! in-flight atomic write and exits with the resumable code 5.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use confanon_testkit::json::Json;
use confanon_testkit::serveclient::ServeClient;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_confanon"))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("confanon-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mktemp");
    d
}

#[cfg(unix)]
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Writes a `confanon.toml` with one `[tenant.NAME]` section per entry,
/// each keyed by the convention `<name>-secret` (mirrored by the solo
/// batch runs the equivalence tests compare against).
fn write_config(path: &Path, tenants: &[(&str, &Path)], extra: &str) {
    let mut text = String::from(extra);
    for (name, dir) in tenants {
        text.push_str(&format!(
            "[tenant.{name}]\nsecret = \"{name}-secret\"\nstate_dir = \"{}\"\n",
            dir.display()
        ));
    }
    std::fs::write(path, text).expect("write config");
}

/// A live daemon child with its discovered endpoint. Killed on drop so
/// a failing assertion never leaks a listener.
struct Daemon {
    child: Child,
    endpoint: String,
}

impl Daemon {
    fn spawn(config: &Path, port_file: &Path, envs: &[(&str, &str)]) -> Daemon {
        match Daemon::try_spawn(config, port_file, envs) {
            Ok(d) => d,
            Err(e) => panic!("daemon failed to start: {e}"),
        }
    }

    /// Spawns and waits for the port file. `Err` means the child exited
    /// before advertising — which the crash-point test provokes
    /// deliberately (crash point 1 is the port-file write itself).
    fn try_spawn(
        config: &Path,
        port_file: &Path,
        envs: &[(&str, &str)],
    ) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(port_file);
        let mut cmd = bin();
        cmd.arg("serve")
            .arg("--config")
            .arg(config)
            .args(["--listen", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn daemon");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                let endpoint = text.trim().to_string();
                if !endpoint.is_empty() {
                    return Ok(Daemon { child, endpoint });
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited before advertising: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon never wrote its port file");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn connect(&self) -> ServeClient {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match ServeClient::connect(&self.endpoint) {
                Ok(c) => return c,
                Err(e) if Instant::now() > deadline => panic!("connect {}: {e}", self.endpoint),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    #[cfg(unix)]
    fn sigterm(&self) {
        unsafe {
            kill(self.child.id() as i32, 15);
        }
    }

    /// Waits (bounded) for the child to exit and returns its status.
    fn wait(mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("daemon did not exit within the drain deadline");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Generates a deterministic flat corpus: `(name, bytes)` pairs in the
/// sorted-name order both serve clients and batch discovery use.
fn flat_corpus(root: &Path, tag: &str, seed: u64, routers: usize) -> Vec<(String, Vec<u8>)> {
    let gen = root.join(format!("gen-{tag}"));
    let status = bin()
        .args(["generate", "--networks", "1"])
        .args(["--routers", &routers.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out-dir")
        .arg(&gen)
        .stderr(Stdio::null())
        .status()
        .expect("run generate");
    assert!(status.success(), "generate failed");
    let mut files = Vec::new();
    collect_cfgs(&gen, &mut files);
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read cfg"))
        })
        .collect()
}

fn collect_cfgs(dir: &Path, out: &mut Vec<PathBuf>) {
    for e in std::fs::read_dir(dir).expect("read_dir").flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_cfgs(&p, out);
        } else if p.extension().is_some_and(|x| x == "cfg") {
            out.push(p);
        }
    }
}

/// Chaos-mutated (hostile) corpus for the hostile-tenant leg.
fn chaos_corpus(root: &Path, tag: &str, seed: u64, count: usize) -> Vec<(String, Vec<u8>)> {
    let dir = root.join(format!("chaos-{tag}"));
    let status = bin()
        .args(["chaos", "--seed", &seed.to_string()])
        .args(["--count", &count.to_string()])
        .arg("--out-dir")
        .arg(&dir)
        .stderr(Stdio::null())
        .status()
        .expect("run chaos");
    assert!(status.success(), "chaos failed");
    let mut files = Vec::new();
    collect_cfgs(&dir, &mut files);
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read chaos cfg"))
        })
        .collect()
}

/// Runs `confanon batch` solo over `files` and returns `name → bytes`
/// of the released outputs — the ground truth the daemon must match.
fn solo_batch(root: &Path, tag: &str, secret: &str, files: &[(String, Vec<u8>)]) -> BTreeMap<String, Vec<u8>> {
    let corpus = root.join(format!("batch-{tag}-in"));
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    for (name, bytes) in files {
        std::fs::write(corpus.join(name), bytes).expect("write input");
    }
    let out = root.join(format!("batch-{tag}-out"));
    let status = bin()
        .args(["batch", "--secret", secret])
        .arg("--out-dir")
        .arg(&out)
        .arg(&corpus)
        .stderr(Stdio::null())
        .status()
        .expect("run batch");
    assert!(status.success(), "solo batch failed for {tag}");
    let mut released = BTreeMap::new();
    for e in std::fs::read_dir(&out).expect("read out").flatten() {
        let p = e.path();
        if p.extension().is_some_and(|x| x == "anon") {
            let name = p
                .file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned();
            released.insert(name, std::fs::read(&p).expect("read anon"));
        }
    }
    released
}

// ---------------------------------------------------------------------
// 1. Isolation + equivalence under interleaved multi-client load
// ---------------------------------------------------------------------

confanon_testkit::props! {
    cases = 3;

    /// K clients interleave requests across tenants — including one
    /// hostile tenant fed chaos-mutated configs — and each clean
    /// tenant's responses are byte-identical to a solo batch run over
    /// the same inputs in the same order. The hostile tenant may be
    /// quarantined or error per request, but must never take the
    /// daemon down or perturb its neighbors.
    fn interleaved_tenants_match_solo_batch(seed in 0u64..1_000_000) {
        let root = std::env::temp_dir().join(format!(
            "confanon-serve-interleave-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mktemp");

        let alpha_files = flat_corpus(&root, "alpha", seed.wrapping_add(11), 3);
        let beta_files = flat_corpus(&root, "beta", seed.wrapping_add(29), 3);
        let gamma_files = chaos_corpus(&root, "gamma", seed.wrapping_add(47), 3);
        let alpha_golden = solo_batch(&root, "alpha", "alpha-secret", &alpha_files);
        let beta_golden = solo_batch(&root, "beta", "beta-secret", &beta_files);

        let config = root.join("confanon.toml");
        write_config(
            &config,
            &[
                ("alpha", &root.join("state-alpha")),
                ("beta", &root.join("state-beta")),
                ("gamma", &root.join("state-gamma")),
            ],
            "",
        );
        let daemon = Daemon::spawn(&config, &root.join("port"), &[]);

        let endpoint = daemon.endpoint.clone();
        let run_tenant = |tenant: &'static str,
                          files: Vec<(String, Vec<u8>)>,
                          delay_ms: u64|
         -> std::thread::JoinHandle<Vec<(String, String, Vec<u8>)>> {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&endpoint).expect("connect");
                let mut replies = Vec::new();
                for (name, bytes) in &files {
                    std::thread::sleep(Duration::from_millis(delay_ms));
                    let reply = client
                        .anon_with_retry(tenant, name, bytes, 100, Duration::from_millis(20))
                        .expect("request");
                    replies.push((name.clone(), reply.status, reply.payload));
                }
                replies
            })
        };

        // Seeded stagger: each client starts its requests on a
        // different cadence so the cross-tenant interleaving varies by
        // seed while each tenant's *own* order stays fixed (the order
        // the equivalence contract is defined over).
        let h_alpha = run_tenant("alpha", alpha_files.clone(), seed % 5);
        let h_beta = run_tenant("beta", beta_files.clone(), (seed / 5) % 7);
        let h_gamma = run_tenant("gamma", gamma_files.clone(), (seed / 35) % 3);

        let alpha_replies = h_alpha.join().expect("alpha client");
        let beta_replies = h_beta.join().expect("beta client");
        let gamma_replies = h_gamma.join().expect("gamma client");

        for (replies, golden, tenant) in [
            (&alpha_replies, &alpha_golden, "alpha"),
            (&beta_replies, &beta_golden, "beta"),
        ] {
            assert_eq!(replies.len(), golden.len(), "{tenant}: reply count");
            for (name, status, payload) in replies {
                assert_eq!(status, "OK", "{tenant}/{name}: status");
                let want = golden.get(name).unwrap_or_else(|| {
                    panic!("{tenant}/{name}: missing from solo batch")
                });
                assert_eq!(
                    payload, want,
                    "seed {seed}: {tenant}/{name} diverges from solo batch"
                );
            }
        }
        // The hostile tenant answered every frame with a protocol
        // status — containment, not a dead socket.
        for (name, status, _) in &gamma_replies {
            assert!(
                matches!(
                    status.as_str(),
                    "OK" | "QUARANTINED" | "TENANT-QUARANTINED" | "ERROR"
                ),
                "gamma/{name}: unexpected status {status}"
            );
        }

        // The daemon survived the hostile tenant and drains cleanly.
        let mut control = daemon.connect();
        let bye = control.shutdown().expect("shutdown frame");
        assert_eq!(bye.status, "BYE");
        let status = daemon.wait();
        assert!(status.success(), "drain exit: {status}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ---------------------------------------------------------------------
// 2. Back-pressure
// ---------------------------------------------------------------------

#[test]
fn saturated_queue_answers_retriable_busy() {
    let root = tmpdir("busy");
    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &root.join("state-alpha"))],
        "queue_depth = 1\n",
    );
    let daemon = Daemon::spawn(
        &config,
        &root.join("port"),
        &[
            ("CONFANON_SERVE_SLEEP_MARKER", "HOLD-THE-WORKER"),
            ("CONFANON_SERVE_SLEEP_MS", "600"),
        ],
    );

    // Connection A occupies the single worker for 600 ms.
    let endpoint = daemon.endpoint.clone();
    let slow = std::thread::spawn(move || {
        let mut c = ServeClient::connect(&endpoint).expect("connect A");
        c.anon("alpha", "slow.cfg", b"! HOLD-THE-WORKER\nhostname slow\n")
            .expect("slow request")
    });
    std::thread::sleep(Duration::from_millis(150));

    // Connection B fills the depth-1 queue and blocks on its reply.
    let endpoint = daemon.endpoint.clone();
    let queued = std::thread::spawn(move || {
        let mut c = ServeClient::connect(&endpoint).expect("connect B");
        c.anon("alpha", "queued.cfg", b"hostname queued\n")
            .expect("queued request")
    });
    std::thread::sleep(Duration::from_millis(150));

    // Connection C finds the queue full: BUSY, retriable, immediately.
    let mut c = daemon.connect();
    let busy = c
        .anon("alpha", "rejected.cfg", b"hostname rejected\n")
        .expect("busy request");
    assert_eq!(busy.status, "BUSY", "payload: {}", busy.text());
    assert!(busy.retriable());

    // The cooperative retry loop the contract expects succeeds once
    // the worker drains.
    let retried = c
        .anon_with_retry(
            "alpha",
            "rejected.cfg",
            b"hostname rejected\n",
            100,
            Duration::from_millis(50),
        )
        .expect("retry loop");
    assert_eq!(retried.status, "OK", "payload: {}", retried.text());

    assert_eq!(slow.join().expect("A").status, "OK");
    assert_eq!(queued.join().expect("B").status, "OK");

    // The rejection is visible in the daemon section of the stats frame.
    let stats = c.stats().expect("stats");
    assert_eq!(stats.status, "OK");
    let doc = Json::parse(&stats.text()).expect("stats json");
    let busy_count = doc
        .get("daemon")
        .and_then(|d| d.get("busy_rejections"))
        .and_then(Json::as_u64)
        .expect("busy_rejections");
    assert!(busy_count >= 1, "busy_rejections = {busy_count}");

    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 3. Panic containment
// ---------------------------------------------------------------------

#[test]
fn poisoned_request_fails_closed_without_touching_neighbors() {
    let root = tmpdir("poison");
    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[
            ("alpha", &root.join("state-alpha")),
            ("beta", &root.join("state-beta")),
        ],
        "",
    );
    let daemon = Daemon::spawn(
        &config,
        &root.join("port"),
        &[("CONFANON_SERVE_FAULT_MARKER", "POISON-PILL-7")],
    );
    let mut c = daemon.connect();

    let good = b"hostname r1\nrouter bgp 65001\n neighbor 10.3.2.1 remote-as 1239\n";
    let first = c.anon("alpha", "good.cfg", good).expect("first");
    assert_eq!(first.status, "OK");

    let poisoned = c
        .anon("alpha", "bad.cfg", b"hostname x\n! POISON-PILL-7\n")
        .expect("poisoned");
    assert_eq!(poisoned.status, "ERROR");
    assert!(
        poisoned.text().contains("panic contained"),
        "payload: {}",
        poisoned.text()
    );

    // The tenant keeps serving — and deterministically: the poisoned
    // request left no trace, so a replay of the first file is
    // byte-identical (sticky mappings, untouched resident state).
    let replay = c.anon("alpha", "good.cfg", good).expect("replay");
    assert_eq!(replay.status, "OK");
    assert_eq!(replay.payload, first.payload);

    // The neighbor tenant never noticed.
    let beta = c.anon("beta", "b.cfg", good).expect("beta");
    assert_eq!(beta.status, "OK");

    // The containment is visible per tenant in the stats frame, and
    // the tenant's health is still `serving`.
    let doc = Json::parse(&c.stats().expect("stats").text()).expect("stats json");
    let alpha_snap = doc.get("tenants").and_then(|t| t.get("alpha")).expect("alpha snap");
    assert_eq!(alpha_snap.get("health").and_then(Json::as_str), Some("serving"));
    assert_eq!(
        alpha_snap
            .get("counters")
            .and_then(|cs| cs.get("serve.panics_contained"))
            .and_then(Json::as_u64),
        Some(1)
    );

    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 4. Graceful drain (SIGTERM) + warm restart
// ---------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn sigterm_drains_flushes_every_tenant_and_restarts_warm() {
    let root = tmpdir("drain");
    let config = root.join("confanon.toml");
    // flush = drain makes the drain flush *the* persistence event:
    // nothing is durable until the SIGTERM path runs.
    write_config(
        &config,
        &[
            ("alpha", &root.join("state-alpha")),
            ("beta", &root.join("state-beta")),
        ],
        "flush = \"drain\"\n",
    );
    let files = [
        ("r1.cfg", &b"hostname r1\ninterface Ethernet0\n ip address 10.1.2.3 255.255.255.0\n"[..]),
        ("r2.cfg", &b"hostname r2\nrouter bgp 65010\n neighbor 10.1.2.9 remote-as 701\n"[..]),
    ];

    let daemon = Daemon::spawn(&config, &root.join("port"), &[]);
    let mut c = daemon.connect();
    let mut first_run: BTreeMap<(String, String), Vec<u8>> = BTreeMap::new();
    for tenant in ["alpha", "beta"] {
        for (name, bytes) in &files {
            let reply = c.anon(tenant, name, bytes).expect("request");
            assert_eq!(reply.status, "OK");
            first_run.insert((tenant.to_string(), name.to_string()), reply.payload);
        }
    }
    assert!(
        !root.join("state-alpha").join("state.json").exists(),
        "flush=drain must not persist before the drain"
    );

    daemon.sigterm();
    let status = daemon.wait();
    assert!(status.success(), "SIGTERM drain must exit 0, got {status}");
    for tenant in ["state-alpha", "state-beta"] {
        assert!(
            root.join(tenant).join("state.json").exists(),
            "{tenant}: drain must flush the state document"
        );
    }

    // Warm restart: the same inputs replay byte-identically.
    let daemon = Daemon::spawn(&config, &root.join("port"), &[]);
    let mut c = daemon.connect();
    for tenant in ["alpha", "beta"] {
        for (name, bytes) in &files {
            let reply = c.anon(tenant, name, bytes).expect("warm request");
            assert_eq!(reply.status, "OK");
            let want = &first_run[&(tenant.to_string(), name.to_string())];
            assert_eq!(&reply.payload, want, "{tenant}/{name}: warm replay diverged");
        }
    }
    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 5. Crash recovery at every durable-write crash point
// ---------------------------------------------------------------------

#[test]
fn crash_at_every_durable_write_recovers_byte_identical() {
    let root = tmpdir("crash");
    // Hostname words are multi-letter on purpose: a single letter in
    // a-f would legitimately "leak" into hex-hashed tokens and gate
    // the request (batch agrees — that's the gate working).
    let files = [
        ("f1.cfg", &b"hostname routerone\ninterface Ethernet0\n ip address 10.7.1.1 255.255.255.0\n"[..]),
        ("f2.cfg", &b"hostname routertwo\nrouter bgp 65020\n neighbor 10.7.1.2 remote-as 701\n"[..]),
        ("f3.cfg", &b"hostname routerthree\nip route 10.7.2.0 255.255.255.0 10.7.1.2\n"[..]),
    ];

    // Golden: one uninterrupted session, flush-per-request.
    let golden_cfg = root.join("golden.toml");
    write_config(&golden_cfg, &[("alpha", &root.join("state-golden"))], "");
    let daemon = Daemon::spawn(&golden_cfg, &root.join("port"), &[]);
    let mut c = daemon.connect();
    let mut golden: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (name, bytes) in &files {
        let reply = c.anon("alpha", name, bytes).expect("golden request");
        assert_eq!(reply.status, "OK");
        golden.insert(name.to_string(), reply.payload);
    }
    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());

    // Durable writes of that session: the port file (1), one state
    // flush per request (3), one drain flush (1). Crash after each —
    // and one k beyond the last, which must serve to completion.
    for k in 1..=6u32 {
        let state = root.join(format!("state-k{k}"));
        let cfg = root.join(format!("k{k}.toml"));
        write_config(&cfg, &[("alpha", &state)], "");
        let port = root.join(format!("port-k{k}"));
        match Daemon::try_spawn(&cfg, &port, &[("CONFANON_CRASH_AFTER", &k.to_string())]) {
            Ok(daemon) => {
                // Drive the session; the abort can land mid-request, so
                // every wire error from here on is expected.
                for (name, bytes) in &files {
                    let Ok(mut c) = ServeClient::connect(&daemon.endpoint) else {
                        break;
                    };
                    let _ = c.anon("alpha", name, bytes);
                }
                if let Ok(mut c) = ServeClient::connect(&daemon.endpoint) {
                    let _ = c.shutdown();
                }
                let _ = daemon.wait();
            }
            Err(_) => {
                // Crash point 1: died writing the port file. Nothing
                // served; recovery below must still work from nothing.
            }
        }

        // Restart without the crash hook: the tenant must reload via
        // the verification path and replay byte-identically.
        let daemon = Daemon::spawn(&cfg, &port, &[]);
        let mut c = daemon.connect();
        for (name, bytes) in &files {
            let reply = c
                .anon_with_retry("alpha", name, bytes, 50, Duration::from_millis(20))
                .expect("recovery request");
            assert_eq!(reply.status, "OK", "k={k} {name}: {}", reply.text());
            assert_eq!(
                &reply.payload, &golden[*name],
                "k={k}: {name} diverged after crash recovery"
            );
        }
        assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
        assert!(daemon.wait().success(), "k={k}: recovered daemon must drain to 0");
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// 6. Torn tenant state: distinct quarantine, healthy tenants serve
// ---------------------------------------------------------------------

#[test]
fn torn_tenant_state_quarantines_distinctly_while_neighbors_serve() {
    let root = tmpdir("torn");
    let beta_state = root.join("state-beta");
    std::fs::create_dir_all(&beta_state).expect("mk beta");
    let torn = b"{ \"schema\": \"confanon-state-v1\", torn mid-docu".to_vec();
    std::fs::write(beta_state.join("state.json"), &torn).expect("write torn");

    let config = root.join("confanon.toml");
    write_config(
        &config,
        &[("alpha", &root.join("state-alpha")), ("beta", &beta_state)],
        "",
    );
    let daemon = Daemon::spawn(&config, &root.join("port"), &[]);
    let mut c = daemon.connect();

    let good = b"hostname r1\nrouter bgp 65001\n neighbor 10.3.2.1 remote-as 1239\n";
    assert_eq!(c.anon("alpha", "a.cfg", good).expect("alpha").status, "OK");

    let refused = c.anon("beta", "b.cfg", good).expect("beta");
    assert_eq!(refused.status, "TENANT-QUARANTINED");
    assert!(
        refused.text().contains("state-quarantined"),
        "payload: {}",
        refused.text()
    );

    let doc = Json::parse(&c.stats().expect("stats").text()).expect("stats json");
    let beta_snap = doc.get("tenants").and_then(|t| t.get("beta")).expect("beta snap");
    assert_eq!(
        beta_snap.get("health").and_then(Json::as_str),
        Some("state-quarantined")
    );

    assert_eq!(c.shutdown().expect("shutdown").status, "BYE");
    assert!(daemon.wait().success());

    // The torn document is evidence: the drain must not overwrite it.
    assert_eq!(
        std::fs::read(beta_state.join("state.json")).expect("read torn"),
        torn,
        "drain overwrote a quarantined tenant's torn state"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Satellite: batch SIGTERM → resumable exit 5
// ---------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn batch_sigterm_exits_resumable_and_resume_completes() {
    let root = tmpdir("batch-term");
    let corpus = root.join("corpus");
    let status = bin()
        .args(["generate", "--networks", "3", "--routers", "6", "--seed", "77"])
        .arg("--out-dir")
        .arg(&corpus)
        .stderr(Stdio::null())
        .status()
        .expect("generate");
    assert!(status.success());

    // Golden uninterrupted run.
    let golden_out = root.join("out-golden");
    let status = bin()
        .args(["batch", "--secret", "term-secret"])
        .arg("--out-dir")
        .arg(&golden_out)
        .arg(&corpus)
        .stderr(Stdio::null())
        .status()
        .expect("golden batch");
    assert!(status.success());

    // Interrupted run: SIGTERM lands mid-publish, the publish loop stops
    // after the in-flight atomic write, exit 5. The signal goes out once
    // the commit's journal write is visible: it replaces the begin
    // manifest (every entry `pending`) with one that says `released`,
    // before any byte write, so the signal lands while the bytes publish
    // however fast the build gets there.
    let out = root.join("out-interrupted");
    let mut child = bin()
        .args(["batch", "--secret", "term-secret"])
        .arg("--out-dir")
        .arg(&out)
        .arg(&corpus)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn batch");
    let manifest = out.join("run_manifest.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("\"released\"")) {
        assert!(
            child.try_wait().expect("poll batch").is_none(),
            "batch exited before its commit journal was seen"
        );
        assert!(Instant::now() < deadline, "no commit journal within 60 s");
        std::thread::sleep(Duration::from_micros(100));
    }
    unsafe {
        kill(child.id() as i32, 15);
    }
    let status = child.wait().expect("wait batch");
    assert_eq!(
        status.code(),
        Some(5),
        "SIGTERM mid-publish must exit resumable (5), got {status}"
    );
    assert!(
        out.join("run_manifest.json").exists(),
        "the journal must survive the interruption"
    );
    for e in std::fs::read_dir(&out).expect("read out").flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".fsx-tmp"),
            "staging residue after SIGTERM: {name}"
        );
    }

    // --resume completes the run; released bytes match the golden run.
    let status = bin()
        .args(["batch", "--secret", "term-secret", "--resume"])
        .arg("--out-dir")
        .arg(&out)
        .arg(&corpus)
        .stderr(Stdio::null())
        .status()
        .expect("resume batch");
    assert!(status.success(), "resume after SIGTERM: {status}");
    fn collect_anon(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        for e in std::fs::read_dir(dir).expect("read_dir").flatten() {
            let p = e.path();
            if p.is_dir() {
                collect_anon(root, &p, out);
            } else if p.extension().is_some_and(|x| x == "anon") {
                out.push(p.strip_prefix(root).expect("rel").to_path_buf());
            }
        }
    }
    let mut golden_files: Vec<PathBuf> = Vec::new();
    collect_anon(&golden_out, &golden_out, &mut golden_files);
    assert!(!golden_files.is_empty(), "golden run released nothing");
    for rel in &golden_files {
        let resumed = std::fs::read(out.join(rel)).expect("resumed output");
        assert_eq!(
            resumed,
            std::fs::read(golden_out.join(rel)).expect("golden output"),
            "{}: resumed bytes diverge from golden",
            rel.display()
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
