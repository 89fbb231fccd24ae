#!/bin/sh
# Hermetic CI: build, test, lint, and smoke-bench with no network and an
# empty registry. Everything here must pass from a cold checkout.
set -eu

cd "$(dirname "$0")/.."

echo "==> build (release, offline)"
cargo build --workspace --release --offline

echo "==> test (offline)"
cargo test -q --workspace --offline

echo "==> crypto tests (release, offline)"
# The SHA-1 compression picks its SHA-extension path at run time inside
# a #[target_feature] function; test it as the shipped binary compiles it.
cargo test -q --release --offline -p confanon-crypto

echo "==> clippy (offline, deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> doc build (offline, rustdoc warnings denied)"
# Every crate root carries #![deny(rustdoc::broken_intra_doc_links)], and
# -D warnings fails this step on any other rustdoc warning too — such as
# public docs linking to a private item, whose rendered link is dead.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> perfbench: builds and passes its correctness gate"
# perfbench (the benchmark of record, see BENCHMARK.json) is a package of
# its own outside the workspace, so the steps above never compile it: an
# API change it calls into would otherwise break the benchmark silently.
# One short untraced run of each workload exercises its correctness gate:
# e9_batch the cold path, warm_append the warm one (state load, journal
# replay, discovery of the appended files, and the ground-truth scan
# against the state's exclusions).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in e9_batch warm_append; do
    perf_result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 | tail -n 1)
    echo "$perf_result"
    echo "$perf_result" | grep -q '"correct": true' || {
        echo "perfbench correctness gate failed on $workload"; exit 1;
    }
done

echo "==> smoke bench: batch pipeline throughput"
# The ISSUE's smoke bench target is a corpus directory; `examples/` holds
# Rust examples, so generate a small synthetic corpus and batch it.
# The bench runs at --jobs 1: CI boxes here are single-core, where
# worker threads only add spawn/merge overhead to the headline number.
# Parallel correctness (byte-identity across --jobs) is asserted by the
# observability/chaos/crash smokes below and by the test suite.
corpus_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir"' EXIT
./target/release/confanon generate --networks 2 --routers 4 --seed 2004 \
    --out-dir "$corpus_dir"
./target/release/confanon batch "$corpus_dir" --jobs 1 \
    --bench-json BENCH_pipeline.json

echo "==> BENCH_pipeline.json"
cat BENCH_pipeline.json
echo

echo "==> throughput bar: >= 3x the pre-zero-copy baseline"
# The pre-rewrite pipeline measured 171,811 tokens/sec on this corpus
# (BENCH_pipeline.json before the zero-copy PR). The borrow-or-own
# rewrite, byte-class dispatch, SHA-1/HMAC midstate work, and leak-scan
# index hold the min-of-5 headline at >= 3x that baseline. Measured
# min-of-5 samples on this box land at 550k-750k tokens/sec; the bar
# leaves the rest as noise headroom. See PERFORMANCE.md for the ledger.
tps=$(sed -n 's/.*"tokens_per_sec": \([0-9.]*\).*/\1/p' BENCH_pipeline.json | head -n 1)
awk -v t="$tps" 'BEGIN { exit !(t >= 515433) }' || {
    echo "throughput $tps tokens/sec below the 3x bar (515433)"; exit 1;
}

echo "==> observability guard: instrumentation cost within noise"
# tests/metrics_invariants.rs holds the instrumented-vs-stripped ratio
# under 1.05 with retries; the single-attempt BENCH block gets noise
# headroom on a shared box (measured samples: 0.85-1.11). This bar
# catches gross regressions — someone making recording expensive again.
ratio=$(sed -n 's/.*"overhead_ratio": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)
awk -v r="$ratio" 'BEGIN { exit !(r <= 1.25) }' || {
    echo "observability overhead ratio $ratio exceeds the 1.25 CI guard"; exit 1;
}

echo "==> discovery bench block: present, speedup"
# The sharded-discovery bench must have run and recorded its block, and
# sharded discovery must beat the sequential baseline. The 1.5x bar needs
# real cores for the scan to fan out over (the shards share one regexp
# memo, so no pattern is enumerated twice); the sequential walk does its
# per-identifier work once per identifier too, so a single-core runner
# has nothing left to win and the bar there is no-regression-within-noise
# (>= 0.9). See PERFORMANCE.md.
grep -q '"discovery"'     BENCH_pipeline.json || { echo "missing discovery block"; exit 1; }
grep -q '"sharded_ns"'    BENCH_pipeline.json || { echo "missing sharded_ns"; exit 1; }
speedup=$(sed -n 's/.*"sharded_speedup": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)
cores=$(sed -n 's/.*"parallelism": \([0-9]*\).*/\1/p' BENCH_pipeline.json)
bar=0.9; [ "${cores:-1}" -ge 2 ] && bar=1.5
awk -v s="$speedup" -v b="$bar" 'BEGIN { exit !(s >= b) }' || {
    echo "sharded discovery speedup $speedup below the $bar bar (cores=$cores)"; exit 1;
}

echo "==> observability smoke: metrics + trace, deterministic across jobs"
# Run the batch twice at different worker counts with --metrics/--trace,
# shape-check both artifacts through the in-tree JSON parser (the
# `confanon metrics` subcommand), and demand the deterministic section
# be byte-identical across the two job counts.
obs_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir" "$obs_dir"' EXIT
./target/release/confanon batch "$corpus_dir" --jobs 1 \
    --out-dir "$obs_dir/out1" \
    --metrics "$obs_dir/metrics-j1.json" --trace "$obs_dir/run-j1.trace.json"
./target/release/confanon batch "$corpus_dir" --jobs 4 \
    --out-dir "$obs_dir/out4" \
    --metrics "$obs_dir/metrics-j4.json" --trace "$obs_dir/run-j4.trace.json"
./target/release/confanon metrics "$obs_dir/metrics-j1.json"
./target/release/confanon metrics "$obs_dir/metrics-j4.json"
./target/release/confanon metrics --trace "$obs_dir/run-j1.trace.json"
./target/release/confanon metrics --trace "$obs_dir/run-j4.trace.json"
./target/release/confanon metrics --deterministic "$obs_dir/metrics-j1.json" \
    > "$obs_dir/det-j1.json"
./target/release/confanon metrics --deterministic "$obs_dir/metrics-j4.json" \
    > "$obs_dir/det-j4.json"
diff "$obs_dir/det-j1.json" "$obs_dir/det-j4.json" || {
    echo "deterministic metrics section differs between --jobs 1 and --jobs 4"; exit 1;
}
grep -q '"phase.rewrite.lines_borrowed"' "$obs_dir/metrics-j1.json" || {
    echo "metrics lack the borrow-or-own accounting"; exit 1;
}

echo "==> validate smoke: both suites pass over every released config"
# validate reads the layout batch writes (<net>/<host>.cfg.anon beside
# run_manifest.json) and must compare all 9 configs, not zero.
./target/release/confanon validate --pre-dir "$corpus_dir" \
    --post-dir "$obs_dir/out1" > "$obs_dir/validate.txt"
cat "$obs_dir/validate.txt"
grep -qx 'compared 9 config(s)' "$obs_dir/validate.txt" || {
    echo "validate smoke: expected 9 compared configs"; exit 1;
}
grep -qx 'suite1: PASS' "$obs_dir/validate.txt" && grep -qx 'suite2: PASS' "$obs_dir/validate.txt" || {
    echo "validate smoke: a suite failed"; exit 1;
}

echo "==> chaos smoke: fail-closed exit-code taxonomy"
# Fixed seeds end to end (TESTKIT_SEED for any in-process property
# replay, --seed for the mutator) so the hostile corpus — and therefore
# the outcome asserted below — is reproducible run to run.
export TESTKIT_SEED=2004
chaos_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir" "$obs_dir" "$chaos_dir"' EXIT

# 1. A clean synthetic corpus releases everything: exit 0.
set +e
./target/release/confanon batch "$corpus_dir" --jobs 4 \
    --out-dir "$chaos_dir/clean-out" --quarantine-dir "$chaos_dir/clean-q"
code=$?
set -e
[ "$code" -eq 0 ] || { echo "clean corpus: expected exit 0, got $code"; exit 1; }

# 2. A planted leak (the §6.1 ablation: disable the remote-as locator
#    rule so a recorded ASN survives emission) trips the gate: exit 4,
#    withheld bytes and a machine-readable report in the quarantine dir.
mkdir -p "$chaos_dir/leak-in"
printf 'router bgp 701\n neighbor 10.0.0.2 remote-as 701\n' \
    > "$chaos_dir/leak-in/a.cfg"
printf 'router bgp 65001\n neighbor 10.0.0.1 remote-as 701\n' \
    > "$chaos_dir/leak-in/b.cfg"
set +e
./target/release/confanon batch "$chaos_dir/leak-in" --jobs 2 \
    --disable-rule neighbor-remote-as \
    --out-dir "$chaos_dir/leak-out" --quarantine-dir "$chaos_dir/leak-q"
code=$?
set -e
[ "$code" -eq 4 ] || { echo "planted leak: expected exit 4, got $code"; exit 1; }
[ -f "$chaos_dir/leak-q/leak_report.json" ] || {
    echo "planted leak: missing leak_report.json"; exit 1;
}

# 3. Public 4-byte ASNs (RFC 6793), which the 16-bit ASN map cannot
#    permute, are recorded, so the gate withholds the file: batch exits 4
#    with a leak report and releases nothing; anonymize exits 4 and
#    writes nothing.
mkdir -p "$chaos_dir/asn32-in"
printf 'router bgp 262144\n neighbor 12.1.1.2 remote-as 396982\nip as-path access-list 5 permit _396982_\n' \
    > "$chaos_dir/asn32-in/a.cfg"
set +e
./target/release/confanon batch "$chaos_dir/asn32-in" --jobs 1 \
    --out-dir "$chaos_dir/asn32-out" --quarantine-dir "$chaos_dir/asn32-q"
code=$?
./target/release/confanon anonymize --secret ci-secret \
    --out-dir "$chaos_dir/asn32-anon" "$chaos_dir/asn32-in/a.cfg"
anon_code=$?
set -e
[ "$code" -eq 4 ] || { echo "4-byte ASNs: batch expected exit 4, got $code"; exit 1; }
[ -f "$chaos_dir/asn32-q/leak_report.json" ] || {
    echo "4-byte ASNs: missing leak_report.json"; exit 1;
}
ls "$chaos_dir/asn32-out" | grep -q '\.anon$' && {
    echo "4-byte ASNs: batch released a file"; exit 1;
}
[ "$anon_code" -eq 4 ] || {
    echo "4-byte ASNs: anonymize expected exit 4, got $anon_code"; exit 1;
}
[ -z "$(ls -A "$chaos_dir/asn32-anon")" ] || {
    echo "4-byte ASNs: anonymize wrote a flagged output"; exit 1;
}

# 3b. A dotted quad inside a compound token (a URL, an `a.b.c.d:nn`
#     route target, a prefix with an out-of-range length, a quad with a
#     dot beside it) is mapped, so the release holds no copy of it; so
#     is the ASN after `redistribute bgp`. An asdot 4-byte ASN is
#     recorded, and a recorded ASN with a dot beside it is found, so the
#     gate withholds each of those files.
mkdir -p "$chaos_dir/quad-in" "$chaos_dir/asdot-in" "$chaos_dir/redist-in" \
    "$chaos_dir/asndot-in"
printf ' ip address 12.1.1.1 255.255.255.252\nboot host tftp://12.1.1.1/cfg\n set extcommunity rt 12.1.1.1:100\nip route 12.1.1.1/33 Null0\nlogging 12.1.1.1.\n' \
    > "$chaos_dir/quad-in/a.cfg"
printf 'router bgp 4.10\n' > "$chaos_dir/asdot-in/a.cfg"
printf 'router bgp 701\n neighbor 12.1.1.2 remote-as 702\nrouter ospf 1\n redistribute bgp 701 subnets\n' \
    > "$chaos_dir/redist-in/a.cfg"
printf 'router bgp 701\n neighbor 12.1.1.2 remote-as 702\n neighbor 12.1.1.2 description peer 702.\n' \
    > "$chaos_dir/asndot-in/a.cfg"
set +e
./target/release/confanon batch "$chaos_dir/quad-in" --jobs 1 \
    --out-dir "$chaos_dir/quad-out" --quarantine-dir "$chaos_dir/quad-q"
code=$?
./target/release/confanon batch "$chaos_dir/asdot-in" --jobs 1 \
    --out-dir "$chaos_dir/asdot-out" --quarantine-dir "$chaos_dir/asdot-q"
asdot_code=$?
./target/release/confanon batch "$chaos_dir/redist-in" --jobs 1 \
    --out-dir "$chaos_dir/redist-out" --quarantine-dir "$chaos_dir/redist-q"
redist_code=$?
./target/release/confanon batch "$chaos_dir/asndot-in" --jobs 1 \
    --out-dir "$chaos_dir/asndot-out" --quarantine-dir "$chaos_dir/asndot-q"
asndot_code=$?
set -e
[ "$code" -eq 0 ] || { echo "compound quads: expected exit 0, got $code"; exit 1; }
grep -rwF 12.1.1.1 "$chaos_dir/quad-out" && {
    echo "compound quads: the release holds 12.1.1.1"; exit 1;
}
[ "$asdot_code" -eq 4 ] || { echo "asdot ASN: expected exit 4, got $asdot_code"; exit 1; }
[ -f "$chaos_dir/asdot-q/leak_report.json" ] || {
    echo "asdot ASN: missing leak_report.json"; exit 1;
}
ls "$chaos_dir/asdot-out" | grep -q '\.anon$' && {
    echo "asdot ASN: batch released a file"; exit 1;
}
[ "$redist_code" -eq 0 ] || {
    echo "redistribute bgp: expected exit 0, got $redist_code"; exit 1;
}
grep -rw 701 "$chaos_dir/redist-out" && {
    echo "redistribute bgp: the release holds 701"; exit 1;
}
[ "$asndot_code" -eq 4 ] || {
    echo "ASN beside a dot: expected exit 4, got $asndot_code"; exit 1;
}
[ -f "$chaos_dir/asndot-q/leak_report.json" ] || {
    echo "ASN beside a dot: missing leak_report.json"; exit 1;
}
ls "$chaos_dir/asndot-out" | grep -q '\.anon$' && {
    echo "ASN beside a dot: batch released a file"; exit 1;
}

# 4. 64 chaos-mutated hostile configs never crash the pipeline or escape
#    the taxonomy (exit 0/3/4), and the run is deterministic: jobs=1 and
#    jobs=4 agree on the exit code and on every released byte.
./target/release/confanon chaos --seed 2004 --count 64 \
    --out-dir "$chaos_dir/hostile"
set +e
./target/release/confanon batch "$chaos_dir/hostile" --jobs 4 \
    --out-dir "$chaos_dir/hostile-out4" --quarantine-dir "$chaos_dir/hostile-q4"
code4=$?
./target/release/confanon batch "$chaos_dir/hostile" --jobs 1 \
    --out-dir "$chaos_dir/hostile-out1" --quarantine-dir "$chaos_dir/hostile-q1"
code1=$?
set -e
case "$code4" in
    0|3|4) ;;
    *) echo "hostile corpus: exit $code4 outside the 0/3/4 taxonomy"; exit 1 ;;
esac
[ "$code4" -eq "$code1" ] || {
    echo "hostile corpus: jobs=4 exit $code4 != jobs=1 exit $code1"; exit 1;
}
diff -r "$chaos_dir/hostile-out4" "$chaos_dir/hostile-out1"
diff -r "$chaos_dir/hostile-q4" "$chaos_dir/hostile-q1"

echo "==> crash/resume smoke: durable journal + --resume"
# Kill the run after its 3rd durable write (SIGABRT, a real crash, not
# an unwind), check the journal survived intact, resume at a different
# worker count, and demand byte-identity with clean one-shot runs at
# --jobs 1 and --jobs 4. The manifest records neither timestamps nor
# the job count, so even run_manifest.json must diff clean.
crash_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir" "$obs_dir" "$chaos_dir" "$crash_dir"' EXIT

./target/release/confanon batch "$corpus_dir" --jobs 1 \
    --out-dir "$crash_dir/golden1"
./target/release/confanon batch "$corpus_dir" --jobs 4 \
    --out-dir "$crash_dir/golden4"
diff -r "$crash_dir/golden1" "$crash_dir/golden4"

set +e
CONFANON_CRASH_AFTER=3 ./target/release/confanon batch "$corpus_dir" \
    --jobs 1 --out-dir "$crash_dir/out"
code=$?
set -e
[ "$code" -ne 0 ] || { echo "crash run: expected a non-zero exit"; exit 1; }
grep -q '"confanon-run-manifest-v1"' "$crash_dir/out/run_manifest.json" || {
    echo "crash run: journal missing or torn after the crash"; exit 1;
}
ls "$crash_dir/out" | grep -q '\.fsx-tmp' && {
    echo "crash run: stray temp file escaped into --out-dir"; exit 1;
}

./target/release/confanon batch "$corpus_dir" --jobs 4 --resume \
    --out-dir "$crash_dir/out"
diff -r "$crash_dir/out" "$crash_dir/golden1"
diff -r "$crash_dir/out" "$crash_dir/golden4"

echo "==> incremental smoke: --state warm runs match from-scratch runs"
# Cold run over the corpus with --state, append three generated configs
# (a second generator network — its files sort after the originals, the
# append-growth precondition), then warm-rerun and demand byte-identity
# with from-scratch runs over the grown corpus at --jobs 1 and 4. The
# metrics `state` block must account for every skipped file.
incr_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir" "$obs_dir" "$chaos_dir" "$crash_dir" "$incr_dir"' EXIT

cp -r "$corpus_dir" "$incr_dir/grown"
./target/release/confanon generate --networks 2 --routers 3 --seed 7791 \
    --out-dir "$incr_dir/extra"
# Take 3 files from the later-sorting generated network, renamed into a
# directory that sorts after everything already in the corpus.
mkdir -p "$incr_dir/grown/zz-added"
extra_net=$(ls "$incr_dir/extra" | sort | tail -n 1)
ls "$incr_dir/extra/$extra_net" | sort | head -n 3 | while read -r f; do
    cp "$incr_dir/extra/$extra_net/$f" "$incr_dir/grown/zz-added/$f"
done
[ "$(ls "$incr_dir/grown/zz-added" | wc -l)" -eq 3 ] || {
    echo "incremental smoke: expected 3 appended configs"; exit 1;
}
small_n=$(find "$corpus_dir" -name '*.cfg' | wc -l)

./target/release/confanon batch "$corpus_dir" --jobs 4 \
    --out-dir "$incr_dir/out" --state "$incr_dir/st"
for jobs in 1 4; do
    rm -rf "$incr_dir/out-warm" "$incr_dir/st-warm"
    cp -r "$incr_dir/out" "$incr_dir/out-warm"
    cp -r "$incr_dir/st" "$incr_dir/st-warm"
    ./target/release/confanon batch "$incr_dir/grown" --jobs "$jobs" \
        --out-dir "$incr_dir/out-warm" --state "$incr_dir/st-warm" \
        --metrics "$incr_dir/metrics-warm.json"
    ./target/release/confanon batch "$incr_dir/grown" --jobs "$jobs" \
        --out-dir "$incr_dir/out-scratch-$jobs" --state "$incr_dir/st-scratch-$jobs"
    diff -r "$incr_dir/out-warm" "$incr_dir/out-scratch-$jobs" || {
        echo "incremental smoke: warm run differs from scratch at --jobs $jobs"; exit 1;
    }
    grep -q "\"files_skipped\": $small_n" "$incr_dir/metrics-warm.json" || {
        echo "incremental smoke: warm run did not skip all $small_n unchanged files"; exit 1;
    }
done

echo "==> serve smoke: 2-tenant daemon, drain on SIGTERM, warm restart"
# Start the daemon with two tenants, push a config through each via the
# `confanon client` test client (an independent wire implementation, so
# this doubles as a protocol interop check), validate the stats frame,
# SIGTERM-drain (must exit 0), then restart and demand warm mappings:
# the same inputs must anonymize byte-identically across the restart.
serve_dir="$(mktemp -d)"
serve_pid=""
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$corpus_dir" "$obs_dir" "$chaos_dir" "$crash_dir" "$incr_dir" "$serve_dir"' EXIT

cat > "$serve_dir/confanon.toml" <<SERVECFG
[tenant.alpha]
secret = "alpha-ci-secret"
state_dir = "$serve_dir/state-alpha"

[tenant.beta]
secret = "beta-ci-secret"
state_dir = "$serve_dir/state-beta"
SERVECFG

a_cfg=$(find "$corpus_dir" -name '*.cfg' | sort | head -n 1)
b_cfg=$(find "$corpus_dir" -name '*.cfg' | sort | tail -n 1)

start_serve() {
    : > "$serve_dir/port"
    ./target/release/confanon serve --config "$serve_dir/confanon.toml" \
        --listen 127.0.0.1:0 --port-file "$serve_dir/port" &
    serve_pid=$!
    for _ in $(seq 1 200); do
        [ -s "$serve_dir/port" ] && return 0
        sleep 0.05
    done
    echo "serve smoke: daemon never advertised its port"; exit 1
}

start_serve
endpoint=$(cat "$serve_dir/port")
client="./target/release/confanon client --endpoint $endpoint"

$client ping > /dev/null
$client anon --tenant alpha --name a.cfg "$a_cfg" > "$serve_dir/a-cold.anon"
$client anon --tenant beta  --name b.cfg "$b_cfg" > "$serve_dir/b-cold.anon"
[ -s "$serve_dir/a-cold.anon" ] || { echo "serve smoke: empty alpha output"; exit 1; }
$client stats > "$serve_dir/stats.json"
./target/release/confanon metrics --serve "$serve_dir/stats.json"

kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
rc=$?
set -e
[ "$rc" -eq 0 ] || { echo "serve smoke: SIGTERM drain exited $rc, want 0"; exit 1; }
for t in state-alpha state-beta; do
    [ -f "$serve_dir/$t/state.json" ] || {
        echo "serve smoke: drain did not flush $t/state.json"; exit 1;
    }
done

start_serve
endpoint=$(cat "$serve_dir/port")
client="./target/release/confanon client --endpoint $endpoint"
$client anon --tenant alpha --name a.cfg "$a_cfg" > "$serve_dir/a-warm.anon"
$client anon --tenant beta  --name b.cfg "$b_cfg" > "$serve_dir/b-warm.anon"
cmp "$serve_dir/a-cold.anon" "$serve_dir/a-warm.anon" || {
    echo "serve smoke: alpha mappings not warm across restart"; exit 1;
}
cmp "$serve_dir/b-cold.anon" "$serve_dir/b-warm.anon" || {
    echo "serve smoke: beta mappings not warm across restart"; exit 1;
}
$client shutdown > /dev/null
set +e
wait "$serve_pid"
rc=$?
set -e
serve_pid=""
[ "$rc" -eq 0 ] || { echo "serve smoke: shutdown-frame drain exited $rc, want 0"; exit 1; }

echo "==> serve-chaos smoke: hostile wire via the netchaos proxy"
# Put the seeded fault-injecting proxy (torn frames, dribbles, garbage,
# mid-frame disconnects — all a pure function of --seed) in front of a
# live daemon, hammer it with a client whose failures are expected, and
# demand that (a) a healthy client connecting directly still gets real
# output, (b) the stats frame validates and carries the full
# daemon.faults counter taxonomy, and (c) both the proxy and the daemon
# drain cleanly on SIGTERM.
wire_dir="$(mktemp -d)"
proxy_pid=""
trap 'kill "$serve_pid" "$proxy_pid" 2>/dev/null || true; rm -rf "$corpus_dir" "$obs_dir" "$chaos_dir" "$crash_dir" "$incr_dir" "$serve_dir" "$wire_dir"' EXIT

cat > "$wire_dir/confanon.toml" <<WIRECFG
idle_timeout_ms = 2000
read_deadline_ms = 800

[tenant.alpha]
secret = "alpha-wire-secret"
state_dir = "$wire_dir/state-alpha"
max_request_bytes = 1048576

[tenant.mallory]
secret = "mallory-wire-secret"
state_dir = "$wire_dir/state-mallory"
WIRECFG

: > "$wire_dir/port"
./target/release/confanon serve --config "$wire_dir/confanon.toml" \
    --listen 127.0.0.1:0 --port-file "$wire_dir/port" &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -s "$wire_dir/port" ] && break
    sleep 0.05
done
[ -s "$wire_dir/port" ] || { echo "serve-chaos smoke: daemon never advertised"; exit 1; }
endpoint=$(cat "$wire_dir/port")

: > "$wire_dir/proxyport"
./target/release/confanon netchaos --upstream "$endpoint" --seed 2004 \
    --profile hostile --port-file "$wire_dir/proxyport" &
proxy_pid=$!
for _ in $(seq 1 200); do
    [ -s "$wire_dir/proxyport" ] && break
    sleep 0.05
done
[ -s "$wire_dir/proxyport" ] || { echo "serve-chaos smoke: proxy never advertised"; exit 1; }
proxy=$(cat "$wire_dir/proxyport")

# The hostile leg: valid requests launched into the mutating proxy.
# Any exit code is acceptable — the proxy tears what it relays — but
# the daemon behind it must not care.
for i in 1 2 3 4 5 6; do
    printf 'hostname storm%s\nrouter bgp 65%03d\n' "$i" "$i" | \
        ./target/release/confanon client --endpoint "$proxy" \
            anon --tenant mallory --name "s$i.cfg" --retries 2 \
        > /dev/null 2>&1 || true
done

# The healthy leg, direct: must produce non-empty anonymized output.
./target/release/confanon client --endpoint "$endpoint" \
    anon --tenant alpha --name a.cfg "$a_cfg" > "$wire_dir/a.anon"
[ -s "$wire_dir/a.anon" ] || { echo "serve-chaos smoke: empty healthy output"; exit 1; }

# The stats frame still validates and carries every fault counter.
./target/release/confanon client --endpoint "$endpoint" stats \
    > "$wire_dir/stats.json"
./target/release/confanon metrics --serve "$wire_dir/stats.json"
for counter in frames_rejected read_timeouts idle_closed connections_shed \
               recoveries degraded_transitions; do
    grep -q "\"$counter\"" "$wire_dir/stats.json" || {
        echo "serve-chaos smoke: stats frame lacks faults.$counter"; exit 1;
    }
done

kill -TERM "$proxy_pid"
set +e
wait "$proxy_pid"
rc=$?
set -e
proxy_pid=""
[ "$rc" -eq 0 ] || { echo "serve-chaos smoke: proxy SIGTERM exited $rc, want 0"; exit 1; }

kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
rc=$?
set -e
serve_pid=""
[ "$rc" -eq 0 ] || { echo "serve-chaos smoke: daemon drain exited $rc, want 0"; exit 1; }

echo "==> audit smoke: seeded risk-utility report over the seed corpus"
# Run the red team against the observability smoke's released corpus
# ($obs_dir/out1 — a complete journaled batch output), validate the
# report through the CLI checker, demand the greppable tradeoff table
# (baseline + both default rule ablations + the decoy row), prove the
# report byte-identical across --jobs, and hold the paper's core claim:
# the keyed ASN permutation gives the known-plaintext attacker nothing.
audit_dir="$(mktemp -d)"
trap 'kill "$serve_pid" "$proxy_pid" 2>/dev/null || true; rm -rf "$corpus_dir" "$obs_dir" "$chaos_dir" "$crash_dir" "$incr_dir" "$serve_dir" "$wire_dir" "$audit_dir"' EXIT

./target/release/confanon audit --risk --secret smoke-bench-secret \
    --decoys 2 --jobs 1 \
    --pre-dir "$corpus_dir" --post-dir "$obs_dir/out1" \
    --report "$audit_dir/risk-j1.json" > "$audit_dir/tradeoff.txt"
./target/release/confanon audit --check-report "$audit_dir/risk-j1.json"

for row in "tradeoff baseline " "tradeoff disable:router-bgp-asn " \
           "tradeoff disable:neighbor-remote-as " "tradeoff scramble " \
           "tradeoff decoys:2 "; do
    grep -q "^$row" "$audit_dir/tradeoff.txt" || {
        echo "audit smoke: missing table row '$row'"; cat "$audit_dir/tradeoff.txt"; exit 1;
    }
done

./target/release/confanon audit --risk --secret smoke-bench-secret \
    --decoys 2 --jobs 4 \
    --pre-dir "$corpus_dir" --post-dir "$obs_dir/out1" \
    --report "$audit_dir/risk-j4.json" > /dev/null
cmp "$audit_dir/risk-j1.json" "$audit_dir/risk-j4.json" || {
    echo "audit smoke: risk report differs between --jobs 1 and --jobs 4"; exit 1;
}

# The baseline known-plaintext ASN attack must recover nothing: the
# asn_known_plaintext block is the first "successes" after the degree
# block, so pull it structurally rather than by line position.
asn_successes=$(sed -n '/"asn_known_plaintext"/,/}/s/.*"successes": \([0-9]*\).*/\1/p' \
    "$audit_dir/risk-j1.json")
[ "$asn_successes" = "0" ] || {
    echo "audit smoke: known-plaintext ASN attack recovered $asn_successes ASN(s), want 0"
    exit 1
}

echo "==> audit tradeoff table"
cat "$audit_dir/tradeoff.txt"

echo "CI OK"
