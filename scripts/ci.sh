#!/usr/bin/env bash
# CI gauntlet: build, test, formatting, lints. Run from anywhere; exits
# non-zero on the first failure. Pass extra cargo flags (e.g. --offline)
# via CARGO_FLAGS.
#
#   --bench   after every other gate, take a fresh benchmark set (seed 7,
#             ~14 minutes) and compare it with the newest committed
#             BENCH_<n>.json; any `worse` row fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:-}

BENCH=0
for arg in "$@"; do
    case "${arg}" in
        --bench) BENCH=1 ;;
        *)
            echo "usage: scripts/ci.sh [--bench]" >&2
            exit 2
            ;;
    esac
done

# Smoke artifacts are gitignored; remove them even when a gate between
# their creation and the explicit cleanup fails. PNA processes from the
# wire smoke are reaped too, so a failed headend never leaks children.
PNA_PIDS=""
HEADEND_PIDS=""
SIM_METRICS_SAVED=""
cleanup() {
    # A sim bin that failed mid-gate leaves its stamped envelope behind.
    if [ -n "${SIM_METRICS_SAVED}" ]; then
        cp "${SIM_METRICS_SAVED}"/*.metrics.json results/
        rm -rf "${SIM_METRICS_SAVED}"
    fi
    for pid in ${PNA_PIDS} ${HEADEND_PIDS}; do
        kill "${pid}" 2>/dev/null || true
    done
    rm -f results/ci-smoke.json results/ci-smoke.trace.bin results/trace.trace.bin \
        results/ci-smoke.trace.jsonl results/ci-smoke.trace.stream.json \
        results/ci-wire-smoke.json results/ci-top.json \
        results/ci-help.txt results/ci-autoscale.json \
        results/ci-failover-primary.json results/ci-failover-standby.json \
        results/ci-failover-pna-201.json results/ci-failover-pna-202.json \
        results/ci-failover-pna-203.json
    rm -rf results/ci-failover-snap results/ci-failover-torn \
        results/ci-failover-torn.err benchmark/out/ci-bench.json \
        benchmark/out/ci-bench.txt
}
trap cleanup EXIT

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release ${CARGO_FLAGS}
# The two binaries every gate below calls, built once: the `oddci` CLI and
# `schema_check`, which also holds each smoke's assertions.
run cargo build --release ${CARGO_FLAGS} -p oddci-cli -p oddci-bench
ODDCI_BIN=target/release/oddci
SCHEMA_CHECK=target/release/schema_check
run cargo test -q --workspace ${CARGO_FLAGS}
# The in-process failover test again in a release build, where its job
# runs several times faster than under the debug tests above: it must
# not depend on how fast the build is (ROADMAP item 2).
run cargo test -q --release ${CARGO_FLAGS} -p oddci-live --lib \
    standby_adopts_a_killed_socket_headend_mid_job
# The wire transport's unit tests in a release build too: their timeouts
# and time bounds are wall-clock, so a fast build must pass them as well.
run cargo test -q --release ${CARGO_FLAGS} -p oddci-wire --lib
# The crypto tests in a release build: the SHA-256 hardware kernel is
# inlined and scheduled differently under optimisation, and these tests
# hold it to the FIPS and RFC 4231 vectors and to the scalar oracle.
run cargo test -q --release ${CARGO_FLAGS} -p oddci-crypto
# The workload tests in a release build: the k-mer index links positions
# with `u32` arithmetic, which runs without overflow checks there, and
# these tests hold its lookups to the `HashMap` oracle.
run cargo test -q --release ${CARGO_FLAGS} -p oddci-workload
# The benchmark crate sits outside the workspace and links it the way an
# outside caller would (benchmark/src/sut.rs pins every public item it
# uses), so a wire or live API change that breaks it has to fail here
# and not at the next benchmark run. Builds into benchmark/target/.
run cargo test -q ${CARGO_FLAGS} --manifest-path benchmark/Cargo.toml
run cargo fmt --check
run cargo clippy --workspace --all-targets ${CARGO_FLAGS} -- -D warnings

# Documentation gate: every intra-doc link must resolve and every public
# item stay documented; warnings are promoted to errors.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps ${CARGO_FLAGS}

# Concurrency gates: the workspace lint (raw-lock ban, telemetry phase
# vocabulary, no unwrap in live hot paths, `unsafe` only in the wire
# poller and the SHA-256 kernel's dispatch) must be clean, and a bounded model-check over the scaled-down
# headend scenarios must find every seeded bug and none in the fixed
# protocols — including the autoscale trim race (scale-down-vs-heartbeat)
# and the serving loop's wakeup race (wake-vs-wait), each with its
# seeded-bug twin. Fixed seed, bounded schedules: deterministic and well
# under 30 s. `oddci check` runs the lint, then every scenario.
run "${ODDCI_BIN}" check --seed 11 --schedules 400

# Sim output gate: the seeded sim bins must reproduce their committed
# artifacts byte for byte, so a change meant to move only wall time (the
# event queue, the MAC, the Controller registry) cannot move a result.
# The first five, `table2` and the four model bins (`table1`, `table3`,
# `figure7`, `heartbeat`) finish in about a second each; `sizing` (its
# 50k-node worlds) takes ~14 s and `figure6 --sim` ~7 s. Their
# `*.metrics.json` envelopes carry the git sha and are put back as they
# were; the console logs are rewritten in place and diffed. `oddci
# trace small` rewrites `results/trace.json`, which carries no sha or
# wall time: `trace convert` writes events in time order, so the lanes'
# interleaving cannot move a byte.
SIM_BINS="chaos churn wakeup technologies federation sizing table2 figure6
    table1 table3 figure7 heartbeat"
echo "==> sim outputs: ${SIM_BINS} and trace small against results/"
SIM_METRICS_SAVED=$(mktemp -d)
cp results/*.metrics.json "${SIM_METRICS_SAVED}/"
for bin in ${SIM_BINS}; do
    case "${bin}" in
        figure6) args="--sim" ;;
        *) args="" ;;
    esac
    "target/release/${bin}" ${args} > "results/logs/${bin}.txt"
done
cp "${SIM_METRICS_SAVED}"/*.metrics.json results/
rm -rf "${SIM_METRICS_SAVED}"
SIM_METRICS_SAVED=""
"${ODDCI_BIN}" trace small --out results/trace.json > /dev/null
run git diff --exit-code -- results/trace.json $(for bin in ${SIM_BINS}; do
    echo "results/${bin}.json results/logs/${bin}.txt"
done)

# Streamed-trace smoke: run one small scenario with the streaming sink
# attached (it writes the one online format, a binary .trace.bin, and
# must drop nothing), derive the JSONL + Chrome text artifacts offline
# with `trace convert`, then let schema_check validate the binary header
# and the converted text artifacts alongside the metrics envelopes.
run "${ODDCI_BIN}" trace --scenario small --seed 7 \
    --out results/ci-smoke.json --stream results/ci-smoke.trace.bin
run "${ODDCI_BIN}" trace convert results/ci-smoke.trace.bin
run "${SCHEMA_CHECK}"
# A flag no command reads is an argument error (exit 2), not a no-op:
# `--binary` selected the stream format before binary became the only one.
run bash -c "${ODDCI_BIN} trace small --binary >/dev/null 2>&1; [ \$? -eq 2 ]"

# Wire smoke: one real multi-process run of the socket-backed live plane —
# a headend process plus three PNA processes complete an alignment job
# over loopback TCP, and the headend's accounting must balance exactly.
WIRE_PORT=${WIRE_PORT:-7841}
echo "==> wire smoke: headend + 3 pna processes on 127.0.0.1:${WIRE_PORT}"
"${ODDCI_BIN}" headend --listen "127.0.0.1:${WIRE_PORT}" \
    --pnas 3 --target 3 --queries 9 --timeout 60 --json \
    > results/ci-wire-smoke.json &
HEADEND_PID=$!
sleep 1
# Live-stats smoke: poll the running headend's metrics plane over the
# same socket. StatsQuery is answered without a Hello handshake, so the
# monitoring connection never consumes a node identity.
"${ODDCI_BIN}" top --connect "127.0.0.1:${WIRE_PORT}" --count 1 --json \
    > results/ci-top.json
"${SCHEMA_CHECK}" smoke top
for seed in 101 102 103; do
    "${ODDCI_BIN}" pna --connect "127.0.0.1:${WIRE_PORT}" --seed "${seed}" \
        > /dev/null &
    PNA_PIDS="${PNA_PIDS} $!"
done
wait "${HEADEND_PID}"
for pid in ${PNA_PIDS}; do
    wait "${pid}"
done
PNA_PIDS=""
"${SCHEMA_CHECK}" smoke wire

# Failover smoke: a snapshotting primary plus three reconnecting PNAs;
# SIGKILL the primary mid-job (no goodbye — the listener just dies),
# boot a standby from the latest snapshot on the same port, and require
# the job to finish with zero tasks lost and every PNA re-acked at the
# bumped fencing epoch. The job is sized (4000 tasks) so that a 2-core
# box is still mid-job ~0.5 s in: at 96 tasks the primary finished in
# ~0.2 s, before the kill, on about half the runs — it then shut its
# PNAs down itself and the standby adopted a job nobody was left to run.
FAILOVER_PORT=${FAILOVER_PORT:-7842}
FAILOVER_SNAP=results/ci-failover-snap
rm -rf "${FAILOVER_SNAP}"
echo "==> failover smoke: SIGKILL primary, standby adoption on 127.0.0.1:${FAILOVER_PORT}"
"${ODDCI_BIN}" headend --listen "127.0.0.1:${FAILOVER_PORT}" \
    --pnas 3 --target 3 --queries 4000 --db-len 500000 --timeout 60 \
    --snapshot-dir "${FAILOVER_SNAP}" --snapshot-interval-ms 50 --json \
    > results/ci-failover-primary.json &
HEADEND_PIDS="$!"
for seed in 201 202 203; do
    "${ODDCI_BIN}" pna --connect "127.0.0.1:${FAILOVER_PORT}" --seed "${seed}" \
        --reconnect-ms 30000 --json > "results/ci-failover-pna-${seed}.json" &
    PNA_PIDS="${PNA_PIDS} $!"
done
# Pull the plug only once a snapshot exists (otherwise there is nothing
# to adopt) and a beat of work has flowed through the instance.
for _ in $(seq 1 100); do
    [ -f "${FAILOVER_SNAP}/headend.snap" ] && break
    sleep 0.05
done
sleep 0.4
kill -9 ${HEADEND_PIDS} || true
wait ${HEADEND_PIDS} 2>/dev/null || true
HEADEND_PIDS=""
"${ODDCI_BIN}" headend --listen "127.0.0.1:${FAILOVER_PORT}" \
    --standby "${FAILOVER_SNAP}" --pnas 3 --timeout 60 --json \
    > results/ci-failover-standby.json
for pid in ${PNA_PIDS}; do
    wait "${pid}"
done
PNA_PIDS=""
"${SCHEMA_CHECK}" smoke failover
# Hostile snapshot across processes: a standby handed the adopted file
# cut to half its length must refuse it with a clean error (non-zero
# exit, "cannot read snapshot" on stderr) within 5 s, not panic or adopt.
TORN_SNAP=results/ci-failover-torn
rm -rf "${TORN_SNAP}"
mkdir -p "${TORN_SNAP}"
cp "${FAILOVER_SNAP}/headend.snap" "${TORN_SNAP}/headend.snap"
truncate -s $(($(wc -c < "${TORN_SNAP}/headend.snap") / 2)) "${TORN_SNAP}/headend.snap"
echo "==> torn snapshot: standby must refuse a half-length copy"
torn_status=0
timeout 5 "${ODDCI_BIN}" headend --listen 127.0.0.1:0 \
    --standby "${TORN_SNAP}" --pnas 3 --timeout 60 --json \
    > /dev/null 2> results/ci-failover-torn.err || torn_status=$?
if [ "${torn_status}" -eq 0 ] || [ "${torn_status}" -eq 124 ] \
    || ! grep -q "cannot read snapshot" results/ci-failover-torn.err; then
    echo "torn snapshot: exit ${torn_status}, stderr:" >&2
    cat results/ci-failover-torn.err >&2
    exit 1
fi
rm -rf "${FAILOVER_SNAP}" "${TORN_SNAP}" results/ci-failover-torn.err

# Autoscale smoke: the elastic-sizing drill on a fixed seed. The drill
# submits one backlog at the minimum instance size and fails by itself
# unless the reconciler scaled up at least once, trimmed back down at
# least once, replaced the revoked membership, and lost no work; the
# assertions below re-check that verdict from the JSON artifact so CI
# output records the evidence, not just the exit code.
echo "==> autoscale smoke: elastic drill, spot-like revocation, fixed seed"
"${ODDCI_BIN}" autoscale --seed 42 --json > results/ci-autoscale.json
"${SCHEMA_CHECK}" smoke autoscale

# Docs gates: every relative markdown cross-reference must resolve, and
# every `--flag` the operator runbook documents must exist in `oddci
# help` (so the runbook cannot drift from the CLI).
echo "==> docs: markdown link check + runbook flag check"
"${ODDCI_BIN}" help > results/ci-help.txt
"${SCHEMA_CHECK}" smoke docs

# Benchmark gate (opt-in): a fresh set against the committed baseline.
# `compare` exits 1 on a `worse` row or a larger failed share and 2 on
# sets that are not comparable. An `unresolved` row is not a failure of
# the gate, but a PR that claims that row has not shown its claim, so
# those rows are repeated under their own heading where they cannot be
# missed in the table.
if [ "${BENCH}" -eq 1 ]; then
    baseline=$(ls BENCH_*.json | sort -V | tail -n 1)
    bench() {
        cargo run -q --release ${CARGO_FLAGS} --manifest-path benchmark/Cargo.toml -- "$@"
    }
    echo "==> benchmark gate: fresh set (seed 7) against ${baseline}"
    bench run --seed 7 --out benchmark/out/ci-bench.json
    verdict=0
    bench compare "${baseline}" benchmark/out/ci-bench.json \
        | tee benchmark/out/ci-bench.txt || verdict=$?
    if grep -q ' unresolved$' benchmark/out/ci-bench.txt; then
        echo "==> unresolved rows (a gain claimed on one of these is not shown):"
        grep ' unresolved$' benchmark/out/ci-bench.txt
    fi
    if [ "${verdict}" -ne 0 ]; then
        echo "==> benchmark gate failed against ${baseline} (exit ${verdict})" >&2
        exit "${verdict}"
    fi
fi

echo "==> CI green"
