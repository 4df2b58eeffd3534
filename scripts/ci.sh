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
cleanup() {
    for pid in ${PNA_PIDS} ${HEADEND_PIDS}; do
        kill "${pid}" 2>/dev/null || true
    done
    rm -f results/ci-smoke.json results/ci-smoke.trace.bin \
        results/ci-smoke.trace.jsonl results/ci-smoke.trace.stream.json \
        results/ci-wire-smoke.json results/ci-top.json \
        results/ci-help.txt results/ci-autoscale.json \
        results/ci-failover-primary.json results/ci-failover-standby.json \
        results/ci-failover-pna-201.json results/ci-failover-pna-202.json \
        results/ci-failover-pna-203.json
    rm -rf results/ci-failover-snap benchmark/out/ci-bench.json \
        benchmark/out/ci-bench.txt
}
trap cleanup EXIT

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release ${CARGO_FLAGS}
run cargo test -q --workspace ${CARGO_FLAGS}
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
# poller) must be clean, and a bounded model-check over the scaled-down
# headend scenarios must find every seeded bug and none in the fixed
# protocols — including the autoscale trim race (scale-down-vs-heartbeat)
# and the serving loop's wakeup race (wake-vs-wait), each with its
# seeded-bug twin. Fixed seed, bounded schedules: deterministic and well
# under 30 s.
run cargo run -q --release ${CARGO_FLAGS} -p oddci-check --bin oddci-check -- lint
run cargo run -q --release ${CARGO_FLAGS} -p oddci-check --bin oddci-check -- \
    model --seed 11 --schedules 400

# Streamed-trace smoke: run one small scenario with the streaming sink
# attached (it writes the one online format, a binary .trace.bin, and
# must drop nothing), derive the JSONL + Chrome text artifacts offline
# with `trace convert`, then let schema_check validate the binary header
# and the converted text artifacts alongside the metrics envelopes.
run cargo run -q --release ${CARGO_FLAGS} -p oddci-cli --bin oddci -- trace \
    --scenario small --seed 7 \
    --out results/ci-smoke.json --stream results/ci-smoke.trace.bin
run cargo run -q --release ${CARGO_FLAGS} -p oddci-cli --bin oddci -- trace \
    convert results/ci-smoke.trace.bin
run cargo run -q --release ${CARGO_FLAGS} -p oddci-bench --bin schema_check
# A flag no command reads is an argument error (exit 2), not a no-op:
# `--binary` selected the stream format before binary became the only one.
run bash -c 'target/release/oddci trace small --binary >/dev/null 2>&1; [ $? -eq 2 ]'

# Wire smoke: one real multi-process run of the socket-backed live plane —
# a headend process plus three PNA processes complete an alignment job
# over loopback TCP, and the headend's accounting must balance exactly.
ODDCI_BIN=target/release/oddci
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
python3 - <<'EOF'
import json
with open("results/ci-top.json") as f:
    snap = json.load(f)
assert snap["registry"]["counters"], snap
print("    live stats: non-empty metrics registry from the running headend")
EOF
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
python3 - <<'EOF'
import json
with open("results/ci-wire-smoke.json") as f:
    report = json.load(f)
assert report["tasks_completed"] == 9, report
assert report["tasks_unaccounted"] == 0, report
assert report["threads_failed"] == 0, report
assert report["wire"]["multi_chunk_tx"] >= 1, report
assert report["wire"]["checksum_rejects"] == 0, report
print("    wire smoke: 9 tasks over loopback, accounting balanced")
EOF

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
python3 - <<'EOF'
import json
with open("results/ci-failover-standby.json") as f:
    standby = json.load(f)
assert standby["epoch"] == 1, standby
assert standby["adopted_jobs"] >= 1, standby
assert standby["tasks_completed"] == 4000, standby
assert standby["tasks_unaccounted"] == 0, standby
assert standby["threads_failed"] == 0, standby
for seed in (201, 202, 203):
    with open(f"results/ci-failover-pna-{seed}.json") as f:
        pna = json.load(f)
    assert pna["epoch"] == 1, (seed, pna)
print("    failover smoke: standby adopted at epoch 1, 4000 tasks, none lost")
EOF
rm -rf "${FAILOVER_SNAP}"

# Autoscale smoke: the elastic-sizing drill on a fixed seed. The drill
# submits one backlog at the minimum instance size and fails by itself
# unless the reconciler scaled up at least once, trimmed back down at
# least once, replaced the revoked membership, and lost no work; the
# assertions below re-check that verdict from the JSON artifact so CI
# output records the evidence, not just the exit code.
echo "==> autoscale smoke: elastic drill, spot-like revocation, fixed seed"
"${ODDCI_BIN}" autoscale --seed 42 --json > results/ci-autoscale.json
python3 - <<'EOF'
import json
with open("results/ci-autoscale.json") as f:
    drill = json.load(f)
assert drill["scale_ups"] >= 1, drill
assert drill["scale_downs"] >= 1, drill
assert drill["tasks_lost"] == 0, drill
assert drill["tasks_unaccounted"] == 0, drill
assert drill["threads_failed"] == 0, drill
assert drill["tasks_completed"] == drill["queries"], drill
print(
    "    autoscale smoke: {} up / {} down / {} replace, "
    "{} tasks, none lost".format(
        drill["scale_ups"], drill["scale_downs"],
        drill["replacements"], drill["tasks_completed"],
    )
)
EOF

# Docs gates: every relative markdown cross-reference must resolve, and
# every `--flag` the operator runbook documents must exist in `oddci
# help` (so the runbook cannot drift from the CLI).
echo "==> docs: markdown link check + runbook flag check"
"${ODDCI_BIN}" help > results/ci-help.txt
python3 - <<'EOF'
import os, re

bad = []
for root, dirs, files in os.walk("."):
    dirs[:] = [d for d in dirs if d not in (".git", "target", "vendor", "results")]
    for name in files:
        if not name.endswith(".md"):
            continue
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in re.finditer(r"\[[^\]]*\]\(([^)\s]+)\)", text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                bad.append(f"{path}: broken link -> {m.group(1)}")
assert not bad, "\n".join(bad)
print("    docs: every relative markdown link resolves")

with open("results/ci-help.txt", encoding="utf-8") as f:
    known = set(re.findall(r"--[a-z][a-z0-9-]*", f.read()))
# Cargo's own flags show up in runbook build/test instructions.
known |= {"--release", "--offline", "--workspace"}
with open("OPERATIONS.md", encoding="utf-8") as f:
    ops = f.read()
# Link targets (e.g. anchors like `#6-durability--failover`) are not
# documented flags — drop them before scanning.
ops = re.sub(r"\]\([^)]*\)", "]", ops)
missing = sorted({f for f in re.findall(r"--[a-z][a-z0-9-]*", ops) if f not in known})
assert not missing, f"OPERATIONS.md documents flags `oddci help` does not know: {missing}"
print(f"    docs: every OPERATIONS.md flag appears in `oddci help`")
EOF

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
