#!/usr/bin/env bash
# Offline CI gate: tier-1 build + tests, then a cold+warm repro_all pass
# proving the persistent result store eliminates all re-simulation.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier 1: build =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== clippy: workspace must be warning-free =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== repro_all: cold pass (tiny preset, scratch store) =="
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

run_repro() {
    TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" \
        cargo run --release -q -p tango-bench --bin repro_all 2>&1 >/dev/null |
        tee /dev/stderr | grep -oE 'store hits=[0-9]+ misses=[0-9]+' | tail -1
}

cold=$(run_repro)
echo "cold:  $cold"
[ "$(echo "$cold" | grep -oE 'misses=[0-9]+')" != "misses=0" ] ||
    echo "note: cold pass already warm (pre-existing store?)"

echo "== repro_all: warm pass (must be all cache hits) =="
warm=$(run_repro)
echo "warm:  $warm"
if [ "$(echo "$warm" | grep -oE 'misses=[0-9]+')" != "misses=0" ]; then
    echo "FAIL: warm repro_all re-simulated ($warm)" >&2
    exit 1
fi

echo "== repro_all: per-phase profile =="
if [ ! -s "$SCRATCH/profile.txt" ]; then
    echo "FAIL: repro_all did not write a per-phase profile" >&2
    exit 1
fi

echo "== harness trace: tracing must not change a single output byte =="
TRACE_BIN="cargo run --release -q -p tango-cli --bin harness --"
TANGO_PRESET=tiny $TRACE_BIN trace cifarnet > "$SCRATCH/untraced.out" 2>/dev/null
TANGO_PRESET=tiny TANGO_TRACE="$SCRATCH/trace.json" \
    $TRACE_BIN trace cifarnet > "$SCRATCH/traced.out" 2>"$SCRATCH/traced.err"
if ! cmp -s "$SCRATCH/untraced.out" "$SCRATCH/traced.out"; then
    echo "FAIL: tracing changed the simulation report" >&2
    diff "$SCRATCH/untraced.out" "$SCRATCH/traced.out" >&2 || true
    exit 1
fi
# The traced binary itself verified nesting, launch-cycle coverage, and
# JSON validity before writing; the file must exist and say so.
if [ ! -s "$SCRATCH/trace.json" ]; then
    echo "FAIL: traced run wrote no trace file" >&2
    exit 1
fi
grep -q 'launch spans cover' "$SCRATCH/traced.err" || {
    echo "FAIL: traced run did not report launch-span coverage" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$SCRATCH/trace.json" ||
        { echo "FAIL: trace.json is not valid JSON" >&2; exit 1; }
fi

echo "== harness trace: bad TANGO_TRACE_CAP must exit 2 =="
set +e
TANGO_TRACE_CAP=0 $TRACE_BIN trace cifarnet >/dev/null 2>"$SCRATCH/cap.err"
cap_status=$?
set -e
if [ "$cap_status" -ne 2 ]; then
    echo "FAIL: TANGO_TRACE_CAP=0 exited $cap_status, want 2" >&2
    cat "$SCRATCH/cap.err" >&2
    exit 1
fi

echo "== garbage TANGO_PRESET must exit 2 and name the variable =="
for bin in "tango-bench --bin repro_all" "tango-cli --bin harness -- trace cifarnet"; do
    set +e
    TANGO_PRESET=garbage TANGO_RESULTS_DIR="$SCRATCH/preset" \
        cargo run --release -q -p $bin >/dev/null 2>"$SCRATCH/preset.err"
    preset_status=$?
    set -e
    if [ "$preset_status" -ne 2 ]; then
        echo "FAIL: TANGO_PRESET=garbage $bin exited $preset_status, want 2" >&2
        cat "$SCRATCH/preset.err" >&2
        exit 1
    fi
    grep -q 'TANGO_PRESET' "$SCRATCH/preset.err" || {
        echo "FAIL: TANGO_PRESET error from $bin does not name the variable" >&2
        exit 1
    }
done

echo "== harness lint: zero error-severity diagnostics, deterministic report =="
LINT_BIN="cargo run --release -q -p tango-cli --bin harness --"
# Exit code 1 here means an error-severity diagnostic in a suite kernel.
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" \
    $LINT_BIN lint --all > "$SCRATCH/lint1.out" 2>/dev/null
if ! cmp -s "$SCRATCH/lint1.out" "$SCRATCH/lint_report.txt"; then
    echo "FAIL: results/lint_report.txt diverges from lint stdout" >&2
    exit 1
fi
cp "$SCRATCH/lint_report.txt" "$SCRATCH/lint_report_run1.txt"
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" \
    $LINT_BIN lint --all > "$SCRATCH/lint2.out" 2>/dev/null
if ! cmp -s "$SCRATCH/lint_report_run1.txt" "$SCRATCH/lint_report.txt"; then
    echo "FAIL: lint_report.txt differs across identical runs" >&2
    diff "$SCRATCH/lint_report_run1.txt" "$SCRATCH/lint_report.txt" >&2 || true
    exit 1
fi

echo "== harness store stats/gc (stale record must be dropped) =="
# Inject a record written under schema version 1; gc must remove exactly it.
printf 'TNGR\x01\x00\x00\x00stale' > "$SCRATCH/store/gru-00000000deadbeef.run"
cargo run --release -q -p tango-cli --bin harness -- store stats --dir "$SCRATCH/store"
gc_out=$(cargo run --release -q -p tango-cli --bin harness -- store gc --dir "$SCRATCH/store")
echo "$gc_out"
case "$gc_out" in
    "removed 1 stale record"*) ;;
    *)
        echo "FAIL: store gc did not remove the injected stale record" >&2
        exit 1
        ;;
esac

echo "== serve_bench --smoke (admission control + batching latency win) =="
TANGO_RESULTS_DIR="$SCRATCH" \
    cargo run --release -q -p tango-bench --bin serve_bench -- --smoke

echo "== harness backends: byte-identical across reruns and worker counts =="
BACKENDS_BIN="cargo run --release -q -p tango-cli --bin harness --"
for net in cifarnet gru; do
    TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=1 \
        $BACKENDS_BIN backends "$net" > "$SCRATCH/backends_${net}_j1.out" 2>/dev/null
    TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=4 \
        $BACKENDS_BIN backends "$net" > "$SCRATCH/backends_${net}_j4.out" 2>"$SCRATCH/backends_${net}_j4.err"
    if ! cmp -s "$SCRATCH/backends_${net}_j1.out" "$SCRATCH/backends_${net}_j4.out"; then
        echo "FAIL: harness backends $net differs across TANGO_JOBS settings" >&2
        diff "$SCRATCH/backends_${net}_j1.out" "$SCRATCH/backends_${net}_j4.out" >&2 || true
        exit 1
    fi
    # The second pass ran over a warm store: zero re-simulations.
    grep -q 'store hits=[0-9]* misses=0' "$SCRATCH/backends_${net}_j4.err" || {
        echo "FAIL: warm harness backends $net re-ran models" >&2
        cat "$SCRATCH/backends_${net}_j4.err" >&2
        exit 1
    }
    # Stdout and the results artifact must agree byte for byte.
    if ! cmp -s "$SCRATCH/backends_${net}_j1.out" "$SCRATCH/backends_${net}.txt"; then
        echo "FAIL: results/backends_${net}.txt diverges from stdout" >&2
        exit 1
    fi
done

echo "== harness backends: garbage TANGO_BACKENDS must exit 2 =="
set +e
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_BACKENDS=garbage \
    $BACKENDS_BIN backends gru >/dev/null 2>"$SCRATCH/backends.err"
backends_status=$?
set -e
if [ "$backends_status" -ne 2 ]; then
    echo "FAIL: TANGO_BACKENDS=garbage exited $backends_status, want 2" >&2
    cat "$SCRATCH/backends.err" >&2
    exit 1
fi
grep -q 'TANGO_BACKENDS' "$SCRATCH/backends.err" || {
    echo "FAIL: TANGO_BACKENDS error does not name the variable" >&2
    exit 1
}

echo "== harness fleet --smoke: byte-identical across reruns and worker counts =="
FLEET_BIN="cargo run --release -q -p tango-cli --bin harness --"
TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=1 \
    $FLEET_BIN fleet --smoke > "$SCRATCH/fleet_j1.out" 2>/dev/null
cp "$SCRATCH/fleet_bench.txt" "$SCRATCH/fleet_bench_j1.txt"
TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=4 \
    $FLEET_BIN fleet --smoke > "$SCRATCH/fleet_j4.out" 2>"$SCRATCH/fleet_j4.err"
if ! cmp -s "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_j4.out"; then
    echo "FAIL: harness fleet differs across TANGO_JOBS settings" >&2
    diff "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_j4.out" >&2 || true
    exit 1
fi
if ! cmp -s "$SCRATCH/fleet_bench_j1.txt" "$SCRATCH/fleet_bench.txt"; then
    echo "FAIL: fleet_bench.txt differs across TANGO_JOBS settings" >&2
    exit 1
fi
# Stdout and the results artifact must agree byte for byte.
if ! cmp -s "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_bench.txt"; then
    echo "FAIL: fleet_bench.txt diverges from stdout" >&2
    exit 1
fi
# The second pass ran over a warm store: zero re-simulations.
grep -q 'store hits=[0-9]* misses=0' "$SCRATCH/fleet_j4.err" || {
    echo "FAIL: warm harness fleet re-ran models" >&2
    cat "$SCRATCH/fleet_j4.err" >&2
    exit 1
}

echo "== metrics: collection must not change fleet_bench.txt by a byte =="
cp "$SCRATCH/fleet_bench.txt" "$SCRATCH/fleet_bench_nometrics.txt"
TANGO_RESULTS_DIR="$SCRATCH" TANGO_METRICS=1 TANGO_JOBS=1 \
    $FLEET_BIN fleet --smoke > "$SCRATCH/fleet_metrics.out" 2>/dev/null
if ! cmp -s "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_metrics.out"; then
    echo "FAIL: TANGO_METRICS=1 changed harness fleet stdout" >&2
    diff "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_metrics.out" >&2 || true
    exit 1
fi
if ! cmp -s "$SCRATCH/fleet_bench_nometrics.txt" "$SCRATCH/fleet_bench.txt"; then
    echo "FAIL: TANGO_METRICS=1 changed fleet_bench.txt" >&2
    exit 1
fi
for f in metrics_fleet.txt metrics_fleet.jsonl metrics_fleet.prom; do
    if [ ! -s "$SCRATCH/$f" ]; then
        echo "FAIL: TANGO_METRICS=1 did not write $f" >&2
        exit 1
    fi
done

echo "== metrics: artifacts byte-identical across TANGO_JOBS =="
for f in metrics_fleet.txt metrics_fleet.jsonl metrics_fleet.prom; do
    cp "$SCRATCH/$f" "$SCRATCH/${f}.j1"
done
TANGO_RESULTS_DIR="$SCRATCH" TANGO_METRICS=1 TANGO_JOBS=4 \
    $FLEET_BIN fleet --smoke >/dev/null 2>&1
for f in metrics_fleet.txt metrics_fleet.jsonl metrics_fleet.prom; do
    if ! cmp -s "$SCRATCH/${f}.j1" "$SCRATCH/$f"; then
        echo "FAIL: $f differs across TANGO_JOBS settings" >&2
        diff "$SCRATCH/${f}.j1" "$SCRATCH/$f" >&2 || true
        exit 1
    fi
done
# The smoke fleet is overloaded by construction; its bursty section
# must trip the SLO burn-rate monitor, and the exposition must parse
# under Python as a sanity floor (the binary already ran the in-tree
# grammar checker before writing).
grep -q 'ALERT' "$SCRATCH/metrics_fleet.txt" || {
    echo "FAIL: metrics_fleet.txt contains no burn-rate alert" >&2
    exit 1
}

echo "== metrics: garbage TANGO_METRICS / TANGO_METRICS_WINDOW must exit 2 =="
for env_pair in "TANGO_METRICS=garbage" "TANGO_METRICS=1 TANGO_METRICS_WINDOW=0"; do
    set +e
    env $env_pair TANGO_RESULTS_DIR="$SCRATCH" \
        $FLEET_BIN fleet --smoke >/dev/null 2>"$SCRATCH/metrics.err"
    metrics_status=$?
    set -e
    if [ "$metrics_status" -ne 2 ]; then
        echo "FAIL: $env_pair exited $metrics_status, want 2" >&2
        cat "$SCRATCH/metrics.err" >&2
        exit 1
    fi
    grep -q 'TANGO_METRICS' "$SCRATCH/metrics.err" || {
        echo "FAIL: $env_pair error does not name the variable" >&2
        exit 1
    }
done

echo "== harness metrics: deterministic windowed registry from one run =="
TANGO_PRESET=tiny $FLEET_BIN metrics gru > "$SCRATCH/metrics1.out" 2>/dev/null
TANGO_PRESET=tiny $FLEET_BIN metrics gru > "$SCRATCH/metrics2.out" 2>/dev/null
if ! cmp -s "$SCRATCH/metrics1.out" "$SCRATCH/metrics2.out"; then
    echo "FAIL: harness metrics differs across identical runs" >&2
    diff "$SCRATCH/metrics1.out" "$SCRATCH/metrics2.out" >&2 || true
    exit 1
fi
grep -q 'tango-metrics' "$SCRATCH/metrics1.out" || {
    echo "FAIL: harness metrics printed no registry header" >&2
    exit 1
}

echo "== harness fleet: garbage TANGO_FLEET_REQUESTS must exit 2 =="
set +e
TANGO_RESULTS_DIR="$SCRATCH" TANGO_FLEET_REQUESTS=garbage \
    $FLEET_BIN fleet --smoke >/dev/null 2>"$SCRATCH/fleet.err"
fleet_status=$?
set -e
if [ "$fleet_status" -ne 2 ]; then
    echo "FAIL: TANGO_FLEET_REQUESTS=garbage exited $fleet_status, want 2" >&2
    cat "$SCRATCH/fleet.err" >&2
    exit 1
fi
grep -q 'TANGO_FLEET_REQUESTS' "$SCRATCH/fleet.err" || {
    echo "FAIL: TANGO_FLEET_REQUESTS error does not name the variable" >&2
    exit 1
}

echo "== bench_perf: perf baseline artifacts =="
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=2 \
    cargo run --release -q -p tango-bench --bin bench_perf >/dev/null
for f in BENCH_sim.json BENCH_serve.json BENCH_fleet.json; do
    if [ ! -s "$SCRATCH/$f" ]; then
        echo "FAIL: bench_perf did not write $f" >&2
        exit 1
    fi
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$SCRATCH/$f" ||
            { echo "FAIL: $f is not valid JSON" >&2; exit 1; }
    fi
done

echo "== bench_perf: bad TANGO_BENCH_SAMPLES must exit 2 =="
set +e
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_BENCH_SAMPLES=garbage \
    cargo run --release -q -p tango-bench --bin bench_perf >/dev/null 2>"$SCRATCH/samples.err"
samples_status=$?
set -e
if [ "$samples_status" -ne 2 ]; then
    echo "FAIL: TANGO_BENCH_SAMPLES=garbage exited $samples_status, want 2" >&2
    cat "$SCRATCH/samples.err" >&2
    exit 1
fi
grep -q 'TANGO_BENCH_SAMPLES' "$SCRATCH/samples.err" || {
    echo "FAIL: TANGO_BENCH_SAMPLES error does not name the variable" >&2
    exit 1
}

echo "== committed perf artifacts present =="
for f in results/profile.txt results/BENCH_sim.json results/BENCH_serve.json results/BENCH_fleet.json results/bench_history.jsonl results/fleet_bench.txt; do
    if [ ! -s "$f" ]; then
        echo "FAIL: $f missing or empty (regenerate with repro_all / bench_perf)" >&2
        exit 1
    fi
done

echo "== bench_perf: perf-regression attribution vs committed baselines (bench preset) =="
# Serve and fleet throughput regressions >20% against the committed
# BENCH_*.json warn but do not fail: wall-clock numbers depend on the
# host, and the committed baselines were measured on one particular
# machine. The attribution table pins any drop to its pipeline leg (sim,
# serve per network, fleet per policy).
mkdir -p "$SCRATCH/perf"
TANGO_RESULTS_DIR="$SCRATCH/perf" \
    cargo run --release -q -p tango-bench --bin bench_perf >/dev/null
for f in BENCH_sim.json BENCH_serve.json BENCH_fleet.json; do
    $FLEET_BIN perfdiff "results/$f" "$SCRATCH/perf/$f" > "$SCRATCH/perf/${f}.diff"
    if grep -q '^WARN:' "$SCRATCH/perf/${f}.diff"; then
        echo "perf regression in $f — full attribution:"
        cat "$SCRATCH/perf/${f}.diff"
    else
        grep -E '^(perfdiff|no gating rate)' "$SCRATCH/perf/${f}.diff"
    fi
done

echo "== ci.sh: all gates passed =="
