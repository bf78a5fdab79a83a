#!/usr/bin/env bash
# A/A test of the benchmark against its own bounds: two interleaved sets of
# N runs of every workload on one build, each run of a set with another
# seed. Prints every end-to-end metric's median and quartiles per set and
# fails if a spread (interquartile range over median, setup_s excepted)
# exceeds the metric's bound in BENCHMARK.json, the second set's median is
# worse than the first's by more than the bound, or any operation failed.
#
#   benchmark/selfcheck.sh [N] [workload ...]     (default N = 5, all workloads)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec python3 - "$here" "$CARGO_TARGET_DIR/release/alvc-benchmark" "$@" <<'PY'
import json, statistics, subprocess, sys

here, binary, *rest = sys.argv[1:]
runs = int(rest[0]) if rest else 5
spec = json.load(open(f"{here}/../BENCHMARK.json"))
workloads = rest[1:] or [w["name"] for w in spec["workloads"]]
seconds = str(spec["run_seconds"])

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout.strip().splitlines()[-1]
    result = json.loads(out)
    assert result["correct"], f"{workload} seed {seed}: checks failed"
    assert result["failed"] == 0, f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed"
    return {name: m["value"] for name, m in result["metrics"].items()}

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med

failed = False
for workload in workloads:
    sets = ([], [])
    for i in range(runs):
        for side in sets:
            side.append(run(workload, i + 1))
            print(f"{workload}: {sum(map(len, sets))}/{2 * runs} runs", file=sys.stderr)
    print(f"\n{workload}  (n = {runs} per set)")
    print(f"  {'metric':<20} {'median A':>14} {'median B':>14} {'spread A':>9} {'spread B':>9} {'B vs A':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = summary([r[name] for r in sets[0]])
        b = summary([r[name] for r in sets[1]])
        worse = (b[0] - a[0]) / a[0] * (1 if metric["better"] == "lower" else -1)
        noisy = name != "setup_s" and max(a[3], b[3]) > bound
        verdict = "FAIL" if noisy or worse > bound else "ok"
        failed |= verdict == "FAIL"
        print(f"  {name:<20} {a[0]:>14.6g} {b[0]:>14.6g} {a[3]:>9.4f} {b[3]:>9.4f} {worse:>+8.4f} {bound:>6} {verdict}")
        print(f"  {'':<20} [{a[1]:.6g}, {a[2]:.6g}] [{b[1]:.6g}, {b[2]:.6g}]")
sys.exit(1 if failed else 0)
PY
