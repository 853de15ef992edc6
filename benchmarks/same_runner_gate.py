#!/usr/bin/env python3
"""Same-runner perf gate: judge this checkout against its parent on one host.

    python3 benchmarks/same_runner_gate.py <parent-tree>

<parent-tree> is a checkout of the parent commit, for example a
`git worktree` outside this tree. The script builds `ace-benchmark` in both
trees, then runs PAIRS pairs of

    ace-benchmark --workload W --seconds SECONDS --trace 0

for each of the four workloads, parent and change back to back, switching
which side goes first every pair. The children's result lines fold into one
`run`-format file per side (`workloads[].end_to_end.<metric>.samples`,
sample i from pair i), and this tree's `ace-benchmark compare` judges them
against the bounds in BENCHMARK.json.

The microbench half alternates MICRO_PAIRS runs of
`cargo bench -p ace-bench --bench microbench` in the two trees, each
appending to its side's ACE_MICROBENCH_JSON stream, and `perf_gate`
compares the per-benchmark medians.

Exit 1 when compare reports a regressed row, a child prints
`correct: false` or `failed > 0`, or perf_gate fails; exit 2 on a usage
error. Every file the gate reads or writes lands in
target/same-runner-gate/ of this tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 5
MICRO_PAIRS = 5
WORKLOADS = ["headline", "miss-heavy", "call-dense", "fleet-smoke"]

CHANGE = Path(__file__).resolve().parent.parent
OUT = CHANGE / "target" / "same-runner-gate"


def log(msg):
    print(f"[same-runner-gate] {msg}", file=sys.stderr, flush=True)


def cargo(tree, *args, env=None, stdout=None):
    subprocess.run(["cargo", *args], cwd=tree, env=env, stdout=stdout, check=True)


def benchmark_exe(tree):
    return tree / "ace-benchmark" / "target" / "release" / "ace-benchmark"


def child(tree, workload):
    """One untraced child; returns its metrics or exits on a bad run."""
    cmd = [str(benchmark_exe(tree)), "--workload", workload,
           "--seconds", str(SECONDS), "--trace", "0"]
    run = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    if not result or result["correct"] is not True or result["failed"] > 0:
        log(f"FAIL: {workload} in {tree} did not run cleanly:\n{run.stdout}")
        sys.exit(1)
    return result["metrics"]


def fold(results):
    """Per-workload result lines, in pair order, as a `run`-format file."""
    workloads = []
    for workload in WORKLOADS:
        end_to_end = {}
        for metrics in results[workload]:
            for name, m in metrics.items():
                entry = end_to_end.setdefault(name, {"unit": m["unit"], "samples": []})
                entry["samples"].append(m["value"])
        workloads.append({"name": workload, "end_to_end": end_to_end})
    return {"pairs": PAIRS, "seconds": SECONDS, "workloads": workloads}


def end_to_end(sides):
    results = {side: {w: [] for w in WORKLOADS} for side in sides}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for workload in WORKLOADS:
            for side in order:
                log(f"pair {pair + 1}/{PAIRS} {workload} {side}")
                results[side][workload].append(child(sides[side], workload))
    files = {}
    for side in sides:
        files[side] = OUT / f"{side}.json"
        files[side].write_text(json.dumps(fold(results[side])))
    compare = subprocess.run([
        str(benchmark_exe(CHANGE)), "compare", str(files["parent"]),
        str(files["change"]), "--benchmark", str(CHANGE / "BENCHMARK.json"),
    ])
    return compare.returncode == 0


def microbench(sides):
    streams = {side: OUT / f"micro-{side}.jsonl" for side in sides}
    for side, tree in sides.items():
        streams[side].unlink(missing_ok=True)
        cargo(tree, "bench", "-p", "ace-bench", "--bench", "microbench", "--no-run")
    for pair in range(MICRO_PAIRS):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for side in order:
            log(f"microbench pair {pair + 1}/{MICRO_PAIRS} {side}")
            env = dict(os.environ, ACE_MICROBENCH_JSON=str(streams[side]))
            cargo(sides[side], "bench", "-p", "ace-bench", "--bench", "microbench",
                  "--quiet", env=env, stdout=subprocess.DEVNULL)
    gate = subprocess.run([
        "cargo", "run", "--release", "--quiet", "-p", "ace-bench", "--bin", "perf_gate",
        "--", str(streams["parent"]), str(streams["change"]),
    ], cwd=CHANGE)
    return gate.returncode == 0


def main():
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "ace-benchmark").is_dir():
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sides = {"parent": Path(sys.argv[1]).resolve(), "change": CHANGE}
    OUT.mkdir(parents=True, exist_ok=True)
    for tree in sides.values():
        cargo(tree, "build", "--release", "--quiet", "--manifest-path",
              str(tree / "ace-benchmark" / "Cargo.toml"))
    e2e_ok = end_to_end(sides)
    micro_ok = microbench(sides)
    log(f"end to end: {'pass' if e2e_ok else 'REGRESSED'}; "
        f"microbench: {'pass' if micro_ok else 'REGRESSED'}")
    sys.exit(0 if e2e_ok and micro_ok else 1)


if __name__ == "__main__":
    main()
