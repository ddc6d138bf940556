#!/usr/bin/env python3
"""Repo benchmark entry point: builds perfbench from this checkout and runs it.

Run from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

A run builds the dstee library and the perfbench binary under
$CARGO_TARGET_DIR (default .bench_build) in the checkout, runs one workload
and passes its output through; the last stdout line is the JSON result.
--self-check runs every workload at tiny scale, traced and untraced (the
ones in BENCHMARK.json and dst_train, which is left out of it as unsteady),
and fails if a BENCHMARK.json workload is unknown, if a declared metric is
missing or has the wrong unit, if an undeclared one appears, or if any
correctness gate was skipped or failed. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Gates each workload must report; the self-check fails on any missing one.
UNTRACED_GATES = {
    "resnet18_closed": ["compiled_allclose_dense", "responses_match_batch1"],
    "mlp_open_swap": [
        "chain_deterministic", "chain_base_matches_registry",
        "load_generator_ran", "responses_match_one_version",
        "no_stale_version", "all_deltas_applied",
        "final_hash_matches_chain", "no_full_recompile",
    ],
    "dst_train": [
        "sparsity_at_target", "masked_weights_zero", "final_loss_repeats",
    ],
}
PROBE_GATES = [
    "executor_matches_dense_eval", "pipeline_scalar", "pipeline_avx2",
    "pipeline_int8", "pipeline_fuse_epilogue", "pipeline_partition_rows",
    "trace_written",
]
SERVER_TRACE_GATES = ["trace_stages_sum_to_request", "trace_ops_sum_to_forward"]


def traced_gates(workload):
    gates = UNTRACED_GATES[workload] + PROBE_GATES
    if workload != "dst_train":
        gates += SERVER_TRACE_GATES
    return gates


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and incrementally builds the perfbench binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no dstee sources next to perfbench/ (expected src/CMakeLists.txt)")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (%s); log in %s" % (" ".join(cmd), log_path))
    binary = bdir / "perfbench"
    if not binary.is_file():
        fail("build produced no binary at %s" % binary)
    return binary


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result)."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, file=sys.stderr, end="")
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result line" % workload)
    return lines, result


def self_check(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = ["%s: workload unknown to perfbench" % w["name"]
                for w in spec["workloads"] if w["name"] not in UNTRACED_GATES]
    for name in UNTRACED_GATES:
        for trace, declared, gates in (
                (0, spec["end_to_end"], UNTRACED_GATES[name]),
                (1, spec["per_layer"], traced_gates(name))):
            lines, result = run_binary(binary, name, 1, 1, trace)
            tag = "%s --trace %d" % (name, trace)
            metrics = result.get("metrics", {})
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s not emitted" % (tag, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s has unit %r, declared %r"
                                    % (tag, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in declared}
            for m in sorted(extra):
                problems.append("%s: metric %s is not declared" % (tag, m))
            seen = {}
            for line in lines:
                if line.startswith("gate: "):
                    parts = line.split(" ", 3)
                    seen[parts[1]] = parts[2]
            for g in gates:
                if g not in seen:
                    problems.append("%s: gate %s was skipped" % (tag, g))
                elif seen[g] != "PASS":
                    problems.append("%s: gate %s failed" % (tag, g))
            if not result.get("correct") or result.get("attempted", 0) < 1:
                problems.append("%s: result not correct" % tag)
            print("self-check: %s done (%d metrics, %d gates)"
                  % (tag, len(metrics), len(seen)))
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print("self-check: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.self_check:
        sys.exit(self_check(binary))
    if not args.workload:
        fail("--workload is required")
    lines, _ = run_binary(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
