#!/usr/bin/env python3
"""Smoke test of the benchmark itself; exits non-zero on the first problem.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Runs every workload for one block of cases (--seconds 0), untraced and
traced, and checks that the result line carries exactly the metrics
BENCHMARK.json names, each with its unit; that one seed always generates the same
inputs and another seed different ones; that the trace routes as
designed; and that a directory holding only the benchmark exits
non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, cwd=ROOT, seed=7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=170)


def check_result(proc, expected, workload, trace):
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace={trace}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} = {m['value']!r} is not a number")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_seeds():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import sombrero
    from workloads import WORKLOADS, build_deck

    for workload in WORKLOADS:
        first = build_deck(sombrero, workload, 11)
        if json.dumps(first) != json.dumps(build_deck(sombrero, workload, 11)):
            fail(f"{workload}: seed 11 generated two different decks")
        if json.dumps(first) == json.dumps(build_deck(sombrero, workload, 12)):
            fail(f"{workload}: seeds 11 and 12 generated the same deck")
    return WORKLOADS


def check_bare_directory():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / "perfbench" / "results"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run("oracle_verify", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    (ROOT / "perfbench" / "results").mkdir(exist_ok=True)
    workloads = check_seeds()
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads):
        fail(f"BENCHMARK.json workloads differ from {workloads}")
    for workload in workloads:
        check_result(run(workload, 0), end_to_end, workload, 0)
        layers = check_result(run(workload, 1), per_layer, workload, 1)
        if workload == "constraint_scan" and layers["eigensolver.groundstate_calls"] != 0:
            fail("constraint_scan reached the eigensolver")
        if workload == "identity_sweep" and layers["eigensolver.domains_per_solve"] != 1:
            fail("identity_sweep solved on more than one domain")
        if workload == "oracle_verify" and layers["eigensolver.groundstate_calls"] < 1:
            fail("oracle_verify never reached the eigensolver")
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory exits non-zero")


if __name__ == "__main__":
    main()
