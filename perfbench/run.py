#!/usr/bin/env python3
"""sombrero benchmark: three seeded workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle_verify --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's own src/; the run exits
non-zero and prints no result when src/sombrero is missing.

One process, one calling thread, a closed loop with one client: each
case starts when the previous one has ended.  The workload's deck of
blocks (see workloads.py) is cycled until --seconds have passed, always
ending on a block boundary, so each run measures the same mix of cases.
Every answer is checked; a case that raises, exits non-zero or misses
its closed-form reference is counted in "failed" and the run goes on.

--trace 0 reports the end-to-end metrics, every time scaled to a
reference machine speed by a calibration kernel timed between cases
(see calibrate.py; the raw figures are in the fingerprint line):
    cases_per_s   completed cases per second of case time (1/s)
    case_p50_ms   median case latency
    case_tail_ms  latency at the workload's fixed tail percentile: the
                  highest one with ten cases beyond it in one pass of the
                  deck, the same on every commit (it is printed)
    setup_s       median wall time of fresh interpreters that import
                  sombrero and finish the workload's warm-up case
    peak_rss_mb   peak resident set size of this process
--trace 1 runs every case twice, untraced and traced in alternating
order, and reports the per-layer metrics from the traced copies: self
time and calls per layer per case, work counts, the oracle's answers
and trace.overhead_frac (traced over untraced case time, minus 1).

The last line of standard output is the JSON result; the line before it
is the environment fingerprint.  Each case's record (answer, latency,
failure) is streamed to perfbench/results/ as it finishes, so the
benchmark's bookkeeping stays out of peak_rss_mb; traced runs also write
every span there at the end.
"""

import argparse
import gc
import gzip
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from calibrate import REFERENCE_S, Calibration
from spans import Span, Tracer
from workloads import WARMUP, WORKLOADS, CaseFailure, Runner, build_deck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _import_sombrero():
    if not (SRC / "sombrero" / "__init__.py").is_file():
        raise SystemExit(f"error: no sombrero package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sombrero
    import sombrero.cli

    if Path(sombrero.__file__).resolve().parent != SRC / "sombrero":
        raise SystemExit(f"error: imported sombrero from {sombrero.__file__}, not from {SRC}")
    return sombrero


# -- set-up ------------------------------------------------------------------


def measure_setup(workload, scratch, calibration):
    """Median wall time and import time of fresh interpreters doing the warm-up.
    A calibration sample is taken before each probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, scratch],
            env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


# -- the closed loop ---------------------------------------------------------


def _one(runner, index, spec, tracer=None):
    """Run one case; returns its record (failures are recorded, not raised)."""
    record = {"index": index, "kind": spec["kind"], "traced": tracer is not None, "ok": True}
    # Start each case from a collected heap, as a fresh CLI process would, and keep
    # the long-lived objects out of the case's own collections.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        first_span = len(tracer.spans)
        tracer.install()
        token = tracer.open("bench", "case", {"index": index})
    t0 = time.perf_counter()
    try:
        latency, nbytes, code, answer = runner.run(index, spec)
        record.update(latency_s=latency, bytes=nbytes, exit=code, answer=answer)
    except CaseFailure as exc:
        record.update(ok=False, reason=str(exc), latency_s=time.perf_counter() - t0, bytes=0,
                      exit=exc.exit_code)
    finally:
        if tracer is not None:
            tracer.close(token)
            tracer.uninstall()
            record["richardson_pairs"] = [
                s.attrs["pair"] for s in tracer.spans[first_span:] if s.name == "groundstate" and "pair" in s.attrs
            ]
    return record


class Tally:
    """Running totals of one stream of case records.

    Each record goes to `sink` as a JSON line when its case ends; only the
    passing latencies (8 bytes a case) and the first few failures stay in
    memory, so a faster program does not grow the benchmark's own heap.
    """

    KEEP_FAILURES = 10

    def __init__(self, sink):
        self.sink = sink
        self.latencies = array("d")
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.bytes = 0
        self.exits = Counter()
        self.worst_energy_error = 0.0

    def add(self, record):
        self.sink.write(json.dumps(record, default=list) + "\n")
        self.attempted += 1
        self.busy_s += record["latency_s"]
        self.bytes += record["bytes"]
        self.exits[record["exit"]] += 1
        if record["ok"]:
            self.latencies.append(record["latency_s"])
            error = record["answer"].get("energy_error")
            if error is not None:
                self.worst_energy_error = max(self.worst_energy_error, error)
        else:
            self.failed += 1
            if len(self.failures) < self.KEEP_FAILURES:
                self.failures.append(record)


def run_loop(runner, deck, seconds, plain, calibration, traced=None, tracer=None):
    """Cycle the deck block by block until the time is up, adding each
    case's record to `plain` and sampling the calibration kernel between
    cases.  Traced: each case runs untraced and traced, in alternating
    order, adding to `plain` and `traced`, and nothing is calibrated."""
    offsets = [0]
    for block in deck:
        offsets.append(offsets[-1] + len(block))
    start = time.perf_counter()
    while True:
        for b, block in enumerate(deck):
            for j, spec in enumerate(block):
                index = offsets[b] + j
                if tracer is None:
                    record = _one(runner, index, spec)
                    plain.add(record)
                    calibration.after_case(record["latency_s"])
                else:
                    tracer.case = traced.attempted
                    if traced.attempted % 2 == 0:
                        plain.add(_one(runner, index, spec))
                        traced.add(_one(runner, index, spec, tracer))
                    else:
                        traced.add(_one(runner, index, spec, tracer))
                        plain.add(_one(runner, index, spec))
            if time.perf_counter() - start >= seconds:
                return


# -- metrics -----------------------------------------------------------------


def tail_fraction(deck_cases):
    """The workload's tail percentile, as a fraction: the highest one with
    at least ten cases beyond it in one pass of the deck.  It depends on
    the deck alone, so every commit reports the same statistic however
    many cases its run completes."""
    return (deck_cases - 10) / deck_cases


def nearest_rank(sorted_values, fraction):
    """The nearest-rank quantile of sorted values."""
    return sorted_values[math.ceil(fraction * len(sorted_values) - 1e-9) - 1]


def end_to_end(tally, deck_cases, setup_s, peak_rss_mb, factor):
    """The end-to-end metrics, times multiplied by the calibration factor,
    and the same figures unscaled."""
    lat = sorted(tally.latencies)
    fraction = tail_fraction(deck_cases)
    raw = {
        "cases_per_s": len(lat) / tally.busy_s if tally.busy_s > 0 else 0.0,
        "case_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "case_tail_ms": 1e3 * nearest_rank(lat, fraction) if lat else 0.0,
        "setup_s": setup_s,
    }
    metrics = {
        "cases_per_s": {"value": raw["cases_per_s"] / factor, "unit": "1/s"},
        "case_p50_ms": {"value": raw["case_p50_ms"] * factor, "unit": "ms"},
        "case_tail_ms": {"value": raw["case_tail_ms"] * factor, "unit": "ms"},
        "setup_s": {"value": setup_s * factor, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    tail = {"percentile": 100.0 * fraction, "samples": len(lat)}
    return metrics, tail, raw


def per_layer(spans, plain, traced, import_s):
    """Per-layer metrics from the traced copies, per traced case."""
    cases = max(1, traced.attempted)
    layer_self, layer_calls = Counter(), Counter()
    by_name = defaultdict(list)
    for s in spans:
        layer_self[s.layer] += s.self_s
        layer_calls[s.layer] += 1
        by_name[s.name].append(s)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    solves = by_name["groundstate"]
    solve_in = defaultdict(float)
    for s in solves:
        solve_in[s.parent] += s.t1 - s.t0
    verify_self = sum(s.t1 - s.t0 - solve_in[s.id] for s in by_name["verify_solution"])
    domains = [len(s.attrs.get("r_max", ())) for s in solves]
    gaps = [abs(s.attrs["pair"][1] - s.attrs["pair"][0]) for s in solves if "pair" in s.attrs]
    f_evals = total("find_bracketed_roots", "f_evals")
    roots = total("find_bracketed_roots", "roots")
    no_root = total("solve_eta", "no_root") + sum(1 for s in by_name["solve_eta_mu"] if s.error == "NoRootError")
    pot_spans = by_name["eval_potential"] + by_name["eval_potential_sq"]
    plain_s, traced_s = plain.busy_s, traced.busy_s

    def per_case(x, unit):
        return {"value": x / cases, "unit": unit}

    return {
        "eigensolver.groundstate_self_s": per_case(sum(s.self_s for s in solves), "s/case"),
        "eigensolver.groundstate_calls": per_case(len(solves), "count/case"),
        "eigensolver.discretize_s": per_case(sum(s.self_s for s in by_name["discretize"]), "s/case"),
        "eigensolver.discretize_calls": per_case(len(by_name["discretize"]), "count/case"),
        "eigensolver.grid_points": per_case(total("discretize", "n"), "points/case"),
        "eigensolver.domains_per_solve": {"value": statistics.fmean(domains) if domains else 0.0,
                                          "unit": "count/solve"},
        "eigensolver.solve_errors": per_case(sum(1 for s in solves if s.error is not None), "count/case"),
        "eigensolver.extent_warnings": per_case(total("discretize", "extent_warnings"), "count/case"),
        "eigensolver.verify_self_s": per_case(verify_self, "s/case"),
        "eigensolver.worst_energy_error": {"value": traced.worst_energy_error, "unit": "1"},
        "eigensolver.richardson_gap_max": {"value": max(gaps, default=0.0), "unit": "1"},
        "potential.eval_calls": per_case(len(pot_spans), "count/case"),
        "potential.eval_points": per_case(total("eval_potential", "points") + total("eval_potential_sq", "points"),
                                          "points/case"),
        "potential.eval_s": per_case(layer_self["potential"], "s/case"),
        "trial.calls": per_case(layer_calls["trial"], "count/case"),
        "trial.s": per_case(layer_self["trial"], "s/case"),
        "solvers.find_roots_calls": per_case(len(by_name["find_bracketed_roots"]), "count/case"),
        "solvers.f_evals": per_case(f_evals, "count/case"),
        "solvers.s": per_case(layer_self["solvers"], "s/case"),
        "solvers.f_evals_per_root": {"value": f_evals / roots if roots else 0.0, "unit": "count"},
        "solvers.no_root": per_case(no_root, "count/case"),
        "wavefunction.calls": per_case(layer_calls["wavefunction"], "count/case"),
        "wavefunction.s": per_case(layer_self["wavefunction"], "s/case"),
        "cli.main_self_s": per_case(layer_self["cli"], "s/case"),
        "cli.bytes_out": per_case(traced.bytes, "B/case"),
        "cli.exit_1": per_case(traced.exits[1], "count/case"),
        "cli.exit_2": per_case(traced.exits[2], "count/case"),
        "import.sombrero_s": {"value": import_s, "unit": "s"},
        "trace.overhead_frac": {"value": traced_s / plain_s - 1.0 if plain_s > 0 else 0.0, "unit": "1"},
    }


# -- environment -------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "n/a"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "n/a"
        return head
    except OSError:
        return "n/a"


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "n/a"


def fingerprint(sombrero, args, deck_cases):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "sombrero": getattr(sombrero, "__version__", "n/a"),
        "kernel": getattr(sombrero, "backend_name", lambda: "n/a")(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deck_cases": deck_cases,
    }


# -- main --------------------------------------------------------------------


def main(argv=None):
    args = _parse(argv)
    sombrero = _import_sombrero()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=RESULTS)
    try:
        deck = build_deck(sombrero, args.workload, args.seed)
        deck_cases = sum(len(b) for b in deck)
        runner = Runner(sombrero, scratch)
        _one(runner, -1, WARMUP[args.workload])  # not measured; its checks count in the loop
        calibration = Calibration()
        setup_s, import_s = measure_setup(args.workload, scratch, calibration)
        tracer = Tracer(sombrero) if args.trace else None
        with open(f"{stem}.cases.jsonl", "w", encoding="utf-8") as sink:
            plain = Tally(sink)
            traced = Tally(sink) if args.trace else None
            run_loop(runner, deck, args.seconds, plain, calibration, traced, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tally = traced if args.trace else plain
    if args.trace:
        metrics = per_layer(tracer.spans, plain, traced, import_s)
        fp_extra = {}
    else:
        factor = calibration.factor()
        metrics, tail, raw = end_to_end(plain, deck_cases, setup_s, peak_rss_mb, factor)
        fp_extra = {
            "tail": tail,
            "calibration": {"reference_s": REFERENCE_S, "median_s": calibration.median_s(),
                            "samples": len(calibration.samples), "factor": factor},
            "unscaled": raw,
        }
    fp = fingerprint(sombrero, args, deck_cases)
    fp.update(attempted=tally.attempted, failed=tally.failed, **fp_extra)

    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fp, "metrics": metrics, "deck": deck}, fh)
    if args.trace:
        with gzip.open(f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": Span._fields, "spans": tracer.spans}, fh, default=sorted)

    for r in tally.failures:
        print(f"failed case {r['index']} ({r['kind']}): {r['reason']}", file=sys.stderr)
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
