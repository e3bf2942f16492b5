"""Seeded workloads: case generation, one case's execution, and its checks.

Every workload is a deck of blocks.  A block holds a fixed mix of cases
(one per stratum of the input properties that drive the cost), so a run
that stops on a block boundary always measures the same mix, whatever
the seed.  The deck depends only on the seed; the library sees only the
generated inputs.  References come from closed forms: the oracle's
energy must match the closed-form e0 within the same 1e-6 that `verify`
uses, never bit for bit.

oracle_verify
    One in-process `sombrero verify` or `sombrero eta-mu` call per case,
    on the automatic domain and a 2000-point grid.  The eigensolver does
    nearly all the work (domain search, eigenvalues, eigenvectors).  g
    spans 4.4 decades, so a block holds cases that need from two to four
    trial domains.  The ranges stop where every case passes today:
    lambda >= 1.25 and 10**-2.2 <= g <= 10**2.2 for verify, 0.85 <= g <=
    25 for eta-mu.  Beyond them the oracle raises "still drifting" or
    misses the 1e-6 tolerance (ROADMAP item 4), and a benchmark case must
    not fail.
identity_sweep
    Random parameters that do not satisfy the constraints.  Each case
    evaluates the Riccati identity on a log grid, then solves V - h on a
    fixed domain (r_max=8, 2000 points) with h as a callable potential;
    the energy must match e0.  Same eigensolver, one domain, one
    eigenvector per solve.
constraint_scan
    CLI commands that never call the oracle: scan-lambda, from-lambda,
    jackiw, derive and plot-data.  Root finding, the trial and
    wavefunction algebra and CLI I/O do all the work.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

import numpy as np

N_CHOICES = (1, 2, 3, 5, 9)
TOL_ENERGY = 1e-6
TOL_SIMILARITY = 1e-6

WORKLOADS = ("oracle_verify", "identity_sweep", "constraint_scan")

# the worked example of the paper: N=3, g=1.5, lambda=1.5, eta=1/3
WORKED = {"g": 1.5, "alpha": 2.0 * math.sqrt(3.0), "beta": 2.0, "A": 2.0 * math.sqrt(3.0) / 3.0, "N": 3}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng, lo, hi, count, log=False):
    """One draw from each of `count` equal strata of [lo, hi], shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / count
    draws = [a + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(draws)
    return [math.exp(x) for x in draws] if log else draws


def _deck_strata(rng, lo, hi, count, blocks, log=False):
    """Per block, one draw from each of `count` equal strata of [lo, hi].

    Each stratum is split again into `blocks` sub-strata, one draw each,
    dealt to the blocks at random, so every deck holds the same spread of
    values: the few cases past a cost step (the lowest g needs one more
    trial domain) are as many on every seed, and so is the tail.
    """
    draws = sorted(_strata(rng, lo, hi, count * blocks, log))
    columns = [draws[k * blocks:(k + 1) * blocks] for k in range(count)]
    for column in columns:
        rng.shuffle(column)
    rows = [[column[b] for column in columns] for b in range(blocks)]
    for row in rows:
        rng.shuffle(row)
    return rows


def _random_params(rng, n_dim):
    """Arbitrary parameters over the ranges the identity tests draw from."""
    return {
        "g": rng.uniform(0.5, 2.0),
        "alpha": rng.uniform(-2.0, 3.0),
        "beta": rng.uniform(-2.0, 3.0),
        "A": rng.uniform(-2.0, 3.0),
        "N": n_dim,
    }


def _lambda_solution(sb, g, lam, n_dim):
    """Potential flags of the lambda-route zero-energy solution."""
    eta = sb.solve_eta(lam, n_dim)[0]
    p = sb.params_from_lambda(g, lam, eta, n_dim).potential
    return {"g": p.g, "alpha": p.alpha, "beta": p.beta, "A": p.bigA, "N": n_dim}


def _params(sb, flags):
    return sb.PotentialParams(
        g=flags["g"], alpha=flags["alpha"], beta=flags["beta"], bigA=flags["A"], n_dim=flags["N"]
    )


def _e0(sb, flags):
    p = _params(sb, flags)
    return sb.trial_split(p, sb.derive_trial(p)).e0


def build_deck(sb, workload, seed):
    """The workload's blocks of JSON-serializable case specs for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    return DECK_MAKERS[workload](sb, rng, DECK_BLOCKS[workload])


def _oracle_deck(sb, rng, blocks):
    verify_g = _deck_strata(rng, 10**-2.2, 10**2.2, len(N_CHOICES), blocks, log=True)
    verify_lam = _deck_strata(rng, 1.25, 10.0, len(N_CHOICES), blocks)
    eta_mu_g = _deck_strata(rng, 0.85, 25.0, 2, blocks, log=True)
    deck = []
    for g_draws, lam_draws, eta_mu_draws in zip(verify_g, verify_lam, eta_mu_g):
        block = []
        for n_dim, g, lam in zip(N_CHOICES, g_draws, lam_draws):
            flags = _lambda_solution(sb, g, lam, n_dim)
            block.append({"kind": "verify", "lambda": lam, "flags": flags, "e0": _e0(sb, flags)})
        for g in eta_mu_draws:
            n_dim = rng.choice(N_CHOICES)
            sol = sb.solve_eta_mu(g, n_dim)
            e0 = sb.trial_split(sol.potential, sol.trial).e0
            block.append({"kind": "eta-mu", "g": g, "N": n_dim, "e0": e0})
        rng.shuffle(block)
        deck.append(block)
    return deck


def _blocks(make_block):
    """A deck of independently drawn blocks."""
    return lambda sb, rng, blocks: [make_block(sb, rng) for _ in range(blocks)]


def _identity_block(sb, rng):
    block = [{"kind": "identity", "flags": _random_params(rng, n_dim)} for n_dim in (1, 2, 3, 5)]
    rng.shuffle(block)
    return block


def _scan_block(sb, rng):
    plot_flags = _lambda_solution(sb, rng.uniform(0.5, 2.0), rng.uniform(1.25, 10.0), rng.choice(N_CHOICES))
    lam = rng.uniform(1.01, 10.0)
    n_dim = rng.choice(N_CHOICES)
    block = [
        {
            "kind": "scan-lambda",
            "N": rng.choice(N_CHOICES),
            "from": rng.uniform(1.01, 2.0),
            "to": rng.uniform(5.0, 10.0),
            "steps": 200,
        },
        {
            "kind": "from-lambda",
            "g": _log_uniform(rng, 1e-2, 1e2),
            "lambda": lam,
            "N": n_dim,
            "etas": sb.solve_eta(lam, n_dim),
        },
        {"kind": "from-lambda", "g": _log_uniform(rng, 1e-2, 1e2), "lambda": 1.5, "N": 3, "etas": [1.0 / 3.0]},
        {"kind": "jackiw", "N": rng.choice(N_CHOICES)},
    ]
    derive_flags = _random_params(rng, rng.choice(N_CHOICES))
    block.append({"kind": "derive", "flags": derive_flags, "e0": _e0(sb, derive_flags)})
    for what in ("potential", "wavefunction"):
        block.append({"kind": "plot-data", "what": what, "flags": plot_flags, "r_to": 3.0, "steps": 600})
    rng.shuffle(block)
    return block


DECK_MAKERS = {
    "oracle_verify": _oracle_deck,
    "identity_sweep": _blocks(_identity_block),
    "constraint_scan": _blocks(_scan_block),
}
# Sized so that one pass of the deck has a real tail (see run.tail_fraction):
# 84 cases (p88), 160 (p93.75) and 560 (p98.2).
DECK_BLOCKS = {"oracle_verify": 12, "identity_sweep": 40, "constraint_scan": 80}


# -- execution ---------------------------------------------------------------


def _flag_args(flags):
    # "--A=-1.4e-05", not "--A -1.4e-05": argparse reads a separate value
    # that starts with "-" and is not a plain decimal as an option.
    return [
        f"--g={flags['g']!r}", f"--alpha={flags['alpha']!r}", f"--beta={flags['beta']!r}",
        f"--A={flags['A']!r}", f"--N={flags['N']}",
    ]


def argv_for(spec, out_path):
    """CLI argument vector of a case, or None for a library case."""
    kind = spec["kind"]
    if kind == "verify":
        return ["verify", *_flag_args(spec["flags"]), "--format", "json"]
    if kind == "eta-mu":
        return ["eta-mu", "--g", repr(spec["g"]), "--N", str(spec["N"]), "--format", "json"]
    if kind == "scan-lambda":
        return [
            "scan-lambda", "--N", str(spec["N"]), "--from", repr(spec["from"]), "--to", repr(spec["to"]),
            "--steps", str(spec["steps"]), "--out", out_path,
        ]
    if kind == "from-lambda":
        return ["from-lambda", "--g", repr(spec["g"]), "--lambda", repr(spec["lambda"]), "--N", str(spec["N"]),
                "--format", "json"]
    if kind == "jackiw":
        return ["jackiw", "--N", str(spec["N"]), "--format", "json"]
    if kind == "derive":
        return ["derive", *_flag_args(spec["flags"]), "--format", "json"]
    if kind == "plot-data":
        return [
            "plot-data", "--what", spec["what"], *_flag_args(spec["flags"]), "--r-from", "0",
            "--r-to", repr(spec["r_to"]), "--steps", str(spec["steps"]), "--out", out_path,
        ]
    return None


class CaseFailure(Exception):
    """A case raised, exited unexpectedly or missed its reference."""

    def __init__(self, message, exit_code=None):
        super().__init__(message)
        self.exit_code = exit_code


def _require(cond, message):
    if not cond:
        raise CaseFailure(message)


def _close(x, ref, rtol, atol=0.0):
    return abs(x - ref) <= atol + rtol * abs(ref)


class Runner:
    """Runs cases in a closed loop from one thread and checks every answer."""

    def __init__(self, sb, scratch_dir):
        self.sb = sb
        self.scratch_dir = scratch_dir
        self.first_output = {}  # deck index -> digest of the first output

    def run(self, index, spec):
        """Execute one case; returns (latency_s, bytes_out, exit_code, answer)
        and raises CaseFailure when the case fails."""
        argv = argv_for(spec, os.path.join(self.scratch_dir, f"case{index}.csv"))
        if argv is None:
            return self._identity(spec)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.sb.cli.main(argv)  # looked up per call, so a traced main is seen
        except Exception as exc:  # noqa: BLE001 - any raise is a counted failure
            raise CaseFailure(f"{type(exc).__name__}: {exc}") from exc
        latency = time.perf_counter() - t0
        text = out.getvalue()
        if code != 0:
            raise CaseFailure(f"exit {code}: {err.getvalue().strip()[:200]}", code)
        file_bytes = b""
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                file_bytes = fh.read()
        digest = hashlib.sha256(text.encode() + b"\0" + file_bytes).hexdigest()
        first = self.first_output.setdefault(index, digest)
        _require(first == digest, "output differs from an earlier run of the same case")
        try:
            answer = CHECKS[spec["kind"]](spec, text, file_bytes)
        except (KeyError, ValueError, TypeError) as exc:
            raise CaseFailure(f"malformed output: {type(exc).__name__}: {exc}", code) from exc
        except CaseFailure as exc:
            exc.exit_code = code
            raise
        return latency, len(text.encode()) + len(file_bytes), code, answer

    # -- library case ------------------------------------------------------

    def _identity(self, spec):
        sb = self.sb
        t0 = time.perf_counter()
        try:
            p = _params(sb, spec["flags"])
            t = sb.derive_trial(p)
            split = sb.trial_split(p, t)
            w = sb.TrialWavefunction(trial=t, potential=p)
            radii = np.geomspace(1e-3, 20.0, 100)
            d1, d2 = sb.derivatives_s0(w, radii)
            n = p.n_dim
            lhs = d1 * d1 - (n - 1.0) / radii * d1 - d2
            rhs = 2.0 * (sb.eval_potential(p, radii) - split.h_at(radii) - split.e0)
            res = sb.groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)
        except Exception as exc:  # noqa: BLE001 - any raise is a counted failure
            raise CaseFailure(f"{type(exc).__name__}: {exc}") from exc
        latency = time.perf_counter() - t0
        scale = np.maximum(1.0, d1 * d1 + np.abs((n - 1.0) / radii * d1) + np.abs(d2) + np.abs(rhs))
        identity = float(np.max(np.abs(lhs - rhs) / scale))
        _require(identity < 1e-9, f"Riccati identity violated: {identity:.3e}")
        error = abs(res.energy - split.e0)
        _require(error < TOL_ENERGY, f"|E - e0| = {error:.3e}")
        answer = {
            "energy": float(res.energy),
            "e0": float(split.e0),
            "energy_error": error,
            "richardson_pair": [float(x) for x in res.richardson_pair],
            "identity_residual": identity,
        }
        return latency, 0, None, answer


# -- checks against closed-form references ------------------------------------


def _check_oracle(spec, text, _):
    doc = json.loads(text)
    ver = doc["verification"]
    _require(ver["verdict"] == "PASS", f"verdict {ver['verdict']} ({ver['failures']})")
    error = abs(ver["oracle_energy"] - spec["e0"])
    _require(error < TOL_ENERGY, f"|E - e0| = {error:.3e}")
    _require(ver["similarity"] > 1.0 - TOL_SIMILARITY, f"similarity {ver['similarity']!r}")
    return {
        "energy": ver["oracle_energy"],
        "e0": spec["e0"],
        "energy_error": error,
        "similarity": ver["similarity"],
    }


def _csv_rows(file_bytes, header):
    lines = file_bytes.decode("utf-8").split("\n")
    _require(lines[0] == header and lines[-1] == "", "CSV header or line endings")
    return [line.split(",") for line in lines[1:-1]]


def _check_scan(spec, _, file_bytes):
    rows = _csv_rows(file_bytes, "lambda,eta")
    _require(len(rows) == spec["steps"], f"{len(rows)} rows")
    _require(all(eta != "" for _, eta in rows), "a lambda without a root")
    # The CSV rounds both columns to 9 significant digits.  The cubic is
    # checked at the exact grid lambdas the command solved at, not the
    # printed ones: near lambda = 1 a 5e-9 relative rounding of lambda moves
    # the residual by more than the eta rounding does.
    lams = np.linspace(spec["from"], spec["to"], spec["steps"])
    _require(np.allclose([float(lam) for lam, _ in rows], lams, rtol=1e-8, atol=0.0), "lambda grid")
    etas = np.array([float(eta) for _, eta in rows])
    _require(bool(np.all((etas > 0) & (etas < 1))), "eta outside (0, 1)")
    _require(bool(np.all(np.diff(etas) > 0)), "eta(lambda) not increasing")
    c3, c2, c1, c0 = (lams * spec["N"], lams * spec["N"], spec["N"] + 4.0 - lams * spec["N"], spec["N"] * (1 - lams))
    residual = ((c3 * etas + c2) * etas + c1) * etas + c0
    slope = (3 * c3 * etas + 2 * c2) * etas + c1
    _require(bool(np.all(np.abs(residual) <= 1e-8 * np.abs(slope) + 1e-12 * np.abs(c3))), "eta misses its cubic")
    return {"eta_first": float(etas[0]), "eta_last": float(etas[-1])}


def _check_from_lambda(spec, text, _):
    doc = json.loads(text)
    sols = doc["solutions"]
    _require(len(sols) == len(spec["etas"]), f"{len(sols)} solutions, expected {len(spec['etas'])}")
    g, n, lam = spec["g"], spec["N"], spec["lambda"]
    for sol, eta in zip(sols, spec["etas"]):
        _require(abs(sol["eta"] - eta) < 1e-9, f"eta {sol['eta']!r}, expected {eta!r}")
        beta = n * (1.0 - sol["eta"]) / (2.0 * sol["eta"] * g)
        _require(_close(sol["beta"], beta, 1e-12), "beta off its closed form")
        _require(_close(sol["alpha"] ** 2, 4.0 * lam * sol["beta"], 1e-12), "alpha^2 != 4 lambda beta")
        _require(_close(sol["A"], sol["eta"] * sol["alpha"], 1e-12), "A != eta alpha")
        scale = 0.5 * sol["A"] * g**2 * sol["beta"] + n * abs(sol["c"])
        _require(abs(sol["e0"]) <= 1e-9 * max(1.0, scale), f"e0 = {sol['e0']!r} is not zero")
    return {"etas": [s["eta"] for s in sols]}


def _check_jackiw(spec, text, _):
    doc = json.loads(text)
    n = spec["N"]
    r0_sq = math.sqrt((n + 2.0) / 3.0)
    first, second = doc["branches"]
    _require(_close(first["e0"], r0_sq**3, 1e-12), f"e0 {first['e0']!r} != r0^6")
    _require(_close(second["e0"], r0_sq**3 + 2.0 * n * r0_sq, 1e-12), "second branch e0")
    return {"e0": [first["e0"], second["e0"]]}


def _check_derive(spec, text, _):
    d = json.loads(text)["derived"]
    f = spec["flags"]
    g, alpha, beta, bigA, n = f["g"], f["alpha"], f["beta"], f["A"], f["N"]
    m = (g * (beta - alpha * bigA) - 0.25 * g * (alpha - bigA) ** 2 + n + 2.0) / 4.0
    _require(_close(d["a"], g / 4.0, 1e-14), "a != g/4")
    _require(_close(d["c"], (alpha - bigA) * g / 4.0, 1e-12, 1e-15), "c != (alpha - A) g/4")
    _require(_close(d["m"], m, 1e-12, 1e-12), "m off its closed form")
    _require(_close(d["e0"], spec["e0"], 1e-12, 1e-12), "e0 off the closed form")
    return {"e0": d["e0"]}


def _check_plot(spec, _, file_bytes):
    rows = _csv_rows(file_bytes, "r,value")
    _require(len(rows) == spec["steps"], f"{len(rows)} rows")
    r = np.linspace(0.0, spec["r_to"], spec["steps"])
    y = np.array([float(v) for _, v in rows])
    _require(np.allclose([float(x) for x, _ in rows], r, rtol=1e-8, atol=1e-12), "radii")
    f = spec["flags"]
    if spec["what"] == "potential":
        u = r * r
        v = 0.5 * f["g"] ** 2 * (u * u - f["alpha"] * u + f["beta"]) * (u + f["A"])
        scale = np.maximum(1.0, np.abs(v))
        _require(bool(np.all(np.abs(y - v) <= 1e-8 * scale)), "V(r) off its closed form")
    else:
        _require(abs(y.max() - 1.0) < 1e-4 and y.max() <= 1.0 + 1e-8, f"max psi {y.max()!r} != 1")
        _require(bool(y[1] > y[0]), "no valley at r = 0")
    return {"max": float(y.max())}


CHECKS = {
    "verify": _check_oracle,
    "eta-mu": _check_oracle,
    "scan-lambda": _check_scan,
    "from-lambda": _check_from_lambda,
    "jackiw": _check_jackiw,
    "derive": _check_derive,
    "plot-data": _check_plot,
}

WARMUP = {
    "oracle_verify": {"kind": "verify", "flags": WORKED, "e0": 0.0},
    "identity_sweep": {"kind": "identity", "flags": WORKED},
    "constraint_scan": {"kind": "from-lambda", "g": 1.5, "lambda": 1.5, "N": 3, "etas": [1.0 / 3.0]},
}
