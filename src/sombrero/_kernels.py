"""Tridiagonal eigensolver kernels behind the radial oracle.

Two sequential recurrences on a symmetric tridiagonal matrix with
diagonal d and off-diagonal e: Sturm-sequence bisection for the smallest
eigenvalue (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) and inverse
iteration with a partially pivoted LU solve (LAPACK dgttrf/dgttrs) for
its eigenvector.  Neither recurrence vectorizes, so the loops run over
Python floats, which follow the same IEEE-754 double arithmetic as numpy
but skip its per-element scalar boxing.  Everything numpy does exactly
(elementwise arithmetic, max, first arg-extremum, running sums) is left
to numpy.  Every operation that reaches a result happens in a fixed
order, so the answers are reproducible bit for bit.
"""

import math
from array import array

import numpy as np

# Smallest normal double; pivot floors scale from this so the Sturm
# recurrence never divides by an exact zero.
_SAFMIN = 2.2250738585072014e-308
_EPS = 2.220446049250313e-16


def _max_skipping_nan(a, initial=0.0) -> float:
    """max(initial, *a) ignoring NaNs, like a running `if x > best` loop."""
    return float(np.fmax.reduce(a, initial=initial))


def _buffer(a) -> array:
    """An array('d') copy of a float64 ndarray, with no bytes copy between."""
    buf = array("d")
    buf.frombytes(np.ascontiguousarray(a, dtype=float).data.cast("B"))
    return buf


def _gershgorin_end(ends, argbest) -> float:
    """What a running `if x < best` (or `>`) loop over ends keeps.

    It starts from ends[0], which stays if it is NaN; otherwise later NaNs
    never compare true, and ties keep the first value (so the sign of a
    zero end is the loop's too).
    """
    first = ends[0]
    if math.isnan(first):
        return float(first)
    return float(ends[argbest(ends)])


def _pivot_below(x, d0, d_rest, e2, pivmin) -> bool:
    """Whether some LDL^T pivot of (T - x*I) falls below pivmin.

    Walks q_0 = d_0 - x, q_i = (d_i - x) - e2_i / q_(i-1) and stops at
    the first q_i < pivmin, so a pivot under the floor is never divided by.
    """
    q = d0 - x
    if q < pivmin:
        return True
    for di, e2i in zip(d_rest, e2):
        q = di - x - e2i / q
        if q < pivmin:
            return True
    return False


def smallest_eigenvalue(d, e, abs_tol, hints=()):
    """Smallest eigenvalue of the symmetric tridiagonal (d, e) by bisection.

    Brackets with Gershgorin bounds and bisects on the Sturm count until
    the interval is narrower than abs_tol.  Stops early if the midpoint
    is no longer representable strictly inside the bracket (interval at
    ulp resolution), which can happen before abs_tol is met when the
    eigenvalue sits at large magnitude.

    Each probe only asks whether any eigenvalue lies at or below mid,
    that is, whether any LDL^T pivot q is nonpositive once pivots with
    |q| < pivmin are floored to -pivmin.  A floored pivot is nonpositive,
    so the answer is yes exactly when some raw q < pivmin, and the probe
    stops there; a floored pivot is thus never fed back into the
    recurrence.  NaN pivots compare false and never count.

    hints are points probed before the bisection starts, typically just
    below and just above an estimate of the eigenvalue.  They change how
    long the bisection takes, never its result.  The computed answer is
    monotone in the probe point x when d and e*e are finite: for x <= x',
    fl(d_0 - x) >= fl(d_0 - x'), because round-to-nearest subtraction is
    monotone in each argument (overflow to infinity included).  If
    q_(i-1)(x) >= q_(i-1)(x') >= pivmin > 0, then with e2_i >= 0,
    fl(e2_i / q_(i-1)(x)) <= fl(e2_i / q_(i-1)(x')), as division by a
    positive number is monotone too, and that quotient is finite since
    e2_i / pivmin <= 1 / SAFMIN; so q_i(x) >= q_i(x').  By induction
    every pivot at x is at least the one at x', up to the first pivot at
    x' under pivmin.  Hence "no" at x means "no" at every point <= x, and
    "yes" at x' means "yes" at every point >= x'.  The bisection keeps
    the largest hint that answered no and the smallest that answered
    yes, and a later mid at or beyond one of them takes the known answer
    without walking the recurrence: the (lo, hi) sequence, and so the
    result, is bit for bit the one without hints.  With a NaN or an
    infinity in d, e*e or the hints the argument fails, so the hints are
    then ignored.
    """
    n = d.shape[0]
    if n == 1:
        return float(d[0])
    e2 = e * e
    pivmin = _SAFMIN * _max_skipping_nan(e2, initial=1.0)

    radius = np.zeros(n)
    radius[1:] = np.abs(e)
    radius[:-1] += np.abs(e)
    lo = _gershgorin_end(d - radius, np.nanargmin)
    hi = _gershgorin_end(d + radius, np.nanargmax)

    # memoryviews hand out one Python float at a time; a tolist() copy
    # iterates ~15% faster but holds n float objects per array
    args = (float(d[0]), memoryview(d)[1:], memoryview(e2), pivmin)
    known_no, known_yes = -math.inf, math.inf
    hints = [float(x) for x in hints]
    if hints and all(map(math.isfinite, hints)) and np.isfinite(d).all() and np.isfinite(e2).all():
        for x in hints:
            if _pivot_below(x, *args):
                known_yes = min(known_yes, x)
            else:
                known_no = max(known_no, x)
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid >= known_yes or (mid > known_no and _pivot_below(mid, *args)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def inverse_iteration(d, e, sigma, rel_tol, max_iter):
    """Eigenvector of the symmetric tridiagonal (d, e) nearest sigma.

    Factors (T - sigma*I) once with partial pivoting (LU with one extra
    superdiagonal, dgttrf-style), then repeatedly solves from a constant
    positive start vector, normalizing each sweep.  Returns the unit
    vector and the number of sweeps used, or -1 if the direction did not
    settle to rel_tol (max-norm of the change of the sign-aligned unit
    vector) within max_iter sweeps.  The factors and the solve run in
    place in array('d') buffers, which hold no float objects; the
    normalization's sums of products are running (sequential) sums.
    """
    n = d.shape[0]
    shifted = d - sigma
    # exact zero pivots are replaced by an eps-sized perturbation scaled
    # to the shifted matrix, so the solve stays finite
    tiny = _EPS * max(_max_skipping_nan(np.abs(shifted)), _max_skipping_nan(np.abs(e)))
    if tiny == 0.0:
        tiny = _SAFMIN

    dd = _buffer(shifted)
    del shifted
    dl = _buffer(e)
    du = array("d", dl)
    du2 = array("d", bytes(8 * max(n - 2, 0)))
    swapped = bytearray(max(n - 1, 0))
    for i in range(n - 1):
        piv = dd[i]
        sub = dl[i]
        if abs(piv) >= abs(sub):
            # no row swap; a hard zero pivot only occurs when sigma is an
            # exact eigenvalue of a leading block, so floor it
            if piv == 0.0:
                piv = dd[i] = tiny
            fact = sub / piv
            dl[i] = fact
            dd[i + 1] -= fact * du[i]
        else:
            swapped[i] = 1
            fact = piv / sub
            dd[i] = sub
            dl[i] = fact
            below = dd[i + 1]
            dd[i + 1] = du[i] - fact * below
            du[i] = below
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
    if dd[n - 1] == 0.0:
        dd[n - 1] = tiny

    v = np.full(n, 1.0 / math.sqrt(n))
    x = array("d", bytes(8 * n))
    x_np = np.frombuffer(x)  # numpy view of the same buffer
    work = np.empty(n)  # one scratch vector for the normalization
    for sweep in range(max_iter):
        x_np[:] = v
        # forward substitution with recorded swaps; xi carries x[i]
        xi = x[0]
        for i in range(n - 1):
            below = x[i + 1]
            if swapped[i]:
                x[i] = below
                xi = xi - dl[i] * below
            else:
                xi = below - dl[i] * xi
            x[i + 1] = xi
        # back substitution (upper triangle has two superdiagonals);
        # a and b carry x[i + 2] and x[i + 1]
        a = x[n - 1] / dd[n - 1]
        x[n - 1] = a
        if n > 1:
            b = (x[n - 2] - du[n - 2] * a) / dd[n - 2]
            x[n - 2] = b
            for i in range(n - 3, -1, -1):
                c = (x[i] - du[i] * b - du2[i] * a) / dd[i]
                x[i] = c
                a = b
                b = c

        # two-stage normalization: pre-scaling by the largest entry keeps
        # the sum of squares from overflowing after a near-singular solve
        amax = _max_skipping_nan(np.abs(x_np, out=work))
        if amax == 0.0 or not math.isfinite(amax):
            return v, -1
        x_np /= amax
        np.multiply(x_np, x_np, out=work)
        x_np /= math.sqrt(float(np.add.accumulate(work, out=work)[-1]))
        np.multiply(x_np, v, out=work)
        if np.add.accumulate(work, out=work)[-1] < 0.0:
            np.negative(x_np, out=x_np)
        delta = _max_skipping_nan(np.abs(np.subtract(x_np, v, out=work), out=work))
        v = x_np.copy()
        if delta < rel_tol:
            return v, sweep + 1
    return v, -1
