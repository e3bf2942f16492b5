"""Tridiagonal eigensolver kernels behind the radial oracle.

Two kernels on a symmetric tridiagonal matrix with diagonal d and
off-diagonal e: Sturm-sequence bisection for the smallest eigenvalue
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967) and one twisted
factorization for its eigenvector (Dhillon 1997; Parlett & Dhillon
2000).  Both rest on the LDL^T pivot recurrence of T - x*I, which does
not vectorize, so it runs over Python floats, which follow the same
IEEE-754 double arithmetic as numpy but skip its per-element scalar
boxing.  Everything numpy does exactly (elementwise arithmetic, max,
first arg-extremum, running sums and products) is left to numpy.  Every
operation that reaches a result happens in a fixed order, so the answers
are reproducible bit for bit.
"""

import math
from itertools import chain

import numpy as np

# Smallest normal double; pivot floors scale from this so the Sturm
# recurrence never divides by an exact zero.
_SAFMIN = 2.2250738585072014e-308


def _max_skipping_nan(a, initial=0.0) -> float:
    """max(initial, *a) ignoring NaNs, like a running `if x > best` loop."""
    return float(np.fmax.reduce(a, initial=initial))


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


def _pivots(shifted, e2, pivmin) -> np.ndarray:
    """Every LDL^T pivot of a shifted tridiagonal, from the top down.

    Walks q_0 = shifted_0, q_i = shifted_i - e2_(i-1) / q_(i-1), the
    recurrence _pivot_below walks, but to the end, with each |q_i| <
    pivmin floored to -pivmin so that no pivot is an exact zero.
    """
    out = np.empty(shifted.shape[0])
    buf = memoryview(out)
    # q_0 = shifted_0 - 0 / 1 starts the recurrence with no special case
    q = 1.0
    for i, (si, e2i) in enumerate(zip(memoryview(shifted), chain((0.0,), memoryview(e2)))):
        q = si - e2i / q
        if abs(q) < pivmin:
            q = -pivmin
        buf[i] = q
    return out


def eigenvector(d, e, sigma) -> np.ndarray:
    """Unit eigenvector of the symmetric tridiagonal (d, e) for the eigenvalue at sigma.

    One twisted factorization of T - sigma*I (Dhillon 1997; Parlett &
    Dhillon, Linear Algebra Appl. 309, 2000): the top-down pivots D+ and
    the bottom-up pivots D- meet at the twist index k that minimizes
    |gamma_k| = |D+_k + D-_k - (d_k - sigma)|; 1 / gamma_k is the k-th
    diagonal entry of (T - sigma*I)^-1, largest where the eigenvector
    is.  With x_k = 1 the other entries follow outward as running
    products, x_i = -(e_i / D+_i) x_(i+1) for i < k and
    x_i = -(e_(i-1) / D-_i) x_(i-1) for i > k, which solve
    (T - sigma*I) x = gamma_k e_k exactly.  When every e_i < 0 and the
    pivots used are positive, no entry of x is negative.  The result
    is scaled by its largest entry and then to unit length with a
    running (sequential) sum of squares.  Entries that overflow come
    back infinite or NaN, which the caller checks for.
    """
    shifted = d - sigma
    e2 = e * e
    pivmin = _SAFMIN * _max_skipping_nan(e2, initial=1.0)
    down = _pivots(shifted, e2, pivmin)
    up = _pivots(shifted[::-1], e2[::-1], pivmin)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        k = int(np.argmin(np.abs(down + up - shifted)))
        x = np.ones(d.shape[0])
        x[:k] = np.cumprod((-e[:k] / down[:k])[::-1])[::-1]
        x[k + 1 :] = np.cumprod(-e[k:] / up[k + 1 :])
        x /= _max_skipping_nan(np.abs(x))
        x /= math.sqrt(float(np.add.accumulate(x * x)[-1]))
    return x
