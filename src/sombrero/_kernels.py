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
operation happens in a fixed order, so repeated calls return the same
bits.

The bisection owes its caller a tolerance, not a bit pattern: its
result lies within abs_tol of the smallest eigenvalue.  It is aimed by
the twisted factorization: secant steps on the gap gamma_k(x) of
T - x*I at one fixed index k, which vanishes at the eigenvalue, start
around the caller's estimate (or, without one, from the bisection's
own bracket), and probes either side of their root set the bracket
that a plain bisection then finishes.

On a domain much wider than the state, most of each walk would run
through rows where the state has long decayed.  Every walk stops
there: past a row s where the decay from the turning point is deep
enough, the rest of the matrix moves the smallest eigenvalue by well
under abs_tol, so the bisection solves the leading block of rows
0..s.  The eigenvector is a leading block's too, with its tail found
abs_tol and an ulp above the bisected eigenvalue, and exactly 0 past
it: the entries it drops lie below about sqrt(abs_tol / (64 max|e|))
of the peak.  One helper (_matrix) sets up what both kernels read, the
reach that ends the block included.  Each kernel call turns its block
into Python lists once (_rows), and every walk subtracts x from d_i in
its loop: a Python float subtraction gives the bits numpy's d - x would.
"""

import math
from itertools import islice

import numpy as np

# Smallest normal double; pivot floors scale from this so the Sturm
# recurrence never divides by an exact zero.
_SAFMIN = 2.2250738585072014e-308
# Aiming the bisection (see smallest_eigenvalue): a call with a finite
# estimate starts its secant from _AIM_SPREAD * abs_tol either side of
# it, a cold call from its own bracket once that is narrower than
# _AIM_START * abs_tol; the secant takes at most _AIM_STEPS steps and
# stops at a step within _AIM_STOP * abs_tol; then x -+ w * abs_tol
# around its root x are probed for each w in _AIM_WIDTHS, nearest
# first, wherever they lie inside the bracket (0.4, not 0.5: x -+ 0.5
# abs_tol often round to a bracket an ulp wider than abs_tol, which
# then takes one more probe).  The leading block's smallest
# eigenvalue lies about abs_tol / _AIM_STOP above T's.
_AIM_START = 2.0**30
_AIM_SPREAD = 1e6
_AIM_STEPS = 5
_AIM_STOP = 64.0
_AIM_WIDTHS = (0.4, 1.0, 4.0, 64.0, 1024.0)


def _pivot_below(d, e2, x, pivmin) -> bool:
    """Whether some LDL^T pivot of T - x*I falls below pivmin.

    Walks q_i = d_i - x - e2_i / q_(i-1) from q_(-1) = 1 and stops at
    the first q_i < pivmin, so a pivot under the floor is never divided
    by.  e2_i couples row i to the row above it, so the walk's first e2
    is 0.
    """
    q = 1.0
    for di, e2i in zip(d, e2):
        q = di - x - e2i / q
        if q < pivmin:
            return True
    return False


def _last_pivot(d, e2, x, pivmin) -> float:
    """Last pivot of _pivots(d, e2, x, pivmin), over any iterables."""
    q, floor = 1.0, -pivmin
    for di, e2i in zip(d, e2):
        q = di - x - e2i / q
        if q < pivmin and q > floor:
            q = floor
    return q


def _twisted_gap(d, e2, d_up, e2_up, k, x, pivmin) -> float:
    """gamma_k = d_k - x - e2_k / D+_(k-1) - e2_(k+1) / D-_(k+1).

    The twisted factorization's gap at index k (see eigenvector) of
    T - x*I, for the lists of _rows, top-down (d, e2) and bottom-up
    (d_up, e2_up), from a top-down walk to k - 1 and a bottom-up walk to
    k + 1; it is 1 / [(T - x*I)^-1]_kk, so as a function of x it
    vanishes at an eigenvalue and is near linear close to one.
    """
    gap = d[k] - x
    if k > 0:
        gap -= e2[k] / _last_pivot(islice(d, k), e2, x, pivmin)
    if k < len(d) - 1:
        gap -= e2[k + 1] / _last_pivot(islice(d_up, len(d) - 1 - k), e2_up, x, pivmin)
    return gap


def _secant_root(f, x0, x1, abs_tol) -> float:
    """A root of f by secant steps from x0 and x1.

    Stops at the first step no longer than abs_tol, after _AIM_STEPS
    steps, or where f takes one value at both points (the steps are then
    down in f's rounding noise); NaN once f is not finite.  The
    arithmetic is on Python floats, which overflow to infinity and NaN
    without a warning.
    """
    f0 = f(x0)
    for _ in range(_AIM_STEPS):
        f1 = f(x1)
        if not (math.isfinite(f0) and math.isfinite(f1)):
            return math.nan
        if f0 == f1:
            break
        x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
        if not abs(x1 - x0) > abs_tol:
            break
    return x1


def _tail(d, radius, lower, x, reach) -> int:
    """The last row s of the leading block whose walks stand for T - x*I's.

    The turning point t is the last row whose Gershgorin disc reaches
    down to x (its lower end in lower; n - 1, so no tail, when none
    does).  Summed outward from t, the decay exponents
    acosh((d_i - x) / radius_i) first reach reach at row s, or n - 1
    when the sum stays short of reach before the last row.  d - x may
    overflow, and a zero radius divide, under the caller's errstate.
    """
    n = d.shape[0]
    t = n - 1 - int(np.argmax(lower[::-1] <= x))
    decay = (d[t + 1 :] - x) / radius[t + 1 :]
    s = t + 1 + int(np.searchsorted(np.cumsum(np.arccosh(decay, out=decay), out=decay), reach))
    return min(s, n - 1)


def _matrix(d, e, abs_tol):
    """What both kernels read of the tridiagonal (d, e) besides d.

    e2 (e2_i = e_(i-1)^2 couples row i to the row above it, so e2_0 =
    0), the pivot floor pivmin, each row's Gershgorin radius and lower
    end, and the reach R = ln(_AIM_STOP max(|e|, 1) / abs_tol) / 2 at
    which _tail ends the leading block (infinite unless 0 < abs_tol <
    inf, so that no block is cut).
    """
    n = d.shape[0]
    e2 = np.zeros(n)
    np.multiply(e, e, out=e2[1:])
    e2_max = float(np.max(e2, initial=1.0))
    abs_e = np.abs(e)
    radius = np.zeros(n)
    radius[1:] = abs_e
    radius[:-1] += abs_e
    # a tail this far past the turning point moves the smallest
    # eigenvalue by about max|e| e^(-2 reach) = abs_tol / _AIM_STOP
    reach = 0.5 * math.log(_AIM_STOP * math.sqrt(e2_max) / abs_tol) if 0.0 < abs_tol < math.inf else math.inf
    return e2, _SAFMIN * e2_max, radius, d - radius, reach


def smallest_eigenvalue(d, e, abs_tol, estimate=None):
    """Smallest eigenvalue of the symmetric tridiagonal (d, e) by bisection.

    d and e*e must be finite (discretize rejects any other matrix).  The
    result lies within abs_tol of the smallest eigenvalue, or within a
    few ulps of it where abs_tol is below the eigenvalue's ulp: the
    bisection stops once its bracket is narrower than abs_tol, or once
    the midpoint is no longer representable strictly inside it.  The
    bracket runs from Gershgorin's lower end to min(d), the Rayleigh
    quotient of a unit vector.

    Each probe only asks whether any eigenvalue lies at or below x, that
    is, whether any LDL^T pivot q is nonpositive once pivots with
    |q| < pivmin are floored to -pivmin.  A floored pivot is
    nonpositive, so the answer is yes exactly when some raw q < pivmin,
    and the probe stops there; a floored pivot is thus never fed back
    into the recurrence.

    Every walk runs over the leading block of rows 0..s only (_tail, at
    the upper of the secant's two starting points, or at min(d) for a
    cold call).  Summed outward from the turning point, the decay
    exponents acosh((d_i - x) / radius_i) reach R = ln(_AIM_STOP
    max(|e|, 1) / abs_tol) / 2 at row s.  By Cauchy interlacing the
    block's smallest eigenvalue lies at or above T's, and by the decay
    it lies above it by about max|e| e^(-2R) = abs_tol / _AIM_STOP.
    That holds while the point the tail was found at is at or above
    the eigenvalue.  An estimate so low that the block's eigenvalue
    lies above that point, and the decay there stops short of R at row
    s, sends the call back as a cold one.

    The bisection is aimed before it narrows the bracket to the end.
    Secant steps on the twisted gap gamma_k(x) at the block's
    k = argmin(d) (see _twisted_gap; each step costs about one probe)
    find its root x, an estimate of the eigenvalue.  With a finite
    estimate (typically the eigenvalue a coarser grid predicts) they
    start at once from estimate -+ _AIM_SPREAD * abs_tol; without one
    (None, NaN or an infinity) they start from the bisection's own
    (lo, hi) once it is narrower than _AIM_START * abs_tol.  Probes at
    x - w * abs_tol and x + w * abs_tol for each w in _AIM_WIDTHS,
    nearest first and only where they lie inside the bracket, set lo
    and hi; a plain bisection finishes.
    """
    if d.shape[0] == 1:
        return float(d[0])
    e2, pivmin, radius, lower, reach = _matrix(d, e, abs_tol)
    estimate = math.nan if estimate is None else float(estimate)
    bottom, top = float(np.min(lower)), float(np.min(d))
    # _tail's d - x may overflow, to the infinity a Python float
    # subtraction gives, and its decay ratio divides by a zero radius
    with np.errstate(divide="ignore", over="ignore"):
        x_tail = estimate + _AIM_SPREAD * abs_tol if math.isfinite(estimate) else top
        s = _tail(d, radius, lower, x_tail, reach)
        lo, hi = _bisect(d[: s + 1], e2[: s + 1], pivmin, bottom, abs_tol, estimate)
        if hi > x_tail and _tail(d, radius, lower, hi, reach) > s:
            # the estimate lay too far below the eigenvalue for the tail
            # found at it: solve cold, with the tail at min(d)
            s = _tail(d, radius, lower, top, reach)
            lo, hi = _bisect(d[: s + 1], e2[: s + 1], pivmin, bottom, abs_tol, math.nan)
    return 0.5 * lo + 0.5 * hi


def _bisect(d, e2, pivmin, lo, abs_tol, estimate):
    """The final (lo, hi) of smallest_eigenvalue's aimed bisection on the
    tridiagonal (d, e2), e2 led by a 0, from lo up to min(d)."""
    k = int(np.argmin(d))
    hi = float(d[k])
    spread = _AIM_SPREAD * abs_tol
    warm = math.isfinite(estimate)
    # every walk of this call reads the same lists: about 80 B per row
    # (80 kB at 1000 rows, 640 kB at the 8000-cell cap), and they iterate
    # faster than memoryviews over numpy arrays
    top_down, bottom_up = _rows(d, e2)

    def gap(x):
        return _twisted_gap(*top_down, *bottom_up, k, x, pivmin)

    aim = True
    while hi - lo > abs_tol:
        if aim and (warm or hi - lo < _AIM_START * abs_tol):
            aim = False
            start = (estimate - spread, estimate + spread) if warm else (lo, hi)
            x = _secant_root(gap, *start, _AIM_STOP * abs_tol)
            for w in _AIM_WIDTHS:
                for point in (x - w * abs_tol, x + w * abs_tol):
                    if lo < point < hi:
                        if _pivot_below(*top_down, point, pivmin):
                            hi = point
                        else:
                            lo = point
            continue
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            break
        if _pivot_below(*top_down, mid, pivmin):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _rows(d, e2):
    """The block (d, e2), e2 led by a 0, as Python lists, for its walks.

    Returns the pairs (d, e2) top-down and (d, e2) reversed for the
    bottom-up walks, e2 again led by a 0.  The walks read Python floats,
    which skip numpy's per-element boxing; d and e2 hold one float
    object and one pointer per row, and the reversals a pointer to the
    same objects.
    """
    d, e2 = d.tolist(), e2.tolist()
    return (d, e2), (d[::-1], [0.0, *e2[:0:-1]])


def _pivots(d, e2, x, pivmin) -> np.ndarray:
    """Every LDL^T pivot of T - x*I, from the top down.

    Walks q_i = d_i - x - e2_i / q_(i-1) from q_(-1) = 1, e2 led by a
    0, the recurrence _pivot_below walks, but to the end, with each
    |q_i| < pivmin floored to -pivmin so that no pivot is an exact zero.
    """
    out = []
    append = out.append
    q, floor = 1.0, -pivmin
    for di, e2i in zip(d, e2):
        q = di - x - e2i / q
        if q < pivmin and q > floor:
            q = floor
        append(q)
    return np.array(out, dtype=float)


def eigenvector(d, e, sigma, abs_tol) -> np.ndarray:
    """Unit eigenvector of the symmetric tridiagonal (d, e) for the eigenvalue at sigma.

    d and e*e must be finite, as for smallest_eigenvalue, and sigma is
    that eigenvalue as smallest_eigenvalue bisected it to abs_tol.  One
    twisted factorization (Dhillon 1997; Parlett & Dhillon, Linear
    Algebra Appl. 309, 2000) of the leading block of rows 0..s, where s
    is _tail's row at the float above sigma + abs_tol: the top-down
    pivots D+ and the bottom-up pivots D- of the block minus sigma*I
    meet at the twist index k that minimizes |gamma_k| = |D+_k + D-_k - (d_k - sigma)|; 1 / gamma_k is
    the k-th diagonal entry of the inverse, largest where the
    eigenvector is.  With x_k = 1 the other entries follow outward as
    running products, x_i = -(e_i / D+_i) x_(i+1) for i < k and
    x_i = -(e_(i-1) / D-_i) x_(i-1) for k < i <= s, which solve the
    block's (T - sigma*I) x = gamma_k e_k exactly.  Entries past s are
    exactly 0.  When every e_i < 0 and the pivots used are positive, no
    entry of x is negative.  The result is scaled by its largest entry
    and then to unit length with a running (sequential) sum of squares.
    Entries that overflow come back non-finite, which the caller checks
    for.

    The cut is the bisection's (see smallest_eigenvalue), found at a
    point at or above the eigenvalue, as the bisection's must be: summed
    outward from the turning point, the decay exponents reach R at row
    s, so the entries dropped lie below about e^-R =
    sqrt(abs_tol / (_AIM_STOP max(|e|, 1))) of the amplitude at the
    turning point, and the block's eigenvector differs from T's by
    about as much.  With no cut (s = n - 1, as always where abs_tol is
    not finite and positive, save at rows that zero couplings isolate)
    the vector is the whole matrix's twisted factorization.
    """
    e2, pivmin, radius, lower, reach = _matrix(d, e, abs_tol)
    with np.errstate(divide="ignore", over="ignore"):
        # at or above the eigenvalue (sigma may lie an ulp below it where
        # abs_tol is under half its ulp): below it, the tail could cut off
        # a row that zero couplings isolate and that holds the state
        s = _tail(d, radius, lower, math.nextafter(sigma + abs_tol, math.inf), reach)
    top_down, bottom_up = _rows(d[: s + 1], e2[: s + 1])
    down = _pivots(*top_down, sigma, pivmin)
    up = _pivots(*bottom_up, sigma, pivmin)[::-1]
    shifted = d[: s + 1] - sigma
    x = np.zeros(d.shape[0])
    block = x[: s + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        k = int(np.argmin(np.abs(down + up - shifted)))
        block[k] = 1.0
        block[:k] = np.cumprod((-e[:k] / down[:k])[::-1])[::-1]
        block[k + 1 :] = np.cumprod(-e[k:s] / up[k + 1 :])
        block /= np.max(np.abs(block))
        block /= math.sqrt(float(np.add.accumulate(block * block)[-1]))
    return x
