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
result lies within abs_tol of the smallest eigenvalue.  One routine
(_aim) aims it by the twisted factorization: secant steps on the gap
gamma_k(x) of T - x*I at one fixed index k, which vanishes at the
eigenvalue, start around the caller's estimate (or, without one, from
the ends of a bracket that a plain bisection has first halved), and
probes either side of their root set the bracket that the same plain
bisection (_halve) then finishes.

On a domain much wider than the state, most of each walk would run
through rows where the state has long decayed.  Every walk stops
there: past a row s where the decay from the turning point is deep
enough, the rest of the matrix moves the smallest eigenvalue by well
under abs_tol, so the bisection solves the leading block of rows
0..s.  One helper (_matrix) sets up the matrix, the reach that ends
the block included, and a bisection cuts one block (a second only
where its estimate lay too low) and turns it into Python lists once
(_rows).  It hands that block on with the eigenvalue (Eigenvalue), and
the eigenvector is that block's, exactly 0 past it: the entries it
drops lie below about sqrt(abs_tol / (64 max|e|)) of the peak.  A call
without an estimate cuts its block far above the eigenvalue, so the
block it hands on is cut again, once and only when it is first read:
such a call is a grid ladder's first level, which is almost never its
finest.  The eigenvector sets up nothing of its own: it twists once at
the index the aim's secant twists at (_twisted), and twists again only
where that index misses the state.  The secant's walks are the same,
but keep only their last pivots (_last_pivot, _twisted_gap), with the
same operations in the same order, so gamma_k has the same bits.
Every walk subtracts x from d_i in its loop: a Python float
subtraction gives the bits numpy's d - x would.
"""

import math
from itertools import islice

import numpy as np

# Smallest normal double; pivot floors scale from this so the Sturm
# recurrence never divides by an exact zero.
_SAFMIN = 2.2250738585072014e-308
# Aiming the bisection (see smallest_eigenvalue and _aim): a call with
# a finite estimate starts its secant from _AIM_SPREAD * abs_tol either
# side of it, a call without one from the ends of its bracket once
# halving has made that no wider than _AIM_START * abs_tol, over the
# same block; the secant takes at most _AIM_STEPS steps and stops at a
# step within _AIM_STOP * abs_tol; then x -+ w * abs_tol around its
# root x are probed for each w in _AIM_WIDTHS, nearest first, wherever
# they lie inside the bracket (0.4, not 0.5: x -+ 0.5 abs_tol often
# round to a bracket an ulp wider than abs_tol, which then takes one
# more probe).  The leading block's smallest eigenvalue lies about
# abs_tol / _AIM_STOP above T's.
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


def _pivot_list(d, e2, x, pivmin) -> list:
    """Every LDL^T pivot of T - x*I, over any iterables d and e2.

    Walks q_i = d_i - x - e2_i / q_(i-1) from q_(-1) = 1, e2 led by a
    0, the recurrence _pivot_below walks, but to the end, with each
    |q_i| < pivmin floored to -pivmin so that no pivot is an exact zero.
    """
    out, q, floor = [], 1.0, -pivmin
    append = out.append
    for di, e2i in zip(d, e2):
        q = di - x - e2i / q
        if q < pivmin and q > floor:
            q = floor
        append(q)
    return out


def _twisted(rows, k, x, pivmin):
    """The twisted factorization at index k of the block rows (see
    _rows) minus x*I: the top-down pivots D+ of rows 0..k-1, the
    bottom-up pivots D- of rows s..k+1 in that order, one walk of each
    row but k, and the gap gamma_k = d_k - x - e2_k / D+_(k-1) -
    e2_(k+1) / D-_(k+1).  gamma_k is 1 / [(T - x*I)^-1]_kk, so as a
    function of x it vanishes at an eigenvalue and is near linear close
    to one.
    """
    (d, e2), (d_up, e2_up) = rows
    down = _pivot_list(islice(d, k), e2, x, pivmin)
    up = _pivot_list(islice(d_up, len(d) - 1 - k), e2_up, x, pivmin)
    return down, up, d[k] - x - (e2[k] / down[-1] if down else 0.0) - (e2[k + 1] / up[-1] if up else 0.0)


def _last_pivot(d, e2, x, pivmin) -> float:
    """The last pivot of _pivot_list(d, e2, x, pivmin), over any
    iterables, with no list kept."""
    q, floor = 1.0, -pivmin
    for di, e2i in zip(d, e2):
        q = di - x - e2i / q
        if q < pivmin and q > floor:
            q = floor
    return q


def _twisted_gap(rows, k, x, pivmin) -> float:
    """gamma_k of _twisted alone, for the aim's secant: the same walks,
    operations and order, keeping only each walk's last pivot."""
    (d, e2), (d_up, e2_up) = rows
    below = len(d) - 1 - k
    gap = d[k] - x - (e2[k] / _last_pivot(islice(d, k), e2, x, pivmin) if k else 0.0)
    return gap - (e2[k + 1] / _last_pivot(islice(d_up, below), e2_up, x, pivmin) if below else 0.0)


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
    when the sum stays short of reach before the last row.
    """
    n = d.shape[0]
    t = n - 1 - int(np.argmax(lower[::-1] <= x))
    # d - x may overflow, to the infinity a Python float subtraction
    # gives, and the decay ratio divides by a zero radius
    with np.errstate(divide="ignore", over="ignore"):
        decay = (d[t + 1 :] - x) / radius[t + 1 :]
        s = t + 1 + int(np.searchsorted(np.cumsum(np.arccosh(decay, out=decay), out=decay), reach))
    return min(s, n - 1)


def _matrix(d, e, abs_tol):
    """What the bisection reads of the tridiagonal (d, e) besides d.

    e2 (e2_i = e_(i-1)^2 couples row i to the row above it, so e2_0 =
    0), the pivot floor pivmin = _SAFMIN max(max e2, 1), a normal
    number, each row's Gershgorin radius and lower end, and the reach
    R = ln(_AIM_STOP max|e| / abs_tol) / 2, or 0 where that is
    negative, at which _tail ends the leading block.  R is infinite,
    so that no block is cut, unless 0 < abs_tol < inf and max e2 > 0.
    """
    n = d.shape[0]
    e2 = np.zeros(n)
    np.multiply(e, e, out=e2[1:])
    abs_e = np.abs(e)
    e_max = float(np.max(abs_e, initial=0.0))
    radius = np.zeros(n)
    radius[1:] = abs_e
    radius[:-1] += abs_e
    # a tail this far past the turning point moves the smallest
    # eigenvalue by about max|e| e^(-2 reach) = abs_tol / _AIM_STOP, a
    # ratio of the matrix's own scale to abs_tol, so that a matrix and
    # tolerance scaled by a power of two cut the same block
    ratio = _AIM_STOP * e_max / abs_tol if 0.0 < abs_tol < math.inf and e_max * e_max > 0.0 else math.inf
    return e2, _SAFMIN * max(e_max * e_max, 1.0), radius, d - radius, 0.5 * math.log(max(ratio, 1.0))


class Eigenvalue(float):
    """smallest_eigenvalue's result: the eigenvalue, a float, that also
    holds in block the leading block of rows 0..s it was bisected over,
    for eigenvector: (rows, k, pivmin, e, abs_tol), its _rows lists, the
    aim's index k = argmin(d) over it, _matrix's pivmin, the whole
    matrix's off-diagonal e, whose first s entries couple the block's
    rows, and the bisection's abs_tol.  block is given either as that
    tuple or as a function that cuts it, which runs on the first read
    of block alone; the tuple it returns is kept."""

    def __new__(cls, value, block):
        self = super().__new__(cls, value)
        self._block = block
        return self

    @property
    def block(self):
        if callable(self._block):
            self._block = self._block()
        return self._block


def smallest_eigenvalue(d, e, abs_tol, estimate=None) -> Eigenvalue:
    """Smallest eigenvalue of the symmetric tridiagonal (d, e) by bisection.

    d and e*e must be finite (discretize rejects any other matrix).  The
    result lies within abs_tol of the smallest eigenvalue, or within a
    few ulps of it where abs_tol is below the eigenvalue's ulp: the
    bisection stops once its bracket is narrower than abs_tol, or once
    the midpoint is no longer representable strictly inside it.  The
    bracket runs from Gershgorin's lower end to min(d), the Rayleigh
    quotient of a unit vector.  It is an Eigenvalue, a float that holds
    the block it was bisected over, which eigenvector takes.

    Each probe only asks whether any eigenvalue lies at or below x, that
    is, whether any LDL^T pivot q is nonpositive once pivots with
    |q| < pivmin are floored to -pivmin.  A floored pivot is
    nonpositive, so the answer is yes exactly when some raw q < pivmin,
    and the probe stops there; a floored pivot is thus never fed back
    into the recurrence.

    Every walk runs over one leading block of rows 0..s (_tail, at the
    upper of the secant's two starting points, or at min(d) for a call
    without a finite estimate).  Summed outward from the turning point,
    the decay exponents acosh((d_i - x) / radius_i) reach R =
    ln(_AIM_STOP max|e| / abs_tol) / 2 at row s.  By Cauchy
    interlacing the block's smallest eigenvalue lies at or above T's,
    and by the decay it lies above it by about max|e| e^(-2R) = abs_tol
    / _AIM_STOP.  That holds while the point the tail was found at is at
    or above the eigenvalue.  An estimate so low that the block's
    eigenvalue lies above that point, and the decay there stops short
    of R at row s, sends the call on to the path without an estimate.
    The block handed back is the one _tail cuts at hi, the top of the
    bisection's last bracket, at or above the eigenvalue: a call with an
    estimate hands on its own block, which the check above finds to be
    that one, and a call without cuts it again there, for eigenvector
    alone, once the result's block is first read.

    The bisection is aimed before it narrows the bracket to the end
    (_aim).  Secant steps on the twisted gap gamma_k(x) at the block's
    k = argmin(d) (_twisted_gap; each step costs about one probe)
    find its root x, an estimate of the eigenvalue.  With a finite
    estimate (typically the eigenvalue a coarser grid predicts) they
    start at once from estimate -+ _AIM_SPREAD * abs_tol; without one
    (None, NaN or an infinity) a plain bisection first halves the
    bracket until it is no wider than _AIM_START * abs_tol, and they
    start from its ends.  Probes at x - w * abs_tol and x + w * abs_tol
    for each w in _AIM_WIDTHS, nearest first and only where they lie
    inside the bracket, set lo and hi; the plain bisection finishes.
    """
    e2, pivmin, radius, lower, reach = _matrix(d, e, abs_tol)
    bottom = float(np.min(lower))
    estimate = math.nan if estimate is None else float(estimate)
    if math.isfinite(estimate):
        spread = _AIM_SPREAD * abs_tol
        x_tail = estimate + spread
        s = _tail(d, radius, lower, x_tail, reach)
        k, rows = _block(d, e2, s)
        lo, hi = _aim(rows, k, pivmin, bottom, float(d[k]), abs_tol, estimate - spread, x_tail)
        if not (hi > x_tail and _tail(d, radius, lower, hi, reach) > s):
            return Eigenvalue(0.5 * lo + 0.5 * hi, (rows, k, pivmin, e, abs_tol))
        # the estimate lay too far below the eigenvalue for the tail
        # found at it: solve as without one
    k, rows = _block(d, e2, _tail(d, radius, lower, float(np.min(d)), reach))
    lo, hi = _halve(rows[0], pivmin, bottom, float(d[k]), _AIM_START * abs_tol)
    lo, hi = _aim(rows, k, pivmin, lo, hi, abs_tol, lo, hi)

    # min(d) lies far above the eigenvalue, and the block cut there runs
    # deep into the tail, where the vector underflows to 0; a cold call
    # is rarely a ladder's finest level, so the block is cut again at hi
    # only when eigenvector reads it
    def cut():
        k, rows = _block(d, e2, _tail(d, radius, lower, hi, reach))
        return rows, k, pivmin, e, abs_tol

    return Eigenvalue(0.5 * lo + 0.5 * hi, cut)


def _block(d, e2, s):
    """The leading block of rows 0..s of the tridiagonal (d, e2), e2 led
    by a 0: the aim's index k = argmin(d) over the block, and its _rows
    lists."""
    # every walk reads the block's lists: about 80 B per row (80 kB at
    # 1000 rows, 655 kB at the 8192-cell cap), and they iterate faster
    # than memoryviews over numpy arrays
    return int(np.argmin(d[: s + 1])), _rows(d[: s + 1], e2[: s + 1])


def _aim(rows, k, pivmin, lo, hi, abs_tol, x0, x1):
    """The bracket (lo, hi) of the block rows (see _block) narrowed to
    abs_tol: secant steps on gamma_k from x0 and x1, the _AIM_WIDTHS
    probes either side of their root, then _halve."""
    if hi - lo > abs_tol:
        x = _secant_root(lambda x: _twisted_gap(rows, k, x, pivmin), x0, x1, _AIM_STOP * abs_tol)
        for w in _AIM_WIDTHS:
            for point in (x - w * abs_tol, x + w * abs_tol):
                if lo < point < hi:
                    if _pivot_below(*rows[0], point, pivmin):
                        hi = point
                    else:
                        lo = point
    return _halve(rows[0], pivmin, lo, hi, abs_tol)


def _halve(top_down, pivmin, lo, hi, width):
    """Plain bisection of the bracket (lo, hi) by probes over the block
    top_down, until it is no wider than width or its midpoint no longer
    lies strictly inside it."""
    while hi - lo > width:
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


def _vector(e, k, down, up) -> np.ndarray:
    """The twisted factorization's vector at k with x_k = 1, for the
    top-down pivots down of rows 0..k-1 and the bottom-up pivots up of
    rows s..k+1 (see _twisted), and 0 past s: running products outward
    from k, x_i = -(e_i / D+_i) x_(i+1) for i < k and x_i = -(e_(i-1) /
    D-_i) x_(i-1) for k < i <= s, which solve the block's
    (T - sigma*I) x = gamma_k e_k exactly."""
    x = np.zeros(e.shape[0] + 1)
    x[k] = 1.0
    x[:k] = np.cumprod((-e[:k] / np.array(down))[::-1])[::-1]
    x[k + 1 : k + 1 + len(up)] = np.cumprod(-e[k : k + len(up)] / np.array(up[::-1]))
    return x


def eigenvector(block, sigma) -> np.ndarray:
    """Unit eigenvector of the tridiagonal (d, e) for its smallest eigenvalue sigma.

    sigma is smallest_eigenvalue's result for (d, e) and block the block
    it was bisected over (sigma.block): the leading block of rows 0..s,
    cut at or above the eigenvalue.  One twisted factorization (Dhillon
    1997; Parlett & Dhillon, Linear Algebra Appl. 309, 2000) of the
    block minus sigma*I at the aim's index k = argmin(d), the one the
    aim's secant walks (_twisted_gap), with the same walks (_twisted):
    the top-down pivots D+ of rows 0..k-1 and the bottom-up pivots D-
    of rows s..k+1, one walk of each row but k, and x_k = 1 (_vector).
    The vector solves (T - sigma*I) x = gamma_k e_k, so gamma_k / max|x|
    is the residual of x scaled to its peak.  Twisted at its largest
    entry, that residual is at most about n |lambda - sigma| for an n-row
    matrix, and |lambda - sigma| is at most abs_tol plus the pivots'
    round-off, about an ulp of max|e|.  Where the state is not at k (a
    two-well potential can put argmin(d) in the other well, and a
    random matrix's state lies anywhere), the residual is larger: past
    n (abs_tol + ulp(max|e|)), both walks run over the whole block and
    the vector twists once more, at the first index of the least
    |gamma_j| = |D+_j + D-_j - (d_j - sigma)|, where 1 / gamma_j, the
    j-th diagonal entry of the inverse, is largest.  Entries past s are
    exactly 0.  When every e_i < 0 and the pivots used are positive, no
    entry of x is negative.  The result is scaled by its largest entry
    and then to unit length with a running (sequential) sum of squares.
    Entries that overflow come back non-finite, which the caller checks
    for.

    Summed outward from the turning point, the decay exponents reach R
    at row s, so the entries dropped lie below about e^-R =
    sqrt(abs_tol / (_AIM_STOP max|e|)) of the amplitude at the turning
    point, and the block's eigenvector differs from T's by about as
    much.  With no cut (s = n - 1, as always where abs_tol is not finite
    and positive or e is 0, save at rows that zero couplings isolate)
    the vector is the whole matrix's twisted factorization.
    """
    rows, k, pivmin, e, abs_tol = block
    down, up, gamma = _twisted(rows, k, sigma, pivmin)
    bound = (e.shape[0] + 1) * (abs_tol + math.ulp(float(np.max(np.abs(e), initial=0.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        x = _vector(e, k, down, up)
        if not abs(gamma) <= bound * np.max(np.abs(x)):
            (d, e2), (d_up, e2_up) = rows
            down, up = _pivot_list(d, e2, sigma, pivmin), _pivot_list(d_up, e2_up, sigma, pivmin)[::-1]
            k = int(np.argmin(np.abs(np.add(down, up) - np.subtract(d, sigma))))
            x = _vector(e, k, down[:k], up[:k:-1])
        x /= np.max(np.abs(x))
        x /= math.sqrt(float(np.add.accumulate(x * x)[-1]))
    return x
