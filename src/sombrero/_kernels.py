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

The bisection is aimed by the twisted factorization too.  The caller
may pass one estimate of the eigenvalue, and the kernel decides the
rest: secant steps on the gap gamma_k(x) of T - x*I at one fixed index
k, which vanishes at the eigenvalue, start around that estimate (or,
without one, from the bisection's own bracket) and stop once a step is
within 64 abs_tol.  The bisection's own halvings are then
replayed as if the eigenvalue sat at the secant's root, and probes at
both ends of the bracket the replay ends in answer every question the
bisection will ask from there on; when the root is off, the outer ends
of the replays for points further out follow.  A probe's answer is
monotone in the probe point, so a known answer only lets the bisection
skip a probe; the bisection's own sequence of brackets, and so its
result, stays bit for bit the one without an estimate (see
smallest_eigenvalue).

On a domain much wider than the state, most of each walk runs through
rows where the state has long decayed.  Once aimed, the walks stop
there: the aim's gamma_k walks start where the decay from the turning
point has gone deep enough that the rest moves their root by well
under abs_tol, and a probe whose pivot at that row is at or above a
bound answers no at once, which a dominance margin on every later row,
computed with the probe's own rounding, proves the full walk's answer.
Every walk reads d - x from one buffer that numpy fills with the
subtraction a Python float would make.
"""

import math
from itertools import chain

import numpy as np

# Smallest normal double; pivot floors scale from this so the Sturm
# recurrence never divides by an exact zero.
_SAFMIN = 2.2250738585072014e-308
# Aiming the bisection (see smallest_eigenvalue): a call with a finite
# estimate starts its secant from _AIM_SPREAD * abs_tol either side of
# it, a cold call from its own bracket once that is narrower than
# _AIM_START * abs_tol; the secant takes at most _AIM_STEPS steps and
# stops at a step within _AIM_STOP * abs_tol; after the ends of the
# replayed final bracket for the secant's root x, the outer ends of
# those for x -+ w * abs_tol are probed for each w in _AIM_WIDTHS,
# nearest first, until one probe answers no and one yes.
_AIM_START = 2.0**30
_AIM_SPREAD = 1e6
_AIM_STEPS = 5
_AIM_STOP = 64.0
_AIM_WIDTHS = (1.0, 4.0, 64.0, 1024.0)


def _pivot_below(shifted, e2, pivmin, bound=math.inf, shifted_tail=(), e2_tail=()) -> bool:
    """Whether some LDL^T pivot of a shifted tridiagonal falls below pivmin.

    Walks q_i = shifted_i - e2_i / q_(i-1) from q_(-1) = 1, over shifted
    and e2, then on over shifted_tail and e2_tail, and stops at the first
    q_i < pivmin, so a pivot under the floor is never divided by.  e2_i
    couples row i to the row above it, so the walk's first e2 is 0.
    Between the two parts it answers no once the pivot is at or above
    bound, which smallest_eigenvalue passes only where that is the answer
    of the walk to the end (see there).
    """
    q = 1.0
    for rows in (zip(shifted, e2), zip(shifted_tail, e2_tail)):
        for si, e2i in rows:
            q = si - e2i / q
            if q < pivmin:
                return True
        if q >= bound:
            return False
    return False


def _last_pivot(shifted, e2, pivmin) -> float:
    """Last pivot of _pivots(shifted, e2, pivmin), over memoryviews."""
    q, floor = 1.0, -pivmin
    for si, e2i in zip(shifted, chain((0.0,), e2)):
        q = si - e2i / q
        if q < pivmin and q > floor:
            q = floor
    return q


def _twisted_gap(shifted, e2, k, pivmin) -> float:
    """gamma_k = shifted_k - e2_(k-1) / D+_(k-1) - e2_k / D-_(k+1).

    The twisted factorization's gap at index k (see eigenvector) of the
    tridiagonal with diagonal shifted = d - x and squared off-diagonal
    e2, from a top-down walk to k - 1 and a bottom-up walk to k + 1 over
    memoryviews; it is 1 / [(T - x*I)^-1]_kk, so as a function of x it
    vanishes at an eigenvalue and is near linear close to one.
    """
    gap = shifted[k]
    if k > 0:
        gap -= e2[k - 1] / _last_pivot(shifted[:k], e2[: k - 1], pivmin)
    if k < len(shifted) - 1:
        gap -= e2[k] / _last_pivot(shifted[:k:-1], e2[:k:-1], pivmin)
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


def _final_bracket(lo, hi, x, abs_tol):
    """The (lo, hi) the bisection in smallest_eigenvalue ends in when every
    probe at or above x answers yes: its halvings and stop rules, replayed
    without a probe."""
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid >= x:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _aim_points(lo, hi, x, abs_tol):
    """The aim's probe points, nearest first, each replayed only when asked for:
    both ends of the final bracket for x, then for each w in _AIM_WIDTHS
    the outer ends of those for x - w * abs_tol and x + w * abs_tol."""
    yield from _final_bracket(lo, hi, x, abs_tol)
    for w in _AIM_WIDTHS:
        yield _final_bracket(lo, hi, x - w * abs_tol, abs_tol)[0]
        yield _final_bracket(lo, hi, x + w * abs_tol, abs_tol)[1]


def _tail(d, e2, abs_e, radius, lower, pivmin, x, reach):
    """The row s where the walks of T - x*I may stop, and what stopping needs.

    The turning point t is the last row whose Gershgorin disc reaches
    down to x (its lower end in lower; n - 1, so no tail, when none
    does).  Summed outward from t, the decay exponents
    acosh((d_i - x) / radius_i) first reach reach at row s.  One numpy
    pass over the rows past t returns s, the least margin m_i of the
    rows past s, and s's pivot bound b_s (see smallest_eigenvalue); or
    n - 1, -inf and inf when the sum stays short of reach before the
    last row.  e2 is led by a 0, as the probes take it.  d - x may
    overflow, and a zero radius divide, under the caller's errstate.
    """
    n = d.shape[0]
    t = n - 1 - int(np.argmax(lower[::-1] <= x))
    decay = (d[t + 1 :] - x) / radius[t + 1 :]
    s = t + 1 + int(np.searchsorted(np.cumsum(np.arccosh(decay, out=decay), out=decay), reach))
    if s >= n - 1:
        return n - 1, -math.inf, math.inf
    b = np.maximum(abs_e[s:], pivmin)
    need = e2[s + 1 :] / b
    need[:-1] += b[1:]
    need[-1] += pivmin
    margin = np.nextafter(d[s + 1 :] - np.nextafter(need, math.inf), -math.inf)
    return s, float(margin.min()), float(b[0])


def smallest_eigenvalue(d, e, abs_tol, estimate=None):
    """Smallest eigenvalue of the symmetric tridiagonal (d, e) by bisection.

    d and e*e must be finite (discretize rejects any other matrix).
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
    recurrence.

    The bisection is aimed before it narrows the bracket to the end.
    Secant steps on the twisted gap gamma_k(x) at k = argmin(d) (see
    _twisted_gap; each step costs about one probe) find its root x, an
    estimate of the eigenvalue.  With a finite estimate (typically the
    eigenvalue a coarser grid predicts) they start at once from
    estimate -+ _AIM_SPREAD * abs_tol; without one (None, NaN or an
    infinity) they start from the bisection's own (lo, hi) once it is
    narrower than _AIM_START * abs_tol.  From the current (lo, hi), the
    bisection's own halvings are replayed as if the eigenvalue sat at x
    (_final_bracket), and both ends of the bracket that replay ends in
    are probed first: when they answer no and yes, every later mid lies
    at or beyond one of them and needs no probe.  Failing that come the
    outer ends of the brackets the replay ends in for x - w * abs_tol
    and x + w * abs_tol, for each w in _AIM_WIDTHS (_aim_points), each
    probed only while its answer is not yet known, until one probe has
    answered no and one yes.  The estimate and x change how long the
    bisection takes, never its result.  The computed answer is
    monotone in the probe point x: for x <= x', fl(d_0 - x) >=
    fl(d_0 - x'), because round-to-nearest subtraction is
    monotone in each argument (overflow to infinity included).  If
    q_(i-1)(x) >= q_(i-1)(x') >= pivmin > 0, then with e2_i >= 0,
    fl(e2_i / q_(i-1)(x)) <= fl(e2_i / q_(i-1)(x')), as division by a
    positive number is monotone too, and that quotient is finite since
    e2_i / pivmin <= 1 / SAFMIN; so q_i(x) >= q_i(x').  By induction
    every pivot at x is at least the one at x', up to the first pivot at
    x' under pivmin.  Hence "no" at x means "no" at every point <= x, and
    "yes" at x' means "yes" at every point >= x'.  The bisection keeps
    the largest point that answered no and the smallest that answered
    yes, and a later mid at or beyond one of them takes the known answer
    without walking the recurrence: the (lo, hi) sequence, and so the
    result, is bit for bit the one without an aim.

    The aim also cuts the walks short in the matrix's tail, where the
    state has long decayed (_tail, at the upper of the secant's two
    starting points).  Summed outward from the turning point, the decay
    exponents acosh((d_i - x) / radius_i) reach R = ln(_AIM_STOP
    max(|e|, 1) / abs_tol) / 2 at a row s.  The gamma_k walks start at row
    max(s, k + 1), as if the matrix ended there; that moves gamma_k's
    root by about max|e| e^(-2R) = abs_tol / _AIM_STOP, which like the
    rest of the aim changes only how many probes the bisection makes.
    A probe at a point x at or below x_cut stops at row s with "no" if
    its pivot q_s is at or above b_s, and that is the answer of the
    walk to the end.  With e2_i = e_(i-1)^2 as the walk takes it, let
    b_i = max(|e_i|, pivmin) (b_(n-1) = pivmin), c_i =
    fl(e2_i / b_(i-1)), need_i = succ(fl(c_i + b_i)) and margin m_i =
    pred(fl(d_i - need_i)), where succ and pred step to the next float
    up and down, so that need_i >= c_i + b_i and m_i <= d_i - need_i
    exactly (a rounded value's two neighbours bracket the exact one);
    x_cut is the least m_i over i > s.  If q_(i-1) >= b_(i-1) > 0 and
    x <= m_i, then fl(e2_i / q_(i-1)) <= c_i, division by a positive
    number being monotone (and the quotient 0 for an infinite pivot);
    d_i - x >= need_i, so fl(d_i - x) >= need_i as need_i is a float;
    their difference is at least need_i - c_i >= b_i, and so is its
    rounding q_i, b_i being a float.  By induction from q_s >= b_s,
    every later pivot is at least its b_i >= pivmin: no pivot past s
    falls under the floor, and the walk's boolean is the full walk's.
    """
    n = d.shape[0]
    if n == 1:
        return float(d[0])
    # e2[i] = e_(i-1)^2 couples row i to the row above it; e2[0] = 0
    e2 = np.zeros(n)
    np.multiply(e, e, out=e2[1:])
    e2_max = float(np.max(e2, initial=1.0))
    pivmin = _SAFMIN * e2_max

    abs_e = np.abs(e)
    radius = np.zeros(n)
    radius[1:] = abs_e
    radius[:-1] += abs_e
    # the first extreme end, as a running `if x < lo` (`> hi`) loop keeps
    # it, so a tie between 0.0 and -0.0 keeps the loop's sign
    lower, upper = d - radius, d + radius
    lo = float(lower[np.argmin(lower)])
    hi = float(upper[np.argmax(upper)])

    # each walk reads d - x from one buffer, which numpy fills with the
    # subtraction a Python float would do; memoryviews hand out one
    # Python float at a time (a tolist() copy iterates ~15% faster but
    # holds n float objects per array)
    shifted = np.empty(n)
    sv, e2v = memoryview(shifted), memoryview(e2)
    walk = (sv, e2v, pivmin)
    # until the aim no probe stops at the tail; gap runs only in the aim,
    # which first sets the gap_args it reads
    x_cut, cut = -math.inf, walk
    k = int(np.argmin(d))

    def pivot_below(x):
        np.subtract(d, x, out=shifted)
        return _pivot_below(*(cut if x <= x_cut else walk))

    def gap(x):
        np.subtract(d, x, out=shifted)
        return _twisted_gap(*gap_args)

    known_no, known_yes = -math.inf, math.inf
    estimate = math.nan if estimate is None else float(estimate)
    warm = math.isfinite(estimate)
    aim = True
    # numpy's d - x overflows where a Python float subtraction would, to
    # the same infinity, and _tail's decay ratio divides by a zero radius
    with np.errstate(divide="ignore", over="ignore"):
        while hi - lo > abs_tol:
            if aim and (warm or hi - lo < _AIM_START * abs_tol):
                aim = False
                spread = _AIM_SPREAD * abs_tol
                start = (estimate - spread, estimate + spread) if warm else (lo, hi)
                # a tail this far past the turning point moves gamma_k's
                # root by about max|e| e^(-2 reach) = abs_tol / _AIM_STOP
                reach = 0.5 * math.log(_AIM_STOP * math.sqrt(e2_max) / abs_tol) if abs_tol > 0.0 else math.inf
                s, x_cut, bound = _tail(d, e2, abs_e, radius, lower, pivmin, start[1], reach)
                cut = (sv[: s + 1], e2v[: s + 1], pivmin, bound, sv[s + 1 :], e2v[s + 1 :])
                top = max(s, k + 1)
                gap_args = (sv[: top + 1], e2v[1 : top + 1], k, pivmin)
                x = _secant_root(gap, *start, _AIM_STOP * abs_tol)
                points = _aim_points(lo, hi, x, abs_tol) if math.isfinite(x) else ()
                for point in points:
                    # only a point strictly between the known answers adds one
                    if known_no < point < known_yes:
                        if pivot_below(point):
                            known_yes = point
                        else:
                            known_no = point
                    if -math.inf < known_no and known_yes < math.inf:
                        break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if mid >= known_yes or (mid > known_no and pivot_below(mid)):
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
    out = []
    append = out.append
    # q_0 = shifted_0 - 0 / 1 starts the recurrence with no special case
    q, floor = 1.0, -pivmin
    for si, e2i in zip(memoryview(shifted), chain((0.0,), memoryview(e2))):
        q = si - e2i / q
        if q < pivmin and q > floor:
            q = floor
        append(q)
    return np.array(out, dtype=float)


def eigenvector(d, e, sigma) -> np.ndarray:
    """Unit eigenvector of the symmetric tridiagonal (d, e) for the eigenvalue at sigma.

    d and e*e must be finite, as for smallest_eigenvalue.  One twisted
    factorization of T - sigma*I (Dhillon 1997; Parlett & Dhillon,
    Linear Algebra Appl. 309, 2000): the top-down pivots D+ and
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
    back non-finite, which the caller checks for.
    """
    shifted = d - sigma
    e2 = e * e
    pivmin = _SAFMIN * float(np.max(e2, initial=1.0))
    down = _pivots(shifted, e2, pivmin)
    up = _pivots(shifted[::-1], e2[::-1], pivmin)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        k = int(np.argmin(np.abs(down + up - shifted)))
        x = np.ones(d.shape[0])
        x[:k] = np.cumprod((-e[:k] / down[:k])[::-1])[::-1]
        x[k + 1 :] = np.cumprod(-e[k:] / up[k + 1 :])
        x /= np.max(np.abs(x))
        x /= math.sqrt(float(np.add.accumulate(x * x)[-1]))
    return x
