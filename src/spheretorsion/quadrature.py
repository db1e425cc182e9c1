"""Split-aware adaptive Gauss-Kronrod quadrature on the real line.

Every integral in this library is one dimensional after circle reduction,
with integrands that are piecewise analytic and exponentially decaying.
The domain is cut at the known breakpoints (kinks of potentials, junctions
of piecewise families, atoms of measures); each piece is integrated with
QUADPACK's 21-point Gauss-Kronrod rule and its error estimate (Piessens
et al., QUADPACK, 1983), refined by cutting the subintervals holding the
most error into four equal parts, and the call fails loudly when the
summed estimate is not tiny.

Integrands take a numpy array of nodes. One refinement round evaluates the
integrand once, on the nodes of every live subinterval of every panel, and
an integrand returning shape (K, N) integrates K functions at once. The
first pass is speculative: it evaluates each mapped half-line panel
already graded, cut into quarters with the outermost quarter cut into
quarters again, the cuts the first two rounds nearly always made, and
falls back to the uncut panel only where a part is not finite. The table
of the whole line cut only at 0, the first pass of every call on a smooth
metric, is built once at import with its nodes and dt/du, read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """Quadrature (or a downstream numeric step) failed its own error budget."""


class ErrorEstimate(float):
    """The summed error estimate of an integral, with its parts per component.

    It is the float every budget check reads; `parts` holds the estimate of
    each component of a vector integral, shaped like its value, so rows
    sharing one call can still be charged their own error.
    """

    def __new__(cls, parts):
        parts = np.asarray(parts, dtype=float)
        self = super().__new__(cls, parts.sum())
        self.parts = parts
        return self


@dataclass(frozen=True)
class QuadConfig:
    # hard budget on the summed error estimate of one integrate_line call
    fail_tol: float = 5e-8


# the one failure budget of every integral, a constant as _EPSABS below is;
# integrate_line reads DEFAULT_QUAD.fail_tol when it is called
DEFAULT_QUAD = QuadConfig()

# the stop rule: each component's summed estimate meets max(_EPSABS, _EPSREL |I|)
_EPSABS = 1e-12
_EPSREL = 1e-12
# most subintervals one panel between splits may be cut into
_LIMIT = 300

# QUADPACK qk21: Kronrod nodes on [0, 1] (the 10-point Gauss nodes are the
# odd-indexed ones), Kronrod weights, Gauss weights
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980221119, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _symmetric(half):
    half = np.asarray(half, dtype=float)
    return np.concatenate([half[:-1], half[::-1]])


_X = _symmetric(_XGK) * np.r_[-np.ones(10), np.ones(11)]
_WK = _symmetric(_WGK)
_WG10 = _symmetric(np.r_[0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[4], 0.0])
_EPS = np.finfo(float).eps
# each refinement round cuts a chosen subinterval into this many equal
# parts, a power of two (_cuts halves repeatedly): a round's cost is mostly
# fixed numpy overhead, so quarters reach the tolerance in fewer rounds
# than halves
_SPLIT = 4
# the u-edges of a mapped half line in the speculative first pass: its
# _SPLIT quarters, the outermost (u in [0, 1/4]) cut into quarters again
_GRADED = np.array([0.0, 1 / 16, 1 / 8, 3 / 16, 1 / 4, 1 / 2, 3 / 4, 1.0])
_PER = len(_GRADED) - 1


def _clean_splits(splits):
    """The sorted finite split points, as an array.

    A point at most 1e-13 max(1, |p|) above its sorted predecessor is
    dropped, since near-duplicate breakpoints only add panels. The
    predecessor counts whether it is kept or not, so a chain of such
    points collapses to its first.
    """
    pts = np.asarray(splits, dtype=float)
    pts = np.sort(pts[np.isfinite(pts)])
    if pts.size < 2:  # no point has a predecessor to duplicate
        return pts
    far = np.ones(pts.size, dtype=bool)
    far[1:] = pts[1:] - pts[:-1] > 1e-13 * np.maximum(1.0, np.abs(pts[1:]))
    return pts[far]


def _first_pass(pts):
    """The first-pass table of the line cut at the cleaned split points pts.

    Returns (iv, panel, nf): iv has one column per subinterval, rows as
    quad reads them: the nf finite panels between the split points, then
    the two mapped half lines beyond the outermost ones, each cut at the
    u-edges _GRADED: the cuts the first two rounds nearly always make,
    since a tail decaying like e^{-c|t|} reads e^{-c(1-u)/u}/u^2 in u.
    panel holds the panel of each column: the finite panels, then the half
    lines. A line with no splits is cut at 0.
    """
    if not pts.size:
        pts = np.zeros(1)
    nf = pts.size - 1
    iv = np.zeros((4, nf + 2 * _PER))
    iv[0, :nf], iv[1, :nf] = pts[:-1], pts[1:]
    graded = iv[:, nf:].reshape(4, 2, _PER)
    graded[0], graded[1] = _GRADED[:-1], _GRADED[1:]
    graded[2, 0], graded[3, 0] = -1.0, pts[0]
    graded[2, 1], graded[3, 1] = 1.0, pts[-1]
    panel = np.arange(iv.shape[1])
    panel[nf:], panel[nf + _PER :] = nf, nf + 1
    return iv, panel, nf


def _cuts(a, b):
    """Rows (a, ..., b) of the _SPLIT + 1 points cutting each [a, b] into equal parts.

    The points are those repeated bisection would place.
    """
    c = np.empty((len(a), _SPLIT + 1))
    c[:, 0], c[:, -1] = a, b
    step = _SPLIT
    while step > 1:
        c[:, step // 2::step] = 0.5 * (c[:, :-1:step] + c[:, step::step])
        step //= 2
    return c


def _parts(iv, cuts):
    """Each column of iv cut into _SPLIT equal parts at its row of _cuts."""
    parts = np.repeat(iv, _SPLIT, axis=1)
    parts[0], parts[1] = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    return parts


def _merge(old, keep, new):
    """The columns of old chosen by keep, then those of new (last axis)."""
    return np.concatenate([old[..., keep], new], axis=-1)


def _nodes(iv):
    """quad's half widths, t-nodes (n, 21) and dt/du for the rows of iv.

    dt/du is None when no column is mapped, and otherwise exactly 1 on the
    finite columns.
    """
    a, b, kind, base = iv
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _X
    mapped = kind.nonzero()[0]
    if not mapped.size:
        return h, x, None
    u = x[mapped]
    x[mapped] = base[mapped, None] + kind[mapped, None] * (1.0 - u) / u
    jac = np.ones_like(x)
    jac[mapped] = u**-2
    return h, x, jac


def quad(f, iv):
    """One 21-point Gauss-Kronrod pass over every subinterval of iv at once.

    iv has rows (a, b, kind, base). kind 0 is the t-interval [a, b]; kind
    +1 or -1 is a u-interval [a, b] in (0, 1] standing for
    t = base + kind (1 - u) / u, with dt = du / u^2, the map of a half line
    used by QUADPACK's qagi. f is called once, on a fresh array of all
    nodes, and returns shape (N,) or (K, N); a scalar is broadcast. A
    writeable result is multiplied in place by dt/du, 1 on the finite
    columns; a read-only one is copied first. The nodes and dt/du of the
    unsplit line's table are built once; quad knows that table by identity.

    Returns the rule's values, QUADPACK's qk21 error estimates
    resasc min(1, (200 |K - G| / resasc)^1.5) floored at 50 eps resabs, and
    that floor, each shaped (n,) or (K, n).
    """
    if iv is _UNSPLIT_IV:
        h, x, jac = _UNSPLIT_NODES
        x = x.copy()
    else:
        h, x, jac = _nodes(iv)
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape[-1:] != (x.size,):
        y = np.broadcast_to(y, y.shape[:-1] + (x.size,)).copy()
    elif jac is not None and not y.flags.writeable:
        y = y.copy()
    y = y.reshape(y.shape[:-1] + x.shape)
    if jac is not None:
        y *= jac
    resk = y @ _WK
    # one scratch array for both absolute values keeps a K-row call lean
    buf = y - 0.5 * resk[..., None]
    resasc = (np.abs(buf, out=buf) @ _WK) * h
    floor = 50.0 * _EPS * (np.abs(y, out=buf) @ _WK) * h
    err = np.abs(resk - y @ _WG10) * h
    pos = resasc > 0
    ratio = 200.0 * err / np.where(pos, resasc, 1.0)
    err = np.where(pos, resasc * np.minimum(ratio, 1.0) ** 1.5, err)
    return resk * h, np.maximum(err, floor), floor


# the first-pass table of the whole line cut only at 0, the split set of
# every call on a smooth metric, and quad's nodes and dt/du for it: built
# once and read-only, so each such call reuses them, while refinement and
# the fall-back pass merge into new arrays
_UNSPLIT = _first_pass(np.zeros(0))
_UNSPLIT_IV = _UNSPLIT[0]
_UNSPLIT_NODES = _nodes(_UNSPLIT_IV)
for _a in (*_UNSPLIT[:2], *_UNSPLIT_NODES):
    _a.flags.writeable = False
del _a


def _refine(cuts, panel, err, floor, tol, short):
    """Mask of the subintervals to cut in this round; cuts holds their _cuts rows."""
    err, floor, tol = np.atleast_2d(err), np.atleast_2d(floor), np.atleast_1d(tol)
    # below the floor an estimate only moves between the parts, and a
    # subinterval too narrow for distinct cut points cannot be cut
    live = (err > floor) & (cuts[:, :-1] < cuts[:, 1:]).all(axis=1)
    e = np.where(live, err, 0.0)
    order = np.argsort(-e, axis=1)
    se = np.take_along_axis(e, order, axis=1)
    # per short component, its largest live estimates until what is left
    # over, dead ones included, is at most half its tolerance
    left = np.cumsum(se[:, ::-1], axis=1)[:, ::-1] + (err - e).sum(axis=1)[:, None]
    pick = (left > 0.5 * tol[:, None]) & (se > 0) & short[:, None]
    sel = np.zeros(len(cuts), dtype=bool)
    sel[order[pick]] = True
    # each cut adds _SPLIT - 1 subintervals; past a panel's room keep those
    # with the largest relative estimates
    room = (_LIMIT - np.bincount(panel)) // (_SPLIT - 1)
    if np.any(np.bincount(panel[sel], minlength=len(room)) > room):
        w = (err / tol[:, None]).max(axis=0)
        idx = np.flatnonzero(sel)
        idx = idx[np.lexsort((-w[idx], panel[idx]))]
        p = panel[idx]
        sel[idx[np.arange(len(idx)) - np.searchsorted(p, p) >= room[p]]] = False
    return sel


def integrate_line(f, splits=()):
    """Integrate f(t) dt over the line, splitting at knots.

    f takes an array of N nodes and returns N values, or shape (K, N) for K
    integrands sharing the evaluation; then the value has shape (K,). The
    kernel scales a writeable result of f in place, so f must not return
    an array it keeps between calls. The first pass evaluates every finite
    panel whole and, speculatively, each mapped half line already graded:
    four equal u-parts, the outermost (u in [0, 1/4]) cut into four equal
    parts again, seven in all; it runs with numpy's overflow and
    invalid-value warnings off. A half line keeps its parts when every one
    of them is finite; otherwise one more pass evaluates it whole, under
    the caller's numpy error settings, as if the cut had not been tried, so
    a tail the integrand cannot evaluate (0 * inf where e^t overflows, say)
    is entered only where the estimate asks for it. Each round then cuts
    the subintervals holding the most error into four equal parts until the
    summed estimate meets max(_EPSABS, _EPSREL |I|) for every component, no
    subinterval above the rounding floor is left, or no panel between
    splits has room for three more subintervals under _LIMIT. A line with
    no splits is cut at 0; its table, the one of every call whose splits
    are all 0, is built once at import.

    Returns (value, err), err an ErrorEstimate: the estimate summed over all
    panels, with err.parts the sum per component. Raises NumericalError
    when err exceeds DEFAULT_QUAD.fail_tol or the value is not finite.
    """
    if not any(splits):
        iv, panel, nf = _UNSPLIT
    else:
        iv, panel, nf = _first_pass(_clean_splits(splits))
    # a half line whose parts are not all finite is evaluated uncut instead,
    # at the cost of one more pass, so a tail the integrand cannot reach is
    # only entered where the estimate asks for it. The nodes it throws away
    # may overflow, so that pass is silent about it; a non-finite value
    # that is kept still ends in the "diverged" error below.
    with np.errstate(over="ignore", invalid="ignore"):
        val, err, floor = quad(f, iv)
    # a part is at most 1/4 wide in u and its estimate is floored at 50 eps
    # times the rule on |f|, so a finite estimate implies a finite value
    if not np.isfinite(err[..., nf:]).all():
        ok = np.isfinite(err[..., nf:]).reshape(-1, 2, _PER).all(axis=(0, 2))
        whole = iv[:, nf::_PER][:, ~ok]
        whole[0], whole[1] = 0.0, 1.0
        keep = np.concatenate((np.ones(nf, dtype=bool), ok.repeat(_PER)))
        v, e, fl = quad(f, whole)
        iv, panel = _merge(iv, keep, whole), _merge(panel, keep, nf + np.flatnonzero(~ok))
        val, err, floor = _merge(val, keep, v), _merge(err, keep, e), _merge(floor, keep, fl)
    while True:
        total, est = val.sum(axis=-1), err.sum(axis=-1)
        if not np.isfinite(total).all():
            raise NumericalError(f"integral diverged: value={total}")
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        short = est > tol
        if not short.any():
            break
        cuts = _cuts(iv[0], iv[1])
        sel = _refine(cuts, panel, err, floor, tol, np.atleast_1d(short))
        if not sel.any():
            break
        parts = _parts(iv[:, sel], cuts[sel])
        v, e, fl = quad(f, parts)
        keep = ~sel
        iv, panel = _merge(iv, keep, parts), _merge(panel, keep, np.repeat(panel[sel], _SPLIT))
        val, err, floor = _merge(val, keep, v), _merge(err, keep, e), _merge(floor, keep, fl)
    err, budget = ErrorEstimate(est), DEFAULT_QUAD.fail_tol
    if not err <= budget:
        raise NumericalError(f"quadrature error estimate {err:.3e} exceeds budget {budget:.1e}")
    return (float(total) if total.ndim == 0 else total), err
