"""Catalog of S^1-invariant metrics on O(m), plus the continuity counterexample.

Potentials live in t = log|z|^2. The catalog:

  fubini_study(m):  phi = m log(1+e^t), curvature m e^t/(1+e^t)^2 dt
  canonical(m):     phi = m max(0,t), curvature = m delta_0 (integrable, not smooth)
  zhang_iterate:    phi_n(t) = p^{-n} phi(p^n t), the dilation semigroup that
                    contracts any admissible base to its canonical limit at
                    rate p^{-n} in sup norm
  lse / mollified_max: two further smooth approximating families used by the
                    weak-convergence battery
  counterexample_potential: the compactly supported C^2 ridge of height
                    c sqrt(delta) and slope c/sqrt(delta) whose Dirichlet
                    energy stays of size c^2 while its sup norm vanishes

All constructors attach exact curvature data; nothing is differentiated
numerically except grid-loaded potentials, which interpolate with a
monotone cubic and differentiate the interpolant.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os

import numpy as np

from .quadrature import NumericalError
from .radial import (
    RadialPotential,
    VolumeForm,
    logistic_density,
    volume_from_potential,
)


class SpecError(ValueError):
    """Malformed metric/volume mini-language expression (CLI exit code 2)."""


# --- catalog ---


def _softplus(t):
    """log(1 + e^t) as max(t, 0) + log1p(e^{-|t|}), within 2 ulp of np.logaddexp(0, t)."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _integer(x, what: str) -> int:
    """x as an int; a value that int() would truncate raises ValueError naming it."""
    if x != int(x):
        raise ValueError(f"{what} must be an integer, got {x}")
    return int(x)


def fubini_study(m: int) -> RadialPotential:
    """The round metric potential on O(m): phi = m log(1+e^t), one object per m.

    It is lse(m, 1) under its own label, cached on the integer m.
    """
    return _fubini_study(_integer(m, "fubini_study degree"))


@functools.lru_cache(maxsize=None)
def _fubini_study(m: int) -> RadialPotential:
    if m < 0:
        raise ValueError(f"fubini_study needs m >= 0, got {m}")
    return dataclasses.replace(lse(m, 1.0), label=f"fs:{m}")


def canonical(m: int) -> RadialPotential:
    """The canonical (Zhang-limit) potential: phi = m max(0,t), an atom at 0 and no density."""
    m = _integer(m, "canonical degree")
    if m < 0:
        raise ValueError(f"canonical needs m >= 0, got {m}")
    return RadialPotential(
        degree=m,
        phi=lambda t, _m=m: _m * np.maximum(t, 0.0),
        positive=True,
        curvature_density=np.zeros_like,
        kinks=(0.0,),
        curvature_atoms=((0.0, float(m)),) if m > 0 else (),
        label=f"canonical:{m}",
    )


@functools.lru_cache(maxsize=None)
def volume_fs() -> VolumeForm:
    """The Fubini-Study volume form: psi = fs_2, density 2 e^t / (1+e^t)^2.

    One shared object, whose psi is the shared fubini_study(2), so the
    transfer chain evaluates it once when it is also the caller's volume.
    """
    return VolumeForm(fubini_study(2), 1.0)


def volume_canonical() -> VolumeForm:
    """The singular limit volume form: psi = canonical_2, density e^{-|t|}."""
    return VolumeForm(canonical(2), 2.0)


def _concentration_splits(scale: float) -> tuple:
    # a bump of width ~1/scale hides between the nodes of an adaptive rule
    # on an infinite interval; bracket it so no panel can step over it.
    # Octaves 2^k/scale, k = 0..9, out to 512/scale: each bracket panel
    # spans at most a factor-2 change of scale, so the first pass settles it
    if scale <= 16.0:
        return ()
    f = 2.0 ** np.arange(10) / scale
    return (*(-f[::-1]).tolist(), 0.0, *f.tolist())


def zhang_iterate(base: RadialPotential, p: int, n: int) -> RadialPotential:
    """n-th dilation iterate p^{-n} phi(p^n t) of an admissible base.

    Degree and curvature mass are preserved; sup distance to the canonical
    limit contracts exactly by p^{-n}. The iterate's curvature concentrates
    at t = 0 with width p^{-n}, so above p^n = 16 the kink list carries
    bracket points at the octaves 2^k p^{-n}, k = 0..9: without them the
    quadrature walks straight over the bump and silently drops the whole
    mass, and with them the first kernel pass settles every bracket panel.
    """
    p, n = _integer(p, "zhang iterate p"), _integer(n, "zhang iterate n")
    if p < 2:
        raise ValueError(f"zhang iterate needs p >= 2, got {p}")
    if n < 0:
        raise ValueError(f"zhang iterate needs n >= 0, got {n}")
    try:
        lam = float(p) ** n
    except OverflowError:
        raise ValueError(f"zhang iterate scale p^n = {p}^{n} overflows a float") from None
    splits = sorted(
        set(k / lam for k in base.kinks) | set(_concentration_splits(lam))
    )
    return RadialPotential(
        degree=base.degree,
        phi=lambda t, _l=lam, _f=base.phi: _f(np.asarray(t) * _l) / _l,
        positive=base.positive,
        kinks=tuple(splits),
        curvature_atoms=tuple((loc / lam, mass) for loc, mass in base.curvature_atoms),
        curvature_density=lambda t, _l=lam, _d=base.curvature_density: _l * _d(np.asarray(t) * _l),
        label=f"zhang:base={base.label},p={p},n={n}",
    )


def lse(m: int, a: float) -> RadialPotential:
    """Soft-max potential (m/a) log(1+e^{a t}); a -> inf gives canonical(m).

    Smooth for every a, but the curvature bump has width 1/a, so members
    sharper than a = 16 advertise the same octave bracket splits 2^k / a,
    k = 0..9, as the dilation iterates.
    """
    m, a = _integer(m, "lse degree"), float(a)
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"lse sharpness must be positive and finite, got {a}")
    return RadialPotential(
        degree=m,
        phi=lambda t, _m=m, _a=a: (_m / _a) * _softplus(_a * np.asarray(t)),
        positive=True,
        kinks=_concentration_splits(a),
        curvature_density=lambda t, _m=m, _a=a: _m * _a * logistic_density(_a * np.asarray(t)),
        label=f"lse:m={m},a={a:g}",
    )


def mollified_max(m: int, eps: float) -> RadialPotential:
    """Convolution of m max(0,t) with the quartic bump of width eps.

    Closed form: for |t| < eps, phi/m = t P(t/eps) - eps Q(t/eps) with
    P, Q the antiderivatives of the bump 15/16 (1-u^2)^2 and of u times it.
    Curvature density is the bump itself, so positivity is manifest.
    """
    m, eps = _integer(m, "mollified_max degree"), float(eps)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"mollifier width must be positive and finite, got {eps}")

    # P and Q in Horner form in x^2, with no float pow
    def _P(x, x2):
        return (15.0 / 16.0) * (x * (1.0 + x2 * (0.2 * x2 - 2.0 / 3.0))) + 0.5

    def _Q(x2):
        return (15.0 / 16.0) * (x2 * (0.5 + x2 * (x2 / 6.0 - 0.5)) - 1.0 / 6.0)

    def phi(t, _m=m, _e=eps):
        t = np.asarray(t, dtype=float)
        x = np.clip(t / _e, -1.0, 1.0)
        x2 = x * x
        mid = t * _P(x, x2) - _e * _Q(x2)
        return _m * np.where(t >= _e, t, np.where(t <= -_e, 0.0, mid))

    def dens(t, _m=m, _e=eps):
        u = np.clip(np.asarray(t, dtype=float) / _e, -1.0, 1.0)
        return _m * (15.0 / 16.0) * (1.0 - u * u) ** 2 / _e

    return RadialPotential(
        degree=m,
        phi=phi,
        positive=True,
        kinks=(-eps, eps),
        curvature_density=dens,
        label=f"mollmax:m={m},eps={eps:g}",
    )


# --- tensor algebra ---


def tensor(p1: RadialPotential, p2: RadialPotential) -> RadialPotential:
    """Tensor product of metrics: potentials and curvatures add."""
    d1, d2 = p1.curvature_density, p2.curvature_density
    return RadialPotential(
        degree=p1.degree + p2.degree,
        phi=lambda t, _f=p1.phi, _g=p2.phi: _f(t) + _g(t),
        positive=p1.positive and p2.positive,
        kinks=tuple(sorted(set(p1.kinks) | set(p2.kinks))),
        curvature_atoms=tuple(p1.curvature_atoms) + tuple(p2.curvature_atoms),
        curvature_density=lambda t: d1(t) + d2(t),
        label=f"tensor({p1.label},{p2.label})",
    )


def dual(p: RadialPotential) -> RadialPotential:
    """Dual metric on O(-degree): potential and curvature change sign.

    The positive flag is dropped (curvature of the dual of a positive
    metric is nonpositive); tensor(p, dual(p)) is the flat degree-0 pair.
    """
    dens = p.curvature_density
    return RadialPotential(
        degree=-p.degree,
        phi=lambda t, _f=p.phi: -_f(t),
        positive=False,
        kinks=p.kinks,
        curvature_atoms=tuple((loc, -mass) for loc, mass in p.curvature_atoms),
        curvature_density=lambda t: -dens(t),
        label=f"dual({p.label})",
    )


# --- sup distance ---


def sup_distance(p1: RadialPotential, p2: RadialPotential) -> float:
    """sup_t |phi1 - phi2| over [-60, 60] for two potentials of the same degree.

    Grid scan with geometric clustering around kinks (glue windows can be
    as narrow as the delta parameter of the counterexample family), then
    local refinement around the incumbent maximum. A difference that is not
    finite at a scanned point (a potential overflowing there) raises
    NumericalError.
    """
    if p1.degree != p2.degree:
        raise ValueError(
            f"sup distance needs equal degrees, got {p1.degree} and {p2.degree}"
        )

    def gap(t):
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.abs(np.asarray(p1.phi(t), dtype=float) - np.asarray(p2.phi(t), dtype=float))
        if not np.isfinite(d).all():
            raise NumericalError(
                f"sup distance of {p1.label or 'anonymous'} and {p2.label or 'anonymous'} "
                "is not finite on the scanned grid"
            )
        return d

    t_lo, t_hi = -60.0, 60.0
    pts = [np.linspace(t_lo, t_hi, 8001)]
    for k in sorted(set(p1.kinks) | set(p2.kinks)):
        offs = np.geomspace(1e-9, 1.0, 46)
        pts.append(k + offs)
        pts.append(k - offs)
        pts.append(np.array([k]))
    # sorted and deduplicated with a mask: np.unique imports numpy.ma
    ts = np.sort(np.concatenate(pts))
    ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
    ts = ts[(ts >= t_lo) & (ts <= t_hi)]
    diff = gap(ts)
    i = int(np.argmax(diff))
    best = float(diff[i])
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    for _ in range(4):
        loc = np.linspace(lo, hi, 401)
        d = gap(loc)
        j = int(np.argmax(d))
        best = max(best, float(d[j]))
        lo = loc[max(j - 1, 0)]
        hi = loc[min(j + 1, len(loc) - 1)]
    return best


# --- the counterexample family ---


def _quintic(w, f0, d0, s0, f1, d1, s1):
    # two-point Taylor quintic on [0,w], returned in the scaled variable u = x/w
    A = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 2, 0, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [0, 1, 2, 3, 4, 5],
            [0, 0, 2, 6, 12, 20],
        ],
        dtype=float,
    )
    rhs = np.array([f0, d0 * w, s0 * w * w, f1, d1 * w, s1 * w * w], dtype=float)
    return np.polynomial.Polynomial(np.linalg.solve(A, rhs))


class PiecewiseRadial:
    """f(r) stored piecewise as polynomials q(u), u = (r-a)/w on [a, a+w].

    Exposes values and the exact weighted Dirichlet integral
    int r f'(r)^2 dr computed piece by piece with polynomial antiderivatives
    (degree <= 9, no quadrature error at all).
    """

    def __init__(self, pieces):
        # pieces: list of (a, w, Polynomial in u)
        self.pieces = [(float(a), float(w), q) for a, w, q in pieces]
        self.r_lo = self.pieces[0][0]
        self.r_hi = self.pieces[-1][0] + self.pieces[-1][1]
        self.breaks = [a for a, _, _ in self.pieces] + [self.r_hi]

    def _locate(self, r):
        idx = np.searchsorted(self.breaks, r, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def _eval(self, r, order, inside):
        # zero outside; each piece evaluates its own nodes
        out = np.zeros(r.shape)
        idx = self._locate(r)
        for k, (a, w, q) in enumerate(self.pieces):
            sel = inside & (idx == k)
            if np.any(sel):
                out[sel] = q.deriv(order)((r[sel] - a) / w) / w**order
        return out[()]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return self._eval(r, 0, (r >= self.r_lo) & (r <= self.r_hi))

    def deriv(self, r, order=1):
        r = np.asarray(r, dtype=float)
        return self._eval(r, order, (r > self.r_lo) & (r < self.r_hi))

    def weighted_dirichlet(self):
        """Exact int r f'(r)^2 dr, per piece and total."""
        parts = []
        for a, w, q in self.pieces:
            dq = q.deriv()
            integrand = (np.polynomial.Polynomial([a, w]) * dq * dq).integ()
            parts.append((integrand(1.0) - integrand(0.0)) / w)
        return float(sum(parts)), parts


def _ridge(c: float, delta: float, eps: float, gamma: float | None) -> tuple:
    """((c, delta, eps, gamma) as checked floats, f) of the ridge f_{c,delta}, f exact in r."""
    if gamma is None:
        gamma = min(0.01, (eps - delta) / 8.0)
    c, delta, eps, gamma = float(c), float(delta), float(eps), float(gamma)
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"need finite c > 0, got c={c}")
    if not 0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got eps={eps}")
    if not 0 < delta < eps / 4:
        raise ValueError(f"need 0 < delta < eps/4 = {eps / 4:g}, got delta={delta}")
    if not 0 < gamma < (eps - delta) / 4:
        raise ValueError(f"need 0 < gamma < (eps-delta)/4 = {(eps - delta) / 4:g}, "
                         f"got gamma={gamma}")
    h = c * math.sqrt(delta)
    s = c / math.sqrt(delta)
    r1, r2 = 1.0 - eps, 1.0 - eps + delta
    r3, r4 = 1.0 - gamma, 1.0 + gamma
    r5, r6 = 1.0 + eps - delta, 1.0 + eps
    wL = min(delta, (1.0 - eps) / 2.0)
    w1 = min(delta, (r3 - r2) / 2.0)
    w2 = min(delta, (r5 - r4) / 2.0)
    pieces = [
        (r1 - wL, wL, _quintic(wL, 0, 0, 0, 0, s, 0)),
        (r1, delta, np.polynomial.Polynomial([0.0, h])),
        (r2, w1, _quintic(w1, h, s, 0, h, 0, 0)),
        (r2 + w1, (r5 - w2) - (r2 + w1), np.polynomial.Polynomial([h])),
        (r5 - w2, w2, _quintic(w2, h, 0, 0, h, -s, 0)),
        (r5, delta, np.polynomial.Polynomial([h, -h])),
        (r6, delta, _quintic(delta, 0, -s, 0, 0, 0, 0)),
    ]
    return (c, delta, eps, gamma), PiecewiseRadial(pieces)


def counterexample_potential(
    c: float, delta: float, eps: float = 0.2, gamma: float | None = None
) -> RadialPotential:
    """The ridge potential f_{c,delta}: height c sqrt(delta), slope c/sqrt(delta).

    Compactly supported in r, identically c sqrt(delta) on a plateau
    containing [1-gamma, 1+gamma], linear ramps of width delta starting at
    r = 1 -+ eps, and C^2 quintic glue of width <= delta at the five
    junctions. sup |f| <= 2 c sqrt(delta) while the Dirichlet integral
    int r f'^2 dr = 2 c^2 + R with R > 0 the glue remainder: uniform decay
    of the metric with no decay of the energy, which is the whole point.
    gamma None is min(0.01, (eps - delta) / 8), and
    counterexample_energy_oracle of the same parameters gives the exact energy.
    """
    (c, delta, eps, gamma), pw = _ridge(c, delta, eps, gamma)
    kinks = tuple(2.0 * math.log(b) for b in pw.breaks)
    t_lo, t_hi = kinks[0] - 1.0, kinks[-1] + 1.0

    def phi(t, _pw=pw):
        # constant outside the junction range; clip before exponentiating
        tc = np.clip(np.asarray(t, dtype=float), t_lo, t_hi)
        return _pw(np.exp(0.5 * tc))

    def dens(t, _pw=pw):
        # t-density of dd^c f for radial f: (r^2 f'' + r f')/4 at r = e^{t/2}
        tc = np.clip(np.asarray(t, dtype=float), t_lo, t_hi)
        r = np.exp(0.5 * tc)
        return 0.25 * (r * r * _pw.deriv(r, 2) + r * _pw.deriv(r, 1))

    return RadialPotential(
        degree=0,
        phi=phi,
        positive=False,
        kinks=kinks,
        curvature_density=dens,
        label=f"cex:c={c:g},delta={delta:g},eps={eps:g},gamma={gamma:g}",
    )


def counterexample_energy_oracle(
    c: float, delta: float, eps: float = 0.2, gamma: float | None = None
) -> dict:
    """Exact Dirichlet data for the ridge counterexample_potential(c, delta, eps, gamma).

    Returns the ridge's parameters (gamma as resolved from None), the exact
    int r f'^2 dr split into the two ramps (2 c^2 exactly, the eps and
    delta dependence cancels) and the glue remainder R > 0, and the
    resulting paired value -(2 c^2 + R). Polynomial antiderivatives only,
    so this is an independent oracle for the quadrature route.
    """
    (c, delta, eps, gamma), pw = _ridge(c, delta, eps, gamma)
    total, parts = pw.weighted_dirichlet()
    # pieces 1 and 5 are the ramps
    ramps = parts[1] + parts[5]
    glue = total - ramps
    return {
        "c": c,
        "delta": delta,
        "eps": eps,
        "gamma": gamma,
        "weighted_dirichlet": total,
        "ramp_part": ramps,
        "ramp_exact": 2.0 * c**2,
        "glue_remainder": glue,
        "dirichlet_term": -total,
    }


# --- grid import/export ---


def _monotone_cubic(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (4, n-1) power-basis coefficients of the monotone cubic through (t, v).

    Row k multiplies s**(3-k), s = x - t[i], on the cell [t[i], t[i+1]]. The
    Fritsch-Carlson (SIAM J. Numer. Anal. 17 (1980) 238-246) Hermite cubic
    with the slope rule of CONVENTIONS.md section 10, computed operation by
    operation as scipy's PchipInterpolator does, so the coefficients agree
    to the bit.
    """
    h = np.diff(t)
    m = np.diff(v) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)

    def end(h0, h1, m0, m1):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(e) > 3 * abs(m0):
            return 3 * m0
        return e

    d[0] = end(h[0], h[1], m[0], m[1])
    d[-1] = end(h[-1], h[-2], m[-1], m[-2])
    k = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((k / h, (m - d[:-1]) / h - k, d[:-1], v[:-1]))


def _read_sidecar(side: str) -> tuple:
    """(degree, positive) of a grid sidecar; SpecError naming it otherwise.

    Other keys are ignored, so a sidecar with further keys loads as one without them.
    """
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"grid sidecar not found: {side}") from exc
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read grid sidecar {side}: {exc}") from exc
    if not isinstance(meta, dict):
        raise SpecError(f"grid sidecar {side} must hold a JSON object, got {type(meta).__name__}")
    for key in ("degree", "positive"):
        if key not in meta:
            raise SpecError(f"grid sidecar {side} is missing key {key!r}")
    degree, positive = meta["degree"], meta["positive"]
    # a boolean is never a number
    if type(degree) is not int:
        raise SpecError(f"grid sidecar {side}: degree must be an integer, got {degree!r}")
    if type(positive) is not bool:
        raise SpecError(f"grid sidecar {side}: positive must be true or false, got {positive!r}")
    if positive and degree < 0:
        raise SpecError(f"grid sidecar {side}: a positive grid needs degree >= 0, got {degree}")
    return degree, positive


def _grid_cubic(t: np.ndarray, v: np.ndarray, degree: int, path: str, side: str) -> tuple:
    """(cubic, s_lo, s_hi) of grid data load_grid accepts; SpecError naming path otherwise.

    At least 4 strictly increasing finite t with finite values, and end
    slopes within 0.1 of 0 and of the degree declared in side.
    """
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise SpecError(f"grid CSV {path} holds a non-finite t or phi")
    if len(t) < 4 or np.any(np.diff(t) <= 0):
        raise SpecError(f"grid CSV {path} needs at least 4 strictly increasing t values")
    c = _monotone_cubic(t, v)
    # the end slopes: the first cell's at s = 0, the last cell's at s = h
    h = t[-1] - t[-2]
    s_lo = float(c[2, 0])
    s_hi = float(c[2, -1] + 2 * c[1, -1] * h + 3 * c[0, -1] * (h * h))
    if abs(s_hi - degree) > 0.1 or abs(s_lo) > 0.1:
        raise SpecError(
            f"grid CSV {path}: slopes ({s_lo:.3f}, {s_hi:.3f}) inconsistent with "
            f"degree {degree} of {side}"
        )
    return c, s_lo, s_hi


def _sidecar(path: str) -> str:
    """The sidecar of a grid CSV: path with its extension replaced by .json.

    A CSV path that ends in .json, in any letter case, would name its own
    sidecar (or one that differs in case only): a SpecError naming it.
    """
    root, ext = os.path.splitext(path)
    if ext.lower() == ".json":
        raise SpecError(f"grid CSV {path} ends in .json, the extension of its sidecar")
    return root + ".json"


def load_grid(path: str) -> RadialPotential:
    """Load a potential from a CSV grid (header t,phi) plus a JSON sidecar.

    The sidecar (_sidecar: the same path with a .json extension) must be a
    JSON object with an integer degree and a boolean positive; other keys
    are ignored, and anything else is a SpecError naming the sidecar. The
    path itself must not end in .json. The CSV needs to decode as text,
    start with the header t,phi and hold at least 4 rows of exactly two
    finite numbers with strictly increasing t, rows of blank cells aside;
    anything else is a SpecError naming the file (see _grid_cubic). Values
    are interpolated with the monotone cubic of `_monotone_cubic`, the
    curvature density is its piecewise-linear second derivative, and outside
    the grid the potential continues linearly with the boundary slopes,
    which are validated against the declared degree; at t = -inf or +inf phi
    is the limit of that continuation, the end value where the slope is 0.

    The interpolant fails to be C^2 at every grid knot and nowhere else,
    so the kinks are the knots; each panel between knots is a polynomial,
    settled by the first batched Kronrod pass.
    """
    side = _sidecar(path)
    ts, vs = [], []
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecError(f"cannot read grid CSV {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot read grid CSV {path}: {exc}") from exc
    rd = csv.reader(lines)
    header = next(rd, [])
    if [h.strip() for h in header] != ["t", "phi"]:
        raise SpecError(f"grid CSV {path} must start with header 't,phi', got {header}")
    for row in rd:
        try:
            t_k, v_k = row
            t_k, v_k = float(t_k), float(v_k)
        except ValueError as exc:
            # a row of blank cells is skipped; every other row is two numbers
            if not "".join(row).strip():
                continue
            raise SpecError(
                f"grid CSV {path} line {rd.line_num}: expected two numbers t,phi, got {row}"
            ) from exc
        ts.append(t_k)
        vs.append(v_k)
    degree, positive = _read_sidecar(side)
    t = np.asarray(ts, dtype=float)
    v = np.asarray(vs, dtype=float)
    c, s_lo, s_hi = _grid_cubic(t, v, degree, path, side)
    lo, hi = float(t[0]), float(t[-1])
    v_lo, v_hi = float(v[0]), float(v[-1])
    last = len(t) - 2
    # contiguous coefficient rows, gathered with take; phi'' = b + a s on
    # each cell, the factors 6 and 2 applied once here
    c0, c1, c2, c3 = c
    a, b = 6 * c0, 2 * c1

    def cell(x):
        # np.maximum(lo, x) keeps x where x == lo and NaN where x is NaN, as
        # np.clip does; a clamped x lies in the cells 0..last, NaN in last
        x = np.minimum(hi, np.maximum(lo, x))
        i = np.minimum(np.searchsorted(t, x, side="right") - 1, last)
        return i, x - t.take(i)

    def phi(x):
        x = np.asarray(x, dtype=float)
        i, s = cell(x)
        s2 = s * s
        # a 0-d x gives a numpy scalar here; asarray makes it a writable 0-d array
        y = np.asarray(c3.take(i) + c2.take(i) * s + c1.take(i) * s2 + c0.take(i) * (s2 * s))
        # the linear continuation, computed only where it applies; a zero
        # slope gives the end value, so an infinite x gives no 0 * inf
        out = x < lo
        if out.any():
            y[out] = v_lo + s_lo * (x[out] - lo) if s_lo else v_lo
        out = x > hi
        if out.any():
            y[out] = v_hi + s_hi * (x[out] - hi) if s_hi else v_hi
        return y

    def dens(x):
        x = np.asarray(x, dtype=float)
        i, s = cell(x)
        return np.where((x > lo) & (x < hi), b.take(i) + a.take(i) * s, 0.0)

    return RadialPotential(
        degree=degree,
        phi=phi,
        positive=positive,
        kinks=tuple(t.tolist()),
        curvature_density=dens,
        label=f"grid:{os.path.basename(path)}",
    )


def _rewrite(path: str, text: str, newline=None) -> None:
    """Write text to path in place: what open(path, "w") gives, without its truncation.

    A new file gets the mode 0o666 & ~umask. An existing one is overwritten
    from the start and then cut at the end of text, so a same-length rewrite
    frees no blocks and a shorter one leaves no stale tail. Not atomic.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline) as fh:
        fh.write(text)
        fh.truncate()


def write_grid(p: RadialPotential, path: str, t_lo=-30.0, t_hi=30.0, n=2001):
    """Sample a potential to CSV + sidecar, the inverse of load_grid.

    n knots spaced evenly over [t_lo, t_hi]. An n that is not an integer
    >= 4, or a range whose ends are not finite with t_lo < t_hi, raises
    ValueError; a sample that is not finite raises NumericalError naming
    the potential; knots and values that load_grid would refuse as they read
    back (knots that %.15g prints as equal, a range too narrow for the end
    slopes to match the degree) and a path ending in .json (_sidecar)
    raise its SpecError. All are raised before either file is touched.
    Each file is rewritten in place (see _rewrite), CSV first; neither
    write is atomic. The sidecar holds degree and positive.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 4):
        raise ValueError(f"grid needs an integer number of knots >= 4, got {n!r}")
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise ValueError(f"grid needs finite t_lo < t_hi, got {t_lo!r} and {t_hi!r}")
    side = _sidecar(path)
    ts = np.linspace(t_lo, t_hi, n)
    with np.errstate(over="ignore", invalid="ignore"):
        vs = np.asarray(p.phi(ts), dtype=float)
    if not np.isfinite(vs).all():
        raise NumericalError(
            f"grid of {p.label or 'anonymous'} holds a sample that is not finite on "
            f"[{t_lo!r}, {t_hi!r}]"
        )
    # the text csv.writer makes of these cells: no cell needs quoting
    rows = "".join("%.15g,%.15g\r\n" % ab for ab in zip(ts.tolist(), vs.tolist()))
    # the knots and values as load_grid reads them back
    t, v = np.array(rows.replace("\r\n", ",").split(",")[:-1], dtype=float).reshape(-1, 2).T
    _grid_cubic(t, v, p.degree, path, side)
    _rewrite(path, "t,phi\r\n" + rows, newline="")
    _rewrite(side, json.dumps({"degree": p.degree, "positive": p.positive}, indent=2))


# --- mini language ---


def _parse_kv(spec: str, chunks, keys, optional=()) -> dict:
    """{key: value} of spec's key=value chunks.

    SpecError on a key not in keys, on a repeated key, and on a key of keys
    that is missing and not optional.
    """
    out = {}
    for chunk in chunks:
        if "=" not in chunk:
            raise SpecError(f"expected key=value, got {chunk!r} in {spec!r}")
        k, v = (x.strip() for x in chunk.split("=", 1))
        if k not in keys:
            raise SpecError(f"unknown key {k!r} in {spec!r}: the keys are {', '.join(keys)}")
        if k in out:
            raise SpecError(f"repeated key {k!r} in {spec!r}")
        out[k] = v
    for k in keys:
        if k not in out and k not in optional:
            raise SpecError(f"missing key {k!r} in {spec!r}: the keys are {', '.join(keys)}")
    return out


def parse_spec(spec: str) -> RadialPotential:
    """Parse the metric mini-language.

    Forms: fs:m | canonical:m | zhang:base=<spec>,p=<int>,n=<int>
         | cex:c=..,delta=..[,eps=..][,gamma=..] | grid:<path.csv>
         | lse:m=..,a=.. | mollmax:m=..,eps=..
    Each key=value form takes the keys it names, once each, in any order;
    an unknown, repeated or missing key is a SpecError naming it (eps and
    gamma of cex may be left out).
    """
    spec = spec.strip()
    if ":" not in spec:
        if spec == "zero":
            return fubini_study(0)
        raise SpecError(f"malformed metric spec {spec!r}")
    kind, body = spec.split(":", 1)
    kind = kind.strip().lower()
    try:
        if kind == "fs":
            return fubini_study(int(body))
        if kind == "canonical":
            return canonical(int(body))
        if kind == "grid":
            return load_grid(body)
        if kind == "zhang":
            # the base spec may hold commas itself: p and n are the last two pairs
            kv = _parse_kv(spec, body.rsplit(",", 2), ("base", "p", "n"))
            return zhang_iterate(parse_spec(kv["base"]), int(kv["p"]), int(kv["n"]))
        if kind == "cex":
            kv = _parse_kv(spec, body.split(","), ("c", "delta", "eps", "gamma"), ("eps", "gamma"))
            return counterexample_potential(
                float(kv["c"]),
                float(kv["delta"]),
                eps=float(kv.get("eps", 0.2)),
                gamma=float(kv["gamma"]) if "gamma" in kv else None,
            )
        if kind == "lse":
            kv = _parse_kv(spec, body.split(","), ("m", "a"))
            return lse(int(kv["m"]), float(kv["a"]))
        if kind == "mollmax":
            kv = _parse_kv(spec, body.split(","), ("m", "eps"))
            return mollified_max(int(kv["m"]), float(kv["eps"]))
    except SpecError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise SpecError(f"malformed metric spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown metric kind {kind!r} in {spec!r}")


def parse_volume(spec: str) -> VolumeForm:
    """Parse the volume mini-language: fs | canonical | any degree-2 metric spec."""
    spec = spec.strip()
    if spec in ("fs", "fubini-study"):
        return volume_fs()
    if spec in ("canonical", "inf", "singular"):
        return volume_canonical()
    pot = parse_spec(spec)
    if pot.degree != 2:
        raise SpecError(
            f"volume spec {spec!r} has degree {pot.degree}, need degree 2"
        )
    return volume_from_potential(pot)
