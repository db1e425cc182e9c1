"""Reference values computed apart from spheretorsion, and the check log.

Nothing in this file imports the program or calls its closed-form helpers.
Special values come from elementary formulas, from mpmath (zeta'(-1)
only) and from Gauss-Legendre quadrature written here. Each check is kept
with its observed value and its accepted interval, so that `Checks.loose`
can show that every numeric oracle rejects a value moved by 1e-6.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

PERTURBATION = 1e-6
LOG2 = math.log(2.0)


class Checks:
    """Every comparison made on the program's outputs."""

    def __init__(self):
        self.records = []  # (name, kind, observed, lo, hi)
        self.flag_count = 0
        self.flag_failures = []

    def equal(self, name, observed, ref, atol=0.0, rtol=0.0):
        width = atol + rtol * abs(ref)
        self.records.append((name, "equal", float(observed), ref - width, ref + width))

    def within(self, name, observed, lo, hi):
        self.records.append((name, "within", float(observed), float(lo), float(hi)))

    def flag(self, name, ok):
        """A check without a number: an exit code, a verdict, a repeat."""
        self.flag_count += 1
        if not ok:
            self.flag_failures.append(name)

    @staticmethod
    def _accepts(x, lo, hi):
        return math.isfinite(x) and lo <= x <= hi

    def failures(self):
        out = [r for r in self.records if not self._accepts(r[2], r[3], r[4])]
        return out + [(name, "flag", None, None, None) for name in self.flag_failures]

    def loose(self):
        """Checks that would still pass a value moved by PERTURBATION.

        An equality oracle must reject its observed value moved by 1e-6 either
        way. An interval oracle must have finite bounds and reject a value
        1e-6 beyond either bound.
        """
        bad = []
        for name, kind, obs, lo, hi in self.records:
            if kind == "equal":
                probes = (obs - PERTURBATION, obs + PERTURBATION)
            else:
                probes = (lo - PERTURBATION, hi + PERTURBATION)
            finite = math.isfinite(lo) and math.isfinite(hi)
            if not finite or any(self._accepts(p, lo, hi) for p in probes):
                bad.append(name)
        return bad


# --- spectral constants ---


@lru_cache(maxsize=None)
def zeta_prime_minus1() -> float:
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.zeta(-1, 1, 1))


def zeta_zero(m: int) -> float:
    """zeta_m(0) of the round Dolbeault spectrum on O(m)."""
    return -(m + 1) / 2.0 - 1.0 / 6.0


def fs_torsion(m: int) -> float:
    """T(fs_m, omega_fs) at spectrum scale pi, from the elementary Z'_m(0).

    Z'_m(0) = 4 zeta'(-1) - (m+1)^2/2 + sum_{j<=m+1} (2j-m-1) log j, and the
    scale pi shifts it by -zeta_m(0) log pi.
    """
    zp = (
        4.0 * zeta_prime_minus1()
        - (m + 1) ** 2 / 2.0
        + math.fsum((2 * j - m - 1) * math.log(j) for j in range(1, m + 2))
    )
    return zp - zeta_zero(m) * math.log(math.pi)


def canonical_quillen(m: int) -> float:
    """log h_Q(can_m, omega_can) = 4 zeta'(-1) - 1/6 - zeta_m(0) log 2pi."""
    return 4.0 * zeta_prime_minus1() - 1.0 / 6.0 - zeta_zero(m) * math.log(2.0 * math.pi)


def bundle_anomaly_canonical_fs(m: int) -> float:
    """K(can_m, fs_m; omega_fs), paired by hand.

    dphi = -m log(1 + e^{-|t|}); it pairs to -m^2 log 2 against the atom of
    can_m, to -m^2 (1 - log 2) against fs_m and to -2m (1 - log 2) against
    the round volume's curvature. K is half the sum of all three.
    """
    return -0.5 * m * m - m * (1.0 - LOG2)


# --- Gram data of the monomial basis ---


def gram_fs_fs(m: int) -> np.ndarray:
    """Beta integrals: g_k = 2 k! (m-k)! / (m+1)!."""
    return np.array(
        [2.0 * math.exp(math.lgamma(k + 1) + math.lgamma(m - k + 1) - math.lgamma(m + 2))
         for k in range(m + 1)]
    )


def gram_canonical_canonical(m: int) -> np.ndarray:
    """Two one-sided exponentials: g_k = 1/(k+1) + 1/(m+1-k)."""
    return np.array([1.0 / (k + 1) + 1.0 / (m + 1 - k) for k in range(m + 1)])


_X, _W = np.polynomial.legendre.leggauss(100)
_X01, _W01 = 0.5 * (_X + 1.0), 0.5 * _W


def _unit(f) -> float:
    """int_0^1 f(x) dx for an integrand analytic near [0, 1]."""
    return float(np.dot(_W01, f(_X01)))


def gram_canonical_fs(m: int) -> np.ndarray:
    """Canonical metric on the round volume, with x = |z|^2:
    g_k = I(k) + I(m-k), I(n) = int_0^1 2 x^n / (1+x)^2 dx."""
    i = [_unit(lambda x, n=n: 2.0 * x**n / (1.0 + x) ** 2) for n in range(m + 1)]
    return np.array([i[k] + i[m - k] for k in range(m + 1)])


def gram_fs_canonical(m: int) -> np.ndarray:
    """Round metric on the singular volume, with x = |z|^2 and y = 1/x:
    g_k = int_0^1 x^k (1+x)^-m dx + int_0^1 y^(m-k) (1+y)^-m dy."""
    j = [_unit(lambda x, n=n: x**n / (1.0 + x) ** m) for n in range(m + 1)]
    return np.array([j[k] + j[m - k] for k in range(m + 1)])


def log_det(entries) -> float:
    return float(np.sum(np.log(entries)))


# --- catalog potentials, written out independently ---

_XM, _WM = np.polynomial.legendre.leggauss(8)


def potential(kind: str, m: int, par, t) -> np.ndarray:
    """phi(t) of the catalog potential, t = log|z|^2.

    fs: m log(1+e^t). lse: (m/a) log(1+e^{at}). mollmax: m max(0, .)
    convolved with the bump (15/16)(1-u^2)^2 of half-width eps, integrated
    here by an 8-point Gauss rule, exact for the degree-5 integrand.
    """
    t = np.asarray(t, dtype=float)
    if kind == "fs":
        return m * np.logaddexp(0.0, t)
    if kind == "lse":
        return (m / par) * np.logaddexp(0.0, par * t)
    if kind == "mollmax":
        eps = par
        hi = np.clip(t / eps, -1.0, 1.0)  # the integrand vanishes for u > t/eps
        u = -1.0 + (hi[..., None] + 1.0) * 0.5 * (_XM + 1.0)
        wts = (hi[..., None] + 1.0) * 0.5 * _WM
        kern = (15.0 / 16.0) * (1.0 - u * u) ** 2
        return m * np.sum(wts * (t[..., None] - eps * u) * kern, axis=-1)
    raise ValueError(f"unknown catalog potential {kind!r}")


def gram_on_fs_volume(kind: str, m: int, par) -> np.ndarray:
    """g_k = int e^{kt - phi(t)} 2 e^t/(1+e^t)^2 dt by composite Gauss-Legendre.

    Panels of width 1/2 on [-60, 60]; the integrand decays at least like
    e^{-|t|}, so the cut tails are below 1e-25.
    """
    edges = set(np.arange(-60.0, 60.0 + 1e-9, 0.5).round(12).tolist())
    if kind == "mollmax":
        edges |= {-par, par}
    edges = np.array(sorted(edges))
    a, b = edges[:-1, None], edges[1:, None]
    x, w = np.polynomial.legendre.leggauss(20)
    t = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    wt = (0.5 * (b - a) * w).ravel()
    e = np.exp(-np.abs(t))
    area = 2.0 * e / (1.0 + e) ** 2
    phi = potential(kind, m, par, t)
    return np.array([np.dot(wt, np.exp(k * t - phi) * area) for k in range(m + 1)])
