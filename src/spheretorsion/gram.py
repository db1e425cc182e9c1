"""L^2 Gram data for the monomial section basis of O(m).

After circle reduction the monomials z^k, k = 0..m, are orthogonal for any
S^1-invariant metric and volume, so the Gram matrix is diagonal with

    g_k = int e^{k t - phi(t)} drho_w(t),

and the determinant metric on det H^0 is the product. The basis of record
for every log-determinant in this library is (z^0, ..., z^m); changing the
basis shifts all log-determinants by the same constant, which cancels in
every anomaly identity.

Two closed forms are kept next to the quadrature for cross-checking:
Fubini-Study against its own volume (Beta integrals) and the canonical
potential against the singular volume (two one-sided exponentials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import NumericalError
from .radial import _TINY, RadialPotential, VolumeForm, _normed_pairings


@dataclass
class GramData:
    m: int
    entries: np.ndarray  # g_0 .. g_m
    log_det: float
    err: float  # bounds the error of log_det


def gram(p: RadialPotential, w: VolumeForm) -> GramData:
    """Diagonal Gram entries of the monomial basis, by quadrature."""
    if p.degree < 0:
        raise ValueError(f"Gram data needs degree >= 0, got {p.degree}")
    ((raw, parts),), (norm,) = _normed_pairings([_gram_rows(p, w)], (w,))
    return _gram_data(raw, parts, *norm)


def _gram_rows(p: RadialPotential, w: VolumeForm):
    """The Gram block of _pairings: the m + 1 weights e^{kt - phi} 2 e^{t - psi_w} against dt.

    These are the entries times the norm of w, by which _gram_data divides
    them: the norm is the row e^{t - psi_w} that _normed_pairings stacks
    after this block. rho_w is folded into the rows, so psi_w is evaluated
    once per node array.
    """
    ks = np.arange(p.degree + 1.0)[:, None]

    def rows(t, phi, psi):
        # in place in one (m + 1, N) array
        g = ks * t
        g -= phi
        np.exp(g, out=g)
        g *= 2.0 * np.exp(t - psi)
        return g

    return (p, w.psi), rows, (None,) * (p.degree + 1)


def _gram_data(raw: np.ndarray, parts: np.ndarray, norm: float, norm_err: float) -> GramData:
    """GramData of the Gram rows' values raw, their estimates and the volume's norm.

    The entries are raw / norm, err is in units of log det. An entry off by
    e_k moves log det by about e_k / g_k; every entry is divided by norm,
    so the norm's error moves it by (m + 1) norm_err / norm; a few eps
    times sum |log g_k| bounds the rounding of the logs and of their sum.
    """
    # each entry integrates a positive function, so one below _TINY has underflowed
    normal = raw >= _TINY
    if not normal.all():
        k = int(np.argmin(normal))
        raise NumericalError(f"Gram entry k={k} underflowed: its integral reads {raw[k]}")
    entries = raw / norm
    logs = np.log(entries)
    err = float(
        (parts / raw).sum()
        + len(entries) * norm_err / norm
        + 4.0 * np.finfo(float).eps * np.abs(logs).sum()
    )
    return GramData(m=len(entries) - 1, entries=entries, log_det=float(logs.sum()), err=err)


# --- closed forms (the closed-form target, `gram --verify` and test oracles) ---


def gram_fs_closed(m: int) -> np.ndarray:
    """FS metric against FS volume: g_k = 2 B(k+1, m+1-k) = 2 k!(m-k)!/(m+1)!."""
    return np.array(
        [
            2.0 * math.exp(math.lgamma(k + 1) + math.lgamma(m - k + 1) - math.lgamma(m + 2))
            for k in range(m + 1)
        ]
    )


def gram_canonical_closed(m: int) -> np.ndarray:
    """Canonical metric against the singular volume: g_k = 1/(k+1) + 1/(m+1-k)."""
    return np.array([1.0 / (k + 1) + 1.0 / (m + 1 - k) for k in range(m + 1)])


def log_det_canonical_closed(m: int) -> float:
    return float(np.sum(np.log(gram_canonical_closed(m))))

