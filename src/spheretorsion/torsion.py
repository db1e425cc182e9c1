"""Analytic torsion and Quillen metrics by spectral reference plus transfer.

The only spectrum ever used is the reference one: the Dolbeault Laplacian
of (O(m), round metric) over the round sphere of area 2 has nonzero
eigenvalues pi k (k+m+1) with multiplicity m + 2k + 1, k >= 1. Its zeta
function has an elementary closed form at s = 0 (CONVENTIONS.md section 4)
and gives the reference torsion T_fs(m). Adding the round Gram, the sums
of the two cancel, so the reference Quillen metric is a closed form Q_fs(m)
(section 7). Everything else is reached by one chain through the two
anomaly terms:

    log h_Q(p, w) = Q_fs(m) - K(p, fs_m; omega_fs) - V(p; w, omega_fs)
    T(p, w)       = log h_Q(p, w) - log det G(p, w)

where K is the bundle anomaly at fixed volume and V the volume anomaly at
fixed bundle metric. Their coefficients are the Bismut-Gillet-Soule ones
(1/2 on every bundle and tangent slot, 1/12 on the secondary Todd slot),
and V pairs the normalized volume potentials, so T depends on (h, omega)
only: it is unchanged under h -> e^{-a} h and under psi -> psi + b (see
CONVENTIONS.md for the lattice and the closed form it implies for the
canonical metrics).

log h_Q is on det H^0 in the monomial basis of record; the basis constant
cancels from every identity. The Gram only splits it into the L^2 metric
and the torsion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gram import GramData, _gram_data, _gram_rows
from .metrics import _integer, dual, fubini_study, tensor, volume_fs
from .quadrature import NumericalError
from .radial import ConvergenceReport, RadialPotential, VolumeForm, _normed_pairings, _pairings
from .radial import volume_from_potential

# spectrum scale: eigenvalues are SPECTRUM_SCALE * k(k+m+1) on the area-2 sphere
SPECTRUM_SCALE = math.pi

# zeta'(-1) of the Riemann zeta function, 1/12 - log A (Glaisher's constant A)
ZETA_PRIME_MINUS1 = -0.16542114370045092921


# --- zeta machinery ---


def zeta_zero(m: int) -> float:
    """zeta(0) of the nonzero reference spectrum, scale independent shift base.

    Equals -(m+1)/2 - 1/6; at m = 0 this is the classical -2/3 of the round
    sphere (zeta(0) = const_coeff - dim ker with the kernel removed).
    """
    return -(m + 1) / 2.0 - 1.0 / 6.0


@dataclass
class TorsionResult:
    value: float
    components: dict
    err: float


def fs_reference_torsion(m: int) -> TorsionResult:
    """Reference torsion of (O(m), round) over the round area-2 sphere.

    T = zeta'(0) of the Dolbeault spectrum. At unit scale the spectrum is
    k(k+m+1) with multiplicity m+2k+1, k >= 1; with n = k + (m+1)/2 the
    eigenvalue splits as (n - a)(n + a), a = (m+1)/2, and two shifted
    Riemann zeta sums plus the multiplicative anomaly -2 a^2 give

        Z'_m(0) = 4 zeta'(-1) - (m+1)^2/2 + sum_{j<=m+1} (2j - m - 1) log j.

    Under lambda -> c lambda the value shifts by -log(c) zeta(0), which is
    how SPECTRUM_SCALE enters. err bounds the rounding of the sum.
    """
    m = _integer(m, "reference torsion degree")
    if m < 0:
        raise ValueError(f"reference torsion needs m >= 0, got {m}")
    terms = [4.0 * ZETA_PRIME_MINUS1, -(m + 1) ** 2 / 2.0]
    terms += [(2 * j - m - 1) * math.log(j) for j in range(2, m + 2)]
    zp = math.fsum(terms)
    corr = -math.log(SPECTRUM_SCALE) * zeta_zero(m)
    return TorsionResult(
        value=zp + corr,
        components={
            "zeta_prime_unit_scale": zp,
            "zeta_zero": zeta_zero(m),
            "scale": SPECTRUM_SCALE,
            "scale_correction": corr,
        },
        err=math.fsum(map(abs, terms)) * sys.float_info.epsilon,
    )


# --- anomaly terms ---


@dataclass
class AnomalyTerm:
    kind: str  # "bundle" | "volume"
    value: float
    diagnostics: dict
    err: float


def bundle_anomaly(
    p1: RadialPotential,
    p2: RadialPotential,
    w: VolumeForm,
) -> AnomalyTerm:
    """Anomaly of the Quillen metric under a change of bundle metric.

    Value = int (phi1 - phi2) [ (mu_1 + mu_2) / 2 + mu_{psi_w} / 2 ],

    all three slots curvature pairings, with the coefficients of the
    secondary Chern character times Todd. A constant shift phi1 = phi2 + a
    therefore costs a (m + 1) = chi(O(m)) a, exactly the change of log det
    Gram, which is what keeps the torsion invariant under h -> e^{-a} h.
    The tangent slot pairs against the curvature of the volume potential,
    NOT the area density.
    For the round volume the two coincide, so nothing changes on the
    reference leg, but curvature is what makes the term an exact cocycle
    in three metrics and exactly consistent with the volume anomaly (the
    pairing is symmetric, the area cross-pairing is not).
    """
    if p1.degree != p2.degree:
        raise ValueError(
            f"bundle anomaly needs equal degrees, got {p1.degree} and {p2.degree}"
        )
    ((vals, err),) = _pairings([_bundle_rows(p1, p2, w)])
    return _bundle_term(vals, err.sum())


def _bundle_rows(p1: RadialPotential, p2: RadialPotential, w: VolumeForm):
    """The bundle block of _pairings: phi1 - phi2 against mu_1, mu_2 and mu_{psi_w}."""
    return (p1, p2), lambda t, a, b: a - b, (p1, p2, w.psi)


def _bundle_term(vals, err: float) -> AnomalyTerm:
    # vals: dphi against mu_1, mu_2 and mu_{psi_w}; err their summed estimate
    d1, d2, tw = map(float, vals)
    dirichlet = 0.5 * (d1 + d2)
    todd = 0.5 * tw
    return AnomalyTerm(
        kind="bundle",
        value=dirichlet + todd,
        diagnostics={
            "dirichlet_term": dirichlet,
            "todd_term": todd,
            "pair_mu1": d1,
            "pair_mu2": d2,
            "pair_todd": tw,
        },
        err=0.5 * float(err),
    )


def volume_anomaly(
    p: RadialPotential,
    w1: VolumeForm,
    w2: VolumeForm,
) -> AnomalyTerm:
    """Anomaly of the Quillen metric under a change of volume form.

    Value = int dpsi [ mu_p / 2 + (mu_{psi_1} + mu_{psi_2}) / 12 ],

    dpsi the difference of the NORMALIZED potentials psi_i + log(norm_i),
    the ones with rho_i = 2 e^{t - psi_i - log norm_i} exactly. psi and
    psi + b give the same area measure and the same normalized potential.
    Every curvature mass equals its degree, so the gauge constant
    log norm_1 - log norm_2 contributes its product with (m/2 + 1/3) in
    closed form, and err charges that coefficient times the relative
    errors of the two norms (0 for a given norm, the norm row's estimate
    for one integrated in the pass); the raw pair_* diagnostics pair
    psi1 - psi2 itself.

    The secondary-Todd slot is the trapezoid in the CURVATURES of the two
    volume potentials, and must be: the curvature pairing is symmetric
    under integration by parts, which is exactly what makes this term a
    cocycle in three volumes and antisymmetric, and what closes the mixed
    square against the bundle anomaly. Pairing against the area densities
    instead agrees for the round (Einstein) volume but breaks the cocycle
    at the 1e-4 level for the singular and soft-max volumes. The mu_p/2
    slot carries the same coefficient as the tangent slot of the bundle
    anomaly, which the mixed-change consistency identity forces.
    """
    ((vals, err),), norms = _normed_pairings([_volume_rows(p, w1, w2)], (w1, w2))
    return _volume_term(vals, err.sum(), p, norms)


def _volume_rows(p: RadialPotential, w1: VolumeForm, w2: VolumeForm):
    """The volume block of _pairings: psi1 - psi2 against mu_p, mu_{psi_1} and mu_{psi_2}."""
    return (w1.psi, w2.psi), lambda t, a, b: a - b, (p, w1.psi, w2.psi)


def _volume_term(vals, err: float, p: RadialPotential, norms) -> AnomalyTerm:
    # vals: psi_1 - psi_2 against mu_p, mu_{psi_1} and mu_{psi_2}; err their
    # summed estimate, to which the gauge adds its coefficient times the
    # relative errors of the two norms, norms the (norm, norm_err) of w1 and
    # w2. Both volume potentials have degree 2, so their masses sum to 4.
    mu, r1, r2 = map(float, vals)
    (n1, e1), (n2, e2) = norms
    gauge = math.log(n1) - math.log(n2)
    coef = 0.5 * p.degree + 1 / 3
    curv = 0.5 * (mu + gauge * p.degree)
    todd = (r1 + r2 + 4 * gauge) / 12.0
    return AnomalyTerm(
        kind="volume",
        value=curv + todd,
        diagnostics={
            "curvature_term": curv,
            "todd_term": todd,
            "pair_mu": mu,
            "pair_todd1": r1,
            "pair_todd2": r2,
            "gauge": gauge,
        },
        err=0.5 * float(err) + coef * (e1 / n1 + e2 / n2),
    )


# --- the transfer chain ---


def _chain(p: RadialPotential, w: VolumeForm):
    """Gram data and both anomaly terms of quillen(p, w), from one kernel call.

    One _pairings call stacks up to four blocks: the Gram, a guard block, 1
    against the curvature of each distinct positive potential, the bundle
    block of K(p, fs_m; omega_fs) and the volume block of V(p; w, omega_fs),
    and after them the norm row of w unless w has a norm of its own.
    A guard row that misses its degree by more than ten times its own
    estimate (plus 1e-10 max(1, degree)) lost mass between quadrature
    nodes, and NumericalError is raised. The shared fubini_study(m) and
    volume_fs() coincide with a caller's own, so they are evaluated once,
    and a bundle or volume block of one object against itself, whose rows
    are the difference of a potential with itself, is left out: its values
    and estimates are exactly 0.
    """
    p_ref, w_ref = fubini_study(p.degree), volume_fs()
    guarded = [q for q in {id(q): q for q in (p, p_ref, w_ref.psi, w.psi)}.values() if q.positive]
    blocks = [_gram_rows(p, w), ((), lambda t: 1.0, guarded)]
    blocks += [_bundle_rows(p, p_ref, w_ref)] if p is not p_ref else []
    blocks += [_volume_rows(p, w, w_ref)] if w is not w_ref else []
    ((g, g_err), (mass, mass_err), *rest), norms = _normed_pairings(blocks, (w, w_ref))
    zero = (np.zeros(3), np.zeros(3))
    k, k_err = rest.pop(0) if p is not p_ref else zero
    v, v_err = rest.pop(0) if w is not w_ref else zero
    for q, got, est in zip(guarded, mass, mass_err):
        if abs(got - q.degree) > 10.0 * est + 1e-10 * max(1, q.degree):
            raise NumericalError(
                f"curvature mass of {q.label or 'anonymous'} is {got:.15g}, not its "
                f"degree {q.degree}: a bump fell between quadrature nodes (brackets "
                "missing from its kinks?) or its curvature data is wrong"
            )
    gd = _gram_data(g, g_err, *norms[0])
    return gd, _bundle_term(k, k_err.sum()), _volume_term(v, v_err.sum(), p, norms)


def _quillen_fs(m: int) -> float:
    """log h_Q(fs_m, omega_fs) = T_fs(m) + log det G(fs_m, omega_fs), in closed form.

    The sum S(m) of Z'_m(0) and the one in LG_fs(m) = (m+1) log 2 - S(m)
    cancel (CONVENTIONS.md section 7), which leaves

        Q_fs(m) = 4 zeta'(-1) - (m+1)^2/2 + (m+1) log 2 - zeta_m(0) log(pi).
    """
    terms = (4.0 * ZETA_PRIME_MINUS1, -(m + 1) ** 2 / 2.0, (m + 1) * math.log(2.0))
    return math.fsum((*terms, -math.log(SPECTRUM_SCALE) * zeta_zero(m)))


def _transfer(p: RadialPotential, w: VolumeForm):
    """(quillen(p, w), K): the body of quillen, with the bundle term it was built from."""
    m = p.degree
    if m < 0:
        raise ValueError(f"torsion needs a degree >= 0 bundle, got {m}")
    gd, K, V = _chain(p, w)
    ref = _quillen_fs(m)
    log_q = ref - K.value - V.value
    components = {
        "log_quillen_ref": ref,
        "bundle_anomaly": K.value,
        "volume_anomaly": V.value,
        "log_gram": gd.log_det,
    }
    # the quadrature estimates, plus the rounding of the closed form and of the sums
    rounding = 4.0 * sys.float_info.epsilon * math.fsum(map(abs, components.values()))
    err = K.err + V.err + gd.err + rounding
    T = TorsionResult(value=log_q - gd.log_det, components=components, err=err)
    return QuillenResult(log_quillen=log_q, log_l2=gd.log_det, torsion=T, gram=gd), K


@dataclass
class QuillenResult:
    log_quillen: float
    log_l2: float
    torsion: TorsionResult
    gram: GramData


def quillen(p: RadialPotential, w: VolumeForm) -> QuillenResult:
    """log of the Quillen metric on det H^0, and its split into L^2 part and torsion.

    log h_Q(p, w) = Q_fs(m) - K(p, fs_m; omega_fs) - V(p; w, omega_fs) and
    T = log h_Q - log det G(p, w). Every input, smooth or integrable (atoms,
    kinks), the reference pair included, runs this one chain; for
    non-smooth data the pairings are the generalized ones, which is exactly
    the regularized value the approximation theorem assigns.
    """
    return _transfer(p, w)[0]


def torsion(p: RadialPotential, w: VolumeForm) -> TorsionResult:
    """Analytic torsion of (O(m), e^{-phi}) over the sphere with volume w: quillen(p, w).torsion.

    Limits along explicit approximating families are
    generalized_quillen_limit and generalized_torsion_curve.
    """
    return _transfer(p, w)[0].torsion


# --- limits along approximating families ---


@dataclass
class GeneralizedLimit:
    report: ConvergenceReport
    grid: Optional[np.ndarray] = None


def _require_positive(pot: RadialPotential, what: str, idx):
    if not pot.positive:
        raise ValueError(
            f"{what} element {idx} ({pot.label or 'anonymous'}) is not positive; "
            "uniform convergence does not control the Quillen metric without "
            "positivity (the bounded-ridge family is the counterexample)"
        )


def generalized_quillen_limit(
    bundle_family: Callable[[int], RadialPotential],
    volume_family: Callable[[int], VolumeForm],
    indices: Sequence[int] = tuple(range(0, 25, 2)),
    grid_indices: Sequence[int] = tuple(range(0, 6)),
    tol: float = 1e-6,
) -> GeneralizedLimit:
    """Double-sequence Quillen limit along positive approximating families.

    Every family element must be flagged positive, otherwise the call is
    refused: this is the hypothesis the limit theorem actually needs. The
    report is the diagonal's (Cauchy verdict over the last 4, the limit last);
    the grid over grid_indices (None without them) shows joint behavior.
    """
    bundles, volumes = {}, {}
    for i in sorted(set(indices) | set(grid_indices)):
        bundles[i] = bundle_family(i)
        _require_positive(bundles[i], "bundle family", i)
        volumes[i] = volume_family(i)
        _require_positive(volumes[i].psi, "volume family", i)
    vals = {
        (i, j): quillen(bundles[i], volumes[j]).log_quillen
        for i in grid_indices
        for j in grid_indices
    }
    grid = None
    if grid_indices:
        grid = np.array([[vals[i, j] for j in grid_indices] for i in grid_indices])
    diag = [
        vals[n, n] if (n, n) in vals else quillen(bundles[n], volumes[n]).log_quillen
        for n in indices
    ]
    msg = "max pairwise gap over last {tail} diagonal entries = {spread:.3e}, tol={tol:g}"
    return GeneralizedLimit(ConvergenceReport.of(indices, diag, tol, msg, tail=4), grid)


def generalized_torsion_curve(
    p: RadialPotential,
    decompositions,
    indices: Sequence[int] = tuple(range(2, 31, 2)),
    tol: float = 1e-6,
) -> list[ConvergenceReport]:
    """Torsion along degenerating volumes built from positive decompositions.

    Each decomposition is a pair of callables (plus_family, minus_family)
    producing positive potentials whose difference is the degree-2 volume
    potential. The computed limit must not depend on the decomposition;
    the returned list holds one ConvergenceReport per decomposition, in
    order, whose last value is that path's limit.

    Families sharpen at different speeds, so each runs down the index list
    only until its own tail settles below tol/10 (or the list ends); that
    keeps the fast-concentrating families away from quadrature-hostile
    sharpness they do not need. No decompositions declare nothing and
    raise ValueError.
    """
    reports = []
    for d_idx, (plus_fam, minus_fam) in enumerate(decompositions):
        vals = []
        for n in indices:
            plus, minus = plus_fam(n), minus_fam(n)
            _require_positive(plus, f"decomposition {d_idx} plus factor", n)
            _require_positive(minus, f"decomposition {d_idx} minus factor", n)
            psi = tensor(plus, dual(minus))
            w = volume_from_potential(psi)
            vals.append(torsion(p, w).value)
            if len(vals) >= 4 and max(vals[-3:]) - min(vals[-3:]) < tol / 10.0:
                break
        msg = f"decomposition {d_idx}: tail spread {{spread:.3e}}"
        reports.append(ConvergenceReport.of(indices[: len(vals)], vals, tol, msg))
    if not reports:
        raise ValueError("a torsion curve needs at least one decomposition")
    return reports
