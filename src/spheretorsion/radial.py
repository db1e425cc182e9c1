"""Circle-invariant potential calculus on the sphere, reduced to the line.

Everything is written in the logarithmic coordinate t = log|z|^2. A metric
on O(m) is e^{-phi} times the flat reference, with phi a convex-ish function
of t growing like m*t as t -> +inf and bounded as t -> -inf. The curvature
current dd^c phi pushes forward to a measure on the t-line:

    mu_phi = phi''(t) dt + sum of atoms,

normalized so that dd^c max(0, t) is the unit Dirac at t = 0 (Lelong units).
Consequently mass(mu_phi) = degree, with no 2*pi anywhere.

Volume forms on the sphere are the degree 2 case: a potential psi and its
norm, from which the area measure rho follows (total mass 2, the degree of
the tangent bundle):

    rho_psi(t) = 2 e^{t - psi(t)} / int e^{t - psi} dt,

which reproduces the Fubini-Study density 2 e^t / (1+e^t)^2 and pushes the
singular limit to exactly e^{-|t|} dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import NumericalError, integrate_line


# --- core containers ---


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """An S^1-invariant metric potential on O(degree), as a function of t.

    phi must accept numpy arrays. kinks lists quadrature split points: the
    t where phi fails to be C^2 (curvature atoms live here too), both ends
    of a compactly supported curvature density, and for sharp smooth
    families the brackets of the concentration scale. kinks is the only
    split channel: every pairing splits the line at them.
    positive means the curvature measure is known nonnegative (admissible
    in the sense used throughout: positive and with the right growth). Its
    mass is the degree, so a positive potential of negative degree is a
    contradiction and raises ValueError.
    curvature_density / curvature_atoms describe mu_phi explicitly;
    numerical differentiation is never used silently. curvature_density is
    required: the density on the whole line, as a callable of numpy arrays
    that returns exactly 0 where mu_phi has no absolutely continuous mass
    (np.zeros_like for a measure of atoms alone). What makes a metric
    integrable in the sense of the paper is this curvature data together
    with positive; no other label is kept.
    """

    degree: int
    phi: Callable
    positive: bool
    curvature_density: Callable
    kinks: tuple = ()
    curvature_atoms: tuple = ()
    label: str = ""

    def __post_init__(self):
        if self.positive and self.degree < 0:
            raise ValueError(
                f"potential {self.label or '<anon>'} is declared positive with degree "
                f"{self.degree}: a nonnegative curvature measure has nonnegative mass"
            )


class RadialMeasure:
    """dt on the whole line, through which every pairing makes its one kernel call.

    It keeps no data: integrate is integrate_line, a method so that a
    recorder can wrap the one call every _pairings makes.
    """

    def integrate(self, f, splits):
        """(int f dt, err) over the line cut at splits, as integrate_line returns them."""
        return integrate_line(f, splits)


# the measure _pairings integrates its weighed rows against
_LEBESGUE = RadialMeasure()


def _pairings(blocks):
    """Every row of every block from one kernel call.

    A block is (potentials, row_fn, over): row_fn(t, *phi values) returns
    the block's rows, anything that broadcasts to (len(over), N), and row i
    pairs against the curvature measure of over[i], or against dt where
    over[i] is None. Potentials and measures are distinct by identity, and
    each is evaluated once per node array. The rows are copied into a stack
    of their own, so row_fn may return an array it keeps. A dt row is left
    as row_fn returned it; every other row is multiplied in place by the
    curvature_density of its potential, and all rows are integrated against
    dt by one _LEBESGUE.integrate call. At the curvature_atoms only the
    blocks holding a row paired against atoms are evaluated, and only those
    rows weighed by the masses; their sum comes first and the kernel values
    are added to it. The kinks of every potential evaluated and every
    potential paired split the line. Returns (values, err parts) per block.
    """
    pots = {id(q): q for qs, _, _ in blocks for q in qs}
    paired = {id(q): q for _, _, over in blocks for q in over if q is not None}
    # each paired potential's rows, in one sweep over the rows
    owned = {key: [] for key in paired}
    spans, end = [], 0
    for qs, row_fn, over in blocks:
        spans.append((slice(end, end + len(over)), row_fn, [id(q) for q in qs]))
        for i, q in enumerate(over, end):
            if q is not None:
                owned[id(q)].append(i)
        end += len(over)
    atoms = []
    for key, q in paired.items():
        for loc, m in q.curvature_atoms:
            mass = np.zeros(end)
            mass[owned[key]] = m
            atoms.append((loc, mass))
    atom_rows = sorted({i for key, q in paired.items() if q.curvature_atoms for i in owned[key]})
    atom_blocks = [s for s in spans if any(s[0].start <= i < s[0].stop for i in atom_rows)]
    splits = [s for q in {**pots, **paired}.values() for s in q.kinks]

    def rows(t, which=spans):
        at, out = {}, np.empty((end, len(t)))
        for span, row_fn, keys in which:
            for key in keys:
                if key not in at:
                    at[key] = pots[key].phi(t)
            out[span] = row_fn(t, *(at[key] for key in keys))
        return out

    def weighed(t):
        y = rows(t)
        for key, q in paired.items():
            d = q.curvature_density(t)
            for r in owned[key]:
                y[r] *= d
        return y

    # the atoms first: their values at the locations times the mass vectors
    acc = np.zeros(end)
    if atoms:
        locs, masses = zip(*atoms)
        y = rows(np.array(locs), atom_blocks)
        acc[atom_rows] = (np.array(masses).T[atom_rows] * y[atom_rows]).sum(axis=-1)
    vals, err = _LEBESGUE.integrate(weighed, splits)
    acc = acc + vals
    return [(acc[span], err.parts[span]) for span, _, _ in spans]


@dataclass(frozen=True, eq=False)
class VolumeForm:
    """A volume form on the sphere: a degree-2 potential psi and its norm.

    norm records int e^{t-psi} dt, the only place a normalization constant
    can hide; the area measure rho = 2 e^{t-psi} / norm dt follows from the
    two (total mass 2). A given norm (the closed forms) is exact. A norm of
    None, as volume_from_potential gives, is integrated as a dt row of each
    pass that needs it (_normed_pairings), with its estimate there; the
    record never computes or keeps it, so no result depends on what was
    computed before. A psi whose degree is not 2, or a given norm that is
    not positive and finite, raises ValueError.
    """

    psi: RadialPotential
    norm: Optional[float]

    def __post_init__(self):
        if self.psi.degree != 2:
            raise ValueError(f"volume potential must have degree 2, got {self.psi.degree}")
        if self.norm is not None and not (self.norm > 0 and math.isfinite(self.norm)):
            raise ValueError(f"volume norm must be positive and finite, got {self.norm!r}")


# the least normal float: a positive integral below it has underflowed
_TINY = np.finfo(float).tiny


def _normed_pairings(blocks, volumes):
    """_pairings(blocks) and the (norm, norm_err) of each volume, from one kernel call.

    A volume with a given norm gives it, with estimate 0. The norm of each
    other volume is a dt row e^{t - psi} stacked after the blocks, and its
    estimate there; a norm that is not finite or is below the least normal
    float (it has underflowed) raises NumericalError.
    """
    lazy = list({id(w): w for w in volumes if w.norm is None}.values())
    if not lazy:
        return _pairings(blocks), [(w.norm, 0.0) for w in volumes]
    psis = tuple(w.psi for w in lazy)
    norm_rows = psis, lambda t, *vals: np.exp(t - np.array(vals)), (None,) * len(lazy)
    *out, (vals, parts) = _pairings([*blocks, norm_rows])
    for norm in vals:
        if not (norm >= _TINY and math.isfinite(norm)):
            raise NumericalError(
                f"volume normalization failed: int e^(t-psi) = {norm} is not finite or underflowed"
            )
    got = {id(w): (float(v), float(e)) for w, v, e in zip(lazy, vals, parts)}
    return out, [got.get(id(w), (w.norm, 0.0)) for w in volumes]


@dataclass
class ConvergenceReport:
    """Outcome of a sequence study: values along indices, gaps, fitted rate."""

    indices: tuple
    values: tuple
    target: Optional[float]
    gaps: tuple
    rate: Optional[float]
    verdict: str  # converged | diverged | inconclusive
    message: str = ""

    @classmethod
    def of(cls, indices, values, tol: float, message: str, target=None, tail: int = 3):
        """The report of a sequence study: the one place a limit is declared.

        With a target the gaps are |v - target| and sequence_verdict decides.
        Without one the study is Cauchy: the gaps are taken to the last value
        and the verdict is converged when the last `tail` values spread by
        strictly less than tol. The rate is fitted to the nonzero gaps, so a
        Cauchy study's own last value drops out. message is a template,
        formatted with tol, spread and tail (the count of values in the tail).
        An empty study declares nothing and raises ValueError.
        """
        indices, values = tuple(indices), tuple(values)
        if not values:
            raise ValueError("a sequence study needs at least one index")
        ref = values[-1] if target is None else target
        gaps = tuple(abs(v - ref) for v in values)
        last = values[-tail:]
        spread = max(last) - min(last)
        if target is None:
            verdict = "converged" if spread < tol else "inconclusive"
        else:
            verdict = sequence_verdict(gaps, tol)
        text = message.format(tol=tol, spread=spread, tail=len(last))
        return cls(indices, values, target, gaps, _fit_rate(indices, gaps), verdict, text)


# --- pairings ---


def _row(f):
    """(potentials, row_fn) of a one-row block whose row is f.

    f is a callable of numpy arrays or a degree-0 potential, whose kinks
    then split the line as every evaluated potential's do.
    """
    if not isinstance(f, RadialPotential):
        return (), f
    if f.degree != 0:
        raise ValueError(f"pairing integrand must have degree 0, got degree {f.degree}")
    return (f,), lambda t, v: v


def pair(f, p: RadialPotential) -> float:
    """Pair a bounded degree-0 function against the curvature of p.

        pair(f, p) = int f dmu_p.

    For degree-0 smooth f and g this is symmetric and equals
    -(1/2) int r f'(r) g'(r) dr, the (negative) Dirichlet energy pairing.
    pair(1, p) = degree(p) in these units.
    """
    pots, row_fn = _row(f)
    ((val, _),) = _pairings([(pots, row_fn, (p,))])
    return float(val[0])


def integrate_volume(f, w: VolumeForm) -> float:
    """int f drho_w over the sphere (rho_w has total mass 2).

    The row f 2 e^{t - psi} is paired against dt, in one kernel call with
    the norm where w has none of its own, and divided by the norm.
    """
    pots, row_fn = _row(f)

    def area(t, *vals):
        return row_fn(t, *vals[:-1]) * (2.0 * np.exp(t - vals[-1]))

    ((val, _),), ((norm, _),) = _normed_pairings([((*pots, w.psi), area, (None,))], (w,))
    return float(val[0]) / norm


def measure_mass(p: RadialPotential) -> float:
    """Total curvature mass, which must equal the degree (Lelong units)."""
    ((val, _),) = _pairings([((), lambda t: 1.0, (p,))])
    return float(val[0])


# --- volume form constructors ---


def logistic_density(t):
    """e^t / (1+e^t)^2, overflow safe; the basic Fubini-Study shape.

    Written as e / (1+e)^2 with e = e^{-|t|}, one exponential; 0 at +-inf.
    """
    e = np.exp(-np.abs(np.asarray(t, dtype=float)))
    return e / (1.0 + e) ** 2


def volume_from_potential(psi: RadialPotential) -> VolumeForm:
    """VolumeForm(psi, None): the volume of a degree-2 psi, its norm integrated where it is used.

    No quadrature runs here: each pass that needs the norm integrates it as
    a row of its own (VolumeForm).
    """
    return VolumeForm(psi, None)


# --- weak convergence checks ---


def _fit_rate(indices, gaps):
    # least squares slope of log(gap) against index, ignoring zero gaps
    xs, ys = [], []
    for i, g in zip(indices, gaps):
        if g > 0:
            xs.append(float(i))
            ys.append(math.log(g))
    if len(xs) < 2:
        return None
    A = np.vstack([xs, np.ones(len(xs))]).T
    slope, _ = np.linalg.lstsq(A, np.array(ys), rcond=None)[0]
    return float(slope)


def sequence_verdict(gaps, tol: float) -> str:
    gaps = [abs(g) for g in gaps]
    if not gaps:
        return "inconclusive"
    tail = gaps[-min(3, len(gaps)):]
    if gaps[-1] < tol and all(x >= y - 1e-15 for x, y in zip(tail, tail[1:])):
        return "converged"
    if len(gaps) >= 3 and gaps[-1] > 10.0 * gaps[0] and gaps[-1] > gaps[-2] > gaps[-3]:
        return "diverged"
    return "inconclusive"


def bedford_taylor_check(
    family: Callable[[int], RadialPotential],
    limit: RadialPotential,
    test_fn,
    indices: Sequence[int] = tuple(range(3, 11)),
    tol: float = 1e-7,
) -> ConvergenceReport:
    """Weak-* convergence of curvature measures along an approximating family.

    Checks int g dmu_{p_n} -> int g dmu_limit for the given test function,
    which is the operational content of the Monge-Ampere continuity the
    whole approximation scheme rests on (decreasing or uniform limits of
    admissible potentials).
    """
    target = pair(test_fn, limit)
    vals = [pair(test_fn, family(n)) for n in indices]
    return ConvergenceReport.of(indices, vals, tol, "weak pairing vs limit, tol={tol:g}", target)
