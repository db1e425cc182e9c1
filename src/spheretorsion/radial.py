"""Circle-invariant potential calculus on the sphere, reduced to the line.

Everything is written in the logarithmic coordinate t = log|z|^2. A metric
on O(m) is e^{-phi} times the flat reference, with phi a convex-ish function
of t growing like m*t as t -> +inf and bounded as t -> -inf. The curvature
current dd^c phi pushes forward to a measure on the t-line:

    mu_phi = phi''(t) dt + sum of atoms,

normalized so that dd^c max(0, t) is the unit Dirac at t = 0 (Lelong units).
Consequently mass(mu_phi) = degree, with no 2*pi anywhere.

Volume forms on the sphere are the degree 2 case: a potential psi, from
which the area measure rho follows (total mass 2, the degree of the
tangent bundle):

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
    mass is the degree, so a positive potential of negative degree, or one
    with an atom of negative mass, is a contradiction and raises ValueError.
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
        if not self.positive:
            return
        name = self.label or "<anon>"
        if self.degree < 0:
            raise ValueError(
                f"potential {name} is declared positive with degree "
                f"{self.degree}: a nonnegative curvature measure has nonnegative mass"
            )
        for loc, mass in self.curvature_atoms:
            if mass < 0:
                raise ValueError(
                    f"potential {name} is declared positive with a curvature atom of "
                    f"mass {mass} at t = {loc}: a nonnegative measure has no negative atom"
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
    rows weighed by the masses; their sum comes first, and the kernel
    values are added to it. A sum that is not finite raises NumericalError
    naming the measure and the atom's t, as a line part that is not finite
    does in the kernel. The kinks of every potential evaluated and every
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
            atoms.append((loc, mass, q))
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
        locs, masses, owners = zip(*atoms)
        y = rows(np.array(locs), atom_blocks)
        terms = np.array(masses).T[atom_rows] * y[atom_rows]
        acc[atom_rows] = terms.sum(axis=-1)
        if not np.isfinite(acc).all():
            j = (~np.isfinite(terms)).any(axis=0).argmax()
            name = owners[j].label or "<anon>"
            raise NumericalError(f"pairing against {name} is not finite at its atom t = {locs[j]}")
    vals, err = _LEBESGUE.integrate(weighed, splits)
    acc = acc + vals
    return [(acc[span], err.parts[span]) for span, _, _ in spans]


@dataclass(frozen=True, eq=False)
class VolumeForm:
    """A volume form on the sphere: the checked record of its degree-2 potential psi.

    psi is the whole datum. Its norm int e^{t-psi} dt, the only place a
    normalization constant can hide, is integrated as a dt row of each
    pass that needs it (_normed_pairings), with its estimate there; the
    area measure rho = 2 e^{t-psi} / norm dt (total mass 2) follows. The
    record never computes or keeps the norm, so no result depends on what
    was computed before. A psi whose degree is not 2 raises ValueError.
    """

    psi: RadialPotential

    def __post_init__(self):
        if self.psi.degree != 2:
            raise ValueError(f"volume potential must have degree 2, got {self.psi.degree}")


# the least normal float: a positive integral below it has underflowed
_TINY = np.finfo(float).tiny


def _normed_pairings(blocks, volumes):
    """_pairings(blocks) and the (norm, norm_err) of each volume, from one kernel call.

    The norm of each distinct volume potential is a dt row e^{t - psi}
    stacked after the blocks, and norm_err its estimate there; volumes
    sharing their psi share the row. A norm that is not finite or is below
    the least normal float (it has underflowed) raises NumericalError.
    """
    psis = {id(w.psi): w.psi for w in volumes}
    rows = lambda t, *vals: np.exp(t - np.array(vals))
    *out, (vals, parts) = _pairings([*blocks, (tuple(psis.values()), rows, (None,) * len(psis))])
    for norm in vals:
        if not (norm >= _TINY and math.isfinite(norm)):
            raise NumericalError(
                f"volume normalization failed: int e^(t-psi) = {norm} is not finite or underflowed"
            )
    got = {key: (float(v), float(e)) for key, v, e in zip(psis, vals, parts)}
    return out, [got[id(w.psi)] for w in volumes]


@dataclass
class ConvergenceReport:
    """A sequence study: its values along indices and the numbers its verdict reads.

    gaps are |v - target|, or |v - last value| on a Cauchy study. spread is
    the spread of the last `tail` values, which a Cauchy study compares
    with tol; it is None with a target, whose verdict reads the gaps.
    """

    indices: tuple
    values: tuple
    target: Optional[float]
    gaps: tuple
    tol: float
    spread: Optional[float]
    verdict: str  # converged | diverged | inconclusive

    @classmethod
    def of(cls, indices, values, tol: float, target=None, tail: int = 3):
        """The report of a sequence study: the one place a limit is declared.

        With a target the gaps are |v - target| and sequence_verdict decides.
        Without one the study is Cauchy: the gaps are taken to the last value
        and the verdict is converged when there are at least `tail` values
        and the last `tail` spread by strictly less than tol. An empty study
        declares nothing and raises ValueError.
        """
        indices, values = tuple(indices), tuple(values)
        if not values:
            raise ValueError("a sequence study needs at least one index")
        if target is not None:
            gaps = tuple(abs(v - target) for v in values)
            return cls(indices, values, target, gaps, tol, None, sequence_verdict(gaps, tol))
        gaps = tuple(abs(v - values[-1]) for v in values)
        last = values[-tail:]
        spread = max(last) - min(last)
        verdict = "converged" if len(values) >= tail and spread < tol else "inconclusive"
        return cls(indices, values, None, gaps, tol, spread, verdict)


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
    the norm row of w, and divided by the norm.
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
    """VolumeForm(psi): the volume of a degree-2 psi, its norm integrated where it is used.

    No quadrature runs here: each pass that needs the norm integrates it as
    a row of its own (VolumeForm).
    """
    return VolumeForm(psi)


# --- weak convergence checks ---


def sequence_verdict(gaps, tol: float) -> str:
    """converged, diverged or inconclusive by a study's last 3 gaps; fewer declare nothing."""
    gaps = [abs(g) for g in gaps]
    if len(gaps) < 3:
        return "inconclusive"
    a, b, c = gaps[-3:]
    if c < tol and a >= b - 1e-15 and b >= c - 1e-15:
        return "converged"
    if c > 10.0 * gaps[0] and c > b > a:
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
    return ConvergenceReport.of(indices, vals, tol, target)
