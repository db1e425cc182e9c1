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

from .quadrature import ErrorEstimate, NumericalError, integrate_line

REGULARITIES = ("smooth", "continuous-piecewise", "continuous")


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
    in the sense used throughout: positive and with the right growth).
    curvature_atoms / curvature_density describe mu_phi explicitly; every
    constructor in this library provides them, numerical differentiation is
    never used silently. curvature_density is the density on the whole
    line: it returns exactly 0 where mu_phi has no absolutely continuous
    mass.
    """

    degree: int
    phi: Callable
    regularity: str
    positive: bool
    kinks: tuple = ()
    curvature_atoms: tuple = ()
    curvature_density: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        if self.regularity not in REGULARITIES:
            raise ValueError(
                f"regularity must be one of {REGULARITIES}, got {self.regularity!r}"
            )

    def __call__(self, t):
        return self.phi(t)


@dataclass(frozen=True, eq=False)
class RadialMeasure:
    """A signed measure on the t-line: atoms plus an absolutely continuous part.

    This is the one place a function is paired with a measure. density is
    the density on the whole line, exactly 0 where there is no mass, and
    splits cut the line wherever it is not smooth. An integrand returning
    (K, N) pairs K functions at once; a stack of K measures is a _Stack.
    """

    atoms: tuple = ()
    density: Optional[Callable] = None
    splits: tuple = ()

    def integrate(self, f, extra_splits=()):
        """(int f dmu, err) for a callable f of numpy arrays, err as in integrate_line."""
        acc = self._at_atoms(f) if self.atoms else 0.0
        if self.density is None:
            err = ErrorEstimate(np.zeros(np.shape(acc)))
        else:
            splits = (*self.splits, *extra_splits)
            val, err = integrate_line(lambda t: self._weigh(f(t), t), splits)
            acc = acc + val
        return (float(acc) if np.ndim(acc) == 0 else acc), err

    def _at_atoms(self, f):
        # f against the atoms: its values at their locations times their masses
        locs, masses = zip(*self.atoms)
        return np.sum(np.array(masses).T * f(np.array(locs)), axis=-1)

    def _weigh(self, y, t):
        # f's values y at the nodes t times the density there (a _Stack,
        # whose f returns a new array per call, weighs y in place)
        return y * self.density(t)


@dataclass(frozen=True, eq=False)
class _Stack(RadialMeasure):
    """K measures stacked row by row, paired by one integrate call.

    atoms carry (K,) mass vectors and density(t) is the (K, N) density,
    one row per measure. weights holds the same as (rows, g) pairs, one per
    measure, and integrate applies them in place: g's values weigh its
    rows of f, and a measure of atoms alone (g None) zeroes them. A row in
    no pair pairs against dt and is left as f returned it.

    f takes the blocks to fill as a second argument, f(t, blocks), and
    leaves the other rows unwritten. atom_rows are the rows paired against
    a measure with atoms and atom_blocks the blocks holding them: at the
    atoms the stack evaluates only those blocks and weighs only those rows
    by the masses; every other row gets 0 there.
    """

    weights: tuple = ()
    atom_blocks: tuple = ()
    atom_rows: tuple = ()

    def _at_atoms(self, f):
        locs, masses = zip(*self.atoms)
        rows = list(self.atom_rows)
        y = f(np.array(locs), self.atom_blocks)
        acc = np.zeros(len(y))
        acc[rows] = (np.array(masses).T[rows] * y[rows]).sum(axis=-1)
        return acc

    def _weigh(self, y, t):
        for rows, g in self.weights:
            d = 0.0 if g is None else g(t)
            for r in rows:
                y[r] *= d
        return y


def _pairings(blocks):
    """Every row of every block from one stacked kernel call.

    A block is (potentials, row_fn, over): row_fn(t, *phi values) returns
    the block's rows, anything that broadcasts to (len(over), N), and row i
    pairs against the curvature measure of over[i], or against dt where
    over[i] is None. Potentials and measures are distinct by identity, and
    each is evaluated once per node array. A dt row is left as row_fn
    returned it; every other row is multiplied in place by its measure's
    density, or by 0 for atoms alone. At the atoms only the blocks holding
    a row paired against atoms are evaluated, and only those rows weighed.
    Rows that pair only against atoms make no kernel call. The kinks of
    every potential evaluated and every measure paired split the line.
    Returns (values, err parts) per block.
    """
    pots = {id(q): q for qs, _, _ in blocks for q in qs}
    paired = {id(q): q for _, _, over in blocks for q in over if q is not None}
    mus = {key: c1_measure(q) for key, q in paired.items()}
    # each measure's rows, in one sweep over the rows
    owned = {key: [] for key in mus}
    spans, end = [], 0
    for qs, row_fn, over in blocks:
        spans.append((slice(end, end + len(over)), row_fn, [id(q) for q in qs]))
        for i, q in enumerate(over, end):
            if q is not None:
                owned[id(q)].append(i)
        end += len(over)
    weights = tuple((owned[key], mu.density) for key, mu in mus.items())
    atoms = []
    for key, mu in mus.items():
        for loc, m in mu.atoms:
            mass = np.zeros(end)
            mass[owned[key]] = m
            atoms.append((loc, mass))
    atom_rows = sorted({i for key, mu in mus.items() if mu.atoms for i in owned[key]})
    atom_blocks = [s for s in spans if any(s[0].start <= i < s[0].stop for i in atom_rows)]
    splits = [s for q in pots.values() for s in q.kinks]
    splits += [s for key, mu in mus.items() if key not in pots for s in mu.splits]

    def rows(t, which=spans):
        at, out = {}, np.empty((end, len(t)))
        for span, row_fn, keys in which:
            for key in keys:
                if key not in at:
                    at[key] = pots[key].phi(t)
            out[span] = row_fn(t, *(at[key] for key in keys))
        return out

    def density(t):
        return stack._weigh(np.ones((end, len(t))), t)

    # a row no measure owns pairs against dt
    dt_rows = end > sum(map(len, owned.values()))
    dense = dt_rows or any(mu.density is not None for mu in mus.values())
    stack = _Stack(
        tuple(atoms), density if dense else None, splits, weights, tuple(atom_blocks), tuple(atom_rows)
    )
    vals, err = stack.integrate(rows)
    return [(vals[span], err.parts[span]) for span, _, _ in spans]


class VolumeForm:
    """A volume form on the sphere: a degree-2 potential and its norm.

    norm records int e^{t-psi} dt, the only place a normalization constant
    can hide; the area measure rho follows from the two (total mass 2).
    norm_err bounds the error of norm. A volume built with a norm (the
    closed forms) keeps it and its norm_err, 0 when exact. One built with
    norm None, as volume_from_potential builds it, has no norm of its own:
    each pass that needs it integrates it as a dt row (_normed_pairings),
    whose estimate is norm_err there, so no result depends on what was
    computed or read before. Reading norm, norm_err or rho of such a volume
    integrates that row alone, once.
    """

    def __init__(
        self, psi: RadialPotential, norm: Optional[float], label: str = "", norm_err: float = 0.0
    ):
        self.psi, self.label = psi, label
        self._given = None if norm is None else (norm, norm_err)
        self._read = None

    @property
    def norm(self) -> float:
        return self._norm()[0]

    @property
    def norm_err(self) -> float:
        return self._norm()[1]

    def _norm(self):
        if self._given is not None:
            return self._given
        if self._read is None:
            self._read = _normed_pairings([], (self,))[1][0]
        return self._read

    @property
    def rho(self) -> RadialMeasure:
        """Area measure 2 e^{t - psi(t)} / norm dt, split at the kinks of psi."""
        ph, n = self.psi.phi, self.norm
        return RadialMeasure(
            density=lambda t: 2.0 * np.exp(t - ph(t)) / n, splits=tuple(self.psi.kinks)
        )


def _normed_pairings(blocks, volumes):
    """_pairings(blocks) and the (norm, norm_err) of each volume, from one kernel call.

    A volume with a given norm gives it. The norm of each other volume is
    a dt row e^{t - psi} stacked after the blocks, and its estimate there;
    a norm that is not positive and finite raises NumericalError.
    """
    lazy = list({id(w): w for w in volumes if w._given is None}.values())
    if not lazy:
        return _pairings(blocks), [w._given for w in volumes]
    psis = tuple(w.psi for w in lazy)
    norm_rows = psis, lambda t, *vals: np.exp(t - np.array(vals)), (None,) * len(lazy)
    *out, (vals, parts) = _pairings([*blocks, norm_rows])
    for norm in vals:
        if not (norm > 0 and math.isfinite(norm)):
            raise NumericalError(f"volume normalization failed: int e^(t-psi) = {norm}")
    got = {id(w): (float(v), float(e)) for w, v, e in zip(lazy, vals, parts)}
    return out, [w._given or got[id(w)] for w in volumes]


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


# --- measure extraction and pairings ---


def c1_measure(p: RadialPotential) -> RadialMeasure:
    """Curvature measure of the potential, Lelong-normalized (mass = degree)."""
    if p.curvature_density is None and not p.curvature_atoms and p.degree != 0:
        raise ValueError(
            f"potential {p.label or '<anon>'} carries no curvature data"
        )
    return RadialMeasure(
        atoms=tuple(p.curvature_atoms),
        density=p.curvature_density,
        splits=tuple(p.kinks),
    )


def _as_callable(f):
    if isinstance(f, RadialPotential):
        if f.degree != 0:
            raise ValueError(
                f"pairing integrand must have degree 0, got degree {f.degree}"
            )
        return f.phi, tuple(f.kinks)
    return f, ()


def pair(f, p: RadialPotential) -> float:
    """Pair a bounded degree-0 function against the curvature of p.

        pair(f, p) = int f dmu_p.

    For degree-0 smooth f and g this is symmetric and equals
    -(1/2) int r f'(r) g'(r) dr, the (negative) Dirichlet energy pairing.
    pair(1, p) = degree(p) in these units.
    """
    fc, fk = _as_callable(f)
    return c1_measure(p).integrate(fc, extra_splits=fk)[0]


def integrate_volume(f, w: VolumeForm) -> float:
    """int f drho_w over the sphere (rho_w has total mass 2)."""
    fc, fk = _as_callable(f)
    return w.rho.integrate(fc, extra_splits=fk)[0]


def measure_mass(p: RadialPotential) -> float:
    """Total curvature mass, which must equal the degree (Lelong units)."""
    return c1_measure(p).integrate(lambda t: 1.0)[0]


# --- volume form constructors ---


def logistic_density(t):
    """e^t / (1+e^t)^2, overflow safe; the basic Fubini-Study shape.

    Written as e / (1+e)^2 with e = e^{-|t|}, one exponential; 0 at +-inf.
    """
    e = np.exp(-np.abs(np.asarray(t, dtype=float)))
    return e / (1.0 + e) ** 2


def volume_from_potential(psi: RadialPotential, label: str = "") -> VolumeForm:
    """The volume form of a degree-2 potential psi, its norm integrated where it is used.

    No quadrature runs here: a pass that needs the norm integrates it as a
    row of its own (VolumeForm), and reading norm, norm_err or rho
    integrates that row alone.
    """
    if psi.degree != 2:
        raise ValueError(f"volume potential must have degree 2, got {psi.degree}")
    return VolumeForm(psi, None, label or psi.label)


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
