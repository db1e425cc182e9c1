"""Measure calculus on the t-line: masses, pairings, volume forms.

Oracle conventions. [TRIVIAL] facts are asserted against hand values,
[DERIVED] facts against independent one-line quadratures done here with
scipy.integrate.quad (never through the library's own integrate_line).
"""

import dataclasses
import inspect
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as sciquad

from spheretorsion import (
    NumericalError,
    bedford_taylor_check,
    bundle_anomaly,
    canonical,
    counterexample_potential,
    dual,
    fubini_study,
    gram,
    integrate_line,
    integrate_volume,
    load_grid,
    logistic_density,
    lse,
    measure_mass,
    mollified_max,
    pair,
    quillen,
    tensor,
    volume_anomaly,
    volume_canonical,
    volume_from_potential,
    volume_fs,
    write_grid,
    zhang_iterate,
)
import spheretorsion
from spheretorsion import experiments, quadrature, radial
from spheretorsion.metrics import _concentration_splits
from spheretorsion.quadrature import QuadConfig
from spheretorsion.radial import (
    ConvergenceReport,
    RadialMeasure,
    RadialPotential,
    VolumeForm,
    _normed_pairings,
    _pairings,
    sequence_verdict,
)

FAIL_TOL = quadrature.DEFAULT_QUAD.fail_tol


def bump(t):
    # smooth compactly supported test function on [-3, 2], C^1 at the ends
    t = np.asarray(t, dtype=float)
    u = (2.0 * t + 1.0) / 5.0  # maps [-3, 2] to [-1, 1]
    inside = np.abs(u) < 1.0
    out = np.zeros_like(t)
    out[inside] = (1.0 - u[inside] ** 2) ** 2
    return out if out.ndim else float(out)


def bump_prime(t):
    t = np.asarray(t, dtype=float)
    u = (2.0 * t + 1.0) / 5.0
    inside = np.abs(u) < 1.0
    out = np.zeros_like(t)
    out[inside] = 2.0 * (1.0 - u[inside] ** 2) * (-2.0 * u[inside]) * (2.0 / 5.0)
    return out if out.ndim else float(out)


# --- curvature mass is the degree ---


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_fs_mass_is_degree(m):
    assert abs(measure_mass(fubini_study(m)) - m) < 1e-10


@pytest.mark.parametrize("m", [0, 1, 4])
def test_canonical_mass_is_degree(m):
    # pure atom, no quadrature at all
    assert measure_mass(canonical(m)) == pytest.approx(m, abs=0)


@given(m=st.integers(min_value=0, max_value=9))
@settings(max_examples=10, deadline=None)
def test_smooth_families_mass_is_degree(m):
    for p in (lse(m, 3.0), mollified_max(m, 0.4)):
        assert abs(measure_mass(p) - m) < 1e-9


@pytest.mark.parametrize("n", [0, 3, 9, 14, 20])
def test_zhang_iterate_preserves_mass(n):
    # the n = 14 entry is the regression guard for the concentration bug:
    # without the bracket splits QUADPACK steps over the width-2^-n bump
    p = zhang_iterate(fubini_study(2), 2, n)
    assert abs(measure_mass(p) - 2.0) < 1e-9


def test_sharp_lse_keeps_its_mass():
    p = lse(3, 3.0**9)
    assert abs(measure_mass(p) - 3.0) < 1e-9


def test_degree_zero_without_curvature_is_the_zero_measure():
    p = RadialPotential(
        degree=0, phi=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        positive=True, curvature_density=np.zeros_like,
    )
    assert measure_mass(p) == 0.0
    assert pair(bump, p) == 0.0


def test_missing_curvature_data_refused():
    # the density is a required field: a potential without it is never built
    with pytest.raises(TypeError, match="curvature_density"):
        RadialPotential(
            degree=2, phi=lambda t: 2.0 * np.maximum(np.asarray(t, dtype=float), 0.0),
            positive=True,
        )


# --- pairing: atoms, by-parts oracle, bilinearity, symmetry ---


def test_lelong_atom_pairs_to_point_value():
    # [TRIVIAL] mu_{m max(0,t)} = m delta_0
    for m in (1, 2, 5):
        assert pair(bump, canonical(m)) == pytest.approx(m * bump(0.0), abs=0)


def test_pair_against_fs_matches_by_parts_oracle():
    # [DERIVED] int f dmu_fs = -int f'(t) phi'(t) dt for compactly supported f;
    # phi' = m sigma(t) computed here from scratch
    m = 3

    def oracle(t):
        return -bump_prime(t) * m / (1.0 + math.exp(-t))

    want, _ = sciquad(oracle, -3.0, 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    got = pair(bump, fubini_study(m))
    assert abs(got - want) < 1e-8


def test_pair_accepts_degree_zero_potentials_and_uses_their_kinks():
    f = tensor(mollified_max(2, 0.7), dual(fubini_study(2)))
    assert f.degree == 0
    got = pair(f, fubini_study(1))
    want = pair(lambda t: np.asarray(f.phi(t), dtype=float), fubini_study(1))
    assert abs(got - want) < 1e-10


def test_pair_refuses_nonzero_degree_integrand():
    with pytest.raises(ValueError, match="degree 0"):
        pair(fubini_study(1), fubini_study(1))


@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=15, deadline=None)
def test_pair_is_bilinear_in_the_function_slot(a, b):
    p = fubini_study(2)
    f = lambda t: a * bump(t) + b * bump(np.asarray(t) - 0.3)
    lhs = pair(f, p)
    rhs = a * pair(bump, p) + b * pair(
        lambda t: bump(np.asarray(t) - 0.3), p
    )
    assert abs(lhs - rhs) < 1e-10


def test_pair_is_symmetric_on_degree_zero_potentials():
    # pair(f, mu_g) = -int f' g' dt = pair(g, mu_f) for degree-0 f, g
    f = tensor(mollified_max(2, 0.7), dual(fubini_study(2)))
    g = tensor(lse(1, 3.0), dual(fubini_study(1)))
    assert abs(pair(f, g) - pair(g, f)) < 1e-8


def test_pair_symmetric_slot_matches_dirichlet_oracle():
    # same pair as above, third route: quadrature of -f'(t) g'(t) with
    # hand derivatives; f' = 2(P_mm(t/e) - sigma) style, do it numerically
    f = tensor(mollified_max(2, 0.7), dual(fubini_study(2)))
    g = tensor(lse(1, 3.0), dual(fubini_study(1)))

    def fprime(t, h=1e-6):
        return (float(f.phi(t + h)) - float(f.phi(t - h))) / (2.0 * h)

    def gprime(t):
        # exact: d/dt [ (1/3) log(1+e^{3t}) - log(1+e^t) ]
        return 1.0 / (1.0 + math.exp(-3.0 * t)) - 1.0 / (1.0 + math.exp(-t))

    want, _ = sciquad(
        lambda t: -fprime(t) * gprime(t), -40.0, 40.0,
        points=[-0.7, 0.0, 0.7], epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    assert abs(pair(f, g) - want) < 1e-6


# --- stacked measures: one kernel call for several pairings ---


def smooth_test_fn(t):
    return 1.0 / (1.0 + (np.asarray(t, dtype=float) - 0.3) ** 2)


def test_pairings_pair_each_row_like_its_measure_alone():
    # atoms, a compactly supported density and a density on the whole line
    pots = [canonical(2), mollified_max(1, 0.3), fubini_study(3)]
    ((vals, parts),) = _pairings([((), smooth_test_fn, pots)])
    assert vals.shape == parts.shape == (3,) and parts.sum() <= FAIL_TOL
    for row, p in zip(vals, pots):
        assert abs(row - pair(smooth_test_fn, p)) < 1e-13


def test_pairings_of_atoms_alone_make_one_kernel_call(monkeypatch):
    # the rows are weighed by the zero density like any other, in the one
    # kernel call every pairing makes, which adds exactly 0 to the atom sums
    calls = []

    def recording(f, splits, _integrate=radial.integrate_line):
        calls.append(splits)
        return _integrate(f, splits)

    monkeypatch.setattr("spheretorsion.radial.integrate_line", recording)
    ((vals, parts),) = _pairings([((), smooth_test_fn, [canonical(2), canonical(3)])])
    assert len(calls) == 1
    assert vals.tolist() == [2.0 * smooth_test_fn(0.0), 3.0 * smooth_test_fn(0.0)]
    assert not parts.any()


def test_a_pairing_against_atoms_alone_evaluates_its_integrand_on_the_line():
    # exp(t^2) overflows on the nodes: weighed by the zero density it reads
    # inf * 0 = nan there, so the pairing raises as against any density
    # rather than returning the atom's 2 exp(0)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="diverged"):
            pair(lambda t: np.exp(t * t), canonical(2))


def test_pairings_integrate_each_row_times_its_density_in_one_call(monkeypatch):
    # _pairings makes one RadialMeasure.integrate call, against dt; its
    # integrand returns each row times its own density: 1 for a dt row and
    # 0 for a row paired against atoms alone
    calls = []

    def recording_integrate(self, f, splits, _integrate=radial.RadialMeasure.integrate):
        calls.append((self, f))
        return _integrate(self, f, splits)

    monkeypatch.setattr(radial.RadialMeasure, "integrate", recording_integrate)
    mm, fs = mollified_max(1, 0.3), fubini_study(3)
    _pairings([((), smooth_test_fn, [canonical(2), None, mm, fs, mm])])
    ((dt, f),) = calls
    t = np.linspace(-3.0, 3.0, 41)
    assert dt is radial._LEBESGUE
    d = [p.curvature_density(t) for p in (mm, fs)]
    want = np.array([np.zeros_like(t), np.ones_like(t), d[0], d[1], d[0]]) * smooth_test_fn(t)
    assert np.array_equal(f(t), want)


@pytest.mark.parametrize("p", [mollified_max(1, 0.3), canonical(2), fubini_study(3)])
def test_pair_is_the_same_whatever_array_f_returns(p):
    # _pairings copies every result into its own stack: an int array, a
    # read-only broadcast, a Python scalar
    def read_only(t):
        y = np.cos(t)
        y.flags.writeable = False
        return y

    const = [
        lambda t: np.full(np.shape(t), 3.0),
        lambda t: np.full(np.shape(t), 3),
        lambda t: np.broadcast_to(3.0, np.shape(t)),
        lambda t: 3.0,
    ]
    assert len({pair(f, p) for f in const}) == 1
    assert pair(read_only, p) == pair(np.cos, p)


def memo_cos():
    """np.cos that returns the one array it keeps for each node array it has seen."""
    seen = {}

    def f(t):
        t = np.asarray(t, dtype=float)
        return seen.setdefault((t.shape, t.tobytes()), np.cos(t))

    return f


@pytest.mark.parametrize(
    "integral",
    [
        lambda f: pair(f, fubini_study(3)),
        lambda f: pair(f, mollified_max(1, 0.3)),
        lambda f: integrate_volume(f, volume_from_potential(lse(2, 3.0))),
    ],
    ids=["pair-fs", "pair-mollmax", "volume-lse"],
)
def test_an_f_that_keeps_its_arrays_gives_the_same_value_on_every_call(integral):
    # the rows are copied into the pairing's own stack, so weighing them
    # never writes into what f keeps
    f, want = memo_cos(), integral(np.cos)
    assert [integral(f) for _ in range(3)] == [want] * 3


@pytest.mark.parametrize(
    "run",
    [
        lambda: pair(np.cos, mollified_max(1, 0.3)),
        lambda: measure_mass(fubini_study(3)),
        lambda: integrate_volume(np.cos, volume_fs()),
        lambda: integrate_volume(np.cos, volume_from_potential(lse(2, 3.0))),
        lambda: gram(lse(2, 9.0), volume_from_potential(lse(2, 4.0))),
        lambda: bundle_anomaly(lse(2, 9.0), fubini_study(2), volume_from_potential(lse(2, 4.0))),
        lambda: volume_anomaly(lse(2, 9.0), volume_from_potential(lse(2, 4.0)), volume_fs()),
        lambda: quillen(lse(2, 9.0), volume_from_potential(lse(2, 4.0))),
    ],
    ids=["pair", "measure_mass", "integrate_volume-fs", "integrate_volume-lazy", "gram",
         "bundle_anomaly", "volume_anomaly", "quillen"],
)
def test_every_pairing_makes_one_kernel_call_through_the_measure(run, monkeypatch):
    kernel, measure = [], []
    line, integrate = radial.integrate_line, radial.RadialMeasure.integrate
    monkeypatch.setattr(radial, "integrate_line", lambda *a: kernel.append(a) or line(*a))
    monkeypatch.setattr(
        radial.RadialMeasure, "integrate",
        lambda self, *a, **kw: measure.append(a) or integrate(self, *a, **kw),
    )
    run()
    assert len(kernel) == len(measure) == 1


def test_catalog_densities_vanish_outside_their_outermost_kinks(tmp_path):
    # kinks are the only split channel: a density is 0 off the span of its kinks
    mm = mollified_max(1, 0.3)
    path = str(tmp_path / "mm.csv")
    write_grid(mollified_max(2, 0.8), path, n=61)
    pots = [
        mm,
        zhang_iterate(mm, 2, 6),
        tensor(mm, mollified_max(2, 0.7)),
        dual(mm),
        counterexample_potential(1.0, 1e-2),
        counterexample_potential(1.0, 1e-5),
        load_grid(path),
    ]
    for p in pots:
        lo, hi = min(p.kinks), max(p.kinks)
        t = np.concatenate([lo - np.logspace(-12, 3, 200), hi + np.logspace(-12, 3, 200)])
        assert not np.any(p.curvature_density(t)), p.label
        kinks = np.array(sorted(p.kinks))
        assert np.any(p.curvature_density(0.5 * (kinks[1:] + kinks[:-1]))), p.label


# --- volume forms ---


def norm_of(w):
    """(norm, estimate) of w, as a pass that uses w gets them."""
    return _normed_pairings([], (w,))[1][0]


def area_density(w, t):
    """2 e^{t - psi} / norm, the area density of w."""
    return 2.0 * np.exp(t - w.psi.phi(t)) / norm_of(w)[0]


def test_logistic_density_is_the_two_exp_form_and_vanishes_at_infinity():
    rng = np.random.default_rng(5)
    t = np.concatenate((np.linspace(-800.0, 800.0, 16001), rng.normal(0.0, 20.0, 4000), [0.0, -0.0]))
    two_exp = np.exp(t - 2.0 * np.maximum(t, 0.0)) / (1.0 + np.exp(-np.abs(t))) ** 2
    assert np.array_equal(logistic_density(t), two_exp)
    assert logistic_density(np.array([np.inf, -np.inf])).tolist() == [0.0, 0.0]


def test_volume_masses_are_two():
    one = lambda t: 1.0
    assert abs(integrate_volume(one, volume_fs()) - 2.0) < 1e-10
    assert abs(integrate_volume(one, volume_canonical()) - 2.0) < 1e-10


def test_fs_volume_norm_and_density():
    # the norm is a row like any other: 1 within its estimate, which is > 0
    w = volume_fs()
    norm, err = norm_of(w)
    assert 0.0 < err and abs(norm - 1.0) <= err
    for t in (-2.0, 0.0, 1.5):
        want = 2.0 * math.exp(t) / (1.0 + math.exp(t)) ** 2
        assert abs(float(area_density(w, t)) - want) < 1e-15


def test_canonical_volume_density_is_exact_exponential():
    # the norm row reads 2 within its estimate, which is > 0, so the density
    # is e^{-|t|} up to that relative error
    w = volume_canonical()
    norm, err = norm_of(w)
    assert 0.0 < err and abs(norm - 2.0) <= err
    for t in (-3.0, -0.5, 0.0, 2.0):
        want = math.exp(-abs(t))
        assert abs(float(area_density(w, t)) - want) <= want * (err / norm + 4e-16)


def test_volume_from_potential_reproduces_both_catalog_forms():
    # rebuilding from the degree-2 potential must reproduce norm and density
    w1 = volume_from_potential(volume_fs().psi)
    assert abs(norm_of(w1)[0] - 1.0) < 1e-10
    w2 = volume_from_potential(volume_canonical().psi)
    assert abs(norm_of(w2)[0] - 2.0) < 1e-10
    for t in (-1.0, 0.0, 0.25, 3.0):
        assert abs(float(area_density(w2, t)) - math.exp(-abs(t))) < 1e-10


@pytest.mark.parametrize("a", [1.5, 4.5, 1093.5])
def test_volume_norm_err_bounds_the_norm(a):
    # [DERIVED] int e^t (1 + e^{at})^{-2/a} dt = B(1/a, 1/a) / a, by x = e^{at}
    norm, err = norm_of(volume_from_potential(lse(2, a)))
    want = mpmath.beta(1 / mpmath.mpf(a), 1 / mpmath.mpf(a)) / a
    assert 0.0 < err and abs(norm - want) <= err


def test_a_volume_form_is_the_checked_record_of_psi():
    # psi is the one field and nothing is kept beside it; a degree other
    # than 2 is refused
    assert [f.name for f in dataclasses.fields(VolumeForm)] == ["psi"]
    w = volume_from_potential(lse(2, 3.0))
    integrate_volume(lambda t: 1.0, w)
    assert vars(w) == {"psi": w.psi}
    assert w != volume_from_potential(w.psi)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.psi = fubini_study(2)
    with pytest.raises(ValueError, match="degree 2, got 3"):
        VolumeForm(fubini_study(3))


def test_a_volume_takes_no_given_norm():
    # a norm given beside psi was trusted as exact: VolumeForm(fs_2, 3.0) gave
    # T(fs_1) = 1.3418 against the true 0.0601, with T.err 2.1e-13
    with pytest.raises(TypeError):
        VolumeForm(fubini_study(2), 3.0)
    t = quillen(fubini_study(1), VolumeForm(fubini_study(2))).torsion
    assert abs(t.value - quillen(fubini_study(1), volume_fs()).torsion.value) <= t.err


def test_volume_from_potential_rejects_wrong_degree():
    with pytest.raises(ValueError, match="degree 2"):
        volume_from_potential(fubini_study(1))


def test_integrate_volume_fs_oracle():
    # [DERIVED] int bump * 2 e^t/(1+e^t)^2 dt via scipy directly
    want, _ = sciquad(
        lambda t: bump(t) * 2.0 * math.exp(t) / (1.0 + math.exp(t)) ** 2,
        -3.0, 2.0, epsabs=1e-13, epsrel=1e-13,
    )
    assert abs(integrate_volume(bump, volume_fs()) - want) < 1e-10


# --- quadrature plumbing ---


def test_integrate_line_splits_and_error_budget():
    val, err = integrate_line(lambda t: np.exp(-np.abs(t)), splits=(0.0,))
    assert abs(val - 2.0) < 1e-12
    assert err < FAIL_TOL


def test_integrate_line_fails_loudly_on_impossible_budget(monkeypatch):
    # the budget is read when integrate_line is called
    monkeypatch.setattr(quadrature, "DEFAULT_QUAD", QuadConfig(fail_tol=1e-18))
    with pytest.raises(NumericalError, match="error estimate"):
        integrate_line(lambda t: np.exp(-np.abs(t)), splits=(0.0,))


def test_clean_splits_sorts_drops_outside_and_collapses_near_duplicates():
    clean = quadrature._clean_splits
    # unsorted, an exact duplicate, and points off the finite line
    pts = (3.0, -1.0, 3.0, 0.5, -math.inf, math.inf, math.nan)
    assert clean(pts).tolist() == [-1.0, 0.5, 3.0]
    assert clean(()).tolist() == []
    # a chain, each point within 1e-13 relative of the one before, collapses
    # to its first point; a point just past that distance stays
    d = 0.9e-13 * 10.0
    assert clean((10.0 + 2 * d, 10.0, 10.0 + d)).tolist() == [10.0]
    far = 10.0 + 1.1e-12
    assert clean((10.0, far, 1.0, 1.0 + 1e-14)).tolist() == [1.0, 10.0, far]


def test_integrate_line_takes_no_support():
    # every integral runs over the whole line; an interval is a zero-outside integrand
    with pytest.raises(TypeError, match="support"):
        integrate_line(lambda t: np.exp(-t * t), support=(0.0, 1.0))


def test_no_public_callable_takes_a_budget():
    # the one budget is quadrature.DEFAULT_QUAD.fail_tol: no argument reaches it
    public = [getattr(m, name) for m in (spheretorsion, experiments) for name in m.__all__]
    # exception classes have no signature to read
    fns = [f for f in public if callable(f)]
    fns = [f for f in fns if not (isinstance(f, type) and issubclass(f, Exception))]
    for fn in fns + [RadialMeasure.integrate]:
        assert "cfg" not in inspect.signature(fn).parameters, fn
    for name in ("QuadConfig", "DEFAULT_QUAD"):
        assert name not in spheretorsion.__all__ and not hasattr(spheretorsion, name)


def _zero_outside(f, lo, hi):
    """The whole-line integrand that is f on [lo, hi] and 0 off it."""
    inner = hi if math.isfinite(hi) else lo  # a point where f is finite

    def g(t):
        inside = (lo <= t) & (t <= hi)
        return np.where(inside, f(np.where(inside, t, inner)), 0.0)

    return g


@pytest.mark.parametrize(
    "f, support",
    [
        (lambda t: np.exp(-0.5 * t * t) / (1.0 + t * t), None),
        (lambda t: np.cos(3.0 * t) * np.exp(-np.abs(t - 0.5)), (-np.inf, np.inf)),
        (lambda t: np.exp(-t) * np.sqrt(t), (0.0, np.inf)),
        (lambda t: np.exp(t) / (1.0 + t * t), (-np.inf, 1.5)),
        (lambda t: np.sqrt(t) * np.cos(t), (0.0, 3.0)),
        (lambda t: np.log(1.0 + t * t), (-2.0, 5.0)),
    ],
)
def test_integrate_line_matches_quadpack(f, support):
    # [DERIVED] against scipy's QUADPACK on the support of f; the kernel
    # integrates f, set to 0 off its support, over the line split at its ends
    lo, hi = support if support is not None else (-np.inf, np.inf)
    want, _ = sciquad(lambda t: float(f(t)), lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    ends = tuple(x for x in (lo, hi) if math.isfinite(x))
    got, err = integrate_line(_zero_outside(f, lo, hi), splits=ends)
    assert abs(got - want) < 1e-11
    assert err < FAIL_TOL


def test_integrate_line_finds_bracketed_bump():
    # [DERIVED] mass 1 logistic bump of width 2^-30 times e^t; with s = lam t
    # the integral is int logistic(s) e^{s/lam} ds, done by scipy unscaled
    lam = 2.0**30
    f = lambda t: lam * logistic_density(lam * t) * np.exp(t)
    want, _ = sciquad(
        lambda s: float(logistic_density(s)) * math.exp(s / lam),
        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13,
    )
    got, _ = integrate_line(f, splits=_concentration_splits(lam))
    assert abs(got - want) < 1e-11


@pytest.mark.parametrize("k", range(5, 41, 5))
def test_integrate_line_finds_bracketed_bump_at_every_width(k):
    # the bump above at widths 2^-5 .. 2^-40; e^t overflows past t = 709, so
    # a first pass that reached further into the right tail would read
    # 0 * inf there, and must fall back to the uncut half line
    lam = 2.0**k
    f = lambda t: lam * logistic_density(lam * t) * np.exp(t)
    want, _ = sciquad(
        lambda s: float(logistic_density(s)) * math.exp(s / lam),
        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13,
    )
    # the speculative pass throws those nodes away without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = integrate_line(f, splits=_concentration_splits(lam))
    assert abs(got - want) < 1e-11


def test_integrate_line_fails_loudly_on_a_tail_it_cannot_evaluate():
    # exp(t) / cosh(t)^2 is inf / inf = nan past t = 710, which refining the
    # right half line reaches: the call must say so, not drop the tail
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="diverged"):
            integrate_line(lambda t: np.exp(t) / np.cosh(t) ** 2)


def test_integrate_line_falls_back_on_the_half_line_its_graded_parts_overflow(monkeypatch):
    # e^{t/8} overflows past t = 5678: the outer nodes of the graded right
    # half line reach t = 7370 and read inf * 0 there, where its quarters
    # (out to t = 1841) did not, so that half line alone is evaluated again
    # whole, then refined once
    passes = []

    def recording_quad(f, iv, _quad=quadrature.quad):
        passes.append(iv.copy())
        return _quad(f, iv)

    monkeypatch.setattr(quadrature, "quad", recording_quad)
    f = lambda t: np.exp(t / 8.0) * np.exp(-t / 8.0 - 16.0 * t * t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = integrate_line(f)
    assert abs(got - math.sqrt(math.pi) / 4.0) <= 1e-15
    assert [iv.shape[1] for iv in passes] == [14, 1, 4]
    assert passes[1][:3, 0].tolist() == [0.0, 1.0, 1.0]
    with np.errstate(over="raise"):
        assert integrate_line(f)[0] == got


# the graded u-parts of a mapped half line, lower and upper edges
U0 = [0.0, 0.0625, 0.125, 0.1875, 0.25, 0.5, 0.75]
U1 = [0.0625, 0.125, 0.1875, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize(
    "f, splits, table, value, err",
    [
        (
            lambda t: np.exp(-0.5 * t * t) / (1.0 + t * t), (),
            [U0 + U0, U1 + U1, [-1.0] * 7 + [1.0] * 7, [0.0] * 14],
            "0x1.a4bf5b75a4227p+0", "0x1.48b5a8b0d9c32p-46",
        ),
        (
            # 2 + 1e-13 and 2 + 2e-13 chain onto 2 and collapse into it
            lambda t: np.exp(-np.abs(t - 0.5)) * np.cos(t),
            (2.0, -1.0, 2.0 + 1e-13, 2.0 + 2e-13, 0.5, 2.0),
            [[-1.0, 0.5] + U0 + U0, [0.5, 2.0] + U1 + U1,
             [0.0, 0.0] + [-1.0] * 7 + [1.0] * 7, [0.0, 0.0] + [-1.0] * 7 + [2.0] * 7],
            "0x1.c1528065b7d4ep-1", "0x1.b48b5ca6ab121p-45",
        ),
    ],
    ids=["line", "near-duplicate-chain"],
)
def test_integrate_line_first_pass_table(monkeypatch, f, splits, table, value, err):
    # the first pass's interval table, rows (a, b, kind, base): the finite
    # panels in order, then each half line's seven graded u-parts, exactly;
    # and the value and estimate. Those go through BLAS sums and numpy's
    # SIMD exp and cos, whose last bits differ between CPUs and
    # builds: noise of 2 ulp on every node moves the value by at most 2 ulp
    # and the estimate, a difference of two rules, by up to 1e-5 relative
    passes = []

    def recording_quad(f, iv, _quad=quadrature.quad):
        passes.append(iv.copy())
        return _quad(f, iv)

    monkeypatch.setattr(quadrature, "quad", recording_quad)
    got, est = integrate_line(f, splits=splits)
    assert passes[0].tolist() == table
    assert got == pytest.approx(float.fromhex(value), rel=1e-15, abs=0.0)
    assert est == pytest.approx(float.fromhex(err), rel=1e-4, abs=0.0)


@pytest.mark.parametrize("splits", [(), (0.0,)], ids=["none", "zero"])
def test_unsplit_table_is_the_builders_table(splits):
    # the whole line cut only at 0, built once at import: the builder's
    # table and quad's nodes and dt/du for it, element for element, read-only
    iv, panel, nf = quadrature._first_pass(quadrature._clean_splits(splits))
    const_iv, const_panel, const_nf = quadrature._UNSPLIT
    assert const_iv is quadrature._UNSPLIT_IV
    assert const_iv.tolist() == iv.tolist() and const_panel.tolist() == panel.tolist()
    assert const_nf == nf == 0
    for const, built in zip(quadrature._UNSPLIT_NODES, quadrature._nodes(iv)):
        assert const.tolist() == built.tolist()
    for a in (const_iv, const_panel, *quadrature._UNSPLIT_NODES):
        assert not a.flags.writeable


def test_integrand_writing_into_its_nodes_leaves_the_next_call_alone():
    # every call hands f a fresh node array, also on the unsplit table
    def scribble(t):
        y = np.exp(-t * t)
        t[:] = 0.0
        return y

    first = integrate_line(scribble)
    assert integrate_line(scribble) == first
    assert first[0] == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_integrate_line_takes_a_read_only_integrand_result():
    # the kernel scales the half lines' columns of f's result; a read-only
    # result is copied rather than written, so a broadcast whose rows share
    # memory is not scaled once per row
    def frozen(t):
        y = np.exp(-np.abs(t))
        y.flags.writeable = False
        return y

    got, _ = integrate_line(frozen)
    assert got == pytest.approx(2.0, abs=1e-12)
    got, _ = integrate_line(lambda t: np.broadcast_to(np.exp(-t * t), (2, t.size)))
    assert got == pytest.approx([math.sqrt(math.pi)] * 2, abs=1e-12)


def test_integrate_line_refuses_a_scalar_integrand():
    # a scalar is a constant, whose integral over the line diverges unless
    # it is 0; the kernel takes one value per node and broadcasts nothing
    with pytest.raises(ValueError):
        integrate_line(lambda t: 0.0)


def test_integrate_line_vector_integrand_matches_components():
    fs = [
        lambda t: np.exp(-np.abs(t)),
        lambda t: np.exp(-t * t) * t * t,
        lambda t: 4.0 * logistic_density(2.0 * t),  # sech^2
    ]
    vec, err = integrate_line(lambda t: np.array([f(t) for f in fs]), splits=(0.0,))
    assert vec.shape == (3,) and err < FAIL_TOL
    for got, f in zip(vec, fs):
        want, _ = integrate_line(f, splits=(0.0,))
        assert abs(got - want) < 1e-11
    assert abs(vec[2] - 2.0) < 1e-11


def test_integrate_line_err_parts_sum_to_the_summed_estimate():
    # err is the summed estimate the budget reads; its parts split it by row
    fs = (lambda t: np.exp(-np.abs(t)), lambda t: np.exp(-t * t) * np.cos(5.0 * t))
    vec, err = integrate_line(lambda t: np.array([f(t) for f in fs]), splits=(0.0,))
    assert isinstance(err, float) and err < FAIL_TOL
    assert err.parts.shape == vec.shape == (2,)
    assert np.all(err.parts >= 0.0)
    assert float(err) == pytest.approx(float(np.sum(err.parts)), rel=1e-15)
    _, scalar = integrate_line(fs[0], splits=(0.0,))
    assert isinstance(scalar, float) and scalar.parts.shape == ()


def _subintervals_per_pass(monkeypatch, f, limit, splits=()):
    """Subintervals of each panel in [0, 1] after every pass of a call that fails.

    f is set to 0 off [0, 1] and the line is split at 0, at splits and at
    1; the half lines, where f is 0, are never cut. The first pass
    evaluates 21 nodes per panel in [0, 1] and every later one 84 per cut,
    a cut turning one subinterval into four, so counting the nodes that
    land in each panel gives its subintervals.
    """
    edges, g = (0.0, *splits, 1.0), _zero_outside(f, 0.0, 1.0)
    passes = []

    def counting(t):
        passes.append(np.bincount(np.searchsorted(edges, t), minlength=len(edges) + 1)[1:-1])
        return g(t)

    monkeypatch.setattr(quadrature, "_LIMIT", limit)
    with pytest.raises(NumericalError, match="error estimate"):
        integrate_line(counting, splits=edges)
    cuts = np.cumsum(passes[1:], axis=0) // 84
    return [[1] * (len(splits) + 1)] + (1 + 3 * cuts).tolist()


def test_integrate_line_caps_subintervals_per_panel(monkeypatch):
    # an endpoint singularity asks for one cut per pass
    sing = lambda t: 1.0 / np.sqrt(t)
    assert _subintervals_per_pass(monkeypatch, sing, 10) == [[1], [4], [7], [10]]
    # a cut that would overshoot the cap is not made
    assert _subintervals_per_pass(monkeypatch, sing, 9) == [[1], [4], [7]]
    # an oscillation asks for four cuts in the second pass; room is left for two
    wave = lambda t: np.cos(300.0 * t)
    assert _subintervals_per_pass(monkeypatch, wave, 10) == [[1], [4], [10]]
    # the cap holds for every panel between splits
    both = _subintervals_per_pass(monkeypatch, lambda t: wave(t) + sing(t), 10, splits=(0.25,))
    assert both[-1] == [10, 10] and np.max(both) <= 10


def test_integrate_line_fails_loudly_on_nan():
    with pytest.raises(NumericalError, match="diverged"):
        integrate_line(lambda t: np.where(t > 1.0, np.nan, np.exp(-t * t)))


# --- weak convergence battery ---


def test_bedford_taylor_zhang_to_canonical():
    fam = lambda n: zhang_iterate(fubini_study(1), 2, n)
    rep = bedford_taylor_check(
        fam, canonical(1), bump, indices=range(3, 9), tol=1e-4
    )
    assert rep.verdict == "converged"
    assert rep.target == pytest.approx(bump(0.0), abs=1e-12)
    # contraction is geometric: each gap is at most e^(-1/2) of the one before
    # (the measured ratio is 0.25)
    assert all(b <= math.exp(-0.5) * a for a, b in zip(rep.gaps, rep.gaps[1:]))


def test_sequence_verdict_rules():
    assert sequence_verdict([], 1e-6) == "inconclusive"
    assert sequence_verdict([1e-2, 1e-4, 1e-8], 1e-6) == "converged"
    assert sequence_verdict([1e-8, 1e-4, 1e-2, 1e-1], 1e-6) == "diverged"
    assert sequence_verdict([1e-2, 1e-3, 1e-2], 1e-6) == "inconclusive"
    # fewer than three gaps declare no limit, however small they are
    assert sequence_verdict([1e-8], 1e-6) == "inconclusive"
    assert sequence_verdict([1e-3, 1e-8], 1e-6) == "inconclusive"


@pytest.mark.parametrize("indices,verdict", [((10,), "inconclusive"), ((9, 10), "inconclusive"),
                                             ((8, 9, 10), "converged")])
def test_bedford_taylor_check_needs_three_members_to_converge(indices, verdict):
    # bt-check's study: the gap at n = 10 is 3.1e-6, below tol, but alone or
    # with one more member it is no study
    fam = lambda n: zhang_iterate(fubini_study(1), 2, n)
    gauss = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2)
    rep = bedford_taylor_check(fam, canonical(1), gauss, indices=indices, tol=1e-5)
    assert rep.verdict == verdict


# --- the declaration rule: ConvergenceReport.of ---


def test_a_report_holds_the_numbers_its_verdict_reads():
    names = [f.name for f in dataclasses.fields(ConvergenceReport)]
    assert names == ["indices", "values", "target", "gaps", "tol", "spread", "verdict"]


def test_report_with_target_uses_sequence_verdict():
    idx, vals, target = (1, 2, 3, 4), (1.5, 1.1, 1.01, 1.001), 1.0
    gaps = [abs(v - target) for v in vals]
    for tol in (1e-2, 1e-4):
        rep = ConvergenceReport.of(idx, vals, tol, target=target)
        assert rep.gaps == tuple(gaps) and rep.target == target
        assert rep.verdict == sequence_verdict(gaps, tol)
        # the verdict reads the gaps: a target study has no tail spread
        assert rep.tol == tol and rep.spread is None
    assert ConvergenceReport.of(idx, vals, 1e-2, target).verdict == "converged"
    assert ConvergenceReport.of(idx, vals, 1e-4, target).verdict == "inconclusive"


def test_cauchy_report_with_fewer_values_than_the_tail():
    # fewer values than the tail declare no limit, however close they are
    rep = ConvergenceReport.of((0, 1), (2.0, 2.25), 0.5, tail=4)
    assert rep.verdict == "inconclusive"
    assert rep.spread == 0.25 and rep.tol == 0.5
    assert rep.gaps == (0.25, 0.0) and rep.target is None
    assert ConvergenceReport.of((5,), (1.234,), 1e-6).verdict == "inconclusive"
    # the tail reached, the same rule declares the limit
    rep = ConvergenceReport.of((0, 1, 2, 3), (2.0, 2.25, 2.25, 2.0), 0.5, tail=4)
    assert rep.verdict == "converged" and rep.spread == 0.25


def test_cauchy_report_of_a_constant_sequence():
    rep = ConvergenceReport.of(range(5), [0.5] * 5, 1e-12)
    assert rep.verdict == "converged" and rep.spread == 0.0 and rep.tol == 1e-12
    assert rep.gaps == (0.0,) * 5


def test_empty_study_declares_nothing():
    for target in (None, 1.0):
        with pytest.raises(ValueError, match="at least one index"):
            ConvergenceReport.of((), (), 1e-6, target)


def test_cauchy_tail_spread_equal_to_tol_is_inconclusive():
    # the comparison is strict: a spread of exactly tol does not converge
    vals = (3.0, 1.0, 1.5, 1.25)
    rep = ConvergenceReport.of(range(4), vals, 0.5)
    assert rep.spread == rep.tol == 0.5 and rep.verdict == "inconclusive"
    assert ConvergenceReport.of(range(4), vals, 0.5 + 2**-40).verdict == "converged"
