"""The metric catalog and its algebra, plus the counterexample family."""

import dataclasses
import json
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from spheretorsion import (
    NumericalError,
    RadialPotential,
    SpecError,
    affine,
    canonical,
    counterexample_energy_oracle,
    counterexample_potential,
    dual,
    fs_reference_torsion,
    fubini_study,
    integrate_line,
    integrate_volume,
    load_grid,
    logistic_density,
    lse,
    measure_mass,
    mollified_max,
    pair,
    parse_spec,
    parse_volume,
    quillen,
    sup_distance,
    tensor,
    volume_fs,
    write_grid,
    zhang_iterate,
)
from spheretorsion import cli
from spheretorsion.radial import _pairings
from spheretorsion.metrics import _concentration_splits, _monotone_cubic, _ridge, _softplus

from conftest import LOG2


# --- catalog point values ---


def test_fs_potential_values():
    p = fubini_study(3)
    for t in (-2.0, 0.0, 1.0, 7.0):
        assert float(p.phi(t)) == pytest.approx(3.0 * math.log1p(math.exp(t)), rel=1e-14)
    assert p.positive and p.label == "fs:3"


@pytest.mark.parametrize("m", [0, 1, 3, 24])
def test_fubini_study_is_lse_at_sharpness_one(m):
    # the same phi and density bits as lse(m, 1) and as m log(1+e^t), m e^t/(1+e^t)^2,
    # under its own label, one object per integer m however it is spelled
    p, q = fubini_study(m), lse(m, 1.0)
    t = np.linspace(-800.0, 800.0, 4001)
    assert _hex(p.phi(t)) == _hex(q.phi(t)) == _hex(m * _softplus(t))
    assert _hex(p.curvature_density(t)) == _hex(q.curvature_density(t))
    assert _hex(p.curvature_density(t)) == _hex(m * logistic_density(t))
    assert (p.degree, p.positive, p.kinks, p.curvature_atoms) == (m, True, (), ())
    assert p.label == f"fs:{m}" and q.label == f"lse:m={m},a=1"
    assert fubini_study(m) is fubini_study(float(m)) is fubini_study(np.int64(m)) is p


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: fubini_study(2.5), "2.5"),
        (lambda: canonical(2.7), "2.7"),
        (lambda: zhang_iterate(fubini_study(1), 2.9, 3), "2.9"),
        (lambda: zhang_iterate(fubini_study(1), 2, 3.5), "3.5"),
        (lambda: lse(2.5, 3.0), "2.5"),
        (lambda: mollified_max(np.float64(1.5), 0.5), "1.5"),
        (lambda: fs_reference_torsion(2.5), "2.5"),
    ],
)
def test_a_degree_that_is_not_an_integer_is_refused(build, name):
    # int() would truncate it to a different bundle
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(name)}"):
        build()


def test_canonical_potential_values():
    p = canonical(4)
    assert float(p.phi(-5.0)) == 0.0
    assert float(p.phi(2.5)) == 10.0
    assert p.curvature_atoms == ((0.0, 4.0),)


def test_mollified_max_center_value():
    # [DERIVED] conv. of max(0,t) with the quartic bump at t=0: 5 eps m / 32
    p = mollified_max(3, 0.25)
    assert float(p.phi(0.0)) == pytest.approx(5.0 * 0.25 * 3.0 / 32.0, abs=1e-15)
    # agrees with the hard max outside the mollification window
    assert float(p.phi(0.3)) == pytest.approx(0.9, abs=1e-15)
    assert float(p.phi(-0.3)) == 0.0


def test_softplus_is_logaddexp_within_two_ulp():
    t = np.concatenate((np.linspace(-800.0, 800.0, 160001), [0.0, -0.0, 710.0, -710.0]))
    got, want = _softplus(t), np.logaddexp(0.0, t)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))
    ends = np.array([np.inf, -np.inf])
    assert np.array_equal(_softplus(ends), np.logaddexp(0.0, ends))


@pytest.mark.parametrize("eps", [0.7, 1.5 * 2.0**-20, 1.5 * 2.0**-30])
def test_mollified_max_matches_its_pow_form(eps):
    # phi/m = t P(t/eps) - eps Q(t/eps) inside the window, P and Q as in the docstring
    t = np.linspace(-1.5 * eps, 1.5 * eps, 20001)
    x = np.clip(t / eps, -1.0, 1.0)
    P = (15.0 / 16.0) * (x - (2.0 / 3.0) * x**3 + 0.2 * x**5) + 0.5
    Q = (15.0 / 16.0) * (0.5 * x**2 - 0.5 * x**4 + x**6 / 6.0 - 1.0 / 6.0)
    want = np.where(t >= eps, t, np.where(t <= -eps, 0.0, t * P - eps * Q))
    assert np.max(np.abs(mollified_max(1, eps).phi(t) - want)) <= 4e-15 * eps


def test_lse_bounds_canonical_from_above():
    p, q = lse(2, 5.0), canonical(2)
    ts = np.linspace(-10, 10, 2001)
    gap = np.asarray(p.phi(ts)) - np.asarray(q.phi(ts))
    assert np.all(gap >= -1e-14)
    assert float(p.phi(0.0)) == pytest.approx(2.0 * LOG2 / 5.0, rel=1e-14)


def test_negative_degree_constructors_refused():
    for ctor in (fubini_study, canonical):
        with pytest.raises(ValueError):
            ctor(-1)
    with pytest.raises(ValueError):
        lse(1, 0.0)
    with pytest.raises(ValueError):
        mollified_max(1, -0.5)
    with pytest.raises(ValueError):
        zhang_iterate(fubini_study(1), 1, 2)
    with pytest.raises(ValueError, match="n >= 0"):
        zhang_iterate(fubini_study(1), 2, -1)


# --- sup distance and the dilation semigroup ---


def test_sup_distance_fs_to_canonical_is_m_log2():
    for m in (1, 2, 5):
        d = sup_distance(fubini_study(m), canonical(m))
        assert d == pytest.approx(m * LOG2, abs=1e-12)


def test_sup_distance_needs_equal_degrees():
    with pytest.raises(ValueError, match="equal degrees"):
        sup_distance(fubini_study(1), fubini_study(2))


@pytest.mark.parametrize("p,n", [(2, 0), (2, 3), (2, 5), (3, 4)])
def test_zhang_contracts_exactly_geometrically(p, n):
    # sup |p^{-n} phi(p^n t) - m max(0,t)| = m log2 / p^n, attained at t = 0
    it = zhang_iterate(fubini_study(2), p, n)
    want = 2.0 * LOG2 / float(p) ** n
    assert sup_distance(it, canonical(2)) == pytest.approx(want, abs=1e-13)


def test_zhang_iterate_carries_bracket_splits_when_sharp():
    mild = zhang_iterate(fubini_study(1), 2, 2)
    sharp = zhang_iterate(fubini_study(1), 2, 14)
    assert mild.kinks == ()
    assert sharp.kinks == _concentration_splits(2.0**14)
    assert 0.0 in sharp.kinks and len(sharp.kinks) == 21
    assert max(sharp.kinks) == pytest.approx(512.0 / 2.0**14, abs=0)


def test_concentration_splits_gate():
    assert _concentration_splits(8.0) == ()
    assert _concentration_splits(16.0) == ()
    pts = _concentration_splits(1024.0)
    assert pts == tuple(sorted([0.0] + [s * 2.0**k / 1024.0 for s in (-1, 1) for k in range(10)]))
    # the octaves refine the factor-8 brackets {0, +-1, +-8, +-64, +-512}/scale:
    # every old split is still a split, and the outermost is still 512/scale
    for scale in (17.0, 1024.0, 1.5 * 3.0**20, 2.0**32):
        pts = _concentration_splits(scale)
        old = {0.0} | {s * f / scale for s in (-1, 1) for f in (1.0, 8.0, 64.0, 512.0)}
        assert old <= set(pts) and (pts[0], pts[-1]) == (-512.0 / scale, 512.0 / scale)


def test_sharp_lse_advertises_brackets():
    assert lse(1, 4.0).kinks == ()
    assert lse(1, 3.0**9).kinks == _concentration_splits(3.0**9)
    assert len(lse(1, 3.0**9).kinks) == 21


# --- tensor algebra group laws ---


@given(m1=st.integers(0, 5), m2=st.integers(0, 5))
@settings(max_examples=12, deadline=None)
def test_tensor_adds_degrees_potentials_and_mass(m1, m2):
    p1, p2 = fubini_study(m1), mollified_max(m2, 0.5)
    pt = tensor(p1, p2)
    assert pt.degree == m1 + m2
    for t in (-1.0, 0.2, 3.0):
        assert float(pt.phi(t)) == pytest.approx(
            float(p1.phi(t)) + float(p2.phi(t)), rel=1e-13, abs=1e-13
        )
    assert abs(measure_mass(pt) - (m1 + m2)) < 1e-9


def test_dual_negates_and_tensor_with_dual_is_flat():
    p = fubini_study(3)
    d = dual(p)
    assert d.degree == -3 and not d.positive
    flat = tensor(p, d)
    assert flat.degree == 0
    ts = np.linspace(-5, 5, 101)
    assert np.max(np.abs(np.asarray(flat.phi(ts)))) < 1e-14
    assert abs(measure_mass(flat)) < 1e-10


def test_tensor_with_atoms_keeps_atoms():
    pt = tensor(canonical(2), fubini_study(1))
    assert pt.curvature_atoms == ((0.0, 2.0),)
    assert abs(measure_mass(pt) - 3.0) < 1e-10
    # the density factor first, and two factors of atoms alone
    pt = tensor(fubini_study(1), canonical(2))
    assert pt.curvature_atoms == ((0.0, 2.0),)
    assert abs(measure_mass(pt) - 3.0) < 1e-10
    pt = tensor(canonical(1), canonical(2))
    t = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(pt.curvature_density(t), np.zeros_like(t))
    assert pt.curvature_atoms == ((0.0, 1.0), (0.0, 2.0))
    assert measure_mass(pt) == 3.0


# --- the affine map ---

# (lam, s, k): a dilation with a shift, the inversion, a reflection of
# weight 2, the dual, a contraction of weight 3 and a slow reflection
AFFINE_MAPS = [(2, 0.5, 1), (-1, 0, 1), (-3, 1.2, 2), (1, 0, -1), (0.5, -1, 3), (-0.25, 2, 1)]
# a Gaussian of every scale the images carry: (centre, width)
GAUSSIANS = [(0.3, 0.7), (-1.1, 0.4), (0.05, 0.1)]


@pytest.fixture(scope="module")
def affine_inputs(tmp_path_factory):
    # one potential of every catalog kind: densities, atoms, a grid, the
    # ridge, a tensor and a dilation iterate
    path = str(tmp_path_factory.mktemp("affine") / "g.csv")
    write_grid(mollified_max(3, 0.7), path, n=161)
    fs2 = fubini_study(2)
    return {
        "fs3": fubini_study(3),
        "lse(2,2.5)": lse(2, 2.5),
        "mollmax(2,0.6)": mollified_max(2, 0.6),
        "can3": canonical(3),
        "grid": load_grid(path),
        "ridge": counterexample_potential(1.0, 1e-2),
        "tensor": tensor(lse(1, 3.0), zhang_iterate(fs2, 2, 6)),
        "zhang": zhang_iterate(fs2, 2, 8),
    }


INPUT_NAMES = ["fs3", "lse(2,2.5)", "mollmax(2,0.6)", "can3", "grid", "ridge", "tensor", "zhang"]


@pytest.mark.parametrize("lam,s,k", AFFINE_MAPS)
@pytest.mark.parametrize("name", INPUT_NAMES)
def test_affine_image_has_mass_k_times_the_degree(affine_inputs, name, lam, s, k):
    p = affine_inputs[name]
    q = affine(p, lam, s, k)
    assert q.degree == k * p.degree
    assert abs(measure_mass(q) - k * p.degree) <= 1e-9


@pytest.mark.parametrize("lam,s,k", [m for m in AFFINE_MAPS if m[0] < 0])
@pytest.mark.parametrize("name", INPUT_NAMES)
def test_affine_reflection_pairs_like_its_potential(affine_inputs, name, lam, s, k):
    # int f dmu_q = int f'' phi_q dt for a Gaussian f: the curvature data of
    # the image against its phi, each integral held to both estimates
    q = affine(affine_inputs[name], lam, s, k)
    for c, w in GAUSSIANS:
        def f(t):
            return np.exp(-0.5 * ((t - c) / w) ** 2)

        ((val, err),) = _pairings([((), f, (q,))])
        want, want_err = integrate_line(
            lambda t: ((t - c) ** 2 / w**2 - 1) / w**2 * f(t) * q.phi(t), q.kinks
        )
        assert abs(val[0] - want) <= max(1e-12, err[0] + want_err), (c, w)


def test_affine_refuses_a_degree_that_is_not_an_integer_and_a_degenerate_map():
    with pytest.raises(ValueError, match="degree of .* must be an integer, got 0.5"):
        affine(fubini_study(1), 1, 0, 0.5)
    # a degree-0 potential takes any finite weight
    assert affine(counterexample_potential(1.0, 1e-2), 1, 0, 0.5).degree == 0
    for lam, s, k in [(0, 0, 1), (math.inf, 0, 1), (1, math.nan, 1), (1, 0, -math.inf)]:
        with pytest.raises(ValueError, match="affine map needs finite lam != 0"):
            affine(fubini_study(1), lam, s, k)


def test_affine_keeps_positive_for_k_positive_and_bounds_reflections_at_minus_inf():
    p = fubini_study(3)
    assert affine(p, 2, 0.5, 1).positive and affine(p, -3, 1.2, 2).positive
    assert not affine(p, 1, 0, -1).positive and not affine(p, -1, 0, -1).positive
    # b = k deg(p) on a reflection: phi(-t) + 3 t of fs_3 tends to 0 at -inf
    q = affine(p, -1, 0, 1)
    assert abs(float(q.phi(-40.0))) < 1e-12 and float(q.phi(40.0)) == pytest.approx(120.0)


# --- the counterexample family ---


def test_counterexample_params_validation():
    with pytest.raises(ValueError, match="c > 0"):
        counterexample_potential(c=0.0, delta=1e-3, eps=0.2, gamma=0.01)
    with pytest.raises(ValueError, match="eps"):
        counterexample_potential(c=1.0, delta=1e-3, eps=0.7, gamma=0.01)
    with pytest.raises(ValueError, match="delta"):
        counterexample_potential(c=1.0, delta=0.1, eps=0.2, gamma=0.01)
    with pytest.raises(ValueError, match="gamma"):
        counterexample_potential(c=1.0, delta=1e-3, eps=0.2, gamma=0.2)


def test_counterexample_shape():
    c, delta = 1.0, 1e-3
    pot = counterexample_potential(c, delta)
    h = c * math.sqrt(delta)
    # plateau holds the exact ridge height on [1-gamma, 1+gamma]
    for r in (1.0 - 0.009, 1.0, 1.0 + 0.009):
        assert float(pot.phi(2.0 * math.log(r))) == pytest.approx(h, abs=1e-14)
    # compact support in r
    for r in (0.5, 1.5):
        assert float(pot.phi(2.0 * math.log(r))) == 0.0
    # sup bound 2 c sqrt(delta), and the glue overshoot forces a negative dip
    ts = np.linspace(-1.0, 1.0, 200001)
    vals = np.asarray(pot.phi(ts))
    assert vals.max() <= 2.0 * h + 1e-15
    assert vals.min() < 0.0


def test_counterexample_junctions_are_c2():
    # exact endpoint data of the stored polynomials; finite differences are
    # useless here, the quintic third derivative scales like s / delta^2
    pieces = _ridge(1.0, 1e-3, 0.2, None)[1].pieces
    for (a1, w1, q1), (a2, w2, q2) in zip(pieces[:-1], pieces[1:]):
        assert a2 == pytest.approx(a1 + w1, abs=1e-15)
        for order in (0, 1, 2):
            lo = q1.deriv(order)(1.0) / w1**order if order else q1(1.0)
            hi = q2.deriv(order)(0.0) / w2**order if order else q2(0.0)
            scale = max(1.0, abs(lo), abs(hi))
            assert abs(hi - lo) / scale < 1e-7, (a2, order, lo, hi)


def test_counterexample_ramp_energy_is_exactly_2c2():
    for c, delta in [(1.0, 1e-2), (1.0, 1e-3), (2.0, 1e-3)]:
        orc = counterexample_energy_oracle(c, delta)
        assert orc["ramp_part"] == orc["ramp_exact"] == 2.0 * c * c
        assert orc["glue_remainder"] > 0.0


def test_counterexample_quadrature_matches_polynomial_oracle():
    # two fully independent routes to int r f'^2 dr: the curvature pairing
    # (QUADPACK over the t-density) and polynomial antiderivatives
    pot = counterexample_potential(1.0, 1e-3)
    orc = counterexample_energy_oracle(1.0, 1e-3)
    assert 2.0 * pair(pot, pot) == pytest.approx(
        orc["dirichlet_term"], abs=1e-6
    )


def test_counterexample_oracle_takes_the_ridge_parameters():
    # the oracle builds the ridge it reports on, so a copy of the potential
    # (which keeps no parameters) is paired against the same exact data
    orc = counterexample_energy_oracle(0.7, 1e-2, eps=0.3, gamma=0.02)
    assert (orc["c"], orc["delta"], orc["eps"], orc["gamma"]) == (0.7, 1e-2, 0.3, 0.02)
    assert counterexample_energy_oracle(1.0, 1e-3)["gamma"] == 0.01
    ridge = counterexample_potential(1.0, 1e-3)
    for copy in (dataclasses.replace(ridge), zhang_iterate(ridge, 2, 0)):
        want = counterexample_energy_oracle(1.0, 1e-3)["dirichlet_term"]
        assert 2.0 * pair(copy, copy) == pytest.approx(want, abs=1e-6)
    with pytest.raises(ValueError, match="gamma"):
        counterexample_energy_oracle(1.0, 1e-3, gamma=0.2)


def test_counterexample_mass_is_zero():
    # degree 0: the ridge carries no net curvature
    assert abs(measure_mass(counterexample_potential(1.0, 1e-3))) < 1e-8


# --- grids ---

GRID_POTENTIALS = [fubini_study(3), lse(2, 2.5), mollified_max(3, 0.7)]


def test_grid_round_trip(tmp_path):
    p = fubini_study(2)
    path = str(tmp_path / "fs2.csv")
    write_grid(p, path)
    meta = json.loads((tmp_path / "fs2.json").read_text())
    assert meta == {"degree": 2, "positive": True}
    q = load_grid(path)
    assert q.degree == 2 and q.label == "grid:fs2.csv"
    ts = np.linspace(-25, 25, 1501)
    err = np.max(np.abs(np.asarray(p.phi(ts)) - np.asarray(q.phi(ts))))
    assert err < 5e-5
    # interpolated curvature still carries exact total mass: the density
    # integrates to the boundary slope difference knot by knot
    assert abs(measure_mass(q) - 2.0) < 1e-9


def test_grid_at_default_knots_is_sandwiched(tmp_path):
    # write_grid's default 2001 knots, every knot a split. log h_Q moves by
    # -K, a pairing of dphi against curvatures of total mass m + 1
    p = fubini_study(2)
    path = str(tmp_path / "fs2.csv")
    write_grid(p, path)
    g = load_grid(path)
    assert len(g.kinks) == 2001
    w = volume_fs()
    gap = quillen(g, w).log_quillen - quillen(p, w).log_quillen
    assert abs(gap) <= (p.degree + 1) * sup_distance(g, p)
    assert abs(measure_mass(g) - 2.0) < 1e-9


def test_grid_slope_validation(tmp_path, capsys):
    path = str(tmp_path / "fs2.csv")
    write_grid(fubini_study(2), path)
    side = tmp_path / "fs2.json"
    meta = json.loads(side.read_text())
    meta["degree"] = 1  # lie about the degree, slopes no longer match
    side.write_text(json.dumps(meta))
    with pytest.raises(SpecError, match="fs2.csv: slopes"):
        load_grid(path)
    assert cli.main(["torsion", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert "fs2.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, match",
    [
        pytest.param(["t,phi", "-1,0", "0,0.5", "1,1"], "at least 4", id="three-rows"),
        pytest.param(["t,phi", "-2,0", "-1,0.1", "-1,0.2", "1,1"], "increasing", id="repeated-t"),
        pytest.param(["t,phi", "-2,0", "0,0.5", "-0.5,0.7", "1,1"], "increasing", id="decreasing-t"),
        pytest.param(["x,phi", "-2,0", "-1,0.1", "0,0.5", "1,1"], "header", id="bad-header"),
    ],
)
def test_grid_knot_and_header_refusals_name_the_file(tmp_path, capsys, rows, match):
    path = tmp_path / "short.csv"
    path.write_text("\n".join(rows) + "\n")
    meta = {"degree": 1, "positive": False}
    path.with_suffix(".json").write_text(json.dumps(meta))
    with pytest.raises(SpecError, match=f"short.csv .*{match}"):
        load_grid(str(path))
    assert cli.main(["torsion", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert "short.csv" in capsys.readouterr().err


def _fs2_grid_lines(tmp_path):
    # a 41-knot fs_2 grid as written, its lines without their ends
    path = tmp_path / "fs2.csv"
    write_grid(fubini_study(2), str(path), n=41)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(lambda ls: [*ls, ",1000.0"], "line 43: expected two numbers", id="blank-t"),
        pytest.param(lambda ls: [*ls, "   ,7"], "line 43: expected two numbers", id="space-t"),
        pytest.param(lambda ls: [ls[0], ls[1] + ",junk", *ls[2:]], "line 2: expected two numbers",
                     id="third-cell"),
        pytest.param(lambda ls: [ls[0], ls[1] + ",", *ls[2:]], "line 2: expected two numbers",
                     id="blank-third-cell"),
        pytest.param(lambda ls: ["t,phi,extra", *ls[1:]], "must start with header", id="three-cell-header"),
    ],
)
def test_grid_row_that_is_not_two_cells_is_refused_naming_file_and_line(tmp_path, edit, match):
    # each edit used to load silently: a phi with a blank t was dropped, and
    # a third cell, in a row or in the header, was never read
    path, lines = _fs2_grid_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(SpecError, match=f"fs2.csv {match}"):
        load_grid(str(path))


def test_grid_rows_of_blank_cells_are_skipped(tmp_path):
    path, lines = _fs2_grid_lines(tmp_path)
    want = quillen(load_grid(str(path)), volume_fs()).torsion.value
    path.write_text("\n".join([lines[0], "", " , ", *lines[1:], ",", "   "]) + "\n")
    g = load_grid(str(path))
    assert len(g.kinks) == 41
    assert quillen(g, volume_fs()).torsion.value == want


@pytest.mark.parametrize(
    "p, kwargs, error, match",
    [
        pytest.param(fubini_study(2), {"n": 3}, ValueError, "grid needs", id="three-knots"),
        pytest.param(fubini_study(2), {"n": 41.0}, ValueError, "grid needs", id="float-knots"),
        pytest.param(
            fubini_study(2), {"t_lo": 5, "t_hi": -5, "n": 41}, ValueError, "grid needs",
            id="reversed",
        ),
        pytest.param(
            fubini_study(2), {"t_lo": 5, "t_hi": 5, "n": 41}, ValueError, "grid needs", id="empty"
        ),
        pytest.param(fubini_study(2), {"t_hi": math.inf}, ValueError, "grid needs", id="infinite-end"),
        pytest.param(fubini_study(2), {"t_lo": math.nan}, ValueError, "grid needs", id="nan-end"),
        pytest.param(
            zhang_iterate(fubini_study(2), 2, 1023), {"n": 41}, NumericalError, "zhang",
            id="overflow",
        ),
        # load_grid's own refusals, on the knots and values as they read back
        pytest.param(
            fubini_study(2), {"t_lo": -1.0, "t_hi": 1.0, "n": 41}, SpecError,
            r"g.csv: slopes \(0.538, 1.462\) inconsistent with degree 2",
            id="narrow-range-slopes",
        ),
        pytest.param(
            fubini_study(2), {"t_lo": 1.0, "t_hi": 1.0 + 1e-13, "n": 41}, SpecError,
            "g.csv needs at least 4 strictly increasing t values",
            id="knots-equal-when-printed",
        ),
    ],
)
def test_write_grid_refuses_before_touching_the_file(tmp_path, p, kwargs, error, match):
    # what load_grid would refuse, or could not use, is refused without a
    # warning, and a good grid already at the path stays as it was
    path = tmp_path / "g.csv"
    write_grid(fubini_study(3), str(path), n=41)
    before = path.read_bytes(), path.with_suffix(".json").read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            write_grid(p, str(path), **kwargs)
    assert (path.read_bytes(), path.with_suffix(".json").read_bytes()) == before


@pytest.mark.parametrize("name", ["g.json", "g.JSON", "g.Json"])
def test_a_grid_csv_path_ending_in_json_is_refused(tmp_path, capsys, name):
    # such a CSV would be its own sidecar: the path is refused before any
    # file is touched, and what is already there stays byte for byte
    path = tmp_path / name
    path.write_text('{"degree": 3, "positive": true}')
    before = sorted(os.listdir(tmp_path)), path.read_bytes()
    match = f"grid CSV {re.escape(str(path))} ends in .json"
    with pytest.raises(ValueError, match=match):
        write_grid(fubini_study(3), str(path), n=41)
    with pytest.raises(SpecError, match=match):
        load_grid(str(path))
    assert cli.main(["torsion", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert str(path) in capsys.readouterr().err
    assert (sorted(os.listdir(tmp_path)), path.read_bytes()) == before


def _truncating_write_grid(p, path, t_lo=-30.0, t_hi=30.0, n=2001, **old_keys):
    # [REFERENCE] the writer before in-place rewrites: open(path, "w")
    # truncates each file before writing it; its sidecar less the
    # regularity and kinks keys, which no computation read, unless given
    ts = np.linspace(t_lo, t_hi, n)
    vs = np.asarray(p.phi(ts), dtype=float)
    rows = "".join("%.15g,%.15g\r\n" % ab for ab in zip(ts.tolist(), vs.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("t,phi\r\n" + rows)
    meta = {"degree": p.degree, "positive": p.positive, **old_keys}
    with open(os.path.splitext(path)[0] + ".json", "w") as fh:
        fh.write(json.dumps(meta, indent=2))


@pytest.mark.parametrize("n", [41, 161, 2001])
@pytest.mark.parametrize("p", GRID_POTENTIALS, ids=lambda p: p.label)
def test_write_grid_files_match_the_truncating_writer(tmp_path, p, n):
    ref = tmp_path / "ref.csv"
    path = tmp_path / "g.csv"

    def files(csv_path):
        return csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()

    umask = os.umask(0o002)
    try:
        _truncating_write_grid(p, str(ref), n=n)
        write_grid(p, str(path), n=n)
    finally:
        os.umask(umask)
    assert files(path) == files(ref)
    for f in (path, path.with_suffix(".json")):
        assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~0o002
    # over a longer grid and a longer sidecar (one with the kinks key that
    # older writers added), then over a shorter pair: no stale tail is left
    longer = {"kinks": [-0.7, 0.7]}
    for q, knots, keys in ((mollified_max(3, 0.7), 2 * n + 1, longer), (fubini_study(3), 4, {})):
        _truncating_write_grid(q, str(path), n=knots, **keys)
        write_grid(p, str(path), n=n)
        assert files(path) == files(ref)


def _where_grid(t, v):
    # [REFERENCE] the grid evaluation before take and patching: np.clip,
    # fancy indexing and nested full-width np.where; a zero end slope
    # continues with the end value, also at an infinite x
    c = _monotone_cubic(t, v)
    h = t[-1] - t[-2]
    s_lo = float(c[2, 0])
    s_hi = float(c[2, -1] + 2 * c[1, -1] * h + 3 * c[0, -1] * (h * h))
    lo, hi = float(t[0]), float(t[-1])
    v_lo, v_hi = float(v[0]), float(v[-1])
    a, b = 6 * c[0], 2 * c[1]

    def cell(x):
        x = np.clip(x, lo, hi)
        i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
        return i, x - t[i]

    def phi(x):
        x = np.asarray(x, dtype=float)
        i, s = cell(x)
        c0, c1, c2, c3 = c[:, i]
        s2 = s * s
        below = v_lo + s_lo * (x - lo) if s_lo else v_lo
        above = v_hi + s_hi * (x - hi) if s_hi else v_hi
        return np.where(
            x < lo, below, np.where(x > hi, above, c3 + c2 * s + c1 * s2 + c0 * (s2 * s))
        )

    def dens(x):
        x = np.asarray(x, dtype=float)
        i, s = cell(x)
        return np.where((x > lo) & (x < hi), b[i] + a[i] * s, 0.0)

    return phi, dens


def _hex(a):
    return [float(x).hex() for x in np.ravel(a)]


@pytest.mark.parametrize("n", [41, 161, 2001])
@pytest.mark.parametrize("p", GRID_POTENTIALS, ids=lambda p: p.label)
def test_grid_evaluation_matches_the_where_formulas(tmp_path, p, n):
    path = str(tmp_path / "g.csv")
    write_grid(p, path, n=n)
    t, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    g = load_grid(path)
    ref_phi, ref_dens = _where_grid(t, v)
    gaps = 60.0 * np.geomspace(1e-12, 3, 9)
    specials = np.array([np.inf, -np.inf, np.nan])
    x = np.concatenate([t, (t[1:] + t[:-1]) / 2, t[0] - gaps, t[-1] + gaps, specials])
    for got, want in ((g.phi, ref_phi), (g.curvature_density, ref_dens)):
        assert _hex(got(x)) == _hex(want(x))  # NaN reads 'nan': NaN positions agree too
        for xi in (t[0] - 1.0, t[n // 2], t[-1] + 1.0, *specials):
            y = got(xi)
            assert isinstance(y, np.ndarray) and y.shape == ()
            assert _hex(y) == _hex(want(xi))
        y = got(x[:5].tolist())
        assert isinstance(y, np.ndarray) and _hex(y) == _hex(want(x[:5]))
    # the density is 0 wherever (x > lo) & (x < hi) is false, NaN included
    dens = g.curvature_density(x)
    assert np.all(dens[~((x > t[0]) & (x < t[-1]))] == 0.0)


@pytest.mark.parametrize("p", GRID_POTENTIALS, ids=lambda p: p.label)
def test_grid_phi_at_infinity_is_the_limit_of_its_continuation(tmp_path, p):
    # at 41 knots the end-slope rule sets the left slope to 0: phi(-inf) is
    # the end value, not 0 * inf, and no warning is raised
    path = str(tmp_path / "g.csv")
    write_grid(p, path, n=41)
    t, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert _monotone_cubic(t, v)[2, 0] == 0.0
    g = load_grid(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = g.phi(np.array([-np.inf, np.inf]))
        scalar = g.phi(-np.inf)
    assert _hex(ends) == _hex([v[0], np.inf])
    assert _hex(scalar) == _hex(v[0])


def test_grid_missing_sidecar(tmp_path):
    path = tmp_path / "naked.csv"
    path.write_text("t,phi\n0,0\n1,1\n2,2\n3,3\n")
    with pytest.raises(SpecError, match="sidecar"):
        load_grid(str(path))


def _write_grid_data(path, t, v, degree):
    # full precision, so the floats read back are exactly t and v
    path.write_text("t,phi\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, v)))
    meta = {"degree": degree, "positive": False}
    path.with_suffix(".json").write_text(json.dumps(meta))
    return load_grid(str(path))


def _assert_matches_pchip(g, t, v):
    # [DERIVED] scipy's PchipInterpolator on the same samples, continued
    # outside [t0, tn] by the declared linear extension with zero curvature
    ref = PchipInterpolator(t, v)
    d1, d2 = ref.derivative(1), ref.derivative(2)
    lo, hi = t[0], t[-1]
    gaps = (hi - lo) * np.geomspace(1e-9, 3, 7)
    inside = np.concatenate([t, (t[1:] + t[:-1]) / 2, np.linspace(lo, hi, 997)])
    x = np.concatenate([inside, lo - gaps, hi + gaps])
    phi_ref = np.concatenate([ref(inside), v[0] - d1(lo) * gaps, v[-1] + d1(hi) * gaps])
    open_cells = (x > lo) & (x < hi)
    dens_ref = np.where(open_cells, d2(np.clip(x, lo, hi)), 0.0)
    for got, want in ((g.phi(x), phi_ref), (g.curvature_density(x), dens_ref)):
        assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want)))


@pytest.mark.parametrize("n", [41, 161, 2001])
@pytest.mark.parametrize("p", GRID_POTENTIALS, ids=lambda p: p.label)
def test_grid_interpolant_matches_scipy_pchip(tmp_path, p, n):
    path = str(tmp_path / "g.csv")
    write_grid(p, path, n=n)
    t, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    _assert_matches_pchip(load_grid(path), t, v)


@pytest.mark.parametrize(
    "t, v, degree, ends",
    [
        # left end slope set to 0 (three-point estimate of the wrong sign),
        # right end slope capped at 3 m (the last two secants differ in sign)
        (
            [-3.0, -2.2, -1.9, -0.5, 0.0, 0.3, 1.7, 2.0, 3.1, 3.6],
            [0.0, 0.04, 0.9, 0.2, 0.2, 0.2, 1.5, 1.5, -0.8, -0.63],
            1,
            ("zero", "cap"),
        ),
        # the mirror: left end capped, right end set to 0
        (
            [-2.0, -1.5, -0.25, 0.5, 1.0, 2.75, 3.0],
            [0.0, 0.015, -0.485, -0.485, 0.2, 1.95, 1.955],
            0,
            ("cap", "zero"),
        ),
    ],
    ids=["zero-cap", "cap-zero"],
)
def test_grid_interpolant_matches_scipy_on_uneven_knots(tmp_path, t, v, degree, ends):
    # uneven spacing, interior sign changes and flat runs, whose slopes are 0
    t, v = np.array(t), np.array(v)
    g = _write_grid_data(tmp_path / "hand.csv", t, v, degree)
    _assert_matches_pchip(g, t, v)
    m = np.diff(v) / np.diff(t)
    slopes = PchipInterpolator(t, v).derivative(1)(t)
    assert np.sum(slopes[1:-1] == 0) >= 3
    for end, s, m0 in zip(ends, (slopes[0], slopes[-1]), (m[0], m[-1])):
        assert s == pytest.approx(0.0 if end == "zero" else 3 * m0, rel=1e-14, abs=1e-14)


def test_grid_csv_that_does_not_decode_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_grid(fubini_study(2), str(path), n=41)
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 1] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(SpecError, match="bad.csv"):
        load_grid(str(path))
    assert cli.main(["torsion", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert "bad.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        pytest.param("nan,0.5", id="nan-t"),
        pytest.param("0.45,nan", id="nan-phi"),
        pytest.param("0.45,inf", id="inf-phi"),
        pytest.param("0.45,half", id="non-numeric"),
        pytest.param("0.45", id="one-column"),
    ],
)
def test_grid_malformed_row_is_a_spec_error(tmp_path, capsys, row):
    # the API raises SpecError naming the file, and the CLI exits 2
    path = tmp_path / "bad.csv"
    write_grid(fubini_study(2), str(path), n=41)
    lines = path.read_text().splitlines()
    lines[21] = row  # knot t = 0 between t = -1.5 and 1.5, so 0.45 keeps t increasing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpecError, match="bad.csv"):
        load_grid(str(path))
    assert cli.main(["torsion", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert "bad.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sidecar",
    [
        pytest.param("{not json", id="invalid-json"),
        pytest.param('["degree", 2]', id="not-an-object"),
        pytest.param({"degree": "x"}, id="string-degree"),
        pytest.param({"positive": "false"}, id="string-positive"),
        pytest.param('{"degree": 2}', id="missing-positive"),
    ],
)
def test_grid_malformed_sidecar_is_a_spec_error(tmp_path, capsys, sidecar):
    # the API raises SpecError naming the sidecar, and the CLI exits 2
    path = tmp_path / "bad.csv"
    write_grid(fubini_study(2), str(path), n=41)
    side = tmp_path / "bad.json"
    if isinstance(sidecar, dict):
        sidecar = json.dumps({**json.loads(side.read_text()), **sidecar})
    side.write_text(sidecar)
    with pytest.raises(SpecError, match="bad.json"):
        load_grid(str(path))
    assert cli.main(["torsion", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert "bad.json" in capsys.readouterr().err


_NEGATIVE_DEGREE = "declared positive with degree -"
_NEGATIVE_ATOM = "is declared positive with a curvature atom of mass -1"


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: lse(-2, 3.0), _NEGATIVE_DEGREE, id="lse"),
        pytest.param(lambda: mollified_max(-1, 0.5), _NEGATIVE_DEGREE, id="mollmax"),
        pytest.param(
            lambda: RadialPotential(-1, lambda t: -t, True, np.zeros_like), _NEGATIVE_DEGREE,
            id="hand-built",
        ),
        pytest.param(
            lambda: dataclasses.replace(dual(fubini_study(1)), positive=True), _NEGATIVE_DEGREE,
            id="replaced",
        ),
        # mass 2 - 1 = 1, the degree, yet the measure has a negative atom
        pytest.param(
            lambda: RadialPotential(
                1, lambda t: 2.0 * _softplus(t) - np.maximum(0.0, t), True,
                lambda t: 2.0 * logistic_density(t), kinks=(0.0,), curvature_atoms=((0.0, -1),),
                label="softplus-atom",
            ),
            "potential softplus-atom " + _NEGATIVE_ATOM, id="hand-built-atom",
        ),
        pytest.param(
            lambda: dataclasses.replace(tensor(canonical(2), dual(canonical(1))), positive=True),
            re.escape("potential tensor(canonical:2,dual(canonical:1)) ") + _NEGATIVE_ATOM,
            id="replaced-tensor",
        ),
    ],
)
def test_a_positive_potential_of_negative_degree_is_refused(build, match):
    # a nonnegative curvature measure has nonnegative mass, and its mass is
    # the degree; nor has it an atom of negative mass
    with pytest.raises(ValueError, match=match):
        build()


def test_a_grid_sidecar_declaring_a_negative_degree_positive_is_refused(tmp_path, capsys):
    # the samples are a valid grid of degree -2: only the declared pair is refused
    path, side = tmp_path / "neg.csv", tmp_path / "neg.json"
    write_grid(dual(fubini_study(2)), str(path), n=41)
    assert load_grid(str(path)).degree == -2
    side.write_text(json.dumps({"degree": -2, "positive": True}))
    with pytest.raises(SpecError, match="neg.json"):
        load_grid(str(path))
    assert cli.main(["gram", "--metric", f"grid:{path}", "--no-meta"]) == 2
    assert "neg.json" in capsys.readouterr().err


def test_grid_sidecar_with_a_regularity_key_loads_unchanged(tmp_path):
    # sidecars written before the regularity grade was dropped still hold
    # it; keys the loader does not read are ignored, whatever their value
    plain, old = tmp_path / "plain.csv", tmp_path / "old.csv"
    p = mollified_max(3, 0.7)
    write_grid(p, str(plain), n=41)
    write_grid(p, str(old), n=41)
    side = old.with_suffix(".json")
    side.write_text(json.dumps({**json.loads(side.read_text()), "regularity": "C1"}))
    a, b = load_grid(str(plain)), load_grid(str(old))
    t = np.loadtxt(plain, delimiter=",", skiprows=1, usecols=0)
    x = np.concatenate([t, (t[1:] + t[:-1]) / 2, t[[0, -1]] + [-5.0, 5.0]])
    assert _hex(a.phi(x)) == _hex(b.phi(x))
    assert _hex(a.curvature_density(x)) == _hex(b.curvature_density(x))
    assert (a.degree, a.positive, a.kinks) == (b.degree, b.positive, b.kinks)


@pytest.mark.parametrize(
    "kinks",
    [
        pytest.param('"ab"', id="string-kinks"),
        pytest.param("null", id="null-kinks"),
        pytest.param('[0.5, "x"]', id="string-kink"),
        pytest.param("[NaN, 0.5]", id="nan-kink"),
        pytest.param("[Infinity]", id="infinite-kink"),
        pytest.param("[1e400]", id="overflowing-kink"),
        pytest.param("[-0.3, 0.5]", id="kinks-inside"),
    ],
)
def test_grid_sidecar_kinks_are_not_read(tmp_path, kinks):
    # the loaded cubic is a polynomial on each cell, so a grid's kinks are
    # its knots; a sidecar with a kinks key, whatever its value, loads as
    # one without it
    plain, old = tmp_path / "plain.csv", tmp_path / "old.csv"
    p = mollified_max(3, 0.7)
    write_grid(p, str(plain), n=41)
    write_grid(p, str(old), n=41)
    side = old.with_suffix(".json")
    side.write_text(json.dumps({**json.loads(side.read_text()), "kinks": "@"}).replace('"@"', kinks))
    a, b = load_grid(str(plain)), load_grid(str(old))
    t = np.loadtxt(plain, delimiter=",", skiprows=1, usecols=0)
    x = np.concatenate([t, (t[1:] + t[:-1]) / 2, t[[0, -1]] + [-5.0, 5.0]])
    assert _hex(a.phi(x)) == _hex(b.phi(x))
    assert _hex(a.curvature_density(x)) == _hex(b.curvature_density(x))
    assert a.kinks == b.kinks == tuple(t.tolist())
    z = zhang_iterate(b, 2, 1)
    assert np.isfinite(z.kinks).all() and list(z.kinks) == sorted(z.kinks)


# --- mini language ---


def test_parse_spec_round_trips_catalog():
    assert parse_spec("fs:3").label == "fs:3"
    assert parse_spec("canonical:2").label == "canonical:2"
    assert parse_spec("zero").degree == 0
    z = parse_spec("zhang:base=fs:1,p=2,n=3")
    assert z.degree == 1 and "n=3" in z.label
    assert parse_spec("lse:m=2,a=7").degree == 2
    assert parse_spec("mollmax:m=1,eps=0.3").degree == 1
    cx = parse_spec("cex:c=1,delta=1e-3")
    assert cx.degree == 0 and cx.label == "cex:c=1,delta=0.001,eps=0.2,gamma=0.01"
    assert parse_spec("zhang:n=3,p=2,base=fs:1").label == z.label


@pytest.mark.parametrize(
    "base",
    [lse(1, 2.0), mollified_max(2, 0.5), zhang_iterate(lse(1, 2.0), 3, 1)],
    ids=["lse", "mollmax", "zhang"],
)
def test_parse_spec_round_trips_zhang_labels(base):
    # the base spec holds commas of its own
    z = zhang_iterate(base, 2, 3)
    back = parse_spec(z.label)
    assert back.label == z.label and back.degree == base.degree
    t = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_array_equal(back.phi(t), z.phi(t))


@pytest.mark.parametrize(
    "bad",
    [
        "nonsense",
        "fs",
        "fs:x",
        "unknown:1",
        "zhang:base=fs:1",
        "zhang:fs:1,p=2,n=3",
        "zhang:base=fs:1,p=2",
        "cex:c=1",
        "lse:m=2",
        "mollmax:m=1,eps",
    ],
)
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


@pytest.mark.parametrize(
    "spec, key",
    [
        ("cex:c=1,delta=1e-3,gama=0.005", "unknown key 'gama'"),
        ("cex:c=1,delta=1e-3,c=2", "repeated key 'c'"),
        ("lse:m=2,a=4,eps=1", "unknown key 'eps'"),
        ("lse:m=2,a=4,a=5", "repeated key 'a'"),
        ("mollmax:m=1,eps=0.3,a=2", "unknown key 'a'"),
        ("mollmax:m=1,m=2,eps=0.3", "repeated key 'm'"),
        ("zhang:base=fs:1,p=2,q=3", "unknown key 'q'"),
        ("zhang:base=fs:1,p=2,p=3", "repeated key 'p'"),
    ],
)
def test_parse_spec_refuses_unknown_and_repeated_keys(capsys, spec, key):
    with pytest.raises(SpecError, match=key):
        parse_spec(spec)
    assert cli.main(["torsion", "--metric", spec, "--no-meta"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, keys",
    [
        ("zhang:base=fs:1,p=2", "'n' in 'zhang:base=fs:1,p=2': the keys are base, p, n"),
        ("lse:m=2", "'a' in 'lse:m=2': the keys are m, a"),
        ("cex:c=1", "'delta' in 'cex:c=1': the keys are c, delta, eps, gamma"),
        ("mollmax:eps=0.3", "'m' in 'mollmax:eps=0.3': the keys are m, eps"),
    ],
    ids=["zhang", "lse", "cex", "mollmax"],
)
def test_parse_spec_names_a_missing_key(capsys, spec, keys):
    want = f"missing key {keys}"
    with pytest.raises(SpecError) as exc:
        parse_spec(spec)
    assert str(exc.value) == want
    assert cli.main(["torsion", "--metric", spec, "--no-meta"]) == 2
    assert want in capsys.readouterr().err


def test_parse_volume():
    assert parse_volume("fs") is volume_fs()
    wc = parse_volume("canonical")
    assert wc.psi.label == "canonical:2" and vars(wc) == {"psi": wc.psi}
    # its density is e^{-|t|}, its norm row reading 2: int e^{-|t|} drho = 1
    assert abs(integrate_volume(lambda t: np.exp(-np.abs(t)), wc) - 1.0) < 1e-10
    w = parse_volume("lse:m=2,a=4")
    assert abs(integrate_volume(lambda t: 1.0, w) - 2.0) < 1e-10
    with pytest.raises(SpecError, match="degree"):
        parse_volume("fs:1")
