"""The metric catalog and its algebra, plus the counterexample family."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from spheretorsion import (
    CounterexampleParams,
    SpecError,
    canonical,
    counterexample_energy_oracle,
    counterexample_potential,
    dual,
    fubini_study,
    integrate_volume,
    load_grid,
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
from spheretorsion.metrics import _concentration_splits, _softplus

from conftest import LOG2


# --- catalog point values ---


def test_fs_potential_values():
    p = fubini_study(3)
    for t in (-2.0, 0.0, 1.0, 7.0):
        assert float(p.phi(t)) == pytest.approx(3.0 * math.log1p(math.exp(t)), rel=1e-14)
    assert p.positive and p.regularity == "smooth" and p.label == "fs:3"


def test_canonical_potential_values():
    p = canonical(4)
    assert float(p.phi(-5.0)) == 0.0
    assert float(p.phi(2.5)) == 10.0
    assert p.curvature_atoms == ((0.0, 4.0),)
    assert p.regularity == "continuous"


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
    assert pt.regularity == "continuous"
    assert abs(measure_mass(pt) - 3.0) < 1e-10


# --- the counterexample family ---


def test_counterexample_params_validation():
    with pytest.raises(ValueError, match="c > 0"):
        CounterexampleParams(c=0.0, delta=1e-3, eps=0.2, gamma=0.01)
    with pytest.raises(ValueError, match="eps"):
        CounterexampleParams(c=1.0, delta=1e-3, eps=0.7, gamma=0.01)
    with pytest.raises(ValueError, match="delta"):
        CounterexampleParams(c=1.0, delta=0.1, eps=0.2, gamma=0.01)
    with pytest.raises(ValueError, match="gamma"):
        CounterexampleParams(c=1.0, delta=1e-3, eps=0.2, gamma=0.2)


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
    pot = counterexample_potential(1.0, 1e-3)
    pieces = pot.piecewise.pieces
    for (a1, w1, q1), (a2, w2, q2) in zip(pieces[:-1], pieces[1:]):
        assert a2 == pytest.approx(a1 + w1, abs=1e-15)
        for order in (0, 1, 2):
            lo = q1.deriv(order)(1.0) / w1**order if order else q1(1.0)
            hi = q2.deriv(order)(0.0) / w2**order if order else q2(0.0)
            scale = max(1.0, abs(lo), abs(hi))
            assert abs(hi - lo) / scale < 1e-7, (a2, order, lo, hi)


def test_counterexample_ramp_energy_is_exactly_2c2():
    for c, delta in [(1.0, 1e-2), (1.0, 1e-3), (2.0, 1e-3)]:
        orc = counterexample_energy_oracle(counterexample_potential(c, delta))
        assert orc["ramp_part"] == orc["ramp_exact"] == 2.0 * c * c
        assert orc["glue_remainder"] > 0.0


def test_counterexample_quadrature_matches_polynomial_oracle():
    # two fully independent routes to int r f'^2 dr: the curvature pairing
    # (QUADPACK over the t-density) and polynomial antiderivatives
    pot = counterexample_potential(1.0, 1e-3)
    orc = counterexample_energy_oracle(pot)
    assert 2.0 * pair(pot, pot) == pytest.approx(
        orc["dirichlet_term"], abs=1e-6
    )


def test_counterexample_mass_is_zero():
    # degree 0: the ridge carries no net curvature
    assert abs(measure_mass(counterexample_potential(1.0, 1e-3))) < 1e-8


# --- grids ---


def test_grid_round_trip(tmp_path):
    p = fubini_study(2)
    path = str(tmp_path / "fs2.csv")
    write_grid(p, path)
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


def test_grid_slope_validation(tmp_path):
    path = str(tmp_path / "fs2.csv")
    write_grid(fubini_study(2), path)
    side = tmp_path / "fs2.json"
    meta = json.loads(side.read_text())
    meta["degree"] = 1  # lie about the degree, slopes no longer match
    side.write_text(json.dumps(meta))
    with pytest.raises(SpecError, match="slopes"):
        load_grid(path)


def test_grid_missing_sidecar(tmp_path):
    path = tmp_path / "naked.csv"
    path.write_text("t,phi\n0,0\n1,1\n2,2\n3,3\n")
    with pytest.raises(SpecError, match="sidecar"):
        load_grid(str(path))


def _write_grid_data(path, t, v, degree):
    # full precision, so the floats read back are exactly t and v
    path.write_text("t,phi\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, v)))
    meta = {"degree": degree, "regularity": "continuous", "positive": False, "kinks": []}
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
@pytest.mark.parametrize(
    "p", [fubini_study(3), lse(2, 2.5), mollified_max(3, 0.7)], ids=lambda p: p.label
)
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
        pytest.param({"regularity": "C1"}, id="unknown-regularity"),
        pytest.param({"degree": "x"}, id="string-degree"),
        pytest.param({"positive": "false"}, id="string-positive"),
        pytest.param({"kinks": "ab"}, id="string-kinks"),
        pytest.param({"kinks": None}, id="null-kinks"),
        pytest.param({"kinks": [0.5, "x"]}, id="string-kink"),
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
    assert cx.degree == 0 and cx.params.c == 1.0


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


def test_parse_volume():
    assert parse_volume("fs").label == "fs"
    assert parse_volume("canonical").label == "canonical"
    w = parse_volume("lse:m=2,a=4")
    assert abs(integrate_volume(lambda t: 1.0, w) - 2.0) < 1e-10
    with pytest.raises(SpecError, match="degree"):
        parse_volume("fs:1")
