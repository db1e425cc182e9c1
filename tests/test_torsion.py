"""Spectral reference, the anomaly lattice, and the transfer chain.

The m = 1 anchors are hand derivations (kept in CONVENTIONS.md):
with dphi = phi_can - phi_fs = -log(1+e^{-|t|}) one gets
pair(dphi, mu_can) = -log 2 and pair(dphi, mu_fs) = log 2 - 1 by the
substitution u = 1/(1+e^{-t}), hence

    K(can_1, fs_1; omega_fs) = (1/2)[-log2 + log2 - 1] + (log2 - 1) = log 2 - 3/2

and with the normalized volume potentials (log norm_can = log 2)

    V(can_1; omega_can, omega_fs) = (1/2)(-2 log2 + log2)
                                    + (1/12)(-4 log2 + 4 log2 - 4 + 4 log2)
                                  = -(log 2)/6 - 1/3
    T(can_1, omega_can) = T_fs(1) + 11/6 - (5/6) log 2 - 2 log(3/2)

none of which the engine knows in closed form. The three invariance tests
at the end check identities that hold independently of this code: the
torsion of (h, omega) does not see a constant rescaling of h or the
additive constant of the volume potential, and at m = 0 it obeys the
Polyakov formula.
"""

import ast
import dataclasses
import gc
import importlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from mpmath import digamma, loggamma, mp, mpf
from mpmath import zeta as mpzeta

import spheretorsion
from spheretorsion import (
    SPECTRUM_SCALE,
    NumericalError,
    RadialPotential,
    VolumeForm,
    bundle_anomaly,
    canonical,
    counterexample_potential,
    dual,
    fs_reference_torsion,
    fubini_study,
    generalized_quillen_limit,
    generalized_torsion_curve,
    gram,
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
    tensor,
    torsion,
    volume_anomaly,
    volume_canonical,
    volume_from_potential,
    volume_fs,
    write_grid,
    zeta_zero,
    zhang_iterate,
)
from spheretorsion.radial import _normed_pairings
from spheretorsion.torsion import ZETA_PRIME_MINUS1, _chain

from conftest import LOG2, LOGPI, ZETA_PRIME_M1, ZPRIME_UNIT
from zeta_oracle import zeta_prime_minus1_em

WFS = volume_fs()
WCAN = volume_canonical()
COMPONENTS = {"log_quillen_ref", "bundle_anomaly", "volume_anomaly", "log_gram"}


# --- zeta machinery ---


def test_zeta_zero_values():
    assert zeta_zero(0) == pytest.approx(-2.0 / 3.0, abs=1e-15)
    for m in range(9):
        assert zeta_zero(m) == pytest.approx(-(m + 1) / 2.0 - 1.0 / 6.0, abs=1e-15)


def test_zeta_prime_minus1_euler_maclaurin():
    assert abs(zeta_prime_minus1_em() - ZETA_PRIME_M1) < 1e-12
    # stability under truncation choices
    assert abs(zeta_prime_minus1_em(N=40, K=5) - zeta_prime_minus1_em(N=90, K=6)) < 1e-12
    # the constant the reference torsion is built from
    assert abs(ZETA_PRIME_MINUS1 - zeta_prime_minus1_em()) < 1e-12


def _hurwitz_zeta_prime_zero(m):
    """Z'_m(0) of the unit-scale spectrum by the Hurwitz continuation, 50 digits.

    With n = k + (m+1)/2 >= q = (m+3)/2 and b = ((m+1)/2)^2 the eigenvalue
    k(k+m+1) is n^2 - b with multiplicity 2n, so binomially

        Z_m(s) = 2 sum_j (s)_j b^j / j! zeta_H(2s + 2j - 1, q),

    whose s-derivative at 0 is 4 zeta_H'(-1, q) - 2 b psi(q)
    + 2 sum_{j>=2} (b^j / j) zeta_H(2j - 1, q).
    """
    with mp.workdps(50):
        q = mpf(m + 3) / 2
        b = mpf((m + 1) ** 2) / 4
        val = 4 * mpzeta(-1, q, 1) - 2 * b * digamma(q)
        j = 2
        while True:
            term = (b**j / j) * mpzeta(2 * j - 1, q)
            val += 2 * term
            if abs(term) < mpf(10) ** -45:
                return val
            j += 1


def _closed_form_mp(m):
    """The elementary Z'_m(0) evaluated at 50 digits."""
    with mp.workdps(50):
        val = 4 * mpzeta(-1, 1, 1) - mpf((m + 1) ** 2) / 2
        return val + sum((2 * j - m - 1) * mp.log(j) for j in range(2, m + 2))


@pytest.mark.parametrize("m", range(9))
def test_hurwitz_continuation_against_frozen_table(m):
    # the table was frozen from the Hurwitz continuation; the engine
    # evaluates the elementary closed form
    got = fs_reference_torsion(m).components["zeta_prime_unit_scale"]
    assert abs(got - ZPRIME_UNIT[m]) < 1e-11


@pytest.mark.parametrize("m", range(9))
def test_hurwitz_continuation_matches_elementary_closed_form(m):
    # n = k + (m+1)/2 splits k(k+m+1) into (n - a)(n + a); two shifted
    # Riemann zeta sums plus the multiplicative anomaly -2 a^2 give
    # Z'_m(0) = 4 zeta'(-1) - (m+1)^2/2 + sum_{j<=m+1} (2j - m - 1) log j,
    # which the engine evaluates; the series is the independent oracle
    got = fs_reference_torsion(m).components["zeta_prime_unit_scale"]
    assert abs(got - float(_hurwitz_zeta_prime_zero(m))) < 1e-13


@pytest.mark.parametrize("m", (40, 60))
def test_closed_form_accurate_at_high_degree(m):
    got = fs_reference_torsion(m)
    drift = abs(got.components["zeta_prime_unit_scale"] - float(_closed_form_mp(m)))
    assert drift < 1e-12 and drift <= got.err


def _run_child(code):
    # a fresh interpreter that imports spheretorsion from where this one did
    src = os.path.dirname(os.path.dirname(spheretorsion.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )


def test_evaluation_chain_does_not_load_mpmath():
    code = (
        "import sys\n"
        "import spheretorsion as st\n"
        "from spheretorsion import cli, experiments\n"
        "st.quillen(st.canonical(2), st.volume_canonical())\n"
        "st.torsion(st.lse(1, 4.0), st.volume_fs())\n"
        "experiments.canonical_quillen_law(3)\n"
        "assert cli.main(['torsion', '--metric', 'fs:20', '--no-meta']) == 0\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    res = _run_child(code)
    assert res.returncode == 0, res.stderr


def test_import_does_not_load_scipy():
    code = (
        "import sys\n"
        "import spheretorsion as st\n"
        "from spheretorsion import cli\n"
        "st.quillen(st.lse(3, 5.0), st.volume_canonical())\n"
        "assert cli.main(['torsion', '--metric', 'fs:20', '--no-meta']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    res = _run_child(code)
    assert res.returncode == 0, res.stderr


def test_grid_path_does_not_load_scipy(tmp_path):
    # load_grid builds its monotone cubic in numpy; scipy is a test oracle only
    h, w = str(tmp_path / "fs3.csv"), str(tmp_path / "fs2.csv")
    code = (
        "import sys\n"
        "import spheretorsion as st\n"
        "from spheretorsion import cli\n"
        f"h, w = {h!r}, {w!r}\n"
        "st.write_grid(st.fubini_study(3), h, n=41)\n"
        "st.write_grid(st.fubini_study(2), w, n=41)\n"
        "assert cli.main(['torsion', '--metric', 'grid:' + h, '--no-meta']) == 0\n"
        "argv = ['quillen', '--metric', 'grid:' + h, '--volume', 'grid:' + w, '--no-meta']\n"
        "assert cli.main(argv) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    res = _run_child(code)
    assert res.returncode == 0, res.stderr


def test_runtime_depends_on_numpy_only():
    # no module of the package imports scipy, and the package declares numpy
    # alone; scipy stays in the dev extra as the tests' oracle
    pkg = os.path.dirname(spheretorsion.__file__)
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not [m for m in mods if m.split(".")[0] == "scipy"], (name, node.lineno)
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = os.path.dirname(os.path.dirname(pkg))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(reqs):
        return [re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0] for r in reqs]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["dev"])


def test_cli_call_does_not_load_process_pool():
    # every call, the two sweeps included, runs in process
    code = (
        "import sys\n"
        "from spheretorsion import cli\n"
        "assert cli.main(['torsion', '--metric', 'fs:20', '--no-meta']) == 0\n"
        "assert cli.main(['closed-form', '--m-max', '1', '--no-meta']) == 0\n"
        "assert cli.main(['counterexample', '--deltas', '1e-2', '--no-meta']) == 0\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "loaded = [m for m in pool if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    res = _run_child(code)
    assert res.returncode == 0, res.stderr


def test_counterexample_call_does_not_load_numpy_ma():
    # sup_distance dedupes without np.unique, whose first call imports numpy.ma
    code = (
        "import sys\n"
        "from spheretorsion import cli\n"
        "assert cli.main(['counterexample', '--c', '1.0', '--no-meta']) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    res = _run_child(code)
    assert res.returncode == 0, res.stderr


def test_reference_default_scale_is_geometric():
    assert SPECTRUM_SCALE == math.pi
    assert fs_reference_torsion(0).value == pytest.approx(
        ZPRIME_UNIT[0] + (2.0 / 3.0) * LOGPI, abs=1e-12
    )
    with pytest.raises(ValueError):
        fs_reference_torsion(-1)


# --- anomaly lattice: exact identities ---


def test_anomalies_vanish_on_equal_arguments():
    p = mollified_max(2, 0.5)
    assert bundle_anomaly(p, p, WFS).value == pytest.approx(0.0, abs=1e-13)
    assert volume_anomaly(p, WFS, WFS).value == pytest.approx(0.0, abs=1e-13)


def test_bundle_anomaly_antisymmetric():
    pairs = [
        (fubini_study(2), mollified_max(2, 0.5)),
        (canonical(1), fubini_study(1)),
        (lse(3, 4.0), fubini_study(3)),
    ]
    for p1, p2 in pairs:
        a = bundle_anomaly(p1, p2, WFS).value
        b = bundle_anomaly(p2, p1, WFS).value
        assert abs(a + b) < 1e-10


def test_volume_anomaly_antisymmetric():
    wl = parse_volume("lse:m=2,a=4")
    for w1, w2 in [(WFS, WCAN), (WFS, wl), (WCAN, wl)]:
        a = volume_anomaly(fubini_study(1), w1, w2).value
        b = volume_anomaly(fubini_study(1), w2, w1).value
        assert abs(a + b) < 1e-10


def test_bundle_cocycle():
    w = WFS
    trios = [
        (fubini_study(2), mollified_max(2, 0.5), lse(2, 3.0)),
        (fubini_study(1), canonical(1), lse(1, 5.0)),
    ]
    for a, b, c in trios:
        gap = (
            bundle_anomaly(a, c, w).value
            - bundle_anomaly(a, b, w).value
            - bundle_anomaly(b, c, w).value
        )
        assert abs(gap) < 1e-9


def test_volume_cocycle():
    # the curvature trapezoid is what makes this exact; with area densities
    # in the Todd slot the gap is ~2.5e-4 on exactly these triples
    wl = parse_volume("lse:m=2,a=4")
    wm = parse_volume("mollmax:m=2,eps=0.6")
    p = fubini_study(1)
    for a, b, c in [(WFS, WCAN, wl), (WFS, wm, wl), (WCAN, wm, WFS)]:
        gap = (
            volume_anomaly(p, a, c).value
            - volume_anomaly(p, a, b).value
            - volume_anomaly(p, b, c).value
        )
        assert abs(gap) < 1e-9


def test_mixed_square_commutes():
    # change bundle then volume vs volume then bundle
    p1, p2 = fubini_study(2), mollified_max(2, 0.5)
    lhs = bundle_anomaly(p1, p2, WCAN).value - bundle_anomaly(p1, p2, WFS).value
    rhs = volume_anomaly(p1, WCAN, WFS).value - volume_anomaly(p2, WCAN, WFS).value
    assert abs(lhs - rhs) < 1e-9


def test_bundle_anomaly_degree_mismatch_refused():
    with pytest.raises(ValueError, match="equal degrees"):
        bundle_anomaly(fubini_study(1), fubini_study(2), WFS)


def test_m1_anchor_values():
    K = bundle_anomaly(canonical(1), fubini_study(1), WFS)
    assert K.value == pytest.approx(LOG2 - 1.5, abs=1e-11)
    assert K.diagnostics["pair_mu1"] == pytest.approx(-LOG2, abs=1e-12)
    assert K.diagnostics["pair_mu2"] == pytest.approx(LOG2 - 1.0, abs=1e-11)
    V = volume_anomaly(canonical(1), WCAN, WFS)
    assert V.value == pytest.approx(-LOG2 / 6.0 - 1.0 / 3.0, abs=1e-11)
    assert V.diagnostics["pair_mu"] == pytest.approx(-2.0 * LOG2, abs=1e-12)
    assert V.diagnostics["pair_todd1"] == pytest.approx(-4.0 * LOG2, abs=1e-12)
    assert V.diagnostics["pair_todd2"] == pytest.approx(4.0 * (LOG2 - 1.0), abs=1e-11)
    assert V.diagnostics["gauge"] == pytest.approx(LOG2, abs=1e-15)


@pytest.mark.parametrize("m", range(1, 9))
def test_bundle_anomaly_canonical_to_fs_closed_form(m):
    """K(can_m, fs_m; omega_fs) = -m^2/2 - m (1 - log 2), derived by hand.

    dphi = phi_can - phi_fs = m max(0, t) - m log(1 + e^t) = -m log(1 + e^{-|t|}).
    With v = 1 + e^{-|t|},
    I = int log(1 + e^{-|t|}) e^t / (1 + e^t)^2 dt = 2 int_1^2 log(v) / v^2 dv = 1 - log 2.
    The three slots:
    - against the atom m delta_0 of can_m: m dphi(0) = -m^2 log 2;
    - against fs_m, density m e^t / (1 + e^t)^2: -m^2 I;
    - against the curvature of the round volume's potential fs_2, density
      2 e^t / (1 + e^t)^2: -2 m I.
    So K = (1/2)(-m^2 log 2 - m^2 I) + (1/2)(-2 m I) = -m^2/2 - m (1 - log 2),
    with no term the engine knows in closed form.
    """
    K = bundle_anomaly(canonical(m), fubini_study(m), WFS)
    assert abs(K.value - (-(m**2) / 2.0 - m * (1.0 - LOG2))) <= 1e-10


# --- the transfer chain ---


def test_torsion_m1_anchor():
    t = torsion(canonical(1), WCAN)
    want = fs_reference_torsion(1).value + 11.0 / 6.0 - (5.0 / 6.0) * LOG2 - 2.0 * math.log(1.5)
    assert t.value == pytest.approx(want, abs=1e-10)
    assert set(t.components) == COMPONENTS


def test_quillen_bookkeeping_identity():
    q = quillen(canonical(1), WCAN)
    assert q.torsion.value == q.log_quillen - q.log_l2
    assert q.log_l2 == pytest.approx(2.0 * math.log(1.5), abs=1e-11)
    assert q.log_quillen == pytest.approx(
        fs_reference_torsion(1).value + 11.0 / 6.0 - (5.0 / 6.0) * LOG2, abs=1e-10
    )


def _fs_pair_mp(m):
    """(log h_Q, T) of fs_m on the round volume at 50 digits: T_fs(m) plus the Beta Gram."""
    with mp.workdps(50):
        t = _closed_form_mp(m) - mp.log(mp.pi) * zeta_zero(m)
        lg = sum(mp.log(2 * mp.beta(k + 1, m + 1 - k)) for k in range(m + 1))
        return t + lg, t


def _canonical_torsion_mp(m):
    """T(can_m, omega_can) at 50 digits (CONVENTIONS.md section 7)."""
    with mp.workdps(50):
        lg_inf = (m + 1) * mp.log(m + 2) - 2 * loggamma(m + 2)
        zeta0 = -mpf(m + 1) / 2 - mpf(1) / 6
        return 4 * mpzeta(-1, 1, 1) - mpf(1) / 6 - lg_inf - zeta0 * mp.log(2 * mp.pi)


@pytest.mark.parametrize("m", (1, 5, 24, 50, 100))
def test_reported_err_bounds_the_torsion(m):
    # fs_m on a volume built from fs_2 is the reference pair geometrically,
    # with a norm found by quadrature, so its true T is T_fs(m)
    w = volume_from_potential(fubini_study(2))
    t = torsion(fubini_study(m), w)
    with mp.workdps(50):
        assert abs(mpf(t.value) - _fs_pair_mp(m)[1]) <= t.err
    t = torsion(canonical(m), WCAN)
    with mp.workdps(50):
        assert abs(mpf(t.value) - _canonical_torsion_mp(m)) <= t.err


def test_quillen_metric_needs_no_gram_closed_form():
    # log h_Q is the closed form Q_fs(m) less the anomaly terms: no Gram
    # log-determinant near -1300 enters it at m = 50
    q = quillen(fubini_study(50), volume_from_potential(fubini_study(2)))
    with mp.workdps(50):
        assert abs(mpf(q.log_quillen) - _fs_pair_mp(50)[0]) <= 1e-12


def test_anomaly_identity_many_pairs():
    # quillen(p,w) - quillen(p',w) = -bundle_anomaly(p,p',w), five pairs,
    # mixed regularity, and at a non-reference volume as well
    wl = parse_volume("lse:m=2,a=3")
    cases = [
        (fubini_study(2), mollified_max(2, 0.5), WFS),
        (fubini_study(2), lse(2, 3.0), WFS),
        (mollified_max(2, 0.4), lse(2, 5.0), WFS),
        (canonical(1), fubini_study(1), WFS),
        (fubini_study(1), lse(1, 2.0), wl),
        (zhang_iterate(fubini_study(2), 2, 3), fubini_study(2), WFS),
    ]
    for p1, p2, w in cases:
        lhs = quillen(p1, w).log_quillen - quillen(p2, w).log_quillen
        rhs = -bundle_anomaly(p1, p2, w).value
        assert abs(lhs - rhs) < 1e-8, (p1.label, p2.label, w.psi.label)


def test_volume_change_identity():
    # same shape in the volume slot
    for p in (fubini_study(1), mollified_max(2, 0.5)):
        lhs = quillen(p, WCAN).log_quillen - quillen(p, WFS).log_quillen
        rhs = -volume_anomaly(p, WCAN, WFS).value
        assert abs(lhs - rhs) < 1e-9


def test_reference_pair_lands_on_the_reference_torsion():
    # the reference pair runs the chain like every other pair: T is Q_fs(m)
    # less a quadrature Gram, and lands on T_fs(m)
    for m in range(25):
        t = torsion(fubini_study(m), WFS)
        assert abs(t.value - fs_reference_torsion(m).value) <= 1e-12, m
        assert t.value == quillen(fubini_study(m), WFS).torsion.value


def test_values_do_not_depend_on_labels():
    # a volume potential labelled "fs:2" is not the round volume, and a copy
    # of fs_1 under another metric's label is not fs_1: only the geometry counts
    named = volume_from_potential(dataclasses.replace(lse(2, 3.0), label="fs:2"))
    named = torsion(fubini_study(1), named)
    assert named.value == torsion(fubini_study(1), volume_from_potential(lse(2, 3.0))).value
    assert abs(named.value - fs_reference_torsion(1).value) > 1e-3
    posing = dataclasses.replace(lse(1, 3.0), label="fs:1")
    assert torsion(posing, WFS).value == torsion(lse(1, 3.0), WFS).value


def test_every_pair_reports_the_same_components_and_refusals():
    # one chain: the reference pair reports what every other pair reports
    pairs = (
        (fubini_study(2), WFS),
        (canonical(2), WCAN),
        (mollified_max(1, 0.5), WFS),
        (fubini_study(2), WCAN),
    )
    for p, w in pairs:
        assert set(torsion(p, w).components) == COMPONENTS
    with pytest.raises(TypeError):
        torsion(fubini_study(1), WFS, route="auto")
    with pytest.raises(ValueError, match="degree >= 0"):
        torsion(dual(fubini_study(1)), WFS)


def test_torsion_deterministic():
    a = torsion(canonical(1), WCAN).value
    b = torsion(canonical(1), WCAN).value
    assert a == b


def test_each_anomaly_term_is_one_kernel_call(monkeypatch):
    radial = importlib.import_module("spheretorsion.radial")
    p, w = lse(2, 9.0), volume_from_potential(lse(2, 4.0))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate_line(*args, **kwargs)

    monkeypatch.setattr(radial, "integrate_line", counting)
    for run, want in (
        (lambda: gram(p, w), 1),
        (lambda: bundle_anomaly(p, fubini_study(2), w), 1),
        (lambda: volume_anomaly(p, w, WFS), 1),
        # the Gram and the two anomaly terms share one stacked pairing
        (lambda: quillen(p, w), 1),
        (lambda: torsion(p, w), 1),
        # the reference pair runs the same chain
        (lambda: quillen(fubini_study(2), WFS), 1),
    ):
        calls.clear()
        run()
        assert len(calls) == want


def test_chain_evaluates_the_fs_volume_once_per_round(monkeypatch):
    # lse(15, 3), fs_15 and fs_2 need one logistic_density each per round:
    # the caller's volume_fs() is the chain's reference volume, so its fs_2
    # row is shared, not evaluated a second time
    metrics = importlib.import_module("spheretorsion.metrics")
    quadrature = importlib.import_module("spheretorsion.quadrature")
    base, rounds, dens, passes = lse(15, 3.0), [], [], []
    p = dataclasses.replace(base, phi=lambda t: rounds.append(1) or base.phi(t))

    def counting(t):
        dens.append(1)
        return logistic_density(t)

    def counting_quad(f, iv, _quad=quadrature.quad):
        passes.append(1)
        return _quad(f, iv)

    monkeypatch.setattr(metrics, "logistic_density", counting)
    monkeypatch.setattr(quadrature, "quad", counting_quad)
    quillen(p, volume_fs())
    # the first pass holds the half lines already graded, and no round is left
    assert len(passes) == len(rounds) == 1
    assert len(dens) == 3 * len(rounds)
    assert volume_fs() is WFS and WFS.psi is fubini_study(2)


def test_chain_evaluates_no_block_at_an_atom_it_does_not_pair():
    # on the singular volume only the volume block and the guard pair
    # against the atom of canonical_2 at 0, and neither evaluates p
    base, sizes = lse(12, 4.5), []
    p = dataclasses.replace(base, phi=lambda t: sizes.append(np.size(t)) or base.phi(t))
    quillen(p, volume_canonical())
    assert sizes and sizes.count(1) == 0


@pytest.mark.parametrize(
    "case",
    [
        lambda: (lse(2, 3.0), volume_from_potential(lse(2, 2.5))),
        lambda: (fubini_study(3), WCAN),
        lambda: (canonical(2), WFS),
        lambda: (zhang_iterate(lse(1, 1.5), 2, 3), volume_from_potential(mollified_max(2, 0.5))),
    ],
    ids=["lse-lazy", "fs-canonical", "canonical-fs", "zhang-mollmax"],
)
def test_the_chain_leaves_no_reference_cycle(case):
    # every result is freed by reference counting alone: with the cycle
    # collector off, nothing is left for it to find
    p, w = case()
    runs = [
        lambda: quillen(p, w),
        lambda: gram(p, w),
        lambda: bundle_anomaly(p, fubini_study(p.degree), w),
        lambda: volume_anomaly(p, w, WFS),
        lambda: measure_mass(p),
        lambda: pair(lambda t: 1.0 / (1.0 + t * t), p),
    ]
    for run in runs:
        run()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _passes(monkeypatch, run):
    """The kernel passes run() makes."""
    quadrature = importlib.import_module("spheretorsion.quadrature")
    passes = []

    def counting_quad(f, iv, _quad=quadrature.quad):
        passes.append(1)
        return _quad(f, iv)

    monkeypatch.setattr(quadrature, "quad", counting_quad)
    run()
    return len(passes)


@pytest.mark.parametrize(
    "case",
    [
        lambda: (fubini_study(6), WFS),
        lambda: (fubini_study(24), WFS),
        lambda: (lse(12, 4.5), WCAN),
        # the sharp members on their degree-2 twin's volume: the octave
        # brackets hold every cut near the bump, so no round is left
        lambda: (lse(1, 1.5 * 3.0**20), volume_from_potential(lse(2, 1.5 * 3.0**20))),
        lambda: (
            zhang_iterate(lse(1, 1.5), 2, 28),
            volume_from_potential(zhang_iterate(lse(2, 1.5), 2, 28)),
        ),
    ],
    ids=["fs6-fs", "fs24-fs", "lse12-can", "lse1-sharp-twin", "zhang1-sharp-twin"],
)
def test_quillen_kernel_passes(monkeypatch, case):
    # the first pass already holds each half line graded as the first round
    # of refinement would cut it, and each bracket panel an octave
    p, w = case()
    assert _passes(monkeypatch, lambda: quillen(p, w)) == 1


# the smooth metrics of the high-degree study, as families in the degree m:
# lse(m, a) for a in [1, 9], and dilation iterates lse(m, a0 2^n) of
# sharpness a0 2^n in [1, 12]
SMOOTH = {
    "fs": fubini_study,
    "lse-1": lambda m: lse(m, 1.0),
    "lse-9": lambda m: lse(m, 9.0),
    "zhang-1": lambda m: zhang_iterate(lse(m, 0.5), 2, 1),
    "zhang-12": lambda m: zhang_iterate(lse(m, 1.5), 2, 3),
}


@pytest.mark.parametrize("w", [WFS, WCAN], ids=["fs", "canonical"])
@pytest.mark.parametrize("m", [6, 24])
@pytest.mark.parametrize("fam", SMOOTH.values(), ids=SMOOTH.keys())
def test_a_smooth_metric_takes_one_pass_on_the_unsplit_table(monkeypatch, fam, m, w):
    # every split is 0 (the atom of canonical_2 alone), so the kernel is
    # handed the whole line's first-pass table built at import
    quadrature = importlib.import_module("spheretorsion.quadrature")
    tables = []

    def recording_quad(f, iv, _quad=quadrature.quad):
        tables.append(iv)
        return _quad(f, iv)

    monkeypatch.setattr(quadrature, "quad", recording_quad)
    quillen(fam(m), w)
    assert len(tables) == 1 and tables[0] is quadrature._UNSPLIT_IV


@pytest.mark.parametrize("m", (150, 300))
def test_reference_pair_lands_on_the_reference_torsion_above_degree_100(m):
    # at m = 300 the call refines from the unsplit table. Only the value is
    # checked: the middle Gram entries there are below the absolute stop
    # rule, and T.err (2e-5 at m = 300) overstates the true error
    t = torsion(fubini_study(m), WFS)
    with mp.workdps(50):
        assert abs(mpf(t.value) - _fs_pair_mp(m)[1]) <= 1e-9


# the members of the limits sequences, as families in the degree m
LIMITS_TWINS = {
    "lse": lambda m: lse(m, 1.5 * 3.0**15),
    "zhang": lambda m: zhang_iterate(lse(m, 1.5), 2, 20),
    "mollmax": lambda m: mollified_max(m, 1.5 * 2.0**-20),
    "lse-sharp-twin": lambda m: lse(m, 1.5 * 3.0**20),
    "zhang-sharp-twin": lambda m: zhang_iterate(lse(m, 1.5), 2, 28),
}


@pytest.mark.parametrize("fam", LIMITS_TWINS.values(), ids=LIMITS_TWINS.keys())
def test_volume_normalization_takes_one_kernel_pass(monkeypatch, fam):
    # integrated alone, the norm converges in the graded first pass
    w = volume_from_potential(fam(2))
    assert _passes(monkeypatch, lambda: _normed_pairings([], (w,))) == 1


@pytest.mark.parametrize("fam", LIMITS_TWINS.values(), ids=LIMITS_TWINS.keys())
def test_a_limits_op_takes_one_kernel_pass(monkeypatch, fam):
    # a member on its degree-2 twin's volume: building the volume integrates
    # nothing, and its norm is a row of quillen's own pass
    p, psi = fam(1), fam(2)
    assert _passes(monkeypatch, lambda: volume_from_potential(psi)) == 0
    op = lambda: quillen(p, volume_from_potential(psi))
    assert _passes(monkeypatch, op) == 1


def test_results_do_not_depend_on_what_the_volume_did_before():
    # the chain, gram and V integrate a volume's norm in their own pass,
    # whether or not it was integrated before or used with another metric; the
    # kinks of mollified_max(2, 0.5) move that norm's last bit, so a norm
    # kept on the volume would show there
    psi = lse(2, 4.0)

    def results(vol):
        # vol() is the volume of each call
        vals = []
        for p in (lse(2, 9.0), mollified_max(2, 0.5)):
            q, g = quillen(p, vol()), gram(p, vol())
            v = volume_anomaly(p, vol(), WFS)
            vals += [q.log_quillen, q.torsion.value, q.torsion.err, *g.entries, g.err, v.value, v.err]
        return [float(x).hex() for x in vals]

    want = results(lambda: volume_from_potential(psi))
    read, used = volume_from_potential(psi), volume_from_potential(psi)
    assert _normed_pairings([], (read,))[1][0][0] > 0
    assert results(lambda: read) == want
    quillen(fubini_study(3), used)
    assert results(lambda: used) == want


def test_a_volume_without_a_finite_norm_fails_where_its_norm_is_used():
    # e^{t - psi} = e^{min(t, 0)} is 1 on the whole positive half line
    psi = RadialPotential(
        degree=2,
        phi=lambda t: np.maximum(t, 0.0),
        positive=False,
        curvature_density=np.zeros_like,
        kinks=(0.0,),
        curvature_atoms=((0.0, 1.0),),
        label="flat-tail",
    )
    w, p = volume_from_potential(psi), lse(2, 9.0)
    for use in (
        lambda: quillen(p, w),
        lambda: gram(p, w),
        lambda: volume_anomaly(p, w, WFS),
        lambda: integrate_volume(lambda t: 1.0, w),
    ):
        with pytest.raises(NumericalError):
            use()


def test_gram_and_volume_anomaly_charge_the_norm_err():
    # every Gram entry carries 1/norm, and V the gauge log norm times m/2 + 1/3;
    # an integrated norm is charged its row's estimate, the same norm given
    # is exact and charged nothing
    psi = lse(2, 3.0)
    w = volume_from_potential(psi)
    ((norm, est),) = _normed_pairings([], (w,))[1]
    exact = VolumeForm(psi, norm)
    p, rel = lse(6, 4.5), est / norm
    assert rel > 0
    assert gram(p, w).err - gram(p, exact).err == pytest.approx(7 * rel)
    charge = volume_anomaly(p, w, WFS).err - volume_anomaly(p, exact, WFS).err
    assert charge == pytest.approx((3 + 1 / 3) * rel)
    T, T_exact = quillen(p, w).torsion, quillen(p, exact).torsion
    assert T.value == T_exact.value and T.err > T_exact.err


def _grid(tmp_path, p, n):
    path = str(tmp_path / f"{p.label.replace(':', '_')}.csv")
    write_grid(p, path, n=n)
    return load_grid(path)


def _fused_cases(tmp_path):
    twins = (
        lambda m: zhang_iterate(lse(m, 1.5), 2, 28),
        lambda m: lse(m, 1.5 * 3.0**20),
        lambda m: mollified_max(m, 1.5 * 2.0**-30),
    )
    yield lse(2, 9.0), volume_from_potential(lse(2, 4.0))
    for fam in twins:
        yield fam(1), volume_from_potential(fam(2))
    yield fubini_study(20), WCAN
    yield tensor(fubini_study(1), counterexample_potential(1.0, 0.01)), WFS
    yield _grid(tmp_path, lse(2, 2.0), 161), WFS


def test_fused_chain_matches_the_single_term_paths(tmp_path):
    # every row of the one stacked pairing against the term computed alone
    for p, w in _fused_cases(tmp_path):
        gd, K, V = _chain(p, w)
        alone = (
            (gd.entries, gram(p, w).entries),
            (K.diagnostics, bundle_anomaly(p, fubini_study(p.degree), WFS).diagnostics),
            (V.diagnostics, volume_anomaly(p, w, WFS).diagnostics),
        )
        assert gd.entries.shape == (p.degree + 1,)
        for fused, single in alone:
            if isinstance(single, dict):
                assert fused.keys() == single.keys()
                fused, single = list(fused.values()), list(single.values())
            np.testing.assert_allclose(fused, single, rtol=1e-13, err_msg=p.label)


def _bump_potential(bracketed):
    # (1 - d) fs_1 + d times a dilation iterate at scale 2^20, moved to 3.1
    d, s = 1e-4, 3.1
    z, f1 = zhang_iterate(lse(1, 1.0), 2, 20), fubini_study(1)
    return RadialPotential(
        degree=1,
        phi=lambda t: (1.0 - d) * f1.phi(t) + d * z.phi(t - s),
        positive=True,
        kinks=tuple(k + s for k in z.kinks) if bracketed else (),
        curvature_density=lambda t: (1.0 - d) * f1.curvature_density(t)
        + d * z.curvature_density(t - s),
        label="bump",
    )


def test_curvature_mass_guard_catches_an_unbracketed_bump():
    # without its brackets the bump falls between the nodes: its mass d is
    # lost and log_quillen would be off by about 1.6e-8
    with pytest.raises(NumericalError, match="curvature mass of bump"):
        quillen(_bump_potential(bracketed=False), WFS)
    q = quillen(_bump_potential(bracketed=True), WFS)
    assert math.isfinite(q.log_quillen)


def test_curvature_mass_guard_catches_a_wrong_density():
    half = RadialPotential(
        degree=1,
        phi=fubini_study(1).phi,
        positive=True,
        curvature_density=lambda t: 0.5 * logistic_density(t),
        label="half",
    )
    with pytest.raises(NumericalError, match="curvature mass of half"):
        quillen(half, WFS)
    with pytest.raises(NumericalError, match="curvature mass of half"):
        torsion(half, WFS)


# --- invariance identities that hold independently of this code ---


def _shifted(p, c):
    # the same potential plus a constant: same curvature, same kinks
    return dataclasses.replace(p, phi=lambda t, _f=p.phi: _f(t) + c, label="")


@pytest.mark.parametrize("w", [WFS, WCAN], ids=["fs", "canonical"])
@pytest.mark.parametrize("m", (1, 2, 4))
def test_torsion_invariant_under_constant_rescaling_of_h(m, w):
    # h -> e^{-a} h leaves dbar* dbar unchanged, so T cannot move
    # (Riemann-Roch: the anomaly of the shift is chi(O(m)) a = (m+1) a)
    for p in (fubini_study(m), canonical(m)):
        t0 = torsion(p, w).value
        t1 = torsion(_shifted(p, 0.7), w).value
        assert abs(t1 - t0) < 1e-12, (p.label, w.psi.label, t1 - t0)


def test_torsion_invariant_under_volume_potential_constant():
    # psi and psi + b define the same area measure, hence the same geometry
    ts = np.linspace(-20.0, 20.0, 101)
    for psi in (WFS.psi, parse_spec("lse:m=2,a=4"), parse_spec("mollmax:m=2,eps=0.6")):
        w0 = volume_from_potential(psi)
        w1 = volume_from_potential(_shifted(psi, 0.9))
        np.testing.assert_allclose(_area_density(w1, ts), _area_density(w0, ts), rtol=1e-13, atol=0)
        for p in (fubini_study(1), canonical(2)):
            gap = torsion(p, w1).value - torsion(p, w0).value
            assert abs(gap) < 1e-12, (psi.label, p.label, gap)


def test_a_volume_potential_constant_short_of_underflow_leaves_T():
    # the norm e^{-700} is a normal float, so the shift leaves T within its error
    p = fubini_study(1)
    t0 = torsion(p, WFS)
    t1 = torsion(p, volume_from_potential(_shifted(WFS.psi, 700.0)))
    assert abs(t1.value - t0.value) <= t1.err


@pytest.mark.parametrize("b", [709.0, 740.0, 800.0])
def test_a_volume_norm_that_underflows_raises(b):
    # e^{-b} is below the least normal float: at b = 740 the norm row read
    # 4.15e-322 against 4.2e-322, with estimate 0, and T moved by 0.03
    w = volume_from_potential(_shifted(WFS.psi, b))
    with pytest.raises(NumericalError, match="volume normalization failed"):
        torsion(fubini_study(1), w)


def _area_density(w, t):
    """2 e^{t - psi} / norm, the area density of w, its norm integrated alone."""
    return 2.0 * np.exp(t - w.psi.phi(t)) / _normed_pairings([], (w,))[1][0][0]


def _polyakov_rhs(w, derivative):
    """Osgood-Phillips-Sarnak at fixed area, from the area densities alone.

    With dA_w = e^{2 sigma} dA_fs and log det' = -zeta'(0),
    T(w) - T(fs) = (1/6 pi)[ (1/2) int |grad sigma|^2 dA + int K_fs sigma dA_fs ].
    Radially int |grad sigma|^2 dA = 4 pi int sigma'(t)^2 dt and
    K_fs dA_fs = 2 pi rho_fs dt, so the bracket over 6 pi is
    (1/3)[ int sigma'^2 dt + int sigma rho_fs dt ]. sigma' comes from
    adaptive finite differences of the density ratio (scipy.differentiate,
    scipy >= 1.15); Gauss-Legendre panels cut at
    the density's own split points carry the integral, and the tails past
    |t| = 40 are below 1e-16.
    """
    log_ratio = lambda t: np.log(_area_density(w, t) / _area_density(WFS, t))
    cuts = np.union1d(np.linspace(-40.0, 40.0, 161), [s for s in w.psi.kinks if abs(s) < 40.0])
    x, wt = np.polynomial.legendre.leggauss(20)
    a, b = cuts[:-1, None], cuts[1:, None]
    t = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    h = (0.5 * (b - a) * wt).ravel()
    sigma = 0.5 * log_ratio(t)
    dsigma = 0.5 * derivative(log_ratio, t, initial_step=0.01).df
    return float(np.sum(h * (dsigma**2 + sigma * _area_density(WFS, t)))) / 3.0


@pytest.mark.parametrize(
    "spec", ["lse:m=2,a=4", "lse:m=2,a=2.5", "mollmax:m=2,eps=0.6", "mollmax:m=2,eps=1.5"]
)
def test_polyakov_formula_at_m0(spec):
    derivative = pytest.importorskip("scipy.differentiate").derivative
    w = parse_volume(spec)
    flat = fubini_study(0)
    lhs = torsion(flat, w).value - torsion(flat, WFS).value
    rhs = _polyakov_rhs(w, derivative)
    assert abs(rhs) > 1e-2  # a genuine change of geometry
    assert abs(lhs - rhs) < 1e-11, (spec, lhs, rhs)


# --- generalized limits ---


def test_generalized_limit_refuses_nonpositive():
    from spheretorsion import counterexample_potential

    ridge = counterexample_potential(1.0, 1e-3)
    fam = lambda n: tensor(fubini_study(1), ridge)
    vols = lambda n: WFS
    with pytest.raises(ValueError, match="not positive"):
        generalized_quillen_limit(fam, vols, indices=(0, 1), grid_indices=())


def test_generalized_limit_constant_family_converges_immediately():
    fam = lambda n: fubini_study(1)
    vols = lambda n: WFS
    lim = generalized_quillen_limit(fam, vols, indices=range(4), grid_indices=())
    assert lim.report.verdict == "converged"
    assert lim.grid is None
    want = quillen(fubini_study(1), WFS).log_quillen
    assert lim.report.values[-1] == pytest.approx(want, abs=1e-12)
    assert max(lim.report.values) - min(lim.report.values) == 0.0


def test_generalized_limit_reaches_canonical_quillen():
    # sharpening bundle metrics over the fixed round volume: the diagonal
    # must land on the direct-integrable value for the canonical limit
    fam = lambda n: lse(1, 2.0**n)
    vols = lambda n: WFS
    lim = generalized_quillen_limit(
        fam, vols, indices=range(8, 25, 2), grid_indices=range(3), tol=1e-4
    )
    assert lim.report.verdict == "converged"
    assert lim.grid is not None and lim.grid.shape == (3, 3)
    want = quillen(canonical(1), WFS).log_quillen
    assert abs(lim.report.values[-1] - want) < 1e-4


def test_generalized_torsion_curve_decomposition_independence():
    p = fubini_study(1)
    decs = [
        (lambda n: lse(3, 2.0**n), lambda n: lse(1, 2.0**n)),
        (lambda n: zhang_iterate(fubini_study(4), 2, n), lambda n: zhang_iterate(fubini_study(2), 2, n)),
    ]
    reports = generalized_torsion_curve(p, decs, indices=range(2, 25, 2), tol=1e-5)
    assert [r.verdict for r in reports] == ["converged", "converged"]
    a, b = (r.values[-1] for r in reports)
    assert abs(a - b) < 1e-5
    want = torsion(p, WCAN).value
    for lim in (a, b):
        assert abs(lim - want) < 1e-5


def test_generalized_curve_refuses_nonpositive_factor():
    p = fubini_study(1)
    bad = (lambda n: dual(fubini_study(3)), lambda n: fubini_study(1))
    with pytest.raises(ValueError, match="not positive"):
        generalized_torsion_curve(p, [bad], indices=(2, 4))


def test_generalized_curve_refuses_positive_factors_of_negative_degree():
    # lse(-2, a) and lse(-4, a) would be positive factors of curvature
    # -2 and -4, that is dual(lse(2, a)) and dual(lse(4, a)), which are refused
    p = fubini_study(1)
    for plus, minus in ((lambda n: lse(-2, 3.0**n), lambda n: lse(-4, 3.0**n)),
                        (lambda n: dual(lse(2, 3.0**n)), lambda n: dual(lse(4, 3.0**n)))):
        with pytest.raises(ValueError, match="positive"):
            generalized_torsion_curve(p, [(plus, minus)], indices=(2, 4))


def test_generalized_curve_over_no_decompositions_declares_nothing():
    with pytest.raises(ValueError, match="at least one decomposition"):
        generalized_torsion_curve(canonical(1), [])


# --- result plumbing ---


def test_result_dicts_round_trip():
    t = torsion(canonical(1), WCAN)
    d = dataclasses.asdict(t)
    assert set(d) == {"value", "components", "err"} and d["value"] == t.value
    assert isinstance(d["components"], dict) and d["err"] < 1e-7
    q = quillen(fubini_study(1), WFS)
    qd = dataclasses.asdict(q)
    assert set(qd) == {"log_quillen", "log_l2", "torsion", "gram"}
    g = dataclasses.asdict(gram(fubini_study(1), WFS))
    assert g["m"] == 1 and len(g["entries"]) == 2
