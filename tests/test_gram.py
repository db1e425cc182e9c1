"""Gram data of the monomial basis: quadrature vs closed forms vs 2-D oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as sciquad

from spheretorsion import (
    ConvergenceReport,
    NumericalError,
    RadialPotential,
    canonical,
    fubini_study,
    gram,
    gram_canonical_closed,
    gram_fs_closed,
    integrate_line,
    log_det_canonical_closed,
    lse,
    volume_canonical,
    volume_fs,
    zhang_iterate,
)


@pytest.mark.parametrize("m", range(0, 9))
def test_fs_gram_matches_beta_closed_form(m):
    g = gram(fubini_study(m), volume_fs())
    want = gram_fs_closed(m)
    assert np.max(np.abs(g.entries - want)) < 1e-10
    assert abs(g.log_det - np.log(gram_fs_closed(m)).sum()) < 1e-10


@pytest.mark.parametrize(
    "potential, volume, norm, closed, m",
    [(fubini_study, volume_fs, 1.0, gram_fs_closed, m) for m in (1, 6, 24, 40, 60)]
    + [(canonical, volume_canonical, 2.0, gram_canonical_closed, m) for m in (1, 6, 24, 40)],
)
def test_gram_rows_carry_honest_per_entry_estimates(potential, volume, norm, closed, m):
    # each entry's own estimate covers its true error; the relative term is
    # rounding slack, where the estimate alone sits below rounding (m = 60).
    # norm is the volume's int e^{t - psi} dt in closed form
    p, w = potential(m), volume()
    ks = np.arange(m + 1.0)[:, None]
    g, err = integrate_line(
        lambda t: np.exp(ks * t - p.phi(t)) * (2.0 * np.exp(t - w.psi.phi(t)) / norm),
        (*w.psi.kinks, *p.kinks),
    )
    assert err.parts.shape == g.shape == (m + 1,)
    assert np.all(np.abs(g - closed(m)) <= err.parts + 1e-13 * g)


@pytest.mark.parametrize("m", range(0, 9))
def test_canonical_gram_matches_harmonic_closed_form(m):
    g = gram(canonical(m), volume_canonical())
    want = gram_canonical_closed(m)
    assert np.max(np.abs(g.entries - want)) < 1e-10
    assert abs(g.log_det - log_det_canonical_closed(m)) < 1e-10


def test_closed_forms_small_cases_by_hand():
    # [TRIVIAL] m = 0: g_0 = 2 B(1,1) = 2 for fs, 1/1 + 1/1 = 2 canonical
    assert gram_fs_closed(0)[0] == pytest.approx(2.0, abs=1e-15)
    assert gram_canonical_closed(0)[0] == pytest.approx(2.0, abs=1e-15)
    # m = 1: fs entries 2 B(1,2) = 1 twice; canonical 1 + 1/2 both slots
    assert np.allclose(gram_fs_closed(1), [1.0, 1.0], atol=1e-15)
    assert np.allclose(gram_canonical_closed(1), [1.5, 1.5], atol=1e-15)


@given(m=st.integers(0, 12))
@settings(max_examples=13, deadline=None)
def test_closed_form_palindrome(m):
    # z^k <-> z^{m-k} under the sphere involution, so g_k = g_{m-k}
    for closed in (gram_fs_closed, gram_canonical_closed):
        g = closed(m)
        assert np.max(np.abs(g - g[::-1])) < 1e-15


@pytest.mark.parametrize("m", [0, 1, 2])
def test_fs_gram_against_two_dimensional_oracle(m):
    # [DERIVED] independent of the whole t-line reduction: the radial part
    # of the honest 2-D integral, 4 int r^{2k+1} (1+r^2)^{-m-2} dr
    for k in range(m + 1):
        want, _ = sciquad(
            lambda r, _k=k: 4.0 * r ** (2 * _k + 1) * (1.0 + r * r) ** (-m - 2),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
        )
        assert gram_fs_closed(m)[k] == pytest.approx(want, abs=1e-12)
        got = gram(fubini_study(m), volume_fs()).entries[k]
        assert got == pytest.approx(want, abs=1e-10)


def test_gram_rescaling_law():
    # phi -> phi + a multiplies every entry by e^{-a}: log det drops (m+1) a
    m, a = 3, 0.7
    base = fubini_study(m)
    shifted = RadialPotential(
        degree=m,
        phi=lambda t, _f=base.phi: _f(t) + a,
        positive=True,
        curvature_density=base.curvature_density,
        label="fs-shifted",
    )
    g0 = gram(base, volume_fs())
    g1 = gram(shifted, volume_fs())
    assert np.max(np.abs(g1.entries - math.exp(-a) * g0.entries)) < 1e-10
    assert g1.log_det == pytest.approx(g0.log_det - (m + 1) * a, abs=1e-10)


def test_gram_sandwich_monotone_in_potential():
    # phi_can <= phi_fs <= phi_can + m log 2 pointwise, and g_k is
    # antitone in phi, so entries sandwich with ratio at most 2^m
    m = 2
    w = volume_fs()
    g_fs = gram(fubini_study(m), w).entries
    g_can = gram(canonical(m), w).entries
    assert np.all(g_fs <= g_can + 1e-12)
    assert np.all(g_can <= 2.0**m * g_fs + 1e-12)


def test_log_det_lipschitz_sandwich():
    # |log det G(p1) - log det G(p2)| <= (m+1) sup|phi1 - phi2|
    m = 2
    w = volume_fs()
    lhs = abs(gram(fubini_study(m), w).log_det - gram(canonical(m), w).log_det)
    assert lhs <= (m + 1) * m * math.log(2.0) + 1e-12


def test_gram_rejects_negative_degree():
    from spheretorsion import dual

    with pytest.raises(ValueError, match="degree >= 0"):
        gram(dual(fubini_study(1)), volume_fs())


def test_gram_entries_that_underflow_raise_numerical_error():
    # every entry integrates a positive function: a middle entry of fs_1100
    # is below the least normal float, an underflow and not a bad potential
    with pytest.raises(NumericalError, match=r"Gram entry k=\d+ underflowed"):
        gram(fubini_study(1100), volume_fs())


def _log_det_convergence(family, indices, target):
    # log det Gram along a family against the target's, tol 1e-3
    w = volume_canonical()
    vals = [gram(family(n), w).log_det for n in indices]
    return ConvergenceReport.of(indices, vals, 1e-3, gram(target, w).log_det)


def test_gram_convergence_zhang_to_canonical():
    m = 2
    fam = lambda n: zhang_iterate(fubini_study(m), 2, n)
    rep = _log_det_convergence(fam, range(2, 9), canonical(m))
    assert rep.verdict == "converged"
    # Lipschitz in sup distance, so gaps contract at least geometrically
    assert rep.gaps[-1] < rep.gaps[0] / 30.0


def test_gram_convergence_lse_to_canonical():
    m = 1
    fam = lambda n: lse(m, 2.0**n)
    rep = _log_det_convergence(fam, range(2, 11), canonical(m))
    assert rep.verdict == "converged"
