"""The automorphisms of P^1 that commute with the circle action, as identities.

A dilation z -> lambda z is t -> t + s (s = log |lambda|^2), and the
inversion z -> 1/z is t -> -t. Pulling a pair (h, omega) back by either is
an isometry, so the torsion does not move. The monomial basis scales by
lambda^k under the dilation, so log h_Q moves by exactly -s m(m + 1)/2;
under the inversion z^k and z^(m-k) swap, so log h_Q does not move.

The chain reaches the pulled-back values through other anomaly pairings and
another Gram, against a reference pair that does not move, so these
identities check the anomaly coefficients from outside the code: a copy
with a moved Dirichlet or Todd slot of the bundle anomaly, or a moved mu_p
slot of the volume anomaly, fails the dilation cases, and the constant
shifts of test_torsion do not see the mu_p slot.

translate and invert are the program's one affine map, metrics.affine, at
(lam, s, k) = (1, s, 1) and (-1, 0, 1).
"""

import pytest

from spheretorsion import (
    VolumeForm,
    affine,
    canonical,
    counterexample_potential,
    fubini_study,
    load_grid,
    lse,
    mollified_max,
    quillen,
    volume_canonical,
    volume_from_potential,
    volume_fs,
    write_grid,
)


def translate(p, s: float):
    """The pullback by t -> t + s; a volume is its psi pulled back."""
    if isinstance(p, VolumeForm):
        return VolumeForm(translate(p.psi, s))
    return affine(p, 1, s, 1, f"{p.label}@{s:+g}")


def invert(p):
    """The pullback by t -> -t, plus degree * t; a volume is its psi pulled back."""
    if isinstance(p, VolumeForm):
        return VolumeForm(invert(p.psi))
    return affine(p, -1, 0, 1, f"{p.label}@inv")


# the probe pairs: smooth, soft-max and mollified bundles over the round, a
# soft-max and a mollified volume, and the canonical pair with its atoms
PAIRS = {
    "fs3/fs": lambda: (fubini_study(3), volume_fs()),
    "lse(2,4)/fs": lambda: (lse(2, 4.0), volume_fs()),
    "mollmax(2,0.6)/lse(2,2.5)": lambda: (mollified_max(2, 0.6), volume_from_potential(lse(2, 2.5))),
    "can3/can": lambda: (canonical(3), volume_canonical()),
    "fs1/mollmax(2,1.5)": lambda: (fubini_study(1), volume_from_potential(mollified_max(2, 1.5))),
}


def _assert_same_torsion(moved, base, log_quillen_shift=0.0):
    # each identity is held to the moved result's own error, and to 1e-12
    bound = max(1e-12, moved.torsion.err)
    assert abs(moved.torsion.value - base.torsion.value) <= bound
    assert abs(moved.log_quillen - base.log_quillen - log_quillen_shift) <= bound


@pytest.mark.parametrize("s", [-3.0, -1.0, 1.0, 3.0, 20.0])
@pytest.mark.parametrize("pair", list(PAIRS))
def test_dilation_keeps_torsion_and_moves_log_quillen_by_the_basis_weight(pair, s):
    p, w = PAIRS[pair]()
    m = p.degree
    base = quillen(p, w)
    moved = quillen(translate(p, s), translate(w, s))
    _assert_same_torsion(moved, base, -s * m * (m + 1) / 2)


@pytest.mark.parametrize("pair", list(PAIRS))
def test_inversion_keeps_torsion_and_log_quillen_of_translated_pairs(pair):
    # the catalog families are inversion-symmetric themselves, so each pair is
    # translated first
    p, w = (translate(x, 1.3) for x in PAIRS[pair]())
    _assert_same_torsion(quillen(invert(p), invert(w)), quillen(p, w))


@pytest.mark.parametrize("p", [fubini_study(3), lse(2, 2.5), mollified_max(3, 0.7)],
                         ids=["fs3", "lse(2,2.5)", "mollmax(3,0.7)"])
def test_inversion_keeps_torsion_and_log_quillen_of_grids(tmp_path, p):
    path = str(tmp_path / "g.csv")
    write_grid(p, path, n=161)
    g, w = load_grid(path), volume_fs()
    _assert_same_torsion(quillen(invert(g), invert(w)), quillen(g, w))


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_inversion_keeps_torsion_and_log_quillen_of_the_ridge(delta):
    # the ridge sits at r = 1 -+ eps, not symmetrically in t = 2 log r
    p, w = counterexample_potential(1.0, delta), volume_fs()
    _assert_same_torsion(quillen(invert(p), invert(w)), quillen(p, w))
