"""Experiment drivers: verdicts, row schemas, and the reporting helpers.

The closed-form sweep is asserted against the derivation of CONVENTIONS.md
section 7: at the Gillet-Soule spectrum scale 1/2 the canonical torsion is
4 zeta'(-1) - 1/6 - LGinf(m), so the Quillen metric log det G + T is
4 zeta'(-1) - 1/6 for every m; the library's scale pi adds the exact
transport -zeta_m(0) log(2 pi). Targets below are recomputed from scratch
with math.lgamma rather than imported back from the module under test.
"""

import csv
import importlib
import json
import math

import pytest

from spheretorsion import (
    NumericalError,
    canonical,
    experiments,
    fubini_study,
    quillen,
    volume_canonical,
    volume_from_potential,
    zhang_iterate,
)
from spheretorsion.experiments import (
    _round15,
    canonical_quillen_law,
    closed_form_target,
    run_bt_suite,
    run_closed_form,
    run_counterexample,
    run_double_limit_study,
    write_csv,
    write_json,
)

from conftest import ZETA_PRIME_M1


def _lginf(m):
    return (m + 1) * math.log(m + 2) - 2.0 * math.lgamma(m + 2)


def _transport(m):
    # scale 1/2 -> scale pi: zeta'(0) shifts by -log(2 pi) zeta_m(0),
    # zeta_m(0) = -(m+1)/2 - 1/6
    return ((m + 1) / 2.0 + 1.0 / 6.0) * math.log(2.0 * math.pi)


@pytest.mark.parametrize("m", range(6))
def test_closed_form_target_formula(m):
    want = 4.0 * ZETA_PRIME_M1 - 1.0 / 6.0 - _lginf(m) + _transport(m)
    assert closed_form_target(m) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("m", range(6))
def test_certificate_formula(m):
    want = 4.0 * ZETA_PRIME_M1 - 1.0 / 6.0 + _transport(m)
    assert canonical_quillen_law(m) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("m", (0, 1, 2))
def test_certificate_closes_the_gap(m):
    q = quillen(canonical(m), volume_canonical())
    assert abs(q.torsion.value - closed_form_target(m)) < 1e-7
    assert abs(q.log_quillen - canonical_quillen_law(m)) < 1e-7


# --- counterexample study ---


CEX_ROW_KEYS = {
    "c", "delta", "eps", "gamma", "sup_distance", "sup_over_scale",
    "dirichlet_term", "dirichlet_oracle", "dirichlet_abs_err", "glue_remainder",
    "todd_term", "M_delta", "g0", "g0_gap", "log_l2_gap",
    "torsion_flat", "torsion_cex", "torsion_gap", "gap_bound",
}


def test_run_counterexample():
    out = run_counterexample(cs=(1.0,), deltas=(1e-2, 1e-3))
    assert out["verdicts"] == {
        "sup_within_2_scale": True,
        "dirichlet_matches_oracle_1e-6": True,
        "gap_bound_holds": True,
        "l2_converges": True,
        "torsion_gap_persists": True,
        "continuity_fails": True,
    }
    assert len(out["rows"]) == 2
    for r in out["rows"]:
        assert CEX_ROW_KEYS <= set(r)
        assert r["dirichlet_abs_err"] <= 1e-6
        assert 0.0 < r["glue_remainder"] < 1.0
        # a quarter of -(2 c^2 + R), R > 0
        assert r["dirichlet_oracle"] < -0.5
        # uniform convergence of the metrics...
        assert r["sup_over_scale"] <= 2.0
        # ...while the torsion stays c^2/2 away from the flat value
        assert r["torsion_gap"] < -0.475
    sups = [r["sup_distance"] for r in sorted(out["rows"], key=lambda r: -r["delta"])]
    assert sups[0] > sups[1]


# --- closed-form sweep ---


CLOSED_ROW_KEYS = {
    "m", "closed_form_target", "torsion_direct", "torsion_generalized",
    "routes_gap", "direct_minus_target", "quillen_law", "quillen_law_residual",
    "generalized_verdict",
}


def test_run_closed_form():
    out = run_closed_form(ms=(0, 1, 2))
    assert out["verdicts"] == {
        "matches_closed_form_1e-6": True,
        "quillen_law_holds_1e-7": True,
        "routes_agree_1e-6": True,
    }
    for r in out["rows"]:
        assert CLOSED_ROW_KEYS <= set(r)
        assert abs(r["direct_minus_target"]) <= 1e-6
        assert abs(r["quillen_law_residual"]) <= 1e-7
        assert r["generalized_verdict"] == "converged"
    # the agreement is not a constant offset in disguise: the targets move
    # by more than a unit across m while every deviation stays below 1e-6
    targets = {r["m"]: r["closed_form_target"] for r in out["rows"]}
    assert abs(targets[2] - targets[0]) > 1.0


@pytest.mark.parametrize(
    "sweep",
    (
        lambda: run_closed_form(ms=()),
        lambda: run_counterexample(cs=()),
        lambda: run_counterexample(deltas=()),
    ),
    ids=("closed-form", "counterexample-cs", "counterexample-deltas"),
)
def test_empty_sweeps_raise(sweep):
    # every verdict is all() over the rows, which holds vacuously on none
    with pytest.raises(ValueError, match="at least one row"):
        sweep()


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def test_counterexample_row_is_one_kernel_call(kernel):
    # T, the Gram and K of a row all come from one transfer chain; the flat
    # metric on the round volume is the reference pair at m = 0, no call at all
    run_counterexample(deltas=(1e-2,))
    assert len(kernel.calls) == 1


# --- double limit and weak convergence ---


def test_run_double_limit_study():
    out = run_double_limit_study(m=1, n_max=26, tol=1e-5)
    assert out["verdicts"] == {
        "diagonal_cauchy": True,
        "routes_agree": True,
        "decompositions_agree": True,
    }
    res = out["results"]
    assert res["quillen_gap"] <= 1e-5
    assert res["decomposition_agreement"] <= 1e-5
    assert len(res["grid"]) == 6 and len(res["grid"][0]) == 6


def test_double_limit_reuses_grid_diagonal(monkeypatch):
    torsion_mod = importlib.import_module("spheretorsion.torsion")
    calls = []
    monkeypatch.setattr(torsion_mod, "quillen", _counting(calls, torsion_mod.quillen))
    res = run_double_limit_study()["results"]
    # 6 x 6 grid plus the 17 diagonal indices 0..32, of which 0, 2, 4 are on the grid
    assert len(calls) == 50
    monkeypatch.undo()
    fam = lambda n: zhang_iterate(fubini_study(1), 2, n)
    vol = lambda n: volume_from_potential(zhang_iterate(fubini_study(2), 2, n))
    for k, n in enumerate((0, 2, 4)):
        assert res["cauchy_report"]["values"][k] == res["grid"][n][n] == quillen(fam(n), vol(n)).log_quillen


def test_run_bt_suite():
    out = run_bt_suite(m=1)
    assert out["verdicts"]["all_converged_below_tol"] is True
    assert len(out["results"]) == 9
    for rep in out["results"].values():
        assert rep["verdict"] == "converged"


# --- reporting helpers ---


def test_round15():
    assert _round15(math.pi) == float(f"{math.pi:.15g}")
    nested = _round15({"a": [1.0 / 3.0, {"b": (2.0 / 3.0,)}], "s": "x", "n": 7})
    assert nested["s"] == "x" and nested["n"] == 7
    assert nested["a"][0] == float(f"{1/3:.15g}")

    import numpy as np

    arr = _round15(np.array([1.0 / 7.0]))
    assert isinstance(arr, list) and arr[0] == float(f"{1/7:.15g}")
    assert isinstance(_round15(np.float64(0.1)), float)


def test_write_json_deterministic_and_meta():
    obj = {"z": 1.0 / 3.0, "a": [1, 2], "meta": {"tool": "x"}}
    a = write_json(obj, no_meta=True)
    b = write_json(obj, no_meta=True)
    assert a == b
    assert "meta" not in json.loads(a)
    with_meta = json.loads(write_json({"x": 1}))
    assert set(with_meta["meta"]) == {"tool", "version", "timestamp"}
    assert with_meta["meta"]["tool"] == "spheretorsion"
    # keys sorted for diffability
    keys = list(json.loads(a))
    assert keys == sorted(keys)


def test_write_json_to_path(tmp_path):
    p = tmp_path / "out.json"
    text = write_json({"v": 0.1 + 0.2}, path=str(p), no_meta=True)
    assert p.read_text() == text + "\n"
    assert json.loads(text)["v"] == float(f"{0.1 + 0.2:.15g}")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_a_value_that_is_not_finite(tmp_path, bad):
    # NaN and Infinity are not JSON; nothing is written
    p = tmp_path / "out.json"
    with pytest.raises(NumericalError, match="not finite"):
        write_json({"rows": [{"v": bad}]}, path=str(p), no_meta=True)
    assert not p.exists()


def test_write_csv_round_trip(tmp_path):
    # one column per key of the first row, in order; floats at 15 digits
    p = tmp_path / "rows.csv"
    rows = [{"m": 0, "val": 1.0 / 3.0, "tag": "a"}, {"m": 1, "val": 2.0 / 3.0, "tag": "b"}]
    write_csv(rows, str(p))
    with open(p) as fh:
        back = list(csv.DictReader(fh))
    assert list(back[0]) == ["m", "val", "tag"]
    assert [r["m"] for r in back] == ["0", "1"]
    assert back[1]["val"] == "0.666666666666667" and back[1]["tag"] == "b"
    write_csv([], str(tmp_path / "empty.csv"))
    assert not (tmp_path / "empty.csv").exists()
