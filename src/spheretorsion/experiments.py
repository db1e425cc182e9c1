"""Reproducible experiment drivers: the three studies behind the validation
battery, with CSV/JSON emission.

run_counterexample      sup-norm decay vs Dirichlet-energy persistence of
                        the ridge family (continuity fails without positivity)
run_closed_form         the singular canonical-metric torsion sweep against
                        the closed form derived in CONVENTIONS.md section 7,
                        plus the Quillen-metric law it implies
run_double_limit_study  double-sequence Quillen limits, route agreement and
                        decomposition independence at the canonical point

All drivers are deterministic.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import asdict

import numpy as np

from . import __version__
from .gram import log_det_canonical_closed
from .metrics import (
    canonical,
    counterexample_energy_oracle,
    counterexample_potential,
    fubini_study,
    lse,
    mollified_max,
    sup_distance,
    volume_canonical,
    volume_fs,
    zhang_iterate,
)
from .quadrature import NumericalError
from .radial import bedford_taylor_check, volume_from_potential
from .torsion import (
    SPECTRUM_SCALE,
    ZETA_PRIME_MINUS1,
    _transfer,
    fs_reference_torsion,
    generalized_quillen_limit,
    generalized_torsion_curve,
    quillen,
    zeta_zero,
)

__all__ = [
    "closed_form_target",
    "canonical_quillen_law",
    "run_counterexample",
    "run_closed_form",
    "run_double_limit_study",
    "run_bt_suite",
    "write_json",
    "write_csv",
]


# --- closed forms for the canonical metrics (CONVENTIONS.md section 7) ---

# spectrum scale of the Gillet-Soule normalization: omega = c1(TP^1) on the
# unit sphere, where the Dolbeault Laplacian of O(m) has eigenvalues k(k+m+1)/2
GS_SCALE = 0.5


def _scale_transport(m: int) -> float:
    """T at SPECTRUM_SCALE minus T at GS_SCALE, by the exact scale law."""
    return -math.log(SPECTRUM_SCALE / GS_SCALE) * zeta_zero(m)


def canonical_quillen_law(m: int) -> float:
    """log h_Q(can_m, omega_can) at the library's spectrum scale.

    At the Gillet-Soule scale the value is 4 zeta'(-1) - 1/6 for every m:
    all arithmetic intersection numbers of the canonical metrics vanish, so
    nothing depending on m survives but the spectrum-scale transport.
    """
    return 4.0 * ZETA_PRIME_MINUS1 - 1.0 / 6.0 + _scale_transport(m)


def closed_form_target(m: int) -> float:
    """Canonical-metric torsion on O(m) over the canonical volume:

        4 zeta'(-1) - 1/6 - log((m+2)^{m+1} / ((m+1)!)^2) - zeta_m(0) log(2 pi),

    the Gillet-Soule-scale value carried to the library's scale pi.
    """
    return canonical_quillen_law(m) - log_det_canonical_closed(m)


# --- emission helpers ---


def _round15(x):
    if isinstance(x, float):
        return float(f"{x:.15g}")
    if isinstance(x, dict):
        return {k: _round15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round15(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_round15(float(v)) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return _round15(float(x))
    return x


def _meta():
    return {
        "tool": "spheretorsion",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_json(obj: dict, path=None, no_meta=False):
    """obj as indented JSON text, also written to path when given.

    A value that is not finite has no JSON spelling and raises
    NumericalError, so no document carries NaN or Infinity.
    """
    out = dict(obj)
    if no_meta:
        out.pop("meta", None)
    else:
        out.setdefault("meta", _meta())
    try:
        text = json.dumps(_round15(out), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"a result is not finite: {exc}") from exc
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def write_csv(rows, path):
    """Rows as CSV, one column per key of the first row; no file for no rows."""
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
        wr.writeheader()
        for row in rows:
            wr.writerow({k: (f"{v:.15g}" if isinstance(v, float) else v) for k, v in row.items()})


def _rows(rows):
    # a verdict over no rows would pass vacuously
    if not rows:
        raise ValueError("a sweep needs at least one row")
    return rows


# --- counterexample study ---


def _cex_row(c, delta, eps, gamma):
    pot = counterexample_potential(c, delta, eps=eps, gamma=gamma)
    oracle = counterexample_energy_oracle(c, delta, eps=eps, gamma=gamma)
    flat = fubini_study(0)
    w = volume_fs()
    sup = sup_distance(pot, flat)
    # the chain's K(pot, fs_0; omega_fs) is K(pot, flat; w): one kernel call;
    # the flat metric on the round volume is the reference pair at m = 0
    q, K = _transfer(pot, w)
    t_cex, g, t_flat = q.torsion, q.gram, fs_reference_torsion(0)
    scale = c * math.sqrt(delta)
    m_delta = abs(K.diagnostics["pair_todd"]) / scale
    gap = t_flat.value - t_cex.value
    # the flat slot pairs to zero, so the Dirichlet term is pair(f, mu_f) / 2
    # = -(1/4) int r f'^2 dr, a quarter of the oracle's energy term
    dirichlet_oracle = 0.25 * oracle["dirichlet_term"]
    return {
        "c": c,
        "delta": delta,
        "eps": eps,
        "gamma": oracle["gamma"],
        "sup_distance": sup,
        "sup_over_scale": sup / scale,
        "dirichlet_term": K.diagnostics["dirichlet_term"],
        "dirichlet_oracle": dirichlet_oracle,
        "dirichlet_abs_err": abs(K.diagnostics["dirichlet_term"] - dirichlet_oracle),
        "glue_remainder": oracle["glue_remainder"],
        "todd_term": K.diagnostics["todd_term"],
        "M_delta": m_delta,
        "g0": float(g.entries[0]),
        "g0_gap": abs(float(g.entries[0]) - 2.0),
        "log_l2_gap": float(np.log(g.entries[0] / 2.0)),
        "torsion_flat": t_flat.value,
        "torsion_cex": t_cex.value,
        "torsion_gap": gap,
        "gap_bound": -0.5 * c * c + m_delta * scale,
    }


def run_counterexample(
    cs=(1.0,),
    deltas=(1e-2, 1e-3, 1e-4),
    eps=0.2,
    gamma=None,
) -> dict:
    """Uniform convergence of the metrics against persistence of the torsion gap.

    For each (c, delta): sup distance to the flat limit (must be <= 2 c
    sqrt(delta)), the anomaly's Dirichlet component against the exact
    piecewise-polynomial oracle (must be -(c^2/2 + R/4)), the measured
    operator constant M, the L^2 Gram convergence, and the torsion gap with
    its -c^2/2 + M c sqrt(delta) bound.
    """
    rows = _rows([_cex_row(c, d, eps, gamma) for c in cs for d in deltas])
    sup_ok = all(r["sup_over_scale"] <= 2.0 + 1e-12 for r in rows)
    dir_ok = all(r["dirichlet_abs_err"] <= 1e-6 for r in rows)
    bound_ok = all(r["torsion_gap"] <= r["gap_bound"] + 1e-9 for r in rows)
    # the whole point: metric distance vanishes, torsion gap does not
    by_c = {}
    for r in rows:
        by_c.setdefault(r["c"], []).append(r)
    persists = all(
        min(abs(r["torsion_gap"]) for r in grp) > 0.475 * c * c for c, grp in by_c.items()
    )

    def _l2_ok(c, grp):
        # Gram entries obey the sup-norm sandwich, so the gap must shrink
        # along delta and sit under the 2 c sqrt(delta) scale at the end
        grp = sorted(grp, key=lambda r: -r["delta"])
        gaps_ = [r["g0_gap"] for r in grp]
        mono = all(a >= b - 1e-12 for a, b in zip(gaps_, gaps_[1:]))
        return mono and gaps_[-1] <= 2.5 * c * math.sqrt(grp[-1]["delta"])

    l2_converges = all(_l2_ok(c, grp) for c, grp in by_c.items())
    return {
        "command": "counterexample",
        "inputs": {"cs": list(cs), "deltas": list(deltas), "eps": eps, "gamma": gamma},
        "rows": rows,
        "verdicts": {
            "sup_within_2_scale": sup_ok,
            "dirichlet_matches_oracle_1e-6": dir_ok,
            "gap_bound_holds": bound_ok,
            "l2_converges": l2_converges,
            "torsion_gap_persists": persists,
            "continuity_fails": sup_ok and persists and l2_converges,
        },
    }


# --- closed-form sweep ---


def _dilation_limit(m, indices, grid_indices, tol):
    """Quillen limit along the dilation iterates of fs_m and of the fs volume."""
    bundles = lambda n: zhang_iterate(fubini_study(m), 2, n)
    volumes = lambda n: volume_from_potential(zhang_iterate(fubini_study(2), 2, n))
    return generalized_quillen_limit(bundles, volumes, indices, grid_indices, tol)


def _closed_row(m):
    target = closed_form_target(m)
    direct = quillen(canonical(m), volume_canonical())
    t_direct, g_can = direct.torsion, direct.gram
    lim = _dilation_limit(m, tuple(range(0, 33, 2)), (), 1e-6)
    t_general = lim.report.values[-1] - g_can.log_det
    law = canonical_quillen_law(m)
    return {
        "m": m,
        "closed_form_target": target,
        "torsion_direct": t_direct.value,
        "torsion_generalized": t_general,
        "routes_gap": abs(t_direct.value - t_general),
        "direct_minus_target": t_direct.value - target,
        "quillen_law": law,
        "quillen_law_residual": t_direct.value + g_can.log_det - law,
        "generalized_verdict": lim.report.verdict,
    }


def run_closed_form(ms=tuple(range(0, 6))) -> dict:
    """Sweep the canonical-metric torsion against its closed form.

    Reports both computation routes, the deviation of the direct torsion
    from the target, and the residual of the direct Quillen metric against
    the Quillen-metric law, whose Gillet-Soule-scale value does not depend
    on m.
    """
    rows = _rows([_closed_row(m) for m in ms])
    return {
        "command": "closed-form",
        "inputs": {"ms": list(ms)},
        "rows": rows,
        "verdicts": {
            "matches_closed_form_1e-6": all(abs(r["direct_minus_target"]) <= 1e-6 for r in rows),
            "quillen_law_holds_1e-7": all(abs(r["quillen_law_residual"]) <= 1e-7 for r in rows),
            "routes_agree_1e-6": all(
                r["routes_gap"] <= 1e-6 and r["generalized_verdict"] == "converged" for r in rows
            ),
        },
    }


# --- double limit study ---


def run_double_limit_study(m: int = 1, n_max: int = 32, tol: float = 1e-6) -> dict:
    """Route agreement at the canonical point of O(m) over the singular volume.

    (a) double-sequence Quillen limit along dilation iterates, (b) direct
    integrable evaluation, (c) torsion limits along two genuinely different
    positive decompositions of the volume potential, each the last value of
    its report, and their largest pairwise gap. All four numbers must
    coincide within tol, and the diagonal must be Cauchy at tol.
    """
    lim = _dilation_limit(m, tuple(range(0, n_max + 1, 2)), tuple(range(0, 6)), tol)
    direct_q = quillen(canonical(m), volume_canonical())
    t_direct = direct_q.torsion.value

    decomp_a = (
        lambda n: zhang_iterate(fubini_study(3), 2, n),
        lambda n: zhang_iterate(fubini_study(1), 2, n),
    )
    decomp_b = (
        lambda n: lse(4, 3.0**n),
        lambda n: lse(2, 2.0 * 3.0**n),
    )
    reports = generalized_torsion_curve(
        canonical(m), [decomp_a, decomp_b], indices=tuple(range(2, 31, 2)), tol=tol
    )
    limits = [r.values[-1] for r in reports]
    agreement = max(abs(a - b) for i, a in enumerate(limits) for b in limits[i + 1 :])
    decomposition_vs_direct = max(abs(v - t_direct) for v in limits)
    return {
        "command": "double-limit",
        "inputs": {"m": m, "n_max": n_max, "tol": tol},
        "results": {
            "quillen_diagonal_limit": lim.report.values[-1],
            "quillen_direct": direct_q.log_quillen,
            "quillen_gap": abs(lim.report.values[-1] - direct_q.log_quillen),
            "torsion_direct": t_direct,
            "decomposition_limits": limits,
            "decomposition_agreement": agreement,
            "decomposition_vs_direct": decomposition_vs_direct,
            "grid": None if lim.grid is None else lim.grid.tolist(),
            "cauchy_report": asdict(lim.report),
            "decomposition_reports": [asdict(r) for r in reports],
        },
        "verdicts": {
            "diagonal_cauchy": lim.report.verdict == "converged",
            "routes_agree": abs(lim.report.values[-1] - direct_q.log_quillen) <= tol,
            "decompositions_agree": agreement <= tol and decomposition_vs_direct <= tol,
        },
    }


# --- weak convergence suite ---


def _bt_test_functions():
    gauss = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2)

    def bump(t):
        t = np.asarray(t, dtype=float)
        u = np.clip(t / 3.0, -1.0, 1.0)
        return (1.0 - u * u) ** 3

    def sech(t):
        x = np.abs(np.asarray(t, dtype=float) - 0.5)
        e = np.exp(-x)
        return 2.0 * e / (1.0 + e * e)

    return {"gauss": gauss, "bump": bump, "sech": sech}


def run_bt_suite(m: int = 1, tol: float = 1e-7) -> dict:
    """Weak-* convergence of curvature measures: three families, three tests.

    Dilation iterates, soft-max sharpening and mollified-max all converge to
    the canonical potential of O(m); the pairings against each test function
    must settle below tol at the last index.
    """
    limit = canonical(m)
    families = {
        "zhang": (lambda n: zhang_iterate(fubini_study(m), 2, n), tuple(range(4, 15))),
        "lse": (lambda n: lse(m, 3.0**n), tuple(range(3, 10))),
        "mollmax": (lambda n: mollified_max(m, 2.0 ** (-n)), tuple(range(4, 13))),
    }
    tests = _bt_test_functions()
    reports = {}
    for fam_name, (fam, idx) in families.items():
        for fn_name, fn in tests.items():
            rep = bedford_taylor_check(fam, limit, fn, indices=idx, tol=tol)
            reports[f"{fam_name}/{fn_name}"] = rep
    ok = all(r.verdict == "converged" for r in reports.values())
    return {
        "command": "bt-check",
        "inputs": {"m": m, "tol": tol},
        "results": {k: asdict(r) for k, r in reports.items()},
        "verdicts": {"all_converged_below_tol": ok},
    }
