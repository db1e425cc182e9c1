"""Acceptance gate. One criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they land.

Criterion 1 is asserted exactly as stated (|T - closed form| < 1e-6) against
the closed form derived in CONVENTIONS.md section 7; its companion asserts
the Quillen-metric law that derivation implies.
"""

import math
import time

import numpy as np
import pytest

from spheretorsion import (
    bundle_anomaly,
    canonical,
    fubini_study,
    generalized_quillen_limit,
    gram,
    lse,
    mollified_max,
    parse_volume,
    quillen,
    torsion,
    volume_anomaly,
    volume_canonical,
    volume_fs,
    zeta_zero,
    zhang_iterate,
)
from spheretorsion.experiments import (
    canonical_quillen_law,
    closed_form_target,
    run_bt_suite,
    run_counterexample,
    run_double_limit_study,
)

from conftest import ZETA_PRIME_M1
from zeta_oracle import zeta_prime_minus1_em

T0 = time.monotonic()
WFS = volume_fs()
WCAN = volume_canonical()


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_closed_form_sweep():
    # independent zeta'(-1) oracle against the frozen Glaisher-identity value
    assert abs(zeta_prime_minus1_em() - ZETA_PRIME_M1) < 1e-12
    devs = {}
    for m in range(6):
        t = torsion(canonical(m), WCAN).value
        devs[m] = t - closed_form_target(m)
    worst = max(abs(v) for v in devs.values())
    ok = worst < 1e-6
    report(
        1,
        ok,
        f"canonical torsion vs closed form, m=0..5, max |dev| = {worst:.6g} "
        f"(threshold 1e-6)",
    )
    assert ok, f"deviations {devs}"


def test_criterion_1_companion_certificate():
    # log h_Q(can_m, omega_can) + zeta_m(0) log(2 pi) = 4 zeta'(-1) - 1/6,
    # the same constant for every m
    want = 4.0 * ZETA_PRIME_M1 - 1.0 / 6.0
    resids = []
    for m in range(6):
        log_q = quillen(canonical(m), WCAN).log_quillen
        resids.append(abs(log_q + zeta_zero(m) * math.log(2.0 * math.pi) - want))
        assert canonical_quillen_law(m) == pytest.approx(log_q, abs=1e-7)
    worst = max(resids)
    ok = worst < 1e-7
    report(
        "1 (companion)",
        ok,
        f"log h_Q(can_m, omega_can) + zeta_m(0) log 2pi == 4 zeta'(-1) - 1/6 "
        f"to {worst:.3g} for m=0..5",
    )
    assert ok


def test_criterion_2_gram_closed_form():
    worst_det, worst_entry = 0.0, 0.0
    for m in range(9):
        g = gram(canonical(m), WCAN)
        det_target = (m + 2.0) ** (m + 1) / math.factorial(m + 1) ** 2
        worst_det = max(worst_det, abs(g.det - det_target))
        ks = np.arange(m + 1)
        entry_target = (m + 2.0) / ((ks + 1) * (m + 1 - ks))
        worst_entry = max(worst_entry, float(np.max(np.abs(g.entries - entry_target))))
    ok = worst_det < 1e-8 and worst_entry < 1e-9
    report(
        2,
        ok,
        f"canonical Gram m=0..8: max det err {worst_det:.3g} (<1e-8), "
        f"max entry err {worst_entry:.3g} (<1e-9)",
    )
    assert ok


def test_criterion_3_counterexample_gap():
    out = run_counterexample(cs=(1.0,), deltas=(1e-2, 1e-3, 1e-4))
    rows = out["rows"]
    sup_ok = all(r["sup_distance"] <= 2.0 * math.sqrt(r["delta"]) + 1e-12 for r in rows)
    dir_ok = all(r["dirichlet_abs_err"] <= 1e-6 for r in rows)
    rem_ok = all(r["glue_remainder"] > 0.0 for r in rows)
    gap_ok = all(
        r["torsion_gap"] <= -0.5 + r["M_delta"] * math.sqrt(r["delta"]) + 1e-9 for r in rows
    )
    ok = sup_ok and dir_ok and rem_ok and gap_ok
    report(
        3,
        ok,
        f"c=1, delta in {{1e-2,1e-3,1e-4}}: sup <= 2 sqrt(delta) {sup_ok}, "
        f"Dirichlet oracle to 1e-6 {dir_ok} (worst "
        f"{max(r['dirichlet_abs_err'] for r in rows):.3g}), positive remainder {rem_ok}, "
        f"gap <= -1/2 + M sqrt(delta) {gap_ok}",
    )
    assert ok


def test_criterion_4_anomaly_identity_and_cocycles():
    wl = parse_volume("lse:m=2,a=4")
    pairs = [
        (fubini_study(2), mollified_max(2, 0.5), WFS),
        (fubini_study(2), lse(2, 3.0), WFS),
        (mollified_max(2, 0.4), lse(2, 5.0), WFS),
        (fubini_study(1), lse(1, 2.0), WFS),
        (zhang_iterate(fubini_study(2), 2, 3), fubini_study(2), wl),
        (mollified_max(1, 0.7), fubini_study(1), WFS),
    ]
    worst_id = 0.0
    for p1, p2, w in pairs:
        lhs = quillen(p1, w).log_quillen - quillen(p2, w).log_quillen
        rhs = -bundle_anomaly(p1, p2, w).value
        worst_id = max(worst_id, abs(lhs - rhs))

    kc = abs(
        bundle_anomaly(fubini_study(2), lse(2, 3.0), WFS).value
        - bundle_anomaly(fubini_study(2), mollified_max(2, 0.5), WFS).value
        - bundle_anomaly(mollified_max(2, 0.5), lse(2, 3.0), WFS).value
    )
    p = fubini_study(1)
    vc = abs(
        volume_anomaly(p, WFS, wl).value
        - volume_anomaly(p, WFS, WCAN).value
        - volume_anomaly(p, WCAN, wl).value
    )
    ok = worst_id < 1e-8 and kc < 1e-9 and vc < 1e-9
    report(
        4,
        ok,
        f"{len(pairs)} pairs: max identity gap {worst_id:.3g} (<1e-8); "
        f"cocycles: bundle {kc:.3g}, volume {vc:.3g} (<1e-9)",
    )
    assert ok


def test_criterion_5_generalized_route_agreement():
    out = run_double_limit_study(m=1, n_max=32, tol=1e-6)
    res, v = out["results"], out["verdicts"]
    ok = (
        v["diagonal_cauchy"]
        and v["routes_agree"]
        and v["decompositions_agree"]
        and res["quillen_gap"] <= 1e-6
        and res["decomposition_vs_direct"] <= 1e-6
    )
    report(
        5,
        ok,
        f"O(1) canonical Quillen: double-sequence vs direct gap {res['quillen_gap']:.3g}, "
        f"decompositions vs direct {res['decomposition_vs_direct']:.3g} (<1e-6), "
        f"Cauchy verdict {res['cauchy_report']['verdict']}",
    )
    assert ok


def test_criterion_6_bt_suite():
    out = run_bt_suite(m=1, tol=1e-7)
    worst_tail = 0.0
    suffix_monotone = True
    for rep in out["results"].values():
        gaps = rep["gaps"]
        worst_tail = max(worst_tail, gaps[-1])
        half = gaps[len(gaps) // 2 :]
        suffix_monotone &= all(a >= b - 1e-15 for a, b in zip(half, half[1:]))
    ok = out["verdicts"]["all_converged_below_tol"] and suffix_monotone
    report(
        6,
        ok,
        f"3 families x 3 test functions: worst final gap {worst_tail:.3g} (<1e-7), "
        f"monotone decay on the suffix {suffix_monotone}",
    )
    assert ok


def test_criterion_7_negative_control_and_budget():
    from spheretorsion import counterexample_potential, tensor

    ridge = counterexample_potential(1.0, 1e-3)
    rejected = False
    try:
        generalized_quillen_limit(
            lambda n: tensor(fubini_study(1), ridge),
            lambda n: WFS,
            indices=(0, 1),
            grid_indices=(),
        )
    except ValueError:
        rejected = True
    cex = run_counterexample(cs=(1.0,), deltas=(1e-3,))
    persists = cex["verdicts"]["torsion_gap_persists"] and cex["verdicts"]["continuity_fails"]
    elapsed = time.monotonic() - T0
    ok = rejected and persists and elapsed < 300.0
    report(
        7,
        ok,
        f"non-positive family rejected {rejected}, torsion gap persists under uniform "
        f"convergence {persists}, acceptance runtime {elapsed:.1f}s (<300s)",
    )
    assert ok
