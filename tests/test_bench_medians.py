"""tools/bench_medians.py: quartiles, seed-paired wins and ratios, and bound breaches from checkouts' runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_medians", ROOT / "tools" / "bench_medians.py")
bench_medians = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_medians)


def _result(evals_per_s, peak_rss_mb, correct=True, failed=0):
    values = dict.fromkeys(bench_medians.METRICS, 1.0)
    values.update(evals_per_s=evals_per_s, peak_rss_mb=peak_rss_mb)
    return {"correct": correct, "failed": failed,
            "metrics": {m: {"value": v} for m, v in values.items()}}


SPEC = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_report_gives_quartiles_and_paired_wins_against_the_first_label():
    parent = [_result(e, r) for e, r in [(100, 35.0), (110, 35.0), (120, 36.0), (130, 34.0), (140, 35.0)]]
    change = [_result(e, r) for e, r in [(105, 34.0), (100, 35.0), (125, 35.5), (135, 35.0), (150, 36.0)]]
    change[2]["failed"] = 2
    out = bench_medians.report({"parent": {"w": parent}, "change": {"w": change}}, SPEC)
    p, c = out["parent"]["w"], out["change"]["w"]
    assert p["median"]["evals_per_s"] == 120
    assert p["quartiles"]["evals_per_s"] == pytest.approx([110, 130])
    assert c["quartiles"]["peak_rss_mb"] == pytest.approx([35.0, 35.5])
    # evals_per_s is better higher, peak_rss_mb better lower; a tie is no win
    assert c["wins"]["evals_per_s"] == 4
    assert c["wins"]["peak_rss_mb"] == 2
    assert c["wins"]["setup_s"] == 0
    assert "wins" not in p
    assert (c["runs"], c["correct"], c["failed"]) == (5, True, 2)


def test_report_gives_ratios_and_flags_moves_beyond_the_bound():
    # evals_per_s may fall by 24% and peak_rss_mb rise by 5% of the parent's median
    parent = [_result(100.0, 40.0)] * 3
    runs = {
        "parent": {"w": parent},
        "slower": {"w": [_result(75.0, 42.0)] * 3},  # -25%, +5%: only the rate breaches
        "heavier": {"w": [_result(80.0, 42.4)] * 3},  # -20%, +6%: only the memory breaches
        "faster": {"w": [_result(200.0, 20.0)] * 3},  # better both ways, by any margin
    }
    out = bench_medians.report(runs, SPEC)
    assert out["slower"]["w"]["ratio"]["evals_per_s"] == pytest.approx(0.75)
    assert out["heavier"]["w"]["ratio"]["peak_rss_mb"] == pytest.approx(1.06)
    assert out["faster"]["w"]["ratio"]["setup_s"] == 1.0
    assert out["slower"]["w"]["beyond_bound"] == ["evals_per_s"]
    assert out["heavier"]["w"]["beyond_bound"] == ["peak_rss_mb"]
    assert out["faster"]["w"]["beyond_bound"] == []
    assert "ratio" not in out["parent"]["w"] and "beyond_bound" not in out["parent"]["w"]


def test_report_resolves_a_gain_only_past_nine_tenths_of_wins_and_the_parent_iqr():
    # the parent's evals_per_s spreads 100..190 (quartiles 122.5 and 167.5,
    # IQR 45) and its peak_rss_mb 30..39 (IQR 4.5)
    parent = [_result(100.0 + 10 * i, 30.0 + i) for i in range(10)]
    runs = {
        "parent": {"w": parent},
        # +50 on every pair: 10 wins of 10, medians 145 -> 195, past the IQR
        "clear": {"w": [_result(150.0 + 10 * i, 30.0 + i) for i in range(10)]},
        # +30 on every pair: 10 wins, but the medians differ by less than the IQR
        "small": {"w": [_result(130.0 + 10 * i, 30.0 + i) for i in range(10)]},
        # +100 on 8 pairs, -1 on 2: the medians move far, but 8 wins of 10
        "patchy": {"w": [_result(200.0 + 10 * i if i < 8 else 99.0 + 10 * i, 30.0 + i)
                         for i in range(10)]},
        # 5 MB less memory on every pair (better lower), a slower rate
        "leaner": {"w": [_result(90.0 + 10 * i, 25.0 + i) for i in range(10)]},
    }
    out = bench_medians.report(runs, SPEC)
    p = out["parent"]["w"]
    assert p["quartiles"]["evals_per_s"] == pytest.approx([122.5, 167.5])
    assert out["clear"]["w"]["resolved"] == ["evals_per_s"]
    assert out["small"]["w"]["wins"]["evals_per_s"] == 10
    assert out["small"]["w"]["resolved"] == []
    assert out["patchy"]["w"]["wins"]["evals_per_s"] == 8
    assert out["patchy"]["w"]["resolved"] == []
    assert out["leaner"]["w"]["resolved"] == ["peak_rss_mb"]
    assert "resolved" not in p


def test_report_gives_the_quartiles_of_the_ratios_paired_by_seed():
    # the machine's phase moves both sides of a seed alike: the parent spreads
    # 100..400, the change is 1.1x the parent on four seeds and 0.9x on one
    parent = [_result(e, 40.0) for e in (100.0, 400.0, 200.0, 300.0, 250.0)]
    change = [_result(e, 40.0) for e in (110.0, 440.0, 220.0, 270.0, 275.0)]
    out = bench_medians.report({"parent": {"w": parent}, "change": {"w": change}}, SPEC)
    c = out["change"]["w"]
    assert c["paired_ratio"]["evals_per_s"]["median"] == pytest.approx(1.1)
    assert c["paired_ratio"]["evals_per_s"]["quartiles"] == pytest.approx([1.1, 1.1])
    assert c["paired_ratio"]["peak_rss_mb"] == {"median": 1.0, "quartiles": [1.0, 1.0]}
    # the medians alone read 250 -> 270, a ratio of 1.08
    assert c["ratio"]["evals_per_s"] == pytest.approx(1.08)
    assert "paired_ratio" not in out["parent"]["w"]
