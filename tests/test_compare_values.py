"""tools/compare_values.py: per-op values of the in-process workloads, compared across checkouts."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_values", ROOT / "tools" / "compare_values.py")
compare_values = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_values)


def test_a_checkout_compared_with_itself_is_identical_on_every_op(capsys):
    assert compare_values.main(["--checkout", f"a={ROOT}", "--checkout", f"b={ROOT}", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-1])["checkouts"]["b"]
    # a round of each workload: 36 limits, 36 high_degree, 9 grid_data and 5
    # cli_cold ops, and the 10 README examples and 12 further calls once
    assert {w: r["ops"] for w, r in report.items()} == {
        "limits": 36, "high_degree": 36, "grid_data": 9, "cli_cold": 5, "cli_calls": 22
    }
    for name, r in report.items():
        assert r["identical"] == r["ops"] and not r["errors"]
        if name not in compare_values.CLI_GROUPS:
            assert r["max_abs_d_log_quillen"] == r["max_abs_d_T"] == 0.0
            assert r["T_err_ratio"] == [1.0, 1.0]


def test_an_op_that_raised_on_any_checkout_fails_the_comparison(monkeypatch, capsys):
    row = ["0x1.0p+0"] * 3
    good = {"limits": [row, row], "high_degree": [row], "grid_data": [row], "cli_cold": [["{}\n"]]}
    bad = {**good, "high_degree": ["NumericalError: integral diverged"]}
    # a CLI call that exits nonzero is an op that raised
    exit2 = {**good, "cli_cold": ["RuntimeError: exit 2: spec error"]}
    cases = [([good, good], 0), ([good, bad], 1), ([bad, good], 1), ([bad], 1), ([good, exit2], 1)]
    for dumps, want in cases:
        it = iter(dumps)
        monkeypatch.setattr(compare_values, "collect", lambda root, seeds: next(it))
        argv = [a for i in range(len(dumps)) for a in ("--checkout", f"c{i}={ROOT}")]
        assert compare_values.main([*argv, "--seeds", "1"]) == want
        out = capsys.readouterr().out
        assert ("1 ops raised" in out) == bool(want)


def test_a_cli_call_whose_exit_code_differs_is_not_identical(monkeypatch, capsys):
    # in cli_calls a nonzero exit is output to compare, not an op that raised,
    # and so is what the call writes to stderr
    row = ["0x1.0p+0"] * 3
    base = {"limits": [row], "high_degree": [row], "grid_data": [row], "cli_cold": [["{}\n"]],
            "cli_calls": [["{}\n", "", 1], ["{}\n", "", 0], ["", "usage: a\n", 2]]}
    other = {**base, "cli_calls": [["{}\n", "", 0], ["{}\n", "", 0], ["", "usage: b\n", 2]]}
    it = iter([base, other])
    monkeypatch.setattr(compare_values, "collect", lambda root, seeds: next(it))
    argv = ["--checkout", f"a={ROOT}", "--checkout", f"b={ROOT}", "--seeds", "1"]
    assert compare_values.main(argv) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])["checkouts"]["b"]
    assert report["cli_calls"] == {
        "ops": 3, "identical": 1, "errors": [], "differs": ["<exit code>", "<stderr>"],
    }


def test_a_cli_row_names_the_one_nested_key_that_differs(monkeypatch, capsys):
    row = ["0x1.0p+0"] * 3
    doc = {"command": "c", "results": {"reports": [{"x": 1.5, "y": [2, 3]}, {"x": 1.5, "y": [2, 3]}]}}
    moved = json.loads(json.dumps(doc))
    moved["results"]["reports"][1]["y"][0] = 4
    base = {"limits": [row], "high_degree": [row], "grid_data": [row],
            "cli_cold": [[json.dumps(doc)], ["{}\n"]], "cli_calls": [[json.dumps(doc), "", 0]]}
    other = {**base, "cli_cold": [[json.dumps(moved)], ["{}\n"]], "cli_calls": [[json.dumps(moved), "", 0]]}
    it = iter([base, other])
    monkeypatch.setattr(compare_values, "collect", lambda root, seeds: next(it))
    argv = ["--checkout", f"a={ROOT}", "--checkout", f"b={ROOT}", "--seeds", "1"]
    assert compare_values.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads(out[-1])["checkouts"]["b"]
    assert report["cli_cold"]["identical"] == 1 and report["cli_calls"]["identical"] == 0
    for name in compare_values.CLI_GROUPS:
        assert report[name]["differs"] == ["results.reports[].y[]"]
    assert out.count("  differs: results.reports[].y[]") == 2
