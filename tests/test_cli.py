"""CLI behavior: subcommand smoke, exit codes, output plumbing, determinism.

Everything runs in-process through cli.main(argv) with capsys, except the
one test that needs a real closed pipe. Exit code contract: 0 ok, 1 verify
failed, 2 spec/usage, 3 numerics.
"""

import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spheretorsion
from spheretorsion import VolumeForm, cli, lse, quadrature
from spheretorsion.cli import main
from spheretorsion.quadrature import QuadConfig

from conftest import LOG2, ZPRIME_UNIT


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


# --- smoke, one per subcommand ---


def test_torsion_smoke(capsys):
    doc = run_json(capsys, "torsion", "--metric", "fs:1", "--no-meta")
    assert doc["command"] == "torsion"
    assert doc["inputs"] == {"metric": "fs:1", "volume": "fs"}
    want = ZPRIME_UNIT[1] + (7.0 / 6.0) * math.log(math.pi)
    assert doc["results"]["value"] == pytest.approx(want, abs=1e-10)
    assert "route" not in doc["results"]
    assert "meta" not in doc


def test_torsion_verify_singular(capsys):
    doc = run_json(
        capsys, "torsion", "--metric", "canonical:1", "--volume", "canonical", "--verify"
    )
    assert doc["verify"]["passed"] is True
    # T_fs(1) + 11/6 - (5/6) log 2 - 2 log(3/2)
    #   = 4 zeta'(-1) - 1/6 + (7/6) log(2 pi) - 2 log(3/2)
    assert doc["results"]["value"] == pytest.approx(0.5049084531261039, abs=1e-9)


def test_quillen_verify(capsys):
    doc = run_json(
        capsys, "quillen", "--metric", "mollmax:m=2,eps=0.5",
        "--volume", "lse:m=2,a=4", "--verify",
    )
    assert doc["verify"]["checks"]["anomaly_identity_1e-8"] is True
    r = doc["results"]
    assert r["log_quillen"] == pytest.approx(r["log_l2"] + r["torsion"]["value"], abs=1e-12)


def test_gram_verify_closed_forms(capsys):
    doc = run_json(capsys, "gram", "--metric", "fs:3", "--verify")
    assert doc["verify"]["checks"]["matches_closed_form_1e-10"] is True
    doc = run_json(
        capsys, "gram", "--metric", "canonical:2", "--volume", "canonical", "--verify"
    )
    assert doc["verify"]["checks"]["matches_closed_form_1e-10"] is True
    assert doc["results"]["entries"][0] == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize(
    "metric,volume",
    [
        ("zero", "fs"),
        ("fs:3", "fubini-study"),
        ("canonical:2", "inf"),
        ("canonical:2", "singular"),
        ("fs:3", "fs:2"),
        ("canonical:3", "canonical:2"),
    ],
)
def test_gram_verify_alternate_spellings(capsys, metric, volume):
    doc = run_json(capsys, "gram", "--metric", metric, "--volume", volume, "--verify")
    assert doc["verify"]["checks"]["matches_closed_form_1e-10"] is True


def test_gram_verify_without_closed_form(capsys):
    doc = run_json(capsys, "gram", "--metric", "lse:m=2,a=9", "--volume", "canonical", "--verify")
    assert doc["verify"]["checks"] == {"error_budget": True}


@pytest.mark.parametrize("m, code", [(228, 0), (229, 1)])
def test_gram_verify_holds_the_gram_to_the_error_budget(m, code, capsys):
    # gram.err reads 9.6e-7 at fs:228 and 1.01e-6 at fs:229, over torsion's 1e-6
    assert cli.main(["gram", "--metric", f"fs:{m}", "--verify", "--no-meta"]) == code
    assert json.loads(capsys.readouterr().out)["verify"]["checks"]["error_budget"] is (code == 0)


def test_anomaly_bundle(capsys):
    doc = run_json(
        capsys, "anomaly", "--kind", "bundle",
        "--metric", "canonical:1", "--metric2", "fs:1", "--verify",
    )
    assert doc["verify"]["checks"] == {"cocycle_1e-10": True}
    assert doc["results"]["value"] == pytest.approx(LOG2 - 1.5, abs=1e-10)


def test_anomaly_volume(capsys):
    doc = run_json(
        capsys, "anomaly", "--kind", "volume",
        "--metric", "canonical:1", "--volume", "canonical", "--volume2", "fs", "--verify",
    )
    assert doc["verify"]["passed"] is True
    assert doc["results"]["value"] == pytest.approx(-LOG2 / 6.0 - 1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("verify,want", [(False, 1), (True, 3)])
@pytest.mark.parametrize("kind", ["bundle", "volume"])
def test_anomaly_pivot_terms_only_when_verifying(capsys, monkeypatch, kind, verify, want):
    # the two terms through the pivot feed only the cocycle check
    name = f"{kind}_anomaly"
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    argv = ["anomaly", "--kind", kind, "--metric", "canonical:1", "--no-meta"]
    argv += ["--metric2", "fs:1"] if kind == "bundle" else ["--volume2", "canonical"]
    run_json(capsys, *argv, *(["--verify"] if verify else []))
    assert len(calls) == want


@pytest.mark.parametrize("kind", ["bundle", "volume"])
def test_anomaly_verify_fails_on_a_curvature_one_percent_off(capsys, monkeypatch, kind):
    # lse(2, 3) with its curvature density scaled by 1.01 is no potential's
    # curvature, so the cocycle through the pivot misses (by about 6e-3 for
    # K and 1e-3 for V); K(x, y) + K(y, x) reads exactly 0 on it
    good = lse(2, 3.0)
    off = lambda t: 1.01 * good.curvature_density(t)
    bad = dataclasses.replace(good, curvature_density=off, label="bad")
    spec, volume = cli.parse_spec, cli.parse_volume
    monkeypatch.setattr(cli, "parse_spec", lambda s: bad if s == "bad" else spec(s))
    monkeypatch.setattr(cli, "parse_volume", lambda s: VolumeForm(bad) if s == "bad" else volume(s))
    if kind == "bundle":
        argv = ["--metric", "bad", "--metric2", "fs:2"]
    else:
        argv = ["--metric", "fs:2", "--volume", "bad", "--volume2", "fs"]
    assert main(["anomaly", "--kind", kind, *argv, "--verify", "--no-meta"]) == 1
    assert json.loads(capsys.readouterr().out)["verify"]["checks"] == {"cocycle_1e-10": False}


def test_the_cocycle_pivot_is_neither_input(capsys, monkeypatch):
    # a pivot equal to an input makes the cocycle hold by construction
    calls = []
    real = cli.bundle_anomaly
    monkeypatch.setattr(cli, "bundle_anomaly", lambda *a: calls.append(a) or real(*a))
    argv = ["--metric", "lse:m=2,a=2", "--metric2", "lse:m=2,a=2.5", "--verify"]
    assert run_json(capsys, "anomaly", "--kind", "bundle", *argv)["verify"]["passed"] is True
    # calls: K(x, y), then K(x, z) and K(z, y)
    assert calls[1][1].label == calls[2][0].label == "lse:m=2,a=3"


def test_zhang(capsys):
    doc = run_json(capsys, "zhang", "--base", "fs:3", "--p", "2", "--n", "4", "--verify")
    assert doc["verify"]["checks"]["contracts_at_rate"] is True
    r = doc["results"]
    assert r["sup_distance_iterate"] == pytest.approx(3.0 * LOG2 / 16.0, abs=1e-12)
    assert r["contraction_bound"] == pytest.approx(r["sup_distance_base"] / 16.0, abs=1e-15)


def test_counterexample(capsys):
    doc = run_json(capsys, "counterexample", "--deltas", "1e-2,1e-3", "--verify")
    assert doc["verify"]["passed"] is True
    assert doc["verdicts"]["continuity_fails"] is True


def test_counterexample_c_list(capsys):
    doc = run_json(capsys, "counterexample", "--c", "1.0,0.5", "--deltas", "1e-2", "--verify")
    assert doc["verify"]["passed"] is True
    assert doc["inputs"]["cs"] == [1.0, 0.5]
    assert [r["c"] for r in doc["rows"]] == [1.0, 0.5]


def test_closed_form_verify(capsys):
    doc = run_json(capsys, "closed-form", "--m-max", "1", "--verify", "--no-meta")
    assert doc["verify"]["checks"] == {
        "matches_closed_form_1e-6": True,
        "quillen_law_holds_1e-7": True,
        "routes_agree_1e-6": True,
    }


def test_double_limit(capsys):
    doc = run_json(capsys, "double-limit", "--n-max", "26", "--tol", "1e-5", "--verify")
    assert doc["verify"]["passed"] is True


def test_bt_check(capsys):
    doc = run_json(capsys, "bt-check", "--verify")
    assert doc["verify"]["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("counterexample", "--deltas", "1e-2"),
        ("closed-form", "--m-max", "0"),
        ("double-limit", "--n-max", "0"),
        ("bt-check",),
    ],
    ids=lambda argv: argv[0],
)
def test_a_study_checks_its_verdicts_under_their_own_names(capsys, argv):
    rc, out, err = run(capsys, *argv, "--verify", "--no-meta")
    doc = json.loads(out)
    assert doc["verify"]["checks"] == doc["verdicts"]
    assert rc == (0 if all(doc["verdicts"].values()) else 1), err


def test_double_limit_declares_no_limit_from_one_diagonal_entry(capsys):
    # n = 0 alone: one value is fewer than the Cauchy tail of 4
    rc, out, _ = run(capsys, "double-limit", "--n-max", "0", "--verify", "--no-meta")
    doc = json.loads(out)
    assert doc["results"]["cauchy_report"]["values"] == [pytest.approx(0.0601, abs=1e-4)]
    assert doc["verify"]["checks"]["diagonal_cauchy"] is False and rc == 1


def test_counterexample_verify_fails_when_the_gap_bound_fails(capsys, monkeypatch):
    row = cli.experiments._cex_row

    def below_the_gap(*args):
        # the row with a bound a unit below its measured gap
        r = row(*args)
        return {**r, "gap_bound": r["torsion_gap"] - 1.0}

    monkeypatch.setattr(cli.experiments, "_cex_row", below_the_gap)
    rc, out, _ = run(capsys, "counterexample", "--deltas", "1e-2", "--verify", "--no-meta")
    doc = json.loads(out)
    assert doc["verify"]["checks"]["gap_bound_holds"] is False and rc == 1


def _readme_cli_examples():
    # the spheretorsion lines of README's CLI block, without the program name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("spheretorsion ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[0])
def test_every_readme_cli_example_exits_0(capsys, argv):
    rc, _, err = run(capsys, *argv, "--no-meta")
    assert rc == 0, err


def test_the_readme_cli_block_has_its_examples():
    assert len(_readme_cli_examples()) == 10


# --- the results schema ---


def test_results_keys(capsys):
    # results holds the result record's fields, so a record that gains,
    # loses or renames a field changes these sets
    torsion_keys = {"value", "components", "err"}
    components = {"log_quillen_ref", "bundle_anomaly", "volume_anomaly", "log_gram"}
    gram_keys = {"m", "entries", "log_det", "err"}
    res = lambda *argv: run_json(capsys, *argv, "--no-meta")["results"]

    r = res("torsion", "--metric", "fs:2")
    assert set(r) == torsion_keys and set(r["components"]) == components
    r = res("quillen", "--metric", "canonical:2", "--volume", "canonical")
    assert set(r) == {"log_quillen", "log_l2", "torsion", "gram"}
    assert set(r["torsion"]) == torsion_keys and set(r["torsion"]["components"]) == components
    assert set(r["gram"]) == gram_keys
    r = res("gram", "--metric", "fs:2")
    assert set(r) == gram_keys and r["m"] == 2
    r = res("anomaly", "--kind", "bundle", "--metric", "canonical:1", "--metric2", "fs:1")
    assert set(r) == {"kind", "value", "diagnostics", "err"} and r["kind"] == "bundle"
    assert set(r["diagnostics"]) == {
        "dirichlet_term", "todd_term", "pair_mu1", "pair_mu2", "pair_todd",
    }
    r = res("anomaly", "--kind", "volume", "--metric", "fs:1", "--volume2", "canonical")
    assert set(r) == {"kind", "value", "diagnostics", "err"} and r["kind"] == "volume"
    assert set(r["diagnostics"]) == {
        "curvature_term", "todd_term", "pair_mu", "pair_todd1", "pair_todd2", "gauge",
    }
    report_keys = {"indices", "values", "target", "gaps", "tol", "spread", "verdict"}
    assert set(res("bt-check")["zhang/gauss"]) == report_keys
    r = res("double-limit", "--n-max", "0")
    assert "diagonal" not in r and set(r["cauchy_report"]) == report_keys
    assert all(set(rep) == report_keys for rep in r["decomposition_reports"])


# --- exit codes ---


def test_exit_2_on_bad_spec(capsys):
    rc, _, err = run(capsys, "torsion", "--metric", "nope:1")
    assert rc == 2 and "spec error" in err


def test_exit_2_on_usage(capsys):
    rc, _, _ = run(capsys, "torsion")
    assert rc == 2
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 2


def test_exit_2_on_wrong_volume_degree(capsys):
    rc, _, err = run(capsys, "torsion", "--metric", "fs:1", "--volume", "lse:m=1,a=2")
    assert rc == 2 and "degree" in err


def test_exit_2_on_a_positive_metric_of_negative_degree(capsys):
    rc, _, err = run(
        capsys, "anomaly", "--kind", "bundle", "--metric", "lse:m=-2,a=3",
        "--metric2", "mollmax:m=-2,eps=0.5", "--no-meta",
    )
    assert rc == 2 and "declared positive with degree -2" in err


def test_exit_2_on_missing_pair_argument(capsys):
    rc, _, err = run(capsys, "anomaly", "--kind", "bundle", "--metric", "fs:1")
    assert rc == 2 and "metric2" in err
    rc, _, err = run(capsys, "anomaly", "--kind", "volume", "--metric", "fs:1")
    assert rc == 2 and "volume2" in err


def test_exit_2_on_bad_route(capsys):
    # no such option: one chain serves every input
    rc, _, err = run(capsys, "torsion", "--metric", "fs:1", "--route", "auto")
    assert rc == 2 and "--route" in err


def test_exit_2_on_an_empty_index_range(capsys):
    # no diagonal entry to declare a limit from: an input error, not a crash
    rc, _, err = run(capsys, "double-limit", "--n-max", "-1")
    assert rc == 2 and "at least one index" in err


def test_exit_2_on_an_empty_sweep(capsys):
    # no rows: the verify block must not pass over nothing
    rc, out, err = run(capsys, "closed-form", "--m-max", "-1", "--verify", "--no-meta")
    assert rc == 2 and "at least one row" in err and out == ""


@pytest.mark.parametrize(
    "case",
    [
        pytest.param({"metric": "grid:absent.csv"}, id="missing-grid-csv"),
        # catalog parameters that are not finite
        pytest.param({"metric": "lse:m=2,a=nan"}, id="nan-lse-sharpness"),
        pytest.param({"metric": "mollmax:m=2,eps=inf"}, id="inf-mollifier-width"),
        pytest.param({"metric": "cex:c=inf,delta=1e-3"}, id="inf-cex-height"),
        pytest.param({"metric": "zhang:base=fs:2,p=2,n=1100"}, id="overflowing-zhang-spec"),
        pytest.param(
            {"command": ["zhang", "--base", "fs:2", "--n", "1100"]}, id="overflowing-zhang"
        ),
        # an output path that cannot be written, named in the one line
        pytest.param(
            {"metric": "fs:2", "argv": ["--json", "absent/x.json"], "says": "absent/x.json"},
            id="unwritable-json",
        ),
        pytest.param(
            {
                "command": ["closed-form", "--m-max", "0"],
                "argv": ["--csv", "absent/x.csv"],
                "says": "absent/x.csv",
            },
            id="unwritable-csv",
        ),
        # a study's tolerance must be positive and finite
        pytest.param({"command": ["bt-check", "--tol", "0"]}, id="zero-bt-tol"),
        pytest.param({"command": ["double-limit", "--tol", "inf"]}, id="inf-double-limit-tol"),
    ],
)
def test_exit_2_on_bad_outside_input(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    torsion_argv = ["torsion", "--metric", case.get("metric", "canonical:1"), "--volume", "canonical"]
    argv = case.get("command", torsion_argv)
    rc, out, err = run(capsys, *argv, *case.get("argv", ()))
    assert rc == 2 and out == "" and len(err.splitlines()) == 1, err
    assert case.get("says", "") in err


@pytest.fixture
def impossible_budget(monkeypatch):
    # the one budget, set in process: nothing outside the program reaches it
    monkeypatch.setattr(quadrature, "DEFAULT_QUAD", QuadConfig(fail_tol=1e-18))


def test_exit_3_on_gram_entries_that_underflow(capsys):
    # fs:1100 is a valid input; its middle Gram entries underflow
    rc, out, err = run(capsys, "torsion", "--metric", "fs:1100", "--no-meta")
    assert rc == 3 and out == "" and "numerical failure: Gram entry" in err


def test_exit_3_on_impossible_budget(capsys, impossible_budget):
    rc, _, err = run(capsys, "torsion", "--metric", "canonical:1", "--volume", "canonical")
    assert rc == 3 and "numerical failure" in err


INTEGRATING = [
    ("torsion", "--metric", "canonical:1", "--volume", "canonical"),
    ("quillen", "--metric", "fs:1", "--volume", "canonical"),
    ("gram", "--metric", "fs:1"),
    ("anomaly", "--kind", "bundle", "--metric", "canonical:1", "--metric2", "fs:1"),
    ("anomaly", "--kind", "volume", "--metric", "fs:1", "--volume2", "canonical"),
    ("counterexample", "--deltas", "1e-2"),
    ("closed-form", "--m-max", "0"),
    ("double-limit", "--n-max", "0"),
    ("bt-check",),
]


@pytest.mark.parametrize("argv", INTEGRATING, ids=lambda a: "-".join(a[:3:2]))
def test_every_integrating_subcommand_honours_quad_tol(capsys, impossible_budget, argv):
    # every integral reads the one budget, so none can pass over it
    rc, out, err = run(capsys, *argv, "--no-meta")
    assert rc == 3 and out == "" and "numerical failure" in err


@pytest.mark.parametrize(
    "flag", [("--quad-tol", "1e-8"), ("--config", "x.json")], ids=lambda f: f[0]
)
@pytest.mark.parametrize(
    "argv", INTEGRATING + [("zhang", "--base", "fs:2")], ids=lambda a: "-".join(a[:3:2])
)
def test_no_subcommand_takes_a_budget_or_a_config(capsys, argv, flag):
    # the budget is fixed: no flag or file sets it, and none is ignored
    rc, out, err = run(capsys, *argv, *flag, "--no-meta")
    assert rc == 2 and out == "" and f"unrecognized arguments: {flag[0]}" in err


@pytest.mark.parametrize(
    "tol", ["-1", "0", "nan", "inf"], ids=["negative", "zero", "nan", "inf"]
)
def test_a_budget_is_refused_whatever_its_value(capsys, tol):
    # no value of the removed flag is read, a bad one included
    argv = ("torsion", "--metric", "canonical:1", "--volume", "canonical")
    rc, out, err = run(capsys, *argv, "--quad-tol", tol, "--no-meta")
    assert rc == 2 and out == "" and "unrecognized arguments: --quad-tol" in err


@pytest.mark.filterwarnings("error")
def test_exit_3_on_a_sup_distance_that_is_not_finite(capsys):
    # p^n is finite, but phi(p^n t) overflows on the scan: no Infinity in the JSON
    rc, out, err = run(capsys, "zhang", "--base", "fs:2", "--n", "1023", "--verify", "--no-meta")
    assert rc == 3 and out == "" and len(err.splitlines()) == 1, err
    assert "not finite" in err


def test_a_closed_stdout_leaves_no_traceback():
    # the reader is gone before the child prints, as with `| head -1`
    src = os.path.dirname(os.path.dirname(spheretorsion.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "spheretorsion.cli", "torsion", "--metric", "fs:3", "--no-meta"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )
    finally:
        os.close(write)
    # nothing on stderr, and the exit code is the run's own
    assert res.stderr == "" and res.returncode == 0, res.stderr


def test_exit_1_on_failed_verify(capsys):
    # no family gets within 1e-14 of its weak limit at the last index
    # (the final gaps sit near 1e-9); --verify must say so
    rc, out, _ = run(capsys, "bt-check", "--tol", "1e-14", "--verify")
    assert rc == 1
    doc = json.loads(out)
    assert doc["verify"]["passed"] is False
    assert doc["verify"]["checks"]["all_converged_below_tol"] is False


def test_exit_0_without_verify(capsys):
    rc, _, _ = run(capsys, "closed-form", "--m-max", "0")
    assert rc == 0


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and "torsion" in out


# --- output plumbing ---


def test_no_meta_reruns_byte_identical(capsys):
    _, a, _ = run(capsys, "gram", "--metric", "fs:2", "--no-meta")
    _, b, _ = run(capsys, "gram", "--metric", "fs:2", "--no-meta")
    assert a == b


def test_meta_block_present_by_default(capsys):
    doc = run_json(capsys, "gram", "--metric", "fs:0")
    assert set(doc["meta"]) == {"tool", "version", "timestamp"}


@pytest.mark.parametrize("meta", [(), ("--no-meta",)], ids=["meta", "no_meta"])
def test_json_file_matches_stdout(capsys, tmp_path, meta):
    # one text for both: the meta timestamp is stamped once
    p = tmp_path / "out.json"
    rc, out, _ = run(capsys, "gram", "--metric", "fs:1", *meta, "--json", str(p))
    assert rc == 0
    assert p.read_text() == out


def test_csv_rows(capsys, tmp_path):
    p = tmp_path / "rows.csv"
    rc, _, _ = run(
        capsys, "counterexample", "--deltas", "1e-2", "--no-meta", "--csv", str(p)
    )
    assert rc == 0
    header = p.read_text().splitlines()[0]
    assert "delta" in header and "torsion_gap" in header


def test_closed_form_csv_rows(capsys, tmp_path):
    p = tmp_path / "rows.csv"
    doc = run_json(capsys, "closed-form", "--m-max", "1", "--no-meta", "--csv", str(p))
    header, *rows = p.read_text().splitlines()
    assert sorted(header.split(",")) == sorted(doc["rows"][0])
    col = header.split(",").index("m")
    assert [int(r.split(",")[col]) for r in rows] == [r["m"] for r in doc["rows"]] == [0, 1]


SWEEPS = [argv for argv in INTEGRATING if argv[0] in ("counterexample", "closed-form")]
NOT_SWEEPS = [argv for argv in INTEGRATING if argv not in SWEEPS]


@pytest.mark.parametrize("flag", ["--csv", "--jobs"])
@pytest.mark.parametrize(
    "argv", NOT_SWEEPS + [("zhang", "--base", "fs:2")], ids=lambda a: "-".join(a[:3:2])
)
def test_only_the_sweeps_take_csv_and_jobs(capsys, tmp_path, argv, flag):
    # a subcommand with no rows refuses the flags rather than ignoring them;
    # no subcommand takes --jobs (the sweeps: below)
    p = tmp_path / "rows.csv"
    rc, out, err = run(capsys, *argv, flag, str(p) if flag == "--csv" else "2", "--no-meta")
    assert rc == 2 and out == "" and f"unrecognized arguments: {flag}" in err
    assert not p.exists()


@pytest.mark.parametrize("argv", SWEEPS, ids=lambda a: a[0])
def test_the_sweeps_take_no_jobs(capsys, argv):
    # every row runs in process; there is no worker count to set
    rc, out, err = run(capsys, *argv, "--jobs", "2", "--no-meta")
    assert rc == 2 and out == "" and "unrecognized arguments: --jobs" in err


@pytest.mark.parametrize(
    "argv", [("bt-check", "--tol", "-1"), ("double-limit", "--tol", "nan")], ids=lambda a: a[0]
)
def test_a_bad_study_tol_is_refused_before_any_kernel_call(capsys, kernel, argv):
    rc, out, err = run(capsys, *argv, "--verify", "--no-meta")
    assert rc == 2 and out == "" and "--tol must be positive and finite" in err
    assert not kernel.passes


def test_env_config(capsys, tmp_path, monkeypatch):
    # $SPHERETORSION_CONFIG is not read: a file there asking for an
    # impossible budget changes neither the output nor the exit code
    argv = ("torsion", "--metric", "canonical:1", "--volume", "canonical", "--no-meta")
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"quad_fail_tol": 1e-18}))
    monkeypatch.setenv("SPHERETORSION_CONFIG", str(cfgp))
    with_env = run(capsys, *argv)
    monkeypatch.delenv("SPHERETORSION_CONFIG")
    assert with_env == run(capsys, *argv) and with_env[0] == 0
