#!/usr/bin/env python3
"""How far the values of perfbench's in-process ops move between checkouts.

    python3 tools/compare_values.py --checkout parent=../parent --checkout change=. \\
        --seeds 1 2 3

Each --checkout LABEL=PATH names a checkout. For each one, a fresh
interpreter imports spheretorsion from that checkout's own `src/`, builds
the ops of every workload for every seed (the workload definitions of this
repository's `perfbench/`, so every checkout runs the same ops) and
records, for the `limits`, `high_degree` and `grid_data` ops, log_quillen,
T and T.err as `float.hex`, and for the `cli_cold` ops (one `python -m
spheretorsion.cli ... --verify --no-meta` call each) the stdout. Once per
checkout it also runs the group `cli_calls`: the `spheretorsion` lines of
this repository's README CLI block and EXTRA_CALLS, each with `--no-meta`
through the checkout's `cli.main` in that same interpreter (a cold start
is what `cli_cold` measures, not what these compare), and records stdout,
stderr and exit code. Every label but the first (the baseline) is then compared
with it, per group: how many ops are identical (all three values, or the
stdout byte for byte, and in `cli_calls` stderr and the exit code as
well); for the CLI groups the sorted JSON paths of stdout that differ in
any row, list indices collapsed to `[]`, with `<stderr>` and `<exit code>`
when those differ; and for the in-process workloads the largest
|d log_quillen| and |d T| and the least and largest ratio of T.err to the
baseline's. An op that raises, a
`cli_cold` call that exits nonzero or a `cli_calls` call that raises
counts as not identical, and its error is printed; in `cli_calls` a
nonzero exit code is output to compare. Prints one line per label and
group, and the whole comparison as JSON on the last line. Exits 1 when any
op raised on any checkout, so "values unchanged" cannot pass over a crash,
and 0 otherwise.
"""

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("limits", "high_degree", "grid_data", "cli_cold")
# the groups whose rows are CLI output, compared byte for byte
CLI_GROUPS = ("cli_cold", "cli_calls")
# run after README's examples: a failing verdict (double-limit exits 1 at
# --n-max 16), the ridge, a volume anomaly, a gram closed-form check, a
# mass check that pairs against atoms alone, a point command whose check
# fails (exit 1), a spec error and a usage error (exit 2), a bundle
# anomaly's cocycle through a pivot that is neither input, a Gram whose
# determinant underflows (log_det -5171.9), and two dilation iterates at
# scales p^n that are not powers of two, where p^-n is inexact
EXTRA_CALLS = (
    "double-limit --n-max 16 --verify",
    "counterexample --c 0.7,1.3 --deltas 1e-2,1e-4 --eps 0.3 --gamma 0.02 --verify",
    "anomaly --kind volume --metric fs:3 --volume lse:m=2,a=3 --volume2 canonical --verify",
    "gram --metric fs:3 --volume fs:2 --verify",
    "torsion --metric canonical:3 --volume canonical --verify",
    "torsion --metric fs:229 --verify",
    "anomaly --kind bundle --metric fs:1",
    "torsion --volume fs",
    "anomaly --kind bundle --metric lse:m=2,a=3 --metric2 mollmax:m=2,eps=0.5 "
    "--volume canonical --verify",
    "gram --metric fs:100",
    "zhang --base fs:2 --p 3 --n 6 --verify",
    "quillen --metric zhang:base=mollmax:m=2,eps=0.5,p=7,n=12 --volume zhang:base=fs:2,p=3,n=16",
)


def cli_calls():
    """The argv of every call of the cli_calls group, README's examples first."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    readme = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("spheretorsion ")]
    return readme + [call.split() for call in EXTRA_CALLS]


def dump(root, seeds):
    """{group: [a row per op, or an error string]} of one checkout.

    A row is [log_quillen, T, T.err] as float.hex, [stdout] of a cli_cold
    call, or [stdout, stderr, exit code] of a cli_calls call.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import random

    import workloads

    classes = {cls.name: cls for cls in (workloads.Limits, workloads.HighDegree, workloads.GridData,
                                         workloads.CliCold)}
    out = {name: [] for name in WORKLOADS}
    for seed in seeds:
        for name in WORKLOADS:
            w = classes[name](Path(root), seed)
            w.st = workloads.load_program(Path(root))
            w.prepare(random.Random(seed))
            try:
                for op in w.ops:
                    try:
                        res = w.run(op)
                    except Exception as exc:  # one failed op is reported, the rest still run
                        out[name].append(f"{type(exc).__name__}: {exc}")
                        continue
                    if name == "cli_cold":
                        out[name].append([res])
                        continue
                    q = res[0] if name == "grid_data" else res
                    vals = (q.log_quillen, q.torsion.value, q.torsion.err)
                    out[name].append([float(v).hex() for v in vals])
            finally:
                w.cleanup()
    workloads.load_program(Path(root))
    from spheretorsion import cli

    out["cli_calls"] = []
    for argv in cli_calls():
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--no-meta"])
        except Exception as exc:  # one failed call is reported, the rest still run
            out["cli_calls"].append(f"{type(exc).__name__}: {exc}")
            continue
        out["cli_calls"].append([stdout.getvalue(), stderr.getvalue(), code])
    return out


def collect(root: Path, seeds):
    """dump() of the checkout at root, run in its own interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import json, compare_values; "
            f"print(json.dumps(compare_values.dump({str(root)!r}, {list(seeds)!r})))")
    res = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"collecting the values of {root} failed:\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.splitlines()[-1])


def json_paths(a, b, path=""):
    """The set of paths at which two JSON values differ, list indices as [].

    A key that only one side has is a path, and so is a list whose length
    differs; "." is the whole document.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = set()
        for k in a.keys() | b.keys():
            sub = f"{path}.{k}" if path else k
            out |= json_paths(a[k], b[k], sub) if k in a and k in b else {sub}
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return set().union(*(json_paths(x, y, path + "[]") for x, y in zip(a, b)))
    return set() if a == b else {path or "."}


def row_paths(a, b):
    """What differs between two CLI rows: the JSON paths of stdout, and
    "<stdout>" (stdout that is not JSON), "<stderr>" or "<exit code>".
    """
    try:
        out = json_paths(json.loads(a[0]), json.loads(b[0]))
    except ValueError:
        out = set() if a[0] == b[0] else {"<stdout>"}
    return out | {tag for tag, x, y in zip(("<stderr>", "<exit code>"), a[1:], b[1:]) if x != y}


def compare(base, other):
    """Per group: ops, identical ops and errors; for a CLI group also the
    sorted paths that differ in its non-identical rows (row_paths), and for
    an in-process workload max |d log_quillen|, max |d T| and the T.err
    ratio range.
    """
    out = {}
    for name, rows in other.items():
        same, dq, dt, ratios, errors, paths = 0, 0.0, 0.0, [], [], set()
        for a, b in zip(base[name], rows):
            if isinstance(a, str) or isinstance(b, str):
                errors.append(b if isinstance(b, str) else a)
                continue
            same += a == b
            if name in CLI_GROUPS:
                paths |= row_paths(a, b)
                continue
            (qa, ta, ea), (qb, tb, eb) = ([float.fromhex(v) for v in r] for r in (a, b))
            dq, dt = max(dq, abs(qb - qa)), max(dt, abs(tb - ta))
            ratios.append(eb / ea if ea else (1.0 if eb == ea else float("inf")))
        out[name] = {"ops": len(rows), "identical": same, "errors": errors}
        if name in CLI_GROUPS:
            out[name]["differs"] = sorted(paths)
        else:
            out[name].update({
                "max_abs_d_log_quillen": dq,
                "max_abs_d_T": dt,
                "T_err_ratio": [min(ratios), max(ratios)] if ratios else None,
            })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args(argv)
    values = {}
    for spec in args.checkout:
        label, _, path = spec.partition("=")
        values[label] = collect(Path(path).resolve(), args.seeds)
    labels = list(values)
    report = {label: compare(values[labels[0]], values[label]) for label in labels[1:]}
    for label, per in report.items():
        for name, r in per.items():
            line = f"{label} vs {labels[0]} {name}: identical {r['identical']}/{r['ops']}"
            if name not in CLI_GROUPS:
                line += (f", max |d log_quillen| {r['max_abs_d_log_quillen']:.3g}, "
                         f"max |d T| {r['max_abs_d_T']:.3g}, T.err ratio {r['T_err_ratio']}")
            print(line)
            if r.get("differs"):
                print(f"  differs: {', '.join(r['differs'])}")
            for e in r["errors"]:
                print(f"  error: {e}")
    raised = {label: sum(isinstance(row, str) for rows in per.values() for row in rows)
              for label, per in values.items()}
    for label, n in raised.items():
        if n:
            print(f"{label}: {n} ops raised")
    print(json.dumps({"baseline": labels[0], "seeds": args.seeds, "checkouts": report}))
    return 1 if any(raised.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
