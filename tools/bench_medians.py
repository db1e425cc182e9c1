#!/usr/bin/env python3
"""Per-workload medians of perfbench's end-to-end metrics, in one JSON file.

    python3 tools/bench_medians.py --out bench.json --seconds 8 --seeds 2 3 4 \\
        --workloads limits high_degree --checkout parent=../parent --checkout change=.

Each --checkout LABEL=PATH names a checkout whose own
`perfbench/run.py --trace 0` is run once per workload and seed, one run at
a time. The checkouts take turns, and which one goes first rotates with
the seed, so drift of the machine falls on all of them alike. The file
holds the machine line (every run uses this interpreter), the seconds and
seeds, the baseline (the first --checkout's label), and under each label,
per workload, the median and the quartiles of every end-to-end metric over
the seeds, the per-seed values, whether every run was correct and the
failed operations summed. Under every label but the baseline, per
workload, `wins` counts per metric the seeds on which that checkout beat
the baseline, in the direction `better` of BENCHMARK.json; `ratio` is each
metric's median over the baseline's median; `paired_ratio` gives per
metric the median and the quartiles of the per-seed ratios to the
baseline's run of the same seed, which the machine's slow and fast phases
move less than either side alone; and `beyond_bound` lists the
metrics whose median moved the worse way by more than the metric's `bound`
of BENCHMARK.json times the baseline's median; and `resolved` lists the
metrics on which a gain can be claimed: the checkout won at least 0.9 of
the pairs, and its median beats the baseline's by more than the distance
between the baseline's quartiles. An existing --out is overwritten.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "evals_per_s", "cpu_ms_per_eval", "eval_p50_ms", "peak_rss_mb")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run(root: Path, workload: str, seed: int, seconds: float):
    """The result object and the machine line of one perfbench run."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}")
    lines = res.stdout.splitlines()
    machine = next(json.loads(s.split(": ", 1)[1]) for s in lines if s.startswith("machine: "))
    return json.loads(lines[-1]), machine


def summary(runs):
    values = {m: [r["metrics"][m]["value"] for r in runs] for m in METRICS}
    return {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "median": {m: statistics.median(v) for m, v in values.items()},
        # the lower and upper quartile, interpolated as numpy.percentile does
        "quartiles": {m: quartiles(v) for m, v in values.items()},
        "per_seed": values,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def report(runs, spec):
    """The summaries of runs[label][workload], and each label's comparison with the first.

    spec maps a metric to its BENCHMARK.json entry: `better` ("higher" or
    "lower") and `bound`, the largest relative move the worse way. Runs are
    paired by seed, in the order both labels ran them.
    """
    labels = list(runs)
    sign = {m: 1.0 if spec[m]["better"] == "higher" else -1.0 for m in METRICS}
    out = {label: {w: summary(rs) for w, rs in runs[label].items()} for label in labels}
    base = out[labels[0]]
    for label in labels[1:]:
        for w, s in out[label].items():
            b = base[w]
            s["wins"] = {
                m: sum(sign[m] * (x - y) > 0 for x, y in zip(v, b["per_seed"][m]))
                for m, v in s["per_seed"].items()
            }
            s["ratio"] = {m: v / b["median"][m] for m, v in s["median"].items()}
            paired = {m: [x / y for x, y in zip(v, b["per_seed"][m])] for m, v in s["per_seed"].items()}
            s["paired_ratio"] = {
                m: {"median": statistics.median(r), "quartiles": quartiles(r)} for m, r in paired.items()
            }
            s["beyond_bound"] = [
                m for m, v in s["median"].items()
                if sign[m] * (b["median"][m] - v) > spec[m]["bound"] * b["median"][m]
            ]
            pairs = min(s["runs"], b["runs"])
            s["resolved"] = [
                m for m, v in s["median"].items()
                if s["wins"][m] >= 0.9 * pairs
                and sign[m] * (v - b["median"][m]) > b["quartiles"][m][1] - b["quartiles"][m][0]
            ]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    roots = {}
    for spec in args.checkout:
        label, _, path = spec.partition("=")
        roots[label] = Path(path).resolve()
    runs = {label: {w: [] for w in args.workloads} for label in roots}
    machine = None
    for w in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = list(roots.items())
            for label, root in order[i % len(order):] + order[:i % len(order)]:
                result, machine = run(root, w, seed, args.seconds)
                runs[label][w].append(result)
                print(f"{label} {w} seed={seed}: evals_per_s="
                      f"{result['metrics']['evals_per_s']['value']:.4g}", file=sys.stderr)
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    out = {
        "machine": machine,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "baseline": next(iter(roots)),
        "checkouts": report(runs, spec),
    }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
