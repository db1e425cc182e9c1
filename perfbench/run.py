#!/usr/bin/env python3
"""Benchmark of spheretorsion's evaluation chain.

    python3 perfbench/run.py --workload limits --seed 1 --seconds 20 --trace 0

Workloads: limits, high_degree, grid_data, cli_cold (see README.md). The
run sets up, warms up, then repeats whole rounds of the workload's
operations for about --seconds, one caller in a closed loop, and checks
every output of the first round against oracles computed apart from the
program. The last line of stdout is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run. Run files go to .perfbench_out/ at the checkout root.
"""

import argparse
import compileall
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import speed
from spans import Tracer, merge
from workloads import WORKLOADS, CliCold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def cpu_seconds(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def timed_loop(wl, seconds, checks, first):
    """Whole rounds of wl.ops, started while at least half a round fits.

    `first` collects the first successful output of every operation; each
    later output must repeat its digest exactly. A calibration sample runs
    before every operation; its time is taken out of the loop's wall and
    CPU time.
    """
    lat, failed, rounds = [], 0, 0
    cal, cal_wall, cal_cpu = [], 0.0, 0.0
    cpu0, t0 = cpu_seconds(wl.usage), time.perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            c0, p0 = time.perf_counter(), time.process_time()
            cal.append(speed.sample())
            s = time.perf_counter()
            cal_wall += s - c0
            cal_cpu += time.process_time() - p0
            try:
                out = wl.run(op)
            except Exception:  # counted as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                out, failed = None, failed + 1
            lat.append(time.perf_counter() - s)
            if out is None:
                continue
            if first[i] is None:
                first[i] = out
            else:
                checks.flag(f"{wl.name}[{i}]: output repeats", wl.digest(out) == wl.digest(first[i]))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    if wl.usage != resource.RUSAGE_SELF:
        cal_cpu = 0.0  # the samples ran in this process, not in the children
    return {
        "wall": time.perf_counter() - t0 - cal_wall,
        "cpu": cpu_seconds(wl.usage) - cpu0 - cal_cpu,
        "speed": speed.factor(cal),
        "lat": lat,
        "evals": len(lat),
        "failed": failed,
        "rounds": rounds,
    }


def end_to_end(wl, loop, setup_s, raw=False):
    """Times at the calibration loop's reference speed; raw=True skips that."""
    n, f = loop["evals"], 1.0 if raw else loop["speed"]
    rss_kb = resource.getrusage(wl.usage).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "evals_per_s": (f * n / loop["wall"], "1/s"),
        "cpu_ms_per_eval": (1000.0 * loop["cpu"] / n / f, "ms"),
        "eval_p50_ms": (1000.0 * statistics.median(loop["lat"]) / f, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(s, evals, f, per_process, proc, cli, eps_plain, eps_traced):
    """Per-layer metrics; counts and times are per evaluation unless named.

    Times are at the calibration loop's reference speed (divided by f).
    """
    calls, incl, own = s["calls"], s["incl_s"], s["self_s"]

    def ms(sec):
        return 1000.0 * sec / evals / f

    def count(name):
        return calls.get(name, 0) / evals

    entries, panels = s["gram_entries"], s["panels"]
    torsion_self = sum(v for k, v in own.items() if k.startswith("torsion."))
    return {
        "quadrature.calls": (count("quadrature.integrate_line"), "count/eval"),
        "quadrature.panels": (panels / evals, "count/eval"),
        "quadrature.nfev": (s["nfev"] / evals, "count/eval"),
        "quadrature.nfev_per_panel": (s["nfev"] / panels if panels else 0.0, "count"),
        "quadrature.ms": (ms(incl.get("quadrature.integrate_line", 0.0)), "ms/eval"),
        "quadrature.callback_ms": (ms(s["callback_s"]), "ms/eval"),
        "quadrature.self_ms": (ms(own.get("quadrature.integrate_line", 0.0)), "ms/eval"),
        "quadrature.budget_used_max": (s["budget_used_max"], "ratio"),
        "radial.pairing.calls": (count("radial.pairing"), "count/eval"),
        "radial.pairing.ms": (ms(incl.get("radial.pairing", 0.0)), "ms/eval"),
        "radial.volume_from_potential.ms": (ms(incl.get("radial.volume_from_potential", 0.0)), "ms/eval"),
        "metrics.build.ms": (ms(incl.get("metrics.build", 0.0)), "ms/eval"),
        "metrics.write_grid.ms": (ms(incl.get("metrics.write_grid", 0.0)), "ms/eval"),
        "metrics.load_grid.ms": (ms(incl.get("metrics.load_grid", 0.0)), "ms/eval"),
        "metrics.sup_distance.ms": (ms(incl.get("metrics.sup_distance", 0.0)), "ms/eval"),
        "gram.calls": (count("gram.gram"), "count/eval"),
        "gram.entries": (entries / evals, "count/eval"),
        "gram.ms": (ms(incl.get("gram.gram", 0.0)), "ms/eval"),
        "gram.ms_per_entry": (1000.0 * incl.get("gram.gram", 0.0) / entries / f if entries else 0.0, "ms"),
        "torsion.quillen.ms": (ms(incl.get("torsion.quillen", 0.0)), "ms/eval"),
        "torsion.torsion.ms": (ms(incl.get("torsion.torsion", 0.0)), "ms/eval"),
        "torsion.bundle_anomaly.ms": (ms(incl.get("torsion.bundle_anomaly", 0.0)), "ms/eval"),
        "torsion.volume_anomaly.ms": (ms(incl.get("torsion.volume_anomaly", 0.0)), "ms/eval"),
        "torsion.self_ms": (ms(torsion_self), "ms/eval"),
        "torsion.reference.ms": (per_process["ms"], "ms/process"),
        "torsion.reference.cold_calls": (per_process["cold"], "count/process"),
        "experiments.driver.ms": (ms(incl.get("experiments.driver", 0.0)), "ms/eval"),
        "cli.import_ms": (ms(cli["import_s"]), "ms/eval"),
        "cli.main_ms": (ms(cli["main_s"]), "ms/eval"),
        "cli.process_ms": (ms(proc), "ms/eval"),
        "trace.evals_per_s": (eps_traced, "1/s"),
        "trace.overhead_pct": (100.0 * (eps_plain / eps_traced - 1.0), "%"),
    }


def shares(s, wall, cli):
    """Self time by layer as a share of the traced loop's wall time."""
    by_layer = {}
    for name, sec in s["self_s"].items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + sec
    by_layer["integrand callbacks"] = s["callback_s"]
    covered = sum(by_layer.values())
    if cli["main_s"]:
        by_layer["cli import"] = cli["import_s"]
        by_layer["cli main (own)"] = cli["main_s"] - covered
        by_layer["interpreter start/exit"] = wall - cli["import_s"] - cli["main_s"]
    else:
        by_layer["benchmark loop (own)"] = wall - covered
    parts = {k: v / wall for k, v in by_layer.items()}
    components = {name: sec / wall for name, sec in s["incl_s"].items()}
    return {"self": parts, "inclusive": components}


def machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "platform": platform.platform(),
    }


def traced_run(wl, seconds, checks):
    """Half the time untraced, half traced; per-layer metrics from the second."""
    tracer = Tracer()
    wl.setup(tracer)
    tracer.uninstall()
    setup_summary = tracer.summary()
    first = [None] * len(wl.ops)
    plain = timed_loop(wl, seconds / 2.0, checks, first)
    tracer.reset()
    if isinstance(wl, CliCold):
        wl.traced = True
        traced = timed_loop(wl, seconds / 2.0, checks, first)
        s = merge(wl.children)
        n = len(wl.children)
        cli = {k: sum(c["cli"][k] for c in wl.children) for k in ("import_s", "main_s", "process_s")}
        ref = {"ms": 1000.0 * s["incl_s"].get("torsion.reference", 0.0) / n / traced["speed"],
               "cold": s["reference_cold"] / n}
        proc, wall = cli["process_s"], cli["process_s"]
        spans = "".join(wl.child_spans)
    else:
        tracer.install()
        try:
            traced = timed_loop(wl, seconds / 2.0, checks, first)
        finally:
            tracer.uninstall()
        s = tracer.summary()
        cli = {"import_s": 0.0, "main_s": 0.0}
        both = merge([setup_summary, s])
        ref = {"ms": 1000.0 * both["incl_s"].get("torsion.reference", 0.0) / traced["speed"],
               "cold": both["reference_cold"]}
        proc, wall = 0.0, traced["wall"]
        spans = None
    eps_plain = plain["speed"] * plain["evals"] / plain["wall"]
    eps_traced = traced["speed"] * traced["evals"] / traced["wall"]
    metrics = per_layer(s, traced["evals"], traced["speed"], ref, proc, cli, eps_plain, eps_traced)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{wl.name}-seed{wl.seed}"
    report = {"summary": s, "shares": shares(s, wall, cli), "evals": traced["evals"],
              "untraced_evals_per_s": eps_plain, "traced_evals_per_s": eps_traced}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if spans is None:
        tracer.write_spans(f"{stem}.spans.jsonl")
    else:
        Path(f"{stem}.spans.jsonl").write_text(spans)
    print("shares: " + json.dumps({k: round(v, 4) for k, v in report["shares"]["self"].items()}))
    print("inclusive: " + json.dumps({k: round(v, 4) for k, v in report["shares"]["inclusive"].items()}))
    return metrics, [plain, traced], first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # one BLAS thread here and in every child; numpy is not loaded yet
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    # one vCPU for this process and its children: the vCPUs of a shared
    # machine change speed independently, and the calibration loop must
    # run where the work it scales runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    pkg = ROOT / "src" / "spheretorsion"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no spheretorsion sources at {pkg}", file=sys.stderr)
        return 2
    # compile bytecode up front so that no timed import pays for it
    compileall.compile_dir(str(pkg), quiet=1)
    wl = WORKLOADS[args.workload](ROOT, args.seed)

    if args.setup_probe:
        try:
            _, raw, f = speed.around(wl.setup)
            print(json.dumps({"setup_s": raw / f}))
        finally:
            wl.cleanup()
        return 0

    from oracles import Checks

    checks = Checks()
    try:
        if args.trace:
            metrics, loops, first = traced_run(wl, args.seconds, checks)
        else:
            setup_s = wl.setup_s(HERE / "run.py")
            first = [None] * len(wl.ops)
            loop = timed_loop(wl, args.seconds, checks, first)
            metrics, loops = end_to_end(wl, loop, setup_s), [loop]
            raw = end_to_end(wl, loop, setup_s, raw=True)
            print(f"raw, at the machine's speed ({loop['speed']:.3f} x the reference time): "
                  + ", ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items() if k != "setup_s"))
        wl.check(first, checks, random.Random(args.seed))
    finally:
        wl.cleanup()

    failures, loose = checks.failures(), checks.loose()
    for rec in failures[:20]:
        print(f"FAILED CHECK: {rec}", file=sys.stderr)
    for name in loose[:20]:
        print(f"LOOSE ORACLE: {name}", file=sys.stderr)
    attempted = sum(loop["evals"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    print("machine: " + json.dumps(machine()))
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} attempted, {failed} failed, "
          f"{sum(loop['rounds'] for loop in loops)} rounds of {len(wl.ops)}; "
          f"{len(checks.records)} oracle checks and {checks.flag_count} flags, "
          f"{len(failures)} failed, {len(loose)} loose")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": bool(checks.records) and not failures and not loose,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
