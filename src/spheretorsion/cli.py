"""Command line front end.

Subcommands: torsion, quillen, gram, anomaly, zhang, counterexample,
closed-form, double-limit, bt-check. Metrics and volumes use the mini
language of metrics.parse_spec / parse_volume. Output is JSON on stdout
(floats at 15 significant digits); --json / --csv write files; --no-meta
drops the timestamped meta block for byte-identical reruns. Only the
sweeps, counterexample and closed-form, take --csv. A reader that closes
stdout early (| head) ends the output without a traceback.

Every integral runs on one fixed quadrature failure budget,
quadrature.DEFAULT_QUAD.fail_tol = 5e-8; nothing on the command line or
in the environment changes it.

Each subcommand's handler takes the parsed args and returns (payload,
checks). The point commands (torsion, quillen, gram) share one handler,
and so do the four studies, whose checks are their verdicts. main is the
one place that runs --verify: it calls checks() after the result, adds
{"checks", "passed"} to the payload and emits it.

Exit codes: 0 ok, 1 a --verify verdict failed, 2 usage or spec error,
3 numerical failure (an integral over the budget, a result that is not
finite, a volume norm or Gram entry that underflows).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import experiments
from .gram import gram, gram_canonical_closed, gram_fs_closed
from .metrics import (
    SpecError,
    canonical,
    dual,
    fubini_study,
    lse,
    parse_spec,
    parse_volume,
    sup_distance,
    zhang_iterate,
)
from .quadrature import NumericalError
from .radial import measure_mass, volume_from_potential
from .torsion import bundle_anomaly, quillen, torsion, volume_anomaly


def _emit(payload: dict, args) -> None:
    try:
        text = experiments.write_json(payload, path=args.json_path, no_meta=args.no_meta)
        if getattr(args, "csv_path", None) and "rows" in payload:
            experiments.write_csv(payload["rows"], args.csv_path)
    except OSError as exc:
        raise SpecError(f"cannot write output: {exc}") from exc
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left early (| head): as the Python docs advise, point
        # stdout at devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --- subcommand handlers ---


def _point(fn, checks):
    """The handler of a point command: fn(metric, volume), checked by checks(p, w, res)."""

    def handler(args):
        p, w = parse_spec(args.metric), parse_volume(args.volume)
        res = fn(p, w)
        payload = {
            "command": args.command,
            "inputs": {"metric": args.metric, "volume": args.volume},
            "results": dataclasses.asdict(res),
        }
        return payload, lambda: checks(p, w, res)

    return handler


def _torsion_checks(p, w, res):
    return {
        "mass_equals_degree_1e-9": abs(measure_mass(p) - p.degree) <= 1e-9,
        "error_budget": res.err <= 1e-6,
    }


def _quillen_checks(p, w, res):
    # the anomaly identity at this point against the reference metric
    ref = fubini_study(p.degree)
    lhs = res.log_quillen - quillen(ref, w).log_quillen
    rhs = -bundle_anomaly(p, ref, w).value
    return {"anomaly_identity_1e-8": abs(lhs - rhs) <= 1e-8}


def _gram_checks(p, w, g):
    checks = {"error_budget": g.err <= 1e-6}
    # decided on the parsed potentials, so every spelling of a spec is checked
    kind = {"fs:2": "fs", "canonical:2": "canonical"}.get(w.psi.label)
    closed = {"fs": gram_fs_closed, "canonical": gram_canonical_closed}.get(kind)
    if closed is not None and p.label == f"{kind}:{p.degree}":
        checks["matches_closed_form_1e-10"] = bool(
            np.max(np.abs(g.entries - closed(p.degree))) <= 1e-10
        )
    return checks


def _study(run):
    """The handler of a study: run(args), checked by its verdicts under their own names."""

    def handler(args):
        res = run(args)
        return res, lambda: dict(res["verdicts"])

    return handler


def _pivot(m, inputs):
    """The third metric of the cocycle check: lse(m, a), dualized for m < 0.

    a is the first of 2, 2.5 and 3 whose label is not in inputs: a pivot
    equal to an input would make the check hold by construction.
    """
    zs = (lse(m, a) if m >= 0 else dual(lse(-m, a)) for a in (2.0, 2.5, 3.0))
    return next(z for z in zs if z.label not in inputs)


def _cmd_anomaly(args):
    if args.kind == "bundle":
        if not args.metric2:
            raise SpecError("bundle anomaly needs --metric2")
        x, y = parse_spec(args.metric), parse_spec(args.metric2)
        z = _pivot(x.degree, {x.label, y.label})
        w = parse_volume(args.volume)
        anomaly = lambda a, b: bundle_anomaly(a, b, w)
    else:
        if not args.volume2:
            raise SpecError("volume anomaly needs --volume2")
        p = parse_spec(args.metric)
        x, y = parse_volume(args.volume), parse_volume(args.volume2)
        z = volume_from_potential(_pivot(2, {x.psi.label, y.psi.label}))
        anomaly = lambda a, b: volume_anomaly(p, a, b)
    term = anomaly(x, y)
    payload = {
        "command": "anomaly",
        "inputs": {
            "kind": args.kind,
            "metric": args.metric,
            "metric2": args.metric2,
            "volume": args.volume,
            "volume2": args.volume2,
        },
        "results": dataclasses.asdict(term),
    }
    # the cocycle through the pivot z: K(x, y) = K(x, z) + K(z, y), and V alike
    cocycle = lambda: abs(term.value - anomaly(x, z).value - anomaly(z, y).value) <= 1e-10
    return payload, lambda: {"cocycle_1e-10": cocycle()}


def _cmd_zhang(args):
    base = parse_spec(args.base)
    it = zhang_iterate(base, args.p, args.n)
    limit = canonical(base.degree)
    d0 = sup_distance(base, limit)
    dn = sup_distance(it, limit)
    bound = d0 / float(args.p) ** args.n
    payload = {
        "command": "zhang",
        "inputs": {"base": args.base, "p": args.p, "n": args.n},
        "results": {
            "label": it.label,
            "sup_distance_base": d0,
            "sup_distance_iterate": dn,
            "contraction_bound": bound,
        },
    }
    return payload, lambda: {"contracts_at_rate": dn <= bound + 1e-10}


# --- parser assembly ---


def _add_common(sp):
    sp.add_argument("--verify", action="store_true", help="run built-in checks; exit 1 on failure")
    sp.add_argument("--json", dest="json_path", default=None, help="also write JSON to this path")
    sp.add_argument("--no-meta", action="store_true", help="omit timestamped metadata")


def _add_sweep(sp):
    # only the sweeps have result rows to write
    sp.add_argument("--csv", dest="csv_path", default=None, help="write result rows as CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spheretorsion",
        description="Quillen metrics and analytic torsion for circle-invariant "
        "metrics on line bundles over the sphere",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    points = (
        ("torsion", "analytic torsion of (metric, volume)", torsion, _torsion_checks),
        ("quillen", "log Quillen metric on det H^0", quillen, _quillen_checks),
        ("gram", "diagonal Gram data of the monomial basis", gram, _gram_checks),
    )
    for name, help_, fn, checks in points:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--metric", required=True)
        sp.add_argument("--volume", default="fs")
        _add_common(sp)
        sp.set_defaults(handler=_point(fn, checks))

    sp = sub.add_parser("anomaly", help="bundle or volume anomaly term")
    sp.add_argument("--kind", choices=("bundle", "volume"), required=True)
    sp.add_argument("--metric", required=True)
    sp.add_argument("--metric2", default=None)
    sp.add_argument("--volume", default="fs")
    sp.add_argument("--volume2", default=None)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_anomaly)

    sp = sub.add_parser("zhang", help="dilation iterate diagnostics")
    sp.add_argument("--base", required=True)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n", type=int, default=5)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_zhang)

    sp = sub.add_parser("counterexample", help="ridge family study")
    sp.add_argument("--c", default="1.0")
    sp.add_argument("--deltas", default="1e-2,1e-3,1e-4")
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--gamma", type=float, default=None)
    _add_common(sp)
    _add_sweep(sp)
    floats = lambda text: [float(x) for x in text.split(",")]
    run = lambda a: experiments.run_counterexample(
        cs=floats(a.c), deltas=floats(a.deltas), eps=a.eps, gamma=a.gamma
    )
    sp.set_defaults(handler=_study(run))

    sp = sub.add_parser("closed-form", help="canonical torsion sweep vs its closed form")
    sp.add_argument("--m-max", type=int, default=5)
    _add_common(sp)
    _add_sweep(sp)
    run = lambda a: experiments.run_closed_form(ms=tuple(range(0, a.m_max + 1)))
    sp.set_defaults(handler=_study(run))

    sp = sub.add_parser("double-limit", help="double sequence route agreement study")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=32)
    sp.add_argument("--tol", type=float, default=1e-6)
    _add_common(sp)
    run = lambda a: experiments.run_double_limit_study(m=a.m, n_max=a.n_max, tol=a.tol)
    sp.set_defaults(handler=_study(run))

    sp = sub.add_parser("bt-check", help="weak convergence battery")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-7)
    _add_common(sp)
    sp.set_defaults(handler=_study(lambda a: experiments.run_bt_suite(m=a.m, tol=a.tol)))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize usage errors to 2
        return 0 if exc.code in (0, None) else 2
    try:
        # a study's tolerance is refused before any kernel call
        tol = getattr(args, "tol", None)
        if tol is not None and not (tol > 0 and math.isfinite(tol)):
            raise SpecError(f"--tol must be positive and finite, got {tol!r}")
        payload, checks = args.handler(args)
        if args.verify:
            verdicts = checks()
            payload["verify"] = {"checks": verdicts, "passed": all(verdicts.values())}
        _emit(payload, args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 1 if args.verify and not payload["verify"]["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
