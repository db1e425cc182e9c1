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

Exit codes: 0 ok, 1 a --verify verdict failed, 2 usage or spec error,
3 numerical failure (an integral over the budget, a result that is not
finite).
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
    fubini_study,
    parse_spec,
    parse_volume,
    sup_distance,
    zhang_iterate,
)
from .quadrature import NumericalError
from .radial import measure_mass
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


def _verify_block(checks: dict) -> dict:
    return {"checks": checks, "passed": all(checks.values())}


# --- subcommand handlers ---


def _cmd_torsion(args):
    p = parse_spec(args.metric)
    w = parse_volume(args.volume)
    res = torsion(p, w)
    payload = {
        "command": "torsion",
        "inputs": {"metric": args.metric, "volume": args.volume},
        "results": dataclasses.asdict(res),
    }
    if args.verify:
        mass = measure_mass(p)
        checks = {
            "mass_equals_degree_1e-9": abs(mass - p.degree) <= 1e-9,
            "error_budget": res.err <= 1e-6,
        }
        payload["verify"] = _verify_block(checks)
    return payload


def _cmd_quillen(args):
    p = parse_spec(args.metric)
    w = parse_volume(args.volume)
    res = quillen(p, w)
    payload = {
        "command": "quillen",
        "inputs": {"metric": args.metric, "volume": args.volume},
        "results": dataclasses.asdict(res),
    }
    if args.verify:
        # the anomaly identity at this point against the reference metric
        ref = fubini_study(p.degree)
        lhs = res.log_quillen - quillen(ref, w).log_quillen
        rhs = -bundle_anomaly(p, ref, w).value
        checks = {"anomaly_identity_1e-8": abs(lhs - rhs) <= 1e-8}
        payload["verify"] = _verify_block(checks)
    return payload


def _cmd_gram(args):
    p = parse_spec(args.metric)
    w = parse_volume(args.volume)
    g = gram(p, w)
    payload = {
        "command": "gram",
        "inputs": {"metric": args.metric, "volume": args.volume},
        "results": dataclasses.asdict(g),
    }
    if args.verify:
        checks = {"entries_positive": bool((g.entries > 0).all())}
        # decided on the parsed potentials, so every spelling of a spec is checked
        kind = {"fs:2": "fs", "canonical:2": "canonical"}.get(w.psi.label)
        closed = {"fs": gram_fs_closed, "canonical": gram_canonical_closed}.get(kind)
        if closed is not None and p.label == f"{kind}:{p.degree}":
            checks["matches_closed_form_1e-10"] = bool(
                np.max(np.abs(g.entries - closed(p.degree))) <= 1e-10
            )
        payload["verify"] = _verify_block(checks)
    return payload


def _cmd_anomaly(args):
    if args.kind == "bundle":
        if not args.metric2:
            raise SpecError("bundle anomaly needs --metric2")
        x, y = parse_spec(args.metric), parse_spec(args.metric2)
        w = parse_volume(args.volume)
        anomaly = lambda a, b: bundle_anomaly(a, b, w)
    elif args.kind == "volume":
        if not args.volume2:
            raise SpecError("volume anomaly needs --volume2")
        p = parse_spec(args.metric)
        x, y = parse_volume(args.volume), parse_volume(args.volume2)
        anomaly = lambda a, b: volume_anomaly(p, a, b)
    else:
        raise SpecError(f"unknown anomaly kind {args.kind!r}")
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
    if args.verify:
        rev = anomaly(y, x)
        payload["verify"] = _verify_block(
            {"antisymmetry_1e-10": abs(term.value + rev.value) <= 1e-10}
        )
    return payload


def _cmd_zhang(args):
    base = parse_spec(args.base)
    it = zhang_iterate(base, args.p, args.n)
    limit = canonical(base.degree)
    d0 = sup_distance(base, limit)
    dn = sup_distance(it, limit)
    payload = {
        "command": "zhang",
        "inputs": {"base": args.base, "p": args.p, "n": args.n},
        "results": {
            "label": it.label,
            "sup_distance_base": d0,
            "sup_distance_iterate": dn,
            "contraction_bound": d0 / float(args.p) ** args.n,
        },
    }
    if args.verify:
        payload["verify"] = _verify_block(
            {"contracts_at_rate": dn <= d0 / float(args.p) ** args.n + 1e-10}
        )
    return payload


def _cmd_counterexample(args):
    cs = [float(x) for x in args.c.split(",")]
    deltas = [float(x) for x in args.deltas.split(",")]
    res = experiments.run_counterexample(cs=cs, deltas=deltas, eps=args.eps, gamma=args.gamma)
    if args.verify:
        res["verify"] = _verify_block(
            {
                "sup_within_2_scale": res["verdicts"]["sup_within_2_scale"],
                "dirichlet_matches_oracle": res["verdicts"]["dirichlet_matches_oracle_1e-6"],
                "continuity_fails": res["verdicts"]["continuity_fails"],
            }
        )
    return res


def _cmd_closed_form(args):
    ms = tuple(range(0, args.m_max + 1))
    res = experiments.run_closed_form(ms=ms)
    if args.verify:
        res["verify"] = _verify_block(
            {
                "matches_closed_form_1e-6": res["verdicts"]["matches_closed_form_1e-6"],
                "quillen_law_holds": res["verdicts"]["quillen_law_holds_1e-7"],
                "routes_agree": res["verdicts"]["routes_agree_1e-6"],
            }
        )
    return res


def _cmd_double_limit(args):
    res = experiments.run_double_limit_study(m=args.m, n_max=args.n_max, tol=args.tol)
    if args.verify:
        res["verify"] = _verify_block(dict(res["verdicts"]))
    return res


def _cmd_bt_check(args):
    res = experiments.run_bt_suite(m=args.m, tol=args.tol)
    if args.verify:
        res["verify"] = _verify_block(dict(res["verdicts"]))
    return res


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

    sp = sub.add_parser("torsion", help="analytic torsion of (metric, volume)")
    sp.add_argument("--metric", required=True)
    sp.add_argument("--volume", default="fs")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_torsion)

    sp = sub.add_parser("quillen", help="log Quillen metric on det H^0")
    sp.add_argument("--metric", required=True)
    sp.add_argument("--volume", default="fs")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_quillen)

    sp = sub.add_parser("gram", help="diagonal Gram data of the monomial basis")
    sp.add_argument("--metric", required=True)
    sp.add_argument("--volume", default="fs")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_gram)

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
    sp.set_defaults(handler=_cmd_counterexample)

    sp = sub.add_parser("closed-form", help="canonical torsion sweep vs its closed form")
    sp.add_argument("--m-max", type=int, default=5)
    _add_common(sp)
    _add_sweep(sp)
    sp.set_defaults(handler=_cmd_closed_form)

    sp = sub.add_parser("double-limit", help="double sequence route agreement study")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=32)
    sp.add_argument("--tol", type=float, default=1e-6)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_double_limit)

    sp = sub.add_parser("bt-check", help="weak convergence battery")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-7)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_bt_check)

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
        payload = args.handler(args)
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
    if args.verify and "verify" in payload and not payload["verify"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
