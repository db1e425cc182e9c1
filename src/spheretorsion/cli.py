"""Command line front end.

Subcommands: torsion, quillen, gram, anomaly, zhang, counterexample,
closed-form, double-limit, bt-check. Metrics and volumes use the mini
language of metrics.parse_spec / parse_volume. Output is JSON on stdout
(floats at 15 significant digits); --json / --csv write files; --no-meta
drops the timestamped meta block for byte-identical reruns. Only the
sweeps, counterexample and closed-form, take --csv.

Exit codes: 0 ok, 1 a --verify verdict failed, 2 usage or spec error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
from .quadrature import NumericalError, QuadConfig
from .radial import measure_mass
from .torsion import bundle_anomaly, quillen, torsion, volume_anomaly

ENV_CONFIG = "SPHERETORSION_CONFIG"


@dataclasses.dataclass
class RunConfig:
    quad_fail_tol: float = 5e-8
    no_meta: bool = False


def _load_config(path):
    """The RunConfig of a JSON object file; SpecError on anything else in it."""
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return cfg
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError(f"config {path} must hold a JSON object, got {type(data).__name__}")
    kinds = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
    for key, value in data.items():
        if key not in kinds:
            raise SpecError(f"unknown config key {key!r}, expected one of {sorted(kinds)}")
        want = kinds[key]
        # a JSON integer is a valid float; a boolean is never a number
        if not (type(value) is want or (want is float and type(value) is int)):
            raise SpecError(f"config key {key!r} must be of type {want.__name__}, got {value!r}")
        setattr(cfg, key, value)
    return cfg


def _merge_cli(cfg: RunConfig, args) -> RunConfig:
    # precedence: CLI flags over config file over defaults
    if getattr(args, "quad_tol", None) is not None:
        cfg.quad_fail_tol = args.quad_tol
    if getattr(args, "no_meta", False):
        cfg.no_meta = True
    # a study's tolerance, refused before any kernel call like a bad budget
    tol = getattr(args, "tol", None)
    if tol is not None and not (tol > 0 and math.isfinite(tol)):
        raise SpecError(f"--tol must be positive and finite, got {tol!r}")
    return cfg


def _emit(payload: dict, args, cfg: RunConfig) -> None:
    try:
        text = experiments.write_json(payload, path=args.json_path, no_meta=cfg.no_meta)
        if getattr(args, "csv_path", None) and "rows" in payload:
            experiments.write_csv(payload["rows"], args.csv_path)
    except OSError as exc:
        raise SpecError(f"cannot write output: {exc}") from exc
    print(text)


def _verify_block(checks: dict) -> dict:
    return {"checks": checks, "passed": all(checks.values())}


# --- subcommand handlers ---


def _cmd_torsion(args, cfg, quad):
    p = parse_spec(args.metric)
    w = parse_volume(args.volume)
    res = torsion(p, w, cfg=quad)
    payload = {
        "command": "torsion",
        "inputs": {"metric": args.metric, "volume": args.volume},
        "results": dataclasses.asdict(res),
    }
    if args.verify:
        mass = measure_mass(p, cfg=quad)
        checks = {
            "mass_equals_degree_1e-9": abs(mass - p.degree) <= 1e-9,
            "error_budget": res.err <= 1e-6,
        }
        payload["verify"] = _verify_block(checks)
    return payload


def _cmd_quillen(args, cfg, quad):
    p = parse_spec(args.metric)
    w = parse_volume(args.volume)
    res = quillen(p, w, cfg=quad)
    payload = {
        "command": "quillen",
        "inputs": {"metric": args.metric, "volume": args.volume},
        "results": dataclasses.asdict(res),
    }
    if args.verify:
        # the anomaly identity at this point against the reference metric
        ref = fubini_study(p.degree)
        lhs = res.log_quillen - quillen(ref, w, cfg=quad).log_quillen
        rhs = -bundle_anomaly(p, ref, w, cfg=quad).value
        checks = {"anomaly_identity_1e-8": abs(lhs - rhs) <= 1e-8}
        payload["verify"] = _verify_block(checks)
    return payload


def _cmd_gram(args, cfg, quad):
    p = parse_spec(args.metric)
    w = parse_volume(args.volume)
    g = gram(p, w, cfg=quad)
    payload = {
        "command": "gram",
        "inputs": {"metric": args.metric, "volume": args.volume},
        "results": dataclasses.asdict(g),
    }
    if args.verify:
        checks = {"entries_positive": bool((g.entries > 0).all())}
        # decided on the parsed data, so every spelling of a spec is checked
        closed = {"fs": gram_fs_closed, "canonical": gram_canonical_closed}.get(w.label)
        if closed is not None and p.label == f"{w.label}:{p.degree}":
            checks["matches_closed_form_1e-10"] = bool(
                np.max(np.abs(g.entries - closed(p.degree))) <= 1e-10
            )
        payload["verify"] = _verify_block(checks)
    return payload


def _cmd_anomaly(args, cfg, quad):
    if args.kind == "bundle":
        if not args.metric2:
            raise SpecError("bundle anomaly needs --metric2")
        x, y = parse_spec(args.metric), parse_spec(args.metric2)
        w = parse_volume(args.volume)
        anomaly = lambda a, b: bundle_anomaly(a, b, w, cfg=quad)
    elif args.kind == "volume":
        if not args.volume2:
            raise SpecError("volume anomaly needs --volume2")
        p = parse_spec(args.metric)
        x, y = parse_volume(args.volume), parse_volume(args.volume2)
        anomaly = lambda a, b: volume_anomaly(p, a, b, cfg=quad)
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


def _cmd_zhang(args, cfg, quad):
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


def _cmd_counterexample(args, cfg, quad):
    cs = [float(x) for x in args.c.split(",")]
    deltas = [float(x) for x in args.deltas.split(",")]
    res = experiments.run_counterexample(
        cs=cs, deltas=deltas, eps=args.eps, gamma=args.gamma, cfg=quad
    )
    if args.verify:
        res["verify"] = _verify_block(
            {
                "sup_within_2_scale": res["verdicts"]["sup_within_2_scale"],
                "dirichlet_matches_oracle": res["verdicts"]["dirichlet_matches_oracle_1e-6"],
                "continuity_fails": res["verdicts"]["continuity_fails"],
            }
        )
    return res


def _cmd_closed_form(args, cfg, quad):
    ms = tuple(range(0, args.m_max + 1))
    res = experiments.run_closed_form(ms=ms, cfg=quad)
    if args.verify:
        res["verify"] = _verify_block(
            {
                "matches_closed_form_1e-6": res["verdicts"]["matches_closed_form_1e-6"],
                "quillen_law_holds": res["verdicts"]["quillen_law_holds_1e-7"],
                "routes_agree": res["verdicts"]["routes_agree_1e-6"],
            }
        )
    return res


def _cmd_double_limit(args, cfg, quad):
    res = experiments.run_double_limit_study(
        m=args.m, n_max=args.n_max, tol=args.tol, cfg=quad
    )
    if args.verify:
        res["verify"] = _verify_block(dict(res["verdicts"]))
    return res


def _cmd_bt_check(args, cfg, quad):
    res = experiments.run_bt_suite(m=args.m, tol=args.tol, cfg=quad)
    if args.verify:
        res["verify"] = _verify_block(dict(res["verdicts"]))
    return res


# --- parser assembly ---


def _add_common(sp):
    sp.add_argument("--verify", action="store_true", help="run built-in checks; exit 1 on failure")
    sp.add_argument("--json", dest="json_path", default=None, help="also write JSON to this path")
    sp.add_argument("--no-meta", action="store_true", help="omit timestamped metadata")
    sp.add_argument("--quad-tol", type=float, default=None, help="quadrature failure budget")
    sp.add_argument("--config", default=None, help=f"config JSON (or ${ENV_CONFIG})")


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
        cfg = _merge_cli(_load_config(args.config), args)
        # built once, so a bad budget is refused by every subcommand alike
        quad = QuadConfig(fail_tol=cfg.quad_fail_tol)
        payload = args.handler(args, cfg, quad)
        _emit(payload, args, cfg)
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
