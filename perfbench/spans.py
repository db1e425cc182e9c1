"""Span recorder for the traced benchmark run.

The recorder wraps spheretorsion's public functions from outside, at every
module where their name is bound: `integrate_line` is bound in
`quadrature`, `radial`, `gram` and the package, `gram` in `torsion`,
`experiments`, `cli` and the package, and so on. It finds the bindings by
identity in `sys.modules`, so `spheretorsion.gram` (the re-exported
function) and `sys.modules["spheretorsion.gram"]` (the submodule) are both
covered. Nothing in the program is edited; `uninstall` puts every original
back, so an untraced run pays nothing.

Each wrapped call is a span with a name, start, end and parent. A span's
self time is its duration minus the time of its child spans and, for
`integrate_line`, minus the time spent inside integrand callbacks. Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

PKG = "spheretorsion"

# span name -> (defining submodule, public functions recorded under it)
SPANS = (
    ("quadrature.integrate_line", "quadrature", ("integrate_line",)),
    ("radial.volume_from_potential", "radial", ("volume_from_potential",)),
    ("radial.other", "radial", ("pair", "integrate_volume", "measure_mass", "bedford_taylor_check")),
    (
        "metrics.build",
        "metrics",
        (
            "fubini_study",
            "canonical",
            "zhang_iterate",
            "lse",
            "mollified_max",
            "tensor",
            "dual",
            "counterexample_potential",
            "parse_spec",
            "parse_volume",
        ),
    ),
    ("metrics.write_grid", "metrics", ("write_grid",)),
    ("metrics.load_grid", "metrics", ("load_grid",)),
    ("metrics.sup_distance", "metrics", ("sup_distance",)),
    ("gram.gram", "gram", ("gram",)),
    ("torsion.quillen", "torsion", ("quillen",)),
    ("torsion.torsion", "torsion", ("torsion",)),
    ("torsion.bundle_anomaly", "torsion", ("bundle_anomaly",)),
    ("torsion.volume_anomaly", "torsion", ("volume_anomaly",)),
    ("torsion.reference", "torsion", ("fs_reference_torsion",)),
    ("torsion.limit", "torsion", ("generalized_quillen_limit", "generalized_torsion_curve")),
    (
        "experiments.driver",
        "experiments",
        ("run_counterexample", "run_closed_form", "run_double_limit_study", "run_bt_suite"),
    ),
)
# every curvature pairing and area integral goes through this one method
PAIRING = "radial.pairing"


class Tracer:
    """Records spans and quadrature counters while installed."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = {}
        self.incl = {}  # outermost spans only, so nesting is not counted twice
        self.self_s = {}
        self._stack = []  # [span id, name, start, child seconds]
        self._depth = {}
        self._next_id = 0
        self.panels = 0
        self.nfev = 0
        self.callback_s = 0.0
        self.budget_used_max = 0.0
        self.gram_entries = 0
        self.reference_cold = 0

    # --- span bookkeeping ---

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._depth[name] = self._depth.get(name, 0) + 1

    def _exit(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, parent, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._depth[name] == 0:
            self.incl[name] = self.incl.get(name, 0.0) + dur

    def _span(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    # --- special wrappers ---

    def _integrate_line(self, fn, default_cfg):
        @wraps(fn)
        def wrapper(f, *args, **kwargs):
            cfg = kwargs.get("cfg", args[2] if len(args) > 2 else default_cfg)

            def counted(t):
                t0 = time.perf_counter()
                try:
                    return f(t)
                finally:
                    d = time.perf_counter() - t0
                    self.nfev += 1
                    self.callback_s += d
                    self._stack[-1][3] += d

            self._enter("quadrature.integrate_line")
            try:
                value, err = fn(counted, *args, **kwargs)
            finally:
                self._exit()
            self.budget_used_max = max(self.budget_used_max, err / cfg.fail_tol)
            return value, err

        return wrapper

    def _quad(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.panels += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gram(self, fn):
        inner = self._span("gram.gram", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.gram_entries += len(out.entries)
            return out

        return wrapper

    def _reference(self, fn, cache):
        inner = self._span("torsion.reference", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            before = cache.cache_info().misses if cache is not None else None
            out = inner(*args, **kwargs)
            # with no cache in the program every call computes afresh
            if before is None or cache.cache_info().misses > before:
                self.reference_cold += 1
            return out

        return wrapper

    # --- install / uninstall ---

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PKG or name.startswith(PKG + "."))
        }
        quad_mod = mods[f"{PKG}.quadrature"]
        torsion_mod = mods[f"{PKG}.torsion"]
        wrappers = {}
        for span, sub, names in SPANS:
            src = mods.get(f"{PKG}.{sub}")
            if src is None:  # experiments and cli load only with the CLI
                continue
            for attr in names:
                fn = getattr(src, attr)
                if span == "quadrature.integrate_line":
                    w = self._integrate_line(fn, quad_mod.DEFAULT_QUAD)
                elif span == "gram.gram":
                    w = self._gram(fn)
                elif span == "torsion.reference":
                    w = self._reference(fn, getattr(torsion_mod, "_fs_reference_cached", None))
                else:
                    w = self._span(span, fn)
                wrappers[id(fn)] = (fn, w)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        self._patch(quad_mod, "quad", self._quad(quad_mod.quad))
        measure = mods[f"{PKG}.radial"].RadialMeasure
        self._patch(measure, "integrate", self._span(PAIRING, measure.integrate))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # --- output ---

    def summary(self) -> dict:
        """Aggregates in seconds and counts, additive across processes."""
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_s),
            "panels": self.panels,
            "nfev": self.nfev,
            "callback_s": self.callback_s,
            "budget_used_max": self.budget_used_max,
            "gram_entries": self.gram_entries,
            "reference_cold": self.reference_cold,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def merge(summaries) -> dict:
    """Sum the summaries of several processes or phases of one run."""
    out = {"calls": {}, "incl_s": {}, "self_s": {}, "panels": 0, "nfev": 0,
           "callback_s": 0.0, "budget_used_max": 0.0, "gram_entries": 0, "reference_cold": 0}
    for s in summaries:
        for key in ("calls", "incl_s", "self_s"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for key in ("panels", "nfev", "callback_s", "gram_entries", "reference_cold"):
            out[key] += s[key]
        out["budget_used_max"] = max(out["budget_used_max"], s["budget_used_max"])
    return out
