"""The four workloads: seeded inputs, one operation each, and their checks.

Every workload repeats one round of operations built from the seed. The
make-up of a round is fixed (the same families, degrees and sizes on every
seed); the seed draws the continuous parameters inside it. That keeps the
cost mix, and so the percentiles, the same from seed to seed, while the
inputs themselves change.

The program is reached only through `sys.modules["spheretorsion"]`,
attribute by attribute at call time, so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

PKG = "spheretorsion"
SETUP_SAMPLES = 3  # set-ups per run; the median is reported
INVARIANCE_OPS = 2  # operations per run re-evaluated with h -> e^{-a} h


def load_program(root: Path):
    """Import spheretorsion from the checkout's own sources, nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import spheretorsion

    found = Path(spheretorsion.__file__).resolve().parent
    if found != (src / PKG).resolve():
        raise RuntimeError(f"imported {PKG} from {found}, not from {src}")
    return spheretorsion


def shifted(p, a):
    """The same metric scaled by e^{-a}: phi -> phi + a, curvature unchanged."""
    return dataclasses.replace(p, phi=lambda t, _f=p.phi, _a=a: _f(t) + _a, label=f"{p.label}+{a:g}")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    name = ""
    usage = resource.RUSAGE_SELF  # whose CPU time and peak RSS count

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.ops = []

    def run(self, op):
        raise NotImplementedError

    def digest(self, out):
        """What must repeat exactly when the same operation runs again."""
        raise NotImplementedError

    def check(self, outs, checks, rng):
        raise NotImplementedError

    def cleanup(self):
        """Remove the files the run wrote."""


class InProcess(Workload):
    """Calls spheretorsion's public functions in this process."""

    def setup(self, tracer=None):
        self.st = load_program(self.root)
        if tracer is not None:
            tracer.install()
        self.prepare(random.Random(self.seed))
        # fill the per-degree reference-torsion cache, then run one operation
        for m in sorted({op["m"] for op in self.ops}):
            self.st.fs_reference_torsion(m)
        self.run(self.ops[0])

    def setup_s(self, script: Path) -> float:
        """Median of SETUP_SAMPLES set-ups: this process and fresh ones."""
        _, raw, f = speed.around(self.setup)
        samples = [raw / f]
        for _ in range(SETUP_SAMPLES - 1):
            res = subprocess.run(
                [sys.executable, str(script), "--workload", self.name, "--seed", str(self.seed),
                 "--seconds", "1", "--trace", "0", "--setup-probe"],
                cwd=self.root, capture_output=True, text=True, timeout=170, check=True,
            )
            samples.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
        return statistics.median(samples)

    def prepare(self, rng):
        raise NotImplementedError

    def digest(self, out):
        return (out.log_quillen, out.torsion.value)

    def check_invariance(self, checks, rng, torsions, inputs):
        """T must not move under h -> e^{-a} h (Riemann-Roch)."""
        for i in rng.sample(range(len(self.ops)), INVARIANCE_OPS):
            a = rng.uniform(0.5, 2.0)
            if torsions[i] is None:
                continue
            p, w = inputs(i)
            moved = self.st.torsion(shifted(p, a), w).value
            checks.equal(f"{self.name}[{i}]: T invariant under h -> e^-a h",
                         moved, torsions[i], atol=1e-9)


class Limits(InProcess):
    """Members of positive approximating sequences at m = 0..2."""

    name = "limits"

    def prepare(self, rng):
        self.sequences = []
        for fam in ("zhang", "lse", "mollmax"):
            for m in (0, 1, 2):
                if fam == "zhang":  # p^-n phi(p^n t) of lse(m, a0), p = 2, n <= 32
                    par, idx = rng.uniform(1.0, 2.0), (20, 24, 28, 32)
                elif fam == "lse":  # a = c 3^k
                    par, last = rng.uniform(1.0, 3.0), rng.choice((19, 20, 21))
                    idx = tuple(range(last - 6, last + 1, 2))
                else:  # eps = c 2^-k
                    par, last = rng.uniform(1.0, 2.0), rng.choice((30, 31, 32))
                    idx = tuple(range(last - 12, last + 1, 4))
                first = len(self.ops)
                self.ops += [{"fam": fam, "m": m, "par": par, "n": n} for n in idx]
                self.sequences.append((fam, m, range(first, len(self.ops))))

    def member(self, fam, m, par, n):
        st = self.st
        if fam == "zhang":
            return st.zhang_iterate(st.lse(m, par), 2, n)
        if fam == "lse":
            return st.lse(m, par * 3.0**n)
        return st.mollified_max(m, par * 2.0**-n)

    def build(self, op):
        """The member on O(m), and the volume of its degree-2 twin."""
        fam, par, n = op["fam"], op["par"], op["n"]
        w = self.st.volume_from_potential(self.member(fam, 2, par, n))
        return self.member(fam, op["m"], par, n), w

    def inputs(self, i):
        return self.build(self.ops[i])

    def run(self, op):
        return self.st.quillen(*self.build(op))

    def check(self, outs, checks, rng):
        import oracles as O

        for fam, m, idx in self.sequences:
            if any(outs[i] is None for i in idx):
                continue
            q = [outs[i].log_quillen for i in idx]
            tag = f"limits/{fam}/m={m}"
            checks.equal(f"{tag}: sharpest member vs canonical Quillen law",
                         q[-1], O.canonical_quillen(m), atol=1e-7)
            checks.equal(f"{tag}: Cauchy tail", q[-1], q[-2], atol=1e-7)
            checks.within(f"{tag}: tail steps shrink", abs(q[-1] - q[-2]), 0.0, abs(q[-2] - q[-3]))
        self.check_invariance(checks, rng, [o and o.torsion.value for o in outs], self.inputs)


class HighDegree(InProcess):
    """Smooth metrics at m = 6..24 on the round and singular volumes."""

    name = "high_degree"
    LEVELS = (6, 9, 12, 15, 18, 21)

    def prepare(self, rng):
        st = self.st
        vols = {"fs": st.volume_fs(), "canonical": st.volume_canonical()}
        # the same offsets on every seed, in a seeded order: the degrees
        # change, their sum (and so the Gram work of a round) does not
        offsets = rng.sample((0, 1, 2, 3, 1, 2), len(self.LEVELS))
        for i, base in enumerate(self.LEVELS):
            m = base + offsets[i]
            a = 1.0 + 8.0 * (i + rng.random()) / len(self.LEVELS)  # stratified over [1, 9]
            a0, n = rng.uniform(0.5, 1.5), 1 + i % 3
            metrics = (
                ("fs", st.fubini_study(m), 1.0),
                ("lse", st.lse(m, a), a),
                # a shallow dilation iterate of lse(m, a0) is lse(m, a0 2^n)
                ("zhang", st.zhang_iterate(st.lse(m, a0), 2, n), a0 * 2.0**n),
            )
            for kind, p, sharp in metrics:
                for vol, w in vols.items():
                    self.ops.append({"kind": kind, "m": m, "sharp": sharp, "vol": vol, "p": p, "w": w})

    def inputs(self, i):
        return self.ops[i]["p"], self.ops[i]["w"]

    def run(self, op):
        return self.st.quillen(op["p"], op["w"])

    def check(self, outs, checks, rng):
        import oracles as O

        for i, (op, out) in enumerate(zip(self.ops, outs)):
            if out is None:
                continue
            m, tag = op["m"], f"high_degree[{i}] {op['kind']}:{op['m']} on {op['vol']}"
            can = O.gram_canonical_fs(m) if op["vol"] == "fs" else O.gram_canonical_canonical(m)
            # every metric here lies above canonical by at most (m/a) log 2
            sup = (m / op["sharp"]) * O.LOG2
            checks.within(f"{tag}: log-Gram sandwich", out.log_l2 - O.log_det(can),
                          -(m + 1) * sup, 1e-10)
            if op["kind"] != "fs":
                continue
            ref = O.gram_fs_fs(m) if op["vol"] == "fs" else O.gram_fs_canonical(m)
            for k, (g, r) in enumerate(zip(out.gram.entries, ref)):
                checks.equal(f"{tag}: Gram entry {k}", g, r, rtol=1e-9)
            if op["vol"] == "fs":
                checks.equal(f"{tag}: T vs elementary Z'(0)", out.torsion.value,
                             O.fs_torsion(m), atol=1e-9)
        self.check_invariance(checks, rng, [o and o.torsion.value for o in outs], self.inputs)


class GridData(InProcess):
    """Catalog potentials sampled to CSV, read back and evaluated."""

    name = "grid_data"

    def prepare(self, rng):
        st = self.st
        self.dir = self.root / ".perfbench_out" / f"grid-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.w = st.volume_fs()
        for fi, fam in enumerate(("fs", "lse", "mollmax")):
            for di, m in enumerate((1, 2, 3)):
                # a Latin square over 9 knot counts: every family and every
                # degree meets a low, a middle and a high count
                knots = 41 + 15 * (3 * ((fi + di) % 3) + fi)
                if fam == "fs":
                    par, p = None, st.fubini_study(m)
                elif fam == "lse":
                    par = rng.uniform(1.0, 3.0)
                    p = st.lse(m, par)
                else:
                    par = rng.uniform(0.5, 1.5)
                    p = st.mollified_max(m, par)
                path = str(self.dir / f"op{len(self.ops)}.csv")
                self.ops.append({"fam": fam, "m": m, "par": par, "knots": knots, "p": p, "path": path})

    def run(self, op):
        st = self.st
        st.write_grid(op["p"], op["path"], n=op["knots"])
        g = st.load_grid(op["path"])
        return st.quillen(g, self.w), g

    def digest(self, out):
        return super().digest(out[0])

    def check(self, outs, checks, rng):
        import numpy as np
        import oracles as O

        fine = np.linspace(-40.0, 40.0, 32001)
        for i, (op, res) in enumerate(zip(self.ops, outs)):
            if res is None:
                continue
            (out, g), m = res, op["m"]
            tag = f"grid_data[{i}] {op['fam']}:{m} at {op['knots']} knots"
            knots = np.linspace(-30.0, 30.0, op["knots"])
            own = O.potential(op["fam"], m, op["par"], knots)
            dev = np.abs(g.phi(knots) - own) / (1.0 + np.abs(own))
            j = int(np.argmax(dev))
            checks.equal(f"{tag}: phi at the worst knot", g.phi(knots[j]), own[j],
                         atol=1e-12 * (1.0 + abs(own[j])))
            sup = float(np.max(np.abs(g.phi(fine) - O.potential(op["fam"], m, op["par"], fine))))
            ref = O.log_det(O.gram_on_fs_volume(op["fam"], m, op["par"]))
            checks.within(f"{tag}: log-Gram sandwich", out.log_l2 - ref,
                          -(m + 1) * sup - 1e-10, (m + 1) * sup + 1e-10)
            checks.equal(f"{tag}: curvature mass = degree", self.st.measure_mass(g), m, atol=1e-9)
        torsions = [r and r[0].torsion.value for r in outs]
        self.check_invariance(checks, rng, torsions, lambda i: (outs[i][1], self.w))

    def cleanup(self):
        for f in self.dir.glob("op*"):
            f.unlink()
        self.dir.rmdir()


class CliCold(Workload):
    """Fresh-interpreter CLI calls, one per operation."""

    name = "cli_cold"
    usage = resource.RUSAGE_CHILDREN
    traced = False

    def prepare(self, rng):
        m1, m2, m3 = 16 + rng.randrange(5), 10 + rng.randrange(5), 16 + rng.randrange(5)
        m4, a, c = 6 + rng.randrange(7), float(f"{rng.uniform(2.0, 8.0):.6g}"), float(f"{rng.uniform(0.6, 1.4):.6g}")
        self.ops = [
            {"cmd": "torsion", "m": m1, "argv": ["torsion", "--metric", f"fs:{m1}", "--volume", "fs"]},
            {"cmd": "quillen", "m": m2, "a": a,
             "argv": ["quillen", "--metric", f"lse:m={m2},a={a!r}", "--volume", "canonical"]},
            {"cmd": "gram", "m": m3, "argv": ["gram", "--metric", f"canonical:{m3}", "--volume", "canonical"]},
            {"cmd": "anomaly", "m": m4, "argv": ["anomaly", "--kind", "bundle", "--metric", f"canonical:{m4}",
                                                 "--metric2", f"fs:{m4}", "--volume", "fs"]},
            {"cmd": "counterexample", "c": c, "argv": ["counterexample", "--c", repr(c)]},
        ]
        for op in self.ops:
            op["argv"] += ["--verify", "--no-meta"]
        self.env = child_env(self.root)
        self.children = []  # per-call trace summaries of the traced half
        self.child_spans = []

    def setup(self, tracer=None):
        self.prepare(random.Random(self.seed))

    def setup_s(self, script: Path) -> float:
        """Median time of `import spheretorsion` in fresh interpreters."""
        self.setup()
        code = ("import time; t = time.perf_counter(); import spheretorsion; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(SETUP_SAMPLES):
            res, _, f = speed.around(lambda: subprocess.run(
                [sys.executable, "-c", code], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=170, check=True))
            samples.append(float(res.stdout.split()[-1]) / f)
        return statistics.median(samples)

    def run(self, op):
        env, argv = self.env, [sys.executable, "-m", f"{PKG}.cli"]
        if self.traced:
            out_path = self.root / ".perfbench_out" / f"child-{os.getpid()}.json"
            env = dict(env, PERFBENCH_TRACE=str(out_path))
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        t0 = time.perf_counter()
        res = subprocess.run(argv + op["argv"], cwd=self.root, env=env,
                             capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        if res.returncode != 0:
            raise RuntimeError(f"exit {res.returncode}: {res.stderr.strip()[-400:]}")
        if self.traced:
            summary = json.loads(out_path.read_text())
            spans = Path(f"{out_path}.spans.jsonl")
            self.child_spans.append(spans.read_text())
            out_path.unlink()
            spans.unlink()
            summary["cli"]["process_s"] = wall
            self.children.append(summary)
        return res.stdout

    def digest(self, out):
        return out

    def check(self, outs, checks, rng):
        import oracles as O

        for i, (op, text) in enumerate(zip(self.ops, outs)):
            if text is None:
                continue
            data = json.loads(text)
            res, tag = data.get("results", {}), f"cli_cold[{i}] {op['cmd']}"
            checks.flag(f"{tag}: --verify passed", data.get("verify", {}).get("passed") is True)
            if op["cmd"] == "torsion":
                checks.equal(f"{tag}: T vs elementary Z'(0)", res["value"], O.fs_torsion(op["m"]), atol=1e-9)
            elif op["cmd"] == "quillen":
                m, a = op["m"], op["a"]
                can = O.log_det(O.gram_canonical_canonical(m))
                checks.within(f"{tag}: log-Gram sandwich", res["gram"]["log_det"] - can,
                              -(m + 1) * (m / a) * O.LOG2, 1e-10)
            elif op["cmd"] == "gram":
                for k, (g, r) in enumerate(zip(res["entries"], O.gram_canonical_canonical(op["m"]))):
                    checks.equal(f"{tag}: Gram entry {k}", g, r, rtol=1e-9)
            elif op["cmd"] == "anomaly":
                checks.equal(f"{tag}: K(can, fs; omega_fs) by hand", res["value"],
                             O.bundle_anomaly_canonical_fs(op["m"]), atol=1e-9)
            else:
                c = op["c"]
                for row in data["rows"]:
                    d = row["delta"]
                    checks.equal(f"{tag}: T(flat, omega_fs) vs elementary Z'(0)",
                                 row["torsion_flat"], O.fs_torsion(0), atol=1e-9)
                    checks.within(f"{tag} delta={d:g}: ridge height <= sup <= twice it",
                                  row["sup_distance"], c * math.sqrt(d), 2.0 * c * math.sqrt(d))
                    checks.within(f"{tag} delta={d:g}: log-Gram sandwich", row["log_l2_gap"],
                                  -row["sup_distance"], row["sup_distance"])
        # the invariance check runs in this process on the quillen call's metric
        st = load_program(self.root)
        i = next(j for j, op in enumerate(self.ops) if op["cmd"] == "quillen")
        if outs[i] is not None:
            op, res = self.ops[i], json.loads(outs[i])["results"]
            p, w = st.lse(op["m"], op["a"]), st.volume_canonical()
            moved = st.torsion(shifted(p, rng.uniform(0.5, 2.0)), w).value
            checks.equal(f"cli_cold[{i}] quillen: T invariant under h -> e^-a h",
                         moved, res["torsion"]["value"], atol=1e-9)


WORKLOADS = {w.name: w for w in (Limits, HighDegree, GridData, CliCold)}
