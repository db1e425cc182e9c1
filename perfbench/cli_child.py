"""One spheretorsion CLI call with the span recorder installed.

    PERFBENCH_TRACE=out.json python perfbench/cli_child.py torsion --metric fs:3

Runs `spheretorsion.cli.main` on the given arguments, exactly as
`python -m spheretorsion.cli` would, and writes this process's trace
summary (spans aggregated, plus import and main times) to the JSON file
named by PERFBENCH_TRACE, and the spans themselves next to it.
"""

import importlib
import json
import os
import sys
import time

from spans import Tracer


def main() -> int:
    t0 = time.perf_counter()
    # sys.modules, not `import spheretorsion.cli as cli`: a submodule import
    # binds the package attribute, which may be a function of the same name
    cli = importlib.import_module("spheretorsion.cli")
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        t3 = time.perf_counter()
        tracer.uninstall()
        sys.stdout.flush()
    out = os.environ["PERFBENCH_TRACE"]
    summary = tracer.summary()
    summary["cli"] = {"import_s": t1 - t0, "main_s": t3 - t2}
    with open(out, "w") as fh:
        json.dump(summary, fh)
    tracer.write_spans(out + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
