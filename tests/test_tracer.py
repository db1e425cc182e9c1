"""The traced benchmark run wraps names in the package; keep them there.

perfbench/spans.py patches `RadialMeasure.integrate`, `integrate_line` and
the public functions in its SPANS table. A refactor that drops one of them
breaks `perfbench/run.py --trace 1`; this test makes it fail here too.
"""

from pathlib import Path

import spheretorsion as st

from conftest import QUAD

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_span_tracer_sees_the_kernel_and_the_pairings(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    p, w = st.lse(2, 9.0), st.volume_from_potential(st.lse(2, 4.0), cfg=QUAD)
    tracer = spans.Tracer()
    tracer.install()
    try:
        st.quillen(p, w, cfg=QUAD)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls.get("torsion.quillen") == 1
    # the Gram and both anomaly terms are one stacked pairing, one kernel call
    assert calls.get("quadrature.integrate_line") == 1
    assert calls.get("radial.pairing") == 1
