import math
from types import SimpleNamespace

import pytest

from spheretorsion import quadrature, radial

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)

# frozen unit-scale zeta derivatives of the reference spectrum, m = 0..8,
# from the Hurwitz continuation cross-checked against direct partial sums
# and a heat-kernel Mellin split
ZPRIME_UNIT = {
    0: -1.161684574801804,
    1: -1.275390213681913,
    2: -1.172700528237529,
    3: -0.9192825529860219,
    4: -0.5501468211634656,
    5: -0.08708174857718159,
    6: 0.4550380827999105,
    7: 1.065409055173184,
    8: 1.735827348453908,
}

ZETA_PRIME_M1 = -0.16542114370045092921


@pytest.fixture
def kernel(monkeypatch):
    """The one recorder of the kernel: wraps quadrature.quad, radial.integrate_line
    and RadialMeasure.integrate, each of which still runs.

    Its calls list the pairings' radial.integrate_line calls and measured
    their RadialMeasure.integrate calls, each with its f, splits, passes
    and, for the latter, measure. Its passes list every quad pass, those of
    an integrate_line called directly included, each with a copy of its
    interval table and whether it was the unsplit line's table built at
    import.
    """
    rec = SimpleNamespace(calls=[], measured=[], passes=[])
    quad, line, integrate = quadrature.quad, radial.integrate_line, radial.RadialMeasure.integrate

    def recording_quad(f, iv):
        rec.passes.append(SimpleNamespace(table=iv.copy(), unsplit=iv is quadrature._UNSPLIT_IV))
        return quad(f, iv)

    def recorded(into, run, **fields):
        call, start = SimpleNamespace(**fields), len(rec.passes)
        into.append(call)
        try:
            return run()
        finally:
            call.passes = rec.passes[start:]

    def recording_line(f, splits=()):
        return recorded(rec.calls, lambda: line(f, splits), f=f, splits=splits)

    def recording_integrate(self, f, splits):
        run = lambda: integrate(self, f, splits)
        return recorded(rec.measured, run, f=f, splits=splits, measure=self)

    monkeypatch.setattr(quadrature, "quad", recording_quad)
    monkeypatch.setattr(radial, "integrate_line", recording_line)
    monkeypatch.setattr(radial.RadialMeasure, "integrate", recording_integrate)
    return rec
