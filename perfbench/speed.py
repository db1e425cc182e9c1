"""Machine-speed calibration for the timed figures.

On a shared machine one vCPU's speed moves by up to 1.7x with the load of
other tenants, in phases of seconds to minutes, so a 20 s run can sit
wholly in a fast or a slow phase. Measured on a 2-vCPU VM: ten 20 s runs
of `high_degree` in a row read between 18 and 28 evaluations per second.

So the benchmark times this fixed pure-Python loop next to the work, and
reports every time at the loop's reference speed: a time t measured while
the loop's median time was c is reported as t * REFERENCE_S / c. Within
one process, 20 s windows of `high_degree` scaled so moved by 3% (IQR over
median) where the raw windows moved by 20%; between processes the scaled
figures still move by about 10%. The loop does not touch the program, so
a change to the program moves the reported figures as it moves the raw
ones at a fixed machine speed. The raw figures are printed on the lines
before the result.
"""

import statistics
import time

# the loop's time at this machine's usual speed; a unit, not a target
REFERENCE_S = 0.002


def sample() -> float:
    """Seconds for one run of the calibration loop (about 2 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Reported time = raw time / factor.

    The median, not the mean: a sample that an interrupt lands in reads long
    and says nothing about the speed of the work around it.
    """
    return statistics.median(samples) / REFERENCE_S


def around(fn):
    """Run fn once: its result, its wall time, and the speed factor taken
    from five loop samples before it and five after it."""
    before = [sample() for _ in range(5)]
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    after = [sample() for _ in range(5)]
    return out, raw, factor(before + after)
