"""zeta'(-1) by direct Euler-Maclaurin, a test oracle independent of any library zeta."""

import math

import numpy as np

_BERN = {2: 1.0 / 6, 4: -1.0 / 30, 6: 1.0 / 42, 8: -1.0 / 30, 10: 5.0 / 66, 12: -691.0 / 2730}


def zeta_prime_minus1_em(N: int = 60, K: int = 6) -> float:
    """zeta'(-1) by direct Euler-Maclaurin, independent of any library zeta.

    Differentiating the Euler-Maclaurin form of zeta(s) termwise at s = -1:
    the rising factorials (s)_{2k-1} vanish there for k >= 2 and only their
    derivative -(2k-3)! survives. Used as the from-scratch oracle against
    the Glaisher constant identity.
    """
    n = np.arange(2, N)
    val = -float(np.sum(n * np.log(n)))
    val += -N * math.log(N) / 2.0
    val += N * N * math.log(N) / 2.0 - N * N / 4.0
    val += (math.log(N) + 1.0) / 12.0
    for k in range(2, K + 1):
        val -= _BERN[2 * k] * math.factorial(2 * k - 3) / math.factorial(2 * k) * N ** (2 - 2 * k)
    return val
