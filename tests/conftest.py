import math

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
