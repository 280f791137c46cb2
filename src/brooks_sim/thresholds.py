"""Every degree and size bound of the ACD contract and the AC classification,
as one exact integer.

The bounds are real numbers (eps*delta multiples, C_SPARSE*eps^2*delta,
psi = delta^(1/3), phi = delta^(2/3)/2), but every one is compared with an
integer count, and for an integer c

    c >= r  <=>  c >= ceil(r)        c > r  <=>  c > floor(r).

So `Thresholds` settles each bound once, in exact arithmetic, and every
decision is an int comparison. psi and phi are settled on cubed integers:
count >= phi <=> (2*count)^3 >= delta^2, and floor(psi) is the integer
cube root. Observation 2.2's bounds follow from those of properties (2) and
(3), so they have no field (see `acd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# The ACD epsilon of the library, the CLI and the families when none is given.
# Desk scale: the classical 1/172 assumes delta far above log^2 n, and every
# family admits 1/8 for delta >= 3.
DEFAULT_EPSILON = Fraction(1, 8)

# (1/4) * (1/108)^2, from the proof constant eta = eps/108 and sparsity (eta^2/4)*delta.
C_SPARSE = Fraction(1, 4) * Fraction(1, 108) ** 2


def icbrt(x: int) -> int:
    """Integer cube root: largest r with r^3 <= x."""
    if x < 0:
        raise ValueError("icbrt of negative value")
    r = round(x ** (1 / 3))
    while r**3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def floor_psi(delta: int) -> int:
    return icbrt(delta)


def count_meets_phi(count: int, delta: int) -> bool:
    """count >= delta^(2/3)/2, exactly."""
    return (2 * count) ** 3 >= delta * delta


def ceil_phi(delta: int) -> int:
    """Smallest integer count with count >= phi."""
    c = icbrt(delta * delta) // 2  # near delta^(2/3)/2
    while not count_meets_phi(c, delta):
        c += 1
    while c > 0 and count_meets_phi(c - 1, delta):
        c -= 1
    return c


def similarity_epsilon(epsilon: Fraction, delta: int) -> Fraction:
    """eps' = max(3*eps, 3/delta); the floor keeps near-complete cliques similar
    at tiny delta where 3*eps alone would split them."""
    return max(3 * epsilon, Fraction(3, max(delta, 1)))


@dataclass(frozen=True)
class Thresholds:
    """The integer bounds for one (epsilon, delta); build with `Thresholds.of`."""

    similar_min: int  # (1-eps')*delta common nbrs make an edge similar, similar nbrs a node dense
    size_min: int  # property (2): |C| >= (1-eps)*delta
    size_max: int  # property (2): |C| <= (1+3eps)*delta
    inside_min: int  # property (3) and augmentation: (1-4eps)*delta neighbours in C
    outsider_max: int  # property (4): (1-2eps)*delta neighbours in C from outside
    missing_min: int  # property (1): binom(delta,2) - edges in N(v) >= C_SPARSE*eps^2*delta^2
    special_min: int  # a special has >= phi neighbours in the AC
    difficult_min: int  # a difficult AC has >= delta - psi members

    @staticmethod
    @lru_cache(maxsize=64)
    def of(eps: Fraction, delta: int) -> "Thresholds":
        return Thresholds(
            similar_min=math.ceil((1 - similarity_epsilon(eps, delta)) * delta),
            size_min=math.ceil((1 - eps) * delta),
            size_max=math.floor((1 + 3 * eps) * delta),
            inside_min=math.ceil((1 - 4 * eps) * delta),
            outsider_max=math.floor((1 - 2 * eps) * delta),
            missing_min=math.ceil(C_SPARSE * eps * eps * delta * delta),
            special_min=ceil_phi(delta),
            difficult_min=delta - floor_psi(delta),
        )
