"""Closed-form Ramsey numbers and threshold multiplicities.

Threshold multiplicity m(H) is the minimum number of monochromatic copies
of H over all two-colorings of K_r, where r = r(H) is the Ramsey number.
Star multiplicities and the path/cycle Ramsey numbers are exact results;
the path/cycle multiplicity formulas are the counts of split colorings,
so upper bounds on the minimums, and flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .counting import Pattern
from .errors import DomainError

EXACT = "exact"
UPPER_BOUND = "upper-bound"


@dataclass(frozen=True)
class RamseyValue:
    """r(H) >= ``lower`` is certified; ``value`` is r(H) when it is pinned,
    else None.  ``provenance`` is "formula" (closed form) or "search"."""

    pattern: Pattern
    lower: int
    value: int | None
    provenance: str


@dataclass(frozen=True)
class MultiplicityValue:
    pattern: Pattern
    value: int
    status: str  # EXACT or UPPER_BOUND


def r_path(k: int) -> RamseyValue:
    """r(P_k) = k - 1 + floor(k/2) for k >= 2."""
    if k < 2:
        raise DomainError("path Ramsey formula needs k >= 2")
    value = k - 1 + k // 2
    return RamseyValue(Pattern.path(k), value, value, "formula")


def r_cycle(k: int) -> RamseyValue:
    """r(C_3) = r(C_4) = 6; 2k-1 for odd k >= 5; k + k/2 - 1 for even k >= 6."""
    if k < 3:
        raise DomainError("cycles need k >= 3")
    if k in (3, 4):
        value = 6
    elif k % 2 == 1:
        value = 2 * k - 1
    else:
        value = k + k // 2 - 1
    return RamseyValue(Pattern.cycle(k), value, value, "formula")


def m_star(k: int) -> MultiplicityValue:
    """Threshold multiplicity of the star with k leaves (exact).

    1 for even k and 2k for odd k.  With a distinguished centre, the single
    edge k = 1 is two stars, one from each end: K_2 holds 2 copies of S_1.
    """
    if k < 1:
        raise DomainError("stars need k >= 1 leaves")
    value = 1 if k % 2 == 0 else 2 * k
    return MultiplicityValue(Pattern.star(k), value, EXACT)


def conjectured_m(pattern: Pattern) -> MultiplicityValue:
    """Split-coloring values of the threshold multiplicity of paths and cycles.

    Paths: k!/2 for even k, (k-1)/4 * (k-1)! for odd k.
    Cycles: (k-3)/2 * (k-2)! for even k, (k-1)!/2 for odd k.
    These are the counts of split colorings at n = r(H), conjectured to be
    the minimums.  Each counts one coloring of K_{r(H)}, so it is an upper
    bound on m(H), hence status UPPER_BOUND, and some are not the minimum.
    Of the exact minima (r(H) <= 9: P_3 to P_7, C_5 and C_6), five lie
    below the value given here: P_4 on K_5 is 10 against 12, P_5 on K_6 is
    18 against 24, P_6 on K_8 is 300 against 360, C_6 on K_8 is 10 against
    36 and P_7 on K_9 is 720 against 1,080; P_3 on K_3 (1) and C_5 on K_9
    (12) equal it.  Beyond them, P_8 on K_11 has colorings with 17,280
    copies against 20,160, found by annealing from the split witness
    chi(8, 3) (``SearchConfig(seed=1)``; from random starts the same seed
    finds 17,816).  Cycles start at k = 5: r(C_4) = 6 is not 3k/2 - 1, and the
    even form's 1 counts a coloring of K_5, below the exact minimum of 2 on
    K_6.
    """
    k = pattern.k
    if pattern.kind == "path":
        if k < 3:
            raise DomainError("path multiplicity conjecture needs k >= 3")
        if k % 2 == 0:
            value = factorial(k) // 2
        else:
            value = (k - 1) * factorial(k - 1) // 4
        return MultiplicityValue(pattern, value, UPPER_BOUND)
    if pattern.kind == "cycle":
        if k < 5:
            raise DomainError("cycle multiplicity conjecture needs k >= 5")
        if k % 2 == 0:
            value = (k - 3) * factorial(k - 2) // 2
        else:
            value = factorial(k - 1) // 2
        return MultiplicityValue(pattern, value, UPPER_BOUND)
    raise DomainError("conjectured multiplicities cover paths and cycles only")
