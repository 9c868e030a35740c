"""Exact reference implementations the tests hold the package against.

Each oracle is the slow, obvious computation: Fraction arithmetic, one
raw pair at a time, no shortcut shared with the kernel it checks.  Test
modules import them as `from oracles import ...`; nothing under `src`
may, because an installed package has no `tests/` next to it.
"""

import math
from fractions import Fraction
from functools import cache

import limsuplab.functions as fn
import limsuplab.systems as sy
from limsuplab.errors import UsageError


def exact_union_measure(pairs, lo=0, hi=1) -> Fraction:
    """Lebesgue measure of the union of the intervals [a, b] in pairs,
    clipped to [lo, hi], as an exact Fraction.

    Float endpoints convert exactly.  Empty and inverted pieces carry no
    measure, and a single point never does, so touching intervals need
    no special case.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    clipped = sorted((max(Fraction(a), lo), min(Fraction(b), hi))
                     for a, b in pairs)
    total, reach = Fraction(0), lo
    for a, b in clipped:
        start = max(a, reach)
        if b > start:
            total += b - start
            reach = b
    return total


def window_pairs(system, w_lo, w_hi):
    """Every raw (point, weight) pair with weight in (w_lo, w_hi], by
    weight then point.  Denominators are walked up from 1, so the
    system's own q-range arithmetic is not trusted."""
    reduced = system.coprime_only or system.kind is sy.SystemKind.FORD
    pairs = []
    q = 1
    while system.weight_of(q) <= w_hi:
        w = system.weight_of(q)
        if w > w_lo:
            pairs += [(Fraction(p, q), w) for p in range(q + 1)
                      if not reduced or math.gcd(p, q) == 1]
        q += 1
    return pairs


def stage_balls(system, stage, n):
    """Every raw (p/q, exact radius) ball of stage n.

    Duplicate centres (2/4 next to 1/2) stay in, each with the radius of
    its own weight, so this knows nothing of the reduced-centre dedup
    the scan relies on.
    """
    uniform = stage.mode is sy.StageMode.UNIFORM

    @cache
    def radius(w):
        return stage.radius_exact(stage.k ** n if uniform else w)

    return [(c, radius(w)) for c, w in window_pairs(system, *stage.window(n))]


def count_R_exact(x: Fraction, N: int, psi: fn.FunctionForm) -> int:
    """Fraction-arithmetic twin of counting.count_R for rational x and
    rational-valued psi; the float path's oracle."""
    if not fn.is_rational_valued(psi):
        raise UsageError("exact counting needs a rational-valued psi")
    x = Fraction(x)
    count = 0
    for q in range(1, N + 1):
        t = q * x
        p = round(t)
        if abs(t - p) < q * fn.evaluate_rational(psi, q):
            count += 1
    return count
