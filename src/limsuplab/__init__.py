"""Desk-scale laboratory for limsup sets on the unit interval.

The package is organised around one experimental loop: pick a family of
resonant points (rational numbers, horoball bases), shrink a ball around
each one at a prescribed rate, and study the set of points that land in
infinitely many of the balls.  Everything else -- symbolic convergence
tests, union measures, density ratios, Diophantine counting, geodesic
excursions -- exists to make the quantitative side of that loop checkable
on a laptop.

Modules
-------
errors      exception types, and the exact-input readers every layer shares
functions   symbolic power/log/loglog forms, series verdicts, critical exponents
farey       prime-factor sieve, Farey sequences, the float union-length sweep
systems     resonant systems, per-point stage sets, stage measure scans
ubiquity    uniform stages: exact local density ratios against Lebesgue measure
counting    Diophantine counting and its mean-value prediction
geodesics   continued fractions, the modular surface, cusp excursions
horoballs   Ford configuration: counting bands, tangency checks
cli         command-line front end producing CSV/JSONL result files
"""

from limsuplab.errors import (
    CompositionError,
    DomainError,
    PrecisionExhausted,
    ResourceCapError,
    UsageError,
)

__version__ = "0.1.0"

__all__ = [
    "CompositionError",
    "DomainError",
    "PrecisionExhausted",
    "ResourceCapError",
    "UsageError",
    "__version__",
]
