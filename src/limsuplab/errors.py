"""Shared exception types, and the exact-input readers every layer uses.

The split mirrors the exit-status contract of the command line tool:
usage problems, resource-cap refusals, and internal invariant failures
are distinct failure modes and must stay distinguishable.

The readers live here, beside the refusals they raise, so that reading
an exact number does not load the symbolic `functions` (which
re-exports them).
"""

import decimal
import re
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]

# Every number `read_exact` returns has a numerator and a denominator of
# at most MAX_PRINT_BITS bits, so it prints back: str() prints an integer
# of at most 4300 digits (Python's default limit), as every integer of at
# most floor(4300 log2 10) bits is.
MAX_PRINT_BITS = 14_284

_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


class UsageError(ValueError):
    """Bad arguments or configuration supplied by the caller."""


class DomainError(UsageError):
    """A function was evaluated outside its stored domain threshold."""


class CompositionError(UsageError):
    """A symbolic composition left the closed power/log/loglog family."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured resource cap.

    Raised loudly instead of silently sampling; callers that can fall
    back to certified bounds catch this and say so in their output.
    """


class PrecisionExhausted(RuntimeError):
    """A numeric routine ran out of certified precision.

    Routines that can return a certified prefix do so and flag it;
    this exception is for the cases where nothing certified remains.
    """


class InternalInvariantError(AssertionError):
    """A cross-check that should be unconditionally true failed."""


def size_text(n: int) -> str:
    """An integer for a message: in decimal up to 64 bits, past that as
    ~2^(bit length), signed, since str() refuses integers past 4300
    digits."""
    if n.bit_length() <= 64:
        return str(n)
    return "-~2^%d" % n.bit_length() if n < 0 else "~2^%d" % n.bit_length()


def text_echo(text: str) -> str:
    """A token for a message: its repr up to 40 characters, past that
    the repr of its first 40 characters and its length, so the refusal
    of a huge token stays one short line."""
    if len(text) <= 40:
        return repr(text)
    return "%r... (%d characters)" % (text[:40], len(text))


def unreadable(name: str, text: str, exc: Exception) -> UsageError:
    """The one-line refusal of `text`, read for `name`, on the error `exc`
    that reading it raised; exc's own copy of the text is abbreviated."""
    echo = text_echo(text)
    reason = "; ".join(str(exc).replace(repr(text), echo).splitlines())
    if "set_int_max_str_digits" in reason:  # Python's int-limit advice
        reason = "more than 4300 digits"
    return UsageError("%s: cannot read %s (%s)" % (name, echo, reason))


def exact(x: RationalLike, name: str) -> Fraction:
    """Coerce to an exact Fraction; floats are refused, text and a
    decimal.Decimal (by its text) are read by `read_exact` under its
    exponent and bit caps."""
    if type(x) is Fraction:  # immutable, and Fraction(x) costs about 1 us
        return x
    if isinstance(x, float):
        raise UsageError("%s must be exact (int, Fraction, or string like "
                         "'2/3'); got float %r" % (name, x))
    if isinstance(x, (str, decimal.Decimal)):
        return read_exact(str(x), name)
    return Fraction(x)


def height_bits(x: Fraction) -> int:
    """Bits of the larger of |numerator| and denominator."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def bit_bounded(x: Fraction, name: str, bits: int) -> Fraction:
    """x, refused as a usage error past `bits` bits."""
    if height_bits(x) > bits:
        raise UsageError("%s has %d bits, past the %d-bit bound on exact "
                         "values" % (name, height_bits(x), bits))
    return x


def read_exact(text: str, name: str) -> Fraction:
    """The exact value of `text`: an integer, a fraction like -2/3 or a
    decimal like 0.25 or 1e-9.  Text that does not parse, a decimal
    exponent beyond 999 (refused before 10^exponent is formed) and a
    value past MAX_PRINT_BITS are usage errors naming `name`."""
    try:
        m = _DECIMAL_EXPONENT.search(text)
        if m and abs(int(m.group(1))) > 999:
            raise ValueError("decimal exponent beyond 999")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise unreadable(name, text, exc)
    return bit_bounded(value, name, MAX_PRINT_BITS)
