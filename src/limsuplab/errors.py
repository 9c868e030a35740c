"""Shared exception types.

The split mirrors the exit-status contract of the command line tool:
usage problems, resource-cap refusals, and internal invariant failures
are distinct failure modes and must stay distinguishable.
"""


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
    ~2^(bit length), since str() refuses integers past 4300 digits."""
    if n.bit_length() <= 64:
        return str(n)
    return "~2^%d" % n.bit_length()
