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
