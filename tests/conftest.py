"""One Hypothesis profile for every property test: the examples are
derived from each test alone (derandomize), none is saved between runs
(database=None), and no run time is enforced (deadline=None), so a
failure replays on every run.  A test's own `settings` state only what
it changes: its example count, health checks or a deadline."""

from hypothesis import settings

settings.register_profile("replay", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("replay")
