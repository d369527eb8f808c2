"""Clock domains.

GPGPU-Sim models four clock domains (core, interconnect, L2, DRAM).  This
reproduction runs everything on the core clock by default — the Table I
bandwidth parameters are expressed in per-core-cycle terms — but the
mechanism is kept so experiments can slow individual components down by an
integer divisor (e.g. a half-rate DRAM command clock).
"""

from __future__ import annotations

from repro.errors import ConfigError


class ClockDomain:
    """A clock derived from the core clock by an integer period.

    A component attached to a domain with ``period=n`` is stepped on core
    cycles where ``cycle % n == phase``.
    """

    def __init__(self, name: str, period: int = 1, phase: int = 0) -> None:
        if period < 1:
            raise ConfigError(f"clock period must be >= 1, got {period}")
        if not 0 <= phase < period:
            raise ConfigError(
                f"clock phase must be in [0, {period}), got {phase}"
            )
        self.name = name
        self.period = period
        self.phase = phase

    def ticks(self, now: int) -> bool:
        """Whether this domain has an edge on core cycle ``now``."""
        return now % self.period == self.phase

    def ticks_in(self, start: int, stop: int) -> int:
        """Number of edges in the half-open core-cycle range [start, stop).

        Used by the engine's fast-forward to tell a slow-clock component
        how many of its own cycles a skipped window covered.
        """
        if stop <= start:
            return 0
        period = self.period
        if period == 1:
            return stop - start
        # Edges are at phase, phase+period, ...; count those in range.
        first = start + (-(start - self.phase)) % period
        if first >= stop:
            return 0
        return (stop - 1 - first) // period + 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClockDomain({self.name!r}, period={self.period})"


#: The default full-rate clock shared by all components.
CORE_CLOCK = ClockDomain("core", period=1)
