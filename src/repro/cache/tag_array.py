"""Set-associative tag array with line reservation.

The tag array tracks line *state* only (tags, valid/reserved/dirty); data
movement is modelled by the latencies of the surrounding controllers.

Reservation implements GPGPU-Sim's miss handling: on a miss the controller
reserves a victim way for the future fill.  While reserved, the way cannot
be evicted — if every candidate way of a set is reserved, the controller
suffers a *reservation failure* and must retry, which is one of the
resource-contention effects the paper calls out ("prolonged contention of
cache resources such as MSHRs and replaceable cache lines").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.cache.replacement import make_policy
from repro.utils.stats import RatioStat


class LineState(enum.Enum):
    INVALID = 0
    VALID = 1
    #: Way held for an outstanding fill; not evictable.
    RESERVED = 2


@dataclass(frozen=True, slots=True)
class Eviction:
    """Description of a line displaced by a reserve/fill."""

    line: int
    dirty: bool


class TagArray:
    """Tags + state for one cache; indexed by line index.

    Way state is held flat: ``_tag``, ``_state`` and ``_dirty`` are lists
    indexed ``set * assoc + way``, and ``_way_of`` maps every non-INVALID
    line to its way, so the per-access probe is one dict lookup and
    building a cache allocates no per-way objects.
    """

    def __init__(
        self,
        name: str,
        n_sets: int,
        assoc: int,
        policy: str = "lru",
    ) -> None:
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ConfigError(f"{name}: n_sets must be a power of two, got {n_sets}")
        if assoc < 1:
            raise ConfigError(f"{name}: assoc must be >= 1")
        self.name = name
        self.n_sets = n_sets
        self.assoc = assoc
        n_ways = n_sets * assoc
        self._tag = [-1] * n_ways
        self._state = [LineState.INVALID] * n_ways
        self._dirty = [False] * n_ways
        #: ``line -> way`` for the non-INVALID lines (the set is implied
        #: by the line).  Maintained by reserve/fill/invalidate (the only
        #: tag mutators).
        self._way_of: dict[int, int] = {}
        self._policy = make_policy(policy, n_sets, assoc)
        #: Per-set recency/insertion stamp rows when the policy ranks ways
        #: by a plain stamp (LRU/FIFO): lets :meth:`_allocate` pick the
        #: victim during its way scan instead of gathering candidates for a
        #: policy callback.  None for structural policies (PLRU).
        self._stamp_rows = getattr(self._policy, "_last_use", None)
        if self._stamp_rows is None:
            self._stamp_rows = getattr(self._policy, "_installed", None)
        self.lookups = RatioStat(f"{name}.hit_rate")
        #: Reservation failures (all candidate ways of a set reserved).
        self.reservation_fails: int = 0

    # ------------------------------------------------------------------
    # indexing helpers
    # ------------------------------------------------------------------
    def set_index(self, line: int) -> int:
        return line & (self.n_sets - 1)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def lookup(self, line: int, now: int, *, count: bool = True) -> bool:
        """Probe for ``line``; True only for a VALID line (hit).

        A RESERVED match is *not* a hit (the data has not arrived), but the
        caller can detect it via :meth:`state_of` to merge into an MSHR.
        Updates replacement state and the hit-rate statistic on hits.
        """
        way = self._way_of.get(line)
        set_idx = line & (self.n_sets - 1)
        hit = way is not None and (
            self._state[set_idx * self.assoc + way] is LineState.VALID
        )
        if count:
            if hit:
                self.lookups.hit()
            else:
                self.lookups.miss()
        if hit:
            self._policy.on_access(set_idx, way, now)
        return hit

    def state_of(self, line: int) -> LineState:
        """Current state of ``line`` (INVALID if not present)."""
        way = self._way_of.get(line)
        if way is None:
            return LineState.INVALID
        return self._state[(line & (self.n_sets - 1)) * self.assoc + way]

    def mark_dirty(self, line: int) -> None:
        """Mark a VALID line dirty (write hit)."""
        way = self._way_of.get(line)
        if way is not None:
            index = (line & (self.n_sets - 1)) * self.assoc + way
            if self._state[index] is LineState.VALID:
                self._dirty[index] = True
                return
        raise SimulationError(f"{self.name}: mark_dirty on absent line {line:#x}")

    def _allocate(self, set_idx: int, line: int) -> tuple[int, Eviction | None] | None:
        """Claim a way for ``line`` in RESERVED state; None when every way
        is reserved.  Single pass: stops at the first INVALID way, else
        picks the policy victim among the VALID ways gathered en route."""
        base = set_idx * self.assoc
        states = self._state
        victim_idx = None
        evicted = None
        stamp_rows = self._stamp_rows
        if stamp_rows is not None:
            # Stamp-ranked policy (LRU/FIFO): fold victim selection into
            # the way scan.  Strict < keeps min()'s first-minimum tie-break.
            stamps = stamp_rows[set_idx]
            best_idx = None
            best_stamp = 0
            for way_idx in range(self.assoc):
                state = states[base + way_idx]
                if state is LineState.INVALID:
                    victim_idx = way_idx
                    break
                if state is LineState.VALID:
                    stamp = stamps[way_idx]
                    if best_idx is None or stamp < best_stamp:
                        best_idx = way_idx
                        best_stamp = stamp
            else:
                if best_idx is None:
                    return None
                victim_idx = best_idx
        else:
            candidates: list[int] = []
            for way_idx in range(self.assoc):
                state = states[base + way_idx]
                if state is LineState.INVALID:
                    victim_idx = way_idx
                    break
                if state is LineState.VALID:
                    candidates.append(way_idx)
            else:
                if not candidates:
                    return None
                victim_idx = self._policy.victim(set_idx, candidates)
        index = base + victim_idx
        if states[index] is LineState.VALID:
            victim_line = self._tag[index]
            evicted = Eviction(line=victim_line, dirty=self._dirty[index])
            del self._way_of[victim_line]
        self._tag[index] = line
        states[index] = LineState.RESERVED
        self._dirty[index] = False
        self._way_of[line] = victim_idx
        return victim_idx, evicted

    def reserve(self, line: int, now: int) -> Eviction | None | bool:
        """Reserve a way for a future fill of ``line``.

        Returns ``False`` on reservation failure (every way reserved),
        otherwise the :class:`Eviction` displaced (or None).  The victim is
        chosen by the replacement policy among non-reserved ways, preferring
        invalid ways.
        """
        result = self._allocate(line & (self.n_sets - 1), line)
        if result is None:
            self.reservation_fails += 1
            return False
        return result[1]

    def fill(self, line: int, now: int, *, dirty: bool = False) -> Eviction | None:
        """Install ``line`` as VALID.

        Uses the previously reserved way when one exists; otherwise
        allocates a victim directly (the L1 path, which does not reserve).
        Returns any displaced line.
        """
        set_idx = line & (self.n_sets - 1)
        way_idx = self._way_of.get(line)
        evicted: Eviction | None = None
        if way_idx is None:
            result = self._allocate(set_idx, line)
            if result is None:
                raise SimulationError(
                    f"{self.name}: fill of {line:#x} found no allocatable way"
                )
            way_idx, evicted = result
        index = set_idx * self.assoc + way_idx
        self._state[index] = LineState.VALID
        self._dirty[index] = dirty
        self._policy.on_fill(set_idx, way_idx, now)
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present and VALID; True when something dropped."""
        way = self._way_of.get(line)
        if way is None:
            return False
        index = (line & (self.n_sets - 1)) * self.assoc + way
        if self._state[index] is not LineState.VALID:
            return False
        del self._way_of[line]
        self._state[index] = LineState.INVALID
        self._tag[index] = -1
        self._dirty[index] = False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.lookups.ratio

    def occupancy(self) -> int:
        """Number of VALID lines currently held."""
        return self._state.count(LineState.VALID)

    def reserved_count(self) -> int:
        """Number of RESERVED ways (outstanding fills)."""
        return self._state.count(LineState.RESERVED)
