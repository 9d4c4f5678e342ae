"""Daily-volume growth models for Periscope and Meerkat.

Calibrated to Figures 1 and 2:

* Periscope grew from roughly 70K to well over 250K daily broadcasts in the
  98-day window (>300% growth), with a visible jump after the Android app
  launched on May 26 (day 11 of the measurement) and a weekly rhythm —
  weekend peaks, Monday troughs.
* Meerkat's daily broadcasts roughly halved in a month, ending below 4000.

Only broadcast volume is modelled.  Daily viewers and broadcasters (Figure
2) follow from the sampled audiences and activity skew in
:mod:`repro.workload.trace`, not from a curve of their own.

Day 0 is May 15, 2015 for Periscope (a Friday) and May 12, 2015 for
Meerkat (a Tuesday).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def weekday_of_day(day_index: int, first_weekday: int) -> int:
    """Weekday (Mon=0..Sun=6) of measurement day ``day_index``."""
    return (first_weekday + day_index) % 7


#: Weekly activity multipliers, Mon..Sun — Monday trough, weekend peak.
DEFAULT_WEEKLY_PATTERN: tuple[float, ...] = (0.88, 0.92, 0.96, 1.00, 1.04, 1.12, 1.08)


@dataclass(frozen=True)
class GrowthModel:
    """Deterministic daily broadcast-volume curve with weekly modulation.

    The underlying trend is exponential between a start and end level,
    optionally with a step jump at ``launch_day`` (Periscope's Android
    launch).  Weekly modulation multiplies the trend.
    """

    name: str
    days: int
    broadcasts_start: float
    broadcasts_end: float
    first_weekday: int = 4  # Friday
    launch_day: int | None = None
    launch_multiplier: float = 1.0
    weekly_pattern: tuple[float, ...] = field(default=DEFAULT_WEEKLY_PATTERN)

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        if min(self.broadcasts_start, self.broadcasts_end) <= 0:
            raise ValueError("broadcast levels must be positive")
        if len(self.weekly_pattern) != 7:
            raise ValueError("weekly_pattern needs 7 entries")

    def _trend(self, day: int) -> float:
        """Exponential interpolation, with the launch step folded in."""
        start = self.broadcasts_start
        if self.days == 1:
            base = start
        else:
            rate = math.log(self.broadcasts_end / start) / (self.days - 1)
            base = start * math.exp(rate * day)
        if self.launch_day is not None and day >= self.launch_day:
            base *= self.launch_multiplier
        return base

    def _weekly(self, day: int) -> float:
        return self.weekly_pattern[weekday_of_day(day, self.first_weekday)]

    def broadcasts_on(self, day: int) -> float:
        """Expected broadcast count on measurement day ``day``."""
        self._check_day(day)
        return self._trend(day) * self._weekly(day)

    def total_broadcasts(self) -> float:
        """Expected total broadcasts over the whole measurement."""
        return sum(self.broadcasts_on(day) for day in range(self.days))

    def _check_day(self, day: int) -> None:
        if not 0 <= day < self.days:
            raise ValueError(f"day {day} outside measurement window [0, {self.days})")


#: Periscope, May 15 – Aug 20, 2015 (98 days).  The end/start levels are
#: chosen so the total lands near 19.6M broadcasts with >300% growth and
#: the Android launch step on day 11.
PERISCOPE_GROWTH = GrowthModel(
    name="Periscope",
    days=98,
    broadcasts_start=82_000.0,
    broadcasts_end=262_000.0,
    first_weekday=4,  # May 15, 2015 was a Friday
    launch_day=11,  # Android launch May 26
    launch_multiplier=1.28,
)

#: Meerkat, May 12 – June 15, 2015 (35 days), halving over the month.
MEERKAT_GROWTH = GrowthModel(
    name="Meerkat",
    days=35,
    broadcasts_start=6_800.0,
    broadcasts_end=3_500.0,
    first_weekday=1,  # May 12, 2015 was a Tuesday
)
