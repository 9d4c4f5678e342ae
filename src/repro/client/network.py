"""Last-mile link models.

Two behaviours matter to the paper's results:

* steady jitter — WiFi/LTE delay variance that client buffering absorbs,
* bursty outages — short windows where the uplink stalls and frames queue,
  then flush together.  §6 attributes the long (>5 s) RTMP buffering-delay
  tail in Figure 16(b) to exactly this "bursty arrival of video frames
  during uploading".

Links are FIFO (TCP semantics): delivery times are non-decreasing even
under jitter, and packets sent during an outage drain in order when it
ends.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OutageSchedule:
    """Precomputed outage windows on a link.

    Windows are sampled as a Poisson process of starts with exponential
    durations; overlapping windows are merged.
    """

    windows: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for start, end in self.windows:
            if end < start:
                raise ValueError(f"invalid outage window ({start}, {end})")
        # Copy before sorting: never mutate the caller's list.
        self.windows = sorted(self.windows)
        self._merge()

    def _merge(self) -> None:
        merged: list[tuple[float, float]] = []
        for start, end in self.windows:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self.windows = merged
        # Precomputed once: release_time used to rebuild this list on every
        # call, making each lookup O(n) instead of O(log n).
        self._starts = [start for start, _ in merged]

    @classmethod
    def sample(
        cls,
        rng: np.random.Generator,
        horizon_s: float,
        rate_per_s: float,
        mean_duration_s: float,
    ) -> "OutageSchedule":
        """Poisson outage starts over ``[0, horizon_s)``."""
        if horizon_s < 0:
            raise ValueError("horizon must be non-negative")
        if rate_per_s < 0 or mean_duration_s < 0:
            raise ValueError("rate and duration must be non-negative")
        if rate_per_s == 0 or horizon_s == 0:
            return cls([])
        count = int(rng.poisson(rate_per_s * horizon_s))
        starts = np.sort(rng.random(count) * horizon_s)
        durations = rng.exponential(mean_duration_s, size=count)
        return cls([(float(s), float(s + d)) for s, d in zip(starts, durations)])

    def release_time(self, time: float) -> float:
        """Earliest instant at/after ``time`` outside any outage window.

        Windows are merged and disjoint after construction, so the single
        window with the latest ``start <= time`` fully decides the answer —
        with raw overlapping windows (e.g. ``[(0, 100), (10, 20)]`` at
        ``t=50``) that check alone would wrongly report the link as up.
        """
        index = bisect.bisect_right(self._starts, time) - 1
        if index >= 0:
            start, end = self.windows[index]
            if start <= time < end:
                return end
        return time

    def release_times(self, times: np.ndarray) -> np.ndarray:
        """:meth:`release_time` for every element of a float array."""
        if not self.windows:
            return times.copy()
        index = np.searchsorted(self._starts, times, side="right") - 1
        ends = np.array([end for _, end in self.windows])[np.maximum(index, 0)]
        return np.where((index >= 0) & (times < ends), ends, times)

    def is_down(self, time: float) -> bool:
        """Whether the link is inside an outage window at ``time``."""
        return self.release_time(time) != time


@dataclass
class LastMileLink:
    """A FIFO access link with jitter and optional outages.

    ``send(t)`` returns the delivery time of a packet handed to the link at
    time ``t``; ``send_many(ts)`` equals one ``send`` per element.  Sends
    must be made in non-decreasing time order (the link tracks FIFO state).
    """

    rng: np.random.Generator
    base_delay_s: float = 0.045
    jitter_sigma: float = 0.25
    outages: OutageSchedule = field(default_factory=OutageSchedule)
    serialization_s_per_kb: float = 0.0  # optional bandwidth term
    _last_delivery: float = field(default=float("-inf"), init=False)
    _last_send: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        if self.base_delay_s < 0:
            raise ValueError("base delay must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter sigma must be non-negative")

    def send(self, time: float, size_kb: float = 0.0) -> float:
        """Delivery time for a packet sent at ``time``."""
        if size_kb < 0:
            raise ValueError(f"size_kb must be non-negative (got {size_kb})")
        if time < self._last_send:
            raise ValueError(
                f"sends must be time-ordered ({time} < {self._last_send})"
            )
        self._last_send = time
        departure = self.outages.release_time(time)
        delay = self.base_delay_s
        if self.jitter_sigma > 0:
            delay *= float(self.rng.lognormal(0.0, self.jitter_sigma))
        delay += size_kb * self.serialization_s_per_kb
        delivery = departure + delay
        # FIFO: never deliver before an earlier packet.
        delivery = max(delivery, self._last_delivery)
        self._last_delivery = delivery
        return delivery

    def send_many(self, times: np.ndarray) -> np.ndarray:
        """``[send(t) for t in times]``, bit for bit: one lognormal draw of
        n values equals n scalar draws (same rng state after), and FIFO is
        a running maximum seeded with the last delivery."""
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return times.copy()
        if times[0] < self._last_send or np.any(times[1:] < times[:-1]):
            raise ValueError("sends must be time-ordered")
        self._last_send = float(times[-1])
        delays = np.full(times.size, self.base_delay_s)
        if self.jitter_sigma > 0:
            delays *= self.rng.lognormal(0.0, self.jitter_sigma, size=times.size)
        delivery = self.outages.release_times(times) + delays
        # FIFO: never deliver before an earlier packet.
        delivery[0] = max(delivery[0], self._last_delivery)
        np.maximum.accumulate(delivery, out=delivery)
        self._last_delivery = float(delivery[-1])
        return delivery

    @classmethod
    def stable_wifi(cls, rng: np.random.Generator) -> "LastMileLink":
        """The controlled-experiment setup: stable WiFi, no outages."""
        return cls(rng=rng, base_delay_s=0.035, jitter_sigma=0.15)

    @classmethod
    def mobile_uplink(
        cls,
        rng: np.random.Generator,
        horizon_s: float,
        outage_rate_per_s: float = 1.0 / 200.0,
        outage_mean_s: float = 2.5,
    ) -> "LastMileLink":
        """A realistic broadcaster uplink with occasional bursty stalls."""
        return cls(
            rng=rng,
            base_delay_s=0.06,
            jitter_sigma=0.3,
            outages=OutageSchedule.sample(rng, horizon_s, outage_rate_per_s, outage_mean_s),
        )
