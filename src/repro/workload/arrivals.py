"""Within-day broadcast arrival times.

Broadcast creation follows a non-homogeneous Poisson process whose
intensity tracks a diurnal curve: quiet overnight, rising through the
morning, peaking in the evening.  The curve is a global aggregate — the
services are worldwide, so the modulation is gentler than any single
timezone's.
"""

from __future__ import annotations

import numpy as np

#: Relative intensity per hour of day (UTC-ish aggregate), 24 entries.
DIURNAL_WEIGHTS: tuple[float, ...] = (
    0.55, 0.45, 0.40, 0.38, 0.40, 0.48,
    0.60, 0.75, 0.90, 1.00, 1.08, 1.15,
    1.20, 1.22, 1.25, 1.28, 1.32, 1.40,
    1.48, 1.52, 1.45, 1.25, 0.95, 0.70,
)


def daily_arrival_times(rng: np.random.Generator, expected_count: float) -> np.ndarray:
    """Sample sorted arrival offsets (seconds into the day).

    The count is Poisson around ``expected_count``; times are placed by
    inverse-CDF over the hourly :data:`DIURNAL_WEIGHTS` curve, uniform
    within each hour.
    """
    if expected_count < 0:
        raise ValueError(f"expected_count must be non-negative, got {expected_count}")
    count = int(rng.poisson(expected_count))
    if count == 0:
        return np.empty(0)
    hourly = np.asarray(DIURNAL_WEIGHTS, dtype=float)
    hour_probs = hourly / hourly.sum()
    hours = rng.choice(24, size=count, p=hour_probs)
    offsets = rng.random(count)
    times = (hours + offsets) * 3600.0
    times.sort()
    return times
