"""Workload generation: who broadcasts, when, and who watches.

Generates synthetic Periscope/Meerkat activity traces matching the
measurement study's §3 observations: Periscope's >300% three-month growth
with weekly periodicity and the Android-launch jump, Meerkat's decline,
short heavy-tailed broadcast durations, skewed audience sizes and per-user
activity, and follower-driven popularity.
"""

from repro.workload.growth import (
    GrowthModel,
    MEERKAT_GROWTH,
    PERISCOPE_GROWTH,
    weekday_of_day,
)
from repro.workload.arrivals import daily_arrival_times, DIURNAL_WEIGHTS
from repro.workload.broadcast_model import BroadcastParamsModel
from repro.workload.viewers import ViewerArrivalModel
from repro.workload.trace import (
    ShardContext,
    TraceConfig,
    WorkloadTrace,
    build_follow_graph,
    build_trace_context,
    derived_notification_open_rate,
    generate_day_columns,
)

__all__ = [
    "GrowthModel",
    "PERISCOPE_GROWTH",
    "MEERKAT_GROWTH",
    "weekday_of_day",
    "daily_arrival_times",
    "DIURNAL_WEIGHTS",
    "BroadcastParamsModel",
    "ViewerArrivalModel",
    "ShardContext",
    "TraceConfig",
    "WorkloadTrace",
    "build_follow_graph",
    "build_trace_context",
    "derived_notification_open_rate",
    "generate_day_columns",
]
