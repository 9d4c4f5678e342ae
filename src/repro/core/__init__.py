"""The paper's analytical contribution.

This package holds the measurement-study machinery itself: the end-to-end
delay breakdown (Figures 10–11), the trace-driven polling simulation
(Figures 12–13), the trace-driven client-buffering simulation and its
optimization result (Figures 16–17, §6), the CDN geolocation analysis
(Figure 15), the scalability analysis (Figure 14), and a pipeline facade
tying them together.
"""

from repro.core.playback import (
    PlaybackConfig,
    PlaybackResult,
    simulate_playback,
    poll_pickup_times,
)
from repro.core.polling import PollingStats, polling_delays, simulate_polling
from repro.core.delay_breakdown import (
    ControlledExperiment,
    DelayBreakdown,
    HLS_COMPONENTS,
    RTMP_COMPONENTS,
)
from repro.core.scalability import scalability_sweep
from repro.core.geolocation import GeoDelaySample, geolocation_study
from repro.core.chunk_stats import (
    PERISCOPE_CHUNK_MIX,
    chunk_duration_distribution,
    dominant_chunk_share,
)
from repro.core.interactivity import InteractivityStudy, TierInteractivity
from repro.core.projection import CapacityExceeded, GrowthProjection, ProjectionPoint
from repro.core.adaptive_buffer import (
    AdaptiveBufferPolicy,
    JitterProbe,
    PolicyOutcome,
    evaluate_policies,
)
from repro.core.pipeline import (
    BroadcastTrace,
    DelayMeasurementCampaign,
    hls_viewer_traces,
    rtmp_viewer_traces,
)

__all__ = [
    "BroadcastTrace",
    "DelayMeasurementCampaign",
    "rtmp_viewer_traces",
    "hls_viewer_traces",
    "PERISCOPE_CHUNK_MIX",
    "chunk_duration_distribution",
    "dominant_chunk_share",
    "InteractivityStudy",
    "TierInteractivity",
    "GrowthProjection",
    "ProjectionPoint",
    "CapacityExceeded",
    "AdaptiveBufferPolicy",
    "JitterProbe",
    "PolicyOutcome",
    "evaluate_policies",
    "PlaybackConfig",
    "PlaybackResult",
    "simulate_playback",
    "poll_pickup_times",
    "PollingStats",
    "polling_delays",
    "simulate_polling",
    "ControlledExperiment",
    "DelayBreakdown",
    "RTMP_COMPONENTS",
    "HLS_COMPONENTS",
    "scalability_sweep",
    "GeoDelaySample",
    "geolocation_study",
]
