"""The domain model of a personalized livestreaming service.

This package holds the records and parameters of the Periscope/Meerkat
backends the paper measured (both services are defunct): app profiles
(spillover threshold, comment cap, chunk duration), users with sequential
IDs, broadcasts with their viewers, comments and hearts, and the viewer
engagement model behind Fig 5.  The service that operates on these
records — the global list, joins with the RTMP-to-HLS spillover, the
100-commenter cap — is :class:`repro.service.LivestreamService`.
"""

from repro.platform.apps import (
    AppProfile,
    FACEBOOK_LIVE_PROFILE,
    MEERKAT_PROFILE,
    PERISCOPE_PROFILE,
)
from repro.platform.broadcasts import Broadcast, BroadcastState, Comment, Heart, ViewRecord
from repro.platform.users import User, UserRegistry
from repro.platform.engagement import EngagementModel, ViewerSessionPlan

__all__ = [
    "AppProfile",
    "PERISCOPE_PROFILE",
    "MEERKAT_PROFILE",
    "FACEBOOK_LIVE_PROFILE",
    "Broadcast",
    "BroadcastState",
    "Comment",
    "Heart",
    "ViewRecord",
    "User",
    "UserRegistry",
    "EngagementModel",
    "ViewerSessionPlan",
]
