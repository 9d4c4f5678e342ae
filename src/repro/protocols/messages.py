"""The message channel (comments and hearts).

Periscope delivers comments/hearts through a third-party pub/sub service
(PubNub) over HTTPS, entirely separate from the video channel (§4.1,
Figure 8).  Viewers merge messages with video client-side by timestamp —
which is exactly why video delay matters: a viewer lagging 12 s behind sees
*current* comments over *stale* video.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class MessageKind(enum.Enum):
    COMMENT = "comment"
    HEART = "heart"


@dataclass(frozen=True)
class StreamMessage:
    """One published message."""

    kind: MessageKind
    sender_id: int
    sent_time: float
    broadcast_id: int


@dataclass
class _Subscription:
    subscriber_id: int
    callback: Callable[[StreamMessage, float], None]


@dataclass
class MessageChannel:
    """A per-broadcast pub/sub channel with HTTPS-like delivery latency.

    Delivery latency is sampled per (message, subscriber) pair: a base
    service latency plus lognormal jitter.  This channel is intentionally
    fast relative to HLS video (hundreds of ms vs ~12 s) — the asymmetry
    drives the interactivity problem the paper motivates with delayed
    "hearts".
    """

    broadcast_id: int
    base_latency_s: float = 0.15
    jitter_sigma: float = 0.4
    _subscriptions: dict[int, _Subscription] = field(default_factory=dict)
    published: list[StreamMessage] = field(default_factory=list)

    def subscribe(
        self,
        subscriber_id: int,
        callback: Callable[[StreamMessage, float], None],
    ) -> None:
        if subscriber_id in self._subscriptions:
            raise ValueError(f"subscriber {subscriber_id} already subscribed")
        self._subscriptions[subscriber_id] = _Subscription(subscriber_id, callback)

    def unsubscribe(self, subscriber_id: int) -> None:
        self._subscriptions.pop(subscriber_id, None)

    def delivery_latency(self, rng: np.random.Generator) -> float:
        return self.base_latency_s * float(rng.lognormal(0.0, self.jitter_sigma))

    def publish(
        self,
        message: StreamMessage,
        rng: np.random.Generator,
        scheduler: Optional[Callable[[float, Callable[[], None]], object]] = None,
    ) -> dict[int, float]:
        """Publish to all subscribers; returns per-subscriber delivery times.

        With a ``scheduler`` (e.g. ``Simulator.schedule``), callbacks fire
        inside the event loop; without one they fire immediately (useful in
        unit tests).
        """
        self.published.append(message)
        deliveries: dict[int, float] = {}
        for subscription in list(self._subscriptions.values()):
            latency = self.delivery_latency(rng)
            deliver_at = message.sent_time + latency
            deliveries[subscription.subscriber_id] = deliver_at
            if scheduler is not None:
                scheduler(latency, _Delivery(subscription.callback, message, deliver_at))
            else:
                subscription.callback(message, deliver_at)
        return deliveries


class _Delivery:
    """Picklable/debuggable delivery closure."""

    def __init__(
        self,
        callback: Callable[[StreamMessage, float], None],
        message: StreamMessage,
        deliver_at: float,
    ) -> None:
        self._callback = callback
        self._message = message
        self._deliver_at = deliver_at

    def __call__(self) -> None:
        self._callback(self._message, self._deliver_at)
