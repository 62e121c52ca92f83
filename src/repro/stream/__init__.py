"""Streaming ranging subsystem: micro-batching service + link trackers.

The layer between the request/response serving facade
(:mod:`repro.net.service`) and continuous scenarios (§9's 12 Hz
closed loop, many-client deployments):

* :mod:`repro.stream.service` — :class:`StreamingRangingService`, an
  asyncio front end whose micro-batching scheduler coalesces concurrent
  per-link submissions into single batched engine calls;
* :mod:`repro.stream.client` — :class:`StreamClient`, a blocking
  facade on a dedicated loop thread (threaded callers coalesce too);
* :mod:`repro.stream.tracker` — :class:`LinkTracker` /
  :class:`TrackerBank`, constant-velocity Kalman smoothing over ToF
  with MAD innovation gating;
* :mod:`repro.stream.session` — :class:`StreamSession`, replaying
  mac.sim-scheduled sweep arrivals through service and trackers.
"""

from repro.net.service import LinkRequest, RangingRequest, RangingResponse
from repro.stream.client import StreamClient
from repro.stream.service import (
    StreamConfig,
    StreamingRangingService,
    StreamStats,
    SweepRequest,
)
from repro.stream.session import (
    StreamSession,
    SweepArrival,
    TrackPoint,
    schedule_sweep_arrivals,
)
from repro.stream.tracker import (
    EvictingBankBase,
    LinkTracker,
    TrackerBank,
    TrackerConfig,
    TrackState,
)

__all__ = [
    "EvictingBankBase",
    "LinkRequest",
    "LinkTracker",
    "RangingRequest",
    "RangingResponse",
    "StreamClient",
    "StreamConfig",
    "StreamSession",
    "StreamStats",
    "StreamingRangingService",
    "SweepArrival",
    "SweepRequest",
    "TrackPoint",
    "TrackState",
    "TrackerBank",
    "TrackerConfig",
    "schedule_sweep_arrivals",
]
