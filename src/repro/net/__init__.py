"""Traffic-impact substrate for §12.3.

When an access point serving traffic is asked to localize a client, it
leaves its serving channel for one sweep (~84 ms).  These models
reproduce the two traces of Fig. 9:

* :mod:`repro.net.video` — a buffered VLC-style stream: download stalls
  during the sweep but playback continues from the buffer (Fig. 9b);
* :mod:`repro.net.tcp` — a long-lived iperf-style TCP flow whose
  windowed throughput dips a few percent around the sweep (Fig. 9c).

It also hosts the serving layer: :mod:`repro.net.service` exposes the
batched ranging engine as a request/response facade.  Continuous
per-link workloads sit one layer up, in :mod:`repro.stream`, whose
micro-batcher coalesces concurrent streams into this facade's batches.
"""

from repro.net.service import (
    LinkRequest,
    RangingRequest,
    RangingResponse,
    RangingService,
    ServiceStats,
)
from repro.net.tcp import TcpConfig, TcpFlowSimulation, TcpTrace
from repro.net.video import VideoConfig, VideoStreamSimulation, VideoTrace

__all__ = [
    "LinkRequest",
    "RangingRequest",
    "RangingResponse",
    "RangingService",
    "ServiceStats",
    "TcpConfig",
    "TcpFlowSimulation",
    "TcpTrace",
    "VideoConfig",
    "VideoStreamSimulation",
    "VideoTrace",
]
