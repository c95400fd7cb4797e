"""QoS measurement architecture (paper Sec. IV-B, Table I).

QoS *reporters* continuously sample task latency, service time,
interarrival time, channel latency and output-batch latency for the
runtime tasks/channels they are attached to, and report aggregates to
QoS *managers* once per measurement interval. Managers build *partial
summaries*; the master merges them into the *global summary* that feeds
the latency model, and distributes adaptive-output-batching deadlines
back to the channels.
"""

from repro import _lazy_exports

_EXPORTS = {
    "OnlineStats": "repro.qos.stats",
    "WindowedStats": "repro.qos.stats",
    "percentile": "repro.qos.stats",
    "TaskMeasurement": "repro.qos.measurements",
    "ChannelMeasurement": "repro.qos.measurements",
    "VertexSummary": "repro.qos.summary",
    "EdgeSummary": "repro.qos.summary",
    "GlobalSummary": "repro.qos.summary",
    "merge_partial_summaries": "repro.qos.summary",
    "TaskReporter": "repro.qos.reporter",
    "ChannelReporter": "repro.qos.reporter",
    "QoSManager": "repro.qos.manager",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
