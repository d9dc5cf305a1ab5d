"""repro.obs — run-wide observability (metrics, sim-time tracing, exporters).

The measurement layer the paper's argument presumes: what can a run
know about itself?  Three pieces:

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket
  histograms with a no-op fast path when nothing is bound;
* :mod:`repro.obs.tracer` — nested spans dual-stamped on the
  simulation and wall time axes;
* :mod:`repro.obs.exporters` — JSONL event stream, CSV summary,
  console report, and ``BENCH_*.json`` benchmark documents.

Instrumented components (kernel, transport, loss models, processes,
strobe and vector clocks, online/lattice detectors, the fault
injector) keep one probe handle, bound by ``bind_probe``;
:func:`instrument_system` binds a whole
:class:`~repro.core.system.PervasiveSystem` at once, feeding a
registry and/or a flight recorder through one
:class:`~repro.obs.probe.Probe`, which owns the metric catalogue (see
docs/observability.md).
"""

from repro.obs.exporters import (
    export_bench_json,
    export_csv,
    export_jsonl,
    jsonl_events,
    load_bench_json,
    read_jsonl,
    registry_from_jsonl,
    render_console,
)
from repro.obs.instrument import Observability, attach_sampler, instrument_system
from repro.obs.probe import Probe
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.tracer import Span, SpanTracer

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BUCKETS",
    "SpanTracer",
    "Span",
    "Observability",
    "Probe",
    "instrument_system",
    "attach_sampler",
    "export_jsonl",
    "read_jsonl",
    "registry_from_jsonl",
    "jsonl_events",
    "export_csv",
    "render_console",
    "export_bench_json",
    "load_bench_json",
]
