"""Per-layer tracing for the benchmark's traced run.

Spans come from the benchmark's own files: around its calls into each
layer, and around the public functions listed in ``WRAPPED``, which a
traced unit (one set-up or one pass) wraps at the attribute its caller
looks them up by and unwraps when the unit ends.  No per-event function
is wrapped, and untraced runs install nothing.  A workload may also
adopt slices of the program's own trace (its campaign phases, shard
attempts, service tasks) as children of its spans.  Spans (name, start,
end, parent) stay in memory until the run writes them out.

Spans use ``time.monotonic``, the clock of the program's trace log, so
adopted slices and the benchmark's spans share one timeline.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

#: (module, attribute, span name): the public functions each layer
#: exposes, wrapped where the calling module looks them up.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simulation.scenario", "populate_base_internet", "scenario.topology"),
    ("repro.net.topology", "TopologyBuilder.build", "scenario.topology"),
    ("repro.simulation.scenario", "attach_cdn", "scenario.deployment"),
    ("repro.simulation.scenario", "CdnNetwork", "scenario.bgp"),
    ("repro.simulation.scenario", "LdnsDirectory", "scenario.population"),
    ("repro.simulation.scenario", "generate_population", "scenario.population"),
    ("repro.measurement.export", "write_segment_file", "export.framed"),
    ("repro.measurement.columnar", "write_sidecar", "export.sidecar"),
    ("repro.measurement.columnar", "file_fingerprint", "export.fingerprint"),
    ("repro.measurement.columnar", "load_sidecar", "columnar.load"),
    ("repro.telemetry.report", "build_run_manifest", "telemetry.manifest"),
    ("repro.simulation.dataset", "StudyDataset.digest", "dataset.digest"),
    ("repro.simulation.dataset", "StudyDataset.merge", "parallel.merge"),
    ("repro.core.study", "diminishing_returns", "analysis.fig1"),
    ("repro.core.study", "nth_closest_distance_cdf", "analysis.fig2"),
    ("repro.core.study", "anycast_penalty_ccdf", "analysis.fig3"),
    ("repro.core.study", "anycast_distance_cdf", "analysis.fig4"),
    ("repro.core.study", "poor_path_prevalence", "analysis.fig5"),
    ("repro.core.study", "poor_path_duration", "analysis.fig6"),
    ("repro.core.study", "frontend_affinity", "analysis.fig7"),
    ("repro.core.study", "switch_distance_cdf", "analysis.fig8"),
    ("repro.core.study", "evaluate_prediction", "analysis.fig9"),
    ("repro.core.study", "ldns_proximity", "analysis.side"),
    ("repro.core.study", "geolocation_artifacts", "analysis.side"),
    ("repro.core.study", "tcp_disruption", "analysis.side"),
    ("repro.core.study", "daily_switch_rate", "analysis.side"),
    ("repro.service.predictor", "OnlinePredictor.close_day", "service.close_day"),
    ("repro.service.ingest", "write_service_checkpoint", "service.checkpoint"),
)


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Seconds covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


class SpanLog:
    """Spans and per-unit values of one traced run.

    A unit is one timed set-up or pass; it holds a contiguous run of
    spans, its root first.  ``values`` recorded after a unit ends
    (figures read from the program's own telemetry) attach to the most
    recent unit.
    """

    def __init__(self) -> None:
        #: [name, start, end, parent index or None]
        self.spans: List[List[Any]] = []
        self.units: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._gc_started: Optional[float] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a region, nested under the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.monotonic()

    @contextmanager
    def unit(self, kind: str) -> Iterator[None]:
        """One traced set-up or pass: wrappers and GC timing on inside."""
        unit = {
            "kind": kind,
            "first": len(self.spans),
            "last": None,
            "values": {},
            "gc_s": 0.0,
            "gc_collections": 0,
        }
        self.units.append(unit)
        patches = []
        for module_name, attribute, name in WRAPPED:
            owner, attr = _resolve(module_name, attribute)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name))
            patches.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)
        try:
            with self.span(kind):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            unit["last"] = len(self.spans)

    def _wrapper(self, original: Any, name: str) -> Any:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        return traced

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.monotonic()
        elif self._gc_started is not None:
            unit = self.units[-1]
            unit["gc_s"] += time.monotonic() - self._gc_started
            unit["gc_collections"] += 1
            self._gc_started = None

    def record(self, name: str, value: float) -> None:
        """Attach a value read from the program to the latest unit."""
        self.units[-1]["values"][name] = value

    def adopt(self, parent: str, slices: Iterable[Tuple[str, float, float]]) -> None:
        """Add finished ``(name, start, end)`` slices of the program's
        trace as children of the latest unit's last span named
        ``parent``, clipped to it."""
        unit = self.units[-1]
        index = max(
            i for i in self.unit_spans(unit) if self.spans[i][0] == parent
        )
        _, low, high, _ = self.spans[index]
        for name, start, end in slices:
            start, end = max(start, low), min(end, high)
            if end > start:
                self.spans.append([name, start, end, index])
        unit["last"] = len(self.spans)

    # ------------------------------------------------------------------

    def unit_spans(self, unit: Dict[str, Any]) -> range:
        """Indices of the spans a unit holds, its root first."""
        return range(unit["first"], unit["last"])

    def _children(self, unit: Dict[str, Any]) -> Dict[int, List[Tuple[float, float]]]:
        children: Dict[int, List[Tuple[float, float]]] = {}
        for index in self.unit_spans(unit):
            _, start, end, parent = self.spans[index]
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        return children

    def unit_totals(self, unit: Dict[str, Any]) -> Dict[str, Tuple[float, float]]:
        """Span name -> (total seconds, self seconds) within a unit.  A
        span's self time is its time minus the union of its children's,
        since children may overlap (concurrent tasks, worker attempts)."""
        children = self._children(unit)
        totals: Dict[str, Tuple[float, float]] = {}
        for index in self.unit_spans(unit):
            name, start, end, _ = self.spans[index]
            total, own = totals.get(name, (0.0, 0.0))
            seconds = end - start
            covered = union_seconds(children.get(index, ()))
            totals[name] = (total + seconds, own + seconds - covered)
        return totals

    def coverage(self, units: List[Dict[str, Any]]) -> Dict[str, float]:
        """Share of the time of the units' roots, and of each span
        directly under a root, that child spans cover, keyed by span name
        and summed over the units (as ``SpanTracker.coverage`` sums a
        path's entries).  A top-level span's children are the layers it
        calls into, so its uncovered share is time no layer owns."""
        covered: Dict[str, float] = {}
        total: Dict[str, float] = {}
        for unit in units:
            children = self._children(unit)
            root = unit["first"]
            for index in self.unit_spans(unit):
                name, start, end, parent = self.spans[index]
                if index == root or parent == root:
                    covered[name] = covered.get(name, 0.0) + union_seconds(children.get(index, ()))
                    total[name] = total.get(name, 0.0) + end - start
        return {
            name: covered[name] / seconds if seconds > 0 else 1.0
            for name, seconds in total.items()
        }

    def medians(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-unit span totals and self times, as medians over the
        units that hold the span."""
        totals: Dict[str, List[float]] = {}
        selfs: Dict[str, List[float]] = {}
        for unit in self.units:
            for name, (total, own) in self.unit_totals(unit).items():
                totals.setdefault(name, []).append(total)
                selfs.setdefault(name, []).append(own)
        return (
            {name: statistics.median(v) for name, v in totals.items()},
            {name: statistics.median(v) for name, v in selfs.items()},
        )

    def value_medians(self) -> Dict[str, float]:
        """Recorded values, as medians over the units that hold them."""
        values: Dict[str, List[float]] = {}
        for unit in self.units:
            for name, value in unit["values"].items():
                values.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in values.items()}

    def to_obj(self) -> Dict[str, Any]:
        """The spans and units, for writing out at the end of a run."""
        return {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "units": self.units,
        }
