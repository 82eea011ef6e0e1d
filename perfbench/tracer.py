"""Spans and counters recorded from outside the isochron package.

A :class:`Tracer` replaces the public functions of ``model``, ``engine``,
``poincare``, ``sweep``, ``regions`` and ``cli`` with wrappers, in every
module that looks the name up (a function imported by name is a separate
binding in the importing module).  Wrappers around layer boundaries record a
span (name, start, end, parent) into flat in-memory arrays; the hottest
calls (``jump_m``, ``init_engine``, ``states_match``, ``pulse_equivalent``)
only bump a counter, because a span per call would distort the run it
measures.  Engine work is counted through ``Engine.events_processed``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
from array import array
from time import perf_counter

import numpy as np

# The modules that look each wrapped name up.
_JUMP_M = ("isochron.model", "isochron.engine")
_INIT_ENGINE = ("isochron.engine", "isochron.poincare", "isochron.sweep", "isochron.cli")
_DETECT = ("isochron.poincare", "isochron.sweep", "isochron.regions", "isochron.cli")
_STATES_MATCH = ("isochron.poincare", "isochron.sweep")
_SIGNATURE = ("isochron.poincare", "isochron.sweep", "isochron.regions", "isochron.cli")
_POINCARE_MAP = ("isochron.poincare", "isochron.sweep", "isochron.regions", "isochron.cli")
_SWEEP_ENTRY = ("isochron.sweep", "isochron.cli")
_WRITERS = (
    "write_phase_scan_csv",
    "write_phase_scan_json",
    "write_param_scan_csv",
    "write_param_scan_json",
    "write_projection_csv",
    "write_projection_json",
)
_REGION_VOLUME = ("isochron.regions", "isochron.sweep", "isochron.cli")
_SAMPLER = ("isochron.regions", "isochron.sweep", "isochron.cli")

#: Counters kept outside the spans; with the span counts they are
#: identical on every run of the same inputs.
COUNTS = (
    "model.jump_m.calls",
    "engine.init.calls",
    "engine.section_returns",
    "engine.events",
    "poincare.states_match.calls",
    "sweep.intern.compares",
    "sweep.write.bytes",
    "regions.vertex_enum.subsets",
    "regions.vertex_enum.vertices",
    "regions.hull.calls",
    "regions.membership_many.rows",
    "regions.sampler.rows",
    "regions.sampler.accepted",
)


class Tracer:
    """Install wrappers, record spans and counts, derive per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _timed(self, name_id: int, fn, args, kwargs):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1])
        self.span_end.append(math.nan)
        self._open.append(idx)
        self.span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self._open.pop()

    def _in_span(self, name: str) -> bool:
        parent = self._open[-1]
        return parent >= 0 and self.names[self.span_name[parent]] == name

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name_id, fn, args, kwargs)

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _engine_run(self, name: str, fn, section: bool):
        name_id = self._name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            before = engine.events_processed
            try:
                return self._timed(name_id, fn, (engine, *args), kwargs)
            finally:
                counts["engine.events"] += engine.events_processed - before
                if section:
                    counts["engine.section_returns"] += 1

        return wrapper

    def _writer(self, fn):
        name_id = self._name_id("sweep.write")

        @functools.wraps(fn)
        def wrapper(result, path, *args, **kwargs):
            out = self._timed(name_id, fn, (result, path, *args), kwargs)
            self.counts["sweep.write.bytes"] += os.path.getsize(path)
            return out

        return wrapper

    def _region_volume(self, fn):
        exact_id = self._name_id("regions.volume.exact")
        mc_id = self._name_id("regions.montecarlo")

        @functools.wraps(fn)
        def wrapper(spec, method="exact", *args, **kwargs):
            if method != "exact":
                return self._timed(mc_id, fn, (spec, method, *args), kwargs)
            report = self._timed(exact_id, fn, (spec, method, *args), kwargs)
            halfspaces = len(spec.orderings) + 2 * len(spec.functionals)
            self.counts["regions.vertex_enum.subsets"] += math.comb(halfspaces, spec.dim)
            self.counts["regions.vertex_enum.vertices"] += report.vertex_count or 0
            return report

        return wrapper

    def _membership_many(self, fn):
        name_id = self._name_id("regions.membership_many")

        @functools.wraps(fn)
        def wrapper(spec, sigmas, *args, **kwargs):
            in_sampler = self._in_span("regions.sampler")
            mask = self._timed(name_id, fn, (spec, sigmas, *args), kwargs)
            self.counts["regions.membership_many.rows"] += len(mask)
            if in_sampler:
                self.counts["regions.sampler.rows"] += len(mask)
                self.counts["regions.sampler.accepted"] += int(np.count_nonzero(mask))
            return mask

        return wrapper

    def _hull(self, cls):
        name_id = self._name_id("regions.hull")

        def wrapper(*args, **kwargs):
            self.counts["regions.hull.calls"] += 1
            return self._timed(name_id, cls, args, kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module_names, attr: str, make) -> None:
        """Replace ``attr`` in each module by one wrapper of the original."""
        modules = [importlib.import_module(m) for m in module_names]
        original = getattr(modules[0], attr)
        wrapped = make(original)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {module_names[0]}.{attr}")
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapped)

    def install(self) -> None:
        from isochron.engine import Engine

        self._patch(_JUMP_M, "jump_m", lambda f: self._counter("model.jump_m.calls", f))
        self._patch(_INIT_ENGINE, "init_engine", lambda f: self._counter("engine.init.calls", f))
        for method, section in (("run_until_section", True), ("simulate", False)):
            self._patches.append((Engine, method, getattr(Engine, method)))
            setattr(Engine, method, self._engine_run("engine.run", getattr(Engine, method), section))
        self._patch(_DETECT, "detect_periodicity", lambda f: self._span("poincare.detect", f))
        self._patch(
            _STATES_MATCH, "states_match", lambda f: self._counter("poincare.states_match.calls", f)
        )
        self._patch(_SIGNATURE, "pulse_signature", lambda f: self._span("poincare.signature", f))
        self._patch(_POINCARE_MAP, "poincare_map", lambda f: self._span("poincare.map", f))
        for name in ("phase_scan", "param_scan", "projection_compare", "stability_probe"):
            self._patch(_SWEEP_ENTRY, name, lambda f, n=name: self._span(f"sweep.{n}", f))
        self._patch(
            ("isochron.sweep",),
            "pulse_equivalent",
            lambda f: self._counter("sweep.intern.compares", f),
        )
        for name in _WRITERS:
            self._patch(_SWEEP_ENTRY, name, self._writer)
        self._patch(_REGION_VOLUME, "region_volume", self._region_volume)
        self._patch(("isochron.regions",), "membership_many", self._membership_many)
        self._patch(_SAMPLER, "sample_interior", lambda f: self._span("regions.sampler", f))
        self._patch(
            ("isochron.regions", "isochron.cli"),
            "region_oracle",
            lambda f: self._span("regions.oracle", f),
        )
        self._patch(("scipy.spatial",), "ConvexHull", self._hull)
        self._patch(("isochron.cli",), "main", lambda f: self._span("cli.main", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, dur, dur - child

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters."""
        names, dur, self_time = self._arrays()

        def pick(name: str) -> np.ndarray:
            if name not in self._name_ids:
                return np.zeros(len(names), dtype=bool)
            return names == self._name_ids[name]

        def total(name: str) -> float:
            return float(dur[pick(name)].sum())

        def own(name: str) -> float:
            return float(self_time[pick(name)].sum())

        def calls(name: str) -> int:
            return int(pick(name).sum())

        c = self.counts
        detect_ms = dur[pick("poincare.detect")] * 1e3
        engine_s = own("engine.run")
        m = {
            "model.jump_m.calls": c["model.jump_m.calls"],
            "engine.init.calls": c["engine.init.calls"],
            "engine.section_returns": c["engine.section_returns"],
            "engine.events": c["engine.events"],
            "engine.self_s": engine_s,
            "engine.events_per_s": _ratio(c["engine.events"], engine_s),
            "poincare.detect.calls": calls("poincare.detect"),
            "poincare.detect.self_s": own("poincare.detect"),
            "poincare.detect.p50_ms": _percentile(detect_ms, 50),
            "poincare.detect.p99_ms": _percentile(detect_ms, 99),
            "poincare.states_match.calls": c["poincare.states_match.calls"],
            "poincare.signature.calls": calls("poincare.signature"),
            "poincare.signature.self_s": own("poincare.signature"),
            "poincare.map.calls": calls("poincare.map"),
            "poincare.map.self_s": own("poincare.map"),
            "sweep.phase_scan.self_s": own("sweep.phase_scan"),
            "sweep.param_scan.self_s": own("sweep.param_scan"),
            "sweep.intern.compares": c["sweep.intern.compares"],
            "sweep.write.s": total("sweep.write"),
            "sweep.write.bytes": c["sweep.write.bytes"],
            "sweep.projection_compare.self_s": own("sweep.projection_compare"),
            "regions.vertex_enum.s": own("regions.volume.exact"),
            "regions.vertex_enum.subsets": c["regions.vertex_enum.subsets"],
            "regions.vertex_enum.vertices": c["regions.vertex_enum.vertices"],
            "regions.vertex_enum.yield": _ratio(
                c["regions.vertex_enum.vertices"], c["regions.vertex_enum.subsets"]
            ),
            "regions.hull.calls": c["regions.hull.calls"],
            "regions.hull.s": total("regions.hull"),
            "regions.membership_many.rows": c["regions.membership_many.rows"],
            "regions.membership_many.s": total("regions.membership_many"),
            "regions.sampler.accept_ratio": _ratio(
                c["regions.sampler.accepted"], c["regions.sampler.rows"]
            ),
            "regions.montecarlo.s": total("regions.montecarlo"),
            "regions.oracle.s": total("regions.oracle"),
            "cli.self_s": own("cli.main"),
        }
        return {k: float(v) for k, v in m.items()}

    def deterministic_counts(self) -> dict[str, int]:
        """Every counter plus the number of spans of each name."""
        names = np.asarray(self.span_name, dtype=np.int64)
        spans = np.bincount(names, minlength=len(self.names))
        out = dict(self.counts)
        out.update({f"{n}.spans": int(k) for n, k in zip(self.names, spans)})
        return out

    def dump(self, path) -> None:
        """Write every span as parallel columns, times relative to the first."""
        start = np.asarray(self.span_start)
        origin = float(start[0]) if len(start) else 0.0
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": [round(t - origin, 9) for t in self.span_start],
            "end_s": [round(t - origin, 9) for t in self.span_end],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
