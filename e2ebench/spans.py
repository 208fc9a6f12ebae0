"""In-memory spans around the program's layer entry points.

A :class:`Tracer` records one :class:`Span` per call of a wrapped
function: name, start, end, parent and request id, plus a few
attributes (``cached`` for artifact lookups, ``count`` for work done).
Nothing is written until the run ends; :func:`summarise` then folds the
spans into per-name and per-path totals.

Self time is a span's duration minus the part of its interval that its
child spans cover, so the self times of all spans plus the time outside
any root span add up to the traced wall time.

:func:`install` wraps the public entry points listed in :data:`LAYERS`
by replacing them on their defining module or class, and on every
already-imported ``repro`` module that bound the same object by name.
The program's source is not touched.  Functions called once per item
(``PrefetchingFetchUnit.fetch``, ``decode_fast``, ``read_bit``) are not
wrapped: their cost is the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread, in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str, request: str | None = None, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        self.spans.append(Span(name, self.clock(), parent=parent, request=request, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def wrap(self, name: str, function, request_of=None, on_result=None):
        """``function`` with every call recorded as a span called ``name``.

        A call made directly from inside a span of the same name (a
        recursive entry point such as ``result_to_dict``) is not a new span.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == name:
                return function(*args, **kwargs)
            request = request_of(*args, **kwargs) if request_of else None
            index = self.begin(name, request)
            try:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(self.spans[index], result)
                return result
            finally:
                self.end(index)

        traced.__wrapped_by_tracer__ = function
        return traced


# ----------------------------------------------------------------------
# Self time and aggregation
# ----------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def summarise(spans: list[Span]) -> dict:
    """Per-name totals and the nested path tree.

    Returns ``{"names": {name: stats}, "paths": {path: stats}, "root_s":
    seconds}`` where stats hold ``calls``, ``total_s``, ``self_s``,
    ``hits``, ``misses``, ``hit_self_s`` (self time of the spans marked
    ``cached``) and ``count`` (summed ``count`` attributes).
    ``root_s`` is the union of root spans, the traced time attributed
    to some layer.
    """
    own = self_times(spans)
    paths: list[tuple[str, ...]] = []
    for span in spans:
        parent_path = paths[span.parent] if span.parent is not None else ()
        paths.append(parent_path + (span.name,))

    def blank() -> dict:
        return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hit_self_s": 0.0, "hits": 0, "misses": 0, "count": 0}

    names: dict[str, dict] = {}
    tree: dict[tuple[str, ...], dict] = {}
    for span, path, self_s in zip(spans, paths, own):
        for bucket in (names.setdefault(span.name, blank()), tree.setdefault(path, blank())):
            bucket["calls"] += 1
            bucket["total_s"] += span.duration
            bucket["self_s"] += self_s
            bucket["count"] += span.attrs.get("count", 0)
            if "cached" in span.attrs:
                bucket["hits" if span.attrs["cached"] else "misses"] += 1
                bucket["hit_self_s"] += self_s if span.attrs["cached"] else 0.0
    roots = [(span.start, span.end) for span in spans if span.parent is None]
    lo = min((start for start, _ in roots), default=0.0)
    hi = max((end for _, end in roots), default=0.0)
    return {"names": names, "paths": tree, "root_s": covered(roots, lo, hi)}


def render_tree(paths: dict[tuple[str, ...], dict]) -> list[str]:
    """One line per span path, children indented under their parent."""
    lines = [f"{'span':<58} {'total_s':>9} {'self_s':>9} {'calls':>7} {'hit/miss':>9}"]
    for path in sorted(paths):
        stats = paths[path]
        label = "  " * (len(path) - 1) + path[-1]
        cache = f"{stats['hits']}/{stats['misses']}" if stats["hits"] or stats["misses"] else ""
        lines.append(
            f"{label:<58} {stats['total_s']:>9.3f} {stats['self_s']:>9.3f} "
            f"{stats['calls']:>7} {cache:>9}"
        )
    return lines


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _instructions(span: Span, result) -> None:
    span.attrs["count"] = result.instructions_executed


#: (span name, module, attribute path, on_result) for every wrapped entry point.
LAYERS = (
    ("workloads.load", "repro.workloads.suite", "load", None),
    ("isa.assemble", "repro.isa.assembler", "Assembler.assemble", None),
    ("isa.decode_program", "repro.isa.decoding", "decode_program", None),
    ("machine.run", "repro.machine.executor", "Machine.run", _instructions),
    ("compression.train_code_set", "repro.compression.multicode", "train_code_set", None),
    ("compression.merge_histograms", "repro.compression.histogram", "merge_histograms", None),
    ("compression.lzw_compress", "repro.compression.lzw", "lzw_compress", None),
    ("compression.lzw_decompress", "repro.compression.lzw", "lzw_decompress", None),
    ("compression.decode_lines", "repro.compression.huffman", "HuffmanCode.decode_lines", None),
    ("ccrp.compress", "repro.ccrp.compressor", "ProgramCompressor.compress", None),
    ("ccrp.lru_miss_curve", "repro.ccrp.stackdist", "lru_miss_curve", None),
    ("ccrp.refill_engine", "repro.ccrp.refill", "RefillEngine.__init__", None),
    ("cache.simulate_trace", "repro.cache.direct_mapped", "simulate_trace", None),
    ("cache.simulate_trace", "repro.cache.set_associative", "simulate_trace_associative", None),
    ("pipeline.replay_trace", "repro.pipeline.timeline", "replay_trace", None),
    ("prefetch.simulate_fetch_stream", "repro.prefetch.timeline", "simulate_fetch_stream", None),
    ("faults.blast_lzw", "repro.faults.checker", "blast_lzw", None),
    ("faults.blast_block_codec", "repro.faults.checker", "blast_block_codec", None),
    ("faults.refill_survey", "repro.faults.checker", "refill_survey", None),
    ("core.study.metrics", "repro.core.study", "ProgramStudy.metrics", None),
    ("experiments.render", "repro.experiments.export", "result_to_dict", None),
    ("experiments.render", "repro.experiments.export", "export_payload", None),
)


def _rebind(original, replacement) -> None:
    """Point every imported ``repro`` module's name for ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap_artifacts(tracer: Tracer) -> None:
    """``get_or_compute`` spans carry ``cached``; the compute callback is its own child span."""
    from repro.core.artifacts import ArtifactCache

    original = ArtifactCache.get_or_compute

    def get_or_compute(self, kind, compute, *key_parts):
        computed = []

        def traced_compute():
            computed.append(True)
            index = tracer.begin("core.artifacts.compute", kind=kind)
            try:
                return compute()
            finally:
                tracer.end(index)

        index = tracer.begin("core.artifacts.get_or_compute", kind=kind)
        try:
            return original(self, kind, traced_compute, *key_parts)
        finally:
            tracer.spans[index].attrs["cached"] = not computed
            tracer.end(index)

    ArtifactCache.get_or_compute = get_or_compute


def _wrap_experiments(tracer: Tracer) -> None:
    """One span per experiment (request id = its name); its result's ``render`` too."""
    from repro.experiments import runner

    def wrap_render(span: Span, result) -> None:
        cls = type(result)
        if not hasattr(cls.render, "__wrapped_by_tracer__"):
            cls.render = tracer.wrap("experiments.render", cls.render)

    for name, function in runner._registry().items():
        wrapped = tracer.wrap(
            f"experiments.{name}",
            function,
            request_of=lambda *a, _name=name, **k: _name,
            on_result=wrap_render,
        )
        _rebind(function, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` plus artifacts and experiments."""
    _wrap_experiments(tracer)
    for span_name, module_name, attribute, on_result in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, member)
        wrapped = tracer.wrap(span_name, original, on_result=on_result)
        if owner_name:
            setattr(owner, member, wrapped)
        else:
            _rebind(original, wrapped)
    _wrap_artifacts(tracer)
