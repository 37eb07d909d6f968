"""Outside-in tracer for the pipeline's module boundaries.

The tracer replaces the functions ``pointscatter.pipeline`` imports from
the other package modules (plus ``pointscatter.metrics.iou_3d`` and
``ScatterAccumulator.add_frame``) with wrappers that record one span per
call: name, start, end, parent span and invocation id. Spans stay in
memory until the run ends. Nothing inside the package changes; the
originals are put back by :meth:`Tracer.restore`.

Per-candidate calls such as ``SpatialHashGrid.has_neighbor_within`` are
deliberately not wrapped: at tens of thousands of calls per run the
wrapper cost would dwarf the work it measures.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (owner, attribute, layer metric). The owner is a module path or
# "module:Class". A missing owner or attribute records zero calls.
TARGETS = [
    ("pointscatter.pipeline", "project_gt_boxes", "scene.keyframes_s"),
    ("pointscatter.pipeline", "select_keyframes", "scene.keyframes_s"),
    ("pointscatter.pipeline", "make_frame", "scene.render_s"),
    ("pointscatter.pipeline:ScatterAccumulator", "add_frame", "scatter.s"),
    ("pointscatter.pipeline", "cap_points", "scatter.s"),
    ("pointscatter.pipeline", "aggregate_cloud", "aggregate.s"),
    ("pointscatter.pipeline", "compose_features", "aggregate.s"),
    ("pointscatter.pipeline", "sample_scene_surface", "surface.label_s"),
    ("pointscatter.pipeline", "label_points", "surface.label_s"),
    ("pointscatter.pipeline", "photometric_score", "surface.score_s"),
    ("pointscatter.pipeline", "soft_weight", "surface.score_s"),
    ("pointscatter.pipeline", "voxelize", "voxel.s"),
    ("pointscatter.pipeline", "sparsity_report", "voxel.s"),
    ("pointscatter.pipeline", "nms", "boxes.s"),
    ("pointscatter.pipeline", "iou_3d", "boxes.s"),
    ("pointscatter.metrics", "iou_3d", "boxes.s"),
    ("pointscatter.pipeline", "box_shell", "meshes.sample_s"),
    ("pointscatter.pipeline", "sample_surface_points", "meshes.sample_s"),
    ("pointscatter.pipeline", "evaluate_detections", "metrics.s"),
    ("pointscatter.pipeline", "chamfer_distance", "metrics.s"),
    ("pointscatter.pipeline", "fscore", "metrics.s"),
    ("pointscatter.pipeline", "boxes_to_list", "fileio.s"),
    ("pointscatter.pipeline", "write_cloud_ply", "fileio.s"),
    ("pointscatter.pipeline", "write_detections", "fileio.s"),
    ("pointscatter.pipeline", "write_json", "fileio.s"),
]
ROOT = "run_pipeline"
ROOT_LAYER = "pipeline.self_s"
TIME_LAYERS = sorted({layer for _, _, layer in TARGETS} | {ROOT_LAYER})


def span_name(owner: str, attr: str) -> str:
    """``module.attr`` or ``Class.attr``, e.g. ``pipeline.make_frame``."""
    return f"{owner.rpartition('.')[2].rpartition(':')[2]}.{attr}"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Span recorder; install wrappers, run invocations, then restore."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, invocation id]
        self.spans: list[list] = []
        self.layer_of: dict[str, str] = {ROOT: ROOT_LAYER}
        # return values of the current invocation, by span name
        self.returns: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        # index of the first span of each invocation
        self._starts: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for owner, attr, layer in TARGETS:
            target = _resolve(owner)
            original = getattr(target, attr, None) if target is not None else None
            name = span_name(owner, attr)
            if original is None or not callable(original):
                self.missing.append(name)
                continue
            self.layer_of[name] = layer
            setattr(target, attr, self._wrap(name, original))
            self._patched.append((target, attr, original))

    def restore(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, len(self._starts) - 1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self.returns[name].append(result)
        return result

    def run(self, fn, *args, **kwargs):
        """One traced invocation of ``fn`` as the root span."""
        self._starts.append(len(self.spans))
        self.returns.clear()
        return self._call(ROOT, fn, args, kwargs)

    def last_summary(self) -> tuple[float, dict[str, float], dict[str, int]]:
        """Root duration, self time per layer and call count per span name
        of the latest invocation."""
        first = self._starts[-1]
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(TIME_LAYERS, 0.0)
        calls = defaultdict(int)
        for offset, (name, start, end, _, _) in enumerate(spans):
            self_time[self.layer_of[name]] += (end - start) - child_time[first + offset]
            calls[name] += 1
        root = spans[0]
        return root[2] - root[1], self_time, dict(calls)

    def to_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "invocation": i}
            for n, s, e, p, i in self.spans
        ]
