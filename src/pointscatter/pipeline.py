"""End-to-end pipeline: simulate, scatter, aggregate, filter, evaluate.

Stage order: GT 2D boxes -> keyframe selection -> render + depth
perturbation -> point scattering -> multi-view aggregation ->
photometric filtering -> voxelization -> oracle detection -> NMS ->
metrics. Every stage that consumes randomness derives its generator
from one root seed and a fixed stage label, so a run is reproducible
end to end and stages can be re-run in isolation.

A failed stage raises :class:`StageError` carrying the stage name;
malformed configuration raises :class:`ConfigError`. The CLI maps these
to exit codes 2 and 1.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .aggregate import aggregate_cloud, compose_features
from .boxes import OrientedBox, iou_3d, nms
from .fileio import write_cloud_ply, write_detections, write_json
from .meshes import box_shell, sample_surface_points
from .metrics import chamfer_fscore, evaluate_detections
# ScatterAccumulator is not called here; perfbench's tracer resolves
# ScatterAccumulator.add_frame through this module
from .scatter import ScatterAccumulator, ScatterConfig, cap_points, scatter_frames  # noqa: F401
from .scene import SceneSpec, make_frame, project_gt_boxes, select_keyframes
from .surface import label_points, photometric_score, sample_scene_surface, soft_weight
from .voxel import DenseGridSpec, sparsity_report, voxelize

logger = logging.getLogger(__name__)

# Dense-grid proposal count of the reference grid detector at 0.16 m,
# kept as benchmark metadata for context in sparsity reports.
GS_REFERENCE_PROPOSALS = 8192


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# per kind of config field: the test a value must pass and what it says
_KINDS = {
    "integer": (_is_integer, "an integer"),
    "count": (lambda v: _is_integer(v) and v >= 1, "a positive integer"),
    "number": (_is_number, "a finite number"),
    "positive": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "non-negative": (lambda v: _is_number(v) and v >= 0, "a non-negative number"),
    "fraction": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
}


def _check(config, **kinds) -> None:
    """Raise :class:`ConfigError` for the first named field of ``config``
    whose value is not of its kind.

    A kind is a key of ``_KINDS``, or ``(kind, length)`` for a sequence
    of that many values of the kind, where a length of None asks for one
    or more.
    """
    for name, kind in kinds.items():
        value = getattr(config, name)
        if isinstance(kind, tuple):
            (test, what), length = _KINDS[kind[0]], kind[1]
            ok = (
                isinstance(value, (tuple, list))
                and (len(value) == length if length else len(value) > 0)
                and all(test(v) for v in value)
            )
            what = f"{length or 'one or more'} values, each {what}"
        else:
            test, what = _KINDS[kind]
            ok = test(value)
        if not ok:
            raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class DetectorConfig:
    # "gt_passthrough" emits the GT boxes; "score_cluster" boxes the
    # connected components of score-filtered points
    mode: str = "gt_passthrough"
    cluster_eps: float = 0.1
    min_cluster_points: int = 10
    score_threshold: float = 0.5

    def __post_init__(self):
        if self.mode not in ("gt_passthrough", "score_cluster"):
            raise ConfigError(f"unknown detector mode {self.mode!r}")
        _check(self, cluster_eps="positive", min_cluster_points="integer", score_threshold="number")


@dataclass(frozen=True)
class EvalSettings:
    iou_thresholds: tuple[float, ...] = (0.25, 0.5)
    # detections must overlap GT by more than this IoU to enter reconstruction metrics
    recon_iou: float = 0.25
    sample_count: int = 2048
    fscore_threshold: float = 0.004
    fscore_squared: bool = True
    # None means: derive the sampling generator from the pipeline seed
    rng_seed: int | None = None

    def __post_init__(self):
        _check(
            self,
            iou_thresholds=("fraction", None),
            recon_iou="fraction",
            sample_count="count",
            fscore_threshold="positive",
            fscore_squared="flag",
        )
        if self.rng_seed is not None:
            _check(self, rng_seed="integer")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    frames: int = 50
    depth_range: tuple[float, float] = (0.2, 6.4)
    min_translation: float = 0.1
    min_rotation_deg: float = 10.0
    scatter: ScatterConfig = field(default_factory=ScatterConfig)
    tau: float = 0.05
    k_sigma: float = 0.01
    # the pipeline masks occluded views during aggregation so photometric
    # scores measure consistency only over frames that actually saw the
    # point; the bare aggregation API keeps the check off
    occlusion_check: bool = True
    voxel_size: float = 0.04
    dense_voxel_size: float = 0.16
    bench_origin: tuple[float, float, float] = (-4.0, -4.0, 0.0)
    bench_extent: tuple[float, float, float] = (8.0, 8.0, 3.0)
    nms_iou: float = 0.01
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self):
        _check(
            self,
            seed="integer",
            frames="count",
            depth_range=("positive", 2),
            min_translation="non-negative",
            min_rotation_deg="non-negative",
            tau="positive",
            k_sigma="positive",
            occlusion_check="flag",
            voxel_size="positive",
            dense_voxel_size="positive",
            bench_origin=("number", 3),
            bench_extent=("positive", 3),
            nms_iou="fraction",
        )
        if not self.depth_range[0] < self.depth_range[1]:
            raise ConfigError(f"bad depth range {self.depth_range}")
        parts = {"scatter": ScatterConfig, "detector": DetectorConfig, "eval": EvalSettings}
        for name, kind in parts.items():
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            if "scatter" in data:
                data["scatter"] = ScatterConfig(**data["scatter"])
            if "detector" in data:
                data["detector"] = DetectorConfig(**data["detector"])
            if "eval" in data:
                ev = dict(data["eval"])
                if "iou_thresholds" in ev:
                    ev["iou_thresholds"] = tuple(ev["iou_thresholds"])
                data["eval"] = EvalSettings(**ev)
            for key in ("depth_range", "bench_origin", "bench_extent"):
                if key in data:
                    data[key] = tuple(data[key])
            return cls(**data)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e


def guarded(stage: str, fn, *args, **kwargs):
    """Call ``fn``; any failure other than a config or stage error becomes
    a :class:`StageError` naming ``stage``."""
    try:
        return fn(*args, **kwargs)
    except (ConfigError, StageError):
        raise
    except Exception as e:  # noqa: BLE001 - map to the failing stage
        raise StageError(stage, e) from e


def stage_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Generator for one stage: root seed split by a fixed stage label."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(label.encode()), index])


def _connected_components(points: np.ndarray, eps: float) -> list[np.ndarray]:
    """Index groups of points linked by distances <= eps, ordered by
    their smallest member, members ascending."""
    # loaded on first use: csgraph adds about 17 ms to the import of the
    # package, and only the cluster detector needs it
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(points)
    i, j = cKDTree(points).query_pairs(eps, output_type="ndarray").T
    _, labels = connected_components(
        coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)), directed=False
    )
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(groups, key=lambda g: g[0])


def _cluster_detections(cloud, config: DetectorConfig) -> list[OrientedBox]:
    """Axis-aligned boxes around connected clusters of kept points."""
    if cloud.scores is None:
        raise ValueError("cluster detector needs per-point scores")
    keep = np.where(cloud.scores >= config.score_threshold)[0]
    if len(keep) == 0:
        return []
    pts = cloud.positions[keep]
    cats = cloud.categories[keep]
    scores = cloud.scores[keep]
    detections = []
    for group in _connected_components(pts, config.cluster_eps):
        if len(group) < config.min_cluster_points:
            continue
        sub = pts[group]
        lo, hi = sub.min(axis=0), sub.max(axis=0)
        size = np.maximum(hi - lo, 1e-3)
        values, counts = np.unique(cats[group], return_counts=True)
        category = int(values[counts.argmax()])
        detections.append(
            OrientedBox(
                center=tuple((lo + hi) / 2.0),
                size=tuple(size),
                yaw=0.0,
                category=category,
                score=float(scores[group].mean()),
            )
        )
    # deterministic order regardless of hash/group iteration order
    detections.sort(key=lambda b: (-b.score, b.center))
    return detections


def _reconstruction_metrics(detections, gt_objects, settings: EvalSettings, seed: int):
    """Chamfer/F-score of detection shells vs matched GT shells.

    Only detections whose best same-category IoU is more than
    ``recon_iou`` participate; returns (None, None) when none qualifies.
    """
    pairs = []
    for det in detections:
        best = None
        best_iou = 0.0
        for obj in gt_objects:
            if obj.box.category != det.category:
                continue
            iou = iou_3d(det, obj.box)
            if iou > best_iou:
                best_iou = iou
                best = obj
        if best is not None and best_iou > settings.recon_iou:
            pairs.append((det, best))
    if not pairs:
        return None, None
    if settings.rng_seed is not None:
        seed = settings.rng_seed
    chamfers = []
    fscores = []
    for k, (det, obj) in enumerate(pairs):
        rng = stage_rng(seed, "evalsample", k)
        gt_pts = sample_surface_points(obj.mesh(), settings.sample_count, rng)
        det_pts = sample_surface_points(box_shell(det), settings.sample_count, rng)
        chamfer, f_val = chamfer_fscore(
            gt_pts, det_pts, settings.fscore_threshold, settings.fscore_squared
        )
        chamfers.append(chamfer)
        fscores.append(f_val)
    return float(np.mean(chamfers)), float(np.mean(fscores))


def evaluate(detections, scene: SceneSpec, config: PipelineConfig) -> dict:
    """Score detections against the scene's objects.

    Returns the report entries ``per_category``, ``mean``, ``chamfer``
    and ``fscore``; the last two are None when no detection overlaps a
    ground-truth box of its category by more than ``recon_iou``.
    """
    gt_boxes = [o.box for o in scene.objects]
    detection_metrics = evaluate_detections(detections, gt_boxes, config.eval.iou_thresholds)
    chamfer, f_val = _reconstruction_metrics(detections, scene.objects, config.eval, config.seed)
    return {
        "per_category": detection_metrics["per_category"],
        "mean": detection_metrics["mean"],
        "chamfer": chamfer,
        "fscore": f_val,
    }


def _keyframes(scene: SceneSpec, config: PipelineConfig):
    """Selected camera indices and the GT 2D boxes of every camera."""
    boxes = [project_gt_boxes(scene, i) for i in range(len(scene.cameras))]
    poses = [c.pose for c in scene.cameras]
    counts = [len(b) for b in boxes]
    keyframes = select_keyframes(
        poses, counts, config.frames, config.min_translation, config.min_rotation_deg
    )
    return keyframes, boxes


def _render(scene: SceneSpec, keyframes, boxes, config: PipelineConfig) -> list:
    return [
        make_frame(
            scene, i, stage_rng(scene.rng_seed, "perturb", i), config.depth_range, boxes[i]
        )
        for i in keyframes
    ]


def _scatter(frames, config: PipelineConfig):
    cloud = scatter_frames(frames, config.scatter)
    return cap_points(cloud, config.scatter.max_points, stage_rng(config.seed, "cap"))


@dataclass(frozen=True, eq=False)
class PipelineResult:
    report: dict
    cloud: object
    filtered_indices: np.ndarray
    detections: list
    keyframes: list
    frames: list
    grid: object
    sparsity: dict


def run_pipeline(scene: SceneSpec, config: PipelineConfig, output_dir=None) -> PipelineResult:
    """Run every stage on a scene; optionally write artifacts.

    With ``output_dir`` set, writes ``cloud_raw.ply``, ``cloud_filtered.ply``,
    ``detections.json``, ``metrics.json`` and ``sparsity.json``.
    """
    t0 = time.perf_counter()
    keyframes, boxes = guarded("keyframes", _keyframes, scene, config)
    logger.info("selected %d keyframes", len(keyframes))
    frames = guarded("render", _render, scene, keyframes, boxes, config)
    cloud = guarded("scatter", _scatter, frames, config)
    logger.info("scattered %d points", len(cloud))

    def _aggregate():
        means, variances, counts = aggregate_cloud(
            cloud, frames, config.occlusion_check, scene.depth_noise_sigma
        )
        num_cats = max(1, scene.num_categories())
        features = compose_features(means, variances, cloud.categories, num_cats)
        scores = photometric_score(variances, counts, config.k_sigma)
        weighted = soft_weight(features, scores, num_onehot=num_cats)
        return cloud.with_features(weighted).with_scores(scores)

    cloud = guarded("aggregate", _aggregate)

    def _filter_stats():
        if len(cloud) == 0:
            return np.zeros(0, dtype=np.int64), {
                "points_raw": 0,
                "points_filtered": 0,
                "outlier_fraction_raw": None,
                "outlier_fraction_filtered": None,
            }
        surface = sample_scene_surface(scene, config.tau, stage_rng(config.seed, "surface"))
        labeling = label_points(cloud.positions, surface, config.tau)
        kept = np.where(cloud.scores >= config.detector.score_threshold)[0]
        outlier_raw = 1.0 - labeling.inlier_fraction
        outlier_kept = (
            float(1.0 - labeling.labels[kept].mean()) if len(kept) else None
        )
        return kept, {
            "points_raw": int(len(cloud)),
            "points_filtered": int(len(kept)),
            "outlier_fraction_raw": float(outlier_raw),
            "outlier_fraction_filtered": outlier_kept,
        }

    filtered_indices, filter_stats = guarded("filter", _filter_stats)

    def _voxelize():
        grid = voxelize(cloud, config.voxel_size, config.bench_origin)
        dense = DenseGridSpec(config.bench_origin, config.bench_extent, config.voxel_size)
        sparsity = sparsity_report(cloud, grid, dense)
        sparsity["metadata"] = {
            "dense_voxel_size": config.dense_voxel_size,
            "gs_reference_proposals": GS_REFERENCE_PROPOSALS,
        }
        return grid, sparsity

    grid, sparsity = guarded("voxelize", _voxelize)

    def _detect():
        if config.detector.mode == "gt_passthrough":
            raw = [
                OrientedBox(o.box.center, o.box.size, o.box.yaw, o.box.category, score=1.0)
                for o in scene.objects
            ]
        else:
            raw = _cluster_detections(cloud, config.detector)
        return nms(raw, config.nms_iou)

    detections = guarded("detect", _detect)
    logger.info("%d detections after NMS", len(detections))

    report = guarded("evaluate", evaluate, detections, scene, config)
    report["filter"] = filter_stats
    report["config"] = config.to_dict()

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = write_cloud_ply(cloud, out / "cloud_raw.ply")
        write_cloud_ply(
            cloud.select(filtered_indices),
            out / "cloud_filtered.ply",
            rows=[rows[i] for i in filtered_indices.tolist()],
        )
        write_detections(detections, out / "detections.json")
        write_json(report, out / "metrics.json")
        write_json(sparsity, out / "sparsity.json")
        logger.info("artifacts written to %s", out)

    logger.info("pipeline finished in %.2fs", time.perf_counter() - t0)
    return PipelineResult(
        report=report,
        cloud=cloud,
        filtered_indices=filtered_indices,
        detections=detections,
        keyframes=keyframes,
        frames=frames,
        grid=grid,
        sparsity=sparsity,
    )


def run_sparsity_bench(scene: SceneSpec, config: PipelineConfig) -> dict:
    """Scatter-vs-dense storage benchmark over the configured bounds.

    Reports the sparsity of the scattered representation at
    ``voxel_size`` against dense grids at both ``voxel_size`` and the
    coarser ``dense_voxel_size`` reference, with build timings.
    """
    keyframes, boxes = guarded("keyframes", _keyframes, scene, config)
    t0 = time.perf_counter()
    frames = guarded("render", _render, scene, keyframes, boxes, config)
    t_render = time.perf_counter() - t0

    t0 = time.perf_counter()
    cloud = guarded("scatter", _scatter, frames, config)
    t_scatter = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = guarded("voxelize", voxelize, cloud, config.voxel_size, config.bench_origin)
    t_voxel = time.perf_counter() - t0

    def _report():
        fine = DenseGridSpec(config.bench_origin, config.bench_extent, config.voxel_size)
        coarse = DenseGridSpec(config.bench_origin, config.bench_extent, config.dense_voxel_size)
        report = sparsity_report(cloud, grid, fine)
        report["coarse_dense_cells"] = coarse.cell_count
        return report

    report = guarded("voxelize", _report)
    report["metadata"] = {
        "dense_voxel_size": config.dense_voxel_size,
        "gs_reference_proposals": GS_REFERENCE_PROPOSALS,
        "keyframes": len(keyframes),
        "timings_s": {
            "render": t_render,
            "scatter": t_scatter,
            "voxelize": t_voxel,
        },
    }
    return report
