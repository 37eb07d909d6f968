"""End-to-end pipeline: simulate, scatter, aggregate, filter, evaluate.

Stage order: GT 2D boxes -> keyframe selection -> render + depth
perturbation -> point scattering -> multi-view aggregation ->
photometric filtering -> voxelization -> detection (``gt_passthrough``
or ``score_cluster``) -> NMS -> metrics. Every stage that draws random
numbers derives its generator from one root seed and a fixed stage
label, so a run is reproducible and stages can be re-run in isolation.

How a run is measured is fixed, not configured, so every run's numbers
compare: the module constants below (the inlier distance, the sparsity
report's region and coarse cell, the reconstruction metrics' match IoU
and sample count), the AP IoU thresholds and F-score threshold that
``evaluate_detections`` and ``chamfer_fscore`` default to, and the
sensor's depth range, ``scene.DEPTH_RANGE``. The config holds the
method's settings only.

A failed stage raises :class:`StageError` carrying the stage name;
malformed configuration raises :class:`ConfigError`. The CLI maps these
to exit codes 2 and 1.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregate import aggregate_cloud, compose_features
from .boxes import OrientedBox, iou_3d, nms
from .checks import ConfigError, _check, _entry
from .fileio import write_cloud_ply, write_detections, write_json
from .meshes import box_shell, sample_surface_points
from .metrics import chamfer_fscore, evaluate_detections
from .neighbors import component_labels
from .scatter import ScatterConfig, cap_points, scatter_frames
from .scene import RayCaster, SceneSpec, make_frame, project_gt_boxes, project_scene, select_keyframes
from .surface import label_points, photometric_score, sample_scene_surface, soft_weight
from .voxel import dense_cell_count, sparsity_report, voxelize

logger = logging.getLogger(__name__)

# a point within TAU of the true surface is an inlier
TAU = 0.05
# the region the sparsity report grids, and its coarse reference cell
BENCH_ORIGIN = (-4.0, -4.0, 0.0)
BENCH_EXTENT = (8.0, 8.0, 3.0)
DENSE_VOXEL_SIZE = 0.16
# detections must overlap GT by more than this IoU to enter reconstruction
# metrics, which compare SAMPLE_COUNT surface samples of each shell
RECON_IOU = 0.25
SAMPLE_COUNT = 2048


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


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
        _check(self, cluster_eps="positive", min_cluster_points="count", score_threshold="number")


# the nested parts of a PipelineConfig, by field name
_PARTS = {"scatter": ScatterConfig, "detector": DetectorConfig}


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    frames: int = 50
    min_translation: float = 0.1
    min_rotation_deg: float = 10.0
    scatter: ScatterConfig = field(default_factory=ScatterConfig)
    k_sigma: float = 0.01
    voxel_size: float = 0.04
    nms_iou: float = 0.01
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self):
        _check(
            self,
            seed="integer",
            frames="count",
            min_translation="non-negative",
            min_rotation_deg="non-negative",
            k_sigma="positive",
            voxel_size="positive",
            nms_iou="fraction",
        )
        for name, kind in _PARTS.items():
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(_entry(data, "config", optional=[f.name for f in dataclasses.fields(cls)]))
        try:
            for name, part in _PARTS.items():
                if name in data:
                    known = [f.name for f in dataclasses.fields(part)]
                    data[name] = part(**_entry(data[name], name, optional=known))
            return cls(**data)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e


def guarded(stage: str, fn, *args, timings: dict | None = None):
    """Call ``fn`` as pipeline stage ``stage`` and log its wall time.

    Any failure other than a config or stage error becomes a
    :class:`StageError` naming ``stage``. With ``timings`` given, the
    wall time in seconds is also stored there under ``stage``.
    """
    start = time.perf_counter()
    try:
        result = fn(*args)
    except (ConfigError, StageError):
        raise
    except Exception as e:  # noqa: BLE001 - map to the failing stage
        raise StageError(stage, e) from e
    elapsed = time.perf_counter() - start
    logger.info("stage %s took %.3fs", stage, elapsed)
    if timings is not None:
        timings[stage] = elapsed
    return result


def stage_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Generator for one stage: root seed split by a fixed stage label."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(label.encode()), index])


def _connected_components(points: np.ndarray, eps: float, min_size: int) -> list[np.ndarray]:
    """Index groups of at least ``min_size`` points linked by distances
    <= eps, ordered by their smallest member, members ascending. Smaller
    groups are never split out."""
    labels = component_labels(points, eps)
    members = np.flatnonzero(np.bincount(labels)[labels] >= min_size)
    order = members[np.argsort(labels[members], kind="stable")]
    # each label is its group's smallest member, so the groups come in order
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(order) else []


def _cluster_detections(cloud, config: DetectorConfig) -> list[OrientedBox]:
    """Axis-aligned boxes around connected clusters of the given points,
    which the filter stage has already cut to those at or above the
    score threshold."""
    if len(cloud) == 0:
        return []
    pts, cats, scores = cloud.positions, cloud.categories, cloud.scores
    detections = []
    for group in _connected_components(pts, config.cluster_eps, config.min_cluster_points):
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


def _reconstruction_metrics(detections, gt_objects, seed: int):
    """Chamfer/F-score of detection shells vs matched GT shells.

    Only detections whose best same-category IoU is more than
    ``RECON_IOU`` participate; returns (None, None) when none qualifies.
    """
    pairs = []
    for det in detections:
        ious = [(iou_3d(det, o.box), o) for o in gt_objects if o.box.category == det.category]
        # the first of equal IoUs wins
        best_iou, best = max(ious, key=lambda pair: pair[0], default=(0.0, None))
        if best_iou > RECON_IOU:
            pairs.append((det, best))
    if not pairs:
        return None, None
    chamfers = []
    fscores = []
    for k, (det, obj) in enumerate(pairs):
        rng = stage_rng(seed, "evalsample", k)
        gt_pts = sample_surface_points(obj.mesh(), SAMPLE_COUNT, rng)
        det_pts = sample_surface_points(box_shell(det), SAMPLE_COUNT, rng)
        chamfer, f_val = chamfer_fscore(gt_pts, det_pts)
        chamfers.append(chamfer)
        fscores.append(f_val)
    return float(np.mean(chamfers)), float(np.mean(fscores))


def evaluate(detections, scene: SceneSpec, config: PipelineConfig) -> dict:
    """Score detections against the scene's objects.

    Returns the report entries ``per_category``, ``mean``, ``chamfer``
    and ``fscore``; the last two are None when no detection overlaps a
    ground-truth box of its category by more than ``RECON_IOU``. Of the
    config only the seed is read: it seeds the surface samples.
    """
    gt_boxes = [o.box for o in scene.objects]
    detection_metrics = evaluate_detections(detections, gt_boxes)
    chamfer, f_val = _reconstruction_metrics(detections, scene.objects, config.seed)
    return {
        "per_category": detection_metrics["per_category"],
        "mean": detection_metrics["mean"],
        "chamfer": chamfer,
        "fscore": f_val,
    }


def _keyframes(scene: SceneSpec, config: PipelineConfig):
    """Selected camera indices, the GT 2D boxes of every camera, and the
    scene's vertices projected into every camera, which the render
    stage reuses."""
    projection = project_scene(scene)
    boxes = project_gt_boxes(scene, projection)
    poses = [c.pose for c in scene.cameras]
    counts = [len(b) for b in boxes]
    keyframes = select_keyframes(
        poses, counts, config.frames, config.min_translation, config.min_rotation_deg
    )
    return keyframes, boxes, projection


def _render(scene: SceneSpec, keyframes, boxes, projection) -> list:
    caster = RayCaster(scene, keyframes, projection)
    return [
        make_frame(scene, i, stage_rng(scene.rng_seed, "perturb", i), boxes[i], caster)
        for i in keyframes
    ]


def _scatter(frames, config: PipelineConfig):
    cloud = scatter_frames(frames, config.scatter)
    return cap_points(cloud, config.scatter.max_points, stage_rng(config.seed, "cap"))


def _aggregate(cloud, frames, scene: SceneSpec, config: PipelineConfig):
    # occluded views are masked, so photometric scores measure consistency
    # only over the frames that saw the point
    means, variances, counts = aggregate_cloud(
        cloud, frames, occlusion_check=True, depth_sigma=scene.depth_noise_sigma
    )
    num_cats = max(1, scene.num_categories())
    features = compose_features(means, variances, cloud.categories, num_cats)
    scores = photometric_score(variances, counts, config.k_sigma)
    weighted = soft_weight(features, scores, num_onehot=num_cats)
    return dataclasses.replace(cloud, features=weighted, scores=scores)


def run_front(scene: SceneSpec, config: PipelineConfig, timings=None):
    """The stages the pipeline and the sparsity bench start with:
    keyframes, render, scatter and aggregate.

    Returns ``(keyframes, frames, cloud)``; ``timings`` is passed on to
    :func:`guarded`.
    """
    keyframes, boxes, projection = guarded("keyframes", _keyframes, scene, config, timings=timings)
    logger.info("selected %d keyframes", len(keyframes))
    frames = guarded("render", _render, scene, keyframes, boxes, projection, timings=timings)
    cloud = guarded("scatter", _scatter, frames, config, timings=timings)
    logger.info("scattered %d points", len(cloud))
    cloud = guarded("aggregate", _aggregate, cloud, frames, scene, config, timings=timings)
    return keyframes, frames, cloud


def _filter(cloud, scene: SceneSpec, config: PipelineConfig):
    """Indices of the points at or above the score threshold, and the
    outlier fractions before and after the cut."""
    if len(cloud) == 0:
        return np.zeros(0, dtype=np.int64), {
            "points_raw": 0,
            "points_filtered": 0,
            "outlier_fraction_raw": None,
            "outlier_fraction_filtered": None,
        }
    surface = sample_scene_surface(scene, TAU, stage_rng(config.seed, "surface"))
    labeling = label_points(cloud.positions, surface, TAU)
    kept = np.where(cloud.scores >= config.detector.score_threshold)[0]
    outlier_kept = float(1.0 - labeling.labels[kept].mean()) if len(kept) else None
    return kept, {
        "points_raw": int(len(cloud)),
        "points_filtered": int(len(kept)),
        "outlier_fraction_raw": float(1.0 - labeling.inlier_fraction),
        "outlier_fraction_filtered": outlier_kept,
    }


def _voxelize(cloud, config: PipelineConfig):
    """The occupied voxels' keys and their report against a dense grid
    of the same resolution over the bench region."""
    keys = voxelize(cloud.positions, config.voxel_size, BENCH_ORIGIN)
    dense_cells = dense_cell_count(BENCH_EXTENT, config.voxel_size)
    return keys, sparsity_report(cloud, len(keys), dense_cells, config.voxel_size)


def _detect(cloud, kept, scene: SceneSpec, config: PipelineConfig) -> list[OrientedBox]:
    if config.detector.mode == "gt_passthrough":
        raw = [
            OrientedBox(o.box.center, o.box.size, o.box.yaw, o.box.category, score=1.0)
            for o in scene.objects
        ]
    else:
        raw = _cluster_detections(cloud.select(kept), config.detector)
    return nms(raw, config.nms_iou)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    report: dict
    cloud: object
    filtered_indices: np.ndarray
    detections: list
    keyframes: list
    frames: list
    grid: np.ndarray
    sparsity: dict


def run_pipeline(scene: SceneSpec, config: PipelineConfig, output_dir=None) -> PipelineResult:
    """Run every stage on a scene; optionally write artifacts.

    With ``output_dir`` set, writes ``cloud_raw.ply``, ``cloud_filtered.ply``,
    ``detections.json``, ``metrics.json`` and ``sparsity.json``.
    """
    t0 = time.perf_counter()
    keyframes, frames, cloud = run_front(scene, config)
    filtered_indices, filter_stats = guarded("filter", _filter, cloud, scene, config)
    grid, sparsity = guarded("voxelize", _voxelize, cloud, config)
    detections = guarded("detect", _detect, cloud, filtered_indices, scene, config)
    logger.info("%d detections after NMS", len(detections))
    report = guarded("evaluate", evaluate, detections, scene, config)
    report["filter"] = filter_stats
    report["config"] = config.to_dict()

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_cloud_ply(cloud, out / "cloud_raw.ply")
        write_cloud_ply(cloud.select(filtered_indices), out / "cloud_filtered.ply")
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
    """Scatter-vs-dense storage benchmark over the bench region.

    Runs the front of :func:`run_pipeline`, so its report holds the
    entries of ``run``'s ``sparsity.json`` for the same cloud and
    features, plus the cell count of a dense grid at the coarser
    ``DENSE_VOXEL_SIZE`` reference and a ``metadata`` block: that
    reference, the keyframe count and the wall time of every stage it
    ran (keyframes, render, scatter, aggregate and voxelize).
    """
    timings = {}
    keyframes, _, cloud = run_front(scene, config, timings=timings)
    _, report = guarded("voxelize", _voxelize, cloud, config, timings=timings)
    report["coarse_dense_cells"] = dense_cell_count(BENCH_EXTENT, DENSE_VOXEL_SIZE)
    report["metadata"] = {
        "dense_voxel_size": DENSE_VOXEL_SIZE,
        "keyframes": len(keyframes),
        "timings_s": timings,
    }
    return report
