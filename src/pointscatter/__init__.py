"""Multi-view point scattering for 3D detection on synthetic scenes.

The package turns posed depth/color frames into a sparse world-space
point cloud (scattering), aggregates per-view color statistics into
point features, filters points by photometric consistency, voxelizes
the result, and scores detections with standard AP / Chamfer / F-score
metrics. A deterministic scene simulator provides the frames.
"""

from .aggregate import aggregate_cloud, bilinear_sample, compose_features
from .boxes import (
    OrientedBox,
    box_corners,
    iou_3d,
    nms,
    wrap_angle,
)
from .camera import (
    Intrinsics,
    Pose,
    backproject_pixels,
    look_at_pose,
    project_points,
)
from .depth import (
    DepthBins,
    decode_depth,
    ordinal_loss,
    ordinal_loss_grad,
    probs_for_label,
)
from .metrics import (
    average_precision_11pt,
    chamfer_distance,
    chamfer_fscore,
    evaluate_detections,
    fscore,
    match_detections,
    recall_at,
)
from .pipeline import (
    ConfigError,
    DetectorConfig,
    EvalSettings,
    PipelineConfig,
    StageError,
    run_pipeline,
    run_sparsity_bench,
    stage_rng,
)
from .scatter import (
    ScatterAccumulator,
    ScatterCloud,
    ScatterConfig,
    box_sampling_stride,
    cap_points,
    scatter_frames,
)
from .scene import (
    Box2D,
    CameraFrame,
    SceneCamera,
    SceneObject,
    SceneSpec,
    demo_scene,
    load_scene,
    make_frame,
    orbit_trajectory,
    perturb_depth,
    project_gt_boxes,
    render,
    save_scene,
    select_keyframes,
)
from .surface import (
    SurfaceLabeling,
    focal_loss,
    focal_loss_grad,
    label_points,
    photometric_score,
    sample_scene_surface,
    soft_weight,
)
from .voxel import (
    DenseGridSpec,
    SparseVoxelGrid,
    sparsity_report,
    voxel_indices,
    voxelize,
)

__version__ = "0.1.0"
