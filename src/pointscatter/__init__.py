"""Multi-view point scattering for 3D detection on synthetic scenes.

The package turns posed depth/color frames into a sparse world-space
point cloud (scattering), aggregates per-view color statistics into
point features, filters points by photometric consistency, counts the
cloud's occupied voxels, and scores detections with AP / Chamfer /
F-score metrics. A deterministic scene simulator provides the frames.

The package namespace re-exports nothing: callers import the modules
directly, e.g. ``from pointscatter.pipeline import run_pipeline``.
"""
