"""On-disk formats: binary PLY clouds, PGM/PPM images, JSON artifacts.

A cloud PLY is binary little-endian: each vertex is one packed row of
its properties, 8 bytes per double and 4 per int, in the same byte
order on every host. A write/read round trip therefore gives every
column back bit for bit, and identical inputs give identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .boxes import OrientedBox
from .checks import _entries
from .scatter import ScatterCloud


# The vertex properties of a cloud PLY, in file order: the cloud field,
# the property name of each of its columns and their PLY type. A field
# the cloud does not carry writes nothing; the feature columns are
# named f0, f1, ... by channel.
_PLY_COLUMNS = (
    ("positions", ("x", "y", "z"), "double"),
    ("frame_ids", ("frame",), "int"),
    ("categories", ("category",), "int"),
    ("pixels", ("pu", "pv"), "double"),
    ("scores", ("score",), "double"),
    ("features", None, "double"),
)


def _ply_properties(cloud: ScatterCloud):
    """``(name, type, values)`` of each vertex property of ``cloud``, in file order."""
    for field, names, kind in _PLY_COLUMNS:
        column = getattr(cloud, field)
        if column is None:
            continue
        table = column if column.ndim == 2 else column[:, None]
        for j, name in enumerate(names or (f"f{c}" for c in range(table.shape[1]))):
            yield name, kind, table[:, j]


def _ply_header(props, n: int) -> str:
    lines = ["ply", "format binary_little_endian 1.0", "comment multi-view scatter cloud"]
    lines.append(f"element vertex {n}")
    lines += [f"property {kind} {name}" for name, kind, _ in props]
    lines.append("end_header")
    return "\n".join(lines) + "\n"


def write_cloud_ply(cloud: ScatterCloud, path) -> None:
    """Binary little-endian PLY with provenance properties per vertex.

    Writes the properties of ``_PLY_COLUMNS`` for every column the
    cloud carries. The vertex rows are one packed table (``<f8`` per
    double, ``<i4`` per int), so the writer holds a copy of the cloud
    as large as the file's body: 128 bytes a point for a pipeline
    cloud, whose features have nine channels.
    """
    props = list(_ply_properties(cloud))
    dtype = [(name, "<f8" if kind == "double" else "<i4") for name, kind, _ in props]
    rows = np.empty(len(cloud), dtype=dtype)
    for name, _, values in props:
        rows[name] = values
    with open(path, "wb") as f:
        f.write(_ply_header(props, len(cloud)).encode())
        rows.tofile(f)


def _write_rows(f, quant: np.ndarray) -> None:
    """One text line per row of a 2D integer array, space-separated."""
    f.writelines(" ".join(map(str, row)) + "\n" for row in quant.tolist())


def write_pgm(image: np.ndarray, path, max_value: float | None = None) -> None:
    """16-bit ASCII PGM of a scalar map (e.g. depth).

    Values are scaled so ``max_value`` (default: the array maximum) maps
    to 65535; the scale is recorded in a header comment.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM export needs a 2D map")
    peak = float(img.max()) if max_value is None else float(max_value)
    scale = 65535.0 / peak if peak > 0 else 0.0
    quant = np.clip(np.rint(img * scale), 0, 65535).astype(np.int64)
    h, w = img.shape
    with open(path, "w") as f:
        f.write(f"P2\n# scale: {scale!r} units per count\n{w} {h}\n65535\n")
        _write_rows(f, quant)


def write_ppm(image: np.ndarray, path) -> None:
    """8-bit ASCII PPM of a unit-range (H, W, 3) color image."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM export needs an (H, W, 3) image")
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.int64)
    h, w, _ = img.shape
    with open(path, "w") as f:
        f.write(f"P3\n{w} {h}\n255\n")
        _write_rows(f, quant.reshape(h, w * 3))


def boxes_to_list(boxes) -> list[dict]:
    return [
        {
            "center": list(b.center),
            "size": list(b.size),
            "yaw": b.yaw,
            "category": b.category,
            "score": b.score,
        }
        for b in boxes
    ]


def boxes_from_list(items) -> list[OrientedBox]:
    entries = _entries(items, "detections", "center", "size", optional=("yaw", "category", "score"))
    return [
        OrientedBox(d["center"], d["size"], d.get("yaw", 0.0), d.get("category", 0), d.get("score", 1.0))
        for d in entries
    ]


def write_detections(boxes, path) -> None:
    write_json(boxes_to_list(boxes), path)


def read_detections(path) -> list[OrientedBox]:
    with open(path) as f:
        return boxes_from_list(json.load(f))


def write_json(data, path) -> None:
    """Canonical JSON: sorted keys, fixed indentation, trailing newline."""
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
