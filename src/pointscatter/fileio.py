"""On-disk formats: ASCII PLY clouds, PGM/PPM images, JSON artifacts.

Floats written to PLY use repr-shortest formatting, so a write/read
round trip reproduces the array values exactly and identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .boxes import OrientedBox
from .checks import _entries
from .scatter import ScatterCloud


def _float_strs(column) -> list[str]:
    """repr-shortest strings of a float column, one ``repr`` per distinct bit pattern.

    Keying on bits rather than on ``==`` keeps ``-0.0`` apart from ``0.0``.
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    strs = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return strs[inverse].tolist()


def _int_strs(column):
    return map(str, np.asarray(column, dtype=np.int64).tolist())


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
_FORMATS = {"double": _float_strs, "int": _int_strs}


def _ply_properties(cloud: ScatterCloud):
    """``(name, type, values)`` of each vertex property of ``cloud``, in file order."""
    for field, names, kind in _PLY_COLUMNS:
        column = getattr(cloud, field)
        if column is None:
            continue
        table = column if column.ndim == 2 else column[:, None]
        for j, name in enumerate(names or (f"f{c}" for c in range(table.shape[1]))):
            yield name, kind, table[:, j]


def write_cloud_ply(cloud: ScatterCloud, path, rows: list[str] | None = None) -> list[str]:
    """ASCII PLY with provenance properties per vertex; returns the vertex rows.

    Writes the properties of ``_PLY_COLUMNS`` for every column the
    cloud carries. ``rows``, when given, are the cloud's vertex lines as
    an earlier call returned them (for a subset cloud, the matching
    subset of those lines), and are written as they are.
    """
    n = len(cloud)
    props = list(_ply_properties(cloud))
    header = ["ply", "format ascii 1.0", "comment multi-view scatter cloud", f"element vertex {n}"]
    header += [f"property {kind} {name}" for name, kind, _ in props]
    header.append("end_header")
    if rows is None:
        rows = list(map(" ".join, zip(*(_FORMATS[kind](values) for _, kind, values in props))))
    elif len(rows) != n:
        raise ValueError(f"{len(rows)} rows given for a cloud of {n} points")
    with open(path, "w") as f:
        f.write("\n".join(header + rows) + "\n")
    return rows


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
