"""On-disk formats: ASCII PLY clouds, PGM/PPM images, JSON artifacts.

Floats written to PLY use repr-shortest formatting, so a write/read
round trip reproduces the array values exactly and identical inputs
produce identical bytes. A cloud's vertex rows are formatted and
written in fixed blocks of rows, and one pass can write both a cloud's
PLY and the PLY of an ascending subset of its points from the same
formatted rows, so no whole file's text is ever held in memory.
"""

from __future__ import annotations

import json
from contextlib import ExitStack

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
# vertex rows formatted per write: a block's strings are all the PLY
# writer holds at once
_BLOCK_ROWS = 1024


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
    lines = ["ply", "format ascii 1.0", "comment multi-view scatter cloud", f"element vertex {n}"]
    lines += [f"property {kind} {name}" for name, kind, _ in props]
    lines.append("end_header")
    return "\n".join(lines) + "\n"


def _ascending_indices(subset, n: int) -> np.ndarray:
    """``subset`` as int64 after checking it is strictly ascending within ``[0, n)``."""
    subset = np.asarray(subset)
    if subset.ndim != 1 or (len(subset) and subset.dtype.kind not in "iu"):
        raise ValueError("subset must be a 1D integer index array")
    subset = subset.astype(np.int64)
    if len(subset) and (subset[0] < 0 or subset[-1] >= n or np.any(np.diff(subset) <= 0)):
        raise ValueError(f"subset must be strictly ascending indices in [0, {n})")
    return subset


def write_cloud_ply(cloud: ScatterCloud, path, subset=None, subset_path=None) -> None:
    """ASCII PLY with provenance properties per vertex.

    Writes the properties of ``_PLY_COLUMNS`` for every column the
    cloud carries. The vertex rows are formatted and written
    ``_BLOCK_ROWS`` at a time, so the writer holds one block's strings,
    not the file's. With ``subset``, strictly ascending indices into the
    cloud, it also writes the PLY of ``cloud.select(subset)`` to
    ``subset_path`` from the same formatted rows, in the same pass. A bad
    ``subset`` raises ``ValueError`` before any file is created.
    """
    n = len(cloud)
    if (subset is None) != (subset_path is None):
        raise ValueError("subset and subset_path must be given together")
    targets = [(path, None)]
    if subset is not None:
        targets.append((subset_path, _ascending_indices(subset, n)))
    props = list(_ply_properties(cloud))
    with ExitStack() as stack:
        files = [(stack.enter_context(open(p, "w")), indices) for p, indices in targets]
        for f, indices in files:
            f.write(_ply_header(props, n if indices is None else len(indices)))
        for start in range(0, n, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = [
                " ".join(row) + "\n"
                for row in zip(*(_FORMATS[kind](values[start:stop]) for _, kind, values in props))
            ]
            for f, indices in files:
                if indices is None:
                    f.writelines(block)
                else:
                    lo, hi = np.searchsorted(indices, [start, stop])
                    f.writelines(block[i - start] for i in indices[lo:hi].tolist())


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
