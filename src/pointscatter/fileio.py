"""On-disk formats: ASCII PLY clouds, PGM/PPM images, JSON artifacts.

Floats written to PLY use repr-shortest formatting, so a write/read
round trip reproduces the array values exactly and identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .boxes import OrientedBox
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


def write_cloud_ply(cloud: ScatterCloud, path, rows: list[str] | None = None) -> list[str]:
    """ASCII PLY with provenance properties per vertex; returns the vertex rows.

    Always writes x/y/z, source frame, category and the source pixel;
    a ``score`` property and ``f<i>`` feature properties appear when the
    cloud carries them. ``rows``, when given, are the cloud's vertex
    lines as an earlier call returned them (for a subset cloud, the
    matching subset of those lines), and are written as they are.
    """
    n = len(cloud)
    channels = 0 if cloud.features is None else cloud.features.shape[1]
    lines = [
        "ply",
        "format ascii 1.0",
        "comment multi-view scatter cloud",
        f"element vertex {n}",
        "property double x",
        "property double y",
        "property double z",
        "property int frame",
        "property int category",
        "property double pu",
        "property double pv",
    ]
    if cloud.scores is not None:
        lines.append("property double score")
    for c in range(channels):
        lines.append(f"property double f{c}")
    lines.append("end_header")
    if rows is None:
        columns = [_float_strs(cloud.positions[:, j]) for j in range(3)]
        columns += [_int_strs(cloud.frame_ids), _int_strs(cloud.categories)]
        columns += [_float_strs(cloud.pixels[:, j]) for j in range(2)]
        if cloud.scores is not None:
            columns.append(_float_strs(cloud.scores))
        columns += [_float_strs(cloud.features[:, c]) for c in range(channels)]
        rows = list(map(" ".join, zip(*columns)))
    elif len(rows) != n:
        raise ValueError(f"{len(rows)} rows given for a cloud of {n} points")
    with open(path, "w") as f:
        f.write("\n".join(lines + rows) + "\n")
    return rows


def read_cloud_ply(path) -> ScatterCloud:
    """Read a cloud written by :func:`write_cloud_ply`."""
    with open(path) as f:
        if f.readline().strip() != "ply":
            raise ValueError(f"{path} is not a PLY file")
        n = None
        props: list[str] = []
        for line in f:
            token = line.strip()
            if token == "end_header":
                break
            parts = token.split()
            if parts[:2] == ["element", "vertex"]:
                n = int(parts[2])
            elif parts[0] == "property":
                props.append(parts[2])
        if n is None:
            raise ValueError("PLY header lacks a vertex element")
        required = ["x", "y", "z", "frame", "category", "pu", "pv"]
        for name in required:
            if name not in props:
                raise ValueError(f"PLY missing property {name}")
        col = {name: i for i, name in enumerate(props)}
        feature_names = sorted(
            (p for p in props if p.startswith("f") and p[1:].isdigit()),
            key=lambda p: int(p[1:]),
        )
        rows = []
        for _ in range(n):
            rows.append(f.readline().split())
    data = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(props)))
    cloud = ScatterCloud(
        positions=data[:, [col["x"], col["y"], col["z"]]],
        frame_ids=data[:, col["frame"]].astype(np.int64),
        pixels=data[:, [col["pu"], col["pv"]]],
        categories=data[:, col["category"]].astype(np.int64),
        features=data[:, [col[p] for p in feature_names]] if feature_names else None,
        scores=data[:, col["score"]] if "score" in col else None,
    )
    return cloud


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
    return [
        OrientedBox(
            center=tuple(d["center"]),
            size=tuple(d["size"]),
            yaw=float(d.get("yaw", 0.0)),
            category=int(d.get("category", 0)),
            score=float(d.get("score", 1.0)),
        )
        for d in items
    ]


def write_detections(boxes, path) -> None:
    with open(path, "w") as f:
        json.dump(boxes_to_list(boxes), f, indent=2, sort_keys=True)
        f.write("\n")


def read_detections(path) -> list[OrientedBox]:
    with open(path) as f:
        return boxes_from_list(json.load(f))


def write_json(data: dict, path) -> None:
    """Canonical JSON: sorted keys, fixed indentation, trailing newline."""
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
