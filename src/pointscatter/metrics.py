"""Detection and reconstruction metrics.

Detection quality uses greedy score-ordered matching and 11-point
interpolated average precision. Reconstruction quality uses symmetric
squared-distance Chamfer and an F-score on a 0-100 scale whose
inlier test is on squared distances.

The AP computation deliberately runs in plain Python floats with a
fixed reduction order (the 11 recall levels, ascending) so results are
reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .boxes import iou_3d
from .neighbors import mutual_nearest_sq


def match_detections(detections, ground_truths, iou_threshold: float) -> np.ndarray:
    """Greedy TP/FP flags for detections against unmatched ground truth.

    Detections are visited by descending score (ties: input order). Each
    one matches the unmatched GT with the highest IoU at or above the
    threshold (ties: lowest GT index) and becomes a TP; otherwise it is
    a FP. Returned flags align with the input detection order. Matching
    ignores categories; split inputs per category beforehand.
    """
    n = len(detections)
    flags = np.zeros(n, dtype=bool)
    order = sorted(range(n), key=lambda i: (-detections[i].score, i))
    taken = [False] * len(ground_truths)
    for i in order:
        best_iou = -1.0
        best_j = -1
        for j, gt in enumerate(ground_truths):
            if taken[j]:
                continue
            iou = iou_3d(detections[i], gt)
            if iou >= iou_threshold and iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            flags[i] = True
    return flags


def average_precision_11pt(flags, scores, gt_count: int) -> float:
    """11-point interpolated AP.

    ``flags`` are per-detection TP markers aligned with ``scores``;
    detections are ranked by descending score (ties: input order).
    Interpolated precision at recall level r is the maximum precision
    over all ranks whose recall reaches r (0 when none does); the AP is
    the mean over r in {0, 0.1, ..., 1.0}.
    """
    if gt_count < 1:
        raise ValueError("AP needs at least one ground truth")
    flags = list(flags)
    scores = list(scores)
    if len(flags) != len(scores):
        raise ValueError("flags and scores must align")
    order = sorted(range(len(flags)), key=lambda i: (-scores[i], i))
    precisions = []
    recalls = []
    tp = 0
    for rank, i in enumerate(order, start=1):
        if flags[i]:
            tp += 1
        precisions.append(tp / rank)
        recalls.append(tp / gt_count)
    interpolated = []
    for level in range(11):
        r = level / 10
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        interpolated.append(best)
    return sum(interpolated) / 11


def recall_at(flags, gt_count: int) -> float:
    """Fraction of ground truths recovered: TP count / gt_count."""
    if gt_count < 1:
        raise ValueError("recall needs at least one ground truth")
    return float(sum(bool(f) for f in flags) / gt_count)


def _point_pair(points_a, points_b, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Both sets as (N, 3) float64 arrays; raises when either is empty."""
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError(f"{metric} needs non-empty point sets")
    return a, b


def chamfer_fscore(
    gt_points: np.ndarray, pred_points: np.ndarray, threshold: float = 0.004
) -> tuple[float, float]:
    """Chamfer distance and F-score of one pair from one nearest-neighbour pass.

    One candidate pass over a cell grid of the GT points, as wide as the
    F-score's match distance, serves both directions; the two scores
    are those of :func:`chamfer_distance` and :func:`fscore`, bit for
    bit. Each nearest distance is the square root of the squared
    distance summed x, y, z, squared again.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    gt, pred = _point_pair(gt_points, pred_points, "chamfer_fscore")
    to_gt, to_pred = mutual_nearest_sq(pred, gt, np.sqrt(threshold))
    sq_pred = np.sqrt(to_gt) ** 2
    sq_gt = np.sqrt(to_pred) ** 2
    chamfer = float(np.mean(sq_gt) + np.mean(sq_pred))
    precision = float(np.mean(sq_pred < threshold))
    recall = float(np.mean(sq_gt < threshold))
    if precision + recall == 0.0:
        return chamfer, 0.0
    return chamfer, 100.0 * 2.0 * precision * recall / (precision + recall)


def chamfer_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Symmetric Chamfer distance with squared nearest-neighbor terms.

    ``mean_a min_b ||a-b||^2 + mean_b min_a ||a-b||^2``; both sets must
    be non-empty.
    """
    return chamfer_fscore(*_point_pair(points_a, points_b, "chamfer distance"))[0]


def fscore(gt_points: np.ndarray, pred_points: np.ndarray, threshold: float = 0.004) -> float:
    """Reconstruction F-score on a 0-100 scale.

    Precision is the fraction of predicted points whose nearest GT
    point passes ``||.||^2 < threshold``, a test on squared distances as
    in the Chamfer convention; recall the converse. Returns 0 when
    precision and recall are both zero.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    gt, pred = _point_pair(gt_points, pred_points, "fscore")
    return chamfer_fscore(gt, pred, threshold)[1]


def evaluate_detections(detections, ground_truths, iou_thresholds=(0.25, 0.5)) -> dict:
    """Per-category AP and recall at each IoU threshold, plus means.

    Categories are taken from the ground truth; detections whose
    category has no GT are ignored (AP over zero GT is undefined).
    """
    if not ground_truths:
        raise ValueError("evaluation needs at least one ground truth box")
    categories = sorted({g.category for g in ground_truths})
    per_category: dict[str, dict[str, float]] = {}
    for cat in categories:
        dets = [d for d in detections if d.category == cat]
        gts = [g for g in ground_truths if g.category == cat]
        scores = [d.score for d in dets]
        entry: dict[str, float] = {}
        for thr in iou_thresholds:
            flags = match_detections(dets, gts, thr)
            entry[f"AP@{thr:g}"] = average_precision_11pt(flags, scores, len(gts))
            entry[f"R@{thr:g}"] = recall_at(flags, len(gts))
        per_category[str(cat)] = entry
    mean = {
        key: sum(per_category[str(c)][key] for c in categories) / len(categories)
        for key in next(iter(per_category.values()))
    }
    return {"per_category": per_category, "mean": mean}
