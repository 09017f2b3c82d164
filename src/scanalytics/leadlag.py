"""Lead/lag analysis: who detects co-detected URLs first.

First-detection times come from the series table's first detecting day
(day granularity), so same-day detections cannot be ordered and credit
neither scanner.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .artifacts import write_table
from .correlate import SimilarityMatrix
from .series import SeriesMap, _SeriesTable

__all__ = [
    "first_detection_index",
    "early_detection_matrix",
    "leader_ranking",
    "write_ranking_csv",
]


def first_detection_index(
    series: SeriesMap, window: int | None = None
) -> dict[tuple[str, str], int]:
    """Map (scanner, url) to the first day offset with a detection.

    Pairs with no detecting day inside the window are absent.
    """
    table = _SeriesTable.of(series)
    first = table.summary(0, window).first[table.keys].tolist()
    return {key: day for key, day in zip(series, first) if day >= 0}


def early_detection_matrix(
    index: dict[tuple[str, str], int],
    scanners: Sequence[str] | None = None,
) -> SimilarityMatrix:
    """value(i, j) = fraction of co-detected URLs that i detected strictly
    before j. Same-day first detections count for neither direction; pairs
    with no co-detected URL are NaN. The diagonal is 0 by convention.
    """
    by_scanner: dict[str, dict[str, int]] = {}
    for (scanner, url), day in index.items():
        by_scanner.setdefault(scanner, {})[url] = day
    order = tuple(scanners) if scanners is not None else tuple(sorted(by_scanner))
    column = {url: k for k, url in enumerate(sorted({url for _, url in index}))}

    n = len(order)
    first = np.full((n, len(column)), -1, dtype=np.int64)  # -1: not detected
    for i, scanner in enumerate(order):
        for url, day in by_scanner.get(scanner, {}).items():
            first[i, column[url]] = day
    detected = first >= 0

    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 0.0)
    for i in range(n - 1):
        # Row i against every later scanner at once.
        later = first[i + 1:]
        shared = detected[i] & detected[i + 1:]
        n_shared = shared.sum(axis=1)
        a_first = (shared & (first[i] < later)).sum(axis=1)
        b_first = (shared & (later < first[i])).sum(axis=1)
        has = n_shared > 0
        cols = np.flatnonzero(has) + i + 1
        values[i, cols] = a_first[has] / n_shared[has]
        values[cols, i] = b_first[has] / n_shared[has]
    return SimilarityMatrix(scanners=order, values=values, kind="early_ratio")


def leader_ranking(matrix: SimilarityMatrix) -> list[tuple[str, float]]:
    """Scanners ordered by mean finite off-diagonal row value, descending.

    Scanners whose row is entirely NaN rank last (reported as NaN); ties
    break by name.
    """
    if matrix.kind != "early_ratio":
        raise ValueError("leader_ranking expects an early_ratio matrix")
    rows: list[tuple[str, float]] = []
    n = len(matrix.scanners)
    for i, scanner in enumerate(matrix.scanners):
        finite = [matrix.values[i, j] for j in range(n) if j != i and math.isfinite(matrix.values[i, j])]
        mean = sum(finite) / len(finite) if finite else math.nan
        rows.append((scanner, mean))
    return sorted(rows, key=lambda item: (math.isnan(item[1]), -(item[1] if not math.isnan(item[1]) else 0.0), item[0]))


def write_ranking_csv(ranking: list[tuple[str, float]], path) -> None:
    rows = ((rank, scanner, mean) for rank, (scanner, mean) in enumerate(ranking, start=1))
    write_table(path, ["rank", "scanner", "mean_early_ratio"], rows)
