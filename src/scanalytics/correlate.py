"""Pairwise scanner correlation: Jaccard matrices, DTW distance, clustering.

Matrix conventions: values are dense numpy arrays indexed by the scanner
order stored on the matrix; undefined pairs hold NaN, which the table writer
(`artifacts.write_table`) writes as its missing mark. Jaccard matrices are
symmetric with a special-cased diagonal of 1 for scanners that detected at
least one URL. DTW matrices are symmetric with zero diagonal. All reductions
run in a fixed order, so results are identical regardless of parallelism.

Co-detection comes from the series table (`series._SeriesTable`): Jaccard
matrices are integer products of (scanner x URL) detection marks, and the
DTW matrix takes its co-detected URLs from the same marks.

The DTW matrix is batched and exact. Every (pair, co-detected URL)
alignment comes from the table one way, ragged or not: both series' labels,
carried forward over the days either observed. All alignments of one length
run through the full grid together, one grid row per numpy step, and the
grid runs once per distinct row pair (`_dtw_batch`). The scalar
`dtw_distance` over `_aligned_pair` sequences is the reference it must
equal.

Average-linkage clustering updates one distance matrix in place (the
Lance-Williams update: a merged cluster's row is the size-weighted average
of its parts' rows), reading only the upper triangle. Equal heights break
on the two clusters' sorted member names, then on their ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Literal, Sequence

import numpy as np

from .artifacts import write_table
from .feed import DetailedLabel, distinct
from .series import SeriesMap, _SeriesTable

__all__ = [
    "MatrixKind",
    "SimilarityMatrix",
    "Dendrogram",
    "ClusterResult",
    "jaccard_binary",
    "jaccard_detailed",
    "frobenius_norm",
    "frobenius_trend",
    "dtw_distance",
    "scanner_dtw_matrix",
    "hierarchical_cluster",
    "adjusted_rand_index",
    "write_matrix_csv",
    "write_trend_csv",
    "write_heatmap_svg",
]

MatrixKind = Literal["jaccard_binary", "jaccard_detailed", "dtw_distance", "early_ratio"]


@dataclass(frozen=True)
class SimilarityMatrix:
    scanners: tuple[str, ...]
    values: np.ndarray  # square, NaN marks undefined pairs
    kind: MatrixKind

    def __post_init__(self) -> None:
        n = len(self.scanners)
        if self.values.shape != (n, n):
            raise ValueError("matrix shape does not match scanner list")
        self.values.setflags(write=False)

    def index(self, scanner: str) -> int:
        return self.scanners.index(scanner)

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.index(a), self.index(b)])


def _scanner_order(table: _SeriesTable, scanners: Sequence[str] | None) -> tuple[str, ...]:
    return tuple(scanners) if scanners is not None else table.scanners


def _jaccard_values(
    table: _SeriesTable, universe: set[str], days: tuple[int, int | None], order: tuple[str, ...], detailed: bool
) -> np.ndarray:
    """Counts of shared universe URLs over |universe|: co-detected URLs, or
    with `detailed`, co-detected URLs with equal modal detecting labels.
    The diagonal is 1 for scanners with at least one such URL."""
    if not universe:
        raise ValueError("universe must be non-empty")
    summary = table.summary(*days)
    if detailed:
        # One-hot modal label. argmax breaks count ties toward the lower enum
        # value, as `series._plurality_label`, and is Benign (no column here)
        # where nothing was detected.
        marks = summary.labels.argmax(axis=-1)[..., None] == np.arange(1, len(DetailedLabel))
    else:
        marks = summary.labels.any(axis=-1)
    marks[:, [url not in universe for url in table.urls]] = False
    marks = table.rows(marks, order).astype(np.int64)
    values = (marks @ marks.T) / len(universe)
    np.fill_diagonal(values, marks.any(axis=1))
    return values


def _jaccard_matrix(series, universe, window, offset, scanners, kind: MatrixKind) -> SimilarityMatrix:
    """Pooled over [0, window), or over the single day `offset` when given."""
    table = _SeriesTable.of(series)
    order = _scanner_order(table, scanners)
    days = (offset, offset + 1) if offset is not None else (0, window)
    values = _jaccard_values(table, universe, days, order, detailed=kind == "jaccard_detailed")
    return SimilarityMatrix(scanners=order, values=values, kind=kind)


def jaccard_binary(
    series: SeriesMap,
    universe: set[str],
    window: int | None = None,
    offset: int | None = None,
    scanners: Sequence[str] | None = None,
) -> SimilarityMatrix:
    """Co-detection similarity: |detected_i ∩ detected_j| / |universe|.

    Pooled over the window by default; pass `offset` for the single-day
    variant. The diagonal is 1 for scanners with at least one detection.
    """
    return _jaccard_matrix(series, universe, window, offset, scanners, "jaccard_binary")


def jaccard_detailed(
    series: SeriesMap,
    universe: set[str],
    window: int | None = None,
    offset: int | None = None,
    scanners: Sequence[str] | None = None,
) -> SimilarityMatrix:
    """Label-agreement similarity: co-detected URLs with equal modal labels
    over |universe|. The single-day variant compares that day's labels."""
    return _jaccard_matrix(series, universe, window, offset, scanners, "jaccard_detailed")


def frobenius_norm(matrix: SimilarityMatrix) -> float:
    """Square root of the sum of squared off-diagonal entries (NaN-safe)."""
    values = matrix.values.copy()
    np.fill_diagonal(values, 0.0)
    finite = np.nan_to_num(values, nan=0.0)
    return float(math.sqrt(np.sum(finite * finite)))


def frobenius_trend(
    series: SeriesMap,
    universe: set[str],
    offsets: Iterable[int],
    detailed: bool = False,
    scanners: Sequence[str] | None = None,
) -> list[tuple[int, float]]:
    """Per-day matrix norm over a range of offsets; diagonal excluded."""
    table = _SeriesTable.of(series)
    order = _scanner_order(table, scanners)
    kind = "jaccard_detailed" if detailed else "jaccard_binary"
    out = []
    for offset in offsets:
        values = _jaccard_values(table, universe, (offset, offset + 1), order, detailed)
        out.append((offset, frobenius_norm(SimilarityMatrix(scanners=order, values=values, kind=kind))))
    return out


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Dynamic-time-warping distance with absolute-difference local cost.

    Full |a|x|b| grid, no band constraint, no path-length normalization.
    """
    if not len(a) or not len(b):
        raise ValueError("dtw_distance requires non-empty sequences")
    n, m = len(a), len(b)
    inf = math.inf
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        ai = a[i - 1]
        cur = [inf] * (m + 1)
        for j in range(1, m + 1):
            cost = abs(ai - b[j - 1])
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = cost + best
        prev = cur
    return prev[m]


def _aligned_pair(ts_a, ts_b, window: int | None) -> tuple[list[int], list[int]]:
    """Both scanners' binary labels over the union of their observed days.

    Absent days take the scanner's last observed value; days before its
    first observation take 0. The per-pair reference for the alignments
    `scanner_dtw_matrix` builds from the series table.
    """
    def observed(ts):
        return [
            (p.day_offset, p.bl)
            for p in ts.points
            if window is None or p.day_offset < window
        ]

    obs_a = observed(ts_a)
    obs_b = observed(ts_b)
    days = sorted({d for d, _ in obs_a} | {d for d, _ in obs_b})

    def fill(obs):
        values = []
        idx = 0
        last = 0
        for day in days:
            while idx < len(obs) and obs[idx][0] <= day:
                last = obs[idx][1]
                idx += 1
            values.append(last)
        return values

    return fill(obs_a), fill(obs_b)


_DTW_BLOCK = 256  # alignments per pass of `_dtw_batch`; bounds its (L, block) work arrays


def _dtw_batch(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> np.ndarray:
    """`dtw_distance` of each row pair of the 0/1 rows a (B x n) and b (B x m).

    The grid runs once per distinct row pair: a distance depends on its two
    rows alone, so each pair is keyed on its two rows' bits, packed and
    joined, the first occurrence of each key is aligned, and every pair
    takes its key's distance.

    Exact: the full grid, one grid row at a time for a block of pairs. With
    t[j] = min(prev[j-1], prev[j]) and C the running sum of the row's costs,
    the row is cur[j] = C[j] + min over k <= j of (t[k] - C[k-1]), a prefix
    minimum in place of the scalar loop's cell-by-cell left move. Costs are
    integers, and so is every distance.
    """
    a, b = np.asarray(a, dtype=np.int8), np.asarray(b, dtype=np.int8)
    # One void element per pair, packed so the keys and `np.unique`'s sorted
    # copies take a byte per 8 cells; `np.unique(axis=0)` on the joined rows
    # finds the same keys tens of times slower.
    bits = np.concatenate((np.packbits(a, axis=1), np.packbits(b, axis=1)), axis=1)
    key = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    a, b = a[first], b[first]
    out = np.empty(len(a), dtype=np.int64)
    for lo in range(0, len(a), _DTW_BLOCK):
        rows_a = np.array(a[lo:lo + _DTW_BLOCK], dtype=np.int32).T  # (n, block)
        rows_b = np.array(b[lo:lo + _DTW_BLOCK], dtype=np.int32).T  # (m, block)
        cur = np.cumsum(np.abs(rows_a[0] - rows_b), axis=0)  # the first row moves only right
        for row in rows_a[1:]:
            cost = np.abs(row - rows_b)
            run = np.cumsum(cost, axis=0)
            best = cur.copy()  # column 0 has no diagonal neighbour
            np.minimum(cur[:-1], cur[1:], out=best[1:])
            cur = run + np.minimum.accumulate(best - (run - cost), axis=0)
        out[lo:lo + cur.shape[1]] = cur[-1]
    return out[inverse]


def scanner_dtw_matrix(
    series: SeriesMap,
    window: int | None = None,
    scanners: Sequence[str] | None = None,
) -> SimilarityMatrix:
    """Mean DTW distance between two scanners' label trends on co-detected URLs.

    A URL counts for a pair when both scanners detect it inside the window;
    pairs with no co-detected URL get NaN.

    Batched and exact: the result equals averaging `dtw_distance` over each
    pair's `_aligned_pair` sequences. Every detecting series is laid on one
    grid of the window's observed days, with the days it observed and its
    label carried forward to every grid day; an alignment is both carried
    rows at the days either scanner observed. All alignments of one length
    run together through `_dtw_batch`, which runs the grid once per distinct
    row pair. Distances are integers, so sums and means do not depend on
    summation order.
    """
    table = _SeriesTable.of(series)
    order = _scanner_order(table, scanners)
    detected = table.summary(0, window).labels.any(axis=-1)
    detects = table.rows(detected, order)

    # Detecting series, one row each, on the grid of their windowed days.
    # `mark` holds 2 * (column + 1) + bl where a series observed a day, so
    # its running maximum carries the last observation forward (0 before it).
    slot = np.full(detected.shape, -1, dtype=np.int32)
    slot[detected] = np.arange(np.count_nonzero(detected))
    point = slot[table.scanner, table.url]
    kept = point >= 0
    if window is not None:
        kept &= table.day < window
    grid, column = np.unique(table.day[kept], return_inverse=True)
    mark = np.zeros((np.count_nonzero(detected), len(grid)), dtype=np.int32)
    mark[point[kept], column] = 2 * column + 2 + table.bl[kept]
    seen = mark > 0
    carried = (np.maximum.accumulate(mark, axis=1) % 2).astype(np.int8)

    # Alignments: (pair, co-detected URL) in pair order, then URL order, over
    # the days either scanner observed.
    n = len(order)
    first, second = np.triu_indices(n, 1)
    pair, url = np.nonzero(detects[first] & detects[second])
    # A name the table lacks detects nothing, so its -1 never reaches an alignment.
    rows = np.array([table.scanner_index.get(name, -1) for name in order], dtype=np.int64)
    slot_a, slot_b = slot[rows[first[pair]], url], slot[rows[second[pair]], url]
    days = seen[slot_a] | seen[slot_b]
    lengths = days.sum(axis=1)
    distance = np.empty(len(pair), dtype=np.int64)
    for length in distinct(lengths).tolist():
        sel = np.flatnonzero(lengths == length)
        on = days[sel]
        distance[sel] = _dtw_batch(
            carried[slot_a[sel]][on].reshape(-1, length), carried[slot_b[sel]][on].reshape(-1, length)
        )

    counts = np.bincount(pair, minlength=len(first))
    totals = np.bincount(pair, weights=distance, minlength=len(first))
    values = np.full((n, n), np.nan)
    hit = counts > 0
    values[first[hit], second[hit]] = values[second[hit], first[hit]] = totals[hit] / counts[hit]
    np.fill_diagonal(values, 0.0)
    return SimilarityMatrix(scanners=order, values=values, kind="dtw_distance")


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge tree. Leaves are numbered 0..n-1 in `leaves` order;
    merge k creates cluster id n+k. Heights are non-decreasing."""

    leaves: tuple[str, ...]
    merges: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class ClusterResult:
    dendrogram: Dendrogram
    assignment: dict[str, int]
    excluded: tuple[str, ...]


def hierarchical_cluster(
    matrix: SimilarityMatrix,
    cut_height: float | None = None,
    k: int | None = None,
) -> ClusterResult:
    """Average-linkage agglomerative clustering of a distance matrix.

    Scanners whose rows are entirely NaN (no finite off-diagonal entry) are
    excluded and reported. Remaining NaN pairs act as a distance strictly
    above the finite maximum, so never-co-detecting scanners merge last.
    Merge ties break lexicographically on member names. Cutting at height h
    applies merges with height < h; cutting at k applies the first n-k merges.
    """
    if (cut_height is None) == (k is None):
        raise ValueError("specify exactly one of cut_height or k")

    names = matrix.scanners
    clusterable = (np.isfinite(matrix.values) & ~np.eye(len(names), dtype=bool)).any(axis=1)
    keep = np.flatnonzero(clusterable)
    excluded = tuple(names[i] for i in np.flatnonzero(~clusterable))
    if len(keep) < 2:
        raise ValueError("fewer than 2 clusterable scanners")

    leaves = tuple(names[i] for i in keep)
    n = len(leaves)
    dist = matrix.values[np.ix_(keep, keep)].astype(float)
    finite = dist[np.isfinite(dist) & ~np.eye(n, dtype=bool)]
    dist[np.isnan(dist)] = (finite.max() if finite.size else 0.0) + 1.0

    if k is not None and not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}]")

    # Each slot holds one live cluster: its id and sorted member names. Only
    # the upper triangle is read, mirrored; `live` marks pairs of live slots.
    upper = np.triu_indices(n, 1)
    dist[upper[::-1]] = dist[upper]
    live = np.zeros((n, n), dtype=bool)
    live[upper] = True
    ids, keys = list(range(n)), [(name,) for name in leaves]

    def rank(pair):  # equal heights: sorted member names, then ids
        s, t = pair
        return sorted((keys[s], keys[t])), sorted((ids[s], ids[t]))

    merges: list[tuple[int, int, float]] = []
    for new_id in range(n, 2 * n - 1):
        tied = live & (dist == dist[live].min())
        s, t = min(zip(*np.nonzero(tied)), key=rank)
        a, b = (s, t) if (keys[s], ids[s]) <= (keys[t], ids[t]) else (t, s)
        merges.append((ids[a], ids[b], float(dist[a, b])))  # its own value: 0.0 and -0.0 tie
        size_a, size_b = len(keys[a]), len(keys[b])
        dist[a] = dist[:, a] = (size_a * dist[a] + size_b * dist[b]) / (size_a + size_b)
        live[b] = live[:, b] = False
        ids[a], keys[a] = new_id, tuple(sorted(keys[a] + keys[b]))

    dendrogram = Dendrogram(leaves=leaves, merges=tuple(merges))

    n_applied = n - k if k is not None else sum(h < cut_height for _, _, h in merges)
    # Replay the first n_applied merges; flat clusters are numbered by least member name.
    groups = {i: [i] for i in range(n)}
    for new_id, (a, b, _) in enumerate(merges[:n_applied], start=n):
        groups[new_id] = sorted(groups.pop(a) + groups.pop(b))
    ordered = sorted(([leaves[i] for i in group] for group in groups.values()), key=min)
    assignment = {name: cid for cid, group in enumerate(ordered) for name in group}
    return ClusterResult(dendrogram=dendrogram, assignment=assignment, excluded=excluded)


def adjusted_rand_index(a: dict[str, Hashable], b: dict[str, Hashable]) -> float:
    """Chance-corrected agreement between two labelings of the same keys.
    Labels of any hashable type; renaming them does not change the index."""
    if set(a) != set(b):
        raise ValueError("labelings must cover the same keys")
    keys = sorted(a)
    pairs: dict[tuple[Hashable, Hashable], int] = {}
    count_a: dict[Hashable, int] = {}
    count_b: dict[Hashable, int] = {}
    for key in keys:
        pairs[(a[key], b[key])] = pairs.get((a[key], b[key]), 0) + 1
        count_a[a[key]] = count_a.get(a[key], 0) + 1
        count_b[b[key]] = count_b.get(b[key], 0) + 1

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    n = len(keys)
    sum_pairs = sum(comb2(v) for v in pairs.values())
    sum_a = sum(comb2(v) for v in count_a.values())
    sum_b = sum(comb2(v) for v in count_b.values())
    expected = sum_a * sum_b / comb2(n) if comb2(n) else 0.0
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_pairs - expected) / (max_index - expected)


def write_matrix_csv(matrix: SimilarityMatrix, path) -> None:
    """Long-format table: scanner_a,scanner_b,value,kind, one row per cell."""
    names, kind = matrix.scanners, matrix.kind
    rows = ((a, b, value, kind) for a, row in zip(names, matrix.values.tolist()) for b, value in zip(names, row))
    write_table(path, ["scanner_a", "scanner_b", "value", "kind"], rows)


def write_trend_csv(trend: list[tuple[int, float]], path) -> None:
    """Rows of a binary `frobenius_trend`, each with kind jaccard_binary."""
    write_table(path, ["offset", "norm", "kind"], ((offset, norm, "jaccard_binary") for offset, norm in trend))


def write_heatmap_svg(matrix: SimilarityMatrix, path) -> None:
    """Minimal grayscale heatmap of 14-pixel cells; NaN cells are hatched light gray."""
    n, cell = len(matrix.scanners), 14
    finite = matrix.values[np.isfinite(matrix.values)]
    vmax = float(finite.max()) if finite.size else 1.0
    vmax = vmax if vmax > 0 else 1.0
    margin = 4
    size = n * cell + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<title>{matrix.kind}</title>',
    ]
    for i in range(n):
        for j in range(n):
            x = margin + j * cell
            y = margin + i * cell
            v = matrix.values[i, j]
            if math.isnan(v):
                fill = "#dddddd"
            else:
                shade = int(round(255 * (1 - min(v / vmax, 1.0))))
                fill = f"#{shade:02x}{shade:02x}ff"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}">'
                f"<title>{matrix.scanners[i]} / {matrix.scanners[j]}</title></rect>"
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
