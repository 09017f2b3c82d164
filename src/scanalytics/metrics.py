"""Per-scanner statistics: F-1 trends, label certainty, label-count profiles.

All windows are day-offset windows: an observation is inside a window of W
days when its day_offset is in [0, W). Denominators count observed days only;
absent days are never imputed. Every metric reads the per-(scanner, URL) day
counts of the series table (`series._SeriesTable`), so it is a pure function
of the series and invariant to raw report order. Means of per-URL fractions
are summed left to right in series order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from .artifacts import write_table
from .feed import DetailedLabel, distinct
from .series import LabelTimeSeries, SeriesMap, _SeriesTable

__all__ = [
    "CertaintyScores",
    "F1Curve",
    "UrlLabelStats",
    "bl_certainty",
    "dl_certainty",
    "certainty_scores",
    "f1_by_offset",
    "label_count_distribution",
    "url_label_stats",
    "write_f1_csv",
    "write_certainty_csv",
    "write_label_hist_csv",
    "write_url_label_cdf_csv",
]

DEFAULT_WINDOW_DAYS = 30

# Named attack types: every label but Benign and the OtherMalicious catch-all.
_ATTACK_TYPES = [label for label in DetailedLabel if label.is_attack_type]


@dataclass(frozen=True, slots=True)
class CertaintyScores:
    scanner: str
    bl_certainty: float
    dl_certainty: float
    n_urls: int


@dataclass(frozen=True)
class F1Curve:
    scanner: str
    # (day_offset, precision, recall, f1); offsets with zero observed
    # positive-class URLs are absent rather than emitted as 0.
    points: tuple[tuple[int, float, float, float], ...]
    # (day_offset, n_positive_gt_observed, n_negative_gt_observed)
    support: tuple[tuple[int, int, int], ...]

    def at(self, offset: int) -> tuple[float, float, float] | None:
        for day, precision, recall, f1 in self.points:
            if day == offset:
                return precision, recall, f1
        return None


def _url_certainties(table: _SeriesTable, window: int | None) -> Iterator[tuple[int, float, float]]:
    """(scanner index, bl, dl) certainty of every series observed in the window,
    in series order: detecting days, and days of the most common detecting
    label, each over observed days."""
    summary = table.summary(0, window)
    observed = summary.observed[table.keys].tolist()
    detecting = summary.labels.sum(axis=-1)[table.keys].tolist()
    top = summary.labels.max(axis=-1)[table.keys].tolist()
    keyed = zip(table.key_scanner.tolist(), observed, detecting, top)
    return ((s, d / n, t / n) for s, n, d, t in keyed if n)


def _mean_certainty(scanner_series: Iterable[LabelTimeSeries], window: int, column: int) -> float:
    if window < 1:
        raise ValueError("window must be >= 1")
    values = list(_url_certainties(_SeriesTable.from_objects(scanner_series), window))
    if not values:
        raise ValueError("scanner has no observed URLs in the window")
    return sum(v[column] for v in values) / len(values)


def bl_certainty(scanner_series: Iterable[LabelTimeSeries], window: int = DEFAULT_WINDOW_DAYS) -> float:
    """Mean over URLs of (detecting days / observed days) within the window."""
    return _mean_certainty(scanner_series, window, 1)


def dl_certainty(scanner_series: Iterable[LabelTimeSeries], window: int = DEFAULT_WINDOW_DAYS) -> float:
    """Mean over URLs of (most common detecting label count / observed days).

    A URL the scanner never detects inside the window contributes 0.
    """
    return _mean_certainty(scanner_series, window, 2)


def certainty_scores(series: SeriesMap, window: int = DEFAULT_WINDOW_DAYS) -> dict[str, CertaintyScores]:
    """Both certainty scores for every scanner with observations in the window."""
    table = _SeriesTable.of(series)
    # Each scanner's fractions in series order, summed by `sum` as before;
    # two float lists per scanner, not a tuple per series.
    bl_values: list[list[float]] = [[] for _ in table.scanners]
    dl_values: list[list[float]] = [[] for _ in table.scanners]
    for s, bl, dl in _url_certainties(table, window):
        bl_values[s].append(bl)
        dl_values[s].append(dl)

    out: dict[str, CertaintyScores] = {}
    for s, scanner in enumerate(table.scanners):  # scanner indices follow name order
        n = len(bl_values[s])
        if n:
            out[scanner] = CertaintyScores(scanner, sum(bl_values[s]) / n, sum(dl_values[s]) / n, n)
    return out


def f1_by_offset(
    series: SeriesMap,
    positive_urls: set[str],
    benign_urls: set[str],
    max_offset: int = DEFAULT_WINDOW_DAYS,
) -> dict[str, F1Curve]:
    """Per-scanner F-1 trend over day offsets against a two-class ground truth.

    At each offset, only URLs the scanner observed that day participate:
    TP = positive URLs with bl=1, FP = benign URLs with bl=1, FN = positive
    URLs with bl=0. Offsets where a scanner observed no positive URLs are
    omitted from its curve.
    """
    table = _SeriesTable.of(series)
    series_urls = set(table.urls)
    if not (positive_urls & series_urls):
        raise ValueError("ground truth has no positive-class URLs in the series")
    if not (benign_urls & series_urls):
        raise ValueError("ground truth has no benign URLs in the series")
    overlap = positive_urls & benign_urls
    if overlap:
        raise ValueError(f"URLs in both ground-truth classes: {sorted(overlap)[:3]}")

    positive = np.array([url in positive_urls for url in table.urls], dtype=bool)
    labelled = positive | np.array([url in benign_urls for url in table.urls], dtype=bool)
    with_curve = distinct(table.key_scanner[labelled[table.key_url]]).tolist()

    # tally[scanner, offset, is positive, bl] counts observed labelled URLs:
    # one bincount of each row's flat cell.
    rows = (table.day <= max_offset) & labelled[table.url]
    n_days = int(table.day[rows].max()) + 1 if rows.any() else 0
    cell = table.scanner[rows].astype(np.intp)
    cell *= n_days
    cell += table.day[rows]
    cell *= 2
    cell += positive[table.url[rows]]
    cell *= 2
    cell += table.bl[rows]
    tally = np.bincount(cell, minlength=len(table.scanners) * n_days * 4).reshape(len(table.scanners), n_days, 2, 2)

    curves: dict[str, F1Curve] = {}
    for s in with_curve:  # scanner indices follow name order
        points = []
        support = []
        for offset, ((tn, fp), (fn, tp)) in enumerate(tally[s].tolist()):
            n_pos, n_neg = fn + tp, tn + fp
            if not n_pos + n_neg:
                continue
            support.append((offset, n_pos, n_neg))
            if n_pos == 0:
                continue
            precision = tp / (tp + fp) if (tp + fp) else 0.0
            recall = tp / (tp + fn) if (tp + fn) else 0.0
            f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
            points.append((offset, precision, recall, f1))
        scanner = table.scanners[s]
        curves[scanner] = F1Curve(scanner=scanner, points=tuple(points), support=tuple(support))
    return curves


_HIST_BINS = (1, 2, 3, 4)  # the last bin aggregates counts >= 4


def label_count_distribution(
    series: SeriesMap, window: int = DEFAULT_WINDOW_DAYS
) -> dict[str, dict[int, float]]:
    """Per scanner, ratio of its URLs by distinct attack-type label count.

    Counts distinct named attack types assigned within the window (Benign and
    the catch-all are ignored); URLs with no attack-type label are excluded.
    Histogram keys are 1, 2, 3 and 4, with 4 meaning "4 or more".
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    table = _SeriesTable.of(series)
    n_types = (table.summary(0, window).labels[..., _ATTACK_TYPES] > 0).sum(axis=-1)
    buckets = np.minimum(n_types, _HIST_BINS[-1])  # 0: no attack-type label, excluded

    out: dict[str, dict[int, float]] = {}
    for s, scanner in enumerate(table.scanners):
        counts = np.bincount(buckets[s], minlength=_HIST_BINS[-1] + 1).tolist()
        total = sum(counts[b] for b in _HIST_BINS)
        if total:
            out[scanner] = {b: counts[b] / total for b in _HIST_BINS}
    return out


@dataclass(frozen=True)
class UrlLabelStats:
    """Cohort-level attack-label statistics.

    label_count_cdf maps k to the fraction of URLs whose distinct attack-type
    label count (across all scanners and observed days in the window) is <= k.
    top_ratios holds the four most frequent attack-type labels as fractions of
    all detecting observations; the remainder is other labels.
    """

    label_count_cdf: tuple[tuple[int, float], ...]
    top_ratios: dict[DetailedLabel, float]
    n_urls: int

    def cdf_at(self, k: int) -> float:
        value = 0.0
        for count, cumulative in self.label_count_cdf:
            if count > k:
                break
            value = cumulative
        return value


def url_label_stats(series: SeriesMap, window: int | None = None) -> UrlLabelStats:
    """Distinct-label CDF over URLs plus top-4 label ratios over detections."""
    if not series:
        raise ValueError("empty series")
    table = _SeriesTable.of(series)
    per_url = table.summary(0, window).labels.sum(axis=0)  # [url, label] over all scanners
    n_urls = len(table.urls)
    hist = np.bincount((per_url[:, _ATTACK_TYPES] > 0).sum(axis=1)).tolist()
    counts = [count for count, n in enumerate(hist) if n]
    cdf = tuple(zip(counts, accumulate(hist[count] / n_urls for count in counts)))

    detections = per_url.sum(axis=0).tolist()
    top = sorted((label for label in _ATTACK_TYPES if detections[label]), key=lambda label: (-detections[label], label))
    ratios = {label: detections[label] / sum(detections) for label in top[:4]}
    return UrlLabelStats(label_count_cdf=cdf, top_ratios=ratios, n_urls=n_urls)


def write_f1_csv(curves: dict[str, F1Curve], path) -> None:
    rows = ((scanner, *point) for scanner in sorted(curves) for point in curves[scanner].points)
    write_table(path, ["scanner", "offset", "precision", "recall", "f1"], rows)


def write_certainty_csv(scores: dict[str, CertaintyScores], path) -> None:
    rows = ((scanner, s.bl_certainty, s.dl_certainty, s.n_urls) for scanner, s in sorted(scores.items()))
    write_table(path, ["scanner", "bl", "dl", "n_urls"], rows)


def write_label_hist_csv(hist: dict[str, dict[int, float]], path) -> None:
    rows = ((scanner, bucket, hist[scanner][bucket]) for scanner in sorted(hist) for bucket in _HIST_BINS)
    write_table(path, ["scanner", "bin", "ratio"], rows)


def write_url_label_cdf_csv(stats: UrlLabelStats, path) -> None:
    write_table(path, ["label_count", "cumulative_fraction"], stats.label_count_cdf)
