"""Daily label time series per (scanner, URL).

Reports are bucketed into UTC calendar days relative to the URL's first_seen
day (day 0). A day's binary label is the maximum detected flag the scanner
gave that day; its detailed label is the plurality label among the scanner's
detecting reports that day (ties broken by DetailedLabel order). Days without
a report for the scanner are absent, never imputed.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .feed import DetailedLabel, FeedCohort

__all__ = ["SeriesPoint", "LabelTimeSeries", "SeriesMap", "build_series", "align_by_offset", "write_series_csv"]


@dataclass(frozen=True, slots=True)
class SeriesPoint:
    day_offset: int
    bl: int
    dl: DetailedLabel


@dataclass(frozen=True)
class LabelTimeSeries:
    """Chronological daily labels of one scanner for one URL."""

    scanner: str
    url: str
    day0: date
    points: tuple[SeriesPoint, ...]

    @cached_property
    def observed_days(self) -> frozenset[int]:
        return frozenset(p.day_offset for p in self.points)

    @cached_property
    def _by_offset(self) -> dict[int, SeriesPoint]:
        return {p.day_offset: p for p in self.points}

    def at(self, offset: int) -> SeriesPoint | None:
        return self._by_offset.get(offset)


SeriesMap = Mapping[tuple[str, str], LabelTimeSeries]


def _plurality_label(labels: Iterable[DetailedLabel]) -> DetailedLabel:
    counts = Counter(labels)
    # Most frequent wins; equal counts fall back to enumeration order.
    return min(counts, key=lambda lab: (-counts[lab], int(lab)))


_N_LABELS = len(DetailedLabel)
_NO_DAY = np.iinfo(np.int32).max


class _Summary(NamedTuple):
    """Per-(scanner, URL) facts over one day range, indexed [scanner, url]."""

    observed: np.ndarray  # observed days
    labels: np.ndarray  # [..., label]: detecting days by their detailed label
    first: np.ndarray  # first detecting day, -1 if none


class _SeriesTable:
    """Series flattened into one row per daily point.

    Columns: `scanner` and `url` (indices into the sorted `scanners` and
    `urls`), `day`, `bl` and `dl`. `key_scanner`/`key_url` hold each
    series' indices in input order, for reductions that follow series order.
    Detailed labels are Benign exactly on days with bl=0, as `build_series`
    makes them.
    """

    def __init__(self, series: Iterable[LabelTimeSeries]):
        series = list(series)
        self.scanners = tuple(sorted({ts.scanner for ts in series}))
        self.urls = tuple(sorted({ts.url for ts in series}))
        self.scanner_index = {name: i for i, name in enumerate(self.scanners)}
        url_index = {url: i for i, url in enumerate(self.urls)}
        self.key_scanner = np.array([self.scanner_index[ts.scanner] for ts in series], dtype=np.int32)
        self.key_url = np.array([url_index[ts.url] for ts in series], dtype=np.int32)
        self.keys = (self.key_scanner, self.key_url)  # indexes a summary array in series order

        lengths = [len(ts.points) for ts in series]
        points = [p for ts in series for p in ts.points]
        self.scanner = np.repeat(self.key_scanner, lengths)
        self.url = np.repeat(self.key_url, lengths)
        self.day = np.fromiter((p.day_offset for p in points), np.int32, len(points))
        self.bl = np.fromiter((p.bl for p in points), np.int8, len(points))
        self.dl = np.fromiter((p.dl for p in points), np.int8, len(points))

    def summary(self, lo: int = 0, hi: int | None = None) -> _Summary:
        """Observed days, detecting-label counts and first detecting day of
        every (scanner, URL) over the days in [lo, hi); `hi=None` is open."""
        n_cells = len(self.scanners) * len(self.urls)
        mask = self.day >= lo
        if hi is not None:
            mask &= self.day < hi
        cell = self.scanner[mask].astype(np.int64) * len(self.urls) + self.url[mask]
        hit = self.bl[mask] == 1
        observed = np.bincount(cell, minlength=n_cells)
        labels = np.bincount(cell[hit] * _N_LABELS + self.dl[mask][hit], minlength=n_cells * _N_LABELS)
        first = np.full(n_cells, _NO_DAY, dtype=np.int32)
        np.minimum.at(first, cell[hit], self.day[mask][hit])
        first[first == _NO_DAY] = -1
        shape = (len(self.scanners), len(self.urls))
        return _Summary(observed.reshape(shape), labels.reshape(shape + (_N_LABELS,)), first.reshape(shape))

    def rows(self, values: np.ndarray, scanners: Sequence[str]) -> np.ndarray:
        """Per-scanner rows of `values` (trailing axes flattened) in the order
        of `scanners`; a name the table lacks gets a zero row."""
        zero_row = np.zeros((1,) + values.shape[1:], values.dtype)
        index = [self.scanner_index.get(name, len(self.scanners)) for name in scanners]
        return np.concatenate([values, zero_row])[index].reshape(len(scanners), math.prod(values.shape[1:]))


def build_series(cohort: FeedCohort) -> dict[tuple[str, str], LabelTimeSeries]:
    """Build per-(scanner, URL) daily series from a deduplicated cohort.

    Day 0 is the URL's earliest first_seen day across its reports. The result
    is independent of input report order.
    """
    day0_by_url: dict[str, date] = {}
    for report in cohort.reports:
        day = report.first_seen_day
        prev = day0_by_url.get(report.url)
        if prev is None or day < prev:
            day0_by_url[report.url] = day

    # (scanner, url) -> offset -> (max bl, detecting labels seen that day)
    buckets: dict[tuple[str, str], dict[int, tuple[int, list[DetailedLabel]]]] = {}
    for report in cohort.reports:
        offset = (report.scan_day - day0_by_url[report.url]).days
        for verdict in report.verdicts:
            key = (verdict.scanner_name, report.url)
            days = buckets.setdefault(key, {})
            bl, detecting = days.get(offset, (0, []))
            if verdict.detected:
                bl = 1
                detecting.append(verdict.result)
            days[offset] = (bl, detecting)

    out: dict[tuple[str, str], LabelTimeSeries] = {}
    for (scanner, url), days in buckets.items():
        points = []
        for offset in sorted(days):
            bl, detecting = days[offset]
            dl = _plurality_label(detecting) if bl else DetailedLabel.Benign
            points.append(SeriesPoint(offset, bl, dl))
        out[(scanner, url)] = LabelTimeSeries(
            scanner=scanner, url=url, day0=day0_by_url[url], points=tuple(points)
        )
    return out


def align_by_offset(
    series: SeriesMap, offset: int
) -> dict[tuple[str, str], tuple[int, DetailedLabel]]:
    """Labels of every series that observed `offset`; no imputation."""
    if offset < 0:
        raise ValueError("offset must be non-negative")
    out: dict[tuple[str, str], tuple[int, DetailedLabel]] = {}
    for key, ts in series.items():
        point = ts.at(offset)
        if point is not None:
            out[key] = (point.bl, point.dl)
    return out


def write_series_csv(series: SeriesMap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scanner", "url", "day_offset", "bl", "dl"])
        for scanner, url in sorted(series):
            for point in series[(scanner, url)].points:
                writer.writerow([scanner, url, point.day_offset, point.bl, point.dl.name])
