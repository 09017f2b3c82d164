"""Daily label time series per (scanner, URL).

Reports are bucketed into UTC calendar days relative to the URL's first_seen
day (day 0). A day's binary label is the maximum detected flag the scanner
gave that day; its detailed label is the plurality label among the scanner's
detecting reports that day (ties broken by DetailedLabel order). Days without
a report for the scanner are absent, never imputed.

`build_series` keeps the points in int columns (`_SeriesTable`) and returns a
read-only `SeriesView` over them; the analytics read the columns, and a
`LabelTimeSeries` is built only when a key is indexed.

The build is keyed by report: it sorts the reports, not their verdicts, by
(URL, day), codes each distinct verdict object once, and gives every verdict
one narrow code row. A stable sort of those rows by scanner yields (scanner,
URL, day) order, so a point is a run of rows; a one-row point takes its
labels from that row, and only points with several rows are voted on. What
the build holds per verdict is a few narrow columns and one int64 row index.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Iterator, Mapping
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .artifacts import write_table
from .feed import DetailedLabel, FeedCohort, ScannerVerdict

__all__ = ["SeriesPoint", "LabelTimeSeries", "SeriesMap", "SeriesView", "build_series", "align_by_offset", "write_series_csv"]


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
    series' indices in input order, for reductions that follow series order;
    `key_start`/`key_stop` bound its rows, which run in day order.
    Detailed labels are Benign exactly on days with bl=0, as `build_series`
    makes them.
    """

    def __init__(self, series: Iterable[LabelTimeSeries]):
        series = list(series)
        scanners = tuple(sorted({ts.scanner for ts in series}))
        urls = tuple(sorted({ts.url for ts in series}))
        scanner_index = {name: i for i, name in enumerate(scanners)}
        url_index = {url: i for i, url in enumerate(urls)}
        key_scanner = np.array([scanner_index[ts.scanner] for ts in series], dtype=np.int32)
        key_url = np.array([url_index[ts.url] for ts in series], dtype=np.int32)
        lengths = np.array([len(ts.points) for ts in series], dtype=np.int64)
        key_stop = np.cumsum(lengths)
        points = [p for ts in series for p in ts.points]
        self._fill(
            scanners, urls,
            keys=(key_scanner, key_url, key_stop - lengths, key_stop),
            rows=(
                np.repeat(key_scanner, lengths), np.repeat(key_url, lengths),
                np.fromiter((p.day_offset for p in points), np.int32, len(points)),
                np.fromiter((p.bl for p in points), np.int8, len(points)),
                np.fromiter((p.dl for p in points), np.int8, len(points)),
            ),
        )

    @classmethod
    def of(cls, series: SeriesMap) -> "_SeriesTable":
        """The table a `build_series` view carries; any other map is flattened."""
        return series.table if isinstance(series, SeriesView) else cls(series.values())

    @classmethod
    def _columns(cls, scanners: tuple[str, ...], urls: tuple[str, ...], keys: tuple, rows: tuple) -> "_SeriesTable":
        """A table from its columns: `keys` is (key_scanner, key_url,
        key_start, key_stop), `rows` is (scanner, url, day, bl, dl)."""
        table = cls.__new__(cls)
        table._fill(scanners, urls, keys, rows)
        return table

    def _fill(self, scanners: tuple[str, ...], urls: tuple[str, ...], keys: tuple, rows: tuple) -> None:
        self.scanners = scanners
        self.urls = urls
        self.scanner_index = {name: i for i, name in enumerate(scanners)}
        self.key_scanner, self.key_url, self.key_start, self.key_stop = keys
        self.keys = (self.key_scanner, self.key_url)  # indexes a summary array in series order
        self.scanner, self.url, self.day, self.bl, self.dl = rows

    def restrict(self, keep_url: np.ndarray) -> "_SeriesTable":
        """The series of the URLs where `keep_url` (one flag per `urls`) is
        set, in the same order; scanners left without a series drop out."""
        kept = keep_url[self.key_url]
        kept_rows = keep_url[self.url]
        scanner_used = np.zeros(len(self.scanners), dtype=bool)
        scanner_used[self.key_scanner[kept]] = True
        new_scanner = np.cumsum(scanner_used, dtype=np.int32) - 1
        new_url = np.cumsum(keep_url, dtype=np.int32) - 1
        new_row = np.concatenate(([0], np.cumsum(kept_rows)))
        return self._columns(
            tuple(name for name, used in zip(self.scanners, scanner_used.tolist()) if used),
            tuple(url for url, keep in zip(self.urls, keep_url.tolist()) if keep),
            keys=(
                new_scanner[self.key_scanner[kept]], new_url[self.key_url[kept]],
                new_row[self.key_start[kept]], new_row[self.key_stop[kept]],
            ),
            rows=(
                new_scanner[self.scanner[kept_rows]], new_url[self.url[kept_rows]],
                self.day[kept_rows], self.bl[kept_rows], self.dl[kept_rows],
            ),
        )

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


_LABELS = tuple(DetailedLabel)


class SeriesView(Mapping):
    """Read-only map (scanner, url) -> LabelTimeSeries over a `_SeriesTable`.

    Keys iterate in the table's series order. A value is built from the
    table's rows each time its key is indexed and is not kept.
    """

    def __init__(self, table: _SeriesTable, day0: Sequence[date]):
        self.table = table
        self._day0 = day0  # per table URL
        self._url_index = {url: i for i, url in enumerate(table.urls)}
        cells = table.key_scanner.astype(np.int64) * len(table.urls) + table.key_url
        order = np.argsort(cells)
        self._cells = cells[order]  # sorted, for lookup by key
        self._bounds = (table.key_start[order], table.key_stop[order])

    def _position(self, key) -> int:
        """Index of `key` in the sorted cells, or -1 when it is not a key."""
        if not isinstance(key, tuple) or len(key) != 2:
            return -1
        s = self.table.scanner_index.get(key[0])
        u = self._url_index.get(key[1])
        if s is None or u is None:
            return -1
        cell = s * len(self.table.urls) + u
        i = int(np.searchsorted(self._cells, cell))
        return i if i < len(self._cells) and self._cells[i] == cell else -1

    def __getitem__(self, key) -> LabelTimeSeries:
        i = self._position(key)
        if i < 0:
            raise KeyError(key)
        table = self.table
        rows = slice(self._bounds[0][i], self._bounds[1][i])
        points = tuple(
            SeriesPoint(day, bl, _LABELS[dl])
            for day, bl, dl in zip(table.day[rows].tolist(), table.bl[rows].tolist(), table.dl[rows].tolist())
        )
        scanner, url = key
        return LabelTimeSeries(scanner=scanner, url=url, day0=self._day0[self._url_index[url]], points=points)

    def __contains__(self, key) -> bool:
        return self._position(key) >= 0

    def __iter__(self) -> Iterator[tuple[str, str]]:
        table = self.table
        return zip(
            map(table.scanners.__getitem__, table.key_scanner.tolist()),
            map(table.urls.__getitem__, table.key_url.tolist()),
        )

    def __len__(self) -> int:
        return len(self.table.key_scanner)

    def restrict(self, urls: Collection[str]) -> "SeriesView":
        """The series of `urls` only, in the same order."""
        keep = np.array([url in urls for url in self.table.urls], dtype=bool)
        day0 = [day for day, kept in zip(self._day0, keep.tolist()) if kept]
        return SeriesView(self.table.restrict(keep), day0)


def _run_bounds(n: int, *columns: np.ndarray) -> np.ndarray:
    """Start of every run of equal rows across `columns` (each `n` long),
    then `n`: the runs are the slices between consecutive entries."""
    change = np.ones(n + 1, dtype=bool)
    change[1:n] = False
    for column in columns:
        change[1:n] |= column[1:] != column[:-1]
    return np.flatnonzero(change)


def build_series(cohort: FeedCohort) -> SeriesView:
    """Build per-(scanner, URL) daily series from a deduplicated cohort.

    Day 0 is the URL's earliest first_seen day across its reports. The
    series depend only on the set of reports; keys follow their first
    occurrence in cohort report order, then verdict order. The result is a
    read-only `SeriesView`: the points live in int columns, and a
    LabelTimeSeries is built when its key is indexed.
    """
    reports = cohort.reports
    day0_by_url: dict[str, date] = {}
    for report in reports:
        day = report.first_seen_day
        prev = day0_by_url.get(report.url)
        if prev is None or day < prev:
            day0_by_url[report.url] = day
    with_verdicts = [r for r in reports if r.verdicts]
    urls = tuple(sorted({r.url for r in with_verdicts}))
    url_index = {url: i for i, url in enumerate(urls)}

    # Reports in (URL, day) order, cohort order within a day. `shift` takes a
    # verdict's place in this order to its place in cohort verdict order.
    n_reports = len(with_verdicts)
    report_url = np.fromiter((url_index[r.url] for r in with_verdicts), np.int32, n_reports)
    report_day = np.fromiter(((r.scan_day - day0_by_url[r.url]).days for r in with_verdicts), np.int32, n_reports)
    size = np.fromiter((len(r.verdicts) for r in with_verdicts), np.int64, n_reports)
    by_day = np.lexsort((report_day, report_url))
    shift = (np.cumsum(size) - size)[by_day]
    report_url, report_day, size = report_url[by_day], report_day[by_day], size[by_day]
    shift -= np.cumsum(size) - size
    ordered = [with_verdicts[i] for i in by_day.tolist()]

    # One row per verdict in that order, holding narrow codes. Each distinct
    # verdict object is coded once; `parse_feed` shares them, so few exist.
    def verdicts() -> Iterator[ScannerVerdict]:
        return chain.from_iterable(r.verdicts for r in ordered)

    distinct = dict(zip(map(id, verdicts()), verdicts()))
    scanners = tuple(sorted({v.scanner_name for v in distinct.values()}))
    scanner_index = {name: i for i, name in enumerate(scanners)}
    code = dict(zip(distinct, range(len(distinct))))
    row_code = np.fromiter(map(code.__getitem__, map(id, verdicts())), np.min_scalar_type(len(code)), int(size.sum()))
    scanner_codes = [scanner_index[v.scanner_name] for v in distinct.values()]
    scanner = np.array(scanner_codes, np.min_scalar_type(len(scanners)))[row_code]
    label = np.array([v.result for v in distinct.values()], np.int8)[row_code]
    del row_code

    # Stably sorted by scanner, the rows run in (scanner, URL, day) order, so
    # a point is a run of rows with one scanner and one (URL, day).
    row = np.argsort(scanner, kind="stable")
    scanner, label = scanner[row], label[row]
    row_report = np.repeat(np.arange(n_reports, dtype=np.int32), size)[row]
    bounds = _run_bounds(len(row), scanner, report_url[row_report], report_day[row_report])
    first, count = bounds[:-1], np.diff(bounds)

    # A point's label is its row's. Where a day holds several verdicts, it is
    # their most common detecting label, ties to the lower enum value as
    # `_plurality_label`, and Benign when none detects.
    dl = label[first]
    shared = count > 1
    n_shared = np.count_nonzero(shared)
    voter = np.repeat(np.arange(n_shared), count[shared])
    votes = np.bincount(voter * _N_LABELS + label[np.repeat(shared, count)], minlength=n_shared * _N_LABELS)
    detecting = votes.reshape(-1, _N_LABELS)[:, 1:]
    dl[shared] = np.where(detecting.any(axis=1), detecting.argmax(axis=1) + 1, 0)

    # Series: runs of one (scanner, URL) among the points, keyed in order of
    # their first verdict in the cohort.
    point_report = row_report[first]
    point_scanner = scanner[first].astype(np.int32)
    point_url = report_url[point_report]
    keys = _run_bounds(len(first), point_scanner, point_url)
    row += shift[row_report]
    order = np.argsort(np.minimum.reduceat(row, first[keys[:-1]]))
    key_start = keys[:-1][order]
    table = _SeriesTable._columns(
        scanners, urls,
        keys=(point_scanner[key_start], point_url[key_start], key_start, keys[1:][order]),
        rows=(point_scanner, point_url, report_day[point_report], (dl != 0).astype(np.int8), dl),
    )
    return SeriesView(table, [day0_by_url[url] for url in urls])


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
    """One row per point, sorted by (scanner, url, day_offset)."""
    table = _SeriesTable.of(series)
    order = np.lexsort((table.day, table.url, table.scanner))
    columns = (column[order].tolist() for column in (table.scanner, table.url, table.day, table.bl, table.dl))
    rows = ((table.scanners[s], table.urls[u], day, bl, _LABELS[dl].name) for s, u, day, bl, dl in zip(*columns))
    write_table(path, ["scanner", "url", "day_offset", "bl", "dl"], rows)
