"""Daily label time series per (scanner, URL).

Reports are bucketed into UTC calendar days relative to the URL's first_seen
day (day 0): a timestamp's day is its UTC day, whatever its offset, for a
parsed report and a report built by hand alike. A day's binary label is the
maximum detected flag the scanner gave that day; its detailed label is the
plurality label among the scanner's detecting reports that day (ties broken
by DetailedLabel order). Days without a report for the scanner are absent,
never imputed.

`build_series` keeps the points in int columns (`_SeriesTable`) and returns a
read-only `SeriesView` over them; the analytics read the columns, and a
`LabelTimeSeries` is built only when a key is indexed.

The build reads the cohort's `ReportTable` (`feed.ReportTable.of`): the
table a cohort built from a table holds, as the CLI's cohorts do; for
report views, the rows of their table; for reports built by hand, a table
made by the parse's builder, each distinct verdict object coded once. It
sorts the reports, not their verdicts, by (URL, day) and scatters their
verdict codes, position by position, into one uint8 (report x scanner) label
matrix. Points are read scanner-major from its transpose, so they come out
in (scanner, URL, day) order and no per-verdict index is sorted or kept. A
report holds at most one verdict per scanner (`feed.ScanReport`), so a
point takes its label from its one verdict; only days with several reports
(same-day rescans) are voted on. What the build holds per verdict is the
matrix cell and the output columns.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Iterator, Mapping
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .artifacts import write_table
from .feed import DetailedLabel, FeedCohort, ReportTable, distinct

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

    def __init__(self, scanners: tuple[str, ...], urls: tuple[str, ...], keys: tuple, rows: tuple):
        """`keys` is (key_scanner, key_url, key_start, key_stop), `rows` is
        (scanner, url, day, bl, dl)."""
        self.scanners = scanners
        self.urls = urls
        self.scanner_index = {name: i for i, name in enumerate(scanners)}
        self.key_scanner, self.key_url, self.key_start, self.key_stop = keys
        self.keys = (self.key_scanner, self.key_url)  # indexes a summary array in series order
        self.scanner, self.url, self.day, self.bl, self.dl = rows

    @classmethod
    def from_objects(cls, series: Iterable[LabelTimeSeries]) -> "_SeriesTable":
        """The table of hand-built series, in their order."""
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
        return cls(
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
        return series.table if isinstance(series, SeriesView) else cls.from_objects(series.values())

    def restrict(self, keep_url: np.ndarray) -> "_SeriesTable":
        """The series of the URLs where `keep_url` (one flag per `urls`) is
        set, in the same order; scanners left without a series drop out."""
        kept = keep_url[self.key_url]
        kept_rows = keep_url[self.url]
        scanner_used = np.zeros(len(self.scanners), dtype=bool)
        scanner_used[self.key_scanner[kept]] = True
        new_scanner = np.cumsum(scanner_used, dtype=np.int32) - 1
        new_url = np.cumsum(keep_url, dtype=np.int32) - 1
        # The kept rows stay in row order, so a kept series' bounds move down
        # by the rows dropped before them; int32 keeps the per-row count small.
        dropped = np.zeros(len(kept_rows) + 1, np.int32)
        np.cumsum(~kept_rows, out=dropped[1:])
        start, stop = self.key_start[kept], self.key_stop[kept]
        return _SeriesTable(
            tuple(name for name, used in zip(self.scanners, scanner_used.tolist()) if used),
            tuple(url for url, keep in zip(self.urls, keep_url.tolist()) if keep),
            keys=(
                new_scanner[self.key_scanner[kept]], new_url[self.key_url[kept]],
                start - dropped[start], stop - dropped[stop],
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


def _vote(label: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per group of `label` rows (each starting at one of `starts`) and per
    scanner: the most common detecting label value, ties to the lower value
    as `_plurality_label` breaks them; 1 (Benign) where every verdict is
    benign, and 0 where there is none."""
    point = np.logical_or.reduceat(label != 0, starts, axis=0).view(np.uint8)
    top = np.zeros(point.shape, np.int32)
    for value in range(2, _N_LABELS + 1):
        votes = np.add.reduceat(label == value, starts, axis=0, dtype=np.int32)
        wins = votes > top
        point[wins], top[wins] = value, votes[wins]
    return point


def build_series(cohort: FeedCohort) -> SeriesView:
    """Build per-(scanner, URL) daily series from a deduplicated cohort.

    Day 0 is the URL's earliest first_seen day across its reports. The
    series depend only on the set of reports; keys follow their first
    occurrence in cohort report order, then verdict order. The result is a
    read-only `SeriesView`: the points live in int columns, and a
    LabelTimeSeries is built when its key is indexed.
    """
    reports = ReportTable.of(cohort.reports)
    day0 = np.full(len(reports.urls), np.iinfo(np.int32).max, np.int32)
    np.minimum.at(day0, reports.url, reports.first_seen_day)

    # Rows: the reports with verdicts, in (URL, day) order and cohort order
    # within a day; `rank` is a row's place in the cohort.
    size = reports.stop - reports.start
    rank = np.flatnonzero(size)
    url_of = reports.url[rank]
    used = distinct(url_of)
    names = [reports.urls[u] for u in used.tolist()]
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__), np.intp)
    url_code = np.zeros(len(reports.urls), np.int32)
    url_code[used[by_name]] = np.arange(len(used), dtype=np.int32)
    row_url, row_day = url_code[url_of], reports.scan_day[rank] - day0[url_of]
    by_day = np.lexsort((row_day, row_url))
    rank, row_url, row_day = rank[by_day], row_url[by_day], row_day[by_day]
    start, size = reports.start[rank], size[rank]

    # One uint8 (row x scanner) label matrix: a verdict's label + 1 where the
    # report lists the scanner, else 0; `place` holds the verdict's position
    # in its report. It is filled position by position, each step a vector
    # over the reports at least that long, so no per-verdict index is made.
    width = int(size.max()) if size.size else 0
    label = np.zeros((len(rank), len(reports.scanners)), np.uint8)
    place = np.zeros(label.shape, np.min_scalar_type(width))
    longest = np.argsort(-size, kind="stable")
    longer = len(size) - np.cumsum(np.bincount(size, minlength=width))  # rows longer than p
    for p in range(width):
        row = longest[:longer[p]]
        code = reports.codes[start[row] + p]
        column = reports.verdict_scanner[code]
        label[row, column] = reports.verdict_label[code] + 1
        place[row, column] = p

    # A point is a (URL, day) that holds a verdict of the scanner: one row's
    # label, or, where the day has several rows, their vote.
    groups = _run_bounds(len(rank), row_url, row_day)
    lengths = np.diff(groups)
    point = label if len(lengths) == len(rank) else label[groups[:-1]]
    shared = np.flatnonzero(lengths > 1)
    if shared.size:
        n = lengths[shared]
        offset = np.cumsum(n) - n
        point[shared] = _vote(label[np.repeat(groups[shared] - offset, n) + np.arange(n.sum())], offset)
    group_url, group_day = row_url[groups[:-1]], row_day[groups[:-1]]

    # Points are read scanner-major from the transpose: a scanner's points
    # run in (URL, day) order, and its series are the runs of one URL. A
    # series' key is its first verdict in cohort order, the least
    # (rank, place) over its rows.
    count = np.count_nonzero(point, axis=0)
    kept = np.flatnonzero(count)
    n_points = int(count.sum())
    point_url = np.empty(n_points, np.int32)
    point_day = np.empty(n_points, np.int32)
    dl = np.empty(n_points, np.int8)
    first_verdict = []
    at = 0
    for s in kept.tolist():
        hit = np.flatnonzero(point.T[s])
        stop = at + len(hit)
        point_url[at:stop], point_day[at:stop], dl[at:stop] = group_url[hit], group_day[hit], point.T[s][hit] - 1
        at = stop
        rows = hit if point is label else np.flatnonzero(label.T[s])
        series = _run_bounds(len(rows), row_url[rows])[:-1]
        first_verdict.append(np.minimum.reduceat(rank[rows] * width + place.T[s][rows], series))
    del label, place, point

    point_scanner = np.repeat(np.arange(len(kept), dtype=np.int32), count[kept])
    keys = _run_bounds(n_points, point_scanner, point_url)
    order = np.argsort(np.concatenate(first_verdict)) if first_verdict else np.empty(0, np.intp)
    key_start = keys[:-1][order]
    table = _SeriesTable(
        tuple(reports.scanners[s] for s in kept.tolist()), tuple(names[i] for i in by_name.tolist()),
        keys=(point_scanner[key_start], point_url[key_start], key_start, keys[1:][order]),
        rows=(point_scanner, point_url, point_day, (dl != 0).astype(np.int8), dl),
    )
    return SeriesView(table, [date.fromordinal(d) for d in day0[used[by_name]].tolist()])


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
