"""Scan-report feed model: record types, JSONL parsing, dedup, cohorts.

The feed is UTF-8 line-delimited JSON, one scan report per line:

    {"url": "...", "scan_date": "2021-03-01T00:00:00Z",
     "first_seen": "2021-03-01T00:00:00Z", "scan_id": "...",
     "positives": 2,
     "scans": {"ScannerName": {"detected": true, "result": "phishing site"}}}

`parse_feed` records a parse's reports in one `ReportTable`: per-report int
columns, and each report's verdicts as narrow codes into the parse's shared
`ScannerVerdict` objects, one flat code array cut into rows. A table
iterates as read-only views of its rows, which equal and hash like reports
built by hand; `parse_feed` returns them in a list. A report holds at most
one verdict per scanner, as a record's scans object does: a report built by
hand that lists a scanner twice is refused. Reports built by hand get their
table from the same builder, coded once per distinct verdict value. Cohorts
read a table's columns. A report's day, wherever it is read,
is the UTC calendar day of its timestamp, whatever offset the timestamp has.
`write_feed` writes reports back in the record form, JSON-encoding each
distinct verdict object once. `parse_feed` reads that form back decoding
each distinct verdict once: a line whose JSON is compact with `"scans"`
last is split into its header fields and its scans body. A body met again
while it is in a bounded cache (the last 64 K characters of bodies used)
takes its codes from there; any other is split into one text per scans
member, each distinct member text decoded once per parse. Any other line,
and one that names a scanner twice, is decoded whole; both ways give the
same reports and warnings. The caches are freed before the reports are
made.

Everything returned by this module is immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import csv
import enum
import json
import random
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache, partial
from operator import itemgetter
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np

from .artifacts import write_table
from .scanners import is_known_scanner

__all__ = [
    "DetailedLabel",
    "ScannerVerdict",
    "ScanReport",
    "ReportTable",
    "GroundTruthLabel",
    "GroundTruthRecord",
    "FeedCohort",
    "ParseWarning",
    "FeedFormatError",
    "GroundTruthConflictError",
    "parse_feed",
    "parse_feed_file",
    "report_to_json",
    "write_feed",
    "dedup_by_scan_id",
    "extract_fresh",
    "filter_ever_detected",
    "stratified_sample",
    "normalize_url",
    "load_ground_truth",
    "write_ground_truth",
]


class FeedFormatError(ValueError):
    """A feed line (or the stream) violates the record schema."""


class GroundTruthConflictError(ValueError):
    """The same URL carries conflicting ground-truth labels."""


class DetailedLabel(enum.IntEnum):
    """Attack-type verdict of a single scanner.

    Benign is the only value with binary label 0. OtherMalicious is the
    catch-all for unrecognized non-empty result strings: it counts as a
    detection but carries no attack-type vote. Enumeration order is the
    deterministic tie-break order wherever label conflicts are resolved.
    """

    Benign = 0
    PhishingSite = 1
    MaliciousSite = 2
    MalwareSite = 3
    SuspiciousSite = 4
    SpamSite = 5
    MiningSite = 6
    NotRecommendedSite = 7
    OtherMalicious = 8

    @property
    def is_attack_type(self) -> bool:
        """True for the named attack types (excludes Benign and the catch-all)."""
        return self not in (DetailedLabel.Benign, DetailedLabel.OtherMalicious)


# Case-insensitive result-string mapping; singular and plural forms both occur
# in the wild.
_LABEL_STRINGS: dict[str, DetailedLabel] = {
    "": DetailedLabel.Benign,
    "clean site": DetailedLabel.Benign,
    "phishing site": DetailedLabel.PhishingSite,
    "phishing sites": DetailedLabel.PhishingSite,
    "malicious site": DetailedLabel.MaliciousSite,
    "malicious sites": DetailedLabel.MaliciousSite,
    "malware site": DetailedLabel.MalwareSite,
    "malware sites": DetailedLabel.MalwareSite,
    "suspicious site": DetailedLabel.SuspiciousSite,
    "suspicious sites": DetailedLabel.SuspiciousSite,
    "spam site": DetailedLabel.SpamSite,
    "spam sites": DetailedLabel.SpamSite,
    "mining site": DetailedLabel.MiningSite,
    "mining sites": DetailedLabel.MiningSite,
    "not recommended site": DetailedLabel.NotRecommendedSite,
    "not recommended sites": DetailedLabel.NotRecommendedSite,
}

_CANONICAL_LABEL_STRINGS: dict[DetailedLabel, str] = {
    DetailedLabel.Benign: "clean site",
    DetailedLabel.PhishingSite: "phishing site",
    DetailedLabel.MaliciousSite: "malicious site",
    DetailedLabel.MalwareSite: "malware site",
    DetailedLabel.SuspiciousSite: "suspicious site",
    DetailedLabel.SpamSite: "spam site",
    DetailedLabel.MiningSite: "mining site",
    DetailedLabel.NotRecommendedSite: "not recommended site",
    # Deliberately not in _LABEL_STRINGS so it round-trips to the catch-all.
    DetailedLabel.OtherMalicious: "other malicious site",
}


def parse_detailed_label(result: str) -> DetailedLabel:
    """Map a raw result string to a DetailedLabel (catch-all for unknowns)."""
    return _LABEL_STRINGS.get(result.strip().lower(), DetailedLabel.OtherMalicious)


def label_to_result_string(label: DetailedLabel) -> str:
    return _CANONICAL_LABEL_STRINGS[label]


@dataclass(frozen=True, slots=True)
class ScannerVerdict:
    """One scanner's verdict inside one scan report.

    Invariants: detected == False implies result is Benign, and
    detected == True implies result is not Benign.
    """

    scanner_name: str
    detected: bool
    result: DetailedLabel

    def __post_init__(self) -> None:
        if self.detected and self.result is DetailedLabel.Benign:
            raise ValueError("detected verdict cannot carry a Benign result")
        if not self.detected and self.result is not DetailedLabel.Benign:
            raise ValueError("non-detected verdict must carry a Benign result")

    @property
    def is_known(self) -> bool:
        """True if the scanner name is in the bundled registry."""
        return is_known_scanner(self.scanner_name)


@dataclass(frozen=True, slots=True)
class ScanReport:
    """One scanner-aggregated scan of one URL at one point in time.

    `positives` always equals the number of detecting verdicts (recomputed on
    ingest when the raw field disagrees), and no scanner has more than one
    verdict. Timestamps are UTC; a naive one is read as UTC, and `scan_day`
    and `first_seen_day` are UTC days. A report pickles as the call that
    builds it, so unpickling runs the same checks.
    """

    url: str
    scan_date: datetime
    first_seen: datetime
    scan_id: str
    positives: int
    verdicts: tuple[ScannerVerdict, ...]

    def __post_init__(self) -> None:
        if _utc_us(self.first_seen) > _utc_us(self.scan_date):
            raise ValueError("first_seen is after scan_date")
        verdicts = self.verdicts
        n_detected = sum(1 for v in verdicts if v.detected)
        if self.positives != n_detected:
            raise ValueError("positives does not match detecting verdict count")
        if len({v.scanner_name for v in verdicts}) < len(verdicts):
            names = [v.scanner_name for v in verdicts]
            twice = next(name for name in names if names.count(name) > 1)
            raise ValueError(f"scanner {twice!r} has more than one verdict in report {self.scan_id!r}")

    def __reduce__(self):
        return ScanReport, (self.url, self.scan_date, self.first_seen, self.scan_id, self.positives, self.verdicts)

    @property
    def scan_day(self) -> date:
        return date.fromordinal(_utc_day(_utc_us(self.scan_date)))

    @property
    def first_seen_day(self) -> date:
        return date.fromordinal(_utc_day(_utc_us(self.first_seen)))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_DAY_US = 86_400_000_000


def _utc_us(ts: datetime) -> int:
    """Microseconds since the UTC epoch; a naive timestamp is read as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - _EPOCH) // _MICROSECOND


def _utc_day(us):
    """The date ordinal of the UTC day `us` microseconds after the epoch falls
    on; `us` is an int or an int array."""
    return us // _DAY_US + _EPOCH.toordinal()


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as `np.unique(values)`
    gives them. numpy 2.4's `np.unique` without a `return_*` flag imports
    `numpy.ma` to test for a mask, which costs a process time and memory."""
    values = np.sort(values, axis=None)
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


@dataclass(frozen=True, eq=False)
class ReportTable:
    """Scan reports as columns, one row per report.

    Per-report columns: `url` (an index into `urls`), `scan_us` and
    `first_seen_us` (UTC microseconds since the epoch), `scan_day` and
    `first_seen_day` (their UTC date ordinals), `scan_id` and `positives`.
    Row i's verdicts, in report order, are `verdicts[c]` for c in
    `codes[start[i]:stop[i]]`: each shared verdict object is stored once, and
    every verdict is a narrow code into them, in compressed rows over one
    flat code array. The analyses read the verdicts as columns indexed by
    code: `verdict_scanner` (an index into `scanners`, the sorted distinct
    names), `verdict_detected` and `verdict_label` (a `DetailedLabel`).
    Iterating a table gives a read-only `ScanReport` view of each row.
    """

    urls: Sequence[str]
    verdicts: Sequence[ScannerVerdict]
    scanners: Sequence[str]
    verdict_scanner: np.ndarray
    verdict_detected: np.ndarray
    verdict_label: np.ndarray
    codes: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    url: np.ndarray
    scan_us: np.ndarray
    first_seen_us: np.ndarray
    scan_day: np.ndarray
    first_seen_day: np.ndarray
    scan_id: Sequence[str]
    positives: np.ndarray

    @classmethod
    def of(cls, reports: "ReportTable | Sequence[ScanReport]") -> "ReportTable":
        """The table of `reports`, in their order; a table is its own.
        Reports that are views of one table's rows, as `parse_feed` returns
        them, are taken as they are; any other reports are added to a new
        table as a parse adds them, each distinct verdict value coded once."""
        if isinstance(reports, ReportTable):
            return reports
        table = getattr(reports[0], "_table", None) if reports else None
        if table is not None and all(type(r) is _TableReport and r._table is table for r in reports):
            return table.take(np.fromiter((r._row for r in reports), np.intp, len(reports)))
        builder = _TableBuilder()
        code: dict[ScannerVerdict, int] = {}
        for r in reports:
            verdicts = r.verdicts
            for v in verdicts:
                if v not in code:
                    code[v] = builder.code(v)
            builder.add(r.url, r.scan_date, r.first_seen, r.scan_id, r.positives, [code[v] for v in verdicts])
        return builder.table()

    def __len__(self) -> int:
        return len(self.url)

    def __iter__(self) -> Iterator[ScanReport]:
        urls = map(self.urls.__getitem__, self.url.tolist())
        return map(partial(_TableReport, self), range(len(self)), urls, self.scan_id, self.positives.tolist())

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's verdict codes, concatenated in row order, and the row
        each one belongs to."""
        lengths = self.stop - self.start
        row = np.repeat(np.arange(len(lengths)), lengths)
        return row, self.codes[np.repeat(self.start - (np.cumsum(lengths) - lengths), lengths) + np.arange(len(row))]

    def take(self, rows: np.ndarray) -> "ReportTable":
        """The table of `rows`, in that order, sharing URLs, verdicts and codes."""
        return replace(
            self, start=self.start[rows], stop=self.stop[rows], url=self.url[rows],
            scan_us=self.scan_us[rows], first_seen_us=self.first_seen_us[rows],
            scan_day=self.scan_day[rows], first_seen_day=self.first_seen_day[rows],
            scan_id=[self.scan_id[row] for row in rows.tolist()], positives=self.positives[rows],
        )


class _TableReport(ScanReport):
    """A `ScanReport` over one row of a `ReportTable`.

    It holds its row's URL, scan id and positives, shared with the table,
    and reads its timestamps, days and verdicts from the columns each time
    they are asked for; its verdicts are the table's shared objects. It equals
    and hashes like the report built by hand from the same values, and
    pickles, copies and `dataclasses.replace`s as one.
    """

    __slots__ = ("_table", "_row")

    def __new__(cls, *args, **fields):
        # `dataclasses.replace` calls the view's class with every field.
        return ScanReport(**fields) if fields else super().__new__(cls)

    def __init__(self, table: ReportTable, row: int, url: str, scan_id: str, positives: int):
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "url", url)
        object.__setattr__(self, "scan_id", scan_id)
        object.__setattr__(self, "positives", positives)

    @property
    def scan_date(self) -> datetime:
        return _EPOCH + _MICROSECOND * self._table.scan_us.item(self._row)

    @property
    def first_seen(self) -> datetime:
        return _EPOCH + _MICROSECOND * self._table.first_seen_us.item(self._row)

    @property
    def scan_day(self) -> date:
        return date.fromordinal(self._table.scan_day.item(self._row))

    @property
    def first_seen_day(self) -> date:
        return date.fromordinal(self._table.first_seen_day.item(self._row))

    @property
    def verdicts(self) -> tuple[ScannerVerdict, ...]:
        table, row = self._table, self._row
        return tuple(map(table.verdicts.__getitem__, table.codes[table.start.item(row):table.stop.item(row)].tolist()))

    def _values(self) -> tuple:
        return (self.url, self.scan_date, self.first_seen, self.scan_id, self.positives, self.verdicts)

    def __eq__(self, other):
        if not isinstance(other, ScanReport):
            return NotImplemented
        return self._values() == (other.url, other.scan_date, other.first_seen, other.scan_id, other.positives, other.verdicts)

    __hash__ = ScanReport.__hash__


class _TableBuilder:
    """The columns of one `ReportTable`, filled report by report: the only
    code that makes a table's columns (`ReportTable.take` selects rows)."""

    def __init__(self) -> None:
        self.url_index: dict[str, int] = {}
        self.verdicts: list[ScannerVerdict] = []
        self.scanner: list[str] = []  # each code's scanner name
        self.detected = array("B")  # and its detected flag
        self.codes = array("B")  # widened when a code outgrows it
        self.offsets = array("q", [0])
        self.url = array("i")
        self.scan_us = array("q")
        self.first_seen_us = array("q")
        self.scan_id: list[str] = []
        self.positives = array("i")

    def code(self, verdict: ScannerVerdict) -> int:
        """The code of a new shared verdict object."""
        code = len(self.verdicts)
        self.verdicts.append(verdict)
        self.scanner.append(verdict.scanner_name)
        self.detected.append(verdict.detected)
        if code >> 8 * self.codes.itemsize:
            self.codes = array("H" if self.codes.typecode == "B" else "I", self.codes)
        return code

    def add(self, url: str, scan_date: datetime, first_seen: datetime, scan_id: str, positives: int, codes: list[int]) -> None:
        self.url.append(self.url_index.setdefault(url, len(self.url_index)))
        self.scan_us.append(_utc_us(scan_date))
        self.first_seen_us.append(_utc_us(first_seen))
        self.scan_id.append(scan_id)
        self.positives.append(positives)
        self.codes.fromlist(codes)
        self.offsets.append(len(self.codes))

    def table(self) -> ReportTable:
        """The finished table; its columns share the builder's arrays."""
        def column(values: array) -> np.ndarray:
            return np.frombuffer(values, dtype=values.typecode)  # no copy

        offsets, scan_us, first_seen_us = column(self.offsets), column(self.scan_us), column(self.first_seen_us)
        scanners = sorted(set(self.scanner))  # not through numpy, which drops a name's trailing NULs
        index = {name: i for i, name in enumerate(scanners)}
        return ReportTable(
            urls=tuple(self.url_index), verdicts=tuple(self.verdicts), scanners=tuple(scanners),
            verdict_scanner=np.array([index[name] for name in self.scanner], np.intp),
            verdict_detected=column(self.detected).view(bool),
            verdict_label=np.array([v.result for v in self.verdicts], np.uint8),
            codes=column(self.codes), start=offsets[:-1], stop=offsets[1:], url=column(self.url),
            scan_us=scan_us, first_seen_us=first_seen_us,
            scan_day=_utc_day(scan_us).astype(np.int32), first_seen_day=_utc_day(first_seen_us).astype(np.int32),
            scan_id=self.scan_id, positives=column(self.positives),
        )


class GroundTruthLabel(enum.Enum):
    Benign = "benign"
    Phishing = "phishing"
    Malware = "malware"
    MaliciousUnspecified = "malicious"


@dataclass(frozen=True, slots=True)
class GroundTruthRecord:
    url: str
    label: GroundTruthLabel
    source: str
    labeled_at: datetime


@dataclass(frozen=True)
class FeedCohort:
    """A named URL set together with all of its reports.

    Reports are sorted by (url, UTC scan time, scan_id), contain no
    duplicate scan_id, and every report's URL is in `urls`. Built from a
    `ReportTable`, they are its rows; from report objects, those objects.
    """

    name: str
    urls: frozenset[str]
    reports: tuple[ScanReport, ...] | ReportTable

    @classmethod
    def build(cls, name: str, urls: Iterable[str], reports: Iterable[ScanReport] | ReportTable) -> "FeedCohort":
        """Restrict to `urls`, sort, and validate scan_id uniqueness, reading
        the columns of `ReportTable.of(reports)`."""
        reports = reports if isinstance(reports, ReportTable) else list(reports)
        return cls._select(name, urls, reports, ReportTable.of(reports))

    @classmethod
    def _select(
        cls, name: str, urls: Iterable[str], reports: Sequence[ScanReport] | ReportTable, table: ReportTable
    ) -> "FeedCohort":
        """`build` over `table`, which is `ReportTable.of(reports)` built once
        by the caller."""
        url_set = frozenset(urls)
        url = list(map(table.urls.__getitem__, table.url.tolist()))
        scan_us, scan_id = table.scan_us.tolist(), table.scan_id
        rows = sorted((i for i, u in enumerate(url) if u in url_set), key=lambda i: (url[i], scan_us[i], scan_id[i]))
        seen: set[str] = set()
        for i in rows:
            if scan_id[i] in seen:
                raise ValueError(f"duplicate scan_id in cohort: {scan_id[i]!r}")
            seen.add(scan_id[i])
        kept = table.take(np.array(rows, np.intp)) if reports is table else tuple(map(reports.__getitem__, rows))
        return cls(name=name, urls=url_set, reports=kept)


@dataclass(frozen=True, slots=True)
class ParseWarning:
    line: int  # 1-based line number; 0 when not tied to a line
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


def normalize_url(url: str) -> str:
    """Lowercase scheme and host; preserve path/query bytes exactly.

    Port and userinfo are kept as-is (only the host portion of the authority
    is case-folded). URLs without "//" authority are returned with only the
    scheme lowercased.
    """
    scheme, sep, rest = url.partition("://")
    if not sep:
        return url
    authority, slash, tail = rest.partition("/")
    userinfo, at, hostport = authority.rpartition("@")
    host, colon, port = hostport.partition(":")
    normalized_authority = userinfo + at + host.lower() + colon + port
    return scheme.lower() + sep + normalized_authority + slash + tail


def _parse_utc(value: str) -> datetime:
    """An ISO-8601 timestamp in UTC; one without an offset is read as UTC.
    Raises ValueError for a malformed value and OverflowError for one that
    its offset moves out of `datetime`'s range."""
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _parse_ts(value: str, field_name: str) -> datetime:
    try:
        return _parse_utc(value)
    except (ValueError, OverflowError, AttributeError, TypeError):
        raise FeedFormatError(f"bad {field_name} timestamp: {value!r}") from None


_FIELDS = ("url", "scan_date", "first_seen", "scan_id", "positives", "scans")
_SCANS = ',"scans":{'
# The most text of scans bodies one parse keeps in `_FeedParser.bodies`; the
# least recently used body goes first. A 20-scanner body is about 1 KB, a
# 95-scanner one 5 KB.
_BODY_CACHE_CHARS = 64 * 1024
_raw_decode = json.JSONDecoder().raw_decode


class _FeedParser:
    """One `parse_feed` call: its table, its warnings, and what it has coded.

    `verdict_cache` codes each distinct (scanner name, detected, raw result
    string), and `catch_all` whether each code was kept as a catch-all; the
    table builder holds each code's scanner and detected flag. A line in the
    writer's form (`_split`) is read as its header fields and its scans
    body, the text from `,"scans":{` on. `bodies` maps a body whose checks
    and warnings have run to its codes and detected count, holding at most
    `_BODY_CACHE_CHARS` of body text. A body not in it is read as one text
    per scans member: `members` holds each distinct text decoded, and
    `fragments` each text's code once its checks and warnings have run. A
    catch-all's text is in neither `fragments` nor, with its body, `bodies`,
    so its warning is made on every line.
    """

    def __init__(self) -> None:
        self.table = _TableBuilder()
        self.warnings: list[ParseWarning] = []
        self.names_seen: set[str] = set()
        self.verdict_cache: dict[tuple[str, bool, str], int] = {}
        self.catch_all: list[bool] = []
        self.members: dict[str, tuple[str, object]] = {}
        self.fragments: dict[str, int] = {}
        self.bodies: OrderedDict[str, tuple[list[int], int]] = OrderedDict()
        self.body_chars = 0

    def _split(self, line: str):
        """The header fields of a line in the writer's form, its scans body,
        and either None if the body is in `bodies`, or its member texts and
        their codes if all are in `fragments` (else None); or None for a line
        to decode whole.

        The writer's form is compact JSON with `"scans"` last. The members
        are split on `},"`, which inside a string can only end at its closing
        quote and so leaves a text that does not decode. When the header
        decodes as an object and every text as one member, the line is
        exactly their JSON put back together. A line that names one scanner
        twice is decoded whole: JSON keeps the name's last value in its
        first place.
        """
        p = line.rfind(_SCANS)
        if p < 0 or not line.endswith("}}"):
            return None
        try:  # `json.loads` less its whitespace scans; `end` must be the text's end
            header, end = _raw_decode(line[:p] + "}")
        except (json.JSONDecodeError, RecursionError):
            return None
        if end != p + 1 or not isinstance(header, dict) or not header or "scans" in header:
            return None
        body = line[p:]
        if body in self.bodies:
            return header, body, None, None
        start = p + len(_SCANS)
        if start == len(line) - 2:
            return header, body, [], []
        if line[start] != '"' or line[-3] != "}":
            return None
        pieces = line[start + 1:-3].split('},"')
        try:
            codes = list(map(self.fragments.__getitem__, pieces))
        except KeyError:
            codes = None
            members = self.members
            for piece in pieces:
                if piece not in members:
                    try:
                        member = json.loads('{"' + piece + "}}")
                    except (json.JSONDecodeError, RecursionError):
                        return None
                    if len(member) != 1:
                        return None
                    members[piece] = next(iter(member.items()))
            names = [members[piece][0] for piece in pieces]
        else:
            names = map(self.table.scanner.__getitem__, codes)
        if len(set(names)) < len(pieces):
            return None
        return header, body, pieces, codes

    def _codes(self, members: Iterable[tuple[str, object]], line_no: int) -> list[int]:
        """The codes of one line's scans members, after each member's checks
        and warnings."""
        verdict_cache, names_seen, warnings, catch_all = self.verdict_cache, self.names_seen, self.warnings, self.catch_all
        codes: list[int] = []
        for scanner_name, entry in members:
            if not isinstance(entry, dict) or "detected" not in entry:
                raise FeedFormatError(f"bad scans entry for {scanner_name!r}")
            detected = entry["detected"]
            if not isinstance(detected, bool):
                raise FeedFormatError(f"detected for {scanner_name!r} must be true or false")
            key = (scanner_name, detected, str(entry.get("result", "")))
            code = verdict_cache.get(key)
            if code is None:
                result = parse_detailed_label(key[2])
                # A scanner that flags the URL but gives a clean/empty result
                # string still counts as a detection, just without a type vote.
                kept_as_catch_all = detected and result is DetailedLabel.Benign
                if kept_as_catch_all:
                    result = DetailedLabel.OtherMalicious
                elif not detected:
                    result = DetailedLabel.Benign
                code = verdict_cache[key] = self.table.code(ScannerVerdict(scanner_name, detected, result))
                catch_all.append(kept_as_catch_all)
            if catch_all[code]:
                warnings.append(
                    ParseWarning(line_no, f"{scanner_name}: detected with benign result, kept as catch-all")
                )
            codes.append(code)
            if scanner_name not in names_seen:
                # Unknown names are accepted but tagged; warn once per name.
                names_seen.add(scanner_name)
                if not is_known_scanner(scanner_name):
                    warnings.append(ParseWarning(line_no, f"unknown scanner name {scanner_name!r}"))
        return codes

    def _body_codes(self, body: str, pieces: list[str], codes, line_no: int) -> tuple[list[int], int]:
        """The codes and detected count of a scans body that `_split` read,
        after the checks and warnings of any member not in `fragments`."""
        if pieces is None:
            self.bodies.move_to_end(body)
            return self.bodies[body]
        if codes is None:
            codes = self._codes(map(self.members.__getitem__, pieces), line_no)
            self.fragments.update((piece, code) for piece, code in zip(pieces, codes) if not self.catch_all[code])
        known = codes, sum(map(self.table.detected.__getitem__, codes))
        if len(body) <= _BODY_CACHE_CHARS and not any(map(self.catch_all.__getitem__, codes)):
            bodies = self.bodies
            self.body_chars += len(body)
            while self.body_chars > _BODY_CACHE_CHARS:
                self.body_chars -= len(bodies.popitem(last=False)[0])
            bodies[body] = known
        return known

    def add(self, line: str, line_no: int) -> None:
        """Check one line and add its report to the table."""
        split = self._split(line)
        if split is None:
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FeedFormatError(f"invalid JSON: {exc.msg}") from None
            except RecursionError:  # nested deeper than the decoder recurses
                raise FeedFormatError("invalid JSON: nested too deeply") from None
            if not isinstance(raw, dict):
                raise FeedFormatError("record is not a JSON object")
        else:
            raw, body, pieces, codes = split
        for key in _FIELDS if split is None else _FIELDS[:-1]:  # a split line has its scans
            if key not in raw:
                raise FeedFormatError(f"missing field {key!r}")

        url = raw["url"]
        if not isinstance(url, str) or not url:
            raise FeedFormatError("url must be a non-empty string")
        url = normalize_url(url)

        scan_date = _parse_ts(raw["scan_date"], "scan_date")
        first_seen = _parse_ts(raw["first_seen"], "first_seen")
        if first_seen > scan_date:
            raise FeedFormatError("first_seen is after scan_date")

        scan_id = raw["scan_id"]
        if not isinstance(scan_id, str) or not scan_id:
            raise FeedFormatError("scan_id must be a non-empty string")

        if split is None:
            scans = raw["scans"]
            if not isinstance(scans, dict):
                raise FeedFormatError("scans must be an object")
            codes = self._codes(scans.items(), line_no)
            n_detected = sum(map(self.table.detected.__getitem__, codes))
        else:
            codes, n_detected = self._body_codes(body, pieces, codes, line_no)

        raw_positives = raw["positives"]
        if not isinstance(raw_positives, int) or isinstance(raw_positives, bool) or raw_positives < 0:
            raise FeedFormatError("positives must be a non-negative integer")
        if raw_positives != n_detected:
            self.warnings.append(
                ParseWarning(
                    line_no,
                    f"positives field says {raw_positives} but {n_detected} verdicts detect; recomputed",
                )
            )

        self.table.add(url, scan_date, first_seen, scan_id, n_detected, codes)


def parse_feed(
    stream: Union[IO[str], IO[bytes], Iterable[str], Iterable[bytes]],
    strict: bool = False,
) -> tuple[list[ScanReport], list[ParseWarning]]:
    """Parse a line-delimited feed into reports, in stream order.

    In strict mode the first malformed line raises FeedFormatError; otherwise
    malformed lines are skipped and recorded as warnings. Blank lines are
    ignored. URLs are normalized (lowercased scheme and host).

    Reports of one call share one ScannerVerdict per distinct (scanner name,
    detected, raw result string); checks and warnings run for every line.
    The reports iterate one `ReportTable`, which holds each verdict as a
    narrow code into the shared objects (`ReportTable.of` takes their rows).
    A line in the writer's form (compact, `"scans"` last) is decoded in
    parts: its header fields, then its scans body. A body met again while it is among the last 64 K
    characters of bodies used (`_BODY_CACHE_CHARS`) costs one lookup; any
    other body is split into one text per member, and each distinct text is
    decoded once per call. A text's or a body's codes are kept only once its
    checks and warnings have run, and never when it holds a catch-all, whose
    warning is made on every line. Any other line, and one that lists a
    scanner twice, is decoded whole; both ways give the same reports and
    warnings. These caches are freed before the reports are made.
    """
    parser = _FeedParser()
    warnings = parser.warnings
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                if strict:
                    raise FeedFormatError(f"line {line_no}: not valid UTF-8") from None
                warnings.append(ParseWarning(line_no, "not valid UTF-8, skipped"))
                continue
        line = line.strip()
        if not line:
            continue
        try:
            parser.add(line, line_no)
        except FeedFormatError as exc:
            if strict:
                raise FeedFormatError(f"line {line_no}: {exc}") from None
            warnings.append(ParseWarning(line_no, f"{exc}; line skipped"))
    table = parser.table
    del parser  # its caches go before the views are made
    return list(table.table()), warnings


def parse_feed_file(path, strict: bool = False) -> tuple[list[ScanReport], list[ParseWarning]]:
    """`parse_feed` over the file at `path`, read as bytes: lines end at
    `\\n`, and a line that is not UTF-8 is one malformed line."""
    with open(path, "rb") as fh:
        return parse_feed(fh, strict=strict)


def _ts_to_string(ts: datetime) -> str:
    """The record form of a timestamp, in UTC; a naive one is read as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def report_to_json(report: ScanReport) -> str:
    """Serialize one report back to its single-line record form."""
    record = {
        "url": report.url,
        "scan_date": _ts_to_string(report.scan_date),
        "first_seen": _ts_to_string(report.first_seen),
        "scan_id": report.scan_id,
        "positives": report.positives,
        "scans": {
            v.scanner_name: {"detected": v.detected, "result": label_to_result_string(v.result)}
            for v in report.verdicts
        },
    }
    return json.dumps(record, separators=(",", ":"), sort_keys=False)


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _fragment(verdict: ScannerVerdict) -> str:
    """The verdict's `"name":{"detected":...,"result":...}` member of a
    record's scans."""
    scan = {"detected": verdict.detected, "result": label_to_result_string(verdict.result)}
    return _encode({verdict.scanner_name: scan})[1:-1]


def write_feed(reports: Iterable[ScanReport], path) -> None:
    """Write one `report_to_json` record per report, each on its own line.

    Each distinct verdict object is encoded once, as its scans member (its
    fragment), and each distinct timestamp once; a line is the report's
    encoded header fields and its verdicts' fragments joined. Reports that
    share their verdicts, as a parse's or a synth call's do, encode a few
    hundred fragments for any number of verdicts.
    """
    fragments: dict[int, str] = {}  # by id() of a verdict in `pinned`
    pinned: list[ScannerVerdict] = []  # keeps each id in `fragments` taken
    stamp = lru_cache(maxsize=None)(_ts_to_string)
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            verdicts = report.verdicts
            keys = list(map(id, verdicts))
            if not all(map(fragments.__contains__, keys)):
                for key, verdict in zip(keys, verdicts):
                    if key not in fragments:
                        fragments[key] = _fragment(verdict)
                        pinned.append(verdict)
            header = _encode({
                "url": report.url,
                "scan_date": stamp(report.scan_date),
                "first_seen": stamp(report.first_seen),
                "scan_id": report.scan_id,
                "positives": report.positives,
            })
            scans = ",".join(map(fragments.__getitem__, keys))
            fh.write(f'{header[:-1]},"scans":{{{scans}}}}}\n')


def dedup_by_scan_id(reports: list[ScanReport]) -> list[ScanReport]:
    """Keep the first occurrence of each scan_id, preserving input order."""
    seen: set[str] = set()
    out: list[ScanReport] = []
    for report in reports:
        if report.scan_id in seen:
            continue
        seen.add(report.scan_id)
        out.append(report)
    return out


def extract_fresh(reports: Sequence[ScanReport] | ReportTable) -> set[str]:
    """URLs first seen on the same UTC day as one of their scans.

    Day-granularity equality: a report makes its URL fresh when the UTC
    calendar day of first_seen equals the UTC calendar day of scan_date.
    """
    table = ReportTable.of(reports)
    fresh = distinct(table.url[table.first_seen_day == table.scan_day])
    return set(map(table.urls.__getitem__, fresh.tolist()))


def filter_ever_detected(reports: Sequence[ScanReport] | ReportTable) -> FeedCohort:
    """Cohort "ever_detected": the URLs with at least one positive report,
    keeping all their reports."""
    table = ReportTable.of(reports)
    detected = distinct(table.url[table.positives >= 1])
    return FeedCohort._select("ever_detected", map(table.urls.__getitem__, detected.tolist()), reports, table)


def stratified_sample(
    reports: list[ScanReport],
    strata: tuple[list[int], list[int]],
    per_cell: int,
    seed: int,
) -> set[str]:
    """Sample up to `per_cell` URLs uniformly from each 2-D stratum.

    A URL's cell is (bin of its report count, bin of its maximum positives),
    where each bin list [t1 < t2 < ...] partitions counts into
    [0,t1), [t1,t2), ..., [tk,inf). Deterministic for a fixed seed.
    """
    popularity_bins, positives_bins = strata
    for bins in (popularity_bins, positives_bins):
        if any(later <= earlier for earlier, later in zip(bins, bins[1:])):
            raise ValueError("bin thresholds must be strictly increasing")
    if per_cell < 1:
        raise ValueError("per_cell must be >= 1")

    n_reports: dict[str, int] = {}
    max_positives: dict[str, int] = {}
    for report in reports:
        n_reports[report.url] = n_reports.get(report.url, 0) + 1
        max_positives[report.url] = max(max_positives.get(report.url, 0), report.positives)

    cells: dict[tuple[int, int], list[str]] = {}
    for url in n_reports:
        cell = (
            bisect_right(popularity_bins, n_reports[url]),
            bisect_right(positives_bins, max_positives[url]),
        )
        cells.setdefault(cell, []).append(url)

    rng = random.Random(seed)
    sample: set[str] = set()
    for cell in sorted(cells):
        urls = sorted(cells[cell])
        if len(urls) <= per_cell:
            sample.update(urls)
        else:
            sample.update(rng.sample(urls, per_cell))
    return sample


def _utf8_lines(fh: IO[str], path) -> Iterator[str]:
    """The lines of `fh`, a text file at `path` opened as UTF-8; bytes that
    are not UTF-8 raise FeedFormatError naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise FeedFormatError(f"{path}: not valid UTF-8") from None


_GT_LABELS = {label.value: label for label in GroundTruthLabel}
_GT_COLUMNS = ("url", "label", "source", "labeled_at")


def load_ground_truth(path) -> list[GroundTruthRecord]:
    """Load ground-truth CSV (header: url,label,source,labeled_at).

    Exact duplicate rows collapse; a URL with more than one distinct label
    across sources raises GroundTruthConflictError listing every conflict.
    A row with a missing or empty field or a bad timestamp raises
    FeedFormatError naming the row, and a file that is not UTF-8 one naming
    the file. Rows are numbered as data rows from 2, skipping blank lines.
    """
    records: dict[tuple[str, str], GroundTruthRecord] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = next(reader, None)
        if header is None or not set(_GT_COLUMNS).issubset(header):
            raise FeedFormatError(f"ground truth CSV must have columns {sorted(_GT_COLUMNS)}")
        # A repeated name reads its last column, a short row's missing fields
        # are empty and extra fields are ignored, as csv.DictReader reads them.
        column = {name: at for at, name in enumerate(header)}
        spec = [column[name] for name in _GT_COLUMNS]
        width = max(spec) + 1
        fields_of = itemgetter(*spec)
        for row_no, values in enumerate(filter(None, reader), start=2):
            if len(values) < width:
                values += [""] * (width - len(values))
            fields = fields_of(values)
            url, label, source, stamp = stripped = [value.strip() for value in fields]
            if not all(stripped):
                empty = [name for name, value in zip(_GT_COLUMNS, stripped) if not value]
                raise FeedFormatError(f"row {row_no}: missing or empty {', '.join(empty)}")
            label_raw = label.lower()
            if label_raw not in _GT_LABELS:
                raise FeedFormatError(f"row {row_no}: unknown ground-truth label {fields[1]!r}")
            try:
                labeled_at = _parse_ts(stamp, "labeled_at")
            except FeedFormatError as exc:
                raise FeedFormatError(f"row {row_no}: {exc}") from None
            record = GroundTruthRecord(
                url=normalize_url(url),
                label=_GT_LABELS[label_raw],
                source=source,
                labeled_at=labeled_at,
            )
            key = (record.url, record.source)
            if key in records and records[key].label is not record.label:
                raise GroundTruthConflictError(
                    f"conflicting labels for {record.url!r} from source {record.source!r}"
                )
            records[key] = record

    by_url: dict[str, set[GroundTruthLabel]] = {}
    for record in records.values():
        by_url.setdefault(record.url, set()).add(record.label)
    conflicts = sorted(url for url, labels in by_url.items() if len(labels) > 1)
    if conflicts:
        raise GroundTruthConflictError(
            "conflicting labels across sources for: " + ", ".join(conflicts)
        )
    return sorted(records.values(), key=lambda r: (r.url, r.source))


def write_ground_truth(records: Iterable[GroundTruthRecord], path) -> None:
    rows = ((r.url, r.label.value, r.source, _ts_to_string(r.labeled_at)) for r in records)
    write_table(path, _GT_COLUMNS, rows)
