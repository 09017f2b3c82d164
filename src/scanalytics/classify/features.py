"""Per-URL classifier features: lexical, hosting, WHOIS, and cluster votes.

Feature vectors have a fixed group layout described by FEATURE_GROUPS.
Hosting and WHOIS enrichment comes from offline cache files; when a provider
has no record the group is marked with an explicit missing flag (the first
slot of the group) rather than being silently zeroed. Cluster-vote features
count distinct scanner clusters rather than scanners, which removes the bias
of correlated groups voting in lockstep.

A `FeatureTable` holds the features of many reports as one matrix, built in
columns from their `ReportTable`: cluster votes from the verdict code rows;
lexical features from the code points of all distinct URLs at once, each
count one `bincount`; hosting records looked up once per distinct URL and
WHOIS records once per distinct host, each group then filled a column at a
time. A `FeatureVector` is one read-only row of a table, `extract_features`
builds the table of one report, and `lexical_features` is the one-URL case
of the lexical columns.
"""

from __future__ import annotations

import csv
import math
import re
import zlib
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Protocol, Sequence

import numpy as np

from ..feed import (
    DetailedLabel, FeedFormatError, ReportTable, ScanReport, _parse_utc, _utc_us, _utf8_lines, distinct, normalize_url
)
from .factors import ScannerClusterModel

__all__ = [
    "SUSPICIOUS_TOKENS",
    "BRAND_TOKENS",
    "FEATURE_GROUPS",
    "ALL_GROUPS",
    "FeatureTable",
    "FeatureVector",
    "FeatureExtractionError",
    "HostingRecord",
    "WhoisRecord",
    "HostingCache",
    "WhoisCache",
    "vt_cluster_features",
    "lexical_features",
    "extract_features",
    "feature_matrix",
    "feature_manifest",
]

SUSPICIOUS_TOKENS = ("login", "verify", "secure", "account", "update", "confirm", "billing", "signin")

BRAND_TOKENS = (
    "paypal", "apple", "microsoft", "google", "amazon", "facebook", "netflix",
    "instagram", "whatsapp", "chase", "wellsfargo", "bankofamerica", "dropbox",
    "linkedin", "adobe", "dhl", "fedex", "usps", "steam", "ebay",
)

_ASN_BUCKETS = 16
_COUNTRY_BUCKETS = 8
_REGISTRAR_BUCKETS = 16

LEXICAL_FEATURES = (
    "url_length", "host_length", "dot_count", "hyphen_count", "digit_count",
    "at_count", "percent_count", "path_depth", "query_length", "host_is_ip",
    "suspicious_token_count", "brand_token_present", "host_entropy",
)
HOSTING_FEATURES = ("hosting_missing", "ip_count", "asn_count", "asn_bucket") + tuple(
    f"country_bucket_{i}" for i in range(_COUNTRY_BUCKETS)
)
WHOIS_FEATURES = ("whois_missing", "domain_age_days", "days_to_expiry", "registrar_bucket")
VT_CLUSTER_FEATURES = (
    "phishing_prop", "malware_prop", "phishing_label_count",
    "malware_label_count", "malicious_label_count", "positives",
)

FEATURE_GROUPS: dict[str, tuple[str, ...]] = {
    "lexical": LEXICAL_FEATURES,
    "hosting": HOSTING_FEATURES,
    "whois": WHOIS_FEATURES,
    "vt_cluster": VT_CLUSTER_FEATURES,
}
ALL_GROUPS = ("vt_cluster", "lexical", "hosting", "whois")


class FeatureExtractionError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class HostingRecord:
    ip_count: int
    asn_count: int
    asn: str
    country: str


@dataclass(frozen=True, slots=True)
class WhoisRecord:
    created: datetime
    expires: datetime
    registrar: str


class HostingProvider(Protocol):
    def lookup(self, url: str) -> HostingRecord | None: ...


class WhoisProvider(Protocol):
    def lookup(self, host: str) -> WhoisRecord | None: ...


class HostingCache:
    """Offline hosting enrichment keyed by normalized URL."""

    def __init__(self, records: dict[str, HostingRecord]):
        """`records` under their normalized URLs; URLs that normalize to one
        with different records raise ValueError."""
        self._records: dict[str, HostingRecord] = {}
        for url, record in records.items():
            url = normalize_url(url)
            seen = self._records.setdefault(url, record)
            if seen is not record and seen != record:
                raise ValueError(f"conflicting records for url {url!r}")

    @classmethod
    def from_csv(cls, path) -> "HostingCache":
        fields = {"url": normalize_url, "ip_count": int, "asn_count": int, "asn": str, "country": str}
        cache = cls({})
        cache._records = _read_cache_csv(path, fields, HostingRecord)  # keys normalized as __init__ does, once
        return cache

    def lookup(self, url: str) -> HostingRecord | None:
        """The record of `url` once normalized. A key is its own normal
        form, so a URL found as given, as a parsed table's URLs are, is
        not normalized again."""
        record = self._records.get(url)
        return record if record is not None else self._records.get(normalize_url(url))

    def __len__(self) -> int:
        return len(self._records)


class WhoisCache:
    """Offline WHOIS enrichment keyed by domain; hosts fall back to parent
    domains one label at a time."""

    def __init__(self, records: dict[str, WhoisRecord]):
        self._records = {k.lower(): v for k, v in records.items()}

    @classmethod
    def from_csv(cls, path) -> "WhoisCache":
        fields = {"domain": str.lower, "created": _parse_utc, "expires": _parse_utc, "registrar": str}
        cache = cls({})
        cache._records = _read_cache_csv(path, fields, WhoisRecord)  # keys lowered as __init__ does, once
        return cache

    def lookup(self, host: str) -> WhoisRecord | None:
        """The record of `host` or of its nearest parent domain; a single
        label is looked up only as the whole host."""
        name = host.lower()
        record = self._records.get(name)
        while record is None and name.count(".") > 1:
            name = name.partition(".")[2]
            record = self._records.get(name)
        return record

    def __len__(self) -> int:
        return len(self._records)


def _read_cache_csv(path, fields: dict, record: type) -> dict:
    """The records of a cache CSV: each row's fields, converted by
    `fields[name]`, make one `record` of all but the first, keyed by the
    first. A header without a column in `fields` fails the first data row,
    or the header itself in a file with none; a row missing a field, or a
    value its converter rejects, fails that row; so do two rows with one key
    and different records. Each raises FeedFormatError naming the file and
    the first failing row; a file that is not UTF-8 raises it naming the
    file. Equal rows count once. Blank lines are skipped and not numbered."""
    name = next(iter(fields))
    records: dict = {}
    row_of: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = next(reader, [])
        column = {field: at for at, field in enumerate(header)}  # a repeated name reads its last column
        absent = [field for field in fields if field not in column]
        spec = [(column.get(field, math.inf), convert) for field, convert in fields.items()]
        width = max(at for at, _ in spec) + 1  # infinite when a column is absent: every row then fails
        for row_no, values in enumerate(filter(None, reader), start=2):
            if len(values) < width:
                missing = [field for field in fields if column.get(field, math.inf) >= len(values)]
                raise FeedFormatError(f"{path}: row {row_no}: missing {', '.join(missing)}")
            try:
                key, *parts = [convert(values[at]) for at, convert in spec]
            except (ValueError, OverflowError) as exc:  # OverflowError: a date moved out of range by its offset
                raise FeedFormatError(f"{path}: row {row_no}: {exc}") from None
            entry = record(*parts)
            seen = records.setdefault(key, entry)
            if seen is not entry and seen != entry:
                raise FeedFormatError(f"{path}: rows {row_of[key]} and {row_no}: conflicting records for {name} {key!r}")
            row_of.setdefault(key, row_no)
    if absent:  # and no data row to fail
        raise FeedFormatError(f"{path}: row 1: missing {', '.join(absent)}")
    return records


def _bucket(value: str, buckets: int) -> int:
    return zlib.crc32(value.encode("utf-8")) % buckets


_IPV4_RE = re.compile(r"^(?:\d{1,3}\.){3}\d{1,3}$")


def _split_url(url: str) -> tuple[str, str, str]:
    """(host, path, query) of a URL; raises when no host can be found."""
    _, sep, rest = url.partition("://")
    if not sep:
        rest = url
    authority, _, tail = rest.partition("/")
    host = authority.rpartition("@")[2].partition(":")[0]
    if not host:
        raise FeatureExtractionError(f"URL has no host: {url!r}")
    path, _, query = tail.partition("?")
    return host, path, query


def _characters(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The length of each of `strings`, and the code point and the index of
    the string of each character of their concatenation."""
    lengths = np.fromiter(map(len, strings), np.intp, len(strings))
    chars = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), np.uint32)
    return lengths, chars, np.arange(len(strings), dtype=np.int32).repeat(lengths)


def _token_counts(texts: Sequence[str], tokens: Sequence[str]) -> np.ndarray:
    """`sum(text.count(token) for token in tokens)` for each of `texts`."""
    joined = "\n".join(texts)  # no token holds "\n", so no match spans two texts
    starts = []
    for token in tokens:  # each match's start, found as `str.count` finds them
        at = joined.find(token)
        while at >= 0:
            starts.append(at)
            at = joined.find(token, at + len(token))
    ends = (np.fromiter(map(len, texts), np.intp, len(texts)) + 1).cumsum()
    return np.bincount(ends.searchsorted(starts, side="right"), minlength=len(texts))


def _character_groups(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The size and the string of each (string, character) group of
    `strings`: each string's groups in the order their characters first
    occur in it, as `Counter(string).values()` orders them."""
    _, chars, owner = _characters(strings)
    # (code point, position) in one integer: sorted, the copies of one
    # character in one string are adjacent, first occurrence first
    key = chars.astype(np.int64)
    key <<= 32
    key |= np.arange(len(chars))
    key.sort()
    position = key & 0xFFFFFFFF
    key >>= 32
    row = owner[position]
    bounds = np.ones(len(key) + 1, bool)
    bounds[1:-1] = (key[1:] != key[:-1]) | (row[1:] != row[:-1])
    bounds = bounds.nonzero()[0]
    # each group as (first position, size), in position order
    group = position[bounds[:-1]]
    group <<= 32
    group |= bounds[1:] - bounds[:-1]
    group.sort()
    return group & 0xFFFFFFFF, owner[group >> 32]


def _host_entropy(hosts: Sequence[str]) -> list[float]:
    """The entropy of each host's characters,
    `-sum((c / total) * math.log2(c / total) for c in Counter(host).values())`:
    each distinct (count, total) term is computed once, and each host's
    terms are added by `sum` in `Counter`'s order."""
    count, row = _character_groups(hosts)
    lengths = np.fromiter(map(len, hosts), np.intp, len(hosts))
    width = int(lengths.max(initial=0)) + 1
    pair = count * width + lengths[row]
    pairs = distinct(pair)
    term = [(c / total) * math.log2(c / total) for c, total in (divmod(p, width) for p in pairs.tolist())]
    terms = list(map(term.__getitem__, pairs.searchsorted(pair).tolist()))  # one float object per distinct term
    ends = np.bincount(row, minlength=len(hosts)).cumsum().tolist()
    return [-sum(terms[a:b]) for a, b in zip([0, *ends], ends)]


def _lexical_columns(urls: Sequence[str], parts: Sequence[tuple[str, str, str]]) -> np.ndarray:
    """The lexical group of each of `urls`, which `_split_url` split into
    `parts`; see LEXICAL_FEATURES for the columns."""
    n = len(urls)
    hosts, paths, queries = zip(*parts) if n else ((), (), ())
    out = np.empty((n, len(LEXICAL_FEATURES)))
    out[:, 12] = _host_entropy(hosts)  # first: its arrays and the URLs' are not held at once
    lengths, chars, owner = _characters(urls)
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    wide = (chars > 127).nonzero()[0]
    digit[wide] = [chr(c).isdigit() for c in chars[wide].tolist()]  # other scripts' digits, superscripts
    _, path_chars, path_owner = _characters(paths)
    slash = path_chars == ord("/")
    segment = ~slash  # a segment begins at a character other than "/" that starts its path or follows a "/"
    segment[1:] &= slash[:-1] | (path_owner[1:] != path_owner[:-1])
    lowered = [url.lower() for url in urls]
    out[:, 0] = lengths
    out[:, 1] = np.fromiter(map(len, hosts), np.intp, n)
    for column, at in ((2, chars == ord(".")), (3, chars == ord("-")), (4, digit), (5, chars == ord("@")), (6, chars == ord("%"))):
        out[:, column] = np.bincount(owner[at], minlength=n)
    out[:, 7] = np.bincount(path_owner[segment], minlength=n)
    out[:, 8] = np.fromiter(map(len, queries), np.intp, n)
    out[:, 9] = [_IPV4_RE.match(host) is not None for host in hosts]
    out[:, 10] = _token_counts(lowered, SUSPICIOUS_TOKENS)
    out[:, 11] = _token_counts(lowered, BRAND_TOKENS) > 0
    return out


def lexical_features(url: str) -> tuple[float, ...]:
    """Fixed-order lexical vector; see LEXICAL_FEATURES for slot names."""
    return tuple(_lexical_columns([url], [_split_url(url)])[0].tolist())


def _hosting_columns(records: Sequence[HostingRecord | None]) -> np.ndarray:
    """The hosting group of each record; a missing record is flagged."""
    found = [i for i, record in enumerate(records) if record is not None]
    present = [records[i] for i in found]
    out = np.zeros((len(records), len(HOSTING_FEATURES)))
    out[:, 0] = 1.0
    out[found, 0] = 0.0
    out[found, 1] = [record.ip_count for record in present]
    out[found, 2] = [record.asn_count for record in present]
    out[found, 3] = [_bucket(record.asn, _ASN_BUCKETS) for record in present]
    out[found, [4 + _bucket(record.country, _COUNTRY_BUCKETS) for record in present]] = 1.0
    return out


def _whois_columns(records: Sequence[WhoisRecord | None], record_of_row: np.ndarray, scan_us: np.ndarray) -> np.ndarray:
    """The WHOIS group of each row, from its record `records[record_of_row[row]]`
    at the UTC instant `scan_us[row]`; a missing record is flagged. Day counts
    are `timedelta.total_seconds() / 86400.0` of the same instants."""
    found = [i for i, record in enumerate(records) if record is not None]
    at = np.full(len(records), -1)
    at[found] = np.arange(len(found))
    at = at[record_of_row]  # each row's record among those found
    rows = (at >= 0).nonzero()[0]
    present = [records[i] for i in found]
    fields = np.array(
        [(_utc_us(r.created), _utc_us(r.expires), _bucket(r.registrar, _REGISTRAR_BUCKETS)) for r in present], np.int64
    ).reshape(-1, 3)[at[rows]]
    out = np.zeros((len(record_of_row), len(WHOIS_FEATURES)))
    out[:, 0] = 1.0
    out[rows, 0] = 0.0
    out[rows, 1] = _days(scan_us[rows] - fields[:, 0])
    out[rows, 2] = _days(fields[:, 1] - scan_us[rows])
    out[rows, 3] = fields[:, 2]
    return out


def _days(us: np.ndarray) -> np.ndarray:
    """`us / 10**6 / 86400.0` of each element as Python computes it on ints.
    Past 2**53 an int64 no longer converts to a float exactly, so those
    elements are divided as Python ints."""
    days = us / 10**6 / 86400.0
    far = (np.abs(us) > 2**53).nonzero()[0]
    days[far] = [u / 10**6 / 86400.0 for u in us[far].tolist()]
    return days


def _vt_columns(table: ReportTable, model: ScannerClusterModel) -> tuple[np.ndarray, np.ndarray]:
    """The vt_cluster group of every row of `table`, from its verdict codes,
    and each row's number of detecting clusters. A row with none has no
    defined group; the caller raises for it.

    Each scanner gets one cluster id; a row's clusters are the distinct
    (row, cluster) pairs of its detecting verdicts.
    """
    n = len(table.start)
    _, cluster = np.unique(
        np.fromiter(map(model.cluster_of, table.scanners), np.int64, len(table.scanners)), return_inverse=True
    )
    width = len(table.scanners) or 1  # above every dense cluster id

    row, codes = table.flat()
    detecting = table.verdict_detected[codes]
    row, codes = row[detecting], codes[detecting]
    result = table.verdict_label[codes]
    pair = row * width + cluster[table.verdict_scanner[codes]]
    n_clusters = np.bincount(distinct(pair) // width, minlength=n)

    out = np.empty((n, len(VT_CLUSTER_FEATURES)))
    for column, attack in enumerate((DetailedLabel.PhishingSite, DetailedLabel.MalwareSite)):
        clusters = np.bincount(distinct(pair[result == attack]) // width, minlength=n)
        out[:, column] = clusters / np.maximum(n_clusters, 1)  # int / int: rounded as Python rounds it
    for column, attack in enumerate(
        (DetailedLabel.PhishingSite, DetailedLabel.MalwareSite, DetailedLabel.MaliciousSite), start=2
    ):
        out[:, column] = np.bincount(row[result == attack], minlength=n)
    out[:, 5] = table.positives
    return out, n_clusters


def _no_detection(scan_id: str) -> ValueError:
    return ValueError(f"report {scan_id!r} has no detecting verdicts")


def vt_cluster_features(report: ScanReport, model: ScannerClusterModel) -> tuple[float, float]:
    """Adjusted (phishing_prop, malware_prop) over detecting scanner clusters.

    Proportions count distinct cluster ids, not scanners, so duplicating a
    detecting scanner inside an existing cluster never changes them. Generic
    and other attack labels count toward the denominator only.
    """
    vt, n_clusters = _vt_columns(ReportTable.of([report]), model)
    if not n_clusters[0]:
        raise _no_detection(report.scan_id)
    return tuple(vt[0, :2].tolist())


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """The features of a sequence of reports: `matrix` has one row per
    report and the columns of `feature_manifest(ALL_GROUPS)`, and `urls` is
    each row's URL. Indexing and iterating give `FeatureVector` rows, so a
    table can be passed wherever a sequence of vectors is read."""

    urls: Sequence[str]
    matrix: np.ndarray

    @classmethod
    def build(
        cls,
        table: ReportTable,
        model: ScannerClusterModel,
        hosting: HostingProvider | None = None,
        whois: WhoisProvider | None = None,
    ) -> "FeatureTable":
        """The features of every row of `table`. Lexical and hosting features
        are computed once per distinct URL and WHOIS records looked up once
        per distinct host; enrichment groups without a provider record are
        flagged missing. The first row whose URL has no host raises
        FeatureExtractionError, or whose report has no detecting verdict
        ValueError, whichever comes first."""
        vt, n_clusters = _vt_columns(table, model)
        used, url_of_row = np.unique(table.url, return_inverse=True)
        targets = [table.urls[u] for u in used.tolist()]
        parts = []
        for url in targets:
            try:
                parts.append(_split_url(url))
            except FeatureExtractionError:
                parts.append(None)
        hostless = np.array([p is None for p in parts], bool)[url_of_row]
        bad = np.flatnonzero(hostless | (n_clusters == 0))
        if len(bad):
            if hostless[bad[0]]:
                _split_url(targets[url_of_row[bad[0]]])
            raise _no_detection(table.scan_id[bad[0]])

        whois_of = {host: whois.lookup(host) if whois is not None else None for host, _, _ in parts}
        records = [whois_of[host] for host, _, _ in parts]
        lexical = _lexical_columns(targets, parts)
        hosted = _hosting_columns([hosting.lookup(url) if hosting is not None else None for url in targets])
        dated = _whois_columns(records, url_of_row, table.scan_us)
        return cls(
            urls=[targets[u] for u in url_of_row.tolist()],
            matrix=np.concatenate([vt, lexical[url_of_row], hosted[url_of_row], dated], axis=1),  # ALL_GROUPS order
        )

    def __len__(self) -> int:
        return len(self.urls)

    def __getitem__(self, row: int) -> "FeatureVector":
        return FeatureVector(self, range(len(self))[row])

    def __iter__(self):
        return (FeatureVector(self, row) for row in range(len(self)))


class FeatureVector:
    """One row of a `FeatureTable`, read-only: its URL and each group's
    values as a tuple of floats. It equals and hashes by those values."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: FeatureTable, row: int):
        self._table = table
        self._row = row

    @property
    def url(self) -> str:
        return self._table.urls[self._row]

    def group(self, name: str) -> tuple[float, ...]:
        return tuple(self._table.matrix[self._row, _group_columns((name,))].tolist())

    @property
    def lexical(self) -> tuple[float, ...]:
        return self.group("lexical")

    @property
    def hosting(self) -> tuple[float, ...]:
        return self.group("hosting")

    @property
    def whois(self) -> tuple[float, ...]:
        return self.group("whois")

    @property
    def vt_cluster(self) -> tuple[float, ...]:
        return self.group("vt_cluster")

    @property
    def hosting_missing(self) -> bool:
        return self.hosting[0] == 1.0

    @property
    def whois_missing(self) -> bool:
        return self.whois[0] == 1.0

    def _values(self) -> tuple:
        return (self.url, tuple(self._table.matrix[self._row].tolist()))

    def __eq__(self, other):
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def extract_features(
    report: ScanReport,
    model: ScannerClusterModel,
    hosting: HostingProvider | None = None,
    whois: WhoisProvider | None = None,
    url: str | None = None,
) -> FeatureVector:
    """Full feature vector for one report: the one row of its
    `FeatureTable`, with `url`, when given, in place of the report's URL."""
    table = ReportTable.of([report])
    if url is not None:
        table = replace(table, urls=(normalize_url(url),), url=np.zeros(1, np.intp))
    return FeatureTable.build(table, model, hosting, whois)[0]


def feature_manifest(groups: Sequence[str] = ALL_GROUPS) -> tuple[str, ...]:
    """Flat ordered feature names for the selected groups."""
    names: list[str] = []
    for group in groups:
        if group not in FEATURE_GROUPS:
            raise ValueError(f"unknown feature group {group!r}")
        names.extend(f"{group}.{name}" for name in FEATURE_GROUPS[group])
    return tuple(names)


_COLUMN = {name: column for column, name in enumerate(feature_manifest(ALL_GROUPS))}


def _group_columns(groups: Sequence[str]) -> list[int]:
    """The `FeatureTable.matrix` columns of `groups`, in order."""
    return [_COLUMN[name] for name in feature_manifest(groups)]


def feature_matrix(vectors: Sequence[FeatureVector], groups: Sequence[str] = ALL_GROUPS) -> np.ndarray:
    """Stack selected groups into a dense (n, d) float matrix: a slice of
    the table's columns when `vectors` is one `FeatureTable` or rows of one."""
    columns = _group_columns(groups)
    if isinstance(vectors, FeatureTable):
        return vectors.matrix[:, columns]
    tables = {id(vector._table): vector._table for vector in vectors}
    if len(tables) == 1:
        (table,) = tables.values()
        return table.matrix[np.ix_([vector._row for vector in vectors], columns)]
    return np.asarray([vector._table.matrix[vector._row, columns] for vector in vectors], dtype=float)
