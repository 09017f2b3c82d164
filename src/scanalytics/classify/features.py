"""Per-URL classifier features: lexical, hosting, WHOIS, and cluster votes.

Feature vectors have a fixed group layout described by FEATURE_GROUPS.
Hosting and WHOIS enrichment comes from offline cache files; when a provider
has no record the group is marked with an explicit missing flag (the first
slot of the group) rather than being silently zeroed. Cluster-vote features
count distinct scanner clusters rather than scanners, which removes the bias
of correlated groups voting in lockstep.

A `FeatureTable` holds the features of many reports as one matrix, built in
columns from their `ReportTable`: cluster votes from the verdict code rows,
lexical and hosting features once per distinct URL, WHOIS once per distinct
host. A `FeatureVector` is one read-only row of a table, and
`extract_features` builds the table of one report.
"""

from __future__ import annotations

import csv
import math
import re
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Protocol, Sequence

import numpy as np

from ..feed import DetailedLabel, FeedFormatError, ReportTable, ScanReport, _utc_us, _utf8_lines, distinct, normalize_url
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
        self._records = dict(records)

    @classmethod
    def from_csv(cls, path) -> "HostingCache":
        fields = {"url": normalize_url, "ip_count": int, "asn_count": int, "asn": str, "country": str}
        return cls({url: HostingRecord(**row) for url, row in _read_cache_csv(path, fields).items()})

    def lookup(self, url: str) -> HostingRecord | None:
        return self._records.get(normalize_url(url))

    def __len__(self) -> int:
        return len(self._records)


class WhoisCache:
    """Offline WHOIS enrichment keyed by domain; hosts fall back to parent
    domains one label at a time."""

    def __init__(self, records: dict[str, WhoisRecord]):
        self._records = {k.lower(): v for k, v in records.items()}

    @classmethod
    def from_csv(cls, path) -> "WhoisCache":
        fields = {"domain": str.lower, "created": _parse_date, "expires": _parse_date, "registrar": str}
        return cls({domain: WhoisRecord(**row) for domain, row in _read_cache_csv(path, fields).items()})

    def lookup(self, host: str) -> WhoisRecord | None:
        labels = host.lower().split(".")
        for start in range(len(labels) - 1):
            record = self._records.get(".".join(labels[start:]))
            if record is not None:
                return record
        return self._records.get(host.lower())

    def __len__(self) -> int:
        return len(self._records)


def _read_cache_csv(path, fields: dict) -> dict[str, dict]:
    """Rows of a cache CSV, each field converted by `fields[name]`, keyed by
    the first field. A missing column or field, or a value its converter
    rejects, raises FeedFormatError naming the file and row; so do two rows
    with one key and different values. A file that is not UTF-8 raises it
    naming the file. Equal rows count once."""
    key = next(iter(fields))
    rows: dict[str, dict] = {}
    row_of: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.DictReader(_utf8_lines(fh, path)), start=2):
            missing = [name for name in fields if row.get(name) is None]
            if missing:
                raise FeedFormatError(f"{path}: row {row_no}: missing {', '.join(missing)}")
            try:
                converted = {name: convert(row[name]) for name, convert in fields.items()}
            except ValueError as exc:
                raise FeedFormatError(f"{path}: row {row_no}: {exc}") from None
            at = converted.pop(key)
            if at in rows and rows[at] != converted:
                raise FeedFormatError(f"{path}: rows {row_of[at]} and {row_no}: conflicting records for {key} {at!r}")
            rows.setdefault(at, converted)
            row_of.setdefault(at, row_no)
    return rows


def _parse_date(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _bucket(value: str, buckets: int) -> int:
    return zlib.crc32(value.encode("utf-8")) % buckets


_IPV4_RE = re.compile(r"^(?:\d{1,3}\.){3}\d{1,3}$")
_BRAND_RE = re.compile("|".join(map(re.escape, BRAND_TOKENS)))  # matches where any token occurs


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


def _entropy(text: str) -> float:
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def _digit_count(text: str) -> int:
    """Characters of `text` for which `str.isdigit` holds."""
    if text.isascii():
        ascii = text.encode("ascii")
        return len(ascii) - len(ascii.translate(None, b"0123456789"))
    return sum(map(str.isdigit, text))  # other scripts' digits, superscripts


def lexical_features(url: str) -> tuple[float, ...]:
    """Fixed-order lexical vector; see LEXICAL_FEATURES for slot names."""
    host, path, query = _split_url(url)
    lower = url.lower()
    segments = path.split("/")
    return (
        float(len(url)),
        float(len(host)),
        float(url.count(".")),
        float(url.count("-")),
        float(_digit_count(url)),
        float(url.count("@")),
        float(url.count("%")),
        float(len(segments) - segments.count("")),
        float(len(query)),
        1.0 if _IPV4_RE.match(host) else 0.0,
        float(sum(map(lower.count, SUSPICIOUS_TOKENS))),
        1.0 if _BRAND_RE.search(lower) else 0.0,
        _entropy(host),
    )


def _hosting_features(record: HostingRecord | None) -> tuple[float, ...]:
    if record is None:
        return (1.0,) + (0.0,) * (len(HOSTING_FEATURES) - 1)
    one_hot = [0.0] * _COUNTRY_BUCKETS
    one_hot[_bucket(record.country, _COUNTRY_BUCKETS)] = 1.0
    return (
        0.0,
        float(record.ip_count),
        float(record.asn_count),
        float(_bucket(record.asn, _ASN_BUCKETS)),
        *one_hot,
    )


def _whois_features(record: WhoisRecord | None, scan_us: int) -> tuple[float, ...]:
    """The WHOIS group at the UTC instant `scan_us`; day counts are
    `timedelta.total_seconds() / 86400.0` of the same instants."""
    if record is None:
        return (1.0,) + (0.0,) * (len(WHOIS_FEATURES) - 1)
    age_days = (scan_us - _utc_us(record.created)) / 10**6 / 86400.0
    to_expiry = (_utc_us(record.expires) - scan_us) / 10**6 / 86400.0
    return (0.0, age_days, to_expiry, float(_bucket(record.registrar, _REGISTRAR_BUCKETS)))


def _vt_columns(table: ReportTable, model: ScannerClusterModel) -> tuple[np.ndarray, np.ndarray]:
    """The vt_cluster group of every row of `table`, from its verdict codes,
    and each row's number of detecting clusters. A row with none has no
    defined group; the caller raises for it.

    Each distinct verdict gets one cluster id and label; a row's clusters
    are its distinct (row, cluster) pairs.
    """
    n = len(table.start)
    verdicts = table.verdicts
    detected = np.fromiter((v.detected for v in verdicts), bool, len(verdicts))
    label = np.fromiter((v.result for v in verdicts), np.int8, len(verdicts))
    _, cluster = np.unique(
        np.fromiter((model.cluster_of(v.scanner_name) for v in verdicts), np.int64, len(verdicts)),
        return_inverse=True,
    )
    width = len(verdicts) or 1  # above every dense cluster id

    row, codes = table.flat()
    detecting = detected[codes]
    row, codes = row[detecting], codes[detecting]
    result = label[codes]
    pair = row * width + cluster[codes]
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
        lexical = np.array([lexical_features(url) for url in targets]).reshape(-1, len(LEXICAL_FEATURES))
        hosted = np.array(
            [_hosting_features(hosting.lookup(url) if hosting is not None else None) for url in targets]
        ).reshape(-1, len(HOSTING_FEATURES))
        dated = np.array(
            [_whois_features(records[u], scan_us) for u, scan_us in zip(url_of_row.tolist(), table.scan_us.tolist())]
        ).reshape(-1, len(WHOIS_FEATURES))
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
