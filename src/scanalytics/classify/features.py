"""Per-URL classifier features: lexical, hosting, WHOIS, and cluster votes.

Feature vectors have a fixed group layout described by FEATURE_GROUPS.
Hosting and WHOIS enrichment comes from offline cache files; when a provider
has no record the group is marked with an explicit missing flag (the first
slot of the group) rather than being silently zeroed. Cluster-vote features
count distinct scanner clusters rather than scanners, which removes the bias
of correlated groups voting in lockstep.
"""

from __future__ import annotations

import csv
import math
import re
import zlib
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Protocol, Sequence

import numpy as np

from ..feed import DetailedLabel, FeedFormatError, ScanReport, normalize_url
from .factors import ScannerClusterModel

__all__ = [
    "SUSPICIOUS_TOKENS",
    "BRAND_TOKENS",
    "FEATURE_GROUPS",
    "ALL_GROUPS",
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


@dataclass(frozen=True)
class FeatureVector:
    url: str
    lexical: tuple[float, ...]
    hosting: tuple[float, ...]
    whois: tuple[float, ...]
    vt_cluster: tuple[float, ...]

    @property
    def hosting_missing(self) -> bool:
        return self.hosting[0] == 1.0

    @property
    def whois_missing(self) -> bool:
        return self.whois[0] == 1.0

    def group(self, name: str) -> tuple[float, ...]:
        return getattr(self, name)


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
        return cls({row.pop("url"): HostingRecord(**row) for row in _read_cache_csv(path, fields)})

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
        return cls({row.pop("domain"): WhoisRecord(**row) for row in _read_cache_csv(path, fields)})

    def lookup(self, host: str) -> WhoisRecord | None:
        labels = host.lower().split(".")
        for start in range(len(labels) - 1):
            record = self._records.get(".".join(labels[start:]))
            if record is not None:
                return record
        return self._records.get(host.lower())

    def __len__(self) -> int:
        return len(self._records)


def _read_cache_csv(path, fields: dict) -> list[dict]:
    """Rows of a cache CSV, each field converted by `fields[name]`. A missing
    column or field, or a value its converter rejects, raises FeedFormatError
    naming the file and row."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.DictReader(fh), start=2):
            missing = [name for name in fields if row.get(name) is None]
            if missing:
                raise FeedFormatError(f"{path}: row {row_no}: missing {', '.join(missing)}")
            try:
                rows.append({name: convert(row[name]) for name, convert in fields.items()})
            except ValueError as exc:
                raise FeedFormatError(f"{path}: row {row_no}: {exc}") from None
    return rows


def _parse_date(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


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


def _entropy(text: str) -> float:
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def lexical_features(url: str) -> tuple[float, ...]:
    """Fixed-order lexical vector; see LEXICAL_FEATURES for slot names."""
    host, path, query = _split_url(url)
    lower = url.lower()
    segments = [seg for seg in path.split("/") if seg]
    return (
        float(len(url)),
        float(len(host)),
        float(url.count(".")),
        float(url.count("-")),
        float(sum(ch.isdigit() for ch in url)),
        float(url.count("@")),
        float(url.count("%")),
        float(len(segments)),
        float(len(query)),
        1.0 if _IPV4_RE.match(host) else 0.0,
        float(sum(lower.count(tok) for tok in SUSPICIOUS_TOKENS)),
        1.0 if any(tok in lower for tok in BRAND_TOKENS) else 0.0,
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


def _whois_features(record: WhoisRecord | None, scan_date: datetime) -> tuple[float, ...]:
    if record is None:
        return (1.0,) + (0.0,) * (len(WHOIS_FEATURES) - 1)
    age_days = (scan_date - record.created).total_seconds() / 86400.0
    to_expiry = (record.expires - scan_date).total_seconds() / 86400.0
    return (0.0, age_days, to_expiry, float(_bucket(record.registrar, _REGISTRAR_BUCKETS)))


def vt_cluster_features(report: ScanReport, model: ScannerClusterModel) -> tuple[float, float]:
    """Adjusted (phishing_prop, malware_prop) over detecting scanner clusters.

    Proportions count distinct cluster ids, not scanners, so duplicating a
    detecting scanner inside an existing cluster never changes them. Generic
    and other attack labels count toward the denominator only.
    """
    return _vt_group(report, model)[:2]


def _vt_group(report: ScanReport, model: ScannerClusterModel) -> tuple[float, ...]:
    # One read of `verdicts`: a parsed report builds the tuple on each read.
    detecting = [(model.cluster_of(v.scanner_name), v.result) for v in report.verdicts if v.detected]
    if not detecting:
        raise ValueError(f"report {report.scan_id!r} has no detecting verdicts")
    n_clusters = len({cluster for cluster, _ in detecting})
    counts = Counter(label for _, label in detecting)

    def proportion(label: DetailedLabel) -> float:
        return len({cluster for cluster, result in detecting if result is label}) / n_clusters

    return (
        proportion(DetailedLabel.PhishingSite),
        proportion(DetailedLabel.MalwareSite),
        float(counts.get(DetailedLabel.PhishingSite, 0)),
        float(counts.get(DetailedLabel.MalwareSite, 0)),
        float(counts.get(DetailedLabel.MaliciousSite, 0)),
        float(report.positives),
    )


def extract_features(
    report: ScanReport,
    model: ScannerClusterModel,
    hosting: HostingProvider | None = None,
    whois: WhoisProvider | None = None,
    url: str | None = None,
) -> FeatureVector:
    """Full feature vector for one report. Deterministic; enrichment groups
    without a provider record are flagged missing."""
    target = normalize_url(url) if url is not None else report.url
    host, _, _ = _split_url(target)
    hosting_record = hosting.lookup(target) if hosting is not None else None
    whois_record = whois.lookup(host) if whois is not None else None
    return FeatureVector(
        url=target,
        lexical=lexical_features(target),
        hosting=_hosting_features(hosting_record),
        whois=_whois_features(whois_record, report.scan_date),
        vt_cluster=_vt_group(report, model),
    )


def feature_manifest(groups: Sequence[str] = ALL_GROUPS) -> tuple[str, ...]:
    """Flat ordered feature names for the selected groups."""
    names: list[str] = []
    for group in groups:
        if group not in FEATURE_GROUPS:
            raise ValueError(f"unknown feature group {group!r}")
        names.extend(f"{group}.{name}" for name in FEATURE_GROUPS[group])
    return tuple(names)


def feature_matrix(vectors: Sequence[FeatureVector], groups: Sequence[str] = ALL_GROUPS) -> np.ndarray:
    """Stack selected groups into a dense (n, d) float matrix."""
    rows = [
        [value for group in groups for value in vector.group(group)]
        for vector in vectors
    ]
    return np.asarray(rows, dtype=float)
