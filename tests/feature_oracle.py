"""Per-report feature extraction, one report and one Python tuple at a time.

`FeatureTable` builds the same features in columns; its rows must equal
these byte for byte. The float operations here are the reference: each
value is computed from one report's own verdicts, URL and timestamps.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import datetime

import numpy as np

from scanalytics.classify.features import (
    _ASN_BUCKETS,
    _COUNTRY_BUCKETS,
    _IPV4_RE,
    _REGISTRAR_BUCKETS,
    ALL_GROUPS,
    BRAND_TOKENS,
    HOSTING_FEATURES,
    SUSPICIOUS_TOKENS,
    WHOIS_FEATURES,
    _bucket,
    _split_url,
)
from scanalytics.feed import DetailedLabel, normalize_url


def entropy(text: str) -> float:
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def lexical(url: str) -> tuple[float, ...]:
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
        entropy(host),
    )


def hosting(record) -> tuple[float, ...]:
    if record is None:
        return (1.0,) + (0.0,) * (len(HOSTING_FEATURES) - 1)
    one_hot = [0.0] * _COUNTRY_BUCKETS
    one_hot[_bucket(record.country, _COUNTRY_BUCKETS)] = 1.0
    return (0.0, float(record.ip_count), float(record.asn_count), float(_bucket(record.asn, _ASN_BUCKETS)), *one_hot)


def whois(record, scan_date: datetime) -> tuple[float, ...]:
    if record is None:
        return (1.0,) + (0.0,) * (len(WHOIS_FEATURES) - 1)
    age_days = (scan_date - record.created).total_seconds() / 86400.0
    to_expiry = (record.expires - scan_date).total_seconds() / 86400.0
    return (0.0, age_days, to_expiry, float(_bucket(record.registrar, _REGISTRAR_BUCKETS)))


def vt_group(report, model) -> tuple[float, ...]:
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


def features(report, model, hosting_cache=None, whois_cache=None, url=None) -> tuple[str, dict[str, tuple]]:
    """(URL, {group: values}) of one report, as the per-report extraction
    computed them."""
    target = normalize_url(url) if url is not None else report.url
    host, _, _ = _split_url(target)
    hosting_record = hosting_cache.lookup(target) if hosting_cache is not None else None
    whois_record = whois_cache.lookup(host) if whois_cache is not None else None
    return target, {
        "lexical": lexical(target),
        "hosting": hosting(hosting_record),
        "whois": whois(whois_record, report.scan_date),
        "vt_cluster": vt_group(report, model),
    }


def matrix(rows, groups=ALL_GROUPS) -> np.ndarray:
    """The per-report rows stacked, as `feature_matrix` stacked vectors."""
    return np.asarray([[value for group in groups for value in row[group]] for _, row in rows], dtype=float)
