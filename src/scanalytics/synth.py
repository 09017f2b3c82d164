"""Deterministic synthetic feed generation with planted scanner behaviors.

Every analytic module's recovery tests run against feeds produced here: the
generator plants behavior groups, leader/copier lags, specialists, flippers
and per-URL attack classes, and reports exactly what it planted in a manifest
so tests can assert recovery. All randomness flows from per-(scanner, URL)
sub-generators derived from the scenario seed, so output is byte-for-byte
reproducible and independent of iteration order. A sub-generator is made
only where a path draws from it: stable and flipper scanners, and leaders on
benign URLs, draw nothing.

The reports of one `generate` or `generate_classifier_corpus` call share
their verdicts: one `ScannerVerdict` per (scanner, detected, label) value,
checked once when it is first made. `generate` plants each scanner's days on
a URL as a column of shared verdicts and transposes the URL's columns into
its daily reports, so no verdict is looked up or built one at a time.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from itertools import chain
from numbers import Integral, Real

from .feed import (
    DetailedLabel,
    GroundTruthLabel,
    GroundTruthRecord,
    ScannerVerdict,
    ScanReport,
)

__all__ = [
    "ScannerArchetype",
    "ScenarioConfig",
    "GeneratedFeed",
    "generate",
    "ClassifierCorpusConfig",
    "ClassifierCorpus",
    "generate_classifier_corpus",
    "PRESETS",
    "preset_config",
]

_CLASS_LABEL = {
    "phishing": DetailedLabel.PhishingSite,
    "malware": DetailedLabel.MalwareSite,
}

_GT_LABEL = {
    "phishing": GroundTruthLabel.Phishing,
    "malware": GroundTruthLabel.Malware,
    "benign": GroundTruthLabel.Benign,
}

_LABEL_BY_NAME = {label.name: label for label in DetailedLabel}


def _require_integer(name: str, value, low: int = 0) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_fraction(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value <= 1:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def _require_string(name: str, value, optional: bool = False) -> None:
    if not (isinstance(value, str) or (optional and value is None)):
        raise ValueError(f"{name} must be a string{' or null' if optional else ''}, got {value!r}")


@dataclass(frozen=True)
class ScannerArchetype:
    """One planted scanner behavior.

    kinds:
      stable     detects every day with a constant label
      flipper    detects every day, cycling through `labels` every period_days
      leader     detects malicious URLs from a per-URL onset drawn uniformly
                 from [onset_min, onset_max]; optional fixed duration_days or
                 per-day dropout_hazard end the detection run
      copier     replays another scanner's detections lag_days later
      specialist detects URLs of its attack type with probability `recall`
                 from its onset; false-detects other URLs at a rate derived
                 from `precision` and the scenario class counts
    """

    name: str
    kind: str
    group: str | None = None  # planted behavior-group tag for manifests
    label: str | None = None  # DetailedLabel name for stable/leader
    labels: tuple[str, ...] = ()  # flipper cycle
    period_days: int = 1
    copies: str | None = None
    lag_days: int = 0
    attack: str | None = None  # specialist target class
    recall: float = 1.0
    precision: float = 1.0
    onset_min: int = 0
    onset_max: int = 0
    duration_days: int | None = None
    dropout_hazard: float = 0.0

    def __post_init__(self) -> None:
        for name in ("name", "kind"):
            _require_string(name, getattr(self, name))
        for name in ("group", "label", "copies", "attack"):
            _require_string(name, getattr(self, name), optional=True)
        for label in self.labels:
            _require_string("labels", label)
        if self.kind not in ("stable", "flipper", "leader", "copier", "specialist"):
            raise ValueError(f"unknown archetype kind {self.kind!r}")
        for name in ("onset_min", "onset_max", "lag_days", "period_days"):
            _require_integer(name, getattr(self, name))
        if self.duration_days is not None:
            _require_integer("duration_days", self.duration_days)
        if self.onset_min > self.onset_max:
            raise ValueError(f"onset_min {self.onset_min} exceeds onset_max {self.onset_max}")
        _require_fraction("dropout_hazard", self.dropout_hazard)
        if self.kind == "copier" and (self.copies is None or self.lag_days < 1):
            raise ValueError("copier needs a target and lag_days >= 1")
        if self.kind == "specialist" and not (0 < self.recall <= 1 and 0 < self.precision <= 1):
            raise ValueError("specialist recall/precision must be in (0, 1]")
        if self.kind == "specialist" and self.attack not in _CLASS_LABEL:
            raise ValueError(f"specialist attack must be one of {sorted(_CLASS_LABEL)}, got {self.attack!r}")
        if self.kind == "flipper" and not (self.labels and self.period_days >= 1):
            raise ValueError("flipper needs labels and period_days >= 1")
        unknown = [name for name in (self.label, *self.labels) if name is not None and name not in _LABEL_BY_NAME]
        if unknown:
            raise ValueError(f"unknown label names {unknown}; known: {sorted(_LABEL_BY_NAME)}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n_urls: dict[str, int]  # class -> count; classes: phishing, malware, benign
    horizon_days: int
    archetypes: tuple[ScannerArchetype, ...]
    seed: int
    noise: float = 0.0  # per-(scanner, URL, day) detection flip probability
    start: date = date(2021, 3, 1)
    # Fraction of URLs whose first_seen predates their first scan by 30 days,
    # so freshness extraction has planted negatives to recover.
    stale_fraction: float = 0.0

    def __post_init__(self) -> None:
        known = set(_GT_LABEL)
        if not isinstance(self.n_urls, dict) or set(self.n_urls) - known:
            raise ValueError(f"n_urls must map URL classes among {sorted(known)} to counts")
        for cls, count in self.n_urls.items():
            _require_integer(f"n_urls[{cls!r}]", count)
        _require_integer("horizon_days", self.horizon_days, low=1)
        _require_fraction("noise", self.noise)
        _require_fraction("stale_fraction", self.stale_fraction)
        if not isinstance(self.start, date):
            raise ValueError(f"start must be a date, got {self.start!r}")
        names = [a.name for a in self.archetypes]
        if len(names) != len(set(names)):
            raise ValueError("archetype names must be unique")
        copies = {a.name: a.copies for a in self.archetypes if a.kind == "copier"}
        for name, target in copies.items():
            if target not in names:
                raise ValueError(f"copier {name!r} references unknown scanner {target!r}")
        # A copier whose targets still lead to a copier after len(copies) steps is on or behind a cycle.
        ends = dict(copies)
        for _ in copies:
            ends = {name: copies.get(end, end) for name, end in ends.items()}
        cycle = [name for name, end in ends.items() if end in copies]
        if cycle:
            raise ValueError(f"copier dependency cycle: {', '.join(cycle)}")


@dataclass(frozen=True)
class GeneratedFeed:
    reports: tuple[ScanReport, ...]
    truth: tuple[GroundTruthRecord, ...]
    manifest: dict


def _sub_rng(seed: int, *parts: str) -> random.Random:
    return random.Random(":".join((str(seed),) + parts))


class _Verdicts(dict):
    """The shared verdicts of one generator call: `shared[name, label]` is
    scanner `name`'s verdict detecting `label`, or its benign verdict when
    `label` is None, made the first time it is asked for."""

    def __missing__(self, key: tuple[str, DetailedLabel | None]) -> ScannerVerdict:
        name, label = key
        detected = label is not None
        verdict = self[key] = ScannerVerdict(name, detected, label if detected else DetailedLabel.Benign)
        return verdict


def _class_counts(config: ScenarioConfig) -> dict[str, int]:
    return {cls: config.n_urls.get(cls, 0) for cls in ("phishing", "malware", "benign")}


def _specialist_fp_rate(arch: ScannerArchetype, counts: dict[str, int]) -> float:
    """False-detection rate that realizes the target precision in expectation."""
    n_match = counts.get(arch.attack or "", 0)
    n_other = sum(counts.values()) - n_match
    if n_other <= 0 or arch.precision >= 1.0:
        return 0.0
    rate = arch.recall * n_match * (1.0 - arch.precision) / (arch.precision * n_other)
    return min(rate, 1.0)


def _base_detection_days(
    arch: ScannerArchetype,
    url: str,
    url_class: str,
    config: ScenarioConfig,
    fp_rate: float,
) -> dict[int, DetailedLabel]:
    """Planted {day -> label} for one non-copier scanner on one URL."""
    horizon = config.horizon_days
    class_label = _CLASS_LABEL.get(url_class)

    if arch.kind == "stable":
        label = _LABEL_BY_NAME[arch.label] if arch.label else (class_label or DetailedLabel.MaliciousSite)
        return {day: label for day in range(horizon)}

    if arch.kind == "flipper":
        cycle = tuple(_LABEL_BY_NAME[name] for name in arch.labels)
        return {day: cycle[(day // arch.period_days) % len(cycle)] for day in range(horizon)}

    if arch.kind == "leader":
        if url_class == "benign":
            return {}
        label = _LABEL_BY_NAME[arch.label] if arch.label else (class_label or DetailedLabel.MaliciousSite)
        rng = _sub_rng(config.seed, arch.name, url)
        onset = rng.randint(arch.onset_min, arch.onset_max)
        days: dict[int, DetailedLabel] = {}
        day = onset
        while day < horizon:
            if arch.duration_days is not None and day >= onset + arch.duration_days:
                break
            if day > onset and arch.dropout_hazard > 0 and rng.random() < arch.dropout_hazard:
                break
            days[day] = label
            day += 1
        return days

    if arch.kind == "specialist":
        label = _LABEL_BY_NAME[arch.label] if arch.label else _CLASS_LABEL[arch.attack]
        rng = _sub_rng(config.seed, arch.name, url)
        if url_class == arch.attack:
            fires = rng.random() < arch.recall
        else:
            fires = rng.random() < fp_rate
        if not fires:
            return {}
        onset = rng.randint(arch.onset_min, arch.onset_max)
        return {day: label for day in range(onset, horizon)}

    raise AssertionError(f"unresolved kind {arch.kind}")


def _apply_noise(
    days: dict[int, DetailedLabel],
    arch: ScannerArchetype,
    url: str,
    url_class: str,
    config: ScenarioConfig,
) -> dict[int, DetailedLabel]:
    if config.noise <= 0:
        return days
    rng = _sub_rng(config.seed, "noise", arch.name, url)
    fallback = _CLASS_LABEL.get(url_class, DetailedLabel.MaliciousSite)
    out = dict(days)
    for day in range(config.horizon_days):
        if rng.random() < config.noise:
            if day in out:
                del out[day]
            else:
                out[day] = fallback
    return out


def generate(config: ScenarioConfig) -> GeneratedFeed:
    """Emit a dedup-clean chronological feed plus truth and planted manifest.

    Every URL gets one report per day over the horizon, containing a verdict
    from every archetype scanner. Copiers replay their target's (post-noise)
    detections shifted by their lag, so planted lags hold exactly.
    """
    counts = _class_counts(config)
    urls: list[tuple[str, str]] = []  # (url, class)
    for cls in ("phishing", "malware", "benign"):
        for i in range(counts[cls]):
            urls.append((f"http://{cls}-{i:04d}.{config.name}.test/page", cls))

    fp_rates = {
        arch.name: _specialist_fp_rate(arch, counts)
        for arch in config.archetypes
        if arch.kind == "specialist"
    }

    # Copiers resolve after their targets; chains are followed transitively.
    planted: dict[str, dict[str, dict[int, DetailedLabel]]] = {}
    pending = list(config.archetypes)
    resolved: set[str] = set()
    while pending:  # `ScenarioConfig` refuses copier cycles
        for arch in list(pending):
            if arch.kind == "copier" and arch.copies not in resolved:
                continue
            per_url: dict[str, dict[int, DetailedLabel]] = {}
            for url, cls in urls:
                if arch.kind == "copier":
                    target = planted[arch.copies][url]
                    days = {
                        day + arch.lag_days: label
                        for day, label in target.items()
                        if day + arch.lag_days < config.horizon_days
                    }
                else:
                    days = _base_detection_days(arch, url, cls, config, fp_rates.get(arch.name, 0.0))
                    days = _apply_noise(days, arch, url, cls, config)
                per_url[url] = days
            planted[arch.name] = per_url
            resolved.add(arch.name)
            pending.remove(arch)

    start_dt = datetime.combine(config.start, time(12, 0), tzinfo=timezone.utc)
    stale_urls = {
        url
        for url, _ in urls
        if config.stale_fraction > 0
        and _sub_rng(config.seed, "stale", url).random() < config.stale_fraction
    }
    scan_dates = [start_dt + timedelta(days=day) for day in range(config.horizon_days)]
    shared = _Verdicts()
    reports: list[ScanReport] = []
    for url_index, (url, cls) in enumerate(urls):
        first_seen = start_dt - timedelta(days=30) if url in stale_urls else start_dt
        planted_days = [planted[arch.name][url] for arch in config.archetypes]
        # One column of shared verdicts per scanner, day by day; a day's
        # report is the day's row across the columns.
        columns = []
        for arch, days in zip(config.archetypes, planted_days):
            column = [shared[arch.name, None]] * config.horizon_days
            for day, label in days.items():
                column[day] = shared[arch.name, label]
            columns.append(column)
        positives = Counter(chain.from_iterable(planted_days))
        rows = zip(*columns) if columns else [()] * config.horizon_days
        for day, row in enumerate(rows):
            reports.append(
                ScanReport(
                    url=url,
                    scan_date=scan_dates[day],
                    first_seen=first_seen,
                    scan_id=f"{config.name}-{config.seed}-u{url_index:05d}-d{day:03d}",
                    positives=positives[day],
                    verdicts=row,
                )
            )
    reports.sort(key=lambda r: (r.scan_date, r.url))

    truth = tuple(
        GroundTruthRecord(url=url, label=_GT_LABEL[cls], source="synthgen", labeled_at=start_dt)
        for url, cls in urls
    )

    manifest = {
        "scenario": config.name,
        "seed": config.seed,
        "horizon_days": config.horizon_days,
        "n_reports": len(reports),
        "classes": {url: cls for url, cls in urls},
        "groups": {a.name: a.group for a in config.archetypes if a.group is not None},
        "lags": {
            a.name: {"of": a.copies, "lag_days": a.lag_days}
            for a in config.archetypes
            if a.kind == "copier"
        },
        "specialists": {a.name: a.attack for a in config.archetypes if a.kind == "specialist"},
        "scanners": [a.name for a in config.archetypes],
        "fresh_urls": [url for url, _ in urls if url not in stale_urls],
        "stale_urls": sorted(stale_urls),
    }
    return GeneratedFeed(reports=tuple(reports), truth=truth, manifest=manifest)


# ---------------------------------------------------------------------------
# Classifier corpus: single-report-per-URL feeds with planted feature signal.
# ---------------------------------------------------------------------------

_BRANDS = ("paypal", "apple", "amazon", "netflix", "chase")
_TOKENS = ("login", "verify", "secure", "account", "update")
_PHISHING_COUNTRIES = ("aa", "bb")
_MALWARE_COUNTRIES = ("cc", "dd")


@dataclass(frozen=True)
class ClassifierCorpusConfig:
    """Balanced-or-rated corpus of one-report malicious URLs.

    The copier cluster votes malware in perfect lockstep, which biases raw
    majority voting; independent specialists and phishing-happy generalists
    supply the signal that cluster-adjusted proportions recover. Lexical,
    hosting and WHOIS groups each get partial-coverage class signal so every
    feature family carries distinct information.
    """

    n_phishing: int
    n_malware: int
    seed: int
    start: date = date(2021, 3, 1)
    span_days: int = 1
    copier_cluster_size: int = 6
    copier_fire_phishing: float = 0.55
    copier_fire_malware: float = 0.65
    phish_specialist_recall: float = 0.72
    malware_specialist_recall: float = 0.5
    generalist_rate: float = 0.65
    lexical_signal_rate: float = 0.55
    hosting_coverage: float = 0.7
    whois_coverage: float = 0.6

    def __post_init__(self) -> None:
        for name in ("n_phishing", "n_malware", "span_days", "copier_cluster_size"):
            _require_integer(name, getattr(self, name))
        for name in (
            "copier_fire_phishing", "copier_fire_malware", "phish_specialist_recall",
            "malware_specialist_recall", "generalist_rate", "lexical_signal_rate",
            "hosting_coverage", "whois_coverage",
        ):
            _require_fraction(name, getattr(self, name))
        if not isinstance(self.start, date):
            raise ValueError(f"start must be a date, got {self.start!r}")


@dataclass(frozen=True)
class ClassifierCorpus:
    reports: tuple[ScanReport, ...]
    truth: tuple[GroundTruthRecord, ...]
    hosting_rows: tuple[dict, ...]  # url,ip_count,asn_count,asn,country
    whois_rows: tuple[dict, ...]  # domain,created,expires,registrar
    manifest: dict


def _interleave_classes(n_phishing: int, n_malware: int) -> list[str]:
    """Deterministic class order keeping any prefix near the target ratio."""
    total = n_phishing + n_malware
    out = []
    err = 0
    for _ in range(total):
        err += n_phishing
        if err >= total:
            out.append("phishing")
            err -= total
        else:
            out.append("malware")
    assert out.count("phishing") == n_phishing
    return out


def _corpus_url(index: int, cls: str, cfg: ClassifierCorpusConfig, rng: random.Random) -> str:
    domain = f"dom{index:05d}.test"
    if cls == "phishing" and rng.random() < cfg.lexical_signal_rate:
        brand = rng.choice(_BRANDS)
        token = rng.choice(_TOKENS)
        return f"http://{brand}-{token}.{domain}/{token}/session{index}"
    if cls == "malware" and rng.random() < cfg.lexical_signal_rate:
        blob = "".join(rng.choice("0123456789abcdef") for _ in range(10))
        return f"http://cdn{rng.randint(10, 99)}.{domain}/files/{blob}/setup{index}.exe"
    return f"http://www.{domain}/item{index}"


def _corpus_scanners(cfg: ClassifierCorpusConfig) -> tuple[tuple[str, float, float, DetailedLabel], ...]:
    """(name, rate on phishing, rate on malware, label) of each scanner that
    draws on its own, in draw order after the copier cluster's one draw."""
    phish_spec = (cfg.phish_specialist_recall, 0.06, DetailedLabel.PhishingSite)
    mal_spec = (0.05, cfg.malware_specialist_recall, DetailedLabel.MalwareSite)
    generalist = (cfg.generalist_rate, cfg.generalist_rate, DetailedLabel.PhishingSite)
    return (
        *((f"PhishSpec-{i + 1:02d}", *phish_spec) for i in range(3)),
        *((f"MalSpec-{i + 1:02d}", *mal_spec) for i in range(2)),
        *((f"Generalist-{i + 1:02d}", *generalist) for i in range(2)),
        ("GenericEye", 0.5, 0.5, DetailedLabel.MaliciousSite),
        ("SuspEye", 0.3, 0.3, DetailedLabel.SuspiciousSite),
        ("QuietWatch", 0.1, 0.1, DetailedLabel.NotRecommendedSite),
    )


def _corpus_verdicts(
    cls: str,
    cfg: ClassifierCorpusConfig,
    rng: random.Random,
    copiers: tuple[str, ...],
    scanners: tuple[tuple[str, float, float, DetailedLabel], ...],
    shared: _Verdicts,
) -> list[ScannerVerdict]:
    phishing = cls == "phishing"
    copier_fire = rng.random() < (cfg.copier_fire_phishing if phishing else cfg.copier_fire_malware)
    copier_label = DetailedLabel.MalwareSite if copier_fire else None
    verdicts = [shared[name, copier_label] for name in copiers]
    for name, phishing_rate, malware_rate, label in scanners:
        fires = rng.random() < (phishing_rate if phishing else malware_rate)
        verdicts.append(shared[name, label if fires else None])

    if not any(v.detected for v in verdicts):
        # Guarantee at least one detection so cluster features are defined.
        name = "PhishSpec-01" if phishing else "MalSpec-01"
        label = DetailedLabel.PhishingSite if phishing else DetailedLabel.MalwareSite
        verdicts = [shared[name, label] if v.scanner_name == name else v for v in verdicts]
    return verdicts


def generate_classifier_corpus(cfg: ClassifierCorpusConfig) -> ClassifierCorpus:
    """Single-report-per-URL corpus with planted per-feature-group signal."""
    classes = _interleave_classes(cfg.n_phishing, cfg.n_malware)
    total = len(classes)
    start_dt = datetime.combine(cfg.start, time(12, 0), tzinfo=timezone.utc)

    reports: list[ScanReport] = []
    truth: list[GroundTruthRecord] = []
    hosting_rows: list[dict] = []
    whois_rows: list[dict] = []
    copiers = tuple(f"CopyCat-{i + 1:02d}" for i in range(cfg.copier_cluster_size))
    scanners = _corpus_scanners(cfg)
    shared = _Verdicts()

    for index, cls in enumerate(classes):
        rng = _sub_rng(cfg.seed, "corpus", str(index))
        url = _corpus_url(index, cls, cfg, rng)
        day_offset = (index * cfg.span_days) // total if cfg.span_days > 1 else 0
        scan_dt = start_dt + timedelta(days=day_offset)
        verdicts = _corpus_verdicts(cls, cfg, rng, copiers, scanners, shared)
        reports.append(
            ScanReport(
                url=url,
                scan_date=scan_dt,
                first_seen=scan_dt,
                scan_id=f"corpus-{cfg.seed}-{index:06d}",
                positives=sum(1 for v in verdicts if v.detected),
                verdicts=tuple(verdicts),
            )
        )
        truth.append(
            GroundTruthRecord(url=url, label=_GT_LABEL[cls], source="synthgen", labeled_at=scan_dt)
        )

        if rng.random() < cfg.hosting_coverage:
            if cls == "phishing":
                ip_count = rng.randint(1, 3)
                asn_count = 1
                countries = _PHISHING_COUNTRIES if rng.random() < 0.75 else _MALWARE_COUNTRIES
            else:
                ip_count = rng.randint(4, 9)
                asn_count = rng.randint(2, 4)
                countries = _MALWARE_COUNTRIES if rng.random() < 0.75 else _PHISHING_COUNTRIES
            hosting_rows.append(
                {
                    "url": url,
                    "ip_count": ip_count,
                    "asn_count": asn_count,
                    "asn": f"AS{rng.randint(100, 999)}",
                    "country": rng.choice(countries),
                }
            )
        if rng.random() < cfg.whois_coverage:
            age = rng.randint(3, 90) if cls == "phishing" else rng.randint(180, 1500)
            expiry = rng.randint(20, 200) if cls == "phishing" else rng.randint(365, 3650)
            whois_rows.append(
                {
                    "domain": f"dom{index:05d}.test",
                    "created": (scan_dt - timedelta(days=age)).strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "expires": (scan_dt + timedelta(days=expiry)).strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "registrar": rng.choice(("RegOne", "RegTwo", "RegThree")),
                }
            )

    manifest = {
        "seed": cfg.seed,
        "n_phishing": cfg.n_phishing,
        "n_malware": cfg.n_malware,
        "span_days": cfg.span_days,
        "classes": {r.url: c for r, c in zip(reports, classes)},
        "copier_cluster": list(copiers),
        "hosting_covered": [row["url"] for row in hosting_rows],
        "whois_covered": [row["domain"] for row in whois_rows],
    }
    return ClassifierCorpus(
        reports=tuple(reports),
        truth=tuple(truth),
        hosting_rows=tuple(hosting_rows),
        whois_rows=tuple(whois_rows),
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# Named presets used by the CLI and the test suite.
# ---------------------------------------------------------------------------


def _three_groups(seed: int) -> ScenarioConfig:
    archetypes = []
    for i in range(4):
        archetypes.append(
            ScannerArchetype(name=f"Early-{i + 1:02d}", kind="stable", group="early", label="MaliciousSite")
        )
    for i in range(4):
        archetypes.append(
            ScannerArchetype(
                name=f"Late-{i + 1:02d}", kind="leader", group="late",
                label="PhishingSite", onset_min=4, onset_max=4,
            )
        )
    for i in range(4):
        archetypes.append(
            ScannerArchetype(
                name=f"Burst-{i + 1:02d}", kind="leader", group="burst",
                label="MalwareSite", onset_min=0, onset_max=0, duration_days=4,
            )
        )
    return ScenarioConfig(
        name="three-groups",
        n_urls={"phishing": 30},
        horizon_days=12,
        archetypes=tuple(archetypes),
        seed=seed,
    )


def _leader_copier(seed: int) -> ScenarioConfig:
    archetypes = (
        ScannerArchetype(name="Pacer", kind="leader", onset_min=0, onset_max=3, label="PhishingSite"),
        ScannerArchetype(name="Shadow", kind="copier", copies="Pacer", lag_days=2),
        ScannerArchetype(
            name="PhishSpec", kind="specialist", attack="phishing", recall=0.8, precision=0.95,
        ),
        ScannerArchetype(
            name="MalSpec", kind="specialist", attack="malware", recall=0.8, precision=0.95,
        ),
    )
    return ScenarioConfig(
        name="leader-copier",
        n_urls={"phishing": 100, "benign": 20},
        horizon_days=14,
        archetypes=archetypes,
        seed=seed,
    )


def _decay(seed: int) -> ScenarioConfig:
    archetypes = tuple(
        ScannerArchetype(
            name=f"Fader-{i + 1:02d}", kind="leader", onset_min=0, onset_max=0,
            dropout_hazard=0.12, label="PhishingSite",
        )
        for i in range(8)
    )
    return ScenarioConfig(
        name="decay",
        n_urls={"phishing": 150},
        horizon_days=14,
        archetypes=archetypes,
        seed=seed,
    )


def _specialists(seed: int) -> ScenarioConfig:
    archetypes = (
        ScannerArchetype(
            name="SharpPhish", kind="specialist", attack="phishing", recall=0.9, precision=0.95,
            onset_min=0, onset_max=0,
        ),
        ScannerArchetype(
            name="SharpMal", kind="specialist", attack="malware", recall=0.85, precision=0.9,
            onset_min=0, onset_max=2,
        ),
        ScannerArchetype(name="Steady", kind="stable", label="MalwareSite"),
        ScannerArchetype(
            name="Fickle", kind="flipper", labels=("PhishingSite", "MalwareSite"), period_days=1,
        ),
        ScannerArchetype(name="Sluggish", kind="leader", onset_min=2, onset_max=6),
    )
    return ScenarioConfig(
        name="specialists",
        n_urls={"phishing": 60, "malware": 60, "benign": 40},
        horizon_days=14,
        archetypes=archetypes,
        seed=seed,
    )


PRESETS = {
    "three-groups": _three_groups,
    "leader-copier": _leader_copier,
    "decay": _decay,
    "specialists": _specialists,
}


def preset_config(name: str, seed: int) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](seed)
