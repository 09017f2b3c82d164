"""Synthetic generator: determinism, planted-structure self-checks."""

from __future__ import annotations

import hashlib
import json

import pytest

from scanalytics.cli import main
from scanalytics.feed import (
    DetailedLabel,
    dedup_by_scan_id,
    report_to_json,
)
from scanalytics.metrics import dl_certainty
from scanalytics.series import build_series
from scanalytics.synth import (
    ClassifierCorpusConfig,
    ScannerArchetype,
    ScenarioConfig,
    generate,
    generate_classifier_corpus,
    preset_config,
)

from conftest import cohort


def _tiny_config(seed=1, **overrides):
    defaults = dict(
        name="tiny",
        n_urls={"phishing": 1},
        horizon_days=3,
        archetypes=(ScannerArchetype(name="Steady", kind="stable", label="MalwareSite"),),
        seed=seed,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestGenerate:
    def test_stable_scanner_constant_verdicts(self):
        gen = generate(_tiny_config())
        assert len(gen.reports) == 3
        for r in gen.reports:
            assert len(r.verdicts) == 1
            assert r.verdicts[0].detected
            assert r.verdicts[0].result is DetailedLabel.MalwareSite

    def test_byte_identical_reruns(self):
        a = generate(preset_config("specialists", 5))
        b = generate(preset_config("specialists", 5))
        assert "\n".join(report_to_json(r) for r in a.reports) == "\n".join(
            report_to_json(r) for r in b.reports
        )
        assert a.manifest == b.manifest

    def test_different_seed_different_feed(self):
        a = generate(preset_config("specialists", 5))
        b = generate(preset_config("specialists", 6))
        assert [report_to_json(r) for r in a.reports] != [report_to_json(r) for r in b.reports]

    def test_copier_lag_self_check(self):
        gen = generate(preset_config("leader-copier", 17))
        lag = gen.manifest["lags"]["Shadow"]["lag_days"]
        assert lag == 2
        series = build_series(cohort(list(gen.reports)))
        horizon = gen.manifest["horizon_days"]
        for url, cls in gen.manifest["classes"].items():
            leader_ts = series[("Pacer", url)]
            copier_ts = series[("Shadow", url)]
            leader_days = [p.day_offset for p in leader_ts.points if p.bl]
            copier_days = [p.day_offset for p in copier_ts.points if p.bl]
            assert copier_days == [d + lag for d in leader_days if d + lag < horizon]

    def test_feed_is_dedup_clean_and_sorted(self):
        gen = generate(preset_config("specialists", 9))
        reports = list(gen.reports)
        assert dedup_by_scan_id(reports) == reports
        dates = [r.scan_date for r in reports]
        assert dates == sorted(dates)
        for r in reports:
            assert r.positives == sum(1 for v in r.verdicts if v.detected)
            assert r.first_seen <= r.scan_date

    def test_flipper_label_cycle_certainty(self):
        config = ScenarioConfig(
            name="flip",
            n_urls={"phishing": 5},
            horizon_days=12,
            archetypes=(
                ScannerArchetype(
                    name="Fickle", kind="flipper",
                    labels=("PhishingSite", "MalwareSite", "SpamSite"), period_days=1,
                ),
            ),
            seed=2,
        )
        gen = generate(config)
        series = build_series(cohort(list(gen.reports)))
        fickle = [ts for (name, _), ts in series.items() if name == "Fickle"]
        assert dl_certainty(fickle, window=12) <= 1 / 3 + 0.05

    def test_unknown_copier_target_rejected(self):
        with pytest.raises(ValueError, match="unknown scanner"):
            ScenarioConfig(
                name="bad",
                n_urls={"phishing": 1},
                horizon_days=2,
                archetypes=(
                    ScannerArchetype(name="Echo", kind="copier", copies="Ghost", lag_days=1),
                ),
                seed=0,
            )

    def test_stale_fraction_plants_non_fresh_urls(self):
        config = _tiny_config(n_urls={"phishing": 200}, stale_fraction=0.4, seed=8)
        gen = generate(config)
        fresh = set(gen.manifest["fresh_urls"])
        stale = set(gen.manifest["stale_urls"])
        assert fresh and stale
        assert fresh | stale == set(gen.manifest["classes"])
        from scanalytics.feed import extract_fresh

        assert extract_fresh(list(gen.reports)) == fresh

    def test_ground_truth_matches_classes(self):
        gen = generate(preset_config("specialists", 4))
        for record in gen.truth:
            assert record.label.value.startswith(gen.manifest["classes"][record.url][:6])


class TestClassifierCorpus:
    def test_deterministic(self):
        cfg = ClassifierCorpusConfig(n_phishing=50, n_malware=50, seed=3)
        a = generate_classifier_corpus(cfg)
        b = generate_classifier_corpus(cfg)
        assert [report_to_json(r) for r in a.reports] == [report_to_json(r) for r in b.reports]
        assert a.hosting_rows == b.hosting_rows
        assert a.whois_rows == b.whois_rows

    def test_counts_and_reports_valid(self):
        cfg = ClassifierCorpusConfig(n_phishing=40, n_malware=60, seed=5)
        corpus = generate_classifier_corpus(cfg)
        classes = list(corpus.manifest["classes"].values())
        assert classes.count("phishing") == 40
        assert classes.count("malware") == 60
        for r in corpus.reports:
            assert r.positives >= 1  # cluster features always defined

    def test_copier_cluster_fires_in_lockstep(self):
        cfg = ClassifierCorpusConfig(n_phishing=80, n_malware=80, seed=7)
        corpus = generate_classifier_corpus(cfg)
        copiers = set(corpus.manifest["copier_cluster"])
        for r in corpus.reports:
            states = {v.detected for v in r.verdicts if v.scanner_name in copiers}
            assert len(states) == 1

    def test_span_days_spreads_weeks(self):
        cfg = ClassifierCorpusConfig(n_phishing=210, n_malware=790, seed=9, span_days=120)
        corpus = generate_classifier_corpus(cfg)
        weeks = {r.scan_date.isocalendar()[:2] for r in corpus.reports}
        assert len(weeks) >= 16

    def test_prefix_balance_near_target(self):
        cfg = ClassifierCorpusConfig(n_phishing=210, n_malware=790, seed=9)
        corpus = generate_classifier_corpus(cfg)
        classes = list(corpus.manifest["classes"].values())
        for cut in (100, 300, 500):
            frac = classes[:cut].count("phishing") / cut
            assert abs(frac - 0.21) < 0.02


def _all_kinds_config(seed=3):
    """Every archetype kind, noise, stale URLs and a copier chain."""
    return ScenarioConfig(
        name="kinds",
        n_urls={"phishing": 10, "malware": 7, "benign": 5},
        horizon_days=9,
        archetypes=(
            ScannerArchetype(name="A", kind="stable"),
            ScannerArchetype(name="B", kind="flipper", labels=("PhishingSite", "SpamSite", "MiningSite"), period_days=2),
            ScannerArchetype(name="C", kind="leader", onset_min=1, onset_max=3, dropout_hazard=0.2),
            ScannerArchetype(name="D", kind="copier", copies="C", lag_days=2),
            ScannerArchetype(name="E", kind="copier", copies="D", lag_days=1),
            ScannerArchetype(name="F", kind="specialist", attack="malware", recall=0.7, precision=0.6, onset_max=2),
            ScannerArchetype(name="G", kind="leader", label="SuspiciousSite", duration_days=3),
        ),
        seed=seed,
        noise=0.2,
        stale_fraction=0.3,
    )


def _verdict_objects(reports):
    return list({id(v): v for r in reports for v in r.verdicts}.values())


class TestSharedVerdicts:
    """One generator call makes one verdict object per (scanner, label)."""

    def test_generate_shares_one_verdict_per_scanner_and_label(self):
        gen = generate(_all_kinds_config())
        objects = _verdict_objects(gen.reports)
        values = {(v.scanner_name, v.detected, v.result) for v in objects}
        assert len(objects) == len(values)
        assert sum(len(r.verdicts) for r in gen.reports) == 22 * 9 * 7
        assert {v.detected for v in objects} == {True, False}

    def test_corpus_shares_one_verdict_per_scanner_and_label(self):
        corpus = generate_classifier_corpus(ClassifierCorpusConfig(n_phishing=60, n_malware=60, seed=2))
        objects = _verdict_objects(corpus.reports)
        assert len(objects) == len({(v.scanner_name, v.detected, v.result) for v in objects})
        assert len(objects) <= 2 * 17  # each of 17 scanners: one detecting label, one benign

    def test_no_archetypes_still_one_report_per_day(self):
        gen = generate(_tiny_config(archetypes=(), horizon_days=4))
        assert [(r.verdicts, r.positives) for r in gen.reports] == [((), 0)] * 4

    def test_benign_planted_label_is_rejected(self):
        cfg = _tiny_config(archetypes=(ScannerArchetype(name="Odd", kind="stable", label="Benign"),))
        with pytest.raises(ValueError, match="Benign"):
            generate(cfg)


# sha256 of what `scanalytics synth` writes, pinned from the writer and RNG
# streams before verdicts were shared: any change to a stream or to the
# feed's bytes shows here.
_PINNED = {
    ("--preset", "three-groups"): {
        "feed.jsonl": "5029013ff1528ebfab65d486c3d9e62430b347c624966ee1a2879569927075f0",
        "truth.csv": "9ea8b7cc0d32c94f4a854c64650b1cadec1728f86db148a57bbe2b0ee85b5988",
        "planted.json": "65f22773cafd3f30d2adedb92350d47500ede314b867f2ee7b823b2b60df59cb",
    },
    ("--preset", "leader-copier"): {
        "feed.jsonl": "187a176c9864ac8ad34f43679b93cc7abc8d2caf04a60dbe81ac7a45630f4a6f",
        "truth.csv": "1c28da2098d1f1496b8e0d463af7da86d3a647ee2e72eec7b1f1c00c23c8a37c",
        "planted.json": "f5fb15f7a5f2089647dfc3fe3eb53446523d80e9f6891c84ae3f362f1ace2b6b",
    },
    ("--preset", "decay"): {
        "feed.jsonl": "185e937f2de95a8fc21fc162f4867973a9bfaa313914000bde5de2b1f50e836e",
        "truth.csv": "b0df3c2542afed0a824a6169741e8c3561cf180ecfd4fe5f3069346bd44f69eb",
        "planted.json": "b210b575c905dfcc99ceeaec17b00b35a66ef0b706e37a6414181b214020651e",
    },
    ("--preset", "specialists"): {
        "feed.jsonl": "1fc8cb0a79d62164c8b9b7ceab27fe8adfc1fc24d10b600808764776fef9d590",
        "truth.csv": "78b5ea7c7ac8afe4e166a804332c18d97970fbedad282c1e829fb46f9d53f96f",
        "planted.json": "6702920c8113962e348245f576c0786065d6eec94a377aa89abfed30a4a2def7",
    },
    ("--scenario", "corpus.json"): {
        "feed.jsonl": "025fff6b295808957d063fe1ee37b542e72b67a6f8f5b9c71725595a04b5e643",
        "truth.csv": "ca91ac91d063ddf25e08ac56596347c83b6cb5f7dfeade756eea952ec67cc01f",
        "planted.json": "bbb1b0f85415f564f74738e73fd8671877e335b363f77b20ae70b9715e2f63eb",
        "hosting_cache.csv": "d1db118d19772943b33fd7eb08878ee5753f6182fdcc584112ed01ce6644663f",
        "whois_cache.csv": "f1c53de633a9dc7e568d2629990c2ee9650b254523a848226296dd8f273ee75b",
    },
}


@pytest.mark.parametrize("source", list(_PINNED), ids=[name for _, name in _PINNED])
def test_synth_writes_pinned_bytes(source, tmp_path):
    flag, name = source
    if flag == "--scenario":
        name = tmp_path / name
        name.write_text(json.dumps({"kind": "classifier", "n_phishing": 40, "n_malware": 30, "span_days": 5}))
    assert main(["synth", flag, str(name), "--seed", "7", "--out", str(tmp_path / "out")]) == 0
    found = {file: hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() for file in _PINNED[source]}
    assert found == _PINNED[source]
