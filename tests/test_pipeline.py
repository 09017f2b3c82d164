"""End-to-end classifier pipeline on synthetic corpora."""

from __future__ import annotations

import dataclasses
import random
from datetime import datetime

import numpy as np
import pytest

from scanalytics.classify import (
    FeatureTable,
    HostingCache,
    WhoisCache,
    build_cluster_model,
    train_forest,
    weekly_trend,
)
from scanalytics.classify.evaluate import majority_vote_classes
from scanalytics.classify.factors import fit_scanner_factors
from scanalytics.classify.features import HostingRecord, WhoisRecord
from scanalytics.feed import ReportTable
from scanalytics.series import build_series
from scanalytics.synth import ClassifierCorpusConfig, generate_classifier_corpus

from conftest import cohort

SEED = 424242


def _providers(corpus):
    hosting = HostingCache(
        {
            row["url"]: HostingRecord(row["ip_count"], row["asn_count"], row["asn"], row["country"])
            for row in corpus.hosting_rows
        }
    )

    def _dt(value):
        return datetime.fromisoformat(value.replace("Z", "+00:00"))

    whois = WhoisCache(
        {
            row["domain"]: WhoisRecord(_dt(row["created"]), _dt(row["expires"]), row["registrar"])
            for row in corpus.whois_rows
        }
    )
    return hosting, whois


def _featurize(corpus, model, hosting, whois):
    label_by_url = {t.url: t.label for t in corpus.truth}
    vectors = list(FeatureTable.build(ReportTable.of(corpus.reports), model, hosting=hosting, whois=whois))
    labels = [label_by_url[r.url] for r in corpus.reports]
    return vectors, labels, list(zip(corpus.reports, vectors))


@pytest.fixture(scope="module")
def trained():
    corpus = generate_classifier_corpus(
        ClassifierCorpusConfig(n_phishing=1200, n_malware=1200, seed=SEED)
    )
    fit_pool = [r for r in corpus.reports if r.positives >= 2]
    cluster_model = build_cluster_model(
        random.Random(SEED).sample(fit_pool, min(20_000, len(fit_pool))), k=8, seed=SEED
    )
    hosting, whois = _providers(corpus)
    vectors, labels, _ = _featurize(corpus, cluster_model, hosting, whois)
    model, ev = train_forest(
        vectors, labels, seed=SEED, cluster_model=cluster_model, n_estimators=60
    )
    return model, cluster_model, ev


def test_balanced_corpus_high_accuracy(trained):
    _, _, ev = trained
    assert ev.accuracy > 0.95


def test_weekly_trend_recovers_planted_mix(trained):
    model, cluster_model, _ = trained
    # Four months of reports with a fixed 21/79 phishing/malware mix.
    trend_corpus = generate_classifier_corpus(
        ClassifierCorpusConfig(
            n_phishing=4200, n_malware=15800, seed=SEED + 1, span_days=120
        )
    )
    hosting, whois = _providers(trend_corpus)
    _, _, items = _featurize(trend_corpus, cluster_model, hosting, whois)
    trend = weekly_trend(model, items)
    assert len(trend) >= 17  # ~4 months of ISO weeks
    for week, phishing_frac, malware_frac in trend:
        assert phishing_frac + malware_frac == pytest.approx(1.0)
        assert abs(phishing_frac - 0.21) < 0.03, f"{week}: {phishing_frac:.3f}"


class _OnlyLength:
    """A table's `verdicts` that gives its length and nothing else."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, code):
        raise AssertionError("a verdict object was read")

    def __iter__(self):
        raise AssertionError("the verdict objects were iterated")


def _bare(table: ReportTable) -> ReportTable:
    return dataclasses.replace(table, verdicts=_OnlyLength(len(table.verdicts)))


def test_column_readers_never_read_verdict_objects(monkeypatch):
    corpus = generate_classifier_corpus(ClassifierCorpusConfig(n_phishing=150, n_malware=150, seed=SEED))
    reports = [r for r in corpus.reports if r.positives >= 2]
    model = build_cluster_model(reports, k=4, seed=SEED)
    table = ReportTable.of(reports)
    series, loadings = dict(build_series(cohort(reports))), fit_scanner_factors(reports, seed=SEED)
    features, votes = FeatureTable.build(table, model).matrix, majority_vote_classes(table)

    of = ReportTable.of
    monkeypatch.setattr(ReportTable, "of", staticmethod(lambda reports: _bare(of(reports))))
    assert dict(build_series(cohort(reports))) == series
    assert np.array_equal(fit_scanner_factors(reports, seed=SEED).matrix, loadings.matrix)
    assert np.array_equal(FeatureTable.build(_bare(table), model).matrix, features, equal_nan=True)
    assert np.array_equal(majority_vote_classes(_bare(table)), votes)
