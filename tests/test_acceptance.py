"""Acceptance suite: one test per release criterion, each with a runtime
budget. Run with `pytest -v tests/test_acceptance.py` for the per-criterion
pass/fail lines, or `-s` to see the explicit ACCEPTANCE summary lines."""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from scanalytics.classify import (
    FeatureTable,
    HostingCache,
    WhoisCache,
    ablation,
    build_cluster_model,
    evaluate_predictions,
    majority_vote_class,
    train_forest,
    vt_cluster_features,
)
from scanalytics.classify.evaluate import encode_labels, split_train_test
from scanalytics.classify.factors import ScannerClusterModel
from scanalytics.classify.features import HostingRecord, WhoisRecord
from scanalytics.cli import main as cli_main
from scanalytics.correlate import (
    adjusted_rand_index,
    dtw_distance,
    frobenius_trend,
    hierarchical_cluster,
    jaccard_binary,
    jaccard_detailed,
    scanner_dtw_matrix,
)
from scanalytics.feed import (
    DetailedLabel,
    ReportTable,
    dedup_by_scan_id,
    extract_fresh,
    parse_feed,
    report_to_json,
)
from scanalytics.leadlag import early_detection_matrix, first_detection_index
from scanalytics.metrics import bl_certainty, dl_certainty
from scanalytics.series import build_series
from scanalytics.synth import (
    ClassifierCorpusConfig,
    ScannerArchetype,
    ScenarioConfig,
    generate,
    generate_classifier_corpus,
    preset_config,
)

from conftest import cohort, report, verdict

SEED = 2024

P = DetailedLabel.PhishingSite
M = DetailedLabel.MalwareSite


def _stamp(number: int, description: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {description}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def _series_for_one_scanner(url_labels: dict[str, list[DetailedLabel | None]]):
    rs = []
    for url, labels in url_labels.items():
        for d, label in enumerate(labels):
            rs.append(report(url, d, f"{url}-{d}", [verdict("S", label)]))
    return list(build_series(cohort(rs)).values())


# --------------------------------------------------------------------------
# Shared classifier corpus (used by criteria 6 and 7).
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def classifier_setup():
    t0 = time.time()
    cfg = ClassifierCorpusConfig(n_phishing=6485, n_malware=6485, seed=SEED)
    corpus = generate_classifier_corpus(cfg)
    fit_pool = [r for r in corpus.reports if r.positives >= 2]
    fit_sample = random.Random(SEED).sample(fit_pool, min(20_000, len(fit_pool)))
    cluster_model = build_cluster_model(fit_sample, k=8, seed=SEED)

    hosting = HostingCache(
        {
            row["url"]: HostingRecord(row["ip_count"], row["asn_count"], row["asn"], row["country"])
            for row in corpus.hosting_rows
        }
    )

    def _dt(s):
        return datetime.fromisoformat(s.replace("Z", "+00:00"))

    whois = WhoisCache(
        {
            row["domain"]: WhoisRecord(_dt(row["created"]), _dt(row["expires"]), row["registrar"])
            for row in corpus.whois_rows
        }
    )
    label_by_url = {t.url: t.label for t in corpus.truth}
    items = list(corpus.reports)
    vectors = list(FeatureTable.build(ReportTable.of(items), cluster_model, hosting=hosting, whois=whois))
    labels = [label_by_url[r.url] for r in items]
    setup_seconds = time.time() - t0
    copier_ids = {cluster_model.assignment[c] for c in corpus.manifest["copier_cluster"]}
    assert len(copier_ids) == 1, "planted copier cluster must collapse to one latent cluster"
    return {
        "vectors": vectors,
        "labels": labels,
        "items": items,
        "cluster_model": cluster_model,
        "setup_seconds": setup_seconds,
    }


def test_criterion_01_certainty_worked_examples():
    t0 = time.time()
    series = _series_for_one_scanner(
        {
            "http://u1.test/": [None, M, M, None],
            "http://u2.test/": [None, M, M, M],
        }
    )
    per_url = sorted(sum(p.bl for p in ts.points) / len(ts.points) for ts in series)
    assert per_url == [0.5, 0.75]
    assert bl_certainty(series, window=30) == 0.625

    dl_series = _series_for_one_scanner({"http://u2.test/": [None, P, M, M]})
    assert dl_certainty(dl_series, window=30) == 0.5
    _stamp(1, "certainty worked examples exact (0.5 / 0.75 / 0.625; 0.5)", time.time() - t0, 1.0)


def test_criterion_02_jaccard_worked_example():
    t0 = time.time()
    labels = {
        ("s1", "u1"): M, ("s1", "u2"): M, ("s1", "u3"): M,
        ("s2", "u2"): M, ("s2", "u3"): P, ("s2", "u4"): M, ("s2", "u5"): M,
    }
    rs = []
    for i in range(1, 6):
        url = f"http://u{i}.test/"
        rs.append(
            report(
                url, 0, f"u{i}",
                [verdict("s1", labels.get(("s1", f"u{i}"))), verdict("s2", labels.get(("s2", f"u{i}")))],
            )
        )
    series = build_series(cohort(rs))
    universe = {f"http://u{i}.test/" for i in range(1, 6)}
    assert jaccard_binary(series, universe).value("s1", "s2") == 2 / 5
    assert jaccard_detailed(series, universe).value("s1", "s2") == 1 / 5
    _stamp(2, "five-URL Jaccard worked example exact (2/5 binary, 1/5 detailed)", time.time() - t0, 1.0)


def _dtw_bruteforce(a, b):
    best = math.inf

    def walk(i, j, cost):
        nonlocal best
        cost += abs(a[i] - b[j])
        if cost >= best:
            return
        if i == len(a) - 1 and j == len(b) - 1:
            best = cost
            return
        if i + 1 < len(a) and j + 1 < len(b):
            walk(i + 1, j + 1, cost)
        if i + 1 < len(a):
            walk(i + 1, j, cost)
        if j + 1 < len(b):
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best


def test_criterion_03_dtw_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(SEED)
    for _ in range(500):
        a = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        assert dtw_distance(a, b) == _dtw_bruteforce(a, b)
    for _ in range(10_000):
        a = [rng.randint(0, 1) for _ in range(rng.randint(1, 10))]
        b = [rng.randint(0, 1) for _ in range(rng.randint(1, 10))]
        d = dtw_distance(a, b)
        assert d >= 0.0
        assert d == dtw_distance(b, a)
        assert dtw_distance(a, a) == 0.0
        if len(a) == len(b):
            assert d <= sum(abs(x - y) for x, y in zip(a, b))
    _stamp(3, "DTW equals exhaustive path enumeration; metric properties hold", time.time() - t0, 30.0)


def test_criterion_04_planted_structure_recovery():
    t0 = time.time()
    gen = generate(preset_config("three-groups", 7))
    series = build_series(cohort(list(gen.reports)))
    matrix = scanner_dtw_matrix(series, window=12)
    result = hierarchical_cluster(matrix, k=3)
    planted = gen.manifest["groups"]
    ids: dict[str, int] = {}
    expected = {}
    for scanner in sorted(planted):
        ids.setdefault(planted[scanner], len(ids))
        expected[scanner] = ids[planted[scanner]]
    assert adjusted_rand_index(expected, result.assignment) == 1.0

    lc = generate(preset_config("leader-copier", 11))
    lc_series = build_series(cohort(list(lc.reports)))
    index = first_detection_index(lc_series)
    matrix = early_detection_matrix(index, scanners=tuple(sorted(lc.manifest["scanners"])))
    assert matrix.value("Pacer", "Shadow") == 1.0
    assert matrix.value("Shadow", "Pacer") == 0.0
    _stamp(4, "3-group clustering ARI 1.0; leader->copier early ratio exactly 1.0", time.time() - t0, 120.0)


def test_criterion_05_adjustment_property():
    t0 = time.time()
    rng = random.Random(SEED)
    labels = [P, M, DetailedLabel.MaliciousSite, DetailedLabel.SuspiciousSite]
    proportion_changes = 0
    for trial in range(1000):
        n = rng.randint(2, 14)
        assignment = {f"s{i}": rng.randint(0, 4) for i in range(n)}
        model = ScannerClusterModel(
            scanners=tuple(sorted(assignment)),
            loadings=np.ones((n, 5)),
            assignment=assignment,
            k=15,
            n_reports=0,
            seed=0,
        )
        vs = [
            verdict(f"s{i}", rng.choice(labels)) if rng.random() < 0.7 else verdict(f"s{i}", None)
            for i in range(n)
        ]
        if not any(v.detected for v in vs):
            vs[0] = verdict("s0", rng.choice(labels))
        r = report("http://u.test/", 0, f"t{trial}", vs)
        base = vt_cluster_features(r, model)

        detecting = [v for v in vs if v.detected]
        chosen = rng.choice(detecting)
        clone = f"clone{trial}"
        assignment2 = dict(assignment, **{clone: assignment[chosen.scanner_name]})
        model2 = ScannerClusterModel(
            scanners=tuple(sorted(assignment2)),
            loadings=np.ones((n + 1, 5)),
            assignment=assignment2,
            k=15,
            n_reports=0,
            seed=0,
        )
        r2 = report("http://u.test/", 0, f"t{trial}b", vs + [verdict(clone, chosen.result)])
        assert vt_cluster_features(r2, model2) == base  # exact invariance

        def proportions(rr):
            det = [v for v in rr.verdicts if v.detected]
            return (
                sum(1 for v in det if v.result is P) / len(det),
                sum(1 for v in det if v.result is M) / len(det),
            )

        if proportions(r2) != proportions(r):
            proportion_changes += 1
    assert proportion_changes > 500, "raw proportions must change for most duplications"
    _stamp(5, "cluster-vote features invariant under in-cluster duplication; raw proportions are not", time.time() - t0, 10.0)


def test_criterion_06_classifier_beats_majority_vote(classifier_setup):
    t0 = time.time()
    vectors = classifier_setup["vectors"]
    labels = classifier_setup["labels"]
    items = classifier_setup["items"]

    _, forest_eval = train_forest(
        vectors, labels, seed=SEED, cluster_model=classifier_setup["cluster_model"], threads=2
    )
    y = encode_labels(labels)
    _, test_idx = split_train_test(y, 0.8, SEED)
    baseline = evaluate_predictions(y[test_idx], [majority_vote_class(items[i]) for i in test_idx])

    gap = (forest_eval.accuracy - baseline.accuracy) * 100
    fpr = baseline.per_class["phishing"].fpr * 100
    assert gap >= 10.0, f"forest-vs-majority gap {gap:.2f} points < 10"
    assert fpr > 15.0, f"majority-vote phishing FPR {fpr:.2f}% <= 15%"
    elapsed = classifier_setup["setup_seconds"] + (time.time() - t0)
    _stamp(
        6,
        f"forest {forest_eval.accuracy*100:.2f} vs majority {baseline.accuracy*100:.2f} "
        f"(gap {gap:.1f} pts, baseline phishing FPR {fpr:.1f}%)",
        elapsed,
        600.0,
    )


def test_criterion_07_ablation_monotonicity(classifier_setup):
    t0 = time.time()
    rows = ablation(
        classifier_setup["vectors"],
        classifier_setup["labels"],
        seed=SEED,
        cluster_model=classifier_setup["cluster_model"],
        threads=2,
    )
    acc = {name: ev.accuracy * 100 for name, ev in rows.items()}
    additions = [
        ("vt_cluster", "vt_cluster+lexical"),
        ("vt_cluster", "vt_cluster+hosting"),
        ("vt_cluster", "vt_cluster+whois"),
        ("vt_cluster+lexical", "vt_cluster+lexical+hosting"),
        ("vt_cluster+hosting", "vt_cluster+lexical+hosting"),
        ("vt_cluster+lexical+hosting", "all"),
        ("vt_cluster+whois", "all"),
    ]
    for smaller, larger in additions:
        assert acc[larger] >= acc[smaller] - 0.5, (
            f"{larger} ({acc[larger]:.2f}) dropped more than 0.5 points below "
            f"{smaller} ({acc[smaller]:.2f})"
        )
    best = max(acc.values())
    assert acc["all"] >= best, f"all-groups row {acc['all']:.2f} is not the maximum ({best:.2f})"
    elapsed = classifier_setup["setup_seconds"] + (time.time() - t0)
    detail = ", ".join(f"{name}={value:.2f}" for name, value in acc.items())
    _stamp(7, f"ablation near-monotone and all-groups max ({detail})", elapsed, 900.0)


def _hash_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_criterion_08_cli_determinism(tmp_path):
    t0 = time.time()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"kind": "classifier", "n_phishing": 250, "n_malware": 250, "seed": 77})
    )

    def run_suite(base: Path, threads: int) -> dict[str, dict[str, str]]:
        synth_out = base / "synth"
        corpus_out = base / "corpus"
        assert cli_main(["synth", "--preset", "specialists", "--seed", "77", "--out", str(synth_out)]) == 0
        assert cli_main(["synth", "--scenario", str(scenario), "--out", str(corpus_out)]) == 0
        feed = str(synth_out / "feed.jsonl")
        truth = str(synth_out / "truth.csv")
        cfeed = str(corpus_out / "feed.jsonl")
        ctruth = str(corpus_out / "truth.csv")
        hosting = str(corpus_out / "hosting_cache.csv")
        whois = str(corpus_out / "whois_cache.csv")
        t = str(threads)
        commands = {
            "ingest": ["ingest", "--feed", feed, "--out", str(base / "ingest")],
            "metrics": ["metrics", "--feed", feed, "--ground-truth", truth,
                        "--threads", t, "--out", str(base / "metrics")],
            "correlate": ["correlate", "--feed", feed, "--threads", t,
                          "--out", str(base / "correlate")],
            "leadlag": ["leadlag", "--feed", feed, "--threads", t, "--out", str(base / "leadlag")],
            "train": ["classify", "train", "--feed", cfeed, "--ground-truth", ctruth,
                      "--hosting-cache", hosting, "--whois-cache", whois,
                      "--clusters", "8", "--trees", "20", "--seed", "77",
                      "--threads", t, "--out", str(base / "train")],
            "ablate": ["classify", "ablate", "--feed", cfeed, "--ground-truth", ctruth,
                       "--hosting-cache", hosting, "--whois-cache", whois,
                       "--clusters", "8", "--trees", "20", "--seed", "77",
                       "--threads", t, "--out", str(base / "ablate")],
        }
        for args in commands.values():
            assert cli_main([str(a) for a in args]) == 0
        predict = ["classify", "predict", "--feed", cfeed, "--model", str(base / "train" / "model.json"),
                   "--hosting-cache", hosting, "--whois-cache", whois,
                   "--threads", t, "--out", str(base / "predict")]
        trend = ["classify", "trend", "--feed", cfeed, "--model", str(base / "train" / "model.json"),
                 "--hosting-cache", hosting, "--whois-cache", whois,
                 "--threads", t, "--out", str(base / "trend")]
        assert cli_main(predict) == 0
        assert cli_main(trend) == 0
        return {
            sub.name: _hash_dir(sub)
            for sub in sorted(base.iterdir())
            if sub.is_dir()
        }

    first = run_suite(tmp_path / "run1", threads=1)
    second = run_suite(tmp_path / "run2", threads=1)
    threaded = run_suite(tmp_path / "run4", threads=4)
    assert first == second, "rerun with identical inputs must be byte-identical"
    assert first == threaded, "thread count must not change artifact bytes"
    _stamp(8, "all CLI subcommands byte-identical across reruns and thread counts", time.time() - t0, 300.0)


def test_criterion_09_feed_invariants_at_scale():
    t0 = time.time()
    config = ScenarioConfig(
        name="bulk",
        n_urls={"phishing": 5000, "malware": 3000, "benign": 2000},
        horizon_days=10,
        archetypes=(
            ScannerArchetype(name="Steady", kind="stable", label="MalwareSite"),
            ScannerArchetype(name="Ranger", kind="leader", onset_min=0, onset_max=5),
            ScannerArchetype(name="Sharp", kind="specialist", attack="phishing", recall=0.8, precision=0.9),
        ),
        seed=SEED,
        stale_fraction=0.3,
    )
    gen = generate(config)
    assert len(gen.reports) == 100_000

    lines = [report_to_json(r) for r in gen.reports]
    reparsed, _ = parse_feed(iter(lines))
    assert reparsed == list(gen.reports), "serialize/parse round trip must be structurally exact"

    deduped = dedup_by_scan_id(reparsed)
    assert deduped == reparsed
    assert dedup_by_scan_id(deduped) == deduped

    for r in deduped[::97]:
        assert r.positives == sum(1 for v in r.verdicts if v.detected)

    assert extract_fresh(deduped) == set(gen.manifest["fresh_urls"])
    _stamp(9, "100k-report round trip, dedup idempotence, positives, freshness", time.time() - t0, 60.0)


def test_criterion_10_frobenius_decay_trend():
    t0 = time.time()
    gen = generate(preset_config("decay", 3))
    series = build_series(cohort(list(gen.reports)))
    universe = set(gen.manifest["classes"])
    trend = frobenius_trend(series, universe, range(0, 11))
    values = [norm for _, norm in trend]
    assert len(values) == 11
    for earlier, later in zip(values, values[1:]):
        assert earlier > later, f"trend not strictly decreasing: {values}"
    _stamp(10, "co-detection Frobenius trend strictly decreasing over offsets 0-10", time.time() - t0, 60.0)
