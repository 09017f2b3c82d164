"""Latent factor extraction and scanner clustering."""

from __future__ import annotations

import random

import numpy as np
import pytest

from scanalytics.classify.factors import (
    FactorLoadings,
    cluster_scanners,
    fit_scanner_factors,
)
from scanalytics.correlate import adjusted_rand_index
from scanalytics.feed import DetailedLabel

from conftest import report, verdict

P = DetailedLabel.PhishingSite
M = DetailedLabel.MalwareSite
S = DetailedLabel.SpamSite


def _block_reports(n=400, seed=0, blocks=(("A1", "A2"), ("B1", "B2"), ("C1", "C2"))):
    """Reports where scanners within a block fire in perfect lockstep."""
    rng = random.Random(seed)
    labels = {0: P, 1: M, 2: S}
    out = []
    for i in range(n):
        fires = [rng.random() < 0.5 for _ in blocks]
        if sum(len(b) for b, f in zip(blocks, fires) if f) < 2:
            fires[0] = fires[1] = True  # keep positives >= 2
        vs = []
        for b, (block, fire) in enumerate(zip(blocks, fires)):
            for name in block:
                vs.append(verdict(name, labels[b % 3] if fire else None))
        out.append(report(f"http://u{i}.test/", 0, f"r{i}", vs))
    return out


class TestFitScannerFactors:
    def test_duplicated_columns_identical_rows(self):
        reports = _block_reports(seed=1)
        loadings = fit_scanner_factors(reports, n_factors=3, seed=1)
        a1 = loadings.row("A1")
        a2 = loadings.row("A2")
        assert np.allclose(a1, a2, atol=1e-9)

    def test_absent_scanner_zero_row_and_flagged(self):
        reports = _block_reports(seed=2)
        loadings = fit_scanner_factors(reports, n_factors=3, seed=2)
        # Bundled scanners never present in the sample are flagged absent.
        assert "Fortinet" in loadings.absent
        assert np.allclose(loadings.row("Fortinet"), 0.0)
        assert "A1" not in loadings.absent

    def test_planted_blocks_separate(self):
        reports = _block_reports(n=600, seed=3)
        loadings = fit_scanner_factors(reports, n_factors=3, seed=3)

        def cosine(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            return float(u @ v / (nu * nv))

        within = [
            cosine(loadings.row("A1"), loadings.row("A2")),
            cosine(loadings.row("B1"), loadings.row("B2")),
            cosine(loadings.row("C1"), loadings.row("C2")),
        ]
        between = [
            cosine(loadings.row("A1"), loadings.row("B1")),
            cosine(loadings.row("A1"), loadings.row("C1")),
            cosine(loadings.row("B1"), loadings.row("C1")),
        ]
        assert min(within) > max(between)

    def test_sample_size_precondition(self):
        reports = _block_reports(n=50)
        with pytest.raises(ValueError, match=">= 100"):
            fit_scanner_factors(reports, seed=0)

    def test_low_positive_reports_rejected(self):
        bad = [report(f"http://u{i}.test/", 0, f"{i}", [verdict("A1", P)]) for i in range(150)]
        with pytest.raises(ValueError, match="positives < 2"):
            fit_scanner_factors(bad, seed=0)

    def test_loadings_non_negative_and_finite(self):
        loadings = fit_scanner_factors(_block_reports(seed=4), n_factors=5, seed=4)
        assert np.all(loadings.matrix >= 0)
        assert np.all(np.isfinite(loadings.matrix))

    def test_row_permutation_invariance(self):
        reports = _block_reports(seed=5)
        loadings_a = fit_scanner_factors(reports, n_factors=3, seed=5)
        shuffled = reports[:]
        random.Random(9).shuffle(shuffled)
        loadings_b = fit_scanner_factors(shuffled, n_factors=3, seed=5)
        assert np.allclose(loadings_a.matrix, loadings_b.matrix, atol=1e-9)


def _agreeing_pair_reports(n=120):
    """`n` reports from two scanners that always agree, phishing or malware:
    only their four label columns vary."""
    return [
        report(f"http://u{i}.test/", 0, f"r{i}", [verdict("A1", label), verdict("A2", label)])
        for i, label in enumerate([P, M] * (n // 2))
    ]


def _loadings_from_matrix(names, matrix):
    return FactorLoadings(
        scanners=tuple(names),
        matrix=np.asarray(matrix, dtype=float),
        absent=(),
        n_reports=0,
        seed=0,
    )


class TestClusterScanners:
    def test_k_equals_distinct_rows(self):
        names = ["a", "b", "c", "d"]
        matrix = [[1, 0], [0, 1], [2, 2], [3, 0]]
        assignment = cluster_scanners(_loadings_from_matrix(names, matrix), k=4, seed=0)
        assert len({assignment[n] for n in names}) == 4

    def test_duplicate_rows_share_cluster(self):
        names = ["a", "b", "c", "d", "e"]
        matrix = [[1, 0], [1, 0], [0, 1], [4, 4], [0, 1]]
        assignment = cluster_scanners(_loadings_from_matrix(names, matrix), k=3, seed=0)
        assert assignment["a"] == assignment["b"]
        assert assignment["c"] == assignment["e"]
        assert assignment["a"] != assignment["c"] != assignment["d"]

    def test_zero_rows_get_overflow(self):
        names = ["a", "b", "c", "zero"]
        matrix = [[1, 0], [0, 1], [2, 2], [0, 0]]
        assignment = cluster_scanners(_loadings_from_matrix(names, matrix), k=3, seed=0)
        assert assignment["zero"] == 3
        assert all(assignment[n] < 3 for n in ("a", "b", "c"))

    def test_too_few_nonzero_rows(self):
        names = ["a", "b"]
        matrix = [[1, 0], [0, 0]]
        with pytest.raises(ValueError, match="nonzero loadings"):
            cluster_scanners(_loadings_from_matrix(names, matrix), k=2, seed=0)

    def test_planted_blocks_recovered(self):
        reports = _block_reports(n=600, seed=6)
        loadings = fit_scanner_factors(reports, n_factors=3, seed=6)
        present = [n for n in ("A1", "A2", "B1", "B2", "C1", "C2")]
        rows = np.array([loadings.row(n) for n in present])
        sub = _loadings_from_matrix(present, rows)
        assignment = cluster_scanners(sub, k=3, seed=6)
        expected = {"A1": 0, "A2": 0, "B1": 1, "B2": 1, "C1": 2, "C2": 2}
        got = {n: assignment[n] for n in present}
        assert adjusted_rand_index(expected, got) == 1.0

    def test_deterministic(self):
        loadings = fit_scanner_factors(_block_reports(seed=7), n_factors=3, seed=7)
        a = cluster_scanners(loadings, k=3, seed=7)
        b = cluster_scanners(loadings, k=3, seed=7)
        assert a == b


class TestDegenerateInputs:
    def test_constant_feature_matrix_rejected(self):
        rs = [
            report(f"http://u{i}.test/", 0, f"{i}", [verdict("A1", P), verdict("A2", P)])
            for i in range(150)
        ]
        with pytest.raises(ValueError, match="degenerate"):
            fit_scanner_factors(rs, seed=0)

    def test_fewer_varying_columns_than_factors_load_zero(self):
        loadings = fit_scanner_factors(_agreeing_pair_reports(), seed=0)
        assert loadings.matrix.shape == (len(loadings.scanners), 5)
        assert np.all(loadings.matrix[:, 4] == 0)  # the factor beyond the 4 varying columns
        assert loadings.row("A1").any() and np.allclose(loadings.row("A1"), loadings.row("A2"))

    def test_k_below_two_rejected(self):
        loadings = _loadings_from_matrix(["a", "b", "c"], [[1, 0], [0, 1], [2, 2]])
        with pytest.raises(ValueError, match="k must be"):
            cluster_scanners(loadings, k=1, seed=0)
