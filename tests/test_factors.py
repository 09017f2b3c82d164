"""Latent factor extraction and scanner clustering."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _wide_fit_matrix(reports, n_factors):
    """The loading matrix of the fit that standardizes a column for every
    (scanner, slot) of the sample's scanners, as `fit_scanner_factors` did
    before it kept only the columns some verdict sets."""
    from scanalytics.classify.factors import _LABEL_SLOTS
    from scanalytics.feed import ReportTable, distinct
    from scanalytics.scanners import SCANNER_NAMES

    table = ReportTable.of(reports)
    row, codes = table.flat()
    used = distinct(table.verdict_scanner[codes])
    present = tuple(table.scanners[i] for i in used.tolist())
    scanners = tuple(sorted(set(SCANNER_NAMES).union(present)))
    n_slots = 1 + len(_LABEL_SLOTS)
    column = np.zeros(len(table.scanners), np.intp)
    column[used] = np.arange(len(used)) * n_slots
    keep = table.verdict_detected[codes]
    row, codes = row[keep], codes[keep]
    base = column[table.verdict_scanner[codes]]
    X = np.zeros((len(reports), len(present) * n_slots))
    X[row, base] = 1.0
    X[row, base + table.verdict_label[codes]] = 1.0
    std = X.std(axis=0)
    varying = std > 0
    if not varying.any():
        raise ValueError("degenerate sample: every scanner feature is constant")
    Z = (X[:, varying] - X[:, varying].mean(axis=0)) / std[varying]
    eigvals, eigvecs = np.linalg.eigh((Z.T @ Z) / len(reports))
    order = np.argsort(eigvals)[::-1][:n_factors]
    column_loadings = eigvecs[:, order] * np.sqrt(np.clip(eigvals[order], 0.0, None))
    for f in range(column_loadings.shape[1]):
        if column_loadings[np.argmax(np.abs(column_loadings[:, f])), f] < 0:
            column_loadings[:, f] = -column_loadings[:, f]
    full = np.zeros((X.shape[1], n_factors))
    full[varying, : column_loadings.shape[1]] = column_loadings
    matrix = np.zeros((len(scanners), n_factors))
    matrix[[scanners.index(name) for name in present]] = (
        np.abs(full).reshape(len(present), n_slots, n_factors).sum(axis=1)
    )
    return matrix


class TestVaryingColumnsOnly:
    """The fit builds its matrix over the columns some detecting verdict
    sets, not over every (scanner, slot) of the sample's scanners."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_loadings_as_every_column(self, data):
        names = data.draw(st.lists(st.sampled_from(["A1", "A2", "B1", "B2", "C1", "Fortinet"]), min_size=2, max_size=6, unique=True))
        labels = data.draw(st.lists(st.sampled_from([P, M, S, DetailedLabel.OtherMalicious]), min_size=1, max_size=4))
        fire = data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        reports = []
        for i in range(data.draw(st.integers(min_value=100, max_value=140))):
            detecting = set(rng.sample(names, 2)) | {name for name in names if rng.random() < fire}
            verdicts = [verdict(name, rng.choice(labels) if name in detecting else None) for name in names]
            reports.append(report(f"http://u{i % 7}.test/", 0, f"r{i}", verdicts))
        n_factors = data.draw(st.integers(min_value=1, max_value=6))
        try:
            expected = _wide_fit_matrix(reports, n_factors)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fit_scanner_factors(reports, n_factors=n_factors, seed=0)
            return
        assert fit_scanner_factors(reports, n_factors=n_factors, seed=0).matrix.tobytes() == expected.tobytes()

    def test_memory_follows_the_set_columns(self):
        import tracemalloc

        from scanalytics.feed import ReportTable
        from scanalytics.scanners import SCANNER_NAMES

        # Every registry scanner appears, but only four ever detect: the
        # every-column matrix would be 2,000 x 95 x 9 float64s (13.7 MB).
        quiet = [name for name in SCANNER_NAMES if name not in ("A1", "A2", "B1", "B2")]
        rng = random.Random(11)
        reports = []
        for i in range(2000):
            fire = rng.sample(["A1", "A2", "B1", "B2"], rng.randint(2, 4))
            verdicts = [verdict(name, rng.choice([P, M])) for name in fire]
            verdicts += [verdict(quiet[(3 * i + k) % len(quiet)]) for k in range(3)]
            reports.append(report(f"http://u{i}.test/", 0, f"r{i}", verdicts))
        table = ReportTable.of(reports)
        tracemalloc.start()
        try:
            loadings = fit_scanner_factors(table, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loadings.absent) == 0 and loadings.row("A1").any()
        assert peak < 2_000_000, peak
