"""Correlation analytics: Jaccard, Frobenius trend, DTW, clustering."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from scanalytics.correlate import (
    _DTW_BLOCK,
    SimilarityMatrix,
    _aligned_pair,
    _dtw_batch,
    adjusted_rand_index,
    dtw_distance,
    frobenius_norm,
    frobenius_trend,
    hierarchical_cluster,
    jaccard_binary,
    jaccard_detailed,
    scanner_dtw_matrix,
)
from scanalytics.feed import DetailedLabel
from scanalytics.series import build_series
from scanalytics.synth import generate, preset_config

from conftest import cohort, report, verdict

P = DetailedLabel.PhishingSite
M = DetailedLabel.MalwareSite


def _five_url_series():
    """The worked example: universe u1..u5, s1 detects {u1,u2,u3} with
    malware everywhere, s2 detects {u2,u3,u4,u5} with phishing on u3."""
    labels = {
        ("s1", "http://u1.test/"): M,
        ("s1", "http://u2.test/"): M,
        ("s1", "http://u3.test/"): M,
        ("s2", "http://u2.test/"): M,
        ("s2", "http://u3.test/"): P,
        ("s2", "http://u4.test/"): M,
        ("s2", "http://u5.test/"): M,
    }
    rs = []
    for i in range(1, 6):
        url = f"http://u{i}.test/"
        vs = [
            verdict("s1", labels.get(("s1", url))),
            verdict("s2", labels.get(("s2", url))),
        ]
        rs.append(report(url, 0, f"u{i}", vs))
    universe = {f"http://u{i}.test/" for i in range(1, 6)}
    return build_series(cohort(rs)), universe


class TestJaccard:
    def test_binary_worked_example(self):
        series, universe = _five_url_series()
        matrix = jaccard_binary(series, universe)
        assert matrix.value("s1", "s2") == pytest.approx(2 / 5)
        assert matrix.value("s2", "s1") == pytest.approx(2 / 5)
        assert matrix.value("s1", "s1") == 1.0

    def test_detailed_worked_example(self):
        series, universe = _five_url_series()
        matrix = jaccard_detailed(series, universe)
        assert matrix.value("s1", "s2") == pytest.approx(1 / 5)

    def test_identical_full_coverage(self):
        rs = [
            report(f"http://u{i}.test/", 0, f"{i}", [verdict("a", M), verdict("b", M)])
            for i in range(4)
        ]
        series = build_series(cohort(rs))
        matrix = jaccard_binary(series, {r.url for r in rs})
        assert matrix.value("a", "b") == 1.0

    def test_disjoint_detailed_zero(self):
        rs = [
            report("http://u1.test/", 0, "1", [verdict("a", M), verdict("b", None)]),
            report("http://u2.test/", 0, "2", [verdict("a", None), verdict("b", P)]),
        ]
        series = build_series(cohort(rs))
        assert jaccard_detailed(series, {"http://u1.test/", "http://u2.test/"}).value("a", "b") == 0.0

    def test_permutation_equivariance(self):
        series, universe = _five_url_series()
        forward = jaccard_binary(series, universe, scanners=("s1", "s2"))
        backward = jaccard_binary(series, universe, scanners=("s2", "s1"))
        assert forward.values[0, 1] == backward.values[1, 0]
        assert forward.values[0, 0] == backward.values[1, 1]

    def test_planted_copier_pair_is_max(self):
        rng = random.Random(3)
        rs = []
        urls = [f"http://u{i}.test/" for i in range(40)]
        for i, url in enumerate(urls):
            lead = rng.random() < 0.7
            vs = [
                verdict("lead", M if lead else None),
                verdict("copy", M if lead else None),
                verdict("other1", M if rng.random() < 0.4 else None),
                verdict("other2", M if rng.random() < 0.4 else None),
            ]
            rs.append(report(url, 0, f"{i}", vs))
        series = build_series(cohort(rs))
        matrix = jaccard_binary(series, set(urls))
        n = len(matrix.scanners)
        off_diag = [
            (matrix.scanners[i], matrix.scanners[j], matrix.values[i, j])
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        best = max(off_diag, key=lambda item: item[2])
        assert {best[0], best[1]} == {"lead", "copy"}


class TestFrobenius:
    def test_zero_matrix(self):
        values = np.zeros((3, 3))
        matrix = SimilarityMatrix(("a", "b", "c"), values, "jaccard_binary")
        assert frobenius_norm(matrix) == 0.0

    def test_closed_form_two_scanners(self):
        values = np.array([[1.0, 0.6], [0.6, 1.0]])
        matrix = SimilarityMatrix(("a", "b"), values, "jaccard_binary")
        assert frobenius_norm(matrix) == pytest.approx(math.sqrt(2 * 0.36))

    def test_diagonal_excluded(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        matrix = SimilarityMatrix(("a", "b"), values, "jaccard_binary")
        assert frobenius_norm(matrix) == 0.0

    def test_planted_decay_strictly_decreasing(self):
        gen = generate(preset_config("decay", 3))
        series = build_series(cohort(list(gen.reports)))
        universe = set(gen.manifest["classes"])
        trend = frobenius_trend(series, universe, range(0, 11))
        values = [v for _, v in trend]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_trend_matches_per_day_matrices(self):
        gen = generate(preset_config("decay", 8))
        series = build_series(cohort(list(gen.reports)))
        universe = set(gen.manifest["classes"])
        trend = dict(frobenius_trend(series, universe, range(0, 5)))
        for offset in range(5):
            matrix = jaccard_binary(series, universe, offset=offset)
            assert trend[offset] == pytest.approx(frobenius_norm(matrix))


def dtw_bruteforce(a, b):
    """Exhaustive monotone-alignment search (prunes provably worse paths)."""
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


class TestDtw:
    def test_identical_zero(self):
        assert dtw_distance([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0

    def test_time_shift_absorbed(self):
        assert dtw_distance([0, 1, 1, 0], [0, 0, 1, 1, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance([], [0, 1])

    def test_matches_bruteforce_small(self):
        rng = random.Random(12)
        for _ in range(300):
            a = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
            assert dtw_distance(a, b) == dtw_bruteforce(a, b)

    def test_metric_style_properties(self):
        rng = random.Random(99)
        for _ in range(2000):
            n = rng.randint(1, 10)
            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(rng.randint(1, 10))]
            d = dtw_distance(a, b)
            assert d >= 0.0
            assert d == dtw_distance(b, a)
            assert dtw_distance(a, a) == 0.0
            if len(a) == len(b):
                assert d <= sum(abs(x - y) for x, y in zip(a, b))


class TestScannerDtwMatrix:
    def test_diagonal_zero_and_symmetry(self):
        gen = generate(preset_config("three-groups", 5))
        series = build_series(cohort(list(gen.reports)))
        matrix = scanner_dtw_matrix(series, window=12)
        assert np.allclose(np.diag(matrix.values), 0.0)
        finite = np.isfinite(matrix.values)
        assert np.array_equal(finite, finite.T)
        assert np.allclose(
            np.nan_to_num(matrix.values), np.nan_to_num(matrix.values.T)
        )

    def test_no_codetection_is_sentinel(self):
        rs = [
            report("http://u1.test/", 0, "1", [verdict("a", M), verdict("b", None)]),
            report("http://u2.test/", 0, "2", [verdict("a", None), verdict("b", P)]),
        ]
        series = build_series(cohort(rs))
        matrix = scanner_dtw_matrix(series)
        assert math.isnan(matrix.value("a", "b"))

    def test_leader_copier_entry_among_smallest(self):
        gen = generate(preset_config("leader-copier", 11))
        series = build_series(cohort(list(gen.reports)))
        matrix = scanner_dtw_matrix(series, window=14)
        i = matrix.scanners.index("Pacer")
        j = matrix.scanners.index("Shadow")
        pair_value = matrix.values[i, j]
        finite = sorted(
            matrix.values[r, c]
            for r in range(len(matrix.scanners))
            for c in range(r + 1, len(matrix.scanners))
            if math.isfinite(matrix.values[r, c])
        )
        assert pair_value in finite[:2]

    def test_last_value_fill_alignment(self):
        # a observes days 0..3 detecting from day 1; b observes {0, 2} only.
        rs = [
            report("http://u.test/", 0, "a0", [verdict("a", None), verdict("b", M)]),
            report("http://u.test/", 1, "a1", [verdict("a", M)]),
            report("http://u.test/", 2, "a2", [verdict("a", M), verdict("b", M)]),
            report("http://u.test/", 3, "a3", [verdict("a", M)]),
        ]
        series = build_series(cohort(rs))
        matrix = scanner_dtw_matrix(series)
        # union days 0..3; a = [0,1,1,1]; b = [1,1,1,1] (day1/day3 carry last value)
        assert matrix.value("a", "b") == dtw_distance([0, 1, 1, 1], [1, 1, 1, 1])


class TestHierarchicalCluster:
    def _matrix(self, names, values):
        return SimilarityMatrix(tuple(names), np.array(values, dtype=float), "dtw_distance")

    def test_unambiguous_geometry(self):
        matrix = self._matrix(
            ["A", "B", "C"],
            [[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]],
        )
        result = hierarchical_cluster(matrix, k=2)
        assert result.assignment["A"] == result.assignment["B"]
        assert result.assignment["A"] != result.assignment["C"]

    def test_cut_at_zero_gives_singletons(self):
        matrix = self._matrix(
            ["A", "B", "C"],
            [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.0]],
        )
        result = hierarchical_cluster(matrix, cut_height=0.0)
        assert len(set(result.assignment.values())) == 3

    def test_merge_heights_non_decreasing(self):
        rng = random.Random(21)
        n = 12
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = rng.random()
        matrix = self._matrix([f"s{i:02d}" for i in range(n)], values)
        result = hierarchical_cluster(matrix, k=1)
        heights = [h for _, _, h in result.dendrogram.merges]
        assert heights == sorted(heights)

    def test_sentinel_rows_excluded_and_reported(self):
        values = np.array(
            [
                [0.0, 0.2, np.nan],
                [0.2, 0.0, np.nan],
                [np.nan, np.nan, 0.0],
            ]
        )
        matrix = self._matrix(["A", "B", "Lone"], values)
        result = hierarchical_cluster(matrix, k=2)
        assert result.excluded == ("Lone",)
        assert "Lone" not in result.assignment

    def test_sentinel_pairs_merge_last(self):
        values = np.array(
            [
                [0.0, 0.1, np.nan, 0.3],
                [0.1, 0.0, 0.4, 0.2],
                [np.nan, 0.4, 0.0, 0.5],
                [0.3, 0.2, 0.5, 0.0],
            ]
        )
        matrix = self._matrix(["A", "B", "C", "D"], values)
        result = hierarchical_cluster(matrix, k=1)
        # The final merge must be the one bridging the undefined pair.
        last_height = result.dendrogram.merges[-1][2]
        assert last_height > 0.5

    def test_too_few_clusterable_errors(self):
        values = np.full((2, 2), np.nan)
        np.fill_diagonal(values, 0.0)
        matrix = self._matrix(["A", "B"], values)
        with pytest.raises(ValueError, match="fewer than 2"):
            hierarchical_cluster(matrix, k=1)

    # Whole dendrograms, worked by hand: merge k makes id n+k, smaller key first.

    def test_equal_distances_merge_in_name_order(self):
        values = np.ones((4, 4))
        np.fill_diagonal(values, 0.0)
        result = hierarchical_cluster(self._matrix(["D", "B", "C", "A"], values), k=2)
        # A+B (id 4), then AB+C (id 5), then ABC+D: every height is 1.
        assert result.dendrogram.merges == ((3, 1, 1.0), (4, 2, 1.0), (5, 0, 1.0))
        assert result.assignment == {"A": 0, "B": 0, "C": 0, "D": 1}
        assert result.excluded == ()

    def test_tie_broken_by_sorted_members_of_earlier_merge(self):
        values = [
            [0.0, 0.9, 0.5, 0.1],  # D
            [0.9, 0.0, 0.5, 0.9],  # B
            [0.5, 0.5, 0.0, 0.5],  # C
            [0.1, 0.9, 0.5, 0.0],  # A
        ]
        result = hierarchical_cluster(self._matrix(["D", "B", "C", "A"], values), k=2)
        # D+A makes id 4 with key ("A", "D"), which ties AD-C with B-C at 0.5
        # and sorts first; in leaf order ("D", "A") it would sort after ("B",).
        assert result.dendrogram.merges == ((3, 0, 0.1), (4, 2, 0.5), (5, 1, (2 * 0.9 + 0.5) / 3))
        assert result.assignment == {"A": 0, "C": 0, "D": 0, "B": 1}
        assert result.excluded == ()

    def test_undefined_pairs_merge_last_above_finite_max(self):
        nan = np.nan
        values = [
            [0.0, 0.2, nan, nan],
            [0.2, 0.0, nan, nan],
            [nan, nan, 0.0, 0.6],
            [nan, nan, 0.6, 0.0],
        ]
        result = hierarchical_cluster(self._matrix(["A", "B", "C", "D"], values), cut_height=0.6 + 1.0)
        # Every cross pair reads 0.6 + 1, the finite maximum plus one.
        assert result.dendrogram.merges == ((0, 1, 0.2), (2, 3, 0.6), (4, 5, 0.6 + 1.0))
        assert result.assignment == {"A": 0, "B": 0, "C": 1, "D": 1}
        assert result.excluded == ()

    def test_infinite_distance_is_a_live_pair(self):
        inf = math.inf
        values = [
            [0.0, 0.5, inf, inf],
            [0.5, 0.0, inf, inf],
            [inf, inf, 0.0, 0.7],
            [inf, inf, 0.7, 0.0],
        ]
        result = hierarchical_cluster(self._matrix(["A", "B", "C", "D"], values), k=1)
        # A retired slot must not read as one more pair at +inf.
        assert result.dendrogram.merges == ((0, 1, 0.5), (2, 3, 0.7), (4, 5, inf))
        assert result.assignment == {"A": 0, "B": 0, "C": 0, "D": 0}

    def test_undefined_pair_stays_above_finite_max_beside_infinity(self):
        nan, inf = np.nan, math.inf
        values = [
            [0.0, 5.0, nan, inf],  # A
            [5.0, 0.0, 3.0, 4.0],  # B
            [nan, 3.0, 0.0, 6.0],  # C
            [inf, 4.0, 6.0, 0.0],  # D
        ]
        result = hierarchical_cluster(self._matrix(["A", "B", "C", "D"], values), k=2)
        # A-C reads 6 + 1, the finite maximum plus one, so B+C merges first;
        # BC-A is then (5 + 7) / 2 and BC-D (4 + 6) / 2.
        assert result.dendrogram.merges == ((1, 2, 3.0), (4, 3, 5.0), (0, 5, inf))
        assert result.assignment == {"A": 0, "B": 1, "C": 1, "D": 1}
        assert result.excluded == ()

    def test_all_nan_row_excluded_whatever_its_column(self):
        nan = np.nan
        values = [
            [0.0, 0.05, 0.3, 0.5],  # A
            [nan, 0.0, nan, nan],  # Lone: its row decides, not its column
            [9.0, 0.05, 0.0, 0.1],  # B; below the diagonal nothing is read
            [9.0, 0.05, nan, 0.0],  # C
        ]
        result = hierarchical_cluster(self._matrix(["A", "Lone", "B", "C"], values), k=2)
        assert result.dendrogram.leaves == ("A", "B", "C")
        assert result.dendrogram.merges == ((1, 2, 0.1), (0, 3, (0.3 + 0.5) / 2))
        assert result.assignment == {"A": 0, "B": 1, "C": 1}
        assert result.excluded == ("Lone",)

    def test_planted_three_groups_recovered(self):
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

    def test_within_group_distance_below_between(self):
        gen = generate(preset_config("three-groups", 13))
        series = build_series(cohort(list(gen.reports)))
        matrix = scanner_dtw_matrix(series, window=12)
        planted = gen.manifest["groups"]
        within, between = [], []
        names = matrix.scanners
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                value = matrix.values[i, j]
                (within if planted[names[i]] == planted[names[j]] else between).append(value)
        assert max(within) < min(between)


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        labels = {"a": 0, "b": 0, "c": 1}
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_relabeled_partitions(self):
        a = {"a": 0, "b": 0, "c": 1, "d": 1}
        b = {"a": 5, "b": 5, "c": 2, "d": 2}
        assert adjusted_rand_index(a, b) == 1.0

    def test_disagreement_below_one(self):
        a = {"a": 0, "b": 0, "c": 1, "d": 1}
        b = {"a": 0, "b": 1, "c": 0, "d": 1}
        assert adjusted_rand_index(a, b) < 1.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adjusted_rand_index({"a": 0}, {"b": 0})


def _random_cohort_series(rng):
    labels = [None, P, M, DetailedLabel.SpamSite]
    rs = []
    for i in range(rng.randint(1, 8)):
        for d in range(rng.randint(1, 7)):
            for k in range(rng.choice([1, 2])):
                vs = [verdict(s, rng.choice(labels)) for s in "ABCD" if rng.random() < 0.8]
                if vs:
                    rs.append(report(f"http://u{i}.test/", d, f"{i}-{d}-{k}", vs))
    return build_series(cohort(rs))


def _jaccard_loop(series, universe, window, offset, order, detailed):
    """Set-based reference: each scanner's detected URLs (with their modal
    or that day's label), compared pair by pair."""
    labels = {}
    for (scanner, url), ts in series.items():
        days = [p for p in ts.points if (p.day_offset == offset if offset is not None
                                         else window is None or p.day_offset < window)]
        hits = [p.dl for p in days if p.bl == 1]
        if url in universe and hits:
            counts = {lab: hits.count(lab) for lab in hits}
            label = min(counts, key=lambda lab: (-counts[lab], int(lab))) if detailed else None
            labels.setdefault(scanner, {})[url] = label
    values = np.zeros((len(order), len(order)))
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            la, lb = labels.get(a, {}), labels.get(b, {})
            same = sum(1 for url in la if url in lb and la[url] == lb[url])
            values[i, j] = (1.0 if la else 0.0) if i == j else same / len(universe)
    return values


class TestJaccardMatchesLoop:
    @pytest.mark.parametrize("seed", range(20))
    def test_pooled_and_single_day(self, seed):
        rng = random.Random(seed)
        series = _random_cohort_series(rng)
        urls = sorted({url for _, url in series})
        universe = set(rng.sample(urls, rng.randint(1, len(urls)))) | {"http://outside.test/"}
        order = ("D", "A", "Z", "C")
        for window, offset in ((None, None), (3, None), (None, 0), (None, 2)):
            for build, detailed in ((jaccard_binary, False), (jaccard_detailed, True)):
                got = build(series, universe, window=window, offset=offset, scanners=order)
                expected = _jaccard_loop(series, universe, window, offset, order, detailed)
                assert got.values.tobytes() == expected.tobytes()


class TestDtwBatch:
    @pytest.mark.parametrize(
        "batch,n,m",
        [(1, 1, 1), (7, 1, 5), (9, 5, 1), (_DTW_BLOCK + 3, 1, 1), (2 * _DTW_BLOCK + 5, 6, 6), (40, 9, 4)],
    )
    def test_matches_scalar(self, batch, n, m):
        rng = np.random.default_rng(batch * 100 + n * 10 + m)
        a = rng.integers(0, 2, size=(batch, n))
        b = rng.integers(0, 2, size=(batch, m))
        expected = [dtw_distance(x.tolist(), y.tolist()) for x, y in zip(a, b)]
        assert _dtw_batch(a, b).tolist() == expected

    @pytest.mark.parametrize("n,m", [(6, 9), (1, 4), (1, 1)])
    def test_repeated_pairs(self, n, m):
        # Planted trends are step-shaped, so most alignments repeat: 1,000
        # rows drawn from 5 row pairs, which `_dtw_batch` aligns once each.
        rng = np.random.default_rng(n * 10 + m)
        pairs = [(rng.integers(0, 2, size=n), rng.integers(0, 2, size=m)) for _ in range(5)]
        drawn = rng.integers(0, len(pairs), size=1000)
        a = np.array([pairs[i][0] for i in drawn])
        b = np.array([pairs[i][1] for i in drawn])
        expected = [dtw_distance(x.tolist(), y.tolist()) for x, y in zip(a, b)]
        assert _dtw_batch(a, b).tolist() == expected


def _dtw_matrix_loop(series, window, order):
    """Reference: the scalar loop over (pair, co-detected URL) alignments."""
    detected = {}
    for (scanner, url), ts in series.items():
        if any(p.bl == 1 for p in ts.points if window is None or p.day_offset < window):
            detected.setdefault(scanner, set()).add(url)
    values = np.full((len(order), len(order)), np.nan)
    np.fill_diagonal(values, 0.0)
    for i, a in enumerate(order):
        for j in range(i + 1, len(order)):
            b = order[j]
            total = 0.0
            count = 0
            for url in sorted(detected.get(a, set()) & detected.get(b, set())):
                seq_a, seq_b = _aligned_pair(series[(a, url)], series[(b, url)], window)
                if not seq_a or (not any(seq_a) and not any(seq_b)):
                    continue
                total += dtw_distance(seq_a, seq_b)
                count += 1
            if count:
                values[i, j] = values[j, i] = total / count
    return values


def _ragged_alignments(series, window):
    """Co-detected (pair, URL) alignments whose windowed observed days differ,
    the ones `scanner_dtw_matrix` must build with `_aligned_pair`."""
    def days(ts):
        return tuple(p.day_offset for p in ts.points if window is None or p.day_offset < window)

    def detects(ts):
        return any(p.bl == 1 for p in ts.points if window is None or p.day_offset < window)

    return sum(
        1
        for (scanner, url), ts in series.items()
        for (other, url2), ts2 in series.items()
        if scanner < other and url == url2 and detects(ts) and detects(ts2) and days(ts) != days(ts2)
    )


def _step_cohort_series():
    """Step-shaped trends from a few onsets, as planted scanners give, over
    URLs observed 3 to 6 days; E observes even days only. Most (pair, URL)
    alignments repeat another one of the same length."""
    onsets = {"A": 0, "B": 1, "C": 1, "D": 2, "E": 3}
    rs = []
    for i in range(12):
        for d in range(3 + i % 4):
            vs = [verdict(s, P if d >= onset + i % 2 else None) for s, onset in onsets.items() if s != "E" or d % 2 == 0]
            rs.append(report(f"http://u{i}.test/", d, f"{i}-{d}", vs))
    return build_series(cohort(rs))


class TestScannerDtwMatrixMatchesLoop:
    def test_repeated_alignments(self):
        series = _step_cohort_series()
        names = ("A", "B", "C", "D", "E")
        for window in (None, 4):
            got = scanner_dtw_matrix(series, window=window)
            assert got.scanners == names
            assert got.values.tobytes() == _dtw_matrix_loop(series, window, names).tobytes()
            alignments = [
                tuple(map(tuple, _aligned_pair(series[(a, url)], series[(b, url)], window)))
                for (a, url) in series
                for b in names
                if a < b and (b, url) in series
            ]
            alignments = [(x, y) for x, y in alignments if any(x) and any(y)]  # co-detected
            assert len({len(x) for x, _ in alignments}) > 1
            assert len(set(alignments)) < len(alignments) / 2

    def test_ragged_series(self):
        ragged = {None: 0, 1: 0, 3: 0}
        for seed in range(40):
            rng = random.Random(seed)
            series = _random_cohort_series(rng)
            for window in ragged:
                for order in (None, ("D", "A", "Z", "C", "B")):
                    got = scanner_dtw_matrix(series, window=window, scanners=order)
                    names = order or tuple(sorted({scanner for scanner, _ in series}))
                    assert got.scanners == names
                    assert got.values.tobytes() == _dtw_matrix_loop(series, window, names).tobytes()
                ragged[window] += _ragged_alignments(series, window)
        # Inside a one-day window every co-detection observed day 0 alone.
        assert ragged[1] == 0
        assert ragged[None] > 0 and ragged[3] > 0
