"""Lead/lag: first-detection index, early-detection ratios, leader ranking."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from scanalytics.feed import DetailedLabel
from scanalytics.leadlag import (
    early_detection_matrix,
    first_detection_index,
    leader_ranking,
)
from scanalytics.series import build_series
from scanalytics.synth import generate, preset_config

from conftest import cohort, report, verdict

M = DetailedLabel.MalwareSite


def _index_from_days(first_days: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    return dict(first_days)


class TestFirstDetectionIndex:
    def test_basic(self):
        rs = [
            report("http://u.test/", 0, "0", [verdict("a", None), verdict("b", None)]),
            report("http://u.test/", 1, "1", [verdict("a", M), verdict("b", None)]),
            report("http://u.test/", 3, "3", [verdict("a", M), verdict("b", M)]),
        ]
        index = first_detection_index(build_series(cohort(rs)))
        assert index == {("a", "http://u.test/"): 1, ("b", "http://u.test/"): 3}

    def test_window_limits(self):
        rs = [
            report("http://u.test/", 5, "5", [verdict("a", M)]),
        ]
        series = build_series(cohort(rs))
        assert first_detection_index(series, window=5) == {}
        assert first_detection_index(series, window=6) == {("a", "http://u.test/"): 5}


class TestEarlyDetectionMatrix:
    def test_three_day_lead(self):
        index = _index_from_days({("s1", "u"): 0, ("s2", "u"): 3})
        matrix = early_detection_matrix(index)
        assert matrix.value("s1", "s2") == 1.0
        assert matrix.value("s2", "s1") == 0.0

    def test_same_day_credits_neither(self):
        index = _index_from_days({("s1", "u"): 2, ("s2", "u"): 2})
        matrix = early_detection_matrix(index)
        assert matrix.value("s1", "s2") == 0.0
        assert matrix.value("s2", "s1") == 0.0

    def test_no_codetection_sentinel(self):
        index = _index_from_days({("s1", "u1"): 0, ("s2", "u2"): 0})
        matrix = early_detection_matrix(index)
        assert math.isnan(matrix.value("s1", "s2"))

    def test_row_sum_identity(self):
        index = _index_from_days(
            {
                ("a", "u1"): 0, ("b", "u1"): 2,
                ("a", "u2"): 3, ("b", "u2"): 3,
                ("a", "u3"): 5, ("b", "u3"): 1,
            }
        )
        matrix = early_detection_matrix(index)
        ab = matrix.value("a", "b")
        ba = matrix.value("b", "a")
        assert ab + ba <= 1.0
        assert ab == pytest.approx(1 / 3)
        assert ba == pytest.approx(1 / 3)

    def test_membership_symmetric(self):
        index = _index_from_days({("a", "u1"): 0, ("b", "u1"): 1, ("c", "u2"): 0})
        matrix = early_detection_matrix(index)
        finite = np.isfinite(matrix.values)
        assert np.array_equal(finite, finite.T)

    def test_planted_leader_copier(self):
        gen = generate(preset_config("leader-copier", 11))
        series = build_series(cohort(list(gen.reports)))
        index = first_detection_index(series)
        scanners = tuple(sorted(gen.manifest["scanners"]))
        matrix = early_detection_matrix(index, scanners=scanners)
        assert matrix.value("Pacer", "Shadow") == 1.0
        assert matrix.value("Shadow", "Pacer") == 0.0
        # The malware specialist never fires in this phishing-only scenario.
        assert math.isnan(matrix.value("MalSpec", "Pacer"))


class TestLeaderRanking:
    def test_two_scanner_order(self):
        index = _index_from_days({("A", "u"): 0, ("B", "u"): 4})
        ranking = leader_ranking(early_detection_matrix(index))
        assert [name for name, _ in ranking] == ["A", "B"]

    def test_all_sentinel_row_last(self):
        index = _index_from_days({("A", "u1"): 0, ("B", "u1"): 1, ("C", "zzz"): 0})
        ranking = leader_ranking(early_detection_matrix(index))
        assert ranking[-1][0] == "C"
        assert math.isnan(ranking[-1][1])

    def test_planted_strict_order(self):
        # L1 detects day 0, L2 day 1, L3 day 2 on every co-detected URL.
        index = {}
        for i in range(100):
            url = f"u{i}"
            index[("L1", url)] = 0
            index[("L2", url)] = 1
            index[("L3", url)] = 2
        ranking = leader_ranking(early_detection_matrix(index))
        assert [name for name, _ in ranking] == ["L1", "L2", "L3"]

    def test_kind_check(self):
        from scanalytics.correlate import SimilarityMatrix

        bad = SimilarityMatrix(("a",), np.zeros((1, 1)), "dtw_distance")
        with pytest.raises(ValueError):
            leader_ranking(bad)


class TestRowSumEquality:
    def test_sum_equals_one_without_ties(self):
        index = _index_from_days(
            {("a", "u1"): 0, ("b", "u1"): 2, ("a", "u2"): 4, ("b", "u2"): 1}
        )
        matrix = early_detection_matrix(index)
        assert matrix.value("a", "b") + matrix.value("b", "a") == 1.0

    def test_sum_below_one_with_tie(self):
        index = _index_from_days(
            {("a", "u1"): 0, ("b", "u1"): 2, ("a", "u2"): 3, ("b", "u2"): 3}
        )
        matrix = early_detection_matrix(index)
        assert matrix.value("a", "b") + matrix.value("b", "a") < 1.0


class TestEarlyMatrixMatchesLoop:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_index(self, seed):
        rng = random.Random(seed)
        index = {
            (scanner, f"http://u{u}.test/"): rng.randint(0, 4)
            for scanner in "ABCDE"
            for u in range(rng.randint(0, 12))
            if rng.random() < 0.6
        }
        order = ("E", "A", "Z", "C", "B", "D")
        got = early_detection_matrix(index, scanners=order)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                fa = {url: day for (s, url), day in index.items() if s == a}
                fb = {url: day for (s, url), day in index.items() if s == b}
                shared = fa.keys() & fb.keys()
                if i == j:
                    expected = 0.0
                elif not shared:
                    expected = math.nan
                else:
                    expected = sum(1 for url in shared if fa[url] < fb[url]) / len(shared)
                assert got.values[i, j] == expected or (math.isnan(expected) and math.isnan(got.values[i, j]))
