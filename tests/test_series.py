"""Daily series construction and alignment."""

from __future__ import annotations

import json
import random
import tracemalloc
from datetime import date, datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from scanalytics.correlate import (
    SimilarityMatrix,
    frobenius_trend,
    jaccard_binary,
    jaccard_detailed,
    scanner_dtw_matrix,
)
from scanalytics.feed import (
    DetailedLabel,
    FeedCohort,
    ReportTable,
    ScannerVerdict,
    ScanReport,
    extract_fresh,
    filter_ever_detected,
    parse_feed,
    report_to_json,
)
from scanalytics.leadlag import first_detection_index
from scanalytics.metrics import certainty_scores, f1_by_offset, label_count_distribution, url_label_stats
from scanalytics.scanners import SCANNER_NAMES
from scanalytics.series import (
    LabelTimeSeries,
    SeriesPoint,
    SeriesView,
    _plurality_label,
    _SeriesTable,
    align_by_offset,
    build_series,
    write_series_csv,
)

from conftest import cohort, report, verdict


class TestBuildSeries:
    def test_same_day_highest_binary_label_wins(self):
        rs = [
            report("http://u.test/", 0, "r1", [verdict("S", None)], hour=2),
            report("http://u.test/", 0, "r2", [verdict("S", DetailedLabel.PhishingSite)], hour=20),
        ]
        series = build_series(cohort(rs))
        points = series[("S", "http://u.test/")].points
        assert len(points) == 1
        assert (points[0].day_offset, points[0].bl, points[0].dl) == (0, 1, DetailedLabel.PhishingSite)

    def test_single_benign_report_on_day0(self):
        rs = [report("http://u.test/", 0, "r1", [verdict("S", None)])]
        points = build_series(cohort(rs))[("S", "http://u.test/")].points
        assert [(p.day_offset, p.bl, p.dl) for p in points] == [(0, 0, DetailedLabel.Benign)]

    def test_gap_days_absent(self):
        rs = [
            report("http://u.test/", 0, "r0", [verdict("S", None)]),
            report("http://u.test/", 1, "r1", [verdict("S", DetailedLabel.MalwareSite)]),
            report("http://u.test/", 4, "r4", [verdict("S", None)]),
        ]
        ts = build_series(cohort(rs))[("S", "http://u.test/")]
        assert [p.day_offset for p in ts.points] == [0, 1, 4]
        assert [p.bl for p in ts.points] == [0, 1, 0]
        assert ts.observed_days == {0, 1, 4}

    def test_intra_day_label_conflict_plurality_then_enum_order(self):
        rs = [
            report("http://u.test/", 0, "a", [verdict("S", DetailedLabel.MalwareSite)], hour=1),
            report("http://u.test/", 0, "b", [verdict("S", DetailedLabel.MalwareSite)], hour=2),
            report("http://u.test/", 0, "c", [verdict("S", DetailedLabel.PhishingSite)], hour=3),
        ]
        ts = build_series(cohort(rs))
        assert ts[("S", "http://u.test/")].points[0].dl is DetailedLabel.MalwareSite

        tie = [
            report("http://v.test/", 0, "d", [verdict("S", DetailedLabel.MalwareSite)], hour=1),
            report("http://v.test/", 0, "e", [verdict("S", DetailedLabel.PhishingSite)], hour=2),
        ]
        ts = build_series(cohort(tie))
        # Equal counts: PhishingSite(1) precedes MalwareSite(3) in enum order.
        assert ts[("S", "http://v.test/")].points[0].dl is DetailedLabel.PhishingSite

    def test_order_invariance(self):
        rng = random.Random(5)
        rs = []
        for i in range(30):
            for d in range(5):
                label = DetailedLabel.PhishingSite if rng.random() < 0.4 else None
                rs.append(report(f"http://u{i}.test/", d, f"{i}-{d}", [verdict("S", label)]))
        forward = build_series(cohort(rs))
        shuffled = rs[:]
        rng.shuffle(shuffled)
        assert build_series(cohort(shuffled)) == forward

    def test_bl_dl_consistency(self):
        rng = random.Random(11)
        labels = [None, DetailedLabel.PhishingSite, DetailedLabel.MalwareSite, DetailedLabel.SpamSite]
        rs = []
        for i in range(40):
            for d in range(6):
                rs.append(
                    report(f"http://u{i}.test/", d, f"{i}-{d}", [verdict("S", rng.choice(labels))])
                )
        for ts in build_series(cohort(rs)).values():
            for p in ts.points:
                assert (p.bl == 1) == (p.dl is not DetailedLabel.Benign)
            offsets = [p.day_offset for p in ts.points]
            assert offsets == sorted(offsets)
            assert len(set(offsets)) == len(offsets)


def _rebucket_oracle(reports):
    """Independent (day, bl) bucketing straight from raw reports."""
    day0 = {}
    for r in reports:
        d = r.first_seen.date()
        if r.url not in day0 or d < day0[r.url]:
            day0[r.url] = d
    out = {}
    for r in reports:
        offset = (r.scan_date.date() - day0[r.url]).days
        for v in r.verdicts:
            key = (v.scanner_name, r.url)
            days = out.setdefault(key, {})
            days[offset] = max(days.get(offset, 0), int(v.detected))
    return out


class TestRebucketOracle:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        n_urls = data.draw(st.integers(min_value=1, max_value=6))
        n_days = data.draw(st.integers(min_value=1, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        rs = []
        for i in range(n_urls):
            for d in range(n_days):
                if rng.random() < 0.3:
                    continue  # missing day
                for k in range(rng.choice([1, 1, 2])):  # occasional same-day rescan
                    vs = [
                        verdict("A", DetailedLabel.MalwareSite if rng.random() < 0.5 else None),
                        verdict("B", DetailedLabel.PhishingSite if rng.random() < 0.3 else None),
                    ]
                    rs.append(report(f"http://u{i}.test/", d, f"{i}-{d}-{k}", vs))
        if not rs:
            return
        series = build_series(cohort(rs))
        oracle = _rebucket_oracle(rs)
        assert set(series) == set(oracle)
        for key, ts in series.items():
            assert {p.day_offset: p.bl for p in ts.points} == oracle[key]


class TestSeriesTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_summary_matches_recount_from_points(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        lo = data.draw(st.integers(min_value=-2, max_value=8))
        hi = data.draw(st.one_of(st.none(), st.integers(min_value=-1, max_value=10)))
        rng = random.Random(seed)
        labels = [None, DetailedLabel.PhishingSite, DetailedLabel.MalwareSite, DetailedLabel.OtherMalicious]
        rs = []
        for i in range(rng.randint(1, 6)):
            for d in range(rng.randint(0, 2), rng.randint(3, 9)):
                for k in range(rng.choice([1, 2, 3])):  # same-day rescans vote on the day label
                    vs = [verdict(s, rng.choice(labels)) for s in "ABC" if rng.random() < 0.8]
                    if vs:
                        rs.append(report(f"http://u{i}.test/", d, f"{i}-{d}-{k}", vs))
        if not rs:
            return
        series = build_series(cohort(rs))
        table = _SeriesTable.from_objects(series.values())
        summary = table.summary(lo, hi)
        detecting = summary.labels.sum(axis=-1)
        modal = summary.labels.argmax(axis=-1)

        seen = set()
        for ts in series.values():
            s, u = table.scanner_index[ts.scanner], table.urls.index(ts.url)
            seen.add((s, u))
            inside = [p for p in ts.points if p.day_offset >= lo and (hi is None or p.day_offset < hi)]
            hits = [p for p in inside if p.bl == 1]
            assert summary.observed[s, u] == len(inside)
            assert detecting[s, u] == len(hits)
            assert summary.first[s, u] == (hits[0].day_offset if hits else -1)
            expected = _plurality_label(p.dl for p in hits) if hits else DetailedLabel.Benign
            assert modal[s, u] == expected
        for s in range(len(table.scanners)):
            for u in range(len(table.urls)):
                if (s, u) not in seen:
                    assert summary.observed[s, u] == detecting[s, u] == 0
                    assert summary.first[s, u] == -1


class TestAlignByOffset:
    def _series(self):
        rs = [
            report("http://a.test/", 0, "a0", [verdict("S", DetailedLabel.PhishingSite), verdict("T", None)]),
            report("http://a.test/", 2, "a2", [verdict("S", None), verdict("T", DetailedLabel.MalwareSite)]),
            report("http://b.test/", 0, "b0", [verdict("S", None), verdict("T", None)]),
            report("http://b.test/", 1, "b1", [verdict("S", DetailedLabel.SpamSite), verdict("T", None)]),
        ]
        return build_series(cohort(rs))

    def test_day0_membership(self):
        aligned = align_by_offset(self._series(), 0)
        assert set(aligned) == {
            ("S", "http://a.test/"),
            ("T", "http://a.test/"),
            ("S", "http://b.test/"),
            ("T", "http://b.test/"),
        }
        assert aligned[("S", "http://a.test/")] == (1, DetailedLabel.PhishingSite)

    def test_offset_past_series_empty(self):
        assert align_by_offset(self._series(), 99) == {}

    def test_partial_membership(self):
        aligned = align_by_offset(self._series(), 1)
        assert set(aligned) == {("S", "http://b.test/"), ("T", "http://b.test/")}
        aligned2 = align_by_offset(self._series(), 2)
        assert set(aligned2) == {("S", "http://a.test/"), ("T", "http://a.test/")}
        assert aligned2[("T", "http://a.test/")] == (1, DetailedLabel.MalwareSite)


class TestDayZeroPositivesIdentity:
    def test_sum_of_day0_bl_equals_report_positives(self):
        # One report per URL on day 0 containing every scanner exactly once:
        # summing the scanners' day-0 binary labels recovers positives.
        rs = []
        for i in range(10):
            vs = [
                verdict("A", DetailedLabel.PhishingSite if i % 2 else None),
                verdict("B", DetailedLabel.MalwareSite if i % 3 else None),
                verdict("C", None),
            ]
            rs.append(report(f"http://u{i}.test/", 0, f"r{i}", vs))
        series = build_series(cohort(rs))
        for r in rs:
            total = sum(
                series[(v.scanner_name, r.url)].at(0).bl for v in r.verdicts
            )
            assert total == r.positives

    def test_negative_offset_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            align_by_offset({}, -1)


def _reference_build_series(cohort):
    """The bucket-dict `build_series` the columnar build replaced."""
    from collections import Counter

    day0_by_url = {}
    for r in cohort.reports:
        day = r.first_seen_day
        if r.url not in day0_by_url or day < day0_by_url[r.url]:
            day0_by_url[r.url] = day
    buckets = {}
    for r in cohort.reports:
        offset = (r.scan_day - day0_by_url[r.url]).days
        for v in r.verdicts:
            days = buckets.setdefault((v.scanner_name, r.url), {})
            bl, detecting = days.get(offset, (0, []))
            if v.detected:
                bl = 1
                detecting.append(v.result)
            days[offset] = (bl, detecting)
    out = {}
    for (scanner, url), days in buckets.items():
        points = []
        for offset in sorted(days):
            bl, detecting = days[offset]
            if bl:
                counts = Counter(detecting)
                dl = min(counts, key=lambda lab: (-counts[lab], int(lab)))
            else:
                dl = DetailedLabel.Benign
            points.append(SeriesPoint(offset, bl, dl))
        out[(scanner, url)] = LabelTimeSeries(scanner=scanner, url=url, day0=day0_by_url[url], points=tuple(points))
    return out


def _outcome(fn, *args, **kwargs):
    """A comparable result of `fn`, or its error."""
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, SimilarityMatrix):
        return (result.kind, result.scanners, result.values.tobytes())
    return result


def _analytics(series, positive, benign, universe):
    """Every analytic that reads a series map, on one input."""
    return [
        _outcome(certainty_scores, series, window=4),
        _outcome(f1_by_offset, series, positive, benign, max_offset=6),
        _outcome(label_count_distribution, series, window=5),
        _outcome(url_label_stats, series),
        _outcome(url_label_stats, series, window=2),
        _outcome(jaccard_binary, series, universe, window=5),
        _outcome(jaccard_detailed, series, universe, offset=1, scanners=("B", "A", "Z")),
        _outcome(frobenius_trend, series, universe, range(4), detailed=True),
        _outcome(scanner_dtw_matrix, series),
        _outcome(scanner_dtw_matrix, series, window=3, scanners=("C", "A", "Z", "B")),
        _outcome(first_detection_index, series, window=4),
    ]


class TestColumnarBuildMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_view_equals_bucket_dicts(self, data, tmp_path_factory):
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        sort_reports = data.draw(st.booleans())
        rng = random.Random(seed)
        labels = [None, None, DetailedLabel.PhishingSite, DetailedLabel.MalwareSite, DetailedLabel.SpamSite]
        names = ["A", "B", "C", "Not A Registered Scanner"]
        rs = []
        for i in range(rng.randint(1, 6)):
            url = f"http://u{i}.test/"
            first_seen = [rng.randint(0, 3) for _ in range(2)]
            for d in range(rng.randint(0, 4), rng.randint(4, 9)):
                if rng.random() < 0.25:
                    continue  # a day with no report
                for k in range(rng.choice([1, 1, 2, 3])):  # same-day reports vote on the label
                    vs = [verdict(s, rng.choice(labels)) for s in names if rng.random() < 0.75]
                    rng.shuffle(vs)
                    seen = min(rng.choice(first_seen), d)  # URLs differ in day 0
                    rs.append(report(url, d, f"{i}-{d}-{k}", vs, first_seen_day=seen, hour=rng.randint(0, 23)))
        rng.shuffle(rs)
        if sort_reports:
            co = cohort(rs)
        else:  # keys follow report order, so keep the shuffled one
            co = FeedCohort(name="shuffled", urls=frozenset(r.url for r in rs), reports=tuple(rs))

        view = build_series(co)
        reference = _reference_build_series(co)
        assert isinstance(view, SeriesView)
        assert list(view) == list(reference)
        assert len(view) == len(reference)
        for key, ts in reference.items():
            assert key in view
            assert view[key] == ts
        assert view == dict(view) == reference
        urls = sorted({url for _, url in reference})
        # Absent pairs of a known scanner and a known URL, then unknown names.
        absent = [(s, u) for s in sorted({s for s, _ in reference}) for u in urls if (s, u) not in reference]
        for missing in absent + [("A", "http://nowhere.test/"), ("Z", "http://u0.test/"), ("A",), "A", None]:
            assert missing not in view
            with pytest.raises(KeyError):
                view[missing]

        positive, benign = set(urls[::2]), set(urls[1::2])
        universe = set(urls[: max(1, len(urls) - 1)])
        assert _analytics(view, positive, benign, universe) == _analytics(dict(view), positive, benign, universe)

        kept = set(urls[1::2]) | {"http://nowhere.test/"}
        subset = view.restrict(kept)
        expected = {key: ts for key, ts in reference.items() if key[1] in kept}
        assert list(subset) == list(expected) and subset == expected
        assert _analytics(subset, positive, benign, universe) == _analytics(expected, positive, benign, universe)

        out = tmp_path_factory.mktemp("series")
        write_series_csv(view, out / "view.csv")
        write_series_csv(reference, out / "dict.csv")
        assert (out / "view.csv").read_bytes() == (out / "dict.csv").read_bytes()

    def test_empty_cohort(self):
        view = build_series(cohort([]))
        assert len(view) == 0 and list(view) == [] and view == {}
        assert ("A", "http://u.test/") not in view

    def test_reports_without_verdicts_only_set_day0(self):
        rs = [
            report("http://u.test/", 2, "a", [], first_seen_day=0),
            report("http://u.test/", 3, "b", [verdict("S", DetailedLabel.MalwareSite)], first_seen_day=1),
            report("http://v.test/", 1, "c", []),
            report("http://w.test/", 0, "d", [verdict("T", None)]),
        ]
        view = build_series(cohort(rs))
        assert view == _reference_build_series(cohort(rs))
        assert ("S", "http://w.test/") not in view and ("T", "http://u.test/") not in view
        assert view[("S", "http://u.test/")].points[0].day_offset == 3
        assert _SeriesTable.of(view).urls == ("http://u.test/", "http://w.test/")


def _brute_force_columns(cohort):
    """Every `_SeriesTable` column `build_series` makes, rebuilt one verdict
    at a time from the reports."""
    day0 = {}
    for r in cohort.reports:
        if r.url not in day0 or r.first_seen_day < day0[r.url]:
            day0[r.url] = r.first_seen_day
    keys = {}  # (scanner, url) -> None, in order of first verdict
    days = {}  # (scanner, url, day) -> verdicts
    for r in cohort.reports:
        for v in r.verdicts:
            keys.setdefault((v.scanner_name, r.url))
            days.setdefault((v.scanner_name, r.url, (r.scan_day - day0[r.url]).days), []).append(v)
    scanners = tuple(sorted({s for s, _ in keys}))
    urls = tuple(sorted({u for _, u in keys}))
    points = sorted(days)  # names sort as their indices do
    bl, dl = [], []
    for point in points:
        hits = [v.result for v in days[point] if v.detected]
        bl.append(int(bool(hits)))
        # Most votes, then the lowest enum value.
        dl.append(int(max(set(hits), key=lambda lab: (hits.count(lab), -int(lab)))) if hits else 0)
    rows_of = {}
    for row, (s, u, _) in enumerate(points):
        rows_of.setdefault((s, u), []).append(row)
    return {
        "scanners": scanners,
        "urls": urls,
        "key_scanner": ("int32", [scanners.index(s) for s, _ in keys]),
        "key_url": ("int32", [urls.index(u) for _, u in keys]),
        "key_start": ("int64", [rows_of[key][0] for key in keys]),
        "key_stop": ("int64", [rows_of[key][-1] + 1 for key in keys]),
        "scanner": ("int32", [scanners.index(s) for s, _, _ in points]),
        "url": ("int32", [urls.index(u) for _, u, _ in points]),
        "day": ("int32", [day for _, _, day in points]),
        "bl": ("int8", bl),
        "dl": ("int8", dl),
    }


class TestBuildMatchesBruteForceColumns:
    """`build_series` codes verdicts by report (URL, day) and votes only
    where a day holds several verdicts; every column must equal the
    verdict-by-verdict rebuild."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_column_matches(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=100_000))
        shared_objects = data.draw(st.booleans())  # as `parse_feed` shares them
        keep_order = data.draw(st.booleans())
        rng = random.Random(seed)
        labels = [None, DetailedLabel.PhishingSite, DetailedLabel.MalwareSite, DetailedLabel.OtherMalicious]
        names = ["A", "B", "C", "D"]
        pool = {(s, lab): verdict(s, lab) for s in names for lab in labels}
        rs = []
        for i in range(rng.randint(1, 5)):
            url = f"http://u{i}.test/"
            silent = rng.random() < 0.2  # a URL whose reports all lack verdicts
            for d in range(rng.randint(0, 3), rng.randint(3, 8)):
                for k in range(rng.choice([0, 1, 1, 2, 3, 4])):  # same-day rescans vote
                    vs = []
                    if not silent and rng.random() > 0.15:  # else a report without verdicts
                        # Ragged: each scanner in some reports only.
                        chosen = [s for s in names if rng.random() < 0.7]
                        rng.shuffle(chosen)
                        for s in chosen:
                            lab = rng.choice(labels)
                            vs.append(pool[s, lab] if shared_objects else verdict(s, lab))
                    seen = rng.randint(0, d)
                    rs.append(report(url, d, f"{i}-{d}-{k}", vs, first_seen_day=seen, hour=rng.randint(0, 23)))
        rng.shuffle(rs)
        if keep_order:  # keys follow cohort report order, so keep the shuffled one
            co = FeedCohort(name="shuffled", urls=frozenset(r.url for r in rs), reports=tuple(rs))
        else:
            co = cohort(rs)

        table = build_series(co).table
        expected = _brute_force_columns(co)
        assert (table.scanners, table.urls) == (expected.pop("scanners"), expected.pop("urls"))
        for name, (dtype, values) in expected.items():
            column = getattr(table, name)
            assert (column.dtype.name, column.tolist()) == (dtype, values), name


class TestBuildMemory:
    def test_transient_memory_per_verdict(self):
        # About 95 scanners per report, with verdict objects shared as
        # `parse_feed` shares them.
        rng = random.Random(3)
        labels = [None, DetailedLabel.PhishingSite, DetailedLabel.MalwareSite]
        pool = {(s, lab): verdict(s, lab) for s in SCANNER_NAMES for lab in labels}
        rs = []
        for i in range(36):
            for d in range(10):
                vs = [pool[s, rng.choice(labels)] for s in SCANNER_NAMES]
                rs.append(report(f"http://u{i}.test/", d, f"{i}-{d}", vs))
        co = cohort(rs)
        n_verdicts = sum(len(r.verdicts) for r in co.reports)
        assert n_verdicts >= 30_000
        build_series(co)  # first-call costs (imports, caches) are not per verdict
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            view = build_series(co)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(view) == 36 * len(SCANNER_NAMES)
        assert peak <= 100 * n_verdicts, f"{peak / n_verdicts:.0f} B per verdict"

    def test_transient_memory_per_verdict_separate_objects(self):
        # The same cohort with one verdict object per verdict, as reports
        # built by hand have: equal verdicts share one code all the same.
        rng = random.Random(3)
        labels = [None, DetailedLabel.PhishingSite, DetailedLabel.MalwareSite]
        rs = [
            report(f"http://u{i}.test/", d, f"{i}-{d}", [verdict(s, rng.choice(labels)) for s in SCANNER_NAMES])
            for i in range(36)
            for d in range(10)
        ]
        co = cohort(rs)
        n_verdicts = sum(len(r.verdicts) for r in co.reports)
        assert len(ReportTable.of(co.reports).verdicts) <= 3 * len(SCANNER_NAMES)
        build_series(co)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            view = build_series(co)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(view) == 36 * len(SCANNER_NAMES)
        assert peak <= 100 * n_verdicts, f"{peak / n_verdicts:.0f} B per verdict"


_ENTRIES = [
    {"detected": False, "result": "clean site"},
    {"detected": False, "result": ""},
    {"detected": True, "result": "phishing site"},
    {"detected": True, "result": "Malware Sites"},
    {"detected": True, "result": "spam site"},
    {"detected": True, "result": ""},  # detected with a benign result: the catch-all
    {"detected": True, "result": "something new"},  # unrecognised: the catch-all
]


def _feed_line(url, day, hour, first_seen_day, scan_id, scans):
    """One feed record whose `scans` object is written from (name, entry)
    pairs in the given order, so a name may repeat as a duplicate key."""
    head = json.dumps({
        "url": url, "scan_date": f"2021-03-{1 + day:02d}T{hour:02d}:00:00Z",
        "first_seen": f"2021-03-{1 + first_seen_day:02d}T00:00:00Z", "scan_id": scan_id,
        "positives": sum(entry["detected"] for _, entry in dict(scans).items()),
    })
    body = ",".join(f"{json.dumps(name)}:{json.dumps(entry)}" for name, entry in scans)
    return head[:-1] + ',"scans":{' + body + "}}"


def _columns(table):
    names = ("key_scanner", "key_url", "key_start", "key_stop", "scanner", "url", "day", "bl", "dl")
    return (table.scanners, table.urls) + tuple((getattr(table, n).dtype.name, getattr(table, n).tolist()) for n in names)


class TestParsedViewsMatchHandBuilt:
    """The series built from `parse_feed`'s report table, from the same
    reports built by hand (coded by verdict object) and verdict by verdict
    are the same columns."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_three_sources_give_one_table(self, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=100_000)))
        keep_order = data.draw(st.booleans())
        names = ["Fortinet", "Sophos", "ESET", "Kaspersky", "Not A Registered Scanner"]
        lines = []
        for i in range(rng.randint(1, 5)):
            first_seen = rng.randint(0, 3)
            for d in range(first_seen + rng.randint(0, 2), first_seen + rng.randint(3, 8)):
                seen = first_seen - rng.choice([0, 0, 0, 1])  # reports of one URL may differ
                for k in range(rng.choice([0, 1, 1, 2, 3])):  # same-day rescans vote
                    chosen = [n for n in names if rng.random() < 0.7]  # ragged scanner sets
                    chosen += rng.sample(names, rng.choice([0, 0, 0, 1]))  # a scanner listed twice
                    if rng.random() < 0.1:
                        chosen = []  # a report without verdicts still sets day 0
                    rng.shuffle(chosen)  # per-report verdict order
                    scans = [(n, rng.choice(_ENTRIES)) for n in chosen]
                    lines.append(_feed_line(f"http://u{i}.test/", d, rng.randint(0, 23), max(seen, 0), f"{i}-{d}-{k}", scans))
        rng.shuffle(lines)
        parsed, _ = parse_feed(iter(lines))
        by_hand = [
            ScanReport(r.url, r.scan_date, r.first_seen, r.scan_id, r.positives,
                       tuple(ScannerVerdict(v.scanner_name, v.detected, v.result) for v in r.verdicts))
            for r in parsed
        ]
        if keep_order:  # keys follow cohort report order, so keep the shuffled one
            cohorts = [FeedCohort("shuffled", frozenset(r.url for r in rs), tuple(rs)) for rs in (parsed, by_hand)]
        else:
            cohorts = [cohort(rs) for rs in (parsed, by_hand)]
        cohorts += [filter_ever_detected(rs) for rs in (parsed, by_hand)]  # a subset of the table's rows

        for views, built in (cohorts[:2], cohorts[2:]):
            if views.reports:  # rows of the parse's table, not coded again
                assert ReportTable.of(views.reports).verdicts is ReportTable.of(parsed).verdicts
            expected = _brute_force_columns(views)
            expected = (expected.pop("scanners"), expected.pop("urls")) + tuple(expected.values())
            assert _columns(build_series(views).table) == expected
            assert _columns(build_series(built).table) == expected


class TestOneReportOneDay:
    """A report's day is the UTC day of its timestamp, whatever its offset:
    a report built by hand and its parsed round trip give the same days,
    freshness and series."""

    def test_hand_built_and_parsed_agree(self):
        east, utc = timezone(timedelta(hours=5)), timezone.utc
        hit = (ScannerVerdict("Fortinet", True, DetailedLabel.PhishingSite),)
        by_hand = [
            # Scanned 2021-03-01 20:00 UTC, the UTC day it was first seen.
            ScanReport("http://a.test/", datetime(2021, 3, 2, 1, 0, tzinfo=east),
                       datetime(2021, 3, 1, 0, 0, tzinfo=utc), "a", 1, hit),
            # First seen 2021-03-01 21:00 UTC, scanned the next UTC day.
            ScanReport("http://b.test/", datetime(2021, 3, 2, 12, 0, tzinfo=utc),
                       datetime(2021, 3, 2, 2, 0, tzinfo=east), "b", 1, hit),
        ]
        parsed, warnings = parse_feed(iter(report_to_json(r) for r in by_hand))
        assert parsed == by_hand and not warnings
        for a, b in zip(by_hand, parsed):
            assert (a.scan_day, a.first_seen_day) == (b.scan_day, b.first_seen_day)
        assert [(r.first_seen_day, r.scan_day) for r in by_hand] == [
            (date(2021, 3, 1), date(2021, 3, 1)), (date(2021, 3, 1), date(2021, 3, 2))]
        assert extract_fresh(by_hand) == extract_fresh(parsed) == {"http://a.test/"}
        hand_series, parsed_series = build_series(cohort(by_hand)), build_series(cohort(parsed))
        assert _columns(hand_series.table) == _columns(parsed_series.table)
        assert [ts.points[0].day_offset for ts in hand_series.values()] == [0, 1]
        table = ReportTable.of(by_hand)
        assert table.scan_day.tolist() == ReportTable.of(parsed).scan_day.tolist()
        assert table.first_seen_day.tolist() == ReportTable.of(parsed).first_seen_day.tolist()

    def test_naive_and_aware_scan_dates_in_one_cohort(self):
        # A naive timestamp is read as UTC: the cohort sorts the reports by
        # their UTC instants, and the series are those of the same reports
        # with every timestamp made aware.
        east = timezone(timedelta(hours=5))
        phishing, malware = DetailedLabel.PhishingSite, DetailedLabel.MalwareSite
        mixed = [
            # 2021-03-01 23:30 UTC: after w1 in UTC, though w1's clock reads later.
            ScanReport("http://a.test/", datetime(2021, 3, 1, 23, 30), datetime(2021, 3, 1), "n1", 1,
                       (verdict("S", phishing), verdict("T"))),
            ScanReport("http://a.test/", datetime(2021, 3, 2, 10), datetime(2021, 3, 1), "n2", 2,
                       (verdict("S", malware), verdict("T", phishing))),
            # 2021-03-01 20:00 UTC.
            ScanReport("http://a.test/", datetime(2021, 3, 2, 1, tzinfo=east), datetime(2021, 3, 1, 5, tzinfo=east),
                       "w1", 1, (verdict("T", malware),)),
            ScanReport("http://b.test/", datetime(2021, 3, 3, 4, tzinfo=east), datetime(2021, 3, 3, 4, tzinfo=east),
                       "w2", 1, (verdict("U", phishing),)),
            ScanReport("http://b.test/", datetime(2021, 3, 2, 23, 30), datetime(2021, 3, 2, 23), "n3", 1,
                       (verdict("S", malware),)),
        ]

        def utc(t):
            return t if t.tzinfo else t.replace(tzinfo=timezone.utc)

        aware = [ScanReport(r.url, utc(r.scan_date), utc(r.first_seen), r.scan_id, r.positives, r.verdicts)
                 for r in mixed]
        mixed_cohort, aware_cohort = cohort(mixed), cohort(aware)
        order = [r.scan_id for r in aware_cohort.reports]
        assert order == ["w1", "n1", "n2", "w2", "n3"]
        assert [r.scan_id for r in mixed_cohort.reports] == order
        mixed_series, aware_series = build_series(mixed_cohort), build_series(aware_cohort)
        assert mixed_series == aware_series
        assert _columns(mixed_series.table) == _columns(aware_series.table)


def _wide_cohort(drop, seed):
    """A parsed 95-scanner feed of 36 URLs x 10 days; each scanner entry is
    left out with probability `drop`."""
    rng = random.Random(seed)
    lines = []
    for i in range(36):
        for d in range(10):
            scans = [(name, rng.choice(_ENTRIES[:4])) for name in SCANNER_NAMES if rng.random() >= drop]
            lines.append(_feed_line(f"http://u{i}.test/", d, 12, 0, f"{i}-{d}", scans))
    reports, _ = parse_feed(iter(lines))
    return cohort(reports)


class TestBuildMemoryFromParse:
    """From a parse's report table the build holds a uint8 label matrix and
    the series columns, and makes no per-verdict index."""

    @pytest.mark.parametrize("drop", [0.0, 0.2], ids=["dense", "ragged"])
    def test_transient_memory_per_verdict(self, drop):
        co = _wide_cohort(drop, seed=4)
        n_verdicts = sum(len(r.verdicts) for r in co.reports)
        assert n_verdicts >= 27_000
        build_series(co)  # first-call costs (imports, caches) are not per verdict
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            view = build_series(co)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(view) == 36 * len(SCANNER_NAMES)
        assert peak <= 35 * n_verdicts, f"{peak / n_verdicts:.0f} B per verdict"
