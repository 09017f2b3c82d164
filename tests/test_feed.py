"""Feed model: parsing, round trip, dedup, cohorts, sampling, ground truth."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pickle
import random
import sys
import time
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanalytics import feed
from scanalytics.feed import (
    DetailedLabel,
    FeedFormatError,
    GroundTruthConflictError,
    GroundTruthLabel,
    ReportTable,
    ScannerVerdict,
    ScanReport,
    dedup_by_scan_id,
    extract_fresh,
    filter_ever_detected,
    load_ground_truth,
    normalize_url,
    parse_detailed_label,
    parse_feed,
    parse_feed_file,
    report_to_json,
    stratified_sample,
    write_feed,
    write_ground_truth,
)

from scanalytics.scanners import SCANNER_NAMES

from conftest import report, verdict


def make_line(
    url="http://a.com/x",
    scan_date="2021-03-01T00:00:00Z",
    first_seen="2021-03-01T00:00:00Z",
    scan_id="x-1",
    positives=None,
    scans=None,
):
    if scans is None:
        scans = {
            "Fortinet": {"detected": True, "result": "phishing site"},
            "Sophos": {"detected": True, "result": "malware site"},
            "ESET": {"detected": False, "result": "clean site"},
        }
    if positives is None:
        positives = sum(1 for s in scans.values() if s["detected"])
    return json.dumps(
        {
            "url": url,
            "scan_date": scan_date,
            "first_seen": first_seen,
            "scan_id": scan_id,
            "positives": positives,
            "scans": scans,
        }
    )


class TestParseFeed:
    def test_single_line_schema(self):
        reports, warnings = parse_feed(io.StringIO(make_line()))
        assert len(reports) == 1
        r = reports[0]
        assert r.url == "http://a.com/x"
        assert r.scan_id == "x-1"
        assert r.positives == 2
        assert len(r.verdicts) == 3
        assert not warnings

    def test_positives_recomputed_with_warning(self):
        line = make_line(positives=5)
        reports, warnings = parse_feed(io.StringIO(line))
        assert reports[0].positives == 2
        assert any("recomputed" in w.message for w in warnings)

    def test_malformed_lines_counted(self):
        good = [make_line(scan_id=f"id-{i}") for i in range(8)]
        bad = ["{not json", json.dumps({"url": "http://x.com"})]
        lines = good[:4] + bad[:1] + good[4:] + bad[1:]
        reports, warnings = parse_feed(iter(lines))
        assert len(reports) == 8
        assert sum("skipped" in w.message for w in warnings) == 2

    def test_strict_mode_raises_on_first_bad_line(self):
        lines = [make_line(), "{oops", make_line(scan_id="x-2")]
        with pytest.raises(FeedFormatError, match="line 2"):
            parse_feed(iter(lines), strict=True)

    def test_first_seen_after_scan_date_rejected(self):
        line = make_line(first_seen="2021-03-05T00:00:00Z", scan_date="2021-03-01T00:00:00Z")
        reports, warnings = parse_feed(io.StringIO(line))
        assert not reports
        assert warnings

    def test_detected_with_clean_result_kept_as_catchall(self):
        scans = {"Fortinet": {"detected": True, "result": "clean site"}}
        reports, warnings = parse_feed(io.StringIO(make_line(scans=scans, positives=1)))
        assert reports[0].verdicts[0].result is DetailedLabel.OtherMalicious
        assert reports[0].positives == 1
        assert any("catch-all" in w.message for w in warnings)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_non_boolean_detected_rejected(self, value):
        scans = {"Fortinet": {"detected": value, "result": ""}}
        line = make_line(scans=scans, positives=0)
        reports, warnings = parse_feed(io.StringIO(line))
        assert not reports
        assert any("Fortinet" in w.message and "skipped" in w.message for w in warnings)
        with pytest.raises(FeedFormatError, match="line 1: detected for 'Fortinet'"):
            parse_feed(io.StringIO(line), strict=True)

    def test_unknown_scanner_warned_once(self):
        scans = {"MysteryAV": {"detected": True, "result": "malware site"}}
        lines = [make_line(scans=scans, scan_id=f"s{i}") for i in range(5)]
        reports, warnings = parse_feed(iter(lines))
        assert len(reports) == 5
        assert sum("unknown scanner" in w.message for w in warnings) == 1
        assert not reports[0].verdicts[0].is_known

    def test_url_normalization(self):
        line = make_line(url="HTTP://WWW.Example.COM/KeepCase?Q=Up")
        reports, _ = parse_feed(io.StringIO(line))
        assert reports[0].url == "http://www.example.com/KeepCase?Q=Up"


class TestLabelMapping:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("phishing site", DetailedLabel.PhishingSite),
            ("Phishing Sites", DetailedLabel.PhishingSite),
            ("MALWARE SITE", DetailedLabel.MalwareSite),
            ("malicious sites", DetailedLabel.MaliciousSite),
            ("suspicious site", DetailedLabel.SuspiciousSite),
            ("spam sites", DetailedLabel.SpamSite),
            ("mining site", DetailedLabel.MiningSite),
            ("not recommended sites", DetailedLabel.NotRecommendedSite),
            ("clean site", DetailedLabel.Benign),
            ("", DetailedLabel.Benign),
            ("weird new thing", DetailedLabel.OtherMalicious),
        ],
    )
    def test_result_strings(self, raw, expected):
        assert parse_detailed_label(raw) is expected

    def test_verdict_invariants(self):
        with pytest.raises(ValueError):
            ScannerVerdict("X", True, DetailedLabel.Benign)
        with pytest.raises(ValueError):
            ScannerVerdict("X", False, DetailedLabel.MalwareSite)


class TestRoundTrip:
    def test_simple_round_trip(self):
        reports, _ = parse_feed(io.StringIO(make_line()))
        again, warnings = parse_feed(io.StringIO(report_to_json(reports[0])))
        assert again == reports
        assert not warnings

    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(sorted(DetailedLabel, key=int)), min_size=1, max_size=6),
        day=st.integers(min_value=0, max_value=400),
        path=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=12
        ),
    )
    def test_round_trip_property(self, labels, day, path):
        verdicts = [
            verdict(f"S{i}", lab if lab is not DetailedLabel.Benign else None)
            for i, lab in enumerate(labels)
        ]
        r = report(f"http://h.test/{path}", day, "rt-1", verdicts, first_seen_day=0)
        reparsed, _ = parse_feed(io.StringIO(report_to_json(r)))
        assert reparsed == [r]


class TestDedup:
    def test_first_wins(self):
        r1 = report("http://a.test/", 0, "a", [verdict("S", DetailedLabel.MalwareSite)])
        r2 = report("http://b.test/", 0, "b", [verdict("S", None)])
        r3 = report("http://c.test/", 1, "a", [verdict("S", None)])
        assert dedup_by_scan_id([r1, r2, r3]) == [r1, r2]

    def test_identity_when_unique(self):
        rs = [report(f"http://u{i}.test/", 0, f"id{i}", [verdict("S", None)]) for i in range(5)]
        assert dedup_by_scan_id(rs) == rs

    def test_triplicated_ids(self):
        rs = []
        for i in range(334):
            for k in range(3):
                rs.append(report(f"http://u{i}.test/", k, f"dup-{i}", [verdict("S", None)]))
        rs = rs[:1000]  # 334 ids, the last one appearing once
        out = dedup_by_scan_id(rs)
        assert len(out) == 334
        assert len({r.scan_id for r in out}) == 334

    @settings(max_examples=40, deadline=None)
    @given(ids=st.lists(st.integers(min_value=0, max_value=20), max_size=40))
    def test_idempotent(self, ids):
        rs = [
            report(f"http://u{i}.test/", 0, f"id-{scan_id}", [verdict("S", None)])
            for i, scan_id in enumerate(ids)
        ]
        once = dedup_by_scan_id(rs)
        assert dedup_by_scan_id(once) == once


class TestFresh:
    def test_same_utc_day_is_fresh(self):
        r = report("http://a.test/", 0, "x", [verdict("S", None)], first_seen_day=0, hour=23)
        assert extract_fresh([r]) == {"http://a.test/"}

    def test_cross_midnight_not_fresh(self):
        r = report("http://a.test/", 1, "x", [verdict("S", None)], first_seen_day=0)
        assert extract_fresh([r]) == set()

    def test_planted_fresh_stale_split(self):
        fresh = [
            report(f"http://fresh{i}.test/", 0, f"f{i}", [verdict("S", None)]) for i in range(40)
        ]
        stale = [
            report(f"http://stale{i}.test/", 3, f"s{i}", [verdict("S", None)], first_seen_day=0)
            for i in range(60)
        ]
        got = extract_fresh(fresh + stale)
        assert got == {r.url for r in fresh}


class TestFilterEverDetected:
    def test_keeps_all_reports_of_detected_url(self):
        rs = [
            report("http://a.test/", 0, "a0", [verdict("S", None)]),
            report("http://a.test/", 1, "a1", [verdict("S", DetailedLabel.MalwareSite)]),
            report("http://a.test/", 2, "a2", [verdict("S", None)]),
        ]
        out = filter_ever_detected(rs)
        assert out.urls == {"http://a.test/"}
        assert len(out.reports) == 3

    def test_never_detected_excluded(self):
        rs = [report("http://a.test/", d, f"a{d}", [verdict("S", None)]) for d in range(3)]
        assert filter_ever_detected(rs).urls == set()

    def test_planted_split_and_idempotence(self):
        rs = []
        for i in range(70):
            rs.append(report(f"http://d{i}.test/", 0, f"d{i}", [verdict("S", DetailedLabel.PhishingSite)]))
        for i in range(30):
            rs.append(report(f"http://n{i}.test/", 0, f"n{i}", [verdict("S", None)]))
        out = filter_ever_detected(rs)
        assert len(out.urls) == 70
        again = filter_ever_detected(list(out.reports))
        assert again.urls == out.urls
        assert again.reports == out.reports

    def test_positives_match_verdicts_in_cohort(self):
        rs = [
            report("http://a.test/", 0, "a", [verdict("S", DetailedLabel.SpamSite), verdict("T", None)])
        ]
        out = filter_ever_detected(rs)
        for r in out.reports:
            assert r.positives == sum(1 for v in r.verdicts if v.detected)

    def test_order_of_parsed_hand_built_and_mixed_reports(self):
        # Parse views sort on their table's `scan_us` column, reports built
        # by hand on their own timestamps (a naive one read as UTC): one
        # order, by URL, UTC scan time and scan id, whose UTC order here
        # differs from the order the clocks read.
        stamps = ["2021-03-02T01:00:00Z", "2021-03-01T23:00:00-05:00", "2021-03-01T22:00:00+01:00",
                  "2021-03-02T01:00:00+00:00"]
        lines = [make_line(url=f"http://u{i % 2}.test/", scan_date=stamps[i % 4], scan_id=f"x-{7 - i}")
                 for i in range(8)]
        views, _ = parse_feed(iter(lines))
        by_hand = [dataclasses.replace(_by_hand(v), scan_date=datetime.fromisoformat(stamps[i % 4].replace("Z", "+00:00")))
                   for i, v in enumerate(views)]
        naive = [dataclasses.replace(r, scan_date=r.scan_date.astimezone(timezone.utc).replace(tzinfo=None))
                 if i % 3 else r for i, r in enumerate(by_hand)]
        mixed = [v if i % 2 else r for i, (v, r) in enumerate(zip(views, naive))]
        expected = [r.scan_id for r in sorted(by_hand, key=lambda r: (r.url, r.scan_date, r.scan_id))]
        assert expected != [r.scan_id for r in sorted(by_hand, key=lambda r: (r.url, r.scan_date.replace(tzinfo=None), r.scan_id))]
        for reports in (views, by_hand, naive, mixed):
            assert [r.scan_id for r in filter_ever_detected(reports).reports] == expected


class TestCohortBuild:
    # Input order repeats "x" first; cohort order (URL, UTC scan time, scan
    # id) puts http://a.test/ first and so meets the repeat of "y" first.
    REPEATS = [("http://b.test/", 0, "x"), ("http://b.test/", 1, "x"),
               ("http://a.test/", 2, "y"), ("http://a.test/", 3, "y")]

    @staticmethod
    def _forms(rows):
        """The same reports built by hand, as a generator of them, as parse
        views and as a table."""
        by_hand = [report(url, day, scan_id, [verdict("S", DetailedLabel.PhishingSite)]) for url, day, scan_id in rows]
        views, _ = parse_feed(iter(map(report_to_json, by_hand)))
        return {"by_hand": by_hand, "generator": iter(list(by_hand)), "views": views, "table": ReportTable.of(views)}

    @pytest.mark.parametrize("form", ["by_hand", "generator", "views", "table"])
    def test_duplicate_names_first_repeat_in_cohort_order(self, form):
        reports = self._forms(self.REPEATS)[form]
        with pytest.raises(ValueError, match=r"^duplicate scan_id in cohort: 'y'$"):
            feed.FeedCohort.build("c", {"http://a.test/", "http://b.test/"}, reports)

    def test_duplicate_outside_urls_is_not_checked(self):
        for reports in self._forms(self.REPEATS).values():
            cohort = feed.FeedCohort.build("c", {"http://c.test/"}, reports)
            assert len(cohort.reports) == 0

    def test_list_gives_its_objects_and_table_its_rows(self):
        rows = [("http://b.test/", 1, "b1"), ("http://a.test/", 2, "a2"), ("http://b.test/", 0, "b0"),
                ("http://c.test/", 0, "c0"), ("http://a.test/", 1, "a1")]
        order = [4, 1, 2, 0]  # a1, a2, b0, b1
        urls = {"http://a.test/", "http://b.test/"}
        forms = self._forms(rows)
        by_hand, views, table = forms["by_hand"], forms["views"], forms["table"]
        for given, objects in ((by_hand, by_hand), (forms["generator"], by_hand), (views, views)):
            cohort = feed.FeedCohort.build("c", urls, given)
            assert type(cohort.reports) is tuple and len(cohort.reports) == len(order)
            assert all(r is objects[i] for r, i in zip(cohort.reports, order))
        cohort = feed.FeedCohort.build("c", urls, table)
        assert isinstance(cohort.reports, ReportTable) and cohort.reports.verdicts is table.verdicts
        assert [r.scan_id for r in cohort.reports] == [rows[i][2] for i in order]
        assert list(cohort.reports) == [views[i] for i in order]

    def test_ever_detected_codes_hand_built_reports_once(self, monkeypatch):
        rows = [("http://b.test/", 1, "b1"), ("http://a.test/", 2, "a2"), ("http://c.test/", 0, "c0")]
        by_hand = self._forms(rows)["by_hand"]
        by_hand.append(report("http://d.test/", 0, "d0", [verdict("S")]))  # never detected
        added = []
        add = feed._TableBuilder.add
        monkeypatch.setattr(feed._TableBuilder, "add", lambda self, *args: (added.append(args[3]), add(self, *args)))
        cohort = feed.filter_ever_detected(by_hand)
        assert added == [scan_id for _, _, scan_id in rows] + ["d0"]
        assert cohort.urls == {"http://a.test/", "http://b.test/", "http://c.test/"}
        assert all(r is by_hand[i] for r, i in zip(cohort.reports, [1, 0, 2], strict=True))


class TestStratifiedSample:
    def _make_cell_url(self, reports_out, url, n_reports, max_pos):
        for k in range(n_reports):
            vs = [
                verdict(f"S{j}", DetailedLabel.MalwareSite if j < (max_pos if k == 0 else 0) else None)
                for j in range(max_pos + 1)
            ]
            reports_out.append(report(url, k, f"{url}-{k}", vs))

    def test_single_url(self):
        rs = []
        self._make_cell_url(rs, "http://only.test/", 2, 1)
        got = stratified_sample(rs, ([5], [5]), per_cell=1, seed=1)
        assert got == {"http://only.test/"}

    def test_deterministic(self):
        rs = []
        for i in range(50):
            self._make_cell_url(rs, f"http://u{i}.test/", 1 + i % 4, i % 3)
        a = stratified_sample(rs, ([2, 4], [1, 2]), per_cell=3, seed=9)
        b = stratified_sample(rs, ([2, 4], [1, 2]), per_cell=3, seed=9)
        assert a == b

    def test_planted_3x3_strata(self):
        # popularity bins [3, 6]: cells 1-2 / 3-5 / 6+ reports;
        # positives bins [2, 4]: cells 0-1 / 2-3 / 4+ max positives.
        rs = []
        planted: dict[tuple[int, int], set[str]] = {}
        pops = [2, 4, 7]
        poss = [1, 3, 5]
        for ci, n_rep in enumerate(pops):
            for cj, max_pos in enumerate(poss):
                for i in range(100):
                    url = f"http://c{ci}{cj}-{i}.test/"
                    self._make_cell_url(rs, url, n_rep, max_pos)
                    planted.setdefault((ci, cj), set()).add(url)
        got = stratified_sample(rs, ([3, 6], [2, 4]), per_cell=10, seed=4)
        assert len(got) == 90
        for cell, urls in planted.items():
            assert len(got & urls) == 10

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            stratified_sample([], ([3, 3], [1]), per_cell=1, seed=0)


class TestGroundTruth:
    def _write(self, tmp_path, rows):
        path = tmp_path / "gt.csv"
        lines = ["url,label,source,labeled_at"] + rows
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_load_and_round_trip(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "http://a.test/,phishing,manual,2021-03-01T00:00:00Z",
                "http://b.test/,benign,manual,2021-03-01T00:00:00Z",
                "http://c.test/,malware,apwg,2021-04-01T00:00:00Z",
            ],
        )
        records = load_ground_truth(path)
        assert [r.label for r in records] == [
            GroundTruthLabel.Phishing,
            GroundTruthLabel.Benign,
            GroundTruthLabel.Malware,
        ]
        out = tmp_path / "roundtrip.csv"
        write_ground_truth(records, out)
        assert load_ground_truth(out) == records

    def test_cross_source_conflict_fatal(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "http://a.test/,phishing,manual,2021-03-01T00:00:00Z",
                "http://a.test/,malware,apwg,2021-03-02T00:00:00Z",
            ],
        )
        with pytest.raises(GroundTruthConflictError, match="a.test"):
            load_ground_truth(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = self._write(tmp_path, ["http://a.test/,weird,manual,2021-03-01T00:00:00Z"])
        with pytest.raises(FeedFormatError, match="unknown ground-truth label"):
            load_ground_truth(path)


    @pytest.mark.parametrize(
        "row,missing",
        [
            ("http://a.test/,phishing", "source, labeled_at"),
            ("http://a.test/,phishing,manual,", "labeled_at"),
            (",phishing,manual,2021-03-01T00:00:00Z", "url"),
            ("http://a.test/, ,manual,2021-03-01T00:00:00Z", "label"),
        ],
    )
    def test_missing_or_empty_field_names_row(self, tmp_path, row, missing):
        path = self._write(tmp_path, ["http://b.test/,benign,manual,2021-03-01T00:00:00Z", row])
        with pytest.raises(FeedFormatError, match=f"row 3: missing or empty {missing}$"):
            load_ground_truth(path)

    def test_bad_timestamp_names_row(self, tmp_path):
        path = self._write(
            tmp_path,
            ["http://b.test/,benign,manual,2021-03-01T00:00:00Z", "http://a.test/,phishing,manual,yesterday"],
        )
        with pytest.raises(FeedFormatError, match="^row 3: bad labeled_at timestamp: 'yesterday'$"):
            load_ground_truth(path)


def _dictreader_ground_truth(path):
    """`load_ground_truth` as it read before its row loop: one
    `csv.DictReader` dict per row. The reference for `TestGroundTruthReader`."""
    records = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(feed._utf8_lines(fh, path))
        if reader.fieldnames is None or not set(feed._GT_COLUMNS).issubset(reader.fieldnames):
            raise FeedFormatError(f"ground truth CSV must have columns {sorted(feed._GT_COLUMNS)}")
        for row_no, row in enumerate(reader, start=2):
            empty = [name for name in feed._GT_COLUMNS if not (row[name] or "").strip()]
            if empty:
                raise FeedFormatError(f"row {row_no}: missing or empty {', '.join(empty)}")
            label_raw = row["label"].strip().lower()
            if label_raw not in feed._GT_LABELS:
                raise FeedFormatError(f"row {row_no}: unknown ground-truth label {row['label']!r}")
            try:
                labeled_at = feed._parse_ts(row["labeled_at"].strip(), "labeled_at")
            except FeedFormatError as exc:
                raise FeedFormatError(f"row {row_no}: {exc}") from None
            record = feed.GroundTruthRecord(
                url=normalize_url(row["url"].strip()),
                label=feed._GT_LABELS[label_raw],
                source=row["source"].strip(),
                labeled_at=labeled_at,
            )
            key = (record.url, record.source)
            if key in records and records[key].label is not record.label:
                raise GroundTruthConflictError(f"conflicting labels for {record.url!r} from source {record.source!r}")
            records[key] = record
    by_url = {}
    for record in records.values():
        by_url.setdefault(record.url, set()).add(record.label)
    conflicts = sorted(url for url, labels in by_url.items() if len(labels) > 1)
    if conflicts:
        raise GroundTruthConflictError("conflicting labels across sources for: " + ", ".join(conflicts))
    return sorted(records.values(), key=lambda r: (r.url, r.source))


def _outcome(load, path):
    try:
        return "ok", load(path)
    except (FeedFormatError, GroundTruthConflictError) as exc:
        return type(exc).__name__, str(exc)


_GT_ROW = "http://a.test/,phishing,manual,2021-03-01T00:00:00Z"
# Each column's cells, mostly valid ones.
_GT_CELLS = {
    "url": ["http://a.test/", "HTTP://A.test/x", "http://b.test/\nsecond", "http://c.test/a,b", "", " "],
    "label": ["phishing", " Malware ", "benign", "PHISHING", "weird", ""],
    "source": ["manual", "apwg", 'say "hi"', "", "manual"],
    "labeled_at": ["2021-03-01T00:00:00Z", "2021-03-02", "2021-03-01T00:00:00Z", "yesterday", ""],
    "extra": ["x", ""],
}


@st.composite
def _gt_files(draw):
    """A header of the four columns in any order, with repeated and extra
    names inserted and sometimes one dropped, and rows of its cells cut short
    or run long (a cut at 0 is a blank line)."""
    header = list(draw(st.permutations(feed._GT_COLUMNS)))
    for name in draw(st.lists(st.sampled_from([*feed._GT_COLUMNS, "extra"]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 4)) == 0:
        del header[draw(st.integers(0, len(header) - 1))]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(_GT_CELLS[name])) for name in header]
        width = draw(st.sampled_from([len(row)] * 4 + list(range(len(row) + 3))))
        rows.append(row[:width] + ["more"] * (width - len(row)))
    return header, rows


class TestGroundTruthReader:
    """The row loop reads every file as the `csv.DictReader` it replaced:
    the same records, or the same error and message."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n" + "url,label,source,labeled_at\n" + _GT_ROW + "\n",
            "url,label,source\n" + "http://a.test/,phishing,manual\n",
            # blank lines before, between and after rows are not numbered
            "url,label,source,labeled_at\n\n" + _GT_ROW + "\n\n\nhttp://b.test/,benign,manual,bad\n\n",
            # a short row reads its missing fields as empty
            "url,label,source,labeled_at\n" + _GT_ROW + "\nhttp://b.test/,benign\n",
            # a long row's extra fields are ignored
            "url,label,source,labeled_at\n" + _GT_ROW + ",extra,more\nhttp://b.test/,benign,manual,2021-03-01\n",
            # a repeated name reads its last column, also when a row is too short for it
            "url,label,source,labeled_at,url\n" + _GT_ROW + ",http://c.test/\n",
            "url,label,source,labeled_at,url\n" + _GT_ROW + "\n",
            "label,url,label,extra,source,labeled_at\nmalware,http://a.test/,phishing,x,manual,2021-03-01\n",
            # a quoted newline stays in its field and its row counts once
            'url,label,source,labeled_at\n"http://a.test/\nx",phishing,manual,2021-03-01\n'
            '"http://b.test/",benign,"man\nual",2021-03-01\nhttp://c.test/,,manual,2021-03-01\n',
            # a row of one empty quoted field is not blank
            'url,label,source,labeled_at\n' + _GT_ROW + '\n""\n',
            # conflicts, within and across sources
            "url,label,source,labeled_at\n" + _GT_ROW + "\nhttp://a.test/,malware,manual,2021-03-01\n",
            "url,label,source,labeled_at\n" + _GT_ROW + "\nhttp://a.test/,malware,apwg,2021-03-01\n",
            "url,label,source,labeled_at\r\n" + _GT_ROW + "\r\nhttp://a.test/,PHISHING,manual,2021-03-01\r\n",
        ],
    )
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "gt.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_ground_truth, path) == _outcome(_dictreader_ground_truth, path)

    @settings(max_examples=150, deadline=None)
    @given(_gt_files())
    def test_generated_files(self, tmp_path_factory, drawn):
        header, rows = drawn
        path = tmp_path_factory.mktemp("gt") / "gt.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert _outcome(load_ground_truth, path) == _outcome(_dictreader_ground_truth, path)


class TestNormalizeUrl:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("HTTP://Host.COM/Path", "http://host.com/Path"),
            ("https://USER@Host.com:8080/A?B=C", "https://USER@host.com:8080/A?B=C"),
            ("ftp://X.Y/z", "ftp://x.y/z"),
            ("no-scheme-text", "no-scheme-text"),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_url(raw) == expected


class TestByteStreams:
    def test_bytes_lines_accepted(self):
        lines = [make_line(scan_id="b1").encode(), make_line(scan_id="b2").encode()]
        reports, warnings = parse_feed(iter(lines))
        assert [r.scan_id for r in reports] == ["b1", "b2"]

    def test_binary_file_object(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes((make_line(scan_id="f1") + "\n" + make_line(scan_id="f2") + "\n").encode())
        with open(path, "rb") as fh:
            reports, _ = parse_feed(fh)
        assert len(reports) == 2

    def test_invalid_utf8_line_skipped(self):
        lines = [make_line(scan_id="ok").encode(), b"\xff\xfe{bad}"]
        reports, warnings = parse_feed(iter(lines))
        assert len(reports) == 1
        assert any("UTF-8" in w.message for w in warnings)


def _reference_parse(lines):
    """The per-verdict parser that verdict sharing replaced: one new
    ScannerVerdict per entry, one warning check per entry."""
    from scanalytics.feed import ParseWarning, ScanReport, _parse_ts
    from scanalytics.scanners import is_known_scanner

    def parse_line(line, line_no, warnings, unknown_seen):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FeedFormatError(f"invalid JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise FeedFormatError("record is not a JSON object")
        for key in ("url", "scan_date", "first_seen", "scan_id", "positives", "scans"):
            if key not in raw:
                raise FeedFormatError(f"missing field {key!r}")
        url = raw["url"]
        if not isinstance(url, str) or not url:
            raise FeedFormatError("url must be a non-empty string")
        scan_date = _parse_ts(raw["scan_date"], "scan_date")
        first_seen = _parse_ts(raw["first_seen"], "first_seen")
        if first_seen > scan_date:
            raise FeedFormatError("first_seen is after scan_date")
        scan_id = raw["scan_id"]
        if not isinstance(scan_id, str) or not scan_id:
            raise FeedFormatError("scan_id must be a non-empty string")
        scans = raw["scans"]
        if not isinstance(scans, dict):
            raise FeedFormatError("scans must be an object")
        verdicts = []
        for scanner_name, entry in scans.items():
            if not isinstance(entry, dict) or "detected" not in entry:
                raise FeedFormatError(f"bad scans entry for {scanner_name!r}")
            detected = entry["detected"]
            if not isinstance(detected, bool):
                raise FeedFormatError(f"detected for {scanner_name!r} must be true or false")
            result = parse_detailed_label(str(entry.get("result", "")))
            if detected and result is DetailedLabel.Benign:
                warnings.append(
                    ParseWarning(line_no, f"{scanner_name}: detected with benign result, kept as catch-all")
                )
                result = DetailedLabel.OtherMalicious
            elif not detected:
                result = DetailedLabel.Benign
            verdicts.append(ScannerVerdict(scanner_name, detected, result))
            if scanner_name not in unknown_seen and not is_known_scanner(scanner_name):
                unknown_seen.add(scanner_name)
                warnings.append(ParseWarning(line_no, f"unknown scanner name {scanner_name!r}"))
        n_detected = sum(1 for v in verdicts if v.detected)
        raw_positives = raw["positives"]
        if not isinstance(raw_positives, int) or isinstance(raw_positives, bool) or raw_positives < 0:
            raise FeedFormatError("positives must be a non-negative integer")
        if raw_positives != n_detected:
            warnings.append(
                ParseWarning(line_no, f"positives field says {raw_positives} but {n_detected} verdicts detect; recomputed")
            )
        return ScanReport(url=normalize_url(url), scan_date=scan_date, first_seen=first_seen,
                          scan_id=scan_id, positives=n_detected, verdicts=tuple(verdicts))

    reports, warnings, unknown_seen = [], [], set()
    for line_no, line in enumerate(lines, start=1):
        try:
            reports.append(parse_line(line, line_no, warnings, unknown_seen))
        except FeedFormatError as exc:
            warnings.append(ParseWarning(line_no, f"{exc}; line skipped"))
    return reports, warnings


class TestSharedVerdicts:
    def _lines(self):
        clean_hit = {"detected": True, "result": "clean site"}  # kept as catch-all, warned per line
        lines = []
        for i in range(6):
            scans = {
                "Fortinet": clean_hit if i % 2 == 0 else {"detected": True, "result": "Phishing Site"},
                "Sophos": {"detected": i % 3 == 0, "result": "malware site" if i % 3 == 0 else ""},
                "MysteryAV": {"detected": True, "result": ["odd", i % 2]},  # unknown name, non-string result
                "ESET": {"detected": bool(i % 2), "result": 7 if i % 2 else None},
                "Kaspersky": {"detected": True, "result": "PHISHING SITE" if i else "phishing sites"},
            }
            lines.append(make_line(scan_id=f"s{i}", scans=scans, positives=i))
        lines[2] = "{not json"
        lines.insert(4, make_line(scan_id="bad", scans={"Fortinet": clean_hit, "ESET": {"detected": "false"}}))
        lines.insert(5, make_line(scan_id="neg", scans={"MysteryAV": clean_hit}, positives=-1))
        return lines

    def test_same_reports_and_warnings_as_per_verdict_parse(self):
        lines = self._lines()
        reports, warnings = parse_feed(iter(lines))
        assert (reports, warnings) == _reference_parse(lines)
        # One catch-all warning on each line that has one, skipped line 5 included.
        assert [w.line for w in warnings if w.message.startswith("Fortinet: detected with benign")] == [1, 5, 7]
        assert [w.line for w in warnings if "unknown scanner" in w.message] == [1]
        assert [w.line for w in warnings if "skipped" in w.message] == [3, 5, 6]

    def test_verdicts_shared_within_one_parse_only(self):
        lines = self._lines()
        first, _ = parse_feed(iter(lines))
        second, _ = parse_feed(iter(lines))
        by_key = {}
        for r in first:
            for v in r.verdicts:
                by_key.setdefault((v.scanner_name, v.detected, v.result), set()).add(id(v))
        # Different raw strings for one label (case, or a non-string result's
        # text) stay separate objects.
        assert len(by_key[("Kaspersky", True, DetailedLabel.PhishingSite)]) == 2
        assert len(by_key[("MysteryAV", True, DetailedLabel.OtherMalicious)]) == 2
        assert all(len(ids) == 1 for key, ids in by_key.items() if key[0] not in ("Kaspersky", "MysteryAV"))
        assert first[0].verdicts[0] is first[3].verdicts[0]  # lines 1 and 7
        assert first[0].verdicts[0] == second[0].verdicts[0]
        assert first[0].verdicts[0] is not second[0].verdicts[0]


def _by_hand(r):
    """The report `r` is, built by hand with fresh verdict objects."""
    verdicts = tuple(ScannerVerdict(v.scanner_name, v.detected, v.result) for v in r.verdicts)
    return ScanReport(r.url, r.scan_date, r.first_seen, r.scan_id, r.positives, verdicts)


class TestReportViews:
    """`parse_feed` returns views over its report table's rows; they behave
    as the reports built by hand from the same values."""

    def _lines(self):
        return TestSharedVerdicts()._lines() + [
            make_line(url="HTTP://B.test/p", scan_id="b", scan_date="2021-03-02T05:06:07+02:00",
                      first_seen="2021-02-28T23:59:59Z", scans={}),
            make_line(url="http://c.test/", scan_id="c", scan_date="1969-12-31T23:59:59.999999Z",
                      first_seen="1969-12-30T12:00:00.5-03:00"),
        ]

    def test_equal_and_hash_as_built_by_hand(self):
        reports, _ = parse_feed(iter(self._lines()))
        assert len(reports) == 7
        for r in reports:
            plain = _by_hand(r)
            assert type(plain) is ScanReport and type(r) is not ScanReport and isinstance(r, ScanReport)
            assert r == plain and plain == r and not (r != plain) and not (plain != r)
            assert hash(r) == hash(plain)
            assert plain in {r} and r in {plain}
            assert (r.scan_day, r.first_seen_day) == (plain.scan_date.date(), plain.first_seen.date())
        assert reports[0] != reports[1] and _by_hand(reports[0]) != reports[1] and reports[1] != _by_hand(reports[0])
        assert reports[0] != "not a report"
        empty, early = reports[-2:]
        assert (empty.url, empty.verdicts, empty.positives) == ("http://b.test/p", (), 0)
        assert empty.scan_date.isoformat() == "2021-03-02T03:06:07+00:00"
        # Microseconds and days before the epoch are kept exactly.
        assert early.scan_date.isoformat() == "1969-12-31T23:59:59.999999+00:00"
        assert early.first_seen.isoformat() == "1969-12-30T15:00:00.500000+00:00"
        assert (early.scan_day.isoformat(), early.first_seen_day.isoformat()) == ("1969-12-31", "1969-12-30")

    def test_verdict_objects_shared_within_one_parse(self):
        lines = self._lines()
        first, _ = parse_feed(iter(lines))
        second, _ = parse_feed(iter(lines))
        assert first[0].verdicts[1] is first[0].verdicts[1]  # read again from the same row
        assert first[0].verdicts[0] is first[3].verdicts[0]
        assert first[0].verdicts == second[0].verdicts
        assert all(a is not b for a, b in zip(first[0].verdicts, second[0].verdicts))
        table = ReportTable.of(first)
        assert table.verdicts is ReportTable.of(first[2:]).verdicts  # rows of one table
        assert [table.verdicts[c] for c in table.codes[table.start[0]:table.stop[0]]] == list(first[0].verdicts)
        mixed = ReportTable.of(first[:2] + second[2:])  # two parses: coded by value
        assert len(mixed.verdicts) == len({v for r in first[:2] + second[2:] for v in r.verdicts})

    def test_report_to_json_round_trips(self):
        reports, _ = parse_feed(iter(self._lines()[:-1]))  # whole seconds, as the record form writes them
        lines = [report_to_json(r) for r in reports]
        assert lines == [report_to_json(_by_hand(r)) for r in reports]
        again, warnings = parse_feed(iter(lines))
        assert again == reports
        assert [w.message for w in warnings] == ["unknown scanner name 'MysteryAV'"]
        assert [report_to_json(r) for r in again] == lines

    def test_pickles_and_copies_as_a_plain_report(self):
        reports, _ = parse_feed(iter(self._lines()))
        for r in reports:
            restored = pickle.loads(pickle.dumps(r))
            assert type(restored) is ScanReport and restored == r

    def test_replace_gives_a_plain_report(self):
        reports, _ = parse_feed(iter(self._lines()))
        for r in reports:
            changed = dataclasses.replace(r, scan_id="b")
            assert type(changed) is ScanReport and changed == dataclasses.replace(_by_hand(r), scan_id="b")
        # A plain report, so its checks run: one verdict per scanner.
        r = reports[0]
        with pytest.raises(ValueError, match="more than one verdict"):
            dataclasses.replace(r, verdicts=r.verdicts + r.verdicts[:1], positives=r.positives + r.verdicts[0].detected)

    def test_views_are_read_only(self):
        reports, _ = parse_feed(iter(self._lines()))
        for name in ("url", "scan_date", "verdicts", "positives"):
            with pytest.raises(AttributeError):
                setattr(reports[0], name, None)

    def test_days_just_before_and_after_utc_midnight(self):
        # Local times at +14:00 and -12:00 whose UTC instants fall just
        # before and just after midnight UTC: a view reads its days from the
        # table's day columns and gets the UTC day, as a report built by hand
        # with the same offset does.
        stamps = {
            "2021-03-02T13:59:59.999999+14:00": date(2021, 3, 1),
            "2021-03-02T14:00:00+14:00": date(2021, 3, 2),
            "2021-03-01T11:59:59.999999-12:00": date(2021, 3, 1),
            "2021-03-01T12:00:00-12:00": date(2021, 3, 2),
        }
        lines = [make_line(scan_id=f"m{i}", scan_date=stamp, first_seen=stamp) for i, stamp in enumerate(stamps)]
        reports, _ = parse_feed(iter(lines))
        for r, (stamp, day) in zip(reports, stamps.items()):
            local = datetime.fromisoformat(stamp)
            plain = ScanReport(r.url, local, local, r.scan_id, r.positives, _by_hand(r).verdicts)
            assert r == plain
            assert (r.scan_day, r.first_seen_day) == (plain.scan_day, plain.first_seen_day) == (day, day)


class TestNaiveAndAwareTimestamps:
    """A naive timestamp is read as UTC, also beside an aware one."""

    EAST = timezone(timedelta(hours=2))

    @pytest.mark.parametrize("first_seen, scan_date", [
        (datetime(2021, 3, 1, 10), datetime(2021, 3, 1, 13, tzinfo=EAST)),  # 10:00 and 11:00 UTC
        (datetime(2021, 3, 1, 10, tzinfo=EAST), datetime(2021, 3, 1, 9)),  # 08:00 and 09:00 UTC
    ])
    def test_mixed_pair_builds(self, first_seen, scan_date):
        r = ScanReport("http://a.test/", scan_date, first_seen, "m-1", 0, ())
        assert r.first_seen_day == r.scan_day == date(2021, 3, 1)

    def test_naive_first_seen_later_in_utc_is_refused(self):
        # 12:00 UTC is after 13:00+02:00 (11:00 UTC), though its clock reads earlier.
        with pytest.raises(ValueError, match="first_seen is after scan_date"):
            ScanReport("http://a.test/", datetime(2021, 3, 1, 13, tzinfo=self.EAST), datetime(2021, 3, 1, 12),
                       "m-1", 0, ())


def _wide_lines(n_urls, n_days, drop, seed):
    """Feed lines with up to 95 scanners per report; each scanner entry is
    left out with probability `drop`."""
    rng = random.Random(seed)
    entries = [{"detected": False, "result": "clean site"}, {"detected": True, "result": "phishing site"},
               {"detected": True, "result": "malware site"}]
    lines = []
    for i in range(n_urls):
        for d in range(n_days):
            scans = {name: rng.choice(entries) for name in SCANNER_NAMES if rng.random() >= drop}
            lines.append(make_line(url=f"http://u{i}.test/", scan_date=f"2021-03-{1 + d:02d}T12:00:00Z",
                                   first_seen="2021-03-01T00:00:00Z", scan_id=f"{i}-{d}", scans=scans))
    return lines


class TestParseMemory:
    """Verdicts are narrow codes into the shared objects, so a report costs
    about as many bytes as it has scanners, not pointers."""

    @staticmethod
    def _assert_bytes_per_report(lines, allowance=0):
        # `allowance`: bytes the table must keep beyond what its reports cost.
        parse_feed(iter(lines[:20]))  # first-call costs (imports, caches) are not per report
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            reports, _ = parse_feed(iter(lines))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(reports) == 1500 and sum(len(r.verdicts) for r in reports) == 1500 * len(SCANNER_NAMES)
        assert peak - allowance <= 600 * len(reports), f"{(peak - allowance) / len(reports):.0f} B per report"

    def test_bytes_per_report_on_a_wide_feed(self):
        # `json.dumps`' default separators: every line is decoded whole.
        self._assert_bytes_per_report(_wide_lines(150, 10, 0.0, seed=5))

    def test_bytes_per_report_with_every_body_twice_in_the_writer_form(self, tmp_path):
        # The parser's body cache at its fullest: each scans body comes twice,
        # so every body is kept, and the cache holds its whole budget.
        reports, _ = parse_feed(iter(_wide_lines(150, 10, 0.0, seed=5)))
        twice = [ScanReport(r.url, r.scan_date, r.first_seen, r.scan_id, body.positives, body.verdicts)
                 for r, body in zip(reports, (reports[i // 2] for i in range(len(reports))))]
        write_feed(twice, tmp_path / "feed.jsonl")
        lines = (tmp_path / "feed.jsonl").read_text(encoding="utf-8").splitlines()
        assert len({line[line.rindex(',"scans":{'):] for line in lines}) == len(lines) // 2
        self._assert_bytes_per_report(lines)

    def test_bytes_per_report_with_no_url_or_timestamp_repeated(self, tmp_path):
        # Every line has its own URL and its own second-level timestamps, as
        # a feed straight from a scanning service would: the parse keeps no
        # URL or timestamp string but the table's own copy of each URL,
        # whose text is allowed for.
        reports, _ = parse_feed(iter(_wide_lines(150, 10, 0.0, seed=5)))
        start = datetime(2021, 3, 1, 12, tzinfo=timezone.utc)
        distinct = [ScanReport(f"http://u{i}.test/page/{i}", start + timedelta(seconds=2 * i),
                               start + timedelta(seconds=2 * i - 1), r.scan_id, r.positives, r.verdicts)
                    for i, r in enumerate(reports)]
        write_feed(distinct, tmp_path / "feed.jsonl")
        lines = (tmp_path / "feed.jsonl").read_text(encoding="utf-8").splitlines()
        records = list(map(json.loads, lines))
        assert len({r["url"] for r in records}) == len({r[k] for r in records for k in ("scan_date", "first_seen")}) // 2 == len(lines)
        self._assert_bytes_per_report(lines, allowance=sum(sys.getsizeof(normalize_url(r["url"])) for r in records))

    def test_bytes_per_report_on_a_wide_feed_in_the_writer_form(self, tmp_path):
        # The same reports as `write_feed` writes them: every line is split
        # into its header and members, and each distinct member decoded once.
        reports, _ = parse_feed(iter(_wide_lines(150, 10, 0.0, seed=5)))
        write_feed(reports, tmp_path / "feed.jsonl")
        self._assert_bytes_per_report((tmp_path / "feed.jsonl").read_text(encoding="utf-8").splitlines())


_NAMES = st.text(max_size=6)  # any code points: non-ASCII, quotes, escapes, empty
_LABELS = st.sampled_from(sorted(DetailedLabel, key=int))
_OFFSETS = st.one_of(
    st.none(),  # naive: read as UTC
    st.integers(min_value=-23 * 60, max_value=23 * 60).map(lambda m: timezone(timedelta(minutes=m))),
)


@st.composite
def _hand_built_reports(draw):
    """Reports built by hand: some verdict objects shared between reports,
    some equal verdicts as separate objects, unique scanners per report."""
    pool = draw(st.lists(st.builds(lambda name, label: ScannerVerdict(name, label is not DetailedLabel.Benign, label), _NAMES, _LABELS), max_size=8))
    reports = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        picks = draw(st.lists(st.sampled_from(pool), unique_by=lambda v: v.scanner_name) if pool else st.just([]))
        verdicts = [v if draw(st.booleans()) else ScannerVerdict(v.scanner_name, v.detected, v.result) for v in picks]
        scan_date = draw(st.datetimes(min_value=datetime(1971, 1, 1), max_value=datetime(2100, 1, 1), timezones=_OFFSETS))
        first_seen = scan_date - draw(st.timedeltas(min_value=timedelta(0), max_value=timedelta(days=40)))
        reports.append(
            ScanReport(
                url=draw(st.text(max_size=10)),
                scan_date=scan_date,
                first_seen=first_seen,
                scan_id=draw(st.text(min_size=1, max_size=6)) + f"-{i}",
                positives=sum(v.detected for v in verdicts),
                verdicts=tuple(verdicts),
            )
        )
    return reports


class TestWriteFeed:
    @settings(max_examples=150, deadline=None)
    @given(reports=_hand_built_reports())
    def test_bytes_are_report_to_json_lines(self, tmp_path_factory, reports):
        path = tmp_path_factory.mktemp("feed") / "feed.jsonl"
        write_feed(reports, path)
        assert path.read_bytes() == "".join(report_to_json(r) + "\n" for r in reports).encode("utf-8")

    def test_parsed_reports_write_as_read(self, tmp_path):
        lines = [make_line(scan_id=f"x-{i}", url=f"http://a{i % 3}.test/") for i in range(6)]
        reports, _ = parse_feed(iter(lines))
        write_feed(reports, tmp_path / "feed.jsonl")
        text = (tmp_path / "feed.jsonl").read_text(encoding="utf-8")
        assert text == "".join(report_to_json(r) + "\n" for r in reports)
        assert parse_feed_file(tmp_path / "feed.jsonl") == (reports, [])

    def test_reports_made_while_writing(self, tmp_path):
        # Each report and its verdict are freed once written, so a later
        # verdict, for another scanner, may be made at an earlier one's address.
        def reports():
            for i in range(20):
                yield report("http://u.test/", i, f"r-{i}", [verdict(f"S{i}", DetailedLabel.MalwareSite if i % 2 else None)])

        write_feed(reports(), tmp_path / "feed.jsonl")
        text = (tmp_path / "feed.jsonl").read_text(encoding="utf-8")
        assert text == "".join(report_to_json(r) + "\n" for r in reports())
        assert parse_feed_file(tmp_path / "feed.jsonl")[0] == list(reports())

    @pytest.mark.parametrize("name", ["Sophos", "Fortiñet"])
    def test_scanner_listed_twice_is_refused(self, name):
        # A report holds one verdict per scanner, as a record's scans do, so
        # a report listing one twice is refused where it is built: directly,
        # through `dataclasses.replace`, or by unpickling.
        verdicts = (verdict(name, DetailedLabel.PhishingSite), verdict("ESET"), verdict(name))
        refused = partial(pytest.raises, ValueError, match=f"^scanner {name!r} has more than one verdict in report 'dup-1'$")
        with refused():
            report("http://a.test/", 0, "dup-1", list(verdicts))
        ok = report("http://a.test/", 0, "dup-1", list(verdicts[:2]))
        with refused():
            dataclasses.replace(ok, verdicts=verdicts)
        forged = object.__new__(ScanReport)  # the fields set without the checks
        for field in dataclasses.fields(ScanReport):
            object.__setattr__(forged, field.name, verdicts if field.name == "verdicts" else getattr(ok, field.name))
        with refused():
            pickle.loads(pickle.dumps(forged))

    def test_naive_timestamps_are_written_as_utc(self, tmp_path, monkeypatch):
        # A naive timestamp is UTC wherever the report reads it, whatever the
        # local time zone of the writing process.
        r = ScanReport("http://a.test/", datetime(2021, 3, 1, 22), datetime(2021, 3, 1, 12), "n-1", 0, ())
        monkeypatch.setenv("TZ", "EST+5")
        time.tzset()
        try:
            line = report_to_json(r)
            write_feed([r], tmp_path / "feed.jsonl")
        finally:
            monkeypatch.undo()
            time.tzset()
        assert '"scan_date":"2021-03-01T22:00:00Z","first_seen":"2021-03-01T12:00:00Z"' in line
        assert (tmp_path / "feed.jsonl").read_text(encoding="utf-8") == line + "\n"
        again, _ = parse_feed(iter([line]))
        assert again[0].scan_day == r.scan_day


# Texts that look like the writer's member boundary or scans field, escapes,
# and non-ASCII text, to be put into names, results and header values.
_TRICKY = ['},"', ',"scans":{', '"', "\\", "}", ",", ":", "{", "é", " ", "\U0001f600"]
_TEXT = st.lists(st.one_of(st.sampled_from(_TRICKY), st.text(max_size=3)), max_size=3).map("".join)
_MEMBER_NAMES = st.one_of(st.sampled_from(["Fortinet", "Sophos", "ESET", "scans", "MysteryAV"]), _TEXT)
_VALID_ENTRIES = st.builds(
    lambda detected, result: {"detected": detected, "result": result},
    st.booleans(),
    st.one_of(st.sampled_from(["phishing site", "Malware Site", "clean site", ""]), _TEXT),  # "clean site" detected: a catch-all
)
_ENTRIES = st.one_of(
    _VALID_ENTRIES,
    _VALID_ENTRIES,
    st.builds(lambda detected: {"detected": detected}, st.booleans()),
    st.sampled_from([
        5, "x", [], None, {}, {"detected": "true"}, {"detected": {}},
        {"result": "phishing site", "detected": True},
        {"Sophos": {"detected": True, "result": "phishing site"}},  # a member's shape, one level down
    ]),
)
_FORMS = ["writer"] * 3 + ["unicode", "default", "scans-first", "extra", "scans-only"]
_HEADER_FAULTS = st.sampled_from([None] * 4 + ["url", "first_seen", "scan_id", "positives", "missing"])


def _record_text(header: dict, members: list, form: str, extra) -> str:
    """One feed line for `header` and the scans `members`, a list of (name,
    entry) that may name a scanner twice, written in `form`: "writer" as
    `write_feed` writes, "unicode" the same without escaping non-ASCII text,
    "default" with `json.dumps`'s default separators, "scans-first" with
    `"scans"` first, "extra" with a field after `"scans"`, and "scans-only"
    with no other field."""
    sep = (", ", ": ") if form == "default" else (",", ":")
    dump = partial(json.dumps, ensure_ascii=form != "unicode", separators=sep)
    scans = '"scans"' + sep[1] + "{" + sep[0].join(dump({name: entry})[1:-1] for name, entry in members) + "}"
    head = dump(header)[1:-1]
    if form == "scans-first":
        return "{" + scans + sep[0] + head + "}"
    if form == "extra":
        return "{" + head + sep[0] + scans + sep[0] + '"extra"' + sep[1] + dump(extra) + "}"
    if form == "scans-only":
        return "{" + scans + "}"
    return "{" + head + sep[0] + scans + "}"


@st.composite
def _mixed_feeds(draw):
    """Feed lines: `report_to_json` lines of reports built by hand, and
    records in the writer's form and in edited forms, some with a faulty
    header or truncated, whose scans members are drawn from one small pool so
    that member texts repeat across lines, and whose scans bodies are drawn
    from a few so that bodies repeat too. Some feeds hold a run of six
    distinct long bodies with good headers, each a fifth of the parser's body
    cache or longer than all of it, and then the same six in reverse, so that
    bodies are pushed out of the cache and some come back after."""
    pool = draw(st.lists(st.tuples(_MEMBER_NAMES, _ENTRIES), min_size=1, max_size=6))
    lines = [report_to_json(r) for r in draw(_hand_built_reports())]

    def record(i, members, form, faults=True):
        header = {
            "url": draw(st.sampled_from(["http://a.test/", "HTTP://B.Test/x"])),
            "scan_date": "2021-03-02T00:00:00Z",
            "first_seen": "2021-03-01T00:00:00Z",
            "scan_id": f"s{i}",
            "positives": draw(st.integers(min_value=0, max_value=3)),
        }
        fault = draw(_HEADER_FAULTS) if faults else None
        if fault == "missing":
            del header[draw(st.sampled_from(sorted(header)))]
        elif fault is not None:
            header[fault] = draw(st.sampled_from(["", -1, None, "2021-03-03T00:00:00Z"]) | _TEXT)
        extra = draw(st.sampled_from([1, {"scans": {}}, {"a": {"b": {}}}, '},"']))
        line = _record_text(header, members, form, extra)
        if faults and draw(st.integers(min_value=0, max_value=9)) == 0:
            line = line[:draw(st.integers(min_value=0, max_value=len(line)))]
        return line

    bodies = draw(st.lists(st.lists(st.sampled_from(pool), max_size=5), min_size=1, max_size=6))
    n = draw(st.integers(min_value=1, max_value=8))
    for i in range(n):
        line = record(i, draw(st.sampled_from(bodies)), draw(st.sampled_from(_FORMS)))
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    if draw(st.booleans()):
        width = draw(st.sampled_from([feed._BODY_CACHE_CHARS // 5, feed._BODY_CACHE_CHARS + 1]))
        run = [[("MysteryAV", {"detected": True, "result": str(j).ljust(width, "x")}),
                *draw(st.lists(st.sampled_from(pool), max_size=1))] for j in range(6)]
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines[at:at] = [record(n + j, members, "writer", faults=False) for j, members in enumerate(run + run[::-1])]
    return [line.strip() for line in lines if line.strip()]


def _line(scans: str, positives: int, scan_id: str = "d") -> str:
    head = '"url":"http://a.test/","scan_date":"2021-03-01T00:00:00Z","first_seen":"2021-03-01T00:00:00Z"'
    return f'{{{head},"scan_id":"{scan_id}","positives":{positives},"scans":{{{scans}}}}}'


_PHISH = '"Fortinet":{"detected":true,"result":"phishing site"}'
_CLEAN = '"Fortinet":{"detected":false,"result":"clean site"}'
_ESET = '"ESET":{"detected":false,"result":"clean site"}'
_UNKNOWN = '"MysteryAV":{"detected":false,"result":"clean site"}'
_CATCH_ALL = '"Sophos":{"detected":true,"result":"clean site"}'


class TestWriterForm:
    """A line in the writer's form is decoded in parts; the reports and
    warnings are those of the whole-line parse."""

    @settings(max_examples=300, deadline=None)
    @given(lines=_mixed_feeds())
    def test_same_as_whole_line_parse(self, lines):
        assert parse_feed(iter(lines)) == _reference_parse(lines)

    def test_scanner_listed_twice(self):
        # JSON keeps a name's last value in its first place, and positives
        # counts that one verdict: whether the line's member texts are all
        # known (line 3), some are new (line 4), or a name is written two ways
        # (line 5).
        lines = [
            _line(f"{_PHISH},{_ESET}", 1, "d1"),
            _line(_CLEAN, 0, "d2"),
            _line(f"{_PHISH},{_ESET},{_CLEAN}", 1, "d3"),
            _line('"Sophos":{"detected":true,"result":"malware site"},'
                  f'{_ESET},"Sophos":{{"detected":true,"result":"phishing site"}}', 2, "d4"),
            _line(f'{_CLEAN},"Fort\\u0069net":{{"detected":true,"result":"phishing site"}}', 0, "d5"),
        ]
        reports, warnings = parse_feed(iter(lines))
        assert (reports, warnings) == _reference_parse(lines)
        phish = ScannerVerdict("Fortinet", True, DetailedLabel.PhishingSite)
        clean = ScannerVerdict("Fortinet", False, DetailedLabel.Benign)
        eset = ScannerVerdict("ESET", False, DetailedLabel.Benign)
        assert [(r.verdicts, r.positives) for r in reports[2:]] == [
            ((clean, eset), 0),
            ((ScannerVerdict("Sophos", True, DetailedLabel.PhishingSite), eset), 1),
            ((phish,), 1),
        ]
        assert [str(w) for w in warnings] == [
            "line 3: positives field says 1 but 0 verdicts detect; recomputed",
            "line 4: positives field says 2 but 1 verdicts detect; recomputed",
            "line 5: positives field says 0 but 1 verdicts detect; recomputed",
        ]

    def test_catch_all_warned_on_every_line(self):
        catch_all = '"Sophos":{"detected":true,"result":"clean site"}'
        lines = [_line(f"{_ESET},{catch_all}", 1, f"c{i}") for i in range(3)]
        reports, warnings = parse_feed(iter(lines))
        assert (reports, warnings) == _reference_parse(lines)
        assert [str(w) for w in warnings] == [
            f"line {i}: Sophos: detected with benign result, kept as catch-all" for i in (1, 2, 3)
        ]

    @pytest.mark.parametrize("line", [
        '{,"scans":{"ESET":{"detected":false}}}',  # no header field: not JSON
        '{"scans":{},"url":"http://a.test/"}',  # "scans" first: not the writer's form
        _line(f"{_ESET} ,{_PHISH}", 0),  # a space after a member
        _line(f'{_ESET},"Sophos":5', 0),  # a member that is not an object
        _line(f'{_PHISH},"Sophos":{{"detected":true,"result":"x}},"}}', 2),  # `},"` that closes a string
        _line(f"{_ESET},{_PHISH}", 1)[:-1],  # truncated
        _line(f'{_ESET},"Sophos":{{"detected":true]', 1),  # a last member that does not end in "}"
        _line("{" + _ESET[1:], 0),  # scans that do not open with a quote
        _line(f'{_ESET},"scans":{{{_PHISH}}}', 1),  # a later scanner named "scans", holding a member
        _line(_ESET, 1)[:-1] + f',"scans":{{{_PHISH}}}}}',  # "scans" twice: JSON keeps the last
        '{"url":"http://a.test/"} ,"scans":{' + _ESET + "}}",  # a header object closed early
    ])
    def test_edge_lines(self, line):
        lines = [_line(f"{_ESET},{_PHISH}", 1, "first"), line]
        assert parse_feed(iter(lines)) == _reference_parse(lines)

    def test_decodes_each_distinct_member_once(self, tmp_path, monkeypatch):
        # A line in the writer's form costs one decode of its header fields,
        # and each distinct member text one decode per parse: no decode sees
        # a line's scans, which a silent fall-back to the whole-line parse
        # would.
        reports, _ = parse_feed(iter(_wide_lines(150, 10, 0.0, seed=5)))
        write_feed(reports, tmp_path / "feed.jsonl")
        lines = (tmp_path / "feed.jsonl").read_text(encoding="utf-8").splitlines()
        decoded = []
        loads, raw_decode = json.loads, feed._raw_decode
        monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or loads(text, **kw))
        monkeypatch.setattr(feed, "_raw_decode", lambda text: decoded.append(text) or raw_decode(text))
        again, warnings = parse_feed(iter(lines))
        monkeypatch.undo()
        assert again == reports and warnings == []
        n_members = len(ReportTable.of(reports).verdicts)
        assert len(decoded) <= len(lines) + n_members
        assert not [text for text in decoded if '"scans"' in text]
        assert sorted(text for text in decoded if text.startswith('{"url"')) == sorted(
            line[:line.rindex(',"scans":{')] + "}" for line in lines)

    @pytest.mark.parametrize("lines, expected", [
        pytest.param(
            [_line(f"{_ESET},{_CATCH_ALL}", 1, "c1"), _line(_ESET, 0, "c2"),
             _line(f"{_ESET},{_CATCH_ALL}", 1, "c3"), _line(f"{_ESET},{_CATCH_ALL}", 1, "c4")],
            [f"line {i}: Sophos: detected with benign result, kept as catch-all" for i in (1, 3, 4)],
            id="catch-all"),
        pytest.param(
            [_line(f"{_ESET},{_UNKNOWN}", 0, f"u{i}") for i in range(3)],
            ["line 1: unknown scanner name 'MysteryAV'"],
            id="unknown-scanner"),
        pytest.param(
            [_line(f"{_PHISH},{_ESET},{_CLEAN}", 1, "t1"), _line(f"{_PHISH},{_ESET}", 1, "t2"),
             _line(f"{_PHISH},{_ESET},{_CLEAN}", 1, "t3"), _line(f"{_PHISH},{_ESET}", 1, "t4"),
             _line(f"{_CLEAN},{_ESET}", 0, "t5")],
            [f"line {i}: positives field says 1 but 0 verdicts detect; recomputed" for i in (1, 3)],
            id="after-a-scanner-named-twice"),
        pytest.param(
            [_line(_ESET, 0, "b1").replace("2021-03-01T00:00:00Z", "2021-02-30T00:00:00Z", 1)] * 2
            + [_line(_ESET, 0, "b2")]
            + [_line(_ESET, 0, "b3").replace("2021-03-01T00:00:00Z", "2021-02-30T00:00:00Z", 1)],
            [f"line {i}: bad scan_date timestamp: '2021-02-30T00:00:00Z'; line skipped" for i in (1, 2, 4)],
            id="bad-timestamp"),
    ])
    def test_repeated_values(self, lines, expected):
        reports, warnings = parse_feed(iter(lines))
        assert (reports, warnings) == _reference_parse(lines)
        assert [str(w) for w in warnings] == expected

    @pytest.mark.parametrize("field, message", [
        ("scan_date", "bad scan_date timestamp: {!r}"),
        ("first_seen", "bad first_seen timestamp: {!r}"),
        ("url", "url must be a non-empty string"),
    ])
    @pytest.mark.parametrize("value", [["2021-03-01T00:00:00Z"], {"2021-03-01T00:00:00Z": "http://a.test/"}])
    def test_field_that_is_not_a_string(self, field, message, value):
        # Repeated, split and decoded whole: the same error on every line,
        # never a `TypeError` from a lookup.
        good = {"url": "http://a.test/", "scan_date": "2021-03-01T00:00:00Z",
                "first_seen": "2021-03-01T00:00:00Z", "scan_id": "g", "positives": 0}
        eset = [("ESET", {"detected": False, "result": "clean site"})]
        lines = [_record_text(good, eset, "writer", None)] + [
            _record_text(dict(good, scan_id=f"b{i}", **{field: value}), eset, form, None)
            for i, form in enumerate(["writer", "default", "writer", "default"])]
        reports, warnings = parse_feed(iter(lines))
        assert (reports, warnings) == _reference_parse(lines)
        assert [str(w) for w in warnings] == [f"line {i}: {message.format(value)}; line skipped" for i in (2, 3, 4, 5)]
