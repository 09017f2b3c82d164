"""Feature extraction: cluster votes, lexical, hosting, WHOIS."""

from __future__ import annotations

import random
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanalytics.classify.factors import ScannerClusterModel
from scanalytics.classify.features import (
    ALL_GROUPS,
    FeatureExtractionError,
    FeatureTable,
    HostingCache,
    HostingRecord,
    WhoisCache,
    WhoisRecord,
    extract_features,
    feature_manifest,
    feature_matrix,
    lexical_features,
    vt_cluster_features,
)
from scanalytics.feed import (
    DetailedLabel,
    FeedFormatError,
    ReportTable,
    ScanReport,
    normalize_url,
    parse_feed,
    report_to_json,
)

import feature_oracle as oracle
from conftest import report, ts, verdict

P = DetailedLabel.PhishingSite
M = DetailedLabel.MaliciousSite
W = DetailedLabel.MalwareSite


def model_with(assignment: dict[str, int], k: int = 15) -> ScannerClusterModel:
    names = tuple(sorted(assignment))
    return ScannerClusterModel(
        scanners=names,
        loadings=np.ones((len(names), 5)),
        assignment=dict(assignment),
        k=k,
        n_reports=0,
        seed=0,
    )


class TestVtClusterFeatures:
    def test_single_cluster_all_phishing(self):
        model = model_with({f"s{i}": 0 for i in range(4)})
        r = report("http://u.test/", 0, "r", [verdict(f"s{i}", P) for i in range(4)])
        assert vt_cluster_features(r, model) == (1.0, 0.0)

    def test_set_arithmetic(self):
        model = model_with({"a": 1, "b": 2, "c": 3})
        r = report(
            "http://u.test/", 0, "r",
            [verdict("a", P), verdict("b", P), verdict("c", W)],
        )
        phishing_prop, malware_prop = vt_cluster_features(r, model)
        assert phishing_prop == pytest.approx(2 / 3)
        assert malware_prop == pytest.approx(1 / 3)

    def test_generic_labels_count_toward_denominator_only(self):
        model = model_with({"a": 0, "b": 1, "c": 2})
        r = report(
            "http://u.test/", 0, "r",
            [verdict("a", P), verdict("b", M), verdict("c", M)],
        )
        phishing_prop, malware_prop = vt_cluster_features(r, model)
        assert phishing_prop == pytest.approx(1 / 3)
        assert malware_prop == 0.0

    def test_copier_cluster_discounted(self):
        # Six correlated malware voters share one cluster; two independent
        # phishing voters have their own. Raw counts favor malware 6:2, the
        # adjusted proportions favor phishing 2/3 : 1/3.
        assignment = {f"copy{i}": 0 for i in range(6)}
        assignment.update({"p1": 1, "p2": 2})
        model = model_with(assignment)
        vs = [verdict(f"copy{i}", W) for i in range(6)] + [verdict("p1", P), verdict("p2", P)]
        r = report("http://u.test/", 0, "r", vs)
        phishing_prop, malware_prop = vt_cluster_features(r, model)
        assert phishing_prop == pytest.approx(2 / 3)
        assert malware_prop == pytest.approx(1 / 3)
        raw_phishing = sum(1 for v in vs if v.result is P) / len(vs)
        raw_malware = sum(1 for v in vs if v.result is W) / len(vs)
        assert raw_malware > raw_phishing  # the bias the adjustment removes

    def test_duplication_invariance_randomized(self):
        rng = random.Random(4242)
        labels = [P, W, M, DetailedLabel.SuspiciousSite]
        for trial in range(300):
            n = rng.randint(2, 12)
            assignment = {f"s{i}": rng.randint(0, 3) for i in range(n)}
            model = model_with(assignment)
            vs = []
            for i in range(n):
                if rng.random() < 0.7:
                    vs.append(verdict(f"s{i}", rng.choice(labels)))
                else:
                    vs.append(verdict(f"s{i}", None))
            if not any(v.detected for v in vs):
                vs[0] = verdict("s0", P)
            r = report("http://u.test/", 0, f"t{trial}", vs)
            base = vt_cluster_features(r, model)

            detecting = [v for v in vs if v.detected]
            chosen = rng.choice(detecting)
            clone_name = f"clone-{trial}"
            assignment2 = dict(assignment)
            assignment2[clone_name] = assignment[chosen.scanner_name]
            model2 = model_with(assignment2)
            vs2 = vs + [verdict(clone_name, chosen.result)]
            r2 = report("http://u.test/", 0, f"t{trial}b", vs2)
            assert vt_cluster_features(r2, model2) == base

            # Raw label counts always change under duplication; raw
            # proportions change except when every detecting vote already
            # carries the cloned label.
            def raw_counts(vv):
                det = [v for v in vv if v.detected]
                return (
                    sum(1 for v in det if v.result is P),
                    sum(1 for v in det if v.result is W),
                    len(det),
                )

            p1, w1, n1 = raw_counts(vs)
            p2, w2, n2 = raw_counts(vs2)
            assert (p2, w2, n2) != (p1, w1, n1)
            if chosen.result in (P, W):
                cloned_count = p1 if chosen.result is P else w1
                if cloned_count < n1:
                    assert (p2 / n2, w2 / n2) != (p1 / n1, w1 / n1)

    def test_no_detection_errors(self):
        model = model_with({"a": 0})
        r = report("http://u.test/", 0, "r", [verdict("a", None)])
        with pytest.raises(ValueError, match="no detecting"):
            vt_cluster_features(r, model)

    def test_unknown_scanner_goes_to_overflow(self):
        model = model_with({"a": 0}, k=15)
        r = report("http://u.test/", 0, "r", [verdict("a", P), verdict("stranger", W)])
        phishing_prop, malware_prop = vt_cluster_features(r, model)
        # stranger lands in overflow cluster 15: two clusters total.
        assert phishing_prop == 0.5
        assert malware_prop == 0.5


class TestLexicalFeatures:
    def test_suspicious_and_brand_tokens(self):
        vec = dict(zip(feature_manifest(("lexical",)), lexical_features("http://paypal-login.example.com/verify")))
        assert vec["lexical.suspicious_token_count"] >= 2
        assert vec["lexical.brand_token_present"] == 1.0

    def test_ip_host_flag(self):
        vec = dict(zip(feature_manifest(("lexical",)), lexical_features("http://192.168.10.5/x")))
        assert vec["lexical.host_is_ip"] == 1.0

    def test_counts(self):
        vec = dict(zip(feature_manifest(("lexical",)), lexical_features("http://a-b.c.test/p1/p2?q=1%20x")))
        assert vec["lexical.dot_count"] == 2.0
        assert vec["lexical.hyphen_count"] == 1.0
        assert vec["lexical.path_depth"] == 2.0
        assert vec["lexical.query_length"] == len("q=1%20x")
        assert vec["lexical.percent_count"] == 1.0

    def test_hostless_url_rejected(self):
        with pytest.raises(FeatureExtractionError):
            lexical_features("http:///nopath")


class TestEnrichment:
    def test_hosting_cache_roundtrip(self, tmp_path):
        path = tmp_path / "hosting.csv"
        path.write_text(
            "url,ip_count,asn_count,asn,country\n"
            "http://a.test/x,3,2,AS123,us\n"
        )
        cache = HostingCache.from_csv(path)
        assert cache.lookup("HTTP://A.test/x") == HostingRecord(3, 2, "AS123", "us")
        assert cache.lookup("http://missing.test/") is None
        # Keys given to the constructor are normalized as the CSV's are.
        record = HostingRecord(3, 2, "AS123", "us")
        cache = HostingCache({"HTTP://A.test/x": record, "http://a.test/x": record})
        assert len(cache) == 1 and cache.lookup("HTTP://A.test/x") == record
        with pytest.raises(ValueError, match="conflicting records for url 'http://a.test/x'"):
            HostingCache({"HTTP://A.test/x": record, "http://a.test/x": HostingRecord(4, 2, "AS123", "us")})

    def test_whois_cache_parent_domain_fallback(self, tmp_path):
        path = tmp_path / "whois.csv"
        path.write_text(
            "domain,created,expires,registrar\n"
            "example.test,2020-01-01T00:00:00Z,2030-01-01T00:00:00Z,RegOne\n"
        )
        cache = WhoisCache.from_csv(path)
        assert cache.lookup("deep.sub.example.test") is not None
        assert cache.lookup("other.test") is None

    @pytest.mark.parametrize(
        "cls,text,message",
        [
            (HostingCache, "url,ip_count,asn_count,asn\nhttp://a.test/,3,2,AS1\n", "row 2: missing country"),
            (HostingCache, "url,ip_count,asn_count,asn,country\nhttp://a.test/,three,2,AS1,us\n", "row 2: invalid literal"),
            (HostingCache, "url,ip_count,asn_count,asn,country\nhttp://a.test/,3,2\n", "row 2: missing asn, country"),
            (HostingCache, "url,ip_count,asn_count,asn\nhttp://a.test/,3\n", "row 2: missing asn_count, asn, country"),
            (WhoisCache, "domain,created,registrar\nexample.test,2020-01-01,RegOne\n", "row 2: missing expires"),
            (WhoisCache, "domain,created,expires,registrar\nexample.test,2020-01-01,soon,RegOne\n", "row 2: Invalid isoformat"),
            (WhoisCache, "domain,created,expires,registrar\nexample.test,2020-01-01\n", "row 2: missing expires, registrar"),
            (WhoisCache, "domain,created,expires,registrar\nexample.test,0001-01-01T00:00:00+01:00,2030-01-01,RegOne\n", "row 2: date value out of range"),
            # The first failing row decides, whatever the failure.
            (HostingCache, "url,ip_count,asn_count,asn,country\nhttp://a.test/,3,2,AS1,us\nhttp://b.test/,x,2,AS1,us\nhttp://a.test/,4,2,AS1,us\n", "row 3: invalid literal"),
            (HostingCache, "url,ip_count,asn_count,asn,country\nhttp://a.test/,3,2,AS1,us\nHTTP://A.test/,4,2,AS1,us\nhttp://b.test/,x\n", "rows 2 and 3: conflicting records for url 'http://a.test/'"),
            (HostingCache, "", "row 1: missing url, ip_count, asn_count, asn, country"),
            (HostingCache, "foo,bar\n", "row 1: missing url, ip_count, asn_count, asn, country"),
            (WhoisCache, "", "row 1: missing domain, created, expires, registrar"),
            (WhoisCache, "foo,bar\n", "row 1: missing domain, created, expires, registrar"),
        ],
    )
    def test_bad_cache_csv_is_format_error(self, tmp_path, cls, text, message):
        path = tmp_path / "cache.csv"
        path.write_text(text)
        with pytest.raises(FeedFormatError, match=f"cache.csv: {message}"):
            cls.from_csv(path)

    def test_equal_duplicate_cache_rows_count_once(self, tmp_path):
        hosting = tmp_path / "hosting.csv"
        hosting.write_text("url,ip_count,asn_count,asn,country\nhttp://a.test/x,3,2,AS1,us\nHTTP://A.test/x,3,2,AS1,us\n")
        assert len(HostingCache.from_csv(hosting)) == 1
        whois = tmp_path / "whois.csv"
        whois.write_text(
            "domain,created,expires,registrar\n"
            "example.test,2020-01-01T00:00:00Z,2030-01-01,RegOne\nEXAMPLE.test,2020-01-01,2030-01-01T00:00:00Z,RegOne\n"
        )
        assert len(WhoisCache.from_csv(whois)) == 1

    def test_whois_age_400_days(self):
        scan = ts(0)
        record = WhoisRecord(
            created=scan - timedelta(days=400),
            expires=scan + timedelta(days=100),
            registrar="RegOne",
        )
        cache = WhoisCache({"u.test": record})
        model = model_with({"a": 0})
        r = report("http://u.test/", 0, "r", [verdict("a", P)])
        vec = extract_features(r, model, whois=cache)
        names = dict(zip(feature_manifest(("whois",)), vec.whois))
        assert names["whois.whois_missing"] == 0.0
        assert names["whois.domain_age_days"] == pytest.approx(400.0)
        assert not vec.whois_missing

    def test_missing_groups_flagged_not_zeroed_silently(self):
        model = model_with({"a": 0})
        r = report("http://u.test/", 0, "r", [verdict("a", P)])
        vec = extract_features(r, model)
        assert vec.hosting_missing
        assert vec.whois_missing
        assert vec.hosting[0] == 1.0
        assert vec.whois[0] == 1.0


class TestFeatureMatrix:
    def test_manifest_and_matrix_align(self):
        model = model_with({"a": 0})
        r = report("http://u.test/", 0, "r", [verdict("a", P)])
        vec = extract_features(r, model)
        for groups in (("vt_cluster",), ("vt_cluster", "lexical"), ALL_GROUPS):
            X = feature_matrix([vec], groups)
            assert X.shape == (1, len(feature_manifest(groups)))

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown feature group"):
            feature_manifest(("nope",))


# --------------------------------------------------------------------------
# The column build against the per-report oracle (tests/feature_oracle.py).
# --------------------------------------------------------------------------

_ORACLE_MODEL = model_with({"a": 0, "b": 0, "c": 1, "d": 2}, k=3)  # "stranger" gets the overflow id 3
_SCANNERS = ("a", "b", "c", "d", "stranger")
_LABELS = (None, P, W, M, DetailedLabel.SuspiciousSite, DetailedLabel.OtherMalicious)

_hosts = st.one_of(
    st.sampled_from(["192.168.10.5", "10.0.0.1", "1.2.3.\u0663", "999.1.1.1", "127.0.0.1.test"]),
    st.lists(
        st.sampled_from([
            "paypal", "Login", "SECURE", "dom01", "a-b", "x\u00b2", "\u0663\u0663", "www", "ebay", "a",
            "b\u00fccher", "\u043f\u0440\u0438\u043c\u0435\u0440", "\u4f8b\u3048", "LOG\u0130N", "\u03a3\u03b9\u03a3",
        ]),
        min_size=1, max_size=3,
    ).map(".".join),
)


@st.composite
def _urls(draw, host=_hosts):
    path = draw(st.text(alphabet="ab/-.%@9\u0663\u00b2VERIFYloginsign", max_size=12))
    query = draw(st.sampled_from(["", "?q=1", "?account=update&x=%20", "?"]))
    return (
        draw(st.sampled_from(["http://", "HTTPS://", "hxxp://", ""]))
        + draw(st.sampled_from(["", "user@", "a:b@", "x@y@"]))
        + draw(host)
        + draw(st.sampled_from(["", ":8080", ":"]))
        + ("/" + path if path or query else "")
        + query
    )


_SCAN_BASE = datetime(2021, 3, 1, tzinfo=timezone.utc)


@st.composite
def _corpora(draw):
    """Reports that share URLs, with caches that hold some of their URLs
    and hosts: (reports, hosting cache, whois cache)."""
    pool = draw(st.lists(_urls(), min_size=1, max_size=24))
    reports = []
    for i in range(draw(st.integers(1, 30))):
        # A report has at most one verdict per scanner, the detecting one added below included.
        names = draw(st.lists(st.sampled_from(_SCANNERS), unique=True, max_size=len(_SCANNERS) - 1))
        verdicts = [verdict(name, draw(st.sampled_from(_LABELS))) for name in names]
        if draw(st.integers(0, 29)):  # now and then a report without a detection
            unused = [name for name in _SCANNERS if name not in names]
            verdicts.append(verdict(draw(st.sampled_from(unused)), draw(st.sampled_from(_LABELS[1:]))))
        offset = timezone(timedelta(hours=draw(st.integers(-12, 14))))
        scan = (_SCAN_BASE + timedelta(days=draw(st.integers(0, 60)), microseconds=draw(st.integers(0, 10**11)))).astimezone(offset)
        reports.append(ScanReport(draw(st.sampled_from(pool)), scan, _SCAN_BASE, f"r{i}", sum(v.detected for v in verdicts), tuple(verdicts)))
    hosting = HostingCache({
        normalize_url(url): HostingRecord(draw(st.integers(0, 9)), draw(st.integers(0, 3)), f"AS{draw(st.integers(0, 99))}", draw(st.sampled_from(["us", "de", "ru"])))
        for url in pool if draw(st.booleans())
    })
    dates = st.one_of(
        st.just(datetime(1, 1, 1, tzinfo=timezone.utc)),  # day counts past 2**53 microseconds
        st.integers(-100 * 86400, 150 * 86400).map(lambda s: _SCAN_BASE + timedelta(seconds=s, microseconds=7)),
    )
    whois = {}
    for url in pool:
        try:
            host = oracle._split_url(url)[0]
        except FeatureExtractionError:
            continue
        domain = draw(st.sampled_from([None, host, host.partition(".")[2]]))
        if domain:  # the host itself, a parent domain, or missing
            whois[domain] = WhoisRecord(draw(dates), draw(dates), draw(st.sampled_from(["RegOne", "RegTwo"])))
    return reports, hosting, WhoisCache(whois)


def _assert_build_equals_oracle(reports, hosting, whois):
    try:
        rows = [oracle.features(r, _ORACLE_MODEL, hosting, whois) for r in reports]
    except ValueError as exc:  # FeatureExtractionError included: the first failing report's error
        with pytest.raises(ValueError) as raised:
            FeatureTable.build(ReportTable.of(reports), _ORACLE_MODEL, hosting, whois)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    table = FeatureTable.build(ReportTable.of(reports), _ORACLE_MODEL, hosting, whois)
    assert list(table.urls) == [url for url, _ in rows]
    assert feature_matrix(table).tobytes() == oracle.matrix(rows).tobytes()
    for groups in (("vt_cluster",), ("whois", "lexical"), ("hosting",)):
        assert feature_matrix(list(table), groups).tobytes() == oracle.matrix(rows, groups).tobytes()
    singles = [extract_features(r, _ORACLE_MODEL, hosting=hosting, whois=whois) for r in reports]
    assert feature_matrix(singles).tobytes() == oracle.matrix(rows).tobytes()
    for vector, (url, groups) in zip(singles, rows):
        assert (vector.url, vector.lexical, vector.hosting, vector.whois, vector.vt_cluster) == (url, *(groups[g] for g in ("lexical", "hosting", "whois", "vt_cluster")))


class TestColumnBuildMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(_corpora())
    def test_hand_built_reports(self, corpus):
        _assert_build_equals_oracle(*corpus)

    @settings(max_examples=60, deadline=None)
    @given(_corpora())
    def test_parsed_reports(self, corpus):
        reports, hosting, whois = corpus
        views, _ = parse_feed(report_to_json(r) for r in reports)  # rows of one table, codes shared
        _assert_build_equals_oracle(views, hosting, whois)

    @settings(max_examples=60, deadline=None)
    @given(_corpora(), _urls(host=_hosts.filter(bool)))
    def test_url_override(self, corpus, url):
        reports, hosting, whois = corpus
        for r in reports:
            try:
                expected = oracle.features(r, _ORACLE_MODEL, hosting, whois, url=url)
            except ValueError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    extract_features(r, _ORACLE_MODEL, hosting=hosting, whois=whois, url=url)
                continue
            vector = extract_features(r, _ORACLE_MODEL, hosting=hosting, whois=whois, url=url)
            assert feature_matrix([vector]).tobytes() == oracle.matrix([expected]).tobytes()
            assert vector.url == normalize_url(url)

    def test_first_failing_row_decides_the_error(self):
        hostless = report("http:///nopath", 0, "h", [verdict("a", P)])
        silent = report("http://u.test/", 0, "s", [verdict("a", None)])
        fine = report("http://u.test/", 0, "f", [verdict("a", P)])
        for reports, error, message in (
            ([fine, hostless, silent], FeatureExtractionError, "URL has no host: 'http:///nopath'"),
            ([fine, silent, hostless], ValueError, "report 's' has no detecting verdicts"),
        ):
            with pytest.raises(error, match=re.escape(message)) as raised:
                FeatureTable.build(ReportTable.of(reports), _ORACLE_MODEL)
            assert type(raised.value) is error


class TestHostingLookup:
    """`HostingCache.lookup` tries a URL as given before normalizing it. That
    finds the record of its normal form because a normal form normalizes to
    itself."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_urls(), st.text()))
    def test_normal_form_is_its_own(self, url):
        assert normalize_url(normalize_url(url)) == normalize_url(url)

    @settings(max_examples=100, deadline=None)
    @given(_urls(), _urls())
    def test_lookup_by_either_spelling(self, url, other):
        record = HostingRecord(1, 1, "AS1", "us")
        cache = HostingCache({url: record})
        assert cache.lookup(url) is record
        assert cache.lookup(normalize_url(url)) is record
        assert cache.lookup(other) is (record if normalize_url(other) == normalize_url(url) else None)
