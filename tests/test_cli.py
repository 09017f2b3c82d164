"""CLI subcommands: artifacts, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from scanalytics.cli import _build_parser, main
from scanalytics.feed import DetailedLabel, GroundTruthLabel, GroundTruthRecord, write_feed, write_ground_truth

from conftest import report, ts, verdict

SEED = 202


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def hash_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth")
    assert run_cli("synth", "--preset", "specialists", "--seed", SEED, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    scenario = out / "scenario.json"
    scenario.write_text(
        json.dumps({"kind": "classifier", "n_phishing": 250, "n_malware": 250, "seed": SEED})
    )
    assert run_cli("synth", "--scenario", scenario, "--seed", SEED, "--out", out / "data") == 0
    return out / "data"


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("feed.jsonl", "truth.csv", "planted.json", "run_manifest.json"):
            assert (synth_dir / name).exists()

    def test_manifest_hashes_match_files(self, synth_dir):
        manifest = json.loads((synth_dir / "run_manifest.json").read_text())
        for name, digest in manifest["artifacts"].items():
            actual = hashlib.sha256((synth_dir / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("synth", "--preset", "specialists", "--seed", SEED, "--out", again) == 0
        assert hash_dir(again) == hash_dir(synth_dir)

    def test_preset_and_scenario_mutually_exclusive(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path / "x") == 4

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert run_cli("synth", "--preset", "nope", "--seed", 1, "--out", tmp_path / "x") == 4

    def test_scenario_file_seed_used_without_seed_flag(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"kind": "classifier", "n_phishing": 20, "n_malware": 20, "seed": 5}))
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "file") == 0
        assert run_cli("synth", "--scenario", scenario, "--seed", 5, "--out", tmp_path / "flag") == 0
        assert run_cli("synth", "--scenario", scenario, "--seed", 6, "--out", tmp_path / "other") == 0
        for out, seed in (("file", 5), ("flag", 5), ("other", 6)):
            assert json.loads((tmp_path / out / "run_manifest.json").read_text())["seed"] == seed
            assert json.loads((tmp_path / out / "planted.json").read_text())["seed"] == seed
        assert hash_dir(tmp_path / "file") == hash_dir(tmp_path / "flag")
        assert hash_dir(tmp_path / "file")["feed.jsonl"] != hash_dir(tmp_path / "other")["feed.jsonl"]

    def test_seed_defaults_to_zero(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "decay"}))
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "file") == 0
        assert run_cli("synth", "--preset", "decay", "--out", tmp_path / "preset") == 0
        assert run_cli("synth", "--preset", "decay", "--seed", 0, "--out", tmp_path / "zero") == 0
        for out in ("file", "preset", "zero"):
            assert json.loads((tmp_path / out / "run_manifest.json").read_text())["seed"] == 0
        assert hash_dir(tmp_path / "preset") == hash_dir(tmp_path / "zero")
        assert hash_dir(tmp_path / "file")["feed.jsonl"] == hash_dir(tmp_path / "zero")["feed.jsonl"]

    @pytest.mark.parametrize("seed", ['"7"', "1.5", "true", "null"])
    def test_non_integer_file_seed_is_config_error(self, tmp_path, capsys, seed):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"preset": "decay", "seed": %s}' % seed)
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "o") == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "seed must be an integer" in lines[0]


class TestIngest:
    def test_summary_counts(self, synth_dir, tmp_path):
        out = tmp_path / "ingest"
        assert run_cli("ingest", "--feed", synth_dir / "feed.jsonl", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        planted = json.loads((synth_dir / "planted.json").read_text())
        assert summary["reports_parsed"] == planted["n_reports"]
        assert summary["reports_after_dedup"] == planted["n_reports"]
        assert summary["urls"] == len(planted["classes"])
        assert summary["fresh_urls"] == len(planted["fresh_urls"])

    def test_missing_feed_is_input_error(self, tmp_path):
        assert run_cli("ingest", "--feed", tmp_path / "nope.jsonl", "--out", tmp_path / "o") == 2

    def test_empty_feed_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("ingest", "--feed", empty, "--out", tmp_path / "o") == 2

    def test_duplicates_reported(self, synth_dir, tmp_path):
        feed = synth_dir / "feed.jsonl"
        doubled = tmp_path / "doubled.jsonl"
        text = feed.read_text()
        doubled.write_text(text + text)
        out = tmp_path / "ingest2"
        assert run_cli("ingest", "--feed", doubled, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["duplicates_dropped"] == summary["reports_after_dedup"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stale_files_left_out(self, synth_dir, tmp_path, fmt):
        out = tmp_path / "ingest"
        out.mkdir()
        (out / "stale.csv").write_text("a,b\n1,2\n")
        fresh = tmp_path / "fresh"
        for target in (out, fresh):
            assert run_cli("ingest", "--feed", synth_dir / "feed.jsonl", "--out", target, "--format", fmt) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "stale.csv" not in manifest["artifacts"] and "stale.json" not in manifest["artifacts"]
        assert (out / "stale.csv").read_text() == "a,b\n1,2\n"
        assert not (out / "stale.json").exists()
        assert (out / "run_manifest.json").read_bytes() == (fresh / "run_manifest.json").read_bytes()


class TestMetrics:
    def test_artifacts(self, synth_dir, tmp_path):
        out = tmp_path / "metrics"
        code = run_cli(
            "metrics", "--feed", synth_dir / "feed.jsonl",
            "--ground-truth", synth_dir / "truth.csv", "--out", out,
        )
        assert code == 0
        for name in ("f1_curves.csv", "certainty.csv", "label_hist.csv", "url_label_cdf.csv"):
            assert (out / name).exists()
        with open(out / "f1_curves.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {"scanner", "offset", "precision", "recall", "f1"} <= set(rows[0])

    def test_json_format(self, synth_dir, tmp_path):
        out = tmp_path / "metrics_json"
        code = run_cli(
            "metrics", "--feed", synth_dir / "feed.jsonl",
            "--ground-truth", synth_dir / "truth.csv", "--out", out, "--format", "json",
        )
        assert code == 0
        assert not list(out.glob("*.csv"))
        payload = json.loads((out / "certainty.json").read_text())
        assert isinstance(payload, list) and payload


    def test_short_ground_truth_row_is_input_error(self, synth_dir, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("url,label,source,labeled_at\nhttp://a.test/,phishing\n")
        code = run_cli(
            "metrics", "--feed", synth_dir / "feed.jsonl",
            "--ground-truth", truth, "--out", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            'ERROR code=2 kind=input msg="row 2: missing or empty source, labeled_at"'
        ]


class TestCorrelateAndLeadlag:
    def test_correlate_recovers_planted_groups(self, tmp_path):
        synth_out = tmp_path / "groups"
        assert run_cli("synth", "--preset", "three-groups", "--seed", 7, "--out", synth_out) == 0
        out = tmp_path / "corr"
        code = run_cli(
            "correlate", "--feed", synth_out / "feed.jsonl",
            "--planted", synth_out / "planted.json",
            "--window", 12, "--out", out,
        )
        assert code == 0
        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters["planted_ari"] == 1.0

    def test_leadlag_artifacts(self, tmp_path):
        # leader-copier plants a specialist that never fires, so the matrix
        # has undefined pairs and the CSV must show the xxx sentinel.
        synth_out = tmp_path / "lc"
        assert run_cli("synth", "--preset", "leader-copier", "--seed", 11, "--out", synth_out) == 0
        out = tmp_path / "ll"
        assert run_cli("leadlag", "--feed", synth_out / "feed.jsonl", "--out", out) == 0
        with open(out / "early_ratio.csv") as fh:
            rows = {(r["scanner_a"], r["scanner_b"]): r["value"] for r in csv.DictReader(fh)}
        assert rows[("Pacer", "Shadow")] == "1"
        assert rows[("MalSpec", "Pacer")] == "xxx"
        assert (out / "leader_ranking.csv").exists()

    def test_heatmap_emitted(self, synth_dir, tmp_path):
        out = tmp_path / "corrsvg"
        code = run_cli(
            "correlate", "--feed", synth_dir / "feed.jsonl", "--out", out, "--heatmaps",
        )
        assert code == 0
        assert (out / "jaccard_binary.svg").read_text().startswith("<svg")


class TestClassify:
    def test_train_predict_trend(self, corpus_dir, tmp_path):
        train_out = tmp_path / "train"
        code = run_cli(
            "classify", "train",
            "--feed", corpus_dir / "feed.jsonl",
            "--ground-truth", corpus_dir / "truth.csv",
            "--hosting-cache", corpus_dir / "hosting_cache.csv",
            "--whois-cache", corpus_dir / "whois_cache.csv",
            "--clusters", 8, "--trees", 30, "--seed", SEED, "--out", train_out,
        )
        assert code == 0
        with open(train_out / "eval.csv") as fh:
            rows = {(r["model"], r["class"]): r for r in csv.DictReader(fh)}
        forest_acc = float(rows[("forest", "phishing")]["accuracy"])
        majority_acc = float(rows[("majority_vote", "phishing")]["accuracy"])
        assert forest_acc > majority_acc

        predict_out = tmp_path / "pred"
        code = run_cli(
            "classify", "predict",
            "--feed", corpus_dir / "feed.jsonl",
            "--model", train_out / "model.json",
            "--hosting-cache", corpus_dir / "hosting_cache.csv",
            "--whois-cache", corpus_dir / "whois_cache.csv",
            "--out", predict_out,
        )
        assert code == 0
        with open(predict_out / "predictions.csv") as fh:
            predictions = list(csv.DictReader(fh))
        assert len(predictions) == 500
        assert set(p["predicted"] for p in predictions) <= {"phishing", "malware"}

        trend_out = tmp_path / "trend"
        code = run_cli(
            "classify", "trend",
            "--feed", corpus_dir / "feed.jsonl",
            "--model", train_out / "model.json",
            "--hosting-cache", corpus_dir / "hosting_cache.csv",
            "--whois-cache", corpus_dir / "whois_cache.csv",
            "--out", trend_out,
        )
        assert code == 0
        with open(trend_out / "weekly_trend.csv") as fh:
            weeks = list(csv.DictReader(fh))
        assert weeks
        for row in weeks:
            total = float(row["phishing_fraction"]) + float(row["malware_fraction"])
            assert abs(total - 1.0) < 1e-9

    def test_missing_whois_cache_still_trains(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "nowhois"
        code = run_cli(
            "classify", "train",
            "--feed", corpus_dir / "feed.jsonl",
            "--ground-truth", corpus_dir / "truth.csv",
            "--hosting-cache", corpus_dir / "hosting_cache.csv",
            "--clusters", 8, "--trees", 10, "--seed", SEED, "--out", out,
        )
        assert code == 0
        assert "warning: no whois cache" in capsys.readouterr().out
        assert (out / "model.json").exists()

    def test_bad_hosting_cache_is_input_error(self, corpus_dir, tmp_path, capsys):
        cache = tmp_path / "hosting.csv"
        cache.write_text("url,ip_count,asn_count,asn,country\nhttp://a.test/,many,1,AS1,us\n")
        code = run_cli(
            "classify", "train",
            "--feed", corpus_dir / "feed.jsonl",
            "--ground-truth", corpus_dir / "truth.csv",
            "--hosting-cache", cache,
            "--clusters", 8, "--trees", 4, "--seed", SEED, "--out", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR code=2 kind=input") and "hosting.csv: row 2" in err

    def test_bad_model_file_is_input_error(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = run_cli(
            "classify", "predict", "--feed", corpus_dir / "feed.jsonl",
            "--model", bad, "--out", tmp_path / "o",
        )
        assert code == 2

    def test_unsatisfiable_clusters_is_compute_error(self, corpus_dir, tmp_path):
        code = run_cli(
            "classify", "train",
            "--feed", corpus_dir / "feed.jsonl",
            "--ground-truth", corpus_dir / "truth.csv",
            "--clusters", 40, "--trees", 4, "--seed", SEED, "--out", tmp_path / "o",
        )
        assert code == 3


class TestDeterminism:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_full_pipeline_rerun_identical(self, tmp_path, threads):
        base = tmp_path / f"t{threads}"
        synth_out = base / "synth"
        assert run_cli("synth", "--preset", "leader-copier", "--seed", 31, "--out", synth_out) == 0

        results = []
        for attempt in ("one", "two"):
            out = base / attempt
            for args in (
                ["metrics", "--feed", synth_out / "feed.jsonl",
                 "--ground-truth", synth_out / "truth.csv",
                 "--threads", threads, "--out", out / "metrics"],
                ["correlate", "--feed", synth_out / "feed.jsonl",
                 "--threads", threads, "--out", out / "correlate"],
                ["leadlag", "--feed", synth_out / "feed.jsonl",
                 "--threads", threads, "--out", out / "leadlag"],
            ):
                assert run_cli(*args) == 0
            results.append(
                {
                    sub: hash_dir(out / sub)
                    for sub in ("metrics", "correlate", "leadlag")
                }
            )
        assert results[0] == results[1]

    def test_thread_counts_agree(self, tmp_path):
        synth_out = tmp_path / "synth"
        assert run_cli("synth", "--preset", "decay", "--seed", 13, "--out", synth_out) == 0
        hashes = []
        for threads in (1, 4):
            out = tmp_path / f"corr{threads}"
            assert run_cli(
                "correlate", "--feed", synth_out / "feed.jsonl",
                "--threads", threads, "--out", out,
            ) == 0
            hashes.append(hash_dir(out))
        assert hashes[0] == hashes[1]


class TestConfigValidation:
    def test_unknown_feature_group_is_config_error(self, corpus_dir, tmp_path):
        code = run_cli(
            "classify", "train",
            "--feed", corpus_dir / "feed.jsonl",
            "--ground-truth", corpus_dir / "truth.csv",
            "--groups", "vt_cluster", "nonsense",
            "--trees", 4, "--seed", 1, "--out", tmp_path / "o",
        )
        assert code == 4

    def test_bad_flag_is_config_error(self, tmp_path):
        assert run_cli("ingest", "--no-such-flag") == 4

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["leadlag", "--feed", "feed.jsonl"],
            ["correlate", "--feed", "feed.jsonl"],
            ["classify", "ablate", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"],
            ["synth", "--preset", "decay"],
        ],
    )
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, command, threads):
        assert run_cli(*command, "--threads", threads, "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        assert err.startswith("ERROR code=4 kind=config") and "--threads" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["metrics", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--window", "0"),
            (["metrics", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--max-offset", "-1"),
            (["correlate", "--feed", "feed.jsonl"], "--window", "0"),
            (["correlate", "--feed", "feed.jsonl"], "--max-offset", "-2"),
            (["correlate", "--feed", "feed.jsonl"], "--k", "0"),
            (["leadlag", "--feed", "feed.jsonl"], "--window", "-1"),
            (["classify", "train", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--trees", "0"),
            (["classify", "train", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--trees", "-2"),
            (["classify", "train", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--clusters", "1"),
            (["classify", "train", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--split", "1.5"),
            (["classify", "train", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--split", "0"),
            (["classify", "ablate", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--trees", "0"),
            (["classify", "ablate", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--clusters", "1"),
            (["classify", "ablate", "--feed", "feed.jsonl", "--ground-truth", "truth.csv"], "--split", "nan"),
        ],
    )
    def test_numeric_flag_outside_its_domain_is_config_error(self, tmp_path, capsys, command, flag, value):
        assert run_cli(*command, flag, value, "--out", tmp_path / "o") == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=4 kind=config") and flag in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_cut_height_outside_its_domain_is_config_error(self, tmp_path, capsys, value):
        # NaN and negative heights would merge nothing: every scanner its own cluster.
        assert run_cli("correlate", "--feed", "feed.jsonl", "--cut-height", value, "--out", tmp_path / "o") == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=4 kind=config") and "--cut-height" in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            (["correlate", "--feed", "feed.jsonl", "--k", "3", "--cut-height", "1"], ("--k", "--cut-height")),
            (["synth", "--preset", "decay", "--scenario", "scenario.json"], ("--preset", "--scenario")),
        ],
        ids=["k-and-cut-height", "preset-and-scenario"],
    )
    def test_exclusive_flags_together_are_config_error(self, tmp_path, capsys, command, flags):
        # Refused before any input is read: the feed named here does not exist.
        assert run_cli(*command, "--out", tmp_path / "o") == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=4 kind=config")
        assert all(flag in lines[0] for flag in flags)
        assert not (tmp_path / "o").exists()


class TestSynthJsonFormat:
    def test_inputs_stay_csv_and_metrics_reads_them(self, tmp_path):
        out = tmp_path / "synth_json"
        assert run_cli("synth", "--preset", "specialists", "--seed", 3, "--format", "json", "--out", out) == 0
        assert (out / "truth.csv").exists() and not (out / "truth.json").exists()
        code = run_cli(
            "metrics", "--feed", out / "feed.jsonl", "--ground-truth", out / "truth.csv",
            "--format", "json", "--out", tmp_path / "metrics",
        )
        assert code == 0

    def test_classifier_caches_stay_csv(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"kind": "classifier", "n_phishing": 20, "n_malware": 20, "seed": 1}))
        out = tmp_path / "corpus"
        assert run_cli("synth", "--scenario", scenario, "--format", "json", "--out", out) == 0
        for name in ("truth.csv", "hosting_cache.csv", "whois_cache.csv"):
            assert (out / name).exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert {"truth.csv", "hosting_cache.csv", "whois_cache.csv"} <= set(manifest["artifacts"])


def _counting(fn, counts, name):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


class TestSeriesStayColumnar:
    """A structural guard for the columnar series path: the subcommands read
    the table `build_series` carries and never fall back to series objects."""

    def test_no_series_objects_on_cli_path(self, synth_dir, tmp_path, monkeypatch):
        import scanalytics.cli as cli
        from scanalytics import series
        from scanalytics.feed import parse_feed_file

        # Every report carries every scanner, so all DTW alignments share day sets.
        reports, _ = parse_feed_file(synth_dir / "feed.jsonl")
        assert len({frozenset(v.scanner_name for v in r.verdicts) for r in reports}) == 1

        counts = Counter()
        for cls in (series.SeriesPoint, series.LabelTimeSeries):
            monkeypatch.setattr(cls, "__init__", _counting(cls.__init__, counts, cls.__name__))
        monkeypatch.setattr(series._SeriesTable, "__init__", _counting(series._SeriesTable.__init__, counts, "tables"))
        from_objects = series._SeriesTable.__dict__["from_objects"].__func__
        monkeypatch.setattr(series._SeriesTable, "from_objects", classmethod(_counting(from_objects, counts, "from_objects")))
        tables_per_build = []

        def build_series(cohort):
            before = counts["tables"]
            view = series.build_series(cohort)
            tables_per_build.append(counts["tables"] - before)
            return view

        monkeypatch.setattr(cli, "build_series", build_series)
        feed = synth_dir / "feed.jsonl"
        assert run_cli("metrics", "--feed", feed, "--ground-truth", synth_dir / "truth.csv",
                       "--export-series", "--out", tmp_path / "m") == 0
        assert run_cli("leadlag", "--feed", feed, "--out", tmp_path / "l") == 0
        assert run_cli("correlate", "--feed", feed, "--k", 3, "--out", tmp_path / "c") == 0
        assert tables_per_build == [1, 1, 1]
        assert counts["SeriesPoint"] == counts["LabelTimeSeries"] == counts["from_objects"] == 0

    def test_no_series_objects_on_ragged_feed(self, synth_dir, tmp_path, monkeypatch):
        from scanalytics import series

        # Every third report drops a few scanners, so a scanner misses some of
        # a URL's report days that another one observed.
        lines = (synth_dir / "feed.jsonl").read_text().splitlines()
        ragged = tmp_path / "ragged.jsonl"
        with open(ragged, "w") as fh:
            for i, line in enumerate(lines):
                report = json.loads(line)
                if i % 3 == 0:
                    scans = sorted(report["scans"].items())
                    report["scans"] = dict(scan for k, scan in enumerate(scans) if k % 7 not in (i % 7, (i + 3) % 7))
                fh.write(json.dumps(report) + "\n")

        counts = Counter()
        for cls in (series.SeriesPoint, series.LabelTimeSeries):
            monkeypatch.setattr(cls, "__init__", _counting(cls.__init__, counts, cls.__name__))
        assert run_cli("correlate", "--feed", ragged, "--k", 3, "--out", tmp_path / "c") == 0
        assert counts["SeriesPoint"] == counts["LabelTimeSeries"] == 0


class TestReportsStayColumnar:
    """A structural guard for the columnar report path: each subcommand fills
    one table as it parses and passes rows of it on, never rebuilding a
    table from report objects."""

    def test_one_table_per_parse(self, synth_dir, corpus_dir, model_path, tmp_path, monkeypatch):
        import scanalytics.cli as cli
        from scanalytics import feed

        parsed = {d: len(feed.parse_feed_file(d / "feed.jsonl")[0]) for d in (synth_dir, corpus_dir)}
        counts = Counter()
        monkeypatch.setattr(feed._TableBuilder, "add", _counting(feed._TableBuilder.add, counts, "add"))
        cohorts = []
        series_build = cli.build_series

        def build_series(cohort):
            cohorts.append(cohort.reports)
            return series_build(cohort)

        monkeypatch.setattr(cli, "build_series", build_series)
        feed_args = ("--feed", synth_dir / "feed.jsonl")
        corpus_args = ("--feed", corpus_dir / "feed.jsonl")
        runs = [
            (synth_dir, ("ingest", *feed_args)),
            (synth_dir, ("metrics", *feed_args, "--ground-truth", synth_dir / "truth.csv")),
            (synth_dir, ("correlate", *feed_args, "--k", 3)),
            (synth_dir, ("leadlag", *feed_args)),
            (corpus_dir, ("classify", "train", *corpus_args, "--ground-truth", corpus_dir / "truth.csv",
                          "--clusters", 8, "--trees", 2, "--seed", SEED)),
            (corpus_dir, ("classify", "predict", *corpus_args, "--model", model_path)),
            (corpus_dir, ("classify", "trend", *corpus_args, "--model", model_path)),
        ]
        for i, (inputs, argv) in enumerate(runs):
            counts.clear()
            assert run_cli(*argv, "--out", tmp_path / str(i)) == 0
            assert counts["add"] == parsed[inputs], argv[:2]
        assert len(cohorts) == 3
        assert all(isinstance(reports, feed.ReportTable) for reports in cohorts)


@pytest.fixture(scope="module")
def model_path(corpus_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("model")
    code = run_cli(
        "classify", "train",
        "--feed", corpus_dir / "feed.jsonl",
        "--ground-truth", corpus_dir / "truth.csv",
        "--hosting-cache", corpus_dir / "hosting_cache.csv",
        "--whois-cache", corpus_dir / "whois_cache.csv",
        "--clusters", 8, "--trees", 4, "--seed", SEED, "--out", out,
    )
    assert code == 0
    return out / "model.json"


def _one_error_line(capsys, code: int, kind: str, path: Path) -> None:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR code={code} kind={kind}")
    assert str(path) in lines[0]


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


def _first_tree(payload: dict, **fields) -> dict:
    return dict(payload, trees=[dict(payload["trees"][0], **fields)] + payload["trees"][1:])


class TestBadModelFile:
    @pytest.mark.parametrize("verb", ["predict", "trend"])
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: "not json {",
            lambda p: json.dumps([1, 2]),
            lambda p: json.dumps(_without(p, "feature_names")),
            lambda p: json.dumps(_without(p, "trees")),
            lambda p: json.dumps(dict(p, trees=[])),
            lambda p: json.dumps(dict(p, hyperparameters=[])),
            lambda p: json.dumps(_first_tree(p, left="x")),
            lambda p: json.dumps(_first_tree(p, value=p["trees"][0]["value"][:-1])),
            lambda p: json.dumps(_first_tree(p, right=[len(p["trees"][0]["right"])] * len(p["trees"][0]["right"]))),
            lambda p: json.dumps(_first_tree(p, feature=[999] + p["trees"][0]["feature"][1:])),
            lambda p: json.dumps(dict(p, feature_names=["bogus." + n for n in p["feature_names"]])),
        ],
        ids=["not-json", "list", "no-feature-names", "no-trees", "empty-trees", "bad-hyperparameters",
             "bad-array", "short-array", "child-out-of-range", "unknown-feature", "unknown-feature-group"],
    )
    def test_is_input_error(self, corpus_dir, model_path, tmp_path, capsys, verb, corrupt):
        bad = tmp_path / "bad_model.json"
        bad.write_text(corrupt(json.loads(model_path.read_text())))
        code = run_cli(
            "classify", verb, "--feed", corpus_dir / "feed.jsonl", "--model", bad, "--out", tmp_path / "o",
        )
        assert code == 2
        _one_error_line(capsys, 2, "input", bad)


class TestBadPlantedFile:
    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", "not json", '"groups"', '{"groups": [1, 2]}', '{"groups": {"Alpha": [1]}}'],
        ids=["list", "not-json", "string", "groups-list", "group-not-a-name"],
    )
    def test_is_input_error(self, synth_dir, tmp_path, capsys, text):
        planted = tmp_path / "planted.json"
        planted.write_text(text)
        code = run_cli(
            "correlate", "--feed", synth_dir / "feed.jsonl", "--planted", planted, "--out", tmp_path / "o",
        )
        assert code == 2
        _one_error_line(capsys, 2, "input", planted)


class TestBadScenarioFile:
    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"kind": "classifier", "n_phishing": 5, "n_malware": 5, "bogus": 1}),
            json.dumps({"kind": "classifier", "n_phishing": 5}),
            json.dumps({"preset": "no-such-preset"}),
            json.dumps({"name": "x", "n_urls": [], "horizon_days": 3, "archetypes": []}),
            json.dumps({"name": "x", "n_urls": {"phishing": 3}, "horizon_days": 3,
                        "archetypes": [{"name": "A", "kind": "stable", "label": "PhishingSite", "bogus": 1}]}),
            "not json",
            "[1, 2]",
        ],
        ids=["classifier-unknown-field", "classifier-missing-field", "unknown-preset", "n-urls-list",
             "archetype-unknown-field", "not-json", "list"],
    )
    def test_is_config_error(self, tmp_path, capsys, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", scenario)

    _FEED = {"name": "x", "n_urls": {"phishing": 3, "malware": 3}, "horizon_days": 3,
             "archetypes": [{"name": "A", "kind": "leader"}]}

    @pytest.mark.parametrize(
        "raw",
        [
            dict(_FEED, nosie=0.1),
            dict(_FEED, stale_fracton=0.1),
            dict(_FEED, start="2022-01-01"),
            dict(_FEED, kind="feed"),
            {"preset": "decay", "bogus": 1},
            dict(_FEED, archetypes=[{"name": "A", "kind": "copier", "copies": "B", "lag_days": 1},
                                    {"name": "B", "kind": "copier", "copies": "A", "lag_days": 2}]),
            dict(_FEED, archetypes=[{"name": "A", "kind": "copier", "copies": "A", "lag_days": 1}]),
        ],
        ids=["misspelled-noise", "misspelled-stale-fraction", "start-string", "kind-feed", "preset-unknown-field",
             "two-copier-cycle", "self-copier"],
    )
    def test_unread_key_or_copier_cycle_is_config_error(self, tmp_path, capsys, raw):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", scenario)
        assert not (tmp_path / "o").exists()

    def test_directory_is_config_error(self, tmp_path, capsys):
        assert run_cli("synth", "--scenario", tmp_path, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", tmp_path)
        assert not (tmp_path / "o").exists()


def _feed_scenario(**archetype):
    return json.dumps({"name": "x", "n_urls": {"phishing": 3, "malware": 3}, "horizon_days": 3,
                       "archetypes": [dict({"name": "A"}, **archetype)]})


class TestBadScenarioValues:
    """A scenario field of the right name but a wrong type or value is a
    config error, not a traceback from inside the generator."""

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"kind": "classifier", "n_phishing": "ten", "n_malware": 5}),
            json.dumps({"kind": "classifier", "n_phishing": -3, "n_malware": 5}),
            json.dumps({"kind": "classifier", "n_phishing": 5, "n_malware": 5, "generalist_rate": 2}),
            _feed_scenario(kind="stable", label="NoSuchLabel"),
            _feed_scenario(kind="flipper", labels=["PhishingSite", "NoSuchLabel"]),
            _feed_scenario(kind="flipper", labels=[]),
            _feed_scenario(kind="specialist", attack="spam"),
        ],
        ids=["classifier-count-string", "classifier-count-negative", "classifier-rate-above-one",
             "archetype-unknown-label", "flipper-unknown-label", "flipper-no-labels", "specialist-unknown-attack"],
    )
    def test_is_config_error(self, tmp_path, capsys, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", scenario)


def _scenario_with(**fields):
    return json.dumps(dict(json.loads(_feed_scenario(kind="leader")), **fields))


class TestBadScenarioNumbers:
    """Archetype and scenario numbers outside their domain are config errors,
    not tracebacks, compute errors or empty feeds."""

    @pytest.mark.parametrize(
        "scenario",
        [
            _feed_scenario(kind="leader", dropout_hazard="hi"),
            _feed_scenario(kind="leader", dropout_hazard=1.5),
            _feed_scenario(kind="leader", onset_min="x"),
            _feed_scenario(kind="leader", onset_min=3, onset_max=1),
            _feed_scenario(kind="copier", copies="A", lag_days=1.5),
            _feed_scenario(kind="leader", duration_days=2.5),
            _scenario_with(horizon_days=-2),
            _scenario_with(n_urls={"phishing": -3}),
            _scenario_with(noise=7),
            _scenario_with(stale_fraction=-0.1),
        ],
        ids=["hazard-string", "hazard-above-one", "onset-string", "onset-reversed", "lag-fraction",
             "duration-fraction", "horizon-negative", "count-negative", "noise-above-one", "stale-negative"],
    )
    def test_is_config_error(self, tmp_path, capsys, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(scenario)
        assert run_cli("synth", "--scenario", path, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", path)


class TestBadScenarioTypes:
    """Archetype names, tags and label names of another JSON type are config
    errors, not tracebacks from inside the generator."""

    @pytest.mark.parametrize(
        "scenario",
        [
            _feed_scenario(name=5, kind="stable", label="PhishingSite"),
            _feed_scenario(kind=["leader"]),
            _feed_scenario(kind="leader", group=7),
            _feed_scenario(kind="stable", label=3),
            _feed_scenario(kind="copier", copies=["A"], lag_days=1),
            _feed_scenario(kind="specialist", attack=1),
            _feed_scenario(kind="flipper", labels=["PhishingSite", 2]),
        ],
        ids=["name-number", "kind-list", "group-number", "label-number", "copies-list", "attack-number",
             "labels-number"],
    )
    def test_is_config_error(self, tmp_path, capsys, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(scenario)
        assert run_cli("synth", "--scenario", path, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", path)


def _table_runs(synth_dir, corpus_dir, model_path):
    feed, corpus_feed = synth_dir / "feed.jsonl", corpus_dir / "feed.jsonl"
    caches = ["--hosting-cache", corpus_dir / "hosting_cache.csv", "--whois-cache", corpus_dir / "whois_cache.csv"]
    fit = ["--feed", corpus_feed, "--ground-truth", corpus_dir / "truth.csv", *caches,
           "--clusters", 8, "--trees", 4, "--seed", SEED]
    return {
        "metrics": ["metrics", "--feed", feed, "--ground-truth", synth_dir / "truth.csv", "--export-series"],
        "correlate": ["correlate", "--feed", feed, "--heatmaps", "--k", 3, "--planted", synth_dir / "planted.json"],
        "leadlag": ["leadlag", "--feed", feed],
        "train": ["classify", "train", *fit],
        "ablate": ["classify", "ablate", *fit],
        "predict": ["classify", "predict", "--feed", corpus_feed, "--model", model_path, *caches],
        "trend": ["classify", "trend", "--feed", corpus_feed, "--model", model_path],
    }


class TestFormatContract:
    """`--format json` writes the rows `--format csv` writes: each JSON table
    is its CSV twin read back with `csv.DictReader`, and every other artifact
    is byte-identical."""

    @pytest.mark.parametrize("command", ["metrics", "correlate", "leadlag", "train", "ablate", "predict", "trend"])
    def test_json_tables_are_csv_rows(self, synth_dir, corpus_dir, model_path, tmp_path, command):
        argv = _table_runs(synth_dir, corpus_dir, model_path)[command]
        for fmt in ("csv", "json"):
            assert run_cli(*argv, "--format", fmt, "--out", tmp_path / fmt) == 0
        as_csv, as_json = (
            json.loads((tmp_path / fmt / "run_manifest.json").read_text())["artifacts"] for fmt in ("csv", "json")
        )
        assert {Path(name).stem for name in as_csv} == {Path(name).stem for name in as_json}
        assert not [name for name in as_json if name.endswith(".csv")]
        tables = 0
        for name in as_json:
            written = (tmp_path / "json" / name).read_text(encoding="utf-8")
            twin = tmp_path / "csv" / Path(name).with_suffix(".csv")
            if name.endswith(".json") and twin.name in as_csv:
                tables += 1
                with open(twin, encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert written == json.dumps(rows, sort_keys=True, indent=2) + "\n", name
            else:
                assert written == (tmp_path / "csv" / name).read_text(encoding="utf-8"), name
        assert tables


class TestTracedBenchmarkNames:
    """`bench/traced.py` wraps the CLI's and the library's names by
    attribute; a name the program drops or renames must fail here, not only
    inside the benchmark."""

    def test_every_wrapped_name_resolves(self):
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent("""
            import sys
            sys.path.insert(0, "bench")
            import traced

            wrapped = []

            class Counting(traced.Tracer):
                def wrap(self, fn, name, after=None, rss=None):
                    wrapped.append(name)
                    return super().wrap(fn, name, after, rss)

            traced.install(Counting(), "metrics")
            print(len(wrapped))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        # A child process: installing rebinds module globals for good.
        done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["52"]


class TestNoMaskedArrayImport:
    """numpy 2.4's `np.unique` without a `return_*` flag imports `numpy.ma`,
    at a cost in time and memory: no analysis subcommand may (`distinct`)."""

    def test_subcommands_leave_numpy_ma_unloaded(self, synth_dir, corpus_dir, tmp_path):
        root = Path(__file__).resolve().parents[1]
        feed, corpus = synth_dir / "feed.jsonl", corpus_dir / "feed.jsonl"
        caches = ["--hosting-cache", corpus_dir / "hosting_cache.csv", "--whois-cache", corpus_dir / "whois_cache.csv"]
        model = tmp_path / "train" / "model.json"
        commands = {
            "ingest": ["ingest", "--feed", feed],
            "metrics": ["metrics", "--feed", feed, "--ground-truth", synth_dir / "truth.csv"],
            "correlate": ["correlate", "--feed", feed, "--k", 2, "--planted", synth_dir / "planted.json"],
            "leadlag": ["leadlag", "--feed", feed],
            "train": ["classify", "train", "--feed", corpus, "--ground-truth", corpus_dir / "truth.csv", *caches,
                      "--clusters", 8, "--trees", 4, "--seed", SEED],
            "predict": ["classify", "predict", "--feed", corpus, "--model", model, *caches],
            "trend": ["classify", "trend", "--feed", corpus, "--model", model, *caches],
        }
        argvs = {name: [*map(str, argv), "--out", str(tmp_path / name)] for name, argv in commands.items()}
        script = textwrap.dedent("""
            import json, sys
            from scanalytics.cli import main

            loaded = {}
            for name, argv in json.loads(sys.argv[1]).items():
                assert main(argv) == 0, argv
                loaded[name] = "numpy.ma" in sys.modules
            print(json.dumps(loaded))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        # A child process: the test session itself may have imported numpy.ma.
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == dict.fromkeys(commands, False)


class TestImportsStayNarrow:
    """Importing a library module loads only what it imports: the package
    root loads no submodule."""

    def test_feed_and_scanners_load_only_their_imports(self):
        # Only a forest trained on more than one thread needs the thread pool,
        # and `concurrent.futures` brings in `logging`: the CLI loads neither.
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent("""
            import json, sys
            import scanalytics.scanners
            loaded = {"numpy": "numpy" in sys.modules}
            import scanalytics.feed
            loaded.update((name, name in sys.modules) for name in ("scanalytics.synth", "scanalytics.classify"))
            import scanalytics.cli
            loaded.update((name, name in sys.modules) for name in ("concurrent.futures", "logging"))
            print(json.dumps(loaded))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {
            "numpy": False, "scanalytics.synth": False, "scanalytics.classify": False,
            "concurrent.futures": False, "logging": False}


class TestConflictingCacheRows:
    @pytest.mark.parametrize("cache", ["hosting", "whois"])
    def test_is_input_error_naming_both_rows(self, corpus_dir, model_path, tmp_path, capsys, cache):
        source = (corpus_dir / f"{cache}_cache.csv").read_text().splitlines()
        key, *values = source[1].split(",")
        # The first row again under the same key in upper case, with its last
        # value changed; an equal copy of the first row before it is accepted.
        conflicting = ",".join([key.upper() if cache == "whois" else "HTTP" + key[4:], *values[:-1], "other"])
        path = tmp_path / f"{cache}.csv"
        path.write_text("\n".join(source + [source[1], conflicting]) + "\n")
        code = run_cli(
            "classify", "predict", "--feed", corpus_dir / "feed.jsonl", "--model", model_path,
            f"--{cache}-cache", path, "--out", tmp_path / "o",
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=2 kind=input")
        assert f"{path}: rows 2 and {len(source) + 2}: conflicting records" in lines[0]


class TestClassifyMatchesOracle:
    def test_feature_table_of_the_written_corpus(self, corpus_dir):
        """The 500-URL corpus `synth` writes, read back from its feed and
        cache CSVs: the column build equals the per-report features
        (tests/feature_oracle.py) byte for byte."""
        import feature_oracle as oracle
        from scanalytics.classify import HostingCache, WhoisCache, build_cluster_model
        from scanalytics.classify.features import FeatureTable, feature_matrix
        from scanalytics.feed import ReportTable, parse_feed_file

        reports, _ = parse_feed_file(corpus_dir / "feed.jsonl")
        hosting = HostingCache.from_csv(corpus_dir / "hosting_cache.csv")
        whois = WhoisCache.from_csv(corpus_dir / "whois_cache.csv")
        model = build_cluster_model([r for r in reports if r.positives >= 2], k=8, seed=SEED)
        table = FeatureTable.build(ReportTable.of(reports), model, hosting, whois)
        expected = [oracle.features(r, model, hosting, whois) for r in reports]
        assert len(reports) == 500 and len(hosting) and len(whois)
        assert list(table.urls) == [url for url, _ in expected]
        assert feature_matrix(table).tobytes() == oracle.matrix(expected).tobytes()

    def test_predict_and_trend_write_the_oracle_artifacts(self, corpus_dir, model_path, tmp_path):
        """`predict` and `trend` write what the per-report features
        (tests/feature_oracle.py) give when fed through the same model."""
        import feature_oracle as oracle
        from scanalytics.artifacts import write_table
        from scanalytics.classify import HostingCache, WhoisCache, load_forest
        from scanalytics.classify.evaluate import groups_from_manifest, write_trend_csv
        from scanalytics.feed import dedup_by_scan_id, parse_feed_file

        caches = {"--hosting-cache": corpus_dir / "hosting_cache.csv", "--whois-cache": corpus_dir / "whois_cache.csv"}
        common = ["--feed", corpus_dir / "feed.jsonl", "--model", model_path, *(a for pair in caches.items() for a in pair)]
        assert run_cli("classify", "predict", *common, "--out", tmp_path / "predict") == 0
        assert run_cli("classify", "trend", *common, "--out", tmp_path / "trend") == 0

        model = load_forest(model_path)
        reports = [r for r in dedup_by_scan_id(parse_feed_file(corpus_dir / "feed.jsonl")[0]) if r.positives]
        hosting = HostingCache.from_csv(caches["--hosting-cache"])
        whois = WhoisCache.from_csv(caches["--whois-cache"])
        X = oracle.matrix(
            [oracle.features(r, model.cluster_model, hosting, whois) for r in reports],
            groups_from_manifest(model.feature_names),
        )
        scores = model.predict_proba(X).tolist()
        weeks: dict[str, list[int]] = {}
        for r, prediction in zip(reports, model.predict(X).tolist()):
            iso = r.scan_date.isocalendar()
            weeks.setdefault(f"{iso[0]}-W{iso[1]:02d}", []).append(prediction)
        expected = tmp_path / "expected"
        expected.mkdir()
        write_table(
            expected / "predictions.csv", ["url", "scan_id", "predicted", "phishing_score"],
            [(r.url, r.scan_id, "phishing" if s > 0.5 else "malware", s) for r, s in zip(reports, scores)],
        )
        write_trend_csv(
            [(week, sum(v) / len(v), 1.0 - sum(v) / len(v)) for week, v in sorted(weeks.items())],
            expected / "weekly_trend.csv",
        )
        assert (tmp_path / "predict" / "predictions.csv").read_bytes() == (expected / "predictions.csv").read_bytes()
        assert (tmp_path / "trend" / "weekly_trend.csv").read_bytes() == (expected / "weekly_trend.csv").read_bytes()


class TestNotUtf8:
    """Input bytes that are not UTF-8 are input errors, or, in a feed, one
    skipped line; never a compute error."""

    def _feed_with_bad_line(self, synth_dir, tmp_path) -> tuple[Path, int]:
        lines = (synth_dir / "feed.jsonl").read_bytes().splitlines(keepends=True)
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b"".join(lines[:2] + [lines[2].replace(b'"scan_id"', b'"scan_\xffid"')] + lines[3:]))
        return path, len(lines)

    def test_feed_line_skipped_with_warning(self, synth_dir, tmp_path):
        feed, n_lines = self._feed_with_bad_line(synth_dir, tmp_path)
        out = tmp_path / "ingest"
        assert run_cli("ingest", "--feed", feed, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["reports_parsed"] == n_lines - 1
        warnings = (out / "warnings.txt").read_text(encoding="utf-8").splitlines()
        assert [w for w in warnings if "UTF-8" in w] == ["line 3: not valid UTF-8, skipped"]

    def test_feed_line_under_strict_is_input_error(self, synth_dir, tmp_path, capsys):
        feed, _ = self._feed_with_bad_line(synth_dir, tmp_path)
        assert run_cli("ingest", "--feed", feed, "--out", tmp_path / "o", "--strict") == 2
        assert capsys.readouterr().err.splitlines() == ['ERROR code=2 kind=input msg="line 3: not valid UTF-8"']

    def test_ground_truth_is_input_error(self, synth_dir, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_bytes((synth_dir / "truth.csv").read_bytes() + b"http://\xff.test/,phishing,x,2021-03-01T00:00:00Z\n")
        code = run_cli("metrics", "--feed", synth_dir / "feed.jsonl", "--ground-truth", truth, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f'ERROR code=2 kind=input msg="{truth}: not valid UTF-8"']

    @pytest.mark.parametrize("cache", ["hosting", "whois"])
    def test_cache_is_input_error(self, corpus_dir, model_path, tmp_path, capsys, cache):
        path = tmp_path / f"{cache}.csv"
        path.write_bytes((corpus_dir / f"{cache}_cache.csv").read_bytes() + b"\xff\n")
        code = run_cli(
            "classify", "predict", "--feed", corpus_dir / "feed.jsonl", "--model", model_path,
            f"--{cache}-cache", path, "--out", tmp_path / "o",
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f'ERROR code=2 kind=input msg="{path}: not valid UTF-8"']


_OUT_OF_RANGE = "0001-01-01T00:00:00+01:00"  # 31 Dec of year 0 in UTC


class TestTimestampOutOfRange:
    """A timestamp that its UTC offset moves outside `datetime`'s range is a
    bad timestamp like any other: in a feed, one skipped line; in ground
    truth, an input error naming the row."""

    def _feed(self, synth_dir, tmp_path) -> Path:
        lines = (synth_dir / "feed.jsonl").read_bytes().splitlines(keepends=True)[:2]
        first = re.sub(rb'"scan_date":"[^"]*"', f'"scan_date":"{_OUT_OF_RANGE}"'.encode(), lines[0], count=1)
        assert first != lines[0]
        path = tmp_path / "feed.jsonl"
        path.write_bytes(first + lines[1])
        return path

    def test_feed_line_skipped_with_warning(self, synth_dir, tmp_path):
        out = tmp_path / "ingest"
        assert run_cli("ingest", "--feed", self._feed(synth_dir, tmp_path), "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["reports_parsed"] == 1
        warnings = (out / "warnings.txt").read_text(encoding="utf-8").splitlines()
        assert [w for w in warnings if "timestamp" in w] == [
            f"line 1: bad scan_date timestamp: '{_OUT_OF_RANGE}'; line skipped"
        ]

    def test_feed_line_under_strict_is_input_error(self, synth_dir, tmp_path, capsys):
        feed = self._feed(synth_dir, tmp_path)
        assert run_cli("ingest", "--feed", feed, "--out", tmp_path / "o", "--strict") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR code=2 kind=input msg=\"line 1: bad scan_date timestamp: '{_OUT_OF_RANGE}'\""
        ]

    def test_ground_truth_is_input_error(self, synth_dir, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        rows = (synth_dir / "truth.csv").read_text(encoding="utf-8").splitlines()
        truth.write_text("\n".join(rows + [f"http://a.test/,phishing,x,{_OUT_OF_RANGE}"]) + "\n", encoding="utf-8")
        code = run_cli("metrics", "--feed", synth_dir / "feed.jsonl", "--ground-truth", truth, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR code=2 kind=input msg=\"row {len(rows) + 1}: bad labeled_at timestamp: '{_OUT_OF_RANGE}'\""
        ]


_DEEP = "[" * 100_000 + "]" * 100_000  # nested far deeper than the decoder recurses


class TestNestedTooDeeply:
    """JSON nested deeper than the decoder recurses is undecodable JSON: in
    a feed, one skipped line; in any other input file, an error naming it."""

    def _feed_with_deep_line(self, synth_dir, tmp_path, place: str) -> tuple[Path, int]:
        lines = (synth_dir / "feed.jsonl").read_bytes().splitlines(keepends=True)
        if place == "header":
            deep = lines[2].replace(b',"scans":', b',"extra":' + _DEEP.encode() + b',"scans":', 1)
        else:  # in one scans member
            deep = lines[2].replace(b'{"detected"', b'{"extra":' + _DEEP.encode() + b',"detected"', 1)
        assert deep != lines[2]
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b"".join(lines[:2] + [deep] + lines[3:]))
        return path, len(lines)

    @pytest.mark.parametrize("place", ["header", "member"])
    def test_feed_line_skipped_with_warning(self, synth_dir, tmp_path, place):
        feed, n_lines = self._feed_with_deep_line(synth_dir, tmp_path, place)
        out = tmp_path / "ingest"
        assert run_cli("ingest", "--feed", feed, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["reports_parsed"] == n_lines - 1
        warnings = (out / "warnings.txt").read_text(encoding="utf-8").splitlines()
        assert [w for w in warnings if "JSON" in w] == ["line 3: invalid JSON: nested too deeply; line skipped"]

    @pytest.mark.parametrize("place", ["header", "member"])
    def test_feed_line_under_strict_is_input_error(self, synth_dir, tmp_path, capsys, place):
        feed, _ = self._feed_with_deep_line(synth_dir, tmp_path, place)
        assert run_cli("ingest", "--feed", feed, "--out", tmp_path / "o", "--strict") == 2
        assert capsys.readouterr().err.splitlines() == ['ERROR code=2 kind=input msg="line 3: invalid JSON: nested too deeply"']

    def test_planted_file_is_input_error(self, synth_dir, tmp_path, capsys):
        planted = tmp_path / "planted.json"
        planted.write_text('{"groups": ' + _DEEP + "}")
        code = run_cli("correlate", "--feed", synth_dir / "feed.jsonl", "--planted", planted, "--out", tmp_path / "o")
        assert code == 2
        _one_error_line(capsys, 2, "input", planted)

    def test_scenario_file_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"preset": ' + _DEEP + "}")
        assert run_cli("synth", "--scenario", scenario, "--out", tmp_path / "o") == 4
        _one_error_line(capsys, 4, "config", scenario)

    def test_model_file_is_input_error(self, corpus_dir, model_path, tmp_path, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(json.loads(model_path.read_text()))[:-1] + ', "extra": ' + _DEEP + "}")
        code = run_cli("classify", "predict", "--feed", corpus_dir / "feed.jsonl", "--model", bad, "--out", tmp_path / "o")
        assert code == 2
        _one_error_line(capsys, 2, "input", bad)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _argv(command: str, inputs: dict, out: Path, *extra) -> list:
    """`command` with each input file under its flag, `extra`, and `--out`."""
    flags = [part for dest, path in inputs.items() for part in ("--" + dest.replace("_", "-"), path)]
    return [*command.split(), *flags, *extra, "--out", out]


@pytest.fixture(scope="module")
def input_runs(synth_dir, corpus_dir, model_path, tmp_path_factory) -> dict[str, tuple[dict, tuple]]:
    """Each subcommand's input files, one under each of its input flags, and
    the other flags that keep its run short."""
    scenario = tmp_path_factory.mktemp("scenario") / "scenario.json"
    scenario.write_text(json.dumps({"kind": "classifier", "n_phishing": 20, "n_malware": 20, "seed": 5}))
    feed = {"feed": synth_dir / "feed.jsonl"}
    corpus = {"feed": corpus_dir / "feed.jsonl"}
    caches = {"hosting_cache": corpus_dir / "hosting_cache.csv", "whois_cache": corpus_dir / "whois_cache.csv"}
    fit = ("--clusters", 8, "--trees", 2, "--seed", SEED)
    return {
        "ingest": (feed, ()),
        "metrics": (dict(feed, ground_truth=synth_dir / "truth.csv"), ()),
        "correlate": (dict(feed, planted=synth_dir / "planted.json"), ()),
        "leadlag": (feed, ()),
        "classify train": (dict(corpus, ground_truth=corpus_dir / "truth.csv", **caches), fit),
        "classify ablate": (dict(corpus, ground_truth=corpus_dir / "truth.csv", **caches), fit),
        "classify predict": (dict(corpus, model=model_path, **caches), ()),
        "classify trend": (dict(corpus, model=model_path, **caches), ()),
        "synth": ({"scenario": scenario}, ()),
    }


def _leaf_parsers(parser, command=()):
    """(command, parser) of each subcommand, `classify` verbs included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, command + (name,))
            return
    yield " ".join(command), parser


# Each subcommand's input-file flags, by dest.
INPUT_FLAGS = {
    "ingest": ("feed",),
    "metrics": ("feed", "ground_truth"),
    "correlate": ("feed", "planted"),
    "leadlag": ("feed",),
    "classify train": ("feed", "ground_truth", "hosting_cache", "whois_cache"),
    "classify ablate": ("feed", "ground_truth", "hosting_cache", "whois_cache"),
    "classify predict": ("feed", "model", "hosting_cache", "whois_cache"),
    "classify trend": ("feed", "model", "hosting_cache", "whois_cache"),
    "synth": ("scenario",),
}


class TestInputStage:
    """Each subcommand checks and hashes every input file it is given, keyed
    by flag, and reads them all before it makes `--out`."""

    def test_every_file_flag_is_listed(self, input_runs):
        """Each single string-valued flag but `--out` and `--preset` names an
        input file, and the tests here give every one of them."""
        leaves = dict(_leaf_parsers(_build_parser()))
        assert sorted(leaves) == sorted(INPUT_FLAGS) == sorted(input_runs)
        for command, parser in leaves.items():
            free = {
                a.dest for a in parser._actions
                if type(a) is argparse._StoreAction and a.type is None and a.nargs is None and not a.choices
            }
            assert free - {"out", "preset"} == set(INPUT_FLAGS[command]) == set(input_runs[command][0]), command

    @pytest.mark.parametrize("command", INPUT_FLAGS)
    def test_manifest_inputs_are_the_flags_given(self, input_runs, tmp_path, command):
        inputs, extra = input_runs[command]
        assert run_cli(*_argv(command, inputs, tmp_path / "o", *extra)) == 0
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["inputs"] == {dest: _sha256(path) for dest, path in inputs.items()}

    @pytest.mark.parametrize(
        "command, dest",
        [(command, dest) for command, dests in INPUT_FLAGS.items() for dest in dests],
    )
    def test_missing_input_is_input_error_without_out(self, input_runs, tmp_path, capsys, command, dest):
        inputs, extra = input_runs[command]
        missing = tmp_path / "missing.csv"
        assert run_cli(*_argv(command, dict(inputs, **{dest: missing}), tmp_path / "o", *extra)) == 2
        _one_error_line(capsys, 2, "input", missing)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", INPUT_FLAGS)
    def test_out_not_a_directory_is_config_error(self, input_runs, tmp_path, capsys, command, under):
        inputs, extra = input_runs[command]
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / "sub" if under else taken
        assert run_cli(*_argv(command, inputs, out, *extra)) == 4
        _one_error_line(capsys, 4, "config", out)
        assert taken.read_text() == "keep\n"

    def test_same_named_caches_are_both_hashed(self, corpus_dir, tmp_path):
        caches = {}
        for dest, source, folder in (("hosting_cache", "hosting_cache.csv", "a"), ("whois_cache", "whois_cache.csv", "b")):
            caches[dest] = tmp_path / folder / "cache.csv"
            caches[dest].parent.mkdir()
            caches[dest].write_bytes((corpus_dir / source).read_bytes())
        inputs = dict(feed=corpus_dir / "feed.jsonl", ground_truth=corpus_dir / "truth.csv", **caches)
        assert run_cli(*_argv("classify train", inputs, tmp_path / "o", "--clusters", 8, "--trees", 2)) == 0
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["inputs"]["hosting_cache"] == _sha256(corpus_dir / "hosting_cache.csv")
        assert manifest["inputs"]["whois_cache"] == _sha256(corpus_dir / "whois_cache.csv")

    def test_bad_planted_file_leaves_no_out(self, synth_dir, tmp_path, capsys):
        planted = tmp_path / "bad.json"
        planted.write_text("[1, 2]")
        code = run_cli("correlate", "--feed", synth_dir / "feed.jsonl", "--planted", planted, "--out", tmp_path / "o")
        assert code == 2
        _one_error_line(capsys, 2, "input", planted)
        assert not (tmp_path / "o").exists()

    def test_metrics_with_nothing_detected_writes_nothing(self, tmp_path, capsys):
        urls = ("http://phish.test/", "http://benign.test/")
        feed, truth = tmp_path / "feed.jsonl", tmp_path / "truth.csv"
        write_feed([report(url, 0, f"s{i}", [verdict("Sophos")]) for i, url in enumerate(urls)], feed)
        write_ground_truth(
            [GroundTruthRecord(url, label, "test", ts(0)) for url, label in zip(urls, (GroundTruthLabel.Phishing, GroundTruthLabel.Benign))],
            truth,
        )
        assert run_cli("metrics", "--feed", feed, "--ground-truth", truth, "--out", tmp_path / "o") == 3
        assert capsys.readouterr().err.splitlines() == [
            'ERROR code=3 kind=compute msg="no detected URLs in feed; nothing to measure"'
        ]
        assert not (tmp_path / "o").exists()

    def test_train_on_two_agreeing_scanners(self, tmp_path):
        """The factor fit of a sample with fewer varying columns than factors."""
        labels = [(DetailedLabel.PhishingSite, GroundTruthLabel.Phishing), (DetailedLabel.MalwareSite, GroundTruthLabel.Malware)] * 60
        urls = [f"http://u{i}.test/" for i in range(len(labels))]
        feed, truth = tmp_path / "feed.jsonl", tmp_path / "truth.csv"
        write_feed([report(url, 0, f"r{i}", [verdict("A1", label), verdict("A2", label)])
                    for i, (url, (label, _)) in enumerate(zip(urls, labels))], feed)
        write_ground_truth([GroundTruthRecord(url, truth_label, "test", ts(0)) for url, (_, truth_label) in zip(urls, labels)], truth)
        inputs = {"feed": feed, "ground_truth": truth}
        assert run_cli(*_argv("classify train", inputs, tmp_path / "o", "--clusters", 2, "--trees", 4)) == 0


_RETYPED_JSON = (None, "x", "", -1, 1.5, True, [], {})
_RETYPED_CELLS = ("", "x", "-1", "1.5", "1e400", "9" * 30, "2021-13-45T00:00:00Z")


def _json_paths(value, path=()):
    """The key path of `value` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _json_paths(inner, path + (key,))


def _mutate_json(text: str, rng) -> bytes:
    """`text` truncated, with one value retyped, dropped or nested deeply, or
    with bytes that are not UTF-8."""
    how = rng.choice(("truncate", "retype", "drop", "nest", "bytes"))
    if how == "truncate":
        return text[: rng.randrange(len(text))].encode()
    if how == "bytes":
        at = rng.randrange(len(text))
        return text[:at].encode() + b"\xff\xfe" + text[at:].encode()
    value = json.loads(text)
    path = rng.choice(list(_json_paths(value))[1:])
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(_RETYPED_JSON) if how == "retype" else "<deep>"
    return json.dumps(value).replace('"<deep>"', _DEEP).encode()


def _mutate_csv(text: str, rng) -> bytes:
    """`text` truncated, with one cell retyped or dropped, or with bytes that
    are not UTF-8."""
    how = rng.choice(("truncate", "retype", "drop", "bytes"))
    if how == "truncate":
        return text[: rng.randrange(len(text))].encode()
    if how == "bytes":
        at = rng.randrange(len(text))
        return text[:at].encode() + b"\xff\xfe" + text[at:].encode()
    rows = text.splitlines()
    at = rng.randrange(len(rows))
    cells = rows[at].split(",")
    column = rng.randrange(len(cells))
    if how == "drop":
        del cells[column]
    else:
        cells[column] = rng.choice(_RETYPED_CELLS)
    rows[at] = ",".join(cells)
    return "\n".join(rows).encode() + b"\n"


_SMALL_FEED_SCENARIO = {
    "name": "small", "seed": 3, "n_urls": {"phishing": 4, "malware": 4, "benign": 3}, "horizon_days": 4,
    "archetypes": [
        {"name": "Lead", "kind": "leader", "group": "lead", "onset_min": 0, "onset_max": 2},
        {"name": "Copy", "kind": "copier", "group": "lead", "copies": "Lead", "lag_days": 1},
        {"name": "Spec", "kind": "specialist", "attack": "phishing", "recall": 0.9, "precision": 0.95},
        {"name": "Flip", "kind": "flipper", "labels": ["PhishingSite", "MalwareSite"], "period_days": 2},
    ],
}

_SMALL_CORPUS_SCENARIO = {
    "kind": "classifier", "seed": 3, "n_phishing": 6, "n_malware": 6, "span_days": 7, "copier_cluster_size": 3,
    "copier_fire_phishing": 0.5, "generalist_rate": 0.6, "hosting_coverage": 0.7, "whois_coverage": 0.6,
}


class TestInputContractHarness:
    """Seeded mutations of the cache CSVs, scenario files, planted files and
    model files, run in process through `cli.main`: every run exits 0, 2, 3
    or 4 with no exception escaping; a failing run prints exactly one
    `ERROR code=` line; an input or config error leaves no `--out`."""

    RUNS = 32

    def _check(self, tmp_path, capsys, bad: Path, base: bytes, mutate, argv) -> None:
        rng = random.Random(f"{bad.name}-{self.RUNS}")
        failures = []
        for i in range(self.RUNS):
            data = mutate(base.decode("utf-8"), rng)
            bad.write_bytes(data)
            out = tmp_path / f"o{i}"
            try:
                code = run_cli(*argv, "--out", out)
            except Exception as exc:  # an exception escaping `main` is the failure under test
                failures.append((i, data[:120], f"{type(exc).__name__}: {exc}"))
                continue
            err = capsys.readouterr().err.splitlines()
            if code not in (0, 2, 3, 4):
                failures.append((i, data[:120], f"exit {code}"))
            elif code and (len(err) != 1 or not err[0].startswith(f"ERROR code={code} ")):
                failures.append((i, data[:120], err))
            elif code in (2, 4) and out.exists():
                failures.append((i, data[:120], f"exit {code} left --out"))
        assert not failures

    @pytest.mark.parametrize("cache", ["hosting_cache", "whois_cache"])
    def test_cache_csv(self, corpus_dir, model_path, tmp_path, capsys, cache):
        feed = tmp_path / "feed.jsonl"
        feed.write_bytes(b"".join((corpus_dir / "feed.jsonl").read_bytes().splitlines(keepends=True)[:60]))
        bad = tmp_path / f"{cache}.csv"
        argv = ["classify", "predict", "--feed", feed, "--model", model_path, f"--{cache.replace('_', '-')}", bad]
        self._check(tmp_path, capsys, bad, (corpus_dir / f"{cache}.csv").read_bytes(), _mutate_csv, argv)

    @pytest.mark.parametrize("kind", ["feed", "classifier"])
    def test_scenario_file(self, tmp_path, capsys, kind):
        scenario = _SMALL_FEED_SCENARIO if kind == "feed" else _SMALL_CORPUS_SCENARIO
        bad = tmp_path / f"{kind}_scenario.json"
        self._check(tmp_path, capsys, bad, json.dumps(scenario).encode(), _mutate_json, ["synth", "--scenario", bad])

    def test_planted_file(self, synth_dir, tmp_path, capsys):
        planted = dict(json.loads((synth_dir / "planted.json").read_text()),
                       groups={"SharpPhish": "a", "SharpMal": "a", "Steady": "b", "Fickle": "b", "Sluggish": "c"})
        bad = tmp_path / "planted.json"
        argv = ["correlate", "--feed", synth_dir / "feed.jsonl", "--planted", bad]
        self._check(tmp_path, capsys, bad, json.dumps(planted).encode(), _mutate_json, argv)

    def test_model_file(self, corpus_dir, model_path, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        feed.write_bytes(b"".join((corpus_dir / "feed.jsonl").read_bytes().splitlines(keepends=True)[:60]))
        bad = tmp_path / "model.json"
        argv = ["classify", "predict", "--feed", feed, "--model", bad]
        self._check(tmp_path, capsys, bad, model_path.read_bytes(), _mutate_json, argv)


class TestGroundTruthClasses:
    """A ground-truth file without a class the subcommand needs is an input
    error naming the file; a file with every class whose URLs the feed's
    series lack is a computation error."""

    @staticmethod
    def _truth(synth_dir, tmp_path, keep) -> Path:
        from scanalytics.feed import load_ground_truth

        path = tmp_path / "truth.csv"
        write_ground_truth([r for r in load_ground_truth(synth_dir / "truth.csv") if keep(r)], path)
        return path

    @pytest.mark.parametrize("missing", [GroundTruthLabel.Benign, "positive"])
    def test_metrics_class_missing_from_file(self, synth_dir, tmp_path, capsys, missing):
        if missing == "positive":
            truth = self._truth(synth_dir, tmp_path, lambda r: r.label is GroundTruthLabel.Benign)
        else:
            truth = self._truth(synth_dir, tmp_path, lambda r: r.label is not GroundTruthLabel.Benign)
        code = run_cli("metrics", "--feed", synth_dir / "feed.jsonl", "--ground-truth", truth, "--out", tmp_path / "o")
        assert code == 2
        _one_error_line(capsys, 2, "input", truth)
        assert not (tmp_path / "o").exists()

    def test_metrics_class_missing_from_series(self, synth_dir, tmp_path, capsys):
        truth = self._truth(synth_dir, tmp_path, lambda r: r.label is not GroundTruthLabel.Benign)
        with open(truth, "a", encoding="utf-8", newline="") as fh:
            fh.write("http://not-in-feed.test/,benign,test,2021-03-01T00:00:00Z\r\n")
        code = run_cli("metrics", "--feed", synth_dir / "feed.jsonl", "--ground-truth", truth, "--out", tmp_path / "o")
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            'ERROR code=3 kind=compute msg="ground truth has no benign URLs in the series"'
        ]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["train", "ablate"])
    def test_classify_header_only_file(self, corpus_dir, tmp_path, capsys, verb):
        truth = tmp_path / "truth.csv"
        write_ground_truth([], truth)
        code = run_cli("classify", verb, "--feed", corpus_dir / "feed.jsonl", "--ground-truth", truth,
                       "--clusters", 8, "--trees", 2, "--seed", SEED, "--out", tmp_path / "o")
        assert code == 2
        _one_error_line(capsys, 2, "input", truth)
        assert not (tmp_path / "o").exists()


class TestHostlessUrl:
    URL = "http:///nopath"

    @pytest.mark.parametrize("verb", ["train", "predict", "trend"])
    def test_is_input_error(self, corpus_dir, model_path, tmp_path, capsys, verb):
        from scanalytics.feed import load_ground_truth

        lines = (corpus_dir / "feed.jsonl").read_text(encoding="utf-8").splitlines()
        record = dict(next(json.loads(line) for line in lines if json.loads(line)["positives"] >= 2),
                      url=self.URL, scan_id="hostless")
        feed = tmp_path / "feed.jsonl"
        feed.write_text("\n".join(lines + [json.dumps(record)]) + "\n", encoding="utf-8")
        if verb == "train":
            truth = tmp_path / "truth.csv"
            records = load_ground_truth(corpus_dir / "truth.csv")
            write_ground_truth(records + [GroundTruthRecord(self.URL, GroundTruthLabel.Phishing, "test", ts(0))], truth)
            argv = ("classify", "train", "--feed", feed, "--ground-truth", truth,
                    "--clusters", 8, "--trees", 2, "--seed", SEED)
        else:
            argv = ("classify", verb, "--feed", feed, "--model", model_path)
        assert run_cli(*argv, "--out", tmp_path / "o") == 2
        _one_error_line(capsys, 2, "input", self.URL)
        assert not (tmp_path / "o").exists()
