"""Seeded workloads: the synth scenarios, the CLI pipeline per workload, and
the output checks that hold for any correct implementation.

A workload is a scenario file (written here from the seed and handed to
`scanalytics synth --scenario`) plus the subcommands run on what synth
wrote. Steps are plain dicts; `cli_argv` turns one into the same arguments
for the CLI run and the traced run (`traced.py`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable

# Sizes are scaled so that one pass of every workload takes a few seconds on
# a 2-core machine: a run then holds several passes and reports medians.
LONG_URLS = {"phishing": 40, "malware": 40, "benign": 20}
LONG_DAYS = 30
WIDE_URLS = {"phishing": 40, "malware": 35, "benign": 75}
WIDE_DAYS = 10
CORPUS_PER_CLASS = 1500
CORPUS_SPAN_DAYS = 28


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int, tuple[str, ...]], dict]
    pipeline: Callable[[Path, Path, int], list[tuple[str, dict]]]


def _long_horizon_scenario(seed: int, registry: tuple[str, ...]) -> dict:
    names = iter(registry[:20])
    archetypes = []
    for _ in range(4):
        archetypes.append({"name": next(names), "kind": "stable", "group": "steady", "label": "MaliciousSite"})
    for i in range(4):
        archetypes.append(
            {"name": next(names), "kind": "flipper", "group": "flip",
             "labels": ["PhishingSite", "MalwareSite"], "period_days": 2 + i % 2}
        )
    leaders = []
    for _ in range(4):
        leaders.append(next(names))
        archetypes.append({"name": leaders[-1], "kind": "leader", "group": "lead", "onset_min": 0, "onset_max": 3})
    for i, target in enumerate(leaders):
        archetypes.append(
            {"name": next(names), "kind": "copier", "group": "copy", "copies": target, "lag_days": 1 + i}
        )
    for i in range(4):
        archetypes.append(
            {"name": next(names), "kind": "specialist", "group": "spec",
             "attack": "phishing" if i % 2 == 0 else "malware",
             "recall": 0.9, "precision": 0.95, "onset_min": 2, "onset_max": 8}
        )
    return {
        "name": "long-horizon", "seed": seed, "n_urls": LONG_URLS, "horizon_days": LONG_DAYS,
        "archetypes": archetypes, "noise": 0.01, "stale_fraction": 0.1,
    }


def _wide_feed_scenario(seed: int, registry: tuple[str, ...]) -> dict:
    # No stable or flipper scanners and specialists at precision 1: benign
    # URLs are never detected, so the full and ever-detected cohorts differ.
    archetypes = []
    leader = None
    for i, name in enumerate(registry):
        if i % 3 == 0:
            leader = name
            archetypes.append({"name": name, "kind": "leader", "group": "lead", "onset_min": 0, "onset_max": 4})
        elif i % 3 == 1:
            archetypes.append(
                {"name": name, "kind": "copier", "group": "copy", "copies": leader, "lag_days": 1 + i % 4}
            )
        else:
            archetypes.append(
                {"name": name, "kind": "specialist", "group": "spec",
                 "attack": "phishing" if i % 2 else "malware",
                 "recall": 0.8, "precision": 1.0, "onset_min": 0, "onset_max": 5}
            )
    return {
        "name": "wide-feed", "seed": seed, "n_urls": WIDE_URLS, "horizon_days": WIDE_DAYS,
        "archetypes": archetypes, "noise": 0.0, "stale_fraction": 0.1,
    }


def _classifier_scenario(seed: int, registry: tuple[str, ...]) -> dict:
    return {
        "kind": "classifier", "seed": seed, "n_phishing": CORPUS_PER_CLASS,
        "n_malware": CORPUS_PER_CLASS, "span_days": CORPUS_SPAN_DAYS,
    }


def _feed_steps(inputs: Path, with_correlate: bool) -> list[tuple[str, dict]]:
    feed = str(inputs / "feed.jsonl")
    steps = [
        ("ingest", {"cmd": "ingest", "feed": feed}),
        ("metrics", {"cmd": "metrics", "feed": feed, "ground_truth": str(inputs / "truth.csv")}),
    ]
    if with_correlate:
        planted = json.loads((inputs / "planted.json").read_text(encoding="utf-8"))
        k = len(set(planted["groups"].values()))
        steps.append(
            ("correlate", {"cmd": "correlate", "feed": feed, "k": k, "planted": str(inputs / "planted.json")})
        )
    steps.append(("leadlag", {"cmd": "leadlag", "feed": feed}))
    return steps


def _long_horizon_pipeline(inputs: Path, pass_dir: Path, seed: int) -> list[tuple[str, dict]]:
    return _feed_steps(inputs, with_correlate=True)


def _wide_feed_pipeline(inputs: Path, pass_dir: Path, seed: int) -> list[tuple[str, dict]]:
    # Pure-Python DTW over 4,465 scanner pairs takes minutes, so no correlate.
    return _feed_steps(inputs, with_correlate=False)


def _classifier_pipeline(inputs: Path, pass_dir: Path, seed: int) -> list[tuple[str, dict]]:
    common = {
        "feed": str(inputs / "feed.jsonl"),
        "hosting_cache": str(inputs / "hosting_cache.csv"),
        "whois_cache": str(inputs / "whois_cache.csv"),
    }
    model = str(pass_dir / "train" / "model.json")
    # One training thread: on a 2-vCPU shared machine a two-thread train
    # waits whenever either vCPU is taken, and total_s spread across runs
    # was 0.28 at --threads 2 against 0.07 at --threads 1.
    return [
        ("train", dict(common, cmd="classify-train", ground_truth=str(inputs / "truth.csv"),
                       clusters=8, trees=50, threads=1, seed=seed)),
        ("predict", dict(common, cmd="classify-predict", model=model)),
        ("trend", dict(common, cmd="classify-trend", model=model)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long-horizon", _long_horizon_scenario, _long_horizon_pipeline),
        Workload("wide-feed", _wide_feed_scenario, _wide_feed_pipeline),
        Workload("classifier", _classifier_scenario, _classifier_pipeline),
    )
}


def cli_argv(step: dict, out: Path) -> list[str]:
    """The `scanalytics` arguments that run one step into `out`."""
    cmd = step["cmd"]
    argv = cmd.split("-", 1) if cmd.startswith("classify-") else [cmd]
    for key in ("feed", "ground_truth", "hosting_cache", "whois_cache", "model", "scenario",
                "planted", "k", "clusters", "trees", "threads", "seed"):
        if key in step:
            argv += ["--" + key.replace("_", "-"), str(step[key])]
    return argv + ["--out", str(out)]


# ---------------------------------------------------------------------------
# Checks. Each returns a list of failure messages; empty means it passed.
# ---------------------------------------------------------------------------


class Facts:
    """What the generated inputs say the outputs must show, read once per run."""

    def __init__(self, inputs: Path):
        self.planted = json.loads((inputs / "planted.json").read_text(encoding="utf-8"))
        detecting = 0
        weeks = set()
        with open(inputs / "feed.jsonl", "r", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["positives"] > 0:
                    detecting += 1
                    iso = date.fromisoformat(record["scan_date"][:10]).isocalendar()
                    weeks.add((iso[0], iso[1]))
        self.detecting_reports = detecting
        self.weeks_in_feed = len(weeks)


def _read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_ingest(out: Path, stdout: str, facts: Facts) -> list[str]:
    # The documented summary is the one JSON line ingest prints; any other
    # stdout line (e.g. "warning: ...") is not part of it.
    summaries = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(summaries) != 1:
        return [f"ingest printed {len(summaries)} summary lines"]
    summary = json.loads(summaries[0])
    failures = []
    if summary["reports_parsed"] != facts.planted["n_reports"]:
        failures.append(f"reports_parsed {summary['reports_parsed']} != planted {facts.planted['n_reports']}")
    if summary["fresh_urls"] != len(facts.planted["fresh_urls"]):
        failures.append(f"fresh_urls {summary['fresh_urls']} != planted {len(facts.planted['fresh_urls'])}")
    return failures


def _check_leadlag(out: Path, stdout: str, facts: Facts) -> list[str]:
    values = {(r["scanner_a"], r["scanner_b"]): r["value"] for r in _read_csv(out / "early_ratio.csv")}
    failures = []
    for copier, lag in sorted(facts.planted["lags"].items()):
        value = values.get((lag["of"], copier))
        if value is None or float(value) != 1.0:
            failures.append(f"early_ratio[{lag['of']}, {copier}] = {value}, planted lag needs 1.0")
    return failures


def _check_train(out: Path, stdout: str, facts: Facts) -> list[str]:
    accuracy = {r["model"]: float(r["accuracy"]) for r in _read_csv(out / "eval.csv")}
    if not accuracy["forest"] > accuracy["majority_vote"]:
        return [f"forest accuracy {accuracy['forest']} does not beat majority vote {accuracy['majority_vote']}"]
    return []


def _check_predict(out: Path, stdout: str, facts: Facts) -> list[str]:
    rows = len(_read_csv(out / "predictions.csv"))
    if rows != facts.detecting_reports:
        return [f"predictions.csv has {rows} rows, feed has {facts.detecting_reports} reports with positives > 0"]
    return []


def _check_trend(out: Path, stdout: str, facts: Facts) -> list[str]:
    rows = len(_read_csv(out / "weekly_trend.csv"))
    if rows != facts.weeks_in_feed:
        return [f"weekly_trend.csv has {rows} rows, the corpus spans {facts.weeks_in_feed} ISO weeks"]
    return []


CHECKS = {
    "ingest": _check_ingest,
    "leadlag": _check_leadlag,
    "train": _check_train,
    "predict": _check_predict,
    "trend": _check_trend,
}
