"""Command-line front end.

Subcommands: ingest, metrics, correlate, leadlag, classify (train / predict /
ablate / trend), synth. Every run writes its artifacts plus a run manifest
(input and artifact content hashes, seed, version) into the output directory;
reruns with identical inputs produce byte-identical artifacts at any thread
count.

Exit codes: 0 success, 2 input error, 3 computation error, 4 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import write_json as _write_json
from .artifacts import write_table
from .classify import (
    ABLATION_ROWS,
    FeatureExtractionError,
    FeatureTable,
    HostingCache,
    ModelFormatError,
    WhoisCache,
    ablation,
    build_cluster_model,
    evaluate_predictions,
    feature_matrix,
    load_forest,
    majority_vote_classes,
    save_forest,
    train_forest,
    weekly_trend,
    write_eval_csv,
)
# Not called here: bench/traced.py wraps these names in this module.
from .classify import extract_features, majority_vote_class  # noqa: F401
from .classify.evaluate import CLASS_NAMES, encode_labels, groups_from_manifest, split_train_test
from .classify.evaluate import write_trend_csv as write_weekly_trend_csv
from .classify.features import ALL_GROUPS, feature_manifest
from .correlate import (
    adjusted_rand_index,
    frobenius_trend,
    hierarchical_cluster,
    jaccard_binary,
    jaccard_detailed,
    scanner_dtw_matrix,
    write_heatmap_svg,
    write_matrix_csv,
    write_trend_csv,
)
from .feed import (
    FeedCohort,
    FeedFormatError,
    GroundTruthConflictError,
    GroundTruthLabel,
    ReportTable,
    dedup_by_scan_id,
    distinct,
    extract_fresh,
    filter_ever_detected,
    load_ground_truth,
    parse_feed_file,
    write_feed,
    write_ground_truth,
)
from .leadlag import early_detection_matrix, first_detection_index, leader_ranking, write_ranking_csv
from .metrics import (
    certainty_scores,
    f1_by_offset,
    label_count_distribution,
    url_label_stats,
    write_certainty_csv,
    write_f1_csv,
    write_label_hist_csv,
    write_url_label_cdf_csv,
)
from .series import build_series, write_series_csv
from .synth import (
    ClassifierCorpusConfig,
    ScannerArchetype,
    ScenarioConfig,
    generate,
    generate_classifier_corpus,
    preset_config,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_CONFIG = 4

FACTOR_SAMPLE_SIZE = 20_000


class _ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 4 on bad flags, not 2
        raise _ConfigError(message)


# Every input-file flag, by argparse dest: its help, whether it is required,
# and the error a path that is no regular file raises, which is the error its
# reader raises for a file it cannot use (a scenario is configuration).
# Subparsers declare their input flags from here; `_Run` checks and hashes
# each one a run was given.
_INPUTS: dict[str, tuple[str | None, bool, type[Exception]]] = {
    "feed": ("line-delimited scan-report feed", True, FeedFormatError),
    "ground_truth": (None, True, FeedFormatError),
    "planted": ("planted manifest for recovery scoring", False, FeedFormatError),
    "model": (None, True, ModelFormatError),
    "hosting_cache": (None, False, FeedFormatError),
    "whois_cache": (None, False, FeedFormatError),
    "scenario": ("scenario config JSON", False, _ConfigError),
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):  # 64 KiB: a larger read lifts peak RSS
            digest.update(chunk)
    return digest.hexdigest()


class _Run:
    """A subcommand's run: it checks that `--out` is a directory or absent,
    then checks and hashes each input file the run was given, keyed by its
    flag's dest. Handlers read every input, compute, then write: `--out` is
    made by the first `artifact`, so a run that fails before it leaves none.

    Only files named through `artifact` are hashed and listed, so files an
    earlier run left in `--out` stay out of the manifest.
    """

    def __init__(self, args, params: dict, seed: int | None = None, fmt: str | None = None):
        self.command = args.command if args.command != "classify" else f"classify-{args.verb}"
        self.out_dir = Path(args.out)
        self.seed = seed
        self.params = params
        self.fmt = args.format if fmt is None else fmt
        self.inputs: dict[str, str] = {}
        self.artifacts: dict[str, str] = {}
        self.written: set[str] = set()
        for path in (self.out_dir, *self.out_dir.parents):
            if path.is_dir():
                break
            if path.exists():
                raise _ConfigError(f"--out {self.out_dir}: {path} is not a directory")
        for dest, path in vars(args).items():
            if dest in _INPUTS and path is not None:
                self.add_input(dest, path)

    def add_input(self, dest: str, path) -> None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {path}")
        if not path.is_file():
            raise _INPUTS[dest][2](f"{path} is not a file")
        self.inputs[dest] = _sha256(path)

    def artifact(self, name: str) -> Path:
        """The path to write artifact `name` to; a `.csv` table becomes
        `.json` when the run's format is json (`write_table` reads the suffix)."""
        if self.fmt == "json" and name.endswith(".csv"):
            name = name[: -len(".csv")] + ".json"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.written.add(name)
        return self.out_dir / name

    def seal(self) -> Path:
        for name in sorted(self.written):
            path = self.out_dir / name
            if path.is_file():
                self.artifacts[name] = _sha256(path)
        manifest = {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "params": self.params,
            "inputs": self.inputs,
            "artifacts": self.artifacts,
        }
        target = self.out_dir / "run_manifest.json"
        _write_json(manifest, target)
        return target


def _load_feed(path, strict: bool = False):
    """The feed's deduplicated `ReportTable`, its warnings and its parsed report count."""
    reports, warnings = parse_feed_file(path, strict=strict)
    return ReportTable.of(dedup_by_scan_id(reports)), warnings, len(reports)


def _split_gt(records) -> tuple[set[str], set[str]]:
    positive = {r.url for r in records if r.label is not GroundTruthLabel.Benign}
    benign = {r.url for r in records if r.label is GroundTruthLabel.Benign}
    return positive, benign


def _json_object(path: Path, error: type[Exception]) -> dict:
    """The JSON object in `path`; a file that holds anything else raises
    `error` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (RecursionError, ValueError, IsADirectoryError) as exc:  # not JSON (or too deep), not UTF-8, a directory
        raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{path} must hold a JSON object")
    return raw


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    run = _Run(args, {"strict": args.strict})
    table, warnings, n_raw = _load_feed(args.feed, strict=args.strict)
    if n_raw == 0:
        raise FeedFormatError(f"feed {args.feed} contains no parseable reports")
    cohort = filter_ever_detected(table)
    summary = {
        "reports_parsed": n_raw,
        "reports_after_dedup": len(table),
        "duplicates_dropped": n_raw - len(table),
        "parse_warnings": len(warnings),
        "urls": len(distinct(table.url)),
        "fresh_urls": len(extract_fresh(table)),
        "ever_detected_urls": len(cohort.urls),
    }
    _write_json(summary, run.artifact("summary.json"))
    if warnings:
        with open(run.artifact("warnings.txt"), "w", encoding="utf-8") as fh:
            for warning in warnings:
                fh.write(f"{warning}\n")
    run.seal()
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_metrics(args) -> int:
    run = _Run(args, {"window": args.window, "max_offset": args.max_offset})
    table, _, _ = _load_feed(args.feed)
    positive, benign = _split_gt(load_ground_truth(args.ground_truth))
    if not (positive and benign):
        missing = "benign" if positive else "positive-class"
        raise FeedFormatError(f"ground truth {args.ground_truth} has no {missing} URLs")

    # F-1 must see ground-truth URLs even when no scanner ever detects them
    # (they are false negatives); the other metrics follow the detected cohort.
    url_of = table.urls.__getitem__
    detected = set(map(url_of, distinct(table.url[table.positives >= 1]).tolist()))
    full_series = build_series(FeedCohort.build("all", map(url_of, distinct(table.url).tolist()), table))
    del table  # the series are all that is read from here on
    if not full_series:
        raise ValueError("empty feed; nothing to measure")
    curves = f1_by_offset(full_series, positive, benign, max_offset=args.max_offset)

    # The ever-detected cohort's series are the full series of its URLs: a
    # URL's day 0 and daily labels depend on its own reports only.
    series = full_series.restrict(detected)
    del full_series
    if not series:
        raise ValueError("no detected URLs in feed; nothing to measure")
    scores = certainty_scores(series, window=args.window)
    hist = label_count_distribution(series, window=args.window)
    stats = url_label_stats(series, window=args.window)

    write_f1_csv(curves, run.artifact("f1_curves.csv"))
    write_certainty_csv(scores, run.artifact("certainty.csv"))
    write_label_hist_csv(hist, run.artifact("label_hist.csv"))
    write_url_label_cdf_csv(stats, run.artifact("url_label_cdf.csv"))
    _write_json(
        {label.name: ratio for label, ratio in stats.top_ratios.items()},
        run.artifact("url_label_top_ratios.json"),
    )
    if args.export_series:
        write_series_csv(series, run.artifact("series.csv"))
    run.seal()
    print(f"metrics written to {run.out_dir}")
    return EXIT_OK


def _cmd_correlate(args) -> int:
    run = _Run(args, {"window": args.window, "max_offset": args.max_offset, "k": args.k, "cut_height": args.cut_height})
    table, _, _ = _load_feed(args.feed)
    planted_groups: dict[str, str] = {}
    if args.planted is not None:
        planted_groups = _json_object(Path(args.planted), FeedFormatError).get("groups", {})
        if not isinstance(planted_groups, dict) or not all(isinstance(g, str) for g in planted_groups.values()):
            raise FeedFormatError(f"{args.planted}: groups must map scanner names to group names")

    cohort = filter_ever_detected(table)
    series = build_series(cohort)
    if not series:
        raise ValueError("no detected URLs in feed; nothing to correlate")
    universe = set(cohort.urls)
    jb = jaccard_binary(series, universe, window=args.window)
    jd = jaccard_detailed(series, universe, window=args.window)
    trend = frobenius_trend(series, universe, range(0, args.max_offset + 1))
    dtw = scanner_dtw_matrix(series, window=args.window)

    k = args.k
    if k is None and planted_groups:
        k = len(set(planted_groups.values()))

    cluster_payload = None
    if k is not None or args.cut_height is not None:
        result = hierarchical_cluster(dtw, cut_height=args.cut_height, k=k)
        cluster_payload = {
            "assignment": dict(sorted(result.assignment.items())),
            "excluded": list(result.excluded),
            "merges": [
                {"a": a, "b": b, "height": height} for a, b, height in result.dendrogram.merges
            ],
            "leaves": list(result.dendrogram.leaves),
        }
        if planted_groups:
            tagged = [s for s in planted_groups if s in result.assignment]
            cluster_payload["planted_ari"] = adjusted_rand_index(
                {s: planted_groups[s] for s in tagged}, {s: result.assignment[s] for s in tagged}
            )

    write_matrix_csv(jb, run.artifact("jaccard_binary.csv"))
    write_matrix_csv(jd, run.artifact("jaccard_detailed.csv"))
    write_trend_csv(trend, run.artifact("frobenius_trend.csv"))
    write_matrix_csv(dtw, run.artifact("dtw_matrix.csv"))
    if args.heatmaps:
        write_heatmap_svg(jb, run.artifact("jaccard_binary.svg"))
        write_heatmap_svg(dtw, run.artifact("dtw_matrix.svg"))
    if cluster_payload is not None:
        _write_json(cluster_payload, run.artifact("clusters.json"))
    run.seal()
    if cluster_payload and "planted_ari" in cluster_payload:
        print(f"correlate done; planted ARI = {cluster_payload['planted_ari']:.6f}")
    else:
        print(f"correlate written to {run.out_dir}")
    return EXIT_OK


def _cmd_leadlag(args) -> int:
    run = _Run(args, {"window": args.window})
    table, _, _ = _load_feed(args.feed)
    series = build_series(filter_ever_detected(table))
    if not series:
        raise ValueError("no detected URLs in feed; nothing to rank")
    scanners = tuple(sorted({scanner for scanner, _ in series}))
    index = first_detection_index(series, window=args.window)
    matrix = early_detection_matrix(index, scanners=scanners)
    ranking = leader_ranking(matrix)
    write_matrix_csv(matrix, run.artifact("early_ratio.csv"))
    write_ranking_csv(ranking, run.artifact("leader_ranking.csv"))
    run.seal()
    print(f"leadlag written to {run.out_dir}")
    return EXIT_OK


def _prepare_classifier_inputs(args):
    """Shared train/ablate setup: the features and label of each labeled
    URL's latest report, in URL order, those reports' table, and the cluster
    model."""
    table, _, _ = _load_feed(args.feed)
    truth = load_ground_truth(args.ground_truth)
    hosting = HostingCache.from_csv(args.hosting_cache) if args.hosting_cache is not None else None
    whois = WhoisCache.from_csv(args.whois_cache) if args.whois_cache is not None else None
    label_by_url = {
        r.url: r.label for r in truth if r.label in (GroundTruthLabel.Phishing, GroundTruthLabel.Malware)
    }
    if not label_by_url:
        raise FeedFormatError(f"ground truth {args.ground_truth} has no phishing/malware URLs")

    # One report per labeled URL, in URL order: its latest (most scanner-informed) one.
    labeled = FeedCohort.build("labeled", label_by_url, table).reports
    latest = labeled.take(np.flatnonzero(labeled.url != np.append(labeled.url[1:], -1)))

    fit_pool = np.flatnonzero(table.positives >= 2)
    if len(fit_pool) > FACTOR_SAMPLE_SIZE:
        fit_pool = np.array(random.Random(args.seed).sample(fit_pool.tolist(), FACTOR_SAMPLE_SIZE), np.intp)
    cluster_model = build_cluster_model(table.take(fit_pool), k=args.clusters, seed=args.seed)

    missing = [name for name, cache in (("hosting", hosting), ("whois", whois)) if cache is None]
    if missing:
        print(f"warning: no {'/'.join(missing)} cache provided; those groups are marked missing")

    table = latest.take(np.flatnonzero(latest.positives))
    if not len(table):
        raise ValueError("no labeled URLs with detecting reports in feed")
    labels = [label_by_url[table.urls[url]] for url in table.url.tolist()]
    return FeatureTable.build(table, cluster_model, hosting, whois), labels, table, cluster_model


def _cmd_classify_train(args) -> int:
    unknown_groups = set(args.groups) - set(ALL_GROUPS)
    if unknown_groups:
        raise _ConfigError(f"unknown feature groups: {sorted(unknown_groups)}")
    params = {"groups": list(args.groups), "split": args.split, "clusters": args.clusters}
    run = _Run(args, params, args.seed)
    features, labels, table, cluster_model = _prepare_classifier_inputs(args)
    model, report = train_forest(
        features,
        labels,
        groups=tuple(args.groups),
        split=args.split,
        seed=args.seed,
        cluster_model=cluster_model,
        threads=args.threads,
        n_estimators=args.trees,
    )
    y = encode_labels(labels)
    _, test_idx = split_train_test(y, args.split, args.seed)
    baseline_pred = majority_vote_classes(table)[test_idx]
    baseline = evaluate_predictions(y[test_idx], baseline_pred)
    roc_rows = [
        {"class": class_name, "threshold": thr, "fpr": fpr, "tpr": tpr}
        for class_name, points in report.roc.items()
        for thr, fpr, tpr in points
    ]

    save_forest(model, run.artifact("model.json"))
    write_eval_csv({"majority_vote": baseline, "forest": report}, run.artifact("eval.csv"))
    _write_json(roc_rows, run.artifact("roc.json"))
    run.seal()
    print(
        f"forest accuracy {report.accuracy:.4f} vs majority vote {baseline.accuracy:.4f} "
        f"on {report.n_test} test URLs"
    )
    return EXIT_OK


def _load_model_and_features(args):
    """Shared predict/trend setup: the model and its feature groups, then
    the feed's detecting reports and their features."""
    model = load_forest(args.model)
    if model.cluster_model is None:
        raise ModelFormatError(f"model file {args.model} lacks a scanner cluster model")
    groups = groups_from_manifest(model.feature_names)
    if set(groups) - set(ALL_GROUPS) or feature_manifest(groups) != model.feature_names:
        raise ModelFormatError(f"model file {args.model} has feature names that are not a feature manifest")
    table, _, _ = _load_feed(args.feed)
    hosting = HostingCache.from_csv(args.hosting_cache) if args.hosting_cache is not None else None
    whois = WhoisCache.from_csv(args.whois_cache) if args.whois_cache is not None else None
    table = table.take(np.flatnonzero(table.positives))
    if not len(table):
        raise ValueError("no reports with detections to classify")
    features = FeatureTable.build(table, model.cluster_model, hosting=hosting, whois=whois)
    return model, groups, table, features


def _cmd_classify_predict(args) -> int:
    run = _Run(args, {})
    model, groups, table, features = _load_model_and_features(args)
    scores = model.predict_proba(feature_matrix(features, groups))
    rows = (
        (url, scan_id, CLASS_NAMES[1] if score > 0.5 else CLASS_NAMES[0], score)
        for url, scan_id, score in zip(features.urls, table.scan_id, scores.tolist())
    )
    write_table(run.artifact("predictions.csv"), ["url", "scan_id", "predicted", "phishing_score"], rows)
    run.seal()
    print(f"{len(table)} predictions written to {run.out_dir}")
    return EXIT_OK


def _cmd_classify_ablate(args) -> int:
    run = _Run(args, {"split": args.split, "clusters": args.clusters}, args.seed)
    features, labels, _, cluster_model = _prepare_classifier_inputs(args)
    reports = ablation(
        features,
        labels,
        seed=args.seed,
        split=args.split,
        cluster_model=cluster_model,
        threads=args.threads,
        n_estimators=args.trees,
    )
    write_eval_csv(reports, run.artifact("ablation.csv"))
    run.seal()
    for name, _ in ABLATION_ROWS:
        print(f"{name}: accuracy {reports[name].accuracy:.4f}")
    return EXIT_OK


def _cmd_classify_trend(args) -> int:
    run = _Run(args, {})
    model, _, table, features = _load_model_and_features(args)
    trend = weekly_trend(model, list(zip(table, features)))
    write_weekly_trend_csv(trend, run.artifact("weekly_trend.csv"))
    run.seal()
    print(f"{len(trend)} weeks written to {run.out_dir}")
    return EXIT_OK


def _check_fields(raw: dict, what: str, *known: str) -> None:
    """Refuse an object of a scenario file that has a key not in `known`."""
    unknown = set(raw).difference(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _field_names(config: type) -> list[str]:
    return [field.name for field in dataclasses.fields(config)]


def _scenario_from_file(path: Path, seed_override: int | None) -> ScenarioConfig | ClassifierCorpusConfig:
    """The scenario of a file; `seed_override`, when given, replaces the
    file's `seed`, which defaults to 0."""
    raw = _json_object(path, _ConfigError)
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    try:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if "preset" in raw:
            _check_fields(raw, "preset file", "preset", "seed")
            return preset_config(raw["preset"], seed)
        if raw.get("kind") == "classifier":
            _check_fields(raw, "classifier corpus", "kind", *_field_names(ClassifierCorpusConfig))
            return ClassifierCorpusConfig(**{k: v for k, v in raw.items() if k != "kind"} | {"seed": seed})
        _check_fields(raw, "scenario", *_field_names(ScenarioConfig))
        archetypes = []
        for arch in raw["archetypes"]:
            _check_fields(arch, "archetype", *_field_names(ScannerArchetype))
            archetypes.append(ScannerArchetype(**arch | {"labels": tuple(arch.get("labels", ()))}))
        return ScenarioConfig(**raw | {"archetypes": tuple(archetypes), "seed": seed})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _ConfigError(f"bad scenario file {path}: {exc}") from None


def _cmd_synth(args) -> int:
    params = {"preset": args.preset} if args.preset is not None else {"scenario": Path(args.scenario).name}
    # Synth writes inputs for other subcommands, which read CSV only, so
    # `--format json` does not convert them.
    run = _Run(args, params, fmt="csv")
    if args.preset is not None:
        try:
            config = preset_config(args.preset, 0 if args.seed is None else args.seed)
        except ValueError as exc:
            raise _ConfigError(str(exc)) from None
    else:
        config = _scenario_from_file(Path(args.scenario), args.seed)
    run.seed = config.seed

    classifier = isinstance(config, ClassifierCorpusConfig)
    corpus = (generate_classifier_corpus if classifier else generate)(config)
    write_feed(corpus.reports, run.artifact("feed.jsonl"))
    write_ground_truth(corpus.truth, run.artifact("truth.csv"))
    if classifier:
        for name, header, rows in (
            ("hosting_cache.csv", ("url", "ip_count", "asn_count", "asn", "country"), corpus.hosting_rows),
            ("whois_cache.csv", ("domain", "created", "expires", "registrar"), corpus.whois_rows),
        ):
            write_table(run.artifact(name), header, ([row[column] for column in header] for row in rows))
    _write_json(corpus.manifest, run.artifact("planted.json"))
    run.seal()
    print(f"{len(corpus.reports)} reports written to {run.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _bounded(kind: type, low: float, high: float | None = None, strict: bool = False):
    """An argparse type: a `kind` value of at least `low` and, with `high`,
    at most `high`; `strict` excludes both bounds. Limits that depend on the
    data are checked where the data is read."""
    above, below = (">", "<") if strict else (">=", "<=")
    domain = f"{above} {low}" + (f" and {below} {high}" if high is not None else "")

    def parse(text: str):
        value = kind(text)
        low_ok = value > low if strict else value >= low
        high_ok = high is None or (value < high if strict else value <= high)
        if not (low_ok and high_ok):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be {domain}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="scanalytics", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def inputs(p, *dests):
        for dest in dests:
            help, required, _ = _INPUTS[dest]
            p.add_argument("--" + dest.replace("_", "-"), required=required, help=help)

    def common(p, *input_dests, seed=False):
        inputs(p, *input_dests)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--threads", type=_bounded(int, 1), default=1,
            help="worker threads for classify train/ablate; other subcommands run single-threaded",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ingest", help="parse, dedup, and summarize a feed")
    common(p, "feed")
    p.add_argument("--strict", action="store_true", help="fail on the first malformed line")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("metrics", help="F-1 trends, certainty, label statistics")
    common(p, "feed", "ground_truth")
    p.add_argument("--window", type=_bounded(int, 1), default=30)
    p.add_argument("--max-offset", type=_bounded(int, 0), default=30)
    p.add_argument("--export-series", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("correlate", help="Jaccard/DTW matrices and clustering")
    common(p, "feed", "planted")
    p.add_argument("--window", type=_bounded(int, 1), default=30)
    p.add_argument("--max-offset", type=_bounded(int, 0), default=30)
    cut = p.add_mutually_exclusive_group()
    cut.add_argument("--k", type=_bounded(int, 1), default=None, help="cut dendrogram into k clusters")
    cut.add_argument("--cut-height", type=_bounded(float, 0), default=None)
    p.add_argument("--heatmaps", action="store_true", help="also emit SVG heatmaps")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("leadlag", help="early-detection matrix and leader ranking")
    common(p, "feed")
    p.add_argument("--window", type=_bounded(int, 1), default=None)
    p.set_defaults(func=_cmd_leadlag)

    p = sub.add_parser("classify", help="attack-type classifier")
    verbs = p.add_subparsers(dest="verb", required=True)

    for verb, func in (("train", _cmd_classify_train), ("ablate", _cmd_classify_ablate)):
        pv = verbs.add_parser(verb)
        common(pv, "feed", "ground_truth", "hosting_cache", "whois_cache", seed=True)
        pv.add_argument("--split", type=_bounded(float, 0, 1, strict=True), default=0.8)
        pv.add_argument("--clusters", type=_bounded(int, 2), default=15)
        pv.add_argument("--trees", type=_bounded(int, 1), default=200)
        pv.set_defaults(func=func)
    verbs.choices["train"].add_argument("--groups", nargs="+", default=list(ALL_GROUPS))
    for verb, func in (("predict", _cmd_classify_predict), ("trend", _cmd_classify_trend)):
        pv = verbs.add_parser(verb)
        common(pv, "feed", "model", "hosting_cache", "whois_cache")
        pv.set_defaults(func=func)

    p = sub.add_parser("synth", help="generate a synthetic feed")
    common(p)
    p.add_argument(
        "--seed", type=int, default=None,
        help="scenario seed; default: a --scenario file's seed, else 0",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", default=None)
    inputs(source, "scenario")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ConfigError as exc:
        print(f'ERROR code={EXIT_CONFIG} kind=config msg="{exc}"', file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f'ERROR code={EXIT_CONFIG} kind=config msg="{exc}"', file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, FeedFormatError, GroundTruthConflictError, ModelFormatError, FeatureExtractionError) as exc:
        print(f'ERROR code={EXIT_INPUT} kind=input msg="{exc}"', file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        print(f'ERROR code={EXIT_COMPUTE} kind=compute msg="{exc}"', file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
