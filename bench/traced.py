"""Run one `scanalytics` subcommand in-process with layer spans around it.

Usage: python bench/traced.py TRACE.json SCANALYTICS-ARGS...

Before calling `scanalytics.cli.main(SCANALYTICS-ARGS)`, this wraps the
public names that the CLI and the library look up at call time (module
globals such as `scanalytics.cli.parse_feed_file`, class attributes such as
`ForestModel.predict_proba`) in span recorders. The subcommand then runs the
program's own code path, so its artifacts are the CLI's by construction;
`run.py` still checks that they are byte-identical. The library source is
not modified. Span seconds, ru_maxrss rises and exact counts stay in memory
and are written to TRACE.json when the subcommand ends.

A span's seconds include any span of another name that runs inside it on
the same thread (for example `classify.forest.predict` inside
`classify.evaluate.weekly_trend`); its self seconds do not. A call into a
span that is already open on the same thread is not counted again. Spans on
worker threads (`classify.forest.tree`) sum over threads.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Summed span seconds and self seconds by name, largest ru_maxrss rise
    by key, and exact counts."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.rss_mb: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.pending: list = []  # counts to take after the subcommand ends
        self._lock = threading.Lock()
        self._open = threading.local()

    def wrap(self, fn, name: str, after=None, rss: str | None = None):
        """`fn` with a span `name`; `after(tracer, result, arguments)` runs
        outside the span, with the call's arguments bound by name."""
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names = self._open.__dict__.setdefault("names", set())
            if name in names:
                return fn(*args, **kwargs)
            stack = self._open.__dict__.setdefault("stack", [])  # seconds of each open span's children
            names.add(name)
            stack.append(0.0)
            rss0 = _maxrss_kb() if rss else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                names.discard(name)
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.seconds[name] += elapsed
                    self.self_seconds[name] += elapsed - children
            if rss:
                self.rss_mb[rss] = max(self.rss_mb[rss], (_maxrss_kb() - rss0) / 1024)
            if after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, result, bound.arguments)
            return result

        return traced


# -- count hooks ------------------------------------------------------------


def _count_feed(tr: Tracer, result, arguments) -> None:
    reports, warnings = result
    tr.counts["feed.reports"] += len(reports)
    tr.counts["feed.verdicts"] += sum(len(r.verdicts) for r in reports)
    tr.counts["feed.warnings"] += len(warnings)


def _count_series(tr: Tracer, series, arguments) -> None:
    tr.counts["series.build_calls"] += 1
    tr.counts["series.count"] += len(series)
    tr.counts["series.points"] += sum(len(ts.points) for ts in series.values())


def _pairs(matrix) -> int:
    n = len(matrix.scanners)
    return n * (n - 1) // 2


def _count_dtw(tr: Tracer, matrix, arguments) -> None:
    tr.counts["correlate.pairs"] += _pairs(matrix)
    tr.pending.append(lambda: _dtw_work(tr, arguments["series"], arguments["window"]))


def _count_leadlag(tr: Tracer, matrix, arguments) -> None:
    tr.counts["leadlag.pairs"] += _pairs(matrix)


def _count_forest(tr: Tracer, result, arguments) -> None:
    model = arguments["model"]
    tr.counts["classify.forest.trees"] += len(model.trees)
    tr.counts["classify.forest.nodes"] += sum(len(tree.feature) for tree in model.trees)
    tr.counts["classify.forest.model_bytes"] += Path(arguments["path"]).stat().st_size


def _dtw_work(tr: Tracer, series, window: int | None) -> None:
    """Count the (pair, URL) alignments scanner_dtw_matrix runs and their
    L x L cells; computed here from the series, not counted by the library."""
    observed: dict[tuple[str, str], set[int]] = {}
    detects: dict[str, set[str]] = {}
    for (scanner, url), ts in series.items():
        points = [p for p in ts.points if window is None or p.day_offset < window]
        observed[(scanner, url)] = {p.day_offset for p in points}
        if any(p.bl == 1 for p in points):
            detects.setdefault(scanner, set()).add(url)
    order = sorted({scanner for scanner, _ in series})
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            for url in detects.get(a, set()) & detects.get(b, set()):
                length = len(observed[(a, url)] | observed[(b, url)])
                tr.counts["correlate.dtw_alignments"] += 1
                tr.counts["correlate.dtw_cells"] += length * length


# -- what is wrapped --------------------------------------------------------

# Artifact writers; their span is `<layer>.write`, by subcommand.
WRITERS = (
    "_write_json", "write_feed", "write_ground_truth", "write_f1_csv", "write_certainty_csv",
    "write_label_hist_csv", "write_url_label_cdf_csv", "write_matrix_csv", "write_trend_csv",
    "write_ranking_csv", "write_eval_csv", "write_weekly_trend_csv",
)
WRITE_LAYER = {"synth": "synth", "metrics": "metrics", "correlate": "correlate", "leadlag": "leadlag"}


def install(tr: Tracer, command: str) -> None:
    import scanalytics.classify.evaluate as evaluate
    import scanalytics.classify.forest as forest
    import scanalytics.cli as cli

    # (owner, attribute, span, count hook, rss key). Each owner is where the
    # caller looks the name up: cli.py's imports, or the module whose own
    # functions call it.
    table = [
        (cli, "main", "traced." + command, None, None),
        (cli, "parse_feed_file", "feed.parse", _count_feed, "feed.parse_rss_mb"),
        (cli, "dedup_by_scan_id", "feed.dedup", None, None),
        (cli, "filter_ever_detected", "feed.cohort", None, None),
        (cli.FeedCohort, "build", "feed.cohort", None, None),
        (cli, "extract_fresh", "feed.fresh", None, None),
        (cli, "load_ground_truth", "feed.truth", None, None),
        (cli, "build_series", "series.build", _count_series, "series.rss_mb"),
        (cli, "f1_by_offset", "metrics.f1", None, None),
        (cli, "certainty_scores", "metrics.certainty", None, None),
        (cli, "label_count_distribution", "metrics.label_hist", None, None),
        (cli, "url_label_stats", "metrics.url_stats", None, None),
        (cli, "jaccard_binary", "correlate.jaccard", None, None),
        (cli, "jaccard_detailed", "correlate.jaccard", None, None),
        (cli, "frobenius_trend", "correlate.frobenius", None, None),
        (cli, "scanner_dtw_matrix", "correlate.dtw", _count_dtw, None),
        (cli, "hierarchical_cluster", "correlate.cluster", None, None),
        (cli, "adjusted_rand_index", "correlate.cluster", None, None),
        (cli, "first_detection_index", "leadlag.first_detection", None, None),
        (cli, "early_detection_matrix", "leadlag.early_matrix", _count_leadlag, None),
        (cli, "leader_ranking", "leadlag.ranking", None, None),
        (cli, "build_cluster_model", "classify.factors.fit", None, None),
        (cli.HostingCache, "from_csv", "classify.features.cache_load", None, None),
        (cli.WhoisCache, "from_csv", "classify.features.cache_load", None, None),
        (cli, "extract_features", "classify.features.extract", None, None),
        (cli, "feature_matrix", "classify.features.matrix", None, None),
        (evaluate, "feature_matrix", "classify.features.matrix", None, None),
        (evaluate, "train_forest_model", "classify.forest.train", None, None),
        (forest, "_build_tree", "classify.forest.tree", None, None),
        (forest.ForestModel, "predict_proba", "classify.forest.predict", None, None),
        (cli, "save_forest", "classify.forest.save", _count_forest, None),
        (cli, "load_forest", "classify.forest.load", None, None),
        (cli, "evaluate_predictions", "classify.evaluate.eval", None, None),
        (evaluate, "evaluate_predictions", "classify.evaluate.eval", None, None),
        (cli, "majority_vote_class", "classify.evaluate.eval", None, None),
        (cli, "weekly_trend", "classify.evaluate.weekly_trend", None, None),
        (cli, "generate", "synth.generate", None, None),
        (cli, "generate_classifier_corpus", "synth.generate", None, None),
        (cli._Run, "add_input", "cli.manifest", None, None),
        (cli._Run, "seal", "cli.manifest", None, None),
    ]
    write_span = WRITE_LAYER.get(command, "cli") + ".write"
    table += [(cli, name, write_span, None, None) for name in WRITERS]

    for owner, attr, span, after, rss in table:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tr.wrap(raw.__func__, span, after, rss)))
        else:
            setattr(owner, attr, tr.wrap(raw, span, after, rss))


def main(trace_path: str, argv: list[str]) -> int:
    import scanalytics.cli as cli

    command = argv[0] if argv[0] != "classify" else "classify-" + argv[1]
    tr = Tracer()
    install(tr, command)
    code = cli.main(argv)
    for count in tr.pending:
        count()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": tr.seconds, "self_seconds": tr.self_seconds, "rss_mb": tr.rss_mb,
                   "counts": tr.counts}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
