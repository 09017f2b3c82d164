"""Benchmark of the `scanalytics` CLI on seeded synthetic workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

With --trace 0 every subcommand runs as its own `python -m scanalytics.cli`
child, one at a time, and the run reports end-to-end metrics: set-up time
(the `synth` run that writes the inputs, repeated), the time of the whole
pipeline after set-up, and the peak RSS of the analysis children. Set-up
and pipeline passes alternate until the next pair would end past S seconds
(at least MIN_PASSES passes). `setup_s` is the median set-up and `total_s`
the sum of each subcommand's median. Both are wall times scaled to a
reference host speed, measured by `calibrate()` around every child, because
a shared host's speed can change by 2x between and within runs
(bench/README.md, "Steadiness and bounds"). Raw wall times are printed too.

With --trace 1 each pass runs the CLI pipeline once untraced and then once
more through `traced.py`, which runs the same subcommands in-process with
span recorders wrapped around the layers' public functions. The run reports
per-layer span times, memory and exact counts, plus the tracing overhead.

Every run checks the outputs (see `workloads.CHECKS`) and that artifact
digests repeat across passes (and, traced, equal the CLI's). The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload untraced and then traced; its last line
sums attempted and failed and names each metric `<workload>/<metric>`.
The exit code is 0 when every subcommand and check passed, 1 when one
failed, and 2 when the checkout holds no `src/scanalytics` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import CHECKS, WORKLOADS, Facts, cli_argv  # noqa: E402

MIN_PASSES = 4  # each followed by a set-up, so at least 5 set-ups
# Host speed. Shared hosts switch between fast and slow states, by up to 2x,
# for seconds to minutes at a time. Before and after every child the
# benchmark times a fixed loop (`calibrate`), and scales the child's wall
# time to the speed at which that loop takes CAL_REFERENCE_S.
CAL_LOOPS = 150_000
CAL_REFERENCE_S = 0.025
MIN_TRACED_PASSES = 2  # exact counts must repeat across traced passes
STARTUP_REPS = 5

# Metric names and units come from BENCHMARK.json at the checkout root. A
# per-layer time or memory figure there must be measured on every workload
# (a traced run fails if one is missing). Layer times a workload never enters
# (series, metrics, correlate, leadlag on the classifier corpus; classify.*
# on feeds) are printed in the report but kept out of BENCHMARK.json. Exact
# counts stay in: a count must be recorded exactly when a subcommand that
# produces it runs, and reads 0 on a workload that runs none of them.
SPEC_FILE = "BENCHMARK.json"
COUNT_PRODUCERS = {
    "feed": {"ingest", "metrics", "correlate", "leadlag", "classify-train", "classify-predict",
             "classify-trend"},
    "series": {"metrics", "correlate", "leadlag"},
    "correlate": {"correlate"},
    "leadlag": {"leadlag"},
    "classify": {"classify-train"},
}


def calibrate() -> float:
    """Seconds the host takes right now for a fixed pure-Python loop. No
    program code runs in it."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_LOOPS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


class Child(NamedTuple):
    wall: float  # seconds
    scaled: float  # wall seconds at the reference host speed
    calibrate: tuple[float, float]  # calibrate() just before and just after
    rss_mb: float  # ru_maxrss
    code: int
    stdout: str


class Tally:
    """Subcommand runs and checks attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED {what}", flush=True)
        return ok


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


class Bench:
    def __init__(self, root: Path, spec: dict, workload: str, seed: int, seconds: float):
        self.root = root
        self.e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        ))
        self.tally = Tally()
        self.input_digests: dict[str, dict] = {}
        calibrate()  # the first call pays for warm-up
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, args: list[str], log: Path) -> Child:
        """Run one child to completion, between two host-speed calibrations.

        stdout and stderr go to separate files, so `warning:` lines on stdout
        never mix with error lines on stderr.
        """
        log.parent.mkdir(parents=True, exist_ok=True)
        before = calibrate()
        with open(log.with_name(log.name + ".stdout"), "w+b") as out, \
                open(log.with_name(log.name + ".stderr"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace").strip()
            if proc.returncode != 0:
                print(f"child exited {proc.returncode}: {' '.join(args)}\n{stderr[-2000:]}", flush=True)
            stdout = out.read().decode("utf-8", "replace")
        after = calibrate()
        scaled = wall * CAL_REFERENCE_S / ((before + after) / 2)
        return Child(wall, scaled, (before, after), usage.ru_maxrss / 1024, proc.returncode, stdout)

    def cli(self, step: dict, out: Path) -> Child:
        return self.child([sys.executable, "-m", "scanalytics.cli", *cli_argv(step, out)], out)

    def traced_cli(self, step: dict, out: Path) -> tuple[float, int, dict]:
        trace = out.with_name(out.name + ".trace.json")
        args = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace), *cli_argv(step, out)]
        run = self.child(args, out)
        return run.wall, run.code, (json.loads(trace.read_text(encoding="utf-8")) if run.code == 0 else {})

    # -- set-up --------------------------------------------------------------

    def synth_step(self) -> dict:
        from scanalytics.scanners import SCANNER_NAMES

        scenario = self.work / "scenario.json"
        scenario.parent.mkdir(parents=True, exist_ok=True)
        scenario.write_text(json.dumps(self.workload.scenario(self.seed, SCANNER_NAMES), sort_keys=True),
                            encoding="utf-8")
        return {"cmd": "synth", "scenario": str(scenario), "seed": self.seed}

    def setup_run(self, i: int, step: dict, reference: dict) -> Child | None:
        """One `synth` run into setup<i>, or None if it failed."""
        out = self.work / f"setup{i}"
        run = self.cli(step, out)
        if not self.tally.check(run.code == 0, f"synth run {i} exits 0"):
            return None
        found = digests(out)
        self.tally.check(found == reference.setdefault("synth", found), f"synth run {i} writes the same inputs")
        return run

    def setup(self) -> tuple[dict, Path, Child]:
        """The synth step, the inputs it wrote (setup0) and its run."""
        step = self.synth_step()
        run = self.setup_run(0, step, self.input_digests)
        if run is None:
            raise SystemExit("set-up failed; no inputs to measure")
        return step, self.work / "setup0", run

    # -- one pass of the pipeline through the CLI ------------------------------

    def cli_pass(self, inputs: Path, pass_dir: Path, facts: Facts, reference: dict) -> dict:
        """Run every subcommand once; returns {step: (Child, artifact digests)}."""
        results = {}
        for name, step in self.workload.pipeline(inputs, pass_dir, self.seed):
            out = pass_dir / name
            run = self.cli(step, out)
            if not self.tally.check(run.code == 0, f"{name} exits 0"):
                continue
            if name in CHECKS:
                failures = CHECKS[name](out, run.stdout, facts)
                self.tally.check(not failures, f"{name} output check: {'; '.join(failures)}")
            found = digests(out)
            expected = reference.setdefault(name, found)
            self.tally.check(found == expected, f"{name} artifacts repeat across passes")
            results[name] = (run, found)
        return results

    def environment(self, inputs: Path) -> dict:
        import numpy

        cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                    if line.startswith("model name")), platform.processor())
        commit = None
        if (self.root / ".git").exists():
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        return {
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "workload": self.workload.name,
            "seed": self.seed, "seconds": self.seconds,
            "inputs_sha256": {p.name: sha256(p) for p in sorted(inputs.iterdir())
                              if p.is_file() and p.name != "run_manifest.json"},
        }

    # -- modes ---------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        step, inputs, first = self.setup()
        facts = Facts(inputs)
        setups = [first]
        steps: dict[str, list[Child]] = defaultdict(list)
        passes, reference = [], {}
        while True:
            pass_dir = self.work / f"pass{len(passes)}"
            results = self.cli_pass(inputs, pass_dir, facts, reference)
            for name, (run, _) in results.items():
                steps[name].append(run)
            passes.append(sum(run.wall for run, _ in results.values()))
            shutil.rmtree(pass_dir)
            # A set-up after every pass, so that set-up times sample the
            # whole run as the pipeline's do.
            run = self.setup_run(len(passes), step, self.input_digests)
            if run is not None:
                setups.append(run)
                shutil.rmtree(self.work / f"setup{len(passes)}")
            cost = statistics.median(passes) + statistics.median(run.wall for run in setups)
            if len(passes) >= MIN_PASSES and self.elapsed() + cost > self.seconds:
                break
        children = setups + [run for runs in steps.values() for run in runs]
        stats = {
            "setup_s": quartiles([run.scaled for run in setups]),
            "setup_wall_s": quartiles([run.wall for run in setups]),
            "pass_wall_s": quartiles(passes),
            "calibrate_s": quartiles([t for run in children for t in run.calibrate]),
        }
        stats.update({f"{name}_s": quartiles([run.scaled for run in runs]) for name, runs in steps.items()})
        stats["total_s"] = {"median": sum(stats[f"{name}_s"]["median"] for name in steps),
                            "note": "sum over subcommands of each one's median"}
        stats["peak_rss_mb"] = {"median": max((run.rss_mb for runs in steps.values() for run in runs), default=0.0),
                                "note": f"largest of {sum(len(runs) for runs in steps.values())} children"}
        metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in self.e2e_units.items()}
        walls = {f"{name}_s": [[run.wall, *run.calibrate] for run in runs]
                 for name, runs in [("setup", setups), *steps.items()]}
        return metrics, {"stats": stats, "env": self.environment(inputs), "digests": reference, "walls": walls}

    def traced(self) -> tuple[dict, dict]:
        startups = []
        for i in range(STARTUP_REPS):
            run = self.child([sys.executable, "-m", "scanalytics.cli", "--version"], self.work / f"startup{i}")
            if self.tally.check(run.code == 0, "scanalytics --version exits 0"):
                startups.append(run.wall)

        _, inputs, _ = self.setup()
        facts = Facts(inputs)
        synth_out = self.work / "setup-traced"
        _, code, setup_trace = self.traced_cli(self.synth_step(), synth_out)
        if self.tally.check(code == 0, "traced synth exits 0"):
            self.tally.check(digests(synth_out) == digests(inputs), "traced synth writes the CLI's inputs")
        setup_layers = aggregate([setup_trace] if setup_trace else [])

        passes, pass_walls, reference = [], [], {}
        while len(passes) < MIN_TRACED_PASSES or self.elapsed() + statistics.median(pass_walls) <= self.seconds:
            n = len(passes)
            pass_start = time.perf_counter()
            cli_results = self.cli_pass(inputs, self.work / f"pass{n}", facts, reference)
            traces, overhead = [], 0.0
            for name, step in self.workload.pipeline(inputs, self.work / f"traced{n}", self.seed):
                out = self.work / f"traced{n}" / name
                wall, code, trace = self.traced_cli(step, out)
                if not self.tally.check(code == 0, f"traced {name} exits 0"):
                    continue
                if name in cli_results:
                    self.tally.check(digests(out) == cli_results[name][1],
                                     f"traced {name} artifacts equal the CLI's")
                    # Both are child processes running the same subcommand,
                    # so start-up and interpreter teardown cancel out.
                    overhead += wall - cli_results[name][0].wall
                traces.append(trace)
            layer = aggregate(traces)
            layer["trace.overhead_s"] = overhead
            passes.append(layer)
            shutil.rmtree(self.work / f"pass{n}")
            shutil.rmtree(self.work / f"traced{n}")
            pass_walls.append(time.perf_counter() - pass_start)

        names = sorted({name for layer in passes for name in layer})
        stats = {}
        for name in names:
            values = [layer.get(name, 0) for layer in passes]
            if _unit(name) in ("count", "B"):
                self.tally.check(len(set(values)) == 1, f"count {name} repeats exactly across passes")
                values = values[:1]
            stats[name] = quartiles(values)
        stats["cli.startup_s"] = quartiles(startups)
        stats.update({name: quartiles([value]) for name, value in setup_layers.items() if name.startswith("synth.")})
        commands = {step["cmd"] for _, step in self.workload.pipeline(inputs, self.work, self.seed)}
        for name, unit in self.layer_units.items():
            if unit in ("count", "B"):
                expected = bool(commands & COUNT_PRODUCERS[name.split(".", 1)[0]])
                self.tally.check((name in stats) == expected,
                                 f"count {name} is {'' if expected else 'not '}recorded on {self.workload.name}")
            else:
                self.tally.check(name in stats, f"per-layer metric {name} is measured")
        metrics = {name: {"value": stats[name]["median"] if name in stats else 0, "unit": unit}
                   for name, unit in self.layer_units.items()}
        return metrics, {"stats": stats, "env": self.environment(inputs), "digests": reference}


def aggregate(traces: list[dict]) -> dict:
    """Per-layer totals of one traced pass: span seconds summed by name, the
    largest ru_maxrss rise of one parse or series call, and exact counts
    summed. `traced.<cmd>_s` is a whole subcommand and `traced.self_s` the
    time its subcommands spent outside every layer span."""
    out: dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, seconds in trace["seconds"].items():
            out[name + "_s"] += seconds
        out["traced.self_s"] += sum(s for name, s in trace["self_seconds"].items() if name.startswith("traced."))
        for name, mb in trace["rss_mb"].items():
            out[name] = max(out[name], mb)
        for name, value in trace["counts"].items():
            out[name] += value
    return dict(out)


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except OSError:
        return []


def report(stats: dict, env: dict, artifacts: dict, units: dict, walls: dict | None) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    print("sha256 " + json.dumps(artifacts, sort_keys=True))
    if walls:
        print("walls " + json.dumps(walls, sort_keys=True))
    for name, s in sorted(stats.items()):
        unit = units.get(name) or _unit(name)
        if "q1" in s:
            print(f"{name:34s} {s['median']:>16.6f} {unit:5s} q1 {s['q1']:.6f} q3 {s['q3']:.6f} "
                  f"spread {s['spread']:.4f} n {s['n']}")
        else:
            print(f"{name:34s} {s['median']:>16.6f} {unit:5s} {s['note']}")


def run_one(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in one mode, print its report, return the result object."""
    bench = Bench(root, spec, workload, seed, seconds)
    try:
        metrics, details = bench.traced() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = len(bench.tally.failures)
    details["stats"]["ops_failed_ratio"] = {"median": failed / bench.tally.attempted,
                                            "note": f"{failed} of {bench.tally.attempted} failed"}
    report(details["stats"], details["env"], details["digests"], {**bench.e2e_units, **bench.layer_units},
           details.get("walls"))
    return {"correct": failed == 0, "attempted": bench.tally.attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload, untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scanalytics" / "cli.py").is_file() or not (root / SPEC_FILE).is_file():
        print(f"no src/scanalytics/cli.py or {SPEC_FILE} under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / SPEC_FILE).read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    # On SIGTERM, unwind like an interrupt: the running child is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload != "all":
        result = run_one(root, spec, args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(f"== {workload} --trace {trace}", flush=True)
                results[workload, trace] = run_one(root, spec, workload, args.seed, args.seconds, trace)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}/{name}": value for (workload, _), r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
