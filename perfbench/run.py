"""crimeminer benchmark: CLI stage times on seeded city feeds.

    python3 perfbench/run.py --workload denver-pipeline --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/crimeminer``. A run writes its feed from
``--seed``, runs every CLI stage as a subprocess in rounds until ``--seconds``
have passed (at least four rounds), checks every output, prints one line per
metric and then one JSON object as the last line. With ``--trace 1`` it
drives the stages in-process through ``crimeminer.cli.main`` with spans
around each module's functions and reports the per-layer metrics instead.
Details (machine facts, quartiles, sample counts, output hashes, the feed
manifest, self time per span) go to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import feeds
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "_results"
RUN_BUDGET_S = 170  # the contract allows 180 s per run
MIN_ROUNDS = 4
SETUP_REPEATS = 9
FOLDS = 5
CLI = "import sys; from crimeminer.cli import main; sys.exit(main())"
# Starts each CLI call and reports its wall time, exit code and ru_maxrss. A
# child's ru_maxrss includes the high-water RSS of the process that spawned
# it, so CLI calls are spawned from this small process, started while the
# benchmark is still small, rather than from the benchmark itself.
SPAWNER = """
import json, os, sys, time
for line in sys.stdin:
    job = json.loads(line)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out, err = os.open(job["stdout"], flags, 0o644), os.open(job["stderr"], flags, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, job["argv"], os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(out)
    os.close(err)
    print(json.dumps({"wall": wall, "code": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss}), flush=True)
"""

CHAIN_STAGES = ("ingest", "preprocess", "stats", "mine", "train_nb", "train_dt",
                "evaluate_nb", "evaluate_dt", "demographics")
STAGES = (*CHAIN_STAGES, "predict")
MONTHS = ("January", "February", "March", "April", "May", "June", "July", "August",
          "September", "October", "November", "December")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    city: str
    rows: int  # raw feed rows
    threads: int
    min_sup: float
    setup: tuple[str, ...]  # stages before the timed rounds; setup_s is their median total
    rounds: tuple[str, ...]  # stages of one timed round, followed by the predicts
    predicts: int  # predict requests per round
    tail_pct: int  # MIN_ROUNDS rounds leave at least 10 predict samples beyond it

    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(s for s in (*self.setup, *self.rounds) if s != "help")


WORKLOADS = {w.name: w for w in (
    Workload("denver-pipeline",
             "the paper's Denver operating point: every stage serial, each analytic stage re-reads the unified JSONL",
             "denver", 10000, 1, 0.0012, ("help",), CHAIN_STAGES, 9, 70),
    Workload("la-parallel",
             "LA parse branch, 117-entry mapping, 4x smaller location vocabulary, and the --threads 2 paths of mine and evaluate",
             "la", 8000, 2, 0.0018, ("help",), CHAIN_STAGES, 9, 70),
    Workload("predict-loop",
             "interactive use on small input: interpreter start, import and model load dominate each invocation",
             "denver", 4000, 1, 0.0012, ("ingest", "preprocess", "train_nb", "train_dt"),
             ("stats", "mine", "evaluate_nb", "evaluate_dt", "demographics"), 26, 90),
)}

END_TO_END = (("setup_s", "s"), ("chain_s", "s"), *((f"{s}_s", "s") for s in CHAIN_STAGES),
              ("predict_p50_ms", "ms"), ("predict_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-layer timings: spans measured per call, and per-record functions summed.
SPANNED = ("ingestion.load_crime_csv", "ingestion.write_raw_jsonl", "ingestion.read_raw_jsonl",
           "ingestion.load_demographics_csv", "preprocess.preprocess_dataset",
           "preprocess.write_unified_jsonl", "preprocess.read_unified_jsonl",
           "stats.frequency_table", "stats.crosstab", "stats.top_and_bottom_locations",
           "apriori.mine_hotspot_patterns", "apriori.mine_frequent",
           "classify.split_train_test", "classify.nb_train", "classify.dt_train",
           "classify.save_model", "classify.load_model",
           "demographics.crime_rate_by_location", "demographics.compare_groups")
PER_RECORD = {"classify.nb_predict": "us", "classify.dt_predict": "us",
              "apriori.record_transaction": "s"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = [("cli.startup_ms", "ms", "lower")]
    names += [(f"cli.self_s.{stage}", "s", "lower") for stage in STAGES]
    names += [(f"cli.peak_rss_mb.{stage}", "MB", "lower") for stage in STAGES]
    names += [(f"{name}_s", "s", "lower") for name in SPANNED]
    names += [("ingestion.rows_per_s", "1/s", "higher"), ("ingestion.accept_ratio", "ratio", "higher"),
              ("preprocess.read_unified_jsonl.calls", "count", "lower")]
    names += [(f"{name}_{unit}", unit, "lower") for name, unit in PER_RECORD.items()]
    names += [(f"{name}.calls", "count", "lower") for name in PER_RECORD]
    for kind in ("nb", "dt"):
        names += [(f"evaluate.cross_validate_s.{kind}", "s", "lower"),
                  (f"evaluate.fold_s.median.{kind}", "s", "lower"),
                  (f"evaluate.fold_s.max.{kind}", "s", "lower")]
    names += [("evaluate.parallel_busy_ratio", "ratio", "higher"),
              ("trace.overhead_ratio", "ratio", "lower")]
    return names


class Stopped(Exception):
    """The run hit its time budget or was asked to terminate."""


# Host-speed probe, timed once per round and kept in the details file only: on
# a shared VM the same work can take over 2x longer for minutes at a time, and
# the probe shows whether a run fell into such a phase.
_PROBE_LINE = json.dumps({"day": "Friday", "hour": 18, "location": "five-points", "month": "March",
                          "time": "T5", "type": "Theft", "type_id": 5, "year": 2014})


def probe() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for _ in range(4000):
        record = json.loads(_PROBE_LINE)
        key = (record["location"], record["day"], record["time"])
        counts[key] = counts.get(key, 0) + record["hour"]
    return time.perf_counter() - start


def describe(values: list[float], value: str = "median") -> dict:
    """Median, mean, quartiles, count and samples; ``value`` names the reported one."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    summary = {"median": median, "mean": statistics.fmean(values), "q1": q1, "q3": q3,
               "n": len(values), "samples": values}
    return {"value": summary[value], **summary}


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, len(ordered) * pct // 100)]


# --- stage commands ------------------------------------------------------------------

def stage_commands(stage: str, wl: Workload, manifest: dict, feed: Path, out: Path,
                   threads: int) -> list[list[str]]:
    """CLI arguments of one stage; ``stats`` is its three modes."""
    unified = str(out / "unified.jsonl")
    kind = stage.rpartition("_")[2]
    if stage == "help":
        return [["--help"]]
    if stage == "ingest":
        excludes = [arg for category in manifest["exclude"] for arg in ("--exclude", category)]
        return [["ingest", "--schema", wl.city, "--input", str(feed / "crimes.csv"),
                 "--output", str(out / "raw.jsonl"), "--report", str(out / "ingest_report.json"),
                 *excludes]]
    if stage == "preprocess":
        return [["preprocess", "--schema", wl.city, "--input", str(out / "raw.jsonl"),
                 "--output", unified, "--report", str(out / "preprocess_report.json")]]
    if stage == "stats":
        return [["stats", "--dataset", unified, "--attribute", "day", "--year", "2014",
                 "--output", str(out / "stats_day_2014.csv")],
                ["stats", "--dataset", unified, "--rows", "type", "--cols", "day",
                 "--output", str(out / "stats_type_by_day.csv")],
                ["stats", "--dataset", unified, "--top", "3", "--middle", "4", "--bottom", "3",
                 "--output", str(out / "stats_locations.csv")]]
    if stage == "mine":
        return [["mine", "--dataset", unified, "--min-sup", str(wl.min_sup),
                 "--threads", str(threads), "--output", str(out / "patterns.csv")]]
    if stage.startswith("train_"):
        return [["train", "--dataset", unified, "--model", kind, "--seed", "42",
                 "--output", str(out / f"model_{kind}.json"),
                 "--eval-report", str(out / f"holdout_{kind}.json")]]
    if stage.startswith("evaluate_"):
        return [["evaluate", "--dataset", unified, "--model", kind, "--folds", str(FOLDS),
                 "--seed", "42", "--threads", str(threads),
                 "--output", str(out / f"cv_{kind}.json"), "--csv", str(out / f"cv_{kind}.csv")]]
    if stage == "demographics":
        return [["demographics", "--dataset", unified, "--demographics",
                 str(feed / "demographics.csv"), "--output", str(out / "groups.csv"),
                 "--json", str(out / "groups.json")]]
    raise ValueError(f"unknown stage {stage}")


def predict_requests(seed: int, city: str, count: int) -> list[dict]:
    rng = random.Random(f"requests-{seed}")
    locations = feeds.location_keys(city)
    return [{"model": ("nb", "dt")[i % 2], "month": rng.choice(MONTHS),
             "day": rng.choice(checks.WEEKDAYS), "time": rng.choice(checks.TIME_BINS),
             "location": rng.choice(locations)}
            for i in range(count)]


def predict_command(request: dict, out: Path) -> list[str]:
    return ["predict", "--model", str(out / f"model_{request['model']}.json"),
            "--month", request["month"], "--day", request["day"], "--time", request["time"],
            "--location", request["location"]]


def check_outputs(stages, wl: Workload, manifest: dict, out: Path) -> list[list[str]]:
    """Problem lists, one per stage checked."""
    found = []
    records = checks.load_unified(out / "unified.jsonl")
    for stage in dict.fromkeys(stages):
        kind = stage.rpartition("_")[2]
        if stage == "ingest":
            found.append(checks.check_ingest(out, manifest))
        elif stage == "preprocess":
            found.append(checks.check_preprocess(out))
        elif stage == "stats":
            found.append(checks.check_stats(out, records))
        elif stage == "mine":
            found.append(checks.check_patterns(out, records, wl.min_sup))
        elif stage.startswith("train_"):
            found.append(checks.check_train(out, kind))
        elif stage.startswith("evaluate_"):
            found.append(checks.check_cv(out, kind, len(records), FOLDS))
        elif stage == "demographics":
            found.append(checks.check_demographics(out, records))
    return found


# --- the program under test ----------------------------------------------------------

def import_program() -> dict:
    """Import crimeminer from this checkout's ``src`` and from nowhere else."""
    import importlib

    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"crimeminer.{name}")
               for name in ("cli", "classify", "preprocess")}
    where = Path(modules["cli"].__file__).resolve()
    if where != (SRC / "crimeminer" / "cli.py").resolve():
        raise SystemExit(f"crimeminer was imported from {where}, not from {SRC}")
    return modules


class Runner:
    """Runs CLI subprocesses one at a time and keeps the tally of operations."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", "-c", SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=self.env, cwd=ROOT, start_new_session=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run(self, argv: list[str]) -> tuple[float, float, str]:
        """Wall seconds, peak RSS in MB and stdout of one CLI invocation."""
        stdout_path, stderr_path = self.work / "stdout.txt", self.work / "stderr.txt"
        job = {"argv": [sys.executable, "-c", CLI, *argv],
               "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        done = json.loads(self.spawner.stdout.readline())
        wall, code = done["wall"], done["code"]
        self.attempted += 1
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            self.fail([f"crimeminer {argv[0]} exited {code}: {stderr.strip()[-300:]}"])
        elif "Traceback" in stderr:
            self.fail([f"crimeminer {argv[0]} printed a traceback"])
        return wall, done["maxrss_kb"] / 1024, stdout_path.read_text(encoding="utf-8")

    def stage(self, stage: str, wl: Workload, manifest: dict, feed: Path, out: Path,
              samples: dict, rss: dict, threads: int | None = None) -> float:
        total = 0.0
        for argv in stage_commands(stage, wl, manifest, feed, out, threads or wl.threads):
            wall, peak, _ = self.run(argv)
            total += wall
            rss[stage] = max(rss.get(stage, 0.0), peak)
        samples.setdefault(stage, []).append(total)
        return total

    def predicts(self, cm: dict, requests: list[dict], out: Path, samples: dict, rss: dict) -> None:
        for request in requests:
            wall, peak, stdout = self.run(predict_command(request, out))
            samples.setdefault("predict", []).append(wall)
            rss["predict"] = max(rss.get("predict", 0.0), peak)
            try:
                got = json.loads(stdout)
            except ValueError:
                got = stdout
            expected = checks.expected_prediction(cm, out / f"model_{request['model']}.json", request)
            if got != expected:
                self.fail([f"predict {request} printed {got!r}, the library gives {expected}"])

    def close(self, kill: bool = False) -> None:
        """Stop the spawner; ``kill`` also ends a CLI call still running in its group."""
        if kill:
            os.killpg(self.spawner.pid, signal.SIGKILL)
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()


# --- end-to-end run (tracing off) ------------------------------------------------------

def end_to_end(wl: Workload, seed: int, seconds: float, work: Path, runner: Runner, cm: dict,
               manifest: dict) -> tuple[dict, dict]:
    feed, out = work / "feed", work / "out"
    samples: dict[str, list[float]] = {}
    rss: dict[str, float] = {}
    setup = [sum(runner.stage(stage, wl, manifest, feed, out, samples, rss) for stage in wl.setup)
             for _ in range(SETUP_REPEATS if wl.setup == ("help",) else MIN_ROUNDS)]
    rss.pop("help", None)
    if "ingest" in wl.setup:
        for problems in check_outputs(wl.setup, wl, manifest, out):
            runner.fail(problems)

    requests = predict_requests(seed, wl.city, wl.predicts)
    hashes: list[dict] = []
    probes: list[float] = []
    start = time.perf_counter()
    while len(hashes) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        probes.append(1000 * probe())
        for stage in wl.rounds:
            runner.stage(stage, wl, manifest, feed, out, samples, rss)
        runner.predicts(cm, requests, out, samples, rss)
        for problems in check_outputs(wl.rounds, wl, manifest, out):
            runner.fail(problems)
        hashes.append(checks.output_hashes(out))
        if hashes[-1] != hashes[0]:
            runner.fail([f"round {len(hashes) - 1} outputs differ from round 0"])

    if wl.threads > 1:
        # Outside every timed region: the threaded stages again with --threads 1.
        serial = work / "serial"
        serial.mkdir()
        shutil.copy(out / "unified.jsonl", serial / "unified.jsonl")
        for stage in ("mine", "evaluate_nb", "evaluate_dt"):
            runner.stage(stage, wl, manifest, feed, serial, {}, {}, threads=1)
        for name in ("patterns.csv", "patterns.summary.json", "cv_nb.json", "cv_nb.csv",
                     "cv_dt.json", "cv_dt.csv"):
            if checks.sha256(out / name) != checks.sha256(serial / name):
                runner.fail([f"{name} with --threads {wl.threads} differs from --threads 1"])

    # A stage's time is its mean over the rounds, so chain_s is the mean chain
    # time. The host alternates between fast and up to 2x slower phases, and the
    # median of a few rounds jumps between them where the mean moves smoothly.
    stage_stats = {stage: describe(samples[stage], "mean") for stage in CHAIN_STAGES}
    predict_ms = [1000 * s for s in samples["predict"]]
    metrics = {
        "setup_s": describe(setup),
        "chain_s": {"value": sum(s["value"] for s in stage_stats.values()),
                    "of": "sum of the stage means"},
        **{f"{stage}_s": stage_stats[stage] for stage in CHAIN_STAGES},
        "predict_p50_ms": describe(predict_ms),
        "predict_tail_ms": {"value": percentile(predict_ms, wl.tail_pct),
                            "percentile": wl.tail_pct, "n": len(predict_ms)},
        "peak_rss_mb": {"value": max(rss.values()), "by_stage": rss},
    }
    return metrics, {"rounds": len(hashes), "output_sha256": hashes[0],
                     "host_probe_ms": describe(probes), "counters": checks.counters(out)}


# --- traced run ------------------------------------------------------------------------

def in_process_pass(cm: dict, wl: Workload, manifest: dict, feed: Path, out: Path,
                    requests: list[dict], runner: Runner, tracer: Tracer | None) -> dict:
    """Every stage once through ``cli.main``; returns wall seconds per stage."""
    walls: dict[str, float] = {}

    def call(stage: str, argv: list[str]) -> None:
        start = time.perf_counter()
        if tracer is None:
            code = cm["cli"].main(argv)
        else:
            with tracer.span("cli.main", stage=stage):
                code = cm["cli"].main(argv)
        walls[stage] = walls.get(stage, 0.0) + time.perf_counter() - start
        runner.attempted += 1
        if code != 0:
            runner.fail([f"in-process crimeminer {argv[0]} exited {code}"])

    for stage in wl.stages:
        for argv in stage_commands(stage, wl, manifest, feed, out, wl.threads):
            call(stage, argv)
    for request in requests:
        call("predict", [*predict_command(request, out), "--output", str(out / "predict.json")])
    return walls


def traced(wl: Workload, seed: int, seconds: float, work: Path, runner: Runner, cm: dict,
           manifest: dict) -> tuple[dict, dict]:
    feed, out = work / "feed", work / "out"
    # A subprocess pass with tracing off gives the no-work start-up, each stage's
    # peak RSS, and the outputs every in-process pass must reproduce.
    startup = [runner.run(["--help"])[0] for _ in range(SETUP_REPEATS)]
    rss: dict[str, float] = {}
    for stage in wl.stages:
        runner.stage(stage, wl, manifest, feed, out, {}, rss)
    for problems in check_outputs(wl.stages, wl, manifest, out):
        runner.fail(problems)
    reference = checks.output_hashes(out)
    requests = predict_requests(seed, wl.city, wl.predicts)
    runner.predicts(cm, requests, out, {}, rss)

    plain, timed, passes = [], [], []
    tracer = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for mode in ("plain", "traced"):
            pass_out = work / mode
            pass_out.mkdir(exist_ok=True)
            tracer = Tracer(wl.name) if mode == "traced" else None
            if tracer is None:
                walls = in_process_pass(cm, wl, manifest, feed, pass_out, requests, runner, None)
                plain.append(sum(walls[s] for s in CHAIN_STAGES))
            else:
                with tracer.instrument():
                    walls = in_process_pass(cm, wl, manifest, feed, pass_out, requests, runner, tracer)
                timed.append(sum(walls[s] for s in CHAIN_STAGES))
                passes.append(layer_metrics(tracer, wl, pass_out))
            got = checks.output_hashes(pass_out)
            differing = sorted(name for name in reference if got.get(name) != reference[name])
            if differing:
                runner.fail([f"{mode} in-process outputs differ from the subprocess run: {differing}"])
    RESULTS.mkdir(exist_ok=True)
    tracer.write_jsonl(RESULTS / f"{wl.name}-seed{seed}-spans.jsonl")

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["cli.startup_ms"] = 1000 * statistics.median(startup)
    metrics.update({f"cli.peak_rss_mb.{stage}": rss[stage] for stage in STAGES})
    metrics["trace.overhead_ratio"] = statistics.median(timed) / statistics.median(plain)
    detail = {"chain_s_traced": timed, "chain_s_untraced": plain,
              "self_s_by_span": self_time_table(tracer), "output_sha256": reference,
              "counters": checks.counters(out)}
    return metrics, detail


def self_time_table(tracer: Tracer) -> dict:
    own = self_times(tracer.spans)
    table: dict[str, dict] = {}

    def add(name: str, calls: int, total: float, self_s: float) -> None:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["total_s"] += total
        row["self_s"] += self_s

    for span in tracer.spans:
        stage = span.attrs.get("stage")
        add(f"cli.main.{stage}" if stage else span.name, 1, span.seconds, own[span.id])
        for name, (calls, seconds) in span.counted.items():
            add(name, calls, seconds, seconds)
    return dict(sorted(table.items()))


def layer_metrics(tracer: Tracer, wl: Workload, out: Path) -> dict[str, float]:
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def under(span, ids: set[int]) -> bool:
        while span.parent is not None:
            if span.parent in ids:
                return True
            span = by_id[span.parent]
        return False

    metrics: dict[str, float] = {}
    for stage in STAGES:
        selfs = [own[s.id] for s in by_name["cli.main"] if s.attrs["stage"] == stage]
        metrics[f"cli.self_s.{stage}"] = statistics.median(selfs) if stage == "predict" else sum(selfs)
    for name in SPANNED:
        calls = by_name[name]
        metrics[f"{name}_s"] = sum(s.seconds for s in calls) / len(calls)
    metrics["preprocess.read_unified_jsonl.calls"] = len(by_name["preprocess.read_unified_jsonl"])
    for name, unit in PER_RECORD.items():
        calls = sum(s.counted.get(name, (0, 0.0))[0] for s in spans)
        seconds = sum(s.counted.get(name, (0, 0.0))[1] for s in spans)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}_{unit}"] = seconds if unit == "s" else 1e6 * seconds / calls
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    metrics["ingestion.rows_per_s"] = report["rows_read"] / by_name["ingestion.load_crime_csv"][0].seconds
    metrics["ingestion.accept_ratio"] = report["rows_accepted"] / report["rows_read"]
    busy = capacity = 0.0
    for kind in ("nb", "dt"):
        stage_ids = {s.id for s in by_name["cli.main"] if s.attrs["stage"] == f"evaluate_{kind}"}
        cvs = [s for s in by_name["evaluate.cross_validate"] if under(s, stage_ids)]
        cv_ids = {s.id for s in cvs}
        folds = [s.seconds for s in by_name["evaluate.fit_predict"] if under(s, cv_ids)]
        cv_seconds = sum(s.seconds for s in cvs)
        metrics[f"evaluate.cross_validate_s.{kind}"] = cv_seconds
        metrics[f"evaluate.fold_s.median.{kind}"] = statistics.median(folds)
        metrics[f"evaluate.fold_s.max.{kind}"] = max(folds)
        busy += sum(folds)
        capacity += wl.threads * cv_seconds
    metrics["evaluate.parallel_busy_ratio"] = busy / capacity
    return metrics


# --- entry point -------------------------------------------------------------------------

def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu,
            "platform": platform.platform(), "loadavg_at_start": os.getloadavg()}


def scaled(wl: Workload, scale: float) -> Workload:
    if scale == 1.0:
        return wl
    return replace(wl, rows=max(300, int(wl.rows * scale)), predicts=max(2, int(wl.predicts * scale)))


def _stop(signum, frame):
    raise Stopped(f"stopped by {signal.Signals(signum).name} (the time budget is {RUN_BUDGET_S} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink feeds and predict counts (the smoke test uses 0.05)")
    args = parser.parse_args(argv)
    if not (SRC / "crimeminer" / "cli.py").is_file():
        print(f"error: {SRC}/crimeminer not found; run from a crimeminer checkout", file=sys.stderr)
        return 2
    wl = scaled(WORKLOADS[args.workload], args.scale)
    facts = machine_facts()
    work = HERE / "_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(RUN_BUDGET_S)
    try:
        cm = import_program()
        manifest = feeds.generate(wl.city, wl.rows, args.seed, work / "feed")
        (work / "out").mkdir()
        measure = traced if args.trace else end_to_end
        metrics, detail = measure(wl, args.seed, args.seconds, work, runner, cm, manifest)
    except Stopped as exc:
        runner.close(kill=True)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        if runner.spawner.returncode is None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        units = dict(END_TO_END)
        reported = {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in units.items()}
    error_rate = runner.failed / runner.attempted
    result = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": facts, "feed": manifest,
        "rows": wl.rows, "threads": wl.threads, "min_sup": wl.min_sup,
        "attempted": runner.attempted, "failed": runner.failed, "error_rate": error_rate,
        "problems": runner.problems[:50], "metrics": metrics, **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {wl.name} seed={args.seed} rows={wl.rows} threads={wl.threads} "
          f"nproc={facts['nproc']} python={facts['python']} load={facts['loadavg_at_start'][0]:.2f}")
    for name, unit in units.items():
        entry = metrics[name]
        if isinstance(entry, dict) and "q1" in entry:
            spread = f"  q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  n={entry['n']}"
        elif isinstance(entry, dict) and "percentile" in entry:
            spread = f"  p{entry['percentile']}  n={entry['n']}"
        else:
            spread = ""
        print(f"{name:42s} {reported[name]['value']:14.6f} {unit}{spread}")
    for name, count in detail["counters"].items():
        print(f"{name:42s} {count:14d} count")
    print(f"{'error_rate':42s} {error_rate:14.6f} ratio  failed {runner.failed} of {runner.attempted}")
    for problem in runner.problems[:10]:
        print(f"# problem: {problem}")
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
