"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps crimeminer
functions and thread pools by name; every name it looks up must still exist."""

import importlib
import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def test_every_traced_function_resolves():
    missing = [
        f"{module_name}.{fn_name}"
        for module_name, fn_name, _how in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"crimeminer.{module_name}"), fn_name, None))
    ]
    assert missing == []


def test_every_pooled_module_has_its_thread_pool():
    for module_name in tracer.POOLED:
        module = importlib.import_module(f"crimeminer.{module_name}")
        assert getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor, module_name


DATASET = Path(__file__).parent / "data" / "synthetic_crimes.jsonl"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["nb", "dt"])
def test_traced_train_and_evaluate_record_the_spans_the_benchmark_reads(tmp_path, kind, threads):
    from crimeminer import cli

    run = tracer.Tracer("test")
    calls = [
        ["train", "--dataset", str(DATASET), "--model", kind, "--output", str(tmp_path / "model.json"),
         "--eval-report", str(tmp_path / "holdout.json")],
        ["evaluate", "--dataset", str(DATASET), "--model", kind, "--folds", "5",
         "--threads", str(threads), "--output", str(tmp_path / "cv.json")],
    ]
    with run.instrument():
        for argv in calls:
            with run.span("cli.main", stage=argv[0]):
                assert cli.main(argv) == 0

    by_id = {s.id: s for s in run.spans}

    def ancestors(span):
        ids = []
        while span.parent is not None:
            ids.append(span.parent)
            span = by_id[span.parent]
        return ids

    def named(name):
        return [s for s in run.spans if s.name == name]

    for stage in named("cli.main"):
        reads = [s for s in named("preprocess.read_unified_jsonl") if stage.id in ancestors(s)]
        assert len(reads) == 1, stage.attrs
    [cv] = named("evaluate.cross_validate")
    folds = named("evaluate.fit_predict")
    assert len(folds) == 5
    assert all(cv.id in ancestors(fold) for fold in folds)
    trains = named(f"classify.{kind}_train")
    for fold in folds:
        assert sum(fold.id in ancestors(t) for t in trains) == 1


def test_traced_ingest_and_preprocess_record_the_spans_the_benchmark_reads(tmp_path):
    from crimeminer import cli

    rows = [("larceny", "6/13/14 21:30", "Five Points", "1"), ("traffic-accident", "6/13/14 9:05", "cbd", "0"),
            ("burglary", "2014-06-14 23:45:10", "baker", "true"), ("larceny", "6/31/14 1:00", "cbd", "1")]
    crimes = tmp_path / "crimes.csv"
    crimes.write_text("INCIDENT_ID,OFFENSE_CATEGORY_ID,FIRST_OCCURRENCE_DATE,NEIGHBORHOOD_ID,IS_CRIME\n"
                      + "".join(f"{i},{','.join(row)}\n" for i, row in enumerate(rows)), encoding="utf-8")
    run = tracer.Tracer("test")
    calls = [
        ["ingest", "--schema", "denver", "--input", str(crimes), "--output", str(tmp_path / "raw.jsonl"),
         "--report", str(tmp_path / "ingest.json")],
        ["preprocess", "--schema", "denver", "--input", str(tmp_path / "raw.jsonl"),
         "--output", str(tmp_path / "unified.jsonl"), "--report", str(tmp_path / "preprocess.json")],
    ]
    with run.instrument():
        for argv in calls:
            with run.span("cli.main", stage=argv[0]):
                assert cli.main(argv) == 0

    spanned = {s.name for s in run.spans}
    assert spanned >= {"ingestion.load_crime_csv", "ingestion.filter_crimes", "ingestion.write_raw_jsonl",
                       "ingestion.read_raw_jsonl", "preprocess.preprocess_dataset",
                       "preprocess.write_unified_jsonl"}
    assert (tmp_path / "unified.jsonl").read_text(encoding="utf-8").count("\n") == 2


def load_harness():
    """``perfbench/run.py``, for the names its traced run reads (it imports its siblings by name)."""
    sys.path.insert(0, str(TRACER.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", TRACER.parent / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TRACER.parent))
    return module


def test_traced_chain_records_every_span_and_count_the_benchmark_reads(tmp_path, monkeypatch):
    """Every stage, each stats mode, mine, predict with both model kinds and
    demographics included: a handler that looks a stage function up where the
    tracer does not wrap it fails here, not only in the benchmark's smoke run."""
    from crimeminer import cli
    from test_byte_identity import chain, load_feeds

    harness = load_harness()
    feed = tmp_path / "feed"
    manifest = load_feeds().generate("denver", 1000, 5, feed)
    steps = chain("denver", feed, manifest["exclude"])
    # As in the benchmark, an untraced pass first: a name bound at import
    # time then holds the unwrapped function.
    for pass_dir in ("plain", "traced"):
        (tmp_path / pass_dir).mkdir()
    monkeypatch.chdir(tmp_path / "plain")
    for argv in steps:
        assert cli.main(argv) == 0, argv
    monkeypatch.chdir(tmp_path / "traced")
    run = tracer.Tracer("test")
    with run.instrument():
        for argv in steps:
            with run.span("cli.main", stage=argv[0]):
                assert cli.main(argv) == 0, argv

    spanned = {s.name for s in run.spans}
    assert set(harness.SPANNED) <= spanned, sorted(set(harness.SPANNED) - spanned)
    counted = {}
    for span in run.spans:
        for name, (calls, _) in span.counted.items():
            counted[name] = counted.get(name, 0) + calls
    assert set(harness.PER_RECORD) == {"apriori.record_transaction", "classify.nb_predict", "classify.dt_predict"}
    assert all(counted.get(name, 0) > 0 for name in harness.PER_RECORD), counted
    stages = [s for s in run.spans if s.name == "cli.main"]
    reads = [s for s in run.spans if s.name == "preprocess.read_unified_jsonl"]
    assert len(reads) == sum(s.attrs["stage"] not in ("ingest", "preprocess", "predict") for s in stages)
