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
