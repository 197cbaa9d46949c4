"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps crimeminer
functions and thread pools by name; every name it looks up must still exist."""

import importlib
import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
