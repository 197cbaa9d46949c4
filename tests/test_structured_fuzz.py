"""Structure-aware fuzzing of every file a stage reads back: valid writer
output (an ``nb-v1`` and a ``dt-v1`` model, a raw and a unified line) is
mutated at the JSON level, and the reading stage either exits 2 with one
line or accepts it with an equal round trip."""

import contextlib
import copy
import datetime as dt
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_record
from crimeminer import classify, training
from crimeminer.cli import main
from crimeminer.preprocess import read_unified_jsonl, write_unified_jsonl
from crimeminer.rawjsonl import RawCrimeRecord, read_raw_jsonl, write_raw_jsonl
from crimeminer.synthetic import generate_synthetic_dataset


def written(write, records) -> str:
    buffer = io.StringIO()
    write(records, buffer)
    return buffer.getvalue()


def model_round_trip(text: str) -> str:
    buffer = io.StringIO()
    classify.save_model(classify.load_model(io.StringIO(text)), buffer)
    return buffer.getvalue()


RAW_RECORD = RawCrimeRecord("larceny", dt.date(2014, 6, 13), dt.time(21, 30), "five-points", True, 7)
DATASET = generate_synthetic_dataset()[:100]
# Per kind: the writer's output as JSON, the reader's round trip of a file, and the call that reads it.
KINDS = {
    "nb-v1": (classify.nb_to_json_dict(training.nb_train(DATASET)), model_round_trip,
              ["predict", "--model", "{path}", "--month", "June", "--day", "Friday", "--time", "T6",
               "--location", "cbd"]),
    "dt-v1": (classify.dt_to_json_dict(training.dt_train(DATASET, max_leaves=4)), model_round_trip,
              ["predict", "--model", "{path}", "--month", "June", "--day", "Friday", "--time", "T6",
               "--location", "cbd"]),
    "raw": (json.loads(written(write_raw_jsonl, [RAW_RECORD])),
            lambda text: written(write_raw_jsonl, read_raw_jsonl(io.StringIO(text))),
            ["preprocess", "--schema", "denver", "--input", "{path}", "--max-reject-fraction", "1"]),
    "unified": (json.loads(written(write_unified_jsonl, [make_record()])),
                lambda text: written(write_unified_jsonl, read_unified_jsonl(io.StringIO(text))),
                ["stats", "--dataset", "{path}", "--attribute", "day"]),
}
OTHER_VALUES = [None, True, False, 0, -1, 1.5, "", "x", "June", [], {}, [1], {"kind": "leaf"}]


def slots(value):
    """Every (container, key) below ``value``, in document order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in list(items):
        yield value, key
        yield from slots(child)


@st.composite
def mutated(draw, base):
    """``base`` after one to three JSON-level mutations: drop, add or rename a
    key; change a value's type; zero, negate or enlarge a number; nest a tree
    node one split deeper."""
    obj = copy.deepcopy(base)
    other = st.sampled_from(OTHER_VALUES).map(copy.deepcopy)  # a later mutation may edit an added value
    for _ in range(draw(st.integers(1, 3))):
        places = list(slots(obj))
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        value = container[key]
        how = draw(st.sampled_from(["drop", "add", "rename", "retype", "zero", "negate", "enlarge", "nest"]))
        number = type(value) in (int, float)
        if how == "drop":
            del container[key]
        elif how == "add" and isinstance(container, dict):
            container[draw(st.sampled_from(["extra", "kind", "1", "Friday", ""]))] = draw(other)
        elif how == "add":
            container.append(draw(other))
        elif how == "rename" and isinstance(container, dict):
            container[draw(st.sampled_from([f"{key}_", str(key).upper(), f"0{key}", f" {key}"]))] = container.pop(key)
        elif how in ("zero", "negate", "enlarge") and number:
            container[key] = {"zero": 0 * value, "negate": -value, "enlarge": value * 10 ** 12}[how]
        elif how == "nest" and isinstance(value, dict) and "kind" in value:
            container[key] = {"kind": "split", "feature": "month", "value": "June", "gain": 0.25,
                              "true": value, "false": copy.deepcopy(value)}
        else:
            container[key] = draw(other)
    return obj


def same(a, b) -> bool:
    """JSON values equal as ``==`` says, except that a bool equals only a bool."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    return (type(a) is bool) == (type(b) is bool) and a == b


def documents(kind: str, text: str) -> list:
    """The JSON values of a file: a model is one, a JSON Lines file one per line."""
    return [json.loads(text)] if kind in ("nb-v1", "dt-v1") else list(map(json.loads, text.splitlines()))


def file_text(kind: str, obj) -> str:
    if kind in ("nb-v1", "dt-v1"):
        return json.dumps(obj)
    good = json.dumps(KINDS[kind][0], sort_keys=True)
    return f"{good}\n{json.dumps(obj, sort_keys=True)}\n{good}\n"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_file_is_a_one_line_error_or_reads_back_as_itself(data):
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    base, round_trip, argv = KINDS[kind]
    text = file_text(kind, data.draw(mutated(base)))
    try:
        again = round_trip(text)
    except ValueError:
        again = None
    else:
        assert same(documents(kind, text), documents(kind, again)), again

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([arg.format(path=path) for arg in argv] + ["--output", str(Path(tmp) / "out")])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if again is None:
        assert code == 2, (kind, text)
    assert code in (0, 2) and (code == 0 or (err.startswith("error: ") and err.count("\n") == 1)), (kind, err)
