"""The JSON Lines writers and readers against plain ``json`` oracles.

The writers must give the bytes of one ``json.dumps(..., sort_keys=True)``
per record. The readers must give what one plain ``json.loads`` per line
gives (``conftest.reference_read_*``): the same records, or the same error.
"""

import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reference_read_raw_jsonl, reference_read_unified_jsonl
from crimeminer.ingestion import (
    RawCrimeRecord,
    raw_from_json_dict,
    raw_to_json_dict,
    read_raw_jsonl,
    write_raw_jsonl,
)
from crimeminer import preprocess
from crimeminer.preprocess import (
    MONTH_NAMES,
    WEEKDAY_NAMES,
    CrimeCategory,
    TimeBin,
    UnifiedCrimeRecord,
    read_jsonl,
    read_unified_jsonl,
    unified_from_json_dict,
    unified_to_json_dict,
    write_unified_jsonl,
)

# --- writers ------------------------------------------------------------------

# Free text with what JSON must escape: quotes, backslashes, control
# characters, and non-ASCII text up to astral planes and lone surrogates.
FREE_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x08\x1f\x7f \xe9\u20ac\U0001F600\ud800')))

raw_records = st.builds(RawCrimeRecord, FREE_TEXT, st.dates(), st.none() | st.times(), FREE_TEXT,
                        st.sampled_from([True, False, None, 1]), st.integers())
unified_records = st.builds(UnifiedCrimeRecord, st.sampled_from(CrimeCategory), st.sampled_from(MONTH_NAMES),
                            st.sampled_from(WEEKDAY_NAMES), st.sampled_from(TimeBin), FREE_TEXT, st.integers(),
                            st.integers(0, 23))


def written(write, records) -> str:
    buffer = io.StringIO()
    write(records, buffer)
    return buffer.getvalue()


@given(st.lists(raw_records, max_size=8))
def test_raw_writer_gives_the_json_dumps_bytes(records):
    assert written(write_raw_jsonl, records) == "".join(
        json.dumps(raw_to_json_dict(r), sort_keys=True) + "\n" for r in records)


@given(st.lists(unified_records, max_size=8))
def test_unified_writer_gives_the_json_dumps_bytes(records):
    assert written(write_unified_jsonl, records) == "".join(
        json.dumps(unified_to_json_dict(r), sort_keys=True) + "\n" for r in records)


# --- readers ------------------------------------------------------------------

RAW = {"category": "larceny", "date": "2014-06-13", "time": "21:30", "location": "five-points",
       "is_crime": True, "source_row": 7}
UNIFIED = {"type": "Theft", "type_id": 5, "month": "June", "day": "Friday", "time": "T6",
           "location": "cbd", "year": 2014, "hour": 21}

# Per key, values a record may hold: two good ones, then near misses. Small
# pools, so that a file repeats values, as the readers' memos see in real files.
RAW_VALUES = {
    "category": ["larceny", "burglary", "", 5],
    "date": ["2014-06-13", "2015-01-02", "2014-02-30", "6/13/14", 20140613, None],
    "time": ["21:30", "00:05", "21:30:00", "7:5", "24:00", "", None, 2130],
    "location": ["five-points", "cbd", 7],
    "is_crime": [True, None, False, 1, "yes"],
    "source_row": [7, 0, "8", 7.5, True],
}
UNIFIED_VALUES = {
    "type": ["Theft", "Theft", "theft", "Assault", 5],
    "type_id": [5, 5, 1, "5", 5.0, True, 9],
    "month": ["June", "March", "june", "Juneteenth"],
    "day": ["Friday", "Monday", "Fri"],
    "time": ["T6", "T6", "T1", "t6", "T7"],
    "location": ["cbd", "five-points", " cbd ", "   ", 7],
    "year": [2014, -1, 2014.0, "2014"],
    "hour": [21, 22, 0, 24, True, 20.5],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def record_text(draw, base, pools):
    obj = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(base)), max_size=3, unique=True)):
        if draw(st.integers(0, 5)) == 0:
            del obj[key]
        else:
            obj[key] = draw(st.sampled_from(pools[key]) | json_values)
    return json.dumps(obj, sort_keys=draw(st.booleans()))


@st.composite
def good_record_text(draw, base, pools):
    """A record with each value drawn from the first two, good, in its pool."""
    return json.dumps({key: draw(st.sampled_from(pools[key][:2])) for key in base}, sort_keys=True)


BLANKISH = ["", " ", "\t", "\x0c", " \x0c ", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
CORRUPTIONS = list(' \t\n\r\x0c{}[],:"\\0xN') + ["NaN", "\ufeff", '{"a": ', "}\n{"]


@st.composite
def jsonl_files(draw, base, pools):
    """A JSON Lines text: half of them good records and blank lines, the
    others also other values, and corrupted by a few inserted or deleted
    characters."""
    clean = draw(st.booleans())
    line = good_record_text(base, pools) | st.sampled_from(BLANKISH)
    if not clean:
        line |= record_text(base, pools) | json_values.map(json.dumps)
    lines = draw(st.lists(line, max_size=6))
    text = "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r", " \n"])) for line in lines)
    for _ in range(0 if clean else draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(CORRUPTIONS)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
    return text


def outcome(read, text: str, newline) -> str:
    """What ``read`` makes of ``text``: the records' repr (which tells 1 from
    True) or the error's type and text."""
    try:
        return repr(read(io.StringIO(text, newline=newline)))
    except Exception as exc:  # noqa: BLE001 -- any error must be the oracle's error
        return f"{type(exc).__name__}: {exc}"


READERS = {
    "raw": (read_raw_jsonl, reference_read_raw_jsonl, RAW, RAW_VALUES),
    "unified": (read_unified_jsonl, reference_read_unified_jsonl, UNIFIED, UNIFIED_VALUES),
}
WRITERS = {"raw": write_raw_jsonl, "unified": write_unified_jsonl}
DECODERS = {"raw": raw_from_json_dict, "unified": unified_from_json_dict}


@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("newline", ["\n", None], ids=["untranslated", "universal"])
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reader_matches_the_json_loads_reader(kind, newline, data):
    read, reference, base, pools = READERS[kind]
    text = data.draw(jsonl_files(base, pools))
    assert outcome(read, text, newline) == outcome(reference, text, newline)


def named_cases(base):
    record = json.dumps(base, sort_keys=True)
    return {
        "value-split-across-lines": "[1\n2]\n",
        "two-values-on-one-line": "1, 2\n",
        "two-objects-on-one-line": f"{record} {record}\n",
        # Two records on one line, then one split over two lines inside an
        # extra key: as many objects as lines, each of them valid.
        "joined-parse-counterexample": f'{record}, {record}\n{record[:-1]}, "x": [{{}}\n{{}}]}}\n',
        "leading-whitespace": f" {record}\n",
        "trailing-data": f"{record} x\n",
        "utf8-bom": f"\ufeff{record}\n",
        "nan": "NaN\n",
        "nan-in-a-record": record.replace("7", "NaN").replace("2014", "NaN") + "\n",
        "blank-lines": f"\n{record}\n\n   \n\t\n{record}\n",
        "whitespace-only-lines": f"\x0c\n{record}\n \x0c \x0b\n\x1c\n",
        "crlf": f"{record}\r\n{record}\r\n",
        "no-final-newline": f"{record}\n{record}",
        "trailing-tab": f"{record}\t\n",
    }


READS_RECORDS = {"leading-whitespace", "blank-lines", "whitespace-only-lines", "crlf", "no-final-newline",
                 "trailing-tab"}


@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("case", list(named_cases(RAW)))
@pytest.mark.parametrize("newline", ["\n", None], ids=["untranslated", "universal"])
def test_named_cases_match_the_json_loads_reader(kind, case, newline):
    read, reference, base, _ = READERS[kind]
    text = named_cases(base)[case]
    got = outcome(read, text, newline)
    assert got == outcome(reference, text, newline)
    assert got.startswith("[") == (case in READS_RECORDS), got
    if case == "joined-parse-counterexample":
        assert "on line 1: Extra data" in got


@pytest.mark.parametrize("kind", READERS)
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_what_a_reader_returns_reads_back_from_its_written_lines(kind, data):
    read, _, base, pools = READERS[kind]
    try:
        records = read(io.StringIO(data.draw(jsonl_files(base, pools))))
    except ValueError:
        return
    assert repr(read(io.StringIO(written(WRITERS[kind], records)))) == repr(records)


MISSING = object()  # a change that deletes the key

# Each value in the pools above that no writer writes but that the readers once
# coerced into a record, then a time that is not its hour's bin, an unknown key
# and missing keys; and the field each decoder's error must name.
NEAR_MISSES = [
    ("unified", {"type": "theft"}, "type"),
    ("unified", {"type_id": "5"}, "type_id"),
    ("unified", {"type_id": 5.0}, "type_id"),
    ("unified", {"type": "Assault", "type_id": True}, "type_id"),
    ("unified", {"location": " cbd "}, "location"),
    ("unified", {"location": 7}, "location"),
    ("unified", {"year": 2014.0}, "year"),
    ("unified", {"year": "2014"}, "year"),
    ("unified", {"hour": True}, "hour"),
    ("unified", {"hour": 20.5}, "hour"),
    ("unified", {"time": "T1"}, "time"),
    ("unified", {"extra": 1}, "extra"),
    ("unified", {"type": MISSING}, "type"),
    ("raw", {"category": 5}, "category"),
    ("raw", {"location": 7}, "location"),
    ("raw", {"is_crime": 1}, "is_crime"),
    ("raw", {"is_crime": "yes"}, "is_crime"),
    ("raw", {"source_row": "8"}, "source_row"),
    ("raw", {"source_row": 7.5}, "source_row"),
    ("raw", {"source_row": True}, "source_row"),
    ("raw", {"extra": 1}, "extra"),
    ("raw", {"time": MISSING}, "time"),
    ("raw", {"is_crime": MISSING}, "is_crime"),
    ("raw", {"source_row": MISSING}, "source_row"),
    ("raw", {"date": "20140613"}, "date"),
    ("raw", {"date": "2014-W24-5"}, "date"),
    ("raw", {"time": "7:5"}, "time"),
    ("raw", {"time": "21:30:59"}, "time"),
    ("raw", {"time": " 21 : 30 "}, "time"),
]


@pytest.mark.parametrize("kind, changes, field", [
    pytest.param(kind, changes, field, id=f"{kind}-{field}-" + "-".join(
        "missing" if v is MISSING else repr(v) for v in changes.values()))
    for kind, changes, field in NEAR_MISSES
])
def test_decoder_rejects_what_no_writer_writes_naming_the_field(kind, changes, field):
    obj = {key: value for key, value in {**READERS[kind][2], **changes}.items() if value is not MISSING}
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        DECODERS[kind](obj)


# --- the unified reader's template path against its line-by-line path -----------

def read_unified_line_by_line(fp):
    return read_jsonl(fp, unified_from_json_dict, "unified")


# Lines that are near a written line: each unified near miss, values in a
# form the template must not take (leading zeros, "-0", escapes, raw
# non-ASCII), and the joined-parse counterexample's two lines.
NEAR_LINES = [json.dumps({key: value for key, value in {**UNIFIED, **changes}.items() if value is not MISSING},
                         sort_keys=True)
              for kind, changes, _ in NEAR_MISSES if kind == "unified"]
NEAR_LINES += [json.dumps(UNIFIED, sort_keys=True).replace(old, new) for old, new in [
    ('"hour": 21', '"hour": 021'), ('"year": 2014', '"year": 02014'), ('"year": 2014', '"year": -0'),
    ('"year": 2014', '"year": -2014'), ('"year": 2014', '"year": ' + "9" * 5000),
    ('"type_id": 5', '"type_id": 05'), ('"cbd"', '"\\u0063bd"'), ('"cbd"', '"café"'),
    ('"cbd"', '"cbd "'), ('"cbd"', '" cbd"'), ('"cbd"', '"c\\"bd"'), ('"cbd"', '"c\x7fbd"'),
    ('"Friday"', '"Fri\\u0064ay"'), ('"T6"', '"T9"'), ('", "', '","'), ("}", "} "),
]]
NEAR_LINES += named_cases(UNIFIED)["joined-parse-counterexample"].splitlines()


@st.composite
def unified_files(draw):
    """Written lines of generated records (escaped and non-ASCII locations
    among them), with blank and near-miss lines put in, each line ended by
    LF, CRLF or CR, the last sometimes by nothing."""
    lines = [written(write_unified_jsonl, [record]).rstrip("\n")
             for record in draw(st.lists(unified_records, max_size=12))]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(BLANKISH) | st.sampled_from(NEAR_LINES))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    endings = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


# (``io.StringIO`` with ``newline="\r"`` writes each LF as CR; a real file
# read that way is the test after these.)
@pytest.mark.parametrize("newline", ["\n", None, ""], ids=["lf", "universal", "untranslated"])
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(text=unified_files(), block_chars=st.integers(1, 800))
def test_template_read_matches_the_line_by_line_read(newline, text, block_chars):
    """Same records or same error naming the same line, with blocks small
    enough that a file spans several."""
    with mock.patch.object(preprocess, "_BLOCK_CHARS", block_chars):
        got = outcome(read_unified_jsonl, text, newline)
    assert got == outcome(read_unified_line_by_line, text, newline)


@pytest.mark.parametrize("newline", ["\n", None, ""], ids=["lf", "universal", "untranslated"])
@pytest.mark.parametrize("line", NEAR_LINES)
def test_each_near_line_reads_as_line_by_line(newline, line):
    good = json.dumps(UNIFIED, sort_keys=True)
    text = f"{good}\n{line}\n{good}\n"
    assert outcome(read_unified_jsonl, text, newline) == outcome(read_unified_line_by_line, text, newline)


def test_line_breaks_inside_a_carriage_return_line_are_no_lines(tmp_path):
    """A file read with ``newline="\\r"`` splits lines at CR alone, so a line
    may hold LF breaks around whole template lines: as many matches as lines,
    yet a line-by-line error."""
    good = json.dumps(UNIFIED, sort_keys=True)
    path = tmp_path / "unified.jsonl"
    path.write_bytes(f"x\n{good}\n{good}\ny\rz\r".encode())

    def outcome_of(read):
        with open(path, encoding="utf-8", newline="\r") as fp:
            try:
                return repr(read(fp))
            except ValueError as exc:
                return f"ValueError: {exc}"

    got = outcome_of(read_unified_jsonl)
    assert got == outcome_of(read_unified_line_by_line)
    assert got.startswith("ValueError: bad unified record on line 1"), got


def test_a_file_of_many_blocks_reads_every_record():
    records = [UnifiedCrimeRecord(CrimeCategory(i % 6 + 1), MONTH_NAMES[i % 12], WEEKDAY_NAMES[i % 7],
                                  TimeBin.T6, f"place-{i % 97}", 2000 + i % 20, 21) for i in range(3000)]
    text = written(write_unified_jsonl, records)
    assert len(text) > 4 * preprocess._BLOCK_CHARS
    got = read_unified_jsonl(io.StringIO(text))
    assert got == records
    assert len({id(r.location) for r in got}) == 97  # one string per distinct location
    bad = text.replace('"place-5"', '" place-5"', 2000)
    assert outcome(read_unified_jsonl, bad, None) == outcome(read_unified_line_by_line, bad, None)
