"""Output checks of the benchmark, each independent of the code it checks.

Every check returns a list of problems; an empty list means the output is
correct. A problem marks the stage that wrote the output as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
TIME_BINS = ("T1", "T2", "T3", "T4", "T5", "T6")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lines(path: Path) -> int:
    with open(path, "rb") as fp:
        return sum(1 for line in fp if line.strip())


def _json(path: Path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.reader(fp))


def _half_up(value: float, places: int) -> str:
    return str(Decimal(repr(value)).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


def load_unified(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def check_ingest(out: Path, manifest: dict) -> list[str]:
    """Row accounting, and rejections equal to the dirty rows planted.

    Rows in the current LA export layout are rejected as ``bad-date`` today
    (the program's fault, not the feed's); both rejecting all of them and
    accepting all of them pass, so a fix for that layout passes too.
    """
    report = _json(out / "ingest_report.json")
    problems = []
    if report["rows_read"] != manifest["rows"]:
        problems.append(f"ingest read {report['rows_read']} rows, feed has {manifest['rows']}")
    if report["rows_read"] != report["rows_accepted"] + report["rows_rejected"]:
        problems.append("ingest rows_read != rows_accepted + rows_rejected")
    reasons = Counter(report["rejection_reasons"])
    layout_reason, current = manifest["current_layout_reason"], manifest["current_layout_rows"]
    layout_rejected = reasons[layout_reason] - manifest["dirty_rows"].get(layout_reason, 0)
    if layout_rejected not in (0, current):
        problems.append(f"{layout_rejected} of {current} current-layout rows rejected")
    reasons[layout_reason] -= layout_rejected
    if +reasons != +Counter(manifest["dirty_rows"]):
        problems.append(f"ingest rejections {report['rejection_reasons']} != planted {manifest['dirty_rows']}")
    expected = manifest["clean_crime_rows"] + (
        manifest["current_layout_crime_rows"] if layout_rejected == 0 else 0)
    raw_lines = _lines(out / "raw.jsonl")
    if raw_lines != expected:
        problems.append(f"raw.jsonl has {raw_lines} records, expected {expected}")
    return problems


def check_preprocess(out: Path) -> list[str]:
    report = _json(out / "preprocess_report.json")
    problems = []
    if report["rows_in"] != _lines(out / "raw.jsonl"):
        problems.append("preprocess rows_in != raw.jsonl records")
    if report["rows_in"] != report["rows_out"] + report["rows_rejected"]:
        problems.append("preprocess rows_in != rows_out + rows_rejected")
    if report["rows_rejected"]:  # every planted category is mapped
        problems.append(f"preprocess rejected {report['reasons']}")
    if report["rows_out"] != _lines(out / "unified.jsonl"):
        problems.append("preprocess rows_out != unified.jsonl records")
    return problems


def _ranked_locations(records: list[dict]) -> list[tuple[str, int]]:
    counts = Counter(r["location"] for r in records)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def check_stats(out: Path, records: list[dict]) -> list[str]:
    problems = []
    in_2014 = Counter(r["day"] for r in records if r["year"] == 2014)
    rows = _csv_rows(out / "stats_day_2014.csv")[1:]
    if [(day, int(n)) for day, n, _ in rows] != [(d, in_2014[d]) for d in WEEKDAYS if d in in_2014]:
        problems.append("stats day table differs from an independent count")
    table = _csv_rows(out / "stats_type_by_day.csv")
    if sum(int(n) for row in table[1:] for n in row[1:]) != len(records):
        problems.append("stats crosstab total != dataset size")
    ranked = _ranked_locations(records)
    picks = [(name, int(n)) for name, n, _ in _csv_rows(out / "stats_locations.csv")[1:]]
    if len(picks) != 10 or picks[:3] != ranked[:3] or picks[-3:] != ranked[-3:]:
        problems.append("stats location ranking differs from an independent count")
    return problems


def check_patterns(out: Path, records: list[dict], min_sup: float) -> list[str]:
    """``patterns.csv`` must equal every (location, day, time) triple whose
    count reaches ``min_sup`` of the dataset, counted here directly."""
    n = len(records)
    triples = Counter((r["location"], r["day"], r["time"]) for r in records)
    expected = sorted(
        ((loc, day, time), count) for (loc, day, time), count in triples.items() if count / n >= min_sup
    )
    expected_rows = [
        [loc, day, time, _half_up(count / n, 3), str(count)]
        for (loc, day, time), count in sorted(
            expected, key=lambda e: (e[0][0], WEEKDAYS.index(e[0][1]), TIME_BINS.index(e[0][2])))
    ]
    rows = _csv_rows(out / "patterns.csv")
    problems = []
    if rows[1:] != expected_rows:
        problems.append(f"patterns.csv has {len(rows) - 1} rows, independent count gives {len(expected_rows)}")
    summary = _json(out / "patterns.summary.json")
    if summary["pattern_count"] != len(expected_rows) or summary["dataset_size"] != n:
        problems.append("patterns.summary.json disagrees with the independent count")
    return problems


def check_train(out: Path, kind: str) -> list[str]:
    model = _json(out / f"model_{kind}.json")
    holdout = _json(out / f"holdout_{kind}.json")
    problems = []
    if model.get("schema") != f"{kind}-v1":
        problems.append(f"model_{kind}.json has schema {model.get('schema')!r}")
    if not 0.0 <= holdout["accuracy"] <= 1.0:
        problems.append(f"holdout_{kind}.json accuracy {holdout['accuracy']}")
    return problems


def check_cv(out: Path, kind: str, n: int, folds: int) -> list[str]:
    result = _json(out / f"cv_{kind}.json")
    problems = []
    if len(result["fold_accuracies"]) != folds:
        problems.append(f"cv_{kind}.json has {len(result['fold_accuracies'])} folds")
    if sum(map(sum, result["report"]["matrix"]["cells"])) != n:
        problems.append(f"cv_{kind}.json pooled matrix does not cover the dataset")
    if abs(result["mean_accuracy"] - sum(result["fold_accuracies"]) / folds) > 1e-12:
        problems.append(f"cv_{kind}.json mean accuracy is not the fold mean")
    return problems


def check_demographics(out: Path, records: list[dict]) -> list[str]:
    ranked = [name for name, _ in _ranked_locations(records)]
    groups = _json(out / "groups.json")
    if groups["dangerous"] != ranked[:3] or groups["safe"] != ranked[::-1][:3]:
        return ["demographics groups differ from an independent ranking"]
    return []


def expected_prediction(cm, model_path: Path, request: dict) -> dict:
    """What ``crimeminer predict`` should print, from the library in-process."""
    classify = cm["classify"]
    with open(model_path, encoding="utf-8") as fp:
        model = classify.load_model(fp)
    vector = classify.FeatureVector(
        month=request["month"], day=request["day"],
        time=cm["preprocess"].TimeBin(request["time"]), location=request["location"],
    )
    if isinstance(model, classify.NaiveBayesModel):
        predicted, posterior = classify.nb_predict(model, vector)
        return {"class_id": int(predicted), "class_name": predicted.label,
                "posterior": {c.label: p for c, p in posterior.items()}}
    predicted = classify.dt_predict(model, vector)
    return {"class_id": int(predicted), "class_name": predicted.label}


def output_hashes(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def counters(out: Path) -> dict:
    """Work counts of one pass. A faster program leaves them unchanged, so they
    go to the details file rather than into the metrics."""
    ingest = _json(out / "ingest_report.json")
    preprocess = _json(out / "preprocess_report.json")
    summary = _json(out / "patterns.summary.json")
    records = load_unified(out / "unified.jsonl")

    def leaves(node: dict) -> int:
        return 1 if node["kind"] == "leaf" else leaves(node["true"]) + leaves(node["false"])

    return {
        "ingestion.rows_read": ingest["rows_read"],
        "ingestion.rows_accepted": ingest["rows_accepted"],
        **{f"ingestion.rejected.{k}": v for k, v in ingest["rejection_reasons"].items()},
        "ingestion.rows_after_filter": _lines(out / "raw.jsonl"),
        "preprocess.rows_out": preprocess["rows_out"],
        **{f"preprocess.rejected.{k}": v for k, v in preprocess["reasons"].items()},
        "apriori.distinct_transactions": len({(r["location"], r["day"], r["time"]) for r in records}),
        **{f"apriori.frequent.l{k}": v for k, v in summary["levels"].items()},
        "apriori.patterns": summary["pattern_count"],
        "classify.dt_leaves": leaves(_json(out / "model_dt.json")["root"]),
    }
