"""Command-line pipeline: wiring, exit codes, determinism, config precedence."""

import contextlib
import copy
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from crimeminer import classify, cli, evaluate, ingestion, preprocess, stats, training, vocab
from crimeminer.cli import build_parser, main
from crimeminer.preprocess import read_unified_jsonl
from crimeminer.synthetic import generate_synthetic_dataset

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE = str(DATA_DIR / "synthetic_crimes.jsonl")

DEFAULT_COLUMNS = json.loads((SRC / "crimeminer" / "data" / "demographics_columns.json").read_text("utf-8"))
MISSPELLED_COLUMNS = {**{k: v for k, v in DEFAULT_COLUMNS.items() if k != "age_brackets"},
                      "age_bracket": DEFAULT_COLUMNS["age_brackets"]}
NB_MODEL = classify.nb_to_json_dict(training.nb_train(generate_synthetic_dataset()[:100]))
DT_MODEL = classify.dt_to_json_dict(training.dt_train(generate_synthetic_dataset()[:100], max_leaves=4))
CSV_HEADER = "INCIDENT_ID,OFFENSE_CATEGORY_ID,FIRST_OCCURRENCE_DATE,NEIGHBORHOOD_ID,IS_CRIME\n"
INGEST_ARGV = ["ingest", "--schema", "denver", "--input", "side.json"]
COLUMNS_ARGV = ["demographics", "--dataset", "unified.jsonl", "--demographics", "demo.csv",
                "--columns", "side.json"]
MAPPING_ARGV = ["preprocess", "--schema", "denver", "--input", "raw.jsonl", "--mapping", "side.json"]
RAW_ARGV = ["preprocess", "--schema", "denver", "--input", "side.json"]
DATASET_ARGV = ["stats", "--attribute", "day", "--dataset", "side.json"]
RAW_LINE = {"category": "larceny", "date": "2014-06-13", "time": "21:30", "location": "cbd",
            "is_crime": True, "source_row": 1}
UNIFIED_LINE = {"type": "Theft", "type_id": 5, "month": "June", "day": "Friday", "time": "T6",
                "location": "cbd", "year": 2014, "hour": 21}

DENVER_CSV = (
    "INCIDENT_ID,OFFENSE_CATEGORY_ID,FIRST_OCCURRENCE_DATE,NEIGHBORHOOD_ID,IS_CRIME\n"
    + "".join(
        f"{i},{category},{date},{location},{flag}\n"
        for i, (category, date, location, flag) in enumerate(
            [
                ("drug-alcohol", "6/13/14 21:30", "five-points", 1),
                ("larceny", "6/13/14 22:00", "five-points", 1),
                ("larceny", "6/6/14 21:10", "five-points", 1),
                ("burglary", "6/20/14 23:45", "five-points", 1),
                ("aggravated-assault", "6/27/14 21:05", "five-points", 1),
                ("traffic-accident", "6/13/14 09:00", "cbd", 0),
                ("public-disorder", "1/1/15 03:30", "cbd", 1),
                ("white-collar-crime", "3/8/15 12:00", "wellshire", 1),
                ("robbery", "7/4/14 17:30", "cbd", 1),
                ("murder", "12/25/14 02:15", "baker", 1),
            ],
            start=1,
        )
    )
)

DEMO_CSV = (
    "NBHD_NAME,POPULATION_2010,MALE,FEMALE,HOUSING_UNITS,OCCUPIED_HU,VACANT_HU,"
    "OWNER_OCCUPIED_HU,RENTER_OCCUPIED_HU,AGE_0_TO_9,AGE_10_TO_19,AGE_20_TO_29,"
    "AGE_30_TO_39,AGE_40_TO_49,AGE_50_TO_59,AGE_60_TO_69,AGE_70_TO_79,AGE_80_PLUS\n"
    "Five Points,5000,3000,2000,2500,2000,500,1000,1000,500,500,1500,800,700,500,300,150,50\n"
    "CBD,3000,1800,1200,1500,1200,300,600,600,300,300,900,500,400,300,200,80,20\n"
    "Baker,2000,1100,900,1000,900,100,500,400,200,200,600,300,300,200,130,60,10\n"
    "Wellshire,1000,450,550,400,390,10,350,40,100,150,100,150,150,200,100,40,10\n"
)


@pytest.fixture
def pipeline(tmp_path):
    """Run ingest + preprocess once and hand back the working directory."""
    (tmp_path / "denver.csv").write_text(DENVER_CSV, encoding="utf-8")
    (tmp_path / "demo.csv").write_text(DEMO_CSV, encoding="utf-8")
    assert main(
        [
            "ingest", "--schema", "denver",
            "--input", str(tmp_path / "denver.csv"),
            "--output", str(tmp_path / "raw.jsonl"),
            "--report", str(tmp_path / "ingest.json"),
        ]
    ) == 0
    assert main(
        [
            "preprocess", "--schema", "denver",
            "--input", str(tmp_path / "raw.jsonl"),
            "--output", str(tmp_path / "unified.jsonl"),
        ]
    ) == 0
    return tmp_path


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestPipeline:
    def test_ingest_filters_and_reports(self, pipeline):
        report = json.loads(read(pipeline / "ingest.json"))
        assert report["rows_read"] == 10
        assert report["rows_accepted"] == 10
        with open(pipeline / "unified.jsonl", encoding="utf-8") as fp:
            unified = read_unified_jsonl(fp)
        assert len(unified) == 9  # the traffic accident is filtered out

    def test_stats_frequency(self, pipeline):
        out = pipeline / "day.csv"
        assert main(
            ["stats", "--dataset", str(pipeline / "unified.jsonl"),
             "--attribute", "day", "--output", str(out)]
        ) == 0
        lines = read(out).splitlines()
        assert lines[0] == "value,count,percentage"
        assert any(line.startswith("Friday,") for line in lines)

    def test_stats_crosstab_and_locations(self, pipeline):
        assert main(
            ["stats", "--dataset", str(pipeline / "unified.jsonl"),
             "--rows", "type", "--cols", "day", "--output", str(pipeline / "ct.csv")]
        ) == 0
        assert read(pipeline / "ct.csv").startswith("type,")
        assert main(
            ["stats", "--dataset", str(pipeline / "unified.jsonl"),
             "--top", "1", "--middle", "1", "--bottom", "1",
             "--output", str(pipeline / "locations.csv")]
        ) == 0
        lines = read(pipeline / "locations.csv").splitlines()
        assert lines[1].startswith("five-points,")

    def test_mine_writes_patterns_and_summary(self, pipeline):
        out = pipeline / "patterns.csv"
        assert main(
            ["mine", "--dataset", str(pipeline / "unified.jsonl"),
             "--min-sup", "0.3", "--output", str(out)]
        ) == 0
        assert read(out).splitlines()[0] == "location,day,time,support,count"
        summary = json.loads(read(pipeline / "patterns.summary.json"))
        assert summary["dataset_size"] == 9
        assert summary["min_sup"] == 0.3

    def test_mine_min_count_equivalent(self, pipeline):
        args = ["mine", "--dataset", str(pipeline / "unified.jsonl")]
        assert main(args + ["--min-sup", str(3 / 9), "--output", str(pipeline / "a.csv")]) == 0
        assert main(args + ["--min-count", "3", "--output", str(pipeline / "b.csv")]) == 0
        assert read(pipeline / "a.csv") == read(pipeline / "b.csv")

    def test_train_predict_roundtrip(self, pipeline):
        model = pipeline / "nb.json"
        assert main(
            ["train", "--dataset", str(pipeline / "unified.jsonl"),
             "--model", "nb", "--train-fraction", "0.8", "--seed", "42",
             "--output", str(model)]
        ) == 0
        out = pipeline / "prediction.json"
        assert main(
            ["predict", "--model", str(model),
             "--month", "June", "--day", "Friday", "--time", "T6",
             "--location", "five-points", "--output", str(out)]
        ) == 0
        result = json.loads(read(out))
        assert 1 <= result["class_id"] <= 6
        assert result["class_name"]
        assert abs(sum(result["posterior"].values()) - 1.0) < 1e-9

    def test_predict_dt_has_no_posterior(self, pipeline):
        model = pipeline / "dt.json"
        assert main(
            ["train", "--dataset", str(pipeline / "unified.jsonl"),
             "--model", "dt", "--train-fraction", "0.8", "--output", str(model)]
        ) == 0
        out = pipeline / "dt_prediction.json"
        assert main(
            ["predict", "--model", str(model), "--month", "june", "--day", "friday",
             "--time", "t6", "--location", "Five Points", "--output", str(out)]
        ) == 0
        result = json.loads(read(out))
        assert "posterior" not in result
        assert 1 <= result["class_id"] <= 6

    def test_train_with_eval_report(self, pipeline):
        assert main(
            ["train", "--dataset", str(pipeline / "unified.jsonl"),
             "--model", "nb", "--output", str(pipeline / "m.json"),
             "--eval-report", str(pipeline / "holdout.json")]
        ) == 0
        report = json.loads(read(pipeline / "holdout.json"))
        assert 0.0 <= report["accuracy"] <= 1.0
        assert set(report["per_class"]) == {
            "Assault", "Drug Alcohol", "Other Crimes", "Public Disorder", "Theft",
            "White Collar Crime",
        }

    @pytest.mark.parametrize("kind", ["nb", "dt"])
    def test_train_eval_report_scores_the_one_fitted_model(self, tmp_path, monkeypatch, kind):
        dataset = generate_synthetic_dataset()[:300]
        with open(tmp_path / "unified.jsonl", "w", encoding="utf-8") as fp:
            preprocess.write_unified_jsonl(dataset, fp)
        fits = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                fits.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("nb_train", "dt_train"):
            wrapper = counted(getattr(classify, name))
            for module in (classify, evaluate):  # wherever a caller may look the name up
                monkeypatch.setattr(module, name, wrapper, raising=False)
        assert main(["train", "--dataset", str(tmp_path / "unified.jsonl"), "--model", kind,
                     "--seed", "7", "--output", str(tmp_path / "model.json"),
                     "--eval-report", str(tmp_path / "holdout.json")]) == 0
        assert fits == [f"{kind}_train"]
        train, test = training.split_train_test(dataset, training.SplitSpec(0.8, seed=7))
        expected = io.StringIO()
        evaluate.write_report_json(evaluate.evaluate_split(train, test, kind), expected)
        assert (tmp_path / "holdout.json").read_bytes() == expected.getvalue().encode()

    def test_evaluate_cross_validation(self, pipeline):
        out = pipeline / "cv.json"
        assert main(
            ["evaluate", "--dataset", str(pipeline / "unified.jsonl"),
             "--model", "nb", "--folds", "3", "--output", str(out),
             "--csv", str(pipeline / "cv.csv")]
        ) == 0
        result = json.loads(read(out))
        assert len(result["fold_accuracies"]) == 3
        assert read(pipeline / "cv.csv").startswith("class,precision")

    def test_demographics_comparison(self, pipeline, capsys):
        out = pipeline / "compare.csv"
        assert main(
            ["demographics", "--dataset", str(pipeline / "unified.jsonl"),
             "--demographics", str(pipeline / "demo.csv"),
             "--top", "2", "--bottom", "2",
             "--output", str(out), "--json", str(pipeline / "compare.json")]
        ) == 0
        assert read(out).splitlines()[0] == "group,neighborhood,metric,value"
        obj = json.loads(read(pipeline / "compare.json"))
        assert obj["dangerous"][0] == "five-points"
        assert "wellshire" in obj["safe"]
        assert capsys.readouterr().err == ""

    def test_rejected_demographics_rows_are_reported(self, pipeline, capsys):
        """Baker's MALE + 1 breaks male + female == population, so its row is rejected."""
        demo = pipeline / "demo.csv"
        without_baker = pipeline / "without-baker.csv"
        without_baker.write_text(DEMO_CSV.replace(DEMO_CSV.splitlines()[3] + "\n", ""), encoding="utf-8")
        demo.write_text(DEMO_CSV.replace("Baker,2000,1100,", "Baker,2000,1101,"), encoding="utf-8")
        argv = ["demographics", "--dataset", str(pipeline / "unified.jsonl"), "--top", "1", "--bottom", "1"]
        summary = f"{demo}: 1 of 4 demographics rows rejected (gender-sum-mismatch: 1)"
        assert main([*argv, "--demographics", str(without_baker), "--output", str(pipeline / "a.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*argv, "--demographics", str(demo), "--output", str(pipeline / "b.csv")]) == 0
        assert capsys.readouterr().err == f"warning: {summary}\n"
        assert read(pipeline / "b.csv") == read(pipeline / "a.csv")
        # --bottom 2 selects baker (one crime, tied with wellshire)
        assert main(["demographics", "--dataset", str(pipeline / "unified.jsonl"), "--demographics", str(demo),
                     "--top", "2", "--bottom", "2", "--output", str(pipeline / "c.csv")]) == 2
        line = assert_one_line_error(capsys, "error: ")
        assert line == f"error: neighborhood 'baker' not found in demographics; {summary}\n"
        assert not (pipeline / "c.csv").exists()


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag_is_usage(self):
        assert main(["ingest", "--schema", "denver"]) == 1

    def test_bad_stats_mode_combination_is_usage(self, pipeline):
        assert main(["stats", "--dataset", str(pipeline / "unified.jsonl")]) == 1
        assert main(
            ["stats", "--dataset", str(pipeline / "unified.jsonl"),
             "--attribute", "day", "--rows", "type", "--cols", "day"]
        ) == 1

    @pytest.mark.parametrize("module", ["crimeminer", "crimeminer.cli"])
    @pytest.mark.parametrize("raised_by", ["handler", "config"])
    def test_usage_error_under_python_dash_m_is_one_line(self, tmp_path, raised_by, module):
        """``python -m crimeminer.cli`` runs ``cli.py`` as ``__main__``, but the
        ``UsageError`` of a handler or of ``cli_config`` is ``crimeminer.cli``'s."""
        (tmp_path / "c.json").write_text('{"bogus": 1}', encoding="utf-8")
        extra = {"handler": ["--rows", "time", "--cols", "day"], "config": ["--config", str(tmp_path / "c.json")]}
        done = run_cli(["stats", "--dataset", FIXTURE, "--attribute", "time", *extra[raised_by]], module,
                       capture_output=True, text=True)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("usage error: ") and done.stderr.count("\n") == 1, done.stderr

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(
            ["ingest", "--schema", "denver", "--input", str(tmp_path / "nope.csv"),
             "--output", str(tmp_path / "raw.jsonl")]
        ) == 2

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("schema, extra, named", [("denver", [], "--schema denver"),
                                                      ("la", ["--no-filter"], "--no-filter"),
                                                      ("denver", ["--no-filter"], "--no-filter")])
    def test_exclude_that_filters_nothing_is_usage(self, tmp_path, capsys, route, schema, extra, named):
        (tmp_path / "denver.csv").write_text(DENVER_CSV, encoding="utf-8")
        (tmp_path / "config.json").write_text('{"exclude": ["traffic-accident"]}', encoding="utf-8")
        given = ["--exclude", "traffic-accident"] if route == "flag" else ["--config", str(tmp_path / "config.json")]
        assert main(["ingest", "--schema", schema, "--input", str(tmp_path / "denver.csv"),
                     "--output", str(tmp_path / "raw.jsonl"), *extra, *given]) == 1
        err = assert_one_line_error(capsys, "usage error: ")
        assert err == f"usage error: --exclude has no effect with {named}\n"
        assert not (tmp_path / "raw.jsonl").exists()

    def test_mine_needs_exactly_one_threshold(self, pipeline):
        dataset = str(pipeline / "unified.jsonl")
        assert main(["mine", "--dataset", dataset]) == 1
        assert main(["mine", "--dataset", dataset, "--min-sup", "0.1", "--min-count", "2"]) == 1

    def test_bad_predict_values_are_usage_errors(self, pipeline):
        model = pipeline / "nb2.json"
        assert main(
            ["train", "--dataset", str(pipeline / "unified.jsonl"),
             "--model", "nb", "--output", str(model)]
        ) == 0
        base = ["predict", "--model", str(model), "--day", "Friday",
                "--time", "T6", "--location", "cbd"]
        assert main(base + ["--month", "Juneteenth"]) == 1
        assert main(["predict", "--model", str(model), "--month", "June",
                     "--day", "Friday", "--time", "T9", "--location", "cbd"]) == 1
        assert main(["predict", "--model", str(model), "--month", "June",
                     "--day", "Friday", "--time", "T6", "--location", "   "]) == 1

    @pytest.mark.parametrize("flags, message", [pytest.param(flags, message, id=flags) for flags, message in [
        ("stats", "pick exactly one mode"),
        ("stats --attribute day --top 3", "pick exactly one mode"),
        ("stats --rows type", "crosstab needs both --rows and --cols"),
        ("stats --rows day --cols day", "--rows and --cols both name day"),
        ("stats --top 3 --bottom 3", "location ranking needs --top, --middle, and --bottom"),
        ("stats --top 3 --middle 4 --bottom 3 --year 2014", "--year does not apply to the location ranking"),
        ("train --model nb --train-fraction 1.0 --eval-report r.json", "--eval-report needs --train-fraction < 1.0"),
    ]])
    def test_flag_errors_come_before_the_dataset_is_read(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.chdir(tmp_path)
        assert main([*flags.split(), "--dataset", "missing.jsonl", "--output", "out"]) == 1
        assert message in assert_one_line_error(capsys, "usage error: ")
        assert not list(tmp_path.iterdir())

    def test_corrupt_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"nope": 1}\n', encoding="utf-8")
        assert main(["stats", "--dataset", str(bad), "--attribute", "day"]) == 2

    @pytest.mark.parametrize("content", [
        None, "{not json", '{"min_supp": 0.5}', "[1]",
        '{"min_sup": null}', '{"seed": [1]}', '{"seed": {}}', '{"min_sup": "often"}',
        '{"seed": 2.5}', '{"threads": true}', pytest.param("[" * 5000, id="deeply-nested"),
    ])
    def test_bad_config_is_usage_error(self, pipeline, capsys, content):
        config = pipeline / "config.json"
        if content is not None:
            config.write_text(content, encoding="utf-8")
        code = main(["mine", "--dataset", str(pipeline / "unified.jsonl"), "--min-sup", "0.3",
                     "--output", str(pipeline / "p.csv"), "--config", str(config)])
        assert code == 1
        assert_one_line_error(capsys, "usage error: ")
        assert not (pipeline / "p.csv").exists()

    @pytest.mark.parametrize("argv, content", [
        (["evaluate", "--dataset", "unified.jsonl", "--model", "nb"], '{"folds": null}'),
        (["train", "--dataset", "unified.jsonl", "--model", "nb"], '{"seed": [1]}'),
        (["train", "--dataset", "unified.jsonl", "--model", "nb"], '{"alpha": "much"}'),
        (["train", "--dataset", "unified.jsonl", "--model", "nb"], '{"model": "svm"}'),
        (["ingest", "--schema", "denver", "--input", "denver.csv"], '{"no_filter": "yes"}'),
        (["ingest", "--schema", "denver", "--input", "denver.csv"], '{"exclude": "theft"}'),
        (["ingest", "--schema", "denver", "--input", "denver.csv"], '{"exclude": [1]}'),
        (["demographics", "--dataset", "unified.jsonl", "--demographics", "demo.csv"],
         '{"per_capita": 1}'),
        (["evaluate", "--dataset", "unified.jsonl", "--model", "nb"], '{"folds": 1}'),
        (["train", "--dataset", "unified.jsonl", "--model", "nb"], '{"train_fraction": 1.5}'),
        (["stats", "--dataset", "unified.jsonl", "--attribute", "day"], '{"seed": 1}'),
    ])
    def test_mistyped_config_value_is_usage_error(self, pipeline, capsys, monkeypatch, argv, content):
        monkeypatch.chdir(pipeline)
        (pipeline / "config.json").write_text(content, encoding="utf-8")
        code = main(argv + ["--output", "out", "--config", "config.json"])
        assert code == 1
        assert_one_line_error(capsys, "usage error: ")
        assert not (pipeline / "out").exists()

    @pytest.mark.parametrize("threshold", [
        ["--min-count", "0"], ["--min-count", "-2"],
        ["--min-sup", "0"], ["--min-sup", "-0.1"], ["--min-sup", "1.5"], ["--min-sup", "nan"],
        ["--min-count", "10"],  # the dataset holds 9 records
    ])
    def test_bad_threshold_is_usage_error(self, pipeline, capsys, threshold):
        code = main(["mine", "--dataset", str(pipeline / "unified.jsonl"),
                     "--output", str(pipeline / "p.csv"), *threshold])
        assert code == 1
        assert_one_line_error(capsys, "usage error: ")
        assert not (pipeline / "p.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["stats", "--attribute", "day", "--dataset", "deep.json"],
        ["preprocess", "--schema", "denver", "--input", "deep.json"],
        ["preprocess", "--schema", "denver", "--input", "raw.jsonl", "--mapping", "deep.json"],
        ["demographics", "--dataset", "unified.jsonl", "--demographics", "demo.csv",
         "--columns", "deep.json"],
    ])
    def test_deeply_nested_json_is_data_error(self, pipeline, capsys, monkeypatch, argv):
        monkeypatch.chdir(pipeline)
        (pipeline / "deep.json").write_text("[" * 5000 + "\n", encoding="utf-8")
        assert main(argv + ["--output", "out"]) == 2
        assert_one_line_error(capsys, "error: ")

    @pytest.mark.parametrize("argv, content, named", [
        pytest.param(COLUMNS_ARGV, '{"neighborhood": "NBHD_NAME"}', "side.json", id="columns-missing-key"),
        pytest.param(COLUMNS_ARGV, "[1]", "side.json", id="columns-list"),
        pytest.param(COLUMNS_ARGV, json.dumps({**DEFAULT_COLUMNS, "age_brackets": 5}), "side.json",
                     id="columns-brackets-number"),
        pytest.param(COLUMNS_ARGV, json.dumps({**DEFAULT_COLUMNS, "extras": {"x": 1}}), "side.json",
                     id="columns-extras-number"),
        pytest.param(MAPPING_ARGV, '{"a": 5}', "side.json", id="mapping-number"),
        pytest.param(MAPPING_ARGV, '{"larceny": "Jaywalking"}', "side.json", id="mapping-unknown-type"),
        pytest.param(COLUMNS_ARGV, "[" * 5000, "side.json", id="columns-deep"),
        pytest.param(MAPPING_ARGV, "[" * 5000, "side.json", id="mapping-deep"),
        pytest.param(["stats", "--attribute", "day", "--dataset", "side.json"], "[" * 5000, "line 1",
                     id="dataset-deep"),
        pytest.param(["preprocess", "--schema", "denver", "--input", "side.json"], "[" * 5000, "line 1",
                     id="raw-deep"),
        pytest.param(["predict", "--model", "side.json", "--month", "June", "--day", "Friday",
                      "--time", "T6", "--location", "cbd"], "[" * 5000, "malformed model", id="model-deep"),
        pytest.param(COLUMNS_ARGV, json.dumps(MISSPELLED_COLUMNS), "age_bracket", id="columns-unknown-key"),
        pytest.param(COLUMNS_ARGV, json.dumps({**DEFAULT_COLUMNS, "extras": {"male": "MALE"}}),
                     "side.json: column map extras label 'male' collides with metric 'male'",
                     id="columns-extra-is-a-count"),
        pytest.param(COLUMNS_ARGV, json.dumps({**DEFAULT_COLUMNS, "extras": {"age_20-29": "AGE_20_TO_29"}}),
                     "side.json: column map extras label 'age_20-29' collides with metric 'age_20-29'",
                     id="columns-extra-is-an-age-bracket"),
        pytest.param(INGEST_ARGV, CSV_HEADER + "1," + "x" * 200000 + ",6/13/14 21:30,cbd,1\n",
                     "side.json: line 2", id="csv-cell-over-field-limit"),
        pytest.param(INGEST_ARGV, CSV_HEADER.encode() + b"1,larceny,6/13/14 21:30,caf\xe9,1\n",
                     "side.json", id="csv-not-utf8"),
        pytest.param(["demographics", "--dataset", "unified.jsonl", "--demographics", "side.json"],
                     b"NBHD_NAME\n\xff\n", "side.json", id="demographics-not-utf8"),
        pytest.param(["stats", "--attribute", "day", "--dataset", "side.json"], b"\xff\n", "side.json",
                     id="dataset-not-utf8"),
        pytest.param(["preprocess", "--schema", "denver", "--input", "side.json"], b"{}\n\xff\n",
                     "side.json", id="raw-not-utf8"),
        pytest.param(["preprocess", "--schema", "denver", "--input", "side.json"], "0\n", "line 1",
                     id="raw-not-object"),
        pytest.param(["predict", "--model", "side.json", "--month", "June", "--day", "Friday",
                      "--time", "T6", "--location", "cbd"], b"\xff", "side.json", id="model-not-utf8"),
        pytest.param(MAPPING_ARGV, b'{"larceny": "Th\xe9ft"}', "side.json", id="mapping-not-utf8"),
        pytest.param(COLUMNS_ARGV, b'{"neighborhood": "\xff"}', "side.json", id="columns-not-utf8"),
        # A float infinity or an hour past the C int range, where the readers once let OverflowError out.
        pytest.param(RAW_ARGV, json.dumps({**RAW_LINE, "source_row": float("inf")}),
                     "side.json: bad raw record on line 1", id="raw-source-row-infinity"),
        pytest.param(RAW_ARGV, json.dumps({**RAW_LINE, "time": "99999999999999999999:00"}),
                     "side.json: bad raw record on line 1", id="raw-clock-overflow"),
        pytest.param(DATASET_ARGV, json.dumps(UNIFIED_LINE).replace("2014", "1e400"),
                     "side.json: bad unified record on line 1", id="unified-year-1e400"),
        # Values no writer writes, which the readers once coerced into a record.
        pytest.param(DATASET_ARGV, json.dumps({**UNIFIED_LINE, "time": "T1"}),
                     "side.json: bad unified record on line 1: time 'T1'", id="unified-time-not-the-hours"),
        pytest.param(DATASET_ARGV, json.dumps({**UNIFIED_LINE, "year": "2014"}),
                     "side.json: bad unified record on line 1: year", id="unified-year-text"),
        pytest.param(RAW_ARGV, json.dumps({**RAW_LINE, "is_crime": 1}),
                     "side.json: bad raw record on line 1: is_crime", id="raw-flag-number"),
        # Dates and clock times in a form other than the written YYYY-MM-DD and HH:MM.
        *[pytest.param(RAW_ARGV, json.dumps(RAW_LINE) + "\n" + json.dumps({**RAW_LINE, field: value}),
                       f"side.json: bad raw record on line 2: {field} cannot be {value!r}",
                       id=f"raw-{field}-{value.strip()}")
          for field, value in [("date", "20140613"), ("date", "2014-W24-5"), ("time", "7:5"),
                               ("time", "21:30:59"), ("time", " 21 : 30 ")]],
    ])
    def test_malformed_side_file_names_it(self, pipeline, capsys, monkeypatch, argv, content, named):
        monkeypatch.chdir(pipeline)
        (pipeline / "side.json").write_bytes(content if isinstance(content, bytes) else content.encode())
        assert main(argv + ["--output", "out"]) == 2
        assert named in assert_one_line_error(capsys, "error: ")
        assert not (pipeline / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, pipeline, capsys, threads):
        code = main(["evaluate", "--dataset", str(pipeline / "unified.jsonl"), "--model", "nb",
                     "--folds", "3", "--threads", threads, "--output", str(pipeline / "cv.json")])
        assert code == 1
        assert_one_line_error(capsys, "usage error: ")
        assert not (pipeline / "cv.json").exists()

    @pytest.mark.parametrize("stage, flags", [
        ("mine", ["--min-sup", "0.2"]),
        ("evaluate", ["--model", "nb", "--folds", "3"]),
    ])
    def test_threads_above_one_warns_that_it_has_no_effect(self, pipeline, capsys, stage, flags):
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        assert main([stage, *dataset, *flags, "--threads", "1", "--output", str(pipeline / "one")]) == 0
        assert capsys.readouterr().err == ""
        assert main([stage, *dataset, *flags, "--threads", "2", "--output", str(pipeline / "two")]) == 0
        assert capsys.readouterr().err == "warning: --threads 2 has no effect; counting runs on one thread\n"

    @pytest.mark.parametrize("flags", [
        ["evaluate", "--model", "nb", "--folds", "1"],
        ["evaluate", "--model", "dt", "--max-leaves", "1"],
        ["evaluate", "--model", "nb", "--alpha", "-1"],
        ["train", "--model", "nb", "--alpha", "nan"],
        ["train", "--model", "dt", "--max-leaves", "1"],
        ["train", "--model", "nb", "--train-fraction", "1.5"],
        ["train", "--model", "nb", "--train-fraction", "0"],
        ["stats", "--top", "-1", "--middle", "0", "--bottom", "0"],
        ["demographics", "--demographics", "demo.csv", "--top", "0"],
        ["demographics", "--demographics", "demo.csv", "--bottom", "0"],
        ["stats", "--attribute", "day", "--seed", "1"],
        ["ingest", "--schema", "denver", "--input", "denver.csv", "--threads", "2"],
        ["train", "--model", "nb", "--threads", "2"],
        ["preprocess", "--schema", "denver", "--input", "raw.jsonl", "--max-reject-fraction", "nan"],
        ["ingest", "--schema", "foo", "--input", "denver.csv"],
        ["preprocess", "--schema", "foo", "--input", "raw.jsonl"],
        ["stats", "--attribute", "Day"],
        ["stats", "--rows", "day", "--cols", "day"],
    ], ids=" ".join)
    def test_out_of_range_or_foreign_flag_is_usage_error(self, pipeline, capsys, monkeypatch, flags):
        monkeypatch.chdir(pipeline)
        dataset = [] if flags[0] in ("ingest", "preprocess") else ["--dataset", "unified.jsonl"]
        assert main([*flags, *dataset, "--output", "out"]) == 1
        assert_one_line_error(capsys, "usage error: ")
        assert not (pipeline / "out").exists()

    @pytest.mark.parametrize("flags, split", [
        (["--train-fraction", "0.1"], "0 to train and 3 to test; training"),
        (["--train-fraction", "0.9", "--eval-report", "h.json"], "3 to train and 0 to test; --eval-report"),
    ], ids=["empty-train", "empty-test"])
    def test_split_leaving_a_side_empty_is_usage_error(self, tmp_path, capsys, monkeypatch, flags, split):
        monkeypatch.chdir(tmp_path)
        with open(DATA_DIR / "synthetic_crimes.jsonl", encoding="utf-8") as fp:
            (tmp_path / "three.jsonl").write_text("".join(next(fp) for _ in range(3)), encoding="utf-8")
        assert main(["train", "--dataset", "three.jsonl", "--model", "nb", *flags]) == 1
        err = assert_one_line_error(capsys, "usage error: ")
        assert f"--train-fraction {flags[1]} splits the 3 records into {split}" in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("model", [
        "[]",
        '{"schema": "nb-v1"}',
        '{"schema": "dt-v1", "max_leaves": 2, "root": {"kind": "split", "feature": "colour",'
        ' "value": "red", "gain": 1.0, "true": {}, "false": {}}}',
        pytest.param("[" * 5000, id="deeply-nested"),
        pytest.param(json.dumps({**NB_MODEL, "classes": []}), id="no-classes"),
        pytest.param(json.dumps({**NB_MODEL, "classes": [1, 1, 2]}), id="repeated-classes"),
    ])
    def test_malformed_model_is_data_error(self, tmp_path, capsys, model):
        path = tmp_path / "model.json"
        path.write_text(model, encoding="utf-8")
        code = main(["predict", "--model", str(path), "--month", "June", "--day", "Friday",
                     "--time", "T6", "--location", "cbd"])
        assert code == 2
        assert str(path) in assert_one_line_error(capsys, "error: ")


def first_node(node: dict, kind: str) -> dict:
    """The first node of ``kind`` down the true branches of a saved tree."""
    return node if node["kind"] == kind else first_node(node["true"], kind)


def first_leaf(model: dict) -> dict:
    return first_node(model["root"], "leaf")


def first_count(model: dict) -> dict:
    """The counts of a saved tree's first leaf, with one class key."""
    return first_leaf(model)["counts"]


def edited(model: dict, edit) -> dict:
    model = copy.deepcopy(model)
    edit(model)
    return model


class TestModelFiles:
    """``predict`` loads exactly what ``train`` can write: the JSON types and
    keys it writes, and a tree that ``dt_train`` can grow."""

    @pytest.mark.parametrize("schema, edit", [
        pytest.param("dt-v1", lambda m: m.update(max_leaves=10.9), id="max-leaves-float"),
        pytest.param("dt-v1", lambda m: m.update(max_leaves=True), id="max-leaves-bool"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "split").update(gain="0.5"), id="gain-string"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "split").update(gain=10 ** 400), id="gain-overflow"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "leaf").update({"class": True}), id="class-bool"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "leaf").update({"class": 5.0}), id="class-float"),
        pytest.param("dt-v1", lambda m: first_count(m).update(dict.fromkeys(first_count(m), "3")), id="count-string"),
        pytest.param("dt-v1", lambda m: first_count(m).update(dict.fromkeys(first_count(m), 2.7)), id="count-float"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "leaf").update(counts={"01": 3}), id="count-key-padded"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "split").update(value=5), id="value-int"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "split").update(kind="leef"), id="kind-typo"),
        pytest.param("nb-v1", lambda m: m.update(alpha="1.0"), id="alpha-string"),
        pytest.param("nb-v1", lambda m: m.update(alpha=True), id="alpha-bool"),
        pytest.param("nb-v1", lambda m: m["classes"].__setitem__(0, True), id="classes-bool"),
        pytest.param("nb-v1", lambda m: m["log_prior"].update({"1": "-1.5"}), id="log-prior-string"),
        pytest.param("nb-v1", lambda m: m["log_prior"].update({"1": False}), id="log-prior-bool"),
        pytest.param("nb-v1", lambda m: m["cond_log"]["day"]["2"].update(Friday="-2"), id="cond-log-string"),
        pytest.param("nb-v1", lambda m: m["unseen_log"]["location"].update({"3": True}), id="unseen-log-bool"),
        pytest.param("nb-v1", lambda m: m["vocab"]["location"].append(7), id="vocab-int"),
        pytest.param("nb-v1", lambda m: m["vocab"].update(location="cbd"), id="vocab-string"),
        pytest.param("nb-v1", lambda m: m["vocab"].update(location={"cbd": 1}), id="vocab-object"),
        pytest.param("nb-v1", lambda m: m.update(trained_on="denver"), id="nb-unknown-key"),
        pytest.param("nb-v1", lambda m: m["cond_log"].update(weather=m["cond_log"]["day"]), id="cond-log-unknown-feature"),
        pytest.param("nb-v1", lambda m: m["vocab"].update(weather=["rain"]), id="vocab-unknown-feature"),
        pytest.param("nb-v1", lambda m: m["unseen_log"].update(weather=m["unseen_log"]["day"]), id="unseen-log-unknown-feature"),
        pytest.param("nb-v1", lambda m: m["log_prior"].update({"7": -1.5}), id="log-prior-unknown-class"),
        pytest.param("nb-v1", lambda m: m["cond_log"]["day"].update({"7": m["cond_log"]["day"]["1"]}),
                     id="cond-log-unknown-class"),
        pytest.param("nb-v1", lambda m: m["unseen_log"]["time"].update({"01": -2.0}), id="unseen-log-padded-class"),
        pytest.param("nb-v1", lambda m: m["classes"].remove(6), id="class-dropped-but-tabled"),
        pytest.param("dt-v1", lambda m: m.update(trained_on="denver"), id="dt-unknown-key"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(depth=2), id="leaf-unknown-key"),
        pytest.param("dt-v1", lambda m: first_node(m["root"], "split").update(depth=1), id="split-unknown-key"),
        pytest.param("dt-v1", lambda m: m.update(max_leaves=1), id="max-leaves-1"),
        pytest.param("dt-v1", lambda m: m.update(max_leaves=0), id="max-leaves-0"),
        pytest.param("dt-v1", lambda m: m.update(max_leaves=2), id="max-leaves-below-leaf-count"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(counts={"5": 0}), id="count-zero"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(counts={"5": -5}), id="count-negative"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(counts={"1": 2, "5": 0}), id="count-zero-beside-positive"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(counts={}), id="no-counts"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update({"class": 1}), id="class-not-counted"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(counts={"1": 2, "5": 15}, **{"class": 1}),
                     id="class-not-largest"),
        pytest.param("dt-v1", lambda m: first_leaf(m).update(counts={"1": 15, "5": 15}), id="tie-to-later-class"),
    ])
    def test_a_file_train_never_writes_is_a_one_line_data_error(self, tmp_path, capsys, schema, edit):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(edited(NB_MODEL if schema == "nb-v1" else DT_MODEL, edit)), encoding="utf-8")
        code = main(["predict", "--model", str(path), "--month", "June", "--day", "Friday",
                     "--time", "T6", "--location", "cbd"])
        assert code == 2
        assert f"{path}: malformed {schema} model: " in assert_one_line_error(capsys, "error: ")

    @pytest.mark.parametrize("model", [
        pytest.param(NB_MODEL, id="nb"),
        pytest.param(DT_MODEL, id="dt"),
        pytest.param(edited(DT_MODEL, lambda m: first_leaf(m).update(counts={"1": 15, "5": 15}, **{"class": 1})),
                     id="tie-to-first-class"),
        pytest.param(edited(DT_MODEL, lambda m: m.update(max_leaves=3)), id="max-leaves-equal-to-leaf-count"),
    ])
    def test_what_train_can_write_loads(self, tmp_path, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["predict", "--model", str(path), "--month", "June", "--day", "Friday",
                     "--time", "T6", "--location", "cbd", "--output", str(tmp_path / "p.json")]) == 0


GOOD_UNIFIED = {"day": "Friday", "hour": 21, "location": "cbd", "month": "June", "time": "T6", "type": "Theft",
                "type_id": 5, "year": 2014}
GOOD_RAW = {"category": "larceny", "date": "2014-06-13", "is_crime": True, "location": "five-points",
            "source_row": 7, "time": "21:30"}


class TestWrittenValuesOnly:
    """A JSON Lines file holding a value its writer never writes (a year no date
    holds, a location or category that normalization would change) is a one-line
    data error naming the line and the field, on the template path or not."""

    @pytest.mark.parametrize("kind, change", [
        ("unified", {"year": 0}), ("unified", {"year": -7}), ("unified", {"year": 9999999999}),
        ("unified", {"location": "Civic Center"}), ("unified", {"location": "civic  center"}),
        ("raw", {"location": "Civic Center"}), ("raw", {"category": "Larceny"}), ("raw", {"category": "all  other"}),
    ])
    def test_a_value_no_writer_writes_is_a_one_line_error(self, tmp_path, capsys, kind, change):
        good = GOOD_UNIFIED if kind == "unified" else GOOD_RAW
        lines = [json.dumps(good, sort_keys=True)] * 3 + [json.dumps({**good, **change}, sort_keys=True)]
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = (["stats", "--dataset", str(path), "--attribute", "day"] if kind == "unified"
                else ["preprocess", "--schema", "denver", "--input", str(path)])
        assert main([*argv, "--output", str(tmp_path / "out")]) == 2
        (field, value), = change.items()
        assert assert_one_line_error(capsys, "error: ") == (
            f"error: {path}: bad {kind} record on line 4: bad {field} {value!r}\n")
        assert not (tmp_path / "out").exists()


class TestWholeOutputs:
    """A run's output files appear whole or not at all."""

    @pytest.mark.parametrize("argv, code, target", [
        (["mine", "--dataset", "unified.jsonl", "--min-sup", "0.3", "--summary", "nodir/s.json"],
         2, "patterns.csv"),
        (["evaluate", "--dataset", "unified.jsonl", "--model", "nb", "--folds", "3",
          "--output", "cv.json", "--csv", "nodir/m.csv"], 2, "cv.json"),
        (["train", "--dataset", "unified.jsonl", "--model", "nb", "--train-fraction", "1.0",
          "--eval-report", "h.json"], 1, "model.json"),
    ])
    def test_failed_run_writes_no_output(self, pipeline, monkeypatch, argv, code, target):
        monkeypatch.chdir(pipeline)
        assert main(argv) == code
        assert not (pipeline / target).exists()
        (pipeline / target).write_bytes(b"kept\n")
        assert main(argv) == code
        assert (pipeline / target).read_bytes() == b"kept\n"
        assert not list(pipeline.rglob("*.tmp"))

    def test_outputs_replace_old_files_whole(self, pipeline, monkeypatch):
        monkeypatch.chdir(pipeline)
        (pipeline / "p.csv").write_text("x" * 10000, encoding="utf-8")
        assert main(["mine", "--dataset", "unified.jsonl", "--min-sup", "0.3", "--output", "p.csv"]) == 0
        assert read(pipeline / "p.csv").startswith("location,day,time,support,count\n")
        assert json.loads(read(pipeline / "p.summary.json"))["dataset_size"] == 9
        assert not list(pipeline.rglob("*.tmp"))

    def test_device_target_is_written_in_place(self, pipeline):
        assert main(["mine", "--dataset", str(pipeline / "unified.jsonl"), "--min-sup", "0.3",
                     "--output", os.devnull, "--summary", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("target", ["-", os.devnull, "/dev/stdout"])
    def test_mine_puts_no_summary_beside_stdout_or_a_device(self, target):
        args = cli._parse(["mine", "--dataset", FIXTURE, "--min-sup", "0.05", "--output", target])
        assert [path for path, _ in args.handler(args)] == [target, None]

    @pytest.mark.parametrize("argv, named", [
        (["train", "--dataset", "unified.jsonl", "--model", "nb", "--output", "m.json",
          "--eval-report", "m.json"], "m.json"),
        (["evaluate", "--dataset", "unified.jsonl", "--model", "nb", "--folds", "3",
          "--output", "x", "--csv", "./x"], "./x"),
        (["evaluate", "--dataset", "unified.jsonl", "--model", "nb", "--folds", "3",
          "--output", "x", "--csv", "link"], "link"),
    ])
    def test_two_outputs_naming_one_file_is_usage_error(self, pipeline, capsys, monkeypatch, argv, named):
        monkeypatch.chdir(pipeline)
        (pipeline / "x").write_bytes(b"kept\n")
        (pipeline / "link").symlink_to("x")
        before = tree(pipeline)
        assert main(argv) == 1
        assert named in assert_one_line_error(capsys, "usage error: ")
        assert tree(pipeline) == before

    def test_stdout_and_devices_may_repeat(self, pipeline, capsys, monkeypatch):
        monkeypatch.chdir(pipeline)
        for target in ("-", os.devnull):
            assert main(["evaluate", "--dataset", "unified.jsonl", "--model", "nb", "--folds", "3",
                         "--output", target, "--csv", target]) == 0
        assert capsys.readouterr().out.count("class,precision,recall,f1,support\n") == 1


def run_cli(argv: list[str], module: str = "crimeminer", **kwargs) -> subprocess.CompletedProcess:
    """``python -m module argv`` in a fresh interpreter; keyword arguments go to ``subprocess.run``."""
    return subprocess.run([sys.executable, "-m", module, *argv], env=cli_env(), timeout=120, **kwargs)


class TestStops:
    """An interrupt ends a run with one line and exit 130; a closed stdout ends it
    quietly with exit 141. Either way the output files are whole or as they were."""

    CROSSTAB = ["stats", "--dataset", FIXTURE, "--rows", "location", "--cols", "hour"]

    @pytest.mark.parametrize("module", ["crimeminer", "crimeminer.cli"])
    def test_a_closed_stdout_exits_quietly(self, module):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte, as after ``| head -1``
        try:
            done = run_cli(self.CROSSTAB, module, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (cli.EXIT_CLOSED_PIPE, b"")

    def test_sigint_prints_one_line_and_exits_130(self, tmp_path):
        fifo = tmp_path / "unified.jsonl"
        os.mkfifo(fifo)
        child = subprocess.Popen([sys.executable, "-m", "crimeminer", "stats", "--dataset", str(fifo),
                                  "--attribute", "day"], env=cli_env(), stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 60
        while True:  # a writer opens once the child opens the dataset to read, inside ``main``
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError:  # no reader yet
                assert child.poll() is None and time.monotonic() < deadline, child.communicate()
                time.sleep(0.01)
        try:
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            os.close(writer)
        assert (child.returncode, err) == (cli.EXIT_INTERRUPTED, "interrupted\n")

    def test_an_interrupt_while_writing_leaves_every_target_as_it_was(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "day.csv"
        out.write_text("earlier\n", encoding="utf-8")

        def interrupted(table, fp):
            fp.write("value,count,percentage\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(stats, "write_frequency_csv", interrupted)
        assert main(["stats", "--dataset", FIXTURE, "--attribute", "day", "--output", str(out)]) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["day.csv"]
        assert out.read_text(encoding="utf-8") == "earlier\n"


class TestDescriptorTargets:
    """``/dev/stdout`` and its kin are written through the descriptor they name."""

    STATS = ["stats", "--dataset", FIXTURE, "--attribute", "time"]
    EVALUATE = ["evaluate", "--dataset", FIXTURE, "--model", "nb", "--output", "-"]

    @pytest.mark.parametrize("argv, dash", [
        (STATS + ["--output", "/dev/stdout"], STATS + ["--output", "-"]),
        (EVALUATE + ["--csv", "/dev/stdout"], EVALUATE + ["--csv", "-"]),
    ], ids=["stats", "evaluate-json-then-csv"])
    def test_pipe_gets_what_dash_gets(self, argv, dash):
        done = run_cli(argv, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == run_cli(dash, capture_output=True, check=True).stdout

    def test_appended_file_keeps_what_it_held(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier\n")
        with open(out, "ab") as fp:
            done = run_cli(self.STATS + ["--output", "/dev/stdout"], stdout=fp, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr) == (0, b"")
        dash = run_cli(self.STATS + ["--output", "-"], capture_output=True, check=True).stdout
        assert out.read_bytes() == b"earlier\n" + dash


class TestDashMeansStdout:
    @pytest.mark.parametrize("argv, expected", [
        (["ingest", "--schema", "denver", "--input", "denver.csv", "--output", "raw2.jsonl",
          "--report", "-"], '"rows_read": 10'),
        (["preprocess", "--schema", "denver", "--input", "raw.jsonl", "--output", "u2.jsonl",
          "--report", "-"], '"rows_in"'),
        (["mine", "--dataset", "unified.jsonl", "--min-sup", "0.2", "--output", "p.csv",
          "--summary", "-"], '"pattern_count"'),
        (["train", "--dataset", "unified.jsonl", "--model", "nb", "--output", "m.json",
          "--eval-report", "-"], '"accuracy"'),
        (["evaluate", "--dataset", "unified.jsonl", "--model", "nb", "--folds", "3",
          "--output", "cv.json", "--csv", "-"], "class,precision,recall,f1,support\n"),
        (["demographics", "--dataset", "unified.jsonl", "--demographics", "demo.csv",
          "--top", "1", "--bottom", "1", "--output", "g.csv", "--json", "-"], '"dangerous"'),
    ])
    def test_side_output_dash_writes_stdout(self, pipeline, capsys, monkeypatch, argv, expected):
        monkeypatch.chdir(pipeline)
        assert main(argv) == 0
        assert expected in capsys.readouterr().out
        assert not (pipeline / "-").exists()


def assert_one_line_error(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def cli_env(**extra: str) -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's ``crimeminer``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p), **extra)


def modules_after(argv: list[str]) -> set[str]:
    """Module names in ``sys.modules`` after one ``main(argv)`` in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "from crimeminer.cli import main\n"
        "try:\n    code = main(json.loads(sys.argv[1]))\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=cli_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code in (0, None), done.stderr
    return set(modules)


class TestImports:
    """Each call loads only the modules of its own stage (which modules, not how fast)."""

    def test_predict_loads_no_other_stage(self, pipeline):
        model = pipeline / "nb.json"
        assert main(["train", "--dataset", str(pipeline / "unified.jsonl"), "--model", "nb",
                     "--output", str(model)]) == 0
        loaded = modules_after(["predict", "--model", str(model), "--month", "June",
                                "--day", "Friday", "--time", "T6", "--location", "cbd",
                                "--output", str(pipeline / "p.json")])
        assert {"crimeminer.classify", "crimeminer.vocab"} <= loaded
        unwanted = {f"crimeminer.{name}" for name in
                    ("ingestion", "preprocess", "apriori", "stats", "evaluate", "demographics", "growth",
                     "training", "rawjsonl", "csvrows", "demographics_csv", "cli_config", "table")}
        assert not loaded & (unwanted | {"concurrent.futures"})

    def test_no_call_loads_dataclasses(self, pipeline):
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        model, out = str(pipeline / "nb.json"), str(pipeline / "out")
        calls = [
            ["train", *dataset, "--model", "nb", "--output", model, "--eval-report", out],
            ["predict", "--model", model, "--month", "June", "--day", "Friday", "--time", "T6",
             "--location", "cbd", "--output", out],
            ["stats", *dataset, "--attribute", "day", "--output", out],
            ["evaluate", *dataset, "--model", "dt", "--folds", "3", "--output", out],
            ["demographics", *dataset, "--demographics", str(pipeline / "demo.csv"), "--top", "2",
             "--bottom", "2", "--output", out],
            ["ingest", "--schema", "denver", "--input", str(pipeline / "denver.csv"), "--output", out],
            ["--help"],
        ]
        for argv in calls:
            assert not modules_after(argv) & {"dataclasses", "inspect"}, argv[0]

    def test_stages_load_only_the_interchange_module_they_read(self, pipeline):
        """The JSONL scanner lives in ``preprocess``: the analytic stages,
        which read ``unified.jsonl``, load no ``ingestion``, and ``ingest``,
        which only writes, loads no ``preprocess``."""
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        out = str(pipeline / "out")
        analytic = [
            ["stats", *dataset, "--attribute", "day", "--output", out],
            ["mine", *dataset, "--min-sup", "0.2", "--output", out],
            ["train", *dataset, "--model", "dt", "--output", out],
            ["evaluate", *dataset, "--model", "nb", "--folds", "2", "--output", out],
        ]
        for argv in analytic:
            loaded = modules_after(argv)
            assert "crimeminer.preprocess" in loaded and "crimeminer.ingestion" not in loaded, argv[0]
            assert "crimeminer.table" in loaded, argv[0]
        loaded = modules_after(["ingest", "--schema", "denver", "--input", str(pipeline / "denver.csv"),
                                "--output", out])
        assert "crimeminer.ingestion" in loaded and "crimeminer.preprocess" not in loaded

    def test_threads_flag_loads_no_thread_pool(self, pipeline):
        """``--threads`` has no effect: any value loads no ``concurrent.futures``
        (which loads ``logging``) and writes the same bytes."""
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        calls = {
            "mine": [*dataset, "--min-sup", "0.1"],
            "evaluate": [*dataset, "--model", "nb", "--folds", "2", "--csv", "{out}.csv"],
        }
        for name, flags in calls.items():
            written = {}
            for threads in ("1", "2"):
                out = str(pipeline / f"{name}-{threads}")
                argv = [name, *(flag.format(out=out) for flag in flags), "--threads", threads,
                        "--output", out]
                assert "concurrent.futures" not in modules_after(argv), argv
                written[threads] = sorted((p.name.replace(f"-{threads}", ""), p.read_bytes())
                                          for p in pipeline.glob(f"{name}-{threads}*"))
            assert written["1"] == written["2"] and written["1"], name

    def test_only_stats_loads_stats(self, pipeline):
        """``round_half_up`` lives in ``vocab``: the stages that round their
        output without tabulating do not compile ``stats``."""
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        out = str(pipeline / "out")
        for argv in (["mine", *dataset, "--min-sup", "0.2", "--output", out],
                     ["train", *dataset, "--model", "nb", "--output", out, "--eval-report", f"{out}.json"],
                     ["evaluate", *dataset, "--model", "dt", "--folds", "2", "--output", out]):
            assert "crimeminer.stats" not in modules_after(argv), argv[0]
        assert stats.round_half_up is vocab.round_half_up

    def test_help_loads_no_stage_module(self):
        loaded = modules_after(["--help"])
        assert {m for m in loaded if m.startswith("crimeminer.")} == {
            "crimeminer.cli", "crimeminer.errors"}

    def test_each_call_loads_its_own_handler_alone(self, pipeline):
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        out = str(pipeline / "out")
        calls = [
            ["ingest", "--schema", "denver", "--input", str(pipeline / "denver.csv"), "--output", out],
            ["preprocess", "--schema", "denver", "--input", str(pipeline / "raw.jsonl"), "--output", out],
            ["mine", *dataset, "--min-sup", "0.2", "--output", out],
            ["train", *dataset, "--model", "nb", "--output", str(pipeline / "nb.json")],
            ["predict", "--model", str(pipeline / "nb.json"), "--month", "June", "--day", "Friday",
             "--time", "T6", "--location", "cbd", "--output", out],
        ]
        for argv in calls:
            handlers = {m for m in modules_after(argv) if m.startswith("crimeminer.cli_")}
            assert handlers == {f"crimeminer.cli_{argv[0]}"}, argv[0]

    def test_preprocess_and_demographics_load_no_csv_feed_loader(self, pipeline):
        out = str(pipeline / "out")
        loaded = modules_after(["preprocess", "--schema", "denver", "--input", str(pipeline / "raw.jsonl"),
                                "--output", out])
        assert "crimeminer.rawjsonl" in loaded
        assert "crimeminer.table" in loaded  # the raw read and the unified output are tables
        assert not loaded & {"crimeminer.ingestion", "crimeminer.csvrows", "crimeminer.demographics_csv"}
        loaded = modules_after(["demographics", "--dataset", str(pipeline / "unified.jsonl"),
                                "--demographics", str(pipeline / "demo.csv"), "--top", "2", "--bottom", "2",
                                "--output", out])
        assert "crimeminer.demographics_csv" in loaded
        assert not loaded & {"crimeminer.ingestion", "crimeminer.rawjsonl"}

    def test_demographics_loads_difflib_only_for_an_unmatched_neighborhood(self, pipeline):
        """``difflib`` suggests the nearest name, on the error path alone."""
        loaded = modules_after(["demographics", "--dataset", str(pipeline / "unified.jsonl"), "--demographics",
                                str(pipeline / "demo.csv"), "--top", "2", "--bottom", "2",
                                "--output", str(pipeline / "out")])
        assert "crimeminer.demographics" in loaded and "difflib" not in loaded

    def test_config_code_loads_only_with_config(self, pipeline):
        dataset = ["--dataset", str(pipeline / "unified.jsonl")]
        out = str(pipeline / "out")
        config, columns = pipeline / "config.json", pipeline / "columns.json"
        config.write_text('{"attribute": "day"}', encoding="utf-8")
        columns.write_text(json.dumps(DEFAULT_COLUMNS), encoding="utf-8")
        for argv in (["stats", *dataset, "--rows", "type", "--cols", "day", "--output", out],
                     ["evaluate", *dataset, "--model", "nb", "--folds", "2", "--csv", f"{out}.csv", "--output", out],
                     ["demographics", *dataset, "--demographics", str(pipeline / "demo.csv"), "--top", "2",
                      "--bottom", "2", "--columns", str(columns), "--output", out]):
            assert "crimeminer.cli_config" not in modules_after(argv), argv[0]
        for flag in (["--config", str(config)], [f"--config={config}"], ["--conf", str(config)]):
            assert "crimeminer.cli_config" in modules_after(["stats", *dataset, *flag, "--output", out]), flag

    def test_every_module_stays_under_2400_tokens(self):
        """CPython 3.11's parser holds about 0.5 KB per token until it has
        compiled a module, and with no bytecode cache every call compiles each
        module it loads, so small modules keep a call's peak memory low.
        Tokens are counted without comments and non-logical line breaks."""
        sizes = {}
        for path in sorted((SRC / "crimeminer").glob("*.py")):
            with open(path, encoding="utf-8") as fp:
                sizes[path.name] = sum(1 for token in tokenize.generate_tokens(fp.readline)
                                       if token.type not in (tokenize.COMMENT, tokenize.NL))
        assert len(sizes) > 20
        assert {name: n for name, n in sizes.items() if n >= 2400} == {}

    def test_moved_names_are_reexported_unchanged(self):
        for name in ("MONTH_NAMES", "WEEKDAY_NAMES", "TimeBin", "TIME_BIN_ORDER", "bin_time",
                     "CrimeCategory", "UnifiedCrimeRecord"):
            assert getattr(preprocess, name) is getattr(vocab, name)
        for name in ("Schema", "normalize_location", "normalize_category"):
            assert getattr(ingestion, name) is getattr(vocab, name)


class TestParserPerCall:
    """A call builds only its own subcommand's parser, and prints what the full parser would."""

    @pytest.mark.parametrize("argv", [[name, flag] for name in build_parser()[1]
                                      for flag in ("--help", "--no-such-flag")], ids=" ".join)
    def test_one_subparser_prints_what_all_print(self, capsys, monkeypatch, argv):
        def run():
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = run()
        build_all = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda only=None, **kwargs: build_all())
        assert run() == alone
        assert alone[0] == (0 if argv[1] == "--help" else 1)

    @pytest.mark.parametrize("argv, built", [
        (["predict", "--help"], ["predict"]),
        (["--help"], list(cli._COMMANDS)),
        (["transmogrify"], list(cli._COMMANDS)),
    ])
    def test_a_named_subcommand_is_built_alone(self, monkeypatch, argv, built):
        seen = []
        build = cli.build_parser

        def recording(only=None, **kwargs):
            parser, commands = build(only, **kwargs)
            seen.append(list(commands))
            return parser, commands

        monkeypatch.setattr(cli, "build_parser", recording)
        with contextlib.suppress(SystemExit):
            main(argv)
        assert seen == [built]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline):
        files = {}
        for round_index in ("one", "two"):
            out = pipeline / round_index
            out.mkdir()
            main(["ingest", "--schema", "denver", "--input", str(pipeline / "denver.csv"),
                  "--output", str(out / "raw.jsonl"), "--report", str(out / "ingest.json")])
            main(["preprocess", "--schema", "denver", "--input", str(out / "raw.jsonl"),
                  "--output", str(out / "unified.jsonl")])
            main(["mine", "--dataset", str(out / "unified.jsonl"), "--min-sup", "0.2",
                  "--output", str(out / "patterns.csv")])
            main(["train", "--dataset", str(out / "unified.jsonl"), "--model", "nb",
                  "--seed", "42", "--output", str(out / "model.json")])
            main(["evaluate", "--dataset", str(out / "unified.jsonl"), "--model", "dt",
                  "--folds", "3", "--seed", "42", "--output", str(out / "cv.json")])
            files[round_index] = {
                p.name: p.read_bytes() for p in out.iterdir()
            }
        assert files["one"] == files["two"]

    def test_mine_threads_bit_identical(self, pipeline):
        dataset = str(pipeline / "unified.jsonl")
        main(["mine", "--dataset", dataset, "--min-sup", "0.2", "--threads", "1",
              "--output", str(pipeline / "t1.csv")])
        main(["mine", "--dataset", dataset, "--min-sup", "0.2", "--threads", "4",
              "--output", str(pipeline / "t4.csv")])
        assert (pipeline / "t1.csv").read_bytes() == (pipeline / "t4.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, pipeline):
        config = pipeline / "run.json"
        config.write_text(json.dumps({"min_sup": 0.3, "output": str(pipeline / "from_config.csv")}))
        assert main(
            ["mine", "--dataset", str(pipeline / "unified.jsonl"), "--config", str(config)]
        ) == 0
        assert (pipeline / "from_config.csv").exists()
        # explicit flag beats the config value
        assert main(
            ["mine", "--dataset", str(pipeline / "unified.jsonl"), "--config", str(config),
             "--output", str(pipeline / "explicit.csv")]
        ) == 0
        assert (pipeline / "explicit.csv").exists()
        assert read(pipeline / "explicit.csv") == read(pipeline / "from_config.csv")

    def test_config_supplies_a_required_flag(self, pipeline, capsys, monkeypatch):
        monkeypatch.chdir(pipeline)
        Path("c.json").write_text(json.dumps({"dataset": "unified.jsonl"}), encoding="utf-8")
        assert main(["stats", "--config", "c.json", "--attribute", "day", "--output", "a.csv"]) == 0
        assert main(["stats", "--dataset", "unified.jsonl", "--attribute", "day", "--output", "b.csv"]) == 0
        assert read(pipeline / "a.csv") == read(pipeline / "b.csv")
        Path("c.json").write_text(json.dumps({"year": 2014}), encoding="utf-8")
        assert main(["stats", "--config", "c.json", "--attribute", "day", "--output", "c.csv"]) == 1
        err = assert_one_line_error(capsys, "usage error: ")
        assert err == "usage error: the following arguments are required: --dataset\n"


HASH_SEED_CHAIN = [
    ["ingest", "--schema", "denver", "--input", "../denver.csv", "--output", "raw.jsonl",
     "--report", "ingest.json"],
    ["preprocess", "--schema", "denver", "--input", "raw.jsonl", "--output", "unified.jsonl",
     "--report", "preprocess.json"],
    ["demographics", "--dataset", "unified.jsonl", "--demographics", "../demo.csv", "--top", "2",
     "--bottom", "2", "--output", "groups.csv", "--json", "groups.json"],
    ["mine", "--dataset", FIXTURE, "--min-sup", "0.003", "--output", "patterns.csv"],
    ["train", "--dataset", FIXTURE, "--model", "nb", "--output", "nb.json", "--eval-report", "nb-eval.json"],
    ["train", "--dataset", FIXTURE, "--model", "dt", "--output", "dt.json", "--eval-report", "dt-eval.json"],
    ["evaluate", "--dataset", FIXTURE, "--model", "dt", "--output", "cv.json", "--csv", "cv.csv"],
    ["stats", "--dataset", FIXTURE, "--rows", "location", "--cols", "day", "--output", "crosstab.csv"],
    ["stats", "--dataset", FIXTURE, "--top", "3", "--middle", "2", "--bottom", "3",
     "--output", "ranking.csv"],
]


def test_outputs_do_not_depend_on_the_hash_seed(pipeline):
    """Set and dict order vary with ``PYTHONHASHSEED``; no output byte may."""
    script = "import json, sys\nfrom crimeminer.cli import main\nsys.exit(max(map(main, json.loads(sys.argv[1]))))\n"
    outputs = []
    for seed in ("1", "2"):
        work = pipeline / f"hash-seed-{seed}"
        work.mkdir()
        subprocess.run([sys.executable, "-c", script, json.dumps(HASH_SEED_CHAIN)], cwd=work,
                       env=cli_env(PYTHONHASHSEED=seed), timeout=120, check=True)
        outputs.append(tree(work))
    assert len(outputs[0]) == 16
    assert outputs[0] == outputs[1]


# --- CLI fuzzing ----------------------------------------------------------------

_, COMMANDS = build_parser()
FUZZ_BASE = ("denver.csv", "demo.csv", "raw.jsonl", "unified.jsonl", "nb.json")  # made once per module
FUZZ_FILES = (*FUZZ_BASE, "config.json", "random")  # written for each case
FUZZ_OUTPUTS = ("out.a", "out.b", "-", "nodir/out", "dir", "unified.jsonl")
FUZZ_VALUES = ("0", "-1", "1.5", "nan", "", "x", "missing", "dir", *FUZZ_FILES)
# Values each flag plausibly takes, so that most runs get past the parser.
PLAUSIBLE = {
    "schema": ("denver", "la"), "input": ("denver.csv", "raw.jsonl", "random"),
    "dataset": ("unified.jsonl", "random"), "demographics": ("demo.csv", "random"),
    "columns": ("random",), "mapping": ("random",), "model": ("nb.json", "random"),
    "config": ("config.json",), "month": ("June", "january"), "day": ("Friday",),
    "time": ("T6", "t1"), "location": ("five-points", "cbd"), "year": ("2014", "2015"),
    "attribute": ("day", "type", "location", "hour"), "rows": ("type", "month"), "cols": ("day", "time"),
    "top": ("0", "1", "3"), "middle": ("0", "2"), "bottom": ("1", "3"), "min_sup": ("0.1", "0.3", "1"),
    "min_count": ("1", "3", "9"), "alpha": ("0", "1", "0.5"), "max_leaves": ("2", "10"),
    "folds": ("2", "3"), "train_fraction": ("0.5", "0.8", "1.0"), "seed": ("1", "42"),
    "threads": ("1", "3"), "max_reject_fraction": ("0.5", "1"), "exclude": ("theft",),
}


# Flags that go together: most cases pick one group for these subcommands.
MODES = {"stats": [("attribute",), ("rows", "cols"), ("top", "middle", "bottom")],
         "mine": [("min_sup",), ("min_count",)]}


def flag_value(action, rnd):
    if action.nargs == 0:  # an on/off switch takes a value only in a config file
        return rnd.random() < 0.5
    if rnd.random() < 0.15:
        return rnd.choice(FUZZ_VALUES)
    if action.choices:
        return rnd.choice(action.choices)
    if action.dest in ("output", "report", "summary", "eval_report", "csv", "json"):
        return rnd.choice(FUZZ_OUTPUTS)
    return rnd.choice(PLAUSIBLE[action.dest])


@st.composite
def fuzz_cases(draw):
    """argv over the real flags of one subcommand, plus the text of its config file."""
    rnd = draw(st.randoms(use_true_random=True))
    name = rnd.choice(sorted(COMMANDS))
    flags = [a for a in COMMANDS[name]._actions if a.option_strings and a.dest != "help"]
    mode = rnd.choice(MODES[name]) if name in MODES and rnd.random() < 0.9 else ()
    argv = [name]
    for action in flags:
        if action.required or action.dest in mode or rnd.random() < 0.2:
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(flag_value(action, rnd))
    if rnd.random() < 0.1:
        argv += rnd.choice([["--seed", "1"], ["--threads", "2"], ["--bogus"]])
    config = {}
    for action in rnd.sample(flags, min(len(flags), rnd.randint(0, 2))):
        config[action.dest] = rnd.choice([flag_value(action, rnd), 0, 2.5, True, None, ["x"]])
    if rnd.random() < 0.1:
        config["seed" if name in ("train", "evaluate") else "bogus"] = 1
    return argv, json.dumps(config)


# Random bytes, or the start of a valid file with a few random bytes after it.
fuzz_contents = st.one_of(
    st.binary(max_size=120),
    st.tuples(st.sampled_from(FUZZ_BASE), st.integers(0, 1500), st.binary(max_size=6)),
)


def tree(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


@contextlib.contextmanager
def working_dir(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "denver.csv").write_text(DENVER_CSV, encoding="utf-8")
    (work / "demo.csv").write_text(DEMO_CSV, encoding="utf-8")
    with working_dir(work):
        assert main(["ingest", "--schema", "denver", "--input", "denver.csv", "--output", "raw.jsonl"]) == 0
        assert main(["preprocess", "--schema", "denver", "--input", "raw.jsonl",
                     "--output", "unified.jsonl"]) == 0
        assert main(["train", "--dataset", "unified.jsonl", "--model", "nb", "--output", "nb.json"]) == 0
    return {name: (work / name).read_bytes() for name in FUZZ_BASE}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzz_cases(), content=fuzz_contents)
def test_fuzzed_command_line(fuzz_files, case, content):
    """Any argv over the real flags and small random files: exit 0, or 1 or 2 with a
    one-line message; no temp file left behind, and a failed run changes no file."""
    argv, config = case
    if isinstance(content, tuple):
        name, cut, junk = content
        content = fuzz_files[name][:cut] + junk
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, data in {**fuzz_files, "config.json": config.encode(), "random": content}.items():
            (work / name).write_bytes(data)
        (work / "dir").mkdir()
        before = tree(work)
        stderr = io.StringIO()
        with working_dir(work), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        after = tree(work)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue()
    assert code == 0 or stderr.getvalue().count("\n") == 1, stderr.getvalue()
    assert not [name for name in after if name.endswith(".tmp")], argv
    if code != 0:
        assert after == before, (argv, stderr.getvalue())
