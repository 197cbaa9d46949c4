"""Acceptance suite: binding end-to-end criteria, one test per criterion.

Each test prints a ``[acceptance] criterion N: PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``). Criterion 9 needs the real city
datasets and is skipped unless CRIMEMINER_DATA_DIR is set; when it runs it is
informational only and never fails the suite.
"""

import contextlib
import json
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import brute_force_posterior, exhaustive_frequent, make_record
from crimeminer import synthetic
from crimeminer.apriori import mine_frequent, mine_hotspot_patterns
from crimeminer.classify import dt_train, entropy, nb_predict, nb_train
from crimeminer.cli import main
from crimeminer.evaluate import ConfusionMatrix, classification_report, cross_validate
from crimeminer.preprocess import (
    MONTH_NAMES,
    WEEKDAY_NAMES,
    CrimeCategory,
    TimeBin,
    bin_time,
)
from crimeminer.stats import crosstab, frequency_table


@contextlib.contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_metric_table_reproduction():
    with criterion(1, "reference confusion matrix reproduces every report number"):
        started = time.perf_counter()
        matrix = ConfusionMatrix(
            cells=(
                (0, 4, 230, 0, 1833, 0),
                (0, 39, 344, 0, 3004, 0),
                (0, 42, 1028, 0, 7738, 0),
                (0, 10, 409, 0, 7159, 0),
                (0, 27, 737, 0, 22721, 0),
                (0, 2, 30, 0, 971, 0),
            )
        )
        report = classification_report(matrix)
        A, DA, OC, PD, TH, WC = CrimeCategory
        expectations = {
            A: (0.00, 0.00, 0.00, 2067),
            DA: (0.31, 0.01, 0.02, 3387),
            OC: (0.37, 0.12, 0.18, 8808),
            PD: (0.00, 0.00, 0.00, 7578),
            TH: (0.52, 0.97, 0.68, 23485),
            WC: (0.00, 0.00, 0.00, 1003),
        }
        for c, (precision, recall, f1, support) in expectations.items():
            metrics = report.per_class[c]
            assert metrics.precision == pytest.approx(precision, abs=0.005)
            assert metrics.recall == pytest.approx(recall, abs=0.005)
            assert metrics.f1 == pytest.approx(f1, abs=0.005)
            assert metrics.support == support
        assert report.weighted.precision == pytest.approx(0.36, abs=0.005)
        assert report.weighted.recall == pytest.approx(0.51, abs=0.005)
        assert report.weighted.f1 == pytest.approx(0.38, abs=0.005)
        assert report.matrix.trace == 23788
        assert report.matrix.total == 46328
        assert report.accuracy == pytest.approx(0.51, abs=0.005)
        assert time.perf_counter() - started < 1.0


def _random_transactions(rng: random.Random):
    alphabet = "abcdefgh"[: rng.randint(1, 8)]
    return [
        frozenset(rng.sample(alphabet, rng.randint(1, len(alphabet))))
        for _ in range(rng.randint(1, 12))
    ]


def test_criterion_2_apriori_oracle_equivalence():
    with criterion(2, "mine_frequent equals exhaustive enumeration on 200 instances"):
        started = time.perf_counter()
        rng = random.Random(20_2020)
        for _ in range(200):
            transactions = _random_transactions(rng)
            n = len(transactions)
            all_counts = exhaustive_frequent(transactions, min_sup=1 / (n + 1))
            for min_sup in (0.2, 0.4, 0.6, 0.8, 1.0):
                run = mine_frequent(transactions, min_sup)
                expected = {s for s, c in all_counts.items() if c / n >= min_sup}
                assert run.frequent_sets() == expected
        assert time.perf_counter() - started < 10.0


def test_criterion_3_mining_monotonicity_properties():
    with criterion(3, "anti-monotonicity and min-sup monotonicity on all runs"):
        rng = random.Random(33)
        thresholds = (0.2, 0.4, 0.6, 0.8)
        for _ in range(50):
            transactions = _random_transactions(rng)
            runs = [mine_frequent(transactions, s) for s in thresholds]
            for run in runs:
                frequent = run.frequent_sets()
                for itemset in frequent:
                    for item in itemset:
                        if len(itemset) > 1:
                            assert itemset - {item} in frequent
            for low, high in zip(runs, runs[1:]):
                assert high.frequent_sets() <= low.frequent_sets()


def test_criterion_4_nb_oracle_equivalence():
    with criterion(4, "Bayes posteriors match brute force within 1e-9 on 100 sets"):
        rng = random.Random(44)
        strategy_months = MONTH_NAMES[:4]
        locations = ("a", "b", "c", "d")
        for _ in range(100):
            train = [
                make_record(
                    crime_type=rng.choice(list(CrimeCategory)),
                    month=rng.choice(strategy_months),
                    day=rng.choice(WEEKDAY_NAMES),
                    hour=rng.randrange(24),
                    location=rng.choice(locations),
                )
                for _ in range(rng.randint(1, 20))
            ]
            alpha = rng.choice((0.1, 0.5, 1.0, 2.0))
            model = nb_train(train, alpha=alpha)
            query = make_record(
                month=rng.choice(MONTH_NAMES),
                day=rng.choice(WEEKDAY_NAMES),
                hour=rng.randrange(24),
                location=rng.choice(locations + ("unseen-place",)),
            )
            x = query
            _, posterior = nb_predict(model, x)
            expected = brute_force_posterior(train, x, alpha)
            assert abs(sum(posterior.values()) - 1.0) <= 1e-9
            for c in CrimeCategory:
                assert abs(posterior[c] - expected[c]) <= 1e-9


def test_criterion_5_tree_constraints():
    with criterion(5, "leaf caps, positive gains, and the entropy anchor"):
        assert entropy({"A": 3, "B": 1}) == pytest.approx(0.8113, abs=1e-4)
        rng = random.Random(55)
        for _ in range(100):
            train = [
                make_record(
                    crime_type=rng.choice(list(CrimeCategory)),
                    month=rng.choice(MONTH_NAMES[:3]),
                    day=rng.choice(WEEKDAY_NAMES),
                    hour=rng.randrange(24),
                    location=rng.choice(("a", "b", "c")),
                )
                for _ in range(rng.randint(1, 40))
            ]
            for max_leaves in (2, 5, 10):
                tree = dt_train(train, max_leaves=max_leaves)
                assert tree.leaf_count <= max_leaves
                for split in tree.splits():
                    assert split.gain > 0.0


def test_criterion_6_time_bin_partition():
    with criterion(6, "bin_time partitions 24 hours into six four-hour bins"):
        assignment = Counter(bin_time(h) for h in range(24))
        assert assignment == {b: 4 for b in TimeBin}
        assert bin_time(0) is TimeBin.T6
        assert bin_time(21) is TimeBin.T6
        assert bin_time(5) is TimeBin.T2


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "reruns are byte-identical; threads do not change bits"):
        source = Path(__file__).parent / "data" / "synthetic_crimes.jsonl"
        dataset = str(source)
        outputs = {}
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            assert main(["mine", "--dataset", dataset, "--min-sup", "0.02",
                         "--output", str(base / "patterns.csv")]) == 0
            assert main(["train", "--dataset", dataset, "--model", "nb", "--seed", "42",
                         "--output", str(base / "nb.json")]) == 0
            assert main(["train", "--dataset", dataset, "--model", "dt", "--seed", "42",
                         "--output", str(base / "dt.json")]) == 0
            assert main(["evaluate", "--dataset", dataset, "--model", "dt", "--folds", "3",
                         "--seed", "42", "--output", str(base / "cv.json")]) == 0
            assert main(["stats", "--dataset", dataset, "--attribute", "day",
                         "--output", str(base / "day.csv")]) == 0
            outputs[tag] = {p.name: p.read_bytes() for p in base.iterdir()}
        assert outputs["one"] == outputs["two"]

        assert main(["mine", "--dataset", dataset, "--min-sup", "0.02", "--threads", "1",
                     "--output", str(tmp_path / "t1.csv")]) == 0
        assert main(["mine", "--dataset", dataset, "--min-sup", "0.02", "--threads", "4",
                     "--output", str(tmp_path / "t4.csv")]) == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()


def test_criterion_8_stats_consistency():
    with criterion(8, "crosstab marginals equal frequency tables on 50 datasets"):
        rng = random.Random(88)
        for _ in range(50):
            dataset = [
                make_record(
                    crime_type=rng.choice(list(CrimeCategory)),
                    month=rng.choice(MONTH_NAMES),
                    day=rng.choice(WEEKDAY_NAMES),
                    hour=rng.randrange(24),
                    location=rng.choice(("a", "b", "c", "d", "e")),
                    year=rng.choice((2013, 2014)),
                )
                for _ in range(rng.randint(1, 80))
            ]
            row_attr, col_attr = rng.choice(
                (("type", "day"), ("location", "time"), ("month", "day"), ("day", "hour"))
            )
            table = crosstab(dataset, row_attr, col_attr)
            row_freq = frequency_table(dataset, row_attr)
            col_freq = frequency_table(dataset, col_attr)
            assert list(table.row_sums()) == [r.count for r in row_freq.rows]
            assert list(table.col_sums()) == [r.count for r in col_freq.rows]
            for attribute in ("month", "day", "time", "location", "type", "hour"):
                freq = frequency_table(dataset, attribute)
                assert abs(sum(r.percentage for r in freq.rows) - 100.0) <= 0.01


DATA_DIR_VAR = "CRIMEMINER_DATA_DIR"


@pytest.mark.skipif(DATA_DIR_VAR not in os.environ, reason="real city datasets not supplied")
def test_criterion_9_real_dataset_reproduction(tmp_path):
    """Informational only: compares pipeline outputs on the real city feeds
    against the documented operating points. Prints findings, never fails."""
    data_dir = Path(os.environ[DATA_DIR_VAR])
    findings: list[str] = []

    def check(label, actual, expected, tolerance=0):
        ok = abs(actual - expected) <= tolerance
        findings.append(f"{'OK ' if ok else 'OFF'} {label}: got {actual}, expected ~{expected}")

    cities = {
        "denver": dict(csv="denver.csv", filtered=231640, min_sup=0.0012, patterns=62,
                       nb_accuracy=0.51, dt_accuracy=0.42),
        "la": dict(csv="la.csv", filtered=196767, min_sup=0.0018, patterns=59,
                   nb_accuracy=0.54, dt_accuracy=0.43),
    }
    for city, expected in cities.items():
        csv_path = data_dir / expected["csv"]
        if not csv_path.exists():
            findings.append(f"SKIP {city}: {csv_path} not found")
            continue
        raw = tmp_path / f"{city}_raw.jsonl"
        unified = tmp_path / f"{city}_unified.jsonl"
        assert main(["ingest", "--schema", city, "--input", str(csv_path),
                     "--output", str(raw)]) == 0
        check(f"{city} filtered rows", sum(1 for _ in open(raw)), expected["filtered"])
        assert main(["preprocess", "--schema", city, "--input", str(raw),
                     "--output", str(unified)]) == 0
        patterns = tmp_path / f"{city}_patterns.csv"
        assert main(["mine", "--dataset", str(unified), "--min-sup", str(expected["min_sup"]),
                     "--output", str(patterns)]) == 0
        n_patterns = len(patterns.read_text().splitlines()) - 1
        check(f"{city} patterns at {expected['min_sup']}", n_patterns, expected["patterns"], 3)
        cv_out = tmp_path / f"{city}_cv.json"
        for kind in ("nb", "dt"):
            assert main(["evaluate", "--dataset", str(unified), "--model", kind,
                         "--folds", "5", "--seed", "42", "--output", str(cv_out)]) == 0
            accuracy = json.loads(cv_out.read_text())["mean_accuracy"]
            check(f"{city} {kind} 5-fold accuracy", round(accuracy, 3),
                  expected[f"{kind}_accuracy"], 0.03)
    for line in findings:
        print(f"[acceptance] criterion 9 (informational): {line}")
    print("[acceptance] criterion 9: PASS - informational comparison completed")


def test_criterion_10_synthetic_end_to_end(synthetic_dataset):
    with criterion(10, "planted pattern recovered at 0.04, missed at 0.06; CV >= 0.99"):
        started = time.perf_counter()
        planted = (synthetic.PLANTED_LOCATION, synthetic.PLANTED_DAY, synthetic.PLANTED_TIME.value)
        assert len(synthetic_dataset) == 1000
        recovered = mine_hotspot_patterns(synthetic_dataset, 0.04)
        assert planted in {(p.location, p.day, p.time) for p in recovered.patterns}
        missed = mine_hotspot_patterns(synthetic_dataset, 0.06)
        assert planted not in {(p.location, p.day, p.time) for p in missed.patterns}

        nb_result = cross_validate(synthetic_dataset, "nb", k=5, seed=42, alpha=0.01)
        dt_result = cross_validate(synthetic_dataset, "dt", k=5, seed=42, max_leaves=10)
        assert nb_result.mean_accuracy >= 0.99
        assert dt_result.mean_accuracy >= 0.99
        assert time.perf_counter() - started < 5.0


def test_bundled_fixture_matches_the_generator(synthetic_dataset):
    # keeps tests/data/synthetic_crimes.jsonl in sync with crimeminer.synthetic
    assert synthetic_dataset == synthetic.generate_synthetic_dataset()
