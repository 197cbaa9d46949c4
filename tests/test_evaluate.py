"""Confusion matrices, metric reports, and cross-validation."""

import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import datasets, make_record
from crimeminer import evaluate
from crimeminer.classify import dt_predict, nb_predict, save_model
from crimeminer.errors import CrimeMinerError
from crimeminer.evaluate import (
    ConfusionMatrix,
    CrossValidationResult,
    classification_report,
    cross_validate,
    evaluate_model,
    evaluate_split,
    make_fold_indices,
    write_cv_result_json,
    write_report_csv,
    write_report_json,
)
from crimeminer.preprocess import MONTH_NAMES, WEEKDAY_NAMES, CrimeCategory
from crimeminer.synthetic import generate_synthetic_dataset
from crimeminer.training import Dataset, SplitSpec, dt_train, nb_train, seeded_permutation, split_train_test

A, DA, OC, PD, TH, WC = CrimeCategory

# Frozen regression fixture: a six-class confusion matrix with hand-computed
# metric targets (derivations inline below).
REFERENCE_CELLS = (
    (0, 4, 230, 0, 1833, 0),
    (0, 39, 344, 0, 3004, 0),
    (0, 42, 1028, 0, 7738, 0),
    (0, 10, 409, 0, 7159, 0),
    (0, 27, 737, 0, 22721, 0),
    (0, 2, 30, 0, 971, 0),
)
REFERENCE_MATRIX = ConfusionMatrix(cells=REFERENCE_CELLS)


class TestConfusionMatrix:
    def test_pairwise_counting(self):
        matrix = ConfusionMatrix.from_pairs([TH, TH], [TH, A])
        assert matrix.cells[4][4] == 1
        assert matrix.cells[4][0] == 1
        assert matrix.total == 2

    def test_identical_lists_give_a_diagonal(self):
        actual = [A, DA, TH, TH, WC]
        matrix = ConfusionMatrix.from_pairs(actual, list(actual))
        assert matrix.trace == len(actual)
        report = classification_report(matrix)
        assert report.accuracy == 1.0

    def test_pair_order_does_not_matter(self):
        pairs = [(TH, A), (A, A), (DA, TH), (TH, TH)]
        rng = random.Random(0)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        first = ConfusionMatrix.from_pairs(*zip(*pairs))
        second = ConfusionMatrix.from_pairs(*zip(*shuffled))
        assert first == second

    def test_length_mismatch(self):
        with pytest.raises(CrimeMinerError, match="1 actual labels vs 2 predictions"):
            ConfusionMatrix.from_pairs([A], [A, TH])

    def test_empty_input(self):
        with pytest.raises(CrimeMinerError, match="cannot build a confusion matrix from zero pairs"):
            ConfusionMatrix.from_pairs([], [])


class TestClassificationReport:
    def test_reference_matrix_reproduces_known_metrics(self):
        report = classification_report(REFERENCE_MATRIX)
        per = report.per_class
        # supports are the row sums
        assert [per[c].support for c in CrimeCategory] == [2067, 3387, 8808, 7578, 23485, 1003]
        # Theft: precision 22721/43426, recall 22721/23485
        assert per[TH].precision == pytest.approx(0.52, abs=0.005)
        assert per[TH].recall == pytest.approx(0.97, abs=0.005)
        assert per[TH].f1 == pytest.approx(0.68, abs=0.005)
        # Drug Alcohol: precision 39/124, recall 39/3387
        assert per[DA].precision == pytest.approx(0.31, abs=0.005)
        assert per[DA].recall == pytest.approx(0.01, abs=0.005)
        assert per[DA].f1 == pytest.approx(0.02, abs=0.005)
        # Other Crimes: precision 1028/2778, recall 1028/8808
        assert per[OC].precision == pytest.approx(0.37, abs=0.005)
        assert per[OC].recall == pytest.approx(0.12, abs=0.005)
        assert per[OC].f1 == pytest.approx(0.18, abs=0.005)
        # never-predicted classes: zero across the board
        for c in (A, PD, WC):
            assert (per[c].precision, per[c].recall, per[c].f1) == (0.0, 0.0, 0.0)
        # weighted averages and accuracy (trace 23788 / total 46328)
        assert report.weighted.precision == pytest.approx(0.36, abs=0.005)
        assert report.weighted.recall == pytest.approx(0.51, abs=0.005)
        assert report.weighted.f1 == pytest.approx(0.38, abs=0.005)
        assert report.accuracy == pytest.approx(23788 / 46328)
        assert report.accuracy == pytest.approx(0.51, abs=0.005)

    def test_two_class_hand_arithmetic(self):
        # embedded 2x2 block [[3,1],[2,4]]: precision A=3/5, recall A=3/4, acc=7/10
        matrix = ConfusionMatrix.from_pairs([A] * 4 + [DA] * 6, [A, A, A, DA] + [A, A, DA, DA, DA, DA])
        report = classification_report(matrix)
        assert report.per_class[A].precision == pytest.approx(3 / 5)
        assert report.per_class[A].recall == pytest.approx(3 / 4)
        assert report.accuracy == pytest.approx(7 / 10)

    def test_empty_matrix_rejected(self):
        with pytest.raises(CrimeMinerError, match="all confusion matrix cells are zero"):
            classification_report(ConfusionMatrix(cells=tuple((0,) * 6 for _ in range(6))))

    def test_f1_zero_when_either_rate_is_zero(self):
        matrix = ConfusionMatrix.from_pairs([A, A], [DA, DA])
        report = classification_report(matrix)
        assert report.per_class[A].f1 == 0.0

    @given(
        st.lists(st.sampled_from(list(CrimeCategory)), min_size=1, max_size=200),
        st.randoms(),
    )
    def test_weighted_recall_equals_accuracy(self, actual, rng):
        predicted = [rng.choice(list(CrimeCategory)) for _ in actual]
        report = classification_report(ConfusionMatrix.from_pairs(actual, predicted))
        assert report.weighted.recall == pytest.approx(report.accuracy, abs=1e-12)
        for metrics in report.per_class.values():
            for value in (metrics.precision, metrics.recall, metrics.f1):
                assert 0.0 <= value <= 1.0


class TestCrossValidation:
    def test_folds_partition_the_dataset(self):
        folds = make_fold_indices(23, 5, seed=42)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(23))

    def test_folds_are_consecutive_slices_of_the_seeded_permutation(self):
        # The same permutation cuts the train/test split (see test_classify).
        assert list(seeded_permutation(10, 42)) == [7, 3, 2, 8, 5, 6, 9, 4, 0, 1]
        assert [list(fold) for fold in make_fold_indices(10, 3, seed=42)] == [[2, 3, 7, 8], [5, 6, 9], [0, 1, 4]]

    def test_leave_one_out_on_six_records(self):
        dataset = [make_record(crime_type=c, hour=int(c)) for c in CrimeCategory]
        result = cross_validate(dataset, "nb", k=6, seed=1)
        assert len(result.fold_accuracies) == 6
        assert result.report.matrix.total == 6

    def test_same_seed_same_folds_and_accuracies(self):
        dataset = generate_synthetic_dataset()[:100]
        first = cross_validate(dataset, "dt", k=5, seed=9, max_leaves=5)
        second = cross_validate(dataset, "dt", k=5, seed=9, max_leaves=5)
        assert first == second
        assert make_fold_indices(100, 5, 9) == make_fold_indices(100, 5, 9)

    def test_learnable_rule_reaches_perfect_accuracy(self):
        dataset = generate_synthetic_dataset()[:400]
        nb = cross_validate(dataset, "nb", k=5, seed=42, alpha=0.01)
        dt = cross_validate(dataset, "dt", k=5, seed=42, max_leaves=10)
        assert nb.mean_accuracy == pytest.approx(1.0)
        assert dt.mean_accuracy == pytest.approx(1.0)

    def test_pooled_report_covers_every_record_once(self):
        dataset = generate_synthetic_dataset()[:50]
        result = cross_validate(dataset, "nb", k=5, seed=3)
        assert result.report.matrix.total == 50

    @pytest.mark.parametrize("kind", ["nb", "dt"])
    def test_matches_folds_trained_from_scratch(self, kind):
        # ``cross_validate`` trains on the whole histogram less the fold's;
        # here each fold's training records are listed and counted afresh.
        dataset, k, seed = pinned_tree_dataset(), 5, 7
        matrices, actual, predicted = [], [], []
        for fold in make_fold_indices(len(dataset), k, seed):
            in_fold = set(fold)
            train = [r for i, r in enumerate(dataset) if i not in in_fold]
            test = [dataset[i] for i in fold]
            if kind == "nb":
                model = nb_train(train, alpha=0.5)
                fold_predicted = [nb_predict(model, r)[0] for r in test]
            else:
                model = dt_train(train, max_leaves=40)
                fold_predicted = [dt_predict(model, r) for r in test]
            fold_actual = [r.crime_type for r in test]
            matrices.append(ConfusionMatrix.from_pairs(fold_actual, fold_predicted))
            actual += fold_actual
            predicted += fold_predicted
        accuracies = tuple(m.trace / m.total for m in matrices)
        expected = CrossValidationResult(sum(accuracies) / k, accuracies,
                                         classification_report(ConfusionMatrix.from_pairs(actual, predicted)))
        result = cross_validate(dataset, kind, k=k, seed=seed, alpha=0.5, max_leaves=40)
        assert sha256_of(write_cv_result_json, result) == sha256_of(write_cv_result_json, expected)

    def test_too_few_records(self):
        with pytest.raises(CrimeMinerError, match="3 records cannot fill 5 folds"):
            cross_validate([make_record()] * 3, "nb", k=5)

    def test_bad_parameters(self):
        dataset = [make_record()] * 10
        with pytest.raises(ValueError):
            cross_validate(dataset, "nb", k=1)
        with pytest.raises(ValueError):
            cross_validate(dataset, "svm")

    def test_mean_accuracy_is_the_arithmetic_fold_mean(self):
        dataset = generate_synthetic_dataset()[:37]
        result = cross_validate(dataset, "dt", k=5, seed=2, max_leaves=4)
        assert result.mean_accuracy == pytest.approx(sum(result.fold_accuracies) / 5)

    def test_folds_never_look_up_the_thread_pool(self, monkeypatch):
        # The module's ThreadPoolExecutor exists only for the benchmark's
        # traced run to swap; the folds run serially and must not touch it.
        dataset = generate_synthetic_dataset()[:60]
        expected = [cross_validate(dataset, kind, k=4, seed=5) for kind in ("nb", "dt")]

        def no_pool(*args, **kwargs):
            raise AssertionError("the thread pool was used")

        monkeypatch.setattr(evaluate, "ThreadPoolExecutor", no_pool, raising=False)
        assert [cross_validate(dataset, kind, k=4, seed=5) for kind in ("nb", "dt")] == expected


class TestEvaluateSplit:
    def test_trains_and_scores_a_holdout(self):
        dataset = generate_synthetic_dataset()[:200]
        report = evaluate_split(dataset[:160], dataset[160:], "nb", alpha=0.01)
        assert report.matrix.total == 40
        assert report.accuracy == pytest.approx(1.0)


def pinned_tree_dataset():
    """1500 seeded records over 24 locations, each with its own class mix,
    so a 40-leaf cap grows a deep tree (the fixture file grows 3 leaves)."""
    rng = random.Random(2015)
    classes = list(CrimeCategory)
    weights = {f"nbhd-{i:02d}": [rng.random() ** 2 for _ in classes] for i in range(24)}
    return [make_record(crime_type=rng.choices(classes, weights[location])[0],
                        month=rng.choice(MONTH_NAMES), day=rng.choice(WEEKDAY_NAMES),
                        hour=rng.randrange(24), location=location)
            for location in rng.choices(sorted(weights), k=1500)]


def sha256_of(write, obj) -> str:
    buffer = io.StringIO()
    write(obj, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


class TestPinnedTreeBytes:
    """Tree model, holdout and CV bytes of the histogram split search, whose
    order-free entropy breaks ties in documented order. Against the earlier
    first-seen-order sums the model's gains and one tie changed; the holdout
    and CV bytes did not."""

    def test_model_holdout_and_cv_bytes(self):
        dataset = pinned_tree_dataset()
        tree = dt_train(dataset, max_leaves=40)
        assert tree.leaf_count >= 30
        assert sha256_of(save_model, tree) == (
            "c1e02f84e762a49ae84ae74f8b55455a01d35b31c8895ad926477e7ae8e82ba9")
        train, test = split_train_test(dataset, SplitSpec(0.8, seed=42))
        assert sha256_of(write_report_json, evaluate_split(train, test, "dt", max_leaves=40)) == (
            "5e2502bf479c926b953b691232f0acc1c3bd19a14b0f1c954cb71739f4dcdb74")
        cv = cross_validate(dataset, "dt", k=5, seed=42, max_leaves=40)
        assert sha256_of(write_cv_result_json, cv) == (
            "4814afac0ba39badcb452b22884078e30a1c48d09b066220d6deca7d9aef3c9f")


class TestPinnedNaiveBayesBytes:
    """Bayes model, holdout and CV bytes as the per-record training and
    scoring wrote them, at the default and a small smoothing."""

    @pytest.mark.parametrize("alpha, model_sha, holdout_sha, cv_sha", [
        (1.0, "4e41815fd170fbc13ef8d0416e254ee4d899e1c757a8d724004cbfa6a639e751",
         "cc6944bc8227dc45db74f4ca789523789bc3986bf591b537e5f0a1d21ee2988e",
         "416139f0a49bfcb265d8cae50f20c2506e20f87b4dd7aac4dff9048e24ba4547"),
        (0.01, "ce830af1428ac7cd67e4990683efc821ddc8b59c0af5aa4e56fd9e8c21f7b757",
         "cdbcc4caf3e0b9dcaa37637f6819335c2a32405298931a4a1415e1a00169ff36",
         "8d35da8a921122df341ddb0801c26c4ab83953d7395dfd75ec0754861e78cfaf"),
    ], ids=["alpha-1", "alpha-0.01"])
    def test_model_holdout_and_cv_bytes(self, alpha, model_sha, holdout_sha, cv_sha):
        dataset = pinned_tree_dataset()
        assert sha256_of(save_model, nb_train(dataset, alpha=alpha)) == model_sha
        train, test = split_train_test(dataset, SplitSpec(0.8, seed=42))
        assert sha256_of(write_report_json, evaluate_split(train, test, "nb", alpha=alpha)) == holdout_sha
        cv = cross_validate(dataset, "nb", k=5, seed=42, alpha=alpha)
        assert sha256_of(write_cv_result_json, cv) == cv_sha


class TestCodedColumns:
    """Training and scoring on integer codes against the per-record path."""

    @settings(max_examples=150, deadline=None)
    @given(datasets, datasets, st.sampled_from([0.0, 0.01, 1.0]), st.integers(2, 12), st.data())
    def test_matches_per_record_prediction_and_training(self, train, test, alpha, max_leaves, data):
        unseen = data.draw(st.lists(st.booleans(), min_size=len(test), max_size=len(test)))
        test = [r._replace(location=f"unseen-{i}") if moved else r
                for i, (r, moved) in enumerate(zip(test, unseen))]
        pooled = Dataset.from_records(train + test)
        coded_train = pooled.subset(range(len(train)))
        coded_test = pooled.subset(range(len(train), len(train) + len(test)))
        actual = [r.crime_type for r in test]
        for model, coded_model, predict in [
            (nb_train(train, alpha=alpha), nb_train(coded_train, alpha=alpha),
             lambda m, r: nb_predict(m, r)[0]),
            (dt_train(train, max_leaves=max_leaves), dt_train(coded_train, max_leaves=max_leaves),
             dt_predict),
        ]:
            assert sha256_of(save_model, coded_model) == sha256_of(save_model, model)
            expected = ConfusionMatrix.from_pairs(actual, [predict(model, r) for r in test])
            assert evaluate_model(model, test).matrix == expected
            assert evaluate_model(model, coded_test).matrix == expected


class TestReportOutput:
    def test_csv_layout(self):
        report = classification_report(REFERENCE_MATRIX)
        buffer = io.StringIO()
        write_report_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "class,precision,recall,f1,support"
        assert lines[1] == "Assault,0.00,0.00,0.00,2067"
        assert lines[5] == "Theft,0.52,0.97,0.68,23485"
        assert lines[-1] == "Weighted Avg,0.36,0.51,0.38,46328"
