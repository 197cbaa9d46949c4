"""Naive Bayes and decision-tree classifiers plus the seeded split."""

import io
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LOCATIONS,
    brute_force_best_split,
    brute_force_posterior,
    class_independent,
    datasets,
    listed_predicates,
    make_record,
    reference_dt_train,
    unified_records,
)
from crimeminer.classify import (
    FEATURES,
    Dataset,
    DecisionTree,
    FeatureVector,
    SplitSpec,
    TreeLeaf,
    TreeSplit,
    dt_predict,
    dt_train,
    entropy,
    feature_of,
    load_model,
    nb_class_scores,
    nb_predict,
    nb_train,
    save_model,
    seeded_permutation,
    split_train_test,
)
from crimeminer.errors import CrimeMinerError
from crimeminer.growth import XLog2X, best_split
from crimeminer.preprocess import MONTH_NAMES, CrimeCategory, TimeBin


class TestSplit:
    def test_sizes_and_disjointness(self):
        dataset = [make_record(hour=h % 24) for h in range(10)]
        train, test = split_train_test(dataset, SplitSpec(0.8, seed=42))
        assert len(train) == 8 and len(test) == 2
        ids = lambda records: {id(r) for r in records}
        assert ids(train) | ids(test) == ids(dataset)
        assert ids(train) & ids(test) == set()

    def test_same_seed_same_partition(self):
        dataset = [make_record(hour=h % 24, year=2000 + h) for h in range(37)]
        first = split_train_test(dataset, SplitSpec(0.8, seed=7))
        second = split_train_test(dataset, SplitSpec(0.8, seed=7))
        assert first == second
        different = split_train_test(dataset, SplitSpec(0.8, seed=8))
        assert first != different

    def test_train_side_is_the_head_of_the_seeded_permutation(self):
        # The same permutation cuts the cross-validation folds (see test_evaluate).
        assert seeded_permutation(10, 42) == [7, 3, 2, 8, 5, 6, 9, 4, 0, 1]
        dataset = [make_record(year=2000 + i) for i in range(10)]
        train, test = split_train_test(dataset, SplitSpec(0.8, seed=42))
        assert [r.year - 2000 for r in train] == [2, 3, 4, 5, 6, 7, 8, 9]
        assert [r.year - 2000 for r in test] == [0, 1]

    def test_rounding_is_half_up(self):
        dataset = [make_record(), make_record(), make_record()]
        train, test = split_train_test(dataset, SplitSpec(0.5, seed=1))
        assert (len(train), len(test)) == (2, 1)

    def test_too_small(self):
        with pytest.raises(CrimeMinerError, match="need at least 2 records to split, got 1"):
            split_train_test([make_record()], SplitSpec())

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)


def four_record_train():
    """3x Theft in January, 1x Assault in February; everything else constant."""
    return [
        make_record(crime_type=CrimeCategory.THEFT, month="January"),
        make_record(crime_type=CrimeCategory.THEFT, month="January"),
        make_record(crime_type=CrimeCategory.THEFT, month="January"),
        make_record(crime_type=CrimeCategory.ASSAULT, month="February"),
    ]


class TestNaiveBayesTraining:
    def test_priors_are_class_ratios(self):
        model = nb_train(four_record_train(), alpha=1.0)
        assert math.exp(model.log_prior[CrimeCategory.THEFT]) == pytest.approx(0.75)
        assert math.exp(model.log_prior[CrimeCategory.ASSAULT]) == pytest.approx(0.25)
        assert model.log_prior[CrimeCategory.PUBLIC_DISORDER] == -math.inf

    def test_laplace_smoothing_formula(self):
        # P(month=January | Theft) = (3 + 1) / (3 + 1*(2 + 1)) = 4/6
        model = nb_train(four_record_train(), alpha=1.0)
        value = model.cond_log["month"][CrimeCategory.THEFT]["January"]
        assert math.exp(value) == pytest.approx(4 / 6)
        unseen = model.unseen_log["month"][CrimeCategory.THEFT]
        assert math.exp(unseen) == pytest.approx(1 / 6)

    def test_conditionals_sum_to_one_over_vocab_plus_unseen(self):
        model = nb_train(four_record_train(), alpha=1.0)
        priors = sum(math.exp(p) for p in model.log_prior.values() if p != -math.inf)
        assert priors == pytest.approx(1.0, abs=1e-9)
        for feature in FEATURES:
            for c in (CrimeCategory.THEFT, CrimeCategory.ASSAULT):
                total = sum(
                    math.exp(p) for p in model.cond_log[feature][c].values()
                ) + math.exp(model.unseen_log[feature][c])
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_training_set(self):
        with pytest.raises(CrimeMinerError, match="cannot train Naive Bayes on an empty set"):
            nb_train([])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            nb_train(four_record_train(), alpha=-0.5)


class TestNaiveBayesPrediction:
    def test_majority_class_wins_on_matching_features(self):
        model = nb_train(four_record_train(), alpha=1.0)
        x = FeatureVector("January", "Friday", TimeBin.T6, "five-points")
        predicted, posterior = nb_predict(model, x)
        assert predicted is CrimeCategory.THEFT
        # cross-check against direct probability-space evaluation
        expected = brute_force_posterior(four_record_train(), x, 1.0)
        for c in CrimeCategory:
            assert posterior[c] == pytest.approx(expected[c], abs=1e-9)

    def test_single_class_training_always_predicts_it(self):
        train = [make_record(crime_type=CrimeCategory.PUBLIC_DISORDER)] * 5
        model = nb_train(train, alpha=1.0)
        x = FeatureVector("December", "Monday", TimeBin.T2, "nowhere-special")
        assert nb_predict(model, x)[0] is CrimeCategory.PUBLIC_DISORDER

    def test_unseen_location_is_a_total_function(self):
        model = nb_train(four_record_train(), alpha=1.0)
        x = FeatureVector("January", "Friday", TimeBin.T6, "never-trained")
        predicted, posterior = nb_predict(model, x)
        assert predicted in CrimeCategory
        assert sum(posterior.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_training_gives_uniform_posterior_and_lowest_id(self):
        train = [
            make_record(crime_type=c, month="January", day="Monday", hour=2, location="baker")
            for c in CrimeCategory
        ]
        model = nb_train(train, alpha=1.0)
        x = FeatureVector("January", "Monday", TimeBin.T1, "baker")
        predicted, posterior = nb_predict(model, x)
        assert predicted is CrimeCategory.ASSAULT  # id 1 on a six-way tie
        for p in posterior.values():
            assert p == pytest.approx(1 / 6, abs=1e-9)

    def test_shifting_all_scores_keeps_the_argmax(self):
        model = nb_train(four_record_train(), alpha=1.0)
        x = FeatureVector("February", "Friday", TimeBin.T6, "five-points")
        scores = nb_class_scores(model, x)
        shifted = {c: s + 123.456 for c, s in scores.items()}

        def argmax(d):
            return max(d, key=lambda c: (d[c], -int(c)))

        assert argmax(scores) == argmax(shifted)

    @settings(max_examples=60)
    @given(st.lists(unified_records(), min_size=1, max_size=20), unified_records(), st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    def test_matches_brute_force_bayes(self, train, query_record, alpha):
        model = nb_train(train, alpha=alpha)
        x = query_record
        predicted, posterior = nb_predict(model, x)
        expected = brute_force_posterior(train, x, alpha)
        assert sum(posterior.values()) == pytest.approx(1.0, abs=1e-9)
        for c in CrimeCategory:
            assert posterior[c] == pytest.approx(expected[c], abs=1e-9)
        # mathematically tied classes may differ by float noise between the
        # two computation paths; the prediction must be a near-argmax
        top = max(expected.values())
        assert expected[predicted] == pytest.approx(top, abs=1e-9)


class TestEntropy:
    def test_symmetric_binary(self):
        assert entropy({"A": 5, "B": 5}) == pytest.approx(1.0)

    def test_pure(self):
        assert entropy({"A": 10}) == 0.0

    def test_three_to_one(self):
        assert entropy({"A": 3, "B": 1}) == pytest.approx(0.8113, abs=1e-4)

    def test_all_zero(self):
        with pytest.raises(CrimeMinerError, match="entropy of an empty distribution is undefined"):
            entropy({"A": 0, "B": 0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy({"A": -1})

    @given(st.dictionaries(st.text(min_size=1, max_size=3), st.integers(0, 50), min_size=1))
    def test_bounds(self, counts):
        total = sum(counts.values())
        if total == 0:
            return
        h = entropy(counts)
        observed = sum(1 for c in counts.values() if c)
        assert 0.0 <= h <= math.log2(max(observed, 1)) + 1e-12

    @given(
        st.lists(st.sampled_from("ABCD"), min_size=2, max_size=40),
        st.data(),
    )
    def test_weighted_children_entropy_never_exceeds_parent(self, labels, data):
        cut = data.draw(st.integers(1, len(labels) - 1))
        left, right = labels[:cut], labels[cut:]
        from collections import Counter

        parent = entropy(Counter(labels))
        weighted = (
            len(left) * entropy(Counter(left)) + len(right) * entropy(Counter(right))
        ) / len(labels)
        assert weighted <= parent + 1e-9


def rule_dataset():
    """Class fully determined by the time bin: T6 -> Theft, else Assault."""
    return (
        [make_record(crime_type=CrimeCategory.THEFT, hour=22)] * 2
        + [make_record(crime_type=CrimeCategory.ASSAULT, hour=10)]
        + [make_record(crime_type=CrimeCategory.ASSAULT, hour=2)]
    )


class TestDecisionTree:
    def test_single_split_solves_a_rule_dataset(self):
        tree = dt_train(rule_dataset(), max_leaves=10)
        assert isinstance(tree.root, TreeSplit)
        assert tree.root.feature == "time"
        assert tree.root.value == "T6"
        assert tree.leaf_count == 2
        # root counts {Theft: 2, Assault: 2} -> entropy 1.0, children pure
        assert tree.root.gain == pytest.approx(1.0)
        for leaf in tree.leaves():
            assert len([c for c, n in leaf.counts.items() if n]) == 1

    def test_single_class_training_gives_single_leaf(self):
        tree = dt_train([make_record()] * 4, max_leaves=10)
        assert isinstance(tree.root, TreeLeaf)
        assert tree.leaf_count == 1

    def test_leaf_cap_two_allows_one_split(self):
        dataset = [
            make_record(crime_type=CrimeCategory(1 + i % 4), hour=i % 24, location=f"loc-{i%5}")
            for i in range(40)
        ]
        tree = dt_train(dataset, max_leaves=2)
        assert tree.leaf_count <= 2

    def test_max_leaves_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            dt_train(rule_dataset(), max_leaves=1)

    def test_empty_training_set(self):
        with pytest.raises(CrimeMinerError, match="cannot train a decision tree on an empty set"):
            dt_train([])

    def test_every_split_has_positive_gain_and_weighted_children_entropy_drops(self):
        rng = random.Random(3)
        for _ in range(20):
            dataset = [
                make_record(
                    crime_type=rng.choice(list(CrimeCategory)),
                    month=rng.choice(("January", "June")),
                    day=rng.choice(("Monday", "Friday")),
                    hour=rng.randrange(24),
                    location=rng.choice(("a", "b", "c")),
                )
                for _ in range(rng.randint(1, 50))
            ]
            tree = dt_train(dataset, max_leaves=rng.choice((2, 5, 10)))
            assert tree.leaf_count <= tree.max_leaves
            for split in tree.splits():
                assert split.gain > 0.0

    def test_prediction_routes_to_leaf_majority(self):
        tree = dt_train(rule_dataset(), max_leaves=10)
        assert dt_predict(tree, FeatureVector("June", "Friday", TimeBin.T6, "five-points")) is CrimeCategory.THEFT
        assert dt_predict(tree, FeatureVector("June", "Friday", TimeBin.T3, "five-points")) is CrimeCategory.ASSAULT

    def test_unseen_location_falls_through_equality_tests(self):
        dataset = (
            [make_record(crime_type=CrimeCategory.THEFT, location="downtown")] * 3
            + [make_record(crime_type=CrimeCategory.ASSAULT, location="uptown")] * 2
        )
        tree = dt_train(dataset, max_leaves=4)
        prediction = dt_predict(tree, FeatureVector("June", "Friday", TimeBin.T6, "elsewhere"))
        assert prediction in CrimeCategory

    def test_single_leaf_tree_predicts_majority_with_lowest_id_ties(self):
        dataset = [
            make_record(crime_type=CrimeCategory.THEFT),
            make_record(crime_type=CrimeCategory.ASSAULT),
        ]
        tree = dt_train(dataset, max_leaves=2)
        # both classes tie everywhere; no positive-gain split exists
        if isinstance(tree.root, TreeLeaf):
            assert tree.root.majority is CrimeCategory.ASSAULT

    def test_path_predicates_never_repeat(self):
        rng = random.Random(5)
        dataset = [
            make_record(
                crime_type=rng.choice(list(CrimeCategory)),
                hour=rng.randrange(24),
                location=rng.choice(("a", "b", "c", "d")),
            )
            for _ in range(80)
        ]
        tree = dt_train(dataset, max_leaves=10)

        def walk(node, path):
            if isinstance(node, TreeLeaf):
                return
            predicate = (node.feature, node.value)
            assert predicate not in path
            walk(node.if_true, path | {predicate})
            walk(node.if_false, path | {predicate})

        walk(tree.root, set())


def side_multisets(records, feature, value):
    """The class-count multisets of both sides of ``feature == value``, unordered."""
    sides = (Counter(r.crime_type for r in records if (feature_of(r, feature) == value) is side)
             for side in (True, False))
    return sorted(sorted(counts.values()) for counts in sides)


class TestBestSplit:
    @settings(max_examples=300, deadline=None)
    @given(datasets)
    def test_matches_brute_force_partitions(self, records):
        data = Dataset.from_records(records)
        found = best_split(data, data.histogram, XLog2X())
        best = brute_force_best_split(records)
        if not best:
            assert found is None
            return
        assert found is not None
        assert found[0] == pytest.approx(best[0][0], rel=0, abs=1e-12)
        assert found[1:] in [(feature, value) for _, feature, value in best]
        # Gains depend only on the two sides' class-count multisets, so no
        # earlier predicate in documented order has the found one's multisets.
        # Gains equal in exact arithmetic from other multisets are near-ties,
        # left to the 1e-12 clause above.
        listed = listed_predicates(records)
        earlier = listed[:listed.index(found[1:])]
        assert side_multisets(records, *found[1:]) not in [side_multisets(records, *p) for p in earlier]

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 400), st.permutations(list(CrimeCategory)))
    def test_gains_do_not_depend_on_class_labels(self, rng, size, relabel):
        # Relabelling the classes permutes each side's counts, not their
        # multisets. Seeded draws give large nodes, whose entropy terms round.
        records = [make_record(crime_type=rng.choice(list(CrimeCategory)), month=rng.choice(MONTH_NAMES),
                               hour=rng.randrange(24), location=rng.choice(LOCATIONS))
                   for _ in range(size)]
        relabelled = [r._replace(crime_type=relabel[r.crime_type - 1]) for r in records]
        splits = [[(s.feature, s.value, s.gain) for s in dt_train(data, max_leaves=12).splits()]
                  for data in (records, relabelled)]
        assert splits[0] == splits[1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(CrimeCategory)), st.booleans()), min_size=2, max_size=400))
    def test_complementary_predicates_tie_to_the_first(self, labelled):
        # With two time bins present, "time == T1" and "time == T2" split the
        # records into the same two sides, swapped: the first one listed wins.
        records = [make_record(crime_type=c, hour=10 if late else 2) for c, late in labelled]
        data = Dataset.from_records(records)
        found = best_split(data, data.histogram, XLog2X())
        assert found is None or found[1:] == ("time", "T1")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
           st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_class_independent_partitions_are_never_chosen(self, per_class, per_month, per_location):
        # Class counts times month and location weights: every partition has
        # the same class proportions on both sides, while the rounded terms
        # of n*log2 n - sum(c*log2 c) need not cancel exactly.
        records = [make_record(crime_type=CrimeCategory(1 + k), month=MONTH_NAMES[m],
                               location=f"loc-{j}")
                   for k, a in enumerate(per_class) for m, b in enumerate(per_month)
                   for j, c in enumerate(per_location) for _ in range(a * b * c)]
        assert all(class_independent(records, f, v) for f, v in listed_predicates(records))
        data = Dataset.from_records(records)
        assert best_split(data, data.histogram, XLog2X()) is None
        assert isinstance(dt_train(records, max_leaves=10).root, TreeLeaf)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(unified_records(), min_size=1, max_size=200), st.integers(2, 16))
    def test_subtraction_grows_the_directly_counted_tree(self, records, max_leaves):
        buffer, expected = io.StringIO(), io.StringIO()
        save_model(dt_train(records, max_leaves=max_leaves), buffer)
        save_model(reference_dt_train(records, max_leaves), expected)
        assert buffer.getvalue() == expected.getvalue()


class TestModelSerialization:
    def test_nb_round_trip_preserves_predictions_and_bytes(self):
        model = nb_train(four_record_train(), alpha=0.5)
        first, second = io.StringIO(), io.StringIO()
        save_model(model, first)
        save_model(model, second)
        assert first.getvalue() == second.getvalue()
        restored = load_model(io.StringIO(first.getvalue()))
        x = FeatureVector("January", "Friday", TimeBin.T6, "five-points")
        assert nb_predict(restored, x) == nb_predict(model, x)
        rewritten = io.StringIO()
        save_model(restored, rewritten)
        assert rewritten.getvalue() == first.getvalue()

    def test_dt_round_trip(self):
        tree = dt_train(rule_dataset(), max_leaves=5)
        buffer = io.StringIO()
        save_model(tree, buffer)
        restored = load_model(io.StringIO(buffer.getvalue()))
        assert isinstance(restored, DecisionTree)
        for record in rule_dataset():
            x = record
            assert dt_predict(restored, x) is dt_predict(tree, x)

    def test_identical_training_gives_byte_identical_models(self):
        dataset = [
            make_record(crime_type=CrimeCategory(1 + i % 3), hour=i % 24) for i in range(30)
        ]
        a, b = io.StringIO(), io.StringIO()
        save_model(dt_train(dataset, max_leaves=6), a)
        save_model(dt_train(list(dataset), max_leaves=6), b)
        assert a.getvalue() == b.getvalue()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            load_model(io.StringIO('{"schema": "mystery-v9"}'))
