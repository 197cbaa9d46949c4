"""Frequent-itemset mining: exact examples, oracle equivalence, invariants."""

import io
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import datasets, exhaustive_frequent, make_record
from crimeminer import apriori
from crimeminer.apriori import (
    FrequentPattern,
    mine_frequent,
    mine_hotspot_patterns,
    record_transaction,
    run_summary_dict,
    write_patterns_csv,
)
from crimeminer.errors import CrimeMinerError
from crimeminer.vocab import WEEKDAY_NAMES

ABC = [frozenset("abc"), frozenset("ab"), frozenset("ac"), frozenset("bc"), frozenset("abc")]


class TestMineFrequent:
    def test_textbook_example(self):
        run = mine_frequent(ABC, 0.6)
        by_level = {
            size: {tuple(sorted(s)): stat for s, stat in level.items()}
            for size, level in run.itemsets.items()
        }
        assert by_level[1] == {
            ("a",): by_level[1][("a",)],
            ("b",): by_level[1][("b",)],
            ("c",): by_level[1][("c",)],
        }
        assert all(stat.support == 0.8 for stat in run.itemsets[1].values())
        assert {tuple(sorted(s)) for s in run.itemsets[2]} == {("a", "b"), ("a", "c"), ("b", "c")}
        assert all(stat.support == 0.6 for stat in run.itemsets[2].values())
        assert run.itemsets.get(3, {}) == {}

    def test_min_sup_one_over_identical_transactions(self):
        run = mine_frequent([frozenset("ab"), frozenset("ab")], 1.0)
        assert run.frequent_sets() == {frozenset("a"), frozenset("b"), frozenset("ab")}
        assert all(
            stat.support == 1.0 for level in run.itemsets.values() for stat in level.values()
        )

    def test_threshold_above_everything_gives_zero_levels(self):
        run = mine_frequent([frozenset("a"), frozenset("b")], 0.9)
        assert run.frequent_sets() == set()
        assert all(count == 0 for count in run.levels.values())

    def test_rejects_empty_and_bad_min_sup(self):
        with pytest.raises(CrimeMinerError, match="cannot mine zero transactions"):
            mine_frequent([], 0.5)
        with pytest.raises(ValueError):
            mine_frequent(ABC, 0.0)
        with pytest.raises(ValueError):
            mine_frequent(ABC, 1.5)


def random_transactions(rng, max_transactions=12, max_items=8):
    alphabet = "abcdefgh"[: rng.randint(1, max_items)]
    n = rng.randint(1, max_transactions)
    return [
        frozenset(rng.sample(alphabet, rng.randint(1, len(alphabet)))) for _ in range(n)
    ]


class TestOracleEquivalence:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(7)
        for _ in range(60):
            transactions = random_transactions(rng)
            min_sup = rng.choice([0.2, 0.4, 0.6, 0.8, 1.0])
            run = mine_frequent(transactions, min_sup)
            expected = exhaustive_frequent(transactions, min_sup)
            assert run.frequent_sets() == set(expected)
            for level in run.itemsets.values():
                for itemset, stat in level.items():
                    assert stat.count == expected[itemset]

    @given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), min_size=1, max_size=12),
           st.sampled_from([0.1, 0.2, 0.34, 0.5, 0.75, 1.0]), st.none() | st.integers(1, 4))
    @example([["a"], ["b"]], 0.9, None).via("nothing frequent: level 1 only")
    @example([["a"], ["a", "b"]], 0.75, None).via("one frequent item: an empty level 2")
    @example([["a", "b"], ["a", "b", "c"]], 0.5, 1).via("max_size=1")
    @example([[], ["a", "b"], [], ["b", "a", "a"]], 0.5, None).via("empty transactions")
    def test_each_level_equals_the_oracle_in_sorted_order(self, transactions, min_sup, max_size):
        run = mine_frequent(transactions, min_sup, max_size=max_size)
        expected = exhaustive_frequent(transactions, min_sup, max_size=max_size)
        # Levels run up to the first empty one, which is kept, or to max_size.
        largest = max(map(len, expected), default=0)
        assert list(run.itemsets) == list(range(1, min(largest + 1, max_size or largest + 1) + 1))
        for size, level in run.itemsets.items():
            wanted = {itemset: count for itemset, count in expected.items() if len(itemset) == size}
            assert list(level) == sorted(wanted, key=sorted)
            assert {s: (stat.count, stat.support) for s, stat in level.items()} == {
                s: (count, count / len(transactions)) for s, count in wanted.items()}

    def test_counting_never_looks_up_the_thread_pool(self, monkeypatch):
        # The module's ThreadPoolExecutor exists only for the benchmark's
        # traced run to swap; mining counts serially and must not touch it.
        transactions = random_transactions(random.Random(13))
        dataset = [make_record(location=loc, day=day, hour=hour)
                   for loc in ("cbd", "baker") for day in ("Monday", "Friday") for hour in (2, 22)] * 3
        expected = (mine_frequent(transactions, 0.3), mine_hotspot_patterns(dataset, 0.05))

        def no_pool(*args, **kwargs):
            raise AssertionError("the thread pool was used")

        monkeypatch.setattr(apriori, "ThreadPoolExecutor", no_pool, raising=False)
        assert (mine_frequent(transactions, 0.3), mine_hotspot_patterns(dataset, 0.05)) == expected


generic_transactions = st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), min_size=1, max_size=12)
# One item per tag, as hotspot mining builds them: most pairs of frequent items
# (two values of a tag, or values that never meet) occur in no transaction.
hotspot_transactions = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), st.sampled_from(WEEKDAY_NAMES),
              st.sampled_from(["T1", "T2", "T3", "T4", "T5", "T6"])), min_size=1, max_size=40,
).map(lambda triples: [{("location", loc), ("day", day), ("time", time)} for loc, day, time in triples])


class TestOneCounter:
    @given(hotspot_transactions | generic_transactions, st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.34, 0.5]))
    @example([{("location", "a"), ("day", "Monday"), ("time", "T1")},
              {("location", "b"), ("day", "Friday"), ("time", "T6")}], 0.5).via("frequent items that never meet")
    @example([["a", "b", "c"], ["a", "b"], ["a", "c"], ["b", "c"]], 0.5).via("a 3-set of frequent pairs, 1 of 4")
    def test_each_level_counts_the_occurring_sets_of_frequent_items(self, transactions, min_sup):
        """Level k counts exactly the k-sets that occur among the items of the
        frequent (k-1)-sets, each by brute force, and keeps those at min_sup."""
        run = mine_frequent(transactions, min_sup)
        weighted = [(tuple(sorted(t)), m) for t, m in Counter(map(frozenset, transactions)).items()]
        for k in list(run.itemsets)[1:]:
            frequent = [tuple(sorted(itemset)) for itemset in run.itemsets[k - 1]]
            kept = {item for itemset in frequent for item in itemset}
            occurring = {c for t in transactions for c in combinations(sorted(set(t) & kept), k)}
            counts = apriori._count_occurring(frequent, weighted, k)
            assert dict(counts) == {c: sum(set(c) <= set(t) for t in transactions) for c in occurring}
            assert [tuple(sorted(s)) for s in run.itemsets[k]] == sorted(
                c for c, count in counts.items() if count / len(transactions) >= min_sup)

    @given(hotspot_transactions | generic_transactions, st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.34, 0.5]))
    def test_a_counted_set_with_an_infrequent_subset_stays_below_min_sup(self, transactions, min_sup):
        """No subset check is needed: a counted k-set whose (k-1)-subset is not
        frequent occurs at most as often as that subset, so it is never kept."""
        run = mine_frequent(transactions, min_sup)
        weighted = [(tuple(sorted(t)), m) for t, m in Counter(map(frozenset, transactions)).items()]
        for k in list(run.itemsets)[1:]:
            frequent = {tuple(sorted(itemset)) for itemset in run.itemsets[k - 1]}
            for itemset, count in apriori._count_occurring(frequent, weighted, k).items():
                if not all(subset in frequent for subset in combinations(itemset, k - 1)):
                    assert count / len(transactions) < min_sup

    @given(hotspot_transactions | generic_transactions, st.sampled_from([0.01, 0.1, 0.34]))
    def test_a_level_holds_at_most_the_kept_k_sets_of_each_distinct_transaction(self, transactions, min_sup):
        """The occurrence bound of the module docstring: at most C(t, k) counts
        per distinct transaction of t kept items, one at level 3 of a hotspot run."""
        run = mine_frequent(transactions, min_sup)
        weighted = [(tuple(sorted(t)), m) for t, m in Counter(map(frozenset, transactions)).items()]
        for k in list(run.itemsets)[1:]:
            kept = {item for itemset in run.itemsets[k - 1] for item in itemset}
            counts = apriori._count_occurring([tuple(sorted(s)) for s in run.itemsets[k - 1]], weighted, k)
            assert len(counts) <= sum(math.comb(len(kept.intersection(t)), k) for t, _ in weighted)
            if k == 3 and all(len(t) == 3 for t, _ in weighted):  # a hotspot run's transactions
                assert len(counts) <= len(weighted)


def assert_mining_invariants(run):
    """Anti-monotonicity: every subset of a frequent itemset is frequent."""
    frequent = run.frequent_sets()
    for itemset in frequent:
        for item in itemset:
            if len(itemset) > 1:
                assert itemset - {item} in frequent


class TestMiningInvariants:
    def test_anti_monotonicity_on_random_runs(self):
        rng = random.Random(17)
        for _ in range(40):
            run = mine_frequent(random_transactions(rng), rng.choice([0.2, 0.4, 0.6]))
            assert_mining_invariants(run)

    def test_min_sup_monotonicity(self):
        rng = random.Random(19)
        for _ in range(40):
            transactions = random_transactions(rng)
            low = mine_frequent(transactions, 0.3)
            high = mine_frequent(transactions, 0.6)
            assert high.frequent_sets() <= low.frequent_sets()

    @given(st.integers(1, 5000), st.floats(0.0001, 1.0))
    def test_support_count_consistency(self, n, min_sup):
        # any reported count c of a frequent itemset satisfies c/n >= min_sup
        threshold_count = min(c for c in range(n + 1) if c / n >= min_sup)
        assert threshold_count / n >= min_sup
        if threshold_count:
            assert (threshold_count - 1) / n < min_sup


class TestHotspotMining:
    def test_single_repeated_triple(self):
        dataset = [make_record(location="five-points", day="Friday", hour=21)] * 4
        run = mine_hotspot_patterns(dataset, 0.5)
        assert run.patterns == [
            FrequentPattern("five-points", "Friday", "T6", 1.0, 4)
        ]
        assert run.dataset_size == 4

    def test_transactions_carry_one_item_per_tag(self):
        transaction = record_transaction(make_record(location="cbd", day="Monday", hour=3))
        assert transaction == {("location", "cbd"), ("day", "Monday"), ("time", "T1")}

    def test_patterns_sorted_by_location_weekday_time(self):
        dataset = (
            [make_record(location="cbd", day="Sunday", hour=22)] * 3
            + [make_record(location="cbd", day="Monday", hour=22)] * 3
            + [make_record(location="baker", day="Friday", hour=2)] * 3
            + [make_record(location="baker", day="Friday", hour=22)] * 3
        )
        run = mine_hotspot_patterns(dataset, 0.25)
        assert [(p.location, p.day, p.time) for p in run.patterns] == [
            ("baker", "Friday", "T1"),
            ("baker", "Friday", "T6"),
            ("cbd", "Monday", "T6"),
            ("cbd", "Sunday", "T6"),
        ]

    def test_counts_match_relative_supports(self):
        dataset = [make_record(location="cbd")] * 3 + [make_record(location="baker")]
        run = mine_hotspot_patterns(dataset, 0.1)
        for pattern in run.patterns:
            assert abs(pattern.count - pattern.support * run.dataset_size) < 1e-9

    def test_levels_are_computed_through_size_three(self):
        dataset = [make_record()] * 2
        run = mine_hotspot_patterns(dataset, 0.5)
        assert set(run.levels) == {1, 2, 3}
        assert run.levels == {1: 3, 2: 3, 3: 1}

    def test_raising_min_sup_never_adds_patterns(self, synthetic_dataset):
        low = mine_hotspot_patterns(synthetic_dataset, 0.01)
        high = mine_hotspot_patterns(synthetic_dataset, 0.03)
        low_set = {(p.location, p.day, p.time) for p in low.patterns}
        high_set = {(p.location, p.day, p.time) for p in high.patterns}
        assert high_set <= low_set
        assert_mining_invariants(low)
        assert_mining_invariants(high)

    @given(datasets, st.sampled_from([0.01, 0.05, 0.1, 0.3]))
    def test_matches_independent_triple_counts(self, dataset, min_sup):
        run = mine_hotspot_patterns(dataset, min_sup)
        n = len(dataset)
        triples = Counter((r.location, r.day, r.time.value) for r in dataset)
        expected = [FrequentPattern(*triple, count / n, count)
                    for triple, count in triples.items() if count / n >= min_sup]
        expected.sort(key=lambda p: (p.location, WEEKDAY_NAMES.index(p.day), int(p.time[1:])))
        assert run.patterns == expected
        transactions = [record_transaction(r) for r in dataset]
        assert run.frequent_sets() == set(exhaustive_frequent(transactions, min_sup, max_size=3))

    @given(datasets, st.sampled_from([0.01, 0.1]))
    def test_one_transaction_per_distinct_triple(self, dataset, min_sup):
        built = []

        def recording(record, *args):
            built.append(record)
            return record_transaction(record, *args)

        original = apriori.record_transaction
        apriori.record_transaction = recording
        try:
            run = mine_hotspot_patterns(dataset, min_sup)
        finally:
            apriori.record_transaction = original
        triples = [(r.location, r.day, r.time) for r in built]
        assert len(triples) == len(set(triples))
        assert set(triples) == {(r.location, r.day, r.time) for r in dataset}
        assert run == mine_frequent([record_transaction(r) for r in dataset], min_sup, max_size=3)._replace(
            patterns=run.patterns)

    @given(datasets, st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.6, 1.0]))
    @example([make_record(location="a", day="Monday", hour=1), make_record(location="b", day="Tuesday", hour=5)],
             1.0)  # level 1 empty
    @example([make_record(location="a", day="Monday", hour=1), make_record(location="a", day="Tuesday", hour=5)],
             1.0)  # level 2 empty
    @example([make_record(location="a", day="Monday", hour=1), make_record(location="a", day="Monday", hour=5)],
             1.0)  # level 3 empty
    def test_level_three_is_the_loops_count_in_its_key_order(self, dataset, min_sup):
        """The miner stops at level 2; level 3, taken from the triple count,
        is what the loop would count, each level in the same key order."""
        sizes = []

        def recording(transactions, min_sup, *, max_size=None):
            sizes.append(max_size)
            return mine_frequent(transactions, min_sup, max_size=max_size)

        with mock.patch.object(apriori, "mine_frequent", recording):
            run = mine_hotspot_patterns(dataset, min_sup)
        loop = mine_frequent([record_transaction(r) for r in dataset], min_sup, max_size=3)
        assert sizes == [2]
        assert [(k, list(level.items())) for k, level in run.itemsets.items()] == [
            (k, list(level.items())) for k, level in loop.itemsets.items()]

    def test_absolute_count_thresholds_round_as_expected(self):
        # the documented operating points: fractions are authoritative
        assert round(0.0018 * 196767) == 354
        assert round(0.0012 * 231640) == 278
        assert abs(278 - 277) <= 1


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of ``fn(*args)`` beyond those live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMiningMemory:
    @pytest.mark.parametrize("min_sup", [0.003, 0.01, 0.05])
    def test_each_added_record_costs_at_most_a_list_slot(self, synthetic_dataset, min_sup):
        # The transaction list holds one 8-byte slot per record, plus list growth
        # of up to 1/8 (8.0-8.5 bytes measured here). A tuple or set built per
        # record costs 64 bytes or more and fails.
        once = traced_peak(mine_hotspot_patterns, synthetic_dataset, min_sup)
        eight_times = traced_peak(mine_hotspot_patterns, synthetic_dataset * 8, min_sup)
        assert eight_times - once <= 10 * 7 * len(synthetic_dataset)


class TestPatternOutput:
    def test_csv_golden_with_three_decimal_supports(self):
        dataset = [make_record(location="cbd", day="Monday", hour=18)] * 1 + [
            make_record(location="baker", day="Friday", hour=22)
        ] * 2
        run = mine_hotspot_patterns(dataset, 0.3)
        buffer = io.StringIO()
        write_patterns_csv(run, buffer)
        assert buffer.getvalue() == (
            "location,day,time,support,count\n"
            "baker,Friday,T6,0.667,2\n"
            "cbd,Monday,T5,0.333,1\n"
        )

    def test_summary_dict(self):
        run = mine_hotspot_patterns([make_record()] * 2, 0.5)
        summary = run_summary_dict(run)
        assert summary == {
            "min_sup": 0.5,
            "dataset_size": 2,
            "levels": {"1": 3, "2": 3, "3": 1},
            "pattern_count": 1,
        }
