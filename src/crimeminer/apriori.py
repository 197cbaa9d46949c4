"""Level-wise frequent-itemset mining and constrained hotspot extraction.

The miner is generic over hashable, mutually ordered items: candidates of
size k are joined from frequent (k-1)-itemsets sharing a (k-2)-prefix in the
items' natural order, pruned by the anti-monotone support property, and
counted in one pass per level through a hash lookup (Agrawal & Srikant,
VLDB 1994). Level 2 takes every pair of frequent items, where the prune
cannot fail; from level 3 the prune looks up only the subsets that drop a
prefix item, as the other two are the joined sets. An itemset is frequent
when ``count / n_transactions >= min_sup`` (inclusive).

Hotspot mining gives each crime record the transaction of its three tagged
items -- (location, L), (day, D), (time, T) -- built once per distinct
triple and shared by the records that have it, and reports the frequent
size-3 itemsets, each of which is one record's whole transaction.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import combinations, groupby
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import EmptyTransactionListError
from .vocab import TIME_RANK, WEEKDAY_RANK, UnifiedCrimeRecord, round_half_up

Item = Hashable

LOCATION_TAG = "location"
DAY_TAG = "day"
TIME_TAG = "time"


class ItemsetSupport(NamedTuple):
    count: int
    support: float


class FrequentPattern(NamedTuple):
    """A (location, weekday, time-bin) itemset above the support threshold."""

    location: str
    day: str
    time: str  # TimeBin value, e.g. "T5"
    support: float
    count: int


class MiningRun(NamedTuple):
    """All frequent itemsets of a run, plus the hotspot patterns among them."""

    min_sup: float
    dataset_size: int
    itemsets: dict[int, dict[frozenset, ItemsetSupport]]
    patterns: list[FrequentPattern]

    @property
    def levels(self) -> dict[int, int]:
        return {size: len(sets) for size, sets in self.itemsets.items()}

    def frequent_sets(self) -> set[frozenset]:
        found: set[frozenset] = set()
        for level in self.itemsets.values():
            found.update(level)
        return found


def support(itemset: Iterable[Item], transactions: Sequence[frozenset]) -> tuple[float, int]:
    """Fraction and absolute count of transactions containing every item."""
    items = frozenset(itemset)
    if not items:
        raise ValueError("itemset must be nonempty")
    if not transactions:
        raise EmptyTransactionListError("support is undefined over zero transactions")
    count = sum(1 for t in transactions if items <= t)
    return count / len(transactions), count


def __getattr__(name: str):
    # Unused here (it loads ``logging``): kept only for ``perfbench/tracer.py``, which
    # swaps it in its traced run, until ROADMAP item 1's benchmark change drops it.
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _generate_candidates(frequent: Iterable[frozenset]) -> list[frozenset]:
    """Join frequent (k-1)-itemsets on a shared (k-2)-prefix, then prune.

    A candidate ``prefix + (a, b)`` joins ``prefix + (a,)`` and
    ``prefix + (b,)``, both frequent, so the prune checks only the subsets
    that drop one prefix item: ``b`` must follow ``drop + (a,)`` in a
    frequent set for each such ``drop``. Level 2 has no prefix to drop.
    """
    as_tuples = sorted({tuple(sorted(s)) for s in frequent})
    followers = {prefix: [t[-1] for t in group] for prefix, group in groupby(as_tuples, key=lambda t: t[:-1])}
    follower_sets = {prefix: set(items) for prefix, items in followers.items()}
    candidates: list[frozenset] = []
    for prefix, items in followers.items():
        drops = [prefix[:i] + prefix[i + 1:] for i in range(len(prefix))]
        for i, a in enumerate(items):
            later = items[i + 1:]
            for drop in drops:
                allowed = follower_sets.get(drop + (a,), ())
                later = [b for b in later if b in allowed]
            candidates += (frozenset(prefix + (a, b)) for b in later)
    return candidates


def _count_candidates(
    candidates: Sequence[frozenset],
    weighted: Sequence[tuple[frozenset, int]],
    k: int,
) -> dict[frozenset, int]:
    counts = dict.fromkeys(candidates, 0)
    for transaction, multiplicity in weighted:
        for combo in combinations(transaction, k):
            subset = frozenset(combo)
            if subset in counts:
                counts[subset] += multiplicity
    return counts


def mine_frequent(
    transactions: Sequence[Iterable[Item]],
    min_sup: float,
    *,
    max_size: int | None = None,
) -> MiningRun:
    """Find all itemsets of every size with support at least ``min_sup``.

    Identical transactions are always collapsed into one with a multiplicity
    count, so each distinct transaction is scanned once per level (a large win
    when the item vocabulary is much smaller than the transaction list).
    """
    if not transactions:
        raise EmptyTransactionListError("cannot mine zero transactions")
    if not 0 < min_sup <= 1:
        raise ValueError(f"min_sup must be in (0, 1], got {min_sup}")
    n = len(transactions)

    weighted = list(Counter(map(frozenset, transactions)).items())

    item_counts: Counter = Counter()
    for transaction, multiplicity in weighted:
        for item in transaction:
            item_counts[item] += multiplicity
    current = {
        frozenset([item]): count
        for item, count in item_counts.items()
        if count / n >= min_sup
    }

    def level_entry(counts: Mapping[frozenset, int]) -> dict[frozenset, ItemsetSupport]:
        ordered = sorted(counts, key=sorted)
        return {s: ItemsetSupport(counts[s], counts[s] / n) for s in ordered}

    itemsets: dict[int, dict[frozenset, ItemsetSupport]] = {1: level_entry(current)}
    k = 1
    while current and (max_size is None or k < max_size):
        k += 1
        candidates = _generate_candidates(current)
        if not candidates:
            itemsets[k] = {}
            break
        counts = _count_candidates(candidates, weighted, k)
        current = {s: c for s, c in counts.items() if c / n >= min_sup}
        itemsets[k] = level_entry(current)
    return MiningRun(min_sup, n, itemsets, [])


def record_transaction(record: UnifiedCrimeRecord) -> frozenset:
    """One transaction per record: tagged location, weekday, and time bin."""
    return frozenset(
        {
            (LOCATION_TAG, record.location),
            (DAY_TAG, record.day),
            (TIME_TAG, record.time.value),
        }
    )


_TRIPLE = itemgetter(4, 2, 3)  # a record's (location, day, time)


def mine_hotspot_patterns(dataset: Sequence[UnifiedCrimeRecord], min_sup: float) -> MiningRun:
    """Mine (location, day, time) triples with support at least ``min_sup``.

    Levels 1 and 2 are still computed for pruning. Every frequent size-3
    itemset is contained in, so equal to, some record's transaction, and
    holds one item per tag; these become the patterns, sorted by location,
    weekday order, then time-bin order. Records with the same triple share
    one transaction, built once.
    """
    triples = list(map(_TRIPLE, dataset))
    shared = {triple: record_transaction(r) for triple, r in dict(zip(triples, dataset)).items()}
    transactions = list(map(shared.__getitem__, triples))
    run = mine_frequent(transactions, min_sup, max_size=3)
    patterns: list[FrequentPattern] = []
    for itemset, stat in run.itemsets.get(3, {}).items():
        by_tag = dict(itemset)
        patterns.append(FrequentPattern(by_tag[LOCATION_TAG], by_tag[DAY_TAG], by_tag[TIME_TAG],
                                        stat.support, stat.count))
    patterns.sort(key=lambda p: (p.location, WEEKDAY_RANK[p.day], TIME_RANK[p.time]))
    return run._replace(patterns=patterns)


def write_patterns_csv(run: MiningRun, fp: TextIO) -> None:
    """Pattern table with supports printed at 3 decimals (half-up)."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["location", "day", "time", "support", "count"])
    for p in run.patterns:
        writer.writerow([p.location, p.day, p.time, round_half_up(p.support, 3), p.count])


def run_summary_dict(run: MiningRun) -> dict:
    return {
        "min_sup": run.min_sup,
        "dataset_size": run.dataset_size,
        "levels": {str(size): count for size, count in sorted(run.levels.items())},
        "pattern_count": len(run.patterns),
    }
