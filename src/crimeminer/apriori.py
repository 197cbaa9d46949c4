"""Level-wise frequent-itemset mining and constrained hotspot extraction.

The miner is generic over hashable, mutually ordered items: candidates of
size k are joined from frequent (k-1)-itemsets sharing a (k-2)-prefix in the
items' natural order, pruned by the anti-monotone support property, and
counted in one pass per level through a hash lookup (Agrawal & Srikant,
VLDB 1994). Level 2 takes every pair of frequent items, where the prune
cannot fail; from level 3 the prune looks up only the subsets that drop a
prefix item, as the other two are the joined sets. An itemset is frequent
when ``count / n_transactions >= min_sup`` (inclusive).

Inside the miner an itemset is the sorted tuple of its items, so a join is a
tuple concatenation and a count is a lookup of each ``combinations`` tuple of a
sorted transaction; a level becomes frozensets only when it is stored in
``MiningRun.itemsets``.

Hotspot mining counts the records of each distinct (location, day, time)
triple and builds one transaction of three tagged items -- (location, L),
(day, D), (time, T) -- per triple, so no object is built per record. It
reports the frequent size-3 itemsets, each of which is one triple's whole
transaction.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import combinations, groupby, repeat
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import CrimeMinerError
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
        raise CrimeMinerError("support is undefined over zero transactions")
    count = sum(1 for t in transactions if items <= t)
    return count / len(transactions), count


def __getattr__(name: str):
    # Unused here (it loads ``logging``): kept only for ``perfbench/tracer.py``, which
    # swaps it in its traced run, until ROADMAP item 1's benchmark change drops it.
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _generate_candidates(frequent: Iterable[tuple]) -> list[tuple]:
    """Join frequent (k-1)-itemsets, given as sorted tuples, on a shared
    (k-2)-prefix, then prune; the candidates are sorted k-tuples, in order.

    A candidate ``prefix + (a, b)`` joins ``prefix + (a,)`` and
    ``prefix + (b,)``, both frequent, so the prune checks only the subsets
    that drop one prefix item: ``b`` must follow ``drop + (a,)`` in a
    frequent set for each such ``drop``. Level 2 has no prefix to drop.
    """
    followers = {prefix: [t[-1] for t in group] for prefix, group in groupby(sorted(frequent), key=lambda t: t[:-1])}
    follower_sets = {prefix: set(items) for prefix, items in followers.items()}
    candidates: list[tuple] = []
    for prefix, items in followers.items():
        drops = [prefix[:i] + prefix[i + 1:] for i in range(len(prefix))]
        for i, a in enumerate(items):
            later = items[i + 1:]
            for drop in drops:
                allowed = follower_sets.get(drop + (a,), ())
                later = [b for b in later if b in allowed]
            candidates += (prefix + (a, b) for b in later)
    return candidates


def _count_candidates(
    candidates: Sequence[tuple],
    weighted: Sequence[tuple[tuple, int]],
    k: int,
) -> dict[tuple, int]:
    """Count each candidate over sorted transactions with multiplicities; the
    ``combinations`` of a sorted tuple are sorted, so they are looked up as is."""
    counts = dict.fromkeys(candidates, 0)
    for transaction, multiplicity in weighted:
        for combo in combinations(transaction, k):
            if combo in counts:
                counts[combo] += multiplicity
    return counts


def mine_frequent(
    transactions: Sequence[Iterable[Item]],
    min_sup: float,
    *,
    max_size: int | None = None,
) -> MiningRun:
    """Find all itemsets of every size with support at least ``min_sup``.

    Identical transactions are always collapsed into one sorted tuple with a
    multiplicity count, so each distinct transaction is scanned once per level
    (a large win when the item vocabulary is much smaller than the transaction
    list). Each level of the run lists its itemsets in sorted-tuple order.
    """
    if not transactions:
        raise CrimeMinerError("cannot mine zero transactions")
    if not 0 < min_sup <= 1:
        raise ValueError(f"min_sup must be in (0, 1], got {min_sup}")
    n = len(transactions)

    weighted = [(tuple(sorted(t)), m) for t, m in Counter(map(frozenset, transactions)).items()]

    item_counts: Counter = Counter()
    for transaction, multiplicity in weighted:
        for item in transaction:
            item_counts[item] += multiplicity
    current = {(item,): item_counts[item] for item in sorted(item_counts) if item_counts[item] / n >= min_sup}

    def level_entry(counts: Mapping[tuple, int]) -> dict[frozenset, ItemsetSupport]:
        return {frozenset(s): ItemsetSupport(c, c / n) for s, c in counts.items()}

    itemsets: dict[int, dict[frozenset, ItemsetSupport]] = {1: level_entry(current)}
    k = 1
    while current and (max_size is None or k < max_size):
        k += 1
        # Only the frequent sets outlive their level: the candidates and their
        # counts are dropped before the next join.
        counts = _count_candidates(_generate_candidates(current), weighted, k)
        current = {s: c for s, c in counts.items() if c / n >= min_sup}
        del counts
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
    weekday order, then time-bin order. Each distinct triple's transaction is
    built once, and the list handed to ``mine_frequent`` repeats it once per
    record that has the triple: one list slot per record, no object.
    """
    counts = Counter(map(_TRIPLE, dataset))
    holder = dict(zip(map(_TRIPLE, dataset), dataset))  # a record of each triple
    transactions: list[frozenset] = []
    for triple, count in counts.items():
        transactions += repeat(record_transaction(holder[triple]), count)
    del counts, holder  # freed before mining, where the peak is
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
