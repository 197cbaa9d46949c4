"""Level-wise frequent-itemset mining and constrained hotspot extraction.

The miner is generic over hashable, mutually ordered items. Every subset of
a frequent k-set is frequent (the anti-monotone property of Agrawal &
Srikant, VLDB 1994), so each item of a frequent k-set is in a frequent
(k-1)-set. Each level k >= 2 therefore counts the k-sets that occur among
those items of each transaction and keeps the ones at ``min_sup``: one
counting rule, with no candidate join or prune. An itemset is frequent when
``count / n_transactions >= min_sup`` (inclusive). A level holds one count
per distinct occurring k-set, at most C(t, k) per distinct transaction of t
kept items: one per transaction at level 3 of hotspot mining.

Inside the miner an itemset is the sorted tuple of its items, the
``combinations`` of a sorted transaction; a level becomes frozensets only
when it is stored in ``MiningRun.itemsets``.

Hotspot mining counts each distinct (location, day, time) triple over three
columns and builds one transaction of tagged items -- (location, L), (day,
D), (time, T) -- per triple, sharing one tuple per distinct item, so no
object is built per record. The miner counts levels 1 and 2; level 3 is the
frequent triples of that count, each 3-set being a whole transaction.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import combinations, repeat
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import CrimeMinerError
from .table import as_table
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


def __getattr__(name: str):
    # Unused here (it loads ``logging``): kept only for ``perfbench/tracer.py``, which
    # swaps it in its traced run, until ROADMAP item 1's benchmark change drops it.
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _count_occurring(frequent: Iterable[tuple], weighted: Sequence[tuple[tuple, int]], k: int) -> Counter:
    """The count of each k-set of items of the ``frequent`` (k-1)-sets that
    occurs in a sorted transaction with multiplicity, keyed by its sorted tuple."""
    keep = {item for itemset in frequent for item in itemset}
    counts: Counter = Counter()
    for transaction, multiplicity in weighted:
        for itemset in combinations([item for item in transaction if item in keep], k):
            counts[itemset] += multiplicity
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
        counts = _count_occurring(current, weighted, k)
        current = dict(sorted((s, c) for s, c in counts.items() if c / n >= min_sup))
        del counts  # only the frequent sets outlive their level
        itemsets[k] = level_entry(current)
    return MiningRun(min_sup, n, itemsets, [])


def record_transaction(record: UnifiedCrimeRecord, items: dict | None = None) -> frozenset:
    """One transaction per record: tagged location, weekday, and time bin.
    ``items``, a memo mapping each item to itself, makes equal items of the
    transactions built with it one tuple."""
    tagged = ((LOCATION_TAG, record.location), (DAY_TAG, record.day), (TIME_TAG, record.time.value))
    if items is not None:
        tagged = [items.setdefault(item, item) for item in tagged]
    return frozenset(tagged)


_TRIPLE = ("location", "day", "time")  # the fields a transaction reads


def mine_hotspot_patterns(dataset: Sequence[UnifiedCrimeRecord], min_sup: float) -> MiningRun:
    """Mine (location, day, time) triples with support at least ``min_sup``.

    Levels 1 and 2 come from ``mine_frequent``. Level 3, as the loop would
    count it when level 2 is non-empty, is the frequent triples: a 3-set
    holds one item per tag, so it occurs only as a whole transaction. They
    become the patterns, sorted by location, weekday order, then time-bin
    order. Each triple's transaction is built once, from one of its records,
    and the list handed to ``mine_frequent`` repeats it once per record that
    has the triple: one list slot per record, no object.
    """
    table = as_table(dataset)
    n = len(table)
    counts = Counter(zip(*map(table.column, _TRIPLE)))
    rows = dict(zip(zip(*map(table.column, _TRIPLE)), range(n)))  # a row of each triple
    items: dict = {}  # each distinct (tag, value) item, for this call only
    transactions: list[frozenset] = []
    frequent: list[tuple[tuple, int]] = []
    for triple, count in counts.items():
        transaction = record_transaction(table[rows[triple]], items)
        transactions += repeat(transaction, count)
        if count / n >= min_sup:
            frequent.append((tuple(sorted(transaction)), count))
    del counts, rows, items  # freed before mining, where the peak is
    run = mine_frequent(transactions, min_sup, max_size=2)
    if run.itemsets.get(2):
        run.itemsets[3] = {frozenset(s): ItemsetSupport(c, c / n) for s, c in sorted(frequent)}
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
