"""Level-wise frequent-itemset mining and constrained hotspot extraction.

The miner is generic over hashable items: candidates of size k are joined
from frequent (k-1)-itemsets sharing a (k-2)-prefix under a canonical item
order, pruned by the anti-monotone support property, and counted in one pass
per level through a hash lookup. An itemset is frequent when
``count / n_transactions >= min_sup`` (inclusive).

Hotspot mining builds one transaction per crime record with three tagged
items -- (location, L), (day, D), (time, T) -- and reports the size-3
itemsets that pick exactly one value per tag.
"""

from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, groupby
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .errors import EmptyTransactionListError
from .stats import round_half_up
from .vocab import TIME_RANK, WEEKDAY_RANK, UnifiedCrimeRecord, value_order_key

Item = Hashable
ItemKey = Callable[[Item], object]

LOCATION_TAG = "location"
DAY_TAG = "day"
TIME_TAG = "time"

_TAG_RANK = {LOCATION_TAG: 0, DAY_TAG: 1, TIME_TAG: 2}


def hotspot_item_key(item: tuple[str, str]):
    """Canonical order for tagged items: location < day < time, then value order."""
    tag, value = item
    return (_TAG_RANK[tag], value_order_key(tag, value))


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


class MiningRun:
    """All frequent itemsets of a run, plus the constrained triple patterns."""

    __slots__ = ("min_sup", "dataset_size", "itemsets", "patterns")

    def __init__(self, min_sup: float, dataset_size: int,
                 itemsets: dict[int, dict[frozenset, ItemsetSupport]],
                 patterns: list[FrequentPattern] | None = None):
        self.min_sup = min_sup
        self.dataset_size = dataset_size
        self.itemsets = itemsets
        self.patterns = [] if patterns is None else patterns

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


def _generate_candidates(frequent: Iterable[frozenset], key: ItemKey) -> list[frozenset]:
    """Join frequent (k-1)-itemsets on a shared (k-2)-prefix, then prune."""
    previous = {frozenset(s) for s in frequent}
    as_tuples = sorted(
        (tuple(sorted(s, key=key)) for s in previous),
        key=lambda t: tuple(key(i) for i in t),
    )
    candidates: list[frozenset] = []
    for _, group in groupby(as_tuples, key=lambda t: t[:-1]):
        members = list(group)
        for a, b in combinations(members, 2):
            candidate = frozenset(a + (b[-1],))
            if all(candidate - {item} in previous for item in candidate):
                candidates.append(candidate)
    return candidates


def _count_chunk(
    candidates: Sequence[frozenset],
    chunk: Sequence[tuple[frozenset, int]],
    k: int,
) -> dict[frozenset, int]:
    counts = dict.fromkeys(candidates, 0)
    for transaction, multiplicity in chunk:
        for combo in combinations(transaction, k):
            subset = frozenset(combo)
            if subset in counts:
                counts[subset] += multiplicity
    return counts


def _count_candidates(
    candidates: Sequence[frozenset],
    weighted: Sequence[tuple[frozenset, int]],
    k: int,
    threads: int,
) -> dict[frozenset, int]:
    if threads <= 1 or len(weighted) < 2 * threads:
        return _count_chunk(candidates, weighted, k)
    # Partition into contiguous chunks; merging by integer addition makes the
    # result identical to the single-threaded pass for any thread count.
    size = (len(weighted) + threads - 1) // threads
    chunks = [weighted[i : i + size] for i in range(0, len(weighted), size)]
    totals = dict.fromkeys(candidates, 0)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for partial in pool.map(lambda c: _count_chunk(candidates, c, k), chunks):
            for itemset, count in partial.items():
                totals[itemset] += count
    return totals


def mine_frequent(
    transactions: Sequence[Iterable[Item]],
    min_sup: float,
    *,
    item_key: ItemKey | None = None,
    max_size: int | None = None,
    threads: int = 1,
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
    key = item_key if item_key is not None else lambda item: item
    n = len(transactions)

    weighted = list(Counter(frozenset(t) for t in transactions).items())

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
        ordered = sorted(counts, key=lambda s: tuple(key(i) for i in sorted(s, key=key)))
        return {s: ItemsetSupport(counts[s], counts[s] / n) for s in ordered}

    itemsets: dict[int, dict[frozenset, ItemsetSupport]] = {1: level_entry(current)}
    k = 1
    while current and (max_size is None or k < max_size):
        k += 1
        candidates = _generate_candidates(current, key)
        if not candidates:
            itemsets[k] = {}
            break
        counts = _count_candidates(candidates, weighted, k, threads)
        current = {s: c for s, c in counts.items() if c / n >= min_sup}
        itemsets[k] = level_entry(current)
    return MiningRun(min_sup=min_sup, dataset_size=n, itemsets=itemsets)


def record_transaction(record: UnifiedCrimeRecord) -> frozenset:
    """One transaction per record: tagged location, weekday, and time bin."""
    return frozenset(
        {
            (LOCATION_TAG, record.location),
            (DAY_TAG, record.day),
            (TIME_TAG, record.time.value),
        }
    )


def mine_hotspot_patterns(
    dataset: Sequence[UnifiedCrimeRecord],
    min_sup: float,
    *,
    threads: int = 1,
) -> MiningRun:
    """Mine (location, day, time) triples with support at least ``min_sup``.

    Levels 1 and 2 are still computed for pruning; only size-3 itemsets with
    exactly one item per tag become reported patterns, sorted by location,
    weekday order, then time-bin order.
    """
    transactions = [record_transaction(r) for r in dataset]
    run = mine_frequent(
        transactions,
        min_sup,
        item_key=hotspot_item_key,
        max_size=3,
        threads=threads,
    )
    patterns: list[FrequentPattern] = []
    for itemset, stat in run.itemsets.get(3, {}).items():
        by_tag = dict(itemset)
        if set(by_tag) != {LOCATION_TAG, DAY_TAG, TIME_TAG}:
            continue
        patterns.append(FrequentPattern(by_tag[LOCATION_TAG], by_tag[DAY_TAG], by_tag[TIME_TAG],
                                        stat.support, stat.count))
    patterns.sort(key=lambda p: (p.location, WEEKDAY_RANK[p.day], TIME_RANK[p.time]))
    run.patterns = patterns
    return run


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
