"""The decision tree's split search and best-first growth, on histograms.

``training.dt_train`` loads this module, so ``predict`` does not compile it.
A split counts only its smaller child; the larger child's histogram is the
parent's less the smaller one's (histogram subtraction; Ke et al., NeurIPS
2017), and its rows are listed only if it is split in turn.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress
from operator import sub
from typing import Iterable

from .classify import CLASSES, FEATURES, TreeLeaf, TreeSplit
from .training import N_CLASSES, Dataset, by_value, count_histogram, histogram_minus


class XLog2X(dict):
    """c·log2(c) by count c, computed on first use (0·log2 0 = 0). One memo
    serves one tree, or the trees of one cross-validation, whose folds meet
    mostly the same counts; it lives no longer than the call that made it."""

    def __missing__(self, count: int) -> float:
        value = self[count] = count * math.log2(count) if count else 0.0
        return value

    def weighted_entropy(self, counts: Iterable[int], total: int) -> float:
        """``total`` times the entropy of ``counts`` (summing to ``total``), as
        n·log2 n − Σ c·log2 c (C4.5; Quinlan 1993). ``fsum`` rounds the sum
        exactly, so equal count multisets give equal bits in any order."""
        return self[total] - math.fsum(map(self.__getitem__, counts))


def _side(rows, column, code, equal: bool) -> list[int]:
    """The ``rows`` whose ``column`` entry equals ``code`` (or, if not ``equal``, differs)."""
    return [i for i in rows if column[i] == code] if equal else [i for i in rows if column[i] != code]


class _GrowNode:
    """Frontier bookkeeping during best-first growth. ``rows`` is a list, or
    a function that lists them."""

    __slots__ = ("histogram", "rows", "creation", "best", "children")

    def __init__(self, histogram, rows, creation, best):
        self.histogram = histogram
        self.rows = rows
        self.creation = creation
        self.best = best
        self.children: tuple | None = None  # (feature, value, gain, true_node, false_node)


def best_split(data: Dataset, histogram, terms: XLog2X):
    """Highest-gain (feature == value) predicate over the records that
    ``histogram`` counts, as ``(gain, feature, value)``, or None if no gain is
    positive.

    A gain depends only on the class-count multisets of the two sides, bit
    for bit, so ties break by feature order month < day < time < location,
    then by the feature's canonical value order (iteration order with a
    strictly greater comparison). A partition independent of the class
    (checked in integers) is never chosen, whatever its rounded gain; nor is
    a predicate on the node's path, which holds for every record or for none.
    """
    classes = histogram[0]
    total = sum(classes)
    parent_bits = terms.weighted_entropy(classes, total)
    if parent_bits == 0.0:
        return None
    term, fsum = terms.__getitem__, math.fsum
    best, best_gain = None, 0.0
    for feature, joint in zip(FEATURES, histogram[1:]):
        per_value = by_value(joint)
        for value in compress(range(len(per_value)), map(any, per_value)):
            true_counts = per_value[value]
            n_true = sum(true_counts)
            # Both sides' ``weighted_entropy``, inlined in this hot loop.
            children = ((term(n_true) - fsum(map(term, true_counts)))
                        + (term(total - n_true) - fsum(map(term, map(sub, classes, true_counts)))))
            gain = (parent_bits - children) / total
            if gain > best_gain and any(t * total != c * n_true for t, c in zip(true_counts, classes)):
                best, best_gain = (gain, feature, data.values[feature][value]), gain
    return best


def grow(data: Dataset, max_leaves: int, terms: XLog2X | None = None) -> TreeSplit | TreeLeaf:
    """The root of ``training.dt_train``'s tree over ``data``, its c·log2 c
    terms taken from ``terms`` (a new memo if None)."""
    terms = XLog2X() if terms is None else terms

    def leaf(histogram, rows, creation) -> _GrowNode:
        return _GrowNode(histogram, rows, creation, best_split(data, histogram, terms))

    creation = 0
    root = leaf(data.histogram, data.rows, creation)
    frontier = [root]
    while len(frontier) < max_leaves:
        splittable = [g for g in frontier if g.best is not None]
        if not splittable:
            break
        parent = max(splittable, key=lambda g: (g.best[0], -g.creation))
        gain, feature, value = parent.best
        column, code = data.columns[feature], data.codes[feature][value]
        rows = parent.rows() if callable(parent.rows) else parent.rows
        joint = parent.histogram[1 + FEATURES.index(feature)]
        true_smaller = 2 * sum(joint[code * N_CLASSES:(code + 1) * N_CLASSES]) <= len(rows)
        small = _side(rows, column, code, true_smaller)
        small_histogram = count_histogram(data, small)
        sides = [(small_histogram, small),
                 (histogram_minus(parent.histogram, small_histogram),
                  partial(_side, rows, column, code, not true_smaller))]
        if not true_smaller:
            sides.reverse()
        parent.children = (feature, value, gain,
                           leaf(*sides[0], creation + 1), leaf(*sides[1], creation + 2))
        creation += 2
        frontier.remove(parent)
        frontier.extend(parent.children[3:])

    def materialize(node: _GrowNode) -> TreeSplit | TreeLeaf:
        if node.children is None:
            classes = node.histogram[0]
            counts = {c: n for c, n in zip(CLASSES, classes) if n}
            return TreeLeaf(counts=counts, majority=CLASSES[classes.index(max(classes))])
        feature, value, gain, if_true, if_false = node.children
        return TreeSplit(feature, value, gain, materialize(if_true), materialize(if_false))

    return materialize(root)
