"""The training side of the classifiers: the seeded split, integer-coded
datasets and their histograms, Naive Bayes training and the tree's entry.

Both classifiers train on a ``Dataset``'s histogram: class counts plus each
feature's joint (value, class) counts. The tree is grown in ``growth``.
``predict`` loads ``classify`` alone, so it compiles none of this.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Hashable, Mapping, Sequence

from . import classify
from .classify import CLASSES, FEATURES, NaiveBayesModel
from .errors import CrimeMinerError
from .table import UnifiedTable, as_table
from .vocab import ATTRIBUTES, CrimeCategory, UnifiedCrimeRecord

# --- train/test splitting ----------------------------------------------------

class SplitSpec:
    """Seeded shuffle-split parameters."""

    __slots__ = ("train_fraction", "seed")

    def __init__(self, train_fraction: float = 0.8, seed: int = 42):
        if not 0 < train_fraction < 1:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        self.train_fraction = train_fraction
        self.seed = seed


def seeded_permutation(n: int, seed: int) -> array:
    """``0..n-1`` shuffled by ``random.Random(seed)`` (as a list would be), in 4-byte
    items: the order behind both the train/test split and the cross-validation folds."""
    indices = array("I", range(n))
    random.Random(seed).shuffle(indices)
    return indices


def complement(n: int, rows: Sequence[int]) -> array:
    """The indices ``0..n-1`` that are not in ``rows``, in order."""
    kept = bytearray(b"\1") * n
    for i in rows:
        kept[i] = 0
    return array("I", compress(range(n), kept))


def split_train_test(dataset: Sequence, spec: SplitSpec) -> tuple[list, list]:
    """Partition by a seeded pseudo-random permutation.

    The train size is round-half-up(train_fraction * n); both sides keep the
    original dataset order. The same seed always yields the same partition.
    A ``Dataset`` splits into two of its subsets, any other sequence into lists.
    """
    n = len(dataset)
    if n < 2:
        raise CrimeMinerError(f"need at least 2 records to split, got {n}")
    indices = seeded_permutation(n, spec.seed)
    n_train = math.floor(spec.train_fraction * n + 0.5)
    test_indices = array("I", sorted(indices[n_train:]))
    train_indices = complement(n, test_indices)
    if isinstance(dataset, Dataset):
        return dataset.subset(train_indices), dataset.subset(test_indices)
    return [dataset[i] for i in train_indices], [dataset[i] for i in test_indices]


# --- integer-coded datasets ------------------------------------------------------

CLASS_INDEX = {c: i for i, c in enumerate(CLASSES)}  # each class's position in CLASSES
N_CLASSES = len(CLASSES)  # a joint code is value * N_CLASSES + class index


def _codes(size: int, values) -> bytes | array:
    """``values``, each below ``size``, as one byte each, or as 2- or 4-byte array items."""
    return bytes(values) if size <= 256 else array("H" if size <= 1 << 16 else "I", values)


class Dataset:
    """The four features and the class of records, as integer columns: a view on a table's codes.

    ``values[f]`` lists feature f's values in canonical order (locations
    sorted), ``codes[f]`` maps each value to its position there, and
    ``columns[f][i]`` is record i's position, the table's own column but for
    locations. ``labels[i]`` is record i's class as an index into ``CLASSES``
    (the table's type column); ``joint[f][i]`` packs both as ``value * 6 +
    label``. ``rows`` lists the records a dataset holds, in order: a subset
    shares every column and keeps its own ``rows``.
    """

    __slots__ = ("values", "codes", "columns", "labels", "joint", "rows", "_histogram")

    def __init__(self, values, codes, columns, labels, joint, rows, histogram=None):
        self.values = values
        self.codes = codes
        self.columns = columns
        self.labels = labels
        self.joint = joint
        self.rows = rows
        self._histogram = histogram

    @classmethod
    def from_records(cls, records: UnifiedTable | Sequence[UnifiedCrimeRecord]) -> "Dataset":
        """The view on a table, which encodes only its locations; a record list is made a table first."""
        table = as_table(records)
        locations = table.column("location")
        values = {feature: ATTRIBUTES[feature].order or tuple(sorted(set(locations))) for feature in FEATURES}
        codes = {feature: {v: i for i, v in enumerate(values[feature])} for feature in FEATURES}
        columns = {feature: table.column(feature) for feature in FEATURES[:3]}
        columns["location"] = _codes(len(values["location"]), map(codes["location"].__getitem__, locations))
        labels = table.column("crime_type")
        joint = {feature: _codes(len(values[feature]) * N_CLASSES,
                                 map(add, map(mul, column, repeat(N_CLASSES)), labels))
                 for feature, column in columns.items()}
        return cls(values, codes, columns, labels, joint, range(len(table)))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def histogram(self) -> tuple[list[int], ...]:
        """Class counts by class index, then each feature's counts indexed by
        ``joint`` code, of ``rows``: counted on first use unless given."""
        if self._histogram is None:
            self._histogram = count_histogram(self, self.rows)
        return self._histogram

    def subset(self, indices: Sequence[int], histogram=None) -> "Dataset":
        """The records at ``indices`` (positions in this dataset), in that
        order; ``histogram``, if given, must be theirs."""
        rows = indices if isinstance(self.rows, range) else array("I", map(self.rows.__getitem__, indices))
        return Dataset(self.values, self.codes, self.columns, self.labels, self.joint, rows, histogram)


def count_histogram(data: Dataset, rows) -> tuple[list[int], ...]:
    """``data``'s histogram (see ``Dataset.histogram``) of the records at ``rows``."""
    histogram = []
    for feature in FEATURES:
        counts = [0] * (len(data.values[feature]) * N_CLASSES)
        for code, n in Counter(map(data.joint[feature].__getitem__, rows)).items():
            counts[code] = n
        histogram.append(counts)
    day = histogram[1]  # summed over its values, any feature's counts give the class counts
    return ([sum(day[k::N_CLASSES]) for k in range(N_CLASSES)], *histogram)


def by_value(joint: list[int]) -> list[tuple[int, ...]]:
    """Each value's class counts, from one feature's histogram."""
    return list(zip(*[iter(joint)] * N_CLASSES))


def histogram_minus(whole: tuple[list[int], ...], part: tuple[list[int], ...]) -> tuple[list[int], ...]:
    """The histogram of some rows less that of a subset of them (LightGBM's
    histogram subtraction; Ke et al. 2017)."""
    return tuple(list(map(sub, w, p)) for w, p in zip(whole, part))


def as_dataset(data: Dataset | Sequence[UnifiedCrimeRecord]) -> Dataset:
    """What training and scoring run on: a record list is encoded once, here."""
    return data if isinstance(data, Dataset) else Dataset.from_records(data)


# --- training ------------------------------------------------------------------

def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def nb_train(train: Dataset | Sequence[UnifiedCrimeRecord], alpha: float = 1.0) -> NaiveBayesModel:
    if not train:
        raise CrimeMinerError("cannot train Naive Bayes on an empty set")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    data = as_dataset(train)
    n = len(data)
    class_counts, *joints = data.histogram
    log_prior = {c: _log(class_counts[k] / n) for k, c in enumerate(CLASSES)}

    vocab: dict[str, tuple[str, ...]] = {}
    cond_log: dict[str, dict[CrimeCategory, dict[str, float]]] = {}
    unseen_log: dict[str, dict[CrimeCategory, float]] = {}
    for feature, joint in zip(FEATURES, joints):
        per_value = by_value(joint)
        codes = list(compress(range(len(per_value)), map(any, per_value)))
        values = [data.values[feature][v] for v in codes]
        vocab[feature] = tuple(values)
        per_class: dict[CrimeCategory, dict[str, float]] = {}
        per_class_unseen: dict[CrimeCategory, float] = {}
        for k, c in enumerate(CLASSES):
            denominator = class_counts[k] + alpha * (len(values) + 1)
            if denominator > 0:
                table = {
                    name: _log((per_value[v][k] + alpha) / denominator)
                    for v, name in zip(codes, values)
                }
                per_class_unseen[c] = _log(alpha / denominator)
            else:  # alpha == 0 and class absent: no mass anywhere
                table = {v: -math.inf for v in values}
                per_class_unseen[c] = -math.inf
            per_class[c] = table
        cond_log[feature] = per_class
        unseen_log[feature] = per_class_unseen

    return NaiveBayesModel(
        alpha=alpha,
        classes=CLASSES,
        log_prior=log_prior,
        vocab=vocab,
        cond_log=cond_log,
        unseen_log=unseen_log,
    )


def entropy(label_counts: Mapping[Hashable, int]) -> float:
    """Shannon entropy in bits of a label-count distribution (0*log0 = 0)."""
    if any(c < 0 for c in label_counts.values()):
        raise ValueError("counts must be non-negative")
    total = sum(label_counts.values())
    if total == 0:
        raise CrimeMinerError("entropy of an empty distribution is undefined")
    from .growth import XLog2X
    return XLog2X().weighted_entropy(label_counts.values(), total) / total


def dt_train(train: Dataset | Sequence[UnifiedCrimeRecord], max_leaves: int = 10, *,
             terms=None) -> classify.DecisionTree:
    """Grow a tree best-first: always split the frontier leaf whose best
    predicate yields the largest information gain, until the leaf cap is hit
    or no split has positive gain. Equal gains go to the earlier-created leaf.
    ``terms``, a ``growth.XLog2X``, lets trees share their c·log2 c memo.
    """
    if not train:
        raise CrimeMinerError("cannot train a decision tree on an empty set")
    if max_leaves < 2:
        raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")
    from .growth import grow  # loaded here: Naive Bayes never grows a tree
    return classify.DecisionTree(root=grow(as_dataset(train), max_leaves, terms), max_leaves=max_leaves)


def fit_model(model_kind: str, train: Dataset | Sequence[UnifiedCrimeRecord], *,
              alpha: float = 1.0, max_leaves: int = 10, terms=None) -> NaiveBayesModel | classify.DecisionTree:
    """Train the classifier that ``model_kind`` names: ``"nb"`` or ``"dt"``."""
    if model_kind not in ("nb", "dt"):
        raise ValueError(f"model_kind must be 'nb' or 'dt', got {model_kind!r}")
    # Called through ``classify``, where ``perfbench/tracer.py`` wraps them (see ``classify.__getattr__``).
    if model_kind == "nb":
        return classify.nb_train(train, alpha=alpha)
    return classify.dt_train(train, max_leaves=max_leaves, terms=terms)
