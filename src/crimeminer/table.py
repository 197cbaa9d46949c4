"""Records as columns: one column per record field, the closed vocabularies as one-byte codes.

``preprocess.read_unified_jsonl`` and ``preprocess_dataset`` return a ``UnifiedTable``, and each
stage counts the codes of the columns it names, reading each distinct key as text once: no stage
builds a record per row. The raw reader fills the same class with the raw fields. ``as_table`` is
the one way in for a record list. ``predict`` never loads this module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import compress, count, repeat
from typing import Iterable

from .vocab import ATTRIBUTES, MONTH_NAMES, TIME_BIN_ORDER, WEEKDAY_NAMES, CrimeCategory, UnifiedCrimeRecord

_new = tuple.__new__  # builds a record as its ``_make`` does, without a Python frame
# A layout: the record type, then per field (order, make). A field with an order stores each value's position
# in it, a one-byte code; one without stores the value (the hour is its own code). ``make`` builds a column.
UNIFIED = (UnifiedCrimeRecord, ((tuple(CrimeCategory), bytearray), (MONTH_NAMES, bytearray),
                                (WEEKDAY_NAMES, bytearray), (TIME_BIN_ORDER, bytearray), (None, list),
                                (None, list), (None, bytearray)))
# Each attribute of ``vocab.ATTRIBUTES``: its field. Its code reads as text through its order.
_ATTRIBUTE_FIELDS = {name: "crime_type" if name == "type" else name for name in ATTRIBUTES}


class UnifiedTable(Sequence):
    """Records as field columns, in ``layout``. It reads, slices, compares,
    repeats and prints as its record list, building each record on demand."""

    __slots__ = ("columns", "layout")

    def __init__(self, columns: tuple, layout=UNIFIED):
        self.columns = columns
        self.layout = layout

    def column(self, field: str):
        return self.columns[self.layout[0]._fields.index(field)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UnifiedTable(tuple(column[index] for column in self.columns), self.layout)
        record, fields = self.layout
        return _new(record, [column[index] if order is None else order[column[index]]
                             for column, (order, _) in zip(self.columns, fields)])

    def __iter__(self):
        record, fields = self.layout
        return map(_new, repeat(record), zip(*(column if order is None else map(order.__getitem__, column)
                                               for column, (order, _) in zip(self.columns, fields))))

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, UnifiedTable) else other)

    def __repr__(self) -> str:
        return repr(list(self))

    def __mul__(self, times: int) -> UnifiedTable:
        return UnifiedTable(tuple(column * times for column in self.columns), self.layout)

    def counts(self, *attributes: str, year: int | None = None) -> tuple[Counter, int]:
        """The counts of the named attributes' texts (a tuple of them for more
        than one) over the rows of ``year`` (every row for None), and the
        number of those rows. Each distinct key is read as text once."""
        orders = [ATTRIBUTES[name].order for name in attributes]
        columns = [self.column(_ATTRIBUTE_FIELDS[name]) for name in attributes]
        rows = columns[0] if len(columns) == 1 else zip(*columns)  # a column counts faster than its 1-tuples
        if year is not None:
            rows = compress(rows, map(year.__eq__, self.column("year")))
        counts = Counter(rows)
        if len(orders) == 1:
            texts = counts if orders[0] is None else map(orders[0].__getitem__, counts)
        else:
            texts = (tuple(code if order is None else order[code] for order, code in zip(orders, key))
                     for key in counts)
        return Counter(dict(zip(texts, counts.values()))), sum(counts.values())


def as_table(data: UnifiedTable | Iterable[tuple], layout=UNIFIED) -> UnifiedTable:
    """What the stages count: a record list is made columns once, here."""
    if isinstance(data, UnifiedTable):
        return data
    fields = layout[1]
    values = tuple(zip(*data)) or ((),) * len(fields)
    return UnifiedTable(tuple(make(column if order is None else map(dict(zip(order, count())).__getitem__, column))
                              for column, (order, make) in zip(values, fields)), layout)
