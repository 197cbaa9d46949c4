"""Unified records as columns: one list per ``UnifiedCrimeRecord`` field.

``preprocess.read_unified_jsonl`` returns a ``UnifiedTable``, and each
analytic stage counts only the columns it names: no stage builds a record
per row. ``as_table`` is the one way in for a record list. Neither
``preprocess`` nor ``predict`` loads this module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import compress, repeat
from operator import attrgetter
from typing import Iterable

from .vocab import UnifiedCrimeRecord

_new = tuple.__new__  # builds a record as UnifiedCrimeRecord._make does, without a Python frame
_INDEX = {name: i for i, name in enumerate(UnifiedCrimeRecord._fields)}
# Each attribute of ``vocab.ATTRIBUTES``: its field, and how a value of it reads as text (``str`` of a
# string is that string).
_ATTRIBUTE_FIELDS = {"month": ("month", str), "day": ("day", str), "time": ("time", attrgetter("value")),
                     "location": ("location", str), "type": ("crime_type", attrgetter("label")),
                     "hour": ("hour", str)}


class UnifiedTable(Sequence):
    """Records as field columns. It reads, slices, compares, repeats and
    prints as its record list, building each record on demand."""

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[list, ...]):
        self.columns = columns

    def column(self, field: str) -> list:
        return self.columns[_INDEX[field]]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UnifiedTable(tuple(column[index] for column in self.columns))
        return _new(UnifiedCrimeRecord, [column[index] for column in self.columns])

    def __iter__(self):
        return map(_new, repeat(UnifiedCrimeRecord), zip(*self.columns))

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, UnifiedTable) else other)

    def __repr__(self) -> str:
        return repr(list(self))

    def __mul__(self, times: int) -> UnifiedTable:
        return UnifiedTable(tuple(column * times for column in self.columns))

    def counts(self, *attributes: str, year: int | None = None) -> tuple[Counter, int]:
        """The counts of the named attributes' texts (a tuple of them for more
        than one) over the rows of ``year`` (every row for None), and the
        number of those rows. Each distinct value is read as text once."""
        fields = [_ATTRIBUTE_FIELDS[name] for name in attributes]
        columns = [self.column(field) for field, _ in fields]
        rows = columns[0] if len(columns) == 1 else zip(*columns)  # a column counts faster than its 1-tuples
        if year is not None:
            rows = compress(rows, map(year.__eq__, self.column("year")))
        counts = Counter(rows)
        if len(fields) == 1:
            texts = map(fields[0][1], counts)
        else:
            texts = (tuple(read(value) for (_, read), value in zip(fields, key)) for key in counts)
        return Counter(dict(zip(texts, counts.values()))), sum(counts.values())


def as_table(data: UnifiedTable | Iterable[UnifiedCrimeRecord]) -> UnifiedTable:
    """What the analytic stages count: a record list is made columns once, here."""
    if isinstance(data, UnifiedTable):
        return data
    return UnifiedTable(tuple(map(list, zip(*data))) or tuple([] for _ in _INDEX))
