"""The one CSV row loop of both loaders (city crime feeds and the
demographics table), with the accounting of every row it reads.

``rows_read == rows_accepted + rows_rejected`` holds for any input: a loader
accepts or rejects each row that ``csv_rows`` hands it.
"""

from __future__ import annotations

import csv
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import CrimeMinerError


class IngestReport:
    """Accounting of accepted and rejected rows for one input file."""

    __slots__ = ("rows_read", "rows_accepted", "rows_rejected", "rejection_reasons")

    def __init__(self):
        self.rows_read = self.rows_accepted = self.rows_rejected = 0
        self.rejection_reasons: dict[str, int] = {}

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1

    def to_json_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "rejection_reasons": dict(sorted(self.rejection_reasons.items())),
        }


def _column_positions(header: Sequence[str], required: Sequence[str]) -> list[int]:
    """Header position of each required column, case-insensitively.

    Looked up by name, so a column named twice in ``required`` maps twice.
    """
    positions = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [name for name in required if name.strip().lower() not in positions]
    if missing:
        raise CrimeMinerError(f"header is missing required column(s): {', '.join(missing)}")
    return [positions[name.strip().lower()] for name in required]


def csv_rows(path, required: Sequence[str], report: IngestReport) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield ``(row_number, cells)`` for each non-blank data row of a CSV.

    ``cells`` are the unstripped values of the ``required`` columns in order,
    ``""`` past the row's end. Rows read and blank rows are counted in
    ``report``; the caller accepts or rejects every row yielded. Bytes that
    are not UTF-8, or a cell over the field limit, raise ``CrimeMinerError``.
    """
    try:
        fp = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CrimeMinerError(f"cannot read {path}: {exc}") from exc
    with fp:
        reader = csv.reader(fp)
        try:
            header = next(reader, None)
            if header is None:
                raise CrimeMinerError(f"{path}: file is empty, no header row")
            positions = _column_positions(header, required)
            width = max(positions) + 1
            key_cells = itemgetter(*positions)
            for row_number, row in enumerate(reader, start=1):
                report.rows_read += 1
                if not (row and row[0].strip()) and not "".join(row).strip():
                    report.reject("blank-row")
                    continue
                row += [""] * (width - len(row))
                yield row_number, key_cells(row)
        except csv.Error as exc:
            raise CrimeMinerError(f"cannot read {path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CrimeMinerError(f"cannot read {path}: not UTF-8 text: {exc.reason}") from None
