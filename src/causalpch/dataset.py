"""Subject-level data ingestion: CSV parsing, validation, one-hot encoding.

A loaded Dataset holds only numeric columns: string-valued CSV columns are
expanded into 0/1 indicators at load time (one column per level, named
``<column><level>``, levels in order of first appearance). Missing values
are a hard error, never imputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "read_csv", "load_csv", "one_hot"]

_MISSING = {"", "na", "nan", "null", "none"}


@dataclass
class Dataset:
    """Named columns of equal length plus the designated response/treatment names."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)
    time_col: str = "y"
    event_col: str = "delta"
    treat_col: str = "A"

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    @property
    def y(self) -> np.ndarray:
        return self.columns[self.time_col]

    @property
    def delta(self) -> np.ndarray:
        return self.columns[self.event_col]

    @property
    def treatment(self) -> np.ndarray:
        return self.columns[self.treat_col]

    def validate(self) -> "Dataset":
        """Check the core invariants; return self so calls can be chained."""
        for name in (self.time_col, self.event_col, self.treat_col):
            if name not in self.columns:
                raise DataError(f"designated column {name!r} not present")
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise DataError(f"columns have unequal lengths: {lengths}")
        for name, col in self.columns.items():
            if not np.issubdtype(col.dtype, np.number):
                raise DataError(f"column {name!r} is not numeric")
        if self.n < 2:
            raise DataError(f"need at least 2 subjects, got {self.n}")
        bad = np.nonzero(~(self.y > 0))[0]
        if bad.size:
            raise DataError(f"{self.time_col!r} must be positive; "
                            f"row {bad[0] + 1} has value {self.y[bad[0]]!r}")
        for name, col, allowed in ((self.event_col, self.delta, "0/1"),
                                   (self.treat_col, self.treatment, "0/1")):
            bad = np.nonzero(~np.isin(col, (0.0, 1.0)))[0]
            if bad.size:
                raise DataError(f"{name!r} must be {allowed}; "
                                f"row {bad[0] + 1} has value {col[bad[0]]!r}")
        if not np.any(self.delta == 1):
            raise DataError("no events: every row is censored")
        return self


def _parse_column(name: str, raw: list[str]) -> np.ndarray:
    """Parse one raw column: float array if every entry parses, else strings."""
    for i, v in enumerate(raw):
        if v.strip().lower() in _MISSING:
            raise DataError(f"missing value in column {name!r}, row {i + 1}")
    try:
        return np.array([float(v) for v in raw])
    except ValueError:
        return np.array([v.strip() for v in raw], dtype=object)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The stripped header and the data rows of a CSV file.

    Raises DataError when the file cannot be read, is empty, has a row whose
    field count differs from the header's, or has no data rows.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 1} has {len(row)} fields, "
                            f"expected {len(header)}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return [h.strip() for h in header], rows


def load_csv(path, time_col: str = "y", event_col: str = "delta",
             treat_col: str = "A") -> Dataset:
    """Load a header-full CSV, one-hot encode string columns, validate.

    Deterministic: the same file always yields an identical Dataset.
    """
    header, rows = read_csv(path)
    dupes = {h for h in header if header.count(h) > 1}
    if dupes:
        raise DataError(f"{path}: duplicate column names {sorted(dupes)}")

    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        try:
            columns[name] = _parse_column(name, [row[j] for row in rows])
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    d = Dataset(columns=columns, time_col=time_col, event_col=event_col,
                treat_col=treat_col)
    for name in (time_col, event_col, treat_col):
        if name not in d.columns:
            raise DataError(f"{path}: designated column {name!r} not present")
        if not np.issubdtype(d.columns[name].dtype, np.number):
            raise DataError(f"{path}: designated column {name!r} is not numeric")
    for name in list(d.columns):
        if not np.issubdtype(d.columns[name].dtype, np.number):
            d = one_hot(d, name)
    return d.validate()


def one_hot(d: Dataset, col: str) -> Dataset:
    """Replace a categorical column with one 0/1 indicator per level.

    Indicator columns are named ``<col><level>`` and inserted in the original
    column's position, ordered by first appearance of each level. Every row
    has exactly one 1 across the produced block.
    """
    if col not in d.columns:
        raise DataError(f"unknown column {col!r}")
    values = [str(v) for v in d.columns[col]]
    levels = list(dict.fromkeys(values))
    if len(levels) < 2:
        raise DataError(f"column {col!r} has a single level {levels[0]!r}; "
                        "nothing to encode")
    new_cols: dict[str, np.ndarray] = {}
    for name, arr in d.columns.items():
        if name != col:
            new_cols[name] = arr
            continue
        for level in levels:
            indicator_name = f"{col}{level}"
            if indicator_name in d.columns:
                raise DataError(f"one-hot column {indicator_name!r} collides "
                                "with an existing column")
            new_cols[indicator_name] = np.array(
                [1.0 if v == level else 0.0 for v in values])
    return Dataset(columns=new_cols, time_col=d.time_col,
                   event_col=d.event_col, treat_col=d.treat_col)
