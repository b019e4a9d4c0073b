"""Subject-level data ingestion: CSV parsing and one-hot encoding.

A loaded Dataset is a parsed table and nothing more: string-valued CSV
columns are expanded into 0/1 indicators at load time (one column per level,
named ``<column><level>``, levels in order of first appearance), and missing
values are a hard error, never imputed. No column is validated at load time:
the formula's ``Surv()`` names the response, and ``build_design`` checks the
columns a model uses when the data enters it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "check_response", "read_csv", "load_csv", "one_hot"]

_MISSING = {"", "na", "nan", "null", "none"}


@dataclass
class Dataset:
    """Named columns of equal length plus the name of the treatment column."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)
    treat_col: str = "A"


def check_response(y, delta, time_name: str, event_name: str) -> None:
    """Require positive times, 0/1 event indicators and at least one event;
    the DataError names the column and its first offending row."""
    _check_rows(time_name, y, y > 0, "positive")
    _check_rows(event_name, delta, np.isin(delta, (0.0, 1.0)), "0/1")
    if not np.any(delta == 1):
        raise DataError("no events: every row is censored")


def _check_rows(name: str, col, ok, rule: str) -> None:
    bad = np.nonzero(~ok)[0]
    if bad.size:
        raise DataError(f"{name!r} must be {rule}; "
                        f"row {bad[0] + 1} has value {float(col[bad[0]])}")


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


def load_csv(path, treat_col: str = "A") -> Dataset:
    """Load a header-full CSV and one-hot encode its string columns.

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

    d = Dataset(columns=columns, treat_col=treat_col)
    for name in list(d.columns):
        if not np.issubdtype(d.columns[name].dtype, np.number):
            d = one_hot(d, name)
    return d


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
    return Dataset(columns=new_cols, treat_col=d.treat_col)
