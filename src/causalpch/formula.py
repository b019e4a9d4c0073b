"""Survival-regression formula DSL.

Grammar (whitespace insignificant)::

    formula := "Surv" "(" ident "," ident ")" "~" expr
    expr    := factor ("+" factor)*
    factor  := ident | ident "*" ident | ident "*" "(" ident ("+" ident)* ")"

``a*b`` expands to the main effects a, b plus the product term ``a:b``;
``a*(b+c)`` expands to a, b, c, ``a:b``, ``a:c``. Only two-way products are
supported. Expanded term order is: all main effects in first-appearance
order, then all interactions in first-appearance order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataset import _check_rows, check_response
from .errors import DataError, FormulaError

__all__ = ["Term", "FormulaSpec", "DesignMatrix", "parse_formula",
           "format_formula", "build_design"]

_TOKEN = re.compile(r"[A-Za-z_.][A-Za-z0-9_.]*|[(),~+*]")


@dataclass(frozen=True)
class Term:
    """One model term: a main effect (one component) or a two-way interaction."""

    components: tuple[str, ...]

    def __post_init__(self):
        if len(self.components) not in (1, 2):
            raise ValueError("a term has one or two components")

    @property
    def name(self) -> str:
        return ":".join(self.components)

    @property
    def is_interaction(self) -> bool:
        return len(self.components) == 2


@dataclass(frozen=True)
class FormulaSpec:
    """Parsed formula: response columns plus the expanded, ordered term list."""

    time_var: str
    event_var: str
    terms: tuple[Term, ...]

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    @property
    def main_effects(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms if not t.is_interaction)


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric design from a FormulaSpec; its response passes check_response."""

    X: np.ndarray                 # n x p, column j follows terms[j]
    columns: tuple[str, ...]      # term names, in terms order
    terms: tuple[Term, ...]
    y: np.ndarray                 # observed times
    delta: np.ndarray             # event indicators

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[1] != len(self.columns):
            raise DataError(f"design matrix of shape {self.X.shape} does not "
                            f"have one column per term {list(self.columns)}")
        if self.y.shape != (self.n,) or self.delta.shape != (self.n,):
            raise DataError(f"{self.n} design rows, but {self.y.shape} times "
                            f"and {self.delta.shape} event indicators")
        if tuple(t.name for t in self.terms) != self.columns:
            raise DataError(f"terms {[t.name for t in self.terms]} do not "
                            f"match the columns {list(self.columns)}")
        check_response(self.y, self.delta, "y", "delta")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def check_treatment(self, treat_col: str) -> None:
        """Require a 0/1 treatment column with subjects in both arms.

        With every subject in one arm the causal contrast is not identified.
        The DataError for a value other than 0/1 names its first row.
        """
        a = self.X[:, self.columns.index(treat_col)]
        _check_rows(treat_col, a, np.isin(a, (0.0, 1.0)), "0/1")
        for level in (0, 1):
            if not np.any(a == level):
                raise DataError(
                    f"treatment column {treat_col!r} has no subject with "
                    f"value {level}; the contrast is not identified")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _scan(self) -> tuple[str | None, int, int]:
        i = self.pos
        while i < len(self.text) and self.text[i].isspace():
            i += 1
        if i >= len(self.text):
            return None, i, i
        m = _TOKEN.match(self.text, i)
        if m is None:
            raise FormulaError(f"unexpected character {self.text[i]!r}", i)
        return m.group(), i, m.end()

    def peek(self) -> tuple[str | None, int]:
        tok, at, _ = self._scan()
        return tok, at

    def next(self) -> tuple[str | None, int]:
        tok, at, end = self._scan()
        self.pos = end
        return tok, at

    def expect(self, want: str) -> None:
        tok, at = self.next()
        if tok != want:
            shown = "end of input" if tok is None else repr(tok)
            raise FormulaError(f"expected {want!r}, found {shown}", at)


def _expect_ident(toks: _Tokens) -> tuple[str, int]:
    tok, at = toks.next()
    if tok is None or tok in "(),~+*":
        shown = "end of input" if tok is None else repr(tok)
        raise FormulaError(f"expected identifier, found {shown}", at)
    return tok, at


def parse_formula(text: str) -> FormulaSpec:
    """Parse formula text such as ``Surv(y, delta) ~ A*age + karno``."""
    toks = _Tokens(text)
    head, at = toks.next()
    if head != "Surv":
        raise FormulaError("formula must start with Surv(<time>, <event>)", at)
    toks.expect("(")
    time_var, _ = _expect_ident(toks)
    toks.expect(",")
    event_var, at_event = _expect_ident(toks)
    toks.expect(")")
    if time_var == event_var:
        raise FormulaError(f"time and event variables are both {time_var!r}", at_event)
    toks.expect("~")

    tok, at = toks.peek()
    if tok is None:
        raise FormulaError("empty right-hand side", at)

    mains: list[str] = []
    inters: list[tuple[str, str]] = []

    def add_main(name: str) -> None:
        if name not in mains:
            mains.append(name)

    def add_inter(a: str, b: str) -> None:
        if (a, b) not in inters:
            inters.append((a, b))

    while True:
        left, _ = _expect_ident(toks)
        tok, at = toks.peek()
        if tok == "*":
            toks.next()
            tok, at = toks.peek()
            if tok == "(":
                toks.next()
                rights = [_expect_ident(toks)[0]]
                while True:
                    tok, at = toks.next()
                    if tok == ")":
                        break
                    if tok != "+":
                        shown = "end of input" if tok is None else repr(tok)
                        raise FormulaError(f"expected '+' or ')', found {shown}", at)
                    rights.append(_expect_ident(toks)[0])
            else:
                rights = [_expect_ident(toks)[0]]
            add_main(left)
            for r in rights:
                add_main(r)
            for r in rights:
                add_inter(left, r)
            tok, at = toks.peek()
            if tok == "*":
                raise FormulaError("only two-way interactions are supported", at)
        else:
            add_main(left)
        tok, at = toks.next()
        if tok is None:
            break
        if tok != "+":
            raise FormulaError(f"expected '+', found {tok!r}", at)

    terms = tuple(Term((m,)) for m in mains) + tuple(Term(i) for i in inters)
    return FormulaSpec(time_var=time_var, event_var=event_var, terms=terms)


def format_formula(spec: FormulaSpec) -> str:
    """Render a spec back to parseable text (interactions printed as ``a*b``)."""
    parts = [t.name for t in spec.terms if not t.is_interaction]
    parts += ["*".join(t.components) for t in spec.terms if t.is_interaction]
    return f"Surv({spec.time_var}, {spec.event_var}) ~ " + " + ".join(parts)


def build_design(dataset, spec: FormulaSpec) -> DesignMatrix:
    """Expand ``spec`` against ``dataset`` into a numeric design matrix.

    This is where data enters the model: every column the formula names must
    be present and numeric, and the response must pass ``check_response``
    (its DataError names the formula's columns), and every column must
    have as many rows as the time column. Columns follow
    ``spec.terms`` order; interaction columns are elementwise products of
    their two component columns.
    """
    def column(name: str) -> np.ndarray:
        try:
            col = dataset.columns[name]
        except KeyError:
            raise DataError(f"formula references unknown column {name!r}; "
                            "the data has columns "
                            f"{', '.join(dataset.columns)}") from None
        if not np.issubdtype(np.asarray(col).dtype, np.number):
            raise DataError(f"column {name!r} is not numeric")
        col = np.asarray(col, dtype=float)
        # y is bound by the first call, which reads the time column itself
        if name != spec.time_var and col.shape != y.shape:
            raise DataError(f"column {name!r} has shape {col.shape}, but the "
                            f"time column {spec.time_var!r} has {y.shape}")
        return col

    y = column(spec.time_var)
    delta = column(spec.event_var)
    check_response(y, delta, spec.time_var, spec.event_var)
    cols = []
    for term in spec.terms:
        if term.is_interaction:
            a, b = term.components
            cols.append(column(a) * column(b))
        else:
            cols.append(column(term.name))
    X = np.column_stack(cols) if cols else np.empty((len(y), 0))
    return DesignMatrix(X=X, columns=spec.term_names, terms=spec.terms,
                        y=y, delta=delta)
