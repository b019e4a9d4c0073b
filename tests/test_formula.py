import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalpch import (DataError, FormulaError, build_design, format_formula,
                       parse_formula)
from causalpch.dataset import Dataset
from causalpch.formula import Term


def names(spec):
    return list(spec.term_names)


class TestParse:
    def test_single_main_effect(self):
        spec = parse_formula("Surv(y, delta) ~ A")
        assert spec.time_var == "y"
        assert spec.event_var == "delta"
        assert names(spec) == ["A"]

    def test_star_expands_to_mains_plus_product(self):
        spec = parse_formula("Surv(y, delta) ~ A*age + karno")
        assert names(spec) == ["A", "age", "karno", "A:age"]

    def test_star_over_group(self):
        spec = parse_formula("Surv(y, delta) ~ A*(age + karno)")
        assert names(spec) == ["A", "age", "karno", "A:age", "A:karno"]

    def test_whitespace_insignificant(self):
        a = parse_formula("Surv(y,delta)~A*age")
        b = parse_formula("  Surv( y ,  delta )  ~  A * age ")
        assert a == b

    def test_mains_precede_interactions(self):
        spec = parse_formula("Surv(y, d) ~ a*b + c + a*x")
        mains = [t for t in spec.terms if not t.is_interaction]
        inters = [t for t in spec.terms if t.is_interaction]
        assert spec.terms == tuple(mains) + tuple(inters)
        for t in inters:
            for comp in t.components:
                assert comp in [m.name for m in mains]

    def test_expansion_idempotence(self):
        assert parse_formula("Surv(y,d) ~ A*b") == \
            parse_formula("Surv(y,d) ~ A + b + A*b")

    def test_duplicate_terms_merged(self):
        spec = parse_formula("Surv(y,d) ~ A + A + A*b + A*b")
        assert names(spec) == ["A", "b", "A:b"]

    def test_dotted_and_underscored_idents(self):
        spec = parse_formula("Surv(t.obs, ev_flag) ~ x.1 + _z")
        assert names(spec) == ["x.1", "_z"]

    @pytest.mark.parametrize("text", [
        "Surv(y, delta) ~ a*b*c",          # three-way product
        "Surv(y, delta) ~",                # empty RHS
        "Surv(y, delta) ~ a +",            # dangling +
        "Surv(y) ~ a",                     # missing event var
        "Surv(y, delta) a",                # missing ~
        "Surv(y, delta) ~ a*(b",           # unclosed group
        "Surv(y, delta) ~ 1a",             # ident starting with digit
        "Surv(y, delta) ~ a ? b",          # stray character
        "foo(y, delta) ~ a",               # wrong head
        "Surv(y, delta) ~ a*(b+c)*d",      # product of a group
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(FormulaError):
            parse_formula(text)

    def test_error_carries_offset(self):
        with pytest.raises(FormulaError) as err:
            parse_formula("Surv(y, delta) ~ a*b*c")
        assert err.value.offset == len("Surv(y, delta) ~ a*b")

    def test_duplicate_response(self):
        with pytest.raises(FormulaError):
            parse_formula("Surv(y, y) ~ a")


class TestRoundTrip:
    @given(st.lists(st.sampled_from("abcdexz"), min_size=1, max_size=5,
                    unique=True),
           st.data())
    def test_parse_print_roundtrip(self, mains, data):
        pairs = st.tuples(st.sampled_from(mains), st.sampled_from(mains))
        inters = data.draw(st.lists(pairs, max_size=4, unique=True))
        spec_terms = tuple(Term((m,)) for m in mains) + \
            tuple(Term(i) for i in inters)
        from causalpch.formula import FormulaSpec
        spec = FormulaSpec(time_var="y", event_var="d", terms=spec_terms)
        assert parse_formula(format_formula(spec)) == spec


def toy_dataset():
    return Dataset(columns={
        "y": np.array([1.0, 2.0, 3.0]),
        "delta": np.array([1.0, 0.0, 1.0]),
        "A": np.array([0.0, 1.0, 1.0]),
        "x": np.array([1.5, 2.5, -1.0]),
    })


class TestBuildDesign:
    def test_identity_passthrough(self):
        d = toy_dataset()
        dm = build_design(d, parse_formula("Surv(y, delta) ~ A"))
        assert dm.X.tolist() == [[0.0], [1.0], [1.0]]
        assert dm.columns == ("A",)
        assert dm.y.tolist() == [1.0, 2.0, 3.0]
        assert dm.delta.tolist() == [1.0, 0.0, 1.0]

    def test_interaction_is_product(self):
        d = toy_dataset()
        dm = build_design(d, parse_formula("Surv(y, delta) ~ A*x"))
        row = dm.X[1]
        assert row.tolist() == [1.0, 2.5, 2.5]

    def test_column_order_follows_terms(self):
        d = toy_dataset()
        spec = parse_formula("Surv(y, delta) ~ x + A + A*x")
        dm = build_design(d, spec)
        assert dm.columns == ("x", "A", "A:x")
        assert np.allclose(dm.X[:, 2], dm.X[:, 0] * dm.X[:, 1])

    def test_unknown_column(self):
        with pytest.raises(DataError, match="unknown column"):
            build_design(toy_dataset(), parse_formula("Surv(y, delta) ~ nope"))

    @pytest.mark.parametrize("formula", ["Surv(y, delta) ~ A*x",
                                         "Surv(y, delta) ~ A + x"])
    def test_column_length_mismatch(self, formula):
        d = toy_dataset()
        d.columns["x"] = np.array([1.5, 2.5])
        with pytest.raises(DataError, match=r"'x' has shape \(2,\)"):
            build_design(d, parse_formula(formula))

    def test_veteran_adjusted_shape(self, veteran):
        spec = parse_formula(
            "Surv(y, delta) ~ A + age + karno + celltypesquamous"
            " + celltypesmallcell + celltypeadeno")
        dm = build_design(veteran, spec)
        assert dm.X.shape == (137, 6)
        assert dm.columns == ("A", "age", "karno", "celltypesquamous",
                              "celltypesmallcell", "celltypeadeno")
