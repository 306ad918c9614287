"""The record classes: frozen ones behave as values, and no two records share a
list or dict default."""

import pytest

from hamdirac import SymbolTable, parse_expr
from hamdirac.chart import CanonicalChart, ChartRow
from hamdirac.dirac import DiracResult
from hamdirac.embedding import EmbeddingPlan
from hamdirac.lagrangian import LagrangianSystem, PhaseSpace
from hamdirac.linalg import LinearSolution
from hamdirac.report import Analysis, PipelineOptions
from hamdirac.symbols import Symbol
from hamdirac.sysfile import SystemFile

SYMBOL_FIELDS = ("name", "index", "kind", "base", "order")
CHART_ROW_FIELDS = ("role", "pair", "row", "symbol", "generation")


def frozen_cases():
    sym = Symbol("q1", 0, "position", "q1", 0)
    return [
        (Symbol, SYMBOL_FIELDS, ("q1", 0, "position", "q1", 0)),
        (Symbol, SYMBOL_FIELDS, ("zeta1", 7, "multiplier", None, 0)),
        (ChartRow, CHART_ROW_FIELDS, ("Psi", 1, ((0, 1, -2), 3), sym, 2)),
        (ChartRow, CHART_ROW_FIELDS, ("Q", 2, ((1, 0, 0), 1), sym, None)),
    ]


@pytest.mark.parametrize("cls,names,values", frozen_cases())
def test_frozen_records_are_values(cls, names, values):
    a, b = cls(*values), cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, k) for k in names) == values
    assert a == b and not a != b and hash(a) == hash(b) == hash(values)
    assert a != cls(*values[:-1], 5) and a != values
    if cls is Symbol:
        assert repr(a) == values[0]
    else:
        assert repr(a) == f"ChartRow(role={values[0]!r}, pair={values[1]}, row={values[2]}, symbol=q1, generation={values[4]})"


def test_symbol_rebuilt_from_its_fields_finds_the_same_dict_entry():
    t = SymbolTable()
    q = t.position("q1")
    zeta = t.register("zeta1", "multiplier")
    table = {q: "position", zeta: "multiplier"}
    for sym in (q, zeta):
        again = Symbol(*(getattr(sym, k) for k in SYMBOL_FIELDS))
        assert again is not sym and table[again] == sym.kind
        assert again in table and {again: 1}.keys() == {sym: 1}.keys()


def test_chart_row_keeps_its_row_as_tuples():
    sym = Symbol("P1", 3, "momentum")
    row = ChartRow("P", 1, ([0, 1, 0], 2), sym)
    assert row.row == ((0, 1, 0), 2) and row == ChartRow("P", 1, ((0, 1, 0), 2), sym)


def list_and_dict_defaults():
    t = SymbolTable()
    phase = PhaseSpace(t, ())
    h = parse_expr("0", t)
    sysfile = SystemFile("s", ["q1"], 1, "0")
    system = LagrangianSystem(t, (), 1, h)
    return [
        (SymbolTable, (), ("_by_name", "_by_index")),
        (SystemFile, ("s", ["q1"], 1, "0"), ("chart_rows", "gauge", "options", "epsilon")),
        (LagrangianSystem, (t, (), 1, h), ("velocity_aliases",)),
        (LinearSolution, ([], [], [], []), ("witnesses", "witness_rows")),
        (
            DiracResult,
            (phase, h, []),
            ("multiplier_symbols", "rebased_primaries", "multiplier_solutions", "free_multipliers", "first_class",
             "second_class", "flags", "h_brackets"),
        ),
        (CanonicalChart, (phase, []), ("notes",)),
        (EmbeddingPlan, ("sigma1",), ("fixed", "gauge_multiplier_solutions", "preconditions")),
        (PipelineOptions, (), ("epsilon",)),
        (Analysis, (sysfile, PipelineOptions(), t, system, system, None, None, None, None, None), ("pivot_log",)),
    ]


DEFAULT_CASES = list_and_dict_defaults()


@pytest.mark.parametrize("cls,args,fields", DEFAULT_CASES, ids=[cls.__name__ for cls, _, _ in DEFAULT_CASES])
def test_list_and_dict_defaults_are_fresh_per_instance(cls, args, fields):
    a, b = cls(*args), cls(*args)
    defaulted = cls.__slots__[len(args):]
    assert [k for k in defaulted if isinstance(getattr(a, k), (list, dict))] == list(fields)
    for k in fields:
        value = getattr(a, k)
        assert value == type(value)() and value is not getattr(b, k)
        if isinstance(value, dict):
            value["x"] = 1
        else:
            value.append(1)
        assert not getattr(b, k) and not getattr(cls(*args), k)
