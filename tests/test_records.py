"""The record classes: every record is a frozen value whose sequences are
tuples and whose mappings are read-only; `SymbolTable` is the one mutable
object.  The stages' results are values too: `dirac_iterate`, `classify`,
`attach_chart` and `attach_embedding` return new records and change nothing
they are given, and every stage run again (the order-2 reduction, `legendre`,
the Dirac stage, the chart and the embedding), once or from several threads,
gives the first run's symbols and report without registering a symbol."""

import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import pytest

from hamdirac import SymbolTable, classify, dirac_iterate, parse_expr
from hamdirac.chart import CanonicalChart, ChartError, ChartRow, build_chart, frobenius_check
from hamdirac.dirac import ClassRep, DiracResult
from hamdirac.embedding import EmbeddingError, EmbeddingPlan, select_embedding
from hamdirac.expr import Expr
from hamdirac.lagrangian import FirstOrderSystem, LagrangianSystem, PhaseSpace, legendre, ostrogradsky_reduce, pons_reduce
from hamdirac.cli import reduced_hamiltonian
from hamdirac.linalg import ExprMatrix, LinearSolution
from hamdirac.numerics import _Variational, compile_field, solve_iota
from hamdirac.report import (
    Analysis,
    PipelineOptions,
    attach_chart,
    attach_embedding,
    build_report,
    report_json,
    run_pipeline,
)
from hamdirac.symbols import Symbol, _Record
from hamdirac.sysfile import SystemFile, load_system_file

SYMBOL_FIELDS = ("name", "index", "kind", "base", "order")
CHART_ROW_FIELDS = ("role", "pair", "row", "symbol", "generation")
CLASS_REP_FIELDS = ("expr", "klass", "generation", "row")


def frozen_cases():
    sym = Symbol("q1", 0, "position", "q1", 0)
    table = SymbolTable()
    q1 = Expr.sym(table, table.position("q1"))
    return [
        (Symbol, SYMBOL_FIELDS, ("q1", 0, "position", "q1", 0)),
        (Symbol, SYMBOL_FIELDS, ("zeta1", 7, "multiplier", None, 0)),
        (ChartRow, CHART_ROW_FIELDS, ("Psi", 1, (((1, 1), (2, -2)), 3), sym, 2)),
        (ChartRow, CHART_ROW_FIELDS, ("Q", 2, (((0, 1),), 1), sym, None)),
        (ClassRep, CLASS_REP_FIELDS, (q1, "second", 1, (((0, 1),), 1))),
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
    assert a != cls(5, *values[1:]) and a != values
    if cls is Symbol:
        assert repr(a) == values[0]
    elif cls is ClassRep:
        assert repr(a) == f"ClassRep(expr=q1, klass='second', generation=1, row={values[3]})"
    else:
        assert repr(a) == f"ChartRow(role={values[0]!r}, pair={values[1]}, row={values[2]}, symbol=q1, generation={values[4]})"


def test_replace_returns_a_changed_copy():
    plan = EmbeddingPlan("sigma1", {"Psi1": 0}, True, {}, ["Psi1 := 0 imposed in advance"])
    again = plan._replace(kind="sigma1_tilde", gauge_fixed=False)
    assert (again.kind, again.gauge_fixed) == ("sigma1_tilde", False) and plan.kind == "sigma1" and plan.gauge_fixed
    assert again.fixed is plan.fixed and again.preconditions is plan.preconditions
    assert plan._replace() == plan and plan._replace() is not plan
    with pytest.raises(TypeError):
        plan._replace(hamiltonian=None)


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
    row = ChartRow("P", 1, ([(1, 1)], 2), sym)
    assert row.row == (((1, 1),), 2) and row == ChartRow("P", 1, (((1, 1),), 2), sym)
    assert hash(row) == hash(ChartRow("P", 1, (((1, 1),), 2), sym))


def list_and_dict_defaults():
    t = SymbolTable()
    phase = PhaseSpace(t, ())
    h = parse_expr("0", t)
    sysfile = SystemFile("s", ["q1"], 1, "0")
    system = LagrangianSystem(t, (), 1, h)
    return [
        (SymbolTable, (), ("_by_name", "_by_index", "_fresh")),
        (SystemFile, ("s", ["q1"], 1, "0"), ("chart_rows", "gauge", "options", "epsilon")),
        (LagrangianSystem, (t, (), 1, h), ("velocity_aliases",)),
        (LinearSolution, ([], []), ("witnesses", "genericity_pivots")),
        (FirstOrderSystem, (phase, h, []), ("genericity_pivots",)),
        (
            DiracResult,
            (phase, h, []),
            ("multiplier_symbols", "rebased_primaries", "multiplier_solutions", "free_multipliers", "first_class",
             "second_class", "flags", "h_brackets"),
        ),
        (CanonicalChart, (phase, []), ("notes",)),
        (EmbeddingPlan, ("sigma1",), ("fixed", "gauge_multiplier_solutions", "preconditions")),
        (PipelineOptions, (), ("epsilon",)),
        (Analysis, (sysfile, PipelineOptions(), t, system, system, None, None, None, None, None), ()),
    ]


DEFAULT_CASES = list_and_dict_defaults()


@pytest.mark.parametrize("cls,args,fields", DEFAULT_CASES, ids=[cls.__name__ for cls, _, _ in DEFAULT_CASES])
def test_list_and_dict_defaults_are_fresh_per_instance(cls, args, fields):
    # the registry's containers are its own; a record's sequence and mapping
    # defaults are empty and read-only, so no instance can change another's
    a, b = cls(*args), cls(*args)
    defaulted = cls.__slots__[len(args):]
    if cls is SymbolTable:
        assert [k for k in defaulted if isinstance(getattr(a, k), (list, dict))] == list(fields)
        assert all(getattr(a, k) == type(getattr(a, k))() and getattr(a, k) is not getattr(b, k) for k in fields)
        return
    assert [k for k in defaulted if isinstance(getattr(a, k), (tuple, MappingProxyType))] == list(fields)
    for k in fields:
        value = getattr(a, k)
        assert not value and not hasattr(value, "append")
        with pytest.raises(TypeError):
            value["x"] = 1
        assert not getattr(b, k) and not getattr(cls(*args), k)


FIXTURES = resources.files("hamdirac") / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
# quadratic and non-quadratic H (l3quartic), first- and second-class
# constraints, a failing Frobenius verdict (totalderiv), both order-2 paths
STAGE_CASES = [
    (FIXTURES / "l2.sys", None), (FIXTURES / "l3.sys", None), (FIXTURES / "cawley.sys", None),
    (FIXTURES / "l4.sys", "ssok"), (FIXTURES / "l4.sys", "pons"), (GOLDEN / "coupled3.sys", None),
    (GOLDEN / "gauge3.sys", None), (GOLDEN / "l3quartic.sys", None), (GOLDEN / "totalderiv.sys", None),
]


def analyzed_case(path, order2_path):
    return run_pipeline(load_system_file(path), PipelineOptions(path=order2_path), stage="analyze")


def snapshot(x):
    """Every field of a record, recursively, with the identity of each record
    and container, so a field set, a list entry replaced or a container
    changed in place all show."""
    if isinstance(x, Expr):
        return "Expr", id(x), tuple(x.num.items()), tuple(x.den.items())
    if isinstance(x, _Record):
        return type(x).__name__, id(x), tuple((k, snapshot(getattr(x, k))) for k in x.__slots__)
    if isinstance(x, (list, tuple)):
        return type(x).__name__, id(x), tuple(map(snapshot, x))
    if isinstance(x, (dict, MappingProxyType)):
        return type(x).__name__, id(x), tuple((snapshot(k), snapshot(v)) for k, v in x.items())
    return type(x).__name__, x


@pytest.mark.parametrize("path,order2_path", STAGE_CASES, ids=[f"{p.stem}-{o}" for p, o in STAGE_CASES])
def test_dirac_stage_returns_frozen_values_and_changes_no_input(path, order2_path):
    an = analyzed_case(path, order2_path)
    table = an.table
    size = len(table)
    bare = dirac_iterate(an.fos)
    before = snapshot(bare)
    out = classify(bare)
    assert snapshot(bare) == before
    assert not bare.classified and {c.klass for c in bare.constraints} <= {"unclassified"}
    assert out.classified and out is not bare and out.constraints is not bare.constraints
    assert [c.klass for c in out.constraints] == [c.klass for c in an.result.constraints]

    # a repeat reuses the multipliers the first run registered: equal values,
    # names included, and no new symbol
    again = classify(dirac_iterate(an.fos))
    assert out == again == an.result and len(table) == size
    assert [z.name for z in again.multiplier_symbols] == [z.name for z in an.result.multiplier_symbols]

    for record in (out, bare, *out.constraints, *out.first_class, *out.second_class):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
    for record in (*out.constraints, *out.first_class, *out.second_class):
        assert hash(record) == hash(type(record)(*(getattr(record, k) for k in type(record).__slots__)))


@pytest.mark.parametrize("path,order2_path", STAGE_CASES, ids=[f"{p.stem}-{o}" for p, o in STAGE_CASES])
def test_repeat_legendre_reuses_its_momenta(path, order2_path):
    # a repeat registers nothing: the same momenta, names included, and equal
    # H and primaries
    an = analyzed_case(path, order2_path)
    size = len(an.table)
    again = legendre(an.reduced)
    assert again.phase.pairs == an.fos.phase.pairs and len(an.table) == size
    assert not any(p.name.endswith("_") for p in again.phase.momenta)
    assert (again.H, again.primaries) == (an.fos.H, an.fos.primaries)


def test_repeat_legendre_still_steps_past_a_coordinate_name():
    table = SymbolTable()
    coords = (table.position("q1"), table.position("p1"))
    system = LagrangianSystem(table, coords, 1, parse_expr("d(q1)*d(p1) + q1*p1", table))
    first, size = legendre(system), len(table)
    again = legendre(system)
    assert [p.name for p in first.phase.momenta] == ["p1_", "p_p1"]
    assert again.phase.pairs == first.phase.pairs and len(table) == size and again.H == first.H


@pytest.mark.parametrize("path,order2_path", STAGE_CASES[:1] + STAGE_CASES[5:8], ids=lambda v: getattr(v, "stem", v))
def test_dirac_stage_repeats_from_threads_give_the_same_report(path, order2_path):
    an = analyzed_case(path, order2_path)
    want = report_json(build_report(an, "analyze"))

    def rerun(_):
        res = classify(dirac_iterate(an.fos))
        rerun_an = Analysis(an.sysfile, an.options, an.table, an.system, an.reduced, an.path, an.w_counter,
                            an.l_counter, an.fos, res, frobenius=frobenius_check(res))
        return report_json(build_report(rerun_an, "analyze"))

    size = len(an.table)
    assert from_threads(rerun) == [want] * 8 and len(an.table) == size


def from_threads(fn):
    """fn(0), ..., fn(7) run from 4 threads that switch often, inside the stages' loops."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(fn, range(8), timeout=300))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("path,order2_path", STAGE_CASES, ids=[f"{p.stem}-{o}" for p, o in STAGE_CASES])
def test_every_stage_repeats_with_the_same_report_and_symbols(path, order2_path):
    # each stage run again on a finished report, once and then 8 times from 4
    # threads, gives the first run's report bytes and registers no symbol: a
    # repeat request for a chart row, momentum, multiplier, epsilon or
    # reduction coordinate name returns the symbol the first one got
    an = run_pipeline(load_system_file(path), PipelineOptions(path=order2_path), stage="report")
    want = report_json(build_report(an))
    size = len(an.table)

    def rerun(_):
        reduced = an.reduced
        if an.sysfile.order == 2:
            reduced = (ostrogradsky_reduce if an.path == "ssok" else pons_reduce)(an.system)
            assert reduced == an.reduced
        fos = legendre(reduced)
        res = classify(dirac_iterate(fos))
        again = Analysis(an.sysfile, an.options, an.table, an.system, reduced, an.path, an.w_counter, an.l_counter,
                         fos, res, frobenius=frobenius_check(res))
        return report_json(build_report(attach_embedding(attach_chart(again))))

    assert rerun(None) == want and len(an.table) == size
    assert from_threads(rerun) == [want] * 8 and len(an.table) == size


def test_stages_after_dirac_iterate_ask_for_a_classified_result():
    an = analyzed_case(FIXTURES / "l3.sys", None)
    bare = dirac_iterate(an.fos)
    with pytest.raises(ChartError, match="classify"):
        build_chart(bare)
    with pytest.raises(ChartError, match="classify"):
        frobenius_check(bare)
    with pytest.raises(EmbeddingError, match="classify"):
        select_embedding(bare, False)
    assert build_chart(classify(bare)).n == an.fos.phase.n


def records_in(*roots):
    """Every record reachable from `roots` through record fields, lists,
    tuples and mappings (keys and values), each once."""
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, _Record):
            if id(x) not in seen:
                seen[id(x)] = x
                stack.extend(getattr(x, k) for k in x.__slots__)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, (dict, MappingProxyType)):
            stack.extend((*x.keys(), *x.values()))
    return list(seen.values())


def containers_in(value):
    """`value` and every value nested in it through tuples and mappings."""
    yield value
    if isinstance(value, tuple):
        for v in value:
            yield from containers_in(v)
    elif isinstance(value, MappingProxyType):
        for kv in value.items():
            yield from containers_in(kv)


def record_classes(cls=_Record):
    return {c for sub in cls.__subclasses__() for c in (sub, *record_classes(sub))}


def test_every_record_reachable_from_a_run_is_frozen():
    # the records of a report on each stage case and of one simulate run; the
    # three record classes no run returns are built here, so every class is met.
    # No field holds a list or a dict, at any depth of tuples and mappings, so
    # none can be changed in place; Trajectory's array('d') columns are the
    # exception, mutable buffers on purpose (the integrator's memory layout)
    reports = [run_pipeline(load_system_file(p), PipelineOptions(path=o), stage="report") for p, o in STAGE_CASES]
    an = run_pipeline(load_system_file(FIXTURES / "l2.sys"), PipelineOptions(), stage="simulate")
    pairs = [(q.symbol, p.symbol) for q, p in an.chart.pairs("Q")]
    field = compile_field(reduced_hamiltonian(an), pairs)
    sol = solve_iota(field, {"Q1": (1.0, 0.5)}, 0.0, 1.0, step=1e-2)
    built = [ExprMatrix(0, 0, []), LinearSolution([], []), _Variational([], None, None, 0)]
    records = records_in(*reports, field, sol, sol.trajectory, *built)
    for record in records:
        for name in record.__slots__:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
            assert not any(isinstance(v, (list, dict)) for v in containers_in(value)), (record, name)
    assert {type(r) for r in records} == record_classes() and SymbolTable not in record_classes()
    for an in reports:
        want = report_json(build_report(an))
        with pytest.raises(AttributeError):
            an.plan.preconditions.append("x")
        with pytest.raises(AttributeError):
            an.chart.notes.append("y")
        with pytest.raises(TypeError):
            an.plan.fixed["x"] = 0
        assert report_json(build_report(an)) == want


@pytest.mark.parametrize("path,order2_path", STAGE_CASES, ids=[f"{p.stem}-{o}" for p, o in STAGE_CASES])
def test_chart_and_embedding_stages_return_new_analyses(path, order2_path):
    # each stage returns a new Analysis and leaves the one it is given, and
    # every record and container in it, as it was: only the symbol table grows
    an = analyzed_case(path, order2_path)
    before = snapshot(an)
    charted = attach_chart(an)
    mid = snapshot(charted)
    done = attach_embedding(charted)
    assert snapshot(an) == before and snapshot(charted) == mid
    assert an.chart is None and charted.chart is not None and charted.plan is None
    assert done.chart is charted.chart and done.plan is not None and done.table is an.table
    fresh = run_pipeline(load_system_file(path), PipelineOptions(path=order2_path), stage="report")
    assert report_json(build_report(done)) == report_json(build_report(fresh))
