"""The records' contracts: frozen where they were, pickled whole, and
refusing the values they refused."""

import pickle

import numpy as np
import pytest

from reconf.casegen import FixtureSpec, day_problem
from reconf.dcflow import Violation, solve_flows
from reconf.forests import _radial_forests
from reconf.lp import BasisSnapshot, LinearProgram, LpOutcome
from reconf.model import Finding, validate
from reconf.optimize import (
    DaySolution,
    DayProblem,
    ModelOptions,
    SolverOptions,
    apply_epsilon_loads,
    build_hour_model,
    solve_hour,
)


@pytest.fixture(scope="module")
def records():
    """One instance of every record, keyed by its class name; most come
    from solving hour 8 of case 1."""
    problem = day_problem(FixtureSpec(case_id=1))
    net = problem.net
    model = build_hour_model(net, apply_epsilon_loads(problem.loads[7]),
                             problem.prices[7])
    forests = _radial_forests(net)
    hour = solve_hour(model, forests=forests)
    closed = {l.id for l in net.nonflexible_lines} | hour.closed_flexible()
    lp = LinearProgram()
    lp.add_row("<=", 1.0, [(lp.add_variable(1.0), 1.0)])
    found = [
        net.buses[0], net.lines[0], net, Finding("code", "message", "entity"),
        validate(net), Violation("L(1,2)", 2.0, 1.0),
        solve_flows(net, closed, model.loads), forests, ModelOptions(),
        SolverOptions(gap=1e-4, max_nodes=10), problem, hour.stats, hour,
        DaySolution.from_hours([hour]), model, lp,
        LpOutcome("optimal", 0.0, np.zeros(1)),
        BasisSnapshot(np.array([1]), np.array([0, 3]), np.array([1.0])),
        FixtureSpec(case_id=2, seed=3),
    ]
    return {type(r).__name__: r for r in found}


# the records that were mutable dataclasses; every other one was frozen
MUTABLE = ("ValidationReport", "LinearProgram")
NAMES = ("Bus", "Line", "Network", "Finding", "ValidationReport", "Violation",
         "FlowSolution", "_Forests", "ModelOptions", "SolverOptions",
         "DayProblem", "SolveStats", "HourSolution", "DaySolution",
         "HourModel", "LinearProgram", "LpOutcome", "BasisSnapshot",
         "FixtureSpec")


def same(a, b) -> bool:
    """Equal values, comparing arrays elementwise wherever they sit."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "_fields"):
        return type(a) is type(b) and all(
            same(getattr(a, f), getattr(b, f)) for f in a._fields)
    if hasattr(a, "__dict__"):
        return type(a) is type(b) and same(vars(a), vars(b))
    return a == b


def has_array(value) -> bool:
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    elif hasattr(value, "_fields"):
        value = [getattr(value, f) for f in value._fields]
    return isinstance(value, (tuple, list)) and any(map(has_array, value))


def test_every_record_is_covered(records):
    assert sorted(records) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_record_keeps_its_contract(records, name):
    record = records[name]
    assert record  # as `if sol.stats` needs
    first = record._fields[0]
    value = getattr(record, first)
    assert repr(record).startswith(f"{name}({first}=")
    if name in MUTABLE:
        setattr(record, first, value)
        assert getattr(record, first) is value
        with pytest.raises(TypeError):
            hash(record)
    else:
        with pytest.raises(AttributeError):
            setattr(record, first, value)
        with pytest.raises(AttributeError):
            delattr(record, first)
        with pytest.raises(AttributeError):
            record.extra = 1
    copy = pickle.loads(pickle.dumps(record))
    assert same(copy, record)
    if not has_array(record):
        assert copy == record
        if name not in MUTABLE:
            assert hash(copy) == hash(record)


@pytest.mark.parametrize("build", [
    lambda p: ModelOptions(angle_lo=0.6, angle_hi=0.6),
    lambda p: ModelOptions(angle_lo=-np.inf),
    lambda p: ModelOptions(angle_hi=np.nan),
    lambda p: ModelOptions(epsilon=0.0),
    lambda p: ModelOptions(epsilon=np.inf),
    lambda p: SolverOptions(gap=0.0),
    lambda p: SolverOptions(gap=np.inf),
    lambda p: SolverOptions(max_nodes=0),
    lambda p: DayProblem(p.net, p.loads[0], p.prices[0]),
    lambda p: DayProblem(p.net, p.loads[:, 1:], p.prices),
    lambda p: DayProblem(p.net, p.loads, p.prices[:, 1:]),
    lambda p: DayProblem(p.net, p.loads[:0], p.prices[:0]),
    lambda p: DayProblem(p.net, -p.loads, p.prices),
    lambda p: DayProblem(p.net, p.loads, p.prices * np.nan),
    lambda p: FixtureSpec(case_id=5),
    lambda p: FixtureSpec(case_id=1, feeder_size=3),
    lambda p: FixtureSpec(case_id=1, reactance_range=(0.1, 0.01)),
    lambda p: FixtureSpec(case_id=1, load_range=(0.0, 0.06)),
    lambda p: FixtureSpec(case_id=1, rating_scale=np.inf),
])
def test_checked_record_refuses_its_bad_values(records, build):
    with pytest.raises(ValueError):
        build(records["DayProblem"])
