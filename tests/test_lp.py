import numpy as np
import pytest

from oracle_lp import enumerate_optimum, random_program
from reconf.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpFormatError,
    LpOutcome,
    PreparedLp,
    solve_lp,
)


def _lp(c, lo, hi, rows=(), senses=(), rhs=()):
    prog = LinearProgram()
    for cost, l, h in zip(c, lo, hi):
        prog.add_variable(cost, l, h)
    for row, sense, b in zip(rows, senses, rhs):
        prog.add_row(sense, b, row)
    return prog


class TestBasics:
    def test_bounds_only(self):
        out = solve_lp(_lp([1.0], [1.0], [3.0]))
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(1.0)
        assert out.values[0] == pytest.approx(1.0)

    def test_maximize_via_negation(self):
        out = solve_lp(_lp([-1.0], [1.0], [3.0]))
        assert out.values[0] == pytest.approx(3.0)

    def test_classic_two_var(self):
        # min -2x - y subject to x + y <= 1, x, y >= 0: optimum -2 at (1, 0)
        prog = _lp([-2.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, 1.0)]], senses=["<="], rhs=[1.0])
        out = solve_lp(prog)
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(-2.0)
        assert out.values == pytest.approx([1.0, 0.0])

    def test_equality_row(self):
        prog = _lp([1.0, 2.0], [0.0, 0.0], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, 1.0)]], senses=["="], rhs=[4.0])
        out = solve_lp(prog)
        assert out.objective == pytest.approx(4.0)
        assert out.values == pytest.approx([4.0, 0.0])

    def test_ge_row(self):
        prog = _lp([3.0], [0.0], [np.inf], rows=[[(0, 1.0)]], senses=[">="], rhs=[2.0])
        out = solve_lp(prog)
        assert out.objective == pytest.approx(6.0)

    def test_free_variable(self):
        prog = _lp([1.0], [-np.inf], [np.inf], rows=[[(0, 1.0)]], senses=[">="], rhs=[-5.0])
        out = solve_lp(prog)
        assert out.objective == pytest.approx(-5.0)

    def test_negative_lower_bounds(self):
        prog = _lp([1.0, 1.0], [-4.0, -2.0], [4.0, 2.0],
                   rows=[[(0, 1.0), (1, -1.0)]], senses=["="], rhs=[0.0])
        out = solve_lp(prog)
        assert out.objective == pytest.approx(-4.0)
        assert out.values == pytest.approx([-2.0, -2.0])

    def test_fixed_variable(self):
        prog = _lp([5.0, 1.0], [2.0, 0.0], [2.0, np.inf],
                   rows=[[(0, 1.0), (1, 1.0)]], senses=[">="], rhs=[3.0])
        out = solve_lp(prog)
        assert out.values == pytest.approx([2.0, 1.0])

    def test_infeasible_rows(self):
        prog = _lp([1.0], [0.0], [np.inf],
                   rows=[[(0, 1.0)], [(0, 1.0)]], senses=["<=", ">="], rhs=[1.0, 2.0])
        assert solve_lp(prog).status == INFEASIBLE

    def test_infeasible_bounds_vs_row(self):
        prog = _lp([0.0], [0.0], [1.0], rows=[[(0, 1.0)]], senses=[">="], rhs=[5.0])
        assert solve_lp(prog).status == INFEASIBLE

    def test_crossed_bounds_infeasible(self):
        assert solve_lp(_lp([1.0], [2.0], [1.0])).status == INFEASIBLE

    def test_unbounded_below(self):
        assert solve_lp(_lp([-1.0], [0.0], [np.inf])).status == UNBOUNDED

    def test_unbounded_free_pair(self):
        # x - y may run to -inf along the row's null direction
        prog = _lp([1.0, 0.0], [-np.inf, -np.inf], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, -1.0)]], senses=["<="], rhs=[3.0])
        assert solve_lp(prog).status == UNBOUNDED

    def test_bounded_by_rows_not_bounds(self):
        prog = _lp([-1.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, 2.0)], [(0, 2.0), (1, 1.0)]],
                   senses=["<=", "<="], rhs=[4.0, 4.0])
        out = solve_lp(prog)
        assert out.objective == pytest.approx(-8.0 / 3.0)

    def test_no_rows_zero_cost(self):
        out = solve_lp(_lp([0.0, 0.0], [1.0, -np.inf], [2.0, np.inf]))
        assert out.status == OPTIMAL
        assert out.objective == 0.0

    def test_bounds_override(self):
        prog = _lp([1.0], [0.0], [10.0])
        assert solve_lp(prog).objective == pytest.approx(0.0)
        assert solve_lp(prog, bounds={0: (4.0, 4.0)}).objective == pytest.approx(4.0)
        # the override must not stick
        assert solve_lp(prog).objective == pytest.approx(0.0)


class TestMalformed:
    def test_unknown_column(self):
        prog = _lp([1.0], [0.0], [1.0])
        prog.rows.append([(3, 1.0)])
        prog.senses.append("<=")
        prog.rhs.append(1.0)
        with pytest.raises(LpFormatError, match="unknown column"):
            solve_lp(prog)

    def test_bad_sense(self):
        with pytest.raises(LpFormatError, match="sense"):
            _lp([1.0], [0.0], [1.0]).add_row("<", 1.0, [(0, 1.0)])

    def test_nan_bound(self):
        with pytest.raises(LpFormatError, match="NaN"):
            solve_lp(_lp([1.0], [np.nan], [1.0]))

    def test_infinite_rhs(self):
        prog = _lp([1.0], [0.0], [1.0], rows=[[(0, 1.0)]], senses=["<="], rhs=[np.inf])
        with pytest.raises(LpFormatError, match="finite"):
            solve_lp(prog)

    def test_mismatched_metadata(self):
        prog = _lp([1.0], [0.0], [1.0])
        prog.senses.append("<=")
        with pytest.raises(LpFormatError, match="lengths"):
            solve_lp(prog)


class TestDegenerate:
    def test_cycling_prone_program_terminates(self):
        # Beale's classic degenerate construction
        prog = _lp(
            [-0.75, 150.0, -0.02, 6.0],
            [0.0] * 4,
            [np.inf] * 4,
            rows=[
                [(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)],
                [(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)],
                [(2, 1.0)],
            ],
            senses=["<=", "<=", "<="],
            rhs=[0.0, 0.0, 1.0],
        )
        out = solve_lp(prog)
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(-0.05)

    def test_duplicate_columns_accumulate(self):
        prog = _lp([1.0], [0.0], [np.inf],
                   rows=[[(0, 1.0), (0, 1.0)]], senses=[">="], rhs=[4.0])
        assert solve_lp(prog).objective == pytest.approx(2.0)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(3)
        c, rows, senses, rhs, lo, hi = random_program(rng)
        prog = _lp(c, lo, hi, rows, senses, rhs)
        first = solve_lp(prog)
        second = solve_lp(prog)
        assert first.status == second.status
        if first.status == OPTIMAL:
            assert first.objective == second.objective
            assert np.array_equal(first.values, second.values)


class TestOracleAgreement:
    def test_random_programs_match_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        optima = 0
        infeasible = 0
        for _ in range(200):
            c, rows, senses, rhs, lo, hi = random_program(rng)
            prog = _lp(c, lo, hi, rows, senses, rhs)
            out = solve_lp(prog)
            status, best = enumerate_optimum(c, rows, senses, rhs, lo, hi)
            assert out.status == status
            if status == "optimal":
                optima += 1
                assert out.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
                assert np.all(out.values >= lo - 1e-7)
                assert np.all(out.values <= hi + 1e-7)
            else:
                infeasible += 1
        assert optima > 50 and infeasible > 10  # both classes exercised


class TestWarmStart:
    @staticmethod
    def _revise(rng, lo, hi):
        """New integer bounds inside the old ones on a random set of columns."""
        bounds = {}
        for j in rng.choice(len(lo), size=int(rng.integers(1, len(lo) + 1)),
                            replace=False):
            a, b = sorted(rng.integers(lo[j], hi[j] + 1, size=2).tolist())
            bounds[int(j)] = (float(a), float(b))
        return bounds

    def test_warm_solves_match_cold_solves(self):
        # the warm route is driven directly: PreparedLp.solve would fall
        # back to a cold solve and hide a fault in the dual repair
        rng = np.random.default_rng(5)
        optima = infeasible = 0
        for _ in range(100):
            c, rows, senses, rhs, lo, hi = random_program(rng)
            prog = _lp(c, lo, hi, rows, senses, rhs)
            prepared = PreparedLp(prog)
            first, snap = prepared.solve()
            assert first.status == solve_lp(prog).status
            if snap is None:
                continue
            for _ in range(4):
                bounds = self._revise(rng, lo, hi)
                expected = solve_lp(prog, bounds=bounds)
                # the second solve reuses the first one's factorization
                outs = [prepared._warm_solve(*prepared._apply(bounds), snap)[0]
                        for _ in range(2)]
                for out in outs:
                    assert out.status == expected.status
                if expected.status == OPTIMAL:
                    optima += 1
                    assert outs[0].objective == pytest.approx(
                        expected.objective, rel=1e-7, abs=1e-7)
                    assert outs[1].objective == outs[0].objective
                else:
                    infeasible += 1
            assert list(prepared._factor_cache) == [snap.basis.tobytes()]
        assert optima > 50 and infeasible > 20  # both classes exercised


def test_outcome_is_plain_data():
    out = LpOutcome(INFEASIBLE)
    assert out.objective is None and out.values is None
