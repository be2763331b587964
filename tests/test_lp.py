import numpy as np
import pytest

from oracle_lp import random_program
from reconf.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpFormatError,
    LpNumericalError,
    LpOutcome,
    PreparedLp,
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
        out = PreparedLp(_lp([1.0], [1.0], [3.0])).solve()[0]
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(1.0)
        assert out.values[0] == pytest.approx(1.0)

    def test_maximize_via_negation(self):
        out = PreparedLp(_lp([-1.0], [1.0], [3.0])).solve()[0]
        assert out.values[0] == pytest.approx(3.0)

    def test_classic_two_var(self):
        # min -2x - y subject to x + y <= 1, x, y >= 0: optimum -2 at (1, 0)
        prog = _lp([-2.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, 1.0)]], senses=["<="], rhs=[1.0])
        out = PreparedLp(prog).solve()[0]
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(-2.0)
        assert out.values == pytest.approx([1.0, 0.0])

    def test_equality_row(self):
        prog = _lp([1.0, 2.0], [0.0, 0.0], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, 1.0)]], senses=["="], rhs=[4.0])
        out = PreparedLp(prog).solve()[0]
        assert out.objective == pytest.approx(4.0)
        assert out.values == pytest.approx([4.0, 0.0])

    def test_ge_row(self):
        prog = _lp([3.0], [0.0], [np.inf], rows=[[(0, 1.0)]], senses=[">="], rhs=[2.0])
        out = PreparedLp(prog).solve()[0]
        assert out.objective == pytest.approx(6.0)

    def test_free_variable(self):
        prog = _lp([1.0], [-np.inf], [np.inf], rows=[[(0, 1.0)]], senses=[">="], rhs=[-5.0])
        out = PreparedLp(prog).solve()[0]
        assert out.objective == pytest.approx(-5.0)

    def test_negative_lower_bounds(self):
        prog = _lp([1.0, 1.0], [-4.0, -2.0], [4.0, 2.0],
                   rows=[[(0, 1.0), (1, -1.0)]], senses=["="], rhs=[0.0])
        out = PreparedLp(prog).solve()[0]
        assert out.objective == pytest.approx(-4.0)
        assert out.values == pytest.approx([-2.0, -2.0])

    def test_fixed_variable(self):
        prog = _lp([5.0, 1.0], [2.0, 0.0], [2.0, np.inf],
                   rows=[[(0, 1.0), (1, 1.0)]], senses=[">="], rhs=[3.0])
        out = PreparedLp(prog).solve()[0]
        assert out.values == pytest.approx([2.0, 1.0])

    def test_infeasible_rows(self):
        prog = _lp([1.0], [0.0], [np.inf],
                   rows=[[(0, 1.0)], [(0, 1.0)]], senses=["<=", ">="], rhs=[1.0, 2.0])
        assert PreparedLp(prog).solve()[0].status == INFEASIBLE

    def test_infeasible_bounds_vs_row(self):
        prog = _lp([0.0], [0.0], [1.0], rows=[[(0, 1.0)]], senses=[">="], rhs=[5.0])
        assert PreparedLp(prog).solve()[0].status == INFEASIBLE

    def test_crossed_bounds_infeasible(self):
        assert PreparedLp(_lp([1.0], [2.0], [1.0])).solve()[0].status == INFEASIBLE

    def test_unbounded_below(self):
        assert PreparedLp(_lp([-1.0], [0.0], [np.inf])).solve()[0].status == UNBOUNDED

    def test_unbounded_free_pair(self):
        # x - y may run to -inf along the row's null direction
        prog = _lp([1.0, 0.0], [-np.inf, -np.inf], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, -1.0)]], senses=["<="], rhs=[3.0])
        assert PreparedLp(prog).solve()[0].status == UNBOUNDED

    def test_bounded_by_rows_not_bounds(self):
        prog = _lp([-1.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                   rows=[[(0, 1.0), (1, 2.0)], [(0, 2.0), (1, 1.0)]],
                   senses=["<=", "<="], rhs=[4.0, 4.0])
        out = PreparedLp(prog).solve()[0]
        assert out.objective == pytest.approx(-8.0 / 3.0)

    def test_no_rows_zero_cost(self):
        out = PreparedLp(_lp([0.0, 0.0], [1.0, -np.inf], [2.0, np.inf])).solve()[0]
        assert out.status == OPTIMAL
        assert out.objective == 0.0

    def test_bounds_override(self):
        prepared = PreparedLp(_lp([1.0], [0.0], [10.0]))
        assert prepared.solve()[0].objective == pytest.approx(0.0)
        assert prepared.solve({0: (4.0, 4.0)})[0].objective == pytest.approx(4.0)
        # the override must not stick
        assert prepared.solve()[0].objective == pytest.approx(0.0)


class TestMalformed:
    def test_unknown_column(self):
        prog = _lp([1.0], [0.0], [1.0])
        prog.rows.append([(3, 1.0)])
        prog.senses.append("<=")
        prog.rhs.append(1.0)
        with pytest.raises(LpFormatError, match="unknown column"):
            PreparedLp(prog).solve()

    def test_bad_sense(self):
        with pytest.raises(LpFormatError, match="sense"):
            _lp([1.0], [0.0], [1.0]).add_row("<", 1.0, [(0, 1.0)])

    def test_nan_bound(self):
        with pytest.raises(LpFormatError, match="NaN"):
            PreparedLp(_lp([1.0], [np.nan], [1.0])).solve()

    @pytest.mark.parametrize("warm", [False, True])
    def test_nan_bound_override(self, warm):
        # min x0 - x1 subject to x0 + x1 <= 4, on the cold and warm routes
        prepared = PreparedLp(_lp([1.0, -1.0], [0.0, 0.0], [np.inf, np.inf],
                                  rows=[[(0, 1.0), (1, 1.0)]], senses=["<="], rhs=[4.0]))
        snap = prepared.solve()[1] if warm else None
        assert (snap is not None) == warm
        with pytest.raises(LpFormatError, match="NaN"):
            prepared.solve({1: (np.nan, 3.0)}, snap)

    def test_infinite_rhs(self):
        prog = _lp([1.0], [0.0], [1.0], rows=[[(0, 1.0)]], senses=["<="], rhs=[np.inf])
        with pytest.raises(LpFormatError, match="finite"):
            PreparedLp(prog).solve()

    def test_mismatched_metadata(self):
        prog = _lp([1.0], [0.0], [1.0])
        prog.senses.append("<=")
        with pytest.raises(LpFormatError, match="lengths"):
            PreparedLp(prog).solve()


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
        out = PreparedLp(prog).solve()[0]
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(-0.05)

    def test_duplicate_columns_accumulate(self):
        prog = _lp([1.0], [0.0], [np.inf],
                   rows=[[(0, 1.0), (0, 1.0)]], senses=[">="], rhs=[4.0])
        assert PreparedLp(prog).solve()[0].objective == pytest.approx(2.0)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(3)
        c, rows, senses, rhs, lo, hi = random_program(rng)
        prog = _lp(c, lo, hi, rows, senses, rhs)
        first = PreparedLp(prog).solve()[0]
        second = PreparedLp(prog).solve()[0]
        assert first.status == second.status
        if first.status == OPTIMAL:
            assert first.objective == second.objective
            assert np.array_equal(first.values, second.values)


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
            snap = prepared.solve()[1]
            if snap is None:
                continue
            for _ in range(4):
                bounds = self._revise(rng, lo, hi)
                expected = PreparedLp(prog).solve(bounds)[0]
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

    def test_non_optimal_warm_basis_falls_back_to_cold(self):
        # the optimal basis of min x0 + 2 x1 is feasible but not optimal
        # for the negated objective over the same rows and bounds
        rows, senses, rhs = [[(0, 1.0), (1, 1.0)]], [">="], [3.0]
        lo, hi = [0.0, 0.0], [4.0, 5.0]
        snap = PreparedLp(_lp([1.0, 2.0], lo, hi, rows, senses, rhs)).solve()[1]
        negated = PreparedLp(_lp([-1.0, -2.0], lo, hi, rows, senses, rhs))
        with pytest.raises(LpNumericalError, match="not optimal"):
            negated._warm_solve(*negated._apply(None), snap)
        out = negated.solve(None, snap)[0]
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(-14.0)
        assert out.values == pytest.approx([4.0, 5.0])


def test_outcome_is_plain_data():
    out = LpOutcome(INFEASIBLE)
    assert out.objective is None and out.values is None
