"""Linear programming: bounded-variable simplex on a dense tableau.

Minimizes c.x subject to sparse constraint rows (<=, >=, =) and
per-variable bounds, either of which may be infinite. PreparedLp, the
one entry point, prepares a program once and solves it under bounds
overrides by one of two routes, auditing every optimal outcome:

- cold, two-phase: rows whose slack cannot absorb the initial residual
  get an artificial variable, phase 1 drives the artificials to zero,
  phase 2 optimizes the real objective. Dantzig pricing switches to
  Bland's rule after a stall; ties go to the lowest index, so repeated
  solves are bit-identical;
- warm: an earlier optimal basis is refactored under the new bounds and
  dual-simplex pivots restore primal feasibility. The basis stays dual
  feasible, so it ends optimal; if a column could still improve, or
  the repair fails numerically, the solve goes cold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .model import _Record

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_LE, _GE, _EQ = 0, 1, 2
_SENSE_CODE = {"<=": _LE, ">=": _GE, "=": _EQ}

_AT_LO, _AT_UP, _FREE, _BASIC = 0, 1, 2, 3

# Rows and bounds hold to _TOL_FEAS (relative, see _audited_outcome),
# reduced costs within _TOL_OPT of zero are optimal, entries at or below
# _PIVOT_FLOOR are never pivoted on, and pricing turns to Bland's rule
# after _STALL_LIMIT moves that do not lower the objective.
_TOL_FEAS = 1e-7
_TOL_OPT = 1e-9
_PIVOT_FLOOR = 1e-10
_STALL_LIMIT = 100


class LpFormatError(ValueError):
    """Raised for malformed programs: bad dimensions, senses or values."""


class LpIterationError(RuntimeError):
    """Raised when the simplex exceeds its iteration budget."""


class LpNumericalError(RuntimeError):
    """Raised when the final solution fails the feasibility audit."""


class LinearProgram(_Record):
    """A minimization program built incrementally.

    rows hold sparse (column, coefficient) pairs; senses are "<=", ">=" or
    "="; bounds may be +-inf. Duplicate columns within a row accumulate.
    Each field is a list, empty unless given.
    """

    __slots__ = _fields = ("objective", "lower", "upper", "rows", "senses", "rhs")

    def __init__(self, objective: list[float] | None = None,
                 lower: list[float] | None = None,
                 upper: list[float] | None = None,
                 rows: list[list[tuple[int, float]]] | None = None,
                 senses: list[str] | None = None, rhs: list[float] | None = None):
        super().__init__(*([] if v is None else v for v in
                           (objective, lower, upper, rows, senses, rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, cost: float = 0.0, lower: float = 0.0, upper: float = np.inf) -> int:
        self.objective.append(float(cost))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.objective) - 1

    def add_row(self, sense: str, rhs: float, coeffs: list[tuple[int, float]]) -> int:
        if sense not in _SENSE_CODE:
            raise LpFormatError(f"unknown row sense {sense!r}")
        self.rows.append([(int(c), float(v)) for c, v in coeffs])
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        return len(self.rows) - 1


class LpOutcome(NamedTuple):
    status: str
    objective: float | None = None
    values: np.ndarray | None = None


def _build_arrays(lp: LinearProgram):
    n, m = lp.num_vars, lp.num_rows
    if not (len(lp.lower) == len(lp.upper) == n):
        raise LpFormatError("bounds length does not match objective length")
    if not (len(lp.senses) == len(lp.rhs) == m):
        raise LpFormatError("row metadata lengths do not match row count")
    c = np.asarray(lp.objective, dtype=float)
    lo = np.asarray(lp.lower, dtype=float)
    hi = np.asarray(lp.upper, dtype=float)
    if not np.all(np.isfinite(c)):
        raise LpFormatError("objective coefficients must be finite")
    a = np.zeros((m, n))
    for i, row in enumerate(lp.rows):
        for col, coef in row:
            if not 0 <= col < n:
                raise LpFormatError(f"row {i} references unknown column {col}")
            if not np.isfinite(coef):
                raise LpFormatError(f"row {i} has a non-finite coefficient")
            a[i, col] += coef
    b = np.asarray(lp.rhs, dtype=float)
    if not np.all(np.isfinite(b)):
        raise LpFormatError("right-hand sides must be finite")
    senses = np.array([_SENSE_CODE[s] for s in lp.senses], dtype=int)
    if m:
        # equilibrate: rows mixing unit and large coefficients (status-gated
        # ratings) would otherwise burn absolute precision in the dense tableau
        row_max = np.max(np.abs(a), axis=1, initial=0.0)
        scale = np.where(row_max > 0.0, 1.0 / np.where(row_max > 0.0, row_max, 1.0), 1.0)
        a *= scale[:, None]
        b = b * scale
    return c, a, senses, b, lo, hi


def _improving(z, status, span):
    """Nonbasic columns whose reduced cost z says a move lowers the
    objective: (incr, decr) masks for moves up from the lower bound and
    down from the upper bound."""
    movable = (span > 0) & (status != _BASIC)
    incr = movable & (status != _AT_UP) & (z < -_TOL_OPT)
    decr = movable & (status != _AT_LO) & (z > _TOL_OPT)
    return incr, decr


class _Tableau:
    """Mutable simplex state shared by both phases of a cold solve."""

    def __init__(self, a_full, basis, status, values, xb, lo, hi):
        self.T = a_full
        self.basis = basis
        self.status = status
        self.values = values
        self.xb = xb
        self.lo = lo
        self.hi = hi
        self.max_iters = 2000 + 60 * (a_full.shape[0] + a_full.shape[1])
        self.iterations = 0
        self._rank1 = np.empty_like(self.T)

    def objective_of(self, cost) -> float:
        total = float(cost[self.basis] @ self.xb) if len(self.basis) else 0.0
        nonbasic = self.status != _BASIC
        return total + float(cost[nonbasic] @ self.values[nonbasic])

    def run(self, cost) -> str:
        """Iterate to optimality for the given costs. Returns a status."""
        span = self.hi - self.lo
        m = len(self.basis)
        stall = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iters:
                raise LpIterationError(f"no convergence within {self.max_iters} pivots")
            z = cost - self.T.T @ cost[self.basis] if m else cost.copy()
            incr, decr = _improving(z, self.status, span)
            cand = incr | decr
            if not cand.any():
                return OPTIMAL
            if stall <= _STALL_LIMIT:
                score = np.where(cand, np.abs(z), -1.0)
                j = int(np.argmax(score))
            else:
                j = int(np.flatnonzero(cand)[0])  # Bland's rule
            d = 1.0 if incr[j] else -1.0
            w = self.T[:, j]
            dw = d * w
            ratios = np.full(m, np.inf)
            if m:
                lo_b = self.lo[self.basis]
                hi_b = self.hi[self.basis]
                pos = dw > _PIVOT_FLOOR
                neg = dw < -_PIVOT_FLOOR
                with np.errstate(invalid="ignore"):
                    ratios[pos] = (self.xb[pos] - lo_b[pos]) / dw[pos]
                    ratios[neg] = (self.xb[neg] - hi_b[neg]) / dw[neg]
                np.nan_to_num(ratios, copy=False, nan=np.inf, posinf=np.inf, neginf=np.inf)
                np.maximum(ratios, 0.0, out=ratios)
            rmin = float(ratios.min()) if m else np.inf
            t_flip = float(span[j])
            if not np.isfinite(min(rmin, t_flip)):
                return UNBOUNDED
            if t_flip <= rmin:
                # entering variable swings to its other bound, basis unchanged
                step = t_flip
                self.xb -= t_flip * dw
                if self.status[j] == _AT_LO:
                    self.status[j] = _AT_UP
                    self.values[j] = self.hi[j]
                else:
                    self.status[j] = _AT_LO
                    self.values[j] = self.lo[j]
            else:
                step = rmin
                limit = rmin + 1e-12 * (1.0 + rmin)
                candidates = np.flatnonzero(ratios <= limit)
                r = int(candidates[np.argmin(self.basis[candidates])])
                self._pivot(r, j, d, rmin, dw)
            # the move lowers the objective by |z_j| * step exactly
            if abs(float(z[j])) * step > 1e-12:
                stall = 0
            else:
                stall += 1

    def _pivot(self, r: int, j: int, d: float, t: float, dw) -> None:
        entering_value = self.values[j] + d * t
        leaving = self.basis[r]
        self.xb -= t * dw
        self.xb[r] = entering_value
        # leaving variable exits at the bound the ratio test hit
        if dw[r] > 0:
            self.status[leaving] = _AT_LO
            self.values[leaving] = self.lo[leaving]
        else:
            self.status[leaving] = _AT_UP
            self.values[leaving] = self.hi[leaving]
        self.basis[r] = j
        self.status[j] = _BASIC
        piv = self.T[r, j]
        row = self.T[r] / piv
        col = self.T[:, j].copy()
        np.multiply(col[:, None], row[None, :], out=self._rank1)
        self.T -= self._rank1
        self.T[r] = row

    def force_out_artificials(self, first_art: int) -> None:
        """Degenerate-pivot basic artificials out where a real column allows."""
        for r in range(len(self.basis)):
            if self.basis[r] < first_art:
                continue
            row = self.T[r, :first_art]
            eligible = np.flatnonzero(
                (np.abs(row) > 1e3 * _PIVOT_FLOOR) & (self.status[:first_art] != _BASIC)
            )
            if eligible.size:
                j = int(eligible[0])
                d = 1.0 if self.status[j] != _AT_UP else -1.0
                self._pivot(r, j, d, 0.0, d * self.T[:, j])


def _audited_outcome(prep: PreparedLp, lo, hi, values, basis, xb) -> LpOutcome:
    """Read the solution off an optimal basis of prep and audit it: every
    scaled row within a componentwise backward error of _TOL_FEAS, bounds
    and artificials within _TOL_FEAS * (1 + max|b|)."""
    n, m, a, b = prep.n, prep.m, prep.a, prep.b
    x_full = values.copy()
    x_full[basis] = xb
    x = x_full[:n]
    n_cols = n + m
    if np.any(np.abs(x_full[n_cols:]) > _TOL_FEAS * prep.b_scale):
        raise LpNumericalError("artificial variable left nonzero")
    if m:
        row_resid = np.abs(a @ x + x_full[n:n_cols] - b)
        row_gain = np.abs(a) @ np.abs(x) + np.abs(x_full[n:n_cols])
        if np.any(row_resid > _TOL_FEAS * (1.0 + np.abs(b) + row_gain)):
            raise LpNumericalError("solution failed the row feasibility audit")
    bound_slack = _TOL_FEAS * prep.b_scale
    finite_lo = np.isfinite(lo)
    finite_hi = np.isfinite(hi)
    if np.any(x[finite_lo] < lo[finite_lo] - bound_slack) or np.any(
        x[finite_hi] > hi[finite_hi] + bound_slack
    ):
        raise LpNumericalError("solution failed the bounds audit")
    return LpOutcome(OPTIMAL, float(prep.c @ x), x)


class BasisSnapshot(NamedTuple):
    """A solved vertex of one program: enough to warm-start a revision.

    basis holds the basic column indices over [variables | slacks];
    status the nonbasic/basic marker per column; reduced the variables'
    reduced costs, usable as unit rates for bound-tightening arguments.
    """

    basis: np.ndarray
    status: np.ndarray
    reduced: np.ndarray

    def bound_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit objective rates for moving a variable off its resting bound.

        Returns (up, down): raising a variable resting at its lower bound
        by one unit costs at least up[j]; lowering one resting at its
        upper bound costs at least down[j]. Zero for basic or free
        columns, where the solve grants no such guarantee.
        """
        n = len(self.reduced)
        at_lo = self.status[:n] == _AT_LO
        at_up = self.status[:n] == _AT_UP
        up = np.where(at_lo, np.maximum(self.reduced, 0.0), 0.0)
        down = np.where(at_up, np.maximum(-self.reduced, 0.0), 0.0)
        return up, down


def _row_impossible(row, status, values, lo_full, hi_full, current,
                    target_lo, target_hi, b_scale) -> bool:
    """Certify that no nonbasic movement can bring row r's value in range.

    Entries at or below the pivot floor are treated as exact zeros, the
    same reading the pivot eligibility test gives them; otherwise
    round-off dust times an infinite bound span would block every
    certificate.
    """
    tol = _TOL_FEAS * b_scale
    nb = status != _BASIC
    rj = row[nb]
    rj = np.where(np.abs(rj) <= _PIVOT_FLOOR, 0.0, rj)
    dlo = lo_full[nb] - values[nb]
    dhi = hi_full[nb] - values[nb]
    with np.errstate(invalid="ignore"):
        gain = np.maximum(-rj * dlo, -rj * dhi)  # per-column max increase
        drop = np.maximum(rj * dlo, rj * dhi)    # per-column max decrease
    gain = np.nan_to_num(gain, nan=0.0, posinf=np.inf, neginf=0.0)
    drop = np.nan_to_num(drop, nan=0.0, posinf=np.inf, neginf=0.0)
    if current < target_lo:
        return current + float(np.maximum(gain, 0.0).sum()) < target_lo - tol
    return current - float(np.maximum(drop, 0.0).sum()) > target_hi + tol


def _dual_repair(T, basis, status, values, xb, lo_full, hi_full, z,
                 b_scale) -> str:
    """Dual-simplex pivots until every basic value sits inside its bounds.

    Starts from a dual-feasible basis (reduced costs z consistent with
    the nonbasic statuses) whose basic values may violate bounds after a
    bounds revision; b_scale is 1 + max|b| of the program. Mutates all
    state in place. Returns OPTIMAL when primal feasibility is restored,
    INFEASIBLE on a certified impossible row; raises LpIterationError or
    LpNumericalError when the caller should fall back to a cold solve.
    """
    feas_tol = _TOL_FEAS * b_scale
    max_pivots = 50 + len(basis)
    span = hi_full - lo_full
    rank1 = np.empty_like(T)
    pivots = 0
    while True:
        lo_b = lo_full[basis]
        hi_b = hi_full[basis]
        below = lo_b - xb
        above = xb - hi_b
        worst = np.maximum(below, above)
        r = int(np.argmax(worst))
        if worst[r] <= feas_tol:
            return OPTIMAL
        pivots += 1
        if pivots > max_pivots:
            raise LpIterationError("dual repair exceeded its pivot budget")
        is_below = below[r] >= above[r]
        row = T[r].copy()
        movable = (status != _BASIC) & (span > 0)
        free = movable & (status == _FREE)
        if is_below:
            can = ((movable & (status == _AT_LO) & (row < -_PIVOT_FLOOR))
                   | (movable & (status == _AT_UP) & (row > _PIVOT_FLOOR))
                   | (free & (np.abs(row) > _PIVOT_FLOOR)))
        else:
            can = ((movable & (status == _AT_LO) & (row > _PIVOT_FLOOR))
                   | (movable & (status == _AT_UP) & (row < -_PIVOT_FLOOR))
                   | (free & (np.abs(row) > _PIVOT_FLOOR)))
        idx = np.flatnonzero(can)
        if idx.size == 0:
            if _row_impossible(row, status, values, lo_full, hi_full,
                               float(xb[r]), float(lo_b[r]), float(hi_b[r]),
                               b_scale):
                return INFEASIBLE
            raise LpNumericalError("dual repair stalled without a certificate")
        ratios = np.abs(z[idx]) / np.abs(row[idx])
        j = int(idx[np.argmin(ratios)])
        target = float(lo_b[r]) if is_below else float(hi_b[r])
        piv = float(row[j])
        delta = (float(xb[r]) - target) / piv
        theta = float(z[j]) / piv
        leaving = int(basis[r])
        col = T[:, j].copy()
        xb -= delta * col
        xb[r] = values[j] + delta
        values[leaving] = target
        status[leaving] = _AT_LO if is_below else _AT_UP
        basis[r] = j
        status[j] = _BASIC
        z -= theta * row
        z[j] = 0.0
        rowp = row / piv
        np.multiply(col[:, None], rowp[None, :], out=rank1)
        T -= rank1
        T[r] = rowp


class PreparedLp:
    """One program's arrays prepared once for many bound revisions.

    solve() takes optional bounds overrides {column: (lo, hi)} and an
    optional BasisSnapshot from an earlier optimal solve of the same
    program. It returns an LpOutcome whose status is "optimal",
    "infeasible" or "unbounded", together with the new vertex's snapshot
    (None unless optimal). Rows are max-norm equilibrated internally.
    The snapshot seeds a dual-simplex repair that typically finishes in a
    few pivots; numerical trouble on the warm route falls back to the
    cold two-phase route, so results never depend on warm-start health.
    Deterministic: identical inputs give identical outputs.
    """

    def __init__(self, lp: LinearProgram):
        self.c, self.a, self.senses, self.b, self.lo0, self.hi0 = \
            _build_arrays(lp)
        self.m, self.n = self.a.shape
        m = self.m
        self.slack_lo = np.where(self.senses == _LE, 0.0,
                                 np.where(self.senses == _GE, -np.inf, 0.0))
        self.slack_hi = np.where(self.senses == _LE, np.inf,
                                 np.where(self.senses == _GE, 0.0, 0.0))
        self.a_full = np.hstack([self.a, np.eye(m)]) if m else \
            np.zeros((0, self.n))
        self.c_full = np.concatenate([self.c, np.zeros(m)])
        self.b_scale = 1.0 + (float(np.max(np.abs(self.b))) if m else 0.0)
        # refactorizations keyed by basis: siblings in a search tree warm
        # from the same parent vertex, so the inverse-basis image of the
        # program is reused instead of refactored per solve
        self._factor_cache: OrderedDict[bytes, tuple] = OrderedDict()

    def _apply(self, bounds):
        lo = self.lo0.copy()
        hi = self.hi0.copy()
        for col, (blo, bhi) in (bounds or {}).items():
            if not 0 <= col < self.n:
                raise LpFormatError(f"bounds override for unknown column {col}")
            lo[col] = blo
            hi[col] = bhi
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise LpFormatError("bounds must not be NaN")
        return lo, hi

    def solve(self, bounds=None,
              warm: BasisSnapshot | None = None) -> tuple[LpOutcome, BasisSnapshot | None]:
        lo, hi = self._apply(bounds)
        if np.any(lo > hi):
            return LpOutcome(INFEASIBLE), None
        if warm is not None and self.m:
            try:
                return self._warm_solve(lo, hi, warm)
            except (LpIterationError, LpNumericalError, np.linalg.LinAlgError):
                pass
        return self._cold_solve(lo, hi)

    def _snapshot(self, basis, status, z, art_rows) -> BasisSnapshot | None:
        """The snapshot of an optimal basis with reduced costs z, or None
        when a leftover artificial cannot be swapped for its row's slack."""
        n_cols = self.n + self.m
        basis = basis.copy()
        status = status[:n_cols].copy()
        for r in np.flatnonzero(basis >= n_cols):
            # a leftover artificial marks a redundant row; its column is
            # (up to sign) that row's slack, so swap the slack in
            i = art_rows[int(basis[r]) - n_cols]
            if status[self.n + i] == _BASIC:
                return None
            basis[r] = self.n + i
            status[self.n + i] = _BASIC
        return BasisSnapshot(basis=basis, status=status, reduced=z[:self.n].copy())

    def _cold_solve(self, lo, hi):
        """Two-phase simplex from every column at a finite bound (or free
        at zero); the snapshot is None unless the outcome is optimal."""
        m, n = self.m, self.n
        n_cols = n + m
        lo_full = np.concatenate([lo, self.slack_lo])
        hi_full = np.concatenate([hi, self.slack_hi])
        finite_lo = np.isfinite(lo_full)
        finite_hi = np.isfinite(hi_full)
        status = np.where(finite_lo, _AT_LO,
                          np.where(finite_hi, _AT_UP, _FREE)).astype(np.int8)
        values = np.where(finite_lo, lo_full, np.where(finite_hi, hi_full, 0.0))

        resid = self.b - self.a @ values[:n] if m else np.zeros(0)
        basis = np.empty(m, dtype=int)
        art_rows: list[int] = []
        art_signs: list[float] = []
        xb = np.zeros(m)
        for i in range(m):
            s = float(resid[i])
            if self.slack_lo[i] - 1e-12 <= s <= self.slack_hi[i] + 1e-12:
                basis[i] = n + i  # slack absorbs the residual
                status[n + i] = _BASIC
                xb[i] = s
            else:
                rest = float(np.clip(s, self.slack_lo[i], self.slack_hi[i]))
                values[n + i] = rest
                status[n + i] = _AT_LO if rest == self.slack_lo[i] else _AT_UP
                gap = s - rest
                art_rows.append(i)
                art_signs.append(1.0 if gap > 0 else -1.0)
                xb[i] = abs(gap)

        n_art = len(art_rows)
        if n_art:
            art_block = np.zeros((m, n_art))
            for k, (i, sign) in enumerate(zip(art_rows, art_signs)):
                art_block[i, k] = sign
                basis[i] = n_cols + k
            a_full = np.hstack([self.a_full, art_block])
            lo_full = np.concatenate([lo_full, np.zeros(n_art)])
            hi_full = np.concatenate([hi_full, np.full(n_art, np.inf)])
            status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
            values = np.concatenate([values, np.zeros(n_art)])
            # normalize rows so every basis column is +1
            for i, sign in zip(art_rows, art_signs):
                if sign < 0:
                    a_full[i] *= -1.0
        else:
            a_full = self.a_full.copy()  # pivots mutate the tableau
        tab = _Tableau(a_full, basis, status, values, xb, lo_full, hi_full)

        if n_art:
            phase1_cost = np.zeros(a_full.shape[1])
            phase1_cost[n_cols:] = 1.0
            outcome = tab.run(phase1_cost)
            if outcome == UNBOUNDED:
                raise LpNumericalError("phase 1 reported an unbounded direction")
            if tab.objective_of(phase1_cost) > _TOL_FEAS * self.b_scale:
                return LpOutcome(INFEASIBLE), None
            tab.hi[n_cols:] = 0.0  # artificials are locked at zero from here on
            tab.force_out_artificials(n_cols)

        cost_full = np.zeros(a_full.shape[1])
        cost_full[:n] = self.c
        if tab.run(cost_full) == UNBOUNDED:
            return LpOutcome(UNBOUNDED), None
        out = _audited_outcome(self, lo, hi, tab.values, tab.basis, tab.xb)
        z = cost_full - tab.T.T @ cost_full[tab.basis]
        return out, self._snapshot(tab.basis, tab.status, z, art_rows)

    def _warm_solve(self, lo, hi, warm):
        """Dual-simplex repair of warm's basis under (lo, hi); raises when
        the caller should solve cold instead, among others when the
        repaired basis is not optimal."""
        m, n = self.m, self.n
        n_cols = n + m
        lo_full = np.concatenate([lo, self.slack_lo])
        hi_full = np.concatenate([hi, self.slack_hi])
        status = warm.status.copy()
        basis = warm.basis.copy()
        # nonbasic columns sit on their (possibly revised) bounds
        values = np.zeros(n_cols)
        bad = (status == _AT_LO) & ~np.isfinite(lo_full)
        status[bad] = np.where(np.isfinite(hi_full[bad]), _AT_UP, _FREE)
        bad = (status == _AT_UP) & ~np.isfinite(hi_full)
        status[bad] = np.where(np.isfinite(lo_full[bad]), _AT_LO, _FREE)
        at_lo = status == _AT_LO
        at_up = status == _AT_UP
        values[at_lo] = lo_full[at_lo]
        values[at_up] = hi_full[at_up]

        key = basis.tobytes()
        hit = self._factor_cache.get(key)
        if hit is None:
            base = self.a_full[:, basis]
            stacked = np.linalg.solve(base, np.concatenate(
                [self.a_full, self.b[:, None]], axis=1))
            t0 = np.ascontiguousarray(stacked[:, :n_cols])
            xb0 = stacked[:, n_cols].copy()
            z0 = self.c_full - t0.T @ self.c_full[basis]
            self._factor_cache[key] = (t0, xb0, z0)
            if len(self._factor_cache) > 16:
                self._factor_cache.popitem(last=False)
        else:
            self._factor_cache.move_to_end(key)
            t0, xb0, z0 = hit
        nb = status != _BASIC
        T = t0.copy()
        xb = xb0 - t0[:, nb] @ values[nb]
        z = z0.copy()

        state = _dual_repair(T, basis, status, values, xb, lo_full, hi_full,
                             z, self.b_scale)
        if state == INFEASIBLE:
            return LpOutcome(INFEASIBLE), None
        z = self.c_full - T.T @ self.c_full[basis]
        incr, decr = _improving(z, status, hi_full - lo_full)
        if (incr | decr).any():
            raise LpNumericalError("repaired basis is not optimal")
        out = _audited_outcome(self, lo, hi, values, basis, xb)
        return out, self._snapshot(basis, status, z, [])


class BlockSolver:
    """The branch and bound's LP engine: one PreparedLp per program.

    Built once per program; solve_with_basis() solves under per-variable
    bounds overrides and returns the outcome with its BasisSnapshot (None
    unless optimal), which a later call takes as warm to revise bounds
    with a short dual-simplex repair. perfbench's tracer wraps these two
    methods as the prepare and relax layers.
    """

    def __init__(self, lp: LinearProgram):
        self.engine = PreparedLp(lp)

    def solve_with_basis(self, bounds=None, warm: BasisSnapshot | None = None
                         ) -> tuple[LpOutcome, BasisSnapshot | None]:
        return self.engine.solve(bounds, warm)
