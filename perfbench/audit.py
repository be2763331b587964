"""Independent audit of `reconf solve` outputs.

Nothing here imports `reconf`: the input files are parsed, the radial
topology checked, the DC flow solved and every hour priced with this
module's own code, so a fault in the program cannot hide in a shared
helper. The flow is a dense susceptance solve, not the program's tree
accumulation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the fill-in `reconf solve --epsilon` substitutes for an exactly-zero load
EPSILON = 1e-5
# printed costs and loadings carry 6 decimals; both sides must agree this well
REL_TOL = 1e-6
# a flow sitting at its rating or an angle at its bound is feasible
RATING_TOL = 1e-6
ANGLE_TOL = 1e-9


class AuditError(AssertionError):
    """An output of the program disagrees with the independent recomputation."""


@dataclass(frozen=True)
class Line:
    id: str
    f: int          # bus index (0-based position in the file's bus list)
    t: int
    x: float
    rating: float
    flexible: bool


@dataclass(frozen=True)
class Net:
    bus_ids: tuple[int, ...]        # ids as written in network.json, sorted
    substations: tuple[int, ...]    # bus indices, ascending id
    lines: tuple[Line, ...]

    @property
    def n(self) -> int:
        return len(self.bus_ids)

    def flexible_ids(self) -> list[str]:
        return sorted(l.id for l in self.lines if l.flexible)

    def always_closed(self) -> set[str]:
        return {l.id for l in self.lines if not l.flexible}

    def closed_count(self) -> int:
        """Flexible lines any radial topology closes."""
        return self.n - len(self.substations) - len(self.always_closed())


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def read_network(path) -> Net:
    doc = json.loads(Path(path).read_text())
    ids = sorted(int(b["id"]) for b in doc["buses"])
    pos = {bid: i for i, bid in enumerate(ids)}
    subs = tuple(pos[int(b["id"])] for b in sorted(doc["buses"], key=lambda b: b["id"])
                 if b["substation"])
    lines = tuple(Line(str(l["id"]), pos[int(l["from"])], pos[int(l["to"])],
                       float(l["x"]), float(l["rating_mw"]), bool(l["flexible"]))
                  for l in doc["lines"])
    return Net(tuple(ids), subs, lines)


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_profile(path, columns: list[str]) -> np.ndarray:
    """Hour-by-column table; the header must be `hour` then `columns`."""
    rows = read_csv(path)
    if rows[0] != ["hour"] + columns:
        raise AuditError(f"{path}: header {rows[0][:4]}... does not match the network")
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def bus_columns(net: Net) -> list[str]:
    return [str(b) for b in net.bus_ids]


def substation_columns(net: Net) -> list[str]:
    return [str(net.bus_ids[s]) for s in net.substations]


def hour_loads(row: np.ndarray, scale: float) -> np.ndarray:
    """The loads one hour is solved with: scaled, zeros filled in."""
    loads = np.asarray(row, dtype=float) * scale
    loads[loads == 0.0] = EPSILON
    return loads


# ---------------------------------------------------------------------------
# physics of one topology


def check_radial(net: Net, closed: set[str]) -> None:
    """Every bus is fed by exactly one substation and no closed loop exists."""
    by_id = {l.id: l for l in net.lines}
    unknown = closed - set(by_id)
    if unknown:
        raise AuditError(f"unknown line(s) {sorted(unknown)}")
    adj: list[list[tuple[int, str]]] = [[] for _ in range(net.n)]
    for lid in closed:
        line = by_id[lid]
        adj[line.f].append((line.t, lid))
        adj[line.t].append((line.f, lid))
    fed_by = [-1] * net.n
    for sub in net.substations:
        if fed_by[sub] >= 0:
            raise AuditError(f"substations {net.bus_ids[fed_by[sub]]} and "
                             f"{net.bus_ids[sub]} are joined")
        fed_by[sub] = sub
        stack = [(sub, None)]
        while stack:
            bus, via = stack.pop()
            for other, lid in adj[bus]:
                if lid == via:
                    continue
                if fed_by[other] == sub:
                    raise AuditError(f"closed lines form a cycle through line {lid}")
                if fed_by[other] >= 0:
                    raise AuditError(f"substations {net.bus_ids[fed_by[other]]} and "
                                     f"{net.bus_ids[sub]} are joined")
                fed_by[other] = sub
                stack.append((other, lid))
    unfed = [net.bus_ids[b] for b in range(net.n) if fed_by[b] < 0]
    if unfed:
        raise AuditError(f"bus(es) {unfed} are fed by no substation")


@dataclass(frozen=True)
class Physics:
    angles: np.ndarray              # rad, by bus index
    flows: dict[str, float]         # MW, closed lines only, positive from -> to
    injections: np.ndarray          # MW imported, by substation position


def dc_flow(net: Net, closed: set[str], loads: np.ndarray) -> Physics:
    """Dense DC flow: B theta = -load at every non-substation bus, theta_sub = 0."""
    b = np.zeros((net.n, net.n))
    lines = [l for l in net.lines if l.id in closed]
    for line in lines:
        y = 1.0 / line.x
        b[line.f, line.f] += y
        b[line.t, line.t] += y
        b[line.f, line.t] -= y
        b[line.t, line.f] -= y
    subs = list(net.substations)
    free = np.setdiff1d(np.arange(net.n), subs)
    theta = np.zeros(net.n)
    theta[free] = np.linalg.solve(b[np.ix_(free, free)], -loads[free])
    flows = {l.id: (theta[l.f] - theta[l.t]) / l.x for l in lines}
    injections = loads[subs] + b[subs] @ theta
    return Physics(theta, flows, injections)


def check_limits(net: Net, phys: Physics, angle_lo: float, angle_hi: float) -> None:
    by_id = {l.id: l for l in net.lines}
    for lid, flow in sorted(phys.flows.items()):
        if abs(flow) > by_id[lid].rating + RATING_TOL:
            raise AuditError(f"line {lid} carries {flow:.6f} MW over its "
                             f"{by_id[lid].rating:.6f} MW rating")
    worst = int(np.argmax(np.maximum(phys.angles - angle_hi, angle_lo - phys.angles)))
    if not angle_lo - ANGLE_TOL <= phys.angles[worst] <= angle_hi + ANGLE_TOL:
        raise AuditError(f"bus {net.bus_ids[worst]} angle {phys.angles[worst]:.6f} "
                         f"outside [{angle_lo}, {angle_hi}]")


def hour_cost(phys: Physics, prices: np.ndarray) -> float:
    return float(np.dot(prices, phys.injections))


# ---------------------------------------------------------------------------
# one run directory


@dataclass(frozen=True)
class Inputs:
    """What one `reconf solve` was asked to do."""

    net: Net
    loads: np.ndarray        # hours x buses, as read from loads.csv
    prices: np.ndarray       # hours x substations
    scale: float
    angle_lo: float
    angle_hi: float

    @classmethod
    def read(cls, network, loads, prices, scale, angle_lo, angle_hi):
        net = read_network(network)
        return cls(net, read_profile(loads, bus_columns(net)),
                   read_profile(prices, substation_columns(net)),
                   scale, angle_lo, angle_hi)

    @property
    def horizon(self) -> int:
        return len(self.loads)


def _micros(text: str) -> int:
    whole, _, frac = text.lstrip("-").partition(".")
    value = int(whole) * 1_000_000 + int(frac.ljust(6, "0"))
    return -value if text.startswith("-") else value


def printed_total(stdout: str) -> str:
    """The total from `total cost X, N hours, outputs in DIR`."""
    for line in stdout.splitlines():
        if line.startswith("total cost "):
            return line[len("total cost "):].split(",")[0]
    raise AuditError("solve printed no total cost")


def audit_run(out_dir, inputs: Inputs, stdout: str) -> list[float]:
    """Check one solve's outputs hour by hour; return the recomputed costs."""
    out = Path(out_dir)
    net = inputs.net
    flex = net.flexible_ids()
    schedule = read_csv(out / "schedule.csv")
    if schedule[0] != ["hour"] + flex:
        raise AuditError("schedule.csv header does not list the flexible lines")
    if len(schedule) - 1 != inputs.horizon:
        raise AuditError(f"schedule.csv has {len(schedule) - 1} hours, "
                         f"expected {inputs.horizon}")
    cost_rows = read_csv(out / "cost.csv")
    loading = read_csv(out / "loading.csv")
    line_ids = [l.id for l in net.lines]
    if loading[0] != ["hour"] + line_ids:
        raise AuditError("loading.csv header does not list the lines")
    ratings = {l.id: l.rating for l in net.lines}

    costs = []
    for t in range(inputs.horizon):
        hour = t + 1
        row = schedule[hour]
        if row[0] != str(hour) or any(v not in ("0", "1") for v in row[1:]):
            raise AuditError(f"schedule.csv hour {hour} is malformed")
        closed = net.always_closed() | {lid for lid, v in zip(flex, row[1:]) if v == "1"}
        try:
            check_radial(net, closed)
            phys = dc_flow(net, closed, hour_loads(inputs.loads[t], inputs.scale))
            check_limits(net, phys, inputs.angle_lo, inputs.angle_hi)
        except AuditError as exc:
            raise AuditError(f"hour {hour}: {exc}") from None
        cost = hour_cost(phys, inputs.prices[t])
        if cost_rows[hour][0] != str(hour) or not close(float(cost_rows[hour][1]), cost):
            raise AuditError(f"cost.csv hour {hour}: {cost_rows[hour][1]} but the "
                             f"recomputed cost is {cost:.6f}")
        for lid, cell in zip(line_ids, loading[hour][1:]):
            expect = 100.0 * abs(phys.flows.get(lid, 0.0)) / ratings[lid]
            if not close(float(cell), expect):
                raise AuditError(f"loading.csv hour {hour} line {lid}: {cell} but "
                                 f"the recomputed loading is {expect:.6f}")
        costs.append(cost)

    total_row = cost_rows[inputs.horizon + 1]
    if total_row[0] != "total":
        raise AuditError("cost.csv has no total row")
    total = total_row[1]
    if _micros(total) != sum(_micros(r[1]) for r in cost_rows[1:inputs.horizon + 1]):
        raise AuditError("cost.csv total is not the sum of its entries")
    if printed_total(stdout) != total:
        raise AuditError(f"printed total {printed_total(stdout)} differs from "
                         f"cost.csv total {total}")
    if json.loads((out / "run.json").read_text()).get("total_cost") != total:
        raise AuditError("run.json total_cost differs from cost.csv total")
    if not close(float(total), sum(costs)):
        raise AuditError(f"total {total} but the recomputed total is {sum(costs):.6f}")
    return costs


def summary_counts(out_dir) -> dict[str, int]:
    """Node and relaxation totals from summary.txt."""
    counts = {}
    for line in (Path(out_dir) / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in ("branch-and-bound nodes", "relaxations solved"):
            counts[key] = int(value)
    return counts
