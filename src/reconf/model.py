"""Network data model: buses, lines, parsing, validation, radiality checks.

A network is a set of buses (some of which are substations, i.e. import
points with an hourly energy price) joined by lines. Non-flexible lines are
always in service; flexible lines carry a remotely operated switch and may
be opened or closed per hour. A valid operating topology is a spanning
forest in which every bus is connected to exactly one substation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any


class NetworkFormatError(ValueError):
    """Raised when network JSON cannot be parsed into a valid Network."""


class StructureError(ValueError):
    """Raised when line counts make a radial topology impossible.

    report is the ValidationReport whose errors it summarizes, if any.
    """

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


class DisjointSet:
    """Union-find over a fixed range of integer items."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def copy(self) -> DisjointSet:
        dup = DisjointSet.__new__(DisjointSet)
        dup.parent = self.parent.copy()
        dup.rank = self.rank.copy()
        return dup

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def unite(self, a: int, b: int) -> bool:
        """Join the sets holding a and b. False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def joined(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


@dataclass(frozen=True)
class Bus:
    """A network node. Substation buses import energy at a posted price."""

    id: int
    name: str
    is_substation: bool


@dataclass(frozen=True)
class Line:
    """A branch between two buses.

    reactance is in per-unit, rating in MW. Flexible lines may be switched
    per hour; non-flexible lines are permanently in service.
    """

    id: str
    from_bus: int
    to_bus: int
    reactance: float
    rating: float
    flexible: bool


@dataclass(frozen=True)
class Network:
    """Immutable parsed network. Bus ids are normalized to 0-based.

    id_base records whether the source file numbered buses from 0 or 1 so
    that serialization and reports can use the original numbering.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    base_mva: float
    id_base: int = 0

    @cached_property
    def n_buses(self) -> int:
        return len(self.buses)

    @cached_property
    def substations(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.is_substation)

    @cached_property
    def flexible_lines(self) -> tuple[Line, ...]:
        return tuple(l for l in self.lines if l.flexible)

    @cached_property
    def nonflexible_lines(self) -> tuple[Line, ...]:
        return tuple(l for l in self.lines if not l.flexible)

    @cached_property
    def lines_by_id(self) -> dict[str, Line]:
        return {l.id: l for l in self.lines}


@dataclass(frozen=True)
class Finding:
    """One validation finding: a dotted code, a message, and the entity."""

    code: str
    message: str
    entity: str


@dataclass
class ValidationReport:
    errors: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict[str, Any]:
        return {
            "is_valid": self.is_valid,
            "errors": [vars(f) for f in self.errors],
            "warnings": [vars(f) for f in self.warnings],
        }


_TOP_KEYS = {"base_mva", "buses", "lines"}
_BUS_KEYS = {"id", "name", "substation"}
_LINE_KEYS = {"id", "from", "to", "x", "rating_mw", "flexible"}


def _require_keys(obj: dict, allowed: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{what} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkFormatError(f"{what} has unknown key(s): {', '.join(sorted(unknown))}")
    missing = allowed - set(obj)
    if missing:
        raise NetworkFormatError(f"{what} missing key(s): {', '.join(sorted(missing))}")


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def parse_network(text: str) -> Network:
    """Parse network JSON into a Network, normalizing bus ids to 0-based.

    Rejects unknown keys, duplicate ids, dangling line endpoints and
    non-positive reactances or ratings.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    _require_keys(doc, _TOP_KEYS, "network")
    base_mva = _number(doc["base_mva"], "base_mva")
    if base_mva <= 0:
        raise NetworkFormatError(f"base_mva must be positive, got {base_mva}")
    if not isinstance(doc["buses"], list) or not doc["buses"]:
        raise NetworkFormatError("buses must be a non-empty array")
    if not isinstance(doc["lines"], list):
        raise NetworkFormatError("lines must be an array")

    raw_buses: dict[int, Bus] = {}
    for entry in doc["buses"]:
        _require_keys(entry, _BUS_KEYS, "bus")
        if isinstance(entry["id"], bool) or not isinstance(entry["id"], int):
            raise NetworkFormatError(f"bus id must be an integer, got {entry['id']!r}")
        bus_id = entry["id"]
        if bus_id in raw_buses:
            raise NetworkFormatError(f"duplicate bus id {bus_id}")
        if not isinstance(entry["name"], str):
            raise NetworkFormatError(f"bus {bus_id} name must be a string")
        if not isinstance(entry["substation"], bool):
            raise NetworkFormatError(f"bus {bus_id} substation flag must be a boolean")
        raw_buses[bus_id] = Bus(bus_id, entry["name"], entry["substation"])

    ids = sorted(raw_buses)
    id_base = ids[0]
    if id_base not in (0, 1) or ids != list(range(id_base, id_base + len(ids))):
        raise NetworkFormatError("bus ids must be contiguous integers starting at 0 or 1")

    buses = tuple(
        Bus(bid - id_base, raw_buses[bid].name, raw_buses[bid].is_substation) for bid in ids
    )
    if not any(b.is_substation for b in buses):
        raise NetworkFormatError("network has no substation bus")

    lines: list[Line] = []
    seen_line_ids: set[str] = set()
    for entry in doc["lines"]:
        _require_keys(entry, _LINE_KEYS, "line")
        line_id = entry["id"]
        if not isinstance(line_id, str) or not line_id:
            raise NetworkFormatError(f"line id must be a non-empty string, got {line_id!r}")
        if line_id in seen_line_ids:
            raise NetworkFormatError(f"duplicate line id {line_id}")
        seen_line_ids.add(line_id)
        for end_key in ("from", "to"):
            if isinstance(entry[end_key], bool) or not isinstance(entry[end_key], int):
                raise NetworkFormatError(f"line {line_id} {end_key} must be an integer bus id")
            if entry[end_key] not in raw_buses:
                raise NetworkFormatError(f"line {line_id} references unknown bus {entry[end_key]}")
        if entry["from"] == entry["to"]:
            raise NetworkFormatError(f"line {line_id} connects bus {entry['from']} to itself")
        x = _number(entry["x"], f"line {line_id} x")
        if x <= 0:
            raise NetworkFormatError(f"line {line_id} reactance must be positive, got {x}")
        rating = _number(entry["rating_mw"], f"line {line_id} rating_mw")
        if rating <= 0:
            raise NetworkFormatError(f"line {line_id} rating_mw must be positive, got {rating}")
        if not isinstance(entry["flexible"], bool):
            raise NetworkFormatError(f"line {line_id} flexible flag must be a boolean")
        lines.append(
            Line(line_id, entry["from"] - id_base, entry["to"] - id_base, x, rating, entry["flexible"])
        )

    return Network(buses, tuple(lines), base_mva, id_base)


def parse_network_file(path: str) -> Network:
    with open(path, encoding="utf-8") as fh:
        return parse_network(fh.read())


def serialize_network(net: Network) -> str:
    """Render a Network back to its JSON file form (original id numbering)."""
    doc = {
        "base_mva": net.base_mva,
        "buses": [
            {"id": b.id + net.id_base, "name": b.name, "substation": b.is_substation}
            for b in net.buses
        ],
        "lines": [
            {
                "id": l.id,
                "from": l.from_bus + net.id_base,
                "to": l.to_bus + net.id_base,
                "x": l.reactance,
                "rating_mw": l.rating,
                "flexible": l.flexible,
            }
            for l in net.lines
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _contracted_dsu(net: Network) -> tuple[DisjointSet, int]:
    """DSU over buses plus one virtual root that merges all substations.

    A cycle in this contracted graph is either a true cycle or a path
    joining two substations; both break radiality.
    """
    root = net.n_buses
    dsu = DisjointSet(net.n_buses + 1)
    for sub in net.substations:
        dsu.unite(root, sub)
    return dsu, root


def validate(net: Network, loads=None) -> ValidationReport:
    """Check that at least one radial operating topology exists.

    Errors are empty iff the always-on lines are acyclic, never join two
    substations, and closing flexible lines can reach every bus. Buses with
    zero load are reported as warnings when a load vector is supplied,
    since radiality accounting relies on strictly positive loads (solvers
    substitute a tiny epsilon).
    """
    report = ValidationReport()
    dsu, root = _contracted_dsu(net)
    plain = DisjointSet(net.n_buses)
    for line in net.nonflexible_lines:
        # plain DSU tells a true cycle apart from a substation-substation path
        if not plain.unite(line.from_bus, line.to_bus):
            report.errors.append(
                Finding(
                    "network.nonflexible_cycle",
                    f"always-on line {line.id} closes a cycle",
                    line.id,
                )
            )
        elif not dsu.unite(line.from_bus, line.to_bus):
            report.errors.append(
                Finding(
                    "network.nonflexible_substation_path",
                    f"always-on line {line.id} joins two substations",
                    line.id,
                )
            )
    for line in net.flexible_lines:
        dsu.unite(line.from_bus, line.to_bus)
    for bus in net.buses:
        if not dsu.joined(bus.id, root):
            report.errors.append(
                Finding(
                    "network.unreachable_bus",
                    f"bus {bus.id + net.id_base} cannot reach any substation",
                    str(bus.id + net.id_base),
                )
            )
    if not report.errors:
        try:
            required_closed_flexible_count(net)
        except StructureError as exc:
            report.errors.append(Finding("network.flexible_count", str(exc), ""))
    if loads is not None:
        for bus in net.buses:
            if float(loads[bus.id]) == 0.0:
                report.warnings.append(
                    Finding(
                        "network.zero_load_bus",
                        f"bus {bus.id + net.id_base} has zero load; a tiny epsilon load"
                        " is substituted at solve time to keep radiality counting sound",
                        str(bus.id + net.id_base),
                    )
                )
    return report


def is_spanning_forest(net: Network, closed_lines: set[str]) -> bool:
    """True iff the closed lines form a forest connecting every bus to
    exactly one substation.

    Raises KeyError for a line id not present in the network. Callers are
    expected to include every non-flexible line in closed_lines.
    """
    dsu, root = _contracted_dsu(net)
    by_id = net.lines_by_id
    for line_id in sorted(closed_lines):
        line = by_id[line_id]
        if not dsu.unite(line.from_bus, line.to_bus):
            return False
    return all(dsu.joined(bus.id, root) for bus in net.buses)


def required_closed_flexible_count(net: Network) -> int:
    """Number of flexible lines that must be closed in any radial topology.

    Every radial topology closes exactly n_buses - n_substations lines; the
    non-flexible ones are always closed, so the flexible remainder is fixed.
    """
    n_flex = len(net.flexible_lines)
    count = net.n_buses - len(net.substations) - len(net.nonflexible_lines)
    if count < 0 or count > n_flex:
        raise StructureError(
            f"no radial topology possible: need {count} closed flexible lines"
            f" but {n_flex} exist"
        )
    return count
