import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconf.model import (
    Bus,
    Line,
    Network,
    NetworkFormatError,
    StructureError,
    is_spanning_forest,
    parse_network,
    required_closed_flexible_count,
    serialize_network,
    validate,
)


def _bus(bid, substation=False):
    return {"id": bid, "name": f"B{bid}", "substation": substation}


def _line(lid, a, b, x=0.05, rating=10.0, flexible=False):
    return {"id": lid, "from": a, "to": b, "x": x, "rating_mw": rating, "flexible": flexible}


def _doc(buses, lines, base_mva=100.0):
    return json.dumps({"base_mva": base_mva, "buses": buses, "lines": lines})


def _net(buses, lines, base_mva=100.0):
    return parse_network(_doc(buses, lines, base_mva))


def _star(n_leaves, flexible=False):
    """Substation bus 0 with n_leaves buses hanging off it."""
    buses = [_bus(0, True)] + [_bus(i) for i in range(1, n_leaves + 1)]
    lines = [_line(f"L(0,{i})", 0, i, flexible=flexible) for i in range(1, n_leaves + 1)]
    return _net(buses, lines)


def _codes(report):
    return {f.code for f in report.errors}


class TestParse:
    def test_minimal_network(self):
        net = _net([_bus(0, True), _bus(1)], [_line("L(0,1)", 0, 1)])
        assert net.n_buses == 2
        assert net.substations == (0,)
        assert len(net.lines) == 1
        assert net.lines[0].rating == 10.0
        assert not net.lines[0].flexible

    def test_one_based_ids_normalized(self):
        net = _net([_bus(1, True), _bus(2)], [_line("L(1,2)", 1, 2)])
        assert net.id_base == 1
        assert [b.id for b in net.buses] == [0, 1]
        assert (net.lines[0].from_bus, net.lines[0].to_bus) == (0, 1)

    def test_bad_json_reports_position(self):
        with pytest.raises(NetworkFormatError, match=r"line \d+, column \d+"):
            parse_network('{"base_mva": 100,,}')

    def test_unknown_bus_reference_names_line(self):
        with pytest.raises(NetworkFormatError, match="L7.*unknown bus 9"):
            _net([_bus(0, True), _bus(1)], [_line("L7", 0, 9)])

    def test_duplicate_line_id(self):
        lines = [_line("L1", 0, 1), _line("L1", 1, 2)]
        with pytest.raises(NetworkFormatError, match="duplicate line id L1"):
            _net([_bus(0, True), _bus(1), _bus(2)], lines)

    def test_duplicate_bus_id(self):
        with pytest.raises(NetworkFormatError, match="duplicate bus id 1"):
            _net([_bus(0, True), _bus(1), _bus(1)], [])

    def test_non_contiguous_bus_ids(self):
        with pytest.raises(NetworkFormatError, match="contiguous"):
            _net([_bus(0, True), _bus(2)], [])

    def test_ids_must_start_at_zero_or_one(self):
        with pytest.raises(NetworkFormatError, match="contiguous"):
            _net([_bus(2, True), _bus(3)], [])

    def test_nonpositive_reactance(self):
        with pytest.raises(NetworkFormatError, match="reactance must be positive"):
            _net([_bus(0, True), _bus(1)], [_line("L1", 0, 1, x=0.0)])

    def test_nonpositive_rating(self):
        with pytest.raises(NetworkFormatError, match="rating_mw must be positive"):
            _net([_bus(0, True), _bus(1)], [_line("L1", 0, 1, rating=-3)])

    def test_unknown_top_level_key(self):
        doc = json.dumps({"base_mva": 1, "buses": [_bus(0, True)], "lines": [], "extra": 1})
        with pytest.raises(NetworkFormatError, match="unknown key.*extra"):
            parse_network(doc)

    def test_unknown_line_key(self):
        line = _line("L1", 0, 1)
        line["color"] = "red"
        with pytest.raises(NetworkFormatError, match="unknown key.*color"):
            _net([_bus(0, True), _bus(1)], [line])

    def test_missing_bus_key(self):
        with pytest.raises(NetworkFormatError, match="missing key.*substation"):
            parse_network(json.dumps({"base_mva": 1, "buses": [{"id": 0, "name": "a"}], "lines": []}))

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkFormatError, match="itself"):
            _net([_bus(0, True), _bus(1)], [_line("L1", 1, 1)])

    def test_no_substation(self):
        with pytest.raises(NetworkFormatError, match="no substation"):
            _net([_bus(0), _bus(1)], [_line("L1", 0, 1)])

    def test_string_line_id_required(self):
        line = _line(7, 0, 1)
        with pytest.raises(NetworkFormatError, match="line id must be a non-empty string"):
            _net([_bus(0, True), _bus(1)], [line])

    def test_boolean_flags_are_strict(self):
        bus = {"id": 0, "name": "a", "substation": 1}
        with pytest.raises(NetworkFormatError, match="boolean"):
            parse_network(json.dumps({"base_mva": 1, "buses": [bus], "lines": []}))


class TestRoundTrip:
    def test_parse_serialize_parse_identical(self):
        net = _net(
            [_bus(1, True), _bus(2), _bus(3)],
            [_line("L(1,2)", 1, 2, flexible=True), _line("L(2,3)", 2, 3)],
        )
        again = parse_network(serialize_network(net))
        assert again == net

    def test_round_trip_preserves_numbering_base(self):
        net = _net([_bus(1, True), _bus(2)], [_line("L(1,2)", 1, 2)])
        text = serialize_network(net)
        assert '"id": 1' in text and '"from": 1' in text


class TestValidate:
    def test_clean_network(self):
        report = validate(_star(3))
        assert report.is_valid
        assert report.errors == [] and report.warnings == []

    def test_unreachable_bus(self):
        net = _net([_bus(0, True), _bus(1), _bus(2)], [_line("L1", 0, 1)])
        report = validate(net)
        assert "network.unreachable_bus" in _codes(report)
        assert any(f.entity == "2" for f in report.errors)

    def test_nonflexible_cycle(self):
        lines = [_line("L1", 0, 1), _line("L2", 1, 2), _line("L3", 0, 2)]
        report = validate(_net([_bus(0, True), _bus(1), _bus(2)], lines))
        assert "network.nonflexible_cycle" in _codes(report)

    def test_nonflexible_substation_path(self):
        net = _net([_bus(0, True), _bus(1, True), _bus(2)], [_line("L1", 0, 2), _line("L2", 1, 2)])
        report = validate(net)
        assert "network.nonflexible_substation_path" in _codes(report)

    def test_flexible_cycle_is_fine(self):
        lines = [_line("L1", 0, 1), _line("L2", 1, 2), _line("L3", 0, 2, flexible=True)]
        assert validate(_net([_bus(0, True), _bus(1), _bus(2)], lines)).is_valid

    def test_zero_load_warning(self):
        report = validate(_star(2), loads=[0.0, 5.0, 0.0])
        assert report.is_valid
        warned = {f.entity for f in report.warnings}
        assert warned == {"0", "2"}

    def test_no_warning_when_loads_positive(self):
        assert validate(_star(2), loads=[1.0, 5.0, 2.0]).warnings == []


class TestSpanningForest:
    def test_simple_tree(self):
        net = _star(3)
        assert is_spanning_forest(net, {"L(0,1)", "L(0,2)", "L(0,3)"})

    def test_missing_bus_fails(self):
        net = _star(3)
        assert not is_spanning_forest(net, {"L(0,1)", "L(0,2)"})

    def test_cycle_fails(self):
        lines = [_line("L1", 0, 1), _line("L2", 1, 2), _line("L3", 0, 2)]
        net = _net([_bus(0, True), _bus(1), _bus(2)], lines)
        assert not is_spanning_forest(net, {"L1", "L2", "L3"})
        assert is_spanning_forest(net, {"L1", "L2"})

    def test_two_substations_joined_fails(self):
        net = _net([_bus(0, True), _bus(1, True), _bus(2)], [_line("L1", 0, 2), _line("L2", 1, 2)])
        assert not is_spanning_forest(net, {"L1", "L2"})

    def test_unknown_line_id_raises(self):
        with pytest.raises(KeyError):
            is_spanning_forest(_star(1), {"nope"})

    def test_closed_count_identity(self):
        # any accepted topology closes exactly n_buses - n_substations lines
        net = _net(
            [_bus(0, True), _bus(1), _bus(2), _bus(3, True), _bus(4)],
            [
                _line("a", 0, 1),
                _line("b", 1, 2, flexible=True),
                _line("c", 3, 4),
                _line("d", 2, 4, flexible=True),
            ],
        )
        closed = {"a", "b", "c"}
        assert is_spanning_forest(net, closed)
        assert len(closed) == net.n_buses - len(net.substations)
        assert not is_spanning_forest(net, {"a", "b", "c", "d"})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.randoms(use_true_random=False))
def test_random_tree_plus_chord_never_forest(n, rnd):
    """Adding any chord to a spanning tree must break the forest check."""
    buses = [_bus(0, True)] + [_bus(i) for i in range(1, n)]
    lines = []
    for i in range(1, n):
        parent = rnd.randrange(i)
        lines.append(_line(f"T{i}", parent, i))
    a = rnd.randrange(n)
    b = rnd.randrange(n)
    if a == b:
        b = (b + 1) % n
    lines.append(_line("chord", a, b, flexible=True))
    net = _net(buses, lines)
    tree_ids = {f"T{i}" for i in range(1, n)}
    assert is_spanning_forest(net, tree_ids)
    assert not is_spanning_forest(net, tree_ids | {"chord"})


class TestRequiredClosedCount:
    def test_three_feeder_scale_arithmetic(self):
        # 39 buses, 3 substations, 33 always-on lines -> 3 flexible closures
        buses = [_bus(i, i in (0, 13, 26)) for i in range(39)]
        lines = []
        k = 0
        # a chain keeps the fixture valid; counts are what matter here
        for i in range(33):
            lines.append(_line(f"N{i}", k, k + 1))
            k += 1
        for i in range(6):
            a = (k + i) % 38
            lines.append(_line(f"F{i}", a, a + 1, flexible=True))
        net = _net(buses, lines)
        assert len(net.nonflexible_lines) == 33
        assert required_closed_flexible_count(net) == 3

    def test_tiny_two_substation(self):
        net = _net(
            [_bus(0, True), _bus(1, True), _bus(2)],
            [_line("a", 0, 2, flexible=True), _line("b", 1, 2, flexible=True)],
        )
        assert required_closed_flexible_count(net) == 1

    def test_impossible_structure_raises(self):
        # 2 buses, 1 substation, 2 always-on lines: closed count must be 1
        net = _net(
            [_bus(0, True), _bus(1)],
            [_line("a", 0, 1, x=0.1), _line("b", 0, 1, x=0.2)],
        )
        with pytest.raises(StructureError):
            required_closed_flexible_count(net)

    def test_all_flexible(self):
        net = _net(
            [_bus(0, True), _bus(1), _bus(2)],
            [_line("a", 0, 1, flexible=True), _line("b", 1, 2, flexible=True)],
        )
        assert required_closed_flexible_count(net) == 2


def test_network_is_hashable_and_frozen():
    net = _star(2)
    with pytest.raises(Exception):
        net.base_mva = 1.0
    assert isinstance(hash(net.buses[0]), int)
