"""Graph file parsing, serialization, and the fixtures."""

from __future__ import annotations

import ast
import inspect
import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph import cli, fixtures
from resgraph.cli import _parse_lprime, _parse_trivializable
from resgraph.core import Cycle, canonical_cycle, is_numerically_gorenstein
from resgraph.criteria import extension_criterion
from resgraph.ellseq import elliptic_sequence
from resgraph.errors import UserError
from resgraph.fixtures import FIXTURE_NAMES, is_fixture_name, load_fixture
from resgraph.graphio import (FORMAT_VERSION, cycle_to_data, dump_json,
                              parse_fraction, parse_graph, parse_graph_data)
from resgraph.laufer import classify, fundamental_cycle
from resgraph.strata import AnalyticParams

from conftest import graph_data, package_imports


def test_parse_fraction():
    assert parse_fraction("14/3") == Fraction(14, 3)
    assert parse_fraction("7") == 7
    assert parse_fraction(7) == 7
    assert parse_fraction("-14/3") == Fraction(-14, 3)
    assert parse_fraction("+007") == 7
    for bad in (2.5, True, "abc", "1/0", None, [1], {"a": 1},
                # only the documented forms [+-]?p and [+-]?p/q
                " 7", "7 ", "1_000", "0x10", "\u0661", "1/2/3", "--1", "+",
                "", "/3", "3/", "1/-3",
                # exponents and decimals, cheap ones first: "1e999999999"
                # would build 10**999999999 in full before any check
                "1E3", "1.5", "0.5/2", ".5", "1/2e3", "inf", "nan",
                "1e16000000", "1e999999999"):
        with pytest.raises(UserError):
            parse_fraction(bad)


def test_parse_fraction_reads_str():
    """Reports write a rational as str(Fraction); parse_fraction reads it
    back."""
    for f in (Fraction(14, 3), Fraction(7), Fraction(-1, 2), Fraction(0)):
        assert parse_fraction(str(f)) == f
        assert "/" in str(f) or f.denominator == 1


def test_graph_data_roundtrip(g_app):
    cycles = {"test": g_app.cycle({"a1": Fraction(14, 3), "u": 2})}
    data = graph_data(g_app, cycles)
    # JSON-serializable with rationals as strings, never floats
    redecoded = json.loads(json.dumps(data))
    gf = parse_graph_data(redecoded)
    assert gf.graph.vertices == g_app.vertices
    assert gf.graph.euler == g_app.euler
    assert gf.graph.edges == g_app.edges
    assert gf.cycles["test"].coefficient("a1") == Fraction(14, 3)


def test_format_version_checked(g_app):
    data = graph_data(g_app)
    data["format"] = 99
    with pytest.raises(UserError):
        parse_graph_data(data)
    del data["format"]
    with pytest.raises(UserError):
        parse_graph_data(data)


def test_non_minimal_graph_parses_without_a_warning():
    """Parsing reports nothing through Python's warnings; the CLI prints
    its own warning line for a non-minimal graph file."""
    data = {"format": FORMAT_VERSION,
            "vertices": [{"id": "a", "euler": -1}, {"id": "b", "euler": -5}],
            "edges": [["a", "b"]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not parse_graph_data(data).graph.is_minimal()


def test_parse_graph_missing_file(tmp_path):
    with pytest.raises(UserError):
        parse_graph(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UserError):
        parse_graph(bad)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@st.composite
def graph_like(draw):
    """An arbitrary JSON value, or a valid three-vertex graph file with one
    part replaced by one, so that the fuzz reaches every parsing stage."""
    data = {"format": FORMAT_VERSION,
            "vertices": [{"id": v, "euler": draw(st.integers(-4, -1))}
                         for v in "abc"],
            "edges": [["a", "b"], ["b", "c"]],
            "cycles": {"z": {"a": "1/2", "c": 3}}}
    junk = draw(json_values)
    part = draw(st.sampled_from(["document", "format", "vertices", "vertex",
                                 "id", "euler", "edges", "edge", "end",
                                 "cycles", "cycle", "coefficient"]))
    if part == "document":
        return junk
    if part in ("format", "vertices", "edges", "cycles"):
        data[part] = junk
    elif part == "vertex":
        data["vertices"][1] = junk
    elif part in ("id", "euler"):
        data["vertices"][1][part] = junk
    elif part == "edge":
        data["edges"][1] = junk
    elif part == "end":
        data["edges"][1][1] = junk
    elif part == "cycle":
        data["cycles"]["z"] = junk
    else:
        data["cycles"]["z"]["a"] = junk
    return data


@settings(max_examples=300, deadline=None)
@given(graph_like())
def test_parse_graph_data_fuzz_only_user_errors(data):
    """Any decoded JSON value either parses or raises UserError."""
    try:
        parse_graph_data(data)
    except UserError:
        pass


rational_like = st.one_of(
    st.integers().map(str), st.fractions().map(str), st.floats().map(repr),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(0, 99)),
    st.text(max_size=6))
vertex_like = st.sampled_from(["a1", "a3", "a9", "u"]) | st.text(max_size=3)


@st.composite
def lprime_texts(draw):
    """A --lprime argument: arbitrary text, or a prefix and a comma list of
    vertex=value chunks whose parts may be junk."""
    if draw(st.booleans()):
        return draw(st.text())
    chunks = draw(st.lists(
        st.builds("{}={}".format, vertex_like, rational_like) | st.text(),
        max_size=4))
    return draw(st.sampled_from(["", "estar:", "cycle:"])) + ",".join(chunks)


@settings(max_examples=300, deadline=None)
@given(lprime_texts())
def test_parse_lprime_fuzz_only_user_errors(g_app, text):
    try:
        _parse_lprime(text, g_app)
    except UserError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(json_values | st.dictionaries(
    vertex_like, rational_like | json_values, max_size=4), max_size=3)
    | json_values)
def test_trivializable_file_fuzz_only_user_errors(g_app, tmp_path_factory,
                                                  data):
    """Any decoded trivializable file either parses to a valid custom
    parameter set or raises UserError."""
    path = tmp_path_factory.getbasetemp() / "triv.json"
    path.write_text(json.dumps(data))
    try:
        AnalyticParams(mode="custom",
                       trivializable=_parse_trivializable(path, g_app))
    except UserError:
        pass


def test_cycle_to_data_drops_zeros(g_app):
    c = g_app.cycle({"a1": 1})
    assert cycle_to_data(c) == {"a1": "1"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-60, 60) | st.just(0), min_size=10, max_size=10),
       st.integers(1, 72))
def test_cycle_to_data_matches_the_fraction_form(g_app, num, den):
    """The strings and key order of str(Fraction) over the nonzero
    coefficients, on cycles with negative, zero and rational entries;
    a common denominator like 6 over numerators 2 and 3 makes each single
    coefficient reduce below it."""
    cycle = Cycle(g_app, tuple(num), den)
    expected = {v: str(c) for v, c in cycle.items() if c != 0}
    data = cycle_to_data(cycle)
    assert list(data.items()) == list(expected.items())


def test_cycle_to_data_reduces_each_coefficient(g_app):
    cycle = Cycle(g_app, (2, 3, 0, -4, 6, 0, 0, 0, 0, 1), 6)
    assert cycle_to_data(cycle) == {"a1": "1/3", "a2": "1/2", "a4": "-2/3",
                                    "a5": "1", "u": "1/6"}


def test_cycle_to_data_builds_no_fraction():
    """Cycles are formatted from their numerators: no Fraction and no
    Fraction view of the cycle."""
    body = ast.parse(inspect.getsource(cycle_to_data))
    names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    assert "Fraction" not in names
    assert not attrs & {"coeffs", "items", "coefficient"}


# -- the report writer --------------------------------------------------------


def _report(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def _report_argvs(name, triv):
    graph = load_fixture(name).graph
    first, last = graph.vertices[0], graph.vertices[-1]
    argvs = [[cmd, name] for cmd in ("classify", "invariants", "ellseq",
                                     "criteria", "strata", "wstrata")]
    argvs += [["ellseq", name, "--alpha", "1"],
              ["strata", name, "--mode", "wecc"],
              ["strata", name, "--lprime", f"estar:{first}=2"],
              ["strata", name, "--mode", "custom", "--trivializable", triv,
               "--lprime", f"estar:{last}=1"],
              ["wstrata", name, "--lprime", f"estar:{first}=3"]]
    if name == "g_app":
        argvs.append(["oracle-verify", name])
    return argvs


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dump_json_matches_the_stdlib_on_every_report(name, tmp_path):
    """Every subcommand's report on every bundled fixture is written byte
    for byte as json.dumps(report, indent=2) writes it; the custom mode
    takes the fixture's Z_min as its trivializable cycle."""
    graph = load_fixture(name).graph
    triv = tmp_path / "triv.json"
    triv.write_text(json.dumps([cycle_to_data(fundamental_cycle(graph))]))
    written = 0
    for argv in _report_argvs(name, str(triv)):
        try:
            report = _report(argv)
        except UserError:
            assert classify(graph).kind != "elliptic", argv
            continue
        assert dump_json(report) == json.dumps(report, indent=2), argv
        written += 1
    assert written >= 2


def test_dump_json_matches_the_stdlib_on_enumerate():
    report = _report(["enumerate", "--max-vertices", "5"])
    assert report["count"] > 0
    assert dump_json(report) == json.dumps(report, indent=2)


def test_cli_writes_json_without_the_stdlib_encoder():
    assert not hasattr(cli, "json")


json_text = st.text(st.characters(codec="utf-8") | st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9",
     "\U0001f600"]))
report_values = st.recursive(
    st.none() | st.booleans() | json_text
    | st.integers() | st.integers(-10 ** 40, 10 ** 40),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(report_values)
def test_dump_json_matches_the_stdlib(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), 0.5, float("nan"), {1, 2}, {1: "a"}, {None: 1},
    {"a": [Fraction(3)]}, [{"b": 1.0}], {"c": {(1,): 2}}])
def test_dump_json_refuses_other_types(value):
    """Rationals are strings in every report, never floats or Fractions,
    and object keys are strings."""
    with pytest.raises(TypeError):
        dump_json(value)


def test_all_fixtures_load_and_validate():
    """Every bundled fixture loads and parses to a graph; what each one is
    bundled for is pinned by test_fixture_facts."""
    for name in FIXTURE_NAMES:
        gf = load_fixture(name)
        assert gf.graph.vertices
    assert is_fixture_name("G_APP")
    assert not is_fixture_name("nope")
    with pytest.raises(UserError):
        load_fixture("nope")


# name: (classification, minimal, numerically Gorenstein, m, extension
# criterion verdict); None where the fixture is not bundled for the fact.
# The sequence has length m + 1.
FIXTURE_FACTS = {
    "g_app": ("elliptic", True, True, 1, None),
    "g_new": ("elliptic", True, False, 1, None),
    "g_noecc": ("elliptic", True, True, 1, None),
    "g_pole": ("other", False, None, None, None),
    "g_left": ("elliptic", True, True, 3, True),
    "g_right": ("elliptic", True, True, 3, False),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_facts(name):
    """The facts each fixture is bundled for, so that a slip in the data
    (g_left and g_right were transcribed from a figure) fails here; the
    cycles stored with a fixture are the computed ones."""
    kind, minimal, gorenstein, m, verdict = FIXTURE_FACTS[name]
    gf = load_fixture(name)
    graph = gf.graph
    assert classify(graph).kind == kind
    assert graph.is_minimal() is minimal
    if kind != "elliptic":
        assert gf.cycles == {}
        return
    seq = elliptic_sequence(graph)
    assert is_numerically_gorenstein(graph) is gorenstein
    assert seq.m == m
    if verdict is not None:
        assert extension_criterion(graph).verdict is verdict
    stored = ({"canonical": canonical_cycle(graph), "pre_term": seq.pre_term}
              if name == "g_new" else {})
    assert gf.cycles == stored


def test_fixture_loader_computes_nothing():
    """Loading a fixture parses its data and nothing more: the loader reads
    nothing of the package but the parser and the errors."""
    assert package_imports(fixtures) == {"resgraph.graphio", "resgraph.errors"}


def test_g_new_stored_cycles_match_computed(g_new):
    from resgraph.core import canonical_cycle
    from resgraph.ellseq import elliptic_sequence
    gf = load_fixture("g_new")
    assert gf.cycles["canonical"] == canonical_cycle(g_new)
    assert gf.cycles["pre_term"] == elliptic_sequence(g_new).pre_term
