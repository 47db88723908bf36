"""CLI dispatch, exit codes, and output formats."""

from __future__ import annotations

import inspect
import json
import sys

import pytest

from resgraph import cli
from resgraph.cli import run
from resgraph.core import build_graph
from resgraph.errors import InvariantViolation
from resgraph.graphio import graph_to_data


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_classify_json(capsys):
    data = invoke_json(capsys, "classify", "g_app")
    assert data["classification"] == "elliptic"
    assert data["chi_zmin"] == "0"
    assert data["zmin"]["a1"] == "2"


def test_classify_text(capsys):
    code, out, err = invoke(capsys, "classify", "g_app")
    assert code == 0
    assert "classification: elliptic" in out


def test_ellseq_text(capsys):
    """Lists render as "- item" lines, a list of lists as bare "-" lines
    over its items, and an empty cycle as {}."""
    code, out, err = invoke(capsys, "ellseq", "g_app")
    assert code == 0, err
    lines = out.splitlines()
    assert "numerically_gorenstein: true" in lines
    assert "pre_term: {}" in lines
    start = lines.index("supports:")
    assert lines[start + 1:start + 3] == ["  -", "    - a1"]
    assert "    C_t: {}" in lines


def test_criteria_text(capsys):
    """Booleans render as true/false and an empty list as []."""
    code, out, err = invoke(capsys, "criteria", "g_noecc")
    assert code == 0, err
    lines = out.splitlines()
    assert "  verdict: false" in lines and "  witnesses: []" in lines
    assert lines[-2:] == ["supports_wecc: false", "supports_ecc: false"]
    start = lines.index("      neighbours_above:")
    assert lines[start + 1:start + 3] == ["        - c9", "        - u8"]


def test_invariants(capsys):
    data = invoke_json(capsys, "invariants", "g_new")
    assert data["numerically_gorenstein"] is False
    assert data["canonical"]["b1"] == "14/3"
    assert data["canonical"]["u"] == "7"


def test_ellseq(capsys):
    data = invoke_json(capsys, "ellseq", "g_app")
    assert data["m"] == 1 and data["length"] == 2
    assert data["self_intersection_C"] == "-1"
    assert [sorted(b) for b in data["supports"]][1] == sorted(
        set("a1 a2 a3 a4 a5 a6 a7 a8 u".split()))
    assert [r["pg_Xj"] for r in data["pg_table"]] == [2, 1, 0]


def test_criteria(capsys):
    data = invoke_json(capsys, "criteria", "g_noecc")
    assert data["supports_wecc"] is False
    assert data["supports_ecc"] is False
    assert not data["extension_criterion"]["verdict"]
    assert any(r["node"] == "c8"
               for r in data["monomial_condition"]["violations"])


def test_strata_with_lprime(capsys):
    # E*_a8 = Z_K on this graph, so this asks for l' = -Z_K
    data = invoke_json(capsys, "strata", "g_app",
                       "--lprime", "estar:a8=1", "--mode", "wecc")
    assert data["pg"] == 2
    assert data["levels"]["2"] == [] and data["levels"]["1"] == []
    level0 = data["levels"]["0"]
    assert len(level0) == 2
    dims = sorted(e["dim"] for e in level0)
    assert dims == [1, 2]
    top = next(e for e in level0 if e["dim"] == 2)
    assert top["maximal"] and top["l"] == {}


def test_wstrata(capsys):
    data = invoke_json(capsys, "wstrata", "g_app", "--alpha", "1")
    assert data["pg"] == 1
    assert data["reduction_index"] == 0
    kinds = {s["kind"] for s in data["strata"]}
    assert kinds == {"linear", "wandering"}


def test_wstrata_lprime_literal(capsys):
    data = invoke_json(capsys, "wstrata", "g_app", "--lprime", "estar:a9=1")
    assert data["reduction_index"] == 1
    assert data["h1_on_image"] == 1


def test_trivializable_file(capsys, tmp_path, g_app):
    from resgraph.graphio import cycle_to_data
    from resgraph.laufer import fundamental_cycle
    path = tmp_path / "triv.json"
    path.write_text(json.dumps([cycle_to_data(fundamental_cycle(g_app))]))
    data = invoke_json(capsys, "strata", "g_app", "--mode", "custom",
                       "--trivializable", str(path), "--lprime", "estar:a8=1")
    assert data["pg"] == 2


def test_graph_from_file(capsys, tmp_path, g_app):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_data(g_app)))
    data = invoke_json(capsys, "classify", str(path))
    assert data["classification"] == "elliptic"


def test_oracle_verify_small(capsys, tmp_path, a2_chain):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(graph_to_data(a2_chain)))
    data = invoke_json(capsys, "oracle-verify", str(path))
    assert data["checks"]["fundamental-cycle"] == "ok"


def test_oracle_verify_under_a_small_cap(capsys, monkeypatch):
    """Checks whose brute search exceeds RESGRAPH_ENUM_CAP are reported as
    skipped, and the run still exits 0."""
    monkeypatch.setenv("RESGRAPH_ENUM_CAP", "10")
    checks = invoke_json(capsys, "oracle-verify", "g_app")["checks"]
    assert sum(v.startswith("skipped: ") for v in checks.values()) == 6
    assert checks["elliptic-sequence"] == "ok"


def test_invariant_violation_exit_code(capsys, monkeypatch):
    def broken(graph):
        raise InvariantViolation("verdicts disagree",
                                 payload={"extension": True})

    monkeypatch.setattr(cli, "criteria_reports", broken)
    code, out, err = invoke(capsys, "criteria", "g_app")
    assert code == 2 and not out
    assert err.splitlines() == [
        "invariant violation (bug): verdicts disagree",
        "payload: {'extension': True}"]


def test_enumerate(capsys):
    data = invoke_json(capsys, "enumerate", "--max-vertices", "3",
                       "--euler-min", "-3", "--euler-max", "-2")
    assert data["count"] == 11
    assert all(g["classification"] == "rational" for g in data["graphs"])


def test_user_error_exit_code(capsys):
    code, out, err = invoke(capsys, "classify", "no_such_fixture.json")
    assert code == 1 and "error:" in err
    code, out, err = invoke(capsys, "ellseq", "g_pole")
    assert code == 1
    code, out, err = invoke(capsys, "strata", "g_app", "--lprime", "bogus")
    assert code == 1
    code, out, err = invoke(capsys, "enumerate", "--euler-max", "0")
    assert code == 1


def test_cap_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("RESGRAPH_ENUM_CAP", "abc")
    code, out, err = invoke(capsys, "enumerate", "--max-vertices", "2")
    assert code == 1 and "RESGRAPH_ENUM_CAP" in err
    monkeypatch.setenv("RESGRAPH_ENUM_CAP", "-5")
    code, out, err = invoke(capsys, "enumerate", "--max-vertices", "2")
    assert code == 1


def test_cap_env_resource_exit(capsys, monkeypatch):
    monkeypatch.setenv("RESGRAPH_ENUM_CAP", "2")
    code, out, err = invoke(capsys, "enumerate", "--max-vertices", "4")
    assert code == 3 and "resource cap" in err
    # the cap counts Pruefer sequences and euler assignments as they are
    # scanned: 2 assignments at n = 1, then 1 sequence and 4 assignments at
    # n = 2 pass 5
    monkeypatch.setenv("RESGRAPH_ENUM_CAP", "5")
    code, out, err = invoke(capsys, "enumerate", "--max-vertices", "3",
                            "--euler-min", "-3", "--euler-max", "-2")
    assert code == 3 and "exceeded cap 5" in err
    # a wide euler range is refused by its assignments, not by a count of
    # output graphs: the 12 ** 3 assignments at n = 3 pass the cap
    monkeypatch.setenv("RESGRAPH_ENUM_CAP", "1000")
    code, out, err = invoke(capsys, "enumerate", "--max-vertices", "3",
                            "--euler-min", "-12", "--euler-max", "-1")
    assert code == 3 and "exceeded cap 1000" in err and not out
    # at the default cap, 8 vertices runs: the scan stops at Otter's count
    monkeypatch.delenv("RESGRAPH_ENUM_CAP")
    data = invoke_json(capsys, "enumerate", "--max-vertices", "8")
    assert data["count"] == 3352


def test_recursion_limit_is_a_resource_refusal(capsys, tmp_path, g_app):
    """The strata walker and the oracle's boxed search recurse once per
    vertex. On g_app with a -2 chain at a9 just past the recursion limit
    (lowered here so that the chain, and the run, stay short) both commands
    exit 3 with one line naming the limit, not a traceback."""
    chain = [f"c{i:03d}" for i in range(250)]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(graph_to_data(build_graph({
        "vertices": [(v, g_app.euler[v]) for v in g_app.vertices]
        + [(c, -2) for c in chain],
        "edges": [tuple(e) for e in g_app.edges] + [("a9", chain[0])]
        + list(zip(chain, chain[1:]))}))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        results = [invoke(capsys, command, str(path))
                   for command in ("strata", "oracle-verify")]
    finally:
        sys.setrecursionlimit(limit)
    for code, out, err in results:
        assert code == 3 and not out
        assert err.startswith("resource cap:") and "recursion limit" in err
        assert err.count("\n") == 1


def test_bad_subcommand(capsys):
    code, out, err = invoke(capsys, "frobnicate", "g_app")
    assert code == 1


def _nested(depth):
    value = "a"
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("vertices, edges, diagnostic", [
    ([{"id": "a", "euler": -2}], [["a"]], "bad-edge"),
    ([{"id": "a", "euler": -2}], [["a", "b", "c"]], "bad-edge"),
    ([{"id": "a", "euler": -2}], [5], "bad-edge"),
    ([["a"]], [], "malformed-description"),
    ([5], [], "malformed-description"),
    # ids are JSON strings: no str() of other values, so 1 and "1" differ
    ([{"id": None, "euler": -2}], [], "malformed-description"),
    ([{"euler": -2}], [], "malformed-description"),
    ([[5, -2]], [], "malformed-description"),
    ([[[["a"]], -2]], [], "malformed-description"),
    ([[1, -2], ["1", -2]], [], "malformed-description"),
    ([["a", -2], ["b", -2]], [["a", None]], "bad-edge"),
    ([["1", -2], ["b", -2]], [[1, "b"]], "bad-edge"),
    ([["a", -2], ["b", -2]], [[["a"], "b"]], "bad-edge"),
    # refusals quote a cut-down value, not kilobytes of brackets or digits
    # (800 levels leave room below the recursion limit for pytest's frames)
    ([[_nested(800), -2]], [], "malformed-description"),
    ([["a", int("1" * 4000)]], [], "bad-euler"),
])
def test_malformed_graph_file_is_a_user_error(capsys, tmp_path, vertices,
                                              edges, diagnostic):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"format": 1, "vertices": vertices,
                                "edges": edges}))
    code, out, err = invoke(capsys, "classify", str(path))
    assert code == 1 and f"error: {diagnostic}:" in err
    assert err.count("\n") == 1 and len(err) < 200


_DEEP = b"[" * 100_000 + b"]" * 100_000
_LONG = b"1" * 5000


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    _DEEP,
    b'{"format": 1, "vertices": [{"id": "a", "euler": -' + _LONG
    + b'}], "edges": []}',
    b'{"format": 1, "vertices": [{"id": "a", "euler": -2}], "edges": [], '
    b'"cycles": [1]}',
], ids=["not-utf8", "too-deep", "int-too-long", "cycles-not-an-object"])
def test_undecodable_graph_file_is_a_user_error(capsys, tmp_path, content):
    path = tmp_path / "g.json"
    path.write_bytes(content)
    code, out, err = invoke(capsys, "classify", str(path))
    assert code == 1 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize("content", [
    b"\xff\xfe[]",
    _DEEP,
    b'[{"a1": ' + _LONG + b'}]',
], ids=["not-utf8", "too-deep", "int-too-long"])
def test_undecodable_trivializable_file_is_a_user_error(capsys, tmp_path,
                                                        content):
    path = tmp_path / "triv.json"
    path.write_bytes(content)
    code, out, err = invoke(capsys, "strata", "g_app", "--mode", "custom",
                            "--trivializable", str(path))
    assert code == 1 and err.startswith("error: ") and out == ""
