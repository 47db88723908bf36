"""The three benchmark workloads and their correctness checks.

A workload builds its inputs once (untimed), then yields the ops of one
pass as ``(label, callable)`` pairs. The runner times each call, then hands
the result back to :meth:`check`, which runs outside the timed region.
Every op calls into resgraph through module attributes, so the tracer's
wrappers see the calls.

- ``cli-queries``: one in-process ``resgraph`` CLI query per op, each on a
  graph file written before timing starts, so every query parses and
  validates its graph cold. Checked against the exit code and SHA-256 of
  stdout recorded in ``reference.json``.
- ``criteria-sweep``: the conjecture-checking sweep over the 11 972 trees
  of ``enumerate_trees(7, range(-4, -1))``; one op per tree. Checked
  against the recorded per-tree (classification, verdict) codes.
- ``large-trees``: the three scaling cases, one op each: the 400-vertex
  chain, a seeded random 200-vertex tree, and the Laufer lifts of k*E_a1
  on g_app. Checked against the defining equations with the benchmark's
  own edge-list matrix product, and the lift endpoints against the
  recorded ones.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from resgraph import cli, core, criteria, laufer, oracle

CLI_FIXTURES = ("g_app", "g_new", "g_noecc", "g_left", "g_right")
# -l' = Z_K of g_app (acceptance criterion 3)
ZK_G_APP = "a1=4,a2=8,a3=12,a4=10,a5=8,a6=6,a7=4,a8=2,a9=1,u=6"
# Z_min of g_noecc, the trivializable cycle of acceptance criterion 4
ZMIN_G_NOECC = {"c1": "2", "c2": "4", "c3": "6", "c4": "5", "c5": "4",
                "c6": "3", "c7": "2", "c8": "1", "c9": "1", "u3": "3",
                "u8": "1"}
LIFT_MULTIPLES = (100, 1000, 10000)
CHAIN_VERTICES = 400
TREE_VERTICES = 200


class Workload:
    """One pass is ``ops()``; ``reference`` is None while recording. Every
    workload takes the seed and a work directory, and uses them if it
    needs them."""

    name = ""
    # whole passes a timed run makes at least; an op's time is its median
    # over the passes
    min_passes = 3
    # start each op from a collected heap, as a fresh process would; off
    # where ops are too many and too small for a collection each
    collect_between_ops = True

    def __init__(self, seed: int, workdir: Path, reference):
        self.reference = reference
        self.recorded: dict = {}

    def ops(self):
        raise NotImplementedError

    def check(self, label, result) -> bool:
        raise NotImplementedError

    def end_pass(self) -> bool:
        return True

    def _against_reference(self, label, summary) -> bool:
        if self.reference is None:
            self.recorded[label] = summary
            return True
        return self.reference.get(label) == summary


# -- cli-queries ---------------------------------------------------------------


class CliQueries(Workload):
    name = "cli-queries"

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        data = resources.files("resgraph.data")
        paths = {}
        for name in CLI_FIXTURES + ("g_pole",):
            paths[name] = workdir / f"{name}.json"
            paths[name].write_text(data.joinpath(f"{name}.json").read_text())
        zmin = workdir / "g_noecc_zmin.json"
        zmin.write_text(json.dumps([ZMIN_G_NOECC]))
        queries = []
        for name in CLI_FIXTURES:
            p = str(paths[name])
            queries += [["classify", p], ["invariants", p], ["ellseq", p],
                        ["criteria", p], ["strata", p],
                        ["strata", p, "--mode", "wecc"], ["wstrata", p]]
        queries.append(["strata", str(paths["g_app"]), "--lprime", ZK_G_APP])
        queries.append(["strata", str(paths["g_noecc"]), "--mode", "custom",
                        "--trivializable", str(zmin),
                        "--lprime", "estar:c9=1"])
        queries += [["classify", str(paths["g_pole"])],
                    ["invariants", str(paths["g_pole"])]]
        queries += [["oracle-verify", str(paths[name])]
                    for name in ("g_app", "g_new", "g_noecc")]
        queries.append(["enumerate", "--max-vertices", "6"])
        # labels name files by fixture so they do not depend on workdir
        self.queries = [(" ".join(Path(a).stem if a.endswith(".json") else a
                                  for a in q), q + ["--format", "json"])
                        for q in queries]

    def ops(self):
        for label, argv in self.queries:
            yield label, functools.partial(self._query, argv)

    @staticmethod
    def _query(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return code, out.getvalue()

    def check(self, label, result) -> bool:
        code, text = result
        digest = hashlib.sha256(text.encode()).hexdigest()
        return self._against_reference(label, [code, digest])


# -- criteria-sweep ------------------------------------------------------------


class CriteriaSweep(Workload):
    """Per-tree codes: r/o/e for rational/other/elliptic-not-minimal,
    T/F for the agreed verdict on elliptic minimal trees, X for a
    disagreement between the two criteria."""

    name = "criteria-sweep"
    collect_between_ops = False
    min_passes = 2   # a pass takes 12 s; 11 972 ops pool into each figure

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.codes: list[str] = []

    def ops(self):
        self.codes = []
        trees = oracle.enumerate_trees(7, range(-4, -1))
        index = 0
        while True:
            yield index, functools.partial(self._tree, trees)
            index += 1

    @staticmethod
    def _tree(trees):
        g = next(trees, None)
        if g is None:
            return None
        kind = laufer.classify(g).kind
        if kind != "elliptic":
            return kind[0]
        if not g.is_minimal():
            return "e"
        ext = criteria.extension_criterion(g).verdict
        mono = criteria.monomial_condition(g).verdict
        if ext != mono:
            return "X"
        return "T" if ext else "F"

    def check(self, label, result) -> bool:
        self.codes.append(result)
        if result == "X":
            return False
        if self.reference is None:
            return True
        codes = self.reference["codes"]
        return label < len(codes) and codes[label] == result

    def end_pass(self) -> bool:
        codes = "".join(self.codes)
        summary = {"trees": len(codes),
                   "elliptic": sum(c in "TF" for c in codes),
                   "sha256": hashlib.sha256(codes.encode()).hexdigest()}
        if self.reference is None:
            self.recorded = dict(summary, codes=codes)
            return "X" not in codes
        return all(self.reference[k] == v for k, v in summary.items())


# -- large-trees ---------------------------------------------------------------


def chain_spec(n: int = CHAIN_VERTICES) -> dict:
    names = [f"c{i:03d}" for i in range(n)]
    return {"vertices": [(v, -2) for v in names],
            "edges": list(zip(names, names[1:]))}


def random_tree_spec(seed: int, n: int = TREE_VERTICES) -> dict:
    """Random recursive tree with e_v = -(deg v + 1) - U{0,1}: strictly
    diagonally dominant, hence negative definite without retries."""
    rng = random.Random(seed)
    parent = [rng.randrange(i) for i in range(1, n)]
    degree = [0] * n
    for child, p in enumerate(parent, start=1):
        degree[child] += 1
        degree[p] += 1
    names = [f"t{i:03d}" for i in range(n)]
    return {"vertices": [(names[i], -(degree[i] + 1) - rng.randint(0, 1))
                         for i in range(n)],
            "edges": [(names[c], names[p])
                      for c, p in enumerate(parent, start=1)]}


class _Lattice:
    """The benchmark's own intersection form: A*x from the edge list."""

    def __init__(self, spec: dict):
        self.euler = dict(spec["vertices"])
        self.neighbours = {v: [] for v in self.euler}
        for u, w in spec["edges"]:
            self.neighbours[u].append(w)
            self.neighbours[w].append(u)

    def pairings(self, coeffs: dict) -> dict:
        return {v: e * coeffs.get(v, 0)
                + sum(coeffs.get(w, 0) for w in self.neighbours[v])
                for v, e in self.euler.items()}

    def is_canonical(self, zk) -> bool:
        return self.pairings(dict(zk.items())) == {
            v: e + 2 for v, e in self.euler.items()}

    def is_dual(self, cycle, vertex) -> bool:
        return self.pairings(dict(cycle.items())) == {
            v: -1 if v == vertex else 0 for v in self.euler}

    def is_antinef(self, coeffs: dict) -> bool:
        return all(p <= 0 for p in self.pairings(coeffs).values())

    def is_rational_zmin(self, cls) -> bool:
        zmin = dict(cls.zmin.items())
        return (cls.kind == "rational" and cls.chi_zmin == 1
                and all(c.denominator == 1 and c >= 1 for c in zmin.values())
                and self.is_antinef(zmin))

    def replays(self, start: dict, steps, result: dict) -> bool:
        """Every step adds E_v to a cycle pairing positively with E_v."""
        z = dict(start)
        p = self.pairings(z)
        for v in steps:
            if p[v] <= 0:
                return False
            z[v] = z.get(v, 0) + 1
            p[v] += self.euler[v]
            for w in self.neighbours[v]:
                p[w] += 1
        return z == result


class LargeTrees(Workload):
    name = "large-trees"

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        from resgraph import fixtures
        self.chain = chain_spec()
        self.tree = random_tree_spec(seed)
        degree = {v: 0 for v, _ in self.tree["vertices"]}
        for u, w in self.tree["edges"]:
            degree[u] += 1
            degree[w] += 1
        self.tree_end = min(v for v, d in degree.items() if d == 1)
        self.lattices = {"chain400": _Lattice(self.chain),
                         "tree200": _Lattice(self.tree)}
        app = json.loads(resources.files("resgraph.data")
                         .joinpath("g_app.json").read_text())
        self.app = _Lattice({
            "vertices": [(r["id"], r["euler"]) for r in app["vertices"]],
            "edges": app["edges"]})
        graph = fixtures.load_fixture("g_app").graph
        self.lift_inputs = [(k, k * graph.basis_cycle("a1"))
                            for k in LIFT_MULTIPLES]

    def ops(self):
        yield "chain400", functools.partial(self._build, self.chain, None)
        yield "tree200", functools.partial(self._build, self.tree,
                                           self.tree_end)
        yield "lifts", self._lifts

    @staticmethod
    def _build(spec, end):
        g = core.build_graph(spec)
        cls = laufer.classify(g)
        zk = core.canonical_cycle(g)
        dual = core.dual_cycle(g, end) if end is not None else None
        return cls, zk, dual

    def _lifts(self):
        return [laufer.antinef_lift(start) for _, start in self.lift_inputs]

    def check(self, label, result) -> bool:
        if label == "lifts":
            return all([self._check_lift(k, start, *lift)
                        for (k, start), lift in zip(self.lift_inputs,
                                                    result)])
        cls, zk, dual = result
        lattice = self.lattices[label]
        ok = lattice.is_canonical(zk) and lattice.is_rational_zmin(cls)
        if label == "tree200":
            ok = ok and lattice.is_dual(dual, self.tree_end)
        return ok

    def _check_lift(self, k, start, end, trace) -> bool:
        begin = dict(start.items())
        final = dict(end.items())
        ok = (dict(trace.start.items()) == begin
              and self.app.is_antinef(final)
              and self.app.replays(begin, trace.steps, final))
        summary = {v: str(c) for v, c in final.items() if c != 0}
        return self._against_reference(f"lift{k}", summary) and ok


WORKLOADS = {w.name: w for w in (CliQueries, CriteriaSweep, LargeTrees)}
