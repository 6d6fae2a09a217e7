"""Answers computed apart from the program, and the checks that compare.

Distances come from ``scipy.sparse.csgraph``.  The reference graph drops
self-loops and keeps the shortest of each set of parallel edges first:
scipy's CSR constructor would otherwise *sum* duplicate entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.inputs import Graph, collapse

# scipy is imported where it is used, so that importing this module does
# not lengthen the benchmark's measured set-up


def _csr(weights: np.ndarray, tails: np.ndarray, heads: np.ndarray, n: int):
    from scipy.sparse import csr_matrix

    return csr_matrix((weights.astype(np.float64), (tails, heads)), shape=(n, n))


def csr(graph: Graph):
    n, tails, heads, lengths = collapse(graph)
    return _csr(lengths, tails, heads, n)


def _as_int(dist: np.ndarray) -> np.ndarray:
    out = np.full(dist.shape, -1, dtype=np.int64)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int64)
    return out


def distances(matrix, sources) -> np.ndarray:
    """Shortest-path lengths from each source (rows), -1 unreachable."""
    from scipy.sparse.csgraph import dijkstra

    return _as_int(dijkstra(matrix, directed=True, indices=sources))


def hops(matrix, sources, k: Optional[int] = None) -> np.ndarray:
    """Unweighted hop counts from each source, -1 beyond ``k`` hops."""
    from scipy.sparse.csgraph import shortest_path

    out = _as_int(shortest_path(matrix, method="D", directed=True, unweighted=True,
                                indices=sources))
    if k is not None:
        out[out > k] = -1
    return out


def out_degrees(graph: Graph) -> np.ndarray:
    """Synapses per vertex neuron: one per edge, parallel edges included,
    self-loops dropped."""
    n, tails, heads, _lengths = graph
    return np.bincount(tails[tails != heads], minlength=n)


class Checker:
    """Collects mismatches; ``ok`` is true while none was found."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, what: str) -> bool:
        self.checked += 1
        if not condition:
            self.failures.append(what)
        return bool(condition)

    def same(self, got, want, what: str) -> bool:
        got = np.asarray(got)
        want = np.asarray(want)
        if got.shape != want.shape:
            return self.expect(False, f"{what}: shape {got.shape} != {want.shape}")
        bad = np.flatnonzero(got.ravel() != want.ravel())
        detail = ""
        if bad.size:
            i = int(bad[0])
            detail = (f": {bad.size} entries differ, first at {i} "
                      f"({got.ravel()[i]} != {want.ravel()[i]})")
        return self.expect(bad.size == 0, what + detail)

    def run_properties(
        self, dist: np.ndarray, degree: np.ndarray, *, spikes: int,
        ticks: Optional[int] = None, deliveries: Optional[int] = None, what: str = "",
    ) -> None:
        """One-shot neurons fire once per reached vertex; a run lasts until
        its farthest reached vertex fires; each spike crosses each
        out-synapse of its vertex once.  ``dist`` holds the reference
        distances of one run, or one row per run with summed counts."""
        dist = np.atleast_2d(dist)
        reached = dist >= 0
        self.expect(spikes == int(reached.sum()),
                    f"{what}: {spikes} spikes for {int(reached.sum())} reached vertices")
        if ticks is not None:
            far = int(np.where(reached.any(axis=1), dist.max(axis=1), 0).sum())
            self.expect(ticks == far, f"{what}: {ticks} ticks, farthest distance {far}")
        if deliveries is not None:
            want = int((reached * degree).sum())
            self.expect(deliveries == want and want <= dist.shape[0] * int(degree.sum()),
                        f"{what}: {deliveries} deliveries, reached out-degree {want}")


class VersionedGraph:
    """The benchmark's own copy of a dynamic resident, replayed from the
    write answers so each read can be checked against the graph at the
    version its answer carries."""

    def __init__(self, graph: Graph):
        n, tails, heads, lengths = collapse(graph)
        self.n = n
        self.edges: Dict[Tuple[int, int], int] = {
            (int(u), int(v)): int(w) for u, v, w in zip(tails, heads, lengths)
        }

    def apply(self, op: dict) -> Optional[str]:
        """Apply one write; returns why it was invalid, else ``None``."""
        key = (int(op["u"]), int(op["v"]))
        kind = op["kind"]
        if kind == "add_edge":
            if key in self.edges:
                return f"add_edge {key}: edge exists"
            self.edges[key] = int(op["weight"])
        elif kind == "remove_edge":
            if self.edges.pop(key, None) is None:
                return f"remove_edge {key}: no such edge"
        elif kind == "reweight":
            if key not in self.edges:
                return f"reweight {key}: no such edge"
            self.edges[key] = int(op["weight"])
        else:
            return f"unexpected write kind {kind}"
        return None

    def matrix(self):
        uv = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        w = np.array(list(self.edges.values()), dtype=np.float64)
        return _csr(w, uv[:, 0], uv[:, 1], self.n)


def expected_answer(op: dict, matrix) -> np.ndarray:
    """What a read must answer on a graph whose reference CSR is ``matrix``."""
    kind = op["kind"]
    if kind == "sssp":
        return distances(matrix, [op["source"]])[0]
    if kind == "khop":
        return hops(matrix, [op["source"]], op["k"])[0]
    if kind == "apsp":
        return distances(matrix, list(op["sources"]))
    raise ValueError(f"not a read: {kind}")


def answer_array(op: dict, answer: dict) -> np.ndarray:
    if op["kind"] == "apsp":
        return np.asarray(answer.get("matrix"), dtype=np.int64)
    return np.asarray(answer.get("dist"), dtype=np.int64)


class StaticReference:
    """All-pairs distance and hop matrices of static residents, computed
    once so every read (cached or not) is checked by a table lookup."""

    def __init__(self, graphs: Dict[str, Graph]):
        self.dist = {}
        self.hops = {}
        self.degree = {}
        for gid, graph in graphs.items():
            m = csr(graph)
            self.dist[gid] = distances(m, None)
            self.hops[gid] = hops(m, None)
            self.degree[gid] = out_degrees(graph)

    def expected(self, op: dict) -> np.ndarray:
        gid = op["graph_id"]
        if op["kind"] == "sssp":
            return self.dist[gid][op["source"]]
        if op["kind"] == "khop":
            row = self.hops[gid][op["source"]].copy()
            row[row > op["k"]] = -1
            return row
        return self.dist[gid][list(op["sources"])]
