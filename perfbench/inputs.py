"""Seeded inputs of the benchmark, made without importing the program.

Every graph is a plain ``(n, tails, heads, lengths)`` tuple of int64
arrays and every operation a JSON-able dict, so a change to the program
cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Tuple

import numpy as np

Graph = Tuple[int, np.ndarray, np.ndarray, np.ndarray]

# solo_sssp_large: 316 x 316 = 99,856 vertices, 398,160 directed links
# plus ~10^4 highway edges
HIGHWAY_SHARE = 0.05
SOLO_SIDE = 316
SOLO_MAX_LENGTH = 100
# apsp_batch: G(n, p) with mean out-degree ~5
APSP_N = 2000
APSP_DEGREE = 5.0
APSP_MAX_LENGTH = 9
# wire residents
WIRE_SIDE = 40
WIRE_LATTICE_MAX_LENGTH = 20
WIRE_GNP_N = 400
WIRE_GNP_P = 0.01
WIRE_GNP_MAX_LENGTH = 9
KHOP_KS = (4, 8, 16)
APSP_SLICE = 4
# every WARMUP_STRIDE-th vertex is reserved for warm-up queries
WARMUP_STRIDE = 16
# the Zipf exponent of wire_read's source popularity
READ_SKEW = 0.4


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def lattice(side: int, max_length: int, rng: np.random.Generator) -> Graph:
    """A road-like ``side x side`` lattice: every 4-neighbour link in both
    directions, each direction with its own length in ``1..max_length``,
    plus ``HIGHWAY_SHARE * side**2`` long-range two-way highways of length
    ``max_length``.  Highways may duplicate a link: the edge list then has
    parallel edges, as real road data does."""
    n = side * side
    idx = np.arange(n, dtype=np.int64).reshape(side, side)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    pairs = np.concatenate([right, down], axis=1)
    lengths = rng.integers(1, max_length + 1, size=2 * pairs.shape[1], dtype=np.int64)
    ends = rng.integers(0, n, size=(2, int(HIGHWAY_SHARE * n)), dtype=np.int64)
    ends = ends[:, ends[0] != ends[1]]
    tails = np.concatenate([pairs[0], pairs[1], ends[0], ends[1]])
    heads = np.concatenate([pairs[1], pairs[0], ends[1], ends[0]])
    lengths = np.concatenate([lengths, np.full(2 * ends.shape[1], max_length, dtype=np.int64)])
    return n, tails, heads, lengths


def gnp(n: int, p: float, max_length: int, rng: np.random.Generator) -> Graph:
    """G(n, p) over ordered pairs without self-loops, lengths ``1..max_length``."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    tails, heads = np.nonzero(mask)
    lengths = rng.integers(1, max_length + 1, size=tails.size, dtype=np.int64)
    return n, tails.astype(np.int64), heads.astype(np.int64), lengths


def solo_graph(seed: int) -> Graph:
    return lattice(SOLO_SIDE, SOLO_MAX_LENGTH, rng_for(seed, "solo"))


def solo_sources(seed: int, count: int = 1000) -> List[int]:
    rng = rng_for(seed, "solo-sources")
    return [int(s) for s in rng.integers(0, SOLO_SIDE * SOLO_SIDE, size=count)]


def apsp_graph(seed: int) -> Graph:
    return gnp(APSP_N, APSP_DEGREE / (APSP_N - 1), APSP_MAX_LENGTH, rng_for(seed, "apsp"))


def wire_graphs(seed: int) -> Dict[str, Graph]:
    return {
        "lattice": lattice(WIRE_SIDE, WIRE_LATTICE_MAX_LENGTH, rng_for(seed, "wire-lattice")),
        "gnp": gnp(WIRE_GNP_N, WIRE_GNP_P, WIRE_GNP_MAX_LENGTH, rng_for(seed, "wire-gnp")),
    }


def write_edge_list(graph: Graph, path: str) -> None:
    """The ``n m`` header plus ``u v length`` lines ``repro serve`` reads."""
    n, tails, heads, lengths = graph
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {tails.size}\n")
        np.savetxt(fh, np.stack([tails, heads, lengths], axis=1), fmt="%d")


def warmup_ops(graphs: Dict[str, Graph]) -> List[dict]:
    """One read of every kind and k on every resident, from reserved
    sources the timed phase never uses: fills the admission memos, the
    build cache and the worker's resident networks."""
    ops: List[dict] = []
    for gid, (n, *_rest) in sorted(graphs.items()):
        reserved = list(range(0, n, WARMUP_STRIDE))
        ops.append({"kind": "sssp", "graph_id": gid, "source": reserved[1]})
        for i, k in enumerate(KHOP_KS):
            ops.append({"kind": "khop", "graph_id": gid, "source": reserved[2 + i], "k": k})
        ops.append({"kind": "apsp", "graph_id": gid, "sources": reserved[5 : 5 + APSP_SLICE]})
    return ops


def _timed_vertices(n: int) -> np.ndarray:
    v = np.arange(n)
    return v[v % WARMUP_STRIDE != 0]


def read_ops(seed: int, graphs: Dict[str, Graph]) -> Iterator[dict]:
    """wire_read's endless stream, in shuffled rounds of 20 reads of fixed
    make-up so every run sees the same mix: per resident 6 sssp, one khop
    for each k and one apsp slice (60 / 30 / 10 %).  Sources are
    Zipf-skewed over a seeded vertex order, so popular ones repeat."""
    rng = rng_for(seed, "wire-read-ops")
    pools = {}
    for gid in sorted(graphs):
        order = rng.permutation(_timed_vertices(graphs[gid][0]))
        weights = 1.0 / np.arange(1, order.size + 1) ** READ_SKEW
        pools[gid] = (order, weights / weights.sum())
    shape = [("sssp", None)] * 6 + [("khop", k) for k in KHOP_KS] + [("apsp", None)]
    while True:
        round_ = []
        for gid, (order, prob) in pools.items():
            drawn = rng.choice(order, size=len(shape), p=prob)
            for (kind, k), source in zip(shape, drawn):
                if kind == "apsp":
                    srcs = rng.choice(order, size=APSP_SLICE, replace=False)
                    round_.append({"kind": "apsp", "graph_id": gid,
                                   "sources": [int(s) for s in srcs]})
                elif kind == "khop":
                    round_.append({"kind": "khop", "graph_id": gid, "source": int(source),
                                   "k": k})
                else:
                    round_.append({"kind": "sssp", "graph_id": gid, "source": int(source)})
        for i in rng.permutation(len(round_)):
            yield round_[i]


def readwrite_ops(seed: int, graph: Graph, graph_id: str = "dyn") -> Iterator[dict]:
    """wire_readwrite's endless stream, in shuffled rounds of 30 ops of
    fixed make-up: 12 sssp and 12 khop reads (4 per k) from uniform
    sources, and 6 writes (3 reweights, 2 edge removals, 1 edge addition),
    so one op in five is a write.  Writes stay valid in any order: each
    lattice edge of a reserved set is removed at most once, each absent
    diagonal is added at most once, and reweights touch only edges that
    are never removed.  ``graph`` must have no parallel edges (see
    :func:`collapse`)."""
    rng = rng_for(seed, "wire-readwrite-ops")
    n, tails, heads, _lengths = graph
    side = int(round(n ** 0.5))
    m = tails.size
    order = rng.permutation(m)
    removable = iter(order[: m // 4])
    stable = order[m // 4:]
    cells = np.arange(n).reshape(side, side)
    diag = np.stack([cells[:-1, :-1].ravel(), cells[1:, 1:].ravel()], axis=1)
    diag = np.concatenate([diag, diag[:, ::-1]])
    diag = diag[~np.isin(diag[:, 0] * n + diag[:, 1], tails * n + heads)]
    absent = iter(diag[rng.permutation(diag.shape[0])])
    live = _timed_vertices(n)
    shape = ([("sssp", None)] * 12 + [("khop", k) for k in KHOP_KS for _ in range(4)]
             + [("reweight", None)] * 3 + [("remove_edge", None)] * 2 + [("add_edge", None)])
    while True:
        for i in rng.permutation(len(shape)):
            what, k = shape[i]
            if what == "sssp":
                yield {"kind": "sssp", "graph_id": graph_id, "source": int(rng.choice(live))}
                continue
            if what == "khop":
                yield {"kind": "khop", "graph_id": graph_id, "source": int(rng.choice(live)),
                       "k": k}
                continue
            weight = int(rng.integers(1, WIRE_LATTICE_MAX_LENGTH + 1))
            e = next(removable, None) if what == "remove_edge" else None
            uv = next(absent, None) if what == "add_edge" else None
            if e is not None:
                yield {"kind": "remove_edge", "graph_id": graph_id,
                       "u": int(tails[e]), "v": int(heads[e])}
            elif uv is not None:
                yield {"kind": "add_edge", "graph_id": graph_id,
                       "u": int(uv[0]), "v": int(uv[1]), "weight": weight}
            else:
                e = int(stable[int(rng.integers(stable.size))])
                yield {"kind": "reweight", "graph_id": graph_id,
                       "u": int(tails[e]), "v": int(heads[e]), "weight": weight}


def collapse(graph: Graph) -> Graph:
    """Drop self-loops and keep the shortest of each set of parallel edges."""
    n, tails, heads, lengths = graph
    keep = tails != heads
    tails, heads, lengths = tails[keep], heads[keep], lengths[keep]
    order = np.lexsort((lengths, heads, tails))
    tails, heads, lengths = tails[order], heads[order], lengths[order]
    first = np.ones(tails.size, dtype=bool)
    first[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
    return n, tails[first], heads[first], lengths[first]
