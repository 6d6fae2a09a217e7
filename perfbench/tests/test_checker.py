"""The benchmark's checker rejects corrupted answers.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import inputs, reference, run  # noqa: E402
from perfbench.wire import Exchange  # noqa: E402

# 0 -> 1 (4), 0 -> 1 (2, parallel), 1 -> 2 (3), 2 -> 2 (self-loop), 0 -> 2 (9)
TINY = (
    4,
    np.array([0, 0, 1, 2, 0], dtype=np.int64),
    np.array([1, 1, 2, 2, 2], dtype=np.int64),
    np.array([4, 2, 3, 1, 9], dtype=np.int64),
)


def exchange(op: dict, answer: dict) -> Exchange:
    ex = Exchange(op, 0.0, 10)
    ex.done, ex.answer, ex.bytes_in = 0.001, dict(answer, status="ok"), 10
    return ex


def sssp_answer(dist, version):
    reached = [d for d in dist if d >= 0]
    return {"dist": list(dist), "graph_version": version,
            "cost": {"spikes": len(reached), "simulated_ticks": max(reached)}}


def test_reference_collapses_parallel_edges_and_drops_self_loops():
    assert reference.distances(reference.csr(TINY), [0])[0].tolist() == [0, 2, 5, -1]
    assert reference.hops(reference.csr(TINY), [0], 0)[0].tolist() == [0, -1, -1, -1]
    assert reference.out_degrees(TINY).tolist() == [3, 1, 0, 0]


def test_distance_off_by_one_is_rejected():
    want = reference.distances(reference.csr(TINY), [0])[0]
    check = reference.Checker()
    assert check.same(want.copy(), want, "exact")
    bad = want.copy()
    bad[2] += 1
    assert not check.same(bad, want, "off by one")
    assert not check.ok and "off by one" in check.failures[0]


def test_run_properties_reject_a_wrong_spike_tick_or_delivery_count():
    want = reference.distances(reference.csr(TINY), [0])[0]
    degree = reference.out_degrees(TINY)
    good = dict(spikes=3, ticks=5, deliveries=4)
    check = reference.Checker()
    check.run_properties(want, degree, **good)
    assert check.ok
    for field in good:
        check = reference.Checker()
        check.run_properties(want, degree, **dict(good, **{field: good[field] + 1}))
        assert not check.ok, field


def test_read_paired_with_the_wrong_graph_version_is_rejected():
    graph = inputs.collapse(TINY)
    write = exchange({"kind": "reweight", "graph_id": "dyn", "u": 0, "v": 1, "weight": 7},
                     {"graph_version": 1, "outputs": {"u": 0, "v": 1, "weight": 7}})
    read_op = {"kind": "sssp", "graph_id": "dyn", "source": 0}
    # before the write 0 -> 1 is 2; after it, 7
    before, after = [0, 2, 5, -1], [0, 7, 9, -1]
    check = reference.Checker()
    run.check_readwrite(check, graph, [write, exchange(read_op, sssp_answer(before, 0))],
                        [exchange(read_op, sssp_answer(after, 1))])
    assert check.ok, check.failures
    check = reference.Checker()
    run.check_readwrite(check, graph, [write, exchange(read_op, sssp_answer(after, 0))],
                        [exchange(read_op, sssp_answer(after, 1))])
    assert not check.ok


def test_write_versions_must_be_distinct_and_consecutive():
    graph = inputs.collapse(TINY)
    writes = [
        exchange({"kind": "reweight", "graph_id": "dyn", "u": 0, "v": 1, "weight": w},
                 {"graph_version": v, "outputs": {}})
        for w, v in ((5, 1), (6, 3))
    ]
    check = reference.Checker()
    run.check_readwrite(check, graph, writes, [])
    assert not check.ok


def test_an_invalid_write_order_is_rejected():
    graph = inputs.collapse(TINY)
    write = exchange({"kind": "remove_edge", "graph_id": "dyn", "u": 1, "v": 0},
                     {"graph_version": 1, "outputs": {}})
    check = reference.Checker()
    run.check_readwrite(check, graph, [write], [])
    assert not check.ok and "no such edge" in check.failures[0]


def test_writes_in_the_readwrite_stream_stay_valid_in_any_order():
    graph = inputs.collapse(inputs.wire_graphs(3)["lattice"])
    ops = [op for _, op in zip(range(3000), inputs.readwrite_ops(3, graph))]
    writes = [op for op in ops if op["kind"] not in ("sssp", "khop")]
    assert 0.15 < len(writes) / len(ops) < 0.25
    for order in (writes, writes[::-1]):
        shadow = reference.VersionedGraph(graph)
        assert all(shadow.apply(op) is None for op in order)


def test_inputs_depend_only_on_the_seed():
    a, b, c = inputs.apsp_graph(5), inputs.apsp_graph(5), inputs.apsp_graph(6)
    assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
    assert not np.array_equal(a[1], c[1])
    n, tails, heads, _ = inputs.solo_graph(1)
    assert n == 316 * 316 and 4.0e5 < tails.size < 4.2e5
    graphs = inputs.wire_graphs(1)
    first = [op for _, op in zip(range(50), inputs.read_ops(1, graphs))]
    again = [op for _, op in zip(range(50), inputs.read_ops(1, graphs))]
    assert first == again
    timed = {op.get("source") for op in first} | {s for op in first for s in op.get("sources", ())}
    warm = {op.get("source") for op in inputs.warmup_ops(graphs)}
    assert not (timed - {None}) & (warm - {None})


def test_self_time_subtracts_child_spans():
    from perfbench.spans import Spans

    spans = Spans()
    parent = spans.add("parent", 0.0, 10.0)
    spans.add("child", 1.0, 4.0, parent)
    spans.add("child", 3.0, 6.0, parent)
    own = spans.self_times()
    assert own["parent"] == [5.0]
    assert own["child"] == [3.0, 3.0]
