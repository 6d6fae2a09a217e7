"""Program process of the solo_sssp_large and apsp_batch workloads.

``run.py`` starts this script from the root of a checkout.  It imports the
program from ``src/``, builds the workload's network, runs the timed loop
and streams each answer back over stdout as pickle frames, so the
reference computations run in the parent and stay out of this process's
peak resident set.

Messages: ``("ready",)`` once set-up is done, one ``("answer", ...)`` per
operation, then ``("done", info)``.
"""

from __future__ import annotations

import os
import pickle
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.getcwd())

import numpy as np  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench.spans import Spans  # noqa: E402
from repro.algorithms.all_pairs import all_pairs_shortest_paths  # noqa: E402
from repro.algorithms.sssp_pseudo import (  # noqa: E402
    spiking_sssp_pseudo,
    sssp_decode,
    sssp_network,
    sssp_plan,
)
from repro.core.cache import default_build_cache  # noqa: E402
from repro.core.run import simulate, simulate_batch  # noqa: E402
from repro.workloads.graph import WeightedDigraph  # noqa: E402

_OUT = sys.stdout.buffer


def send(*msg) -> None:
    pickle.dump(msg, _OUT, protocol=pickle.HIGHEST_PROTOCOL)
    _OUT.flush()


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def timed_loop(seconds: float, op, first: int = 0) -> list:
    """Call ``op(i)`` for i = first, first + 1, ... until ``seconds`` have
    passed; every call runs to its end.  Returns each call's wall time."""
    start = time.perf_counter()
    walls = []
    i = first
    while time.perf_counter() - start < seconds:
        began = time.perf_counter()
        op(i)
        walls.append(time.perf_counter() - began)
        i += 1
    return walls


def run_loop(seconds: float, trace: bool, untraced, traced) -> list:
    """The untraced loop for the whole run; with ``trace``, the untraced
    loop for the first half (the overhead baseline) and the traced one
    for the second.  Returns the untraced calls' wall times."""
    if not trace:
        return timed_loop(seconds, untraced)
    walls = timed_loop(seconds / 2, untraced)
    timed_loop(seconds / 2, traced, len(walls))
    return walls


def solo(seed: int, seconds: float, trace: bool) -> dict:
    spans = Spans()
    graph = WeightedDigraph.from_arrays(*inputs.solo_graph(seed))
    with spans.span("algorithms.build"):
        net, _node_ids = sssp_network(graph)
    compiled = net.compile()
    with spans.span("core.sparse.csr_build"):
        compiled.to_sparse()
    degree = np.diff(compiled.indptr)
    sources = inputs.solo_sources(seed)
    send("ready")

    def untraced(i: int) -> None:
        s = sources[i % len(sources)]
        start = time.perf_counter()
        res = spiking_sssp_pseudo(graph, s, engine="auto")
        latency = time.perf_counter() - start
        send("answer", s, res.dist.astype(np.int32), res.sim.final_tick,
             res.sim.total_spikes, int(res.sim.spike_counts @ degree), latency, False)

    def traced(i: int) -> None:
        s = sources[i % len(sources)]
        start = time.perf_counter()
        with spans.span("sssp", request_id=f"q{i}"):
            with spans.span("algorithms.plan"):
                plan = sssp_plan(graph, s)
            with spans.span("core.engine.simulate"):
                result = simulate(
                    plan.net, list(plan.stimulus), engine="auto", max_steps=plan.max_steps,
                    terminal=plan.terminal, watch=list(plan.watch),
                )
            with spans.span("algorithms.decode"):
                res = sssp_decode(plan, result)
        latency = time.perf_counter() - start
        send("answer", s, res.dist.astype(np.int32), res.sim.final_tick,
             res.sim.total_spikes, int(res.sim.spike_counts @ degree), latency, True)

    return {"walls": run_loop(seconds, trace, untraced, traced), "spans": spans.records}


def apsp(seed: int, seconds: float, trace: bool) -> dict:
    spans = Spans()
    graph = WeightedDigraph.from_arrays(*inputs.apsp_graph(seed))
    with spans.span("algorithms.build"):
        net, _node_ids = sssp_network(graph)
    compiled = net.compile()
    degree = np.diff(compiled.indptr)
    send("ready")

    def untraced(i: int) -> None:
        start = time.perf_counter()
        matrix, cost = all_pairs_shortest_paths(graph)
        latency = time.perf_counter() - start
        send("answer", None, matrix.astype(np.int32), cost.simulated_ticks,
             cost.spike_count, int(cost.extras["messages"]), latency, False)

    def traced(i: int) -> None:
        start = time.perf_counter()
        with spans.span("apsp", request_id=f"m{i}"):
            with spans.span("algorithms.plan"):
                plans = [sssp_plan(graph, s) for s in range(graph.n)]
            with spans.span("core.batch.simulate"):
                runs = simulate_batch(
                    plans[0].net, [list(p.stimulus) for p in plans],
                    max_steps=plans[0].max_steps, watch=list(plans[0].watch),
                )
            with spans.span("algorithms.decode"):
                rows = [sssp_decode(p, r) for p, r in zip(plans, runs)]
                matrix = np.stack([r.dist for r in rows]).astype(np.int32)
        latency = time.perf_counter() - start
        deliveries = sum(int(r.spike_counts @ degree) for r in runs)
        send("answer", None, matrix, sum(r.cost.simulated_ticks for r in rows),
             sum(r.total_spikes for r in runs), deliveries, latency, True)

    return {"walls": run_loop(seconds, trace, untraced, traced), "spans": spans.records}


def main(argv: list) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    info = {"solo_sssp_large": solo, "apsp_batch": apsp}[workload](seed, seconds, trace)
    info["peak_rss_mb"] = peak_rss_mb()
    info["build_cache"] = default_build_cache.stats()
    send("done", info)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
