"""The repo benchmark: four workloads run against the program from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solo_sssp_large --seed 1 --seconds 10 --trace 0

Workloads: ``solo_sssp_large``, ``apsp_batch``, ``wire_read`` and
``wire_readwrite`` (see README.md).  Every answer is checked against
``scipy.sparse.csgraph`` and against properties the spiking method must
have.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The traced run also writes a Chrome trace to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import time


def _process_started() -> float:
    """``time.perf_counter()`` as it would have read when this process
    started, so set-up time includes interpreter start and imports."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.perf_counter() - age


STARTED = _process_started()

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench import inputs, reference, wire  # noqa: E402
from perfbench.spans import Spans  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
CONNECTIONS = 2
WINDOW = 8


class Outcome:
    """What one run found: operation counts, checks and metric values."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check = reference.Checker()
        self.metrics: Dict[str, float] = {}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def write_trace(spans: Spans, workload: str, seed: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    spans.write_chrome(path, process_name=workload)
    print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    base = median(untraced)
    return (median(traced) / base - 1.0) * 100.0 if base else 0.0


# ---------------------------------------------------------------------- #
# solo_sssp_large and apsp_batch: the program runs in inproc.py


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "inproc.py"), workload, str(seed),
         str(seconds), "1" if trace else "0"],
        cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    answers = []
    info: Optional[dict] = None
    try:
        while True:
            try:
                msg = pickle.load(proc.stdout)
            except EOFError:
                break
            if msg[0] == "ready":
                out.metrics["setup_s"] = time.perf_counter() - STARTED
            elif msg[0] == "answer":
                answers.append(msg[1:])
            else:
                info = msg[1]
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or info is None or "setup_s" not in out.metrics:
        raise RuntimeError(f"{workload} program process failed (exit code {code})")

    if workload == "solo_sssp_large":
        graph = inputs.solo_graph(seed)
        want = reference.distances(reference.csr(graph), [a[0] for a in answers])
    else:
        graph = inputs.apsp_graph(seed)
        want = reference.distances(reference.csr(graph), None)
    degree = reference.out_degrees(graph)
    for i, (source, dist, ticks, spikes, deliveries, _lat, traced) in enumerate(answers):
        row = want[i] if workload == "solo_sssp_large" else want
        what = f"{workload} op {i}" + (f" source {source}" if source is not None else "")
        out.check.same(dist, row, what + (" (traced)" if traced else ""))
        out.check.run_properties(row, degree, spikes=spikes, ticks=ticks,
                                 deliveries=deliveries, what=what)
    out.attempted = len(answers)

    latencies = [a[5] for a in answers if not a[6]]
    rows = 1 if workload == "solo_sssp_large" else graph[0]
    out.metrics["queries_per_s"] = rows * median_rate(list(np.cumsum(info["walls"])), 0.0)
    out.metrics["read_latency_p50_ms"] = median(latencies) * 1e3
    out.metrics["peak_rss_mb"] = info["peak_rss_mb"]
    if trace:
        spans = Spans()
        spans.records = info["spans"]
        traced = [a for a in answers if a[6]]
        layer_metrics_inproc(out, workload, info, spans, traced, latencies, rows)
        write_trace(spans, workload, seed)
    return out


def layer_metrics_inproc(out: Outcome, workload: str, info: dict, spans: Spans,
                         traced: list, untraced_latencies: List[float], rows: int) -> None:
    own = spans.self_times()
    m = out.metrics
    m["algorithms.build_s"] = own["algorithms.build"][0]
    if "core.sparse.csr_build" in own:
        m["core.sparse.csr_build_s"] = own["core.sparse.csr_build"][0]
    m["algorithms.plan_ms"] = median(own["algorithms.plan"]) / rows * 1e3
    m["algorithms.decode_ms"] = median(own["algorithms.decode"]) / rows * 1e3
    m["core.engine.ticks"] = median(a[2] for a in traced) / rows
    m["core.engine.spikes"] = median(a[3] for a in traced) / rows
    m["core.engine.deliveries"] = median(a[4] for a in traced) / rows
    if workload == "solo_sssp_large":
        sim = own["core.engine.simulate"]
        m["core.engine.simulate_ms"] = median(sim) * 1e3
        m["core.engine.ns_per_delivery"] = median(
            t / a[4] * 1e9 for t, a in zip(sim, traced))
    else:
        sim = own["core.batch.simulate"]
        m["core.batch.simulate_s"] = median(sim)
        m["core.batch.ns_per_delivery"] = median(
            t / a[4] * 1e9 for t, a in zip(sim, traced))
        m["algorithms.decode_s"] = median(own["algorithms.decode"])
    cache = info["build_cache"]
    lookups = cache["hits"] + cache["misses"]
    m["core.cache.build_lookups"] = lookups
    m["core.cache.build_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    m["trace.overhead_pct"] = overhead_pct(untraced_latencies, [a[5] for a in traced])


# ---------------------------------------------------------------------- #
# wire_read and wire_readwrite: the program is a socket server


def is_read(op: dict) -> bool:
    return op["kind"] in ("sssp", "khop", "apsp")


def check_read(check: reference.Checker, ex: wire.Exchange, want: np.ndarray,
               degree: np.ndarray, what: str) -> None:
    got = reference.answer_array(ex.op, ex.answer)
    if not check.same(got, want, f"{what} {ex.op}"):
        return
    cost = ex.answer.get("cost") or {}
    check.run_properties(want, degree, spikes=cost.get("spikes"),
                         ticks=cost.get("simulated_ticks"), what=f"{what} {ex.op}")


def timed_wire(host: str, port: int, ops, seconds: float, trace: bool) -> tuple:
    """The closed loop; with ``trace``, an untraced first half and a
    traced second half.  Returns ``(untraced, traced, rate)``, ``rate``
    being the untraced part's completions per second (see
    :func:`median_rate`)."""
    span = seconds / 2 if trace else seconds
    untraced, start = wire.closed_loop(host, port, ops, connections=CONNECTIONS,
                                       window=WINDOW, seconds=span)
    rate = median_rate([ex.done for ex in untraced], start, start + span)
    traced = []
    if trace:
        traced, _start = wire.closed_loop(host, port, ops, connections=CONNECTIONS,
                                          window=WINDOW, seconds=span)
    return untraced, traced, rate


def median_rate(done: List[float], start: float, stop: float = float("inf")) -> float:
    """Completions per second, as the median over about 20 blocks of
    consecutive completions of each block's size over its duration.
    Completions after ``stop`` (requests still in flight at the deadline)
    are left out.  A median keeps a short burst of contention on a shared
    host from moving the rate."""
    done = sorted(t for t in done if t <= stop)
    k = max(1, len(done) // 20)
    edges = [start] + done[k - 1::k]
    return median(k / (hi - lo) for lo, hi in zip(edges, edges[1:]))


def add_wire_spans(spans: Spans, exchanges: List[wire.Exchange]) -> None:
    """Client span per request; the server-reported queue and service
    intervals nest under it, placed as if the wire time split evenly
    between the request and the answer."""
    for ex in exchanges:
        rid = ex.answer.get("request_id")
        lane = 1 + int(rid.split("-")[0][1:])
        parent = spans.add(f"wire.{ex.op['kind']}", ex.sent, ex.done, request_id=rid, lane=lane)
        q = float(ex.answer.get("queued_s", 0.0))
        s = float(ex.answer.get("service_s", 0.0))
        begin = ex.sent + max(ex.latency_s - q - s, 0.0) / 2
        if q:
            spans.add("service.queue", begin, begin + q, parent, rid, lane)
        if s:
            spans.add("service.service", begin + q, begin + q + s, parent, rid, lane)


def admission_layers(out: Outcome, graphs: Dict[str, inputs.Graph], spans: Spans) -> None:
    """Build each resident's networks and run the admission analyses on
    them, as the server does for a resident it has not seen."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.algorithms.reach import khop_reach_network
    from repro.algorithms.sssp_pseudo import sssp_network
    from repro.staticcheck.rules import lint_network
    from repro.staticcheck.temporal import analyze_temporal
    from repro.workloads.graph import WeightedDigraph

    for gid, graph in sorted(graphs.items()):
        g = WeightedDigraph.from_arrays(*graph)
        for family, build in (("sssp", sssp_network), ("khop", khop_reach_network)):
            with spans.span("algorithms.build"):
                net = build(g)[0].compile()
            with spans.span("staticcheck.lint"):
                lint_network(net, subject=f"resident {gid!r} ({family})")
            with spans.span("staticcheck.temporal"):
                analyze_temporal(net, stimulus=list(range(net.n)))
    own = spans.self_times()
    out.metrics["algorithms.build_s"] = sum(own["algorithms.build"])
    out.metrics["staticcheck.lint_ms"] = median(own["staticcheck.lint"]) * 1e3
    out.metrics["staticcheck.temporal_ms"] = median(own["staticcheck.temporal"]) * 1e3


def wire_layer_metrics(out: Outcome, untraced: List[wire.Exchange],
                       traced: List[wire.Exchange], spans: Spans) -> None:
    m = out.metrics
    reads = [ex for ex in traced if is_read(ex.op) and ex.answer.get("status") == "ok"]
    writes = [ex for ex in traced if not is_read(ex.op) and ex.answer.get("status") == "ok"]
    simulated = [ex for ex in reads if not ex.answer.get("cached")]
    m["service.queue_ms"] = median(ex.answer["queued_s"] for ex in simulated) * 1e3
    m["service.service_ms"] = median(ex.answer["service_s"] for ex in simulated) * 1e3
    m["service.batch_size"] = float(np.mean([ex.answer["batch_size"] for ex in simulated]))
    m["service.resultcache.hit_ratio"] = (len(reads) - len(simulated)) / len(reads)
    m["service.write_service_ms"] = median(ex.answer["service_s"] for ex in writes) * 1e3
    m["service.net.wire_ms"] = median(
        ex.latency_s - ex.answer["queued_s"] - ex.answer["service_s"] for ex in reads) * 1e3
    m["service.net.frame_bytes"] = float(np.mean([ex.bytes_out + ex.bytes_in for ex in traced]))
    # wire spans are made from the exchanges afterwards, so both halves
    # of the run count towards the client's own latency figures
    all_reads = [ex.latency_s for ex in untraced + traced if is_read(ex.op)]
    m["client.reads"] = len(all_reads)
    if len(all_reads) >= 1000:  # at least 10 reads beyond p99
        m["client.read_latency_p99_ms"] = float(np.percentile(all_reads, 99)) * 1e3
    m["client.write_latency_p50_ms"] = median(
        ex.latency_s for ex in untraced + traced if not is_read(ex.op)) * 1e3
    base_reads = [ex.latency_s for ex in untraced if is_read(ex.op)]
    m["trace.overhead_pct"] = overhead_pct(base_reads, [ex.latency_s for ex in reads])
    add_wire_spans(spans, traced)


def run_wire(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    scratch = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run_wire(out, workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_wire(out: Outcome, workload: str, seed: int, seconds: float, trace: bool,
              scratch: str) -> Outcome:
    if workload == "wire_read":
        graphs = inputs.wire_graphs(seed)
        argv = [sys.executable, "-m", "repro", "serve", "--net", "--process-workers", "1",
                "--stats"]
        ops = inputs.read_ops(seed, graphs)
        warmup = inputs.warmup_ops(graphs)
    else:
        graphs = {"dyn": inputs.collapse(inputs.wire_graphs(seed)["lattice"])}
        argv = [sys.executable, os.path.join("perfbench", "serve_dynamic.py")]
        ops = inputs.readwrite_ops(seed, graphs["dyn"])
        warmup = [op for op in inputs.warmup_ops(graphs) if op["kind"] != "apsp"]
    for gid, graph in sorted(graphs.items()):
        path = os.path.join(scratch, f"{gid}.edges")
        inputs.write_edge_list(graph, path)
        argv.append(f"{gid}={path}")

    server = wire.ServerProcess(argv, root=ROOT, stderr_path=os.path.join(scratch, "server.err"),
                                env=program_env())
    try:
        warm = wire.call_all(server.host, server.port, warmup)
        out.metrics["setup_s"] = time.perf_counter() - STARTED
        untraced, traced, rate = timed_wire(server.host, server.port, ops, seconds, trace)
        final = []
        if workload == "wire_readwrite":
            final = wire.call_all(server.host, server.port,
                                  [{"kind": "sssp", "graph_id": "dyn", "source": 1}])
        out.metrics["peak_rss_mb"] = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    for problem in server.stop():
        out.check.expect(False, problem)
    stats = server.stats_json()
    out.check.expect(stats is not None, "server wrote no stats")
    stats = stats or {}

    timed = untraced + traced
    out.attempted = len(timed)
    ok = [ex for ex in timed if ex.answer.get("status") == "ok"]
    out.failed = len(timed) - len(ok)
    for ex in timed:
        if ex.answer.get("status") != "ok":
            print(f"failed: {ex.op} -> {ex.answer}", file=sys.stderr)
    for ex in warm + final:
        out.check.expect(ex.answer.get("status") == "ok", f"warm-up/final {ex.op}: {ex.answer}")

    if workload == "wire_read":
        ref = reference.StaticReference(graphs)
        for ex in warm + ok:
            check_read(out.check, ex, ref.expected(ex.op), ref.degree[ex.op["graph_id"]], "read")
    else:
        check_readwrite(out.check, graphs["dyn"], warm + ok, final)

    reads = [ex for ex in untraced if is_read(ex.op)]
    out.metrics["queries_per_s"] = rate
    out.metrics["read_latency_p50_ms"] = median(ex.latency_s for ex in reads) * 1e3
    if trace:
        spans = Spans()
        admission_layers(out, graphs, spans)
        wire_layer_metrics(out, untraced, traced, spans)
        counters = stats.get("server", stats.get("metrics", {})).get("counters", {})
        writes = sum(1 for ex in ok if not is_read(ex.op))
        if writes:
            analyses = counters.get("service.lint.checked", 0) + counters.get(
                "service.temporal.analyzed", 0)
            out.metrics["staticcheck.analyses_per_write"] = analyses / writes
        out.metrics["service.net.procpool.jobs"] = counters.get("service.proc.batches", 0)
        if "build_cache" in stats:
            cache = stats["build_cache"]
            lookups = cache["hits"] + cache["misses"]
            out.metrics["core.cache.build_lookups"] = lookups
            out.metrics["core.cache.build_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        for dyn in stats.get("dynamic", {}).values():
            for key in ("weight_patches", "vector_recompiles", "temporal_repropagations"):
                out.metrics[f"dynamic.recompile.{key}"] = dyn["recompile"][key]
        write_trace(spans, workload, seed)
    return out


def check_readwrite(check: reference.Checker, graph: inputs.Graph,
                    done: List[wire.Exchange], final: List[wire.Exchange]) -> None:
    """Writes carry distinct consecutive versions; each read matches the
    graph as it stood at the version its answer carries; the final read
    matches the benchmark's own copy after the last write."""
    writes = sorted((ex for ex in done if not is_read(ex.op)),
                    key=lambda ex: ex.answer.get("graph_version", -1))
    versions = [ex.answer.get("graph_version") for ex in writes]
    check.expect(versions == list(range(1, len(writes) + 1)),
                 f"write versions are not 1..{len(writes)}: {versions[:10]}...")
    reads_at: Dict[int, List[wire.Exchange]] = {}
    for ex in [ex for ex in done if is_read(ex.op)] + final:
        reads_at.setdefault(ex.answer.get("graph_version"), []).append(ex)
    unknown = set(reads_at) - set(range(len(writes) + 1))
    check.expect(not unknown, f"reads carry versions no write produced: {sorted(unknown)[:5]}")
    for ex in final:
        check.expect(ex.answer.get("graph_version") == len(writes),
                     f"final read at version {ex.answer.get('graph_version')}, "
                     f"last write made {len(writes)}")
    shadow = reference.VersionedGraph(graph)
    for version in range(len(writes) + 1):
        if version:
            ex = writes[version - 1]
            problem = shadow.apply(ex.op)
            check.expect(problem is None, f"write {ex.op} invalid: {problem}")
            echo = ex.answer.get("outputs", {})
            check.expect(all(echo.get(k) == ex.op[k] for k in echo),
                         f"write {ex.op} answered {echo}")
        if version in reads_at:
            matrix = shadow.matrix()
            degree = np.bincount(np.array(list(shadow.edges), dtype=np.int64)[:, 0],
                                 minlength=shadow.n) if shadow.edges else np.zeros(shadow.n, int)
            for ex in reads_at[version]:
                check_read(check, ex, reference.expected_answer(ex.op, matrix), degree,
                           f"read at v{version}")


# ---------------------------------------------------------------------- #

WORKLOADS = {
    "solo_sssp_large": run_inproc,
    "apsp_batch": run_inproc,
    "wire_read": run_wire,
    "wire_readwrite": run_wire,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2

    out = WORKLOADS[args.workload](args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in out.check.failures[:20]:
        print(f"MISMATCH {failure}", file=sys.stderr)
    print(f"{out.check.checked} checks, {len(out.check.failures)} mismatches, "
          f"{out.failed}/{out.attempted} operations failed", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    # a layer metric the workload does not exercise reads 0; an end-to-end
    # metric is measured on every workload
    metrics = {
        m["name"]: {
            "value": float(out.metrics.get(m["name"], 0.0) if args.trace else out.metrics[m["name"]]),
            "unit": m["unit"],
        }
        for m in declared
    }
    print(json.dumps({
        "correct": out.check.ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
