"""Socket server with one dynamic resident, for the wire_readwrite workload.

``repro serve`` has no flag for a dynamic resident, so this script builds
the same front end from the public API: a thread-worker ``QueryServer``
with the CLI's serving defaults, the graph made resident through
``register_dynamic_graph``, and a ``NetServer`` on an ephemeral port.  It
prints ``listening on HOST:PORT`` when ready, drains on SIGTERM, writes
``QueryServer.stats()`` as JSON to stderr and exits with ``128 + signum``.

Run from the root of a checkout::

    python3 perfbench/serve_dynamic.py dyn=graph.edges
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.service import QueryServer  # noqa: E402
from repro.service.net import NetServer  # noqa: E402
from repro.workloads.io import read_edge_list  # noqa: E402


def main(argv: list) -> int:
    server = QueryServer(workers=2, max_batch=16, linger_s=0.002, queue_limit=256)
    for spec in argv:
        graph_id, _, path = spec.partition("=")
        server.register_dynamic_graph(graph_id, read_edge_list(path))
    server.start()
    net = NetServer(server)

    async def run() -> int:
        await net.start()
        print(f"listening on {net.host}:{net.port}", flush=True)
        return await net.run()

    signum = asyncio.run(run())
    print(json.dumps(server.stats(), indent=2, default=str), file=sys.stderr)
    return 128 + signum if signum else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
