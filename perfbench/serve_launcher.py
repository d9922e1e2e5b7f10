"""Run the verification service in its own process for the benchmark.

Usage: ``python3 serve_launcher.py --trace 0|1`` with the program's
``src`` directory on ``PYTHONPATH``.  Prints ``{"port": N}`` once the
server listens, then obeys one command per stdin line:

``on``     switch span recording on and mark every tenant's counters;
``off``    switch it off and take the counters' difference since ``on``;
``probe``  time the host-speed probe here and print ``{"probe": s}``;
``stop``   (or end of input) shut down, print the result object, exit.

With ``--trace 1`` the layers are wrapped before the server is built,
switched off; ``on``/``off`` bracket the traced part of the run.  The
result object carries the process's peak RSS, the span totals and, per
tenant, the work the tree really did between ``on`` and ``off``: its
``stats`` counters, untrusted-memory reads, writes and bytes, digests
and the batcher's combining counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
from typing import Dict

import hostspeed


def _native_counters(forest) -> Dict[str, dict]:
    counters = {}
    for name in forest.names():
        tenant = forest.get(name)
        entry = {f"tree.{key}": value
                 for key, value in tenant.verifier.tree.stats.counters.items()}
        entry["memory.reads"] = tenant.memory.reads
        entry["memory.writes"] = tenant.memory.writes
        for key, value in tenant.batcher.counters().items():
            entry[f"batch.{key}"] = value
        counters[name] = entry
    return counters


def _instance_counts(forest, tracer) -> Dict[str, dict]:
    """Per-tenant totals of the tracer's per-instance counters."""
    owners = {}
    for name in forest.names():
        tenant = forest.get(name)
        tree = tenant.verifier.tree
        owners[id(tree.hash_fn)] = name
        if getattr(tree, "mac", None) is not None:
            owners[id(tree.mac)] = name
        owners[id(tenant.memory)] = name
    result: Dict[str, dict] = {}
    for key, value in tracer.counts.items():
        if isinstance(key, tuple) and key[1] in owners:
            entry = result.setdefault(owners[key[1]], {})
            entry[key[0]] = entry.get(key[0], 0) + value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        import layers
        tracer = layers.install_serve(enabled=False)

    from repro.serve.forest import TreeForest
    from repro.serve.service import make_serve_server

    forest = TreeForest(max_tenants=16)
    server = make_serve_server(forest)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)

    marked: Dict[str, dict] = {}
    work: Dict[str, dict] = {}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "on":
                marked = _native_counters(forest)
                if tracer is not None:
                    tracer.reset()
                    tracer.enabled = True
            elif command == "off":
                if tracer is not None:
                    tracer.enabled = False
                now = _native_counters(forest)
                work = {
                    name: {key: value - marked.get(name, {}).get(key, 0)
                           for key, value in counters.items()}
                    for name, counters in now.items()
                }
                if tracer is not None:
                    for name, extra in _instance_counts(forest,
                                                        tracer).items():
                        work.setdefault(name, {}).update(extra)
            elif command == "probe":
                print(json.dumps({"probe": hostspeed.probe()}), flush=True)
                continue
            elif command == "stop":
                break
            print(json.dumps({"ack": command}), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    result = {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": work,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counts"] = {key: value for key, value in tracer.counts.items()
                            if isinstance(key, str)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
