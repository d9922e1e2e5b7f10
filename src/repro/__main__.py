"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    The quickstart: verified writes/reads, then a detected attack.
``attacks``
    Run the replay and MAC-forgery scenarios and print their outcomes.
``bench BENCHMARK [--scheme S] [--l2-kb N] [--block B] [--instructions N]``
    Run one simulation cell and print its metrics.
``bench --compare BENCH_measure.json [--tolerance T]``
    Perf regression gate: re-measure every cell of the committed
    baseline through the fast path and exit nonzero when any cell
    regressed by more than the tolerance (default 20%).
``bench --ratchet [--trajectory BENCH_trajectory.json]``
    Perf-trajectory ratchet: re-measure the ratchet cells, fail on
    >tolerance regression against the best committed row for this
    host, and append the fresh row (improvements tighten the floor
    automatically).
``compare BENCHMARK``
    Run all five schemes on one benchmark and print the comparison.
``experiments``
    List the paper's tables/figures and the bench target for each.
``area``
    Print the Section 6.1 hash-unit logic-overhead sizing.
``trace BENCHMARK PATH [-n N]``
    Save a deterministic instruction trace of a benchmark model.
``sweep --figure FIG [--jobs N] [--store S] [--no-cache] [--fresh]``
    Run a whole figure grid in parallel with the tiered result store
    (``--jobs 0`` = one worker per CPU; ``--store PATH|URL`` adds a
    shared L2 tier, also via ``REPRO_STORE``).  With ``--coordinator
    URL`` the grid is instead seeded onto a store-serve coordinator and
    computed by ``repro worker`` processes on any number of hosts —
    bit-identical to the local run.
``store-serve [--root DIR] [--host H] [--port P] [--lease-ttl S]``
    Serve a store directory over HTTP so several hosts can pool one
    cache (the ``--store http://host:port`` counterpart).  Also the
    coordinator of distributed sweeps: carries the work-lease board
    ``repro worker`` processes claim groups from.  SIGINT/SIGTERM shut
    it down cleanly (cost history flushed).
``worker --coordinator URL [--name N] [--exit-when-idle]``
    Claim warm groups from a coordinator, compute them, and write the
    results back — one process per core per machine scales a sweep out.
``serve [--host H] [--port P] [--max-tenants N]``
    Multi-tenant integrity-verification service: per-tenant hash trees
    (create/evict over HTTP), verified read/write, the Section 5.7 DMA
    discipline, and batched reads that share verification walks.
``loadgen [--url URL] [--tenants N] [--threads N] [--requests N]``
    Mixed-tenant load generator against a serve front end (or an
    in-process one when --url is omitted): latency percentiles,
    batch-amortization ratio, and a byte-identity diff against direct
    MemoryVerifier replay, recorded into BENCH_serve.json.
``cache prune [--cache-dir DIR] [--store S] [--tmp-only]``
    Remove stale ``*.json.tmp*`` droppings and unreadable/schema-
    mismatched entries, reporting reclaimed bytes.
``check [PATHS ...] [--format text|github] [--selftest] [--list-rules]
[--verbose] [--baseline FILE [--update-baseline]]``
    Static-analysis gate: determinism, snapshot-completeness,
    counter-symmetry, scheme-API conformance, lock-discipline and
    lock-ordering passes.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import EXPERIMENTS
from .common import KB, SchemeKind, table1_config
from .sim import run_benchmark
from .workloads import BENCHMARK_ORDER


def _cmd_demo(_args) -> int:
    from .common import IntegrityError
    from .hashtree import MemoryVerifier
    from .memory import UntrustedMemory

    memory = UntrustedMemory(1 << 20)
    verifier = MemoryVerifier(memory, data_bytes=64 * 1024, scheme="chash")
    verifier.initialize()
    verifier.write(0, b"verified!")
    print("wrote and read back:", verifier.read(0, 9).decode())
    memory.poke(verifier.physical_address(0), b"X")
    for chunk in range(verifier.layout.total_chunks):
        verifier.tree.invalidate_chunk(chunk)
    try:
        verifier.read(0, 9)
        print("BUG: tampering missed")
        return 1
    except IntegrityError as error:
        print("tampering detected:", error)
    return 0


def _cmd_attacks(_args) -> int:
    from .attacks import (
        forge_chosen_value,
        forge_stale_value,
        run_loop_attack_on_xom,
    )

    outcome = run_loop_attack_on_xom()
    print(f"XOM loop rewind: leaked {len(outcome.leaked)} words "
          f"(intended {outcome.intended_iterations}) — "
          f"{'UNDETECTED' if not outcome.detected else 'detected'}")
    for name, attack in (("stale-value forgery", forge_stale_value),
                         ("chosen-value forgery", forge_chosen_value)):
        plain = attack(use_timestamps=False)
        fixed = attack(use_timestamps=True)
        print(f"{name}: without timestamps -> "
              f"{'FORGED' if plain.succeeded else 'detected'}; "
              f"with timestamps -> "
              f"{'FORGED' if fixed.succeeded else 'detected'}")
    return 0


def _one_cell(args) -> int:
    if args.ratchet:
        from .analysis import ratchet_bench
        lines, ok = ratchet_bench(args.trajectory, tolerance=args.tolerance)
        print("\n".join(lines))
        return 0 if ok else 1
    if args.compare:
        from .analysis import compare_bench
        try:
            lines, ok = compare_bench(args.compare, tolerance=args.tolerance)
        except (OSError, ValueError, KeyError) as error:
            print(f"bench --compare: unusable baseline {args.compare}: "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 0 if ok else 1
    if args.benchmark is None:
        print("bench: BENCHMARK is required unless --compare or --ratchet "
              "is given", file=sys.stderr)
        return 2
    scheme = SchemeKind(args.scheme)
    config = table1_config(scheme)
    if args.l2_kb or args.block:
        config = config.with_l2(
            size_bytes=args.l2_kb * KB if args.l2_kb else None,
            block_bytes=args.block or None,
        )
    result = run_benchmark(config, args.benchmark,
                           instructions=args.instructions)
    print(result.summary())
    print(f"  cycles={result.cycles}  memory bytes={result.memory_bytes:.0f}  "
          f"hash bytes={result.hash_memory_read_bytes:.0f}")
    return 0


def _cmd_compare(args) -> int:
    results = {}
    for scheme in SchemeKind:
        config = table1_config(scheme)
        results[scheme] = run_benchmark(config, args.benchmark,
                                        instructions=args.instructions)
        print(results[scheme].summary())
    base = results[SchemeKind.BASE]
    print()
    for scheme in SchemeKind:
        if scheme is SchemeKind.BASE:
            continue
        result = results[scheme]
        print(f"{scheme.value:6s}: overhead {result.overhead_percent(base):6.1f}%  "
              f"slowdown {result.slowdown(base):5.2f}x  "
              f"extra reads/miss {result.extra_reads_per_miss:5.2f}")
    return 0


def _cmd_experiments(_args) -> int:
    for experiment in EXPERIMENTS.values():
        print(f"{experiment.paper_label:10s} -> {experiment.bench_target}")
        print(f"    {experiment.description}")
    return 0


def _cmd_area(_args) -> int:
    from .hashengine.area import logic_overhead_report
    print(logic_overhead_report())
    return 0


def _cmd_sweep(args) -> int:
    import os

    from .analysis import sweep_ipc_table
    from .sim.sweep import STORE_ENV, build_store, figure_cells, run_cells

    try:
        cells = figure_cells(args.figure, benchmarks=args.benchmarks,
                             instructions=args.instructions)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if args.coordinator:
        return _sweep_distributed(args, cells, sweep_ipc_table)
    store_spec = args.store if args.store is not None \
        else os.environ.get(STORE_ENV)
    cache = None if args.no_cache else build_store(args.cache_dir, store_spec)
    if args.prune_tmp and cache is not None:
        pruned = cache.prune(remove_entries=False)
        if pruned.removed:
            print(f"pruned {pruned.removed} tmp dropping(s), reclaimed "
                  f"{pruned.reclaimed_bytes} bytes")

    def progress(outcome) -> None:
        if outcome.source == "cached":
            tier = "L2 shared" if outcome.tier == "shared" else "L1 local"
            print(f"  [cached {tier:6s}] {outcome.spec.label()}")
        elif outcome.source == "failed":
            print(f"  [FAILED       ] {outcome.spec.label()}: {outcome.error}")
        elif outcome.warm_s or outcome.measure_s:
            # warm column is the shared group warm-up, charged to the cell
            # that performed it; snapshot reusers show warm 0.00s
            print(f"  [run {outcome.elapsed_s:7.2f}s "
                  f"(warm {outcome.warm_s:6.2f}s + "
                  f"measure {outcome.measure_s:6.2f}s)] "
                  f"{outcome.spec.label()}")
        else:
            print(f"  [run {outcome.elapsed_s:7.2f}s ] {outcome.spec.label()}")

    report = run_cells(cells, jobs=args.jobs, cache=cache, fresh=args.fresh,
                       progress=progress, share_warm=not args.no_warm_share)
    print()
    print(sweep_ipc_table(report, title=f"{args.figure}: IPC"))
    print()
    print(report.summary())
    if cache is not None:
        for line in cache.counter_lines():
            print(f"store {line}")
    return 1 if report.failed else 0


def _sweep_distributed(args, cells, sweep_ipc_table) -> int:
    """The ``sweep --coordinator URL`` path: seed, wait, report."""
    from .sim.sweep import CoordinatorError, run_distributed

    def progress(outcome) -> None:
        if outcome.source == "cached":
            tier = "L2 shared" if outcome.tier == "shared" else "L1 local"
            print(f"  [cached {tier:6s}] {outcome.spec.label()}")
        elif outcome.source == "failed":
            print(f"  [FAILED       ] {outcome.spec.label()}: "
                  f"{outcome.error}")
        else:
            where = f" @{outcome.worker}" if outcome.worker else ""
            print(f"  [run {outcome.elapsed_s:7.2f}s{where}] "
                  f"{outcome.spec.label()}")

    if args.no_cache:
        print("sweep: --no-cache is ignored with --coordinator (the "
              "coordinator *is* the result store)", file=sys.stderr)
    try:
        report = run_distributed(
            cells,
            args.coordinator,
            cache_dir=args.cache_dir,
            fresh=args.fresh,
            lease_ttl_s=args.lease_ttl,
            progress=progress,
        )
    except (CoordinatorError, OSError) as error:
        print(f"sweep: coordinator {args.coordinator} failed: {error}",
              file=sys.stderr)
        return 2
    print()
    print(sweep_ipc_table(report, title=f"{args.figure}: IPC"))
    print()
    print(report.summary())
    return 1 if report.failed else 0


def _cmd_worker(args) -> int:
    from .sim.sweep import run_worker

    try:
        return run_worker(
            args.coordinator,
            cache_dir=args.cache_dir,
            name=args.name,
            poll_s=args.poll,
            exit_when_idle=args.exit_when_idle,
            max_groups=args.max_groups,
            log=print,
        )
    except KeyboardInterrupt:
        return 130


def _cmd_store_serve(args) -> int:
    import signal
    import threading

    from .sim.sweep import make_store_server

    try:
        server = make_store_server(args.root, host=args.host, port=args.port,
                                   work=not args.no_work,
                                   lease_ttl_s=args.lease_ttl)
    except OSError as error:
        print(f"store-serve: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    role = "coordinator + result store" if not args.no_work \
        else "result store"
    print(f"serving {role} {args.root} at http://{host}:{port} "
          f"(point sweeps at it with --store/--coordinator or REPRO_STORE; "
          f"Ctrl-C stops)")

    # serve_forever runs in a helper thread so the main thread can wait
    # on a signal-driven event: SIGINT and SIGTERM both stop the server
    # cleanly and flush the batched cost history before exit.
    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _request_stop)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        thread.join(timeout=5.0)
        server.store.flush_costs()
        server.server_close()
    print("store-serve: shut down cleanly (cost history flushed)")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .serve import TreeForest, make_serve_server

    forest = TreeForest(max_tenants=args.max_tenants)
    try:
        server = make_serve_server(forest, host=args.host, port=args.port)
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"serving tree forest at http://{host}:{port} "
          f"(up to {args.max_tenants} tenants; POST /tenants to create; "
          f"Ctrl-C stops)")

    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _request_stop)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
    print("serve: shut down cleanly")
    return 0


def _cmd_loadgen(args) -> int:
    from .serve import run_loadgen
    from .serve.loadgen import format_report

    try:
        report = run_loadgen(
            base_url=args.url,
            tenants=args.tenants,
            threads=args.threads,
            requests=args.requests,
            spans_per_read=args.spans,
            data_bytes=args.data_kb * KB,
            seed=args.seed,
            output=None if args.no_output else args.output,
        )
    except (OSError, ValueError) as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 2
    print("\n".join(format_report(report)))
    if not args.no_output:
        print(f"recorded -> {args.output}")
    return 0 if report["diff_ok"] else 1


def _cmd_cache(args) -> int:
    import os

    from .sim.sweep import STORE_ENV, build_store

    if args.action != "prune":  # argparse enforces; belt and braces
        print(f"cache: unknown action {args.action!r}", file=sys.stderr)
        return 2
    store_spec = args.store if args.store is not None \
        else os.environ.get(STORE_ENV)
    store = build_store(args.cache_dir, store_spec)
    report = store.prune(remove_entries=not args.tmp_only)
    print(f"cache prune ({store.describe()}): {report.summary()}")
    return 0


def _cmd_check(args) -> int:
    from pathlib import Path

    from .checks import (
        RULES, collect_findings, diff_baseline, format_findings,
        record_baseline, run_selftest,
    )

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, description in RULES.items():
            print(f"{rule:{width}s}  {description}")
        return 0
    if args.selftest:
        ok, report = run_selftest()
        print("\n".join(report))
        return 0 if ok else 1
    # files named explicitly are linted as sim code even when they live
    # outside the default determinism scope (checks/, crypto/, tests)
    paths = [Path(p) for p in args.paths] or None
    timings = [] if args.verbose else None
    findings = collect_findings(paths=paths, assume_sim=paths is not None,
                                timings=timings)
    if timings:
        total = sum(dt for _name, dt in timings)
        for name, dt in timings:
            print(f"  {name:<14s} {dt * 1000:7.1f} ms", file=sys.stderr)
        print(f"  {'total':<14s} {total * 1000:7.1f} ms", file=sys.stderr)

    baseline = Path(args.baseline) if args.baseline else None
    if baseline is not None:
        if args.update_baseline or not baseline.exists():
            count = record_baseline(findings, baseline)
            print(f"repro check: baseline of {count} finding(s) "
                  f"written to {baseline}")
            return 0
        new, stale = diff_baseline(findings, baseline)
        for path, rule, message in stale:
            print(f"stale baseline entry: {path}: [{rule}] {message}",
                  file=sys.stderr)
        if new:
            print(format_findings(sorted(new), args.format))
            print(f"\nrepro check: {len(new)} new finding(s) not in "
                  f"baseline {baseline}", file=sys.stderr)
            return 1
        suffix = f" ({len(stale)} stale baseline entries to prune)" \
            if stale else ""
        print(f"repro check: clean against baseline {baseline}{suffix}")
        return 0

    if findings:
        print(format_findings(findings, args.format))
        print(f"\nrepro check: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("repro check: clean")
    return 0


def _cmd_trace(args) -> int:
    from .workloads import save_trace, spec_workload
    count = save_trace(spec_workload(args.benchmark, args.n, args.seed),
                       args.path)
    print(f"wrote {count} instructions of {args.benchmark!r} to {args.path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo")
    sub.add_parser("attacks")
    sub.add_parser("experiments")
    sub.add_parser("area")

    bench = sub.add_parser("bench")
    bench.add_argument("benchmark", nargs="?", default=None,
                       choices=BENCHMARK_ORDER)
    bench.add_argument("--scheme", default="chash",
                       choices=[s.value for s in SchemeKind])
    bench.add_argument("--l2-kb", type=int, default=0)
    bench.add_argument("--block", type=int, default=0)
    bench.add_argument("--instructions", type=int, default=12_000)
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="perf regression gate: re-measure every cell "
                            "of this BENCH_measure.json baseline and exit "
                            "nonzero on any regression beyond --tolerance")
    bench.add_argument("--ratchet", action="store_true",
                       help="perf-trajectory ratchet: compare against the "
                            "best committed row for this host, "
                            "append the fresh measurements, exit nonzero "
                            "on any regression beyond --tolerance")
    bench.add_argument("--trajectory", default="BENCH_trajectory.json",
                       metavar="PATH",
                       help="trajectory file for --ratchet "
                            "(default: BENCH_trajectory.json)")
    bench.add_argument("--tolerance", type=float, default=0.20,
                       help="allowed per-cell slowdown for --compare / "
                            "--ratchet (default: 0.20 = 20%%)")

    compare = sub.add_parser("compare")
    compare.add_argument("benchmark", choices=BENCHMARK_ORDER)
    compare.add_argument("--instructions", type=int, default=12_000)

    sweep = sub.add_parser("sweep")
    sweep.add_argument("--figure", default="fig3",
                       help="fig3..fig8, or 'all' (default: fig3)")
    sweep.add_argument("--benchmarks", nargs="*", default=None,
                       choices=BENCHMARK_ORDER,
                       help="subset of benchmarks (default: all nine)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1; 0 = one per CPU)")
    sweep.add_argument("--instructions", type=int, default=12_000)
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result store entirely")
    sweep.add_argument("--fresh", action="store_true",
                       help="ignore cached results but store new ones")
    sweep.add_argument("--no-warm-share", action="store_true",
                       help="warm every cell from scratch instead of "
                            "sharing warm-state snapshots per warm key")
    sweep.add_argument("--cache-dir", default=None,
                       help="local (L1) store root (default: .repro_cache)")
    sweep.add_argument("--store", default=None, metavar="PATH|URL",
                       help="shared (L2) store: a shared-filesystem path "
                            "or an http(s)://host:port store-serve "
                            "coordinator (default: $REPRO_STORE, else "
                            "local-only)")
    sweep.add_argument("--prune-tmp", action="store_true",
                       help="remove stale *.json.tmp* droppings from the "
                            "store before sweeping")
    sweep.add_argument("--coordinator", default=None, metavar="URL",
                       help="distribute the sweep: seed the grid onto this "
                            "store-serve coordinator and wait for repro "
                            "worker processes to compute it (--jobs and "
                            "--no-warm-share do not apply; results are "
                            "bit-identical to a local run)")
    sweep.add_argument("--lease-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="with --coordinator: lease time-to-live to "
                            "configure on the board (default: keep the "
                            "coordinator's setting)")

    serve = sub.add_parser("store-serve")
    serve.add_argument("--root", default=".repro_store",
                       help="store directory to serve "
                            "(default: .repro_store)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; use "
                            "0.0.0.0 to pool across hosts)")
    serve.add_argument("--port", type=int, default=8737,
                       help="TCP port (default: 8737; 0 = ephemeral)")
    serve.add_argument("--lease-ttl", type=float, default=60.0,
                       metavar="SECONDS",
                       help="work-lease time-to-live: how long a silent "
                            "worker keeps a claimed group before it is "
                            "requeued (default: 60)")
    serve.add_argument("--no-work", action="store_true",
                       help="serve cell entries only, without the "
                            "distributed-sweep work-lease board")

    worker = sub.add_parser("worker")
    worker.add_argument("--coordinator", required=True, metavar="URL",
                        help="store-serve coordinator to claim work from")
    worker.add_argument("--name", default=None,
                        help="worker name for the coordinator's accounting "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--cache-dir", default=None,
                        help="local (L1) store root "
                             "(default: .repro_cache)")
    worker.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS",
                        help="idle poll interval (default: 0.5)")
    worker.add_argument("--exit-when-idle", action="store_true",
                        help="exit once the board has been seeded and "
                             "fully drained instead of polling forever")
    worker.add_argument("--max-groups", type=int, default=None, metavar="N",
                        help="exit after completing N groups "
                             "(default: unlimited)")

    serve_cmd = sub.add_parser("serve")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8747,
                           help="TCP port (default: 8747; 0 = ephemeral)")
    serve_cmd.add_argument("--max-tenants", type=int, default=64,
                           help="tenant capacity of the forest "
                                "(default: 64)")

    loadgen = sub.add_parser("loadgen")
    loadgen.add_argument("--url", default=None, metavar="URL",
                         help="serve front end to drive (default: boot an "
                              "in-process one on a loopback port)")
    loadgen.add_argument("--tenants", type=int, default=4,
                         help="tenants to create, schemes assigned "
                              "round-robin (default: 4)")
    loadgen.add_argument("--threads", type=int, default=8,
                         help="concurrent client threads (default: 8)")
    loadgen.add_argument("--requests", type=int, default=2000,
                         help="total requests across all threads "
                              "(default: 2000)")
    loadgen.add_argument("--spans", type=int, default=8,
                         help="spans per vectored read (default: 8)")
    loadgen.add_argument("--data-kb", type=int, default=16,
                         help="protected segment per tenant in KiB "
                              "(default: 16)")
    loadgen.add_argument("--seed", type=int, default=1,
                         help="deterministic op-mix seed (default: 1)")
    loadgen.add_argument("--output", default="BENCH_serve.json",
                         metavar="PATH",
                         help="trajectory-schema results file "
                              "(default: BENCH_serve.json)")
    loadgen.add_argument("--no-output", action="store_true",
                         help="report only; do not append a results row")

    cache_cmd = sub.add_parser("cache")
    cache_cmd.add_argument("action", choices=["prune"],
                           help="prune: delete tmp droppings and "
                                "unreadable/schema-mismatched entries")
    cache_cmd.add_argument("--cache-dir", default=None,
                           help="local store root (default: .repro_cache)")
    cache_cmd.add_argument("--store", default=None, metavar="PATH|URL",
                           help="also prune this shared store "
                                "(default: $REPRO_STORE; HTTP stores are "
                                "pruned by their serving coordinator)")
    cache_cmd.add_argument("--tmp-only", action="store_true",
                           help="only remove tmp droppings, keep entries "
                                "that fail validation")

    check = sub.add_parser("check")
    check.add_argument("paths", nargs="*", default=[],
                       help="files to check (default: all of src/repro)")
    check.add_argument("--format", default="text",
                       choices=["text", "github"],
                       help="finding output format (github emits ::error "
                            "workflow commands for inline annotations)")
    check.add_argument("--selftest", action="store_true",
                       help="run the checker against its violation "
                            "fixtures instead of the tree")
    check.add_argument("--list-rules", action="store_true",
                       help="print every rule id with its description")
    check.add_argument("--verbose", action="store_true",
                       help="print per-pass timing to stderr")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="JSON baseline: record on first run, then "
                            "fail only on findings not in it")
    check.add_argument("--update-baseline", action="store_true",
                       help="rewrite --baseline FILE from the current "
                            "findings")

    trace = sub.add_parser("trace")
    trace.add_argument("benchmark", choices=BENCHMARK_ORDER)
    trace.add_argument("path")
    trace.add_argument("-n", type=int, default=100_000)
    trace.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "attacks": _cmd_attacks,
        "bench": _one_cell,
        "compare": _cmd_compare,
        "experiments": _cmd_experiments,
        "area": _cmd_area,
        "sweep": _cmd_sweep,
        "store-serve": _cmd_store_serve,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "cache": _cmd_cache,
        "check": _cmd_check,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
