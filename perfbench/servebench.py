"""Service workloads: one server process, two client connections.

The server is ``serve_launcher.py`` in its own process; this process
drives it through :class:`repro.serve.service.ServeClient` from two
threads, one connection each.  Client and server are pinned to one CPU
each.  A run has two phases after set-up:

* closed loop: each connection sends its next op when the last one
  returns; ``throughput`` is the median over :data:`SEGMENTS` parts of
  ops per second;
* open loop: ops are due on a fixed schedule at :data:`OPEN_RATE` per
  second, below capacity on a 2-CPU host; latency is timed from the due
  time, so a stalled connection charges the wait to every later op, and
  lateness (send minus due) shows whether the generator kept up.

Both phases have fixed op counts, sized from ``--seconds``, so a seed
fixes every tenant's op order and, on ``serve-cold`` where one
connection owns each tenant, the exact work its tree does.  Before each
part of a phase both processes run the host-speed probe
(:mod:`hostspeed`), and the part's times are scaled by it.

Output checks: every op is compared with a direct
:class:`MemoryVerifier` replay in this process (on ``serve-cold`` op by
op in order; on ``serve-hot``, whose reads never touch written bytes,
writes first), every read with a per-tenant shadow of the bytes written,
and at the end every tenant's segment is read back over HTTP and
compared with the replay and the shadow.  An op fails if it raised, was
refused where it should not be, or returned bytes that differ from the
shadow or the replay.  Every failed op makes the run incorrect, except
the known defects of the current tree on ``serve-cold`` while they stay
within their allowance (see :data:`KNOWN_DEFECT_SHARE`).
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SecureModeError
from repro.serve.forest import TenantConfig, build_tenant
from repro.serve.service import ServeClient

import hostspeed
from hostspeed import Speed
from metrics import percentile

SCHEMES = ("naive", "chash", "mhash", "ihash")
CONNECTIONS = 2
CHUNK = 64
#: bytes per write when loading a tenant's initial pattern.
LOAD_STEP = 4096
#: the closed loop runs in this many parts, the open loop in
#: ``OPEN_SEGMENTS``; the host is probed before each part.
SEGMENTS = 12
OPEN_SEGMENTS = 6


#: offered rate of the open loop, ops per second, below capacity.
OPEN_RATE = 300.0
#: share of ``--seconds`` given to the closed loop; the rest is open loop.
CLOSED_SHARE = 0.4
#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Shape:
    """One service workload."""

    data_bytes: int
    cache_chunks: int
    #: ops per second the closed loop is sized for on a 2-CPU host (its
    #: op count, not a limit).
    closed_rate: float


SHAPES = {
    # 8 KiB segments: the whole tree fits the 256-chunk trusted cache
    "serve-hot": Shape(data_bytes=8 * 1024, cache_chunks=256,
                       closed_rate=2000.0),
    # 256 KiB segments (4096 chunks) against a 64-chunk trusted cache
    "serve-cold": Shape(data_bytes=256 * 1024, cache_chunks=64,
                        closed_rate=1500.0),
}

#: serve-hot address map, in chunks: a hot window every connection reads,
#: then one private write region per connection.
HOT_CHUNKS = 16
PRIVATE_CHUNKS = 8


def _configs(shape: Shape) -> List[TenantConfig]:
    return [TenantConfig(name=f"t{index}", data_bytes=shape.data_bytes,
                         scheme=scheme, chunk_bytes=CHUNK,
                         cache_chunks=shape.cache_chunks)
            for index, scheme in enumerate(SCHEMES)]


def _pattern(seed: int, config: TenantConfig) -> bytes:
    return random.Random(f"{seed}/pattern/{config.name}").randbytes(
        config.data_bytes)


# -- operations ------------------------------------------------------------
#
# An op is a tuple: ("read", tenant, address, length),
# ("readv", tenant, spans), ("write", tenant, address, data) or
# ("dma", tenant, address, data) -- one Section 5.7 cycle: unprotect,
# unchecked store, verified read (must be refused), rebuild, read back.


def _hot_ops(seed: int, connection: int, count: int) -> List[tuple]:
    rng = random.Random(f"{seed}/hot/{connection}")
    hot_bytes = HOT_CHUNKS * CHUNK
    private = (HOT_CHUNKS + connection * PRIVATE_CHUNKS) * CHUNK
    ops = []
    for _ in range(count):
        tenant = f"t{rng.randrange(len(SCHEMES))}"
        roll = rng.random()
        if roll < 0.6:
            spans = []
            for _ in range(4):
                length = rng.randrange(1, 2 * CHUNK)
                spans.append((rng.randrange(0, hot_bytes - length + 1),
                              length))
            ops.append(("readv", tenant, spans))
        elif roll < 0.9:
            length = rng.randrange(1, CHUNK)
            ops.append(("read", tenant,
                        rng.randrange(0, hot_bytes - length + 1), length))
        else:
            length = rng.randrange(1, 17)
            address = private + rng.randrange(
                0, PRIVATE_CHUNKS * CHUNK - length + 1)
            ops.append(("write", tenant, address, rng.randbytes(length)))
    return ops


def _cold_tenant_ops(seed: int, tenant: str, data_bytes: int,
                     count: int) -> List[tuple]:
    rng = random.Random(f"{seed}/cold/{tenant}")
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.03:
            chunk = rng.randrange(data_bytes // CHUNK)
            ops.append(("dma", tenant, chunk * CHUNK, rng.randbytes(CHUNK)))
        elif roll < 0.53:
            ops.append(("write", tenant, rng.randrange(data_bytes - 16),
                        rng.randbytes(16)))
        else:
            ops.append(("read", tenant, rng.randrange(data_bytes - 16), 16))
    return ops


def _cold_ops(seed: int, connection: int, data_bytes: int,
              count: int) -> List[tuple]:
    """Connection ``c`` alone drives tenants ``c`` and ``c + 2``."""
    owned = [f"t{index}" for index in range(connection, len(SCHEMES),
                                            CONNECTIONS)]
    streams = [_cold_tenant_ops(seed, tenant, data_bytes,
                                -(-count // len(owned)))
               for tenant in owned]
    return [streams[i % len(owned)][i // len(owned)] for i in range(count)]


def _outcome(call, *args) -> Tuple[str, object]:
    try:
        return ("ok", call(*args))
    except Exception as error:  # noqa: BLE001 - the outcome is the result
        return ("error", type(error).__name__)


#: the steps of a "dma" op; an error outcome names the step that failed.
#: From ``refuse`` on, the unchecked store has landed.
DMA_STEPS = ("unprotect", "store", "refuse", "rebuild", "readback")


def execute(target, op: tuple) -> Tuple[str, object]:
    """Run one op against a client or a :class:`DirectTarget`."""
    kind, tenant = op[0], op[1]
    if kind == "read":
        return _outcome(target.read, tenant, op[2], op[3])
    if kind == "readv":
        return _outcome(target.readv, tenant, op[2])
    if kind == "write":
        return _outcome(target.write, tenant, op[2], op[3])
    address, data = op[2], op[3]
    steps = (
        (target.unprotect, (tenant, address, len(data))),
        (target.write_unchecked, (tenant, address, data)),
        (target.read, (tenant, address, 4)),
        (target.rebuild, (tenant, address, len(data))),
        (target.read, (tenant, address, len(data))),
    )
    for name, (call, args) in zip(DMA_STEPS, steps):
        status, value = _outcome(call, *args)
        if name == "refuse":
            if value != SecureModeError.__name__:
                return ("error", "refuse:not refused")
        elif status != "ok":
            return ("error", f"{name}:{value}")
    return ("ok", value)


class DirectTarget:
    """The client's call surface over local tenants, for the replay.

    Each call takes the same path through a tenant as the server's
    request handler does: reads through the tenant's batcher, the rest
    straight to its verifier.
    """

    def __init__(self, configs: List[TenantConfig]):
        self.tenants = {config.name: build_tenant(config)
                        for config in configs}

    def read(self, tenant, address, length):
        return self.tenants[tenant].batcher.read(address, length)

    def readv(self, tenant, spans):
        return self.tenants[tenant].batcher.read_many(spans)

    def write(self, tenant, address, data):
        self.tenants[tenant].verifier.write(address, data)

    def unprotect(self, tenant, address, length):
        self.tenants[tenant].verifier.unprotect_range(address, length)

    def write_unchecked(self, tenant, address, data):
        self.tenants[tenant].verifier.write_without_checking(address, data)

    def rebuild(self, tenant, address, length):
        self.tenants[tenant].verifier.rebuild_range(address, length)


class Shadow:
    """Expected bytes per tenant: the pattern plus every applied write.

    A write that raised may or may not have reached memory, so its bytes
    become unknown and are not compared until a later write covers them.
    """

    def __init__(self, patterns: Dict[str, bytes]):
        self.data = {name: bytearray(pattern)
                     for name, pattern in patterns.items()}
        self.known = {name: bytearray(b"\x01" * len(pattern))
                      for name, pattern in patterns.items()}

    def _set(self, tenant: str, address: int, data: Optional[bytes],
             length: int) -> None:
        if data is None:
            self.known[tenant][address:address + length] = bytes(length)
        else:
            self.data[tenant][address:address + length] = data
            self.known[tenant][address:address + length] = (
                b"\x01" * length)

    def _differs(self, tenant: str, address: int, got: bytes) -> bool:
        want = self.data[tenant][address:address + len(got)]
        known = self.known[tenant][address:address + len(got)]
        return any(k and g != w for g, w, k in zip(got, want, known))

    def wrong_bytes(self, op: tuple, outcome: Tuple[str, object]) -> bool:
        """Apply ``op`` if it took effect; True if it read wrong bytes."""
        kind, tenant = op[0], op[1]
        status, value = outcome
        if kind == "write":
            self._set(tenant, op[2], op[3] if status == "ok" else None,
                      len(op[3]))
            return False
        if kind == "dma":
            landed = status == "ok" or str(value).split(":")[0] in (
                "refuse", "rebuild", "readback")
            self._set(tenant, op[2], op[3] if landed else None, len(op[3]))
            return status == "ok" and value != op[3]
        if status != "ok":
            return False
        if kind == "read":
            return self._differs(tenant, op[2], value)
        return any(self._differs(tenant, address, got)
                   for (address, _), got in zip(op[2], value))


# -- the server process ------------------------------------------------------


class Server:
    """A ``serve_launcher.py`` child process and its command pipe."""

    def __init__(self, root: str, trace: bool, cpu: int):
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), here])
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(here, "serve_launcher.py"),
             "--trace", "1" if trace else "0", "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=root, text=True)
        port = json.loads(self._line())["port"]
        self.url = f"http://127.0.0.1:{port}"

    def _line(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("serve launcher exited early")
        return line

    def command(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return json.loads(self._line())

    def probe(self) -> float:
        """One host-speed probe taken in the server process."""
        return self.command("probe")["probe"]

    def stop(self) -> dict:
        """Shut the server down; returns its result object."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            result = json.loads(self._line())
        finally:
            self.kill()
        return result

    def kill(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def _setup(root: str, trace: bool, configs, patterns, speed: Speed,
           cpu: int) -> Tuple[Server, float, float]:
    """Boot a server and load every tenant.

    Returns the server, the raw seconds taken and those seconds scaled to
    the reference host by probes of this process just before and after.
    """
    before = speed.probe()
    start = time.perf_counter()
    server = Server(root, trace, cpu)
    try:
        client = ServeClient(server.url, timeout=60)
        try:
            for config in configs:
                client.create_tenant(config)
            _load(client, configs, patterns)
        finally:
            client.close()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    return server, elapsed, elapsed * (before + speed.probe()) / 2


# -- load phases -------------------------------------------------------------


class Record:
    """What happened to each op of one connection, in order."""

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self.outcomes: List[Tuple[str, object]] = []
        #: open loop only: latency scaled to the reference host, raw
        #: latency, and lateness (send minus due), in seconds
        self.latency: List[float] = []
        self.raw_latency: List[float] = []
        self.lateness: List[float] = []


def _in_threads(url: str, worker, lists, records: List[Record]) -> None:
    """Run ``worker`` once per op list, each on its own thread.

    The client's own pauses are not the service's latency: its garbage
    collector is off while the threads run, and the interpreter hands
    the lock between them every 0.5 ms instead of every 5 ms.
    """
    errors: List[BaseException] = []

    def run(index: int) -> None:
        client = ServeClient(url, timeout=60)
        try:
            worker(client, index, lists[index], records[index])
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(len(lists))]
    interval = sys.getswitchinterval()
    gc.disable()
    sys.setswitchinterval(0.0005)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
        gc.enable()
    if errors:
        raise errors[0]


def _slices(lists: List[List[tuple]], parts: int) -> List[List[List[tuple]]]:
    """Cut every connection's list into ``parts`` consecutive slices."""
    return [[ops[len(ops) * k // parts:len(ops) * (k + 1) // parts]
             for ops in lists] for k in range(parts)]


def closed_loop(url: str, lists: List[List[tuple]],
                probe) -> Tuple[List[Record], float]:
    """Run the lists closed-loop in :data:`SEGMENTS` parts, calling
    ``probe`` for a host-speed factor before each; returns the records
    and the throughput: the median over parts of ops per second, scaled
    to the reference host."""
    def worker(client, index: int, ops, record: Record) -> None:
        for op in ops:
            record.ops.append(op)
            record.outcomes.append(execute(client, op))

    records = [Record() for _ in lists]
    rates = []
    for part in _slices(lists, SEGMENTS):
        factor = probe()
        start = time.perf_counter()
        _in_threads(url, worker, part, records)
        elapsed = time.perf_counter() - start
        rates.append(sum(map(len, part)) / elapsed / factor)
    return records, statistics.median(rates)


def open_loop(url: str, lists: List[List[tuple]], rate: float,
              probe) -> Tuple[List[Record], float]:
    """Send the lists open-loop at ``rate`` ops per second in all.

    Op ``i`` of connection ``c`` is due at ``t0 + (i + c / C) * C / rate``.
    The run has :data:`OPEN_SEGMENTS` parts, each after a ``probe`` call
    that gives the factor its latencies are scaled by; the schedule
    restarts after each probe.  Returns the records and the backlog
    growth: the largest rise of median lateness from the first to the
    last quarter of one connection's part, in milliseconds.
    """
    interval = len(lists) / rate
    schedule: Dict[str, float] = {}

    def worker(client, index: int, ops, record: Record) -> None:
        t0, factor = schedule["t0"], schedule["factor"]
        for i, op in enumerate(ops):
            due = t0 + (i + index / len(lists)) * interval
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            outcome = execute(client, op)
            done = time.perf_counter()
            record.ops.append(op)
            record.outcomes.append(outcome)
            record.raw_latency.append(done - due)
            record.latency.append((done - due) * factor)
            record.lateness.append(sent - due)

    records = [Record() for _ in lists]
    growth = 0.0
    for part in _slices(lists, OPEN_SEGMENTS):
        schedule["factor"] = probe()
        schedule["t0"] = time.perf_counter() + 0.02
        marks = [len(record.lateness) for record in records]
        _in_threads(url, worker, part, records)
        for record, mark in zip(records, marks):
            lateness = record.lateness[mark:]
            quarter = max(1, len(lateness) // 4)
            rise = (statistics.median(lateness[-quarter:])
                    - statistics.median(lateness[:quarter]))
            growth = max(growth, rise * 1e3)
    return records, growth


# -- checks -----------------------------------------------------------------


def _segment_spans(config: TenantConfig) -> List[Tuple[int, int]]:
    return [(offset, min(LOAD_STEP, config.data_bytes - offset))
            for offset in range(0, config.data_bytes, LOAD_STEP)]


#: Defects of the current tree that ``serve-cold`` meets once the
#: trusted cache evicts, on every scheme but naive: false
#: ``IntegrityError``s under plain write traffic (a DMA cycle whose
#: rebuild meets one leaves its chunk unprotected, so later ops there are
#: refused with ``SecureModeError``), and now and then a read that
#: returns the bytes from before a write that succeeded.  They are
#: failed ops.  They leave the run correct while they stay within
#: :data:`KNOWN_DEFECT_SHARE` of the ops on those tenants; any other
#: failure, on any workload or tenant, makes the run incorrect.
KNOWN_DEFECT_SCHEMES = ("chash", "mhash", "ihash")
KNOWN_DEFECT_ERRORS = ("IntegrityError", "SecureModeError",
                       "rebuild:IntegrityError", "readback:IntegrityError")
#: Over 140 seeds at ``--seconds 12`` these defects hit 0.3-2.2% of the
#: ops on the three tenants (mean 1.0%; 0-3.7% of one tenant's), so a
#: change that makes them a few times more frequent fails the run.
KNOWN_DEFECT_SHARE = 0.035


class Checker:
    """Counts failed ops and wrong answers over one run.

    ``wrong``: the service answered differently from the direct replay.
    ``stale``: bytes that differ from the shadow.  ``known``: failures
    that are one of the known defects (see :data:`KNOWN_DEFECT_SCHEMES`);
    ``known_ops`` the ops they were allowed on.  :meth:`correct` is true
    only if every failure is a known defect and they stay within
    :data:`KNOWN_DEFECT_SHARE` of ``known_ops``.
    """

    def __init__(self, configs, patterns, workload: str):
        self.configs = configs
        self.shadow = Shadow(patterns)
        self.defect_prone = {config.name for config in configs
                             if workload == "serve-cold"
                             and config.scheme in KNOWN_DEFECT_SCHEMES}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.stale = 0
        self.known = 0
        self.known_ops = 0
        #: tenant -> [ops, failed ops]
        self.tenants: Dict[str, List[int]] = {
            config.name: [0, 0] for config in configs}
        self.notes: Dict[str, List[str]] = {"wrong": [], "failed": []}

    def _note(self, kind: str, text: str) -> None:
        if len(self.notes[kind]) < 4:
            self.notes[kind].append(text)

    def op(self, op: tuple, outcome, replayed) -> None:
        tenant = op[1]
        self.attempted += 1
        self.tenants[tenant][0] += 1
        prone = tenant in self.defect_prone
        self.known_ops += prone
        stale = self.shadow.wrong_bytes(op, outcome)
        differs = replayed != outcome
        self.stale += stale
        if outcome[0] == "ok" and not stale and not differs:
            return
        self.failed += 1
        self.tenants[tenant][1] += 1
        if differs:
            self.wrong += 1
            self._note("wrong", f"WRONG {op[:3]}: served {outcome!r:.60}, "
                                f"replay {replayed!r:.60}")
        elif prone and (stale or outcome[1] in KNOWN_DEFECT_ERRORS):
            self.known += 1
        else:
            what = "stale bytes" if stale else outcome[1]
            self._note("failed", f"FAILED {op[0]} {tenant} at {op[2]!s:.40}: "
                                 f"{what}")

    def correct(self) -> bool:
        return (self.failed == self.known
                and self.known <= KNOWN_DEFECT_SHARE * self.known_ops)

    def summary(self) -> List[str]:
        """Raw counts: per tenant, and of the known defects."""
        lines = [
            f"# attempted {self.attempted}, failed {self.failed}; "
            f"{self.stale} returned stale bytes; the service differs from "
            f"the direct replay on {self.wrong}",
            "# failed per tenant: " + ", ".join(
                f"{config.name} ({config.scheme}) "
                f"{self.tenants[config.name][1]}/{self.tenants[config.name][0]}"
                for config in self.configs),
        ]
        if self.defect_prone:
            lines.append(
                f"# known tree defects: {self.known} of {self.known_ops} ops "
                f"on {', '.join(sorted(self.defect_prone))}; allowed "
                f"{KNOWN_DEFECT_SHARE * self.known_ops:.0f} "
                f"({KNOWN_DEFECT_SHARE:.1%})")
        lines += [f"#   {note}" for notes in self.notes.values()
                  for note in notes]
        return lines

    def segments(self, served: Dict[str, list], direct: Dict[str, list]):
        """Full-segment diff: HTTP read-back vs replay vs shadow."""
        for config in self.configs:
            for (address, length), got, want in zip(
                    _segment_spans(config), served[config.name],
                    direct[config.name]):
                self.op(("read", config.name, address, length), got, want)


def _read_back(target, configs) -> Dict[str, list]:
    return {config.name: [execute(target, ("read", config.name, a, n))
                          for a, n in _segment_spans(config)]
            for config in configs}


def _load(target, configs, patterns) -> None:
    """Write every tenant's pattern, as the server's set-up does."""
    for config in configs:
        pattern = patterns[config.name]
        for offset in range(0, len(pattern), LOAD_STEP):
            target.write(config.name, offset,
                         pattern[offset:offset + LOAD_STEP])


def check(workload: str, configs, patterns, phases: List[List[Record]],
          served: Dict[str, list]) -> Checker:
    """Replay the run into direct verifiers and count failures."""
    checker = Checker(configs, patterns, workload)
    direct = DirectTarget(configs)
    _load(direct, configs, patterns)
    done = [(op, outcome) for records in phases for record in records
            for op, outcome in zip(record.ops, record.outcomes)]
    if workload == "serve-cold":
        # one connection per tenant: replaying in order repeats each
        # tenant's history exactly
        for op, outcome in done:
            checker.op(op, outcome, execute(direct, op))
    else:
        # reads never overlap writes and each connection writes its own
        # region, so replaying the writes first changes no answer
        replies = {index: execute(direct, op)
                   for index, (op, _) in enumerate(done) if op[0] == "write"}
        for index, (op, outcome) in enumerate(done):
            replayed = replies[index] if index in replies else execute(
                direct, op)
            checker.op(op, outcome, replayed)
    checker.segments(served, _read_back(direct, configs))
    return checker


# -- workload ----------------------------------------------------------------


def _op_lists(workload: str, shape: Shape, seed: int,
              counts: List[int]) -> List[List[List[tuple]]]:
    """Per phase, per connection op lists, continuing one stream each."""
    total = sum(counts)
    per_connection = []
    for connection in range(CONNECTIONS):
        if workload == "serve-hot":
            ops = _hot_ops(seed, connection, total)
        else:
            ops = _cold_ops(seed, connection, shape.data_bytes, total)
        per_connection.append(ops)
    phases, start = [], 0
    for count in counts:
        phases.append([ops[start:start + count] for ops in per_connection])
        start += count
    return phases


def run(workload: str, root: str, seed: int, seconds: float,
        trace: bool) -> dict:
    shape = SHAPES[workload]
    configs = _configs(shape)
    patterns = {config.name: _pattern(seed, config) for config in configs}
    closed_ops = max(1, round(shape.closed_rate * seconds * CLOSED_SHARE
                              / CONNECTIONS))
    open_ops = max(1, round(OPEN_RATE * seconds * (1 - CLOSED_SHARE)
                            / CONNECTIONS))
    if trace:
        # the same ops as an untraced run, the closed loop's first half
        # untraced, so a seed gives both runs the same work and failures
        counts = [closed_ops // 2, closed_ops - closed_ops // 2, open_ops]
    else:
        counts = [closed_ops, open_ops]
    phase_ops = _op_lists(workload, shape, seed, counts)

    # client and server each keep one CPU, so a probe of each process
    # measures the CPU that process works on
    pinned = os.sched_getaffinity(0)
    cpus = sorted(pinned)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run(workload, root, trace, shape, configs, patterns,
                    phase_ops, cpus[-1])
    finally:
        os.sched_setaffinity(0, pinned)


def _run(workload: str, root: str, trace: bool, shape: Shape, configs,
         patterns, phase_ops, server_cpu: int) -> dict:
    speed = Speed()
    setups, raw_setups = [], []
    server: Optional[Server] = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, raw, scaled = _setup(root, trace, configs, patterns, speed,
                                     server_cpu)
        raw_setups.append(raw)
        setups.append(scaled)
    assert server is not None

    def probe() -> float:
        return speed.add(hostspeed.probe(), server.probe())

    try:
        phases = []
        if trace:
            records, untraced = closed_loop(server.url, phase_ops.pop(0),
                                            probe)
            phases.append(records)
            server.command("on")
        closed, throughput = closed_loop(server.url, phase_ops[0], probe)
        opened, growth_ms = open_loop(server.url, phase_ops[1],
                                      OPEN_RATE, probe)
        phases += [closed, opened]
        server.command("off")
        client = ServeClient(server.url, timeout=60)
        try:
            served = _read_back(client, configs)
        finally:
            client.close()
    finally:
        result = server.stop()

    checker = check(workload, configs, patterns, phases, served)
    latency_ms = sorted(value * 1e3 for record in opened
                        for value in record.latency)
    raw_ms = sorted(value * 1e3 for record in opened
                    for value in record.raw_latency)
    lateness_ms = sorted(value * 1e3 for record in opened
                         for value in record.lateness)
    closed_total = sum(len(record.ops) for record in closed)
    lines = [
        f"# {workload}: closed loop {closed_total} ops in {SEGMENTS} parts; "
        f"open loop {len(latency_ms)} ops at {OPEN_RATE:g}/s in "
        f"{OPEN_SEGMENTS} parts",
        f"# open-loop latency (ms, scaled / raw) over {len(latency_ms)} "
        f"samples: " + ", ".join(
            f"p{round(q * 100)} {percentile(latency_ms, q):.3f} / "
            f"{percentile(raw_ms, q):.3f}" for q in (0.5, 0.9, 0.99)),
        f"# host speed factor {speed.factor():.3f} (median of "
        f"{len(speed.samples)} probes); raw setup_s "
        f"{[round(value, 3) for value in raw_setups]}",
    ]
    lines += checker.summary()
    interval_ms = CONNECTIONS / OPEN_RATE * 1e3
    valid = growth_ms <= interval_ms
    if not valid:
        lines.append(f"# open loop INVALID: lateness grew {growth_ms:.1f} ms "
                     f"(> {interval_ms:.1f} ms between a connection's ops); "
                     f"the backlog was growing")
    out = {"attempted": checker.attempted, "failed": checker.failed,
           "correct": checker.correct(), "lines": lines,
           "work": result.get("work", {})}
    if not trace:
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "throughput": throughput,
            "lat_p50_ms": percentile(latency_ms, 0.5),
            "ok_frac": 1 - checker.failed / checker.attempted,
        }
        return out
    ops = closed_total + len(latency_ms)
    metrics = _layer_metrics(result, ops)
    metrics["loadgen.late_p99_ms"] = percentile(lateness_ms, 0.99)
    metrics["loadgen.backlog_growth_ms"] = growth_ms
    metrics["loadgen.open_loop_valid"] = float(valid)
    metrics["trace.overhead_frac"] = untraced / throughput - 1
    for name, work in sorted(out["work"].items()):
        lines.append(f"# work {name}: " + json.dumps(work, sort_keys=True))
    out["metrics"] = metrics
    return out


def _layer_metrics(result: dict, ops: int) -> Dict[str, float]:
    spans = result["layers"]
    work = result["work"]
    per = 1.0 / ops

    def self_s(layer: str) -> float:
        return spans.get(layer, {}).get("self_s", 0.0) * per

    def total(key: str) -> float:
        return sum(entry.get(key, 0) for entry in work.values())

    hits, misses = total("tree.cache_hits"), total("tree.cache_misses")
    point_reads = result["counts"].get("batch.point_reads", 0)
    vector_spans = total("batch.reads") - point_reads
    combined = total("batch.batched_reads") - vector_spans
    return {
        "service.total_s":
            spans.get("service", {}).get("total_s", 0.0) * per,
        "service.self_s": self_s("service"),
        "batch.wait_s": self_s("batch"),
        "batch.combine_rate": combined / point_reads if point_reads else 0.0,
        "verifier.self_s": self_s("verifier"),
        "tree.self_s": self_s("tree"),
        "tree.cache_hit_rate": hits / (hits + misses) if hits + misses else 0,
        "tree.evictions": total("tree.evictions") * per,
        "crypto.s": self_s("crypto"),
        "crypto.digests": total("crypto.digests") * per,
        "memory.reads": total("memory.reads") * per,
        "memory.read_bytes": total("memory.read_bytes") * per,
        "memory.write_bytes": total("memory.write_bytes") * per,
    }
