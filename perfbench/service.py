"""``service-mixed``: ``repro serve`` under an open loop of reads and deltas.

One process (this one) generates the load.  Operations are due on a fixed
schedule — every tenth a break/repair delta, the rest verdict reads on
uniformly drawn ``(node, label)`` pairs — and are handed to a pool of two
persistent :class:`ServiceClient` connections.  Latency is timed from when an
operation was *due*, so a stalled request also charges the requests queued
behind it.  Deltas are serialised among themselves, so the ground truth at
every graph generation is known; each read is checked against the truth at
the generation its response carries.

The run has three parts: ``SETUPS`` spawn-to-first-verdict set-ups (the last
server is kept), a reference phase at ``REFERENCE_RATE`` for ``--seconds``,
and a bisection for the highest rate that meets the limits below.  With
``--trace 1`` the same reference phase runs once against a plain server and
once against one started through ``traced_serve.py``, whose spans give the
server-side layers.
"""

from __future__ import annotations

import bisect
import json
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from statistics import median
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.service import DeltaRequest, ServiceClient, ServiceError, ValidationRequest

from inputs import (
    KB_SERVICE_ENTITIES,
    KB_SERVICE_HUBS,
    Truth,
    WriteSchedule,
    kb_inputs,
    write_inputs,
)
from layers import layer_values, named_self_time
from stats import (
    OpTiming,
    backlog_grows,
    find_max_rate,
    latency_record,
    nearest_rank,
    schedule,
)

HERE = Path(__file__).resolve().parent
REFERENCE_RATE = 20.0
#: the reference phase lasts this many times ``--seconds``: its latency
#: medians need the samples more than the bisection's short trials do.
REFERENCE_SPAN = 1.5
WRITE_EVERY = 10
CONNECTIONS = 2
SETUPS = 3
TRIAL_SECONDS = 2.5
READ_P99_LIMIT_MS = 100.0
WRITE_P90_LIMIT_MS = 250.0
#: an operation not started this long after its trial ended is backlog.
GRACE_S = 0.25
#: generator lateness (p99) above this flags the run as generator-limited.
GENERATOR_LAG_LIMIT_MS = 10.0


class WrongDelta(Exception):
    """A delta response whose counts disagree with the delta sent."""


class CountingClient(ServiceClient):
    """The stock client, counting requests and transport attempts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0
        self.attempts = 0

    def _request(self, *args, **kwargs):
        self.requests += 1
        return super()._request(*args, **kwargs)

    def _send_once(self, *args, **kwargs):
        self.attempts += 1
        return super()._send_once(*args, **kwargs)


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, root: Path, env: Dict[str, str], schema: Path,
                 trace_out: Optional[Path] = None):
        serve = ["serve", "--schema", str(schema), "--host", "127.0.0.1",
                 "--port", "0"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       "--trace-out", str(trace_out), "--"] + serve
        self.trace_out = trace_out
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.stderr: List[str] = []
        self._port: "queue.Queue[Optional[int]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            port = self._port.get(timeout=60)
        except queue.Empty:
            port = None
        if port is None:
            self.stop()
            raise RuntimeError("repro serve did not start: "
                               + "".join(self.stderr[-20:]))
        self.port = port

    def _drain(self) -> None:
        announced = False
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match and not announced:
                announced = True
                self._port.put(int(match.group(1)))
        if not announced:
            self._port.put(None)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def reset_trace(self) -> None:
        """Ask the traced server to forget its set-up spans; wait for it."""
        marker = self.trace_out.with_suffix(".reset")
        marker.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while not marker.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not acknowledge reset")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class Phase:
    """What one open-loop phase measured."""

    def __init__(self, rate: float):
        self.rate = rate
        self.reads: List[OpTiming] = []
        self.writes: List[OpTiming] = []
        self.unsent = 0
        self.failure_types: Counter = Counter()
        #: signature-cache hits and lookups the phase caused, when measured.
        self.signature: Dict[str, int] = {}
        self.affected_nodes = 0
        self.revalidated_pairs = 0

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.writes) + sum(
            self.failure_types.values())

    @property
    def failed(self) -> int:
        return sum(self.failure_types.values())

    def charge_unsent(self) -> None:
        """Count every operation left unsent as attempted and failed."""
        if self.unsent:
            self.failure_types["unsent"] += self.unsent

    def latencies_ms(self, timings: List[OpTiming]) -> List[float]:
        return [timing.latency * 1e3 for timing in timings]

    def passes(self) -> bool:
        """The limits behind ``max_rate_rps``."""
        if self.failed or not self.reads or not self.writes:
            return False
        if backlog_grows(self.reads + self.writes, self.unsent):
            return False
        return (nearest_rank(self.latencies_ms(self.reads), 99)
                <= READ_P99_LIMIT_MS
                and nearest_rank(self.latencies_ms(self.writes), 90)
                <= WRITE_P90_LIMIT_MS)

    def achieved_rate(self) -> float:
        """Completed operations per second, first due time to last response."""
        timings = self.reads + self.writes
        span = max(t.done for t in timings) - min(t.due for t in timings)
        return len(timings) / span

    def generator_lag_ms(self) -> List[float]:
        return [timing.generator_lag * 1e3
                for timing in self.reads + self.writes]


class LoadGenerator:
    """Open-loop load over ``CONNECTIONS`` clients against one graph."""

    def __init__(self, port: int, graph_id: str, generation: int,
                 truth: Truth, seed: int):
        self.clients = [CountingClient("127.0.0.1", port)
                        for _ in range(CONNECTIONS)]
        self.graph_id = graph_id
        self.truth = truth
        self.pairs = truth.pairs
        self.rng = random.Random(seed)
        self.writes = WriteSchedule(truth, seed)
        self.write_lock = threading.Lock()
        #: (generation, broken target) after each applied delta, in order.
        self.history: List[Tuple[int, Optional[int]]] = [(generation, None)]
        self.observed: List[Tuple[str, str, bool, int]] = []

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def _write(self, client: CountingClient, phase: Phase) -> None:
        with self.write_lock:
            add, remove, _, broken = self.writes.next()
            expected = self.history[-1][0]
            response = client.apply_delta(self.graph_id, DeltaRequest(
                add=add, remove=remove, expected_generation=expected))
            sent = (add.count("\n"), remove.count("\n"))
            if (response.added, response.removed) != sent \
                    or response.full_rebuild:
                raise WrongDelta(f"sent +{sent[0]}/-{sent[1]}, got {response}")
            self.history.append((response.generation, broken))
            phase.affected_nodes += response.affected_nodes
            phase.revalidated_pairs += response.revalidated_pairs

    def _read(self, client: CountingClient, node: str, label: str) -> None:
        verdict = client.verdict(self.graph_id, node, label)
        self.observed.append((node, label, verdict.conforms,
                              verdict.generation))

    def run(self, rate: float, seconds: float) -> Phase:
        """Offer ``rate`` operations per second for ``seconds``."""
        phase = Phase(rate)
        count = max(int(rate * seconds), WRITE_EVERY)
        ops = [("write", None) if index % WRITE_EVERY == WRITE_EVERY - 1
               else ("read", self.rng.choice(self.pairs))
               for index in range(count)]
        start = time.perf_counter() + 0.05
        due_times = schedule(start, rate, count)
        cutoff = start + count / rate + GRACE_S
        pending: "queue.Queue" = queue.Queue()
        lock = threading.Lock()

        def worker(client: CountingClient) -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                (kind, pair), due, queued = item
                sent = time.perf_counter()
                if sent > cutoff:
                    with lock:
                        phase.unsent += 1
                    continue
                try:
                    if kind == "write":
                        self._write(client, phase)
                    else:
                        self._read(client, *pair)
                except ServiceError as error:
                    with lock:
                        phase.failure_types[f"ServiceError:{error.code}"] += 1
                    continue
                except Exception as error:  # noqa: BLE001 - counted
                    with lock:
                        phase.failure_types[type(error).__name__] += 1
                    continue
                timing = OpTiming(due, queued, sent, time.perf_counter())
                with lock:
                    (phase.writes if kind == "write" else phase.reads).append(
                        timing)

        threads = [threading.Thread(target=worker, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        try:
            for op, due in zip(ops, due_times):
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pending.put((op, due, time.perf_counter()))
        finally:
            for _ in threads:
                pending.put(None)
            for thread in threads:
                thread.join(timeout=120)
        return phase

    def check_reads(self) -> int:
        """Count reads whose verdict disagrees with the truth at its generation."""
        generations = [generation for generation, _ in self.history]
        wrong = 0
        for node, label, conforms, generation in self.observed:
            index = bisect.bisect_right(generations, generation) - 1
            broken = self.history[index][1] if index >= 0 else None
            if index < 0 or conforms != self.truth.expected(node, label,
                                                            broken):
                wrong += 1
        self.observed.clear()
        return wrong

    def signature_counts(self) -> Dict[str, int]:
        """The graph's signature-cache counters, from ``GET /stats``."""
        stats = self.clients[0].graph_stats(self.graph_id)
        hits = stats.signature.get("hits", 0)
        return {"hits": hits,
                "lookups": hits + stats.signature.get("misses", 0)}

    def client_counts(self) -> Dict[str, float]:
        hits = sum(client.cache.hits for client in self.clients)
        misses = sum(client.cache.misses for client in self.clients)
        return {"hits": hits, "lookups": hits + misses,
                "retries": sum(client.attempts - client.requests
                               for client in self.clients)}


def _phase_summary(phase: Phase) -> Dict[str, object]:
    lag = phase.generator_lag_ms()
    summary: Dict[str, object] = {
        "rate": round(phase.rate, 3), "reads": len(phase.reads),
        "writes": len(phase.writes), "unsent": phase.unsent,
        "backlog_grew": backlog_grows(phase.reads + phase.writes,
                                      phase.unsent),
        "failure_types": dict(phase.failure_types),
        "generator_lag_p99_ms": nearest_rank(lag, 99) if lag else None,
    }
    if phase.reads and phase.writes:
        summary["passed"] = phase.passes()
        summary["read_p99_ms"] = nearest_rank(
            phase.latencies_ms(phase.reads), 99)
        summary["write_p90_ms"] = nearest_rank(
            phase.latencies_ms(phase.writes), 90)
    return summary


class ServiceRun:
    """One run's inputs, the servers it started and its failure tally."""

    def __init__(self, args, root: Path, env: Dict[str, str], work: Path):
        self.args = args
        self.root = root
        self.env = env
        inputs = kb_inputs(args.seed, KB_SERVICE_ENTITIES, KB_SERVICE_HUBS)
        self.sizes = write_inputs(inputs, work)
        self.text = inputs["text"]
        self.truth = Truth.load(work / "truth.json")
        self.first = self.truth.targets[0]["node"]
        self.schema = work / "schema.shex"
        self.servers: List[Server] = []
        self.failures: Counter = Counter()
        self.attempted = 0

    def spawn(self, trace_out: Optional[Path] = None
              ) -> Tuple[Server, str, int, float]:
        """Start a server, ``POST /graphs``, then ask one verdict.

        Returns the server, graph id, generation and the seconds from spawn
        to the first verdict.
        """
        began = time.perf_counter()
        server = Server(self.root, self.env, self.schema, trace_out)
        self.servers.append(server)
        with ServiceClient("127.0.0.1", server.port) as client:
            data = client.load_graph(ValidationRequest(
                data=self.text, data_format="ntriples"))
            client.verdict(data["graph_id"], self.first, "Entity")
            setup = time.perf_counter() - began
        self.attempted += 1
        return server, data["graph_id"], data["generation"], setup

    def reference(self, trace_out: Optional[Path] = None
                  ) -> Tuple[Server, LoadGenerator, Phase, float]:
        """Spawn and load a server, then run the reference phase on it.

        An operation still unsent when the phase ends counts as failed
        (``unsent``): a server that falls behind the reference rate cannot
        drop its slowest operations from the latency sample.  The phase's
        reads are checked against the truth before it returns.
        """
        server, graph_id, generation, setup = self.spawn(trace_out)
        if trace_out is not None:
            server.reset_trace()
        generator = LoadGenerator(server.port, graph_id, generation,
                                  self.truth, self.args.seed)
        before = generator.signature_counts()
        phase = generator.run(REFERENCE_RATE,
                              REFERENCE_SPAN * self.args.seconds)
        after = generator.signature_counts()
        phase.signature = {key: after[key] - before[key] for key in after}
        phase.charge_unsent()
        self.check(generator)
        return server, generator, phase, setup

    def check(self, generator: LoadGenerator) -> None:
        wrong = generator.check_reads()
        if wrong:
            self.failures["wrong-verdict"] += wrong

    def tally(self, phase: Phase) -> None:
        self.attempted += phase.attempted
        self.failures.update(phase.failure_types)

    def stop(self) -> None:
        for server in self.servers:
            server.stop()

    def close_record(self, record: Dict[str, object]) -> Dict[str, object]:
        record["failure_types"] = dict(self.failures)
        record["attempted"] = self.attempted
        record["failed"] = sum(self.failures.values())
        return record


def run_service(args, root: Path, work: Path,
                env: Dict[str, str]) -> Dict[str, object]:
    # the dispatcher shares the interpreter lock with both connection
    # threads; a short switch interval keeps it on schedule (its lateness is
    # still measured and reported as generator lag).
    sys.setswitchinterval(0.0005)
    run = ServiceRun(args, root, env, work)
    record: Dict[str, object] = {"sizes": run.sizes}
    try:
        if args.trace:
            return _traced(run, record, work)
        setups: List[float] = []
        for _ in range(SETUPS - 1):
            server, _, _, setup = run.spawn()
            setups.append(setup)
            server.stop()
        server, generator, reference, setup = run.reference()
        setups.append(setup)
        phases = [reference]

        def trial(rate: float) -> bool:
            time.sleep(0.2)
            phase = generator.run(rate, TRIAL_SECONDS)
            phases.append(phase)
            return phase.passes()

        search = find_max_rate(trial, start=2 * REFERENCE_RATE)
        run.check(generator)
        generator.close()
        peak = server.peak_rss_mb()
    finally:
        run.stop()

    for phase in phases:
        run.tally(phase)
    best = max((phase for phase in phases if phase.passes()),
               key=lambda phase: phase.rate, default=None)
    record["phases"] = [_phase_summary(phase) for phase in phases]
    record["reference_backlog_grew"] = record["phases"][0]["backlog_grew"]
    record["reference_signature"] = reference.signature
    record["max_rate"] = {"offered": search["rate"], "capped": search["capped"],
                          "trials": len(search["trials"])}
    # the phases that decide the rate: everything up to just above it (the
    # lateness of a trial far past the limit says nothing about the limit)
    deciding = [summary for summary in record["phases"]
                if summary["rate"] <= 1.1 * search["rate"]]
    record["generator_limited"] = any(
        summary["generator_lag_p99_ms"] is not None
        and summary["generator_lag_p99_ms"] > GENERATOR_LAG_LIMIT_MS
        for summary in deciding)
    record["setup_samples_s"] = setups
    record["client"] = generator.client_counts()
    run.close_record(record)
    reads = reference.latencies_ms(reference.reads)
    writes = reference.latencies_ms(reference.writes)
    if not (reads and writes):
        record["metrics"] = {}  # nothing succeeded; the failures say why
        return record
    record["latency"] = latency_record(reads, writes)
    record["metrics"] = {
        "setup_s": median(setups),
        "peak_rss_mb": peak,
        "throughput_per_s": best.achieved_rate() if best else 0.0,
        "read_p50_ms": median(reads),
    }
    return record


def _traced(run: ServiceRun, record: Dict[str, object],
            work: Path) -> Dict[str, object]:
    """Same reference phase on a plain and on a traced server."""
    observed: Dict[str, float] = {}
    for trace_out in (None, work / "server-trace.json"):
        if trace_out is not None:
            trace_out.unlink(missing_ok=True)
        server, generator, phase, _ = run.reference(trace_out)
        run.tally(phase)
        counts = generator.client_counts()
        generator.close()
        server.stop()
        observed["plain" if trace_out is None else "traced"] = sum(
            timing.service for timing in phase.reads + phase.writes)
    snapshot = json.loads(trace_out.read_text())
    layers = layer_values(snapshot)
    read_wall = sum(timing.service for timing in phase.reads)
    write_wall = sum(timing.service for timing in phase.writes)
    totals = snapshot["total"]
    layers["transport.read_s"] = read_wall - totals.get("server.get", 0.0)
    layers["transport.write_s"] = write_wall - totals.get("server.post", 0.0)
    layers["signature.lookups"] = phase.signature["lookups"]
    layers["signature.hit_rate"] = (phase.signature["hits"]
                                    / phase.revalidated_pairs
                                    if phase.revalidated_pairs else 0.0)
    layers["engine.derivative_steps"] = 0.0
    layers["revalidate.affected_nodes"] = phase.affected_nodes
    layers["revalidate.revalidated_pairs"] = phase.revalidated_pairs
    layers["client.cache_hit_rate"] = (counts["hits"] / counts["lookups"]
                                       if counts["lookups"] else 0.0)
    layers["client.retries"] = counts["retries"]
    layers["generator.lag_ms"] = nearest_rank(phase.generator_lag_ms(), 99)
    named = (named_self_time(snapshot) + layers["transport.read_s"]
             + layers["transport.write_s"])
    layers["trace.coverage"] = named / (read_wall + write_wall)
    layers["trace.overhead"] = observed["traced"] / observed["plain"]
    record["phases"] = [_phase_summary(phase)]
    record["metrics"] = layers
    return run.close_record(record)
