#!/usr/bin/env python3
"""ssitls benchmark: handshakes and ledger operations over loopback TCP,
with the handshake server and the ledger node in processes of their own.

    python3 perfbench/run.py --workload handshake-ed25519 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` runs an untraced and
a traced half and prints the per-layer metrics. Every operation's output is
checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads, the metrics and why.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 5            # set-ups per untraced run; setup_s is their median
JOIN_SLACK = 60.0     # seconds a client thread may overrun its deadline
MIN_BEYOND_P90 = 10   # samples that must lie beyond the reported p90


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Window:
    """One measured sub-window of a run."""
    records: list            # operations started in the window
    wall: float              # seconds from the window's start to its last op's end
    client_cpu: float        # load-generator CPU seconds
    sut_cpu: float           # children's CPU seconds

    def times_ms(self) -> list[float]:
        return sorted(r.elapsed * 1000.0 for r in self.records)

    def metrics(self) -> dict[str, float]:
        times = self.times_ms()
        n = len(times)
        return {
            "op_ms.p50": statistics.median(times),
            "op_ms.p90": statistics.quantiles(times, n=10)[8],
            "ops_per_s": n / self.wall,
            "client_cpu_ms_per_op": self.client_cpu * 1000.0 / n,
            "sut_cpu_ms_per_op": self.sut_cpu * 1000.0 / n,
        }


@dataclass
class Phase:
    setup_times: list[float]
    windows: list[Window]
    warmup: list             # warm-up operations
    sut_rss_kb: int          # sum of the children's peak RSS
    problems: list[str]      # server-side check failures
    layout: str
    tcp_opens: int           # TCP active opens on the host during the phase
    spans: dict = field(default_factory=dict)
    window: tuple = (0.0, 0.0)

    @property
    def records(self) -> list:
        return [r for w in self.windows for r in w.records]

    @property
    def failures(self) -> list[str]:
        return ([f"op {r.index} {r.name}: {r.failure}" for r in self.warmup + self.records
                 if r.failure is not None] + self.problems)

    @property
    def attempted(self) -> int:
        return len(self.warmup) + len(self.records)

    @property
    def failed(self) -> int:
        # a server-side problem is a failure of some op the client counted
        return min(len(self.failures), self.attempted)

    def times_ms(self) -> list[float]:
        return sorted(r.elapsed * 1000.0 for r in self.records)

    def p50(self) -> float:
        return statistics.median(self.times_ms())


def _cpu(system) -> tuple[float, float]:
    """(load-generator, children) CPU seconds so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, sum(c.call("usage")[0] for c in system.children)


def _tcp_counters() -> dict[str, int]:
    """TCP counters of this network namespace (/proc/net/snmp)."""
    with open("/proc/net/snmp") as fh:
        rows = [line.split() for line in fh if line.startswith("Tcp:")]
    return {k: int(v) for k, v in zip(rows[0][1:], rows[1][1:])}


def _time_wait() -> int:
    with open("/proc/net/sockstat") as fh:
        for line in fh:
            if line.startswith("TCP:"):
                fields = line.split()
                return int(fields[fields.index("tw") + 1])
    return -1


def _drive(system, streams, tracer, counter, deadline=None, count=None) -> list:
    """Closed loop: one thread per stream, each starting its next op when
    the previous one ended, until `deadline` (or `count` ops per stream)."""
    records = []
    lock = threading.Lock()

    def loop(stream):
        done = 0
        while (deadline is None or time.perf_counter() < deadline) \
                and (count is None or done < count):
            op = next(stream)
            with lock:
                index = next(counter)
            records.append(system.run_op(op, index, tracer))
            done += 1

    threads = [threading.Thread(target=loop, args=(s,), daemon=True) for s in streams]
    for t in threads:
        t.start()
    limit = (deadline - time.perf_counter() if deadline else 0.0) + JOIN_SLACK
    for t in threads:
        t.join(max(limit, 1.0))
        if t.is_alive():
            raise RuntimeError("a client thread did not finish its operation")
    return records


def run_phase(workload, seed: int, seconds: float, tracer, setups: int,
              windows: int) -> Phase:
    """Set up `setups` times, keep the last system, warm it up, then measure
    `seconds` split into `windows` equal sub-windows."""
    setup_times = []
    for i in range(setups):
        start = time.perf_counter()
        system = workload.setup(seed, tracer is not None)
        setup_times.append(time.perf_counter() - start)
        if i + 1 < setups:
            system.close()
    try:
        counter = itertools.count()
        warm_rng = random.Random(f"{seed}/warmup")
        warmup = _drive(system, [system.ops(warm_rng)], tracer, counter,
                        count=system.block_size)
        streams = [system.ops(random.Random(f"{seed}/client{i}"))
                   for i in range(workload.clients)]
        if tracer is not None:
            tracer.drain()
            for child in system.children:
                child.call("spans")
        tcp_before = _tcp_counters()
        start = time.perf_counter()
        measured = []
        for i in range(windows):
            cpu_before = _cpu(system)
            w_start = time.perf_counter()
            records = _drive(system, streams, tracer, counter,
                             deadline=start + seconds * (i + 1) / windows)
            w_end = time.perf_counter()
            cpu_after = _cpu(system)
            measured.append(Window(records, w_end - w_start, cpu_after[0] - cpu_before[0],
                                   cpu_after[1] - cpu_before[1]))
        end = time.perf_counter()
        tcp_after = _tcp_counters()
        rss_kb = sum(c.call("usage")[1] for c in system.children)
        spans = {}
        if tracer is not None:
            spans = {"client": tracer.drain()}
            spans.update({c.name: c.call("spans") for c in system.children})
        layout = "; ".join([f"load generator pid {os.getpid()} with {workload.clients}"
                            f" client thread(s)"]
                           + [f"{c.name} pid {c.process.pid}" for c in system.children])
        return Phase(
            setup_times=setup_times, windows=measured, warmup=warmup, sut_rss_kb=rss_kb,
            problems=system.server_problems(warmup + [r for w in measured for r in w.records]),
            layout=layout,
            tcp_opens=tcp_after["ActiveOpens"] - tcp_before["ActiveOpens"],
            spans=spans, window=(start, end))
    finally:
        system.close()


# windowed metric -> (unit, whether higher is better)
WINDOW_METRICS = {"op_ms.p50": ("ms", False), "op_ms.p90": ("ms", False),
                  "ops_per_s": ("1/s", True), "client_cpu_ms_per_op": ("ms", False),
                  "sut_cpu_ms_per_op": ("ms", False)}


def better_quartile(values, higher_is_better: bool) -> float:
    """The value a quarter of the way from the best to the worst."""
    ranked = sorted(values, reverse=higher_is_better)
    return ranked[(len(ranked) - 1) // 4]


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    """Each windowed metric is its better quartile over the run's short
    sub-windows: a slowdown of the program moves every window, while a spell
    of CPU steal on the host (which lasts 10-20 s) leaves the quieter
    quarter of a 30 s run alone."""
    per_window = [w.metrics() for w in phase.windows]
    out = {"setup_s": (statistics.median(phase.setup_times), "s")}
    for name, (unit, higher) in WINDOW_METRICS.items():
        out[name] = (better_quartile((m[name] for m in per_window), higher), unit)
    out["sut_rss_mb"] = (phase.sut_rss_kb / 1024.0, "MB")
    return out


def facts(phase: Phase, workload_name: str) -> list[str]:
    import cryptography

    n = max(len(phase.records), 1)
    beyond = min(sum(1 for t in w.times_ms() if t > w.metrics()["op_ms.p90"])
                 for w in phase.windows)
    connect_errors = sum(1 for r in phase.warmup + phase.records
                         if r.failure and ("connect" in r.failure
                                           or "cannot reach" in r.failure))
    lines = [
        f"workload {workload_name}: {len(phase.records)} measured ops in"
        f" {len(phase.windows)} windows of {phase.windows[0].wall:.2f} s or so,"
        f" at least {beyond} beyond p90 in each, {len(phase.warmup)} warm-up ops",
        f"host: nproc={os.cpu_count()} python={platform.python_version()}"
        f" cryptography={cryptography.__version__}",
        "path: all traffic crossed the loopback interface (127.0.0.1)",
        f"processes: {phase.layout}",
        f"tcp: {phase.tcp_opens / n:.2f} connections opened per op (host counter),"
        f" {connect_errors} connect errors, {_time_wait()} sockets in TIME_WAIT",
        f"fail_ratio: {phase.failed / max(phase.attempted, 1):.6f}"
        f" ({phase.failed} of {phase.attempted})",
    ]
    if beyond < MIN_BEYOND_P90:
        lines.append(f"warning: only {beyond} samples beyond p90 in a window; run longer")
    lines += [f"failure: {f}" for f in phase.failures[:20]]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its children (see the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "ssitls", "__init__.py")):
        print(f"perfbench: no library source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sut

    try:
        return run(args)
    finally:
        # every path out stops and waits for the children still running
        sut.Child.stop_all()


def run(args) -> int:
    import tracing
    from workloads import WORKLOADS, work_dir

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        base = run_phase(workload, args.seed, args.seconds / 2, None, 1, 1)
        tracer = tracing.Tracer()
        tracer.install()
        phase = run_phase(workload, args.seed, args.seconds / 2, tracer, 1, 1)
        spans = tracing.SpanSet(phase.spans, phase.window)
        metrics = tracing.layer_metrics(spans, phase.records, phase.p50(), base.p50())
        span_file = os.path.join(work_dir(), f"spans-{args.workload}.jsonl")
        tracing.write_spans(span_file, spans)
        lines = facts(phase, args.workload) + [f"spans: {span_file}"]
        lines += [f"model {term} = {mean:.4f} ms (mean of {count})"
                  for term, (mean, count) in tracing.model_terms(spans).items()]
        phases = [base, phase]
    else:
        phase = run_phase(workload, args.seed, args.seconds, None, SETUPS, workload.windows)
        metrics = end_to_end(phase)
        lines = facts(phase, args.workload)
        phases = [phase]

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
