"""Analytical handshake-latency model, measurement harness and validation.

The model prices each authentication mode by three primitives: the average
time to verify a certificate chain, to verify a credential (resolution
excluded), and to resolve a DID including the secure channel to the ledger
node. With unilateral and mutual baselines measured for the original
handshake, every SSI and hybrid flow has a closed-form estimate:

    uni VC   = base_uni - chain + (vc + resolve)
    uni DID  = base_uni - chain + resolve
    mut VC   = base_mut + 2 * (vc + resolve - chain)
    mut DID  = base_mut + 2 * (resolve - chain)
    hybrid   = base_mut + one delta (whichever side is SSI)

All durations are seconds; reports print milliseconds.
"""

from __future__ import annotations

import csv
import itertools
import math
import queue
import random
import socket
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from . import handshake
from .certs import make_chain
from .crypto import SignatureSuite
from .ledger import LedgerClient, LedgerNode, LedgerStore
from .messages import AuthnMode
from .provision import Universe, build_universe

FIDELITY_TOLERANCE = 0.15  # |measured - estimate| / measured per SSI/hybrid cell


@dataclass(frozen=True)
class Stat:
    mean: float
    std: float
    n: int

    @classmethod
    def from_samples(cls, samples) -> "Stat":
        xs = list(samples)
        if not xs:
            return cls(0.0, 0.0, 0)
        std = statistics.pstdev(xs) if len(xs) > 1 else 0.0
        return cls(statistics.fmean(xs), std, len(xs))


@dataclass(frozen=True)
class ModelInputs:
    t_c: Stat        # certificate-chain verification
    t_v: Stat        # credential verification, resolution excluded
    t_d: Stat        # DID resolution including channel setup
    h_o_uni: Stat    # original handshake, server-only auth
    h_o_mut: Stat    # original handshake, mutual auth


def delta_v(inputs: ModelInputs) -> float:
    return inputs.t_v.mean + inputs.t_d.mean - inputs.t_c.mean


def delta_d(inputs: ModelInputs) -> float:
    return inputs.t_d.mean - inputs.t_c.mean


@dataclass(frozen=True)
class Cell:
    """One measured configuration and how the model prices it."""

    mode: handshake.Mode  # the client's preference
    server: dict          # overrides of Universe.server_config
    kind: str             # identity kind the model prices: x509, vc or did
    sides: int            # SSI-authenticated endpoints
    baseline: str         # the original-handshake cell with the same authentication

    @property
    def mutual(self) -> bool:
        return self.server.get("request_client_auth", False)

    @property
    def hybrid(self) -> bool:
        """One endpoint authenticates by SSI, the other by X.509."""
        return 0 < self.sides < 1 + self.mutual


_M, _MUT = handshake.Mode, {"request_client_auth": True}
_MUT_X509 = {**_MUT, "client_auth_mode": "x509"}
CELLS = {  # hybrid-<client><server>, where o is X.509, v VC and d DID
    "x509-uni": Cell(_M.X509, {}, "x509", 0, "x509-uni"),
    "vc-uni": Cell(_M.VC, {}, "vc", 1, "x509-uni"),
    "did-uni": Cell(_M.DID, {}, "did", 1, "x509-uni"),
    "x509-mut": Cell(_M.X509, _MUT_X509, "x509", 0, "x509-mut"),
    "vc-mut": Cell(_M.VC, _MUT, "vc", 2, "x509-mut"),
    "did-mut": Cell(_M.DID, _MUT, "did", 2, "x509-mut"),
    "hybrid-ov": Cell(_M.VC, _MUT_X509, "vc", 1, "x509-mut"),
    "hybrid-vo": Cell(_M.VC_PEER_X509, {**_MUT, "ssi_request_mode": AuthnMode.VC},
                      "vc", 1, "x509-mut"),
    "hybrid-od": Cell(_M.DID, _MUT_X509, "did", 1, "x509-mut"),
    "hybrid-do": Cell(_M.VC_PEER_X509, {**_MUT, "ssi_request_mode": AuthnMode.DID},
                      "did", 1, "x509-mut"),
}
ALL_CELLS = tuple(CELLS)
SSI_CELLS = tuple(c for c in ALL_CELLS if CELLS[c].sides)
BASELINE_CELLS = tuple(c for c in ALL_CELLS if not CELLS[c].sides)
# every authenticated endpoint uses SSI: the rivals of the original handshake
PURE_SSI_CELLS = tuple(c for c in SSI_CELLS if not CELLS[c].hybrid)
# the two orientations of one hybrid mode share one estimate
HYBRID_PAIRS = tuple((a, b) for a, b in itertools.combinations(SSI_CELLS, 2)
                     if CELLS[a].hybrid and CELLS[b].hybrid
                     and CELLS[a].kind == CELLS[b].kind)


def estimate_for_cell(inputs: ModelInputs, cell: str) -> float:
    """The baseline mean plus one SSI delta per SSI-authenticated side. A
    hybrid cell has one such side, whichever endpoint it is, so both
    orientations share one estimate."""
    spec = CELLS[cell]
    base = inputs.h_o_mut if spec.mutual else inputs.h_o_uni
    delta = delta_v(inputs) if spec.kind == "vc" else delta_d(inputs)
    return base.mean + spec.sides * delta


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    cell: str
    suite: str
    run_index: int
    latency: float  # server side, first byte to handshake completion
    phase_samples: dict[str, list[float]]  # individual operations, one entry each
    bytes_client: int
    bytes_server: int
    pk_bytes_server: int

    @property
    def phases(self) -> dict[str, float]:
        """Per-run sums of resolve / vc_verify / chain_verify / sign."""
        return {name: sum(values) for name, values in self.phase_samples.items()}


@dataclass
class MeasurementSet:
    records: list[RunRecord]

    def cell_records(self, suite: str, cell: str) -> list[RunRecord]:
        return [r for r in self.records if r.suite == suite and r.cell == cell]

    def cell_latency(self, suite: str, cell: str) -> Stat:
        return Stat.from_samples(r.latency for r in self.cell_records(suite, cell))

    def suites(self) -> list[str]:
        return sorted({r.suite for r in self.records})

    def inputs_for(self, suite: str) -> ModelInputs:
        """Extract the model primitives from individual operation timings."""
        def phase(cells, name: str) -> Stat:
            return Stat.from_samples(v for cell in cells
                                     for r in self.cell_records(suite, cell)
                                     for v in r.phase_samples.get(name, ()) if v > 0.0)

        baseline = {CELLS[c].mutual: self.cell_latency(suite, c) for c in BASELINE_CELLS}
        return ModelInputs(
            t_c=phase(BASELINE_CELLS, "chain_verify"),
            t_v=phase([c for c in SSI_CELLS if CELLS[c].kind == "vc"], "vc_verify"),
            t_d=phase(SSI_CELLS, "resolve"),
            h_o_uni=baseline[False], h_o_mut=baseline[True])


class _CellServer(handshake.TcpServer):
    """Serves the measured handshakes of one suite, one connection at a time.
    The measuring thread queues each server config on `configs` before it
    connects. Each connection puts (latency, server timers), or the server's
    exception, on `results`; latency runs from the first ClientHello byte to
    handshake completion."""

    def __init__(self, host: str):
        super().__init__(host, 0, backlog=8, conn_timeout=30.0)
        self.configs: queue.Queue[handshake.EndpointConfig] = queue.Queue()
        self.results: queue.Queue = queue.Queue()

    def serve_one(self, conn: socket.socket) -> None:
        try:
            conn.recv(1, socket.MSG_PEEK)
            first_byte = time.perf_counter()
            outcome = handshake.run_server(self.configs.get_nowait(), conn)
            self.results.put((time.perf_counter() - first_byte, outcome.timers))
        except Exception as exc:
            self.results.put(exc)


def _cell_configs(universe: Universe, cell: str):
    """(client config, server config) for one measurement cell."""
    spec = CELLS[cell]
    return universe.client_config(spec.mode), universe.server_config(**spec.server)


BLOCK = 10  # at most this many consecutive handshakes of one cell
SCHEDULE_SEED = 0xC0FFEE


def block_schedule(cells, slots: int) -> list[tuple[str, int]]:
    """The order of one suite's handshakes as (cell, the cell's ordinal).
    Each cell's `slots` handshakes are cut into blocks of at most BLOCK and
    all blocks are shuffled together, so a slow spell of the host falls on
    every cell alike."""
    blocks = [(cell, min(BLOCK, slots - start))
              for cell in cells for start in range(0, slots, BLOCK)]
    random.Random(SCHEDULE_SEED).shuffle(blocks)
    schedule, done = [], dict.fromkeys(cells, 0)
    for cell, size in blocks:
        schedule += [(cell, done[cell] + i) for i in range(size)]
        done[cell] += size
    return schedule


def measure(suites=None, cells=None, runs: int = 200, warmup: int = 5,
            identity_pool: int = 3, host: str = "127.0.0.1",
            progress=None) -> MeasurementSet:
    """Run `runs` measured handshakes per (suite x cell) after `warmup`
    discarded ones, the cells interleaved by `block_schedule`. Each cell
    takes its identities in turn from a pool of `identity_pool` provisioned
    universes per suite, sharing one ledger node. A failed server handshake
    is raised here."""
    suites = list(suites or SignatureSuite)
    cells = list(cells or ALL_CELLS)
    records: list[RunRecord] = []

    for suite in suites:
        store = LedgerStore()
        node_identity, node_root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256,
                                              "ledger.node")
        with LedgerNode(store, node_identity, host=host) as node, \
                _CellServer(host) as server:
            resolver = LedgerClient(*node.address, trust_anchor=node_root)
            pool = [build_universe(suite, store=store, ledger=resolver)
                    for _ in range(max(1, identity_pool))]
            if progress:
                progress(suite.ietf_name)
            measured = [_measure_one(server, pool[index % len(pool)], suite, cell,
                                     index - warmup)
                        for cell, index in block_schedule(cells, runs + warmup)]
            # warm-ups have negative run indices; records stay grouped by cell
            records += sorted((r for r in measured if r.run_index >= 0),
                              key=lambda r: cells.index(r.cell))
    return MeasurementSet(records)


def _measure_one(server: _CellServer, universe: Universe, suite: SignatureSuite,
                 cell: str, run_index: int) -> RunRecord:
    client_config, server_config = _cell_configs(universe, cell)
    server.configs.put(server_config)
    with socket.create_connection(server.address, timeout=30.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client_outcome = handshake.run_client(client_config, sock)
    result = server.results.get(timeout=30)
    if isinstance(result, Exception):
        raise result
    latency, server_timers = result
    timers = (client_outcome.timers, server_timers)
    samples = {name: [t[name] for t in timers if name in t] for name in {**timers[0], **timers[1]}}
    acc_server = client_outcome.accounting("server")
    return RunRecord(cell, suite.ietf_name, run_index, latency, samples,
                     client_outcome.accounting("client").total_bytes,
                     acc_server.total_bytes, acc_server.pk_object_bytes)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class CellCheck:
    suite: str
    cell: str
    measured: Stat
    estimate: float
    relative_error: float
    passed: bool


@dataclass
class ValidationReport:
    checks: list[CellCheck]
    symmetry: list[tuple[str, str, str, float, float, bool]]
    ordering: list[tuple[str, str, bool]]
    inputs: dict[str, ModelInputs]
    tolerance: float = FIDELITY_TOLERANCE

    @property
    def passed(self) -> bool:
        return (all(c.passed for c in self.checks)
                and all(ok for *_rest, ok in self.symmetry)
                and all(ok for *_rest, ok in self.ordering))


def validate(measurements: MeasurementSet,
             tolerance: float = FIDELITY_TOLERANCE) -> ValidationReport:
    """Compare measured means with the closed-form estimates per cell."""
    checks: list[CellCheck] = []
    symmetry, ordering, inputs_by_suite = [], [], {}

    for suite in measurements.suites():
        inputs = inputs_by_suite[suite] = measurements.inputs_for(suite)
        latency = {cell: measurements.cell_latency(suite, cell) for cell in ALL_CELLS}
        for cell in SSI_CELLS:
            measured = latency[cell]
            if measured.n == 0:
                continue
            estimate = estimate_for_cell(inputs, cell)
            rel = abs(measured.mean - estimate) / measured.mean if measured.mean else 0.0
            checks.append(CellCheck(suite, cell, measured, estimate, rel, rel <= tolerance))

        # hybrid symmetry: both orientations of each hybrid mode coincide
        for a, b in HYBRID_PAIRS:
            sa, sb = latency[a], latency[b]
            if sa.n and sb.n:
                pooled = math.sqrt((sa.std ** 2 + sb.std ** 2) / 2) or 1e-9
                diff = abs(sa.mean - sb.mean)
                symmetry.append((suite, a, b, diff, pooled, diff <= pooled))

        # original handshake is the fastest mode in its authentication class
        for rival in PURE_SSI_CELLS:
            baseline = CELLS[rival].baseline
            base, stat = latency[baseline], latency[rival]
            if base.n and stat.n:
                ordering.append((suite, f"{baseline} < {rival}", base.mean < stat.mean))

    # bare-DID authentication does not exceed VC under ed25519
    ed = SignatureSuite.ED25519.ietf_name
    if ed in measurements.suites():
        def pooled(kind: str) -> Stat:
            return Stat.from_samples(r.latency for c in PURE_SSI_CELLS if CELLS[c].kind == kind
                                     for r in measurements.cell_records(ed, c))
        did_mean, vc_mean = pooled("did"), pooled("vc")
        if did_mean.n and vc_mean.n:
            ordering.append((ed, "did <= vc", did_mean.mean <= vc_mean.mean))

    return ValidationReport(checks, symmetry, ordering, inputs_by_suite, tolerance)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

_KIND_LABELS = {"x509": "X.509", "vc": "VC", "did": "DID"}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _table(title: str, columns, rows) -> str:
    """A markdown section: title, header, rule and one line per row."""
    lines = [title, "", "| " + " | ".join(columns) + " |", "|---" * len(columns) + "|"]
    return "\n".join(lines + ["| " + " | ".join(row) + " |" for row in rows]) + "\n"


def _header(cell: str) -> str:
    spec = CELLS[cell]
    kind, x509 = _KIND_LABELS[spec.kind], _KIND_LABELS["x509"]
    if not spec.hybrid:
        return f"{kind} {'mut' if spec.mutual else 'uni'}"
    server, client = (x509, kind) if spec.mode is _M.VC_PEER_X509 else (kind, x509)
    return f"server {server} / client {client}"


def write_run_csv(measurements: MeasurementSet, path: Path) -> None:
    phases = ("resolve", "vc_verify", "chain_verify", "sign")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "cell", "run_index", "latency_ms",
                         *(f"{name}_ms" for name in phases), "bytes_client", "bytes_server"])
        for r in measurements.records:
            writer.writerow([r.suite, r.cell, r.run_index, f"{_ms(r.latency):.3f}",
                             *(f"{_ms(r.phases.get(name, 0.0)):.3f}" for name in phases),
                             r.bytes_client, r.bytes_server])


def write_overlay_csv(measurements: MeasurementSet, suite: str, cell: str,
                      inputs: ModelInputs, path: Path) -> None:
    """Per-run measured delta against the per-run model delta."""
    spec = CELLS[cell]
    base = measurements.cell_latency(suite, spec.baseline)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_index", "measured_delta_ms", "model_delta_ms"])
        for r in measurements.cell_records(suite, cell):
            model_delta = (r.phases.get("resolve", 0.0) + r.phases.get("vc_verify", 0.0)
                           - spec.sides * inputs.t_c.mean)
            writer.writerow([r.run_index, f"{_ms(r.latency - base.mean):.3f}",
                             f"{_ms(model_delta):.3f}"])


def size_table_markdown(measurements: MeasurementSet) -> str:
    """Server-sent bytes per unilateral mode: totals vary with DER
    signature lengths, the public-key-object budget is fixed."""
    rows = []
    for suite in measurements.suites():
        for cell in ALL_CELLS:
            records = measurements.cell_records(suite, cell)
            if records and not CELLS[cell].mutual:
                total = statistics.fmean(r.bytes_server for r in records)
                rows.append([suite, _KIND_LABELS[CELLS[cell].kind], f"{total:.0f}",
                             str(records[0].pk_bytes_server)])
    return _table("## Unilateral handshake size, server side (bytes)",
                  ["suite", "mode", "total (mean)", "public key objects"], rows)


def latency_tables_markdown(measurements: MeasurementSet) -> str:
    def table(title: str, hybrid: bool) -> str:
        cells = [c for c in ALL_CELLS if CELLS[c].hybrid == hybrid]
        rows = [[suite] + [f"{_ms(s.mean):.1f}" if s.n else "-"
                           for s in (measurements.cell_latency(suite, c) for c in cells)]
                for suite in measurements.suites()]
        return _table(title, ["suite"] + [_header(c) for c in cells], rows)

    return (table("## Handshake latency at server side (ms, mean over runs)", False)
            + "\n" + table("## Hybrid handshake latency at server side (ms)", True))


def inputs_table_markdown(report: ValidationReport) -> str:
    def cell(stat: Stat) -> str:
        return f"{_ms(stat.mean):.2f} / {_ms(stat.std):.2f} / {stat.n}"
    rows = [[suite, cell(inputs.t_c), cell(inputs.t_v), cell(inputs.t_d)]
            for suite, inputs in sorted(report.inputs.items())]
    return _table("## Identity-processing primitives (ms, mean / std / n)",
                  ["suite", "chain verify", "vc verify", "resolve"], rows)


def validation_markdown(report: ValidationReport) -> str:
    rows = [[c.suite, c.cell, f"{_ms(c.measured.mean):.2f}", f"{_ms(c.estimate):.2f}",
             f"{c.relative_error:.1%}", "yes" if c.passed else "NO"]
            for c in report.checks]
    lines = ["", "### Hybrid symmetry (|mean a - mean b| <= pooled std)", ""]
    for suite, a, b, diff, pooled, ok in report.symmetry:
        lines.append(f"- {suite}: {a} vs {b}: diff {_ms(diff):.2f} ms,"
                     f" pooled std {_ms(pooled):.2f} ms -> {'ok' if ok else 'VIOLATED'}")
    lines += ["", "### Orderings", ""]
    for suite, label, ok in report.ordering:
        lines.append(f"- {suite}: {label}: {'ok' if ok else 'VIOLATED'}")
    return _table(f"## Model validation (tolerance {report.tolerance:.0%})",
                  ["suite", "cell", "measured ms", "estimate ms", "rel. error", "ok"],
                  rows) + "\n".join(lines) + "\n"


def report_markdown(measurements: MeasurementSet, report: ValidationReport) -> str:
    """The size, latency, primitive and validation tables as one document."""
    return "\n".join((size_table_markdown(measurements),
                      latency_tables_markdown(measurements),
                      inputs_table_markdown(report),
                      validation_markdown(report)))


def write_report(measurements: MeasurementSet, report: ValidationReport,
                 out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_csv(measurements, out / "runs.csv")
    for suite, inputs in report.inputs.items():
        for cell in PURE_SSI_CELLS:
            if measurements.cell_records(suite, cell):
                write_overlay_csv(measurements, suite, cell, inputs,
                                  out / f"overlay_{suite}_{cell}.csv")
    (out / "report.md").write_text(report_markdown(measurements, report))
