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


ALL_CELLS = ("x509-uni", "vc-uni", "did-uni", "x509-mut", "vc-mut", "did-mut",
             "hybrid-ov", "hybrid-vo", "hybrid-od", "hybrid-do")
SSI_CELLS = tuple(c for c in ALL_CELLS if c not in ("x509-uni", "x509-mut"))


def estimate_for_cell(inputs: ModelInputs, cell: str) -> float:
    """The baseline mean plus one SSI delta per SSI-authenticated side. A
    hybrid cell has one such side, whichever endpoint it is, so both
    orientations share one estimate."""
    if cell not in ALL_CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    mode, auth = cell.split("-")
    if mode == "x509":
        sides = 0
    elif mode == "hybrid":
        mode, sides = ("vc" if "v" in auth else "did"), 1  # ov/vo: VC, od/do: DID
    else:
        sides = 2 if auth == "mut" else 1
    base = inputs.h_o_uni if auth == "uni" else inputs.h_o_mut
    delta = delta_v(inputs) if mode == "vc" else delta_d(inputs)
    return base.mean + sides * delta


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
    pk_bytes_client: int
    pk_bytes_server: int

    @property
    def phases(self) -> dict[str, float]:
        """Per-run sums of resolve / vc_verify / chain_verify / sign."""
        return {name: sum(values) for name, values in self.phase_samples.items()}


@dataclass
class MeasurementSet:
    records: list[RunRecord]
    runs_per_cell: int
    warmup: int

    def cell_records(self, suite: str, cell: str) -> list[RunRecord]:
        return [r for r in self.records if r.suite == suite and r.cell == cell]

    def cell_latency(self, suite: str, cell: str) -> Stat:
        return Stat.from_samples(r.latency for r in self.cell_records(suite, cell))

    def suites(self) -> list[str]:
        return sorted({r.suite for r in self.records})

    def inputs_for(self, suite: str) -> ModelInputs:
        """Extract the model primitives from individual operation timings."""
        def phase_samples(cells, phase):
            out = []
            for cell in cells:
                for r in self.cell_records(suite, cell):
                    out.extend(v for v in r.phase_samples.get(phase, ()) if v > 0.0)
            return out

        x509_cells = ("x509-uni", "x509-mut")
        vc_cells = ("vc-uni", "vc-mut", "hybrid-ov", "hybrid-vo")
        resolve_cells = tuple(SSI_CELLS)
        return ModelInputs(
            t_c=Stat.from_samples(phase_samples(x509_cells, "chain_verify")),
            t_v=Stat.from_samples(phase_samples(vc_cells, "vc_verify")),
            t_d=Stat.from_samples(phase_samples(resolve_cells, "resolve")),
            h_o_uni=self.cell_latency(suite, "x509-uni"),
            h_o_mut=self.cell_latency(suite, "x509-mut"),
        )


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
    u = universe
    M = handshake.Mode
    if cell == "x509-uni":
        return u.client_config(M.X509), u.server_config()
    if cell == "x509-mut":
        return (u.client_config(M.X509),
                u.server_config(request_client_auth=True, client_auth_mode="x509"))
    if cell == "vc-uni":
        return u.client_config(M.VC), u.server_config()
    if cell == "vc-mut":
        return u.client_config(M.VC), u.server_config(request_client_auth=True)
    if cell == "did-uni":
        return u.client_config(M.DID), u.server_config()
    if cell == "did-mut":
        return u.client_config(M.DID), u.server_config(request_client_auth=True)
    if cell == "hybrid-ov":   # client X.509, server VC
        return (u.client_config(M.VC),
                u.server_config(request_client_auth=True, client_auth_mode="x509"))
    if cell == "hybrid-od":   # client X.509, server DID
        return (u.client_config(M.DID),
                u.server_config(request_client_auth=True, client_auth_mode="x509"))
    if cell == "hybrid-vo":   # client VC, server X.509
        return (u.client_config(M.VC_PEER_X509),
                u.server_config(request_client_auth=True,
                                ssi_request_mode=AuthnMode.VC))
    if cell == "hybrid-do":   # client DID, server X.509
        return (u.client_config(M.VC_PEER_X509),
                u.server_config(request_client_auth=True,
                                ssi_request_mode=AuthnMode.DID))
    raise ValueError(f"unknown cell {cell!r}")


def measure(suites=None, cells=None, runs: int = 200, warmup: int = 5,
            identity_pool: int = 3, host: str = "127.0.0.1",
            progress=None) -> MeasurementSet:
    """Run `runs` measured handshakes per (suite x cell) after `warmup`
    discarded ones. Identities are drawn from a pool of `identity_pool`
    provisioned universes per suite, sharing one ledger node. A failed server
    handshake is raised here."""
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
            for cell in cells:
                if progress:
                    progress(f"{suite.ietf_name} {cell}")
                records.extend(_measure_cell(server, pool, suite, cell, runs, warmup))
    return MeasurementSet(records, runs, warmup)


def _measure_cell(server: _CellServer, pool: list[Universe], suite: SignatureSuite,
                  cell: str, runs: int, warmup: int) -> list[RunRecord]:
    rand = random.Random(0xC0FFEE)
    out: list[RunRecord] = []
    for index in range(runs + warmup):
        client_config, server_config = _cell_configs(rand.choice(pool), cell)
        server.configs.put(server_config)
        with socket.create_connection(server.address, timeout=30.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            client_outcome = handshake.run_client(client_config, sock)
        result = server.results.get(timeout=30)
        if isinstance(result, Exception):
            raise result
        latency, server_timers = result
        if index < warmup:
            continue
        samples: dict[str, list[float]] = {}
        for timers in (client_outcome.timers, server_timers):
            for name, value in timers.items():
                samples.setdefault(name, []).append(value)
        acc_client = client_outcome.accounting("client")
        acc_server = client_outcome.accounting("server")
        out.append(RunRecord(cell, suite.ietf_name, index - warmup, latency, samples,
                             acc_client.total_bytes, acc_server.total_bytes,
                             acc_client.pk_object_bytes, acc_server.pk_object_bytes))
    return out


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
    symmetry = []
    ordering = []
    inputs_by_suite: dict[str, ModelInputs] = {}

    for suite in measurements.suites():
        inputs = measurements.inputs_for(suite)
        inputs_by_suite[suite] = inputs
        for cell in SSI_CELLS:
            measured = measurements.cell_latency(suite, cell)
            if measured.n == 0:
                continue
            estimate = estimate_for_cell(inputs, cell)
            rel = abs(measured.mean - estimate) / measured.mean if measured.mean else 0.0
            checks.append(CellCheck(suite, cell, measured, estimate, rel,
                                    rel <= tolerance))

        # hybrid symmetry: both orientations of each hybrid mode coincide
        for a, b in (("hybrid-ov", "hybrid-vo"), ("hybrid-od", "hybrid-do")):
            sa, sb = measurements.cell_latency(suite, a), measurements.cell_latency(suite, b)
            if sa.n and sb.n:
                pooled = math.sqrt((sa.std ** 2 + sb.std ** 2) / 2) or 1e-9
                diff = abs(sa.mean - sb.mean)
                symmetry.append((suite, a, b, diff, pooled, diff <= pooled))

        # original handshake is the fastest mode in its authentication class
        for baseline, rivals in (("x509-uni", ("vc-uni", "did-uni")),
                                 ("x509-mut", ("vc-mut", "did-mut"))):
            base = measurements.cell_latency(suite, baseline)
            for rival in rivals:
                stat = measurements.cell_latency(suite, rival)
                if base.n and stat.n:
                    ordering.append((suite, f"{baseline} < {rival}",
                                     base.mean < stat.mean))

    # bare-DID authentication does not exceed VC under ed25519
    ed = SignatureSuite.ED25519.ietf_name
    if ed in measurements.suites():
        did_mean = Stat.from_samples(
            r.latency for c in ("did-uni", "did-mut")
            for r in measurements.cell_records(ed, c))
        vc_mean = Stat.from_samples(
            r.latency for c in ("vc-uni", "vc-mut")
            for r in measurements.cell_records(ed, c))
        if did_mean.n and vc_mean.n:
            ordering.append((ed, "did <= vc", did_mean.mean <= vc_mean.mean))

    return ValidationReport(checks, symmetry, ordering, inputs_by_suite, tolerance)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return seconds * 1000.0


def write_run_csv(measurements: MeasurementSet, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "cell", "run_index", "latency_ms", "resolve_ms",
                         "vc_verify_ms", "chain_verify_ms", "sign_ms",
                         "bytes_client", "bytes_server"])
        for r in measurements.records:
            writer.writerow([r.suite, r.cell, r.run_index, f"{_ms(r.latency):.3f}",
                             f"{_ms(r.phases.get('resolve', 0.0)):.3f}",
                             f"{_ms(r.phases.get('vc_verify', 0.0)):.3f}",
                             f"{_ms(r.phases.get('chain_verify', 0.0)):.3f}",
                             f"{_ms(r.phases.get('sign', 0.0)):.3f}",
                             r.bytes_client, r.bytes_server])


def write_overlay_csv(measurements: MeasurementSet, suite: str, ssi_cell: str,
                      baseline_cell: str, inputs: ModelInputs, path: Path) -> None:
    """Per-run measured delta against the per-run model delta."""
    base = measurements.cell_latency(suite, baseline_cell)
    factor = 2 if ssi_cell.endswith("mut") else 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_index", "measured_delta_ms", "model_delta_ms"])
        for r in measurements.cell_records(suite, ssi_cell):
            measured_delta = r.latency - base.mean
            resolve = r.phases.get("resolve", 0.0)
            vc = r.phases.get("vc_verify", 0.0)
            model_delta = resolve + vc - factor * inputs.t_c.mean
            writer.writerow([r.run_index, f"{_ms(measured_delta):.3f}",
                             f"{_ms(model_delta):.3f}"])


def size_table_markdown(measurements: MeasurementSet) -> str:
    """Server-sent bytes per unilateral mode: totals vary with DER
    signature lengths, the public-key-object budget is fixed."""
    lines = ["## Unilateral handshake size, server side (bytes)", ""]
    lines.append("| suite | mode | total (mean) | public key objects |")
    lines.append("|---|---|---|---|")
    for suite in measurements.suites():
        for cell, mode in (("x509-uni", "X.509"), ("vc-uni", "VC"), ("did-uni", "DID")):
            records = measurements.cell_records(suite, cell)
            if not records:
                continue
            total = statistics.fmean(r.bytes_server for r in records)
            pk = records[0].pk_bytes_server
            lines.append(f"| {suite} | {mode} | {total:.0f} | {pk} |")
    return "\n".join(lines) + "\n"


def latency_tables_markdown(measurements: MeasurementSet) -> str:
    suites = measurements.suites()
    lines = ["## Handshake latency at server side (ms, mean over runs)", ""]
    lines.append("| suite | X.509 uni | VC uni | DID uni | X.509 mut | VC mut | DID mut |")
    lines.append("|---|---|---|---|---|---|---|")
    for suite in suites:
        row = [suite]
        for cell in ("x509-uni", "vc-uni", "did-uni", "x509-mut", "vc-mut", "did-mut"):
            stat = measurements.cell_latency(suite, cell)
            row.append(f"{_ms(stat.mean):.1f}" if stat.n else "-")
        lines.append("| " + " | ".join(row) + " |")
    lines += ["", "## Hybrid handshake latency at server side (ms)", ""]
    lines.append("| suite | server VC / client X.509 | server DID / client X.509 |"
                 " server X.509 / client VC | server X.509 / client DID |")
    lines.append("|---|---|---|---|---|")
    for suite in suites:
        row = [suite]
        for cell in ("hybrid-ov", "hybrid-od", "hybrid-vo", "hybrid-do"):
            stat = measurements.cell_latency(suite, cell)
            row.append(f"{_ms(stat.mean):.1f}" if stat.n else "-")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def inputs_table_markdown(report: ValidationReport) -> str:
    lines = ["## Identity-processing primitives (ms, mean / std / n)", ""]
    lines.append("| suite | chain verify | vc verify | resolve |")
    lines.append("|---|---|---|---|")
    for suite, inputs in sorted(report.inputs.items()):
        def cell(stat: Stat) -> str:
            return f"{_ms(stat.mean):.2f} / {_ms(stat.std):.2f} / {stat.n}"
        lines.append(f"| {suite} | {cell(inputs.t_c)} | {cell(inputs.t_v)} |"
                     f" {cell(inputs.t_d)} |")
    return "\n".join(lines) + "\n"


def validation_markdown(report: ValidationReport) -> str:
    lines = [f"## Model validation (tolerance {report.tolerance:.0%})", ""]
    lines.append("| suite | cell | measured ms | estimate ms | rel. error | ok |")
    lines.append("|---|---|---|---|---|---|")
    for c in report.checks:
        lines.append(f"| {c.suite} | {c.cell} | {_ms(c.measured.mean):.2f} |"
                     f" {_ms(c.estimate):.2f} | {c.relative_error:.1%} |"
                     f" {'yes' if c.passed else 'NO'} |")
    lines += ["", "### Hybrid symmetry (|mean a - mean b| <= pooled std)", ""]
    for suite, a, b, diff, pooled, ok in report.symmetry:
        lines.append(f"- {suite}: {a} vs {b}: diff {_ms(diff):.2f} ms,"
                     f" pooled std {_ms(pooled):.2f} ms -> {'ok' if ok else 'VIOLATED'}")
    lines += ["", "### Orderings", ""]
    for suite, label, ok in report.ordering:
        lines.append(f"- {suite}: {label}: {'ok' if ok else 'VIOLATED'}")
    return "\n".join(lines) + "\n"


def write_report(measurements: MeasurementSet, report: ValidationReport,
                 out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_csv(measurements, out / "runs.csv")
    for suite in measurements.suites():
        inputs = report.inputs.get(suite)
        if inputs is None:
            continue
        for ssi_cell, baseline in (("vc-uni", "x509-uni"), ("did-uni", "x509-uni"),
                                   ("vc-mut", "x509-mut"), ("did-mut", "x509-mut")):
            if measurements.cell_records(suite, ssi_cell):
                name = f"overlay_{suite}_{ssi_cell}.csv"
                write_overlay_csv(measurements, suite, ssi_cell, baseline,
                                  inputs, out / name)
    tables = size_table_markdown(measurements)
    tables += "\n" + latency_tables_markdown(measurements)
    tables += "\n" + inputs_table_markdown(report)
    tables += "\n" + validation_markdown(report)
    (out / "report.md").write_text(tables)
