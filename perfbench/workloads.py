"""The benchmark's workloads: set-up of the system under test, seeded
operation streams, one timed operation, and the check of its output.

All workloads are closed loops: each client thread waits for its own
handshake or ledger reply before starting its next operation.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import tempfile
import time
from dataclasses import dataclass, replace

from cryptography import x509

import sut
from tracing import client_random
from ssitls import handshake, identity
from ssitls.certs import make_chain
from ssitls.crypto import DeterministicRng, SignatureSuite, generate_keypair
from ssitls.handshake import Flow, Mode
from ssitls.identity import TrustStore
from ssitls.ledger import LedgerClient
from ssitls.messages import AuthnMode
from ssitls.provision import build_universe
from ssitls.record import AlertDescription

OP_TIMEOUT = 10.0

# Server configurations by kind, as keyword overrides of Universe.server_config.
SERVER_KINDS = {
    "uni": {},
    "mut-x509": {"request_client_auth": True, "client_auth_mode": "x509"},
    "mut-ssi": {"request_client_auth": True},
    "mut-ssi-did": {"request_client_auth": True, "ssi_request_mode": AuthnMode.DID},
}

# cell -> (client mode, server kind, flow both sides must report). The
# cell -> configuration mapping is perfmodel's; selftest.py checks they agree.
CELLS = {
    "x509-uni": (Mode.X509, "uni", Flow.ORIGINAL),
    "x509-mut": (Mode.X509, "mut-x509", Flow.ORIGINAL),
    "vc-uni": (Mode.VC, "uni", Flow.SSI_VC),
    "vc-mut": (Mode.VC, "mut-ssi", Flow.SSI_VC),
    "did-uni": (Mode.DID, "uni", Flow.SSI_DID),
    "did-mut": (Mode.DID, "mut-ssi", Flow.SSI_DID),
    "hybrid-ov": (Mode.VC, "mut-x509", Flow.HYBRID_CLIENT_X509),
    "hybrid-od": (Mode.DID, "mut-x509", Flow.HYBRID_CLIENT_X509),
    "hybrid-vo": (Mode.VC_PEER_X509, "mut-ssi", Flow.HYBRID_SERVER_X509),
    "hybrid-do": (Mode.VC_PEER_X509, "mut-ssi-did", Flow.HYBRID_SERVER_X509),
}
REJECT_CELLS = ("vc-uni", "did-uni")
CELL_REPEATS = 2  # each cell twice per block: one reject per block is 1 op in 21
REVOKED = "revoked"  # pool key of the universe whose server DID is deactivated


def work_dir() -> str:
    """Scratch space inside the checkout (ignored by git)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    name: str
    start: float             # perf_counter at the op's start
    elapsed: float           # seconds, as the client observed it
    failure: str | None      # None when every check passed
    random: str | None = None        # ClientHello.random of the main handshake
    wire_bytes: int | None = None    # both directions, from the accounting
    reject: bool = False             # an expected rejection by a revoked server


@dataclass(frozen=True)
class HandshakeExpectation:
    flow: Flow
    server_peer: str   # what the client must authenticate
    client_peer: str   # what the server must report
    reject: bool       # the server identity is revoked


def check_handshake(outcome, nonce: bytes, reply: bytes,
                    expect: HandshakeExpectation) -> str | None:
    """Failure reason of a completed handshake, or None."""
    if expect.reject:
        return f"handshake completed against a revoked server ({outcome.flow.value})"
    if outcome.flow is not expect.flow:
        return f"client flow {outcome.flow.value}, expected {expect.flow.value}"
    seen = sut.peer_label(outcome.peer)
    if seen != expect.server_peer:
        return f"client authenticated {seen!r}, expected {expect.server_peer!r}"
    if reply[:len(nonce)] != nonce:
        return "echo did not return the nonce"
    try:
        report = json.loads(reply[len(nonce):])
    except ValueError:
        return "server report is not JSON"
    if report.get("flow") != expect.flow.value:
        return f"server flow {report.get('flow')}, expected {expect.flow.value}"
    if report.get("peer") != expect.client_peer:
        return f"server authenticated {report.get('peer')!r}, expected {expect.client_peer!r}"
    return None


def check_reject(exc: BaseException, expect: HandshakeExpectation) -> str | None:
    """Failure reason of a handshake that raised, or None when it is the
    expected rejection of a revoked server."""
    if expect.reject and isinstance(exc, handshake.RevokedIdentity):
        return None
    return f"{type(exc).__name__}: {exc}"


def check_server_errors(errors: dict, expected_rejects: int) -> list[str]:
    """Failures from the server's side: the revoked listener must have seen
    exactly one certificate_revoked alert per expected reject, and every
    other listener no failure at all."""
    problems = []
    revoked = [e for key, errs in errors.items() if key[0] == REVOKED for e in errs]
    alerts = sum(1 for e in revoked
                 if e == ("PeerAlert", AlertDescription.CERTIFICATE_REVOKED))
    if alerts != expected_rejects or len(revoked) != alerts:
        problems.append(f"revoked server saw {revoked[:3]}... ({len(revoked)} errors),"
                        f" expected {expected_rejects} certificate_revoked alerts")
    for key, errs in errors.items():
        if key[0] != REVOKED:
            problems.extend(f"server {key}: {name} {desc}" for name, desc in errs)
    return problems


def check_resolution(result, expected) -> str | None:
    """`expected` is the current public key, or identity.REVOKED."""
    if expected is identity.REVOKED:
        return None if result is identity.REVOKED else f"resolved {result!r}, expected REVOKED"
    if result is identity.REVOKED:
        return "resolved REVOKED for a live DID"
    _suite, key = result.authentication_key()
    return None if key == expected else "resolved a stale or foreign key"


def provision(suite: SignatureSuite, key, ledger, seed: int):
    """One universe of identities, registered on the ledger, with X.509
    names of its own: certs.verify_chain only tries the first trusted root
    whose name matches, so merged trust needs distinct CA names."""
    rng = DeterministicRng(f"{seed}/{key}".encode())
    universe = build_universe(suite, ledger=ledger, rng=rng)
    server_x509, server_root = make_chain(suite, f"server-{key}.example", rng)
    client_x509, client_root = make_chain(suite, f"client-{key}.example", rng)
    return replace(universe, server_x509=server_x509, client_x509=client_x509,
                   x509_roots=(server_root, client_root))


def _x509_label(ident) -> str:
    subject = x509.load_der_x509_certificate(ident.chain[0]).subject.rfc4514_string()
    return f"x509 {subject}"


# ---------------------------------------------------------------------------
# Handshake workloads
# ---------------------------------------------------------------------------

class _System:
    """SUT children and a ledger directory, released by close()."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.children: list[sut.Child] = []
        self.store_dir = tempfile.mkdtemp(prefix="ledger-", dir=work_dir())
        try:
            self._start(seed, trace)
        except BaseException:
            self.close()
            raise

    def _spawn_ledger(self, trace: bool) -> LedgerClient:
        child = sut.Child("ledger", str(int(trace)),
                          os.path.join(self.store_dir, "ledger.log"))
        self.children.append(child)
        address, root = child.recv()
        return LedgerClient(*address, trust_anchor=root)

    def close(self) -> None:
        for child in reversed(self.children):
            child.stop()
        self.children = []
        shutil.rmtree(self.store_dir, ignore_errors=True)


@dataclass(frozen=True)
class HandshakeOp:
    cell: str
    client_config: object
    address: tuple
    expect: HandshakeExpectation


class HandshakeSystem(_System):
    """Ledger node and handshake server children plus the client-side view."""

    def _start(self, seed: int, trace: bool) -> None:
        w = self.workload
        self.server = sut.Child("server", str(int(trace)))
        self.children.append(self.server)
        ledger_client = self._spawn_ledger(trace)

        keys = list(range(w.pool)) + ([REVOKED] if w.rejects_per_block else [])
        pool = {k: provision(w.suite, k, ledger_client, seed) for k in keys}
        if w.rejects_per_block:
            server = pool[REVOKED].server_ssi
            identity.did_deactivate(ledger_client, server.did, server.keys)

        # merged trust: any client authenticates any server and vice versa
        trust = TrustStore()
        roots: list[bytes] = []
        for u in pool.values():
            trust.trusted_issuer_keys.update(u.trust_store.trusted_issuer_keys)
            trust.trusted_dids.update(u.trust_store.trusted_dids)
            roots.extend(u.x509_roots)
        shared = {"trust_store": trust, "x509_roots": tuple(roots), "ledger": ledger_client}

        kinds = sorted({CELLS[c][1] for c in w.cells})
        endpoints = [((k, kind), pool[k].server_config(**SERVER_KINDS[kind], **shared))
                     for k in keys if k != REVOKED for kind in kinds]
        if w.rejects_per_block:
            endpoints.append(((REVOKED, "uni"), pool[REVOKED].server_config(**shared)))
        self.server.conn.send(endpoints)
        self.addresses = self.server.recv()

        self.client_configs = {(k, cell): pool[k].client_config(CELLS[cell][0], **shared)
                               for k in range(w.pool) for cell in w.cells}
        self.server_labels = {k: (_x509_label(u.server_x509), u.server_ssi.did.text)
                              for k, u in pool.items()}
        self.client_labels = {k: (_x509_label(u.client_x509), u.client_ssi.did.text)
                              for k, u in pool.items()}

    def make_op(self, cell: str, client: int, server) -> HandshakeOp:
        mode, kind, flow = CELLS[cell]
        server_x509, server_did = self.server_labels[server]
        client_x509, client_did = self.client_labels[client]
        server_peer = server_x509 if flow in (Flow.ORIGINAL, Flow.HYBRID_SERVER_X509) \
            else server_did
        if kind == "uni":
            client_peer = "anonymous"
        elif kind == "mut-x509":
            client_peer = client_x509
        else:
            client_peer = client_did
        expect = HandshakeExpectation(flow, server_peer, client_peer, server == REVOKED)
        return HandshakeOp(cell, self.client_configs[(client, cell)],
                           self.addresses[(server, kind)], expect)

    def ops(self, rng: random.Random):
        """Endless seeded stream: blocks of every cell CELL_REPEATS times in
        a shuffled order, each with `rejects_per_block` revoked-server ops."""
        w = self.workload
        while True:
            block = [(c, rng.randrange(w.pool), rng.randrange(w.pool))
                     for c in w.cells * CELL_REPEATS]
            block += [(rng.choice(REJECT_CELLS), rng.randrange(w.pool), REVOKED)
                      for _ in range(w.rejects_per_block)]
            rng.shuffle(block)
            for cell, client, server in block:
                yield self.make_op(cell, client, server)

    def run_op(self, op: HandshakeOp, index: int, tracer) -> OpRecord:
        """One TCP connection plus one handshake, timed from connect() until
        run_client returns; the echo round trip follows, untimed."""
        if tracer is not None:
            tracer.set_op(index)
        start = time.perf_counter()
        try:
            sock = socket.create_connection(op.address, timeout=OP_TIMEOUT)
        except OSError as exc:
            return OpRecord(index, op.cell, start, time.perf_counter() - start,
                            f"connect: {exc}")
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                outcome = handshake.run_client(op.client_config, sock)
            except Exception as exc:  # noqa: BLE001 - every failure is an op result
                return OpRecord(index, op.cell, start, time.perf_counter() - start,
                                check_reject(exc, op.expect), reject=op.expect.reject)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.set_op(None)
            nonce = os.urandom(sut.NONCE_LEN)
            try:
                outcome.session.send(nonce)
                reply = outcome.session.recv()
            except Exception as exc:  # noqa: BLE001
                return OpRecord(index, op.cell, start, elapsed, f"echo: {type(exc).__name__}: {exc}",
                                reject=op.expect.reject)
            failure = check_handshake(outcome, nonce, reply, op.expect)
            wire = None
            if tracer is not None:
                wire = (outcome.accounting("client").total_bytes
                        + outcome.accounting("server").total_bytes)
            return OpRecord(index, op.cell, start, elapsed, failure, client_random(outcome), wire,
                            op.expect.reject)
        finally:
            if tracer is not None:
                tracer.set_op(None)
            sock.close()

    @property
    def block_size(self) -> int:
        w = self.workload
        return len(w.cells) * CELL_REPEATS + w.rejects_per_block

    def server_problems(self, records) -> list[str]:
        """Server-side failures once the server has seen every op end."""
        expected = sum(1 for r in records if r.reject)
        errors = self.server.call("errors")
        for _ in range(20):  # the last alert may still be in flight
            if not check_server_errors(errors, expected):
                break
            time.sleep(0.05)
            errors = self.server.call("errors")
        return check_server_errors(errors, expected)


@dataclass(frozen=True)
class HandshakeWorkload:
    suite: SignatureSuite
    cells: tuple[str, ...]
    pool: int                  # provisioned universes clients and servers draw from
    clients: int               # concurrent closed-loop client threads
    rejects_per_block: int     # revoked-server ops per block
    windows: int               # measured sub-windows, each long enough for a p90

    def setup(self, seed: int, trace: bool) -> HandshakeSystem:
        return HandshakeSystem(self, seed, trace)


# ---------------------------------------------------------------------------
# Ledger churn
# ---------------------------------------------------------------------------

@dataclass
class LedgerOp:
    name: str
    call: object        # () -> result
    check: object       # result -> failure reason or None


class LedgerSystem(_System):
    """Ledger node child over a file-backed store; the DID lifecycle runs
    in the benchmark process through LedgerClient."""

    def _start(self, seed: int, trace: bool) -> None:
        self.client = self._spawn_ledger(trace)

    def ops(self, rng: random.Random):
        """Endless cycles of create -> resolve -> update -> resolve ->
        deactivate -> resolve, every DID new, keys drawn from the seed."""
        suite = self.workload.suite
        keygen = DeterministicRng(rng.getrandbits(64))
        client = self.client
        while True:
            state = {}

            def create():
                state["did"], state["keys"] = identity.did_create(client, suite, keygen)
                return state["did"]

            def created(did):
                expected = identity.derive_did(suite, state["keys"].public_key)
                return None if did == expected else "created DID is not content-addressed"

            yield LedgerOp("create", create, created)
            yield self._resolve(state, lambda: state["keys"].public_key)
            new_keys = generate_keypair(suite, keygen)

            def update():
                return identity.did_update(client, state["did"], state["keys"], new_keys)

            yield LedgerOp("update", update,
                           lambda did: None if did == state["did"] else "update changed the DID")
            yield self._resolve(state, lambda: new_keys.public_key)
            yield LedgerOp("deactivate",
                           lambda: identity.did_deactivate(client, state["did"], new_keys),
                           lambda ok: None if ok is True else "deactivate refused")
            yield self._resolve(state, lambda: identity.REVOKED)

    block_size = 6  # operations per DID lifecycle

    def server_problems(self, records) -> list[str]:
        return []

    def _resolve(self, state: dict, expected) -> LedgerOp:
        return LedgerOp("resolve",
                        lambda: identity.did_resolve(self.client, state["did"]),
                        lambda result: check_resolution(result, expected()))

    def run_op(self, op: LedgerOp, index: int, tracer) -> OpRecord:
        if tracer is not None:
            tracer.set_op(index)
        start = time.perf_counter()
        try:
            result = op.call()
            elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - every failure is an op result
            return OpRecord(index, op.name, start, time.perf_counter() - start,
                            f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.set_op(None)
        return OpRecord(index, op.name, start, elapsed, op.check(result))


@dataclass(frozen=True)
class LedgerWorkload:
    suite: SignatureSuite
    clients: int = 1
    windows: int = 15

    def setup(self, seed: int, trace: bool) -> LedgerSystem:
        return LedgerSystem(self, seed, trace)


WORKLOADS = {
    "handshake-ed25519": HandshakeWorkload(
        SignatureSuite.ED25519, tuple(CELLS), pool=8, clients=1,
        rejects_per_block=1, windows=15),
    "handshake-rsa": HandshakeWorkload(
        SignatureSuite.RSA_PSS_RSAE_SHA256, ("x509-uni", "x509-mut"), pool=1,
        clients=2, rejects_per_block=0, windows=2),
    "ledger-churn": LedgerWorkload(SignatureSuite.ED25519),
}
