"""Span tracer the benchmark installs around the library's public layer
boundaries, and the per-layer metrics computed from its spans.

Wrappers are installed at the names callers look functions up by:
`handshake.py`, `identity.py` and `ledger.py` import `sign`, `verify`,
`encode`, `aead` and friends by name, so each of those bindings is wrapped
as well as the defining module's. A binding that no longer exists stops the
benchmark with an error instead of silently counting zero. Wrappers call
straight through and re-raise, so behaviour and every output check stay
unchanged.

A span is (id, parent id, op id, name, start, end, error, attrs). Spans stay
in memory; child processes send theirs to the benchmark process at the end
of a run. Clocks are `time.perf_counter`, which is CLOCK_MONOTONIC on Linux
and so comparable across processes of one host.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

from ssitls import certs, crypto, handshake, identity, ledger, messages, record

# (span name, module, attribute): every binding a caller looks the function up by.
FUNCTIONS = (
    ("handshake.client", handshake, "run_client"),
    ("handshake.server", handshake, "run_server"),
    ("messages.codec", messages, "encode"),
    ("messages.codec", handshake, "encode"),
    ("messages.codec", messages, "decode"),
    ("crypto.sign", crypto, "sign"),
    ("crypto.sign", handshake, "sign"),
    ("crypto.sign", identity, "sign"),
    ("crypto.secret_key_load", crypto, "load_secret_key"),
    ("crypto.verify", crypto, "verify"),
    ("crypto.verify", handshake, "verify"),
    ("crypto.verify", identity, "verify"),
    ("crypto.verify", ledger, "verify"),
    ("crypto.public_key_load", crypto, "load_public_key"),
    ("crypto.public_key_load", identity, "load_public_key"),
    ("crypto.aead", crypto, "aead"),
    ("crypto.aead", record, "aead"),
    ("crypto.ecdhe", handshake, "generate_x25519"),
    ("crypto.ecdhe", handshake, "ecdhe_exchange"),
    ("crypto.key_schedule", handshake, "finished_mac"),
    ("crypto.key_schedule", record, "traffic_keys"),
    ("certs.verify_chain", certs, "verify_chain"),
    ("certs.leaf_parse", certs, "leaf_suite"),
    ("certs.leaf_parse", certs, "leaf_public_key_bytes"),
    ("identity.vc_verify", identity, "vc_verify"),
    ("identity.canonical_json", identity, "canonical_json"),
    ("identity.canonical_json", ledger, "canonical_json"),
    ("identity.did_resolve", identity, "did_resolve"),
    ("identity.did_write", identity, "did_create"),
    ("identity.did_write", identity, "did_update"),
    ("identity.did_write", identity, "did_deactivate"),
)

# (span name, class, method): looked up on the class at call time.
METHODS = (
    ("messages.transcript_hash", messages.HandshakeTranscript, "hash"),
    ("record.send", record.RecordLayer, "send"),
    ("record.recv", record.RecordLayer, "recv"),
    ("crypto.key_schedule", crypto.KeySchedule, "inject_ecdhe"),
    ("crypto.key_schedule", crypto.KeySchedule, "handshake_traffic_secrets"),
    ("crypto.key_schedule", crypto.KeySchedule, "app_traffic_secrets"),
    ("identity.document_parse", identity.DidDocument, "from_json_dict"),
    ("ledger.get", ledger.LedgerClient, "get"),
    ("ledger.put", ledger.LedgerClient, "put"),
    ("ledger.store.get", ledger.LedgerStore, "get"),
    ("ledger.store.put", ledger.LedgerStore, "put"),
)

# Counted, not timed: key decoding stays in the self time of sign, verify
# or document parsing, whichever asked for it.
COUNTED = ("crypto.secret_key_load", "crypto.public_key_load")
HANDSHAKES = ("handshake.client", "handshake.server")
LEDGER_CALLS = ("ledger.get", "ledger.put")


class TracingError(RuntimeError):
    """A binding the tracer must wrap is missing."""


def client_random(outcome) -> str:
    """ClientHello.random (hex) from a handshake outcome's transcript: the
    key that pairs a client's span with the server's span of one handshake."""
    raw = outcome.transcript.entries[0].raw
    return raw[6:38].hex()  # type(1) length(3) legacy_version(2) random(32)


class Tracer:
    """Process-wide span recorder. `op` is the benchmark's operation id in
    the load generator; in the servers each connection thread gets its own.
    A thread whose op is None records nothing: that is the benchmark's own
    traffic, such as the echo that checks a finished handshake."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._next_conn = itertools.count(1)

    # -- state per thread -----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = ("conn", next(self._next_conn))
        return local

    def set_op(self, op) -> None:
        self._state().op = op

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn, describe=None):
        tracer = self
        if name in COUNTED:
            return self._counted(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if state.op is None:  # the benchmark's own traffic
                return fn(*args, **kwargs)
            stack = state.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            error = None
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, state.op, name, start, end, error, attrs))

        return traced

    def _counted(self, name: str, fn):
        """Zero-length event per call: counts the call and leaves its time
        in the calling span's self time."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            state = tracer._state()
            if state.op is not None:
                now = time.perf_counter()
                parent = state.stack[-1] if state.stack else 0
                tracer.spans.append((next(tracer._ids), parent, state.op, name,
                                     now, now, None, None))
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every binding in FUNCTIONS and METHODS, plus each record
        layer's transport so that socket waits are their own spans."""
        missing = [f"{mod.__name__}.{attr}" for _, mod, attr in FUNCTIONS
                   if not callable(getattr(mod, attr, None))]
        missing += [f"{cls.__qualname__}.{attr}" for _, cls, attr in METHODS
                    if attr not in cls.__dict__]
        if missing:
            raise TracingError("cannot trace missing names: " + ", ".join(missing))

        wrapped: dict[int, object] = {}  # one wrapper per original function
        for name, mod, attr in FUNCTIONS:
            original = getattr(mod, attr)
            if id(original) not in wrapped:
                describe = _outcome_random if name in HANDSHAKES else None
                wrapped[id(original)] = self.wrap(name, original, describe)
            setattr(mod, attr, wrapped[id(original)])
        for name, cls, attr in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

        tracer = self
        original_init = record.RecordLayer.__init__

        @functools.wraps(original_init)
        def init(layer, transport):
            original_init(layer, _TimedTransport(transport, tracer))

        record.RecordLayer.__init__ = init


def _outcome_random(outcome) -> dict:
    return {"random": client_random(outcome)}


class _TimedTransport:
    """Pass-through transport whose recv and sendall are spans."""

    def __init__(self, transport, tracer: Tracer):
        self._transport = transport
        self.recv = tracer.wrap("socket.recv", transport.recv)
        self.sendall = tracer.wrap("socket.send", transport.sendall)

    def __getattr__(self, name):
        return getattr(self._transport, name)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class SpanSet:
    """Spans of one traced phase, from every process, indexed per process."""

    def __init__(self, by_process: dict[str, list[tuple]], window: tuple[float, float]):
        lo, hi = window
        self.by_process = {proc: [s for s in spans if lo <= s[4] <= hi]
                           for proc, spans in by_process.items()}
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._index = {}
        for proc, spans in self.by_process.items():
            child_time: dict[int, float] = defaultdict(float)
            index = {}
            for sid, parent, _op, name, start, end, error, _attrs in spans:
                child_time[parent] += end - start
                index[sid] = (parent, name)
            self._index[proc] = index
            for sid, _parent, _op, name, start, end, error, _attrs in spans:
                self.calls[name] += 1
                self.total[name] += end - start
                self.self_time[name] += end - start - child_time.get(sid, 0.0)
                if error is not None:
                    self.errors[name] += 1

    def spans(self, *names: str):
        for proc, spans in self.by_process.items():
            for span in spans:
                if span[3] in names:
                    yield proc, span

    def has_ancestor(self, proc: str, span: tuple, names) -> bool:
        index = self._index[proc]
        parent = span[1]
        while parent in index:
            parent, name = index[parent]
            if name in names:
                return True
        return False


def write_spans(path: str, spans: SpanSet) -> None:
    """Spans of the measured window from every process, as JSON lines: a
    header naming the fields, then one array per span."""
    fields = ("proc", "id", "parent", "op", "name", "start", "end", "error", "attrs")
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": fields}) + "\n")
        for proc, rows in spans.by_process.items():
            for row in rows:
                fh.write(json.dumps([proc, *row], separators=(",", ":")) + "\n")


def layer_metrics(spans: SpanSet, ops: list, traced_p50: float,
                  untraced_p50: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase; each per op unless its name says
    otherwise. `ops` are the measured operation records of the phase."""
    n = max(len(ops), 1)
    ms = 1000.0

    def per_op(value: float) -> float:
        return value / n

    def calls(*names):
        return per_op(sum(spans.calls[x] for x in names)), "count"

    def self_ms(*names):
        return per_op(sum(spans.self_time[x] for x in names) * ms), "ms"

    def total_ms(*names):
        return per_op(sum(spans.total[x] for x in names) * ms), "ms"

    # server_wait: client op time not overlapped by the same handshake's
    # run_server (the server may still verify after the client returned)
    server_span = {span[7]["random"]: (span[4], span[5])
                   for proc, span in spans.spans("handshake.server")
                   if proc == "server" and span[7]}
    waits = []
    for op in ops:
        if op.random in server_span:
            s_start, s_end = server_span[op.random]
            end = op.start + op.elapsed
            overlap = max(0.0, min(end, s_end) - max(op.start, s_start))
            waits.append(op.elapsed - overlap)

    # unattributed: load-generator time of an op outside every top-level span
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, op, _name, start, end, _e, _a in spans.by_process.get("client", ()):
        if parent == 0 and isinstance(op, int):
            covered[op] += end - start
    unattributed = [op.elapsed - covered[op.index] for op in ops]

    channel = sum(1 for proc, span in spans.spans("handshake.client")
                  if spans.has_ancestor(proc, span, LEDGER_CALLS))
    wire = [op.wire_bytes for op in ops if op.wire_bytes is not None]
    client_wait = sum(s[5] - s[4] for s in spans.by_process.get("client", ())
                      if s[3] == "socket.recv")

    return {
        "handshake.client.self_ms": self_ms("handshake.client"),
        "handshake.server.self_ms": self_ms("handshake.server"),
        "handshake.aborts": (per_op(sum(spans.errors[x] for x in HANDSHAKES)), "count"),
        "handshake.server_wait_ms": (statistics.fmean(waits) * ms if waits else 0.0, "ms"),
        "messages.codec.calls": calls("messages.codec"),
        "messages.codec.self_ms": self_ms("messages.codec"),
        "messages.transcript_hash.calls": calls("messages.transcript_hash"),
        "messages.transcript_hash.self_ms": self_ms("messages.transcript_hash"),
        "messages.wire_bytes": (statistics.fmean(wire) if wire else 0.0, "bytes"),
        "record.records": calls("record.send", "record.recv"),
        "record.self_ms": self_ms("record.send", "record.recv", "crypto.aead"),
        "record.aead_inits": calls("crypto.aead"),
        "record.wait_ms": (per_op(client_wait * ms), "ms"),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.sign.self_ms": self_ms("crypto.sign"),
        "crypto.secret_key_loads": calls("crypto.secret_key_load"),
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.verify.self_ms": self_ms("crypto.verify"),
        "crypto.public_key_loads": calls("crypto.public_key_load"),
        "crypto.ecdhe.self_ms": self_ms("crypto.ecdhe"),
        "crypto.key_schedule.self_ms": self_ms("crypto.key_schedule"),
        "certs.verify_chain.calls": calls("certs.verify_chain"),
        "certs.verify_chain.self_ms": self_ms("certs.verify_chain"),
        # verify_chain, leaf_suite and leaf_public_key_bytes each parse the leaf once
        "certs.leaf_parses": calls("certs.verify_chain", "certs.leaf_parse"),
        "identity.vc_verify.self_ms": self_ms("identity.vc_verify"),
        "identity.document_parse.self_ms": self_ms("identity.document_parse"),
        "identity.canonical_json.calls": calls("identity.canonical_json"),
        "identity.did_resolve.calls": calls("identity.did_resolve"),
        "identity.did_resolve.ms": total_ms("identity.did_resolve"),
        "identity.did_write.self_ms": self_ms("identity.did_write"),
        "ledger.requests": calls(*LEDGER_CALLS),
        "ledger.channel_handshakes": (per_op(channel), "count"),
        "ledger.get.ms": total_ms("ledger.get"),
        "ledger.put.ms": total_ms("ledger.put"),
        "ledger.rejects": (per_op(sum(spans.errors[x] for x in LEDGER_CALLS)), "count"),
        "ledger.store.get.self_ms": self_ms("ledger.store.get"),
        "ledger.store.put.self_ms": self_ms("ledger.store.put"),
        "trace.unattributed_ms": (statistics.fmean(unattributed) * ms, "ms"),
        "trace.overhead": (traced_p50 / untraced_p50, "ratio"),
    }


def model_terms(spans: SpanSet) -> dict[str, tuple[float, int]]:
    """perfmodel's primitives as means over the endpoints' own calls (the
    ledger channel's nested handshakes excluded, as perfmodel excludes
    them): t_c chain verification, t_v credential verification, t_d DID
    resolution including its ledger channel. Values are (mean ms, n)."""
    out = {}
    for term, name in (("t_c", "certs.verify_chain"), ("t_v", "identity.vc_verify"),
                       ("t_d", "identity.did_resolve")):
        durations = [span[5] - span[4] for proc, span in spans.spans(name)
                     if not spans.has_ancestor(proc, span, LEDGER_CALLS)]
        mean = statistics.fmean(durations) * 1000.0 if durations else 0.0
        out[term] = (mean, len(durations))
    return out
