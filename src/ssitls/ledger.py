"""In-repo distributed-ledger stand-in: an append-only DID document store
served over TCP, plus the resolver client.

The store is the root of trust for identity public keys. Resolvers normally
reach it over an X.509-authenticated original handshake; a loudly named
plaintext mode exists so the resolution man-in-the-middle attack can be
demonstrated against it.

Wire protocol (both channel modes): 4-byte big-endian length, then a
canonical-JSON body. Requests are {"op": "get"|"put", ...}.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import socket
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from . import handshake
from .certs import X509Identity
from .crypto import KeyPair, verify
from .identity import (
    Did,
    DidDocument,
    DidNotFound,
    DidResolutionError,
    canonical_json,
    genesis_bytes,
)
from .record import TransportClosed

logger = logging.getLogger(__name__)

MAX_FRAME = 1 << 20


class LedgerError(Exception):
    pass


class LedgerRejected(LedgerError):
    """Record violates append-only continuity rules."""


class LedgerCorruption(LedgerError):
    """Store log failed to replay; the node refuses to start."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerRecord:
    """One append-only entry for a method-specific-id.

    Sequence 0 is self-signed by the key inside its own document and its id
    must equal the document's content address. Every later record is signed
    by the key of the record before it; a tombstone is terminal.
    """

    method_specific_id: str
    sequence: int
    payload: dict
    author_signature: bytes = b""

    @classmethod
    def document_record(cls, msid: str, sequence: int, document: dict) -> "LedgerRecord":
        return cls(msid, sequence, {"document": document})

    @classmethod
    def tombstone_record(cls, msid: str, sequence: int) -> "LedgerRecord":
        return cls(msid, sequence, {"tombstone": True})

    @property
    def is_tombstone(self) -> bool:
        return bool(self.payload.get("tombstone"))

    @property
    def document(self) -> dict:
        return self.payload["document"]

    def signing_bytes(self) -> bytes:
        return canonical_json({"id": self.method_specific_id,
                               "seq": self.sequence,
                               "payload": self.payload})

    def signed(self, keys: KeyPair) -> "LedgerRecord":
        from .crypto import sign
        return replace(self, author_signature=sign(keys.suite, keys.secret_key,
                                                   self.signing_bytes()))

    def to_json_dict(self) -> dict:
        return {"id": self.method_specific_id, "seq": self.sequence,
                "payload": self.payload, "sig": self.author_signature.hex()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LedgerRecord":
        try:
            record = cls(data["id"], int(data["seq"]), data["payload"],
                         bytes.fromhex(data["sig"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed record: {exc}") from exc
        if not isinstance(record.method_specific_id, str) or not isinstance(record.payload, dict):
            raise LedgerError("malformed record: id must be a string and payload an object")
        return record


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

class LedgerStore:
    """Append-only log with a latest-only in-memory index. The log is the
    file at `path`, or an in-memory buffer when `path=None`; it is the only
    history. The index holds the latest record of each id, and `records()`
    replays an id's history from the log. Every accepted record is appended
    to the log before it is indexed, so the store never serves a record its
    log lacks.

    On start the log is replayed. A final frame cut short by a crash during
    an append is truncated away with a warning; any complete frame that does
    not parse or validate raises `LedgerCorruption`.

    The store itself satisfies the resolver-client interface (get/put and
    session), so tests can resolve directly against it without a network hop.
    """

    def __init__(self, path: str | Path | None = None):
        self._latest: dict[str, LedgerRecord] = {}
        self._lock = threading.RLock()
        # unbuffered: a failed append leaves no bytes behind to be flushed
        # after a later record
        self._log_fh = io.BytesIO() if path is None else open(path, "a+b", buffering=0)
        try:
            self._replay()
        except BaseException:
            self._log_fh.close()
            raise

    def _read_log(self) -> bytes:
        self._log_fh.seek(0)
        return self._log_fh.read()

    def _replay(self) -> None:
        data = self._read_log()
        end = 0
        for record, end in _log_records(data):
            try:
                self._validate(record)
            except LedgerError as exc:
                raise LedgerCorruption(f"log replay failed: {exc}") from exc
            self._index(record)
        if end < len(data):
            logger.warning("ledger log ends in a torn frame; dropped its %d bytes",
                           len(data) - end)
            self._log_fh.truncate(end)

    def _validate(self, record: LedgerRecord) -> None:
        shape_ok = (set(record.payload.keys()) == {"document"}
                    or record.payload == {"tombstone": True})
        if not shape_ok:
            raise LedgerRejected("payload must be a document or a tombstone")
        last = self._latest.get(record.method_specific_id)
        if last is not None:
            if last.is_tombstone:
                raise LedgerRejected("id is tombstoned")
            if record.sequence != last.sequence + 1:
                raise LedgerRejected(
                    f"expected sequence {last.sequence + 1}, got {record.sequence}")
            signer = last.document
        else:
            if record.sequence != 0:
                raise LedgerRejected(f"first record must have sequence 0,"
                                     f" got {record.sequence}")
            if record.is_tombstone:
                raise LedgerRejected("tombstone cannot open a sequence")
            signer = record.document
        try:
            doc = DidDocument.from_json_dict(signer)
            suite, public_key = doc.authentication_key()
        except Exception as exc:
            raise LedgerRejected(f"cannot extract the controlling key: {exc}") from exc
        if last is None:
            address = hashlib.sha256(genesis_bytes(doc)).hexdigest()
            if address != record.method_specific_id:
                raise LedgerRejected("id is not the document's content address")
            if doc.id.method_specific_id != record.method_specific_id:
                raise LedgerRejected("document id does not match the record id")
        if not verify(suite, public_key, record.signing_bytes(), record.author_signature):
            raise LedgerRejected("record is not signed by the controlling key")

    def _index(self, record: LedgerRecord) -> None:
        self._latest[record.method_specific_id] = record

    def _append(self, record: LedgerRecord) -> None:
        """Write the record's whole frame to the log; on a failed write, cut
        the log back to its previous length and re-raise."""
        body = canonical_json(record.to_json_dict())
        frame = memoryview(len(body).to_bytes(4, "big") + body)
        end = self._log_fh.seek(0, os.SEEK_END)
        try:
            while frame:
                frame = frame[self._log_fh.write(frame):]
        except OSError:
            self._log_fh.truncate(end)
            raise

    # -- client-facing operations -------------------------------------------

    def put(self, record: LedgerRecord) -> None:
        with self._lock:
            self._validate(record)
            self._append(record)
            self._index(record)

    def get(self, method_specific_id: str) -> LedgerRecord:
        with self._lock:
            record = self._latest.get(method_specific_id)
            if record is None:
                raise DidNotFound(method_specific_id)
            return record

    def session(self) -> contextlib.AbstractContextManager["LedgerStore"]:
        """The store itself: it has no channel to share."""
        return contextlib.nullcontext(self)

    def records(self, method_specific_id: str) -> tuple[LedgerRecord, ...]:
        """Every record of the id, oldest first, replayed from the log."""
        with self._lock:
            data = self._read_log()
        return tuple(record for record, _ in _log_records(data)
                     if record.method_specific_id == method_specific_id)

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._latest.keys())

    def close(self) -> None:
        self._log_fh.close()


def _log_records(data: bytes):
    """Yield (record, end offset) for each complete frame of a store log, and
    stop at an incomplete final frame. A complete frame that does not parse
    raises `LedgerCorruption`."""
    offset = 0
    while offset + 4 <= len(data):
        end = offset + 4 + int.from_bytes(data[offset:offset + 4], "big")
        if end > len(data):
            return
        try:
            record = LedgerRecord.from_json_dict(json.loads(data[offset + 4:end]))
        except (LedgerError, ValueError) as exc:
            raise LedgerCorruption(f"log replay failed: {exc}") from exc
        yield record, end
        offset = end


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

class FrameIO:
    """Length-prefixed canonical-JSON frames over any chunked byte channel."""

    def __init__(self, send_bytes, recv_chunk):
        self._send = send_bytes
        self._recv = recv_chunk
        self._buf = b""

    def send_frame(self, obj: dict) -> None:
        body = canonical_json(obj)
        if len(body) > MAX_FRAME:
            raise LedgerError("frame too large")
        self._send(len(body).to_bytes(4, "big") + body)

    def recv_frame(self) -> dict | None:
        while True:
            if len(self._buf) >= 4:
                length = int.from_bytes(self._buf[:4], "big")
                if length > MAX_FRAME:
                    raise LedgerError("oversized frame")
                if len(self._buf) >= 4 + length:
                    body = self._buf[4:4 + length]
                    self._buf = self._buf[4 + length:]
                    try:
                        obj = json.loads(body)
                    except ValueError as exc:
                        raise LedgerError(f"frame is not JSON: {exc}") from exc
                    if not isinstance(obj, dict):
                        raise LedgerError("frame must be a JSON object")
                    return obj
            try:
                chunk = self._recv()
            except (TransportClosed, OSError):
                chunk = b""
            if not chunk:
                if self._buf:
                    raise LedgerError("connection closed mid-frame")
                return None
            self._buf += chunk

    def request(self, obj: dict) -> dict:
        """Send a request frame and return the reply; LedgerError when the
        peer closes instead."""
        self.send_frame(obj)
        response = self.recv_frame()
        if response is None:
            raise LedgerError("ledger node closed the connection")
        return response

    def serve(self, answer) -> None:
        """Send `answer(request)` for each request frame until the peer closes."""
        while (request := self.recv_frame()) is not None:
            self.send_frame(answer(request))


def socket_frames(sock: socket.socket) -> FrameIO:
    return FrameIO(sock.sendall, lambda: sock.recv(65536))


def server_frames(conn: socket.socket, x509_identity: X509Identity | None) -> FrameIO:
    """Frames over an accepted connection: behind an X.509 original
    handshake, or plaintext when `x509_identity` is None."""
    if x509_identity is None:
        return socket_frames(conn)
    config = handshake.EndpointConfig(x509_identity=x509_identity)
    session = handshake.run_server(config, conn).session
    return FrameIO(session.send, session.recv)


# ---------------------------------------------------------------------------
# Node (server)
# ---------------------------------------------------------------------------

class LedgerNode(handshake.TcpServer):
    """Single ledger node. Authenticated mode fronts every session with an
    X.509 original handshake; `insecure_plaintext=True` serves raw frames
    for attack demonstrations only."""

    def __init__(self, store: LedgerStore,
                 x509_identity: X509Identity | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 insecure_plaintext: bool = False,
                 conn_timeout: float = 30.0):
        if not insecure_plaintext and x509_identity is None:
            raise LedgerError("authenticated mode needs an X.509 identity")
        super().__init__(host, port, conn_timeout=conn_timeout)
        self.store = store
        self.insecure_plaintext = insecure_plaintext
        self._identity = x509_identity
        if insecure_plaintext:
            logger.warning("ledger node %s:%d serving PLAINTEXT frames;"
                           " resolution is forgeable in transit", *self.address)

    def serve_one(self, conn: socket.socket) -> None:
        try:
            identity = None if self.insecure_plaintext else self._identity
            server_frames(conn, identity).serve(self._handle)
        except (handshake.HandshakeAbort, LedgerError, OSError) as exc:
            logger.debug("ledger session dropped: %s", exc)

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "get":
            try:
                record = self.store.get(str(request.get("id", "")))
            except DidNotFound:
                return {"ok": False, "error": "not-found"}
            return {"ok": True, "record": record.to_json_dict()}
        if op == "put":
            try:
                record = LedgerRecord.from_json_dict(request.get("record", {}))
                self.store.put(record)
            except Exception as exc:
                return {"ok": False, "error": f"rejected: {exc}"}
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


# ---------------------------------------------------------------------------
# Resolver client
# ---------------------------------------------------------------------------

class LedgerClient:
    """Resolver-side access to a ledger node.

    Every DID operation gets one fresh connection (and, in authenticated
    mode, one fresh original handshake): a lone `get` or `put` opens its own,
    and the requests made inside `session()` share one. Resolution cost
    deliberately includes the secure-channel setup, with no caching or
    resumption, and no channel outlives the operation that opened it.
    """

    def __init__(self, host: str, port: int,
                 trust_anchor: bytes | None = None,
                 insecure_plaintext: bool = False,
                 timeout: float = 10.0):
        if not insecure_plaintext and trust_anchor is None:
            raise LedgerError("authenticated mode needs the node's root certificate")
        self.host, self.port = host, port
        self.trust_anchor = trust_anchor
        self.insecure_plaintext = insecure_plaintext
        self.timeout = timeout

    def get(self, method_specific_id: str) -> LedgerRecord:
        response = self._request({"op": "get", "id": method_specific_id})
        if not response.get("ok"):
            if response.get("error") == "not-found":
                raise DidNotFound(method_specific_id)
            raise DidResolutionError(response.get("error", "resolution failed"))
        try:
            return LedgerRecord.from_json_dict(response["record"])
        except (KeyError, LedgerError) as exc:
            raise DidResolutionError(f"malformed node response: {exc}") from exc

    def put(self, record: LedgerRecord) -> None:
        response = self._request({"op": "put", "record": record.to_json_dict()})
        if not response.get("ok"):
            raise LedgerRejected(response.get("error", "rejected"))

    @contextlib.contextmanager
    def session(self):
        """A client whose requests share one fresh channel, opened by its
        first request and closed when the block exits."""
        session = _LedgerSession(self)
        try:
            yield session
        finally:
            session.close()

    def _request(self, request: dict) -> dict:
        with self.session() as session:
            return session._request(request)


class _LedgerSession(LedgerClient):
    """The client `LedgerClient.session()` yields. It inherits `get` and
    `put` unchanged and owns the open channel; unlike `LedgerClient`, it is
    not meant to be pickled."""

    def __init__(self, client: LedgerClient):
        super().__init__(client.host, client.port, client.trust_anchor,
                         client.insecure_plaintext, client.timeout)
        self._sock: socket.socket | None = None
        self._frames: FrameIO | None = None

    def _request(self, request: dict) -> dict:
        try:
            if self._frames is None:
                self._frames = self._open()
            return self._frames.request(request)
        except handshake.HandshakeAbort as exc:
            # the ledger channel's own failure, never the caller's handshake peer's
            raise DidResolutionError(f"ledger channel failed: {exc}") from exc
        except LedgerError as exc:
            raise DidResolutionError(str(exc)) from exc
        except OSError as exc:
            raise DidResolutionError(f"ledger transport failure: {exc}") from exc

    def _open(self) -> FrameIO:
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        except OSError as exc:
            raise DidResolutionError(f"cannot reach ledger node: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.insecure_plaintext:
            return socket_frames(self._sock)
        config = handshake.EndpointConfig(
            preferred_mode=handshake.Mode.X509,
            x509_roots=(self.trust_anchor,))
        session = handshake.run_client(config, self._sock).session
        return FrameIO(session.send, session.recv)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = self._frames = None
