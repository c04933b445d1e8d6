"""TLS record layer: plaintext records for the Hello flight, AEAD-protected
records for everything after ServerHello, and alert framing."""

from __future__ import annotations

import enum
import struct

from .crypto import CipherSuite, aead, traffic_keys

MAX_FRAGMENT = 1 << 14
_HEADER = struct.Struct("!BHH")


class ContentType(enum.IntEnum):
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class AlertDescription(enum.IntEnum):
    CLOSE_NOTIFY = 0
    UNEXPECTED_MESSAGE = 10
    BAD_RECORD_MAC = 20
    RECORD_OVERFLOW = 22
    HANDSHAKE_FAILURE = 40
    BAD_CERTIFICATE = 42
    CERTIFICATE_REVOKED = 44
    CERTIFICATE_EXPIRED = 45
    ILLEGAL_PARAMETER = 47
    DECODE_ERROR = 50
    DECRYPT_ERROR = 51
    INTERNAL_ERROR = 80


class HandshakeAbort(Exception):
    """The one root of every connection failure. `kind` is the stable
    programmatic name; `alert` the fatal alert the side that detects the
    failure sends, None when the failure is the peer's own ending."""
    kind = "internal_error"
    alert: AlertDescription | None = AlertDescription.INTERNAL_ERROR

    def __init__(self, detail: str = ""):
        # args stay the constructor's, so a pickled abort rebuilds as it was
        super().__init__(detail)
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


class PeerAlert(HandshakeAbort):
    """The peer ended the connection with a fatal alert."""
    kind = "peer_alert"
    alert = None

    def __init__(self, description: int):
        try:
            name = AlertDescription(description).name.lower()
        except ValueError:
            name = str(description)
        super().__init__(name)
        self.args = (description,)
        self.description = description


class TransportClosed(HandshakeAbort):
    """The peer went away without an alert."""
    kind = "transport_closed"
    alert = None


class RecordError(HandshakeAbort):
    """Record framing failure (RFC 8446 §5); fatal to the connection."""
    kind = "record_error"
    alert = AlertDescription.DECODE_ERROR


class BadRecordMac(RecordError):
    """A protected record failed AEAD authentication (§5.2)."""
    alert = AlertDescription.BAD_RECORD_MAC


class RecordOverflow(RecordError):
    """A record longer than RFC 8446 allows: 2^14 bytes of plaintext
    (§5.1), 2^14 + 256 bytes of ciphertext (§5.2)."""
    alert = AlertDescription.RECORD_OVERFLOW


class UnexpectedRecord(RecordError):
    """A content type not allowed here, or none at all (§5, §5.4)."""
    alert = AlertDescription.UNEXPECTED_MESSAGE


class _DirectionState:
    """One direction's traffic keys; the AEAD is built once per installed
    key and reused for every record."""

    __slots__ = ("aead", "iv", "seq")

    def __init__(self, cipher: CipherSuite, secret: bytes):
        key, self.iv = traffic_keys(cipher, secret)
        self.aead = aead(key)
        self.seq = 0

    def nonce(self) -> bytes:
        n = int.from_bytes(self.iv, "big") ^ self.seq
        return n.to_bytes(len(self.iv), "big")


class RecordLayer:
    """One connection's record framing over an ordered byte stream.

    `transport` needs sendall(bytes) and recv(n). Either direction starts
    unprotected and is upgraded independently as traffic secrets become
    available.
    """

    def __init__(self, transport):
        self.transport = transport
        self._write: _DirectionState | None = None
        self._read: _DirectionState | None = None

    def protect_writes(self, cipher: CipherSuite, secret: bytes) -> None:
        self._write = _DirectionState(cipher, secret)

    def protect_reads(self, cipher: CipherSuite, secret: bytes) -> None:
        self._read = _DirectionState(cipher, secret)

    # -- sending ------------------------------------------------------------

    def send(self, content_type: int, payload: bytes) -> None:
        for start in range(0, len(payload), MAX_FRAGMENT) or [0]:
            self._send_one(content_type, payload[start:start + MAX_FRAGMENT])

    def _send_one(self, content_type: int, fragment: bytes) -> None:
        if self._write is None:
            header = _HEADER.pack(content_type, 0x0303, len(fragment))
            self.transport.sendall(header + fragment)
            return
        inner = fragment + bytes([content_type])
        header = _HEADER.pack(int(ContentType.APPLICATION_DATA), 0x0303, len(inner) + 16)
        ct = self._write.aead.encrypt(self._write.nonce(), inner, header)
        self._write.seq += 1
        self.transport.sendall(header + ct)

    def send_alert(self, description: int, level: int = 2) -> None:
        try:
            self.send(ContentType.ALERT, bytes([level, description]))
        except Exception:
            pass  # peer may already be gone; the alert is best effort

    # -- receiving ----------------------------------------------------------

    def _read_exact(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = self.transport.recv(n - len(buf))
            if not chunk:
                raise TransportClosed("connection closed mid-record")
            buf += chunk
        return buf

    def recv(self) -> tuple[int, bytes]:
        """Next record as (content type, plaintext). Alerts are returned,
        not raised; callers decide severity."""
        header = self._read_exact(5)
        content_type, version, length = _HEADER.unpack(header)
        if version != 0x0303:
            raise RecordError(f"bad record version 0x{version:04x}")
        protected = self._read is not None and content_type == ContentType.APPLICATION_DATA
        if length > MAX_FRAGMENT + (256 if protected else 0):
            raise RecordOverflow(f"oversized record ({length} bytes)")
        body = self._read_exact(length)
        if self._read is None:
            if content_type not in (ContentType.ALERT, ContentType.HANDSHAKE):
                raise UnexpectedRecord(f"unexpected plaintext record type {content_type}")
            return content_type, body
        if content_type != ContentType.APPLICATION_DATA:
            if content_type == ContentType.ALERT:
                return content_type, body  # peer may alert in the clear
            raise UnexpectedRecord(f"unprotected record type {content_type} after key change")
        try:
            inner = self._read.aead.decrypt(self._read.nonce(), body, header)
        except Exception as exc:
            raise BadRecordMac("record authentication failed") from exc
        self._read.seq += 1
        stripped = inner.rstrip(b"\x00")
        if not stripped:
            raise UnexpectedRecord("record with no content type")
        return stripped[-1], stripped[:-1]

    def close(self) -> None:
        try:
            self.transport.close()
        except OSError:
            pass


class MessageStream:
    """Demultiplexes records into handshake messages and application data."""

    def __init__(self, records: RecordLayer):
        self.records = records
        self._handshake_buf = b""
        self._app_buf: list[bytes] = []

    def next_handshake_raw(self) -> bytes:
        """Raw bytes of the next complete handshake message."""
        from .messages import DecodeError

        while True:
            if len(self._handshake_buf) >= 4:
                body_len = int.from_bytes(self._handshake_buf[1:4], "big")
                if body_len > MAX_FRAGMENT * 4:
                    raise DecodeError("handshake message implausibly large", kind="length")
                if len(self._handshake_buf) >= 4 + body_len:
                    raw = self._handshake_buf[:4 + body_len]
                    self._handshake_buf = self._handshake_buf[4 + body_len:]
                    return raw
            ctype, payload = self.records.recv()
            if ctype == ContentType.HANDSHAKE:
                self._handshake_buf += payload
            elif ctype == ContentType.ALERT:
                raise PeerAlert(payload[1] if len(payload) >= 2 else 0)
            elif ctype == ContentType.APPLICATION_DATA:
                self._app_buf.append(payload)
            else:
                raise UnexpectedRecord(f"unexpected record type {ctype}")

    def next_app_data(self) -> bytes:
        if self._app_buf:
            return self._app_buf.pop(0)
        while True:
            ctype, payload = self.records.recv()
            if ctype == ContentType.APPLICATION_DATA:
                return payload
            if ctype == ContentType.ALERT:
                if len(payload) >= 2 and payload[1] == AlertDescription.CLOSE_NOTIFY:
                    raise TransportClosed("peer closed the session")
                raise PeerAlert(payload[1] if len(payload) >= 2 else 0)
            raise UnexpectedRecord(f"unexpected record type {ctype} after handshake")
