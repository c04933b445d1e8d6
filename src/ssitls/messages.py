"""Handshake message and extension codec in RFC 8446 presentation style.

Covers the original messages used by the flows here plus the four SSI
additions (SSIRequest, VC, DID, DIDVerify) and the ssi_parameters
extension, together with transcript bookkeeping and byte accounting.

Code points not taken from the RFC 8446 registry are private assignments,
kept in one place below:

    ssi_parameters extension type  65282  (private-use range)
    SSIRequest                     26     (unassigned handshake type)
    VC                             27
    DID                            28
    DIDVerify                      29
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import certs, identity
from .crypto import CipherSuite, SignatureSuite
from .wire import Reader, WireError, Writer

LEGACY_VERSION = 0x0303
TLS_1_3 = 0x0304
GROUP_X25519 = 0x001D


class HandshakeType(enum.IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    ENCRYPTED_EXTENSIONS = 8
    CERTIFICATE = 11
    CERTIFICATE_REQUEST = 13
    CERTIFICATE_VERIFY = 15
    FINISHED = 20
    SSI_REQUEST = 26
    VC = 27
    DID = 28
    DID_VERIFY = 29


class ExtensionType(enum.IntEnum):
    SUPPORTED_GROUPS = 10
    SIGNATURE_ALGORITHMS = 13
    SUPPORTED_VERSIONS = 43
    KEY_SHARE = 51
    SSI_PARAMETERS = 65282


class AuthnMode(enum.IntEnum):
    UNSPECIFIED = 0
    DID = 1
    VC = 2


class DecodeError(Exception):
    """Any malformed wire input; maps to a decode_error alert."""

    def __init__(self, message: str, kind: str = "malformed"):
        super().__init__(message)
        self.kind = kind


# ---------------------------------------------------------------------------
# ssi_parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SsiParameters:
    """Authentication-mode negotiation payload.

    UNSPECIFIED pairs with an empty method list: the signal that the sender
    holds an SSI identity but wants the peer to authenticate with X.509.
    """

    mode: AuthnMode
    did_methods: tuple[int, ...] = ()

    def __post_init__(self):
        if (self.mode is AuthnMode.UNSPECIFIED) != (len(self.did_methods) == 0):
            raise DecodeError("authentication mode 0 pairs with an empty method list"
                              " and SSI modes require at least one method",
                              kind="ssi_parameters")

    def encode(self) -> bytes:
        w = Writer().u8(int(self.mode)).u8(len(self.did_methods))
        for m in self.did_methods:
            w.u8(m)
        return w.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "SsiParameters":
        r = Reader(data)
        try:
            mode_byte = r.u8()
            count = r.u8()
            methods = tuple(r.u8() for _ in range(count))
            r.expect_end()
        except WireError as exc:
            raise DecodeError(f"ssi_parameters: {exc}", kind="length") from exc
        try:
            mode = AuthnMode(mode_byte)
        except ValueError:
            raise DecodeError(f"unknown authentication mode {mode_byte}",
                              kind="ssi_parameters")
        if len(set(methods)) != len(methods):
            raise DecodeError("duplicate DID method codes", kind="ssi_parameters")
        return cls(mode, methods)


# ---------------------------------------------------------------------------
# Extension blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionBlock:
    """Ordered (type, payload) pairs; unknown types survive a round trip."""

    entries: tuple[tuple[int, bytes], ...] = ()

    def get(self, ext_type: int) -> bytes | None:
        for t, payload in self.entries:
            if t == ext_type:
                return payload
        return None

    def has(self, ext_type: int) -> bool:
        return self.get(ext_type) is not None

    def encode(self) -> bytes:
        inner = Writer()
        for t, payload in self.entries:
            inner.u16(t).vector(2, payload)
        return Writer().vector(2, inner.getvalue()).getvalue()

    @classmethod
    def decode(cls, r: Reader) -> "ExtensionBlock":
        try:
            block = Reader(r.vector(2))
            entries = []
            seen = set()
            while block.remaining():
                t = block.u16()
                payload = block.vector(2)
                if t in seen:
                    raise DecodeError(f"duplicate extension type {t}", kind="duplicate")
                seen.add(t)
                entries.append((t, payload))
        except WireError as exc:
            raise DecodeError(f"extension block: {exc}", kind="length") from exc
        return cls(tuple(entries))


def encode_signature_algorithms(suites) -> bytes:
    inner = Writer()
    for s in suites:
        inner.u16(s.scheme_code if isinstance(s, SignatureSuite) else int(s))
    return Writer().vector(2, inner.getvalue()).getvalue()


def decode_signature_algorithms(data: bytes) -> tuple[int, ...]:
    r = Reader(data)
    try:
        inner = Reader(r.vector(2, min_len=2))
        r.expect_end()
        if inner.remaining() % 2:
            raise DecodeError("odd signature_algorithms length", kind="length")
        return tuple(inner.u16() for _ in range(inner.remaining() // 2))
    except WireError as exc:
        raise DecodeError(f"signature_algorithms: {exc}", kind="length") from exc


def encode_key_share_client(shares: list[tuple[int, bytes]]) -> bytes:
    inner = Writer()
    for group, key in shares:
        inner.u16(group).vector(2, key)
    return Writer().vector(2, inner.getvalue()).getvalue()


def decode_key_share_client(data: bytes) -> tuple[tuple[int, bytes], ...]:
    r = Reader(data)
    try:
        inner = Reader(r.vector(2))
        r.expect_end()
        shares = []
        while inner.remaining():
            group = inner.u16()
            shares.append((group, inner.vector(2, min_len=1)))
        return tuple(shares)
    except WireError as exc:
        raise DecodeError(f"key_share: {exc}", kind="length") from exc


def encode_key_share_server(group: int, key: bytes) -> bytes:
    return Writer().u16(group).vector(2, key).getvalue()


def decode_key_share_server(data: bytes) -> tuple[int, bytes]:
    r = Reader(data)
    try:
        group = r.u16()
        key = r.vector(2, min_len=1)
        r.expect_end()
        return group, key
    except WireError as exc:
        raise DecodeError(f"key_share: {exc}", kind="length") from exc


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClientHello:
    random: bytes
    session_id: bytes
    cipher_suites: tuple[int, ...]
    extensions: ExtensionBlock

    msg_type = HandshakeType.CLIENT_HELLO

    def ssi_parameters(self) -> SsiParameters | None:
        raw = self.extensions.get(ExtensionType.SSI_PARAMETERS)
        return None if raw is None else SsiParameters.decode(raw)


@dataclass(frozen=True)
class ServerHello:
    random: bytes
    session_id: bytes
    cipher_suite: int
    extensions: ExtensionBlock

    msg_type = HandshakeType.SERVER_HELLO


@dataclass(frozen=True)
class EncryptedExtensions:
    extensions: ExtensionBlock = ExtensionBlock()

    msg_type = HandshakeType.ENCRYPTED_EXTENSIONS


@dataclass(frozen=True)
class CertificateRequest:
    context: bytes = b""
    extensions: ExtensionBlock = ExtensionBlock()

    msg_type = HandshakeType.CERTIFICATE_REQUEST


@dataclass(frozen=True)
class SsiRequest:
    """Client-authentication request for the SSI modes. Carries exactly
    ssi_parameters and signature_algorithms."""

    ssi_parameters: SsiParameters
    signature_algorithms: tuple[int, ...]

    msg_type = HandshakeType.SSI_REQUEST


@dataclass(frozen=True)
class Certificate:
    context: bytes
    # (DER certificate, raw per-entry extensions) leaf first, root excluded
    entries: tuple[tuple[bytes, bytes], ...]

    msg_type = HandshakeType.CERTIFICATE

    @property
    def chain(self) -> list[bytes]:
        return [cert for cert, _ in self.entries]


@dataclass(frozen=True)
class CertificateVerify:
    scheme: int
    signature: bytes

    msg_type = HandshakeType.CERTIFICATE_VERIFY


@dataclass(frozen=True)
class VcMessage:
    vc: bytes

    msg_type = HandshakeType.VC


@dataclass(frozen=True)
class DidMessage:
    did_method: int
    did: bytes

    msg_type = HandshakeType.DID


@dataclass(frozen=True)
class DidVerify:
    scheme: int
    signature: bytes

    msg_type = HandshakeType.DID_VERIFY


@dataclass(frozen=True)
class Finished:
    verify_data: bytes

    msg_type = HandshakeType.FINISHED


HandshakeMessage = (ClientHello | ServerHello | EncryptedExtensions | CertificateRequest
                    | SsiRequest | Certificate | CertificateVerify | VcMessage
                    | DidMessage | DidVerify | Finished)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_body(msg: HandshakeMessage) -> bytes:
    w = Writer()
    if isinstance(msg, ClientHello):
        w.u16(LEGACY_VERSION).raw(msg.random).vector(1, msg.session_id)
        suites = Writer()
        for c in msg.cipher_suites:
            suites.u16(c)
        w.vector(2, suites.getvalue()).vector(1, b"\x00")
        w.raw(msg.extensions.encode())
    elif isinstance(msg, ServerHello):
        w.u16(LEGACY_VERSION).raw(msg.random).vector(1, msg.session_id)
        w.u16(msg.cipher_suite).u8(0)
        w.raw(msg.extensions.encode())
    elif isinstance(msg, EncryptedExtensions):
        w.raw(msg.extensions.encode())
    elif isinstance(msg, CertificateRequest):
        w.vector(1, msg.context).raw(msg.extensions.encode())
    elif isinstance(msg, SsiRequest):
        block = ExtensionBlock((
            (int(ExtensionType.SSI_PARAMETERS), msg.ssi_parameters.encode()),
            (int(ExtensionType.SIGNATURE_ALGORITHMS),
             encode_signature_algorithms(msg.signature_algorithms)),
        ))
        w.raw(block.encode())
    elif isinstance(msg, Certificate):
        w.vector(1, msg.context)
        entries = Writer()
        for cert, exts in msg.entries:
            entries.vector(3, cert).vector(2, exts)
        w.vector(3, entries.getvalue())
    elif isinstance(msg, (CertificateVerify, DidVerify)):
        w.u16(msg.scheme).vector(2, msg.signature)
    elif isinstance(msg, VcMessage):
        w.vector(2, msg.vc)
    elif isinstance(msg, DidMessage):
        w.u8(msg.did_method).vector(2, msg.did)
    elif isinstance(msg, Finished):
        w.raw(msg.verify_data)
    else:
        raise DecodeError(f"cannot encode {type(msg).__name__}", kind="type")
    return w.getvalue()


def encode(msg: HandshakeMessage) -> bytes:
    """Framed wire form: one type byte, 3-byte length, body."""
    if isinstance(msg, ClientHello) and len(msg.random) != 32:
        raise DecodeError("ClientHello.random must be 32 bytes", kind="length")
    if isinstance(msg, ServerHello) and len(msg.random) != 32:
        raise DecodeError("ServerHello.random must be 32 bytes", kind="length")
    body = _encode_body(msg)
    return Writer().u8(int(msg.msg_type)).u24(len(body)).raw(body).getvalue()


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _decode_client_hello(r: Reader) -> ClientHello:
    if r.u16() != LEGACY_VERSION:
        raise DecodeError("bad legacy_version", kind="version")
    random = r.take(32)
    session_id = r.vector(1)
    if len(session_id) > 32:
        raise DecodeError("legacy_session_id too long", kind="length")
    suites_raw = Reader(r.vector(2, min_len=2))
    if suites_raw.remaining() % 2:
        raise DecodeError("odd cipher_suites length", kind="length")
    suites = tuple(suites_raw.u16() for _ in range(suites_raw.remaining() // 2))
    compression = r.vector(1, min_len=1)
    if compression != b"\x00":
        raise DecodeError("compression methods must be the single null method",
                          kind="compression")
    extensions = ExtensionBlock.decode(r)
    return ClientHello(random, session_id, suites, extensions)


def _decode_server_hello(r: Reader) -> ServerHello:
    if r.u16() != LEGACY_VERSION:
        raise DecodeError("bad legacy_version", kind="version")
    random = r.take(32)
    session_id = r.vector(1)
    suite = r.u16()
    if r.u8() != 0:
        raise DecodeError("nonzero compression method", kind="compression")
    extensions = ExtensionBlock.decode(r)
    if extensions.has(ExtensionType.SSI_PARAMETERS):
        raise DecodeError("ssi_parameters not allowed in ServerHello", kind="context")
    return ServerHello(random, session_id, suite, extensions)


def _decode_certificate(r: Reader) -> Certificate:
    context = r.vector(1)
    entries_raw = Reader(r.vector(3))
    entries = []
    while entries_raw.remaining():
        cert = entries_raw.vector(3, min_len=1)
        exts = entries_raw.vector(2)
        entries.append((cert, exts))
    return Certificate(context, tuple(entries))


def _decode_ssi_request(r: Reader) -> SsiRequest:
    block = ExtensionBlock.decode(r)
    types = [t for t, _ in block.entries]
    expected = {int(ExtensionType.SSI_PARAMETERS), int(ExtensionType.SIGNATURE_ALGORITHMS)}
    if set(types) != expected or len(types) != 2:
        raise DecodeError("SSIRequest must carry exactly ssi_parameters and"
                          " signature_algorithms", kind="context")
    params = SsiParameters.decode(block.get(ExtensionType.SSI_PARAMETERS))
    algorithms = decode_signature_algorithms(block.get(ExtensionType.SIGNATURE_ALGORITHMS))
    return SsiRequest(params, algorithms)


def decode_prefix(data: bytes) -> tuple[HandshakeMessage, int]:
    """Decode one framed message from the front of `data`.

    Returns (message, bytes consumed). Raises DecodeError for anything
    malformed; never anything else.
    """
    outer = Reader(data)
    try:
        msg_type = outer.u8()
        body = outer.vector(3)
    except WireError as exc:
        raise DecodeError(f"framing: {exc}", kind="length") from exc
    consumed = outer.pos
    r = Reader(body)
    try:
        if msg_type == HandshakeType.CLIENT_HELLO:
            msg = _decode_client_hello(r)
        elif msg_type == HandshakeType.SERVER_HELLO:
            msg = _decode_server_hello(r)
        elif msg_type == HandshakeType.ENCRYPTED_EXTENSIONS:
            block = ExtensionBlock.decode(r)
            if block.has(ExtensionType.SSI_PARAMETERS):
                raise DecodeError("ssi_parameters not allowed in EncryptedExtensions",
                                  kind="context")
            msg = EncryptedExtensions(block)
        elif msg_type == HandshakeType.CERTIFICATE_REQUEST:
            context = r.vector(1)
            block = ExtensionBlock.decode(r)
            if block.has(ExtensionType.SSI_PARAMETERS):
                raise DecodeError("ssi_parameters not allowed in CertificateRequest",
                                  kind="context")
            msg = CertificateRequest(context, block)
        elif msg_type == HandshakeType.SSI_REQUEST:
            msg = _decode_ssi_request(r)
        elif msg_type == HandshakeType.CERTIFICATE:
            msg = _decode_certificate(r)
        elif msg_type == HandshakeType.CERTIFICATE_VERIFY:
            msg = CertificateVerify(r.u16(), r.vector(2))
        elif msg_type == HandshakeType.VC:
            msg = VcMessage(r.vector(2))
        elif msg_type == HandshakeType.DID:
            msg = DidMessage(r.u8(), r.vector(2))
        elif msg_type == HandshakeType.DID_VERIFY:
            msg = DidVerify(r.u16(), r.vector(2))
        elif msg_type == HandshakeType.FINISHED:
            if not r.remaining():
                raise DecodeError("empty Finished", kind="length")
            msg = Finished(r.take(r.remaining()))
        else:
            raise DecodeError(f"unknown message type {msg_type}", kind="type")
        r.expect_end()
    except WireError as exc:
        name = (HandshakeType(msg_type).name
                if msg_type in HandshakeType._value2member_map_ else str(msg_type))
        raise DecodeError(f"{name}: {exc}", kind="length") from exc
    return msg, consumed


def decode(data: bytes) -> HandshakeMessage:
    """Strict decode of exactly one framed message."""
    msg, consumed = decode_prefix(data)
    if consumed != len(data):
        raise DecodeError(f"{len(data) - consumed} trailing bytes", kind="length")
    return msg


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranscriptEntry:
    sender: str  # "client" | "server"
    raw: bytes

    @property
    def msg_type(self) -> int:
        return self.raw[0]


@dataclass
class HandshakeTranscript:
    """Ordered raw handshake messages; the hash of any prefix drives keys,
    Finished values and the two Verify signatures at that point. One
    running hash per cipher suite is fed each message as it is appended."""

    entries: list[TranscriptEntry] = field(default_factory=list)
    _running: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def append(self, sender: str, raw: bytes) -> None:
        self.entries.append(TranscriptEntry(sender, raw))
        for running in self._running.values():
            running.update(raw)

    def all_bytes(self) -> bytes:
        return b"".join(e.raw for e in self.entries)

    def hash(self, cipher: CipherSuite) -> bytes:
        running = self._running.get(cipher)
        if running is None:
            running = self._running[cipher] = cipher.hash(self.all_bytes())
        return running.copy().digest()


@dataclass(frozen=True)
class BytesAccounting:
    total_bytes: int
    pk_object_bytes: int


def transcript_bytes_accounting(transcript: HandshakeTranscript, role: str) -> BytesAccounting:
    """Bytes sent by `role` plus its identity-object budget.

    Public-key and signature objects are counted from the actual messages
    but priced at the per-suite budgeted sizes (ECDSA signatures are
    variable-length DER, budgeted at their 70-byte average), so the result
    is stable run to run.
    """
    total = 0
    pk_bytes = 0
    for entry in transcript.entries:
        if entry.sender != role:
            continue
        total += len(entry.raw)
        msg, _ = decode_prefix(entry.raw)
        if isinstance(msg, Certificate):
            for cert_der, _exts in msg.entries:
                suite = certs.leaf_suite(cert_der)
                pk_bytes += suite.nominal_public_key_len + suite.nominal_signature_len
        elif isinstance(msg, (CertificateVerify, DidVerify)):
            suite = SignatureSuite.from_scheme_code(msg.scheme)
            pk_bytes += suite.nominal_signature_len
        elif isinstance(msg, VcMessage):
            vc = identity.vc_deserialize(msg.vc)
            if vc.proof is not None:
                suite = SignatureSuite.from_w3c_name(vc.proof.type)
                pk_bytes += suite.nominal_signature_len
    return BytesAccounting(total, pk_bytes)
