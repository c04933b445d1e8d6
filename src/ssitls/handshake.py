"""Client and server handshake state machines.

Five authentication configurations are supported: the original X.509
handshake, the two SSI modes (verifiable credential and bare DID), and the
two hybrid flavours (X.509 on exactly one side). A server may also fall
back to the original handshake when it cannot satisfy the client's SSI
proposal. Post-ServerHello flights are AEAD protected by the record layer.
"""

from __future__ import annotations

import datetime
import enum
import hmac
import logging
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import certs, identity, messages
from .crypto import (
    CipherSuite,
    CryptoError,
    KeySchedule,
    MANDATORY_CIPHER_SUITE,
    Rng,
    SYSTEM_RNG,
    SessionKeys,
    SignatureSuite,
    build_signed_content,
    ecdhe_exchange,
    finished_mac,
    generate_x25519,
    sign,
    verify,
)
from .messages import (
    AuthnMode,
    Certificate,
    CertificateRequest,
    CertificateVerify,
    ClientHello,
    DecodeError,
    DidMessage,
    DidVerify,
    EncryptedExtensions,
    ExtensionBlock,
    ExtensionType,
    Finished,
    GROUP_X25519,
    HandshakeTranscript,
    HandshakeType,
    ServerHello,
    SsiParameters,
    SsiRequest,
    VcMessage,
    encode,
    encode_key_share_client,
    encode_key_share_server,
    encode_signature_algorithms,
    decode_key_share_client,
    decode_key_share_server,
    decode_signature_algorithms,
)
from .record import (
    AlertDescription,
    ContentType,
    HandshakeAbort,
    MessageStream,
    PeerAlert,
    RecordLayer,
    TransportClosed,
)

logger = logging.getLogger(__name__)


class Mode(enum.Enum):
    """Client authentication-mode preference for the peer."""

    X509 = "x509"
    VC = "vc"
    DID = "did"
    VC_PEER_X509 = "vc-peer-x509"  # holds an SSI identity, wants X.509 from peer


class Flow(enum.Enum):
    ORIGINAL = "original"
    SSI_VC = "ssi-vc"
    SSI_DID = "ssi-did"
    HYBRID_CLIENT_X509 = "hybrid-client-x509"  # client X.509, server SSI
    HYBRID_SERVER_X509 = "hybrid-server-x509"  # client SSI, server X.509
    FALLBACK = "fallback"


# ---------------------------------------------------------------------------
# Failures: each is a record.HandshakeAbort carrying its own alert.
# ---------------------------------------------------------------------------

class NegotiationMismatch(HandshakeAbort):
    kind = "negotiation_mismatch"
    alert = AlertDescription.HANDSHAKE_FAILURE


class BadIdentity(HandshakeAbort):
    kind = "bad_identity"
    alert = AlertDescription.BAD_CERTIFICATE


class RevokedIdentity(HandshakeAbort):
    kind = "revoked_identity"
    alert = AlertDescription.CERTIFICATE_REVOKED


class BadSignature(HandshakeAbort):
    kind = "bad_signature"
    alert = AlertDescription.DECRYPT_ERROR


class FinishedMismatch(HandshakeAbort):
    kind = "finished_mismatch"
    alert = AlertDescription.DECRYPT_ERROR


class ResolutionFailure(HandshakeAbort):
    kind = "resolution_failure"
    alert = AlertDescription.INTERNAL_ERROR


class UnexpectedMessage(HandshakeAbort):
    kind = "unexpected_message"
    alert = AlertDescription.UNEXPECTED_MESSAGE


class DecodeAbort(HandshakeAbort):
    kind = "decode_error"
    alert = AlertDescription.DECODE_ERROR


class BadKeyShare(HandshakeAbort):
    kind = "bad_key_share"
    alert = AlertDescription.ILLEGAL_PARAMETER


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Endpoint configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SsiIdentity:
    did: identity.Did
    keys: "identity.KeyPair"
    vc: identity.VerifiableCredential | None = None


@dataclass
class EndpointConfig:
    preferred_mode: Mode = Mode.X509
    x509_identity: certs.X509Identity | None = None
    ssi_identity: SsiIdentity | None = None
    supported_methods: tuple[int, ...] = ()
    trust_store: identity.TrustStore = field(default_factory=identity.TrustStore)
    x509_roots: tuple[bytes, ...] = ()
    ledger: object | None = None
    signature_algorithms: tuple[SignatureSuite, ...] = tuple(SignatureSuite)
    cipher_suite: CipherSuite = MANDATORY_CIPHER_SUITE
    request_client_auth: bool = False
    client_auth_mode: str = "ssi"  # "ssi" follows the client's mode; or "x509"
    ssi_request_mode: AuthnMode = AuthnMode.VC  # mode asked of a mode-less SSI client
    rng: Rng = SYSTEM_RNG
    tamper: Optional[Callable[[int, bytes], bytes]] = None

    def validate(self, role: str) -> None:
        if self.preferred_mode in (Mode.VC, Mode.DID, Mode.VC_PEER_X509) and role == "client":
            if self.ssi_identity is None:
                raise ConfigError(f"{self.preferred_mode.value} requires an SSI identity")
            if self.ssi_identity.did.method.code not in self.supported_methods:
                raise ConfigError("own DID method must be among the supported methods")
            if self.ledger is None:
                raise ConfigError("SSI modes require a ledger client")
        if self.preferred_mode in (Mode.VC, Mode.VC_PEER_X509) and role == "client":
            vc = self.ssi_identity.vc
            if vc is None:
                raise ConfigError("VC mode requires a credential")
            if vc.subject_id != self.ssi_identity.did:
                raise ConfigError("credential subject must match the DID")
        if role == "server":
            if self.x509_identity is None and self.ssi_identity is None:
                raise ConfigError("server needs an X.509 or SSI identity")
            if self.request_client_auth and self.client_auth_mode == "ssi" and self.ledger is None:
                raise ConfigError("verifying SSI client auth requires a ledger client")


@dataclass(frozen=True)
class PeerIdentity:
    kind: str  # "x509" | "did" | "anonymous"
    x509_subject: str | None = None
    did: identity.Did | None = None
    claims: dict = field(default_factory=dict)

    @classmethod
    def anonymous(cls) -> "PeerIdentity":
        return cls(kind="anonymous")


@dataclass
class HandshakeOutcome:
    flow: Flow
    keys: SessionKeys
    peer: PeerIdentity
    transcript: HandshakeTranscript
    cipher: CipherSuite
    timers: dict[str, float]
    session: "SecureSession"

    def accounting(self, role: str) -> messages.BytesAccounting:
        return messages.transcript_bytes_accounting(self.transcript, role)


class SecureSession:
    """Application-data channel once the handshake has completed."""

    def __init__(self, records: RecordLayer, stream: MessageStream):
        self._records = records
        self._stream = stream

    def send(self, data: bytes) -> None:
        self._records.send(ContentType.APPLICATION_DATA, data)

    def recv(self) -> bytes:
        """Next application-data record. A failed record sends its alert
        (bad_record_mac for one that fails AEAD) before the abort is raised."""
        try:
            return self._stream.next_app_data()
        except HandshakeAbort as exc:
            if exc.alert is not None:
                self._records.send_alert(exc.alert)
            raise

    def close(self) -> None:
        self._records.send_alert(AlertDescription.CLOSE_NOTIFY, level=1)
        self._records.close()


# ---------------------------------------------------------------------------
# Negotiation
# ---------------------------------------------------------------------------

# Identity kind -> (the message that carries it, the AuthnMode naming it in
# ssi_parameters and SSIRequest). A proposal names the kind the client wants
# from the server; UNSPECIFIED asks for X.509.
_KINDS = {
    "x509": (HandshakeType.CERTIFICATE, AuthnMode.UNSPECIFIED),
    "vc": (HandshakeType.VC, AuthnMode.VC),
    "did": (HandshakeType.DID, AuthnMode.DID),
}
_KIND_OF_MODE = {mode: kind for kind, (_msg_type, mode) in _KINDS.items()}


def negotiated_flow(proposal: SsiParameters | None, server_auth: str,
                    client_auth: str | None) -> Flow:
    """The flow of a handshake, from the client's `ssi_parameters` (None when
    it sent none) and the identity kind each side authenticated with
    ("x509" | "vc" | "did"; `client_auth` is None without client auth)."""
    if proposal is None:
        return Flow.ORIGINAL
    if server_auth == "x509":
        if proposal.mode is not AuthnMode.UNSPECIFIED:
            return Flow.FALLBACK
        return Flow.ORIGINAL if client_auth in (None, "x509") else Flow.HYBRID_SERVER_X509
    if client_auth == "x509":
        return Flow.HYBRID_CLIENT_X509
    return Flow.SSI_VC if server_auth == "vc" else Flow.SSI_DID


@dataclass(frozen=True)
class ServerDecision:
    server_auth: str             # "x509" | "vc" | "did"
    client_auth: str | None      # None | "x509" | "vc" | "did"
    ssi_request_methods: tuple[int, ...]
    flow: Flow


def negotiate_server_mode(params: SsiParameters | None,
                          config: EndpointConfig) -> ServerDecision:
    """Total decision function from the ClientHello signal and local config."""
    ssi = config.ssi_identity
    server_auth, methods = "x509", ()
    client_auth = "x509" if config.request_client_auth else None
    if params is None:
        no_x509 = "no X.509 identity for an original handshake"
    elif params.mode is AuthnMode.UNSPECIFIED:
        # peer holds an SSI identity but insists on X.509 from us
        no_x509 = "client requires X.509 server authentication"
        if (config.request_client_auth and config.client_auth_mode == "ssi"
                and config.ledger is not None and config.supported_methods):
            client_auth = _KIND_OF_MODE[config.ssi_request_mode]
            methods = tuple(config.supported_methods)
    else:
        no_x509 = "cannot satisfy the proposed SSI mode"
        wanted = _KIND_OF_MODE[params.mode]
        if (ssi is not None and ssi.did.method.code in params.did_methods
                and (wanted == "did" or ssi.vc is not None)):
            server_auth = wanted
            if client_auth is not None and config.client_auth_mode != "x509":
                # mutual SSI keeps the client's mode; methods are the common set
                client_auth = wanted
                methods = tuple(m for m in config.supported_methods if m in params.did_methods)
                if not methods:
                    raise NegotiationMismatch("no DID method in common for client authentication")
    if server_auth == "x509" and config.x509_identity is None:
        raise NegotiationMismatch(no_x509)
    return ServerDecision(server_auth, client_auth, methods,
                          negotiated_flow(params, server_auth, client_auth))


# ---------------------------------------------------------------------------
# Shared endpoint machinery
# ---------------------------------------------------------------------------

class _Timers(dict):
    def add(self, name: str, seconds: float) -> None:
        self[name] = self.get(name, 0.0) + seconds


class _timed:
    def __init__(self, timers: _Timers, name: str):
        self.timers, self.name = timers, name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.timers.add(self.name, time.perf_counter() - self.start)


class _Endpoint:
    role: str
    peer_role: str

    def __init__(self, config: EndpointConfig, transport):
        self.config = config
        self.records = RecordLayer(transport)
        self.stream = MessageStream(self.records)
        self.transcript = HandshakeTranscript()
        self.cipher = config.cipher_suite
        self.timers = _Timers()

    # -- plumbing -----------------------------------------------------------

    def send_msg(self, msg) -> bytes:
        raw = encode(msg)
        if self.config.tamper is not None:
            raw = self.config.tamper(int(msg.msg_type), raw)
        self.transcript.append(self.role, raw)
        self.records.send(ContentType.HANDSHAKE, raw)
        return raw

    def recv_msg(self, *expected: HandshakeType):
        raw = self.stream.next_handshake_raw()
        if raw[0] not in expected:
            got = (HandshakeType(raw[0]).name
                   if raw[0] in HandshakeType._value2member_map_ else str(raw[0]))
            want = "/".join(t.name for t in expected)
            raise UnexpectedMessage(f"got {got}, expected {want}")
        self.transcript.append(self.peer_role, raw)
        return messages.decode(raw)

    def transcript_hash(self) -> bytes:
        return self.transcript.hash(self.cipher)

    def shared_secret(self, ephemeral, peer_public: bytes) -> bytes:
        """x25519 with the peer's key share; a share it rejects (low order or
        wrong length) is a BadKeyShare."""
        try:
            return ecdhe_exchange(ephemeral, peer_public)
        except CryptoError as exc:
            raise BadKeyShare(str(exc)) from exc

    def outcome(self, flow: Flow, peer: PeerIdentity, *secrets: bytes) -> HandshakeOutcome:
        """The completed handshake; `secrets` are c_hs, s_hs, c_ap, s_ap."""
        return HandshakeOutcome(flow, SessionKeys(*secrets, self.cipher), peer,
                                self.transcript, self.cipher, dict(self.timers),
                                SecureSession(self.records, self.stream))

    # -- signatures over the transcript --------------------------------------

    def make_verify_message(self, purpose: str, keys: "identity.KeyPair"):
        content = build_signed_content(self.role, purpose, self.transcript_hash())
        with _timed(self.timers, "sign"):
            signature = sign(keys.suite, keys.secret_key, content)
        cls = DidVerify if purpose == "did_verify" else CertificateVerify
        return cls(keys.suite.scheme_code, signature)

    def check_verify_message(self, msg, purpose: str, suite: SignatureSuite,
                             public_key: bytes, th_before: bytes) -> None:
        try:
            claimed = SignatureSuite.from_scheme_code(msg.scheme)
        except Exception:
            raise BadSignature(f"unknown signature scheme 0x{msg.scheme:04x}")
        if claimed is not suite:
            raise BadSignature("signature scheme does not match the peer key")
        if claimed not in self.config.signature_algorithms:
            raise BadSignature("signature scheme was not offered")
        content = build_signed_content(self.peer_role, purpose, th_before)
        if not verify(suite, public_key, content, msg.signature):
            raise BadSignature(f"{purpose} verification failed")

    # -- peer identity processing --------------------------------------------

    def process_certificate(self, msg: Certificate) -> tuple[SignatureSuite, bytes, PeerIdentity]:
        try:
            with _timed(self.timers, "chain_verify"):
                leaf = certs.verify_chain(msg.chain, list(self.config.x509_roots))
                suite, public_key = certs.leaf_key(msg.chain[0])
        except certs.CertificateError as exc:
            raise BadIdentity(str(exc))
        peer = PeerIdentity(kind="x509", x509_subject=leaf.subject.rfc4514_string())
        return suite, public_key, peer

    def process_vc_message(self, msg: VcMessage,
                           acceptable_methods: tuple[int, ...]) -> tuple[SignatureSuite, bytes, PeerIdentity]:
        try:
            with _timed(self.timers, "vc_verify"):
                vc = identity.vc_deserialize(msg.vc)
                subject = identity.vc_verify(
                    vc, self.config.trust_store,
                    datetime.datetime.now(datetime.timezone.utc))
        except identity.VcRejected as exc:
            raise BadIdentity(exc.reason.value)
        except identity.IdentityError as exc:
            raise BadIdentity(str(exc))
        if subject.method.code not in acceptable_methods:
            raise NegotiationMismatch(
                f"credential subject DID uses method {subject.method.code},"
                f" not one of the negotiated methods")
        suite, public_key = self.resolve_peer_key(subject)
        peer = PeerIdentity(kind="did", did=subject, claims=dict(vc.claims))
        return suite, public_key, peer

    def process_did_message(self, msg: DidMessage,
                            acceptable_methods: tuple[int, ...]) -> tuple[SignatureSuite, bytes, PeerIdentity]:
        if msg.did_method not in acceptable_methods:
            raise NegotiationMismatch(f"DID method {msg.did_method} was not negotiated")
        try:
            did = identity.Did.parse(msg.did.decode("utf-8"))
        except (UnicodeDecodeError, identity.DidParseError) as exc:
            raise BadIdentity(f"unparseable DID: {exc}")
        if did.method.code != msg.did_method:
            raise BadIdentity("DID method byte disagrees with the DID")
        if not self.config.trust_store.is_trusted_did(did):
            raise BadIdentity(f"{did.text} is not in the trusted-DID list")
        suite, public_key = self.resolve_peer_key(did)
        peer = PeerIdentity(kind="did", did=did)
        return suite, public_key, peer

    def resolve_peer_key(self, did: identity.Did) -> tuple[SignatureSuite, bytes]:
        try:
            with _timed(self.timers, "resolve"):
                resolved = identity.did_resolve(self.config.ledger, did)
        except identity.DidResolutionError as exc:
            raise ResolutionFailure(str(exc))
        except (identity.IdentityError, CryptoError) as exc:
            raise BadIdentity(f"resolved document unusable: {exc}")
        if isinstance(resolved, identity.Revoked):
            raise RevokedIdentity(did.text)
        try:
            return resolved.authentication_key()
        except Exception as exc:
            raise BadIdentity(f"resolved document unusable: {exc}")

    # -- own identity flight ---------------------------------------------------

    def send_identity(self, kind: str) -> None:
        """Send our `kind` ("x509" | "vc" | "did") identity and its Verify."""
        config = self.config
        ident = config.x509_identity if kind == "x509" else config.ssi_identity
        if ident is None or (kind == "vc" and ident.vc is None):
            raise NegotiationMismatch(f"{self.role} lacks the {kind} identity")
        if kind == "x509":
            self.send_msg(Certificate(b"", tuple((der, b"") for der in ident.chain)))
        elif kind == "vc":
            self.send_msg(VcMessage(identity.vc_serialize(ident.vc)))
        else:
            self.send_msg(DidMessage(ident.did.method.code, ident.did.text.encode()))
        purpose = "certificate_verify" if kind == "x509" else "did_verify"
        self.send_msg(self.make_verify_message(purpose, ident.keys))

    def verify_peer_identity(self, msg, acceptable_methods: tuple[int, ...]) -> PeerIdentity:
        """Verify a received Certificate, VC or DID message and the Verify
        message that follows it; returns the verified peer."""
        if isinstance(msg, Certificate):
            suite, public_key, peer = self.process_certificate(msg)
            purpose, verify_type = "certificate_verify", HandshakeType.CERTIFICATE_VERIFY
        else:
            if isinstance(msg, VcMessage):
                suite, public_key, peer = self.process_vc_message(msg, acceptable_methods)
            else:
                suite, public_key, peer = self.process_did_message(msg, acceptable_methods)
            purpose, verify_type = "did_verify", HandshakeType.DID_VERIFY
        th_before = self.transcript_hash()
        verify_msg = self.recv_msg(verify_type)
        self.check_verify_message(verify_msg, purpose, suite, public_key, th_before)
        return peer

    def check_finished(self, secret: bytes) -> None:
        th_before = self.transcript_hash()
        msg = self.recv_msg(HandshakeType.FINISHED)
        expected = finished_mac(self.cipher, secret, th_before)
        if not hmac.compare_digest(expected, msg.verify_data):
            raise FinishedMismatch()

    def send_finished(self, secret: bytes) -> None:
        mac = finished_mac(self.cipher, secret, self.transcript_hash())
        self.send_msg(Finished(mac))


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class _Client(_Endpoint):
    role = "client"
    peer_role = "server"

    def run(self) -> HandshakeOutcome:
        config = self.config
        config.validate("client")
        rng = config.rng
        ephemeral = generate_x25519(rng)

        proposal = self._proposed_parameters()
        extensions = [
            (int(ExtensionType.SUPPORTED_VERSIONS), b"\x02\x03\x04"),
            (int(ExtensionType.SUPPORTED_GROUPS),
             b"\x00\x02" + GROUP_X25519.to_bytes(2, "big")),
            (int(ExtensionType.SIGNATURE_ALGORITHMS),
             encode_signature_algorithms(config.signature_algorithms)),
            (int(ExtensionType.KEY_SHARE),
             encode_key_share_client([(GROUP_X25519, ephemeral.public_key)])),
        ]
        if proposal is not None:
            extensions.append((int(ExtensionType.SSI_PARAMETERS), proposal.encode()))
        hello = ClientHello(
            random=rng.bytes(32),
            session_id=rng.bytes(32),
            cipher_suites=(config.cipher_suite.code,),
            extensions=ExtensionBlock(tuple(extensions)),
        )
        self.send_msg(hello)

        sh = self.recv_msg(HandshakeType.SERVER_HELLO)
        if sh.cipher_suite != config.cipher_suite.code:
            raise NegotiationMismatch(
                f"server chose unsupported cipher suite 0x{sh.cipher_suite:04x}")
        share = sh.extensions.get(ExtensionType.KEY_SHARE)
        if share is None:
            raise NegotiationMismatch("server offered no key share")
        group, server_public = decode_key_share_server(share)
        if group != GROUP_X25519:
            raise NegotiationMismatch(f"unsupported key-share group {group}")
        shared = self.shared_secret(ephemeral, server_public)

        schedule = KeySchedule(self.cipher)
        schedule.inject_ecdhe(shared)
        c_hs, s_hs = schedule.handshake_traffic_secrets(self.transcript_hash())
        self.records.protect_reads(self.cipher, s_hs)
        self.records.protect_writes(self.cipher, c_hs)

        self.recv_msg(HandshakeType.ENCRYPTED_EXTENSIONS)

        # An optional client-auth request, then the server's identity: X.509
        # or the proposed kind, but only the proposed kind after an SSIRequest.
        wanted = "x509" if proposal is None else _KIND_OF_MODE[proposal.mode]
        identities = {_KINDS[kind][0]: kind for kind in ("x509", wanted)}
        requests = (HandshakeType.CERTIFICATE_REQUEST,)
        if proposal is not None:
            requests += (HandshakeType.SSI_REQUEST,)
        msg = self.recv_msg(*requests, *identities)
        client_auth = None
        if isinstance(msg, CertificateRequest):
            self._check_certificate_request(msg)
            client_auth = "x509"
            msg = self.recv_msg(*identities)
        elif isinstance(msg, SsiRequest):
            client_auth = self._check_ssi_request(msg, proposal)
            msg = self.recv_msg(_KINDS[wanted][0])
        server_auth = identities[msg.msg_type]
        peer = self.verify_peer_identity(
            msg, proposal.did_methods if proposal is not None else ())

        self.check_finished(s_hs)
        c_ap, s_ap = schedule.app_traffic_secrets(self.transcript_hash())
        self.records.protect_reads(self.cipher, s_ap)

        if client_auth is not None:
            self.send_identity(client_auth)
        self.send_finished(c_hs)
        self.records.protect_writes(self.cipher, c_ap)

        return self.outcome(negotiated_flow(proposal, server_auth, client_auth),
                            peer, c_hs, s_hs, c_ap, s_ap)

    def _proposed_parameters(self) -> SsiParameters | None:
        mode = self.config.preferred_mode
        if mode is Mode.X509:
            return None
        if mode is Mode.VC_PEER_X509:
            return SsiParameters(AuthnMode.UNSPECIFIED, ())
        return SsiParameters(_KINDS[mode.value][1], tuple(self.config.supported_methods))

    def _check_certificate_request(self, msg: CertificateRequest) -> None:
        if self.config.x509_identity is None:
            raise NegotiationMismatch("server requires X.509 client"
                                      " authentication we cannot provide")
        algs = msg.extensions.get(ExtensionType.SIGNATURE_ALGORITHMS)
        if algs is not None:
            offered = decode_signature_algorithms(algs)
            if self.config.x509_identity.keys.suite.scheme_code not in offered:
                raise NegotiationMismatch("our certificate suite is not"
                                          " acceptable to the server")

    def _check_ssi_request(self, msg: SsiRequest, sent: SsiParameters) -> str:
        """Check the server's SSIRequest; returns the identity kind it asks for."""
        params = msg.ssi_parameters
        if params.mode is AuthnMode.UNSPECIFIED:
            raise NegotiationMismatch("SSIRequest carries no authentication mode")
        if sent.mode is not AuthnMode.UNSPECIFIED and params.mode is not sent.mode:
            raise NegotiationMismatch("server switched the authentication mode")
        if sent.did_methods:
            for m in params.did_methods:
                if m not in sent.did_methods:
                    raise NegotiationMismatch(
                        f"SSIRequest lists method {m} we never offered")
        ident = self.config.ssi_identity
        if ident is None:
            raise NegotiationMismatch("no SSI identity for client authentication")
        if ident.did.method.code not in params.did_methods:
            raise NegotiationMismatch(
                "we hold no DID in a ledger the server can resolve")
        if params.mode is AuthnMode.VC and ident.vc is None:
            raise NegotiationMismatch("server asked for a credential we lack")
        if ident.keys.suite.scheme_code not in msg.signature_algorithms:
            raise NegotiationMismatch("our signing suite is not acceptable")
        return _KIND_OF_MODE[params.mode]


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _Server(_Endpoint):
    role = "server"
    peer_role = "client"

    def run(self) -> HandshakeOutcome:
        config = self.config
        config.validate("server")
        rng = config.rng
        # before the ClientHello arrives, so the keygen overlaps the client's
        ephemeral = generate_x25519(rng)

        hello = self.recv_msg(HandshakeType.CLIENT_HELLO)
        if config.cipher_suite.code not in hello.cipher_suites:
            raise NegotiationMismatch("no common cipher suite")
        share_raw = hello.extensions.get(ExtensionType.KEY_SHARE)
        if share_raw is None:
            raise NegotiationMismatch("client offered no key share")
        shares = decode_key_share_client(share_raw)
        client_public = next((key for group, key in shares if group == GROUP_X25519), None)
        if client_public is None:
            raise NegotiationMismatch("client offered no x25519 share")
        params = hello.ssi_parameters()
        decision = negotiate_server_mode(params, config)

        shared = self.shared_secret(ephemeral, client_public)
        sh = ServerHello(
            random=rng.bytes(32),
            session_id=hello.session_id,
            cipher_suite=config.cipher_suite.code,
            extensions=ExtensionBlock((
                (int(ExtensionType.SUPPORTED_VERSIONS), b"\x03\x04"),
                (int(ExtensionType.KEY_SHARE),
                 encode_key_share_server(GROUP_X25519, ephemeral.public_key)),
            )),
        )
        self.send_msg(sh)

        schedule = KeySchedule(self.cipher)
        schedule.inject_ecdhe(shared)
        c_hs, s_hs = schedule.handshake_traffic_secrets(self.transcript_hash())
        self.records.protect_writes(self.cipher, s_hs)
        self.records.protect_reads(self.cipher, c_hs)

        self.send_msg(EncryptedExtensions())

        if decision.client_auth == "x509":
            self.send_msg(CertificateRequest(b"", ExtensionBlock((
                (int(ExtensionType.SIGNATURE_ALGORITHMS),
                 encode_signature_algorithms(config.signature_algorithms)),
            ))))
        elif decision.client_auth is not None:
            self.send_msg(SsiRequest(
                SsiParameters(_KINDS[decision.client_auth][1], decision.ssi_request_methods),
                tuple(s.scheme_code for s in config.signature_algorithms)))
        self.send_identity(decision.server_auth)

        self.send_finished(s_hs)
        c_ap, s_ap = schedule.app_traffic_secrets(self.transcript_hash())
        self.records.protect_writes(self.cipher, s_ap)

        if decision.client_auth is None:
            peer = PeerIdentity.anonymous()
        else:
            peer = self.verify_peer_identity(self.recv_msg(_KINDS[decision.client_auth][0]),
                                             decision.ssi_request_methods)

        self.check_finished(c_hs)
        self.records.protect_reads(self.cipher, c_ap)
        return self.outcome(decision.flow, peer, c_hs, s_hs, c_ap, s_ap)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _run_wrapped(endpoint: _Endpoint) -> HandshakeOutcome:
    """Run one role. A failing endpoint sends at most one fatal alert, and
    only a HandshakeAbort or a ConfigError leaves."""
    try:
        return endpoint.run()
    except HandshakeAbort as exc:
        if exc.alert is not None:
            endpoint.records.send_alert(exc.alert)
        raise
    except ConnectionError as exc:
        # The peer may have aborted with an alert and closed while we were
        # still writing: report its alert, not our failed write.
        try:
            endpoint.stream.next_handshake_raw()
        except PeerAlert as alert:
            raise alert from exc
        except Exception:
            pass
        raise TransportClosed(f"peer went away mid-handshake: {exc}") from exc
    except DecodeError as exc:
        # malformed input anywhere in the handshake
        endpoint.records.send_alert(AlertDescription.DECODE_ERROR)
        raise DecodeAbort(str(exc)) from exc
    except Exception as exc:
        # a bad config, a local fault or a stalled peer: unblock the peer
        endpoint.records.send_alert(AlertDescription.INTERNAL_ERROR)
        if isinstance(exc, ConfigError):
            raise
        raise HandshakeAbort(str(exc)) from exc


def run_client(config: EndpointConfig, transport) -> HandshakeOutcome:
    return _run_wrapped(_Client(config, transport))


def run_server(config: EndpointConfig, transport) -> HandshakeOutcome:
    return _run_wrapped(_Server(config, transport))


def handshake_pair(client_config: EndpointConfig, server_config: EndpointConfig,
                   timeout: float = 30.0) -> tuple[HandshakeOutcome, HandshakeOutcome]:
    """Run both endpoints over a socket pair; re-raises either failure."""
    client_sock, server_sock = socket.socketpair()
    client_sock.settimeout(timeout)
    server_sock.settimeout(timeout)
    result: dict = {}

    def serve():
        try:
            result["server"] = run_server(server_config, server_sock)
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            result["server_error"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        result["client"] = run_client(client_config, client_sock)
    except BaseException as exc:
        result["client_error"] = exc
    thread.join(timeout)

    if "client_error" in result and "server_error" in result:
        # the side that detected the problem is the one that got no alert
        client_exc, server_exc = result["client_error"], result["server_error"]
        raise server_exc if isinstance(client_exc, PeerAlert) else client_exc
    if "server_error" in result:
        raise result["server_error"]
    if "client_error" in result:
        raise result["client_error"]
    return result["client"], result["server"]


class TcpServer:
    """Threaded TCP acceptor: each accepted connection gets its own thread,
    which runs `serve_one` and then closes the connection.

    Only live connection threads are kept: finished ones are dropped on each
    accept, and `stop` joins the rest.
    """

    def __init__(self, host: str, port: int, backlog: int, conn_timeout: float):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.address = self._listener.getsockname()
        self._conn_timeout = conn_timeout
        self._threads: list[threading.Thread] = []  # touched by the acceptor only, until stop
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self):
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        try:
            # wakes the blocked accept(); close() alone leaves it blocked
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
        self._listener.close()
        for t in self._threads:
            t.join(timeout=5)

    def serve_one(self, conn: socket.socket) -> None:
        """Serve one accepted connection; it is closed when this returns."""
        raise NotImplementedError

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.settimeout(self._conn_timeout)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self._threads = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        try:
            self.serve_one(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass


class HandshakeServer(TcpServer):
    """TCP server running one server handshake per connection. The default
    handler echoes application data until the peer closes. `errors` keeps
    every failed connection's exception, without tracebacks, so a stored
    failure does not pin its connection's frames."""

    def __init__(self, config: EndpointConfig | Callable[[], EndpointConfig],
                 host: str = "127.0.0.1", port: int = 0,
                 handler: Callable[[HandshakeOutcome], None] | None = None,
                 conn_timeout: float = 30.0):
        super().__init__(host, port, backlog=64, conn_timeout=conn_timeout)
        self._config = config
        self._handler = handler or echo_handler
        self.errors: list[BaseException] = []

    def serve_one(self, conn: socket.socket) -> None:
        try:
            config = self._config() if callable(self._config) else self._config
            outcome = run_server(config, conn)
            self._handler(outcome)
        except (HandshakeAbort, ConfigError, OSError) as exc:
            logger.debug("connection dropped: %s", exc)
            self.errors.append(_without_tracebacks(exc))


def _without_tracebacks(exc: BaseException) -> BaseException:
    """`exc` with the traceback of it and of every cause and context cleared."""
    pending, seen = [exc], set()
    while pending:
        e = pending.pop()
        if e is not None and id(e) not in seen:
            seen.add(id(e))
            e.__traceback__ = None
            pending += (e.__cause__, e.__context__)
    return exc


def echo_handler(outcome: HandshakeOutcome) -> None:
    session = outcome.session
    while True:
        try:
            data = session.recv()
        except HandshakeAbort:
            return
        session.send(data)
