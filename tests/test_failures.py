"""The failure model: every connection failure is a HandshakeAbort that
carries its own alert (RFC 8446 §6), each side ends promptly, and a nested
ledger channel's failure is reported as a resolution failure, never as the
handshake peer's."""

import datetime
import pickle
import socket
import struct
import threading
import time

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from ssitls import cli, handshake, record
from ssitls.certs import X509Identity, make_chain
from ssitls.crypto import MANDATORY_CIPHER_SUITE, KeyPair, SignatureSuite
from ssitls.record import MAX_FRAGMENT
from ssitls.handshake import (
    BadIdentity,
    BadKeyShare,
    BadSignature,
    DecodeAbort,
    EndpointConfig,
    FinishedMismatch,
    HandshakeAbort,
    handshake_pair,
    Mode,
    NegotiationMismatch,
    ResolutionFailure,
    RevokedIdentity,
    UnexpectedMessage,
    run_client,
    run_server,
)
from ssitls.ledger import LedgerClient
from ssitls.record import (
    AlertDescription as A,
    BadRecordMac,
    ContentType,
    PeerAlert,
    RecordError,
    RecordLayer,
    RecordOverflow,
    TransportClosed,
    UnexpectedRecord,
)

from test_handshake import pair_results

EXPECTED_ALERTS = {
    HandshakeAbort: A.INTERNAL_ERROR,
    PeerAlert: None,
    TransportClosed: None,
    RecordError: A.DECODE_ERROR,
    BadRecordMac: A.BAD_RECORD_MAC,
    RecordOverflow: A.RECORD_OVERFLOW,
    UnexpectedRecord: A.UNEXPECTED_MESSAGE,
    BadKeyShare: A.ILLEGAL_PARAMETER,
    NegotiationMismatch: A.HANDSHAKE_FAILURE,
    BadIdentity: A.BAD_CERTIFICATE,
    RevokedIdentity: A.CERTIFICATE_REVOKED,
    BadSignature: A.DECRYPT_ERROR,
    FinishedMismatch: A.DECRYPT_ERROR,
    ResolutionFailure: A.INTERNAL_ERROR,
    UnexpectedMessage: A.UNEXPECTED_MESSAGE,
    DecodeAbort: A.DECODE_ERROR,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_failure_is_a_handshake_abort_with_its_own_alert():
    assert handshake.HandshakeAbort is record.HandshakeAbort
    assert {HandshakeAbort, *_subclasses(HandshakeAbort)} == set(EXPECTED_ALERTS)
    for cls, alert in EXPECTED_ALERTS.items():
        assert issubclass(cls, HandshakeAbort) and cls.alert == alert, cls


@pytest.mark.parametrize("cls", sorted(EXPECTED_ALERTS, key=lambda c: c.__name__))
def test_every_abort_survives_pickling(cls):
    exc = PeerAlert(A.CERTIFICATE_REVOKED) if cls is PeerAlert else cls("what went wrong")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert (str(copy), copy.kind, copy.alert, copy.detail) == \
        (str(exc), exc.kind, exc.alert, exc.detail)
    if cls is PeerAlert:
        assert str(copy) == "peer_alert: certificate_revoked"
        assert copy.description == A.CERTIFICATE_REVOKED
    else:
        assert str(copy) == f"{cls.kind}: what went wrong"


@pytest.mark.parametrize("exc,code", [
    (PeerAlert(A.HANDSHAKE_FAILURE), 9),
    (TransportClosed("gone"), 9),
    (RecordOverflow("big"), 9),
    (BadRecordMac("mac"), 9),
    (ConnectionResetError(), 9),
    (BadIdentity("who"), 3),
    (HandshakeAbort("stalled"), 13),
    (BadKeyShare("low order"), 1),
])
def test_cli_exit_code_follows_the_failure_kind(exc, code):
    assert cli._abort_exit(exc) == code


def test_a_stalled_peer_ends_in_a_typed_abort_that_is_alerted(ed_universe):
    client_sock, server_sock = socket.socketpair()
    client_sock.settimeout(5)
    server_sock.settimeout(0.2)
    with client_sock, server_sock:
        with pytest.raises(HandshakeAbort) as info:
            run_server(ed_universe.server_config(), server_sock)
        assert type(info.value) is HandshakeAbort
        assert isinstance(info.value.__cause__, TimeoutError)
        assert RecordLayer(client_sock).recv() == (ContentType.ALERT,
                                                   bytes([2, A.INTERNAL_ERROR]))


# ---------------------------------------------------------------------------
# Record errors: the class names the fault, its alert goes on the wire
# ---------------------------------------------------------------------------

def _header(content_type: int, length: int, version: int = 0x0303) -> bytes:
    return struct.pack("!BHH", content_type, version, length)


def _record_pair(protected: bool):
    """A writer and a reader record layer; when `protected`, the writer's
    write keys are the reader's read keys."""
    a, b = socket.socketpair()
    a.settimeout(5)
    b.settimeout(5)
    writer, reader = RecordLayer(a), RecordLayer(b)
    if protected:
        secret = bytes(range(32))
        writer.protect_writes(MANDATORY_CIPHER_SUITE, secret)
        reader.protect_reads(MANDATORY_CIPHER_SUITE, secret)
    return writer, reader


# fault -> (error raised, protected reads, what the writer sends)
RECORD_FAULTS = {
    "oversized": (RecordOverflow, False, lambda w: w.transport.sendall(
        _header(ContentType.HANDSHAKE, 20_000) + bytes(20_000))),
    "cleartext-application-data": (UnexpectedRecord, False, lambda w: w.transport.sendall(
        _header(ContentType.APPLICATION_DATA, 5) + b"hello")),
    "unprotected-after-key-change": (UnexpectedRecord, True, lambda w: w.transport.sendall(
        _header(ContentType.HANDSHAKE, 4) + bytes(4))),
    "no-content-type": (UnexpectedRecord, True, lambda w: w._send_one(0, b"\x00\x00")),
    "bad-mac": (BadRecordMac, True, lambda w: w.transport.sendall(
        _header(ContentType.APPLICATION_DATA, 17) + bytes(17))),
    "bad-version": (RecordError, False, lambda w: w.transport.sendall(
        _header(ContentType.HANDSHAKE, 4, version=0x0200) + bytes(4))),
    # plaintext may not exceed 2^14 bytes (RFC 8446 §5.1) ...
    "plaintext-over-2^14": (RecordOverflow, False, lambda w: w.transport.sendall(
        _header(ContentType.HANDSHAKE, MAX_FRAGMENT + 1) + bytes(MAX_FRAGMENT + 1))),
    # ... while ciphertext may reach 2^14 + 256 (§5.2): this one is read, then fails AEAD
    "ciphertext-at-2^14+256": (BadRecordMac, True, lambda w: w.transport.sendall(
        _header(ContentType.APPLICATION_DATA, MAX_FRAGMENT + 256) + bytes(MAX_FRAGMENT + 256))),
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_record_layer_names_each_fault(fault):
    expected, protected, send = RECORD_FAULTS[fault]
    writer, reader = _record_pair(protected)
    send(writer)
    with pytest.raises(RecordError) as info:
        reader.recv()
    assert type(info.value) is expected
    writer.close()
    reader.close()


@pytest.mark.parametrize("raw,alert,expected", [
    (_header(ContentType.HANDSHAKE, 20_000) + bytes(20_000), A.RECORD_OVERFLOW, RecordOverflow),
    (_header(ContentType.APPLICATION_DATA, 5) + b"hello", A.UNEXPECTED_MESSAGE, UnexpectedRecord),
    (_header(ContentType.HANDSHAKE, 16_584) + bytes(16_584), A.RECORD_OVERFLOW, RecordOverflow),
], ids=["oversized", "cleartext-application-data", "plaintext-over-2^14"])
def test_server_alerts_a_bad_first_record(ed_universe, raw, alert, expected):
    with handshake.HandshakeServer(ed_universe.server_config(), conn_timeout=5) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(raw)
            assert RecordLayer(sock).recv() == (ContentType.ALERT, bytes([2, alert]))
    assert [type(e) for e in server.errors] == [expected]


def test_a_failed_record_after_the_handshake_is_alerted(ed_universe):
    """Garbage application data after the handshake: the receiver raises
    BadRecordMac and sends bad_record_mac, so the sender's next recv ends
    at once instead of waiting out its timeout."""
    client, server = handshake_pair(ed_universe.client_config(Mode.X509),
                                    ed_universe.server_config(), timeout=5)
    box = {}

    def receive():
        try:
            server.session.recv()
        except HandshakeAbort as exc:
            box["server"] = exc

    t = threading.Thread(target=receive, daemon=True)
    t.start()
    start = time.monotonic()
    client.session._records.transport.sendall(
        _header(ContentType.APPLICATION_DATA, 40) + bytes(40))
    with pytest.raises(PeerAlert) as info:
        client.session.recv()
    assert time.monotonic() - start < 1
    assert info.value.description == A.BAD_RECORD_MAC
    t.join(1)
    assert type(box["server"]) is BadRecordMac


def _linked(exc):
    """`exc` and every exception along its cause and context chains."""
    pending = [exc]
    while pending:
        e = pending.pop()
        if e is not None:
            yield e
            pending += (e.__cause__, e.__context__)


def test_stored_server_failures_keep_no_tracebacks(ed_universe):
    """Failed connections are kept with their type and alert, but without
    the tracebacks that would pin each connection's frames."""
    overflow = _header(ContentType.HANDSHAKE, 20_000) + bytes(20_000)
    with handshake.HandshakeServer(ed_universe.server_config(), conn_timeout=0.2) as server:
        for _ in range(3):
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(overflow)
                RecordLayer(sock).recv()
        for _ in range(2):  # a stalled peer: an abort chained to its timeout
            with socket.create_connection(server.address, timeout=5) as sock:
                RecordLayer(sock).recv()
    assert [type(e) for e in server.errors] == [RecordOverflow] * 3 + [HandshakeAbort] * 2
    assert [e.alert for e in server.errors] == [A.RECORD_OVERFLOW] * 3 + [A.INTERNAL_ERROR] * 2
    assert all(isinstance(e.__cause__, TimeoutError) for e in server.errors[3:])
    for error in server.errors:
        for exc in _linked(error):
            assert exc.__traceback__ is None, (error, exc)


# ---------------------------------------------------------------------------
# Peer keys
# ---------------------------------------------------------------------------

def p384_leaf_identity() -> tuple[X509Identity, bytes]:
    """A valid chain whose leaf key is on P-384, a curve no suite names:
    (identity, trusted root DER)."""
    now = datetime.datetime.now(datetime.timezone.utc)
    root_key = ec.generate_private_key(ec.SECP256R1())
    leaf_key = ec.generate_private_key(ec.SECP384R1())
    root_name = x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, "p384 test root")])

    def issue(name: x509.Name, key, ca: bool) -> bytes:
        cert = (x509.CertificateBuilder().subject_name(name).issuer_name(root_name)
                .public_key(key.public_key()).serial_number(x509.random_serial_number())
                .not_valid_before(now - datetime.timedelta(minutes=5))
                .not_valid_after(now + datetime.timedelta(days=1))
                .add_extension(x509.BasicConstraints(ca=ca, path_length=None), critical=True)
                .sign(root_key, hashes.SHA256()))
        return cert.public_bytes(serialization.Encoding.DER)

    leaf_name = x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, "server.example")])
    secret = leaf_key.private_bytes(serialization.Encoding.DER,
                                    serialization.PrivateFormat.PKCS8,
                                    serialization.NoEncryption())
    keys = KeyPair(SignatureSuite.ECDSA_SECP256R1_SHA256, secret, b"")
    return X509Identity((issue(leaf_name, leaf_key, False),), keys), issue(root_name, root_key, True)


def test_a_leaf_key_on_an_unnamed_curve_is_a_bad_certificate(ed_universe):
    identity, root = p384_leaf_identity()
    client, server = pair_results(ed_universe.client_config(Mode.X509, x509_roots=(root,)),
                                  ed_universe.server_config(x509_identity=identity))
    assert isinstance(client, BadIdentity), client
    assert isinstance(server, PeerAlert), server
    assert server.description == A.BAD_CERTIFICATE


# ---------------------------------------------------------------------------
# Negotiation and nested resolution
# ---------------------------------------------------------------------------

def test_mutual_ssi_without_a_common_method_is_a_negotiation_mismatch(ed_universe):
    """The server's own DID method matches the proposal, but the methods it
    accepts for the client do not: its own configuration, not the client's
    hello, ends the handshake."""
    u = ed_universe
    client, server = pair_results(
        u.client_config(Mode.VC), u.server_config(request_client_auth=True,
                                                  supported_methods=(0,)))
    assert isinstance(server, NegotiationMismatch), server
    assert isinstance(client, PeerAlert), client
    assert client.description == A.HANDSHAKE_FAILURE


def test_nested_channel_failure_is_a_resolution_failure(ed_universe):
    """A ledger node authenticates and then answers the lookup with an
    alert: the resolving client reports a resolution failure, not an alert
    from its handshake peer, and that peer hears internal_error at once."""
    u = ed_universe
    node_identity, node_root = make_chain(SignatureSuite.ED25519, "ledger.node")

    class AlertingNode(handshake.TcpServer):
        def serve_one(self, conn):
            outcome = run_server(EndpointConfig(x509_identity=node_identity), conn)
            outcome.session.recv()
            outcome.session._records.send_alert(A.HANDSHAKE_FAILURE)

    with AlertingNode("127.0.0.1", 0, backlog=4, conn_timeout=5) as node, \
            handshake.HandshakeServer(u.server_config(), conn_timeout=5) as server:
        ledger = LedgerClient(*node.address, trust_anchor=node_root, timeout=5)
        sock = socket.create_connection(server.address, timeout=5)
        try:
            start = time.monotonic()
            with pytest.raises(ResolutionFailure):
                run_client(u.client_config(Mode.DID, ledger=ledger), sock)
            assert time.monotonic() - start < 1
            while not server.errors and time.monotonic() - start < 5:
                time.sleep(0.01)
            assert time.monotonic() - start < 1
            assert [(type(e), e.description) for e in server.errors] == \
                [(PeerAlert, A.INTERNAL_ERROR)]
        finally:
            sock.close()
