"""State-machine behaviour: the negotiation matrix, flow conformance with
key agreement and protected app data, and the soundness of every
authentication check under targeted tampering."""

import contextlib
import dataclasses
import datetime
import pickle
import socket
import struct
import threading
import time

import pytest

from ssitls import handshake
from ssitls.certs import make_chain
from ssitls.crypto import (
    MANDATORY_CIPHER_SUITE,
    DeterministicRng,
    SignatureSuite,
    generate_keypair,
    generate_x25519,
)
from ssitls.handshake import (
    BadIdentity,
    BadKeyShare,
    BadSignature,
    EndpointConfig,
    FinishedMismatch,
    Flow,
    HandshakeAbort,
    Mode,
    NegotiationMismatch,
    ResolutionFailure,
    RevokedIdentity,
    SsiIdentity,
    UnexpectedMessage,
    handshake_pair,
    negotiate_server_mode,
    run_client,
    run_pair,
    run_server,
)
from ssitls.identity import (
    Did,
    TrustStore,
    derive_did,
    did_deactivate,
    did_update,
    multibase_encode,
    vc_issue,
)
from ssitls.ledger import LedgerClient, LedgerNode, LedgerStore
from ssitls.messages import (
    GROUP_X25519,
    AuthnMode,
    Certificate,
    ClientHello,
    DidMessage,
    ExtensionBlock,
    ExtensionType,
    HandshakeType,
    SsiParameters,
    SsiRequest,
    decode,
    encode,
    encode_key_share_client,
    encode_key_share_server,
    encode_signature_algorithms,
)
from ssitls.mitm import ResolutionInterceptor
from ssitls.provision import build_universe
from ssitls.record import (
    AlertDescription,
    ContentType,
    PeerAlert,
    RecordError,
    RecordLayer,
    TransportClosed,
)


def pair_results(client_config, server_config, payload=b"across the channel"):
    """Both sides' results from the in-thread pair driver (outcome or
    exception). On double success the protected echo is exercised too."""
    client, server = run_pair(client_config, server_config)
    if isinstance(client, handshake.HandshakeOutcome) and \
            isinstance(server, handshake.HandshakeOutcome):
        client.session.send(payload)
        assert server.session.recv() == payload
        server.session.send(payload[::-1])
        assert client.session.recv() == payload[::-1]
    return client, server


def assert_flow(client, server, flow: Flow):
    assert isinstance(client, handshake.HandshakeOutcome), client
    assert isinstance(server, handshake.HandshakeOutcome), server
    assert client.flow == server.flow == flow
    assert client.keys == server.keys


# ---------------------------------------------------------------------------
# Negotiation matrix: client preference x server capability
# ---------------------------------------------------------------------------

def _server_variant(u, capability: str) -> EndpointConfig:
    base = u.server_config(request_client_auth=True)
    if capability == "no-ssi":
        # a server without SSI support can only ask for X.509 client auth
        return dataclasses.replace(base, ssi_identity=None, ledger=None,
                                   supported_methods=(), client_auth_mode="x509")
    if capability == "on-method":
        return base
    if capability == "off-method":
        # DID registered under a ledger the client cannot reach
        foreign = dataclasses.replace(
            u.server_ssi, did=Did.parse("did:iota:" + "a" * 64))
        return dataclasses.replace(base, ssi_identity=foreign,
                                   supported_methods=(0,))
    raise ValueError(capability)


MATRIX = [
    (Mode.X509, "no-ssi", Flow.ORIGINAL),
    (Mode.X509, "on-method", Flow.ORIGINAL),
    (Mode.X509, "off-method", Flow.ORIGINAL),
    (Mode.VC, "no-ssi", Flow.FALLBACK),
    (Mode.VC, "on-method", Flow.SSI_VC),
    (Mode.VC, "off-method", Flow.FALLBACK),
    (Mode.DID, "no-ssi", Flow.FALLBACK),
    (Mode.DID, "on-method", Flow.SSI_DID),
    (Mode.DID, "off-method", Flow.FALLBACK),
    (Mode.VC_PEER_X509, "no-ssi", Flow.ORIGINAL),
    (Mode.VC_PEER_X509, "on-method", Flow.HYBRID_SERVER_X509),
    (Mode.VC_PEER_X509, "off-method", "abort:negotiation_mismatch"),
]


@pytest.mark.parametrize("mode,capability,expected", MATRIX)
def test_negotiation_matrix(ed_universe, mode, capability, expected):
    client_config = ed_universe.client_config(mode)
    server_config = _server_variant(ed_universe, capability)
    client, server = pair_results(client_config, server_config)
    if isinstance(expected, Flow):
        assert_flow(client, server, expected)
    else:
        kind = expected.split(":", 1)[1]
        assert isinstance(client, HandshakeAbort) and client.kind == kind
        assert not isinstance(server, handshake.HandshakeOutcome)


def test_negotiate_server_mode_is_pure_and_total(ed_universe):
    config = ed_universe.server_config(request_client_auth=True)
    for params in (None,
                   SsiParameters(AuthnMode.UNSPECIFIED, ()),
                   SsiParameters(AuthnMode.VC, (2,)),
                   SsiParameters(AuthnMode.VC, (0,)),
                   SsiParameters(AuthnMode.DID, (2,))):
        first = negotiate_server_mode(params, config)
        second = negotiate_server_mode(params, config)
        assert first == second


def test_fallback_when_server_lacks_client_methods(ed_universe):
    # the client lists only ledgers the server has no DID in
    config = ed_universe.server_config()
    decision = negotiate_server_mode(SsiParameters(AuthnMode.VC, (0, 1)), config)
    assert decision.flow == Flow.FALLBACK
    assert decision.server_auth == "x509"


def test_mutual_ssi_request_uses_common_method_set(ed_universe):
    config = ed_universe.server_config(request_client_auth=True,
                                       supported_methods=(0, 2))
    decision = negotiate_server_mode(SsiParameters(AuthnMode.VC, (2,)), config)
    assert decision.ssi_request_methods == (2,)
    assert decision.client_auth == "vc"


# ---------------------------------------------------------------------------
# Conformance flows (all nine) for one suite; the acceptance suite covers
# the full 9 x 3 grid.
# ---------------------------------------------------------------------------

FLOWS = [
    ("x509-uni", Mode.X509, {}, Flow.ORIGINAL, "anonymous"),
    ("x509-mut", Mode.X509,
     {"request_client_auth": True, "client_auth_mode": "x509"},
     Flow.ORIGINAL, "x509"),
    ("vc-uni", Mode.VC, {}, Flow.SSI_VC, "anonymous"),
    ("vc-mut", Mode.VC, {"request_client_auth": True}, Flow.SSI_VC, "did"),
    ("did-uni", Mode.DID, {}, Flow.SSI_DID, "anonymous"),
    ("did-mut", Mode.DID, {"request_client_auth": True}, Flow.SSI_DID, "did"),
    ("hybrid-2a", Mode.VC,
     {"request_client_auth": True, "client_auth_mode": "x509"},
     Flow.HYBRID_CLIENT_X509, "x509"),
    ("hybrid-2b", Mode.VC_PEER_X509, {"request_client_auth": True},
     Flow.HYBRID_SERVER_X509, "did"),
]


@pytest.mark.parametrize("name,mode,server_kw,flow,client_identity_kind",
                         FLOWS, ids=[f[0] for f in FLOWS])
def test_conformance_flow(ed_universe, name, mode, server_kw, flow,
                          client_identity_kind):
    u = ed_universe
    client, server = pair_results(u.client_config(mode), u.server_config(**server_kw))
    assert_flow(client, server, flow)
    assert server.peer.kind == client_identity_kind
    if flow in (Flow.SSI_VC, Flow.SSI_DID, Flow.HYBRID_CLIENT_X509):
        assert client.peer.did == u.server_ssi.did
    if flow == Flow.SSI_VC:
        assert client.peer.claims.get("role") == "server"


def test_fallback_both_trigger_causes(ed_universe):
    u = ed_universe
    # cause 1: server has no SSI support at all
    client, server = pair_results(
        u.client_config(Mode.VC),
        dataclasses.replace(u.server_config(), ssi_identity=None))
    assert_flow(client, server, Flow.FALLBACK)
    assert client.peer.kind == "x509"
    # cause 2: server's DID lives in a ledger the client did not offer
    foreign = dataclasses.replace(u.server_ssi,
                                  did=Did.parse("did:iota:" + "b" * 64))
    client, server = pair_results(
        u.client_config(Mode.VC),
        dataclasses.replace(u.server_config(), ssi_identity=foreign))
    assert_flow(client, server, Flow.FALLBACK)


def test_vc_mode_against_did_only_server_falls_back(ed_universe):
    u = ed_universe
    did_only = dataclasses.replace(u.server_ssi, vc=None)
    client, server = pair_results(
        u.client_config(Mode.VC),
        dataclasses.replace(u.server_config(), ssi_identity=did_only))
    assert_flow(client, server, Flow.FALLBACK)


def test_hybrid_2b_did_flavour(ed_universe):
    u = ed_universe
    client, server = pair_results(
        u.client_config(Mode.VC_PEER_X509),
        u.server_config(request_client_auth=True,
                        ssi_request_mode=AuthnMode.DID))
    assert_flow(client, server, Flow.HYBRID_SERVER_X509)
    assert server.peer.did == u.client_ssi.did
    assert server.peer.claims == {}  # bare DID carries no claims


def test_transcripts_match_between_peers(ed_universe):
    client, server = pair_results(ed_universe.client_config(Mode.VC),
                                  ed_universe.server_config())
    assert client.transcript.all_bytes() == server.transcript.all_bytes()


# ---------------------------------------------------------------------------
# Authentication soundness under tampering
# ---------------------------------------------------------------------------

def tamper_type(target: HandshakeType, mutate):
    def tamper(msg_type: int, raw: bytes) -> bytes:
        return mutate(raw) if msg_type == int(target) else raw
    return tamper


def _flip_tail(raw: bytes) -> bytes:
    out = bytearray(raw)
    out[-3] ^= 0x04
    return bytes(out)


def test_mutated_did_verify_rejected(ed_universe):
    u = ed_universe
    config = u.server_config()
    config.tamper = tamper_type(HandshakeType.DID_VERIFY, _flip_tail)
    client, server = pair_results(u.client_config(Mode.VC), config)
    assert isinstance(client, BadSignature)


def test_mutated_certificate_verify_rejected(ed_universe):
    u = ed_universe
    config = u.server_config()
    config.tamper = tamper_type(HandshakeType.CERTIFICATE_VERIFY, _flip_tail)
    client, server = pair_results(u.client_config(Mode.X509), config)
    assert isinstance(client, BadSignature)


def test_mutated_finished_rejected(ed_universe):
    u = ed_universe
    config = u.server_config()
    config.tamper = tamper_type(HandshakeType.FINISHED, _flip_tail)
    client, server = pair_results(u.client_config(Mode.DID), config)
    assert isinstance(client, FinishedMismatch)


def test_mutated_vc_proof_rejected(ed_universe):
    u = ed_universe
    vc = u.server_ssi.vc
    bad_proof = dataclasses.replace(
        vc.proof, proof_value=bytes([vc.proof.proof_value[0] ^ 1])
        + vc.proof.proof_value[1:])
    bad_identity = dataclasses.replace(u.server_ssi,
                                       vc=dataclasses.replace(vc, proof=bad_proof))
    client, server = pair_results(
        u.client_config(Mode.VC),
        dataclasses.replace(u.server_config(), ssi_identity=bad_identity))
    assert isinstance(client, BadIdentity)


def test_cross_session_did_verify_replay_rejected(ed_universe):
    u = ed_universe
    captured: list[bytes] = []

    def capture(msg_type: int, raw: bytes) -> bytes:
        if msg_type == int(HandshakeType.DID_VERIFY):
            captured.append(raw)
        return raw

    config_a = u.server_config()
    config_a.tamper = capture
    client, server = pair_results(u.client_config(Mode.VC), config_a)
    assert isinstance(client, handshake.HandshakeOutcome)
    assert captured

    def splice(raw: bytes) -> bytes:
        return captured[0]

    config_b = u.server_config()
    config_b.tamper = tamper_type(HandshakeType.DID_VERIFY, splice)
    client_b, _server_b = pair_results(u.client_config(Mode.VC), config_b)
    assert isinstance(client_b, BadSignature)


def test_resolved_key_substitution_rejected(fresh_universe):
    """A ledger answering with a different key makes DIDVerify fail."""
    u = fresh_universe

    class KeyTamperingLedger:
        def __init__(self, inner):
            self.inner = inner

        def get(self, msid):
            record = self.inner.get(msid)
            doc = dict(record.document)
            methods = [dict(m) for m in doc["authentication"]]
            from ssitls.identity import multibase_decode, multibase_encode
            pk = bytearray(multibase_decode(methods[0]["publicKeyMultibase"]))
            pk[0] ^= 0x01
            methods[0]["publicKeyMultibase"] = multibase_encode(bytes(pk))
            doc["authentication"] = methods
            return dataclasses.replace(record, payload={"document": doc})

        def put(self, record):
            self.inner.put(record)

    client, server = pair_results(
        u.client_config(Mode.DID, ledger=KeyTamperingLedger(u.store)),
        u.server_config())
    assert isinstance(client, BadSignature)


@pytest.mark.parametrize("suite", list(SignatureSuite))
def test_resolved_key_that_does_not_decode_is_bad_identity(universes, suite):
    """A resolved document whose key does not decode aborts the resolving
    side with BadIdentity and sends the peer bad_certificate."""
    u = universes[suite]

    class ShortKeyLedger:
        def get(self, msid):
            record = u.store.get(msid)
            doc = dict(record.document)
            doc["authentication"] = [dict(doc["authentication"][0],
                                          publicKeyMultibase=multibase_encode(b"\x01" * 5))]
            return dataclasses.replace(record, payload={"document": doc})

    with handshake.HandshakeServer(u.server_config()) as server:
        with socket.create_connection(server.address, timeout=10) as sock:
            with pytest.raises(BadIdentity, match="resolved document unusable"):
                run_client(u.client_config(Mode.DID, ledger=ShortKeyLedger()), sock)
    assert [(type(e).__name__, getattr(e, "description", None))
            for e in server.errors] == [("PeerAlert", AlertDescription.BAD_CERTIFICATE)]


def test_foreign_method_did_message_is_negotiation_mismatch(ed_universe):
    u = ed_universe

    def foreign_did(raw: bytes) -> bytes:
        from ssitls.messages import DidMessage, encode
        return encode(DidMessage(0, b"did:iota:" + b"c" * 64))

    config = u.server_config()
    config.tamper = tamper_type(HandshakeType.DID, foreign_did)
    client, _server = pair_results(u.client_config(Mode.DID), config)
    assert isinstance(client, NegotiationMismatch)


def _inadmissible_flights(u):
    """(client mode, server overrides, message replaced, replacement): each
    replacement is a message the client's proposal does not admit there."""
    did = u.server_ssi.did
    return {
        "did-for-vc-proposal": (
            Mode.VC, {}, HandshakeType.VC,
            DidMessage(did.method.code, did.text.encode())),
        "certificate-after-ssi-request": (
            Mode.VC, {"request_client_auth": True}, HandshakeType.VC,
            Certificate(b"", tuple((der, b"") for der in u.server_x509.chain))),
        "ssi-request-without-proposal": (
            Mode.X509, {"request_client_auth": True, "client_auth_mode": "x509"},
            HandshakeType.CERTIFICATE_REQUEST,
            SsiRequest(SsiParameters(AuthnMode.VC, (did.method.code,)),
                       (u.suite.scheme_code,))),
    }


@pytest.mark.parametrize("case", ["did-for-vc-proposal", "certificate-after-ssi-request",
                                  "ssi-request-without-proposal"])
def test_client_admits_only_what_its_proposal_allows(ed_universe, case):
    u = ed_universe
    mode, server_kw, target, replacement = _inadmissible_flights(u)[case]
    config = u.server_config(tamper=tamper_type(target, lambda raw: encode(replacement)),
                             **server_kw)
    client, server = pair_results(u.client_config(mode), config)
    assert isinstance(client, UnexpectedMessage), client
    assert isinstance(server, PeerAlert), server
    assert server.description == AlertDescription.UNEXPECTED_MESSAGE


def test_untrusted_did_rejected(fresh_universe):
    u = fresh_universe
    from ssitls.identity import TrustStore
    empty = TrustStore()
    empty.add_issuer(u.issuer_did, u.issuer_keys.suite, u.issuer_keys.public_key)
    client, _server = pair_results(
        u.client_config(Mode.DID, trust_store=empty), u.server_config())
    assert isinstance(client, BadIdentity)


@pytest.mark.parametrize("case", ["never-written", "unresolvable-method"])
def test_an_unresolvable_peer_did_is_a_bad_identity(ed_universe, case):
    """A trusted peer DID the ledger has never seen, or whose method no
    resolver here reads, is the peer's fault: BadIdentity and
    bad_certificate, not internal_error (RFC 8446 §6.2)."""
    u = ed_universe
    keys = generate_keypair(SignatureSuite.ED25519)
    did = (derive_did(SignatureSuite.ED25519, keys.public_key) if case == "never-written"
           else Did.parse("did:iota:" + "c" * 64))
    methods = tuple(sorted({u.client_ssi.did.method.code, did.method.code}))
    client, server = run_pair(
        u.client_config(Mode.DID, trust_store=TrustStore(trusted_dids={did.text}),
                        supported_methods=methods),
        u.server_config(ssi_identity=SsiIdentity(did, keys), supported_methods=methods))
    assert type(client) is BadIdentity, client
    assert "unresolvable DID" in str(client)
    assert type(server) is PeerAlert, server
    assert server.description == AlertDescription.BAD_CERTIFICATE


def test_expired_credential_rejected(fresh_universe):
    u = fresh_universe
    past = datetime.datetime.now(datetime.timezone.utc) - datetime.timedelta(days=10)
    stale = vc_issue(u.issuer_keys, u.issuer_did, u.server_ssi.did,
                     {"role": "server"}, past, past + datetime.timedelta(days=1))
    expired_identity = dataclasses.replace(u.server_ssi, vc=stale)
    client, _server = pair_results(
        u.client_config(Mode.VC),
        dataclasses.replace(u.server_config(), ssi_identity=expired_identity))
    assert isinstance(client, BadIdentity)
    assert "expired" in str(client)


def test_untrusted_issuer_rejected(fresh_universe):
    u = fresh_universe
    from ssitls.identity import TrustStore
    no_issuers = TrustStore(trusted_dids=set(u.trust_store.trusted_dids))
    client, _server = pair_results(
        u.client_config(Mode.VC, trust_store=no_issuers), u.server_config())
    assert isinstance(client, BadIdentity)


def test_revoked_server_did_aborts_both_modes(fresh_universe):
    u = fresh_universe
    did_deactivate(u.store, u.server_ssi.did, u.server_ssi.keys)
    for mode in (Mode.DID, Mode.VC):
        client, _server = pair_results(u.client_config(mode), u.server_config())
        assert isinstance(client, RevokedIdentity)


def test_server_reports_the_alert_that_beats_its_write(fresh_universe):
    """The client rejects the revoked server DID and closes while the server
    is still writing its flight: the server must report the client's
    certificate_revoked alert, not its own failed write."""
    u = fresh_universe
    did_deactivate(u.store, u.server_ssi.did, u.server_ssi.keys)
    client_gone = threading.Event()

    def hold_finished(msg_type, raw):
        if msg_type == HandshakeType.FINISHED:
            client_gone.wait(10)
        return raw

    with handshake.HandshakeServer(u.server_config(tamper=hold_finished)) as server:
        with socket.create_connection(server.address, timeout=10) as sock:
            with pytest.raises(RevokedIdentity):
                run_client(u.client_config(Mode.DID), sock)
        client_gone.set()
    assert [(type(e).__name__, getattr(e, "description", None))
            for e in server.errors] == [("PeerAlert", AlertDescription.CERTIFICATE_REVOKED)]


def _client_hello(key_share: bytes) -> ClientHello:
    return ClientHello(bytes(32), bytes(32), (MANDATORY_CIPHER_SUITE.code,),
                       ExtensionBlock((
                           (int(ExtensionType.SUPPORTED_VERSIONS), b"\x02\x03\x04"),
                           (int(ExtensionType.SUPPORTED_GROUPS), b"\x00\x02\x00\x1d"),
                           (int(ExtensionType.SIGNATURE_ALGORITHMS),
                            encode_signature_algorithms(tuple(SignatureSuite))),
                           (int(ExtensionType.KEY_SHARE), key_share),
                       )))


def test_server_records_a_low_order_key_share(ed_universe):
    hello = _client_hello(encode_key_share_client([(GROUP_X25519, bytes(32))]))
    with handshake.HandshakeServer(ed_universe.server_config()) as server:
        with socket.create_connection(server.address, timeout=10) as sock:
            records = RecordLayer(sock)
            records.send(ContentType.HANDSHAKE, encode(hello))
            content_type, alert = records.recv()
            assert content_type == ContentType.ALERT
            assert alert[1] == AlertDescription.ILLEGAL_PARAMETER
    assert len(server.errors) == 1
    assert isinstance(server.errors[0], BadKeyShare)


def test_client_answers_a_short_key_share_with_illegal_parameter(ed_universe):
    def short_share(raw: bytes) -> bytes:
        hello = decode(raw)
        share = encode_key_share_server(GROUP_X25519, bytes(31))
        return encode(dataclasses.replace(hello, extensions=ExtensionBlock((
            (int(ExtensionType.SUPPORTED_VERSIONS), b"\x03\x04"),
            (int(ExtensionType.KEY_SHARE), share)))))

    u = ed_universe
    client, server = pair_results(
        u.client_config(Mode.X509),
        u.server_config(tamper=tamper_type(HandshakeType.SERVER_HELLO, short_share)))
    assert isinstance(client, BadKeyShare), client
    assert isinstance(server, PeerAlert), server
    assert server.description == AlertDescription.ILLEGAL_PARAMETER


def test_server_reports_a_peer_that_resets_mid_handshake(ed_universe):
    """The client leaves with a reset right after ServerHello: the server's
    failed write or read surfaces as TransportClosed."""
    share = encode_key_share_client([(GROUP_X25519, generate_x25519().public_key)])
    with handshake.HandshakeServer(ed_universe.server_config()) as server:
        sock = socket.create_connection(server.address, timeout=10)
        records = RecordLayer(sock)
        records.send(ContentType.HANDSHAKE, encode(_client_hello(share)))
        assert records.recv()[0] == ContentType.HANDSHAKE
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
    assert [type(e) for e in server.errors] == [TransportClosed]


def test_server_that_cannot_negotiate_alerts_the_client(ed_universe):
    """A server with no identity for the client's proposal aborts before
    ServerHello and still sends handshake_failure."""
    u = ed_universe
    client, server = pair_results(
        u.client_config(Mode.X509), dataclasses.replace(u.server_config(), x509_identity=None))
    assert isinstance(server, NegotiationMismatch), server
    assert isinstance(client, PeerAlert), client
    assert client.description == AlertDescription.HANDSHAKE_FAILURE


def test_revoked_client_did_aborts_mutual(fresh_universe):
    u = fresh_universe
    did_deactivate(u.store, u.client_ssi.did, u.client_ssi.keys)
    _client, server = pair_results(u.client_config(Mode.VC),
                                   u.server_config(request_client_auth=True))
    assert isinstance(server, RevokedIdentity)


def test_stale_key_after_rotation_rejected(fresh_universe):
    u = fresh_universe
    new_keys = generate_keypair(SignatureSuite.ED25519)
    did_update(u.store, u.server_ssi.did, u.server_ssi.keys, new_keys)
    # server still signs with the rotated-out key
    client, _server = pair_results(u.client_config(Mode.DID), u.server_config())
    assert isinstance(client, BadSignature)


def test_client_hello_tampered_in_flight_detected(ed_universe):
    """A wire-level attacker flipping plaintext ClientHello bits desynchronises
    the transcripts, so the first protected flight fails authentication."""
    u = ed_universe

    class BitFlipTransport:
        def __init__(self, sock):
            self.sock = sock
            self.tampered = False

        def sendall(self, data):
            if not self.tampered and len(data) > 60:
                out = bytearray(data)
                out[-1] ^= 0x01  # inside the trailing ssi_parameters methods
                data = bytes(out)
                self.tampered = True
            self.sock.sendall(data)

        def recv(self, n):
            return self.sock.recv(n)

        def close(self):
            self.sock.close()

    completed = []
    with handshake.HandshakeServer(u.server_config(), handler=completed.append,
                                   conn_timeout=20) as server:
        with socket.create_connection(server.address, timeout=20) as sock:
            with pytest.raises((RecordError, HandshakeAbort, PeerAlert)):
                run_client(u.client_config(Mode.VC), BitFlipTransport(sock))
            start = time.monotonic()
            while not server.errors and time.monotonic() - start < 2:
                time.sleep(0.01)
            assert len(server.errors) == 1
    assert not completed


def test_aborted_flows_yield_no_keys(ed_universe):
    u = ed_universe
    config = u.server_config()
    config.tamper = tamper_type(HandshakeType.FINISHED, _flip_tail)
    client, server = pair_results(u.client_config(Mode.VC), config)
    assert not isinstance(client, handshake.HandshakeOutcome)
    # the server never saw the client Finished, so it cannot have completed
    assert not isinstance(server, handshake.HandshakeOutcome)


def test_client_requires_ssi_identity_for_ssi_modes(ed_universe):
    config = ed_universe.client_config(Mode.VC)
    config.ssi_identity = None
    with pytest.raises(handshake.ConfigError):
        run_client(config, None)


# ---------------------------------------------------------------------------
# The in-thread pair driver
# ---------------------------------------------------------------------------

def test_handshake_pair_starts_no_thread_and_opens_no_socket(ed_universe, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the pair driver must stay in this thread and in memory")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket, "socketpair", refuse)
    u = ed_universe
    for mode in Mode:
        client, server = handshake_pair(u.client_config(mode),
                                        u.server_config(request_client_auth=True))
        assert client.keys == server.keys


@pytest.mark.parametrize("dropped,sender,waiting", [
    (HandshakeType.FINISHED, "client", ("server",)),
    (HandshakeType.FINISHED, "server", ("client", "server")),
], ids=["client-finished", "server-finished"])
def test_a_dropped_message_is_a_named_stall_at_once(ed_universe, dropped, sender, waiting):
    """A message dropped in flight leaves a role waiting for a record that
    never comes; the driver names it at once instead of timing out."""
    u = ed_universe
    drop = tamper_type(dropped, lambda raw: b"")
    client_config, server_config = u.client_config(Mode.X509), u.server_config()
    if sender == "client":
        client_config = dataclasses.replace(client_config, tamper=drop)
    else:
        server_config = dataclasses.replace(server_config, tamper=drop)
    start = time.monotonic()
    with pytest.raises(handshake.HandshakeStalled) as info:
        run_pair(client_config, server_config)
    assert time.monotonic() - start < 0.5
    assert info.value.roles == waiting
    assert all(role in str(info.value) for role in waiting)
    assert info.value.alert is None


# ---------------------------------------------------------------------------
# Process boundaries, record keys and the threaded acceptor
# ---------------------------------------------------------------------------

def test_used_server_config_pickles_and_still_handshakes():
    """Configs cross process boundaries (a server in a child process): one
    that has already signed survives pickling, and its copy signs again."""
    rng = DeterministicRng(b"pickle")
    store = LedgerStore()
    node_identity, node_root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256,
                                          "ledger.node", rng)
    with LedgerNode(store, node_identity) as node:
        u = build_universe(SignatureSuite.ED25519, store=store,
                           ledger=LedgerClient(*node.address, trust_anchor=node_root),
                           rng=rng)
        server_config = u.server_config(request_client_auth=True)
        client_config = u.client_config(Mode.DID)
        assert_flow(*pair_results(client_config, server_config), Flow.SSI_DID)
        copy = pickle.loads(pickle.dumps(server_config))
        assert_flow(*pair_results(client_config, copy), Flow.SSI_DID)


def test_records_reuse_the_aead_of_their_key(ed_universe, monkeypatch):
    from ssitls import record
    built = []
    original = record.aead

    def counting(key):
        built.append(key)
        return original(key)

    monkeypatch.setattr(record, "aead", counting)
    u = ed_universe
    client, server = handshake_pair(u.client_config(Mode.X509), u.server_config())
    after_handshake = len(built)
    for i in range(20):
        client.session.send(b"record %d" % i)
        assert server.session.recv() == b"record %d" % i
    assert after_handshake == 8  # handshake and application keys, two directions, two sides
    assert len(built) == after_handshake


def _handshake_acceptor(u, _stack):
    server = handshake.HandshakeServer(u.server_config())

    def exchange(i):
        with socket.create_connection(server.address, timeout=10) as sock:
            outcome = run_client(u.client_config(Mode.X509), sock)
            assert outcome.flow is Flow.ORIGINAL
            outcome.session.send(b"ping %d" % i)
            assert outcome.session.recv() == b"ping %d" % i
    return server, exchange


def _ledger_acceptor(u, _stack):
    node_identity, node_root = make_chain(SignatureSuite.ED25519, "ledger.node")
    node = LedgerNode(u.store, node_identity)
    resolver = LedgerClient(*node.address, trust_anchor=node_root)
    msid = u.server_ssi.did.method_specific_id

    def exchange(_i):
        assert resolver.get(msid).method_specific_id == msid
    return node, exchange


def _interceptor_acceptor(u, stack):
    node = stack.enter_context(LedgerNode(u.store, insecure_plaintext=True))
    forged = {"forged": True}
    interceptor = ResolutionInterceptor(node.address, forged, plaintext=True)
    resolver = LedgerClient(*interceptor.address, insecure_plaintext=True)
    msid = u.server_ssi.did.method_specific_id

    def exchange(_i):
        assert resolver.get(msid).document == forged
    return interceptor, exchange


@pytest.mark.parametrize("acceptor", [_handshake_acceptor, _ledger_acceptor,
                                      _interceptor_acceptor],
                         ids=["HandshakeServer", "LedgerNode", "ResolutionInterceptor"])
def test_server_keeps_only_live_connection_threads(acceptor, ed_universe):
    with contextlib.ExitStack() as stack:
        server, exchange = acceptor(ed_universe, stack)
        server.start()
        try:
            for i in range(50):
                exchange(i)
            assert len(server._threads) <= 5
        finally:
            start = time.monotonic()
            server.stop()
        assert time.monotonic() - start < 0.5
    assert not getattr(server, "errors", [])
