"""Man-in-the-middle harness for the DID-resolution channel.

The interceptor sits between a resolver and the ledger node. Against a
plaintext resolution channel it rewrites `get` responses in flight,
substituting a document that binds the victim's DID to the attacker's key,
which lets the attacker complete DIDVerify as the victim. Against the
X.509-authenticated channel the strongest move available is to impersonate
the node with the attacker's own certificate chain, which the resolver's
trust anchor rejects, so the handshake aborts instead.
"""

from __future__ import annotations

import logging
import socket
from dataclasses import dataclass

from . import handshake
from .certs import X509Identity, make_chain
from .crypto import KeyPair, SignatureSuite, generate_keypair
from .identity import Did, TrustStore, VerifiableCredential, derive_did, new_did_document
from .ledger import LedgerClient, session_frames, socket_frames

logger = logging.getLogger(__name__)


def forge_document(victim_did: Did, attacker_keys: KeyPair) -> dict:
    return new_did_document(victim_did, attacker_keys.suite,
                            attacker_keys.public_key).to_json_dict()


class ResolutionInterceptor(handshake.TcpServer):
    """TCP interposer on the resolver -> ledger-node path.

    In plaintext mode, frames are relayed with document payloads rewritten
    to `forged_document`. In authenticated mode the interceptor terminates
    TLS itself using `attacker_x509` (it cannot read or alter the genuine
    protected channel) and serves the forged document directly.
    """

    def __init__(self, upstream: tuple[str, int], forged_document: dict,
                 plaintext: bool, attacker_x509: X509Identity | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        if not plaintext and attacker_x509 is None:
            raise ValueError("impersonating the node over TLS needs a certificate")
        super().__init__(host, port, backlog=32, conn_timeout=10.0)
        self.upstream = upstream
        self.forged_document = forged_document
        self.plaintext = plaintext
        self.attacker_x509 = attacker_x509
        self.rewrites = 0

    def serve_one(self, conn: socket.socket) -> None:
        try:
            if self.plaintext:
                self._relay_plaintext(conn)
            else:
                self._impersonate_node(conn)
        except Exception as exc:  # the victim aborting is a normal outcome
            logger.debug("interceptor session ended: %s", exc)

    def _relay_plaintext(self, conn: socket.socket) -> None:
        upstream = socket.create_connection(self.upstream, timeout=10.0)
        try:
            client_frames = socket_frames(conn)
            node_frames = socket_frames(upstream)
            while True:
                request = client_frames.recv_frame()
                if request is None:
                    return
                node_frames.send_frame(request)
                response = node_frames.recv_frame()
                if response is None:
                    return
                client_frames.send_frame(self._rewrite(response))
        finally:
            upstream.close()

    def _rewrite(self, response: dict) -> dict:
        record = response.get("record")
        if isinstance(record, dict) and isinstance(record.get("payload"), dict):
            payload = record["payload"]
            if "document" in payload:
                payload = dict(payload, document=self.forged_document)
                response = dict(response, record=dict(record, payload=payload))
                self.rewrites += 1
        return response

    def _impersonate_node(self, conn: socket.socket) -> None:
        config = handshake.EndpointConfig(x509_identity=self.attacker_x509)
        outcome = handshake.run_server(config, conn)  # rejected by honest resolvers
        frames = session_frames(outcome.session)
        while True:
            request = frames.recv_frame()
            if request is None:
                return
            if request.get("op") == "get":
                frames.send_frame({"ok": True, "record": {
                    "id": request.get("id", ""), "seq": 0,
                    "payload": {"document": self.forged_document}, "sig": ""}})
            else:
                frames.send_frame({"ok": False, "error": "rejected"})


@dataclass
class AttackOutcome:
    impersonation_accepted: bool
    failure_kind: str | None
    peer_did: str | None


def mitm_resolution_attack(attacker_keys: KeyPair, victim_did: Did,
                           node_address: tuple[str, int],
                           node_root: bytes,
                           plaintext_resolution: bool,
                           mode: handshake.Mode = handshake.Mode.DID,
                           victim_vc: VerifiableCredential | None = None,
                           relying_identity: handshake.SsiIdentity | None = None,
                           trust_store: TrustStore | None = None,
                           supported_methods: tuple[int, ...] = (),
                           rng=None) -> AttackOutcome:
    """Impersonate `victim_did` towards a relying client.

    The attacker serves the handshake, presenting the victim's DID (or the
    victim's public VC) and signing DIDVerify with its own key; the relying
    client resolves via the interceptor. Returns whether the client
    accepted the impersonation.
    """
    rng = rng or handshake.SYSTEM_RNG
    if trust_store is None:
        trust_store = TrustStore()
        trust_store.trust_did(victim_did)
    if not supported_methods:
        supported_methods = (victim_did.method.code,)
    if relying_identity is None:
        if mode is not handshake.Mode.DID:
            raise ValueError("VC-mode attack needs the relying client's identity")
        keys = generate_keypair(SignatureSuite.ED25519, rng)
        relying_identity = handshake.SsiIdentity(
            derive_did(SignatureSuite.ED25519, keys.public_key), keys)

    attacker_x509 = None
    if not plaintext_resolution:
        attacker_x509, _root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256,
                                          "attacker ledger node")

    forged = forge_document(victim_did, attacker_keys)
    with ResolutionInterceptor(node_address, forged,
                               plaintext=plaintext_resolution,
                               attacker_x509=attacker_x509) as interceptor:
        resolver = LedgerClient(*interceptor.address,
                                trust_anchor=None if plaintext_resolution else node_root,
                                insecure_plaintext=plaintext_resolution)
        attacker_config = handshake.EndpointConfig(
            ssi_identity=handshake.SsiIdentity(victim_did, attacker_keys,
                                               vc=victim_vc),
            supported_methods=supported_methods,
            rng=rng,
        )
        client_config = handshake.EndpointConfig(
            preferred_mode=mode,
            ssi_identity=relying_identity,
            supported_methods=supported_methods,
            trust_store=trust_store,
            ledger=resolver,
            rng=rng,
        )
        try:
            client_outcome, _server_outcome = handshake.handshake_pair(
                client_config, attacker_config)
        except handshake.HandshakeAbort as exc:
            return AttackOutcome(False, exc.kind, None)
        peer = client_outcome.peer
        accepted = peer.did is not None and peer.did == victim_did
        return AttackOutcome(accepted, None, peer.did.text if peer.did else None)
