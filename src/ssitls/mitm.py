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
from .ledger import LedgerClient, LedgerRecord, server_frames, socket_frames

logger = logging.getLogger(__name__)


def forge_document(victim_did: Did, attacker_keys: KeyPair) -> dict:
    return new_did_document(victim_did, attacker_keys.suite,
                            attacker_keys.public_key).to_json_dict()


class ResolutionInterceptor(handshake.TcpServer):
    """TCP interposer on the resolver -> ledger-node path.

    In plaintext mode (no `attacker_x509`), frames are relayed with document
    payloads rewritten to `forged_document`. In authenticated mode the
    interceptor terminates TLS itself using `attacker_x509` (it cannot read
    or alter the genuine protected channel) and serves the forged document
    directly.
    """

    def __init__(self, upstream: tuple[str, int], forged_document: dict,
                 attacker_x509: X509Identity | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port, conn_timeout=10.0)
        self.upstream = upstream
        self.forged_document = forged_document
        self.attacker_x509 = attacker_x509

    def serve_one(self, conn: socket.socket) -> None:
        try:
            if self.attacker_x509 is None:
                with socket.create_connection(self.upstream, timeout=10.0) as upstream:
                    node = socket_frames(upstream)
                    socket_frames(conn).serve(
                        lambda request: self._rewrite(node.request(request)))
            else:
                # honest resolvers reject the attacker's chain in this handshake
                server_frames(conn, self.attacker_x509).serve(self._forged_response)
        except Exception as exc:  # the victim aborting is a normal outcome
            logger.debug("interceptor session ended: %s", exc)

    def _rewrite(self, response: dict) -> dict:
        record = response.get("record")
        if isinstance(record, dict) and isinstance(record.get("payload"), dict):
            payload = record["payload"]
            if "document" in payload:
                payload = dict(payload, document=self.forged_document)
                response = dict(response, record=dict(record, payload=payload))
        return response

    def _forged_response(self, request: dict) -> dict:
        """The impersonated node's answer: the forged document for a `get`,
        a rejection for anything else."""
        if request.get("op") != "get":
            return {"ok": False, "error": "rejected"}
        record = LedgerRecord.document_record(request.get("id", ""), 0, self.forged_document)
        return {"ok": True, "record": record.to_json_dict()}


@dataclass
class AttackOutcome:
    impersonation_accepted: bool
    failure_kind: str | None
    peer_did: str | None


def mitm_resolution_attack(attacker_keys: KeyPair, victim_did: Did,
                           node_address: tuple[str, int],
                           node_root: bytes,
                           plaintext_resolution: bool,
                           trust_store: TrustStore,
                           mode: handshake.Mode = handshake.Mode.DID,
                           victim_vc: VerifiableCredential | None = None,
                           relying_identity: handshake.SsiIdentity | None = None,
                           rng=None) -> AttackOutcome:
    """Impersonate `victim_did` towards a relying client.

    The attacker serves the handshake, presenting the victim's DID (or the
    victim's public VC) and signing DIDVerify with its own key; the relying
    client, which trusts `trust_store`, resolves via the interceptor.
    Returns whether the client accepted the impersonation.
    """
    rng = rng or handshake.SYSTEM_RNG
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
    with ResolutionInterceptor(node_address, forged, attacker_x509) as interceptor:
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
