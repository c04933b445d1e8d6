"""Resolution man-in-the-middle: forgeable over plaintext, blocked by the
authenticated ledger channel, and harmless without interposition."""

import pytest

from ssitls.certs import make_chain
from ssitls.crypto import DeterministicRng, SignatureSuite, generate_keypair
from ssitls.handshake import BadSignature, Mode, SsiIdentity, handshake_pair
from ssitls.identity import did_resolve
from ssitls.ledger import LedgerClient, LedgerNode, LedgerRejected, LedgerStore
from ssitls.mitm import ResolutionInterceptor, forge_document, mitm_resolution_attack
from ssitls.provision import build_universe

RNG = DeterministicRng(666)
ECDSA = SignatureSuite.ECDSA_SECP256R1_SHA256


@pytest.fixture(scope="module")
def setup():
    store = LedgerStore()
    node_identity, node_root = make_chain(ECDSA, "ledger.node", RNG)
    universe = build_universe(SignatureSuite.ED25519, store=store, rng=RNG)
    attacker = generate_keypair(SignatureSuite.ED25519, RNG)
    return store, node_identity, node_root, universe, attacker


def test_plaintext_resolution_allows_impersonation(setup):
    store, node_identity, node_root, u, attacker = setup
    with LedgerNode(store, insecure_plaintext=True) as node:
        outcome = mitm_resolution_attack(
            attacker, u.server_ssi.did, node.address, node_root,
            plaintext_resolution=True, trust_store=u.trust_store, rng=RNG)
    assert outcome.impersonation_accepted
    assert outcome.peer_did == u.server_ssi.did.text


def test_authenticated_channel_blocks_impersonation(setup):
    store, node_identity, node_root, u, attacker = setup
    with LedgerNode(store, node_identity) as node:
        outcome = mitm_resolution_attack(
            attacker, u.server_ssi.did, node.address, node_root,
            plaintext_resolution=False, trust_store=u.trust_store, rng=RNG)
    assert not outcome.impersonation_accepted
    assert outcome.failure_kind == "resolution_failure"


def test_vc_mode_attack_follows_same_dichotomy(setup):
    store, node_identity, node_root, u, attacker = setup
    kwargs = dict(mode=Mode.VC, victim_vc=u.server_ssi.vc,
                  relying_identity=u.client_ssi,
                  trust_store=u.trust_store, rng=RNG)
    with LedgerNode(store, insecure_plaintext=True) as node:
        insecure = mitm_resolution_attack(
            attacker, u.server_ssi.did, node.address, node_root,
            plaintext_resolution=True, **kwargs)
    assert insecure.impersonation_accepted
    with LedgerNode(store, node_identity) as node:
        protected = mitm_resolution_attack(
            attacker, u.server_ssi.did, node.address, node_root,
            plaintext_resolution=False, **kwargs)
    assert not protected.impersonation_accepted


def test_a_resolver_trusting_the_attackers_root_gets_the_forged_document(setup):
    """The authenticated channel protects only as far as its trust anchor:
    a resolver that trusts the interceptor's chain reads the forged
    document, while the interceptor refuses every write."""
    store, node_identity, _node_root, u, attacker = setup
    attacker_x509, attacker_root = make_chain(ECDSA, "attacker ledger node", RNG)
    victim = u.server_ssi.did
    with LedgerNode(store, node_identity) as node, \
            ResolutionInterceptor(node.address, forge_document(victim, attacker),
                                  attacker_x509=attacker_x509) as interceptor:
        resolver = LedgerClient(*interceptor.address, trust_anchor=attacker_root)
        document = did_resolve(resolver, victim)
        assert document.id == victim
        assert document.authentication_key()[1] == attacker.public_key
        with pytest.raises(LedgerRejected):
            resolver.put(store.get(victim.method_specific_id))


def test_attacker_without_interposition_fails_did_verify(setup):
    store, node_identity, node_root, u, attacker = setup
    impostor = SsiIdentity(u.server_ssi.did, attacker, None)
    import dataclasses
    with pytest.raises(BadSignature):
        handshake_pair(u.client_config(Mode.DID),
                       dataclasses.replace(u.server_config(),
                                           ssi_identity=impostor))


def test_forged_document_binds_attacker_key(setup):
    _store, _ni, _nr, u, attacker = setup
    doc = forge_document(u.server_ssi.did, attacker)
    assert doc["id"] == u.server_ssi.did.text
    from ssitls.identity import DidDocument
    parsed = DidDocument.from_json_dict(doc)
    _suite, pk = parsed.authentication_key()
    assert pk == attacker.public_key
