"""DID / document / credential model: parsing, issuance, the verification
check order, serialization, trust-store files, and the ledger-backed DID
method operations."""

import datetime
import json

import pytest

from ssitls.crypto import DeterministicRng, SignatureSuite, generate_keypair, verify
from ssitls.identity import (
    Did,
    DidDocument,
    DidNotFound,
    DidParseError,
    METHOD_LEDGER,
    REVOKED,
    TrustStore,
    UnsupportedDidMethod,
    VcParseError,
    VcRejected,
    VcRejectionReason,
    base58btc_decode,
    base58btc_encode,
    canonical_json,
    derive_did,
    did_create,
    did_deactivate,
    did_register,
    did_resolve,
    did_update,
    load_issuer_key,
    load_trust_store,
    multibase_decode,
    multibase_encode,
    save_issuer_key,
    vc_deserialize,
    vc_issue,
    vc_serialize,
    vc_verify,
)
from ssitls.ledger import LedgerRejected, LedgerStore
from ssitls.provision import build_universe

RNG = DeterministicRng(2024)
NOW = datetime.datetime(2026, 8, 9, 12, 0, tzinfo=datetime.timezone.utc)
EARLIER = NOW - datetime.timedelta(days=1)
LATER = NOW + datetime.timedelta(days=30)


def make_issuer():
    keys = generate_keypair(SignatureSuite.ED25519, RNG)
    did = Did.parse("did:led:" + "0" * 64)
    return did, keys


def make_vc(issuer_did, issuer_keys, subject=None, valid_from=EARLIER,
            valid_until=LATER, claims=None):
    subject = subject or Did.parse("did:led:" + "1" * 64)
    return vc_issue(issuer_keys, issuer_did, subject,
                    claims or {"role": "sensor"}, valid_from, valid_until,
                    extra_types=("IoTCredential",), rng=RNG)


# ---------------------------------------------------------------------------
# DIDs and base58
# ---------------------------------------------------------------------------

def test_did_textual_form_and_length():
    did = Did(METHOD_LEDGER, "a" * 64)
    assert did.text == "did:led:" + "a" * 64
    assert len(did.text) == 72  # fixed-size content address
    assert Did.parse(did.text) == did


def test_did_parse_rejects_garbage():
    for bad in ("", "did:", "did:led:", "not-a-did", "did:LED:abc", "did:led:a b"):
        with pytest.raises(DidParseError):
            Did.parse(bad)


def test_did_parse_accepts_unregistered_methods():
    did = Did.parse("did:example:123456789")
    assert did.method.code is None
    assert did.method.name == "example"


def test_base58_round_trip_with_leading_zeros():
    for data in (b"", b"\x00", b"\x00\x00abc", bytes(range(40)), b"\xff" * 10):
        assert base58btc_decode(base58btc_encode(data)) == data
    assert multibase_decode(multibase_encode(b"\x00\x01\x02")) == b"\x00\x01\x02"
    with pytest.raises(Exception):
        multibase_decode("f0011")  # only base58btc supported
    with pytest.raises(Exception):
        base58btc_decode("0OIl")  # characters outside the alphabet


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def test_document_round_trip_and_key_extraction():
    keys = generate_keypair(SignatureSuite.ED25519, RNG)
    store = LedgerStore()
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    doc = did_resolve(store, did)
    assert doc.id == did
    again = DidDocument.from_json_dict(json.loads(canonical_json(doc.to_json_dict())))
    assert again == doc
    suite, pk = doc.authentication_key()
    assert suite is SignatureSuite.ED25519
    message = b"liveness probe"
    from ssitls.crypto import sign
    assert verify(suite, pk, message, sign(suite, keys.secret_key, message))


def test_document_requires_authentication_method():
    with pytest.raises(Exception):
        DidDocument.from_json_dict({"@context": [], "id": "did:led:" + "a" * 64,
                                    "authentication": []})


# ---------------------------------------------------------------------------
# Credentials
# ---------------------------------------------------------------------------

def test_issue_then_verify_accepted_with_trusted_issuer():
    issuer_did, issuer_keys = make_issuer()
    vc = make_vc(issuer_did, issuer_keys)
    trust = TrustStore()
    trust.add_issuer(issuer_did, issuer_keys.suite, issuer_keys.public_key)
    subject = vc_verify(vc, trust, NOW)
    assert subject == vc.subject_id
    assert "IoTCredential" in vc.types
    assert vc.proof.proof_purpose == "assertionMethod"


def test_verification_grid_trust_times_window():
    issuer_did, issuer_keys = make_issuer()
    trusted = TrustStore()
    trusted.add_issuer(issuer_did, issuer_keys.suite, issuer_keys.public_key)
    untrusted = TrustStore()
    vc = make_vc(issuer_did, issuer_keys)

    assert vc_verify(vc, trusted, NOW) == vc.subject_id
    with pytest.raises(VcRejected) as exc:
        vc_verify(vc, untrusted, NOW)
    assert exc.value.reason is VcRejectionReason.UNTRUSTED_ISSUER
    with pytest.raises(VcRejected) as exc:
        vc_verify(vc, trusted, LATER + datetime.timedelta(days=1))
    assert exc.value.reason is VcRejectionReason.EXPIRED
    with pytest.raises(VcRejected) as exc:
        vc_verify(vc, untrusted, EARLIER - datetime.timedelta(days=1))
    # window precedes the trust check
    assert exc.value.reason is VcRejectionReason.NOT_YET_VALID


def test_proof_bit_flip_rejected_as_bad_signature():
    import dataclasses
    issuer_did, issuer_keys = make_issuer()
    trust = TrustStore()
    trust.add_issuer(issuer_did, issuer_keys.suite, issuer_keys.public_key)
    vc = make_vc(issuer_did, issuer_keys)
    flipped = bytearray(vc.proof.proof_value)
    flipped[5] ^= 0x10
    bad = dataclasses.replace(vc, proof=dataclasses.replace(
        vc.proof, proof_value=bytes(flipped)))
    with pytest.raises(VcRejected) as exc:
        vc_verify(bad, trust, NOW)
    assert exc.value.reason is VcRejectionReason.BAD_SIGNATURE


def test_schema_failures_detected_first():
    import dataclasses
    issuer_did, issuer_keys = make_issuer()
    vc = make_vc(issuer_did, issuer_keys)
    no_context = dataclasses.replace(vc, context=("https://other",))
    with pytest.raises(VcRejected) as exc:
        vc_verify(no_context, TrustStore(), NOW)
    assert exc.value.reason is VcRejectionReason.SCHEMA
    no_type = dataclasses.replace(vc, types=("SomethingElse",))
    with pytest.raises(VcRejected) as exc:
        vc_verify(no_type, TrustStore(), NOW)
    assert exc.value.reason is VcRejectionReason.SCHEMA
    no_proof = dataclasses.replace(vc, proof=None)
    with pytest.raises(VcRejected) as exc:
        vc_verify(no_proof, TrustStore(), NOW)
    assert exc.value.reason is VcRejectionReason.SCHEMA


def test_degenerate_validity_window_rejected_at_issue():
    issuer_did, issuer_keys = make_issuer()
    with pytest.raises(Exception):
        make_vc(issuer_did, issuer_keys, valid_from=LATER, valid_until=EARLIER)
    with pytest.raises(Exception):
        make_vc(issuer_did, issuer_keys, valid_from=NOW, valid_until=NOW)


def test_claims_must_be_text():
    issuer_did, issuer_keys = make_issuer()
    with pytest.raises(Exception):
        make_vc(issuer_did, issuer_keys, claims={"count": 3})


def test_serialize_round_trip_preserves_verification():
    issuer_did, issuer_keys = make_issuer()
    trust = TrustStore()
    trust.add_issuer(issuer_did, issuer_keys.suite, issuer_keys.public_key)
    vc = make_vc(issuer_did, issuer_keys, claims={"role": "server", "zone": "b"})
    blob = vc_serialize(vc)
    again = vc_deserialize(blob)
    assert again == vc
    assert vc_serialize(again) == blob  # canonical form is a fixpoint
    assert vc_verify(again, trust, NOW) == vc.subject_id


def test_example_shaped_credential_parses():
    # mirrors the structure of a typical published IoT credential document
    doc = {
        "@context": ["https://www.w3.org/2018/credentials/v1"],
        "id": "https://address/credentials/1",
        "type": ["VerifiableCredential", "IoTCredential"],
        "issuer": "did:method-name:abcdefghi",
        "issuanceDate": "2023-09-19T15:34:40Z",
        "expirationDate": "2025-01-01T12:00:00Z",
        "credentialSubject": {
            "id": "did:example:123456789",
            "deviceClass": "edge-gateway",
        },
        "proof": {
            "type": "Ed25519Signature2023",
            "created": "2023-09-19T15:34:40Z",
            "proofPurpose": "assertionMethod",
            "verificationMethod": "did:method-name:abcdefghi#key-1",
            "proofValue": multibase_encode(b"\x01" * 64),
        },
    }
    vc = vc_deserialize(canonical_json(doc))
    assert vc.issuer.method.name == "method-name"
    assert vc.subject_id.text == "did:example:123456789"
    assert vc.claims == {"deviceClass": "edge-gateway"}


def test_deserialize_errors_carry_position():
    with pytest.raises(VcParseError):
        vc_deserialize(b"\xff\xfe garbage")
    blob = vc_serialize(make_vc(*make_issuer()))
    with pytest.raises(VcParseError) as exc:
        vc_deserialize(blob[: len(blob) // 2])
    assert "byte" in str(exc.value)


# ---------------------------------------------------------------------------
# Trust-store files
# ---------------------------------------------------------------------------

def test_issuer_key_file_round_trip(tmp_path):
    issuer_did, issuer_keys = make_issuer()
    text = save_issuer_key(issuer_did, issuer_keys.suite, issuer_keys.public_key)
    did, suite, pk = load_issuer_key(text)
    assert (did, suite, pk) == (issuer_did, issuer_keys.suite, issuer_keys.public_key)


def test_load_trust_store_from_files(tmp_path):
    issuer_did, issuer_keys = make_issuer()
    issuer_dir = tmp_path / "issuers"
    issuer_dir.mkdir()
    (issuer_dir / "main.txt").write_text(
        save_issuer_key(issuer_did, issuer_keys.suite, issuer_keys.public_key))
    allow = tmp_path / "allow.txt"
    allow.write_text("# trusted peers\n"
                     f"did:led:{'b' * 64}\n"
                     "\n"
                     f"did:led:{'c' * 64}  # a comment\n")
    trust = load_trust_store(issuer_dir, allow)
    assert trust.issuer_key(issuer_did) is not None
    assert trust.is_trusted_did(Did.parse(f"did:led:{'b' * 64}"))
    assert trust.is_trusted_did(Did.parse(f"did:led:{'c' * 64}"))
    assert not trust.is_trusted_did(Did.parse(f"did:led:{'d' * 64}"))


# ---------------------------------------------------------------------------
# DID method operations
# ---------------------------------------------------------------------------

def test_create_resolve_round_trip_and_uniqueness():
    store = LedgerStore()
    did1, keys1 = did_create(store, SignatureSuite.ED25519, RNG)
    did2, _ = did_create(store, SignatureSuite.ED25519, RNG)
    assert did1 != did2
    doc = did_resolve(store, did1)
    assert doc.id == did1
    suite, pk = doc.authentication_key()
    assert pk == keys1.public_key
    assert len(did1.method_specific_id) == 64


def test_create_binds_table_proof_type():
    store = LedgerStore()
    did, _ = did_create(store, SignatureSuite.ED25519, RNG)
    doc = did_resolve(store, did)
    assert doc.authentication[0].type == "Ed25519Signature2023"
    did_e, _ = did_create(store, SignatureSuite.ECDSA_SECP256R1_SHA256, RNG)
    assert did_resolve(store, did_e).authentication[0].type == \
        "EcdsaSecp256r1Signature2023"


def test_register_stores_the_document_of_the_given_keys():
    store = LedgerStore()
    keys = generate_keypair(SignatureSuite.ECDSA_SECP256R1_SHA256, RNG)
    did = did_register(store, keys)
    assert did == derive_did(keys.suite, keys.public_key)
    assert did_resolve(store, did).authentication_key() == (keys.suite, keys.public_key)


@pytest.mark.parametrize("suite", [SignatureSuite.ED25519,
                                   SignatureSuite.ECDSA_SECP256R1_SHA256])
def test_a_seeded_universe_registers_its_first_three_draws(suite):
    """The issuer, server and client keys are the seed's first three draws,
    in that order, so seeded universes stay reproducible."""
    rng = DeterministicRng(7)
    expected = [derive_did(suite, generate_keypair(suite, rng).public_key) for _ in range(3)]
    u = build_universe(suite, rng=DeterministicRng(7))
    assert [u.issuer_did, u.server_ssi.did, u.client_ssi.did] == expected


def test_resolve_unknown_and_unsupported():
    store = LedgerStore()
    with pytest.raises(DidNotFound):
        did_resolve(store, Did(METHOD_LEDGER, "9" * 64))
    with pytest.raises(UnsupportedDidMethod):
        did_resolve(store, Did.parse("did:btcr:xyz"))


def test_update_rotates_key_and_checks_controller():
    store = LedgerStore()
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    did_update(store, did, keys, new_keys)
    _, pk = did_resolve(store, did).authentication_key()
    assert pk == new_keys.public_key

    # a further update signed with the long-rotated-out key must be refused
    imposter = generate_keypair(SignatureSuite.ED25519, RNG)
    with pytest.raises(LedgerRejected):
        did_update(store, did, keys, imposter)


def test_deactivate_is_terminal_and_idempotent():
    store = LedgerStore()
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    assert did_deactivate(store, did, keys)
    assert did_resolve(store, did) is REVOKED
    assert did_deactivate(store, did, keys)  # second call acknowledges
    assert did_resolve(store, did) is REVOKED
    with pytest.raises(Exception):
        did_update(store, did, keys, generate_keypair(SignatureSuite.ED25519, RNG))
