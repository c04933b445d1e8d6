"""Three-link chain construction and linear validation."""

import datetime

import pytest

from ssitls import certs
from ssitls.certs import CertificateError, leaf_public_key_bytes, leaf_suite, \
    make_chain, verify_chain
from ssitls.crypto import DeterministicRng, SignatureSuite

RNG = DeterministicRng(404)


@pytest.mark.parametrize("suite", list(SignatureSuite))
def test_chain_builds_and_validates(suite):
    identity, root = make_chain(suite, "node.example", RNG)
    assert len(identity.chain) == 2  # root excluded on the wire
    leaf = verify_chain(list(identity.chain), [root])
    assert "node.example" in leaf.subject.rfc4514_string()
    assert leaf_suite(identity.chain[0]) is suite
    assert leaf_public_key_bytes(identity.chain[0]) == identity.keys.public_key


def test_wrong_root_rejected():
    identity, _root = make_chain(SignatureSuite.ED25519, "node.example", RNG)
    _, other_root = make_chain(SignatureSuite.ED25519, "other", RNG)
    with pytest.raises(CertificateError):
        verify_chain(list(identity.chain), [other_root])


def test_validity_window_checked():
    identity, root = make_chain(SignatureSuite.ED25519, "node.example", RNG,
                                valid_days=10)
    future = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(days=365)
    with pytest.raises(CertificateError):
        verify_chain(list(identity.chain), [root], at=future)


def test_tampered_certificate_rejected():
    identity, root = make_chain(SignatureSuite.ED25519, "node.example", RNG)
    leaf = bytearray(identity.chain[0])
    leaf[len(leaf) // 2] ^= 0x01
    with pytest.raises(CertificateError):
        verify_chain([bytes(leaf), identity.chain[1]], [root])


def test_empty_chain_rejected():
    _, root = make_chain(SignatureSuite.ED25519, "node.example", RNG)
    with pytest.raises(CertificateError):
        verify_chain([], [root])


def test_shuffled_chain_rejected():
    identity, root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256,
                                "node.example", RNG)
    with pytest.raises(CertificateError):
        verify_chain(list(identity.chain[::-1]), [root])


def test_same_name_trusted_roots_each_tried():
    first, first_root = make_chain(SignatureSuite.ED25519, "twin.example", RNG)
    second, second_root = make_chain(SignatureSuite.ED25519, "twin.example", RNG)
    stranger, _ = make_chain(SignatureSuite.ED25519, "twin.example", RNG)
    roots = [first_root, second_root]
    assert "twin.example" in verify_chain(list(first.chain), roots).subject.rfc4514_string()
    assert "twin.example" in verify_chain(list(second.chain), roots).subject.rfc4514_string()
    # an untrusted root of the same name signed this chain: still rejected
    with pytest.raises(CertificateError):
        verify_chain(list(stranger.chain), roots)


# ---------------------------------------------------------------------------
# Parsing once per process keeps every check per call
# ---------------------------------------------------------------------------

def _wrong_root():
    identity, root = make_chain(SignatureSuite.ED25519, "node.example", RNG)
    _, other_root = make_chain(SignatureSuite.ED25519, "other", RNG)
    chain = list(identity.chain)
    return (chain, [root], None), (chain, [other_root], None)


def _expired():
    identity, root = make_chain(SignatureSuite.ED25519, "node.example", RNG,
                                valid_days=10)
    future = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(days=365)
    chain = list(identity.chain)
    return (chain, [root], None), (chain, [root], future)


def _tampered():
    identity, root = make_chain(SignatureSuite.ED25519, "node.example", RNG)
    leaf = bytearray(identity.chain[0])
    leaf[len(leaf) // 2] ^= 0x01
    return (list(identity.chain), [root], None), ([bytes(leaf), identity.chain[1]], [root], None)


def _shuffled():
    identity, root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256, "node.example", RNG)
    return (list(identity.chain), [root], None), (list(identity.chain[::-1]), [root], None)


def _same_name_stranger():
    first, first_root = make_chain(SignatureSuite.ED25519, "twin.example", RNG)
    _, second_root = make_chain(SignatureSuite.ED25519, "twin.example", RNG)
    stranger, _ = make_chain(SignatureSuite.ED25519, "twin.example", RNG)
    roots = [first_root, second_root]
    return (list(first.chain), roots, None), (list(stranger.chain), roots, None)


NEGATIVES = {"wrong-root": _wrong_root, "expired": _expired, "tampered": _tampered,
             "shuffled": _shuffled, "same-name-stranger": _same_name_stranger}


@pytest.mark.parametrize("case", sorted(NEGATIVES))
def test_each_rejection_repeats_after_the_genuine_chain_is_cached(case):
    """The genuine chain passes first, so its certificates and roots are
    cached; the bad variant still fails on every call."""
    (chain, roots, _), (bad_chain, bad_roots, at) = NEGATIVES[case]()
    verify_chain(chain, roots)
    for _ in range(3):
        with pytest.raises(CertificateError):
            verify_chain(bad_chain, bad_roots, at=at)
    verify_chain(chain, roots)


def test_unparseable_certificate_fails_on_every_call():
    identity, root = make_chain(SignatureSuite.ED25519, "node.example", RNG)
    garbage = identity.chain[0][:40]
    for _ in range(3):
        with pytest.raises(CertificateError, match="does not parse"):
            verify_chain([garbage, identity.chain[1]], [root])
        with pytest.raises(CertificateError, match="does not parse"):
            verify_chain(list(identity.chain), [root, garbage])


def test_each_distinct_certificate_is_decoded_once(monkeypatch):
    chains = [make_chain(SignatureSuite.ED25519, f"server-{i}.example", RNG) for i in range(3)]
    (identity, _), roots = chains[0], [root for _, root in chains]
    certs.parse_certificate.cache_clear()
    certs._root_index.cache_clear()
    decoded = []
    load = certs.x509.load_der_x509_certificate

    def counting(der):
        decoded.append(der)
        return load(der)

    monkeypatch.setattr(certs.x509, "load_der_x509_certificate", counting)
    for _ in range(5):
        verify_chain(list(identity.chain), roots)
        assert leaf_suite(identity.chain[0]) is SignatureSuite.ED25519
        assert leaf_public_key_bytes(identity.chain[0]) == identity.keys.public_key
    assert sorted(decoded) == sorted([*identity.chain, *roots])
