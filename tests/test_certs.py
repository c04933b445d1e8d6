"""Three-link chain construction and linear validation."""

import datetime

import pytest

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
