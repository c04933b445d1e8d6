"""Primitive-level tests: published RFC vectors, the key-schedule ladder
against an independently written HKDF oracle, signature suites, and the
signed-content construction."""

import hmac
import random
import sys
import threading

import pytest
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature

from ssitls import crypto
from ssitls.crypto import (
    CipherSuite,
    ContributoryBehaviourError,
    CryptoError,
    DeterministicRng,
    KeyDecodeError,
    KeySchedule,
    SignatureSuite,
    X25519KeyPair,
    build_signed_content,
    ecdhe_exchange,
    finished_mac,
    generate_keypair,
    generate_x25519,
    hkdf_expand_label,
    hkdf_extract,
    sign,
    traffic_keys,
    verify,
)

SHA256_SUITE = CipherSuite.TLS_AES_128_GCM_SHA256
SHA384_SUITE = CipherSuite.TLS_AES_256_GCM_SHA384


# ---------------------------------------------------------------------------
# Suite table
# ---------------------------------------------------------------------------

def test_exactly_three_suites_with_name_bindings():
    assert len(list(SignatureSuite)) == 3
    bindings = {
        SignatureSuite.ECDSA_SECP256R1_SHA256:
            ("ecdsa_secp256r1_sha256", "EcdsaSecp256r1Signature2023"),
        SignatureSuite.RSA_PSS_RSAE_SHA256:
            ("rsa_pss_rsae_sha256", "RsaSignature2023"),
        SignatureSuite.ED25519: ("ed25519", "Ed25519Signature2023"),
    }
    for suite, (ietf, w3c) in bindings.items():
        assert suite.ietf_name == ietf
        assert suite.w3c_name == w3c
        assert SignatureSuite.from_ietf_name(ietf) is suite
        assert SignatureSuite.from_w3c_name(w3c) is suite
        assert SignatureSuite.from_scheme_code(suite.scheme_code) is suite


@pytest.mark.parametrize("lookup,key,message", [
    (SignatureSuite.from_scheme_code, 0x0401, "unknown signature scheme code 0x0401"),
    (SignatureSuite.from_w3c_name, "RsaSignature2018", "unknown proof type 'RsaSignature2018'"),
    (SignatureSuite.from_ietf_name, "rsa_pkcs1_sha256",
     "unknown signature suite 'rsa_pkcs1_sha256'"),
])
def test_an_unknown_scheme_code_proof_type_or_name_raises(lookup, key, message):
    with pytest.raises(CryptoError) as info:
        lookup(key)
    assert str(info.value) == message


@pytest.mark.parametrize("cipher,row", [
    (CipherSuite.TLS_AES_128_GCM_SHA256, (0x1301, "sha256", 32, 16, 12)),
    (CipherSuite.TLS_AES_256_GCM_SHA384, (0x1302, "sha384", 48, 32, 12)),
])
def test_cipher_suite_rows_match_rfc8446(cipher, row):
    """Code point and hash from RFC 8446 section B.4; key length from the
    AEAD; a 12-byte IV from section 5.3. The value stays the code point."""
    assert (cipher.code, cipher.hash_name, cipher.hash_len, cipher.key_len,
            cipher.iv_len) == row
    assert CipherSuite(cipher.code) is cipher
    assert len(cipher.transcript_hash(b"")) == cipher.hash_len


@pytest.mark.parametrize("suite,expected_max", [
    (SignatureSuite.ED25519, 64),
    (SignatureSuite.RSA_PSS_RSAE_SHA256, 256),
    (SignatureSuite.ECDSA_SECP256R1_SHA256, 72),
])
def test_signature_length_budgets(suite, expected_max):
    keys = generate_keypair(suite, DeterministicRng(1))
    for i in range(12):
        sig = sign(suite, keys.secret_key, bytes([i]) * 20)
        assert len(sig) <= expected_max
        if suite is not SignatureSuite.ECDSA_SECP256R1_SHA256:
            assert len(sig) == expected_max  # fixed-width suites


# ---------------------------------------------------------------------------
# x25519 (RFC 7748 section 6.1 vectors)
# ---------------------------------------------------------------------------

RFC7748_ALICE_SK = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
RFC7748_ALICE_PK = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
RFC7748_BOB_SK = bytes.fromhex(
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
RFC7748_BOB_PK = bytes.fromhex(
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
RFC7748_SHARED = bytes.fromhex(
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")


def test_rfc7748_vectors():
    alice = X25519KeyPair(RFC7748_ALICE_SK, RFC7748_ALICE_PK)
    bob = X25519KeyPair(RFC7748_BOB_SK, RFC7748_BOB_PK)
    assert ecdhe_exchange(alice, bob.public_key) == RFC7748_SHARED
    assert ecdhe_exchange(bob, alice.public_key) == RFC7748_SHARED


def test_ecdhe_symmetry_random_keys():
    rng = DeterministicRng(42)
    for _ in range(8):
        a, b = generate_x25519(rng), generate_x25519(rng)
        assert ecdhe_exchange(a, b.public_key) == ecdhe_exchange(b, a.public_key)


def test_generated_x25519_key_is_decoded_once(monkeypatch):
    """A generated pair keeps its decoded key for the exchange; a pair made
    from bytes alone decodes its secret when it exchanges."""
    decodes = []
    decode = crypto.x25519.X25519PrivateKey.from_private_bytes

    def counting(data):
        decodes.append(data)
        return decode(data)

    monkeypatch.setattr(crypto.x25519.X25519PrivateKey, "from_private_bytes",
                        staticmethod(counting))
    rng = DeterministicRng(7)
    a, b = generate_x25519(rng), generate_x25519(rng)
    assert ecdhe_exchange(a, b.public_key) == ecdhe_exchange(b, a.public_key)
    assert decodes == [a.secret_key, b.secret_key]
    assert a == X25519KeyPair(a.secret_key, a.public_key)  # the decoded key is not compared
    alice = X25519KeyPair(RFC7748_ALICE_SK, RFC7748_ALICE_PK)
    assert ecdhe_exchange(alice, RFC7748_BOB_PK) == RFC7748_SHARED
    assert decodes[2:] == [RFC7748_ALICE_SK]


def test_ecdhe_rejects_all_zero_peer():
    local = generate_x25519(DeterministicRng(1))
    with pytest.raises(ContributoryBehaviourError):
        ecdhe_exchange(local, bytes(32))


def test_ecdhe_rejects_bad_length():
    local = generate_x25519(DeterministicRng(1))
    with pytest.raises(KeyDecodeError):
        ecdhe_exchange(local, b"\x01" * 31)


# ---------------------------------------------------------------------------
# Ed25519 (RFC 8032 section 7.1 test 1)
# ---------------------------------------------------------------------------

RFC8032_SK = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC8032_PK = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC8032_SIG = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")


def test_rfc8032_vector_1():
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ed25519

    priv = ed25519.Ed25519PrivateKey.from_private_bytes(RFC8032_SK)
    secret = priv.private_bytes(serialization.Encoding.DER,
                                serialization.PrivateFormat.PKCS8,
                                serialization.NoEncryption())
    assert sign(SignatureSuite.ED25519, secret, b"") == RFC8032_SIG
    assert verify(SignatureSuite.ED25519, RFC8032_PK, b"", RFC8032_SIG)
    assert len(RFC8032_SIG) == 64


def test_all_suites_roundtrip_and_reject_forgeries():
    rng = DeterministicRng(7)
    rand = random.Random(7)
    for suite in SignatureSuite:
        keys = generate_keypair(suite, rng)
        for _ in range(25):
            msg = rand.randbytes(rand.randrange(0, 200))
            sig = sign(suite, keys.secret_key, msg)
            assert verify(suite, keys.public_key, msg, sig)
            bad = bytearray(sig)
            bad[rand.randrange(len(bad))] ^= 1 << rand.randrange(8)
            assert not verify(suite, keys.public_key, msg, bytes(bad))


def test_malformed_public_key_raises_not_accepts():
    for suite in SignatureSuite:
        with pytest.raises(KeyDecodeError):
            verify(suite, b"\x00\x01\x02", b"msg", b"\x00" * 64)


def test_ecdsa_deterministic_nonces():
    keys = generate_keypair(SignatureSuite.ECDSA_SECP256R1_SHA256, DeterministicRng(2))
    assert (sign(keys.suite, keys.secret_key, b"same message")
            == sign(keys.suite, keys.secret_key, b"same message"))


def _pkcs8(key) -> bytes:
    return key.private_bytes(serialization.Encoding.DER, serialization.PrivateFormat.PKCS8,
                             serialization.NoEncryption())


def test_ecdsa_reproduces_the_rfc6979_p256_sha256_vector():
    """RFC 6979 section A.2.5, message "sample"."""
    key = ec.derive_private_key(
        0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721, ec.SECP256R1())
    sig = sign(SignatureSuite.ECDSA_SECP256R1_SHA256, _pkcs8(key), b"sample")
    assert decode_dss_signature(sig) == (
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8)


def test_ecdsa_verify_accepts_a_randomized_nonce():
    suite = SignatureSuite.ECDSA_SECP256R1_SHA256
    key = ec.generate_private_key(ec.SECP256R1())
    public = crypto.encode_public_key(suite, key.public_key())
    sig = key.sign(b"content", ec.ECDSA(hashes.SHA256()))
    assert verify(suite, public, b"content", sig)


def test_rsa_signs_pss_with_sha256_and_a_32_byte_salt():
    """RFC 8446 section 4.2.3: the PSS salt is as long as the digest."""
    keys = generate_keypair(SignatureSuite.RSA_PSS_RSAE_SHA256)
    sig = sign(keys.suite, keys.secret_key, b"content")
    serialization.load_der_public_key(keys.public_key).verify(
        sig, b"content", padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=32),
        hashes.SHA256())


# ---------------------------------------------------------------------------
# Decoded signing keys: none for a key generated here, one for any other
# ---------------------------------------------------------------------------

@pytest.fixture()
def secret_key_loads(monkeypatch) -> list[bytes]:
    """PKCS8 bytes of every decode `signing_key` asks `load_secret_key` for."""
    loads = []
    original = crypto.load_secret_key

    def counting(suite, data):
        loads.append(data)
        return original(suite, data)

    monkeypatch.setattr(crypto, "load_secret_key", counting)
    return loads


@pytest.mark.parametrize("suite", list(SignatureSuite))
def test_a_generated_key_signs_without_a_decode(suite, secret_key_loads):
    keys = generate_keypair(suite, DeterministicRng(b"generated-" + suite.value.encode()))
    for i in range(5):
        msg = b"message %d" % i
        assert verify(suite, keys.public_key, msg, sign(suite, keys.secret_key, msg))
    assert secret_key_loads == []


def _foreign_pkcs8(suite: SignatureSuite) -> bytes:
    """PKCS8 bytes of a fresh key made without `generate_keypair`."""
    if suite is SignatureSuite.ED25519:
        key = ed25519.Ed25519PrivateKey.generate()
    elif suite is SignatureSuite.ECDSA_SECP256R1_SHA256:
        key = ec.generate_private_key(ec.SECP256R1())
    else:
        key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    return _pkcs8(key)


@pytest.mark.parametrize("suite", list(SignatureSuite))
def test_a_key_made_elsewhere_is_decoded_once(suite, secret_key_loads):
    secret = _foreign_pkcs8(suite)
    public = crypto.encode_public_key(suite, crypto.load_secret_key(suite, secret).public_key())
    secret_key_loads.clear()
    for i in range(5):
        msg = b"message %d" % i
        assert verify(suite, public, msg, sign(suite, secret, msg))
    assert secret_key_loads == [secret]


def test_the_cache_holds_at_most_its_size(secret_key_loads):
    rng = DeterministicRng(b"bounded")
    first = generate_keypair(SignatureSuite.ED25519, rng)
    for _ in range(crypto.SECRET_KEY_CACHE_SIZE + 10):
        generate_keypair(SignatureSuite.ED25519, rng)
    assert len(crypto._secret_keys) == crypto.SECRET_KEY_CACHE_SIZE
    # the oldest key was dropped, so signing with it decodes it again
    sign(first.suite, first.secret_key, b"msg")
    assert secret_key_loads == [first.secret_key]
    assert len(crypto._secret_keys) == crypto.SECRET_KEY_CACHE_SIZE


def test_undecodable_secret_fails_on_every_call(secret_key_loads):
    for _ in range(3):
        with pytest.raises(KeyDecodeError):
            sign(SignatureSuite.ED25519, b"\x30\x03not pkcs8", b"msg")
    assert len(secret_key_loads) == 3  # failures are not cached


@pytest.mark.parametrize("suite", list(SignatureSuite))
def test_cached_keys_of_one_suite_never_cross(suite):
    rng = DeterministicRng(b"cross-" + suite.value.encode())
    a, b = generate_keypair(suite, rng), generate_keypair(suite, rng)
    for _ in range(2):  # second round signs with cached keys
        sig_a = sign(suite, a.secret_key, b"content")
        sig_b = sign(suite, b.secret_key, b"content")
        assert verify(suite, a.public_key, b"content", sig_a)
        assert verify(suite, b.public_key, b"content", sig_b)
        assert not verify(suite, a.public_key, b"content", sig_b)
        assert not verify(suite, b.public_key, b"content", sig_a)


def test_cached_keys_shared_across_threads():
    rng = DeterministicRng(b"threads")
    pairs = [generate_keypair(SignatureSuite.ED25519, rng) for _ in range(3)]
    bad = []

    def worker(n):
        keys = pairs[n % len(pairs)]
        for i in range(50):
            msg = b"%d/%d" % (n, i)
            if not verify(keys.suite, keys.public_key, msg,
                          sign(keys.suite, keys.secret_key, msg)):
                bad.append(msg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_cache_stays_bounded_while_threads_insert_and_evict(monkeypatch):
    """Threads generate keys (each one cached) and sign with keys made
    elsewhere (each decoded, then cached) through a cache of 8 entries."""
    monkeypatch.setattr(crypto, "SECRET_KEY_CACHE_SIZE", 8)
    suite = SignatureSuite.ED25519
    foreign = [_foreign_pkcs8(suite) for _ in range(4)]
    publics = [crypto.encode_public_key(suite, crypto.load_secret_key(suite, s).public_key())
               for s in foreign]
    bad = []

    def worker(n):
        rng = DeterministicRng(b"evict-%d" % n)
        for i in range(40):
            keys = generate_keypair(suite, rng)
            msg = b"%d/%d" % (n, i)
            if not verify(suite, keys.public_key, msg, sign(suite, keys.secret_key, msg)):
                bad.append(msg)
            j = (n + i) % len(foreign)
            if not verify(suite, publics[j], msg, sign(suite, foreign[j], msg)):
                bad.append(msg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    assert len(crypto._secret_keys) == 8


# ---------------------------------------------------------------------------
# Key batches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", [SignatureSuite.ED25519,
                                   SignatureSuite.ECDSA_SECP256R1_SHA256])
def test_a_seeded_batch_equals_the_same_draws_one_by_one(suite, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("this batch must stay in the calling thread")

    one_by_one = DeterministicRng(7)
    expected = [generate_keypair(suite, one_by_one) for _ in range(3)]
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert crypto.generate_keypairs(suite, 3, DeterministicRng(7)) == expected


def test_an_rsa_batch_gives_distinct_pairs_that_sign_without_a_decode(private_key_decodes):
    suite = SignatureSuite.RSA_PSS_RSAE_SHA256
    batch = crypto.generate_keypairs(suite, 3)
    assert len({keys.secret_key for keys in batch}) == 3
    assert len({keys.public_key for keys in batch}) == 3
    for keys in batch:
        assert keys.suite is suite
        assert verify(suite, keys.public_key, b"m", sign(suite, keys.secret_key, b"m"))
    assert private_key_decodes == []


@pytest.mark.parametrize("cpus,most", [(1, 0), (2, 2)])
def test_an_rsa_batch_starts_at_most_one_thread_per_cpu(cpus, most, monkeypatch):
    """One CPU keeps the batch in the calling thread."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(crypto.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(threading.Thread, "start", counting)
    batch = crypto.generate_keypairs(SignatureSuite.RSA_PSS_RSAE_SHA256, 3)
    assert len(batch) == 3
    assert len(started) <= most


# ---------------------------------------------------------------------------
# Key schedule: RFC 8448 section 3 replay + independent HKDF oracle
# ---------------------------------------------------------------------------

RFC8448_CLIENT_HELLO = bytes.fromhex(
    "010000c00303cb34ecb1e78163ba1c38c6dacb196a6dffa21a8d9912ec18a2ef"
    "6283024dece7000006130113031302010000910000000b000900000673657276"
    "6572ff01000100000a00140012001d00170018001901000101010201030104002300"
    "00003300260024001d002099381de560e4bd43d23d8e435a7dbafeb3c06e51c1"
    "3cae4d5413691e529aaf2c002b0003020304000d0020001e0403050306030203"
    "08040805080604010501060102010402050206020202002d00020101001c0002"
    "4001")
RFC8448_SERVER_HELLO = bytes.fromhex(
    "020000560303a6af06a4121860dc5e6e60249cd34c95930c8ac5cb1434dac155"
    "772ed3e2692800130100002e00330024001d0020c9828876112095fe66762bdb"
    "f7c672e156d6cc253b833df1dd69b1b04e751f0f002b00020304")
RFC8448_CLIENT_EPHEMERAL_SK = bytes.fromhex(
    "49af42ba7f7994852d713ef2784bcbcaa7911de26adc5642cb634540e7ea5005")
RFC8448_SERVER_SHARE = bytes.fromhex(
    "c9828876112095fe66762bdbf7c672e156d6cc253b833df1dd69b1b04e751f0f")
RFC8448_ECDHE_SHARED = bytes.fromhex(
    "8bd4054fb55b9d63fdfbacf9f04b9f0d35e6d63f537563efd46272900f89492d")
RFC8448_EARLY_SECRET = bytes.fromhex(
    "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a")
RFC8448_C_HS_TRAFFIC = bytes.fromhex(
    "b3eddb126e067f35a780b3abf45e2d8f3b1a950738f52e9600746a0e27a55a21")
RFC8448_S_HS_TRAFFIC = bytes.fromhex(
    "b67b7d690cc16c4e75e54213cb2d37b4e9c912bcded9105d42befd59d391ad38")


def test_rfc8448_ecdhe_shared_secret():
    client = X25519KeyPair(RFC8448_CLIENT_EPHEMERAL_SK, b"")
    assert ecdhe_exchange(client, RFC8448_SERVER_SHARE) == RFC8448_ECDHE_SHARED


def test_rfc8448_handshake_traffic_secrets():
    schedule = KeySchedule(SHA256_SUITE)
    assert schedule.early_secret == RFC8448_EARLY_SECRET
    schedule.inject_ecdhe(RFC8448_ECDHE_SHARED)
    c, s = schedule.handshake_traffic_secrets(
        SHA256_SUITE.transcript_hash(RFC8448_CLIENT_HELLO + RFC8448_SERVER_HELLO))
    assert c == RFC8448_C_HS_TRAFFIC
    assert s == RFC8448_S_HS_TRAFFIC


def _oracle_expand_label(hash_name, secret, label, context, length):
    """Hand-rolled HKDF-Expand with the TLS 1.3 label layout; written
    independently of the implementation under test."""
    info = (length.to_bytes(2, "big")
            + bytes([len(b"tls13 " + label)]) + b"tls13 " + label
            + bytes([len(context)]) + context)
    out, block, i = b"", b"", 1
    while len(out) < length:
        block = hmac.new(secret, block + info + bytes([i]), hash_name).digest()
        out += block
        i += 1
    return out[:length]


def test_expand_label_matches_independent_oracle():
    rand = random.Random(99)
    for cipher in (SHA256_SUITE, SHA384_SUITE):
        for label in (b"key", b"iv", b"finished", b"c ap traffic", b"derived"):
            secret = rand.randbytes(cipher.hash_len)
            context = rand.randbytes(rand.choice((0, 32, cipher.hash_len)))
            for length in (16, 32, cipher.hash_len, 100):
                assert hkdf_expand_label(cipher, secret, label, context, length) \
                    == _oracle_expand_label(cipher.hash_name, secret, label,
                                            context, length)


def test_extract_is_hmac():
    assert hkdf_extract(SHA384_SUITE, b"salt", b"ikm") \
        == hmac.new(b"salt", b"ikm", "sha384").digest()


def _schedule_secrets(shared: bytes, msgs: list[bytes]) -> tuple[bytes, ...]:
    """(c hs, s hs, c ap, s ap) over a ClientHello, ServerHello, Certificate,
    Finished transcript, each pair fed the hash of its transcript prefix."""
    schedule = KeySchedule(SHA384_SUITE)
    schedule.inject_ecdhe(shared)
    hs = schedule.handshake_traffic_secrets(SHA384_SUITE.transcript_hash(b"".join(msgs[:2])))
    ap = schedule.app_traffic_secrets(SHA384_SUITE.transcript_hash(b"".join(msgs)))
    return hs + ap


def test_key_schedule_deterministic_and_transcript_sensitive():
    rng = DeterministicRng(5)
    msgs = [b"\x01" + b"\x00\x00\x20" + rng.bytes(32),
            b"\x02" + b"\x00\x00\x20" + rng.bytes(32),
            b"\x0b" + b"\x00\x00\x10" + rng.bytes(16),
            b"\x14" + b"\x00\x00\x30" + rng.bytes(48)]
    shared = rng.bytes(32)
    keys1 = _schedule_secrets(shared, msgs)
    keys2 = _schedule_secrets(shared, msgs)
    assert keys1 == keys2
    assert {len(k) for k in keys1} == {48}
    assert len(set(keys1)) == 4

    # a flip in the Hello flight changes every secret
    mutated = [bytearray(m) for m in msgs]
    mutated[0][7] ^= 0x40
    keys3 = _schedule_secrets(shared, [bytes(m) for m in mutated])
    assert all(a != b for a, b in zip(keys1, keys3))

    # a flip after ServerHello leaves handshake secrets alone but moves
    # the application secrets
    mutated = [bytearray(m) for m in msgs]
    mutated[2][7] ^= 0x40
    keys4 = _schedule_secrets(shared, [bytes(m) for m in mutated])
    assert keys4[:2] == keys1[:2]
    assert keys4[2] != keys1[2]
    assert keys4[3] != keys1[3]


def test_key_schedule_requires_the_ecdhe_input():
    schedule = KeySchedule(SHA384_SUITE)
    transcript_hash = SHA384_SUITE.transcript_hash(b"\x01\x00\x00\x01\xaa")
    with pytest.raises(crypto.CryptoError):
        schedule.handshake_traffic_secrets(transcript_hash)
    with pytest.raises(crypto.CryptoError):
        schedule.app_traffic_secrets(transcript_hash)


def test_finished_mac_properties():
    rng = DeterministicRng(9)
    base = rng.bytes(48)
    th1, th2 = rng.bytes(48), rng.bytes(48)
    assert finished_mac(SHA384_SUITE, base, th1) == finished_mac(SHA384_SUITE, base, th1)
    assert finished_mac(SHA384_SUITE, base, th1) != finished_mac(SHA384_SUITE, base, th2)
    assert len(finished_mac(SHA384_SUITE, base, th1)) == 48
    # matches the oracle construction: HMAC(Expand(base, "finished"), th)
    fk = _oracle_expand_label("sha384", base, b"finished", b"", 48)
    assert finished_mac(SHA384_SUITE, base, th1) == hmac.new(fk, th1, "sha384").digest()


def test_traffic_keys_lengths():
    key, iv = traffic_keys(SHA384_SUITE, b"\x07" * 48)
    assert (len(key), len(iv)) == (32, 12)
    key, iv = traffic_keys(SHA256_SUITE, b"\x07" * 32)
    assert (len(key), len(iv)) == (16, 12)


# ---------------------------------------------------------------------------
# Signed content shared by CertificateVerify and DIDVerify
# ---------------------------------------------------------------------------

def test_signed_content_server_did_verify_exact_bytes():
    th = bytes(range(48))
    out = build_signed_content("server", "did_verify", th)
    assert out == b"\x20" * 64 + b"TLS 1.3, server DIDVerify" + b"\x00" + th


def test_signed_content_client_variant_differs_only_in_role_word():
    th = bytes(range(48))
    server = build_signed_content("server", "did_verify", th)
    client = build_signed_content("client", "did_verify", th)
    assert client == server.replace(b"server DIDVerify", b"client DIDVerify")


def test_signed_content_length_arithmetic():
    th = b"\xab" * 48
    out = build_signed_content("server", "did_verify", th)
    assert len(out) == 64 + len("TLS 1.3, server DIDVerify") + 1 + 48


def test_signed_content_injective_over_role_and_purpose():
    th = b"\x55" * 48
    contents = {build_signed_content(role, purpose, th)
                for role in ("client", "server")
                for purpose in ("certificate_verify", "did_verify")}
    assert len(contents) == 4


def test_deterministic_rng_reproducible():
    a, b = DeterministicRng(123), DeterministicRng(123)
    assert a.bytes(100) == b.bytes(100)
    assert DeterministicRng(124).bytes(100) != DeterministicRng(123).bytes(100)
