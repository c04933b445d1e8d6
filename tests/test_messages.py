"""Wire codec: hand-computed encodings, round trips, decode robustness,
context rules for ssi_parameters, and byte accounting."""

import datetime
import random

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from ssitls import messages
from ssitls.certs import X509Identity
from ssitls.crypto import CipherSuite, SignatureSuite, generate_keypair, signing_key
from ssitls.handshake import Mode, handshake_pair
from ssitls.messages import (
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
    HandshakeTranscript,
    ServerHello,
    SsiParameters,
    SsiRequest,
    VcMessage,
    decode,
    decode_prefix,
    encode,
    transcript_bytes_accounting,
)


def sample_messages(universe=None):
    """Representative instances of every message type."""
    ch_ext = ExtensionBlock((
        (int(ExtensionType.SUPPORTED_VERSIONS), b"\x02\x03\x04"),
        (int(ExtensionType.SUPPORTED_GROUPS), b"\x00\x02\x00\x1d"),
        (int(ExtensionType.SIGNATURE_ALGORITHMS), b"\x00\x06\x04\x03\x08\x04\x08\x07"),
        (int(ExtensionType.KEY_SHARE),
         b"\x00\x24\x00\x1d\x00\x20" + bytes(range(32))),
        (int(ExtensionType.SSI_PARAMETERS), b"\x02\x01\x02"),
        (60000, b"opaque-unknown"),
    ))
    msgs = [
        ClientHello(bytes(range(32)), bytes(range(32)), (0x1302, 0x1301), ch_ext),
        ServerHello(bytes(range(32, 64)), b"\x01\x02", 0x1302, ExtensionBlock((
            (int(ExtensionType.SUPPORTED_VERSIONS), b"\x03\x04"),
            (int(ExtensionType.KEY_SHARE), b"\x00\x1d\x00\x20" + bytes(32)),
        ))),
        EncryptedExtensions(),
        CertificateRequest(b"", ExtensionBlock((
            (int(ExtensionType.SIGNATURE_ALGORITHMS), b"\x00\x02\x08\x07"),))),
        SsiRequest(SsiParameters(AuthnMode.VC, (2,)), (0x0403, 0x0807)),
        SsiRequest(SsiParameters(AuthnMode.DID, (0, 1, 2)), (0x0804,)),
        Certificate(b"", ((b"\x30\x82\x01\x00" + bytes(60), b""),
                          (b"\x30\x82\x02\x00" + bytes(40), b""))),
        CertificateVerify(0x0807, bytes(64)),
        VcMessage(b'{"fake":"vc"}'),
        DidMessage(2, b"did:led:" + b"a" * 64),
        DidVerify(0x0403, bytes(70)),
        Finished(bytes(48)),
    ]
    return msgs


def test_ssi_parameters_hand_encodings():
    # mode VC with the single method code 0
    assert SsiParameters(AuthnMode.VC, (0,)).encode() == b"\x02\x01\x00"
    # mode-less empty list: the client-side hybrid signal
    assert SsiParameters(AuthnMode.UNSPECIFIED, ()).encode() == b"\x00\x00"
    assert SsiParameters.decode(b"\x02\x01\x00") == SsiParameters(AuthnMode.VC, (0,))
    assert SsiParameters.decode(b"\x00\x00") == SsiParameters(AuthnMode.UNSPECIFIED, ())


def test_ssi_parameters_mode_list_pairing_enforced():
    with pytest.raises(DecodeError):
        SsiParameters(AuthnMode.UNSPECIFIED, (1,))
    with pytest.raises(DecodeError):
        SsiParameters(AuthnMode.VC, ())
    with pytest.raises(DecodeError):
        SsiParameters.decode(b"\x00\x01\x00")  # mode 0 with one method
    with pytest.raises(DecodeError):
        SsiParameters.decode(b"\x02\x00")  # VC with empty list
    with pytest.raises(DecodeError):
        SsiParameters.decode(b"\x07\x01\x00")  # unknown mode
    with pytest.raises(DecodeError):
        SsiParameters.decode(b"\x02\x02\x00\x00")  # duplicate methods
    with pytest.raises(DecodeError):
        SsiParameters.decode(b"\x02\x02\x00")  # count overruns payload


def test_did_message_length_for_72_byte_did():
    did = b"did:led:" + b"f" * 64
    assert len(did) == 72
    raw = encode(DidMessage(2, did))
    assert len(raw) == 4 + 1 + 2 + 72  # header, method byte, vector length, DID


def test_round_trip_identity_all_types():
    for msg in sample_messages():
        raw = encode(msg)
        assert decode(raw) == msg
        assert encode(decode(raw)) == raw  # deterministic re-encode


def test_decode_rejects_trailing_bytes():
    raw = encode(Finished(bytes(48))) + b"\x00"
    with pytest.raises(DecodeError):
        decode(raw)
    msg, consumed = decode_prefix(raw)
    assert consumed == len(raw) - 1


def test_unknown_message_type():
    with pytest.raises(DecodeError):
        decode(b"\x63\x00\x00\x01\x00")


def test_unknown_extension_preserved_in_client_hello():
    msgs = sample_messages()
    ch = decode(encode(msgs[0]))
    assert ch.extensions.get(60000) == b"opaque-unknown"


def test_duplicate_extension_rejected():
    block = b"\x00\x0a\x00\x00" * 2
    raw = b"\x08" + (len(block) + 2).to_bytes(3, "big") + \
        (len(block)).to_bytes(2, "big") + block
    with pytest.raises(DecodeError):
        decode(raw)


def test_ssi_parameters_only_in_client_hello_and_ssi_request():
    ssi_ext = (int(ExtensionType.SSI_PARAMETERS), b"\x02\x01\x02")
    for msg in (EncryptedExtensions(ExtensionBlock((ssi_ext,))),
                CertificateRequest(b"", ExtensionBlock((ssi_ext,)))):
        with pytest.raises(DecodeError):
            decode(encode(msg))
    sh = ServerHello(bytes(32), b"", 0x1302, ExtensionBlock((ssi_ext,)))
    with pytest.raises(DecodeError):
        decode(encode(sh))


def test_ssi_request_must_carry_exactly_both_extensions():
    # only ssi_parameters
    inner = b"\xff\x02\x00\x03\x02\x01\x02"
    raw = b"\x1a" + (len(inner) + 2).to_bytes(3, "big") \
        + len(inner).to_bytes(2, "big") + inner
    with pytest.raises(DecodeError):
        decode(raw)


def test_truncations_never_crash():
    for msg in sample_messages():
        raw = encode(msg)
        for cut in range(0, len(raw), max(1, len(raw) // 17)):
            try:
                decode(raw[:cut])
            except DecodeError:
                pass


def test_fuzz_mutated_messages_quick():
    rand = random.Random(0xF00D)
    seeds = [encode(m) for m in sample_messages()]
    for _ in range(20_000):
        raw = bytearray(rand.choice(seeds))
        for _ in range(rand.randrange(1, 4)):
            raw[rand.randrange(len(raw))] ^= 1 << rand.randrange(8)
        data = bytes(raw)
        try:
            msg, consumed = decode_prefix(data)
        except DecodeError:
            continue
        assert encode(msg) == data[:consumed]


# ---------------------------------------------------------------------------
# Byte accounting against the published per-mode budgets
# ---------------------------------------------------------------------------

EXPECTED_PK_OBJECT_BYTES = {
    # mode -> {suite: server-side public-key-object bytes}
    "x509": {SignatureSuite.ED25519: 256,
             SignatureSuite.ECDSA_SECP256R1_SHA256: 276,
             SignatureSuite.RSA_PSS_RSAE_SHA256: 1312},
    "vc": {SignatureSuite.ED25519: 128,
           SignatureSuite.ECDSA_SECP256R1_SHA256: 140,
           SignatureSuite.RSA_PSS_RSAE_SHA256: 512},
    "did": {SignatureSuite.ED25519: 64,
            SignatureSuite.ECDSA_SECP256R1_SHA256: 70,
            SignatureSuite.RSA_PSS_RSAE_SHA256: 256},
}


def test_accounting_ed25519_unilateral_cells(universes):
    u = universes[SignatureSuite.ED25519]
    for mode, expected in ((Mode.X509, 256), (Mode.VC, 128), (Mode.DID, 64)):
        client, _server = handshake_pair(u.client_config(mode), u.server_config())
        acc = client.accounting("server")
        assert acc.pk_object_bytes == expected
        assert client.accounting("client").pk_object_bytes == 0  # no client identity
        assert acc.pk_object_bytes <= acc.total_bytes


def test_accounting_consistency_property(universes):
    u = universes[SignatureSuite.ECDSA_SECP256R1_SHA256]
    client, _ = handshake_pair(u.client_config(Mode.VC),
                               u.server_config(request_client_auth=True))
    for role in ("client", "server"):
        acc = client.accounting(role)
        assert 0 < acc.pk_object_bytes <= acc.total_bytes


def _mixed_curve_chain() -> tuple[X509Identity, bytes, bytes]:
    """A valid chain with a P-256 root, a P-384 intermediate and a P-256
    leaf: (identity, intermediate DER, root DER)."""
    now = datetime.datetime.now(datetime.timezone.utc)
    root_key = ec.generate_private_key(ec.SECP256R1())
    inter_key = ec.generate_private_key(ec.SECP384R1())
    leaf_keys = generate_keypair(SignatureSuite.ECDSA_SECP256R1_SHA256)
    leaf_key = signing_key(leaf_keys.suite, leaf_keys.secret_key)

    def name(cn):
        return x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, cn)])

    def issue(subject, key, issuer, issuer_key, ca):
        cert = (x509.CertificateBuilder().subject_name(name(subject)).issuer_name(name(issuer))
                .public_key(key.public_key()).serial_number(x509.random_serial_number())
                .not_valid_before(now - datetime.timedelta(minutes=5))
                .not_valid_after(now + datetime.timedelta(days=1))
                .add_extension(x509.BasicConstraints(ca=ca, path_length=None), critical=True)
                .sign(issuer_key, hashes.SHA256()))
        return cert.public_bytes(serialization.Encoding.DER)

    root = issue("mixed root", root_key, "mixed root", root_key, True)
    inter = issue("p384 intermediate", inter_key, "mixed root", root_key, True)
    leaf = issue("server.example", leaf_key, "p384 intermediate", inter_key, False)
    return X509Identity((leaf, inter), leaf_keys), inter, root


def test_accounting_prices_a_link_outside_the_suites_by_its_own_sizes(universes):
    """A verified chain may hold a key no suite names: that link costs its
    own key encoding and signature, the suite links their nominal sizes."""
    u = universes[SignatureSuite.ECDSA_SECP256R1_SHA256]
    identity, inter, root = _mixed_curve_chain()
    client, _server = handshake_pair(u.client_config(Mode.X509, x509_roots=(root,)),
                                     u.server_config(x509_identity=identity))
    inter_cert = x509.load_der_x509_certificate(inter)
    inter_key = inter_cert.public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint)
    assert len(inter_key) == 49
    p256 = SignatureSuite.ECDSA_SECP256R1_SHA256
    leaf_and_verify = p256.nominal_public_key_len + 2 * p256.nominal_signature_len
    acc = client.accounting("server")
    assert acc.pk_object_bytes == leaf_and_verify + len(inter_key) + len(inter_cert.signature)
    assert acc.pk_object_bytes <= acc.total_bytes


def test_transcript_hash_is_prefix_deterministic():
    from ssitls.crypto import CipherSuite
    t = HandshakeTranscript()
    t.append("client", encode(Finished(bytes(48))))
    h1 = t.hash(CipherSuite.TLS_AES_256_GCM_SHA384)
    t2 = HandshakeTranscript()
    t2.append("server", encode(Finished(bytes(48))))  # sender does not affect hash
    assert h1 == t2.hash(CipherSuite.TLS_AES_256_GCM_SHA384)


@pytest.mark.parametrize("cipher", list(CipherSuite))
def test_running_transcript_hash_matches_a_full_rehash(ed_universe, monkeypatch, cipher):
    """After every append on both sides of a full mutual handshake, the
    running hash equals a hash of every byte appended so far."""
    checks = []
    append = HandshakeTranscript.append

    def checked(self, sender, raw):
        append(self, sender, raw)
        checks.append((self.hash(cipher), cipher.transcript_hash(self.all_bytes())))

    monkeypatch.setattr(HandshakeTranscript, "append", checked)
    u = ed_universe
    client, server = handshake_pair(
        u.client_config(Mode.VC, cipher_suite=cipher),
        u.server_config(request_client_auth=True, cipher_suite=cipher))
    assert client.keys.negotiated_aead is cipher
    assert len(checks) == len(client.transcript.entries) + len(server.transcript.entries)
    assert all(got == want for got, want in checks)
