"""Cryptographic primitives and the TLS 1.3 key schedule.

Three signature suites are supported end to end, each a `SignatureSuite`
row that names it under both its IETF signature-scheme name and the W3C
proof-type name used inside DID documents and credential proofs.

Key exchange is x25519; the mandatory record suite is TLS_AES_256_GCM_SHA384.
"""

from __future__ import annotations

import enum
import hashlib
import hmac as hmac_mod
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa, x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM


class CryptoError(Exception):
    pass


class KeyDecodeError(CryptoError):
    """Public or secret key bytes do not decode for the suite."""


class ContributoryBehaviourError(CryptoError):
    """x25519 produced an all-zero shared secret (low-order peer point)."""


# ---------------------------------------------------------------------------
# Signature suites
# ---------------------------------------------------------------------------

class SignatureSuite(enum.Enum):
    """One signature suite per row: its IETF signature-scheme name (the
    value), its W3C proof type, its TLS SignatureScheme code point, and the
    budgeted sizes of one public key and one signature object in byte
    accounting. ECDSA signatures are DER encoded and vary in length (<= 72
    bytes); the 70-byte figure is the accounting average, not a wire width."""

    ECDSA_SECP256R1_SHA256 = ("ecdsa_secp256r1_sha256", "EcdsaSecp256r1Signature2023",
                              0x0403, 33, 70)
    RSA_PSS_RSAE_SHA256 = ("rsa_pss_rsae_sha256", "RsaSignature2023", 0x0804, 272, 256)
    ED25519 = ("ed25519", "Ed25519Signature2023", 0x0807, 32, 64)

    def __new__(cls, ietf_name: str, w3c_name: str, scheme_code: int,
                nominal_public_key_len: int, nominal_signature_len: int):
        suite = object.__new__(cls)
        suite._value_ = suite.ietf_name = ietf_name
        suite.w3c_name = w3c_name
        suite.scheme_code = scheme_code
        suite.nominal_public_key_len = nominal_public_key_len
        suite.nominal_signature_len = nominal_signature_len
        return suite

    @classmethod
    def from_scheme_code(cls, code: int) -> "SignatureSuite":
        for suite in cls:
            if suite.scheme_code == code:
                return suite
        raise CryptoError(f"unknown signature scheme code 0x{code:04x}")

    @classmethod
    def from_w3c_name(cls, name: str) -> "SignatureSuite":
        for suite in cls:
            if suite.w3c_name == name:
                return suite
        raise CryptoError(f"unknown proof type {name!r}")

    @classmethod
    def from_ietf_name(cls, name: str) -> "SignatureSuite":
        for suite in cls:
            if suite.ietf_name == name:
                return suite
        raise CryptoError(f"unknown signature suite {name!r}")


_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------

class Rng:
    """Randomness source. Swap in DeterministicRng to replay a handshake."""

    def bytes(self, n: int) -> bytes:
        return os.urandom(n)


class DeterministicRng(Rng):
    """SHA-256 counter stream seeded from `seed`. Test use only."""

    def __init__(self, seed: bytes | int):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big")
        self._seed = bytes(seed)
        self._counter = 0

    def bytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            block = hashlib.sha256(self._seed + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            out += block
        return out[:n]


SYSTEM_RNG = Rng()


# ---------------------------------------------------------------------------
# Long-term identity keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyPair:
    """Identity signing keys.

    `secret_key` is PKCS8 DER. `public_key` is the suite wire form: raw 32
    bytes for ed25519, SEC1 compressed point for ECDSA, SPKI DER for RSA.

    A key pair stays plain bytes so that configs holding it pickle across
    process boundaries. `sign` keeps decoded keys in a bounded per-process
    cache: it never decodes a key this process generated, and decodes any
    other key once.
    """

    suite: SignatureSuite
    secret_key: bytes
    public_key: bytes


def generate_keypair(suite: SignatureSuite, rng: Rng = SYSTEM_RNG) -> KeyPair:
    """Fresh identity key pair, its key object cached for `sign`. RSA
    generation always uses OS randomness (the underlying library does not
    take an injected source) and draws nothing from `rng`; the other suites
    derive the secret from `rng`, so seeded runs are reproducible.
    `generate_keypairs` makes a batch."""
    if suite is SignatureSuite.ED25519:
        key = ed25519.Ed25519PrivateKey.from_private_bytes(rng.bytes(32))
    elif suite is SignatureSuite.ECDSA_SECP256R1_SHA256:
        scalar = int.from_bytes(rng.bytes(48), "big") % (_P256_ORDER - 1) + 1
        key = ec.derive_private_key(scalar, ec.SECP256R1())
    elif suite is SignatureSuite.RSA_PSS_RSAE_SHA256:
        key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    else:
        raise CryptoError(f"unsupported suite {suite}")
    keys = KeyPair(suite, _encode_secret(key), encode_public_key(suite, key.public_key()))
    remember_secret_key(suite, keys.secret_key, key)
    return keys


def generate_keypairs(suite: SignatureSuite, count: int,
                      rng: Rng = SYSTEM_RNG) -> list[KeyPair]:
    """`count` calls of `generate_keypair`. An RSA batch runs on up to one
    worker thread per CPU, since the prime search releases the GIL and
    draws nothing from `rng`; the other suites draw from `rng` in order, in
    this thread, so a seeded batch equals the same calls made one by one."""
    workers = min(count, os.cpu_count() or 1)
    if suite is not SignatureSuite.RSA_PSS_RSAE_SHA256 or workers <= 1:
        return [generate_keypair(suite, rng) for _ in range(count)]
    # imported here: every process that signs imports this module at start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(generate_keypair, [suite] * count))


def suite_of_key(public_key) -> SignatureSuite:
    """The suite that signs with `public_key`'s type. An ECDSA key must be
    on P-256, the one curve the ECDSA suite names."""
    if isinstance(public_key, ed25519.Ed25519PublicKey):
        return SignatureSuite.ED25519
    if isinstance(public_key, rsa.RSAPublicKey):
        return SignatureSuite.RSA_PSS_RSAE_SHA256
    if isinstance(public_key, ec.EllipticCurvePublicKey):
        if isinstance(public_key.curve, ec.SECP256R1):
            return SignatureSuite.ECDSA_SECP256R1_SHA256
        raise CryptoError(f"unsupported ECDSA curve {public_key.curve.name}")
    raise CryptoError(f"unsupported key type {type(public_key).__name__}")


def encode_public_key(suite: SignatureSuite, pub) -> bytes:
    if suite is SignatureSuite.ED25519:
        return pub.public_bytes_raw()
    if suite is SignatureSuite.ECDSA_SECP256R1_SHA256:
        return pub.public_bytes(serialization.Encoding.X962,
                                serialization.PublicFormat.CompressedPoint)
    return pub.public_bytes(serialization.Encoding.DER,
                            serialization.PublicFormat.SubjectPublicKeyInfo)


def _encode_secret(key) -> bytes:
    return key.private_bytes(serialization.Encoding.DER,
                             serialization.PrivateFormat.PKCS8,
                             serialization.NoEncryption())


def load_public_key(suite: SignatureSuite, data: bytes):
    """Decode suite wire bytes into a verification key object."""
    try:
        if suite is SignatureSuite.ED25519:
            return ed25519.Ed25519PublicKey.from_public_bytes(data)
        if suite is SignatureSuite.ECDSA_SECP256R1_SHA256:
            return ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), data)
        key = serialization.load_der_public_key(data)
        if not isinstance(key, rsa.RSAPublicKey):
            raise KeyDecodeError("expected an RSA public key")
        return key
    except KeyDecodeError:
        raise
    except Exception as exc:
        raise KeyDecodeError(f"bad {suite.ietf_name} public key: {exc}") from exc


def load_secret_key(suite: SignatureSuite, data: bytes):
    try:
        key = serialization.load_der_private_key(data, password=None)
    except Exception as exc:
        raise KeyDecodeError(f"bad {suite.ietf_name} secret key: {exc}") from exc
    return key


# Decoded signing keys kept per process; one entry per (suite, PKCS8 bytes),
# the least recently used dropped first.
SECRET_KEY_CACHE_SIZE = 256
_secret_keys: OrderedDict = OrderedDict()
_secret_keys_lock = threading.Lock()


def remember_secret_key(suite: SignatureSuite, data: bytes, key) -> None:
    """Keep `key`, the key that PKCS8 `data` encodes, for `signing_key`:
    a caller that already holds the key object (it has just generated it,
    or just validated it from a file) spares `sign` a second decode."""
    with _secret_keys_lock:
        _secret_keys[(suite, data)] = key
        _secret_keys.move_to_end((suite, data))
        while len(_secret_keys) > SECRET_KEY_CACHE_SIZE:
            _secret_keys.popitem(last=False)


def signing_key(suite: SignatureSuite, data: bytes):
    """The key object for PKCS8 `data`: from the cache, or else decoded by
    `load_secret_key` with full validation and then cached. A failed decode
    raises on every call, since nothing is stored for it."""
    with _secret_keys_lock:
        key = _secret_keys.get((suite, data))
        if key is not None:
            _secret_keys.move_to_end((suite, data))
            return key
    # decoded outside the lock: the RSA key check takes tens of milliseconds
    key = load_secret_key(suite, data)
    remember_secret_key(suite, data, key)
    return key


# Each suite's signature algorithm: the arguments after the content that its
# key objects' sign and verify take. Kept off SignatureSuite, which configs
# pickle, since these are `cryptography` objects.
_SIGNATURE_ARGS = {
    # deterministic nonces (RFC 6979): reproducible and misuse-resistant;
    # verification accepts any nonce
    SignatureSuite.ECDSA_SECP256R1_SHA256: (
        ec.ECDSA(hashes.SHA256(), deterministic_signing=True),),
    SignatureSuite.RSA_PSS_RSAE_SHA256: (
        padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=hashes.SHA256.digest_size),
        hashes.SHA256()),
    SignatureSuite.ED25519: (),
}


def sign(suite: SignatureSuite, secret_key: bytes, content: bytes) -> bytes:
    return signing_key(suite, secret_key).sign(content, *_SIGNATURE_ARGS[suite])


def verify(suite: SignatureSuite, public_key: bytes, content: bytes,
           signature: bytes) -> bool:
    """True iff `signature` is valid. Malformed keys raise KeyDecodeError
    rather than verifying as False."""
    key = load_public_key(suite, public_key)
    try:
        key.verify(signature, content, *_SIGNATURE_ARGS[suite])
        return True
    except (InvalidSignature, ValueError):
        # ValueError: e.g. garbage DER in an ECDSA signature
        return False


# ---------------------------------------------------------------------------
# Ephemeral key exchange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class X25519KeyPair:
    """One handshake's ephemeral key. `private` is the decoded key that
    `generate_x25519` already built; a pair made from bytes alone (as in
    the RFC 7748/8448 vectors) decodes `secret_key` when it exchanges."""

    secret_key: bytes
    public_key: bytes
    private: x25519.X25519PrivateKey | None = field(default=None, compare=False, repr=False)


def generate_x25519(rng: Rng = SYSTEM_RNG) -> X25519KeyPair:
    secret = rng.bytes(32)
    key = x25519.X25519PrivateKey.from_private_bytes(secret)
    return X25519KeyPair(secret, key.public_key().public_bytes_raw(), key)


def ecdhe_exchange(local: X25519KeyPair, peer_public: bytes) -> bytes:
    """x25519 shared secret; rejects the all-zero result."""
    if len(peer_public) != 32:
        raise KeyDecodeError("x25519 public key must be 32 bytes")
    key = local.private
    if key is None:
        key = x25519.X25519PrivateKey.from_private_bytes(local.secret_key)
    try:
        shared = key.exchange(x25519.X25519PublicKey.from_public_bytes(peer_public))
    except ValueError as exc:
        raise ContributoryBehaviourError(str(exc)) from exc
    if shared == bytes(32):
        raise ContributoryBehaviourError("all-zero shared secret")
    return shared


# ---------------------------------------------------------------------------
# Record protection suites
# ---------------------------------------------------------------------------

class CipherSuite(enum.Enum):
    """One record suite per row: its code point (the value), its hash, and
    the hash, AEAD key and IV lengths (RFC 8446 sections B.4 and 5.3)."""

    TLS_AES_256_GCM_SHA384 = (0x1302, "sha384", 48, 32, 12)
    TLS_AES_128_GCM_SHA256 = (0x1301, "sha256", 32, 16, 12)

    def __new__(cls, code: int, hash_name: str, hash_len: int, key_len: int, iv_len: int):
        cipher = object.__new__(cls)
        cipher._value_ = cipher.code = code
        cipher.hash_name = hash_name
        cipher.hash_len = hash_len
        cipher.key_len = key_len
        cipher.iv_len = iv_len
        return cipher

    def hash(self, data: bytes = b"") -> "hashlib._Hash":
        return hashlib.new(self.hash_name, data)

    def transcript_hash(self, data: bytes) -> bytes:
        return self.hash(data).digest()


MANDATORY_CIPHER_SUITE = CipherSuite.TLS_AES_256_GCM_SHA384


# ---------------------------------------------------------------------------
# HKDF and the RFC 8446 section 7.1 schedule
# ---------------------------------------------------------------------------

def hkdf_extract(cipher: CipherSuite, salt: bytes, ikm: bytes) -> bytes:
    return hmac_mod.new(salt, ikm, cipher.hash_name).digest()


def hkdf_expand_label(cipher: CipherSuite, secret: bytes, label: bytes,
                      context: bytes, length: int) -> bytes:
    full = b"tls13 " + label
    info = (length.to_bytes(2, "big") + bytes([len(full)]) + full
            + bytes([len(context)]) + context)
    out = b""
    block = b""
    counter = 1
    while len(out) < length:
        block = hmac_mod.new(secret, block + info + bytes([counter]), cipher.hash_name).digest()
        out += block
        counter += 1
    return out[:length]


def derive_secret(cipher: CipherSuite, secret: bytes, label: bytes,
                  transcript_hash: bytes) -> bytes:
    """RFC 8446 section 7.1 Derive-Secret, given Transcript-Hash(Messages)."""
    return hkdf_expand_label(cipher, secret, label, transcript_hash, cipher.hash_len)


@dataclass(frozen=True)
class SessionKeys:
    """Traffic secrets both endpoints must agree on byte for byte."""

    handshake_secret_client: bytes
    handshake_secret_server: bytes
    app_secret_client: bytes
    app_secret_server: bytes
    negotiated_aead: CipherSuite


def _schedule_constants(cipher: CipherSuite) -> tuple[bytes, bytes, bytes]:
    """(early secret, Derive-Secret(early secret, "derived", ""), Hash(""))
    without a PSK: the same in every handshake under `cipher`."""
    zeros = bytes(cipher.hash_len)
    early = hkdf_extract(cipher, zeros, zeros)
    empty = cipher.transcript_hash(b"")
    return early, derive_secret(cipher, early, b"derived", empty), empty


_SCHEDULE_CONSTANTS = {cipher: _schedule_constants(cipher) for cipher in CipherSuite}


class KeySchedule:
    """Incremental key-schedule ladder: early -> handshake -> master."""

    def __init__(self, cipher: CipherSuite):
        self.cipher = cipher
        self.early_secret, self._early_derived, self._empty_hash = _SCHEDULE_CONSTANTS[cipher]
        self.handshake_secret: bytes | None = None
        self.master_secret: bytes | None = None

    def inject_ecdhe(self, shared_secret: bytes) -> None:
        self.handshake_secret = hkdf_extract(self.cipher, self._early_derived, shared_secret)
        derived2 = derive_secret(self.cipher, self.handshake_secret, b"derived",
                                 self._empty_hash)
        self.master_secret = hkdf_extract(self.cipher, derived2, bytes(self.cipher.hash_len))

    def handshake_traffic_secrets(self, transcript_hash: bytes) -> tuple[bytes, bytes]:
        """(client, server) secrets over the hash of the transcript through
        ServerHello."""
        return self._traffic_secrets(self.handshake_secret, b"hs traffic", transcript_hash)

    def app_traffic_secrets(self, transcript_hash: bytes) -> tuple[bytes, bytes]:
        """(client, server) secrets over the hash of the transcript through
        the server Finished."""
        return self._traffic_secrets(self.master_secret, b"ap traffic", transcript_hash)

    def _traffic_secrets(self, secret: bytes | None, label: bytes,
                         transcript_hash: bytes) -> tuple[bytes, bytes]:
        if secret is None:
            raise CryptoError("traffic secrets need the ECDHE input first")
        return (derive_secret(self.cipher, secret, b"c " + label, transcript_hash),
                derive_secret(self.cipher, secret, b"s " + label, transcript_hash))


def traffic_keys(cipher: CipherSuite, secret: bytes) -> tuple[bytes, bytes]:
    """(AEAD key, static IV) for one traffic secret."""
    key = hkdf_expand_label(cipher, secret, b"key", b"", cipher.key_len)
    iv = hkdf_expand_label(cipher, secret, b"iv", b"", cipher.iv_len)
    return key, iv


def aead(key: bytes) -> AESGCM:
    return AESGCM(key)


def finished_mac(cipher: CipherSuite, base_key: bytes, transcript_hash: bytes) -> bytes:
    """RFC 8446 section 4.4.4 verify_data over a traffic secret."""
    finished_key = hkdf_expand_label(cipher, base_key, b"finished", b"", cipher.hash_len)
    return hmac_mod.new(finished_key, transcript_hash, cipher.hash_name).digest()


# ---------------------------------------------------------------------------
# Signed content shared by CertificateVerify and DIDVerify
# ---------------------------------------------------------------------------

CONTEXT_STRINGS = {
    ("server", "certificate_verify"): b"TLS 1.3, server CertificateVerify",
    ("client", "certificate_verify"): b"TLS 1.3, client CertificateVerify",
    ("server", "did_verify"): b"TLS 1.3, server DIDVerify",
    ("client", "did_verify"): b"TLS 1.3, client DIDVerify",
}


def build_signed_content(role: str, purpose: str, transcript_hash: bytes) -> bytes:
    """64 x 0x20, context string, 0x00 separator, then the transcript hash."""
    try:
        context = CONTEXT_STRINGS[(role, purpose)]
    except KeyError:
        raise CryptoError(f"no signed-content context for {role}/{purpose}")
    return b"\x20" * 64 + context + b"\x00" + transcript_hash
