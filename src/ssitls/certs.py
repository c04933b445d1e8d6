"""X.509 helpers: build and validate linear three-link chains.

Chains are kept deliberately simple: root CA -> intermediate CA -> leaf,
leaf first on the wire with the root excluded. Validation walks the links in
order, so no general path building is attempted.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass

from cryptography import x509
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa

from .crypto import (CryptoError, KeyPair, Rng, SYSTEM_RNG, SignatureSuite, encode_public_key,
                     generate_keypair, signing_key, suite_of_key)


class CertificateError(Exception):
    pass


@dataclass(frozen=True)
class X509Identity:
    """Wire chain (leaf first, root excluded) plus the leaf signing keys."""

    chain: tuple[bytes, ...]  # DER certificates
    keys: KeyPair


def _hash_for(suite: SignatureSuite):
    # ed25519 signs with its internal hash; the others use SHA-256
    return None if suite is SignatureSuite.ED25519 else hashes.SHA256()


def _name(common_name: str, org: str = "SSI TLS Testbed") -> x509.Name:
    return x509.Name([
        x509.NameAttribute(x509.NameOID.ORGANIZATION_NAME, org),
        x509.NameAttribute(x509.NameOID.COMMON_NAME, common_name),
    ])


def make_chain(suite: SignatureSuite, subject: str, rng: Rng = SYSTEM_RNG,
               valid_days: int = 365) -> tuple[X509Identity, bytes]:
    """Three-link chain for `subject` with the usual production extension
    profile (key identifiers, key-usage bits, SAN on the leaf); returns
    (identity, root DER).

    All three certificates use the same signature suite. RSA certificates
    are signed PKCS#1 v1.5 as is conventional for the X.509 layer; the PSS
    scheme applies only to handshake signatures.
    """
    now = datetime.datetime.now(datetime.timezone.utc) - datetime.timedelta(minutes=5)
    until = now + datetime.timedelta(days=valid_days)

    root_keys = generate_keypair(suite, rng)
    inter_keys = generate_keypair(suite, rng)
    leaf_keys = generate_keypair(suite, rng)

    ca_usage = x509.KeyUsage(digital_signature=False, content_commitment=False,
                             key_encipherment=False, data_encipherment=False,
                             key_agreement=False, key_cert_sign=True,
                             crl_sign=True, encipher_only=False,
                             decipher_only=False)
    leaf_usage = x509.KeyUsage(digital_signature=True, content_commitment=False,
                               key_encipherment=False, data_encipherment=False,
                               key_agreement=False, key_cert_sign=False,
                               crl_sign=False, encipher_only=False,
                               decipher_only=False)

    def build(subject_name, pub, issuer_name, issuer_pub, ca, pathlen):
        builder = (x509.CertificateBuilder()
                   .subject_name(subject_name)
                   .issuer_name(issuer_name)
                   .public_key(pub)
                   .serial_number(x509.random_serial_number())
                   .not_valid_before(now)
                   .not_valid_after(until)
                   .add_extension(x509.BasicConstraints(ca=ca, path_length=pathlen),
                                  critical=True)
                   .add_extension(ca_usage if ca else leaf_usage, critical=True)
                   .add_extension(x509.SubjectKeyIdentifier.from_public_key(pub),
                                  critical=False)
                   .add_extension(
                       x509.AuthorityKeyIdentifier.from_issuer_public_key(issuer_pub),
                       critical=False))
        if not ca:
            builder = builder.add_extension(
                x509.ExtendedKeyUsage([x509.ExtendedKeyUsageOID.SERVER_AUTH,
                                       x509.ExtendedKeyUsageOID.CLIENT_AUTH]),
                critical=False,
            ).add_extension(x509.SubjectAlternativeName([x509.DNSName(subject)]),
                            critical=False)
        return builder

    root_name = _name(f"{subject} root ca")
    inter_name = _name(f"{subject} intermediate ca")
    leaf_name = _name(subject)

    root_priv, inter_priv, leaf_priv = (signing_key(k.suite, k.secret_key)
                                        for k in (root_keys, inter_keys, leaf_keys))

    root = build(root_name, root_priv.public_key(), root_name,
                 root_priv.public_key(), True, 1).sign(root_priv, _hash_for(suite))
    inter = build(inter_name, inter_priv.public_key(), root_name,
                  root_priv.public_key(), True, 0).sign(root_priv, _hash_for(suite))
    leaf = build(leaf_name, leaf_priv.public_key(), inter_name,
                 inter_priv.public_key(), False, None).sign(inter_priv,
                                                            _hash_for(suite))

    der = lambda c: c.public_bytes(serialization.Encoding.DER)
    identity = X509Identity(chain=(der(leaf), der(inter)), keys=leaf_keys)
    return identity, der(root)


# Parsed certificates kept per process; one entry per DER encoding.
CERTIFICATE_CACHE_SIZE = 256
# Trusted-root indexes kept per process; one entry per root set.
ROOT_SET_CACHE_SIZE = 16


@dataclass(frozen=True)
class ParsedCertificate:
    """What validation reads from one certificate, decoded once per DER
    encoding. Nothing here depends on the time or on the other links, so
    every check that does still runs on each `verify_chain` call."""

    cert: x509.Certificate
    subject: x509.Name
    issuer: x509.Name
    public_key: object
    is_ca: bool | None  # None when basic constraints are absent
    not_before: datetime.datetime
    not_after: datetime.datetime


@functools.lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def parse_certificate(der: bytes) -> ParsedCertificate:
    """Decode one DER certificate; a failure raises on every call, because
    lru_cache stores no entry for it."""
    try:
        cert = x509.load_der_x509_certificate(der)
        try:
            is_ca = cert.extensions.get_extension_for_class(x509.BasicConstraints).value.ca
        except x509.ExtensionNotFound:
            is_ca = None
        return ParsedCertificate(cert, cert.subject, cert.issuer, cert.public_key(), is_ca,
                                 cert.not_valid_before_utc, cert.not_valid_after_utc)
    except Exception as exc:
        raise CertificateError(f"certificate does not parse: {exc}") from exc


@functools.lru_cache(maxsize=ROOT_SET_CACHE_SIZE)
def _root_index(roots_der: tuple[bytes, ...]) -> dict[x509.Name, tuple[ParsedCertificate, ...]]:
    """Trusted roots by subject name; same-name roots share one entry."""
    index: dict[x509.Name, tuple[ParsedCertificate, ...]] = {}
    for der in roots_der:
        root = parse_certificate(der)
        index[root.subject] = index.get(root.subject, ()) + (root,)
    return index


def _verify_issued_by(cert: ParsedCertificate, issuer: ParsedCertificate) -> None:
    if cert.issuer != issuer.subject:
        raise CertificateError("issuer name mismatch")
    pub = issuer.public_key
    raw = cert.cert
    try:
        if isinstance(pub, ed25519.Ed25519PublicKey):
            pub.verify(raw.signature, raw.tbs_certificate_bytes)
        elif isinstance(pub, ec.EllipticCurvePublicKey):
            pub.verify(raw.signature, raw.tbs_certificate_bytes,
                       ec.ECDSA(raw.signature_hash_algorithm))
        elif isinstance(pub, rsa.RSAPublicKey):
            pub.verify(raw.signature, raw.tbs_certificate_bytes,
                       padding.PKCS1v15(), raw.signature_hash_algorithm)
        else:
            raise CertificateError(f"unsupported issuer key type {type(pub).__name__}")
    except InvalidSignature:
        raise CertificateError("certificate signature invalid")


def verify_chain(chain_der: list[bytes], roots_der: list[bytes],
                 at: datetime.datetime | None = None) -> x509.Certificate:
    """Validate a leaf-first chain against trusted roots; returns the leaf.

    Checks per link: signature by the next certificate, validity window,
    CA basic constraints on issuing certificates, and that the last link is
    signed by a trusted root. Certificates are parsed once per process
    (`parse_certificate`) and the roots indexed once per root set; every
    check and every signature runs on each call.
    """
    if not chain_der:
        raise CertificateError("empty certificate chain")
    if at is None:
        at = datetime.datetime.now(datetime.timezone.utc)
    chain = [parse_certificate(der) for der in chain_der]
    roots = _root_index(tuple(roots_der))

    for cert in chain:
        if not (cert.not_before <= at <= cert.not_after):
            raise CertificateError(f"certificate outside validity window: {cert.subject}")

    for cert, issuer in zip(chain, chain[1:]):
        _basic_ca_check(issuer)
        _verify_issued_by(cert, issuer)

    # several trusted roots may share a name; any one that signed the last
    # link terminates the chain
    last = chain[-1]
    failure = CertificateError("chain does not terminate at a trusted root")
    for root in roots.get(last.issuer, ()):
        try:
            _basic_ca_check(root)
            _verify_issued_by(last, root)
        except CertificateError as exc:
            failure = exc
            continue
        return chain[0].cert
    raise failure


def _basic_ca_check(cert: ParsedCertificate) -> None:
    if cert.is_ca is None:
        raise CertificateError(f"issuing certificate lacks basic constraints: {cert.subject}")
    if not cert.is_ca:
        raise CertificateError(f"issuing certificate is not a CA: {cert.subject}")


def leaf_key(leaf_der: bytes) -> tuple[SignatureSuite, bytes]:
    """Signature suite implied by the leaf's key type, and the key in the
    suite's wire form."""
    pub = parse_certificate(leaf_der).public_key
    try:
        suite = suite_of_key(pub)
    except CryptoError as exc:
        raise CertificateError(f"unsupported leaf key: {exc}") from None
    return suite, encode_public_key(suite, pub)


def leaf_suite(leaf_der: bytes) -> SignatureSuite:
    """Signature suite implied by the leaf's key type."""
    return leaf_key(leaf_der)[0]


def leaf_public_key_bytes(leaf_der: bytes) -> bytes:
    return leaf_key(leaf_der)[1]
