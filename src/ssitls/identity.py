"""DID, DID Document and Verifiable Credential model plus the DID method
operations (create / resolve / update / deactivate) against a ledger client.

Wire and storage form for documents and credentials is canonical JSON:
UTF-8, sorted keys, no insignificant whitespace. Signatures over credentials
and ledger records are computed on exactly those canonical bytes.
"""

from __future__ import annotations

import datetime
import enum
import functools
import json
import re
from dataclasses import dataclass, field, replace

from .crypto import (
    KeyPair,
    Rng,
    SignatureSuite,
    SYSTEM_RNG,
    generate_keypair,
    load_public_key,
    sign,
    verify,
)

W3C_DID_CONTEXT = "https://www.w3.org/ns/did/v1"
W3C_VC_CONTEXT = "https://www.w3.org/2018/credentials/v1"


class IdentityError(Exception):
    pass


class DidParseError(IdentityError):
    pass


class DocumentError(IdentityError):
    """DID document violates a structural invariant."""


class DidResolutionError(IdentityError):
    """Resolution failed (transport, ledger channel, or store error)."""


class UnsupportedDidMethod(DidResolutionError):
    pass


class DidNotFound(DidResolutionError):
    pass


class ControlError(IdentityError):
    """Caller does not control the key required for the ledger operation."""


# ---------------------------------------------------------------------------
# Canonical JSON and multibase
# ---------------------------------------------------------------------------

def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}


def base58btc_encode(data: bytes) -> str:
    num = int.from_bytes(data, "big")
    out = ""
    while num:
        num, rem = divmod(num, 58)
        out = _B58_ALPHABET[rem] + out
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + out


def base58btc_decode(text: str) -> bytes:
    num = 0
    for ch in text:
        if ch not in _B58_INDEX:
            raise IdentityError(f"invalid base58 character {ch!r}")
        num = num * 58 + _B58_INDEX[ch]
    raw = num.to_bytes((num.bit_length() + 7) // 8, "big")
    pad = len(text) - len(text.lstrip("1"))
    return b"\x00" * pad + raw


def multibase_encode(data: bytes) -> str:
    return "z" + base58btc_encode(data)


def multibase_decode(text: str) -> bytes:
    if not text.startswith("z"):
        raise IdentityError(f"unsupported multibase prefix in {text[:1]!r}")
    return base58btc_decode(text[1:])


# ---------------------------------------------------------------------------
# DIDs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DidMethodId:
    """One-byte wire code plus method name. Methods outside the registry
    parse with `code=None`: such DIDs are legal values (e.g. inside foreign
    credentials) but cannot be negotiated or resolved here."""

    code: int | None
    name: str


METHOD_IOTA = DidMethodId(0, "iota")
METHOD_BTCR = DidMethodId(1, "btcr")
# in-repo ledger method: 3-letter name keeps the textual DID at 72 bytes
METHOD_LEDGER = DidMethodId(2, "led")

DID_METHODS = {m.code: m for m in (METHOD_IOTA, METHOD_BTCR, METHOD_LEDGER)}
_METHODS_BY_NAME = {m.name: m for m in DID_METHODS.values()}

_DID_RE = re.compile(r"^did:([a-z0-9-]+):([^#\s]+)$")


@dataclass(frozen=True)
class Did:
    method: DidMethodId
    method_specific_id: str

    @property
    def text(self) -> str:
        return f"did:{self.method.name}:{self.method_specific_id}"

    def __str__(self) -> str:
        return self.text

    def with_fragment(self, fragment: str) -> str:
        return f"{self.text}#{fragment}"

    @classmethod
    def parse(cls, text: str) -> "Did":
        m = _DID_RE.match(text)
        if not m:
            raise DidParseError(f"not a DID: {text!r}")
        name, msid = m.group(1), m.group(2)
        method = _METHODS_BY_NAME.get(name, DidMethodId(None, name))
        if not msid:
            raise DidParseError("empty method-specific-id")
        return cls(method, msid)


# ---------------------------------------------------------------------------
# DID documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationMethod:
    id: str
    type: str  # W3C suite name
    controller: Did
    public_key_multibase: str

    # decoded once: by the parse's check, then read by whoever verifies with it
    @functools.cached_property
    def suite(self) -> SignatureSuite:
        return SignatureSuite.from_w3c_name(self.type)

    @functools.cached_property
    def public_key(self) -> bytes:
        return multibase_decode(self.public_key_multibase)


@dataclass(frozen=True)
class DidDocument:
    id: Did
    authentication: tuple[VerificationMethod, ...]
    context: tuple[str, ...] = (W3C_DID_CONTEXT,)

    def authentication_key(self) -> tuple[SignatureSuite, bytes]:
        method = self.authentication[0]
        return method.suite, method.public_key

    def to_json_dict(self) -> dict:
        return {
            "@context": list(self.context),
            "id": self.id.text,
            "authentication": [
                {
                    "id": m.id,
                    "type": m.type,
                    "controller": m.controller.text,
                    "publicKeyMultibase": m.public_key_multibase,
                }
                for m in self.authentication
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DidDocument":
        try:
            did = Did.parse(data["id"])
            methods = []
            for m in data["authentication"]:
                vm = VerificationMethod(
                    id=m["id"],
                    type=m["type"],
                    controller=Did.parse(m["controller"]),
                    public_key_multibase=m["publicKeyMultibase"],
                )
                methods.append(vm)
            context = tuple(data.get("@context", ()))
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"malformed DID document: {exc}") from exc
        if not methods:
            raise DocumentError("DID document lacks an authentication method")
        doc = cls(id=did, authentication=tuple(methods), context=context)
        # decode eagerly so structurally broken keys fail here, not at use
        for m in doc.authentication:
            load_public_key(m.suite, m.public_key)
        return doc


def new_did_document(did: Did, suite: SignatureSuite, public_key: bytes) -> DidDocument:
    method = VerificationMethod(
        id=did.with_fragment("keys-1"),
        type=suite.w3c_name,
        controller=did,
        public_key_multibase=multibase_encode(public_key),
    )
    return DidDocument(id=did, authentication=(method,))


def genesis_bytes(doc: DidDocument) -> bytes:
    """Self-reference-free canonical form; its SHA-256 is the content
    address used as the method-specific-id for the in-repo ledger method."""
    data = doc.to_json_dict()
    data.pop("id", None)
    for m in data.get("authentication", []):
        m.pop("id", None)
        m.pop("controller", None)
    return canonical_json(data)


# ---------------------------------------------------------------------------
# Verifiable credentials
# ---------------------------------------------------------------------------

TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def format_timestamp(t: datetime.datetime) -> str:
    return t.astimezone(datetime.timezone.utc).strftime(TIME_FORMAT)


def parse_timestamp(text: str) -> datetime.datetime:
    try:
        return datetime.datetime.strptime(text, TIME_FORMAT).replace(
            tzinfo=datetime.timezone.utc)
    except ValueError as exc:
        raise IdentityError(f"bad timestamp {text!r}") from exc


@dataclass(frozen=True)
class Proof:
    type: str
    created: datetime.datetime
    proof_purpose: str
    verification_method: str  # DID URL with fragment
    proof_value: bytes

    def to_json_dict(self) -> dict:
        return {
            "type": self.type,
            "created": format_timestamp(self.created),
            "proofPurpose": self.proof_purpose,
            "verificationMethod": self.verification_method,
            "proofValue": multibase_encode(self.proof_value),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Proof":
        return cls(
            type=data["type"],
            created=parse_timestamp(data["created"]),
            proof_purpose=data["proofPurpose"],
            verification_method=data["verificationMethod"],
            proof_value=multibase_decode(data["proofValue"]),
        )


@dataclass(frozen=True)
class VerifiableCredential:
    id: str
    types: tuple[str, ...]
    issuer: Did
    issuance_date: datetime.datetime
    expiration_date: datetime.datetime
    subject_id: Did
    claims: dict[str, str]
    proof: Proof | None = None
    context: tuple[str, ...] = (W3C_VC_CONTEXT,)

    def to_json_dict(self) -> dict:
        subject = {"id": self.subject_id.text}
        subject.update(self.claims)
        data = {
            "@context": list(self.context),
            "id": self.id,
            "type": list(self.types),
            "issuer": self.issuer.text,
            "issuanceDate": format_timestamp(self.issuance_date),
            "expirationDate": format_timestamp(self.expiration_date),
            "credentialSubject": subject,
        }
        if self.proof is not None:
            data["proof"] = self.proof.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerifiableCredential":
        try:
            subject = dict(data["credentialSubject"])
            subject_id = Did.parse(subject.pop("id"))
            proof = Proof.from_json_dict(data["proof"]) if "proof" in data else None
            return cls(
                id=data["id"],
                types=tuple(data["type"]),
                issuer=Did.parse(data["issuer"]),
                issuance_date=parse_timestamp(data["issuanceDate"]),
                expiration_date=parse_timestamp(data["expirationDate"]),
                subject_id=subject_id,
                claims=subject,
                proof=proof,
                context=tuple(data["@context"]),
            )
        except (KeyError, TypeError) as exc:
            raise IdentityError(f"malformed credential: {exc}") from exc

    def signing_bytes(self) -> bytes:
        """Canonical bytes covered by the issuer proof (proof excluded)."""
        data = self.to_json_dict()
        data.pop("proof", None)
        return canonical_json(data)


class VcRejectionReason(enum.Enum):
    SCHEMA = "schema"
    NOT_YET_VALID = "not-yet-valid"
    EXPIRED = "expired"
    UNTRUSTED_ISSUER = "untrusted-issuer"
    BAD_SIGNATURE = "bad-signature"


class VcRejected(IdentityError):
    def __init__(self, reason: VcRejectionReason, detail: str = ""):
        super().__init__(f"credential rejected ({reason.value})"
                         + (f": {detail}" if detail else ""))
        self.reason = reason


class VcParseError(IdentityError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at byte {position})")


def vc_issue(issuer_keys: KeyPair, issuer_did: Did, subject_did: Did,
             claims: dict[str, str], valid_from: datetime.datetime,
             valid_until: datetime.datetime, extra_types: tuple[str, ...] = (),
             rng: Rng = SYSTEM_RNG) -> VerifiableCredential:
    if valid_from >= valid_until:
        raise IdentityError("degenerate validity window")
    for k, v in claims.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise IdentityError("claims must map text to text")
    vc = VerifiableCredential(
        id="https://credentials.invalid/" + rng.bytes(16).hex(),
        types=("VerifiableCredential",) + tuple(extra_types),
        issuer=issuer_did,
        issuance_date=valid_from,
        expiration_date=valid_until,
        subject_id=subject_did,
        claims=dict(claims),
    )
    proof = Proof(
        type=issuer_keys.suite.w3c_name,
        created=valid_from,
        proof_purpose="assertionMethod",
        verification_method=issuer_did.with_fragment("keys-1"),
        proof_value=sign(issuer_keys.suite, issuer_keys.secret_key, vc.signing_bytes()),
    )
    return replace(vc, proof=proof)


def vc_verify(vc: VerifiableCredential, trust: "TrustStore",
              now: datetime.datetime) -> Did:
    """Full credential check; returns the subject DID on acceptance.

    Order: structural/schema conformance, then the validity window, then
    issuer trust and proof signature. Raises VcRejected with the reason of
    the first failing check. Subject key possession is deliberately not
    checked here; the handshake proves it separately.
    """
    if W3C_VC_CONTEXT not in vc.context:
        raise VcRejected(VcRejectionReason.SCHEMA, "missing credentials context")
    if "VerifiableCredential" not in vc.types:
        raise VcRejected(VcRejectionReason.SCHEMA, "missing VerifiableCredential type")
    if vc.proof is None:
        raise VcRejected(VcRejectionReason.SCHEMA, "no proof")
    if vc.proof.proof_purpose != "assertionMethod":
        raise VcRejected(VcRejectionReason.SCHEMA,
                         f"unexpected proof purpose {vc.proof.proof_purpose!r}")
    try:
        proof_suite = SignatureSuite.from_w3c_name(vc.proof.type)
    except Exception:
        raise VcRejected(VcRejectionReason.SCHEMA, f"unknown proof type {vc.proof.type!r}")
    if not vc.proof.verification_method.startswith(vc.issuer.text):
        raise VcRejected(VcRejectionReason.SCHEMA, "proof key not controlled by issuer")
    if not all(isinstance(v, str) for v in vc.claims.values()):
        raise VcRejected(VcRejectionReason.SCHEMA, "claims must be text")

    if now < vc.issuance_date:
        raise VcRejected(VcRejectionReason.NOT_YET_VALID)
    if now > vc.expiration_date:
        raise VcRejected(VcRejectionReason.EXPIRED)

    issuer_key = trust.issuer_key(vc.issuer)
    if issuer_key is None:
        raise VcRejected(VcRejectionReason.UNTRUSTED_ISSUER, vc.issuer.text)
    suite, public = issuer_key
    if suite is not proof_suite:
        raise VcRejected(VcRejectionReason.BAD_SIGNATURE, "proof type mismatch")
    if not verify(suite, public, vc.signing_bytes(), vc.proof.proof_value):
        raise VcRejected(VcRejectionReason.BAD_SIGNATURE)
    return vc.subject_id


def vc_serialize(vc: VerifiableCredential) -> bytes:
    return canonical_json(vc.to_json_dict())


def vc_deserialize(data: bytes) -> VerifiableCredential:
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise VcParseError("credential is not UTF-8", exc.start) from exc
    except json.JSONDecodeError as exc:
        raise VcParseError(f"credential is not JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(obj, dict):
        raise VcParseError("credential must be a JSON object")
    try:
        return VerifiableCredential.from_json_dict(obj)
    except IdentityError:
        raise
    except Exception as exc:
        raise VcParseError(f"malformed credential: {exc}") from exc


# ---------------------------------------------------------------------------
# Trust stores
# ---------------------------------------------------------------------------

_ISSUER_PEM_HEADER = "-----BEGIN TRUSTED ISSUER KEY-----"
_ISSUER_PEM_FOOTER = "-----END TRUSTED ISSUER KEY-----"


@dataclass
class TrustStore:
    """Issuer keys for credential proofs plus the flat trusted-DID list."""

    trusted_issuer_keys: dict[str, tuple[SignatureSuite, bytes]] = field(default_factory=dict)
    trusted_dids: set[str] = field(default_factory=set)

    def add_issuer(self, did: Did, suite: SignatureSuite, public_key: bytes) -> None:
        self.trusted_issuer_keys[did.text] = (suite, public_key)

    def issuer_key(self, did: Did) -> tuple[SignatureSuite, bytes] | None:
        return self.trusted_issuer_keys.get(did.text)

    def trust_did(self, did: Did) -> None:
        self.trusted_dids.add(did.text)

    def is_trusted_did(self, did: Did) -> bool:
        return did.text in self.trusted_dids


def save_issuer_key(did: Did, suite: SignatureSuite, public_key: bytes) -> str:
    import base64
    body = base64.b64encode(public_key).decode()
    lines = [body[i:i + 64] for i in range(0, len(body), 64)]
    return "\n".join([_ISSUER_PEM_HEADER,
                      f"Did: {did.text}",
                      f"Suite: {suite.ietf_name}",
                      "",
                      *lines,
                      _ISSUER_PEM_FOOTER, ""])


def load_issuer_key(text: str) -> tuple[Did, SignatureSuite, bytes]:
    import base64
    lines = [l.strip() for l in text.strip().splitlines()]
    if not lines or lines[0] != _ISSUER_PEM_HEADER or lines[-1] != _ISSUER_PEM_FOOTER:
        raise IdentityError("not a trusted-issuer key file")
    did = suite = None
    body: list[str] = []
    for line in lines[1:-1]:
        if line.startswith("Did:"):
            did = Did.parse(line.split(":", 1)[1].strip())
        elif line.startswith("Suite:"):
            suite = SignatureSuite.from_ietf_name(line.split(":", 1)[1].strip())
        elif line:
            body.append(line)
    if did is None or suite is None:
        raise IdentityError("issuer key file missing Did or Suite header")
    return did, suite, base64.b64decode("".join(body))


def load_trust_store(issuer_dir=None, allowlist_path=None) -> TrustStore:
    """Issuer keys from a directory of key files; DIDs from a one-per-line
    allow list (# starts a comment)."""
    from pathlib import Path

    store = TrustStore()
    if issuer_dir is not None:
        for path in sorted(Path(issuer_dir).iterdir()):
            if path.is_file():
                did, suite, pk = load_issuer_key(path.read_text())
                store.add_issuer(did, suite, pk)
    if allowlist_path is not None:
        for line in Path(allowlist_path).read_text().splitlines():
            entry = line.split("#", 1)[0].strip()
            if entry:
                store.trust_did(Did.parse(entry))
    return store


# ---------------------------------------------------------------------------
# DID method operations over a ledger client
# ---------------------------------------------------------------------------

class Revoked:
    """Resolution outcome for a deactivated DID."""

    def __repr__(self) -> str:
        return "REVOKED"


REVOKED = Revoked()


def derive_did(suite: SignatureSuite, public_key: bytes) -> Did:
    """Content-addressed DID for the in-repo ledger method."""
    import hashlib

    placeholder = Did(METHOD_LEDGER, "0" * 64)
    draft = new_did_document(placeholder, suite, public_key)
    msid = hashlib.sha256(genesis_bytes(draft)).hexdigest()
    return Did(METHOD_LEDGER, msid)


def did_create(ledger, suite: SignatureSuite, rng: Rng = SYSTEM_RNG) -> tuple[Did, KeyPair]:
    """Generate identity keys and register them (`did_register`)."""
    keys = generate_keypair(suite, rng)
    return did_register(ledger, keys), keys


def did_register(ledger, keys: KeyPair) -> Did:
    """Content-address the DID document of `keys`, sign it with them and
    store it as the DID's first record."""
    from .ledger import LedgerRecord  # runtime import to keep layering acyclic

    did = derive_did(keys.suite, keys.public_key)
    document = new_did_document(did, keys.suite, keys.public_key)
    record = LedgerRecord.document_record(did.method_specific_id, 0,
                                          document.to_json_dict())
    ledger.put(record.signed(keys))
    return did


def did_resolve(ledger, did: Did) -> DidDocument | Revoked:
    """Latest document for `did`, or REVOKED after deactivation."""
    if did.method != METHOD_LEDGER:
        raise UnsupportedDidMethod(f"cannot resolve method {did.method.name!r}")
    record = ledger.get(did.method_specific_id)
    if record.is_tombstone:
        return REVOKED
    document = DidDocument.from_json_dict(record.document)
    if document.id != did:
        raise DidResolutionError("resolved document does not match the DID")
    return document


def did_update(ledger, did: Did, current_keys: KeyPair, new_keys: KeyPair) -> Did:
    """Rotate to `new_keys`; the record is signed with the outgoing key. The
    read of the latest record and the write share one ledger session, so a
    `LedgerClient` pays one channel for the rotation."""
    from .ledger import LedgerRecord

    with ledger.session() as session:
        latest = session.get(did.method_specific_id)
        if latest.is_tombstone:
            raise ControlError("DID is deactivated")
        document = new_did_document(did, new_keys.suite, new_keys.public_key)
        record = LedgerRecord.document_record(did.method_specific_id,
                                              latest.sequence + 1,
                                              document.to_json_dict())
        session.put(record.signed(current_keys))
    return did

def did_deactivate(ledger, did: Did, current_keys: KeyPair) -> bool:
    """Terminal tombstone; repeated calls acknowledge without a new record.
    The read and the write share one ledger session, as in `did_update`."""
    from .ledger import LedgerRecord

    with ledger.session() as session:
        latest = session.get(did.method_specific_id)
        if latest.is_tombstone:
            return True
        record = LedgerRecord.tombstone_record(did.method_specific_id,
                                               latest.sequence + 1)
        session.put(record.signed(current_keys))
    return True
