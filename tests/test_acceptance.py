"""Acceptance suite. Each test enforces one release criterion at its stated
tolerance and prints a single PASS/FAIL line.

    C1  conformance matrix: 9 flows x 3 suites, identical keys + echo, < 2 min
    C2  byte accounting: exact public-key-object budgets, total ordering
    C3  resolution MITM dichotomy: 20/20 per suite per channel mode
    C4  authentication soundness: 5 mutation classes, 0 false accepts / 100
    C5  model fidelity: every SSI/hybrid cell within 15%; hybrid symmetry
    C6  latency orderings: X.509 fastest; DID <= VC under ed25519
    C7  revocation: deactivated DIDs abort either mode, either role
    C8  codec robustness: 1M-iteration mutation fuzz, no crashes
"""

import contextlib
import dataclasses
import random
import time

import pytest

from ssitls import handshake, messages, perfmodel
from ssitls.certs import make_chain
from ssitls.crypto import SignatureSuite, generate_keypair
from ssitls.handshake import (
    BadIdentity,
    BadSignature,
    FinishedMismatch,
    Flow,
    Mode,
)
from ssitls.identity import did_deactivate, multibase_decode, multibase_encode
from ssitls.ledger import LedgerNode
from ssitls.messages import HandshakeType
from ssitls.mitm import mitm_resolution_attack
from ssitls.provision import build_universe

from test_handshake import pair_results, assert_flow


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE C{number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE C{number} {name}: PASS")


# ---------------------------------------------------------------------------
# C1: conformance matrix
# ---------------------------------------------------------------------------

FLOW_CELLS = [
    ("x509-uni", Mode.X509, {}, Flow.ORIGINAL),
    ("x509-mut", Mode.X509,
     {"request_client_auth": True, "client_auth_mode": "x509"}, Flow.ORIGINAL),
    ("vc-uni", Mode.VC, {}, Flow.SSI_VC),
    ("vc-mut", Mode.VC, {"request_client_auth": True}, Flow.SSI_VC),
    ("did-uni", Mode.DID, {}, Flow.SSI_DID),
    ("did-mut", Mode.DID, {"request_client_auth": True}, Flow.SSI_DID),
    ("hybrid-2a", Mode.VC,
     {"request_client_auth": True, "client_auth_mode": "x509"},
     Flow.HYBRID_CLIENT_X509),
    ("hybrid-2b", Mode.VC_PEER_X509, {"request_client_auth": True},
     Flow.HYBRID_SERVER_X509),
]


def _run_fallback_causes(u) -> None:
    from ssitls.identity import Did
    no_ssi = dataclasses.replace(u.server_config(), ssi_identity=None)
    client, server = pair_results(u.client_config(Mode.VC), no_ssi)
    assert_flow(client, server, Flow.FALLBACK)
    foreign = dataclasses.replace(u.server_ssi,
                                  did=Did.parse("did:iota:" + "d" * 64))
    off_method = dataclasses.replace(u.server_config(), ssi_identity=foreign)
    client, server = pair_results(u.client_config(Mode.VC), off_method)
    assert_flow(client, server, Flow.FALLBACK)


def test_c1_conformance_matrix(universes):
    with criterion(1, "conformance matrix 9 flows x 3 suites"):
        started = time.monotonic()
        green = 0
        for suite, u in universes.items():
            for _name, mode, server_kw, flow in FLOW_CELLS:
                client, server = pair_results(u.client_config(mode),
                                              u.server_config(**server_kw))
                assert_flow(client, server, flow)
                green += 1
            _run_fallback_causes(u)
            green += 1
        elapsed = time.monotonic() - started
        assert green == 27
        assert elapsed < 120.0, f"matrix took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# C2: byte accounting
# ---------------------------------------------------------------------------

PK_OBJECT_BUDGETS = {
    (Mode.X509, SignatureSuite.ED25519): 256,
    (Mode.X509, SignatureSuite.ECDSA_SECP256R1_SHA256): 276,
    (Mode.X509, SignatureSuite.RSA_PSS_RSAE_SHA256): 1312,
    (Mode.VC, SignatureSuite.ED25519): 128,
    (Mode.VC, SignatureSuite.ECDSA_SECP256R1_SHA256): 140,
    (Mode.VC, SignatureSuite.RSA_PSS_RSAE_SHA256): 512,
    (Mode.DID, SignatureSuite.ED25519): 64,
    (Mode.DID, SignatureSuite.ECDSA_SECP256R1_SHA256): 70,
    (Mode.DID, SignatureSuite.RSA_PSS_RSAE_SHA256): 256,
}


def test_c2_byte_accounting(universes):
    with criterion(2, "public-key-object byte accounting"):
        totals: dict[tuple, int] = {}
        for (mode, suite), expected in PK_OBJECT_BUDGETS.items():
            u = universes[suite]
            client, _server = pair_results(u.client_config(mode), u.server_config())
            acc = client.accounting("server")
            assert acc.pk_object_bytes == expected, \
                f"{mode.value}/{suite.ietf_name}: {acc.pk_object_bytes} != {expected}"
            totals[(mode, suite)] = acc.total_bytes
        # total-bytes ordering, elliptic-curve suites: DID < VC < X.509
        for suite in (SignatureSuite.ED25519, SignatureSuite.ECDSA_SECP256R1_SHA256):
            assert totals[(Mode.DID, suite)] < totals[(Mode.VC, suite)] \
                < totals[(Mode.X509, suite)]


# ---------------------------------------------------------------------------
# C3: MITM dichotomy
# ---------------------------------------------------------------------------

TRIALS_PER_MODE = 20


def test_c3_mitm_dichotomy(universes):
    with criterion(3, "resolution MITM dichotomy 20/20 x 3 suites"):
        for suite, u in universes.items():
            attacker = generate_keypair(suite)
            node_identity, node_root = make_chain(
                SignatureSuite.ECDSA_SECP256R1_SHA256, "ledger.node")
            victim = u.server_ssi.did
            with LedgerNode(u.store, insecure_plaintext=True) as plain_node:
                for _ in range(TRIALS_PER_MODE):
                    outcome = mitm_resolution_attack(
                        attacker, victim, plain_node.address, node_root,
                        plaintext_resolution=True, trust_store=u.trust_store)
                    assert outcome.impersonation_accepted, \
                        f"{suite.ietf_name}: plaintext attack failed"
            with LedgerNode(u.store, node_identity) as tls_node:
                for _ in range(TRIALS_PER_MODE):
                    outcome = mitm_resolution_attack(
                        attacker, victim, tls_node.address, node_root,
                        plaintext_resolution=False, trust_store=u.trust_store)
                    assert not outcome.impersonation_accepted, \
                        f"{suite.ietf_name}: authenticated attack accepted"


# ---------------------------------------------------------------------------
# C4: authentication soundness
# ---------------------------------------------------------------------------

SOAK_TRIALS = 100


def _sig_flipper(target: HandshakeType, rand: random.Random):
    def tamper(msg_type: int, raw: bytes) -> bytes:
        if msg_type != int(target):
            return raw
        out = bytearray(raw)
        out[rand.randrange(8, len(out))] ^= 1 << rand.randrange(8)
        return bytes(out)
    return tamper


def _finished_flipper(rand: random.Random):
    def tamper(msg_type: int, raw: bytes) -> bytes:
        if msg_type != int(HandshakeType.FINISHED):
            return raw
        out = bytearray(raw)
        out[rand.randrange(4, len(out))] ^= 1 << rand.randrange(8)
        return bytes(out)
    return tamper


def _bad_vc_identity(ssi, rand: random.Random):
    proof = ssi.vc.proof
    flipped = bytearray(proof.proof_value)
    flipped[rand.randrange(len(flipped))] ^= 1 << rand.randrange(8)
    bad_vc = dataclasses.replace(
        ssi.vc, proof=dataclasses.replace(proof, proof_value=bytes(flipped)))
    return dataclasses.replace(ssi, vc=bad_vc)


class _KeyFlippingLedger:
    def __init__(self, inner, rand: random.Random):
        self.inner, self.rand = inner, rand

    def get(self, msid):
        record = self.inner.get(msid)
        doc = dict(record.document)
        methods = [dict(m) for m in doc["authentication"]]
        pk = bytearray(multibase_decode(methods[0]["publicKeyMultibase"]))
        pk[self.rand.randrange(len(pk))] ^= 1 << self.rand.randrange(8)
        methods[0]["publicKeyMultibase"] = multibase_encode(bytes(pk))
        doc["authentication"] = methods
        return dataclasses.replace(record, payload={"document": doc})

    def put(self, record):
        self.inner.put(record)


def _capture_verify_message(u, mode: Mode, target: HandshakeType) -> bytes:
    captured: list[bytes] = []

    def capture(msg_type: int, raw: bytes) -> bytes:
        if msg_type == int(target):
            captured.append(raw)
        return raw

    config = u.server_config()
    config.tamper = capture
    client, _server = pair_results(u.client_config(mode), config)
    assert isinstance(client, handshake.HandshakeOutcome)
    return captured[0]


def _soak_combos(u):
    """(label, client mode, server kwargs, tampered side, class, expected)."""
    M = Mode
    combos = []
    for flow, mode, server_kw in (
            ("x509-uni", M.X509, {}),
            ("x509-mut", M.X509, {"request_client_auth": True,
                                  "client_auth_mode": "x509"}),
            ("fallback", M.VC, {"strip_ssi": True})):
        combos.append((flow, mode, server_kw, "server", "cert_verify_sig", BadSignature))
        combos.append((flow, mode, server_kw, "server", "finished", FinishedMismatch))
    combos.append(("x509-mut", M.X509,
                   {"request_client_auth": True, "client_auth_mode": "x509"},
                   "client", "cert_verify_sig", BadSignature))
    combos.append(("x509-mut", M.X509,
                   {"request_client_auth": True, "client_auth_mode": "x509"},
                   "client", "finished", FinishedMismatch))
    for flow, mode, server_kw in (("vc-uni", M.VC, {}),
                                  ("vc-mut", M.VC, {"request_client_auth": True})):
        combos.append((flow, mode, server_kw, "server", "vc_proof", BadIdentity))
        combos.append((flow, mode, server_kw, "server", "did_verify_sig", BadSignature))
        combos.append((flow, mode, server_kw, "server", "finished", FinishedMismatch))
    combos.append(("vc-mut", M.VC, {"request_client_auth": True},
                   "client", "vc_proof", BadIdentity))
    combos.append(("vc-mut", M.VC, {"request_client_auth": True},
                   "client", "did_verify_sig", BadSignature))
    for flow, mode, server_kw in (("did-uni", M.DID, {}),
                                  ("did-mut", M.DID, {"request_client_auth": True})):
        combos.append((flow, mode, server_kw, "server", "did_verify_sig", BadSignature))
        combos.append((flow, mode, server_kw, "server", "finished", FinishedMismatch))
    combos.append(("did-mut", M.DID, {"request_client_auth": True},
                   "client", "did_verify_sig", BadSignature))
    # the ledger answer for the server's DID is corrupted; the client detects
    combos.append(("did-uni", M.DID, {}, "server", "resolved_pk", BadSignature))
    combos.append(("hybrid-2a", M.VC,
                   {"request_client_auth": True, "client_auth_mode": "x509"},
                   "server", "vc_proof", BadIdentity))
    combos.append(("hybrid-2a", M.VC,
                   {"request_client_auth": True, "client_auth_mode": "x509"},
                   "client", "cert_verify_sig", BadSignature))
    combos.append(("hybrid-2b", M.VC_PEER_X509, {"request_client_auth": True},
                   "server", "cert_verify_sig", BadSignature))
    combos.append(("hybrid-2b", M.VC_PEER_X509, {"request_client_auth": True},
                   "client", "vc_proof", BadIdentity))
    combos.append(("hybrid-2b", M.VC_PEER_X509, {"request_client_auth": True},
                   "client", "did_verify_sig", BadSignature))
    # transcript splice/replay: a Verify message captured from session A
    combos.append(("vc-uni", M.VC, {}, "server", "splice_did_verify", BadSignature))
    combos.append(("did-uni", M.DID, {}, "server", "splice_did_verify", BadSignature))
    combos.append(("x509-uni", M.X509, {}, "server", "splice_cert_verify",
                   BadSignature))
    return combos


def test_c4_authentication_soundness(ed_universe):
    with criterion(4, "soundness: 0 false accepts over 100 trials per class"):
        u = ed_universe
        rand = random.Random(0x5EED)
        replayed = {
            "splice_did_verify": {
                Mode.VC: _capture_verify_message(u, Mode.VC, HandshakeType.DID_VERIFY),
                Mode.DID: _capture_verify_message(u, Mode.DID, HandshakeType.DID_VERIFY),
            },
            "splice_cert_verify": _capture_verify_message(
                u, Mode.X509, HandshakeType.CERTIFICATE_VERIFY),
        }
        false_accepts = []
        for label, mode, server_kw, side, mclass, expected in _soak_combos(u):
            server_kw = dict(server_kw)
            strip_ssi = server_kw.pop("strip_ssi", False)
            for trial in range(SOAK_TRIALS):
                client_config = u.client_config(mode)
                server_config = u.server_config(**server_kw)
                if strip_ssi:
                    server_config = dataclasses.replace(server_config,
                                                        ssi_identity=None)
                if mclass == "cert_verify_sig":
                    tamper = _sig_flipper(HandshakeType.CERTIFICATE_VERIFY, rand)
                elif mclass == "did_verify_sig":
                    tamper = _sig_flipper(HandshakeType.DID_VERIFY, rand)
                elif mclass == "finished":
                    tamper = _finished_flipper(rand)
                elif mclass == "vc_proof":
                    tamper = None
                    bad = _bad_vc_identity(
                        (u.server_ssi if side == "server" else u.client_ssi), rand)
                    if side == "server":
                        server_config = dataclasses.replace(server_config,
                                                            ssi_identity=bad)
                    else:
                        client_config = dataclasses.replace(client_config,
                                                            ssi_identity=bad)
                elif mclass == "resolved_pk":
                    tamper = None
                    client_config = dataclasses.replace(
                        client_config, ledger=_KeyFlippingLedger(u.store, rand))
                elif mclass == "splice_did_verify":
                    raw = replayed[mclass][mode]
                    tamper = lambda t, b, raw=raw: \
                        raw if t == int(HandshakeType.DID_VERIFY) else b
                elif mclass == "splice_cert_verify":
                    raw = replayed[mclass]
                    tamper = lambda t, b, raw=raw: \
                        raw if t == int(HandshakeType.CERTIFICATE_VERIFY) else b
                else:  # pragma: no cover
                    raise AssertionError(mclass)
                if tamper is not None:
                    if side == "server":
                        server_config.tamper = tamper
                    else:
                        client_config.tamper = tamper
                client, server = pair_results(client_config, server_config)
                completed = (isinstance(client, handshake.HandshakeOutcome)
                             and isinstance(server, handshake.HandshakeOutcome))
                detector = client if side == "server" else server
                if completed or not isinstance(detector, expected):
                    false_accepts.append((label, mclass, trial, client, server))
                    break
        assert not false_accepts, false_accepts


# ---------------------------------------------------------------------------
# C5 + C6: model fidelity and latency orderings (one shared measurement)
# ---------------------------------------------------------------------------

RUNS_PER_CELL = 200


@pytest.fixture(scope="module")
def measurement():
    return perfmodel.measure(runs=RUNS_PER_CELL, warmup=5, identity_pool=2)


def _explained(report) -> str:
    """The model's inputs and every check, appended to a C5/C6 failure."""
    return "\n\n" + perfmodel.inputs_table_markdown(report) \
        + "\n" + perfmodel.validation_markdown(report)


def test_c5_model_fidelity(measurement):
    with criterion(5, "model fidelity within 15% + hybrid symmetry"):
        report = perfmodel.validate(measurement)
        failures = [f"{c.suite}/{c.cell}: {c.relative_error:.1%}"
                    for c in report.checks if not c.passed]
        assert not failures, f"{failures}{_explained(report)}"
        assert len(report.checks) == 3 * len(perfmodel.SSI_CELLS), _explained(report)
        for check in report.checks:
            assert check.measured.n >= RUNS_PER_CELL, _explained(report)
        broken = [s for s in report.symmetry if not s[5]]
        assert not broken, f"{broken}{_explained(report)}"


def test_c6_latency_orderings(measurement):
    with criterion(6, "X.509 fastest per suite; DID <= VC under ed25519"):
        report = perfmodel.validate(measurement)
        violated = [(suite, label) for suite, label, ok in report.ordering if not ok]
        assert not violated, f"{violated}{_explained(report)}"
        labels = {label for _suite, label, _ok in report.ordering}
        assert "did <= vc" in labels, _explained(report)  # the ed25519 comparison ran


# ---------------------------------------------------------------------------
# C7: revocation semantics
# ---------------------------------------------------------------------------

def test_c7_revocation_end_to_end():
    with criterion(7, "deactivated DID aborts every flow it appears in"):
        from ssitls.handshake import RevokedIdentity
        # server-side identity, both modes
        for mode in (Mode.DID, Mode.VC):
            u = build_universe(SignatureSuite.ED25519)
            did_deactivate(u.store, u.server_ssi.did, u.server_ssi.keys)
            client, _server = pair_results(u.client_config(mode), u.server_config())
            assert isinstance(client, RevokedIdentity)
        # client-side identity, both modes, mutual flows
        for mode in (Mode.DID, Mode.VC):
            u = build_universe(SignatureSuite.ED25519)
            did_deactivate(u.store, u.client_ssi.did, u.client_ssi.keys)
            _client, server = pair_results(
                u.client_config(mode), u.server_config(request_client_auth=True))
            assert isinstance(server, RevokedIdentity)


# ---------------------------------------------------------------------------
# C8: codec robustness
# ---------------------------------------------------------------------------

FUZZ_ITERATIONS = 1_000_000


def _fuzz_seeds(universes) -> list[bytes]:
    from test_messages import sample_messages
    seeds = [messages.encode(m) for m in sample_messages()]
    u = universes[SignatureSuite.ED25519]
    client, _server = pair_results(u.client_config(Mode.VC),
                                   u.server_config(request_client_auth=True))
    seeds.extend(e.raw for e in client.transcript.entries)
    client, _server = pair_results(u.client_config(Mode.X509),
                                   u.server_config(request_client_auth=True,
                                                   client_auth_mode="x509"))
    seeds.extend(e.raw for e in client.transcript.entries)
    return seeds


def test_c8_codec_fuzz(universes):
    with criterion(8, "1M-iteration decode fuzz, zero crashes"):
        seeds = _fuzz_seeds(universes)
        rand = random.Random(0xFADE)
        decode_prefix = messages.decode_prefix
        encode = messages.encode
        DecodeError = messages.DecodeError
        choice, randrange = rand.choice, rand.randrange
        decoded = errored = 0
        for i in range(FUZZ_ITERATIONS):
            seed = choice(seeds)
            data = bytearray(seed)
            op = randrange(20)
            if op < 18:
                for _ in range(1 + (op & 1)):
                    data[randrange(len(data))] ^= 1 << randrange(8)
            elif op == 18:
                del data[randrange(1, len(data)):]
            else:
                data += bytes([randrange(256)]) * randrange(1, 8)
            blob = bytes(data)
            try:
                msg, consumed = decode_prefix(blob)
            except DecodeError:
                errored += 1
                continue
            decoded += 1
            assert encode(msg) == blob[:consumed], \
                f"re-encode mismatch at iteration {i}"
        assert decoded + errored == FUZZ_ITERATIONS
        assert decoded > 0 and errored > 0  # the corpus exercises both paths
