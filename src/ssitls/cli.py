"""Operator-facing command line: handshake endpoints, identity tooling, the
ledger daemon, the resolution attack demo, and the benchmark runner.

Endpoint configuration is a flat key=value file (# comments); any value can
be overridden by a flag. Exit codes are stable per failure class so CI can
assert on them (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import datetime
import logging
import os
import socket
import sys
import time
from pathlib import Path

from cryptography.hazmat.primitives import serialization

from . import handshake, identity, mitm, perfmodel
from .certs import X509Identity, make_chain
from .crypto import (CryptoError, DeterministicRng, KeyPair, SignatureSuite, SYSTEM_RNG,
                     encode_public_key, suite_of_key)
from .handshake import EndpointConfig, Flow, HandshakeAbort, Mode, SsiIdentity
from .ledger import LedgerClient, LedgerNode, LedgerStore
from .messages import AuthnMode
from .provision import build_universe

logger = logging.getLogger(__name__)

EXIT_CODES = {
    "ok": 0,
    "error": 1,
    "negotiation_mismatch": 2,
    "bad_identity": 3,
    "bad_signature": 4,
    "revoked_identity": 5,
    "resolution_failure": 6,
    "decode_error": 7,
    "finished_mismatch": 8,
    "transport": 9,
    "peer_alert": 9,
    "record_error": 9,
    "transport_closed": 9,
    "config": 10,
    "expectation": 11,
    "unexpected_message": 12,
    "internal_error": 13,
}

_SUITE_ALIASES = {
    "ed25519": SignatureSuite.ED25519,
    "ecdsa": SignatureSuite.ECDSA_SECP256R1_SHA256,
    "ecdsa_secp256r1_sha256": SignatureSuite.ECDSA_SECP256R1_SHA256,
    "rsa": SignatureSuite.RSA_PSS_RSAE_SHA256,
    "rsa_pss_rsae_sha256": SignatureSuite.RSA_PSS_RSAE_SHA256,
}

_MODES = {
    "x509": Mode.X509,
    "vc": Mode.VC,
    "did": Mode.DID,
    "vc-peer-x509": Mode.VC_PEER_X509,
}


class CliError(Exception):
    pass


def _suite(name: str) -> SignatureSuite:
    try:
        return _SUITE_ALIASES[name.strip().lower()]
    except KeyError:
        raise CliError(f"unknown suite {name!r}; use ed25519 | ecdsa | rsa")


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise CliError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


# ---------------------------------------------------------------------------
# Key / certificate / credential files
# ---------------------------------------------------------------------------

def save_keypair(path: Path, keys: KeyPair) -> None:
    priv = serialization.load_der_private_key(keys.secret_key, None)
    path.write_bytes(priv.private_bytes(serialization.Encoding.PEM,
                                        serialization.PrivateFormat.PKCS8,
                                        serialization.NoEncryption()))


def load_keypair(path: Path) -> KeyPair:
    priv = serialization.load_pem_private_key(path.read_bytes(), None)
    try:
        suite = suite_of_key(priv.public_key())
    except CryptoError as exc:
        raise CliError(f"{path}: {exc}") from None
    secret = priv.private_bytes(serialization.Encoding.DER,
                                serialization.PrivateFormat.PKCS8,
                                serialization.NoEncryption())
    return KeyPair(suite, secret, encode_public_key(suite, priv.public_key()))


def save_pem_chain(path: Path, chain: list[bytes]) -> None:
    from cryptography import x509
    blobs = []
    for der in chain:
        cert = x509.load_der_x509_certificate(der)
        blobs.append(cert.public_bytes(serialization.Encoding.PEM))
    path.write_bytes(b"".join(blobs))


def load_pem_chain(path: Path) -> list[bytes]:
    from cryptography import x509
    pem = path.read_bytes()
    certs = x509.load_pem_x509_certificates(pem)
    return [c.public_bytes(serialization.Encoding.DER) for c in certs]


# ---------------------------------------------------------------------------
# Endpoint config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "mode", "suite", "x509_chain", "x509_key", "x509_roots", "did", "did_key",
    "vc", "methods", "ledger", "ledger_root", "ledger_insecure",
    "trusted_issuer_dir", "trusted_dids", "request_client_auth",
    "client_auth_mode", "ssi_request_mode", "seed",
}


def parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _bool(value: str) -> bool:
    return value.lower() in ("1", "true", "yes", "on")


def build_endpoint_config(values: dict[str, str], base: Path) -> EndpointConfig:
    def path_of(key: str) -> Path | None:
        if key not in values or not values[key]:
            return None
        p = Path(values[key])
        return p if p.is_absolute() else base / p

    x509_identity = None
    chain_path, key_path = path_of("x509_chain"), path_of("x509_key")
    if chain_path and key_path:
        x509_identity = X509Identity(tuple(load_pem_chain(chain_path)),
                                     load_keypair(key_path))

    ssi_identity = None
    did_path, did_key_path = path_of("did"), path_of("did_key")
    if did_path and did_key_path:
        did = identity.Did.parse(did_path.read_text().strip())
        keys = load_keypair(did_key_path)
        vc = None
        vc_path = path_of("vc")
        if vc_path:
            vc = identity.vc_deserialize(vc_path.read_bytes())
        ssi_identity = SsiIdentity(did, keys, vc)

    ledger_client = None
    if values.get("ledger"):
        insecure = _bool(values.get("ledger_insecure", "false"))
        root = None
        root_path = path_of("ledger_root")
        if root_path:
            root = load_pem_chain(root_path)[0]
        ledger_client = LedgerClient(*_host_port(values["ledger"]),
                                     trust_anchor=root,
                                     insecure_plaintext=insecure)

    trust = identity.load_trust_store(
        issuer_dir=path_of("trusted_issuer_dir"),
        allowlist_path=path_of("trusted_dids"))

    roots: tuple[bytes, ...] = ()
    roots_path = path_of("x509_roots")
    if roots_path:
        roots = tuple(load_pem_chain(roots_path))

    methods = ()
    if values.get("methods"):
        methods = tuple(int(m) for m in values["methods"].split(","))

    rng = SYSTEM_RNG
    if values.get("seed"):
        rng = DeterministicRng(int(values["seed"]))

    mode = _MODES.get(values.get("mode", "x509"))
    if mode is None:
        raise CliError(f"unknown mode {values.get('mode')!r}")
    ssi_request_mode = {"vc": AuthnMode.VC, "did": AuthnMode.DID}.get(
        values.get("ssi_request_mode", "vc"))
    if ssi_request_mode is None:
        raise CliError("ssi_request_mode must be vc or did")

    return EndpointConfig(
        preferred_mode=mode,
        x509_identity=x509_identity,
        ssi_identity=ssi_identity,
        supported_methods=methods,
        trust_store=trust,
        x509_roots=roots,
        ledger=ledger_client,
        request_client_auth=_bool(values.get("request_client_auth", "false")),
        client_auth_mode=values.get("client_auth_mode", "ssi"),
        ssi_request_mode=ssi_request_mode,
        rng=rng,
    )


def _load_config(args) -> EndpointConfig:
    values = parse_config_file(Path(args.config)) if args.config else {}
    for override in args.set or []:
        key, _, value = override.partition("=")
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
        values[key.strip()] = value.strip()
    base = Path(args.config).parent if args.config else Path.cwd()
    return build_endpoint_config(values, base)


# ---------------------------------------------------------------------------
# Outcome reporting
# ---------------------------------------------------------------------------

def print_outcome(outcome: handshake.HandshakeOutcome, own_role: str) -> None:
    print(f"flow: {outcome.flow.value}")
    peer = outcome.peer
    if peer.kind == "x509":
        print(f"peer: x509 {peer.x509_subject}")
    elif peer.kind == "did":
        print(f"peer: {peer.did.text}")
        for key, value in sorted(peer.claims.items()):
            print(f"claim: {key} = {value}")
    else:
        print("peer: anonymous")
    for role in ("client", "server"):
        acc = outcome.accounting(role)
        print(f"bytes {role}: total={acc.total_bytes}"
              f" pk_objects={acc.pk_object_bytes}")


def _abort_exit(exc: Exception) -> int:
    """Exit code of a failed connection: a HandshakeAbort's kind, or a
    transport failure for an OSError."""
    kind = "transport" if isinstance(exc, OSError) else getattr(exc, "kind", "error")
    return EXIT_CODES.get(kind, EXIT_CODES["error"])


def _check_flow(outcome, expect_flow: str | None) -> int:
    if expect_flow and outcome.flow.value != expect_flow:
        print(f"expected flow {expect_flow}, negotiated {outcome.flow.value}",
              file=sys.stderr)
        return EXIT_CODES["expectation"]
    return EXIT_CODES["ok"]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_server(args) -> int:
    config = _load_config(args)
    results: list[int] = []

    def handler(outcome: handshake.HandshakeOutcome) -> None:
        if args.print_outcome:
            print_outcome(outcome, "server")
        results.append(_check_flow(outcome, args.expect_flow))
        handshake.echo_handler(outcome)

    host, port = _host_port(args.bind)
    server = handshake.HandshakeServer(config, host, port, handler=handler)
    with server:
        print(f"listening on {server.address[0]}:{server.address[1]}", flush=True)
        if args.once:
            while not results and not server.errors:
                time.sleep(0.05)
        else:
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                pass
    if server.errors and not results:
        return _abort_exit(server.errors[0])
    return results[0] if results else EXIT_CODES["error"]


def cmd_client(args) -> int:
    config = _load_config(args)
    host, port = _host_port(args.connect)
    sock = socket.create_connection((host, port), timeout=15.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        outcome = handshake.run_client(config, sock)
        payload = args.payload.encode()
        outcome.session.send(payload)
        echoed = outcome.session.recv()
        if echoed != payload:
            print("echo mismatch", file=sys.stderr)
            return EXIT_CODES["error"]
        if args.print_outcome:
            print_outcome(outcome, "client")
        print(f"echo ok ({len(payload)} bytes)")
        code = _check_flow(outcome, args.expect_flow)
        outcome.session.close()
        return code
    except HandshakeAbort as exc:
        print(f"handshake failed: {exc}", file=sys.stderr)
        return _abort_exit(exc)
    finally:
        sock.close()


def _ledger_client(args) -> LedgerClient:
    root = None
    if args.ledger_root:
        root = load_pem_chain(Path(args.ledger_root))[0]
    return LedgerClient(*_host_port(args.ledger), trust_anchor=root,
                        insecure_plaintext=args.ledger_insecure)


def cmd_identity(args) -> int:
    if args.identity_cmd == "did-create":
        ledger_client = _ledger_client(args)
        did, keys = identity.did_create(ledger_client, _suite(args.suite))
        save_keypair(Path(args.out_key), keys)
        Path(args.out_did).write_text(did.text + "\n")
        print(did.text)
        return 0

    if args.identity_cmd == "did-update":
        ledger_client = _ledger_client(args)
        did = identity.Did.parse(Path(args.did).read_text().strip())
        current = load_keypair(Path(args.key))
        from .crypto import generate_keypair
        new_keys = generate_keypair(current.suite)
        identity.did_update(ledger_client, did, current, new_keys)
        save_keypair(Path(args.out_key or args.key), new_keys)
        print(f"rotated key for {did.text}")
        return 0

    if args.identity_cmd == "did-deactivate":
        ledger_client = _ledger_client(args)
        did = identity.Did.parse(Path(args.did).read_text().strip())
        keys = load_keypair(Path(args.key))
        identity.did_deactivate(ledger_client, did, keys)
        print(f"deactivated {did.text}")
        return 0

    if args.identity_cmd == "vc-issue":
        issuer_keys = load_keypair(Path(args.issuer_key))
        issuer_did = identity.Did.parse(Path(args.issuer_did).read_text().strip())
        subject = identity.Did.parse(Path(args.subject_did).read_text().strip())
        claims = {}
        for claim in args.claim or []:
            key, _, value = claim.partition("=")
            claims[key] = value
        now = datetime.datetime.now(datetime.timezone.utc)
        vc = identity.vc_issue(issuer_keys, issuer_did, subject, claims,
                               now - datetime.timedelta(minutes=5),
                               now + datetime.timedelta(days=args.days),
                               extra_types=tuple(args.type or []))
        Path(args.out).write_bytes(identity.vc_serialize(vc))
        print(f"issued {vc.id} for {subject.text}")
        return 0

    if args.identity_cmd == "vc-verify":
        vc = identity.vc_deserialize(Path(args.vc).read_bytes())
        trust = identity.load_trust_store(issuer_dir=args.trusted_issuer_dir)
        try:
            subject = identity.vc_verify(
                vc, trust, datetime.datetime.now(datetime.timezone.utc))
        except identity.VcRejected as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return EXIT_CODES["bad_identity"]
        print(f"accepted: subject {subject.text}")
        for key, value in sorted(vc.claims.items()):
            print(f"claim: {key} = {value}")
        return 0

    if args.identity_cmd == "export-issuer-key":
        keys = load_keypair(Path(args.key))
        did = identity.Did.parse(Path(args.did).read_text().strip())
        Path(args.out).write_text(
            identity.save_issuer_key(did, keys.suite, keys.public_key))
        print(f"wrote issuer key for {did.text}")
        return 0

    if args.identity_cmd == "make-x509-chain":
        ident, root = make_chain(_suite(args.suite), args.subject)
        save_pem_chain(Path(args.out_chain), list(ident.chain))
        save_keypair(Path(args.out_key), ident.keys)
        save_pem_chain(Path(args.out_root), [root])
        print(f"chain for {args.subject} written")
        return 0

    raise CliError(f"unknown identity subcommand {args.identity_cmd!r}")


def cmd_ledger(args) -> int:
    if args.ledger_cmd == "serve":
        store = LedgerStore(args.store)
        x509_identity = None
        if not args.insecure_plaintext:
            if not (args.cert and args.key):
                raise CliError("authenticated mode needs --cert and --key")
            x509_identity = X509Identity(tuple(load_pem_chain(Path(args.cert))),
                                         load_keypair(Path(args.key)))
        host, port = _host_port(args.bind)
        node = LedgerNode(store, x509_identity, host=host, port=port,
                          insecure_plaintext=args.insecure_plaintext)
        with node:
            mode = "PLAINTEXT (attack demo)" if args.insecure_plaintext else "authenticated"
            print(f"ledger node on {node.address[0]}:{node.address[1]} [{mode}]",
                  flush=True)
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                pass
        return 0

    if args.ledger_cmd == "attack-demo":
        return _attack_demo(_suite(args.suite))

    raise CliError(f"unknown ledger subcommand {args.ledger_cmd!r}")


def _attack_demo(suite: SignatureSuite) -> int:
    """Run the resolution MITM in both channel modes and print the outcome."""
    from .crypto import generate_keypair

    store = LedgerStore()
    node_identity, node_root = make_chain(
        SignatureSuite.ECDSA_SECP256R1_SHA256, "ledger.node")
    universe = build_universe(suite, store=store)
    attacker = generate_keypair(suite)
    victim = universe.server_ssi.did
    print(f"victim DID: {victim.text}")

    with LedgerNode(store, insecure_plaintext=True) as plain_node:
        insecure = mitm.mitm_resolution_attack(
            attacker, victim, plain_node.address, node_root,
            plaintext_resolution=True, trust_store=universe.trust_store)
    with LedgerNode(store, node_identity) as tls_node:
        authenticated = mitm.mitm_resolution_attack(
            attacker, victim, tls_node.address, node_root,
            plaintext_resolution=False, trust_store=universe.trust_store)

    print("insecure resolution:   impersonation "
          + ("SUCCEEDED" if insecure.impersonation_accepted else "failed"))
    print("authenticated channel: "
          + ("impersonation SUCCEEDED" if authenticated.impersonation_accepted
             else f"handshake ABORTED ({authenticated.failure_kind})"))
    dichotomy = insecure.impersonation_accepted and not authenticated.impersonation_accepted
    return 0 if dichotomy else 1


def cmd_bench(args) -> int:
    suites = [_suite(s) for s in args.suites.split(",")] if args.suites else None
    cells = args.flows.split(",") if args.flows else None
    if cells:
        unknown = set(cells) - set(perfmodel.ALL_CELLS)
        if unknown:
            raise CliError(f"unknown flows: {sorted(unknown)};"
                           f" choose from {list(perfmodel.ALL_CELLS)}")

    def progress(label: str) -> None:
        print(f"measuring {label} ...", file=sys.stderr, flush=True)

    measurements = perfmodel.measure(suites=suites, cells=cells, runs=args.runs,
                                     warmup=args.warmup,
                                     identity_pool=args.identity_pool,
                                     progress=progress)
    report = perfmodel.validate(measurements)
    print(perfmodel.report_markdown(measurements, report), end="")
    if args.out:
        perfmodel.write_report(measurements, report, args.out)
        print(f"wrote CSVs and report to {args.out}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssitls",
        description="TLS 1.3 handshake with SSI authentication modes")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def endpoint_flags(p):
        p.add_argument("--config", help="key=value endpoint config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value")
        p.add_argument("--print-outcome", action="store_true")
        p.add_argument("--expect-flow", choices=[f.value for f in Flow])

    p = sub.add_parser("server", help="run an echo server endpoint")
    endpoint_flags(p)
    p.add_argument("--bind", default="127.0.0.1:0")
    p.add_argument("--once", action="store_true", help="serve one handshake and exit")
    p.set_defaults(func=cmd_server)

    p = sub.add_parser("client", help="handshake, send a payload, expect the echo")
    endpoint_flags(p)
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--payload", default="ping over ssi tls")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("identity", help="identity provisioning tools")
    isub = p.add_subparsers(dest="identity_cmd", required=True)

    def ledger_flags(q):
        q.add_argument("--ledger", required=True, metavar="HOST:PORT")
        q.add_argument("--ledger-root", help="node root certificate (PEM)")
        q.add_argument("--ledger-insecure", action="store_true")

    q = isub.add_parser("did-create")
    ledger_flags(q)
    q.add_argument("--suite", default="ed25519")
    q.add_argument("--out-key", required=True)
    q.add_argument("--out-did", required=True)

    q = isub.add_parser("did-update")
    ledger_flags(q)
    q.add_argument("--did", required=True)
    q.add_argument("--key", required=True)
    q.add_argument("--out-key")

    q = isub.add_parser("did-deactivate")
    ledger_flags(q)
    q.add_argument("--did", required=True)
    q.add_argument("--key", required=True)

    q = isub.add_parser("vc-issue")
    q.add_argument("--issuer-key", required=True)
    q.add_argument("--issuer-did", required=True)
    q.add_argument("--subject-did", required=True)
    q.add_argument("--claim", action="append", metavar="KEY=VALUE")
    q.add_argument("--type", action="append", help="extra credential type")
    q.add_argument("--days", type=int, default=30)
    q.add_argument("--out", required=True)

    q = isub.add_parser("vc-verify")
    q.add_argument("--vc", required=True)
    q.add_argument("--trusted-issuer-dir", required=True)

    q = isub.add_parser("export-issuer-key")
    q.add_argument("--did", required=True)
    q.add_argument("--key", required=True)
    q.add_argument("--out", required=True)

    q = isub.add_parser("make-x509-chain")
    q.add_argument("--suite", default="ecdsa")
    q.add_argument("--subject", required=True)
    q.add_argument("--out-chain", required=True)
    q.add_argument("--out-key", required=True)
    q.add_argument("--out-root", required=True)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("ledger", help="ledger node and attack demo")
    lsub = p.add_subparsers(dest="ledger_cmd", required=True)
    q = lsub.add_parser("serve")
    q.add_argument("--store", required=True, help="append-only log path")
    q.add_argument("--bind", default="127.0.0.1:0")
    q.add_argument("--cert", help="node certificate chain (PEM)")
    q.add_argument("--key", help="node private key (PEM)")
    q.add_argument("--insecure-plaintext", action="store_true",
                   help="serve unauthenticated frames: resolution becomes forgeable")
    q = lsub.add_parser("attack-demo")
    q.add_argument("--suite", default="ed25519")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("bench", help="measure handshakes and validate the model")
    p.add_argument("--suites", help="comma list: ed25519,ecdsa,rsa")
    p.add_argument("--flows", help=f"comma list of {', '.join(perfmodel.ALL_CELLS)}")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--identity-pool", type=int, default=3)
    p.add_argument("--out", help="directory for CSVs and report.md")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("SSITLS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    except handshake.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    except (identity.IdentityError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["error"]


if __name__ == "__main__":
    sys.exit(main())
