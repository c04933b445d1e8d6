"""Command-line surface: provisioning, endpoint round trips driven purely
by flags/config files, stable exit codes, and the attack demo."""

import subprocess
import sys

import pytest

from ssitls.certs import make_chain
from ssitls.cli import EXIT_CODES
from ssitls.crypto import SignatureSuite
from ssitls.ledger import LedgerNode, LedgerStore


def cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "ssitls.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def start_server(*args, timeout=30.0):
    """Spawn `ssitls server --bind 127.0.0.1:0 ...`; returns (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ssitls.cli", "server",
         "--bind", "127.0.0.1:0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("listening on "):
        err = proc.communicate(timeout=timeout)[1]
        raise RuntimeError(f"server failed to start: {line!r} {err}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Ledger node plus fully provisioned client/server config files."""
    ws = tmp_path_factory.mktemp("cli")
    store = LedgerStore(ws / "ledger.log")
    node_identity, node_root = make_chain(
        SignatureSuite.ECDSA_SECP256R1_SHA256, "ledger.node")
    node = LedgerNode(store, node_identity)
    node.start()
    from ssitls.cli import save_pem_chain
    save_pem_chain(ws / "node_root.pem", [node_root])
    ledger_addr = f"127.0.0.1:{node.address[1]}"

    def identity_cmd(*args):
        result = cli("identity", *args)
        assert result.returncode == 0, result.stderr
        return result

    identity_cmd("did-create", "--ledger", ledger_addr,
                 "--ledger-root", str(ws / "node_root.pem"),
                 "--suite", "ed25519",
                 "--out-key", str(ws / "issuer_key.pem"),
                 "--out-did", str(ws / "issuer_did.txt"))
    for who in ("server", "client"):
        identity_cmd("did-create", "--ledger", ledger_addr,
                     "--ledger-root", str(ws / "node_root.pem"),
                     "--suite", "ed25519",
                     "--out-key", str(ws / f"{who}_key.pem"),
                     "--out-did", str(ws / f"{who}_did.txt"))
        identity_cmd("vc-issue",
                     "--issuer-key", str(ws / "issuer_key.pem"),
                     "--issuer-did", str(ws / "issuer_did.txt"),
                     "--subject-did", str(ws / f"{who}_did.txt"),
                     "--claim", f"role={who}", "--type", "IoTCredential",
                     "--out", str(ws / f"{who}_vc.json"))
        identity_cmd("make-x509-chain", "--suite", "ed25519",
                     "--subject", f"{who}.example",
                     "--out-chain", str(ws / f"{who}_chain.pem"),
                     "--out-key", str(ws / f"{who}_x509_key.pem"),
                     "--out-root", str(ws / f"{who}_root.pem"))
    (ws / "issuers").mkdir()
    identity_cmd("export-issuer-key", "--did", str(ws / "issuer_did.txt"),
                 "--key", str(ws / "issuer_key.pem"),
                 "--out", str(ws / "issuers" / "main.txt"))
    (ws / "allow.txt").write_text((ws / "server_did.txt").read_text()
                                  + (ws / "client_did.txt").read_text())
    (ws / "roots.pem").write_bytes((ws / "server_root.pem").read_bytes()
                                   + (ws / "client_root.pem").read_bytes())

    common = (f"methods = 2\nledger = {ledger_addr}\n"
              "ledger_root = node_root.pem\ntrusted_issuer_dir = issuers\n"
              "trusted_dids = allow.txt\nx509_roots = roots.pem\n")
    (ws / "server.conf").write_text(
        "did = server_did.txt\ndid_key = server_key.pem\nvc = server_vc.json\n"
        "x509_chain = server_chain.pem\nx509_key = server_x509_key.pem\n" + common)
    (ws / "client.conf").write_text(
        "mode = vc\ndid = client_did.txt\ndid_key = client_key.pem\n"
        "vc = client_vc.json\n"
        "x509_chain = client_chain.pem\nx509_key = client_x509_key.pem\n" + common)
    yield ws
    node.stop()
    store.close()


def _echo_roundtrip(workspace, client_args, server_args, expect=0):
    server, port = start_server("--config", str(workspace / "server.conf"),
                                "--once", *server_args)
    try:
        result = cli("client", "--config", str(workspace / "client.conf"),
                     "--connect", f"127.0.0.1:{port}", *client_args)
        assert result.returncode == expect, (result.stdout, result.stderr)
        server.wait(timeout=30)
        return result, server
    finally:
        if server.poll() is None:
            server.kill()


def test_vc_echo_roundtrip_with_expect_flow(workspace):
    result, server = _echo_roundtrip(
        workspace,
        ["--expect-flow", "ssi-vc", "--print-outcome", "--payload", "hi there"],
        ["--expect-flow", "ssi-vc"])
    assert "echo ok" in result.stdout
    assert "flow: ssi-vc" in result.stdout
    assert server.returncode == 0


def test_did_mode_via_override(workspace):
    result, server = _echo_roundtrip(
        workspace,
        ["--set", "mode=did", "--expect-flow", "ssi-did"],
        ["--expect-flow", "ssi-did"])
    assert server.returncode == 0


def test_mutual_vc_via_override(workspace):
    result, server = _echo_roundtrip(
        workspace,
        ["--expect-flow", "ssi-vc", "--print-outcome"],
        ["--set", "request_client_auth=true", "--print-outcome"])
    assert "peer: did:led:" in server.communicate()[0]


def test_expectation_mismatch_exit_code(workspace):
    result, _server = _echo_roundtrip(
        workspace, ["--expect-flow", "fallback"], [],
        expect=EXIT_CODES["expectation"])


def test_fallback_expectation_flag(workspace):
    # strip the server's SSI identity so it falls back
    server, port = start_server("--config", str(workspace / "server.conf"),
                                "--set", "did=", "--set", "did_key=",
                                "--set", "vc=", "--once")
    try:
        result = cli("client", "--config", str(workspace / "client.conf"),
                     "--connect", f"127.0.0.1:{port}",
                     "--expect-flow", "fallback")
        assert result.returncode == 0, (result.stdout, result.stderr)
    finally:
        if server.poll() is None:
            server.kill()
        server.wait(timeout=10)


def test_vc_verify_command(workspace):
    result = cli("identity", "vc-verify", "--vc", str(workspace / "server_vc.json"),
                 "--trusted-issuer-dir", str(workspace / "issuers"))
    assert result.returncode == 0
    assert "accepted" in result.stdout
    assert "role = server" in result.stdout


def test_config_errors_exit_10(workspace, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense_key = 1\n")
    result = cli("client", "--config", str(bad), "--connect", "127.0.0.1:1")
    assert result.returncode == EXIT_CODES["config"]


def test_a_key_on_an_unnamed_curve_is_a_config_error(tmp_path):
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    from ssitls.cli import save_pem_chain
    identity, _root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256, "client.example")
    save_pem_chain(tmp_path / "chain.pem", list(identity.chain))
    key = ec.generate_private_key(ec.SECP384R1())
    (tmp_path / "p384.pem").write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))
    conf = tmp_path / "client.conf"
    conf.write_text("mode = x509\nx509_chain = chain.pem\nx509_key = p384.pem\n")
    result = cli("client", "--config", str(conf), "--connect", "127.0.0.1:1")
    assert result.returncode == EXIT_CODES["config"], result.stderr
    assert "p384.pem" in result.stderr and "secp384r1" in result.stderr


def test_attack_demo_prints_dichotomy():
    result = cli("ledger", "attack-demo", "--suite", "ed25519", timeout=180)
    assert result.returncode == 0, (result.stdout, result.stderr)
    assert "impersonation SUCCEEDED" in result.stdout
    assert "ABORTED" in result.stdout


def test_bench_smoke(tmp_path):
    result = cli("bench", "--suites", "ed25519", "--flows", "x509-uni,vc-uni",
                 "--runs", "6", "--warmup", "1", "--identity-pool", "1",
                 "--out", str(tmp_path / "bench"), timeout=300)
    # tolerance checks may be noisy at 6 runs; the command must still report
    assert result.returncode in (0, 1), result.stderr
    assert "Unilateral handshake size" in result.stdout
    assert (tmp_path / "bench" / "runs.csv").exists()
