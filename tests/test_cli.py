"""Command-line surface: provisioning, endpoint round trips driven purely
by flags/config files, stable exit codes, and the attack demo."""

import socket
import subprocess
import sys

import pytest

from ssitls import cli as ssitls_cli
from ssitls import crypto, identity
from ssitls.certs import leaf_public_key_bytes, make_chain, verify_chain
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
    """One client against a `--once` server; returns the client's result and
    the server's exit code and stdout."""
    server, port = start_server("--config", str(workspace / "server.conf"),
                                "--once", *server_args)
    with server:
        try:
            result = cli("client", "--config", str(workspace / "client.conf"),
                         "--connect", f"127.0.0.1:{port}", *client_args)
            assert result.returncode == expect, (result.stdout, result.stderr)
            server_out = server.communicate(timeout=30)[0]
            return result, server.returncode, server_out
        finally:
            if server.poll() is None:
                server.kill()


def test_vc_echo_roundtrip_with_expect_flow(workspace):
    result, server_exit, _ = _echo_roundtrip(
        workspace,
        ["--expect-flow", "ssi-vc", "--print-outcome", "--payload", "hi there"],
        ["--expect-flow", "ssi-vc"])
    assert "echo ok" in result.stdout
    assert "flow: ssi-vc" in result.stdout
    assert server_exit == 0


def test_did_mode_via_override(workspace):
    result, server_exit, _ = _echo_roundtrip(
        workspace,
        ["--set", "mode=did", "--expect-flow", "ssi-did"],
        ["--expect-flow", "ssi-did"])
    assert server_exit == 0


def test_mutual_vc_via_override(workspace):
    result, _, server_out = _echo_roundtrip(
        workspace,
        ["--expect-flow", "ssi-vc", "--print-outcome"],
        ["--set", "request_client_auth=true", "--print-outcome"])
    assert "peer: did:led:" in server_out


def test_expectation_mismatch_exit_code(workspace):
    _echo_roundtrip(workspace, ["--expect-flow", "fallback"], [],
                    expect=EXIT_CODES["expectation"])


def test_fallback_expectation_flag(workspace):
    # strip the server's SSI identity so it falls back
    server, port = start_server("--config", str(workspace / "server.conf"),
                                "--set", "did=", "--set", "did_key=",
                                "--set", "vc=", "--once")
    with server:
        try:
            result = cli("client", "--config", str(workspace / "client.conf"),
                         "--connect", f"127.0.0.1:{port}",
                         "--expect-flow", "fallback")
            assert result.returncode == 0, (result.stdout, result.stderr)
        finally:
            if server.poll() is None:
                server.kill()


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


def test_a_server_without_an_identity_exits_10_before_listening():
    result = cli("server", "--once", timeout=30)
    assert result.returncode == EXIT_CODES["config"], result.stderr
    assert "listening on" not in result.stdout
    assert "server needs an X.509 or SSI identity" in result.stderr


def test_a_refused_connect_exits_transport():
    # a bound port that does not listen refuses the connect
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        result = cli("client", "--connect", f"127.0.0.1:{port}", timeout=30)
    assert result.returncode == EXIT_CODES["transport"], result.stderr
    assert "Traceback" not in result.stderr
    assert "connection failed" in result.stderr


@pytest.fixture()
def root_pem(tmp_path):
    from ssitls.cli import save_pem_chain
    _identity, root = make_chain(SignatureSuite.ED25519, "ledger.node")
    save_pem_chain(tmp_path / "root.pem", [root])
    return tmp_path / "root.pem"


@pytest.mark.parametrize("surface", ["config", "flags"])
def test_a_ledger_channel_both_trusted_and_plaintext_exits_10(root_pem, surface):
    """A node root and `insecure` exclude each other: the channel would run
    in plaintext and silently ignore the root."""
    if surface == "config":
        conf = root_pem.parent / "client.conf"
        conf.write_text(f"ledger = 127.0.0.1:1\nledger_root = {root_pem}\n"
                        "ledger_insecure = true\n")
        result = cli("client", "--config", str(conf), "--connect", "127.0.0.1:1", timeout=30)
    else:
        result = cli("identity", "did-create", "--ledger", "127.0.0.1:1",
                     "--ledger-root", str(root_pem), "--ledger-insecure",
                     "--out-key", str(root_pem.parent / "key.pem"),
                     "--out-did", str(root_pem.parent / "did.txt"), timeout=30)
    assert result.returncode == EXIT_CODES["config"], result.stderr
    assert "exclude each other" in result.stderr


def test_a_plaintext_ledger_node_refuses_a_chain_before_serving(root_pem):
    result = cli("ledger", "serve", "--store", str(root_pem.parent / "ledger.log"),
                 "--cert", str(root_pem), "--key", str(root_pem.parent / "key.pem"),
                 "--insecure-plaintext", timeout=30)
    assert result.returncode == EXIT_CODES["config"], result.stderr
    assert "ledger node on" not in result.stdout
    assert not (root_pem.parent / "ledger.log").exists()


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


def test_rsa_key_files_are_validated_at_most_once(tmp_path, private_key_decodes):
    """An RSA key check costs tens of milliseconds: make-x509-chain signs
    and saves keys it generated without decoding one, and did-update
    decodes only the key file it reads."""
    main = ssitls_cli.main
    assert main(["identity", "make-x509-chain", "--suite", "rsa", "--subject", "node.example",
                 "--out-chain", str(tmp_path / "chain.pem"), "--out-key", str(tmp_path / "key.pem"),
                 "--out-root", str(tmp_path / "root.pem")]) == 0
    assert private_key_decodes == []
    chain = ssitls_cli.load_pem_chain(tmp_path / "chain.pem")
    verify_chain(chain, ssitls_cli.load_pem_chain(tmp_path / "root.pem"))
    keys = ssitls_cli.load_keypair(tmp_path / "key.pem")
    assert leaf_public_key_bytes(chain[0]) == keys.public_key

    store = LedgerStore()
    did, keys = identity.did_create(store, SignatureSuite.RSA_PSS_RSAE_SHA256)
    ssitls_cli.save_keypair(tmp_path / "did_key.pem", keys)
    (tmp_path / "did.txt").write_text(did.text + "\n")
    key_file = (tmp_path / "did_key.pem").read_bytes()
    crypto._secret_keys.clear()  # as in a new CLI process
    private_key_decodes.clear()
    with LedgerNode(store, None, insecure_plaintext=True) as node:
        assert main(["identity", "did-update", "--ledger", f"127.0.0.1:{node.address[1]}",
                     "--ledger-insecure", "--did", str(tmp_path / "did.txt"),
                     "--key", str(tmp_path / "did_key.pem")]) == 0
    assert private_key_decodes == [key_file]
    rotated = ssitls_cli.load_keypair(tmp_path / "did_key.pem")
    assert identity.did_resolve(store, did).authentication_key() == \
        (rotated.suite, rotated.public_key)


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
