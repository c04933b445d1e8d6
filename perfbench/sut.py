"""The system under test, one child process per server: the ledger node
and the handshake server, each listening on loopback TCP as `ssitls ledger
serve` and `ssitls server` would.

Each child is this file run as a script (`sut.py ledger|server FD TRACE
[STORE]`) and obeys commands from the benchmark process over the socket
FD: "usage" (its own CPU seconds and peak RSS), "spans" (drain its tracer),
"errors" (the handshake servers' per-connection failures) and "stop". A
child also stops when the benchmark's end of the socket closes.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import resource
import socket
import subprocess
import sys
import threading
from multiprocessing.connection import Connection

from tracing import Tracer

from ssitls import handshake
from ssitls.certs import make_chain
from ssitls.crypto import SignatureSuite
from ssitls.ledger import LedgerNode, LedgerStore

HOST = "127.0.0.1"
NONCE_LEN = 16
CONN_TIMEOUT = 10.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def usage() -> tuple[float, int]:
    """(user + system CPU seconds, peak RSS in KiB) of the calling process."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def peer_label(peer: handshake.PeerIdentity) -> str:
    """Comparable name of an authenticated peer."""
    if peer.kind == "x509":
        return f"x509 {peer.x509_subject}"
    if peer.kind == "did":
        return peer.did.text
    return peer.kind


def report_handler(tracer: Tracer | None, outcome: handshake.HandshakeOutcome) -> None:
    """Application run after each server handshake: echo the client's nonce
    and report the server's view of the handshake (flow and peer). This is
    the benchmark's own traffic, so it is not traced."""
    if tracer is not None:
        tracer.set_op(None)
    session = outcome.session
    nonce = session.recv()
    report = {"flow": outcome.flow.value, "peer": peer_label(outcome.peer)}
    session.send(nonce + json.dumps(report).encode())


def _command_loop(conn, tracer: Tracer | None, errors) -> None:
    while True:
        try:
            command = conn.recv()
        except EOFError:  # the benchmark process is gone
            return
        if command == "usage":
            conn.send(usage())
        elif command == "spans":
            conn.send(tracer.drain() if tracer else [])
        elif command == "errors":
            conn.send(errors())
        elif command == "stop":
            return
        else:
            raise ValueError(f"unknown command {command!r}")


def _send_stopped(conn) -> None:
    try:
        conn.send("stopped")
    except OSError:  # the benchmark process is gone
        pass


def _tracer(trace: bool) -> Tracer | None:
    logging.getLogger("ssitls").setLevel(logging.ERROR)
    if not trace:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def ledger_main(conn, store_path: str, trace: bool) -> None:
    """Ledger node over a file-backed store, behind an ECDSA X.509 channel."""
    tracer = _tracer(trace)
    node_identity, node_root = make_chain(SignatureSuite.ECDSA_SECP256R1_SHA256,
                                          "ledger.node")
    store = LedgerStore(store_path)
    node = LedgerNode(store, node_identity, host=HOST, conn_timeout=CONN_TIMEOUT)
    node.start()
    try:
        conn.send((node.address, node_root))
        _command_loop(conn, tracer, list)
    finally:
        node.stop()
        store.close()
    _send_stopped(conn)


def server_main(conn, trace: bool) -> None:
    """One HandshakeServer per received (key, EndpointConfig)."""
    tracer = _tracer(trace)
    endpoints = conn.recv()
    servers = {}
    try:
        for key, config in endpoints:
            servers[key] = handshake.HandshakeServer(
                config, HOST, handler=functools.partial(report_handler, tracer),
                conn_timeout=CONN_TIMEOUT).start()
        conn.send({key: server.address for key, server in servers.items()})

        def errors():
            return {key: [(type(e).__name__, getattr(e, "description", None))
                          for e in list(server.errors)]
                    for key, server in servers.items()}

        _command_loop(conn, tracer, errors)
    finally:
        # each stop() waits out its acceptor's poll interval: stop them together
        stoppers = [threading.Thread(target=s.stop) for s in servers.values()]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join()
    _send_stopped(conn)


class Child:
    """A SUT child process and the benchmark's end of its command socket.
    Every child started is in LIVE until stop() has waited for its end."""

    LIVE: set["Child"] = set()

    def __init__(self, name: str, *args: str):
        ours, theirs = socket.socketpair()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        try:
            self.process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "sut.py"), name,
                 str(theirs.fileno()), *args],
                pass_fds=(theirs.fileno(),), env=env)
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        Child.LIVE.add(self)
        self.name = name
        self.conn = Connection(ours.detach())

    def recv(self):
        """The child's next message; an error if it sends none in time."""
        if not self.conn.poll(START_TIMEOUT):
            raise RuntimeError(f"{self.name} child did not answer in {START_TIMEOUT} s")
        return self.conn.recv()

    def call(self, command):
        self.conn.send(command)
        return self.recv()

    def stop(self) -> None:
        """Ask the child to stop; kill it if it does not end in time."""
        try:
            if self.process.poll() is None:
                self.conn.send("stop")
                if self.conn.poll(STOP_TIMEOUT):
                    self.conn.recv()
        except (OSError, EOFError):
            pass
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.conn.close()
        Child.LIVE.discard(self)

    @classmethod
    def stop_all(cls) -> None:
        for child in list(cls.LIVE):
            child.stop()


def main(argv: list[str]) -> None:
    role, fd, trace, *rest = argv
    conn = Connection(int(fd))
    if role == "ledger":
        ledger_main(conn, rest[0], trace == "1")
    elif role == "server":
        server_main(conn, trace == "1")
    else:
        raise ValueError(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
