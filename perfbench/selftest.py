#!/usr/bin/env python3
"""Self-test of the benchmark's own checks: every check passes on the real
output and fails when fed a deliberately wrong expectation.

    python3 perfbench/selftest.py

Runs against small live systems (spawned ledger node and handshake server
on loopback) and exits non-zero on the first check that does not fire.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ssitls import handshake, identity, perfmodel  # noqa: E402
from ssitls.crypto import SignatureSuite, generate_keypair  # noqa: E402
from ssitls.handshake import Flow  # noqa: E402
from ssitls.provision import build_universe  # noqa: E402
from ssitls.record import AlertDescription  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def check_cell_mapping() -> None:
    u = build_universe(SignatureSuite.ED25519)
    for cell, (mode, kind, _flow) in workloads.CELLS.items():
        ours = (u.client_config(mode), u.server_config(**workloads.SERVER_KINDS[kind]))
        expect(ours == perfmodel._cell_configs(u, cell), f"{cell} configs match perfmodel")


def check_tracer_refuses_missing_names() -> None:
    original = handshake.sign
    del handshake.sign
    try:
        tracing.Tracer().install()
        raised = False
    except tracing.TracingError:
        raised = True
    finally:
        handshake.sign = original
    expect(raised, "tracer stops on a missing binding")


def check_handshakes() -> None:
    workload = workloads.HandshakeWorkload(SignatureSuite.ED25519, tuple(workloads.CELLS),
                                           pool=2, clients=1, rejects_per_block=1, windows=1)
    system = workload.setup(seed=7, trace=False)
    try:
        index = iter(range(1_000_000))

        def run(op):
            return system.run_op(op, next(index), None)

        for cell in workloads.CELLS:
            op = system.make_op(cell, 0, 1)
            record = run(op)
            expect(record.failure is None, f"{cell} passes its checks")
            other = next(f for f in Flow if f is not op.expect.flow)
            record = run(replace(op, expect=replace(op.expect, flow=other)))
            expect(record.failure is not None, f"{cell} fails when expecting flow {other.value}")
            record = run(replace(op, expect=replace(op.expect, server_peer="x509 CN=nobody")))
            expect(record.failure is not None, f"{cell} fails when expecting another server")
            wrong_client = "anonymous" if op.expect.client_peer != "anonymous" else \
                system.make_op("did-mut", 0, 1).expect.client_peer
            record = run(replace(op, expect=replace(op.expect, client_peer=wrong_client)))
            expect(record.failure is not None, f"{cell} fails when the server must see another client")
            record = run(replace(op, expect=replace(op.expect, reject=True)))
            expect(record.failure is not None, f"{cell} fails when a rejection was expected")

        for cell in workloads.REJECT_CELLS:
            op = system.make_op(cell, 1, workloads.REVOKED)
            record = run(op)
            expect(record.failure is None, f"{cell} against the revoked server is rejected")
            record = run(replace(op, expect=replace(op.expect, reject=False)))
            expect(record.failure is not None, f"{cell} revoked server fails when success was expected")
        # four handshakes reached the revoked server, each ending in an alert
        expect(not system.server_problems([SimpleNamespace(reject=True)] * 4),
               "server saw one certificate_revoked alert per rejection")
        expect(bool(system.server_problems([SimpleNamespace(reject=True)] * 3)),
               "server check fails when one alert too many arrived")
        live = system.make_op("vc-mut", 0, 1)
    finally:
        system.close()

    outcome = SimpleNamespace(flow=live.expect.flow,
                              peer=handshake.PeerIdentity(kind="did", did=identity.Did.parse(
                                  live.expect.server_peer)))
    report = f'{{"flow": "{live.expect.flow.value}", "peer": "{live.expect.client_peer}"}}'
    nonce = b"n" * 16
    expect(workloads.check_handshake(outcome, nonce, nonce + report.encode(), live.expect) is None,
           "check_handshake passes a correct echo")
    expect(workloads.check_handshake(outcome, nonce, b"x" * 16 + report.encode(), live.expect)
           is not None, "check_handshake fails when the echo lost the nonce")
    foreign = {("revoked", "uni"): [], (0, "uni"): [("RecordError", None)]}
    expect(bool(workloads.check_server_errors(foreign, 0)),
           "server check fails on a failure at a live listener")
    alert = {("revoked", "uni"): [("PeerAlert", AlertDescription.HANDSHAKE_FAILURE)]}
    expect(bool(workloads.check_server_errors(alert, 1)),
           "server check fails on the wrong alert")


def check_ledger() -> None:
    system = workloads.LedgerWorkload(SignatureSuite.ED25519).setup(seed=7, trace=False)
    try:
        stream = system.ops(random.Random(7))
        for step in range(system.block_size):
            op = next(stream)
            record = system.run_op(op, step, None)
            expect(record.failure is None, f"ledger {op.name} (step {step}) passes its checks")

        client, suite = system.client, SignatureSuite.ED25519
        did, keys = identity.did_create(client, suite)
        new_keys = generate_keypair(suite)

        def resolve_expecting(expected):
            op = workloads.LedgerOp("resolve", lambda: identity.did_resolve(client, did),
                                    lambda result: workloads.check_resolution(result, expected))
            return system.run_op(op, 0, None).failure

        expect(resolve_expecting(identity.REVOKED) is not None,
               "resolve of a live DID fails when REVOKED was expected")
        identity.did_update(client, did, keys, new_keys)
        expect(resolve_expecting(keys.public_key) is not None,
               "resolve after update fails when the old key was expected")
        expect(resolve_expecting(new_keys.public_key) is None,
               "resolve after update returns the new key")
        identity.did_deactivate(client, did, new_keys)
        expect(resolve_expecting(new_keys.public_key) is not None,
               "resolve after deactivation fails when a live key was expected")
    finally:
        system.close()


def main() -> int:
    check_cell_mapping()
    check_tracer_refuses_missing_names()
    check_handshakes()
    check_ledger()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
