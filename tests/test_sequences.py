"""Message-sequence faults on the in-thread pair driver: for every measured
cell, each message either side sends in the honest transcript is dropped in
flight. No such case may complete on both sides, and each must end in a
typed HandshakeAbort or a stall the driver names."""

import dataclasses
import itertools

import pytest

from ssitls.handshake import HandshakeAbort, HandshakeOutcome, HandshakeStalled, run_pair
from ssitls.messages import HandshakeType
from ssitls.perfmodel import CELLS


def _configs(u, cell: str):
    spec = CELLS[cell]
    return u.client_config(spec.mode), u.server_config(**spec.server)


def _drop_nth(n: int):
    """A tamper hook that sends its `n`-th message as an empty record."""
    sent = itertools.count()
    return lambda _msg_type, raw: b"" if next(sent) == n else raw


def _sent_by(outcome: HandshakeOutcome, role: str) -> list[str]:
    return [HandshakeType(e.raw[0]).name for e in outcome.transcript.entries
            if e.sender == role]


@pytest.mark.parametrize("cell", list(CELLS))
def test_every_dropped_message_is_detected_or_named(ed_universe, cell):
    client_config, server_config = _configs(ed_universe, cell)
    honest, _server = run_pair(client_config, server_config)
    assert isinstance(honest, HandshakeOutcome), honest
    for role in ("client", "server"):
        for n, name in enumerate(_sent_by(honest, role)):
            case = f"{cell}: {role} drops {name} (#{n})"
            configs = {"client": client_config, "server": server_config}
            configs[role] = dataclasses.replace(configs[role], tamper=_drop_nth(n))
            try:
                results = run_pair(configs["client"], configs["server"])
            except HandshakeStalled as stall:
                assert stall.roles, case
                continue
            assert not all(isinstance(r, HandshakeOutcome) for r in results), case
            for result in results:
                assert isinstance(result, (HandshakeOutcome, HandshakeAbort)), (case, result)
                assert type(result) is not HandshakeAbort, (case, result)
