"""Ledger store continuity rules, log persistence, the network node in both
channel modes, one channel per DID operation, and concurrent access."""

import errno
import logging
import pickle
import socket
import threading
import time
import tracemalloc
from contextlib import closing

import pytest

from ssitls import handshake, ledger
from ssitls.certs import make_chain
from ssitls.crypto import DeterministicRng, SignatureSuite, generate_keypair
from ssitls.identity import (
    ControlError,
    Did,
    DidNotFound,
    DidResolutionError,
    derive_did,
    did_create,
    did_deactivate,
    did_resolve,
    did_update,
    new_did_document,
)
from ssitls.ledger import (
    LedgerClient,
    LedgerCorruption,
    LedgerNode,
    LedgerRecord,
    LedgerRejected,
    LedgerStore,
    server_frames,
)

RNG = DeterministicRng(31337)
ECDSA = SignatureSuite.ECDSA_SECP256R1_SHA256


def seeded_store():
    store = LedgerStore()
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    return store, did, keys


# ---------------------------------------------------------------------------
# Continuity rules
# ---------------------------------------------------------------------------

def test_put_get_round_trip():
    store, did, keys = seeded_store()
    record = store.get(did.method_specific_id)
    assert record.sequence == 0
    assert not record.is_tombstone


def test_each_put_parses_the_signer_document_once(monkeypatch):
    from ssitls import ledger
    store, did, keys = seeded_store()
    fresh = LedgerStore()
    parses = []
    parse = ledger.DidDocument.from_json_dict

    def counting(document):
        parses.append(document)
        return parse(document)

    monkeypatch.setattr(ledger.DidDocument, "from_json_dict", counting)
    fresh.put(store.get(did.method_specific_id))  # genesis
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    doc = new_did_document(did, new_keys.suite, new_keys.public_key)
    fresh.put(LedgerRecord.document_record(did.method_specific_id, 1,
                                           doc.to_json_dict()).signed(keys))
    assert len(parses) == 2


def test_sequence_continuity_enforced():
    store, did, keys = seeded_store()
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    doc = new_did_document(did, new_keys.suite, new_keys.public_key)
    skipped = LedgerRecord.document_record(did.method_specific_id, 5,
                                           doc.to_json_dict()).signed(keys)
    with pytest.raises(LedgerRejected):
        store.put(skipped)


def test_update_signed_by_wrong_key_rejected():
    store, did, keys = seeded_store()
    imposter = generate_keypair(SignatureSuite.ED25519, RNG)
    doc = new_did_document(did, imposter.suite, imposter.public_key)
    record = LedgerRecord.document_record(did.method_specific_id, 1,
                                          doc.to_json_dict()).signed(imposter)
    with pytest.raises(LedgerRejected):
        store.put(record)


def test_put_after_tombstone_rejected():
    store, did, keys = seeded_store()
    did_deactivate(store, did, keys)
    doc = new_did_document(did, keys.suite, keys.public_key)
    record = LedgerRecord.document_record(did.method_specific_id, 2,
                                          doc.to_json_dict()).signed(keys)
    with pytest.raises(LedgerRejected):
        store.put(record)


def test_tombstone_cannot_open_a_sequence():
    store = LedgerStore()
    keys = generate_keypair(SignatureSuite.ED25519, RNG)
    record = LedgerRecord.tombstone_record("e" * 64, 0).signed(keys)
    with pytest.raises(LedgerRejected):
        store.put(record)


def test_content_address_enforced_on_genesis():
    store = LedgerStore()
    keys = generate_keypair(SignatureSuite.ED25519, RNG)
    did = derive_did(keys.suite, keys.public_key)
    doc = new_did_document(did, keys.suite, keys.public_key)
    wrong_id = "f" * 64
    record = LedgerRecord.document_record(wrong_id, 0, doc.to_json_dict()).signed(keys)
    with pytest.raises(LedgerRejected):
        store.put(record)


def test_append_only_replay_reconstructs_state(tmp_path):
    path = tmp_path / "ledger.log"
    store = LedgerStore(path)
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    did_update(store, did, keys, new_keys)
    did_deactivate(store, did, new_keys)
    before = store.records(did.method_specific_id)
    store.close()

    with closing(LedgerStore(path)) as reopened:
        after = reopened.records(did.method_specific_id)
    assert after == before
    assert len(after) == 3
    assert after[-1].is_tombstone
    # at most one tombstone and it is last
    assert sum(1 for r in after if r.is_tombstone) == 1


def test_corrupt_log_refuses_to_start(tmp_path):
    path = tmp_path / "ledger.log"
    store = LedgerStore(path)
    did_create(store, SignatureSuite.ED25519, RNG)
    store.close()
    data = path.read_bytes()
    path.write_bytes(data[:-3])  # truncate mid-record: a torn append
    with closing(LedgerStore(path)) as recovered:
        assert recovered.ids() == ()
    assert path.read_bytes() == b""
    for body in (b"notjs", b'{"id":"x","payload":[],"seq":0,"sig":""}'):
        path.write_bytes(len(body).to_bytes(4, "big") + body)
        with pytest.raises(LedgerCorruption):
            LedgerStore(path)


def _three_record_log(path):
    """A log of one DID's create, update and deactivate; returns the DID and
    the end offset of each frame."""
    with closing(LedgerStore(path)) as store:
        did, keys = did_create(store, SignatureSuite.ED25519, RNG)
        ends = [path.stat().st_size]
        new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
        did_update(store, did, keys, new_keys)
        ends.append(path.stat().st_size)
        did_deactivate(store, did, new_keys)
        ends.append(path.stat().st_size)
    return did, ends


def test_torn_final_frame_is_truncated_and_the_node_starts(tmp_path, caplog):
    path = tmp_path / "ledger.log"
    did, ends = _three_record_log(path)
    msid = did.method_specific_id
    data = path.read_bytes()
    caplog.set_level(logging.WARNING, logger=ledger.logger.name)
    for cut in range(ends[1] + 1, ends[2]):
        path.write_bytes(data[:cut])
        caplog.clear()
        with closing(LedgerStore(path)) as store:
            assert [r.sequence for r in store.records(msid)] == [0, 1]
            assert not store.get(msid).is_tombstone
            assert path.stat().st_size == ends[1]
            assert f"dropped its {cut - ends[1]} bytes" in caplog.text
        if cut == ends[1] + 1:  # once: the recovered log takes new appends
            with closing(LedgerStore(path)) as store:
                other, _ = did_create(store, SignatureSuite.ED25519, RNG)
            with closing(LedgerStore(path)) as store:
                assert [r.sequence for r in store.records(msid)] == [0, 1]
                assert store.get(other.method_specific_id).sequence == 0
            assert path.read_bytes()[:ends[1]] == data[:ends[1]]


def test_a_complete_frame_that_fails_still_refuses_to_start(tmp_path):
    path = tmp_path / "ledger.log"
    _, ends = _three_record_log(path)
    data = path.read_bytes()
    garbage = b"\x00\x00\x00\x05notjs"
    path.write_bytes(data[:ends[0]] + garbage + data[ends[0]:])
    with pytest.raises(LedgerCorruption):
        LedgerStore(path)
    # a valid frame out of order, followed by a torn one
    path.write_bytes(data[ends[0]:ends[1]] + data[:ends[0] - 1])
    with pytest.raises(LedgerCorruption):
        LedgerStore(path)
    assert path.stat().st_size == ends[1] - 1  # refused logs are left as found


class _FullDiskOnce:
    """Log file stand-in whose next write stores half of what it is given
    and then fails as a full disk does; later writes pass through."""

    def __init__(self, log):
        self._log = log
        self._armed = True

    def write(self, data):
        if self._armed:
            self._armed = False
            self._log.write(bytes(data)[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._log.write(data)

    def __getattr__(self, name):
        return getattr(self._log, name)


def test_failed_log_append_is_neither_served_nor_logged(tmp_path):
    path = tmp_path / "ledger.log"
    store = LedgerStore(path)
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    store._log_fh = _FullDiskOnce(store._log_fh)
    with pytest.raises(OSError):
        did_update(store, did, keys, new_keys)
    assert store.get(did.method_specific_id).sequence == 0
    assert did_resolve(store, did).authentication_key()[1] == keys.public_key

    did_update(store, did, keys, new_keys)  # the same rotation, now logged
    before = store.records(did.method_specific_id)
    assert [r.sequence for r in before] == [0, 1]
    store.close()
    with closing(LedgerStore(path)) as restarted:
        assert restarted.records(did.method_specific_id) == before
        assert did_resolve(restarted, did).authentication_key()[1] == new_keys.public_key


def _lifecycles(store, count):
    for _ in range(count):
        did, keys = did_create(store, SignatureSuite.ED25519, RNG)
        new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
        did_update(store, did, keys, new_keys)
        did_deactivate(store, did, new_keys)


def test_store_keeps_only_the_latest_record_in_memory(tmp_path):
    """History lives in the log: a DID's create, update and deactivate leave
    one indexed record behind, not three."""
    with closing(LedgerStore(tmp_path / "ledger.log")) as store:
        tracemalloc.start()
        try:
            _lifecycles(store, 150)  # fills the bounded signing-key cache
            before = tracemalloc.get_traced_memory()[0]
            _lifecycles(store, 200)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert growth / 200 < 1536, f"{growth / 200:.0f} B per lifecycle"


def test_interleaved_put_get_consistency():
    store = LedgerStore()
    errors = []

    def writer():
        try:
            for _ in range(20):
                did_create(store, SignatureSuite.ED25519)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader():
        try:
            for _ in range(200):
                for msid in store.ids():
                    record = store.get(msid)
                    assert record.sequence >= 0
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(3)] + \
        [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(store.ids()) == 60


# ---------------------------------------------------------------------------
# Network node
# ---------------------------------------------------------------------------

def test_resolver_round_trip_over_authenticated_channel():
    store, did, keys = seeded_store()
    node_identity, node_root = make_chain(ECDSA, "ledger.node", RNG)
    with LedgerNode(store, node_identity) as node:
        client = LedgerClient(*node.address, trust_anchor=node_root)
        doc = did_resolve(client, did)
        assert doc.id == did
        # writes travel the same channel
        did2, _ = did_create(client, SignatureSuite.ED25519, RNG)
        assert did_resolve(client, did2).id == did2
        with pytest.raises(DidNotFound):
            client.get("a" * 64)


def test_wrong_trust_anchor_fails_resolution():
    store, did, keys = seeded_store()
    node_identity, node_root = make_chain(ECDSA, "ledger.node", RNG)
    _, other_root = make_chain(ECDSA, "someone.else", RNG)
    with LedgerNode(store, node_identity) as node:
        client = LedgerClient(*node.address, trust_anchor=other_root)
        with pytest.raises(DidResolutionError):
            did_resolve(client, did)


def test_plaintext_mode_requires_explicit_flag():
    store, did, keys = seeded_store()
    with pytest.raises(Exception):
        LedgerNode(store)  # no identity, not explicitly insecure
    with LedgerNode(store, insecure_plaintext=True) as node:
        client = LedgerClient(*node.address, insecure_plaintext=True)
        assert did_resolve(client, did).id == did


def test_hundred_parallel_resolvers():
    store, did, keys = seeded_store()
    node_identity, node_root = make_chain(ECDSA, "ledger.node", RNG)
    errors = []

    def resolve_once():
        try:
            client = LedgerClient(*node.address, trust_anchor=node_root)
            assert did_resolve(client, did).id == did
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    with LedgerNode(store, node_identity) as node:
        threads = [threading.Thread(target=resolve_once) for _ in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors


def test_node_restart_recovers_from_log(tmp_path):
    path = tmp_path / "ledger.log"
    store = LedgerStore(path)
    did, keys = did_create(store, SignatureSuite.ED25519, RNG)
    node_identity, node_root = make_chain(ECDSA, "ledger.node", RNG)
    with LedgerNode(store, node_identity) as node:
        pass
    store.close()

    with closing(LedgerStore(path)) as restarted, \
            LedgerNode(restarted, node_identity) as node:
        client = LedgerClient(*node.address, trust_anchor=node_root)
        assert did_resolve(client, did).id == did


# ---------------------------------------------------------------------------
# One channel per DID operation
# ---------------------------------------------------------------------------

NODE_IDENTITY, NODE_ROOT = make_chain(ECDSA, "ledger.node", RNG)
CLIENT_ATTRIBUTES = {"host", "port", "trust_anchor", "insecure_plaintext", "timeout"}


class _Channels:
    """Counts the ledger clients' channel handshakes and keeps their sockets."""

    def __init__(self, monkeypatch):
        self.handshakes = 0
        self.sockets: list[socket.socket] = []
        run_client, connect = handshake.run_client, socket.create_connection

        def counting_run_client(config, sock):
            self.handshakes += 1
            return run_client(config, sock)

        def recording_connect(*args, **kwargs):
            sock = connect(*args, **kwargs)
            self.sockets.append(sock)
            return sock

        monkeypatch.setattr(handshake, "run_client", counting_run_client)
        monkeypatch.setattr(ledger.socket, "create_connection", recording_connect)

    def one(self, operation, *args):
        """Run one DID operation; it must take exactly one channel and leave
        no connection open, whether it returns or raises."""
        self.handshakes, self.sockets = 0, []
        try:
            return operation(*args)
        finally:
            assert self.handshakes == 1
            assert len(self.sockets) == 1
            assert all(sock.fileno() == -1 for sock in self.sockets)


@pytest.fixture()
def channels(monkeypatch):
    return _Channels(monkeypatch)


@pytest.fixture()
def node():
    with LedgerNode(LedgerStore(), NODE_IDENTITY) as node:
        yield node


def node_client(node) -> LedgerClient:
    return LedgerClient(*node.address, trust_anchor=NODE_ROOT)


def test_each_did_operation_takes_one_channel_and_closes_it(node, channels):
    client = node_client(node)
    did, keys = channels.one(did_create, client, SignatureSuite.ED25519, RNG)
    assert channels.one(did_resolve, client, did).authentication_key()[1] == keys.public_key
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    assert channels.one(did_update, client, did, keys, new_keys) == did
    assert channels.one(did_resolve, client, did).authentication_key()[1] == new_keys.public_key
    assert channels.one(did_deactivate, client, did, new_keys) is True
    assert channels.one(did_deactivate, client, did, new_keys) is True  # acknowledged
    assert [r.sequence for r in node.store.records(did.method_specific_id)] == [0, 1, 2]


def test_update_of_a_deactivated_did_is_refused_and_closes_its_channel(node, channels):
    client = node_client(node)
    did, keys = did_create(client, SignatureSuite.ED25519, RNG)
    did_deactivate(client, did, keys)
    with pytest.raises(ControlError):
        channels.one(did_update, client, did, keys,
                     generate_keypair(SignatureSuite.ED25519, RNG))


class _OneAnswerNode(LedgerNode):
    """Answers the first request of each connection, then drops it."""

    def serve_one(self, conn):
        frames = server_frames(conn, self._identity)
        frames.send_frame(self._handle(frames.recv_frame()))


def test_channel_dropped_after_the_get_fails_the_update_promptly():
    store, did, keys = seeded_store()
    with _OneAnswerNode(store, NODE_IDENTITY) as node:
        client = node_client(node)
        start = time.monotonic()
        with pytest.raises(DidResolutionError):
            did_update(client, did, keys, generate_keypair(SignatureSuite.ED25519, RNG))
        assert time.monotonic() - start < 1.0
        assert did_resolve(client, did).authentication_key()[1] == keys.public_key


def test_another_client_resolves_the_rotated_key(node):
    writer = node_client(node)
    did, keys = did_create(writer, SignatureSuite.ED25519, RNG)
    new_keys = generate_keypair(SignatureSuite.ED25519, RNG)
    did_update(writer, did, keys, new_keys)
    reader = node_client(node)
    assert did_resolve(reader, did).authentication_key()[1] == new_keys.public_key


def test_client_holds_no_channel_and_pickles(node):
    client = node_client(node)
    did, keys = did_create(client, SignatureSuite.ED25519, RNG)
    did_update(client, did, keys, generate_keypair(SignatureSuite.ED25519, RNG))
    assert set(vars(client)) == CLIENT_ATTRIBUTES
    clone = pickle.loads(pickle.dumps(client))
    assert vars(clone) == vars(client)
    assert did_resolve(clone, did).id == did
