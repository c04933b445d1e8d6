"""Latency model: exact closed-form identities, monotonicity, and a small
end-to-end measurement sanity run. The full-tolerance validation at
acceptance scale lives in the acceptance suite."""

import math
import threading

import pytest

from ssitls import handshake, perfmodel
from ssitls.crypto import SignatureSuite
from ssitls.identity import did_deactivate
from ssitls.perfmodel import ModelInputs, Stat, delta_d, delta_v, estimate_for_cell


def inputs(t_c=0.0, t_v=0.0, t_d=0.0, uni=0.0, mut=0.0) -> ModelInputs:
    s = lambda x: Stat(x, 0.0, 1)
    return ModelInputs(s(t_c), s(t_v), s(t_d), s(uni), s(mut))


MS = 1e-3


def test_delta_v_paper_style_arithmetic():
    # 20ms verify + 25ms resolve - 9ms chain = 36ms
    assert delta_v(inputs(t_c=9 * MS, t_v=20 * MS, t_d=25 * MS)) \
        == pytest.approx(36 * MS)


def test_delta_v_degenerate_equality():
    assert delta_v(inputs(t_c=7 * MS, t_v=7 * MS, t_d=0.0)) == pytest.approx(0.0)


def test_delta_d_is_resolution_minus_chain():
    assert delta_d(inputs(t_c=9 * MS, t_d=25 * MS)) == pytest.approx(16 * MS)


def test_mutual_estimate_adds_twice_the_delta():
    # delta_v = 36ms on a 50ms mutual baseline -> 122ms
    m = inputs(t_c=9 * MS, t_v=20 * MS, t_d=25 * MS, mut=50 * MS)
    assert estimate_for_cell(m, "vc-mut") == pytest.approx(122 * MS)


def test_hybrid_is_the_midpoint_identity():
    m = inputs(t_c=3 * MS, t_v=8 * MS, t_d=21 * MS, uni=40 * MS, mut=71 * MS)
    for mutual_cell, hybrids in (("vc-mut", ("hybrid-ov", "hybrid-vo")),
                                 ("did-mut", ("hybrid-od", "hybrid-do"))):
        mutual = estimate_for_cell(m, mutual_cell)
        for hybrid_cell in hybrids:
            hybrid = estimate_for_cell(m, hybrid_cell)
            assert hybrid == pytest.approx(m.h_o_mut.mean + (mutual - m.h_o_mut.mean) / 2)


def test_everything_collapses_when_deltas_vanish():
    m = inputs(t_c=5 * MS, t_v=5 * MS, t_d=0.0, uni=30 * MS, mut=55 * MS)
    assert delta_v(m) == pytest.approx(0.0)
    assert delta_d(m) == pytest.approx(-5 * MS)  # resolution-free DID is cheaper
    m2 = inputs(t_c=0.0, t_v=0.0, t_d=0.0, uni=30 * MS, mut=55 * MS)
    for cell in perfmodel.ALL_CELLS:
        base = m2.h_o_mut.mean if not cell.endswith("uni") else m2.h_o_uni.mean
        assert estimate_for_cell(m2, cell) == pytest.approx(base)


def test_mutual_vc_minus_did_is_twice_vc_verify():
    m = inputs(t_c=4 * MS, t_v=11 * MS, t_d=20 * MS, mut=60 * MS)
    diff = estimate_for_cell(m, "vc-mut") - estimate_for_cell(m, "did-mut")
    assert diff == pytest.approx(2 * m.t_v.mean)


def test_monotonic_in_resolution_time():
    base = inputs(t_c=4 * MS, t_v=6 * MS, t_d=20 * MS, uni=30 * MS, mut=60 * MS)
    bumped = inputs(t_c=4 * MS, t_v=6 * MS, t_d=27 * MS, uni=30 * MS, mut=60 * MS)
    delta = 7 * MS
    for cell in perfmodel.SSI_CELLS:
        before = estimate_for_cell(base, cell)
        after = estimate_for_cell(bumped, cell)
        assert after - before >= delta - 1e-12
    for cell in ("x509-uni", "x509-mut"):
        assert estimate_for_cell(base, cell) == estimate_for_cell(bumped, cell)


def test_linear_in_each_input():
    a = inputs(t_c=2 * MS, t_v=3 * MS, t_d=5 * MS, uni=20 * MS, mut=40 * MS)
    b = inputs(t_c=4 * MS, t_v=9 * MS, t_d=15 * MS, uni=30 * MS, mut=70 * MS)
    mid = inputs(t_c=3 * MS, t_v=6 * MS, t_d=10 * MS, uni=25 * MS, mut=55 * MS)
    for cell in perfmodel.ALL_CELLS:
        expected = (estimate_for_cell(a, cell) + estimate_for_cell(b, cell)) / 2
        assert estimate_for_cell(mid, cell) == pytest.approx(expected)


def test_estimates_match_the_closed_forms():
    import random
    rand = random.Random(12)
    for _ in range(200):
        t_c, t_v, t_d, uni, mut = (rand.uniform(0, 50) * MS for _ in range(5))
        m = inputs(t_c=t_c, t_v=t_v, t_d=t_d, uni=uni, mut=mut)
        closed = {
            "x509-uni": uni, "vc-uni": uni - t_c + t_v + t_d, "did-uni": uni - t_c + t_d,
            "x509-mut": mut, "vc-mut": mut + 2 * (t_v + t_d - t_c),
            "did-mut": mut + 2 * (t_d - t_c),
            "hybrid-ov": mut + t_v + t_d - t_c, "hybrid-vo": mut + t_v + t_d - t_c,
            "hybrid-od": mut + t_d - t_c, "hybrid-do": mut + t_d - t_c,
        }
        assert tuple(closed) == perfmodel.ALL_CELLS
        for cell, value in closed.items():
            assert estimate_for_cell(m, cell) == pytest.approx(value, abs=1e-12)


def test_stat_from_samples():
    stat = Stat.from_samples([1.0, 2.0, 3.0])
    assert stat.mean == pytest.approx(2.0)
    assert stat.std == pytest.approx(math.sqrt(2 / 3))
    assert stat.n == 3
    empty = Stat.from_samples([])
    assert (empty.mean, empty.n) == (0.0, 0)


@pytest.mark.parametrize("cells,slots", [
    (perfmodel.ALL_CELLS, 205),            # the acceptance suite's C5/C6 measurement
    (("x509-uni", "vc-uni"), 205),
    (("x509-uni", "vc-uni", "did-uni"), 12),  # the small measurement below
])
def test_block_schedule_interleaves_the_cells(cells, slots):
    schedule = perfmodel.block_schedule(cells, slots)
    assert schedule == perfmodel.block_schedule(cells, slots)  # one fixed seed
    assert len(schedule) == len(cells) * slots
    for cell in cells:
        positions = [i for i, (c, _n) in enumerate(schedule) if c == cell]
        assert [n for c, n in schedule if c == cell] == list(range(slots))
        # with only two blocks a cell, the seeded shuffle may leave them side by
        # side; at 12 slots it does, so the small measurement is not interleaved
        if slots > 2 * perfmodel.BLOCK:
            assert positions[-1] - positions[0] + 1 > slots, f"{cell} ran as one block"


# ---------------------------------------------------------------------------
# Small measurement run: structure and internal consistency only
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_measurement():
    return perfmodel.measure(suites=[SignatureSuite.ED25519],
                             cells=["x509-uni", "vc-uni", "did-uni"],
                             runs=10, warmup=2, identity_pool=1)


def test_measure_produces_expected_grid(small_measurement):
    ms = small_measurement
    assert ms.suites() == ["ed25519"]
    for cell in ("x509-uni", "vc-uni", "did-uni"):
        records = ms.cell_records("ed25519", cell)
        assert len(records) == 10
        for r in records:
            assert r.latency > 0
            phase_total = sum(r.phases.values())
            assert phase_total <= r.latency + 0.002  # phases sit on the timed path


def test_phase_timers_locate_the_work(small_measurement):
    ms = small_measurement
    for r in ms.cell_records("ed25519", "x509-uni"):
        assert r.phases.get("chain_verify", 0) > 0
        assert r.phases.get("resolve", 0) == 0
    for r in ms.cell_records("ed25519", "vc-uni"):
        assert r.phases.get("vc_verify", 0) > 0
        assert r.phases.get("resolve", 0) > 0
    for r in ms.cell_records("ed25519", "did-uni"):
        assert r.phases.get("vc_verify", 0) == 0
        assert r.phases.get("resolve", 0) > 0


def test_model_inputs_extracted(small_measurement):
    inputs_ = small_measurement.inputs_for("ed25519")
    assert inputs_.t_c.n > 0 and inputs_.t_d.n > 0 and inputs_.t_v.n > 0
    assert inputs_.t_d.mean > inputs_.t_v.mean  # resolution includes a channel setup


def test_report_files_written(tmp_path, small_measurement):
    report = perfmodel.validate(small_measurement)
    perfmodel.write_report(small_measurement, report, tmp_path)
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "report.md").exists()
    overlay = tmp_path / "overlay_ed25519_vc-uni.csv"
    assert overlay.exists()
    header = overlay.read_text().splitlines()[0]
    assert header == "run_index,measured_delta_ms,model_delta_ms"
    body = overlay.read_text().splitlines()[1:]
    assert len(body) == 10


def test_failed_server_handshake_ends_measure(monkeypatch):
    """The client returns before the server resolves its deactivated DID;
    the server's abort must reach the measuring thread."""
    build = perfmodel.build_universe

    def revoked_client(*args, **kwargs):
        u = build(*args, **kwargs)
        did_deactivate(u.ledger, u.client_ssi.did, u.client_ssi.keys)
        return u

    monkeypatch.setattr(perfmodel, "build_universe", revoked_client)
    box = {}

    def run():
        try:
            perfmodel.measure(suites=[SignatureSuite.ED25519], cells=["did-mut"],
                              runs=3, warmup=0, identity_pool=1)
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(20)
    assert not thread.is_alive()
    assert isinstance(box.get("error"), handshake.RevokedIdentity)
