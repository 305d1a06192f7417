"""Fault-tolerant distributed runtime: transports, chaos, shard recovery.

The acceptance gate for ``--backend distributed:<transport>:<ranks>``:

* byte-equal results across every transport x rank-count combination,
  with and without seeded wire chaos (the chain is a pure function of
  the seed, so no execution layout or maskable fault may perturb it);
* a shard killed mid-run is detected at the sweep barrier, its vertices
  re-leased to survivors, and the run recovers bit-identically
  (``recover``), degrades to a flagged best-so-far (``degrade``), or
  raises (``fail``);
* the frame codec, reliable delivery layer, and deterministic chaos
  schedule each hold their local contracts.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.sbp import run_sbp
from repro.core.variants import SBPConfig
from repro.diagnostics import run_health
from repro.distributed import comm as comm_module
from repro.distributed.chaos import FAULT_KINDS, ChaosSchedule, ChaosTransport
from repro.distributed.comm import (
    FRAME_HEADER_BYTES,
    SimTransport,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.distributed.partition import partition_vertices
from repro.distributed.reliable import ReliableComm
from repro.distributed.runtime import SHARD_LOSS_POLICIES, DistributedBackend
from repro.errors import ChannelTimeout, FrameError, ShardLost, TransportError
from repro.graph.graph import Graph
from repro.io.serialize import load_result, save_result
from repro.parallel.backend import get_backend
from repro.resilience.resilient import RetryPolicy
from repro.sbm.blockmodel import Blockmodel
from repro.utils.rng import SweepRandomness

TRANSPORTS = ("sim", "inproc", "pipes")

CHAOS_RATES = dict(
    drop=0.05, duplicate=0.04, delay=0.04, truncate=0.03, bitflip=0.03
)


def _run(graph, backend, seed=7, **cfg_kwargs):
    config = SBPConfig(
        variant="a-sbp", seed=seed, backend=backend, **cfg_kwargs
    )
    return run_sbp(graph, config)


def _assert_same_chain(result, reference):
    np.testing.assert_array_equal(result.assignment, reference.assignment)
    assert result.mdl == reference.mdl
    assert result.num_blocks == reference.num_blocks
    assert result.mcmc_sweeps == reference.mcmc_sweeps
    assert result.outer_iterations == reference.outer_iterations


@pytest.fixture(scope="module")
def oracle(planted_graph):
    graph, _ = planted_graph
    return _run(graph, "vectorized")


# ---------------------------------------------------------------------------
# The equivalence matrix: transports x ranks x chaos
# ---------------------------------------------------------------------------
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_clean_wire_bit_identical(self, planted_graph, oracle, transport, ranks):
        graph, _ = planted_graph
        result = _run(graph, f"distributed:{transport}:{ranks}")
        _assert_same_chain(result, oracle)
        assert not result.interrupted
        if ranks > 1:
            assert result.timings.comm_messages > 0
            assert result.timings.comm_bytes > 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_chaotic_wire_bit_identical(self, planted_graph, oracle, transport, ranks):
        graph, _ = planted_graph
        result = _run(
            graph,
            f"distributed:{transport}:{ranks}",
            backend_options=dict(chaos=dict(seed=13, **CHAOS_RATES)),
        )
        _assert_same_chain(result, oracle)
        assert not result.interrupted
        # The schedule's rates guarantee faults actually fired and the
        # reliable layer actually masked some of them.
        assert result.timings.comm_retries > 0

    def test_single_rank_needs_no_wire(self, planted_graph, oracle):
        graph, _ = planted_graph
        result = _run(graph, "distributed:sim:1")
        _assert_same_chain(result, oracle)
        assert result.timings.comm_messages == 0


# ---------------------------------------------------------------------------
# Shard loss: detection, re-lease, and the three policies
# ---------------------------------------------------------------------------
class TestShardLoss:
    @pytest.mark.parametrize("transport", ["sim", "pipes"])
    def test_recover_is_bit_identical(self, planted_graph, oracle, transport):
        graph, _ = planted_graph
        result = _run(
            graph,
            f"distributed:{transport}:4",
            backend_options=dict(failures={5: (1,)}),
        )
        _assert_same_chain(result, oracle)
        assert not result.interrupted
        assert result.timings.shard_releases == 1

    def test_recover_under_chaos(self, planted_graph, oracle):
        graph, _ = planted_graph
        result = _run(
            graph,
            "distributed:pipes:4",
            backend_options=dict(
                chaos=dict(seed=13, **CHAOS_RATES), failures={5: (1,)}
            ),
        )
        _assert_same_chain(result, oracle)
        assert result.timings.shard_releases == 1

    def test_recover_two_deaths(self, planted_graph, oracle):
        graph, _ = planted_graph
        result = _run(
            graph,
            "distributed:sim:4",
            backend_options=dict(failures={3: (1,), 9: (3,)}),
        )
        _assert_same_chain(result, oracle)
        assert result.timings.shard_releases == 2

    def test_degrade_returns_flagged_best_so_far(self, planted_graph):
        graph, _ = planted_graph
        result = _run(
            graph,
            "distributed:sim:4",
            shard_loss_policy="degrade",
            backend_options=dict(failures={2: (3,)}),
        )
        assert result.interrupted
        assert result.timings.shard_releases == 1
        health = run_health(result)
        assert not health["ok"]
        assert any("interrupted" in p for p in health["problems"])

    def test_fail_raises_shard_lost(self, planted_graph):
        graph, _ = planted_graph
        with pytest.raises(ShardLost):
            _run(
                graph,
                "distributed:sim:4",
                shard_loss_policy="fail",
                backend_options=dict(failures={2: (2,)}),
            )

    def test_supervisor_cannot_be_scheduled_to_die(self):
        with pytest.raises(TransportError):
            DistributedBackend(transport="sim", ranks=2, failures={1: (0,)})

    def test_policy_names_are_validated(self):
        assert SHARD_LOSS_POLICIES == ("recover", "degrade", "fail")
        with pytest.raises(TransportError):
            DistributedBackend(transport="sim", ranks=2, shard_loss_policy="nope")
        with pytest.raises(ValueError):
            SBPConfig(shard_loss_policy="nope")


# ---------------------------------------------------------------------------
# Backend registry / spec parsing
# ---------------------------------------------------------------------------
class TestBackendSpec:
    def test_get_backend_composes_spec(self):
        backend = get_backend("distributed:inproc:3")
        try:
            assert backend.transport_name == "inproc"
            assert backend.num_ranks == 3
        finally:
            backend.close()

    def test_bad_spec_raises(self):
        with pytest.raises(TransportError):
            DistributedBackend(inner="sim:banana")

    def test_nesting_rejected(self):
        with pytest.raises(TransportError):
            DistributedBackend(inner_backend="distributed")

    def test_registry_lists_all_transports(self):
        assert set(TRANSPORTS) <= set(comm_module.TRANSPORTS.names())


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        payload = {"pos": np.arange(5), "call": 3}
        frame = encode_frame(11, encode_payload(payload))
        seq, raw = decode_frame(frame)
        assert seq == 11
        out = decode_payload(raw)
        np.testing.assert_array_equal(out["pos"], payload["pos"])
        assert out["call"] == 3

    def test_truncation_detected(self):
        frame = encode_frame(0, encode_payload([1, 2, 3]))
        with pytest.raises(FrameError):
            decode_frame(frame[:-2])

    def test_header_truncation_detected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00" * (FRAME_HEADER_BYTES - 1))

    def test_bitflip_detected(self):
        frame = bytearray(encode_frame(4, encode_payload("hello")))
        frame[len(frame) // 2] ^= 0x10
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_header_bitflip_detected(self):
        # The CRC covers the sequence word: corrupting the header cannot
        # deliver a valid payload under the wrong sequence number.
        frame = bytearray(encode_frame(4, encode_payload("hello")))
        frame[6] ^= 0x01  # inside the seq field
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_bad_magic_detected(self):
        frame = bytearray(encode_frame(0, encode_payload(None)))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_unpicklable_garbage_payload(self):
        with pytest.raises(FrameError):
            decode_payload(b"\x00not a pickle")


# ---------------------------------------------------------------------------
# Reliable delivery over each transport
# ---------------------------------------------------------------------------
class TestReliableComm:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_in_order_exactly_once(self, transport):
        with comm_module.TRANSPORTS.get(transport)(2) as raw:
            comm = ReliableComm(raw)
            for i in range(20):
                comm.send({"i": i}, source=0, dest=1)
            for i in range(20):
                assert comm.recv(source=0, dest=1)["i"] == i

    def test_dead_channel_times_out(self):
        with comm_module.TRANSPORTS.get("sim")(2) as raw:
            comm = ReliableComm(raw, policy=RetryPolicy(retries=2, timeout=0.01))
            with pytest.raises(ChannelTimeout):
                comm.recv(source=1, dest=0)

    def test_duplicates_are_dropped(self):
        raw = SimTransport(2)
        comm = ReliableComm(raw)
        comm.send("a", source=0, dest=1)
        # Replay the exact frame the sender pushed (a network duplicate).
        frame = encode_frame(0, encode_payload("a"))
        raw.push(frame, source=0, dest=1)
        comm.send("b", source=0, dest=1)
        assert comm.recv(source=0, dest=1) == "a"
        assert comm.recv(source=0, dest=1) == "b"

    def test_reordered_frames_delivered_in_order(self):
        raw = SimTransport(2)
        comm = ReliableComm(raw)
        raw.push(encode_frame(1, encode_payload("second")), source=0, dest=1)
        raw.push(encode_frame(0, encode_payload("first")), source=0, dest=1)
        comm._next_send[(0, 1)] = 2  # the sender has already sent both
        assert comm.recv(source=0, dest=1) == "first"
        assert comm.recv(source=0, dest=1) == "second"

    def test_corrupt_frame_quarantined_then_retransmitted(self):
        raw = SimTransport(2)
        comm = ReliableComm(raw, policy=RetryPolicy(retries=4, timeout=0.01))
        comm.send("payload", source=0, dest=1)
        # Corrupt the in-flight copy; the retransmit path must re-push
        # the sender's buffered original.
        frame = bytearray(raw.pull(source=0, dest=1))
        frame[-1] ^= 0xFF
        raw.push(bytes(frame), source=0, dest=1)
        assert comm.recv(source=0, dest=1) == "payload"
        assert comm.ledger.frames_quarantined >= 1
        assert comm.ledger.retries >= 1
        assert comm.quarantine_log

    def test_reuses_resilience_retry_policy(self):
        policy = RetryPolicy(retries=3, backoff=0.0, timeout=0.5)
        comm = ReliableComm(SimTransport(2), policy=policy)
        assert comm.policy is policy
        assert comm.policy.attempts == 4


# ---------------------------------------------------------------------------
# Chaos schedule determinism
# ---------------------------------------------------------------------------
class TestChaos:
    def test_schedule_is_deterministic(self):
        sched = ChaosSchedule(seed=42, **CHAOS_RATES)
        a = [sched.decide(0, 1, i)[0] for i in range(200)]
        b = [sched.decide(0, 1, i)[0] for i in range(200)]
        assert a == b
        assert any(kind is not None for kind in a)

    def test_channels_draw_independently(self):
        sched = ChaosSchedule(seed=42, **CHAOS_RATES)
        a = [sched.decide(0, 1, i)[0] for i in range(200)]
        b = [sched.decide(2, 1, i)[0] for i in range(200)]
        assert a != b

    def test_rates_validated(self):
        with pytest.raises(TransportError):
            ChaosSchedule(drop=1.5)
        with pytest.raises(TransportError):
            ChaosSchedule(drop=0.6, duplicate=0.6)
        with pytest.raises(TransportError):
            ChaosSchedule.from_mapping({"drop": 0.1, "meteor": 0.1})

    def test_fault_kinds_frozen(self):
        assert FAULT_KINDS == ("drop", "duplicate", "delay", "truncate", "bitflip")

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_identical_injection_across_transports(self, transport):
        sched = ChaosSchedule(seed=9, **CHAOS_RATES)
        with comm_module.TRANSPORTS.get(transport)(2) as raw:
            chaos = ChaosTransport(raw, sched)
            comm = ReliableComm(chaos, policy=RetryPolicy(retries=16, timeout=0.05))
            for i in range(40):
                comm.send(i, source=0, dest=1)
            for i in range(40):
                assert comm.recv(source=0, dest=1) == i
            injected = dict(chaos.injected)
            chaos.close()
        # The schedule is a pure function of (seed, channel, push index):
        # a second identical session injects the identical fault set.
        with comm_module.TRANSPORTS.get(transport)(2) as raw2:
            chaos2 = ChaosTransport(raw2, ChaosSchedule(seed=9, **CHAOS_RATES))
            comm2 = ReliableComm(chaos2, policy=RetryPolicy(retries=16, timeout=0.05))
            for i in range(40):
                comm2.send(i, source=0, dest=1)
            for i in range(40):
                assert comm2.recv(source=0, dest=1) == i
            assert dict(chaos2.injected) == injected
            chaos2.close()


# ---------------------------------------------------------------------------
# Partition / halo edge cases (satellite d)
# ---------------------------------------------------------------------------
class TestPartitionEdgeCases:
    @pytest.mark.parametrize("strategy", ["contiguous", "hash", "degree_balanced"])
    def test_more_ranks_than_vertices(self, strategy):
        graph = Graph(3, np.array([[0, 1], [1, 2]], dtype=np.int64))
        owner = partition_vertices(graph, 8, strategy=strategy)
        assert owner.shape == (3,)
        assert owner.min() >= 0 and owner.max() < 8
        # 8 ranks over 3 vertices leave empty shards, which only heartbeat.
        bm = Blockmodel.from_assignment(graph, np.array([0, 1, 1]), 2)
        vertices = np.arange(3, dtype=np.int64)
        uniforms = SweepRandomness.draw(1, 1, 0, 3).uniforms
        expected = get_backend("vectorized").evaluate_sweep(
            bm, graph, vertices, uniforms, 3.0
        )
        with DistributedBackend(
            transport="sim", ranks=8, partition_strategy=strategy
        ) as backend:
            got = backend.evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])

    def test_distributed_run_with_more_ranks_than_busy_work(self, tiny_graph):
        # V=8 over 4 ranks: tiny shards, some possibly empty per segment.
        ref = _run(tiny_graph, "vectorized", seed=3)
        result = _run(tiny_graph, "distributed:sim:4", seed=3)
        _assert_same_chain(result, ref)


# ---------------------------------------------------------------------------
# Driver plumbing: timings, health, serialization
# ---------------------------------------------------------------------------
class TestPlumbing:
    @pytest.fixture(scope="class")
    def chaotic_result(self, planted_graph):
        graph, _ = planted_graph
        return _run(
            graph,
            "distributed:inproc:2",
            backend_options=dict(
                chaos=dict(seed=13, **CHAOS_RATES), failures={4: (1,)}
            ),
        )

    def test_timings_carry_wire_counters(self, chaotic_result, oracle):
        _assert_same_chain(chaotic_result, oracle)
        t = chaotic_result.timings
        assert t.comm_messages > 0
        assert t.comm_bytes > 0
        assert t.comm_retries > 0
        assert t.shard_releases == 1

    def test_run_health_surfaces_fault_warnings(self, chaotic_result):
        health = run_health(chaotic_result)
        assert health["ok"]  # masked faults never fail the rollup
        assert health["comm_retries"] == chaotic_result.timings.comm_retries
        assert health["shard_releases"] == 1
        assert any("retransmission" in w for w in health["warnings"])
        assert any("re-lease" in w for w in health["warnings"])

    def test_clean_run_has_no_fault_warnings(self, oracle):
        health = run_health(oracle)
        assert health["ok"]
        assert health["warnings"] == []
        assert health["comm_retries"] == 0

    def test_serialize_v5_roundtrip(self, chaotic_result, tmp_path):
        path = os.path.join(tmp_path, "result.json")
        save_result(chaotic_result, path)
        back = load_result(path)
        for name in (
            "comm_messages", "comm_bytes", "comm_retries",
            "frames_quarantined", "shard_releases",
        ):
            assert getattr(back.timings, name) == getattr(
                chaotic_result.timings, name
            ), name

    def test_timings_merge_sums_wire_counters(self, chaotic_result):
        merged = chaotic_result.timings.merged_with(chaotic_result.timings)
        assert merged.comm_retries == 2 * chaotic_result.timings.comm_retries
        assert merged.shard_releases == 2


# ---------------------------------------------------------------------------
# Transport lifecycle hygiene
# ---------------------------------------------------------------------------
class TestTransportLifecycle:
    @pytest.mark.parametrize("transport", ["inproc", "pipes"])
    def test_close_reaps_threads(self, transport):
        before = threading.active_count()
        t = comm_module.TRANSPORTS.get(transport)(3)
        comm = ReliableComm(t)
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    comm.send((src, dst), source=src, dest=dst)
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    assert comm.recv(source=src, dest=dst) == (src, dst)
        t.close()
        t.close()  # idempotent
        assert threading.active_count() <= before

    def test_self_channel_rejected(self):
        with comm_module.TRANSPORTS.get("sim")(2) as t:
            with pytest.raises(TransportError):
                t.push(b"x", source=1, dest=1)

    def test_out_of_range_rank_rejected(self):
        with comm_module.TRANSPORTS.get("sim")(2) as t:
            with pytest.raises(TransportError):
                t.pull(source=0, dest=5)
