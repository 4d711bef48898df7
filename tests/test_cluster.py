import gc
import math
import socket
import struct
import warnings

import numpy as np
import pytest

from sketchlsh.cluster import (
    FRAME_MAGIC,
    FRAME_REDUCE,
    Frame,
    CollectiveError,
    ReduceStats,
    ReductionSchedule,
    SimulatedCluster,
    SimulatedTransport,
    TcpTransport,
    TransportError,
    _decode_count_maps,
    _decode_sketches,
    _encode_count_maps,
    allgather,
    linear_reduce_sketches,
    tree_reduce_counts,
    tree_reduce_sketches,
)
from sketchlsh.sketch import ShapeMismatchError, TopkapiSketch, row_seeds_from_master

from oracles import free_ports, run_tcp_threads

SEEDS = row_seeds_from_master(7, 2)


def cell_sketch(item, count):
    s = TopkapiSketch(1, 1, row_seeds_from_master(3, 1))
    if count:
        s.ids[0, 0] = np.uint64(item)
        s.counts[0, 0] = np.uint64(count)
    return s


def random_sketch(rng):
    s = TopkapiSketch(2, 8, SEEDS)
    s.insert_many(rng.integers(0, 40, size=200, dtype=np.uint64))
    return s


class TestSchedule:
    def test_pure_function_of_world_size(self):
        assert ReductionSchedule.for_world(6) == ReductionSchedule.for_world(6)

    def test_single_rank_has_no_rounds(self):
        assert ReductionSchedule.for_world(1).rounds == ()

    @pytest.mark.parametrize("m", list(range(1, 18)))
    def test_round_count_and_termination(self, m):
        sched = ReductionSchedule.for_world(m)
        expected_rounds = math.ceil(math.log2(m)) if m > 1 else 0
        assert sched.num_rounds == expected_rounds
        # every rank except 0 sends exactly once; receivers bounded by rounds
        senders = [src for rounds in sched.rounds for _, src in rounds]
        assert sorted(senders) == list(range(1, m))
        merges_per_rank = [0] * m
        for rounds in sched.rounds:
            for dst, _ in rounds:
                merges_per_rank[dst] += 1
        if m > 1:
            assert max(merges_per_rank) == expected_rounds
            assert merges_per_rank[0] == expected_rounds


class TestAllgather:
    def test_single_rank(self):
        cluster = SimulatedCluster(1)
        out = cluster.run(lambda tr: allgather(tr, b"solo"))
        assert out[0] == [b"solo"]

    def test_rank_ordered_concatenation(self):
        cluster = SimulatedCluster(4)
        out = cluster.run(lambda tr: allgather(tr, bytes([tr.rank])))
        for per_rank in out:
            assert per_rank == [b"\x00", b"\x01", b"\x02", b"\x03"]

    def test_backends_agree(self, rng):
        payloads = [rng.integers(0, 256, size=50).astype(np.uint8).tobytes() for _ in range(3)]

        def fn(tr):
            return allgather(tr, payloads[tr.rank])

        sim = SimulatedCluster(3).run(fn)
        tcp = run_tcp_threads(3, fn)
        assert sim == tcp

    def test_missing_rank_diagnosed(self):
        cluster = SimulatedCluster(3, default_timeout=0.3)

        def fn(tr):
            if tr.rank == 2:
                return None  # never participates
            return allgather(tr, b"x")

        with pytest.raises(TransportError, match="rank 2"):
            cluster.run(fn)

    def test_desync_detected(self):
        cluster = SimulatedCluster(2, default_timeout=2.0)

        def fn(tr):
            return allgather(tr, b"x", batch_id=tr.rank)  # ranks disagree

        with pytest.raises(CollectiveError):
            cluster.run(fn)


class TestTreeReduce:
    def test_single_rank_identity(self, rng):
        s = random_sketch(rng)
        out = SimulatedCluster(1).run(lambda tr: tree_reduce_sketches(tr, [s]))
        assert out[0] == [s]

    def test_two_ranks_sum_counts(self):
        sketches = [cell_sketch(4, 5), cell_sketch(4, 3)]

        def fn(tr):
            return tree_reduce_sketches(tr, [sketches[tr.rank]])

        out = SimulatedCluster(2).run(fn)
        merged = out[0][0]
        assert (int(merged.ids[0, 0]), int(merged.counts[0, 0])) == (4, 8)
        assert out[1] is None

    def test_m8_merge_and_send_counts(self, rng):
        base = [random_sketch(rng) for _ in range(8)]
        stats = [ReduceStats() for _ in range(8)]

        def fn(tr):
            return tree_reduce_sketches(tr, [base[tr.rank]], stats=stats[tr.rank])

        SimulatedCluster(8).run(fn)
        assert stats[0].merge_rounds == 3
        assert stats[0].sends == 0
        assert stats[7].merge_rounds == 0
        assert stats[7].sends == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16])
    def test_merge_round_bound(self, m, rng):
        base = [random_sketch(rng) for _ in range(m)]
        stats = [ReduceStats() for _ in range(m)]

        def fn(tr):
            return tree_reduce_sketches(tr, [base[tr.rank]], stats=stats[tr.rank])

        out = SimulatedCluster(m).run(fn)
        bound = math.ceil(math.log2(m)) if m > 1 else 0
        assert max(s.merge_rounds for s in stats) == bound
        assert out[0] is not None and all(o is None for o in out[1:])

    def test_deterministic_across_runs(self, rng):
        base = [random_sketch(rng) for _ in range(5)]

        def fn(tr):
            return tree_reduce_sketches(tr, [base[tr.rank]])

        a = SimulatedCluster(5).run(fn)[0][0].to_bytes()
        b = SimulatedCluster(5).run(fn)[0][0].to_bytes()
        assert a == b

    def test_shape_mismatch_aborts(self):
        def fn(tr):
            s = TopkapiSketch(1, 1 + tr.rank, row_seeds_from_master(3, 1))
            return tree_reduce_sketches(tr, [s])

        with pytest.raises(ShapeMismatchError):
            SimulatedCluster(2, default_timeout=1.0).run(fn)

    def test_backends_bit_identical(self, rng):
        base = [random_sketch(rng) for _ in range(4)]

        def fn(tr):
            out = tree_reduce_sketches(tr, [base[tr.rank]])
            return None if out is None else out[0].to_bytes()

        sim = SimulatedCluster(4).run(fn)
        tcp = run_tcp_threads(4, fn)
        assert sim[0] == tcp[0] and sim[0] is not None


    def test_payload_is_member_concatenation(self, rng):
        # a rank sends its batch as one stack; the bytes are its members' wire forms
        base = [[random_sketch(rng) for _ in range(3)] for _ in range(2)]
        sent = []

        def fn(tr):
            if tr.rank == 1:
                send = tr.send
                tr.send = lambda dst, frame: (sent.append(frame.payload), send(dst, frame))[1]
            return tree_reduce_sketches(tr, TopkapiSketch.stack(base[tr.rank]))

        out = SimulatedCluster(2).run(fn)
        assert sent == [b"".join(s.to_bytes() for s in base[1])]
        assert out[0] == [a.merge(b) for a, b in zip(*base)]


class TestLinearReduce:
    def test_single_rank_identity(self, rng):
        s = random_sketch(rng)
        out = SimulatedCluster(1).run(lambda tr: linear_reduce_sketches(tr, [s]))
        assert out[0] == [s]

    def test_two_ranks_match_tree(self):
        sketches = [cell_sketch(4, 5), cell_sketch(9, 3)]

        def lin(tr):
            return linear_reduce_sketches(tr, [sketches[tr.rank]])

        def tree(tr):
            return tree_reduce_sketches(tr, [sketches[tr.rank]])

        a = SimulatedCluster(2).run(lin)[0][0]
        b = SimulatedCluster(2).run(tree)[0][0]
        assert a == b

    def test_rank0_merges_m_minus_one(self, rng):
        m = 4
        base = [random_sketch(rng) for _ in range(m)]
        stats = [ReduceStats() for _ in range(m)]

        def fn(tr):
            return linear_reduce_sketches(tr, [base[tr.rank]], stats=stats[tr.rank])

        SimulatedCluster(m).run(fn)
        assert stats[0].merge_rounds == m - 1
        assert all(s.sends == 1 for s in stats[1:])


class TestCountReduce:
    def test_sums_across_ranks(self):
        maps = [{1: 2, 5: 1}, {1: 3}, {9: 4}]

        def fn(tr):
            return tree_reduce_counts(tr, [maps[tr.rank]])

        out = SimulatedCluster(3).run(fn)
        assert out[0] == [{1: 5, 5: 1, 9: 4}]


class TestWireFormat:
    def test_frame_layout_little_endian(self):
        frame = Frame(3, 0xAABBCCDD11223344, 7, b"payload")
        encoded = frame.encode()
        magic, ftype, batch, rnd, plen = struct.unpack("<IIQIQ", encoded[:28])
        assert magic == FRAME_MAGIC
        assert (ftype, batch, rnd, plen) == (3, 0xAABBCCDD11223344, 7, 7)
        assert encoded[28:] == b"payload"

    def test_malformed_reduce_payloads_are_collective_errors(self, rng):
        counts = _encode_count_maps([{1: 2, 7: 3}, {}])
        stack = TopkapiSketch.stack([random_sketch(rng), random_sketch(rng)]).to_bytes()
        bad = [
            (_decode_count_maps, counts[:-1], 2),  # cut inside an entry
            (_decode_count_maps, counts[:12], 2),  # cut inside a length
            (_decode_count_maps, counts[:8], 2),  # second map missing
            (_decode_count_maps, b"\xff" * 8, 1),  # length past the payload
            (_decode_sketches, stack[:-1], 2),
            (_decode_sketches, stack[:5], 2),
            (_decode_sketches, stack, 3),  # fewer members than expected
            (_decode_sketches, stack + b"\0", 2),
        ]
        for decode, payload, expected in bad:
            with pytest.raises(CollectiveError):
                decode(payload, expected)
        assert _decode_count_maps(counts, 2) == [{1: 2, 7: 3}, {}]
        assert len(_decode_sketches(stack, 2)) == 2


def _replay_reduce(rounds, items, merge, encode):
    """A reduction schedule replayed in one thread: the frames it must send,
    as (sender, receiver, round, payload), and rank 0's final items."""
    state = list(items)
    frames = []
    for rnd, pairs in enumerate(rounds):
        for dst, src in pairs:
            frames.append((src, dst, rnd, encode(state[src])))
            state[dst] = merge(state[dst], state[src])
    return frames, state[0]


def _merge_counts(a, b):
    out = []
    for x, y in zip(a, b):
        merged = dict(x)
        for i, c in y.items():
            merged[i] = merged.get(i, 0) + c
        out.append(merged)
    return out


class TestReduceFrames:
    """Every reduce frame and every rank's counters, against the schedule."""

    @staticmethod
    def tree_rounds(m):
        return ReductionSchedule.for_world(m).rounds

    @staticmethod
    def linear_rounds(m):
        return (tuple((0, src) for src in range(1, m)),) if m > 1 else ()

    def run_recorded(self, monkeypatch, m, reducer, items):
        sent, received = [], [[] for _ in range(m)]
        send, recv = SimulatedTransport.send, SimulatedTransport.recv

        def recording_send(tr, dst, frame):
            assert (frame.frame_type, frame.batch_id) == (FRAME_REDUCE, 77)
            sent.append((tr.rank, dst, frame.round, frame.payload))
            return send(tr, dst, frame)

        def recording_recv(tr, src):
            frame = recv(tr, src)
            received[tr.rank].append((src, frame.round))
            return frame

        monkeypatch.setattr(SimulatedTransport, "send", recording_send)
        monkeypatch.setattr(SimulatedTransport, "recv", recording_recv)
        stats = [ReduceStats() for _ in range(m)]
        out = SimulatedCluster(m).run(
            lambda tr: reducer(tr, items[tr.rank], batch_id=77, stats=stats[tr.rank])
        )
        return out, sorted(sent), received, stats

    def check(self, monkeypatch, m, reducer, rounds, items, merge, encode):
        out, sent, received, stats = self.run_recorded(monkeypatch, m, reducer, items)
        frames, final = _replay_reduce(rounds, items, merge, encode)
        assert sent == sorted(frames)
        for rank in range(m):
            incoming = [(src, rnd) for src, dst, rnd, _ in frames if dst == rank]
            assert received[rank] == incoming
            payload_out = [len(p) for src, _, _, p in frames if src == rank]
            payload_in = [len(p) for _, dst, _, p in frames if dst == rank]
            s = stats[rank]
            assert (s.sends, s.bytes_sent) == (len(payload_out), sum(payload_out))
            assert (s.recvs, s.bytes_received) == (len(payload_in), sum(payload_in))
            assert s.merge_rounds == len(payload_in)
        assert all(o is None for o in out[1:])
        return out[0], final

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("linear", [False, True], ids=["tree", "linear"])
    def test_sketch_frames(self, monkeypatch, rng, m, linear):
        items = [TopkapiSketch.stack([random_sketch(rng) for _ in range(3)]) for _ in range(m)]
        reducer = linear_reduce_sketches if linear else tree_reduce_sketches
        rounds = self.linear_rounds(m) if linear else self.tree_rounds(m)
        got, final = self.check(
            monkeypatch, m, reducer, rounds, items,
            merge=lambda a, b: a.merge(b), encode=lambda s: s.to_bytes(),
        )
        assert TopkapiSketch.stack(got).to_bytes() == final.to_bytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_count_frames(self, monkeypatch, rng, m):
        items = [
            [{int(i): int(c) for i, c in rng.integers(1, 30, size=(6, 2))} for _ in range(2)]
            for _ in range(m)
        ]
        got, final = self.check(
            monkeypatch, m, tree_reduce_counts, self.tree_rounds(m), items,
            merge=_merge_counts, encode=_encode_count_maps,
        )
        assert got == final

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_linear_is_rank0_receiving_in_order(self, monkeypatch, rng, m):
        items = [TopkapiSketch.stack([random_sketch(rng)]) for _ in range(m)]
        _, sent, received, _ = self.run_recorded(monkeypatch, m, linear_reduce_sketches, items)
        assert received[0] == [(src, 0) for src in range(1, m)]
        assert [(src, dst, rnd) for src, dst, rnd, _ in sent] == [(r, 0, 0) for r in range(1, m)]


class TestTcpSetupFailure:
    """A transport that fails to connect closes every socket it opened."""

    def assert_closes_its_sockets(self, connect, match):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(TransportError, match=match):
                connect()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unreachable_lower_rank(self):
        members = [("127.0.0.1", p) for p in free_ports(2)]
        self.assert_closes_its_sockets(
            lambda: TcpTransport(1, members, connect_timeout=0.3), "cannot reach rank 0"
        )

    def test_higher_rank_never_connects(self):
        # rank 1 of 3 dials a bare listener standing in for rank 0, then
        # waits in vain for rank 2: a listener and a dialled socket to close
        with socket.create_server(("127.0.0.1", 0)) as stand_in:
            members = [stand_in.getsockname()] + [("127.0.0.1", p) for p in free_ports(2)]
            self.assert_closes_its_sockets(
                lambda: TcpTransport(1, members, connect_timeout=0.3), r"ranks \[2\] never connected"
            )
