import gc
import math
import os
import signal
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ExactCounts,
    _decode_sketches,
    allgather,
    linear_reduce_sketches,
    tree_reduce_counts,
    tree_reduce_sketches,
)
from sketchlsh.core import MAX_TABLES, NULL_ID, ConfigError
from sketchlsh.sketch import TopkapiSketch, row_seeds_from_master

from oracles import (
    count_maps,
    count_payload,
    dense_record,
    exact_counts,
    free_ports,
    masked_payload,
    merge_count_maps,
    run_tcp_threads,
)

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
        assert len(sched.rounds) == expected_rounds
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


class TestTurns:
    """Inside ``run`` one rank computes at a time; a rank yields its turn
    only while it waits for a frame."""

    def test_one_rank_computes_between_collectives(self, rng):
        base = [random_sketch(rng) for _ in range(4)]
        inside, peak, guard = [0], [0], threading.Lock()

        def computing():
            with guard:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            time.sleep(0.002)  # free-running threads would enter meanwhile
            with guard:
                inside[0] -= 1

        def fn(tr):
            computing()
            gathered = allgather(tr, bytes([tr.rank]))
            computing()
            merged = tree_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]))
            computing()
            return gathered, None if merged is None else merged.to_bytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads would switch often if they could
        try:
            turned = SimulatedCluster(4).run(fn)
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1

        # the same function on plain threads over transports taken outside run
        cluster, unturned = SimulatedCluster(4), [None] * 4

        def plain(r):
            unturned[r] = fn(cluster.transport(r))

        threads = [threading.Thread(target=plain, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert turned == unturned and turned[0][1] is not None

    def test_rank_failing_mid_collective_fails_its_peers(self):
        seen = {}

        def fn(tr):
            if tr.rank == 2:
                def send(dst, frame):
                    raise RuntimeError("rank 2 breaks inside the allgather")

                tr.send = send
            try:
                return allgather(tr, b"x")
            except BaseException as exc:
                seen[tr.rank] = exc
                raise

        start = time.monotonic()
        with pytest.raises(TransportError, match="rank 2") as raised:
            SimulatedCluster(3, default_timeout=0.3).run(fn)
        assert time.monotonic() - start < 5.0
        assert raised.value is seen[0]
        assert isinstance(seen[1], TransportError) and "rank 2" in str(seen[1])
        assert isinstance(seen[2], RuntimeError)

    def test_timed_out_recv_raises_transport_error_and_frees_the_turn(self):
        cluster = SimulatedCluster(2, default_timeout=0.1)

        def fn(tr):
            return tr.recv(1) if tr.rank == 0 else None

        for _ in range(2):  # a second run gets the turn back
            with pytest.raises(TransportError, match="rank 0: timed out waiting for rank 1"):
                cluster.run(fn)

    def test_transports_outside_run_take_no_turn(self):
        assert allgather(SimulatedCluster(1).transport(0), b"solo") == [b"solo"]
        cluster = SimulatedCluster(2)
        cluster.transport(0).send(1, Frame(FRAME_REDUCE, 0, 0, b"x"))
        assert cluster.transport(1).recv(0).payload == b"x"


class SpyLock:
    """A turn that records each release and acquire."""

    def __init__(self):
        self.lock, self.events = threading.Lock(), []

    def acquire(self):
        self.lock.acquire()
        self.events.append("acquire")

    def release(self):
        self.events.append("release")
        self.lock.release()


def can_pin() -> bool:
    """Whether a thread may pin itself to a CPU of its mask here."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    ok = []

    def probe():
        try:
            os.sched_setaffinity(0, os.sched_getaffinity(0))
            ok.append(True)
        except OSError:
            pass

    t = threading.Thread(target=probe)
    t.start()
    t.join(timeout=10)
    return bool(ok)


def collective(rng):
    """One allgather and one tree reduce, as a batch runs them."""
    base = [random_sketch(rng) for _ in range(3)]

    def fn(tr):
        gathered = allgather(tr, bytes([tr.rank]) * 5)
        merged = tree_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]))
        return gathered, None if merged is None else merged.to_bytes()

    return fn


class TestOneCpuTurns:
    """A rank keeps its turn when its frame is already queued, and every
    rank thread runs on one CPU of the caller's mask."""

    def test_queued_frame_is_taken_without_yielding_the_turn(self):
        cluster, spy = SimulatedCluster(2), SpyLock()
        spy.lock.acquire()
        cluster.transport(0).send(1, Frame(FRAME_REDUCE, 0, 0, b"x"))
        assert SimulatedTransport(cluster, 1, spy).recv(0).payload == b"x"
        assert spy.events == [] and spy.lock.locked()

    def test_waiting_recv_yields_the_turn_once(self):
        cluster, spy = SimulatedCluster(2, default_timeout=5.0), SpyLock()
        spy.lock.acquire()
        free = []

        def late():
            free.append(not spy.lock.locked())
            cluster.transport(0).send(1, Frame(FRAME_REDUCE, 0, 0, b"y"))

        timer = threading.Timer(0.05, late)
        timer.start()
        assert SimulatedTransport(cluster, 1, spy).recv(0).payload == b"y"
        timer.join(timeout=10)
        assert free == [True]
        assert spy.events == ["release", "acquire"] and spy.lock.locked()

    def test_timed_out_recv_yields_the_turn_once(self):
        cluster, spy = SimulatedCluster(2, default_timeout=0.05), SpyLock()
        spy.lock.acquire()
        with pytest.raises(TransportError, match="rank 1: timed out waiting for rank 0"):
            SimulatedTransport(cluster, 1, spy).recv(0)
        assert spy.events == ["release", "acquire"] and spy.lock.locked()

    @pytest.mark.skipif(not can_pin(), reason="threads cannot be pinned here")
    def test_ranks_share_one_cpu_of_the_callers_mask(self):
        process_mask = os.sched_getaffinity(0)
        out = {}

        def caller():
            # a caller narrowed to its highest CPU: the ranks follow its
            # mask, not the process's
            os.sched_setaffinity(0, {max(process_mask)})
            mask = os.sched_getaffinity(0)
            out["seen"] = SimulatedCluster(3).run(lambda tr: os.sched_getaffinity(0))
            out["mask"], out["after"] = mask, os.sched_getaffinity(0)

        t = threading.Thread(target=caller)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert out["seen"] == [{max(process_mask)}] * 3
        assert out["after"] == out["mask"]

        seen = SimulatedCluster(2).run(lambda tr: os.sched_getaffinity(0))
        assert seen == [{min(process_mask)}] * 2
        assert os.sched_getaffinity(0) == process_mask

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
    @pytest.mark.parametrize("platform", ["no_setaffinity", "setaffinity_fails"])
    def test_unpinned_ranks_give_the_same_results(self, rng, monkeypatch, platform):
        fn = collective(rng)
        pinned = SimulatedCluster(3).run(fn)
        mask = os.sched_getaffinity(0)
        if platform == "no_setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity")
        else:
            def refuse(pid, cpus):
                raise PermissionError("not permitted")

            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        cluster = SimulatedCluster(3)
        assert cluster.run(fn) == pinned and pinned[0][1] is not None
        assert cluster.run(lambda tr: os.sched_getaffinity(0)) == [mask] * 3

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
    def test_ranks_without_getaffinity_run_unpinned(self, rng, monkeypatch):
        fn = collective(rng)
        pinned = SimulatedCluster(3).run(fn)
        mask, get_mask = os.sched_getaffinity(0), os.sched_getaffinity
        pins = []
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(cpus))
        cluster = SimulatedCluster(3)
        assert cluster.run(fn) == pinned and pinned[0][1] is not None
        assert cluster.run(lambda tr: get_mask(0)) == [mask] * 3
        assert pins == []


class TestKeptRankThreads:
    """Every cluster in the process runs its ranks on kept rank threads,
    started only when none is idle."""

    @staticmethod
    def count_starts(monkeypatch) -> list:
        starts, start = [], threading.Thread.start

        def spy(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return starts

    def test_each_rank_runs_under_its_name(self):
        names = SimulatedCluster(3).run(lambda tr: threading.current_thread().name)
        assert names == ["rank-0", "rank-1", "rank-2"]

    def test_batches_reuse_the_idle_threads(self, rng, monkeypatch):
        fn = collective(rng)
        want = SimulatedCluster(3).run(fn)
        starts = self.count_starts(monkeypatch)
        for _ in range(100):
            assert SimulatedCluster(2).run(lambda tr: tr.rank) == [0, 1]
        assert len(starts) <= 2
        assert SimulatedCluster(3).run(fn) == want

    def test_concurrent_callers_get_their_own_results(self, rng, monkeypatch):
        fn = collective(rng)
        want = SimulatedCluster(3).run(fn)
        starts = self.count_starts(monkeypatch)
        got = {}

        def caller(c):
            got[c] = [SimulatedCluster(3).run(fn) for _ in range(20)]

        callers = [threading.Thread(target=caller, args=(c,), name=f"caller-{c}") for c in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # callers and ranks switch often
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == {0: [want] * 20, 1: [want] * 20}
        assert len([name for name in starts if name.startswith("rank-")]) <= 6

    def test_a_failed_batch_leaves_the_threads_serving(self, rng):
        good = collective(rng)
        want = SimulatedCluster(3).run(good)

        def fn(tr):
            if tr.rank == 1:
                raise RuntimeError("rank 1 fails")
            return tr.recv(1)

        with pytest.raises(TransportError, match="rank 0: timed out waiting for rank 1"):
            SimulatedCluster(3, default_timeout=0.1).run(fn)
        assert SimulatedCluster(3).run(good) == want and want[0][1] is not None

    def test_idle_threads_keep_nothing_of_the_last_run(self):
        class Payload:
            pass

        payload = Payload()
        held = weakref.ref(payload)
        SimulatedCluster(2).run(lambda tr, p=payload: None)
        del payload
        gc.collect()
        assert held() is None

    @pytest.mark.skipif(not can_pin(), reason="threads cannot be pinned here")
    def test_kept_threads_hold_the_callers_mask_again(self):
        mask = os.sched_getaffinity(0)
        seen = SimulatedCluster(2).run(
            lambda tr: (threading.get_native_id(), os.sched_getaffinity(0))
        )
        assert [cpus for _, cpus in seen] == [{min(mask)}] * 2
        # the threads are idle now; their own masks are the caller's again
        assert [os.sched_getaffinity(tid) for tid, _ in seen] == [mask] * 2

    @pytest.mark.skipif(not can_pin(), reason="threads cannot be pinned here")
    def test_threads_serve_only_callers_of_their_mask(self, monkeypatch):
        # a caller narrowed to its highest CPU leaves its threads on that
        # CPU; a caller of the whole mask that cannot pin must not get them
        mask, m = os.sched_getaffinity(0), 24

        def narrowed():
            os.sched_setaffinity(0, {max(mask)})
            SimulatedCluster(m).run(lambda tr: tr.rank)

        t = threading.Thread(target=narrowed)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        monkeypatch.delattr(os, "sched_setaffinity")
        assert SimulatedCluster(m).run(lambda tr: os.sched_getaffinity(0)) == [mask] * m

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_starts_its_own_rank_threads(self):
        SimulatedCluster(2).run(lambda tr: tr.rank)  # the parent keeps idle threads
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = SimulatedCluster(2).run(lambda tr: allgather(tr, bytes([tr.rank])))
                code = 0 if got == [[b"\x00", b"\x01"]] * 2 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's cluster did not finish within 10 s")
        assert os.waitstatus_to_exitcode(status[1]) == 0


class TestBadRanks:
    """Ranks outside the cluster and unusable timeouts are config errors."""

    @pytest.mark.parametrize("rank", [2, 5, -1])
    def test_transport_for_a_rank_outside_the_cluster(self, rank):
        with pytest.raises(ConfigError, match=f"rank {rank} is outside"):
            SimulatedCluster(2).transport(rank)

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    @pytest.mark.parametrize("peer", [7, -1])
    def test_send_and_recv_with_a_peer_outside_the_cluster(self, backend, peer):
        if backend == "sim":
            tr = SimulatedCluster(2).transport(0)
        else:
            tr = TcpTransport(0, [("127.0.0.1", 0)])  # one rank: no socket opened
        frame = Frame(FRAME_REDUCE, 0, 0, b"x")
        with pytest.raises(ConfigError, match=f"rank 0: peer rank {peer} is outside"):
            tr.send(peer, frame)
        with pytest.raises(ConfigError, match=f"rank 0: peer rank {peer} is outside"):
            tr.recv(peer)
        with pytest.raises(TransportError, match="rank 0: cannot exchange frames with itself"):
            tr.send(0, frame)
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("timeout", [-1, 0, float("nan"), float("inf"), 1e300, None, "1"])
    def test_unusable_default_timeout(self, timeout):
        with pytest.raises(ConfigError, match="default_timeout"):
            SimulatedCluster(2, default_timeout=timeout)


class TestTreeReduce:
    def test_single_rank_identity(self, rng):
        s = random_sketch(rng)
        out = SimulatedCluster(1).run(lambda tr: tree_reduce_sketches(tr, TopkapiSketch.stack([s])))
        assert out[0] == TopkapiSketch.stack([s])

    def test_two_ranks_sum_counts(self):
        sketches = [cell_sketch(4, 5), cell_sketch(4, 3)]

        def fn(tr):
            return tree_reduce_sketches(tr, TopkapiSketch.stack([sketches[tr.rank]]))

        out = SimulatedCluster(2).run(fn)
        merged = out[0][0]
        assert (int(merged.ids[0, 0]), int(merged.counts[0, 0])) == (4, 8)
        assert out[1] is None

    def test_m8_merge_and_send_counts(self, rng):
        base = [random_sketch(rng) for _ in range(8)]
        stats = [ReduceStats() for _ in range(8)]

        def fn(tr):
            return tree_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]), stats=stats[tr.rank])

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
            return tree_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]), stats=stats[tr.rank])

        out = SimulatedCluster(m).run(fn)
        bound = math.ceil(math.log2(m)) if m > 1 else 0
        assert max(s.merge_rounds for s in stats) == bound
        assert out[0] is not None and all(o is None for o in out[1:])

    def test_deterministic_across_runs(self, rng):
        base = [random_sketch(rng) for _ in range(5)]

        def fn(tr):
            return tree_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]))

        a = SimulatedCluster(5).run(fn)[0][0].to_bytes()
        b = SimulatedCluster(5).run(fn)[0][0].to_bytes()
        assert a == b

    def test_shape_mismatch_aborts(self):
        def fn(tr):
            s = TopkapiSketch(1, 1 + tr.rank, row_seeds_from_master(3, 1))
            return tree_reduce_sketches(tr, TopkapiSketch.stack([s]))

        with pytest.raises(CollectiveError, match="peer's 1x2 sketch record .* this rank's 1x1"):
            SimulatedCluster(2, default_timeout=1.0).run(fn)

    def test_backends_bit_identical(self, rng):
        base = [random_sketch(rng) for _ in range(4)]

        def fn(tr):
            out = tree_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]))
            return None if out is None else out[0].to_bytes()

        sim = SimulatedCluster(4).run(fn)
        tcp = run_tcp_threads(4, fn)
        assert sim[0] == tcp[0] and sim[0] is not None

    def test_decoded_stack_equals_sent_stack_in_both_backends(self, rng):
        # rank 0 holds empty sketches, the merge identity, so it ends with
        # rank 1's stack as decoded: count-0 cells, ids past 2^63, null cells
        sent = TopkapiSketch.stack([random_sketch(rng) for _ in range(3)])
        sent.ids[0, 0, :3], sent.counts[0, 0, :3] = [(1 << 63) + 1, NULL_ID - 1, 4], [2, 0, 0]
        sent.ids[2], sent.counts[2] = NULL_ID, 0
        empty = TopkapiSketch(2, 8, SEEDS, members=3)

        def fn(tr):
            out = tree_reduce_sketches(tr, sent if tr.rank else empty)
            return None if out is None else (out.ids.copy(), out.counts.copy())

        for run in (SimulatedCluster(2).run, lambda fn: run_tcp_threads(2, fn)):
            ids, counts = run(fn)[0]
            assert np.array_equal(ids, sent.ids) and np.array_equal(counts, sent.counts)


    def test_payload_is_member_concatenation(self, rng):
        # a rank sends its batch as one sketch record: the header
        # once, one mask bit per cell of every member in turn, the two column
        # widths, then the ids and the counts of the set cells, members in turn
        base = [[random_sketch(rng) for _ in range(3)] for _ in range(2)]
        base[1][1].ids[0, 0], base[1][1].counts[0, 0] = 5, 0  # a count-0 cell travels
        sent = []

        def fn(tr):
            if tr.rank == 1:
                send = tr.send
                tr.send = lambda dst, frame: (sent.append(frame.payload), send(dst, frame))[1]
            return tree_reduce_sketches(tr, TopkapiSketch.stack(base[tr.rank]))

        out = SimulatedCluster(2).run(fn)
        head = 8 + 8 * base[1][0].rows
        stack = TopkapiSketch.stack(base[1])
        assert sent == [masked_payload(stack)]
        assert sent[0][:head] == base[1][0].to_bytes()[:head]
        live = np.concatenate([(s.ids != NULL_ID) | (s.counts > 0) for s in base[1]], axis=None)
        mask = np.packbits(live, bitorder="little").tobytes()  # 3 x 16 cells: 6 bytes
        assert sent[0][head : head + 6] == mask
        assert sent[0][head + 6 : head + 8] == bytes([1, 1])  # ids below 40, counts below 256
        assert len(sent[0]) == head + 8 + 2 * int(live.sum())
        assert out[0] == TopkapiSketch.stack([a.merge(b) for a, b in zip(*base)])


class TestLinearReduce:
    def test_single_rank_identity(self, rng):
        s = random_sketch(rng)
        out = SimulatedCluster(1).run(lambda tr: linear_reduce_sketches(tr, TopkapiSketch.stack([s])))
        assert out[0] == TopkapiSketch.stack([s])

    def test_two_ranks_match_tree(self):
        sketches = [cell_sketch(4, 5), cell_sketch(9, 3)]

        def lin(tr):
            return linear_reduce_sketches(tr, TopkapiSketch.stack([sketches[tr.rank]]))

        def tree(tr):
            return tree_reduce_sketches(tr, TopkapiSketch.stack([sketches[tr.rank]]))

        a = SimulatedCluster(2).run(lin)[0][0]
        b = SimulatedCluster(2).run(tree)[0][0]
        assert a == b

    def test_rank0_merges_m_minus_one(self, rng):
        m = 4
        base = [random_sketch(rng) for _ in range(m)]
        stats = [ReduceStats() for _ in range(m)]

        def fn(tr):
            return linear_reduce_sketches(tr, TopkapiSketch.stack([base[tr.rank]]), stats=stats[tr.rank])

        SimulatedCluster(m).run(fn)
        assert stats[0].merge_rounds == m - 1
        assert all(s.sends == 1 for s in stats[1:])


class TestExactCounts:
    def test_summed_adds_equal_keys(self):
        queries = np.array([1, 0, 1, 1, 0], dtype=np.int64)
        ids = np.array([9, 4, 2, 9, 4], dtype=np.uint64)
        counts = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        got = ExactCounts.summed(3, queries, ids, counts)
        assert count_maps(got) == [{4: 7}, {2: 3, 9: 5}, {}]
        assert got.indptr.tolist() == [0, 1, 3, 3]
        assert count_maps(ExactCounts.summed(2, queries[:0], ids[:0], counts[:0])) == [{}, {}]

    def test_merge_equals_dict_merge(self, rng):
        maps = [
            [{int(i): int(c) for i, c in rng.integers(1, 30, size=(6, 2))} for _ in range(4)]
            for _ in range(2)
        ]
        merged = exact_counts(maps[0]).merge(exact_counts(maps[1]))
        assert count_maps(merged) == merge_count_maps(*maps)

    def test_payload_layout(self):
        # query 0: {7: 3, 1: 2}, query 1: {}, query 2: {2^53 + 1: 1, 2^64 - 2: 5};
        # ids past 2^53 have no exact float64 value
        big = (1 << 53) + 1
        got = ExactCounts.summed(
            3,
            np.array([0, 2, 0, 2], dtype=np.int64),
            np.array([7, (1 << 64) - 2, 1, big], dtype=np.uint64),
            np.array([3, 5, 2, 1], dtype=np.uint64),
        )
        payload = struct.pack("<11Q", 2, 0, 2, 1, 7, big, (1 << 64) - 2, 2, 3, 1, 5)
        expected = [{7: 3, 1: 2}, {}, {big: 1, (1 << 64) - 2: 5}]
        assert got.to_bytes() == payload == count_payload(expected)
        assert count_maps(ExactCounts.from_bytes(payload, 3)) == count_maps(got)


class TestCountReduce:
    def test_sums_across_ranks(self):
        maps = [{1: 2, 5: 1}, {1: 3}, {9: 4}]

        def fn(tr):
            return tree_reduce_counts(tr, exact_counts([maps[tr.rank]]))

        out = SimulatedCluster(3).run(fn)
        assert count_maps(out[0]) == [{1: 5, 5: 1, 9: 4}]


REDUCERS = [tree_reduce_sketches, linear_reduce_sketches, tree_reduce_counts]


def cell_items(reduce, counts):
    """One rank's one-query batch for ``reduce``: id c + 1 holding counts[c].

    Built without decoding, so a count may pass the decoders' bound.
    """
    ids = np.arange(1, len(counts) + 1, dtype=np.uint64)
    counts = np.array(counts, dtype=np.uint64)
    if reduce is tree_reduce_counts:
        return ExactCounts.summed(1, np.zeros(ids.size, dtype=np.int64), ids, counts)
    stack = TopkapiSketch(1, ids.size, row_seeds_from_master(3, 1), members=1)
    stack.ids[0, 0], stack.counts[0, 0] = ids, counts
    return stack


def rank0_outcome(reduce, per_rank):
    """Rank 0's reduced counts of ``per_rank`` count lists, or the
    :class:`CollectiveError` it raised; every other rank returns None."""

    def fn(tr):
        try:
            return reduce(tr, cell_items(reduce, per_rank[tr.rank]))
        except CollectiveError as exc:
            return exc

    out = SimulatedCluster(len(per_rank), default_timeout=5.0).run(fn)
    assert all(o is None for o in out[1:])
    if isinstance(out[0], CollectiveError):
        return out[0]
    counts = out[0].counts.reshape(-1) if reduce is tree_reduce_counts else out[0].counts[0, 0]
    return counts.tolist()


class TestPeerCountBound:
    """No legitimate count passes the table count, so the decoders reject a
    peer count above ``MAX_TABLES`` and merges of bounded counts are exact."""

    @pytest.mark.parametrize("reduce", REDUCERS)
    def test_bound_is_inclusive(self, reduce):
        assert rank0_outcome(reduce, [[1], [MAX_TABLES]]) == [MAX_TABLES + 1]
        for peer in (MAX_TABLES + 1, (1 << 64) - 1):
            err = rank0_outcome(reduce, [[1], [peer]])
            assert isinstance(err, CollectiveError) and str(MAX_TABLES) in str(err)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        reduce=st.sampled_from(REDUCERS),
        per_rank=st.integers(2, 5).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(1, MAX_TABLES), min_size=3, max_size=3),
                min_size=m, max_size=m,
            )
        ),
    )
    def test_sums_are_exact(self, reduce, per_rank):
        # replay the schedule on Python ints: a payload holding a count past
        # the bound (a merged sum a rank forwards) is rejected, else rank 0
        # holds the exact sums
        m = len(per_rank)
        linear = reduce is linear_reduce_sketches
        schedule = ReductionSchedule.linear(m) if linear else ReductionSchedule.for_world(m)
        held = {r: list(c) for r, c in enumerate(per_rank)}
        rejected = False
        for pairs in schedule.rounds:
            for dst, src in pairs:
                sent = held.pop(src)
                rejected |= max(sent) > MAX_TABLES
                held[dst] = [a + b for a, b in zip(held[dst], sent)]
        got = rank0_outcome(reduce, per_rank)
        if rejected:
            assert isinstance(got, CollectiveError)
        else:
            assert got == held[0]


class TestWireFormat:
    def test_frame_layout_little_endian(self):
        frame = Frame(3, 0xAABBCCDD11223344, 7, b"payload")
        encoded = frame.encode()
        magic, ftype, batch, rnd, plen = struct.unpack("<IIQIQ", encoded[:28])
        assert magic == FRAME_MAGIC
        assert (ftype, batch, rnd, plen) == (3, 0xAABBCCDD11223344, 7, 7)
        assert encoded[28:] == b"payload"

    def test_malformed_reduce_payloads_are_collective_errors(self, rng):
        counts = count_payload([{1: 2, 7: 3}, {}])
        stack = masked_payload(TopkapiSketch.stack([random_sketch(rng), random_sketch(rng)]))
        one = masked_payload(TopkapiSketch.stack([random_sketch(rng)]))
        head = 8 + 8 * 2
        # a 1 x 3 stack of one: 3 mask bits, 5 of padding; its cell 1 holds id 9
        three = TopkapiSketch(1, 3, row_seeds_from_master(3, 1), members=1)
        three.ids[0, 0, 1] = 9
        small = masked_payload(three)
        mask_at = 8 + 8
        padded = bytearray(small)
        padded[mask_at] |= 0x10
        unset = bytearray(small)
        unset[mask_at] |= 0x01  # cell 0 set, but its id and count are missing
        null_id = small[: mask_at + 1] + bytes([8, 1]) + struct.pack("<QB", NULL_ID, 0)
        too_big = small[: mask_at + 1] + bytes([1, 8]) + struct.pack("<BQ", 9, MAX_TABLES + 1)
        wide = small[: mask_at + 1] + bytes([2, 1]) + struct.pack("<HB", 9, 0)
        bad = [
            (ExactCounts.from_bytes, counts[:-1], 2),  # cut inside a column
            (ExactCounts.from_bytes, counts[:12], 2),  # cut inside a length
            (ExactCounts.from_bytes, counts[:8], 2),  # second length missing
            (ExactCounts.from_bytes, counts[:-16], 2),  # lengths overrun the entries
            (ExactCounts.from_bytes, counts + b"\0" * 16, 2),  # lengths fall short
            (ExactCounts.from_bytes, b"\xff" * 8, 1),  # length past the payload
            (ExactCounts.from_bytes, count_payload([{1: 0}]), 1),  # a count of 0
            (ExactCounts.from_bytes, struct.pack("<5Q", 2, 7, 1, 3, 2), 1),  # ids descend
            (ExactCounts.from_bytes, struct.pack("<5Q", 2, 7, 7, 3, 2), 1),  # an id twice
            (_decode_sketches, stack[:-1], 2),
            (_decode_sketches, stack[:5], 2),
            (_decode_sketches, stack[: head + 3], 2),  # cut inside the mask
            (_decode_sketches, stack, 3),  # fewer members than expected
            (_decode_sketches, stack, 1),  # more members than expected
            (_decode_sketches, one + one, 2),  # two single stacks: a second header
            (_decode_sketches, stack + b"\0", 2),
            (_decode_sketches, stack + b"\0" * 16, 2),  # one cell more than the mask sets
            (_decode_sketches, bytes(unset), 1),  # one mask bit more than the cells
            (_decode_sketches, bytes(padded), 1),  # a padding bit set
            (_decode_sketches, wide, 1),  # an id column wider than it needs
            (_decode_sketches, small[: mask_at + 1] + bytes([1, 5, 9, 0]), 1),  # width 5
            (_decode_sketches, null_id, 1),  # a set cell of the null id, count 0
            (_decode_sketches, masked_payload(cell_sketch(NULL_ID, 5)), 1),  # and a count
            (_decode_sketches, too_big, 1),  # a count past the largest table count
            (_decode_sketches, dense_record(TopkapiSketch.stack([random_sketch(rng)] * 2)), 2),
        ]
        for decode, payload, expected in bad:
            with pytest.raises(CollectiveError):
                decode(payload, expected)
        assert count_maps(ExactCounts.from_bytes(counts, 2)) == [{1: 2, 7: 3}, {}]
        assert len(_decode_sketches(stack, 2)) == 2
        assert _decode_sketches(small, 1) == three


    def test_short_sketch_payload_fails_before_its_stack_is_allocated(self):
        # W = 1, B = 2^18 and 8 members declare a stack of 2^21 cells, 32 MB;
        # the 18 bytes hold no cell mask, so the decode fails without it
        payload = struct.pack("<IIQ", 1, 1 << 18, 7) + bytes([1, 1])
        tracemalloc.start()
        try:
            with pytest.raises(CollectiveError, match="shorter than"):
                _decode_sketches(payload, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_mismatched_sketch_record_fails_before_its_stack_is_allocated(self):
        # a 131,090-byte record of a 1 x 2^20 sketch would decode to a 16 MiB
        # stack; its header alone shows it is not the receiver's 2 x 8 stack
        payload = TopkapiSketch(1, 1 << 20, row_seeds_from_master(3, 1), members=1).to_bytes()
        assert len(payload) == 131_090

        def fn(tr):
            if tr.rank:
                return tr.send(0, Frame(FRAME_REDUCE, 0, 0, payload))
            return tree_reduce_sketches(tr, TopkapiSketch(2, 8, SEEDS, members=1))

        tracemalloc.start()
        try:
            with pytest.raises(CollectiveError, match="1x1048576 .* this rank's 2x8"):
                SimulatedCluster(2, default_timeout=1.0).run(fn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sketch_record_with_other_row_seeds_is_a_collective_error(self, rng):
        sent = TopkapiSketch.stack([random_sketch(rng)])
        reseeded = TopkapiSketch(2, 8, row_seeds_from_master(8, 2), members=1)

        def fn(tr):
            return tree_reduce_sketches(tr, reseeded if tr.rank == 0 else sent)

        with pytest.raises(CollectiveError, match="2x8 sketch record .* 2x8 stack"):
            SimulatedCluster(2, default_timeout=1.0).run(fn)


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

    def check(self, monkeypatch, m, reducer, rounds, items, merge, encode, state=None):
        """``state``, if given, is what the replay runs on in place of ``items``."""
        out, sent, received, stats = self.run_recorded(monkeypatch, m, reducer, items)
        frames, final = _replay_reduce(rounds, items if state is None else state, merge, encode)
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
            merge=lambda a, b: a.merge(b), encode=masked_payload,
        )
        assert got.to_bytes() == final.to_bytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_count_frames(self, monkeypatch, rng, m):
        maps = [
            [{int(i): int(c) for i, c in rng.integers(1, 30, size=(6, 2))} for _ in range(2)]
            for _ in range(m)
        ]
        got, final = self.check(
            monkeypatch, m, tree_reduce_counts, self.tree_rounds(m),
            [exact_counts(x) for x in maps], merge=merge_count_maps, encode=count_payload,
            state=maps,
        )
        assert count_maps(got) == final

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

    def test_listen_port_already_bound(self):
        with socket.create_server(("127.0.0.1", 0)) as occupant:
            members = [occupant.getsockname()] + [("127.0.0.1", p) for p in free_ports(1)]
            self.assert_closes_its_sockets(
                lambda: TcpTransport(0, members, connect_timeout=0.3),
                r"rank 0: cannot listen on 127\.0\.0\.1:%d" % members[0][1],
            )

    def test_higher_rank_never_connects(self):
        # rank 1 of 3 dials a bare listener standing in for rank 0, then
        # waits in vain for rank 2: a listener and a dialled socket to close
        with socket.create_server(("127.0.0.1", 0)) as stand_in:
            members = [stand_in.getsockname()] + [("127.0.0.1", p) for p in free_ports(2)]
            self.assert_closes_its_sockets(
                lambda: TcpTransport(1, members, connect_timeout=0.3), r"ranks \[2\] never connected"
            )
