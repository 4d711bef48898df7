"""Message passing between ranks and the collective operations built on it.

Two interchangeable backends implement the same framed transport contract:
an in-process simulated cluster (deterministic FIFO queues, one thread per
rank, all pinned to one CPU where the platform allows; one rank computes at
a time and yields only while it waits for a frame not yet queued) and a TCP
mesh (length-prefixed frames over sockets). Collectives are bulk-synchronous:
every rank calls them in the same order, and any missing peer surfaces as a
transport error naming the rank.

Every reduction collective runs one loop over a schedule of rounds of
(receiver, sender) pairs: the sender ships its items and goes inactive, the
receiver merges them (local first, received second). The tree schedule
pairs the active ranks up in ascending order each round, so only rank 0
remains after ceil(log2(m)) rounds; the linear baseline is a single round
in which rank 0 receives from ranks 1..m-1 in rank order.
"""

from __future__ import annotations

import contextlib
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import MAX_TABLES, ConfigError, SketchLshError
from .sketch import SketchFormatError, TopkapiSketch

FRAME_MAGIC = 0x534B4C48  # "SKLH"
FRAME_HELLO = 1
FRAME_ALLGATHER = 2
FRAME_REDUCE = 3

_HEADER = struct.Struct("<IIQIQ")  # magic, frame_type, batch_id, round, payload_len


class TransportError(SketchLshError):
    """Delivery failure or timeout; the message names the missing peer."""


class CollectiveError(SketchLshError):
    """Schedule desynchronization or shape mismatch inside a collective."""


@dataclass(frozen=True)
class Frame:
    frame_type: int
    batch_id: int
    round: int
    payload: bytes

    def encode(self) -> bytes:
        return (
            _HEADER.pack(FRAME_MAGIC, self.frame_type, self.batch_id, self.round, len(self.payload))
            + self.payload
        )


class Transport:
    """Point-to-point ordered, reliable frame delivery between ranks."""

    rank: int
    world_size: int

    def send(self, dst: int, frame: Frame) -> None:
        raise NotImplementedError

    def recv(self, src: int) -> Frame:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _peer(self, peer: int) -> int:
        """``peer``, checked to be another rank of this cluster."""
        if peer == self.rank:
            raise TransportError(f"rank {self.rank}: cannot exchange frames with itself")
        if not 0 <= peer < self.world_size:
            raise ConfigError(
                f"rank {self.rank}: peer rank {peer} is outside the cluster's"
                f" ranks 0..{self.world_size - 1}"
            )
        return peer


class SimulatedCluster:
    """In-process cluster: one FIFO queue per (sender, receiver) pair."""

    def __init__(self, world_size: int, default_timeout: float = 30.0):
        if world_size < 1:
            raise ConfigError("world_size must be >= 1")
        timeout_ok = isinstance(default_timeout, (int, float))
        if not (timeout_ok and 0 < default_timeout <= threading.TIMEOUT_MAX):
            raise ConfigError(
                f"default_timeout must be seconds in (0, {threading.TIMEOUT_MAX:g}],"
                f" got {default_timeout!r}"
            )
        self.world_size = world_size
        self.default_timeout = default_timeout
        self._queues = {
            (s, d): queue.SimpleQueue()
            for s in range(world_size)
            for d in range(world_size)
            if s != d
        }
        self._turn = threading.Lock()

    def transport(self, rank: int) -> "SimulatedTransport":
        return SimulatedTransport(self, rank)

    def run(self, fn: Callable[["SimulatedTransport"], object]) -> list[object]:
        """Run ``fn(transport)`` on every rank in its own thread.

        One rank computes at a time: it holds the turn until ``fn`` returns
        or raises and yields it only while ``recv`` waits for a frame not
        yet queued. Sends never block, so a rank that can run gets the
        turn, and frames, results and errors are those of one schedule of
        free-running threads.

        Each rank thread inherits the caller's affinity mask and pins itself
        to its lowest CPU before it takes the turn, so the ranks' data stays
        in one core's caches; as one rank computes at a time, no parallelism
        is lost. Concurrent clusters in one process share that CPU. The
        caller's thread keeps its mask. Where the platform lacks the one pin
        call or refuses it, the ranks run unpinned with the same results.

        Propagates the first rank failure after all threads finish (blocked
        peers fail via their receive timeouts).
        """
        results: list[object] = [None] * self.world_size
        errors: list[tuple[int, BaseException]] = []

        def runner(r: int) -> None:
            with contextlib.suppress(AttributeError, OSError):
                # this thread only: 0 is the calling thread
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            with self._turn:
                try:
                    results[r] = fn(SimulatedTransport(self, r, self._turn))
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    errors.append((r, exc))

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
            for r in range(self.world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            errors.sort(key=lambda e: e[0])
            rank, exc = errors[0]
            raise exc
        return results


class SimulatedTransport(Transport):
    def __init__(self, cluster: SimulatedCluster, rank: int, turn: threading.Lock | None = None):
        if not (0 <= rank < cluster.world_size):
            raise ConfigError(
                f"rank {rank} is outside the cluster's ranks 0..{cluster.world_size - 1}"
            )
        self._cluster = cluster
        self._turn = turn
        self.rank = rank
        self.world_size = cluster.world_size

    def send(self, dst: int, frame: Frame) -> None:
        self._cluster._queues[(self.rank, self._peer(dst))].put(frame)

    def recv(self, src: int) -> Frame:
        """The next frame from ``src``; a queued frame is taken without
        yielding the turn, and only a wait for one gives the turn up."""
        inbox = self._cluster._queues[(self._peer(src), self.rank)]
        with contextlib.suppress(queue.Empty):
            return inbox.get_nowait()
        if self._turn is not None:
            self._turn.release()
        try:
            return inbox.get(timeout=self._cluster.default_timeout)
        except queue.Empty:
            raise TransportError(
                f"rank {self.rank}: timed out waiting for rank {src}"
            ) from None
        finally:
            if self._turn is not None:
                self._turn.acquire()


class TcpTransport(Transport):
    """Full-mesh TCP transport; membership maps rank -> (host, port).

    Rank r listens on its own port, dials every lower rank, and accepts
    connections from higher ranks, identifying peers by a hello frame.
    """

    def __init__(
        self,
        rank: int,
        membership: Sequence[tuple[str, int]],
        connect_timeout: float = 20.0,
        io_timeout: float = 30.0,
    ):
        self.rank, self.world_size = rank, len(membership)
        if not 0 <= rank < self.world_size:
            raise ConfigError(f"rank {rank} is outside the cluster's ranks 0..{self.world_size - 1}")
        self._socks: dict[int, socket.socket] = {}
        self._bufs: dict[int, bytearray] = {}
        self._listener: socket.socket | None = None
        if self.world_size == 1:
            return
        try:
            self._connect(membership, connect_timeout, io_timeout)
        except BaseException:
            self.close()  # the listener and every socket dialled or accepted so far
            raise

    def _connect(
        self, membership: Sequence[tuple[str, int]], connect_timeout: float, io_timeout: float
    ) -> None:
        rank = self.rank
        host, port = membership[rank]
        try:
            self._listener = listener = socket.create_server((host, port), backlog=self.world_size)
        except OSError as exc:
            raise TransportError(f"rank {rank}: cannot listen on {host}:{port}: {exc}") from None

        deadline = time.monotonic() + connect_timeout
        for peer in range(rank):
            self._socks[peer] = self._dial(membership[peer], deadline, peer)
            self._bufs[peer] = bytearray()
        listener.settimeout(connect_timeout)
        try:
            while len(self._socks) < self.world_size - 1:
                conn, _ = listener.accept()
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.settimeout(io_timeout)
                    # the buffer may capture bytes of the peer's next frame that
                    # arrived coalesced with the hello; it must live on
                    buf = bytearray()
                    hello = self._read_frame(conn, buf)
                    if hello.frame_type != FRAME_HELLO or len(hello.payload) != 4:
                        raise TransportError("peer did not introduce itself")
                    (peer,) = struct.unpack("<I", hello.payload)
                    if not rank < peer < self.world_size or peer in self._socks:
                        raise TransportError(f"rank {rank}: unexpected hello from rank {peer}")
                except BaseException:
                    conn.close()
                    raise
                self._socks[peer] = conn
                self._bufs[peer] = buf
        except socket.timeout:
            missing = sorted(set(range(self.world_size)) - set(self._socks) - {rank})
            raise TransportError(
                f"rank {rank}: ranks {missing} never connected"
            ) from None
        for sock in self._socks.values():
            sock.settimeout(io_timeout)

    def _dial(self, addr: tuple[str, int], deadline: float, peer: int) -> socket.socket:
        last: Exception | None = None
        while time.monotonic() < deadline:
            sock = None
            try:
                sock = socket.create_connection(addr, timeout=2.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(
                    Frame(FRAME_HELLO, 0, 0, struct.pack("<I", self.rank)).encode()
                )
                return sock
            except OSError as exc:
                if sock is not None:
                    sock.close()
                last = exc
                time.sleep(0.05)
        raise TransportError(f"rank {self.rank}: cannot reach rank {peer}: {last}")

    def _read_exact(self, sock: socket.socket, buf: bytearray, n: int, peer: int = -1) -> bytes:
        while len(buf) < n:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                raise TransportError(
                    f"rank {self.rank}: timed out waiting for rank {peer}"
                ) from None
            except OSError as exc:
                raise TransportError(
                    f"rank {self.rank}: receive from rank {peer} failed: {exc}"
                ) from None
            if not chunk:
                raise TransportError(f"rank {self.rank}: rank {peer} closed the connection")
            buf.extend(chunk)
        out = bytes(buf[:n])
        del buf[:n]
        return out

    def _read_frame(self, sock: socket.socket, buf: bytearray, peer: int = -1) -> Frame:
        header = self._read_exact(sock, buf, _HEADER.size, peer)
        magic, ftype, batch_id, rnd, plen = _HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            raise TransportError(f"rank {self.rank}: bad frame magic from rank {peer}")
        payload = self._read_exact(sock, buf, plen, peer)
        return Frame(ftype, batch_id, rnd, payload)

    def send(self, dst: int, frame: Frame) -> None:
        try:
            self._socks[self._peer(dst)].sendall(frame.encode())
        except OSError as exc:
            raise TransportError(f"rank {self.rank}: send to rank {dst} failed: {exc}") from None

    def recv(self, src: int) -> Frame:
        return self._read_frame(self._socks[self._peer(src)], self._bufs[src], peer=src)

    def close(self) -> None:
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass
        if self._listener is not None:
            self._listener.close()


# -- reduction schedule -----------------------------------------------------------


@dataclass(frozen=True)
class ReductionSchedule:
    """Merge schedule: per round, (receiver, sender) pairs; a sender goes
    inactive after its send, and rank 0 ends with the result.

    :meth:`for_world` is the tree: active ranks are kept sorted, consecutive
    pairs (a, b) merge b into a and deactivate b, and an odd rank count
    leaves the last active rank idle for that round, so rank 0 is the only
    one left after ceil(log2(m)) rounds. :meth:`linear` is the baseline: one
    round in which rank 0 receives from every other rank in rank order.
    """

    world_size: int
    rounds: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.world_size < 1:
            raise ConfigError("world_size must be >= 1")

    @classmethod
    def for_world(cls, world_size: int) -> "ReductionSchedule":
        rounds: list[tuple[tuple[int, int], ...]] = []
        active = list(range(world_size))
        while len(active) > 1:
            pairs = tuple(
                (active[i], active[i + 1]) for i in range(0, len(active) - 1, 2)
            )
            rounds.append(pairs)
            # receivers survive; an unpaired trailing rank has an even index
            # and therefore survives (idles) automatically
            active = [active[i] for i in range(0, len(active), 2)]
        return cls(world_size=world_size, rounds=tuple(rounds))

    @classmethod
    def linear(cls, world_size: int) -> "ReductionSchedule":
        pairs = tuple((0, src) for src in range(1, world_size))
        return cls(world_size=world_size, rounds=(pairs,) if pairs else ())


@dataclass
class ReduceStats:
    """Per-rank instrumentation for one reduction collective."""

    merge_rounds: int = 0
    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


# -- collectives --------------------------------------------------------------------


def _check(frame: Frame, ftype: int, batch_id: int, rnd: int, src: int) -> None:
    if frame.frame_type != ftype or frame.batch_id != batch_id or frame.round != rnd:
        raise CollectiveError(
            f"desynchronized collective: rank {src} sent "
            f"(type={frame.frame_type}, batch={frame.batch_id}, round={frame.round}), "
            f"expected (type={ftype}, batch={batch_id}, round={rnd})"
        )


def allgather(transport: Transport, payload: bytes, batch_id: int = 0) -> list[bytes]:
    """Every rank contributes bytes; all ranks get the rank-ordered list."""
    m = transport.world_size
    out: list[bytes | None] = [None] * m
    out[transport.rank] = payload
    for off in range(1, m):
        dst = (transport.rank + off) % m
        src = (transport.rank - off) % m
        transport.send(dst, Frame(FRAME_ALLGATHER, batch_id, off, payload))
        frame = transport.recv(src)
        _check(frame, FRAME_ALLGATHER, batch_id, off, src)
        out[src] = frame.payload
    return list(out)  # type: ignore[return-value]


def _check_bound(counts: np.ndarray, what: str) -> None:
    """No legitimate count passes the table count, and merges of bounded counts cannot wrap."""
    if np.any(counts > MAX_TABLES):
        raise CollectiveError(f"{what} holds a count above {MAX_TABLES}, the largest table count")


def _decode_sketches(payload: bytes, expected: int) -> TopkapiSketch:
    """The stack of ``expected`` members whose record
    (:meth:`TopkapiSketch.to_bytes`) is the whole payload."""
    try:
        stack, end = TopkapiSketch.from_bytes(payload, expected)
    except SketchFormatError as exc:
        raise CollectiveError(f"malformed sketch payload: {exc}") from None
    if end != len(payload):
        raise CollectiveError(f"sketch payload of {len(payload)} bytes holds a {end}-byte record")
    _check_bound(stack.counts, "sketch payload")
    return stack


def _decoder_for(stack: TopkapiSketch) -> Callable[[bytes, int], TopkapiSketch]:
    """:func:`_decode_sketches` on a receiver of ``stack``: a record whose
    header's W, B or row seeds are not the stack's raises
    :class:`CollectiveError`, naming both shapes, before its cells are decoded."""
    head = struct.pack("<II", stack.rows, stack.cols) + stack.row_seeds.astype("<u8").tobytes()

    def decode(payload: bytes, expected: int) -> TopkapiSketch:
        if len(payload) >= 8 and not head.startswith(payload[: len(head)]):
            rows, cols = struct.unpack_from("<II", payload)
            raise CollectiveError(
                f"a peer's {rows}x{cols} sketch record does not match this rank's "
                f"{stack.rows}x{stack.cols} stack in shape or row seeds"
            )
        return _decode_sketches(payload, expected)

    return decode


def tree_reduce_sketches(
    transport: Transport,
    stack: TopkapiSketch,
    batch_id: int = 0,
    stats: ReduceStats | None = None,
) -> TopkapiSketch | None:
    """Pairwise tree merge of a batch's (n, W, B) sketch stack; rank 0 gets
    the merged stack, the other ranks ``None``. The stack travels as its
    record (:meth:`TopkapiSketch.to_bytes`) and merges whole: one encode
    per send, one decode and one merge per receive. Each
    rank performs at most ceil(log2(m)) merge rounds and one send, so
    per-rank communication is O(log m * sketch size * #queries).
    """
    schedule = ReductionSchedule.for_world(transport.world_size)
    encode = TopkapiSketch.to_bytes
    return _reduce(transport, stack, schedule, encode, _decoder_for(stack), batch_id, stats)


def linear_reduce_sketches(
    transport: Transport,
    stack: TopkapiSketch,
    batch_id: int = 0,
    stats: ReduceStats | None = None,
) -> TopkapiSketch | None:
    """Baseline: rank 0 receives from every rank in order, merging serially."""
    schedule = ReductionSchedule.linear(transport.world_size)
    encode = TopkapiSketch.to_bytes
    return _reduce(transport, stack, schedule, encode, _decoder_for(stack), batch_id, stats)


@dataclass(frozen=True, eq=False)
class ExactCounts:
    """Exact per-id counts of a query batch in CSR form: query q holds the
    ids ``ids[indptr[q]:indptr[q + 1]]``, ascending, each with its count
    (at least 1) at the same position of ``counts``. Every instance that
    :meth:`summed`, :meth:`merge`, :meth:`from_bytes` or ``exact_candidates``
    returns holds each query's ids strictly ascending; ``top_k_extract``
    breaks ties in count by that order.

    On the wire it is three little-endian u64 columns: the n per-query entry
    counts, then every id, then every count; 8n + 16e bytes for e entries.
    """

    indptr: np.ndarray  # (n + 1,) int64
    ids: np.ndarray  # (e,) uint64
    counts: np.ndarray  # (e,) uint64

    def __len__(self) -> int:
        return self.indptr.size - 1

    @classmethod
    def summed(
        cls, n: int, queries: np.ndarray, ids: np.ndarray, counts: np.ndarray, combine=np.add
    ) -> "ExactCounts":
        """Counts of n queries from (query, id, count) entries; the counts
        of equal (query, id) keys add up, or combine by the ufunc ``combine``."""
        order = np.lexsort((ids, queries))
        queries, ids, counts = queries[order], ids[order], counts[order]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = (queries[1:] != queries[:-1]) | (ids[1:] != ids[:-1])
        starts = np.flatnonzero(first)
        return cls(
            indptr=np.searchsorted(queries[starts], np.arange(n + 1)),
            ids=ids[starts],
            counts=combine.reduceat(counts, starts) if starts.size else counts,
        )

    def queries(self) -> np.ndarray:
        """The query each entry belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def merge(self, other: "ExactCounts") -> "ExactCounts":
        """Counts over both batches' streams: per query, the ids' counts add up."""
        return ExactCounts.summed(
            len(self),
            np.concatenate((self.queries(), other.queries())),
            np.concatenate((self.ids, other.ids)),
            np.concatenate((self.counts, other.counts)),
        )

    def to_bytes(self) -> bytes:
        # int64 with uint64 would promote to float64, which rounds ids past 2^53
        columns = (np.diff(self.indptr).astype(np.uint64), self.ids, self.counts)
        return np.concatenate(columns).astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes, n: int) -> "ExactCounts":
        """Decode the counts of an n-query batch; malformed bytes, and a
        count above ``MAX_TABLES``, raise :class:`CollectiveError`."""
        rest = len(payload) - 8 * n
        if rest < 0 or rest % 16:
            raise CollectiveError(f"count payload of {len(payload)} bytes for {n} queries")
        columns = np.frombuffer(payload, dtype="<u8").astype(np.uint64)
        lengths, e = columns[:n], rest // 16
        if sum(lengths.tolist()) != e:  # Python ints: a huge length cannot wrap
            raise CollectiveError(f"entry counts do not add up to the payload's {e} entries")
        indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        out = cls(indptr, columns[n : n + e], columns[n + e :])
        queries, ids = out.queries(), out.ids
        if np.any((queries[1:] == queries[:-1]) & (ids[1:] <= ids[:-1])) or 0 in out.counts:
            raise CollectiveError("count payload ids not ascending or a count of 0")
        _check_bound(out.counts, "count payload")
        return out


def tree_reduce_counts(
    transport: Transport,
    counts: ExactCounts,
    batch_id: int = 0,
    stats: ReduceStats | None = None,
) -> ExactCounts | None:
    """Exact-mode reduction: per-id counts summed over ranks, tree pattern."""
    schedule = ReductionSchedule.for_world(transport.world_size)
    encode, decode = ExactCounts.to_bytes, ExactCounts.from_bytes
    return _reduce(transport, counts, schedule, encode, decode, batch_id, stats)


def _reduce(transport, items, schedule, encode, decode, batch_id, stats):
    """Run ``schedule`` on this rank; rank 0 returns the merged items.

    A sender ships ``encode(items)``: the stack's record of
    :meth:`TopkapiSketch.to_bytes` in the sketch modes, the count
    columns of :meth:`ExactCounts.to_bytes` in exact mode. A receiver
    decodes the payload, by ``decode(payload, len(items))``, to as many
    items as it holds, as dense as its own, and merges them in by
    ``items.merge``.
    """
    stats = stats if stats is not None else ReduceStats()
    for rnd, pairs in enumerate(schedule.rounds):
        for dst, src in pairs:
            if transport.rank == src:
                payload = encode(items)
                transport.send(dst, Frame(FRAME_REDUCE, batch_id, rnd, payload))
                stats.sends += 1
                stats.bytes_sent += len(payload)
                return None  # inactive for all remaining rounds
            if transport.rank == dst:
                frame = transport.recv(src)
                _check(frame, FRAME_REDUCE, batch_id, rnd, src)
                stats.recvs += 1
                stats.bytes_received += len(frame.payload)
                items = items.merge(decode(frame.payload, len(items)))
                stats.merge_rounds += 1
    return items if transport.rank == 0 else None
