"""Message passing between ranks and the collective operations built on it.

Two interchangeable backends implement the same framed transport contract:
an in-process simulated cluster (deterministic FIFO queues, one thread per
rank) and a TCP mesh (length-prefixed frames over sockets). Collectives are
bulk-synchronous: every rank calls them in the same order, and any missing
peer surfaces as a transport error naming the rank.

Every reduction collective runs one loop over a schedule of rounds of
(receiver, sender) pairs: the sender ships its items and goes inactive, the
receiver merges them (local first, received second). The tree schedule
pairs the active ranks up in ascending order each round, so only rank 0
remains after ceil(log2(m)) rounds; the linear baseline is a single round
in which rank 0 receives from ranks 1..m-1 in rank order.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SketchLshError
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
    backend: str

    def send(self, dst: int, frame: Frame) -> None:
        raise NotImplementedError

    def recv(self, src: int) -> Frame:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SimulatedCluster:
    """In-process cluster: one FIFO queue per (sender, receiver) pair."""

    def __init__(self, world_size: int, default_timeout: float = 30.0):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.default_timeout = default_timeout
        self._queues = {
            (s, d): queue.SimpleQueue()
            for s in range(world_size)
            for d in range(world_size)
            if s != d
        }

    def transport(self, rank: int) -> "SimulatedTransport":
        return SimulatedTransport(self, rank)

    def run(self, fn: Callable[["SimulatedTransport"], object]) -> list[object]:
        """Run ``fn(transport)`` on every rank in its own thread.

        Propagates the first rank failure after all threads finish (blocked
        peers fail via their receive timeouts).
        """
        results: list[object] = [None] * self.world_size
        errors: list[tuple[int, BaseException]] = []

        def runner(r: int) -> None:
            try:
                results[r] = fn(self.transport(r))
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
    backend = "simulated"

    def __init__(self, cluster: SimulatedCluster, rank: int):
        if not (0 <= rank < cluster.world_size):
            raise ValueError(f"rank {rank} out of range")
        self._cluster = cluster
        self.rank = rank
        self.world_size = cluster.world_size

    def send(self, dst: int, frame: Frame) -> None:
        if dst == self.rank:
            raise TransportError("cannot send to self")
        self._cluster._queues[(self.rank, dst)].put(frame)

    def recv(self, src: int) -> Frame:
        try:
            return self._cluster._queues[(src, self.rank)].get(
                timeout=self._cluster.default_timeout
            )
        except queue.Empty:
            raise TransportError(
                f"rank {self.rank}: timed out waiting for rank {src}"
            ) from None


class TcpTransport(Transport):
    """Full-mesh TCP transport; membership maps rank -> (host, port).

    Rank r listens on its own port, dials every lower rank, and accepts
    connections from higher ranks, identifying peers by a hello frame.
    """

    backend = "tcp"

    def __init__(
        self,
        rank: int,
        membership: Sequence[tuple[str, int]],
        connect_timeout: float = 20.0,
        io_timeout: float = 30.0,
    ):
        self.rank = rank
        self.world_size = len(membership)
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
        self._listener = listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(self.world_size)

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
            self._socks[dst].sendall(frame.encode())
        except OSError as exc:
            raise TransportError(f"rank {self.rank}: send to rank {dst} failed: {exc}") from None

    def recv(self, src: int) -> Frame:
        return self._read_frame(self._socks[src], self._bufs[src], peer=src)

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
            raise ValueError("world_size must be >= 1")

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

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


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


def _decode_sketches(payload: bytes, expected: int) -> TopkapiSketch:
    try:
        stack, end = TopkapiSketch.from_bytes(payload, members=expected)
    except SketchFormatError as exc:
        raise CollectiveError(f"malformed sketch payload: {exc}") from None
    if end != len(payload):
        raise CollectiveError("trailing bytes after sketch payload")
    return stack


def _reduce_sketches(transport, sketches, schedule, batch_id, stats):
    out = _reduce(
        transport, TopkapiSketch.stack(sketches), schedule,
        merge=TopkapiSketch.merge, encode=TopkapiSketch.to_bytes, decode=_decode_sketches,
        batch_id=batch_id, stats=stats,
    )
    return None if out is None else list(out)


def tree_reduce_sketches(
    transport: Transport,
    sketches: Sequence[TopkapiSketch],
    batch_id: int = 0,
    stats: ReduceStats | None = None,
) -> list[TopkapiSketch] | None:
    """Pairwise tree merge of per-query sketches; rank 0 gets the result.

    ``sketches`` is a list of sketches or a stack. They travel and merge as
    one stack: one encode per send, one decode and one merge per receive.
    Each rank performs at most ceil(log2(m)) merge rounds and one send, so
    per-rank communication is O(log m * sketch size * #queries).
    """
    schedule = ReductionSchedule.for_world(transport.world_size)
    return _reduce_sketches(transport, sketches, schedule, batch_id, stats)


def linear_reduce_sketches(
    transport: Transport,
    sketches: Sequence[TopkapiSketch],
    batch_id: int = 0,
    stats: ReduceStats | None = None,
) -> list[TopkapiSketch] | None:
    """Baseline: rank 0 receives from every rank in order, merging serially."""
    schedule = ReductionSchedule.linear(transport.world_size)
    return _reduce_sketches(transport, sketches, schedule, batch_id, stats)


def _encode_count_maps(maps: Sequence[dict[int, int]]) -> bytes:
    parts = []
    for m in maps:
        items = sorted(m.items())
        parts.append(struct.pack("<Q", len(items)))
        parts.append(b"".join(struct.pack("<QQ", i, c) for i, c in items))
    return b"".join(parts)


def _decode_count_maps(payload: bytes, expected: int) -> list[dict[int, int]]:
    out = []
    off = 0
    for _ in range(expected):
        if len(payload) - off < 8:
            raise CollectiveError("truncated count-map payload")
        (n,) = struct.unpack_from("<Q", payload, off)
        off += 8
        if n > (len(payload) - off) // 16:
            raise CollectiveError(f"count map of {n} entries overruns the payload")
        pairs = np.frombuffer(payload, dtype="<u8", count=2 * n, offset=off).reshape(n, 2)
        off += 16 * n
        out.append(dict(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())))
    if off != len(payload):
        raise CollectiveError("trailing bytes after count-map payload")
    return out


def _merge_count_map_lists(
    local: list[dict[int, int]], received: list[dict[int, int]]
) -> list[dict[int, int]]:
    out = []
    for a, b in zip(local, received):
        merged = dict(a)
        for i, c in b.items():
            merged[i] = merged.get(i, 0) + c
        out.append(merged)
    return out


def tree_reduce_counts(
    transport: Transport,
    maps: Sequence[dict[int, int]],
    batch_id: int = 0,
    stats: ReduceStats | None = None,
) -> list[dict[int, int]] | None:
    """Exact-mode reduction: per-id counts summed over ranks, tree pattern."""
    return _reduce(
        transport, list(maps), ReductionSchedule.for_world(transport.world_size),
        merge=_merge_count_map_lists, encode=_encode_count_maps, decode=_decode_count_maps,
        batch_id=batch_id, stats=stats,
    )


def _reduce(transport, items, schedule, merge, encode, decode, batch_id, stats):
    """Run ``schedule`` on this rank; rank 0 returns the merged items.

    A received payload must decode, by ``decode(payload, len(items))``, to
    as many items as this rank holds.
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
                items = merge(items, decode(frame.payload, len(items)))
                stats.merge_rounds += 1
    return items if transport.rank == 0 else None
