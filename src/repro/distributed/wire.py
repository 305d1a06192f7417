"""Real-wire transports: courier threads and OS pipes.

Where :class:`~repro.distributed.comm.SimTransport` delivers frames
instantly from an in-process FIFO, the two engines here move real bytes
through real concurrency machinery, so the reliable layer's timeout /
retry / quarantine behaviour is exercised against genuine races:

* ``inproc`` — per-channel outbox/inbox queues bridged by a daemon
  *courier* thread: a pushed frame is only pull-able after another
  thread has physically moved it, giving true in-flight windows;
* ``pipes`` — ``multiprocessing.Pipe`` connections carrying the frames
  through OS descriptors, each drained by a daemon *reader* thread into
  a bounded-wait inbox queue (draining eagerly sidesteps the classic
  pipe-buffer deadlock a large single-threaded push would hit).

Channels are created lazily on first use: pulling from a channel whose
peer never pushed (a dead shard, precisely) cheaply returns ``None``
after the timeout instead of erroring. Both transports are process-local
by design — "distributed" here means the honest single-process
equivalent CI can run, per ROADMAP item 2 — but every byte crosses a
thread or pipe boundary, so nothing about ordering or timing is
simulated.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading

from repro.distributed.comm import TRANSPORTS, Transport

__all__ = ["InprocTransport", "PipesTransport"]

_SENTINEL = object()


class InprocTransport(Transport):
    """Threads-and-queues wire: one courier thread per active channel."""

    name = "inproc"

    def __init__(self, num_ranks: int, poll_timeout: float = 0.05) -> None:
        super().__init__(num_ranks)
        self.poll_timeout = float(poll_timeout)
        self._channels: dict[tuple[int, int], tuple[queue.Queue, queue.Queue]] = {}
        self._couriers: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False

    def _channel(self, source: int, dest: int) -> tuple[queue.Queue, queue.Queue]:
        key = (source, dest)
        with self._lock:
            chan = self._channels.get(key)
            if chan is None:
                outbox: queue.Queue = queue.Queue()
                inbox: queue.Queue = queue.Queue()
                courier = threading.Thread(
                    target=_courier_loop,
                    args=(outbox, inbox),
                    name=f"inproc-courier-{source}-{dest}",
                    daemon=True,
                )
                courier.start()
                self._couriers.append(courier)
                chan = self._channels[key] = (outbox, inbox)
        return chan

    def push(self, frame: bytes, source: int, dest: int) -> None:
        source, dest = self._check_pair(source, dest)
        outbox, _ = self._channel(source, dest)
        outbox.put(bytes(frame))

    def pull(self, source: int, dest: int, timeout: float = 0.0) -> bytes | None:
        source, dest = self._check_pair(source, dest)
        _, inbox = self._channel(source, dest)
        try:
            if timeout > 0:
                return inbox.get(timeout=timeout)
            return inbox.get_nowait()
        except queue.Empty:
            return None

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = list(self._channels.values())
        for outbox, _ in channels:
            outbox.put(_SENTINEL)
        for courier in self._couriers:
            courier.join(timeout=1.0)


def _courier_loop(outbox: queue.Queue, inbox: queue.Queue) -> None:
    while True:
        item = outbox.get()
        if item is _SENTINEL:
            return
        inbox.put(item)


class PipesTransport(Transport):
    """OS-pipe wire: frames cross ``multiprocessing.Pipe`` descriptors.

    Each channel is a one-way pipe pair plus a daemon reader thread that
    drains ``recv_bytes()`` into an unbounded inbox queue as soon as
    bytes land — the sender can therefore push arbitrarily many frames
    without wedging on the kernel pipe buffer (~64 KiB), and a ``pull``
    is a plain bounded queue wait.
    """

    name = "pipes"

    def __init__(self, num_ranks: int, poll_timeout: float = 0.05) -> None:
        super().__init__(num_ranks)
        self.poll_timeout = float(poll_timeout)
        self._channels: dict[tuple[int, int], tuple[object, queue.Queue]] = {}
        self._readers: list[threading.Thread] = []
        self._recv_conns: list[object] = []
        self._lock = threading.Lock()
        self._closed = False

    def _channel(self, source: int, dest: int) -> tuple[object, queue.Queue]:
        key = (source, dest)
        with self._lock:
            chan = self._channels.get(key)
            if chan is None:
                recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
                inbox: queue.Queue = queue.Queue()
                reader = threading.Thread(
                    target=_reader_loop,
                    args=(recv_conn, inbox),
                    name=f"pipes-reader-{source}-{dest}",
                    daemon=True,
                )
                reader.start()
                self._readers.append(reader)
                self._recv_conns.append(recv_conn)
                chan = self._channels[key] = (send_conn, inbox)
        return chan

    def push(self, frame: bytes, source: int, dest: int) -> None:
        source, dest = self._check_pair(source, dest)
        send_conn, _ = self._channel(source, dest)
        send_conn.send_bytes(bytes(frame))

    def pull(self, source: int, dest: int, timeout: float = 0.0) -> bytes | None:
        source, dest = self._check_pair(source, dest)
        _, inbox = self._channel(source, dest)
        try:
            if timeout > 0:
                return inbox.get(timeout=timeout)
            return inbox.get_nowait()
        except queue.Empty:
            return None

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = list(self._channels.values())
        for send_conn, _ in channels:
            try:
                send_conn.close()  # EOF unblocks the reader thread
            except OSError:  # pragma: no cover - already closed
                pass
        for reader in self._readers:
            reader.join(timeout=1.0)
        for recv_conn in self._recv_conns:
            try:
                recv_conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _reader_loop(recv_conn, inbox: queue.Queue) -> None:
    while True:
        try:
            inbox.put(recv_conn.recv_bytes())
        except (EOFError, OSError):
            return


TRANSPORTS.register("inproc", InprocTransport)
TRANSPORTS.register("pipes", PipesTransport)
