"""Wire layer for distributed SBP: framed byte channels between ranks.

The :class:`Transport` protocol carries one-way framed byte channels
between ranks, behind a registry (``sim`` here — an in-process
per-channel FIFO — plus ``inproc`` and ``pipes`` in
:mod:`repro.distributed.wire`). Every frame is length-prefixed and
CRC32-checksummed (:func:`encode_frame`/:func:`decode_frame`) so a
truncated or bit-flipped delta is *detected* and quarantined, never
silently applied to a replica. Reliability (retry, dedupe, reordering)
and the :class:`CommLedger` byte accounting are layered on top by
:mod:`repro.distributed.reliable`.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import FrameError, TransportError
from repro.utils.registry import Registry

__all__ = [
    "CommLedger",
    "FRAME_MAGIC",
    "FRAME_HEADER_BYTES",
    "encode_payload",
    "decode_payload",
    "encode_frame",
    "decode_frame",
    "Transport",
    "SimTransport",
    "TRANSPORTS",
]


@dataclass
class CommLedger:
    """Accumulated point-to-point accounting for one channel set.

    ``retries`` counts frame retransmissions (each also re-charged to
    the byte counters — retransmitted bytes really cross the wire) and
    ``frames_quarantined`` counts received frames that failed structural
    or CRC validation and were discarded instead of applied.
    """

    point_to_point_messages: int = 0
    point_to_point_bytes: int = 0
    retries: int = 0
    frames_quarantined: int = 0

    def as_row(self) -> dict[str, int]:
        return {
            "p2p_messages": self.point_to_point_messages,
            "p2p_bytes": self.point_to_point_bytes,
            # Every byte crosses a point-to-point channel.
            "total_bytes": self.point_to_point_bytes,
            "retries": self.retries,
            "frames_quarantined": self.frames_quarantined,
        }


# ----------------------------------------------------------------------
# Wire frames
# ----------------------------------------------------------------------
#: Frame header magic ("SBPF" little-endian) — rejects foreign byte blobs.
FRAME_MAGIC = 0x46504253

#: Header layout: (magic u32, seq u64, payload_len u64, crc32 u32).
#: The CRC covers the seq and length words *and* the payload, so a bit
#: flip anywhere except the magic itself is caught (a flipped magic is
#: caught by the magic check).
_HEADER = struct.Struct("<IQQI")
FRAME_HEADER_BYTES = _HEADER.size


def encode_payload(obj: object) -> bytes:
    """Pickle a message payload for the wire (protocol 4, self-contained)."""
    return pickle.dumps(obj, protocol=4)


def decode_payload(data: bytes) -> object:
    """Unpickle a wire payload; wraps decode failures in FrameError."""
    try:
        return pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - decode is a fault barrier
        raise FrameError(f"payload decode failed: {exc!r}") from exc


def _frame_crc(seq: int, payload: bytes) -> int:
    crc = zlib.crc32(struct.pack("<QQ", seq, len(payload)))
    return zlib.crc32(payload, crc) & 0xFFFF_FFFF


def encode_frame(seq: int, payload: bytes) -> bytes:
    """Wrap ``payload`` in a checksummed, length-prefixed wire frame."""
    if seq < 0:
        raise TransportError(f"frame seq must be >= 0, got {seq}")
    header = _HEADER.pack(FRAME_MAGIC, seq, len(payload), _frame_crc(seq, payload))
    return header + payload


def decode_frame(raw: bytes) -> tuple[int, bytes]:
    """Validate a wire frame; return ``(seq, payload)``.

    Raises :class:`~repro.errors.FrameError` on truncation, bad magic,
    length mismatch, or checksum mismatch — the caller quarantines the
    frame and relies on retransmission.
    """
    if len(raw) < FRAME_HEADER_BYTES:
        raise FrameError(
            f"frame truncated: {len(raw)} bytes < {FRAME_HEADER_BYTES}-byte header"
        )
    magic, seq, length, crc = _HEADER.unpack_from(raw)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:08x}")
    payload = raw[FRAME_HEADER_BYTES:]
    if len(payload) != length:
        raise FrameError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    if _frame_crc(seq, payload) != crc:
        raise FrameError(f"frame CRC mismatch (seq {seq})")
    return int(seq), payload


# ----------------------------------------------------------------------
# Transport protocol + registry
# ----------------------------------------------------------------------
class Transport(ABC):
    """One-way framed byte channels between ranks.

    The contract is deliberately lossy-friendly: ``push`` enqueues an
    opaque frame on the (source, dest) channel and ``pull`` returns the
    next frame or ``None`` when nothing has arrived — transports never
    block indefinitely and never interpret frame contents. Ordering is
    FIFO per channel on the honest transports; the fault wrapper
    (:class:`~repro.distributed.chaos.ChaosTransport`) may drop,
    duplicate, reorder or corrupt frames, which is exactly what the
    reliable layer (:class:`~repro.distributed.reliable.ReliableComm`)
    exists to mask.
    """

    name: str = "abstract"

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise TransportError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks

    @abstractmethod
    def push(self, frame: bytes, source: int, dest: int) -> None:
        """Enqueue ``frame`` on the (source, dest) channel."""

    @abstractmethod
    def pull(self, source: int, dest: int, timeout: float = 0.0) -> bytes | None:
        """Dequeue the next frame, or ``None`` if none arrives in time.

        ``timeout`` is a best-effort wait in seconds for in-flight
        frames (0 = non-blocking); the simulated transport delivers
        instantly and ignores it.
        """

    def close(self) -> None:
        """Release channel resources; idempotent."""

    def _check_pair(self, source: int, dest: int) -> tuple[int, int]:
        source, dest = int(source), int(dest)
        for rank in (source, dest):
            if not 0 <= rank < self.num_ranks:
                raise TransportError(
                    f"rank {rank} out of range [0, {self.num_ranks})"
                )
        if source == dest:
            raise TransportError("self-channels are not allowed; use local state")
        return source, dest

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SimTransport(Transport):
    """In-process per-channel FIFO — zero OS resources.

    The deterministic default: delivery is instantaneous (a ``push`` is
    ``pull``-able immediately, in push order).
    """

    name = "sim"

    def __init__(self, num_ranks: int) -> None:
        super().__init__(num_ranks)
        self._channels: dict[tuple[int, int], deque[bytes]] = {}

    def push(self, frame: bytes, source: int, dest: int) -> None:
        pair = self._check_pair(source, dest)
        self._channels.setdefault(pair, deque()).append(frame)

    def pull(self, source: int, dest: int, timeout: float = 0.0) -> bytes | None:
        channel = self._channels.get(self._check_pair(source, dest))
        return channel.popleft() if channel else None


TRANSPORTS: Registry[Callable[..., Transport]] = Registry(
    "transport", TransportError, builtins=("repro.distributed.wire",)
)
TRANSPORTS.register("sim", SimTransport)
