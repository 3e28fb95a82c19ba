"""Extent algebra for noncontiguous I/O requests.

Collective I/O reasons about byte ranges in a shared file.  Scientific
access patterns (block-distributed arrays, interleaved IOR segments) are
huge but *regular*, so this module represents them as strided runs instead
of flat offset/length lists:

:class:`Extent`
    A single contiguous ``[offset, offset+length)`` byte range.

:class:`StridedSegment`
    ``count`` blocks of ``block`` bytes, ``stride`` apart — the ADIO
    "flattened datatype" building block.  Clipping and byte-counting are
    O(1) arithmetic, never per-block loops.

:class:`AccessPattern`
    An ordered sequence of segments forming one rank's file view, with
    cumulative-size prefix sums so any file position maps to its position
    in the rank's memory buffer in O(log n).

All coordinates are byte offsets; all intervals are half-open.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["Extent", "StridedSegment", "AccessPattern", "coalesce_extents"]


@dataclass(frozen=True, order=True)
class Extent:
    """A contiguous byte range ``[offset, offset + length)``."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.offset + self.length

    @property
    def empty(self) -> bool:
        """True for zero-length extents."""
        return self.length == 0

    def intersect(self, other: "Extent") -> Optional["Extent"]:
        """Overlap with `other`, or None if disjoint/empty."""
        lo = max(self.offset, other.offset)
        hi = min(self.end, other.end)
        if hi <= lo:
            return None
        return Extent(lo, hi - lo)

    def clip(self, lo: int, hi: int) -> Optional["Extent"]:
        """Portion inside ``[lo, hi)``, or None."""
        start = max(self.offset, lo)
        end = min(self.end, hi)
        if end <= start:
            return None
        return Extent(start, end - start)

    def contains(self, offset: int) -> bool:
        """True if `offset` lies inside the extent."""
        return self.offset <= offset < self.end


def coalesce_extents(extents: Iterable[Extent]) -> list[Extent]:
    """Merge touching/overlapping extents; returns a sorted, disjoint list."""
    items = sorted((e for e in extents if e.length > 0), key=lambda e: e.offset)
    merged: list[Extent] = []
    for e in items:
        if merged and e.offset <= merged[-1].end:
            last = merged[-1]
            merged[-1] = Extent(last.offset, max(last.end, e.end) - last.offset)
        else:
            merged.append(e)
    return merged


@dataclass(frozen=True)
class StridedSegment:
    """``count`` blocks of ``block`` bytes, spaced ``stride`` bytes apart.

    ``stride >= block`` (blocks within one segment never overlap).  A
    contiguous run is the special case ``count == 1`` (stride ignored) or
    ``stride == block``.
    """

    offset: int
    block: int
    stride: int
    count: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.block <= 0:
            raise ValueError(f"block must be positive, got {self.block}")
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.count > 1 and self.stride < self.block:
            raise ValueError(
                f"stride {self.stride} < block {self.block} would self-overlap"
            )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes covered (sum of all blocks)."""
        return self.block * self.count

    @property
    def start(self) -> int:
        """First byte covered."""
        return self.offset

    @property
    def end(self) -> int:
        """One past the last byte covered."""
        return self.offset + (self.count - 1) * self.stride + self.block

    @property
    def contiguous(self) -> bool:
        """True if the segment is one unbroken run."""
        return self.count == 1 or self.stride == self.block

    # ------------------------------------------------------------------
    def block_extent(self, index: int) -> Extent:
        """The `index`-th block as an extent."""
        if not 0 <= index < self.count:
            raise IndexError(index)
        return Extent(self.offset + index * self.stride, self.block)

    def iter_extents(self) -> Iterator[Extent]:
        """Yield every block as an extent (use only for small counts)."""
        for i in range(self.count):
            yield Extent(self.offset + i * self.stride, self.block)

    def bytes_in(self, lo: int, hi: int) -> int:
        """Bytes of this segment inside ``[lo, hi)`` — O(1) arithmetic."""
        if hi <= lo or hi <= self.start or lo >= self.end:
            return 0
        if self.contiguous:
            return min(hi, self.end) - max(lo, self.start)
        # indices of blocks whose [bstart, bend) intersects [lo, hi)
        i_lo = max(0, (lo - self.offset - self.block + self.stride) // self.stride)
        i_hi = min(self.count - 1, (hi - 1 - self.offset) // self.stride)
        if i_hi < i_lo:
            return 0
        total = (i_hi - i_lo + 1) * self.block
        # trim the partial head block
        head_start = self.offset + i_lo * self.stride
        total -= max(0, lo - head_start)
        # trim the partial tail block
        tail_end = self.offset + i_hi * self.stride + self.block
        total -= max(0, tail_end - hi)
        return max(0, total)

    def clip(self, lo: int, hi: int) -> list["StridedSegment"]:
        """Portions of the segment inside ``[lo, hi)``.

        Returns at most three segments: a partial head block, the run of
        fully contained blocks, and a partial tail block.
        """
        if hi <= lo or hi <= self.start or lo >= self.end:
            return []
        if self.contiguous:
            s = max(lo, self.start)
            e = min(hi, self.end)
            return [StridedSegment(s, e - s, e - s, 1)] if e > s else []

        i_lo = max(0, (lo - self.offset - self.block + self.stride) // self.stride)
        i_hi = min(self.count - 1, (hi - 1 - self.offset) // self.stride)
        if i_hi < i_lo:
            return []

        pieces: list[StridedSegment] = []
        first_full = i_lo
        last_full = i_hi
        # head block partially cut?
        head_start = self.offset + i_lo * self.stride
        head_end = head_start + self.block
        if lo > head_start or hi < head_end:
            s = max(lo, head_start)
            e = min(hi, head_end)
            if e > s:
                pieces.append(StridedSegment(s, e - s, e - s, 1))
            first_full = i_lo + 1
        # tail block partially cut (and distinct from head)?
        tail_piece: Optional[StridedSegment] = None
        if i_hi > i_lo:
            tail_start = self.offset + i_hi * self.stride
            tail_end = tail_start + self.block
            if hi < tail_end:
                s = tail_start
                e = hi
                if e > s:
                    tail_piece = StridedSegment(s, e - s, e - s, 1)
                last_full = i_hi - 1
        if last_full >= first_full:
            pieces.append(
                StridedSegment(
                    self.offset + first_full * self.stride,
                    self.block,
                    self.stride,
                    last_full - first_full + 1,
                )
            )
        if tail_piece is not None:
            pieces.append(tail_piece)
        return pieces

    def position_of(self, file_offset: int) -> int:
        """Bytes of this segment strictly before `file_offset`.

        `file_offset` need not lie inside a block; gaps map to the start of
        the next block.
        """
        if file_offset <= self.start:
            return 0
        if file_offset >= self.end:
            return self.nbytes
        i = (file_offset - self.offset) // self.stride
        within = file_offset - (self.offset + i * self.stride)
        return i * self.block + min(within, self.block)


def _try_merge(prev: StridedSegment, seg: StridedSegment) -> Optional[StridedSegment]:
    """Merge two consecutive segments into one, or return None.

    Two merges are recognised: back-to-back contiguous runs, and
    equal-geometry strided runs where `seg` continues `prev`'s block train
    exactly one stride after its last block.
    """
    if prev.contiguous and seg.contiguous and prev.end == seg.start:
        total = prev.nbytes + seg.nbytes
        return StridedSegment(prev.offset, total, total, 1)
    if prev.block != seg.block:
        return None
    # A count==1 segment has no meaningful stride; borrow the partner's.
    stride_p = prev.stride if prev.count > 1 else None
    stride_s = seg.stride if seg.count > 1 else None
    stride = stride_p if stride_p is not None else stride_s
    if stride is None or (stride_s is not None and stride_s != stride):
        return None
    if stride < prev.block:
        return None
    if seg.start != prev.offset + prev.count * stride:
        return None
    return StridedSegment(prev.offset, prev.block, stride, prev.count + seg.count)


class AccessPattern:
    """One rank's file view: ordered, non-self-overlapping strided segments.

    Segment order defines buffer order: the rank's memory buffer is the
    concatenation of all blocks in sequence, which is how MPI file views
    map datatypes to buffers.

    Parameters
    ----------
    segments:
        Segments in strictly increasing file order (``end <= next.start``).
        Overlapping or out-of-order segments are rejected — a single rank's
        request never self-overlaps.
    """

    __slots__ = ("segments", "_prefix", "_starts")

    def __init__(self, segments: Sequence[StridedSegment]):
        segs = tuple(segments)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                raise ValueError(
                    f"segments out of order or overlapping: {a} then {b}"
                )
        self.segments = segs
        prefix = [0]
        for s in segs:
            prefix.append(prefix[-1] + s.nbytes)
        #: prefix[i] = bytes in segments[:i]
        self._prefix = prefix
        self._starts = [s.start for s in segs]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def contiguous(cls, offset: int, length: int) -> "AccessPattern":
        """A single contiguous request (empty pattern if length == 0)."""
        if length == 0:
            return cls(())
        return cls((StridedSegment(offset, length, length, 1),))

    @classmethod
    def from_extents(cls, extents: Iterable[Extent]) -> "AccessPattern":
        """Build from plain extents (must be sorted and disjoint)."""
        return cls(
            tuple(
                StridedSegment(e.offset, e.length, e.length, 1)
                for e in extents
                if e.length > 0
            )
        )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes requested."""
        return self._prefix[-1]

    @property
    def empty(self) -> bool:
        """True if the pattern requests nothing."""
        return self.nbytes == 0

    @property
    def start(self) -> int:
        """First byte requested (0 for empty patterns)."""
        return self.segments[0].start if self.segments else 0

    @property
    def end(self) -> int:
        """One past the last byte requested (0 for empty patterns)."""
        return self.segments[-1].end if self.segments else 0

    @property
    def segment_count(self) -> int:
        """Number of strided segments."""
        return len(self.segments)

    @property
    def block_count(self) -> int:
        """Number of contiguous blocks (i.e. discrete I/O pieces)."""
        return sum(s.count for s in self.segments)

    # ------------------------------------------------------------------
    def _span(self, lo: int, hi: int) -> tuple[int, int]:
        """Index range ``[i, j)`` of the segments whose span meets ``[lo, hi)``.

        Segments are ordered and disjoint, so only the one before the
        first start past `lo` can reach back into the window, and every
        segment strictly between ``i`` and ``j - 1`` lies wholly inside it.
        """
        starts = self._starts
        if hi <= lo or not starts:
            return 0, 0
        i = bisect.bisect_left(starts, lo)
        if i > 0 and self.segments[i - 1].end > lo:
            i -= 1
        return i, bisect.bisect_left(starts, hi, i)

    def segments_in(self, lo: int, hi: int) -> tuple[StridedSegment, ...]:
        """The segments whose span meets ``[lo, hi)``, in file order."""
        i, j = self._span(lo, hi)
        return self.segments[i:j]

    def bytes_in(self, lo: int, hi: int) -> int:
        """Bytes requested inside ``[lo, hi)`` — O(log segments)."""
        i, j = self._span(lo, hi)
        if i == j:
            return 0
        segs = self.segments
        total = segs[i].bytes_in(lo, hi)
        if j - i > 1:
            # only the end segments can be cut; the prefix sums cover
            # the ones between
            total += self._prefix[j - 1] - self._prefix[i + 1]
            total += segs[j - 1].bytes_in(lo, hi)
        return total

    def clip(self, lo: int, hi: int) -> "AccessPattern":
        """Sub-pattern inside ``[lo, hi)``."""
        pieces: list[StridedSegment] = []
        for seg in self.segments_in(lo, hi):
            pieces.extend(seg.clip(lo, hi))
        return AccessPattern(tuple(pieces))

    def buffer_position(self, file_offset: int) -> int:
        """Bytes of this pattern strictly before `file_offset`.

        Maps a file position to the corresponding position in the rank's
        packed memory buffer.
        """
        if self.empty:
            return 0
        i = bisect.bisect_right(self._starts, file_offset) - 1
        if i < 0:
            return 0
        return self._prefix[i] + self.segments[i].position_of(file_offset)

    def iter_mapped_extents(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(file_offset, length, buffer_offset)`` per block, in order.

        Expands blocks one by one — intended for correctness-mode runs with
        real payloads, not for metadata-only benchmark patterns.
        """
        buf = 0
        for seg in self.segments:
            for i in range(seg.count):
                yield (seg.offset + i * seg.stride, seg.block, buf)
                buf += seg.block

    def coalesce(self) -> "AccessPattern":
        """Merge adjacent compatible segments (same geometry, or contiguous)."""
        if not self.segments:
            return self
        out: list[StridedSegment] = []
        for seg in self.segments:
            merged = None
            if out:
                merged = _try_merge(out[-1], seg)
            if merged is not None:
                out[-1] = merged
            else:
                out.append(seg)
        return AccessPattern(tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessPattern):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AccessPattern {self.segment_count} segs, {self.block_count} blocks, "
            f"{self.nbytes} B in [{self.start}, {self.end})>"
        )
