"""ORCFile-style columnar format (paper §V-C, Table II).

Faithful to the parts of ORC that matter for the evaluation:

* rows are grouped into **stripes**;
* within a stripe every column is stored as its own stream with a
  type-appropriate encoding — run-length / zigzag-varint-delta for
  integers, dictionary or direct for strings, raw IEEE-754 for doubles,
  bit-packing for booleans — plus a null bitmap;
* each stream is zlib-compressed (ORC's default codec);
* stripes carry min/max **statistics** per column, enabling predicate
  pushdown (stripe skipping), and readers fetch only the **columns the
  query needs**.

The reproduction really encodes (and can decode — round-trip tested) the
column streams, so the bytes charged to the simulated disk reflect the
true compressibility of the data, which is where the ~22 % Text→ORC win
in Table II comes from.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from array import array

from repro.common.errors import StorageError
from repro.common.rows import ColumnBatch, DataType, Schema, pack_column
from repro.storage.formats.base import (
    BatchScanResult,
    FileFormat,
    Row,
    ScanResult,
    StatsConjunct,
    StoredFile,
    evaluate_stats_conjunct,
    register_format,
)

_F64 = struct.Struct(">d")
_STRIPE_FOOTER_BYTES = 64  # stream directory + encodings
_FILE_FOOTER_BYTES = 256  # schema, stripe index, file stats
_DICT_THRESHOLD = 0.5  # dictionary-encode when ndv/rows is below this


# ---------------------------------------------------------------------------
# varint / zigzag primitives
# ---------------------------------------------------------------------------

def write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise StorageError("varint requires non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return value >> 1 if value % 2 == 0 else -((value + 1) >> 1)


# ---------------------------------------------------------------------------
# column encoders (operate on the non-null values; nulls go in a bitmap)
# ---------------------------------------------------------------------------

def _encode_null_bitmap(values: Sequence[object]) -> bytes:
    bits = bytearray((len(values) + 7) // 8)
    for position, value in enumerate(values):
        if value is None:
            bits[position // 8] |= 1 << (position % 8)
    return bytes(bits)


def _decode_null_bitmap(bitmap: bytes, count: int) -> List[bool]:
    return [bool(bitmap[i // 8] & (1 << (i % 8))) for i in range(count)]


def _encode_int_stream(values: List[int]) -> Tuple[str, bytes]:
    """RLE when runs dominate, zigzag-delta varints otherwise."""
    if not values:
        return "delta", b""
    runs = 1
    for previous, current in zip(values, values[1:]):
        if current != previous:
            runs += 1
    out = bytearray()
    if len(values) / runs >= 2.0:  # average run length >= 2 -> RLE pays off
        run_value = values[0]
        run_length = 1
        for current in values[1:]:
            if current == run_value:
                run_length += 1
            else:
                write_varint(run_length, out)
                write_varint(zigzag(run_value), out)
                run_value, run_length = current, 1
        write_varint(run_length, out)
        write_varint(zigzag(run_value), out)
        return "rle", bytes(out)
    previous = 0
    for current in values:
        write_varint(zigzag(current - previous), out)
        previous = current
    return "delta", bytes(out)


def _decode_int_stream(encoding: str, data: bytes, count: int) -> List[int]:
    values: List[int] = []
    offset = 0
    if encoding == "rle":
        while len(values) < count:
            run_length, offset = read_varint(data, offset)
            encoded, offset = read_varint(data, offset)
            values.extend([unzigzag(encoded)] * run_length)
        return values[:count]
    previous = 0
    for _ in range(count):
        encoded, offset = read_varint(data, offset)
        previous += unzigzag(encoded)
        values.append(previous)
    return values


def _encode_string_stream(values: List[str]) -> Tuple[str, bytes]:
    """Dictionary encoding when the column repeats enough, else direct."""
    distinct = sorted(set(values))
    out = bytearray()
    if values and len(distinct) / len(values) < _DICT_THRESHOLD:
        index_of = {text: position for position, text in enumerate(distinct)}
        write_varint(len(distinct), out)
        for text in distinct:
            data = text.encode("utf-8")
            write_varint(len(data), out)
            out += data
        for text in values:
            write_varint(index_of[text], out)
        return "dict", bytes(out)
    for text in values:
        data = text.encode("utf-8")
        write_varint(len(data), out)
        out += data
    return "direct", bytes(out)


def _decode_string_stream(encoding: str, data: bytes, count: int) -> List[str]:
    offset = 0
    if encoding == "dict":
        size, offset = read_varint(data, offset)
        dictionary = []
        for _ in range(size):
            length, offset = read_varint(data, offset)
            dictionary.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        values = []
        for _ in range(count):
            index, offset = read_varint(data, offset)
            values.append(dictionary[index])
        return values
    values = []
    for _ in range(count):
        length, offset = read_varint(data, offset)
        values.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    return values


def _encode_double_stream(values: List[float]) -> Tuple[str, bytes]:
    return "raw", b"".join(_F64.pack(value) for value in values)


def _decode_double_stream(data: bytes, count: int) -> List[float]:
    return [_F64.unpack_from(data, i * 8)[0] for i in range(count)]


def _encode_bool_stream(values: List[bool]) -> Tuple[str, bytes]:
    bits = bytearray((len(values) + 7) // 8)
    for position, value in enumerate(values):
        if value:
            bits[position // 8] |= 1 << (position % 8)
    return "bitpack", bytes(bits)


def _decode_bool_stream(data: bytes, count: int) -> List[bool]:
    return [bool(data[i // 8] & (1 << (i % 8))) for i in range(count)]


# ---------------------------------------------------------------------------
# stripes
# ---------------------------------------------------------------------------

@dataclass
class ColumnChunk:
    """One column's streams within a stripe."""

    encoding: str
    null_bitmap: bytes
    compressed: bytes
    uncompressed_bytes: int

    @property
    def stored_bytes(self) -> int:
        return len(self.compressed) + len(self.null_bitmap)


@dataclass
class Stripe:
    row_start: int
    row_count: int
    chunks: Dict[str, ColumnChunk] = field(default_factory=dict)
    stats: Dict[str, Tuple[object, object]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(chunk.stored_bytes for chunk in self.chunks.values()) + _STRIPE_FOOTER_BYTES

    def bytes_for_columns(self, columns: Optional[Sequence[str]]) -> int:
        if columns is None:
            return self.total_bytes
        wanted = {name.lower() for name in columns}
        selected = sum(
            chunk.stored_bytes
            for name, chunk in self.chunks.items()
            if name.lower() in wanted
        )
        return selected + _STRIPE_FOOTER_BYTES

    def may_contain(self, conjuncts: Optional[Sequence[StatsConjunct]]) -> bool:
        if not conjuncts:
            return True
        for conjunct in conjuncts:
            column = conjunct[0].lower()
            if column not in self.stats:
                continue
            minimum, maximum = self.stats[column]
            if not evaluate_stats_conjunct(conjunct, minimum, maximum):
                return False
        return True


def _encode_column(dtype: DataType, values: List[object]) -> ColumnChunk:
    null_bitmap = _encode_null_bitmap(values)
    present = [value for value in values if value is not None]
    if dtype in (DataType.INT, DataType.BIGINT):
        encoding, raw = _encode_int_stream(present)
    elif dtype is DataType.DOUBLE:
        encoding, raw = _encode_double_stream(present)
    elif dtype in (DataType.STRING, DataType.DATE):
        encoding, raw = _encode_string_stream(present)
    elif dtype is DataType.BOOLEAN:
        encoding, raw = _encode_bool_stream(present)
    else:
        raise StorageError(f"ORC cannot encode {dtype}")
    compressed = zlib.compress(raw, 6)
    if len(compressed) >= len(raw):
        compressed = raw  # ORC stores incompressible chunks uncompressed
    return ColumnChunk(encoding, null_bitmap, compressed, len(raw))


def _decode_column(dtype: DataType, chunk: ColumnChunk, count: int) -> List[object]:
    nulls = _decode_null_bitmap(chunk.null_bitmap, count)
    present_count = count - sum(nulls)
    raw = chunk.compressed
    if chunk.uncompressed_bytes != len(raw):
        raw = zlib.decompress(raw)
    if dtype in (DataType.INT, DataType.BIGINT):
        present = _decode_int_stream(chunk.encoding, raw, present_count)
    elif dtype is DataType.DOUBLE:
        present = _decode_double_stream(raw, present_count)
    elif dtype in (DataType.STRING, DataType.DATE):
        present = _decode_string_stream(chunk.encoding, raw, present_count)
    elif dtype is DataType.BOOLEAN:
        present = _decode_bool_stream(raw, present_count)
    else:
        raise StorageError(f"ORC cannot decode {dtype}")
    iterator = iter(present)
    return [None if is_null else next(iterator) for is_null in nulls]


# ---------------------------------------------------------------------------
# the stored file
# ---------------------------------------------------------------------------

def _concat_column(pieces: List[Sequence]) -> Sequence:
    """Join per-stripe column slices, preserving typed buffers when every
    contributing stripe packed to the same typecode."""
    if not pieces:
        return []
    if len(pieces) == 1:
        return pieces[0]
    first = pieces[0]
    if isinstance(first, array) and all(
        isinstance(piece, array) and piece.typecode == first.typecode
        for piece in pieces[1:]
    ):
        out = array(first.typecode)
        for piece in pieces:
            out.extend(piece)
        return out
    out_list: list = []
    for piece in pieces:
        out_list.extend(piece)
    return out_list


class OrcStoredFile(StoredFile):
    """Stripe-organized columnar file with stats and real encoded streams."""

    def __init__(self, schema: Schema, rows: List[Row], stripe_rows: int):
        super().__init__(schema, rows)
        self.stripe_rows = stripe_rows
        self.stripes: List[Stripe] = []
        # decoded column streams, one list-of-columns per stripe — the
        # per-column value lists computed while encoding ARE the decoded
        # representation (packed into typed buffers where the values
        # allow, see pack_column), so the columnar scan (scan_batch)
        # serves them directly without ever materializing intermediate
        # row tuples
        self._stripe_columns: List[List[Sequence]] = []
        for start in range(0, len(rows), stripe_rows):
            block = rows[start : start + stripe_rows]
            stripe = Stripe(row_start=start, row_count=len(block))
            decoded: List[Sequence] = []
            for position, column in enumerate(schema.columns):
                values = [row[position] for row in block]
                decoded.append(pack_column(values))
                stripe.chunks[column.name.lower()] = _encode_column(column.dtype, values)
                present = [value for value in values if value is not None]
                if present:
                    stripe.stats[column.name.lower()] = (min(present), max(present))
                else:
                    stripe.stats[column.name.lower()] = (None, None)
            self.stripes.append(stripe)
            self._stripe_columns.append(decoded)
        # stripes are never mutated after encoding, so the size is fixed;
        # the result cache fingerprints every input file on each lookup
        self._total_bytes = (
            sum(stripe.total_bytes for stripe in self.stripes) + _FILE_FOOTER_BYTES
        )

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def bytes_for_range(self, row_start: int, row_count: int) -> int:
        """Bytes for a row range; partially-overlapped stripes charge
        proportionally (sampled rows stand for many logical rows, so a
        "split" may cover a fraction of one encoded stripe)."""
        row_end = row_start + row_count
        total = 0.0
        for stripe in self.stripes:
            if stripe.row_start >= row_end:
                break
            overlap = self._overlap_fraction(stripe, row_start, row_end)
            if overlap > 0:
                total += stripe.total_bytes * overlap
        return int(total)

    @staticmethod
    def _overlap_fraction(stripe: Stripe, row_start: int, row_end: int) -> float:
        if stripe.row_count == 0:
            return 0.0
        lo = max(stripe.row_start, row_start)
        hi = min(stripe.row_start + stripe.row_count, row_end)
        return max(0, hi - lo) / stripe.row_count

    def stripes_in_range(self, row_start: int, row_count: int) -> List[Stripe]:
        row_end = row_start + row_count
        return [
            stripe
            for stripe in self.stripes
            if stripe.row_start < row_end
            and stripe.row_start + stripe.row_count > row_start
        ]

    def scan(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> ScanResult:
        rows: List[Row] = []
        bytes_read = 0.0
        skipped = 0
        row_end = row_start + row_count
        for stripe in self.stripes_in_range(row_start, row_count):
            lo = max(stripe.row_start, row_start)
            hi = min(stripe.row_start + stripe.row_count, row_end)
            if not stripe.may_contain(stats_conjuncts):
                skipped += hi - lo
                continue  # predicate pushdown: stripe eliminated via stats
            overlap = self._overlap_fraction(stripe, row_start, row_end)
            bytes_read += stripe.bytes_for_columns(columns) * overlap
            rows.extend(self.rows[lo:hi])
        return ScanResult(rows=rows, bytes_read=int(bytes_read), rows_skipped=skipped)

    def scan_batch(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> BatchScanResult:
        """Columnar scan straight from the decoded stripe streams.

        No intermediate row tuples: surviving stripes contribute slices
        of their per-column value streams (typed ``array`` slices stay
        typed, so the output batch keeps the cheap-to-pickle layout).
        Stripe skipping and the byte-charge arithmetic are the same
        statements as :meth:`scan`, so the cost model cannot diverge
        between the two paths.
        """
        width = len(self.schema)
        parts: List[List[Sequence]] = [[] for _ in range(width)]
        size = 0
        bytes_read = 0.0
        skipped = 0
        row_end = row_start + row_count
        for stripe_index, stripe in enumerate(self.stripes):
            if stripe.row_start >= row_end:
                break
            lo = max(stripe.row_start, row_start)
            hi = min(stripe.row_start + stripe.row_count, row_end)
            if hi <= lo:
                continue
            if not stripe.may_contain(stats_conjuncts):
                skipped += hi - lo
                continue  # predicate pushdown: stripe eliminated via stats
            overlap = self._overlap_fraction(stripe, row_start, row_end)
            bytes_read += stripe.bytes_for_columns(columns) * overlap
            decoded = self._stripe_columns[stripe_index]
            local_lo = lo - stripe.row_start
            local_hi = hi - stripe.row_start
            for position in range(width):
                parts[position].append(decoded[position][local_lo:local_hi])
            size += hi - lo
        out_columns = [_concat_column(pieces) for pieces in parts]
        return BatchScanResult(
            batch=ColumnBatch(out_columns, size),
            bytes_read=int(bytes_read),
            rows_skipped=skipped,
        )

    def stripe_cache_key(
        self,
        path: str,
        stripe_index: int,
        columns: Optional[Sequence[str]] = None,
    ) -> Tuple[str, int, Optional[Tuple[str, ...]]]:
        """Stable identity of one stripe's decoded streams for node-local
        caching (the LLAP engine's columnar cache).

        Keyed by *(file path, stripe row offset, requested-column
        signature)*: the path names the file, the row offset names the
        stripe within it, and the column signature distinguishes
        projections (ORC caches column chunks, not whole rows).  Cache
        consumers must additionally verify the stored-file identity —
        a path rewritten after DROP/INSERT OVERWRITE reuses keys but
        not data (see ``repro.engines.llap.cache``).
        """
        stripe = self.stripes[stripe_index]
        if columns is None:
            signature = None
        else:
            signature = tuple(sorted({name.lower() for name in columns}))
        return (path, stripe.row_start, signature)

    def decoded_stripe_columns(self, stripe_index: int) -> List[Sequence]:
        """One stripe's decoded per-column value lists (shared,
        read-only).  This is the object a daemon cache retains so a hit
        skips both the simulated disk read and the decode work."""
        return self._stripe_columns[stripe_index]

    def decode_stripe(self, stripe_index: int) -> List[Row]:
        """Fully decode one stripe from its encoded streams (round-trip
        path; the fast path above serves rows from memory)."""
        stripe = self.stripes[stripe_index]
        columns = []
        for column in self.schema.columns:
            chunk = stripe.chunks[column.name.lower()]
            columns.append(_decode_column(column.dtype, chunk, stripe.row_count))
        return [tuple(column[i] for column in columns) for i in range(stripe.row_count)]


class OrcFormat(FileFormat):
    name = "orc"

    def __init__(self, stripe_rows: int = 1024):
        if stripe_rows < 1:
            raise StorageError("stripe_rows must be >= 1")
        self.stripe_rows = stripe_rows

    def build(self, schema: Schema, rows: List[Row]) -> OrcStoredFile:
        return OrcStoredFile(schema, rows, self.stripe_rows)


register_format(OrcFormat())
