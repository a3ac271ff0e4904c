"""Packed binary columns: the bulk encoding of session checkpoints.

A column is the base64 text of a fixed-width little-endian array
(stdlib :mod:`array`), so it sits inside a JSON payload as one plain
ASCII string and decodes in C instead of element by element.  Floats
are their IEEE-754 bytes — a bit-exact round trip, ``inf`` included.
Flag vectors (a search's settled bits) are zlib-compressed, with
trailing zero flags dropped so the encoding does not depend on the
network size.

Decoding is strict: every failure raises
:class:`~repro.errors.SessionDecodeError` naming the column.
"""

from __future__ import annotations

import base64
import binascii
import sys
import zlib
from array import array
from typing import Iterable

from repro.errors import SessionDecodeError

#: typecodes of the three column kinds
INT32 = "i"
INT64 = "q"
FLOAT64 = "d"

for _code, _size in ((INT32, 4), (INT64, 8), (FLOAT64, 8)):
    if array(_code).itemsize != _size:  # pragma: no cover - exotic ABI
        raise ImportError(
            f"array typecode {_code!r} is {array(_code).itemsize} bytes "
            f"here; packed session columns need {_size}"
        )

_SWAP = sys.byteorder == "big"


def pack(typecode: str, values: Iterable) -> str:
    """``values`` as a base64 column of ``typecode`` items."""
    arr = array(typecode, values)
    if _SWAP:  # pragma: no cover - big-endian hosts
        arr.byteswap()
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _bytes(text, field: str) -> bytes:
    if not isinstance(text, str):
        raise SessionDecodeError(
            f"column {field!r} must be a base64 string, got "
            f"{type(text).__name__}",
            field=field,
        )
    try:
        return base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise SessionDecodeError(
            f"column {field!r} is not valid base64: {exc}", field=field
        ) from exc


def unpack(text, typecode: str, *, field: str) -> array:
    """Inverse of :func:`pack`; a byte count that is not a whole number
    of items is a truncated column."""
    raw = _bytes(text, field)
    arr = array(typecode)
    if len(raw) % arr.itemsize:
        raise SessionDecodeError(
            f"column {field!r} holds {len(raw)} bytes, not a multiple of "
            f"its {arr.itemsize}-byte items (truncated?)",
            field=field,
        )
    arr.frombytes(raw)
    if _SWAP:  # pragma: no cover - big-endian hosts
        arr.byteswap()
    return arr


def unpack_column(block: dict, key: str, typecode: str, *, where: str) -> array:
    """Column ``key`` of ``block`` unpacked; errors name ``<where>.<key>``
    (a missing column included)."""
    field = f"{where}.{key}"
    if key not in block:
        raise SessionDecodeError(
            f"{where} is missing column {key!r}", field=field
        )
    return unpack(block[key], typecode, field=field)


def check_ids(ids: array, n: int, *, field: str) -> None:
    """Every id in ``ids`` must be a vertex of an ``n``-vertex network."""
    if ids and (min(ids) < 0 or max(ids) >= n):
        raise SessionDecodeError(
            f"column {field!r} names a vertex outside [0, {n})", field=field
        )


def check_lengths(columns: dict[str, array], *, where: str) -> int:
    """All ``columns`` must have one length; returns it.  On a mismatch
    the error names the first column off the most common length."""
    lengths = {name: len(col) for name, col in columns.items()}
    sizes = list(lengths.values())
    if len(set(sizes)) > 1:
        common = max(sizes, key=sizes.count)
        name = next(key for key, size in lengths.items() if size != common)
        raise SessionDecodeError(
            f"columns of {where!r} disagree in length: {lengths}",
            field=f"{where}.{name}",
        )
    return next(iter(lengths.values()), 0)


def pack_flags(flags: bytes | bytearray) -> str:
    """A 0/1 byte vector as a zlib-compressed base64 column."""
    packed = zlib.compress(bytes(flags).rstrip(b"\0"), 1)
    return base64.b64encode(packed).decode("ascii")


def unpack_flags(text, n: int, *, field: str) -> bytearray:
    """Inverse of :func:`pack_flags`, zero-padded to ``n`` flags."""
    try:
        flags = bytearray(zlib.decompress(_bytes(text, field)))
    except zlib.error as exc:
        raise SessionDecodeError(
            f"column {field!r} is not a zlib stream: {exc}", field=field
        ) from exc
    if len(flags) > n:
        raise SessionDecodeError(
            f"column {field!r} flags {len(flags)} vertices of an "
            f"{n}-vertex network",
            field=field,
        )
    if flags.translate(None, b"\0\1"):
        raise SessionDecodeError(
            f"column {field!r} holds flag bytes other than 0 and 1",
            field=field,
        )
    flags.extend(bytes(n - len(flags)))
    return flags
