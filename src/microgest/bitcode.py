"""Bit-level codes of the compressed-model format.

Fixed-width packing of cluster indices, and the construction of canonical
Huffman codes: code lengths from a byte histogram, canonical code values,
the decoder's lookup table, and the size of a code table and of a coded
stream.  The coding stages themselves,
:func:`microgest.compression.huffman_encode` and
:func:`microgest.compression.huffman_decode`, are built on these.

The bit layer works on whole arrays: packing expands values into a bit
matrix and hands it to ``np.packbits``; unpacking is the reverse.

Code lengths come from the two-queue construction (van Leeuwen, 1976):
leaves sorted by (count, symbol), merged subtrees in the order they were
made, and the two lightest fronts merged each step, a leaf before a merged
subtree of equal weight.  That is the tie order of a heap that ranks
leaves in symbol order before every merged subtree.  The lengths of the
last few histograms are kept, so sizing a stream and then coding it build
the code once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptStream, InvalidParams, _check_integer, _is_integer
from .model import MAX_DENSE_WEIGHTS


# --- fixed-width packing -----------------------------------------------------

#: Widest packed value: unpacked values are int64.
MAX_BIT_WIDTH = 63

def _check_width(width: int) -> None:
    _check_integer("bit width", width, 0, MAX_BIT_WIDTH)


def _word_bytes(width: int) -> int:
    """Bytes of the narrowest unsigned integer type holding ``width`` bits."""
    return next(n for n in (1, 2, 4, 8) if 8 * n >= width)


def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack unsigned integers into a big-endian-within-byte bit stream.
    Anything but integers (``errors._is_integer``) is refused, never cast."""
    _check_width(width)
    if width == 0:
        return b""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows
        raise InvalidParams("pack_bits packs integers only") from None
    if array.dtype.kind not in "iu" or not isinstance(values, np.ndarray):
        # integers past 64 bits stay exact, and a list's bools stay bools
        array = np.array(values, dtype=object)
        if not all(map(_is_integer, array.flat)):
            raise InvalidParams("pack_bits packs integers only")
    bad = (array < 0) | (array >= 1 << width)
    if bad.any():
        raise InvalidParams(f"value {array[bad][0]} does not fit in {width} bits")
    n = _word_bytes(width)
    octets = array.astype(f">u{n}").view(np.uint8).reshape(-1, n)
    return np.packbits(np.unpackbits(octets, axis=1)[:, 8 * n - width :]).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` for a known value count."""
    _check_width(width)
    # a width-0 stream holds no bits to bound its count
    _check_integer("count", count, 0, None if width else MAX_DENSE_WEIGHTS)
    if width == 0:
        return np.zeros(count, dtype=int)
    needed = (count * width + 7) // 8
    if len(data) < needed:
        raise CorruptStream("bit stream shorter than declared")
    n = _word_bytes(width)
    bits = np.zeros((count, 8 * n), dtype=np.uint8)  # values, right-aligned
    bits[:, 8 * n - width :] = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=needed), count=count * width
    ).reshape(count, width)
    return np.packbits(bits, axis=1).view(f">u{n}").ravel().astype(np.int64)


# --- canonical Huffman codes -------------------------------------------------

@dataclass
class HuffmanTable:
    """Canonical code description: bit length per symbol, plus symbol count."""

    lengths: dict[int, int]
    n_symbols: int


#: Code length tables kept by :func:`_code_lengths`: saving a model codes the
#: same core stream that :func:`~microgest.compression.compress_model` sized.
_CODE_CACHE_SIZE = 4


def _code_lengths(counts: np.ndarray) -> dict[int, int]:
    """Huffman code length of every byte value with a nonzero count.

    A new dict on every call; the build behind it runs once per histogram
    while that histogram is among the last :data:`_CODE_CACHE_SIZE` asked for.
    """
    symbols, lengths = _built_lengths(np.asarray(counts, dtype=np.int64).tobytes())
    return dict(zip(symbols, lengths))


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _built_lengths(histogram: bytes) -> tuple[bytes, bytes]:
    """The symbols of a byte histogram (its int64 bytes) and their code
    lengths, by the two-queue construction (van Leeuwen, 1976).

    Leaves queue by (count, symbol); merged subtrees queue in the order they
    are made, which is also their weight order.  Each merge takes the two
    lightest fronts, the leaf first on a tie: the order a heap keyed by
    (weight, leaves in symbol order, then merges in the order made) pops.
    A code over at most 256 symbols is at most 255 bits deep, so both fit
    in bytes.
    """
    counts = np.frombuffer(histogram, dtype=np.int64)
    symbols = np.flatnonzero(counts).tolist()
    n = len(symbols)
    if n == 1:
        # degenerate alphabet: spend one bit per symbol anyway
        return bytes(symbols), b"\x01"
    weights = counts[symbols].tolist()
    leaves = sorted(range(n), key=weights.__getitem__)  # stable: symbol order on a tie
    merged: list[int] = []  # weights of the merged subtrees, node n + i at i
    parent = [0] * (2 * n - 1)
    leaf = made = 0  # queue fronts
    for node in range(n, 2 * n - 1):
        pair = 0
        for _ in range(2):
            if leaf < n and (made == len(merged) or weights[leaves[leaf]] <= merged[made]):
                child, weight = leaves[leaf], weights[leaves[leaf]]
                leaf += 1
            else:
                child, weight = n + made, merged[made]
                made += 1
            parent[child] = node
            pair += weight
        merged.append(pair)
    depth = [0] * len(parent)
    for child in range(len(parent) - 2, -1, -1):  # parents are made after children
        depth[child] = depth[parent[child]] + 1
    return bytes(symbols), bytes(depth[:n])


def _histogram(data: bytes) -> np.ndarray:
    """Count of each of the 256 byte values; empty input has no code.

    Counted 4096 bytes at a time: ``np.bincount`` widens its input to
    64-bit integers, eight bytes per byte counted.
    """
    if not data:
        raise InvalidParams("cannot build a code for empty input")
    octets = np.frombuffer(data, dtype=np.uint8)
    return sum(
        np.bincount(octets[at : at + 4096], minlength=256) for at in range(0, len(data), 4096)
    )


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical code values: sorted by (length, symbol)."""
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len: int | None = None
    for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        if prev_len is None:
            code = 0
        else:
            code = (code + 1) << (length - prev_len)
        codes[sym] = (code, length)
        prev_len = length
    return codes


#: Decoding-table length of a word longer than the table's width.
_LONG = 255


def _decode_table(
    lengths: dict[int, int], width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The canonical code of ``lengths`` by length, and a table of the word
    that each ``width``-bit peek starts.

    Returns ``(symbols, count, first, word_len, word_sym)``: the symbols in
    canonical order (bytes), the number of words of each length, the rank
    of each length's first word, and per peek the length and symbol of the
    word of at most ``width`` bits it starts.  A peek that starts a longer
    word has length :data:`_LONG` and in place of the symbol its rank ``e``
    past the last word of at most ``width`` bits; ``e`` is below 256, since
    a code has at most 256 words.  Any other peek matches nothing: length 0.
    """
    codes = canonical_codes(lengths)  # ascending code ranges
    symbols = np.fromiter(codes, dtype=np.uint8)
    by_rank = np.array([n for _, n in codes.values()])  # code lengths in rank order
    count = np.bincount(by_rank)
    first = np.cumsum(count) - count
    short = int(first[width] + count[width])
    # the words of at most `width` bits fill the peeks from 0 on, in rank
    # order, 2**(width - n) peeks for a word of n bits
    spans = np.array([1 << (width - n) for n in by_rank[:short].tolist()], dtype=np.int64)
    ends = np.minimum(np.cumsum(spans), 1 << width)
    rank = np.repeat(np.arange(short), np.diff(ends, prepend=0))
    e = np.arange((1 << width) - rank.size)  # rank of a later peek past the last short word
    longer = np.where((e < 256) & (by_rank[-1] > width), _LONG, 0)
    word_len = np.concatenate((by_rank[rank], longer)).astype(np.uint8)
    word_sym = np.concatenate((symbols[rank], e)).astype(np.uint8)
    return symbols, count, first, word_len, word_sym


def huffman_table_bytes(table: HuffmanTable) -> int:
    """Serialized size of a code table: 2-byte count plus 2 bytes per symbol."""
    return 2 + 2 * len(table.lengths)


def _huffman_coded_size(data: bytes) -> int:
    """Bytes :func:`~microgest.compression.huffman_encode` gives for
    ``data``, table included.

    Counted from the histogram and the code lengths, without encoding:
    ``ceil(sum(count * length) / 8)`` plus :func:`huffman_table_bytes`.
    """
    counts = _histogram(data)
    lengths = _code_lengths(counts)
    bits = sum(int(counts[sym]) * length for sym, length in lengths.items())
    return (bits + 7) // 8 + huffman_table_bytes(HuffmanTable(lengths, len(data)))
