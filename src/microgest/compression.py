"""Deep compression for flash-constrained targets.

The stages compose into a pipeline: magnitude pruning, shared-weight
clustering (k-means over each layer's surviving weights), a sparse
address-map encoding whose 8-bit position deltas replace full indices, bit
packing of cluster indices, and an optional canonical Huffman pass over the
encoded bytes.  Biases are never pruned or quantized; they ride along
uncompressed.

K-means sorts each layer's values once and, while the centroids stay in
order, assigns them by cutting the sorted values at the centroid
midpoints, with a check that keeps the result equal to the nearest-centroid
``argmin``.  Its sums (a round's squared error, a cluster's mean) are
``np.add.reduce`` calls: the pairwise sums ``np.sum`` and ``ndarray.mean``
make, without their Python wrappers.  Huffman coding works on blocks of
the stream: encoding hands the code-word bits of a block of symbols to
``np.packbits``; decoding finds the code word at every bit offset of a
block with a lookup table and walks the chain of word lengths, for any
code with lengths up to 255 bits.  Bit packing and the construction of
canonical codes live in :mod:`microgest.bitcode`.  :func:`compress_model`
reports the Huffman stage's size from the byte histogram and the code
lengths, without encoding; only saving encodes, and the code lengths are
built once per histogram, so saving reuses the code that sizing built.

Masks returned by :func:`prune` mark *removed* weights with True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bitcode import (
    _LONG,
    HuffmanTable,
    _code_lengths,
    _decode_table,
    _histogram,
    _huffman_coded_size,
    canonical_codes,
    pack_bits,
)
from .errors import (
    CorruptStream,
    DeltaOverflow,
    InvalidParams,
    KTooLarge,
    _check_integer,
    _float_array,
    _is_integer,
)
from .model import LayerParams, ModelSpec, Parameters, _float32, _removal_masks, validate
from .inference import record_macs

#: Largest position delta the sparse address map can store in one entry.
DELTA_LIMIT = 255


# --- pruning -----------------------------------------------------------------

def prune(
    params: Parameters,
    threshold: float | None = None,
    target_density: float | None = None,
) -> list[np.ndarray]:
    """Select weights to remove, per layer; biases are never candidates.

    Exactly one policy must be given.  ``threshold`` removes weights with
    ``|w| < threshold`` (strictly below, so a weight sitting exactly on the
    threshold survives).  ``target_density`` keeps the
    ``round(density * size)`` largest-magnitude weights of every layer.
    Returns one boolean mask per layer with True at removed positions.
    """
    if (threshold is None) == (target_density is None):
        raise InvalidParams("give exactly one of threshold or target_density")
    masks = []
    if threshold is not None:
        if not threshold >= 0.0:  # NaN included
            raise InvalidParams("threshold must be >= 0")
        for lp in params.layers:
            masks.append(np.abs(lp.weights) < threshold)
        return masks
    if not 0.0 <= target_density <= 1.0:
        raise InvalidParams("target_density must be in [0, 1]")
    for lp in params.layers:
        flat = np.abs(lp.weights).ravel()
        keep = int(round(target_density * flat.size))
        removed = np.ones(flat.size, dtype=bool)
        if keep:
            order = np.argsort(flat, kind="stable")
            removed[order[flat.size - keep :]] = False
        masks.append(removed.reshape(lp.weights.shape))
    return masks


def apply_pruning(params: Parameters, removed: Sequence[np.ndarray]) -> Parameters:
    """Zero out removed weights, True in ``removed``'s one mask per layer;
    returns a new Parameters object."""
    removed = _removal_masks(removed, [lp.weights.shape for lp in params.layers])
    layers = []
    for lp, mask in zip(params.layers, removed):
        w = lp.weights.copy()
        w[mask] = 0.0
        layers.append(LayerParams(w, lp.biases.copy()))
    return Parameters(layers)


# --- shared-weight clustering ------------------------------------------------

KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 300


def kmeans_1d(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's k-means on finite scalars with linear initialization.

    Centroids start equally spaced over ``[min, max]`` of the data, which
    makes the procedure deterministic.  Each round assigns every value the
    centroid at the least distance ``|v - c|``, the first on a tie, and
    moves each centroid to the mean of its members.  Iteration stops when
    no centroid moves more than :data:`KMEANS_TOL` or after
    :data:`KMEANS_MAX_ITER` rounds.  Empty clusters keep their previous
    centroid.  Returns ``(centroids, assignment, per-iteration sum of
    squared errors)``; the error sequence never increases.

    The values are sorted once.  While the centroids are non-decreasing, a
    round cuts the sorted values at the centroid midpoints into one segment
    per cluster (:func:`_sorted_cut`), and only clusters whose segment moved
    are averaged again, over their members in index order.  Any other round
    takes the ``argmin`` of the full distance matrix, so the result is
    bit-identical to computing that matrix every round.
    """
    values = _float_array(values, "k-means expects numbers").ravel()
    _check_integer("k", k, 1)
    if k > values.size:
        raise KTooLarge(f"k={k} exceeds the {values.size} available values")
    if not np.isfinite(values).all():
        raise InvalidParams("k-means needs finite values")
    lo, hi = float(values.min()), float(values.max())
    if k == 1:
        centroids = np.array([(lo + hi) / 2.0])
    else:
        centroids = np.linspace(lo, hi, k)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    assignment = np.zeros(values.size, dtype=np.intp)
    cut = None  # segment bounds of the last round; None after a full-matrix round
    sse_history: list[float] = []
    moved = math.inf
    while True:
        new_cut = _sorted_cut(ordered, centroids)
        if new_cut is None:
            assignment = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
            stale = range(k)
        else:  # only clusters whose segment moved have new members
            stale = range(k) if cut is None else (
                (new_cut[:-1] != cut[:-1]) | (new_cut[1:] != cut[1:])
            ).nonzero()[0]
            for j in stale:
                assignment[order[new_cut[j] : new_cut[j + 1]]] = j
        cut = new_cut
        d = values - centroids[assignment]
        sse_history.append(float(np.add.reduce(d * d)))
        if moved <= KMEANS_TOL or len(sse_history) > KMEANS_MAX_ITER:
            return centroids, assignment, sse_history
        moved = 0.0
        new_centroids = centroids.copy()
        for j in stale:  # every other cluster keeps the mean of the members it has
            members = values[assignment == j]
            if members.size:
                new_centroids[j] = np.add.reduce(members) / members.size
                moved = max(moved, abs(new_centroids[j] - centroids[j]))
        centroids = new_centroids


def _sorted_cut(ordered: np.ndarray, centroids: np.ndarray) -> np.ndarray | None:
    """Bounds of one segment of the sorted values per centroid, such that
    every value's nearest centroid is its segment's; None when the
    midpoint cut does not give that or the centroids are not sorted.

    The cut is kept only if, for every value, its segment's centroid is a
    strict local minimum of the rounded distances to the centroids.  Over
    sorted centroids those distances fall and then rise (rounding is
    monotone), so a strict local minimum is the unique minimum: the index
    ``argmin`` returns.  Every value is checked, because rounding can make
    distances equal anywhere in a segment, not only at its ends.
    """
    if not (centroids[1:] >= centroids[:-1]).all():  # NaN included
        return None
    half = 0.5 * centroids  # halves first: the sum of two large centroids could overflow
    mids = half[:-1] + half[1:]
    # one stable merge places each midpoint before the values equal to it
    merged = np.argsort(np.concatenate((mids, ordered)), kind="stable")
    inner = np.flatnonzero(merged < mids.size) - np.arange(mids.size)
    cut = np.concatenate(([0], inner, [ordered.size]))
    counts = cut[1:] - cut[:-1]
    padded = np.concatenate(([-np.inf], centroids, [np.inf]))
    side = np.abs(ordered - padded[:-2].repeat(counts))
    np.minimum(side, np.abs(ordered - padded[2:].repeat(counts)), out=side)
    return cut if (np.abs(ordered - centroids.repeat(counts)) < side).all() else None


def bits_per_index(k: int) -> int:
    """Packed width of a cluster index: ``ceil(log2 k)``, zero for ``k=1``."""
    _check_integer("k", k, 1)
    return math.ceil(math.log2(k)) if k > 1 else 0


@dataclass
class QuantizedLayer:
    """Cluster table and per-surviving-weight indices of one layer."""

    centroids: np.ndarray
    indices: np.ndarray


def _quantize(surviving: np.ndarray, k: int | None) -> QuantizedLayer:
    """Shared-value table and indices of a layer's surviving weights: ``k``
    k-means clusters, or with ``k=None`` one centroid per distinct value."""
    if surviving.size == 0:
        raise KTooLarge("layer has no surviving weights to quantize")
    if k is None:
        centroids, assignment = np.unique(surviving, return_inverse=True)
    else:
        centroids, assignment, _ = kmeans_1d(surviving, k)
    return QuantizedLayer(centroids, assignment)


# --- sparse address-map encoding ---------------------------------------------

@dataclass
class SparseLayer:
    """Non-null values of a matrix plus 8-bit deltas between their positions.

    Positions are row-major linear indices; each delta is the distance to
    the previous entry's position (the virtual previous index before the
    first entry is -1).  A gap wider than 255 is bridged by filler entries
    carrying value 0.0 and delta 255.
    """

    values: np.ndarray
    deltas: np.ndarray


def _gaps(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's distance from the previous position (-1 before the
    first) and the fillers that bridge it: ``(gap - 1) // DELTA_LIMIT``."""
    gaps = np.diff(positions, prepend=-1)
    return gaps, (gaps - 1) // DELTA_LIMIT


def _encode_stream(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delta stream of ascending row-major positions, starting from -1.

    A gap wider than ``DELTA_LIMIT`` is bridged by filler entries of delta
    ``DELTA_LIMIT`` placed before the entry.  Returns ``(deltas, filler)``:
    the uint16 deltas and a mask that is True at filler entries.
    """
    gaps, fills = _gaps(positions)
    slots = fills + 1  # each entry's fillers, then the entry itself
    deltas = np.repeat(gaps - DELTA_LIMIT * fills, slots)
    filler = np.ones(deltas.size, dtype=bool)
    filler[np.cumsum(slots) - 1] = False
    deltas[filler] = DELTA_LIMIT
    return deltas.astype(np.uint16), filler


def _decode_stream(
    deltas: np.ndarray,
    entries: np.ndarray,
    shape: tuple[int, ...],
    table: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major positions and values of a sparse delta stream.

    ``entries`` runs parallel to ``deltas``: the stored values, or indices
    into ``table`` when one is given.  Every range of the stream is checked
    here: equal lengths, deltas in 1..``DELTA_LIMIT``, positions inside a
    matrix of ``shape`` and indices inside the table.
    """
    steps = np.asarray(deltas).astype(np.int64)  # a uint16 cumsum would wrap
    values = np.asarray(entries)
    if values.shape != steps.shape or steps.ndim != 1:
        raise CorruptStream(
            f"{values.size} stored entries against {steps.size} position deltas"
        )
    bad = (steps < 1) | (steps > DELTA_LIMIT)
    if bad.any():
        raise DeltaOverflow(f"delta {steps[bad][0]} outside 1..{DELTA_LIMIT}")
    positions = np.cumsum(steps) - 1
    if positions.size and positions[-1] >= math.prod(shape):
        raise CorruptStream("sparse entry positioned past the matrix end")
    if table is not None:
        if values.size and (values.min() < 0 or values.max() >= len(table)):
            raise CorruptStream("index stream references a missing centroid")
        values = np.asarray(table)[values]
    return positions, values


def encode_sparse(matrix: np.ndarray) -> SparseLayer:
    """Encode the non-zero entries of a matrix in row-major order."""
    flat = _float_array(matrix, "encode_sparse expects a matrix of numbers").ravel()
    positions = np.flatnonzero(flat)
    deltas, filler = _encode_stream(positions)
    values = np.zeros(deltas.size)
    values[~filler] = flat[positions]
    return SparseLayer(values, deltas)


def decode_sparse(sl: SparseLayer, shape: tuple[int, ...]) -> np.ndarray:
    """Rebuild the dense matrix; the exact inverse of :func:`encode_sparse`."""
    out = np.zeros(shape)
    positions, values = _decode_stream(sl.deltas, sl.values, shape)
    out.ravel()[positions] = values
    return out


def sparse_matvec(sl: SparseLayer, shape: tuple[int, int], x: np.ndarray) -> np.ndarray:
    """Multiply a sparse-encoded matrix by a vector without densifying it.

    Counts MACs exactly as the target firmware walking the address map
    would: one multiply-accumulate per stored entry (fillers included, their
    value is zero).  Each row sums its products in stream order, as that
    walk does.  Matches the dense product of the decoded matrix.
    """
    rows, cols = shape
    x = _float_array(x, f"vector must have {cols} entries")
    if x.shape != (cols,):
        raise InvalidParams(f"vector must have {cols} entries, got {x.shape}")
    positions, values = _decode_stream(sl.deltas, sl.values, shape)
    y = np.bincount(positions // cols, weights=values * x[positions % cols], minlength=rows)
    record_macs(len(values))
    return y.astype(float, copy=False)  # bincount gives ints when no entry is stored


# --- canonical Huffman coding ------------------------------------------------

#: Bytes coded or decoded per block, and bits one decoding table lookup reads.
_BLOCK_BYTES = 1024
_LOOKUP_BITS = 12


def huffman_encode(data: bytes) -> tuple[bytes, HuffmanTable]:
    """Encode bytes with a canonical Huffman code built from their histogram.

    The code-word bits of one block of symbols at a time are packed; the
    bits of a last partial byte carry over into the next block.
    """
    lengths = _code_lengths(_histogram(data))
    max_len = max(lengths.values())
    codes = canonical_codes(lengths)
    syms = list(codes)
    # every code word left-aligned in the same whole number of bytes
    nbytes = (max_len + 7) // 8
    octets = b"".join((v << (8 * nbytes - n)).to_bytes(nbytes, "big") for v, n in codes.values())
    bits = np.unpackbits(np.frombuffer(octets, dtype=np.uint8)).reshape(len(syms), -1)
    words = np.zeros((256, max_len), dtype=np.uint8)  # code bits, left-aligned
    used = np.zeros((256, max_len), dtype=bool)  # the bits each code word has
    words[syms] = bits[:, :max_len]
    used[syms] = np.arange(max_len) < np.array([n for _, n in codes.values()])[:, None]
    symbols = np.frombuffer(data, dtype=np.uint8)
    packed, carry = [], np.zeros(0, dtype=np.uint8)
    for start in range(0, symbols.size, _BLOCK_BYTES):
        part = symbols[start : start + _BLOCK_BYTES]
        bits = np.concatenate((carry, words[part][used[part]]))
        whole = bits.size - bits.size % 8
        packed.append(np.packbits(bits[:whole]).tobytes())
        carry = bits[whole:]
    packed.append(np.packbits(carry).tobytes())
    return b"".join(packed), HuffmanTable(lengths, len(data))


def huffman_decode(encoded: bytes, table: HuffmanTable) -> bytes:
    """Decode a canonical Huffman stream back to bytes.

    Lengths may reach 255 bits.  Block by block, the decoder finds the
    length and symbol of the code word that starts at every bit offset,
    then walks the chain of lengths from offset 0 and gathers the symbols
    at its start positions.  A table of ``2**K`` entries, ``K = min(max
    length, 12)``, maps the next ``K`` bits to a word of at most ``K``
    bits.  A longer word goes on one bit at a time with the canonical
    recurrence (Moffat and Turpin, 1997): at length ``l``, ``d = 2e + bit``
    is its rank among the ``count[l]`` words of that length if ``d <
    count[l]``; otherwise ``e = d - count[l]`` carries on, and once ``e``
    reaches 256 no word can match, as a code has at most 256.  So each
    offset decodes exactly as a bit-by-bit reader decodes it, errors
    included: a stream that runs out is ``bit stream ended inside a code
    word``, and one that matches nothing with more than ``max length``
    bits left is ``no code word matches the stream``.  A symbol count that
    is not a whole number >= 0, or no code words for symbols, is corrupt.
    """
    if not _is_integer(table.n_symbols) or table.n_symbols < 0:
        raise CorruptStream(f"symbol count {table.n_symbols!r} is not a whole number >= 0")
    if table.n_symbols == 0:
        return b""
    if min(table.lengths.values(), default=0) < 1:
        raise CorruptStream("code table without words, or with a word shorter than one bit")
    max_len = max(table.lengths.values())
    if max_len > 255 or not 0 <= min(table.lengths) <= max(table.lengths) <= 255:
        raise CorruptStream("code table out of range")
    width = min(max_len, _LOOKUP_BITS)
    symbols, count, first, word_len, word_sym = _decode_table(table.lengths, width)

    data = np.frombuffer(encoded, dtype=np.uint8)
    total = 8 * data.size
    pieces, left, pos = [], table.n_symbols, 0
    for base in range(0, data.size, _BLOCK_BYTES):
        nb = min(_BLOCK_BYTES, data.size - base)
        chunk = np.zeros(nb + max_len // 8 + 3, dtype=np.int64)  # zeros past the end
        raw = data[base : base + chunk.size]
        chunk[: raw.size] = raw
        # the next `width` bits at each bit offset, from 24-bit big-endian words
        words = chunk[:nb] * 65536 + chunk[1 : nb + 1] * 256 + chunk[2 : nb + 2]
        at = np.empty((nb, 8), dtype=np.int64)
        for bit in range(8):
            at[:, bit] = words // (1 << (24 - width - bit)) % (1 << width)
        steps, syms = word_len[at.ravel()], word_sym[at.ravel()]
        wide = np.flatnonzero(steps == _LONG)
        if wide.size:
            bits = np.unpackbits(chunk.astype(np.uint8))
            e = syms[wide].astype(np.int64)
            steps[wide] = 0
            for length in range(width + 1, max_len + 1):
                d = 2 * e + bits[wide + length - 1]
                hit = d < count[length]
                steps[wide[hit]] = length
                syms[wide[hit]] = symbols[first[length] + d[hit]]
                e = d - count[length]
                wide, e = wide[~hit & (e < 256)], e[~hit & (e < 256)]
                if not wide.size:
                    break
        tail = max(0, total - 8 * base - max_len)  # words from here may run past the end
        steps[tail:][np.arange(tail, 8 * nb) + steps[tail:] > total - 8 * base] = 0
        step = steps.tobytes() + bytes(256)  # a zero step ends the walk
        chain = bytearray(len(step))  # marks the offsets where a word starts
        p = pos - 8 * base
        while n := step[p]:
            chain[p] = 1
            p += n
        starts = np.flatnonzero(np.frombuffer(chain, dtype=np.uint8))
        if p < 8 * nb and starts.size < left:
            if total - 8 * base - p > max_len:
                raise CorruptStream("no code word matches the stream")
            raise CorruptStream("bit stream ended inside a code word")
        pieces.append(syms[starts[:left]].tobytes())
        left -= min(left, starts.size)
        if not left:
            return b"".join(pieces)
        pos = 8 * base + p
    raise CorruptStream("bit stream ended inside a code word")


# --- compressed model container ----------------------------------------------

@dataclass(frozen=True)
class CompressionOptions:
    """Pipeline settings: pruning policy, cluster count, Huffman toggle.

    ``clusters`` may be one count for all layers, a per-layer sequence, or
    None for a lossless table of every distinct surviving value.
    """

    target_density: float | None = None
    threshold: float | None = None
    clusters: int | Sequence[int] | None = None
    huffman: bool = True


@dataclass
class CompressedLayer:
    """Everything needed to rebuild one layer's weights and biases.

    ``indices`` and ``deltas`` are parallel: entry ``j`` advances the
    row-major position by ``deltas[j]`` and writes ``centroids[indices[j]]``
    there.  Filler entries (bridging delta gaps above 255) point at a
    centroid holding exactly 0.0.  Centroid and bias values are rounded to
    float32, the storage precision.
    """

    shape: tuple[int, int]
    centroids: np.ndarray
    indices: np.ndarray
    deltas: np.ndarray
    biases: np.ndarray
    bits: int


@dataclass
class CompressedModel:
    spec: ModelSpec
    layers: list[CompressedLayer]
    huffman: bool
    stage_sizes: dict[str, int] = field(default_factory=dict)

    def surviving_weights(self) -> int:
        """Stored weight entries, filler entries excluded."""
        total = 0
        for layer in self.layers:
            fillers = int(
                np.sum(
                    (np.asarray(layer.deltas) == DELTA_LIMIT)
                    & (layer.centroids[layer.indices] == 0.0)
                )
            )
            total += len(layer.indices) - fillers
        return total


def _assemble_layer(
    weights: np.ndarray,
    removed: np.ndarray,
    q: QuantizedLayer,
    biases: np.ndarray,
) -> CompressedLayer:
    removed = np.asarray(removed, dtype=bool)
    deltas, filler = _encode_stream(np.flatnonzero(~removed.ravel()))
    centroids = _float32(q.centroids).astype(float)
    indices = np.zeros(deltas.size, dtype=int)
    indices[~filler] = q.indices
    if filler.any():
        # fillers reuse the first centroid equal to 0.0, or append one
        zeros = np.flatnonzero(centroids == 0.0)
        if not zeros.size:
            centroids = np.append(centroids, 0.0)
        indices[filler] = zeros[0] if zeros.size else len(centroids) - 1
    return CompressedLayer(
        shape=tuple(weights.shape),
        centroids=centroids,
        indices=indices,
        deltas=deltas,
        biases=_float32(biases).astype(float),
        bits=bits_per_index(len(centroids)),
    )


def layer_core_block(layer: CompressedLayer) -> bytes:
    """Serialized centroid table, packed index stream, and delta stream."""
    _decode_stream(layer.deltas, layer.indices, layer.shape, layer.centroids)
    centroids = np.asarray(layer.centroids, dtype="<f4").tobytes()
    packed = pack_bits(layer.indices, layer.bits)
    return centroids + packed + np.asarray(layer.deltas).astype(np.uint8).tobytes()


def bias_block(cm: CompressedModel) -> bytes:
    return b"".join(
        np.asarray(layer.biases, dtype="<f4").tobytes() for layer in cm.layers
    )


def _resolve_clusters(options: CompressionOptions, n_layers: int) -> list[int | None]:
    if options.clusters is None:
        return [None] * n_layers
    try:
        ks = list(options.clusters)
    except TypeError:  # one count for every layer
        _check_integer("clusters", options.clusters, 1)
        return [options.clusters] * n_layers
    if len(ks) != n_layers:
        raise InvalidParams(f"need one cluster count per layer ({n_layers})")
    return ks


def compress_model(
    spec: ModelSpec,
    params: Parameters,
    options: CompressionOptions,
    retrain_after_prune: Callable | None = None,
    retrain_after_quantize: Callable | None = None,
) -> CompressedModel:
    """Run the whole compression pipeline on a trained model.

    Stages: prune (by the options' policy, or keep everything), optional
    caller-supplied retraining, per-layer k-means quantization, optional
    centroid retraining, then sparse assembly.  The returned container
    carries a byte-size report of every stage under ``stage_sizes``:
    ``naive`` (dense float32), ``pruned_sparse`` (float values plus
    deltas), ``encoded`` (the core blocks of every layer -- centroids,
    packed indices, deltas -- plus the raw float32 biases), and, when
    enabled, ``huffman`` (the core blocks coded as one stream, table
    included, plus the biases).  The last of these is the parameter
    payload a saved file holds.

    ``retrain_after_prune(pruned_params, removed_masks)`` must return new
    Parameters; ``retrain_after_quantize(assignments, centroids, params)``
    must return ``(new_centroids, new_params)`` where assignments use -1
    for removed positions.  A value beyond float32 is NonFiniteParameter.
    """
    validate(spec, params)
    n_params = sum(lp.weights.size + lp.biases.size for lp in params.layers)
    if options.target_density is not None or options.threshold is not None:
        removed = prune(params, options.threshold, options.target_density)
    else:
        removed = [np.zeros(lp.weights.shape, dtype=bool) for lp in params.layers]
    pruned = apply_pruning(params, removed)
    if retrain_after_prune is not None:
        pruned = apply_pruning(retrain_after_prune(pruned, removed), removed)
    for lp in pruned.layers:  # before k-means squares them; biases and centroids below
        _float32(lp.weights)

    # the sparse stage stores a float32 value and a delta byte per entry,
    # counted without building the stream
    sparse_bytes = 0
    for lp in pruned.layers:
        gaps, fills = _gaps(np.flatnonzero(lp.weights))
        sparse_bytes += 5 * (gaps.size + int(fills.sum())) + 4 * lp.biases.size
    quantized = [
        _quantize(lp.weights[~mask], k)
        for lp, mask, k in zip(
            pruned.layers, removed, _resolve_clusters(options, len(spec.layers))
        )
    ]

    if retrain_after_quantize is not None:
        assignments = []
        for layer_spec, mask, q in zip(spec.layers, removed, quantized):
            dense = -np.ones((layer_spec.neurons, layer_spec.fan_in), dtype=int)
            dense[~mask] = q.indices
            assignments.append(dense)
        new_centroids, pruned = retrain_after_quantize(
            assignments, [q.centroids for q in quantized], pruned
        )
        for q, c in zip(quantized, new_centroids):
            q.centroids = np.asarray(c, dtype=float)

    layers = [
        _assemble_layer(lp.weights, mask, q, lp.biases)
        for lp, mask, q in zip(pruned.layers, removed, quantized)
    ]
    cm = CompressedModel(spec=spec, layers=layers, huffman=options.huffman)
    cm.stage_sizes["naive"] = 4 * n_params
    cm.stage_sizes["pruned_sparse"] = sparse_bytes
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    bias_bytes = len(bias_block(cm))
    cm.stage_sizes["encoded"] = len(core) + bias_bytes
    if cm.huffman:
        cm.stage_sizes["huffman"] = _huffman_coded_size(core) + bias_bytes
    return cm


def decompress_model(cm: CompressedModel) -> Parameters:
    """Expand a compressed model back to dense Parameters.

    The result is exactly the encoder's reconstruction: centroid values at
    surviving positions (float32 precision), zeros elsewhere, biases at
    float32 precision.
    """
    layers = []
    for layer in cm.layers:
        weights = np.zeros(layer.shape)
        positions, values = _decode_stream(
            layer.deltas, layer.indices, layer.shape, layer.centroids
        )
        weights.ravel()[positions] = values
        layers.append(LayerParams(weights, np.asarray(layer.biases, dtype=float).copy()))
    return Parameters(layers)
