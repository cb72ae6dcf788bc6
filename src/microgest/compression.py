"""Deep compression for flash-constrained targets.

The stages compose into a pipeline: magnitude pruning, shared-weight
clustering (k-means over each layer's surviving weights), a sparse
address-map encoding whose 8-bit position deltas replace full indices, bit
packing of cluster indices, and an optional canonical Huffman pass over the
encoded bytes.  Biases are never pruned or quantized; they ride along
uncompressed.

The bit layer works on whole arrays: packing and Huffman encoding expand
values into a bit matrix and hand it to ``np.packbits``; unpacking is the
reverse.  Huffman decoding reads one code word per step, by searching the
canonical code ranges, and accepts any code with lengths up to 255 bits.
:func:`compress_model` reports the Huffman stage's size from the byte
histogram and the code lengths, without encoding; only saving encodes.

Masks returned by :func:`prune` mark *removed* weights with True.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CorruptStream,
    DeltaOverflow,
    InvalidParams,
    KTooLarge,
)
from .model import LayerParams, ModelSpec, Parameters, validate
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
    """Zero out removed weights; returns a new Parameters object."""
    layers = []
    for lp, mask in zip(params.layers, removed):
        w = lp.weights.copy()
        w[np.asarray(mask, dtype=bool)] = 0.0
        layers.append(LayerParams(w, lp.biases.copy()))
    return Parameters(layers)


def no_pruning(params: Parameters) -> list[np.ndarray]:
    """All-False masks (every weight survives)."""
    return [np.zeros(lp.weights.shape, dtype=bool) for lp in params.layers]


# --- shared-weight clustering ------------------------------------------------

KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 300


def kmeans_1d(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's k-means on scalars with linear initialization.

    Centroids start equally spaced over ``[min, max]`` of the data, which
    makes the procedure deterministic.  Iteration stops when no centroid
    moves more than :data:`KMEANS_TOL` or after :data:`KMEANS_MAX_ITER`
    rounds.  Empty clusters keep their previous centroid.  Returns
    ``(centroids, assignment, per-iteration sum of squared errors)``; the
    error sequence never increases.
    """
    values = np.asarray(values, dtype=float).ravel()
    if k < 1:
        raise InvalidParams("k must be >= 1")
    if k > values.size:
        raise KTooLarge(f"k={k} exceeds the {values.size} available values")
    lo, hi = float(values.min()), float(values.max())
    if k == 1:
        centroids = np.array([(lo + hi) / 2.0])
    else:
        centroids = np.linspace(lo, hi, k)
    assignment = np.zeros(values.size, dtype=int)
    sse_history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        dist = np.abs(values[:, None] - centroids[None, :])
        assignment = np.argmin(dist, axis=1)
        sse_history.append(float(np.sum((values - centroids[assignment]) ** 2)))
        moved = 0.0
        new_centroids = centroids.copy()
        for j in range(k):
            members = values[assignment == j]
            if members.size:
                new_centroids[j] = members.mean()
                moved = max(moved, abs(new_centroids[j] - centroids[j]))
        centroids = new_centroids
        if moved <= KMEANS_TOL:
            break
    dist = np.abs(values[:, None] - centroids[None, :])
    assignment = np.argmin(dist, axis=1)
    sse_history.append(float(np.sum((values - centroids[assignment]) ** 2)))
    return centroids, assignment, sse_history


def bits_per_index(k: int) -> int:
    """Packed width of a cluster index: ``ceil(log2 k)``, zero for ``k=1``."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    return math.ceil(math.log2(k)) if k > 1 else 0


@dataclass
class QuantizedLayer:
    """Cluster table and per-surviving-weight indices of one layer."""

    centroids: np.ndarray
    indices: np.ndarray
    bits: int


def quantize_kmeans(weights: np.ndarray, removed: np.ndarray, k: int) -> QuantizedLayer:
    """Cluster one layer's surviving weights into ``k`` shared values.

    Surviving weights are visited in row-major order.
    """
    removed = np.asarray(removed, dtype=bool)
    return _quantize(np.asarray(weights, dtype=float)[~removed], k)


def _quantize(surviving: np.ndarray, k: int | None) -> QuantizedLayer:
    """Shared-value table and indices of a layer's surviving weights: ``k``
    k-means clusters, or with ``k=None`` one centroid per distinct value."""
    if surviving.size == 0:
        raise KTooLarge("layer has no surviving weights to quantize")
    if k is None:
        centroids, assignment = np.unique(surviving, return_inverse=True)
    else:
        centroids, assignment, _ = kmeans_1d(surviving, k)
    return QuantizedLayer(centroids, assignment, bits_per_index(len(centroids)))


def dequantize_layer(
    q: QuantizedLayer, removed: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Dense weight matrix with every surviving weight replaced by its centroid."""
    removed = np.asarray(removed, dtype=bool)
    out = np.zeros(shape)
    out[~removed] = q.centroids[q.indices]
    return out


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


def _encode_stream(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delta stream of ascending row-major positions, starting from -1.

    A gap wider than ``DELTA_LIMIT`` is bridged by filler entries of delta
    ``DELTA_LIMIT`` placed before the entry.  Returns ``(deltas, filler)``:
    the uint16 deltas and a mask that is True at filler entries.
    """
    gaps = np.diff(positions, prepend=-1)
    fills = (gaps - 1) // DELTA_LIMIT
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
    flat = np.asarray(matrix, dtype=float).ravel()
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
    x = np.asarray(x, dtype=float)
    if x.shape != (cols,):
        raise InvalidParams(f"vector must have {cols} entries, got {x.shape}")
    positions, values = _decode_stream(sl.deltas, sl.values, shape)
    y = np.bincount(positions // cols, weights=values * x[positions % cols], minlength=rows)
    record_macs(len(values))
    return y.astype(float, copy=False)  # bincount gives ints when no entry is stored


# --- bit packing -------------------------------------------------------------

#: Widest packed value: unpacked values are int64.
MAX_BIT_WIDTH = 63


def _check_width(width: int) -> None:
    if not 0 <= width <= MAX_BIT_WIDTH:
        raise InvalidParams(f"bit width must be in 0..{MAX_BIT_WIDTH}")


def _word_bytes(width: int) -> int:
    """Bytes of the narrowest unsigned integer type holding ``width`` bits."""
    return next(n for n in (1, 2, 4, 8) if 8 * n >= width)


def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack unsigned integers into a big-endian-within-byte bit stream."""
    _check_width(width)
    if width == 0:
        return b""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        array = np.array(values, dtype=object)  # integers past 64 bits stay exact
    bad = (array < 0) | (array >= 1 << width)
    if bad.any():
        raise InvalidParams(f"value {array[bad][0]} does not fit in {width} bits")
    n = _word_bytes(width)
    octets = array.astype(f">u{n}").view(np.uint8).reshape(-1, n)
    return np.packbits(np.unpackbits(octets, axis=1)[:, 8 * n - width :]).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` for a known value count."""
    _check_width(width)
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


# --- canonical Huffman coding ------------------------------------------------

@dataclass
class HuffmanTable:
    """Canonical code description: bit length per symbol, plus symbol count."""

    lengths: dict[int, int]
    n_symbols: int


def _code_lengths(counts: np.ndarray) -> dict[int, int]:
    """Huffman code length of every byte value with a nonzero count.

    Merges the two lightest subtrees first; ties go to the subtree made
    earliest, leaves in symbol order before every merged subtree.
    """
    symbols = np.flatnonzero(counts).tolist()
    if len(symbols) == 1:
        # degenerate alphabet: spend one bit per symbol anyway
        return {symbols[0]: 1}
    heap = [(int(counts[sym]), node, node) for node, sym in enumerate(symbols)]
    heapq.heapify(heap)
    parent = [0] * (2 * len(symbols) - 1)
    node = len(symbols)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (fa + fb, node, node))
        node += 1
    depth = [0] * len(parent)
    for child in range(len(parent) - 2, -1, -1):  # parents are made after children
        depth[child] = depth[parent[child]] + 1
    return dict(zip(symbols, depth))


def _histogram(data: bytes) -> np.ndarray:
    """Count of each of the 256 byte values; empty input has no code."""
    if not data:
        raise InvalidParams("cannot build a code for empty input")
    return np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)


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


def huffman_encode(data: bytes) -> tuple[bytes, HuffmanTable]:
    """Encode bytes with a canonical Huffman code built from their histogram."""
    lengths = _code_lengths(_histogram(data))
    max_len = max(lengths.values())
    words = np.zeros((256, max_len), dtype=np.uint8)  # code bits, left-aligned
    widths = np.zeros(256, dtype=np.int64)
    for sym, (value, length) in canonical_codes(lengths).items():
        octets = np.frombuffer(value.to_bytes((length + 7) // 8, "big"), dtype=np.uint8)
        words[sym, :length] = np.unpackbits(octets)[-length:]
        widths[sym] = length
    symbols = np.frombuffer(data, dtype=np.uint8)
    used = np.arange(max_len) < widths[symbols][:, None]
    return np.packbits(words[symbols][used]).tobytes(), HuffmanTable(lengths, len(data))


def huffman_decode(encoded: bytes, table: HuffmanTable) -> bytes:
    """Decode a canonical Huffman stream back to bytes.

    Decodes one code word per step: peek ``max_len`` bits and find the
    code word whose canonical range ``[value, value + 1) << (max_len -
    length)`` holds them.  Lengths may reach 255 bits, so the peek is a
    Python integer.
    """
    if table.n_symbols == 0:
        return b""
    if min(table.lengths.values()) < 1:
        raise CorruptStream("code word shorter than one bit")
    max_len = max(table.lengths.values())
    codes = canonical_codes(table.lengths)  # ascending code ranges
    limits = [(value + 1) << (max_len - length) for value, length in codes.values()]
    symbols = list(codes)
    # a peek above every range matches no code word: it never fits
    lengths = [length for _, length in codes.values()] + [math.inf]
    chunk = max_len // 8 + 8  # bytes per refill: always at least a full peek
    n_bytes = len(encoded)
    out = bytearray()
    acc = nbits = pos = 0
    for _ in range(table.n_symbols):
        if nbits < max_len and pos < n_bytes:
            octets = encoded[pos : pos + chunk]
            pos += len(octets)
            acc = (acc << 8 * len(octets)) | int.from_bytes(octets, "big")
            nbits += 8 * len(octets)
        shift = nbits - max_len
        i = bisect.bisect_right(limits, acc >> shift if shift >= 0 else acc << -shift)
        length = lengths[i]
        if length > nbits:
            # read bit by bit, a stream shows no match only after max_len + 1 bits
            if nbits + 8 * (n_bytes - pos) > max_len:
                raise CorruptStream("no code word matches the stream")
            raise CorruptStream("bit stream ended inside a code word")
        nbits -= length
        acc &= (1 << nbits) - 1
        out.append(symbols[i])
    return bytes(out)


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
    centroids = np.float32(q.centroids).astype(float)
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
        biases=np.float32(biases).astype(float),
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


def huffman_table_bytes(table: HuffmanTable) -> int:
    """Serialized size of a code table: 2-byte count plus 2 bytes per symbol."""
    return 2 + 2 * len(table.lengths)


def _huffman_coded_size(data: bytes) -> int:
    """Bytes :func:`huffman_encode` gives for ``data``, table included.

    Counted from the histogram and the code lengths, without encoding:
    ``ceil(sum(count * length) / 8)`` plus :func:`huffman_table_bytes`.
    """
    counts = _histogram(data)
    lengths = _code_lengths(counts)
    bits = sum(int(counts[sym]) * length for sym, length in lengths.items())
    return (bits + 7) // 8 + huffman_table_bytes(HuffmanTable(lengths, len(data)))


def _payload_sizes(cm: CompressedModel) -> dict[str, int]:
    """Encoded parameter bytes: ``encoded`` is the core blocks (centroids,
    packed indices, deltas) of every layer plus the raw float32 biases;
    with Huffman enabled, ``huffman`` codes the core blocks as one stream
    and charges the table size too."""
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    bias_bytes = len(bias_block(cm))
    sizes = {"encoded": len(core) + bias_bytes}
    if cm.huffman:
        sizes["huffman"] = _huffman_coded_size(core) + bias_bytes
    return sizes


def encoded_payload_size(cm: CompressedModel) -> int:
    """Bytes of encoded parameters as they would land on flash: the
    ``huffman`` stage size when Huffman is enabled, else ``encoded``."""
    return _payload_sizes(cm)["huffman" if cm.huffman else "encoded"]


def _resolve_clusters(options: CompressionOptions, n_layers: int) -> list[int | None]:
    if options.clusters is None:
        return [None] * n_layers
    if isinstance(options.clusters, int):
        return [options.clusters] * n_layers
    ks = list(options.clusters)
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
    deltas), ``encoded`` (centroids, packed indices, deltas, biases), and
    ``huffman`` when enabled.

    ``retrain_after_prune(pruned_params, removed_masks)`` must return new
    Parameters; ``retrain_after_quantize(assignments, centroids, params)``
    must return ``(new_centroids, new_params)`` where assignments use -1
    for removed positions.
    """
    validate(spec, params)
    n_params = sum(lp.weights.size + lp.biases.size for lp in params.layers)
    if options.target_density is not None or options.threshold is not None:
        removed = prune(params, options.threshold, options.target_density)
    else:
        removed = no_pruning(params)
    pruned = apply_pruning(params, removed)
    if retrain_after_prune is not None:
        pruned = apply_pruning(retrain_after_prune(pruned, removed), removed)

    # the sparse stage stores a float32 value and a delta byte per entry
    sparse_bytes = sum(
        5 * _encode_stream(np.flatnonzero(lp.weights))[0].size + 4 * lp.biases.size
        for lp in pruned.layers
    )
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
    cm.stage_sizes.update(_payload_sizes(cm))
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
