"""Deep compression for flash-constrained targets.

The stages compose into a pipeline: magnitude pruning, shared-weight
clustering (k-means over each layer's surviving weights), a sparse
address-map encoding whose 8-bit position deltas replace full indices, bit
packing of cluster indices, and an optional canonical Huffman pass over the
encoded bytes.  Biases are never pruned or quantized; they ride along
uncompressed.

Masks returned by :func:`prune` mark *removed* weights with True.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
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
        if threshold < 0.0:
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

def kmeans_1d(
    values: np.ndarray, k: int, tol: float = 1e-9, max_iter: int = 300
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's k-means on scalars with linear initialization.

    Centroids start equally spaced over ``[min, max]`` of the data, which
    makes the procedure deterministic.  Iteration stops when no centroid
    moves more than ``tol`` or after ``max_iter`` rounds.  Empty clusters
    keep their previous centroid.  Returns ``(centroids, assignment,
    per-iteration sum of squared errors)``; the error sequence never
    increases.
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
    for _ in range(max_iter):
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
        if moved <= tol:
            break
    dist = np.abs(values[:, None] - centroids[None, :])
    assignment = np.argmin(dist, axis=1)
    sse_history.append(float(np.sum((values - centroids[assignment]) ** 2)))
    return centroids, assignment, sse_history


def bits_per_index(k: int) -> int:
    """Packed width of a cluster index: ``ceil(log2 k)``, zero for ``k=1``."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    return max(0, math.ceil(math.log2(k))) if k > 1 else 0


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
    surviving = np.asarray(weights, dtype=float)[~removed]
    if surviving.size == 0:
        raise KTooLarge("layer has no surviving weights to quantize")
    centroids, assignment, _ = kmeans_1d(surviving, k)
    return QuantizedLayer(centroids, assignment, bits_per_index(k))


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

def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack unsigned integers into a big-endian-within-byte bit stream."""
    if width < 0:
        raise InvalidParams("bit width must be >= 0")
    if width == 0:
        return b""
    out = bytearray()
    acc = 0
    nbits = 0
    limit = 1 << width
    for v in values:
        v = int(v)
        if not 0 <= v < limit:
            raise InvalidParams(f"value {v} does not fit in {width} bits")
        acc = (acc << width) | v
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` for a known value count."""
    if width == 0:
        return np.zeros(count, dtype=int)
    needed = (count * width + 7) // 8
    if len(data) < needed:
        raise CorruptStream("bit stream shorter than declared")
    out = np.empty(count, dtype=int)
    acc = 0
    nbits = 0
    pos = 0
    for i in range(count):
        while nbits < width:
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        nbits -= width
        out[i] = (acc >> nbits) & ((1 << width) - 1)
    return out


# --- canonical Huffman coding ------------------------------------------------

@dataclass
class HuffmanTable:
    """Canonical code description: bit length per symbol, plus symbol count."""

    lengths: dict[int, int]
    n_symbols: int


def _code_lengths(freq: Counter) -> dict[int, int]:
    if len(freq) == 1:
        # degenerate alphabet: spend one bit per symbol anyway
        return {next(iter(freq)): 1}
    heap = []
    for order, (sym, f) in enumerate(sorted(freq.items())):
        heapq.heappush(heap, (f, order, {sym: 0}))
    order += 1
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in a.items()}
        merged.update({s: d + 1 for s, d in b.items()})
        heapq.heappush(heap, (fa + fb, order, merged))
        order += 1
    return heap[0][2]


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
    if not data:
        raise InvalidParams("cannot build a code for empty input")
    lengths = _code_lengths(Counter(data))
    codes = canonical_codes(lengths)
    acc = 0
    nbits = 0
    out = bytearray()
    for byte in data:
        value, length = codes[byte]
        acc = (acc << length) | value
        nbits += length
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out), HuffmanTable(dict(lengths), len(data))


def huffman_decode(encoded: bytes, table: HuffmanTable) -> bytes:
    """Decode a canonical Huffman stream back to bytes."""
    if table.n_symbols == 0:
        return b""
    by_code = {
        (length, value): sym
        for sym, (value, length) in canonical_codes(table.lengths).items()
    }
    max_len = max(table.lengths.values())
    out = bytearray()
    value = 0
    length = 0
    bit_index = 0
    total_bits = len(encoded) * 8
    while len(out) < table.n_symbols:
        if bit_index >= total_bits:
            raise CorruptStream("bit stream ended inside a code word")
        bit = (encoded[bit_index >> 3] >> (7 - (bit_index & 7))) & 1
        bit_index += 1
        value = (value << 1) | bit
        length += 1
        sym = by_code.get((length, value))
        if sym is not None:
            out.append(sym)
            value = 0
            length = 0
        elif length > max_len:
            raise CorruptStream("no code word matches the stream")
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


def encoded_payload_size(cm: CompressedModel) -> int:
    """Bytes of encoded parameters as they would land on flash.

    Core blocks (centroids, packed indices, deltas) of every layer plus the
    raw float32 biases; when Huffman is enabled the core blocks are coded
    as one stream and the table size is charged too.
    """
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    biases = bias_block(cm)
    if not cm.huffman:
        return len(core) + len(biases)
    encoded, table = huffman_encode(core)
    return len(encoded) + huffman_table_bytes(table) + len(biases)


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
        removed = prune(
            params,
            threshold=options.threshold,
            target_density=options.target_density,
        )
    else:
        removed = no_pruning(params)
    pruned = apply_pruning(params, removed)
    if retrain_after_prune is not None:
        pruned = apply_pruning(retrain_after_prune(pruned, removed), removed)

    sparse_bytes = 0
    for lp in pruned.layers:
        sl = encode_sparse(lp.weights)
        sparse_bytes += 4 * len(sl.values) + len(sl.deltas) + 4 * lp.biases.size

    quantized: list[QuantizedLayer] = []
    for lp, mask, k in zip(
        pruned.layers, removed, _resolve_clusters(options, len(spec.layers))
    ):
        surviving = lp.weights[~mask]
        if k is None:
            # lossless mode: one centroid per distinct surviving value
            centroids, inverse = np.unique(surviving, return_inverse=True)
            quantized.append(
                QuantizedLayer(centroids, inverse, bits_per_index(len(centroids)))
            )
        else:
            quantized.append(quantize_kmeans(lp.weights, mask, k))

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
    no_huff = CompressedModel(spec=spec, layers=layers, huffman=False)
    cm.stage_sizes["encoded"] = encoded_payload_size(no_huff)
    if options.huffman:
        cm.stage_sizes["huffman"] = encoded_payload_size(cm)
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
