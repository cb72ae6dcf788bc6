"""Binary file formats: models, compressed models, datasets.

All three formats share one frame:

    magic (4 bytes) | version (u16 LE) | header_len (u32 LE) |
    header (canonical JSON, UTF-8) | payload | crc32 (u32 LE)

The checksum covers every byte before it.  Numeric payloads are
little-endian regardless of host; weights and biases are stored as 32-bit
floats, images as 16-bit unsigned ADC values.  Writes go to a temporary
file in the target directory and are renamed into place, so a reader
never observes a half-written file.  A read takes the payload straight
into an array of its own; a loaded dataset's frames are that array.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .bitcode import HuffmanTable, huffman_table_bytes, unpack_bits
from .compression import (
    CompressedLayer,
    CompressedModel,
    _decode_stream,
    bias_block,
    bits_per_index,
    huffman_decode,
    huffman_encode,
    layer_core_block,
)
from .errors import (
    ChecksumMismatch,
    CorruptStream,
    IllegalActivationPlacement,
    MicrogestError,
    NonFiniteParameter,
    ShapeMismatch,
    Truncated,
    VersionUnsupported,
    _is_integer,
)
from .features import AnnotatedSequence, _label_array
from .model import (
    Activation,
    LayerKind,
    LayerParams,
    ModelSpec,
    Parameters,
    _check_size,
    chain,
    validate,
)

FORMAT_VERSION = 1

MAGIC_MODEL = b"MGNN"
MAGIC_COMPRESSED = b"MGCM"
MAGIC_DATASET = b"MGDS"

_PREFIX = struct.Struct("<4sHI")


def _atomic_write(path: str | Path, pieces) -> None:
    """Write the byte pieces of a file one after another, then move the
    file into place.  An ``OSError`` names ``path``, not the temporary
    file next to it."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            for piece in pieces:
                f.write(piece)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def _frame(magic: bytes, header: dict, payload) -> tuple:
    """The pieces of a framed file: prelude and header, the payload (any
    contiguous bytes-like object, written as it is), and the CRC-32 of
    both, taken piece by piece so the payload is never copied."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    head = _PREFIX.pack(magic, FORMAT_VERSION, len(header_bytes)) + header_bytes
    return head, payload, struct.pack("<I", zlib.crc32(payload, zlib.crc32(head)))


def _unframe(path: str | Path, magic: bytes) -> tuple[dict, np.ndarray]:
    """Read a framed file: its header, and its payload read straight into
    an aligned, writable byte array of its own, which a loader may keep as
    its data.  The CRC is taken piece by piece, so no byte is copied."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _PREFIX.size + 4:
            raise Truncated("file shorter than the fixed prelude")
        prelude = f.read(_PREFIX.size)
        got_magic, version, header_len = _PREFIX.unpack(prelude)
        if got_magic != magic:
            raise CorruptStream(f"bad magic {got_magic!r}, expected {magic!r}")
        if version > FORMAT_VERSION:
            raise VersionUnsupported(f"file version {version} is newer than {FORMAT_VERSION}")
        if size < _PREFIX.size + header_len + 4:
            raise Truncated("file ends inside the header")
        header_bytes = f.read(header_len)
        payload = np.empty(size - _PREFIX.size - header_len - 4, dtype=np.uint8)
        tail = f.read(4) if f.readinto(payload) == payload.size else b""
    if len(tail) != 4:
        raise Truncated("file changed while it was read")
    crc = zlib.crc32(payload, zlib.crc32(header_bytes, zlib.crc32(prelude)))
    if crc != struct.unpack("<I", tail)[0]:
        raise ChecksumMismatch("checksum does not match file contents")
    try:
        header = json.loads(header_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptStream(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CorruptStream("header is not a JSON object")
    return header, payload


@contextmanager
def _malformed(what: str):
    """Report a header field of the wrong type or value as a corrupt stream."""
    try:
        yield
    except (
        AttributeError,
        KeyError,
        TypeError,
        ValueError,
        OverflowError,
        IllegalActivationPlacement,
    ) as exc:
        raise CorruptStream(f"malformed {what}: {exc}") from None


def _count(value) -> int:
    """A header count as written: a JSON integer.  Anything else, a float
    that ``int()`` would truncate included, is a corrupt stream."""
    if not _is_integer(value):
        raise CorruptStream(f"header count {value!r} is not an integer")
    return value


def _finite_floats(buffer: bytes, count: int = -1, offset: int = 0,
                   what: str = "value") -> np.ndarray:
    """Little-endian float32 values widened to float, refused as a
    ``CorruptStream`` when any is NaN or infinite.  The check runs on the
    float32 values: widening a signalling NaN would warn first."""
    values = np.frombuffer(buffer, dtype="<f4", count=count, offset=offset)
    if not np.isfinite(values).all():
        raise CorruptStream(f"non-finite {what}")
    return values.astype(float)


def _spec_to_header(spec: ModelSpec) -> dict:
    return {
        "features": spec.features,
        "layers": [
            {
                "kind": layer.kind.value,
                "neurons": layer.neurons,
                "activation": layer.activation.value,
            }
            for layer in spec.layers
        ],
    }


def _spec_from_header(header: dict) -> ModelSpec:
    with _malformed("model description"):
        return chain(
            _count(header["features"]),
            [
                (
                    LayerKind(entry["kind"]),
                    _count(entry["neurons"]),
                    Activation(entry["activation"]),
                )
                for entry in header["layers"]
            ],
        )


# --- model files -------------------------------------------------------------

def save_model(
    path: str | Path,
    spec: ModelSpec,
    params: Parameters,
    meta: dict | None = None,
) -> None:
    """Write spec and parameters; values are rounded to 32-bit floats.
    A value beyond the 32-bit range raises ``NonFiniteParameter`` before
    anything is written."""
    validate(spec, params)
    header = _spec_to_header(spec)
    header["format"] = "model"
    if meta:
        header["meta"] = meta
    with np.errstate(over="ignore"):
        blocks = [
            np.asarray(values, dtype="<f4")
            for lp in params.layers
            for values in (lp.weights, lp.biases)
        ]
    if not all(np.isfinite(b).all() for b in blocks):
        raise NonFiniteParameter("a weight or bias overflows a 32-bit float")
    payload = b"".join(b.tobytes() for b in blocks)
    _atomic_write(path, _frame(MAGIC_MODEL, header, payload))


def load_model(path: str | Path) -> tuple[ModelSpec, Parameters]:
    """Read a model file back; inverse of :func:`save_model`."""
    header, payload = _unframe(path, MAGIC_MODEL)
    spec = _spec_from_header(header)
    expected = 4 * sum(l.neurons * l.fan_in + l.neurons for l in spec.layers)
    if len(payload) != expected:
        raise Truncated(
            f"payload holds {len(payload)} bytes, header implies {expected}"
        )
    layers = []
    offset = 0
    for layer in spec.layers:
        n_w = layer.neurons * layer.fan_in
        w = _finite_floats(payload, n_w, offset, "weight")
        offset += 4 * n_w
        b = _finite_floats(payload, layer.neurons, offset, "bias")
        offset += 4 * layer.neurons
        layers.append(LayerParams(w.reshape(layer.neurons, layer.fan_in), b))
    return spec, Parameters(layers)


def load_model_meta(path: str | Path) -> dict:
    header, _ = _unframe(path, MAGIC_MODEL)
    return header.get("meta", {})


# --- compressed model files --------------------------------------------------

def save_compressed(path: str | Path, cm: CompressedModel) -> None:
    """Write a compressed model; core blocks optionally Huffman coded."""
    header = _spec_to_header(cm.spec)
    for entry, layer in zip(header["layers"], cm.layers):
        entry.update(
            shape=list(layer.shape),
            bits=layer.bits,
            n_centroids=len(layer.centroids),
            n_entries=len(layer.indices),
        )
    header["format"] = "compressed"
    header["huffman"] = bool(cm.huffman)
    if cm.stage_sizes:
        header["stage_sizes"] = {k: int(v) for k, v in cm.stage_sizes.items()}
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    if cm.huffman:
        encoded, table = huffman_encode(core)
        header["code"] = {
            "lengths": {str(sym): length for sym, length in sorted(table.lengths.items())},
            "n_symbols": table.n_symbols,
        }
        core = encoded
    _atomic_write(path, _frame(MAGIC_COMPRESSED, header, core + bias_block(cm)))


# each byte symbol by its code-table key, spelled as save_compressed writes it
_SYMBOL_OF_KEY = {str(sym): sym for sym in range(256)}


def _code_table(header: dict) -> HuffmanTable | None:
    """The header's Huffman code table, or None when the core is stored plain."""
    if not isinstance(header.get("huffman"), bool):
        raise CorruptStream("huffman flag missing or not a boolean")
    if not header["huffman"]:
        return None
    with _malformed("code table"):
        code = header["code"]
        # another key (" 2", "+2", "02", "300") is a KeyError: one spelling per symbol
        lengths = {_SYMBOL_OF_KEY[sym]: _count(length) for sym, length in code["lengths"].items()}
        table = HuffmanTable(lengths, _count(code["n_symbols"]))
    # a code over at most 256 symbols is at most 255 bits deep
    if not lengths or not all(1 <= n <= 255 for n in lengths.values()):
        raise CorruptStream("code table out of range")
    # Kraft: sum(2^-length) <= 1, or canonical code words overflow their lengths
    if sum(1 << (255 - n) for n in lengths.values()) > 1 << 255:
        raise CorruptStream("code table over-subscribed")
    return table


def load_compressed(path: str | Path) -> CompressedModel:
    """Read a compressed model back; inverse of :func:`save_compressed`.

    Every malformed input raises ``CorruptStream``, ``Truncated`` or
    ``ShapeMismatch``, so a model that loads also decompresses to finite
    parameters that fit its spec and its size rule (``model._check_size``).
    """
    header, payload = _unframe(path, MAGIC_COMPRESSED)
    spec = _spec_from_header(header)
    _check_size(spec, CorruptStream)
    table = _code_table(header)
    with _malformed("layer entry"):
        entries = [
            (tuple(_count(v) for v in e["shape"]), _count(e["bits"]),
             _count(e["n_centroids"]), _count(e["n_entries"]))
            for e in header["layers"]
        ]
        stage_sizes = {k: _count(v) for k, v in header.get("stage_sizes", {}).items()}
    n_biases = [layer.neurons for layer in spec.layers]
    core_len = len(payload) - 4 * sum(n_biases)
    if core_len < 0:
        raise Truncated("payload shorter than the bias block")
    biases = _finite_floats(payload, offset=core_len, what="bias")
    core = payload[:core_len] if table is None else huffman_decode(payload[:core_len], table)

    layers = []
    offset = 0
    for layer_spec, (shape, bits, n_centroids, n_entries), layer_biases in zip(
        spec.layers, entries, np.split(biases, np.cumsum(n_biases)[:-1])
    ):
        if shape != (layer_spec.neurons, layer_spec.fan_in):
            raise ShapeMismatch(f"layer shape {shape} does not fit the model description")
        if n_entries < 0 or n_centroids < 1 or bits != bits_per_index(n_centroids):
            raise CorruptStream(f"{n_entries} entries, {n_centroids} centroids, {bits} bits")
        packed_len = (n_entries * bits + 7) // 8
        if offset + 4 * n_centroids + packed_len + n_entries > len(core):
            raise Truncated("core stream ends inside a layer block")
        centroids = _finite_floats(core, n_centroids, offset, "centroid")
        offset += 4 * n_centroids
        indices = unpack_bits(core[offset : offset + packed_len], bits, n_entries)
        offset += packed_len
        deltas = np.frombuffer(core, dtype=np.uint8, count=n_entries, offset=offset).astype(np.uint16)
        offset += n_entries
        _decode_stream(deltas, indices, shape, centroids)  # range-checks both streams
        layers.append(CompressedLayer(shape, centroids, indices, deltas, layer_biases, bits))
    if offset != len(core):
        raise CorruptStream("core stream longer than the layer blocks imply")

    return CompressedModel(spec, layers, huffman=table is not None, stage_sizes=stage_sizes)


def compressed_payload_size(path: str | Path) -> int:
    """On-disk payload bytes (parameters only, header and framing excluded).

    This is the measurement compression ratios are judged by: encoded core
    stream plus bias block, plus the serialized code table when Huffman is
    enabled.
    """
    header, payload = _unframe(path, MAGIC_COMPRESSED)
    table = _code_table(header)
    return len(payload) + (0 if table is None else huffman_table_bytes(table))


# --- dataset files -----------------------------------------------------------

def save_dataset(path: str | Path, dataset: AnnotatedSequence) -> None:
    """Write frames and annotations losslessly."""
    dataset.check()
    header = {
        "format": "dataset",
        "width": dataset.width,
        "height": dataset.height,
        "fps": dataset.fps,
        "n_frames": len(dataset),
        "label_kind": dataset.label_kind,
        "annotations": np.stack([dataset.label_frames, dataset.labels], axis=1).tolist(),
    }
    # the frames' own bytes: no copy of a stack that is already little-endian
    payload = np.ascontiguousarray(dataset.frames, dtype="<u2").reshape(-1).view(np.uint8)
    _atomic_write(path, _frame(MAGIC_DATASET, header, payload))


def _label_pairs(pairs) -> np.ndarray:
    """The header's ``[frame, label]`` pairs as an ``(n, 2)`` int64 array, checked
    as whole lists under the rule a sequence's labels are built under: a bool,
    a float or a string is not an integer (as for ``_count``), nor is a value
    outside 64 bits."""
    if type(pairs) is not list or set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        raise CorruptStream("annotations are not a list of [frame, label] pairs")
    values = list(itertools.chain.from_iterable(pairs))
    try:
        return _label_array("annotations", values).reshape(-1, 2)
    except MicrogestError as exc:
        raise CorruptStream(str(exc)) from None


def load_dataset(path: str | Path) -> AnnotatedSequence:
    header, payload = _unframe(path, MAGIC_DATASET)
    with _malformed("dataset header"):
        width = _count(header["width"])
        height = _count(header["height"])
        n = _count(header["n_frames"])
        fps, label_kind = header["fps"], header["label_kind"]
        if type(fps) not in (int, float) or type(label_kind) is not str:
            raise CorruptStream(f"fps {fps!r} or label kind {label_kind!r} of the wrong type")
        label_frames, labels = _label_pairs(header["annotations"]).T
    expected = 2 * n * width * height
    if len(payload) != expected:
        raise Truncated(f"payload holds {len(payload)} bytes, header implies {expected}")
    # the frames are the payload array itself on a little-endian host
    frames = payload.view("<u2").reshape(n, height, width).astype(np.uint16, copy=False)
    dataset = AnnotatedSequence(width, height, frames, label_frames, labels, label_kind,
                                float(fps))
    dataset.check()
    return dataset
