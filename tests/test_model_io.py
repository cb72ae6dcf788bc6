"""Binary file formats: framing, checksums, and bit-exact round-trips."""

import hashlib
import json
import os
import struct
import tracemalloc
import types
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgest.compression import (
    CompressionOptions,
    bias_block,
    compress_model,
    decompress_model,
    layer_core_block,
    prune,
)
from microgest.errors import (
    ChecksumMismatch,
    CorruptStream,
    InvalidParams,
    MicrogestError,
    NonFiniteParameter,
    PixelOutOfRange,
    ShapeMismatch,
    Truncated,
    VersionUnsupported,
)
from microgest.features import AnnotatedSequence
from microgest.model import LayerParams, Parameters, parse_arch, format_arch, validate
from microgest import model_io
from microgest.model_io import (
    compressed_payload_size,
    load_compressed,
    load_dataset,
    load_model,
    load_model_meta,
    save_compressed,
    save_dataset,
    save_model,
)
from microgest.synth import build_corpus
from microgest.training import init_params

from conftest import oracle_encode_with_code


@pytest.fixture
def model():
    spec = parse_arch("6-4tanh-r3relu-2softmax")
    return spec, init_params(spec, 9)


def _params_equal(a, b):
    return all(
        np.array_equal(la.weights, lb.weights) and np.array_equal(la.biases, lb.biases)
        for la, lb in zip(a.layers, b.layers)
    )


# --- model files -------------------------------------------------------------

def test_model_round_trip_recovers_spec_and_float32_params(tmp_path, model):
    spec, params = model
    path = tmp_path / "net.mgnn"
    save_model(path, spec, params)
    spec2, params2 = load_model(path)
    assert format_arch(spec2) == format_arch(spec)
    for lp, l2 in zip(params.layers, params2.layers):
        assert np.array_equal(l2.weights, np.float32(lp.weights).astype(float))
        assert np.array_equal(l2.biases, np.float32(lp.biases).astype(float))


def test_parameters_beyond_float32_are_refused_before_writing(tmp_path, model):
    # finite float64 values past float32's range once leaked an overflow
    # RuntimeWarning and wrote weights that load_model refuses
    spec, params = model
    path = tmp_path / "net.mgnn"
    save_model(path, spec, params)
    before = path.read_bytes()
    f32_max = float(np.finfo(np.float32).max)

    def with_bias(value):
        out = Parameters([LayerParams(lp.weights, lp.biases.copy()) for lp in params.layers])
        out.layers[-1].biases[0] = value
        return out

    huge_weights = Parameters(
        [LayerParams(lp.weights * 1e300, lp.biases) for lp in params.layers]
    )
    for huge in (huge_weights, with_bias(2 * f32_max)):
        with pytest.raises(NonFiniteParameter):
            save_model(path, spec, huge)
        assert path.read_bytes() == before
    # the largest float32 itself still fits
    save_model(path, spec, with_bias(f32_max))
    assert load_model(path)[1].layers[-1].biases[0] == f32_max


def test_model_serialization_is_canonical(tmp_path, model):
    spec, params = model
    first = tmp_path / "a.mgnn"
    second = tmp_path / "b.mgnn"
    save_model(first, spec, params)
    save_model(second, *load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_metadata_rides_in_the_header(tmp_path, model):
    spec, params = model
    path = tmp_path / "net.mgnn"
    save_model(path, spec, params, meta={"epochs": 40, "note": "desk run"})
    assert load_model_meta(path) == {"epochs": 40, "note": "desk run"}
    save_model(path, spec, params)
    assert load_model_meta(path) == {}


def test_flipped_payload_byte_is_detected(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    data = bytearray(path.read_bytes())
    data[-20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        load_model(path)


def test_flipped_header_byte_is_detected(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    data = bytearray(path.read_bytes())
    data[14] ^= 0x01  # inside the JSON header
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        load_model(path)


def test_wrong_magic_is_rejected(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptStream):
        load_model(path)


def test_future_version_is_refused_before_checksum(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    data = bytearray(path.read_bytes())
    data[4:6] = struct.pack("<H", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(VersionUnsupported):
        load_model(path)


def test_short_prelude_is_truncated(tmp_path):
    path = tmp_path / "net.mgnn"
    path.write_bytes(b"MGNN\x01")
    with pytest.raises(Truncated):
        load_model(path)


def test_cut_header_is_truncated(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(Truncated):
        load_model(path)


def test_cut_payload_fails_the_checksum(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    path.write_bytes(path.read_bytes()[:-30])
    with pytest.raises(ChecksumMismatch):
        load_model(path)


def test_overwrite_replaces_the_file_atomically(tmp_path, model):
    spec, params = model
    path = tmp_path / "net.mgnn"
    save_model(path, spec, params, meta={"run": 1})
    save_model(path, spec, params, meta={"run": 2})
    assert load_model_meta(path) == {"run": 2}
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_save_does_not_collide_with_a_fixed_temp_name(tmp_path, model):
    squatter = tmp_path / "net.mgnn.tmp"
    squatter.mkdir()
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    assert load_model_meta(path) == {}
    assert sorted(tmp_path.iterdir()) == [path, squatter]


def test_failed_write_leaves_no_temp_file(tmp_path, model):
    target = tmp_path / "net.mgnn"
    target.mkdir()  # the rename onto a directory fails
    with pytest.raises(OSError):
        save_model(target, *model)
    assert list(tmp_path.iterdir()) == [target]


_SAVES = {
    "model": lambda path, model: save_model(path, *model),
    "compressed": lambda path, model: save_compressed(path, _demo_compressed(True)[2]),
    "dataset": lambda path, model: save_dataset(path, build_corpus(1, seed=0)),
}


@pytest.mark.parametrize("kind", list(_SAVES))
@pytest.mark.parametrize("where", ["missing_dir/x.bin", "adir"])
def test_a_failed_write_names_the_given_path(tmp_path, model, kind, where):
    # the error once named the temporary file, x.bin.<random>.tmp
    (tmp_path / "adir").mkdir()
    path = tmp_path / where
    with pytest.raises(OSError) as info:
        _SAVES[kind](path, model)
    assert info.value.filename == str(path)
    assert str(path) in str(info.value) and ".tmp" not in str(info.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]


# --- compressed model files ---------------------------------------------------

def _demo_compressed(huffman):
    spec = parse_arch("180-7relu-14relu-13softmax")
    params = init_params(spec, 0)
    opts = CompressionOptions(target_density=0.32, clusters=15, huffman=huffman)
    return spec, params, compress_model(spec, params, opts)


@pytest.mark.parametrize("huffman", [True, False])
def test_compressed_round_trip_reconstructs_identically(tmp_path, huffman):
    spec, params, cm = _demo_compressed(huffman)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    cm2 = load_compressed(path)
    assert cm2.huffman == huffman
    assert cm2.stage_sizes == cm.stage_sizes
    assert _params_equal(decompress_model(cm), decompress_model(cm2))
    for la, lb in zip(cm.layers, cm2.layers):
        assert np.array_equal(la.indices, lb.indices)
        assert np.array_equal(la.deltas, lb.deltas)
        assert la.bits == lb.bits


def test_on_disk_payload_matches_the_size_model(tmp_path):
    for huffman in (True, False):
        spec, params, cm = _demo_compressed(huffman)
        path = tmp_path / f"net{int(huffman)}.mgcm"
        save_compressed(path, cm)
        stage = "huffman" if huffman else "encoded"
        assert compressed_payload_size(path) == cm.stage_sizes[stage]


def test_huffman_toggle_changes_bytes_not_reconstruction(tmp_path):
    _, _, with_h = _demo_compressed(True)
    _, _, without = _demo_compressed(False)
    a = tmp_path / "a.mgcm"
    b = tmp_path / "b.mgcm"
    save_compressed(a, with_h)
    save_compressed(b, without)
    assert compressed_payload_size(a) != compressed_payload_size(b)
    assert _params_equal(
        decompress_model(load_compressed(a)), decompress_model(load_compressed(b))
    )


# SHA-256 of the saved file, keyed by (density, clusters, huffman): the 0.5
# density rows were recorded with the bit-serial codec, the others cover the
# compression sweep's grid (each layer's k capped at its surviving weights)
_PINNED_MGCM = {
    (None, None, True): "cab9000b51cd8e81257154615612d4a8d09b9d254ea73188895d19fc5290ed10",
    (None, 16, True): "abf44d17376dca273ce52dbf423508002fd2517fb0b035be1ef82d3d86101ccb",
    (None, 4, True): "5c07293a4fe3accad7f351cb30c5bf4f1dbdf7d28d9ce61400a7493caf2f3adc",
    (0.1, None, True): "582d539e733372f7c68bd0f934f41687949c7f0bb101b77eaf6801873f5bbd22",
    (0.1, 16, True): "43a4394ddf65cd64f6e9dc355b35657bebc27dcb3de272436cbaa7c6a31fad9e",
    (0.1, 4, True): "4c61c76924a03603661b9efd04fed9687dd54c1efe50903c4907ca6d0fe2cbcf",
    (0.5, None, True): "1320aafe006b94e793b9d32d95be7ac1ad02098861f7626649e727d7668fbbdc",
    (0.5, None, False): "1e5d2531f6deec3a2f8355d158022435d3dc4ceb0ef31eb68d4882d4fa69f7fe",
    (0.5, 16, True): "bf1c3ea515b5fa73296211872f788cf0b565f8b2abcfc39b2619cc7037504e4f",
    (0.5, 16, False): "32982ee7dced2b3b23de8de75bb11e4eb1ff61e5feaef36eaec98decfd31bba2",
    (0.5, 4, True): "338d6aaa66b170b78bf5c9fae29fd183026c905c1bd1cb431e1bca407d6f7578",
    (0.5, 4, False): "6ad27a13ea702c198f0871c5e9c4bc673e8bcb956eb94ee3f3819c7a75aecf18",
}


@pytest.mark.parametrize("density, clusters, huffman", sorted(_PINNED_MGCM, key=str))
def test_saved_compressed_bytes_are_pinned(tmp_path, density, clusters, huffman):
    spec = parse_arch("180-20relu-10relu-5softmax")
    params = init_params(spec, 0)
    ks = None
    if clusters is not None:
        kept = [lp.weights.size for lp in params.layers]
        if density is not None:
            kept = [int((~m).sum()) for m in prune(params, target_density=density)]
        ks = [min(clusters, n) for n in kept]
    opts = CompressionOptions(target_density=density, clusters=ks, huffman=huffman)
    path = tmp_path / "net.mgcm"
    save_compressed(path, compress_model(spec, params, opts))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_MGCM[density, clusters, huffman]


def test_compressed_file_checksum_guard(tmp_path):
    _, _, cm = _demo_compressed(True)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    data = bytearray(path.read_bytes())
    data[-10] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        load_compressed(path)


def _split(data):
    """``(magic, header, payload)`` of a framed file."""
    _, _, header_len = struct.unpack_from("<4sHI", data)
    header = json.loads(data[10 : 10 + header_len])
    return data[:4], header, data[10 + header_len : -4]


def _reframe(magic, header, payload):
    """A framed file with a checksum that matches its contents."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = struct.pack("<4sHI", magic, 1, len(header_bytes)) + header_bytes + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _set_field(header, keys, value):
    """The header with the field at ``keys`` (the whole header for none) replaced."""
    if not keys:
        return value
    node = header
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return header


def _with_header_field(path, keys, value):
    magic, header, payload = _split(path.read_bytes())
    path.write_bytes(_reframe(magic, _set_field(header, keys, value), payload))


@pytest.mark.parametrize(
    "keys, value, error",
    [
        (("code", "lengths"), [[1, 2]], CorruptStream),
        (("code", "lengths"), {"300": 2}, CorruptStream),
        (("code", "lengths"), {"7": 10**9}, CorruptStream),
        (("stage_sizes",), [1, 2], CorruptStream),
        (("huffman",), "yes", CorruptStream),
        (("features",), float("inf"), CorruptStream),
        (("layers", 0, "n_entries"), -1, CorruptStream),
        (("layers", 0, "n_centroids"), -3, CorruptStream),
        (("layers", 0, "bits"), -1, CorruptStream),
        (("layers", 0, "bits"), 5, CorruptStream),
        (("layers", 0, "shape"), [2, 2], ShapeMismatch),
        (("layers", 1, "shape"), [14, 8], ShapeMismatch),
    ],
)
def test_malformed_compressed_header_fields_are_rejected(tmp_path, keys, value, error):
    _, _, cm = _demo_compressed(True)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    _with_header_field(path, keys, value)
    with pytest.raises(error):
        load_compressed(path)


def test_a_core_stream_longer_than_its_layer_blocks_is_corrupt(tmp_path):
    _, _, cm = _demo_compressed(False)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    magic, header, _ = _split(path.read_bytes())
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    path.write_bytes(_reframe(magic, header, core + b"\0" + bias_block(cm)))
    with pytest.raises(CorruptStream, match="longer than the layer blocks imply"):
        load_compressed(path)


def test_a_code_table_255_bits_deep_loads(tmp_path):
    _, _, cm = _demo_compressed(False)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    magic, header, _ = _split(path.read_bytes())
    # a complete code over every byte value: symbol s takes s + 1 bits, the
    # last two share 255
    lengths = {sym: min(sym + 1, 255) for sym in range(256)}
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    encoded = oracle_encode_with_code(core, lengths)
    header["huffman"] = True
    header["code"] = {"lengths": {str(s): n for s, n in lengths.items()}, "n_symbols": len(core)}
    path.write_bytes(_reframe(magic, header, encoded + bias_block(cm)))
    loaded = load_compressed(path)
    assert _params_equal(decompress_model(loaded), decompress_model(cm))


def test_over_subscribed_code_table_is_a_corrupt_stream(tmp_path):
    _, _, cm = _demo_compressed(True)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    magic, header, payload = _split(path.read_bytes())
    lengths = header["code"]["lengths"]
    # one more code word past a complete code: it sorts last, so every
    # stored code word keeps its value and the stream still decodes
    unused = min(set(range(256)) - {int(sym) for sym in lengths})
    lengths[str(unused)] = 255
    path.write_bytes(_reframe(magic, header, payload))
    with pytest.raises(CorruptStream, match="over-subscribed"):
        load_compressed(path)


def test_a_huge_dense_size_is_rejected_before_allocation(tmp_path):
    _, _, cm = _demo_compressed(False)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    magic, header, payload = _split(path.read_bytes())
    header["features"] = 10**11  # the stored stream still fits the first layer
    header["layers"][0]["shape"] = [7, 10**11]
    path.write_bytes(_reframe(magic, header, payload))
    with pytest.raises(CorruptStream, match="cap"):
        load_compressed(path)


def test_zero_delta_in_a_compressed_file_is_a_corrupt_stream(tmp_path):
    _, _, cm = _demo_compressed(False)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    magic, header, payload = _split(path.read_bytes())
    layer = cm.layers[0]
    first_delta = 4 * len(layer.centroids) + (len(layer.indices) * layer.bits + 7) // 8
    payload = payload[:first_delta] + b"\x00" + payload[first_delta + 1 :]
    path.write_bytes(_reframe(magic, header, payload))
    with pytest.raises(CorruptStream):
        load_compressed(path)


def test_header_that_is_not_an_object_is_corrupt(tmp_path, model):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    magic, _, payload = _split(path.read_bytes())
    path.write_bytes(_reframe(magic, [], payload))
    with pytest.raises(CorruptStream):
        load_model_meta(path)


@pytest.mark.parametrize("spelling", [" {}", "+{}", "0{}", "0_{}"])
def test_a_code_table_symbol_spelled_otherwise_is_corrupt(tmp_path, spelling):
    # int() once read all four as the symbol, so two spellings of one
    # symbol collapsed into one code-table entry
    _, _, cm = _demo_compressed(True)
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    magic, header, payload = _split(path.read_bytes())
    lengths = header["code"]["lengths"]
    sym = max(lengths, key=int)
    lengths[spelling.format(sym)] = lengths.pop(sym)
    path.write_bytes(_reframe(magic, header, payload))
    with pytest.raises(CorruptStream, match="malformed code table"):
        load_compressed(path)
    lengths[sym] = lengths[spelling.format(sym)]  # both spellings, one length
    path.write_bytes(_reframe(magic, header, payload))
    with pytest.raises(CorruptStream, match="malformed code table"):
        load_compressed(path)


@pytest.mark.parametrize("keys, value", [
    (("fps",), "40"), (("fps",), True), (("fps",), None), (("fps",), [40.0]),
    (("label_kind",), 5), (("label_kind",), None), (("label_kind",), ["gesture"]),
], ids=["fps-text", "fps-bool", "fps-null", "fps-list", "kind-int", "kind-null", "kind-list"])
def test_a_dataset_fps_or_label_kind_of_the_wrong_json_type_is_corrupt(tmp_path, keys, value):
    # float() once read "40" as 40.0 and true as 1.0, and str() turned 5
    # into the label kind "5"
    path = tmp_path / "corpus.mgds"
    save_dataset(path, build_corpus(1, seed=1))
    _with_header_field(path, keys, value)
    with pytest.raises(CorruptStream, match="of the wrong type"):
        load_dataset(path)


@pytest.mark.parametrize("keys, value, match", [
    (("annotations", 0), [47], "pairs"),
    (("annotations", 0), [47, 0, 1], "pairs"),
    (("annotations",), 7, "pairs"),
    (("annotations",), {}, "pairs"),  # once loaded as no annotations
    (("annotations",), {"ab": 0}, "pairs"),
    # once loaded, then refused by the frame or label check (InvalidParams)
    (("annotations", 0, 0), 2**70, "not an integer within 64 bits"),
    (("annotations", 0, 1), 2**70, "not an integer within 64 bits"),
    (("annotations", 0, 1), -(2**63) - 1, "not an integer within 64 bits"),
], ids=["1-entry", "3-entry", "number", "empty-object", "object", "huge-frame", "huge-label",
        "below-int64"])
def test_dataset_annotations_that_are_not_pairs_of_64_bit_integers_are_corrupt(
    tmp_path, keys, value, match
):
    path = tmp_path / "corpus.mgds"
    save_dataset(path, build_corpus(1, seed=1))
    _with_header_field(path, keys, value)
    with pytest.raises(CorruptStream, match=match):
        load_dataset(path)


def test_infinite_dataset_width_is_corrupt(tmp_path):
    path = tmp_path / "corpus.mgds"
    save_dataset(path, build_corpus(1, seed=1))
    _with_header_field(path, ("width",), float("inf"))
    with pytest.raises(CorruptStream):
        load_dataset(path)


# every count a header holds, per file kind; "first" stands for the first
# key of a mapping
_HEADER_COUNTS = [
    ("mgds", ("width",)),
    ("mgds", ("height",)),
    ("mgds", ("n_frames",)),
    ("mgds", ("annotations", 0, 0)),
    ("mgds", ("annotations", 0, 1)),
    ("mgnn", ("features",)),
    ("mgnn", ("layers", 1, "neurons")),
    ("mgcm", ("features",)),
    ("mgcm", ("layers", 1, "neurons")),
    ("mgcm", ("code", "n_symbols")),
    ("mgcm", ("code", "lengths", "first")),
    ("mgcm", ("layers", 0, "shape", 1)),
    ("mgcm", ("layers", 0, "bits")),
    ("mgcm", ("layers", 0, "n_centroids")),
    ("mgcm", ("layers", 0, "n_entries")),
    ("mgcm", ("stage_sizes", "first")),
]


def _saved(kind, path):
    """A valid file of ``kind`` at ``path``, with its loader."""
    if kind == "mgds":
        save_dataset(path, build_corpus(1, seed=1))
        return load_dataset
    if kind == "mgnn":
        spec = parse_arch("4-3relu-2softmax")
        save_model(path, spec, init_params(spec, 0))
        return load_model
    save_compressed(path, _demo_compressed(True)[2])
    return load_compressed


@pytest.mark.parametrize("damage", [lambda v: v + 0.5, float, str, lambda v: v == 1],
                         ids=["fraction", "whole-float", "text", "bool"])
@pytest.mark.parametrize("kind, keys", _HEADER_COUNTS)
def test_a_header_count_that_is_not_a_json_integer_is_corrupt(tmp_path, kind, keys, damage):
    # int() once read 3.5 as 3 and "3" as 3, so such a header loaded
    path = tmp_path / f"file.{kind}"
    load = _saved(kind, path)
    magic, header, payload = _split(path.read_bytes())
    node = header
    for key in keys[:-1]:
        node = node[key]
    key = next(iter(sorted(node))) if keys[-1] == "first" else keys[-1]
    node[key] = damage(node[key])
    path.write_bytes(b"".join(bytes(piece) for piece in model_io._frame(magic, header, payload)))
    with pytest.raises(CorruptStream, match="not an integer"):
        load(path)


# float32 bit patterns; widening the signalling NaN to float64 warns
_NON_FINITE_F4 = [
    pytest.param(0x7FC00000, id="quiet-nan"),
    pytest.param(0x7FA00000, id="signalling-nan"),
    pytest.param(0x7F800000, id="inf"),
]


def _with_float_at(path, offset_of, bits):
    """Rewrite one float32 of the payload, at ``offset_of(payload)``."""
    magic, header, payload = _split(path.read_bytes())
    at = offset_of(payload)
    payload = payload[:at] + struct.pack("<I", bits) + payload[at + 4 :]
    path.write_bytes(_reframe(magic, header, payload))


@pytest.mark.parametrize("bits", _NON_FINITE_F4)
@pytest.mark.parametrize("where", ["weight", "bias"])
def test_non_finite_model_parameter_is_a_corrupt_stream(tmp_path, model, where, bits):
    path = tmp_path / "net.mgnn"
    save_model(path, *model)
    _with_float_at(path, lambda p: 0 if where == "weight" else len(p) - 4, bits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptStream):
            load_model(path)


@pytest.mark.parametrize("bits", _NON_FINITE_F4)
@pytest.mark.parametrize("where", ["centroid", "bias"])
def test_non_finite_compressed_value_is_a_corrupt_stream(tmp_path, where, bits):
    _, _, cm = _demo_compressed(False)  # no Huffman: the first centroid opens the core
    path = tmp_path / "net.mgcm"
    save_compressed(path, cm)
    _with_float_at(path, lambda p: 0 if where == "centroid" else len(p) - 4, bits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptStream):
            load_compressed(path)


# --- CRC-valid mutation fuzzing -----------------------------------------------

@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    """One small, valid file of each format, by name."""
    d = tmp_path_factory.mktemp("pristine")
    spec = parse_arch("180-4relu-r3tanh-2softmax")
    params = init_params(spec, 5)
    params.layers[0].weights[1:3] = 0.0  # a gap wide enough to need fillers
    cm = compress_model(
        spec, params, CompressionOptions(target_density=0.3, clusters=[4, 4, 2], huffman=True)
    )
    save_model(d / "net.mgnn", spec, params)
    save_compressed(d / "net.mgcm", cm)
    save_dataset(d / "corpus.mgds", build_corpus(1, seed=3))
    return {p.name: p.read_bytes() for p in d.iterdir()}


_JUNK = st.one_of(
    st.integers(-3, 300),
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 300), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


def _fields(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _fields(child, path + (key,))


def _field_kind(path):
    # list positions and code-table symbols collapse, so every field name is
    # drawn about as often as any other
    return tuple("*" if isinstance(k, int) or k.isdigit() else k for k in path)


def _mutate_header(data, header):
    fields = list(_fields(header))
    kind = data.draw(st.sampled_from(sorted({_field_kind(p) for p in fields})))
    path = data.draw(st.sampled_from([p for p in fields if _field_kind(p) == kind]))
    return _set_field(header, path, data.draw(_JUNK))


def _mutate_payload(data, payload):
    at = data.draw(st.integers(0, len(payload) - 1))
    how = data.draw(st.sampled_from(["flip", "cut", "extend"]))
    if how == "flip":
        flipped = payload[at] ^ data.draw(st.integers(1, 255))
        return payload[:at] + bytes([flipped]) + payload[at + 1 :]
    if how == "cut":
        return payload[:at]
    return payload + data.draw(st.binary(min_size=1, max_size=8))


# the loader first, then readers that parse the same header on their own
_READERS = {
    "net.mgnn": (load_model, load_model_meta),
    "net.mgcm": (load_compressed, compressed_payload_size),
    "corpus.mgds": (load_dataset,),
}


@pytest.mark.parametrize("name", sorted(_READERS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_crc_valid_mutations_raise_only_microgest_errors(
    pristine_files, tmp_path_factory, name, data
):
    magic, header, payload = _split(pristine_files[name])
    if data.draw(st.booleans(), label="mutate the header"):
        header = _mutate_header(data, header)
    else:
        payload = _mutate_payload(data, payload)
    path = tmp_path_factory.getbasetemp() / f"mutated.{name}"
    path.write_bytes(_reframe(magic, header, payload))
    load, *others = _READERS[name]
    for read in others:
        try:
            read(path)
        except MicrogestError:
            pass
    try:
        loaded = load(path)
    except MicrogestError as exc:
        if name == "net.mgcm":
            assert isinstance(exc, (CorruptStream, Truncated, ShapeMismatch)), exc
        return
    if name == "net.mgcm":
        validate(loaded.spec, decompress_model(loaded))
    elif name == "net.mgnn":
        validate(*loaded)


# --- dataset files -----------------------------------------------------------

def test_dataset_round_trip_is_lossless(tmp_path):
    ds = build_corpus(2, seed=4)
    path = tmp_path / "corpus.mgds"
    save_dataset(path, ds)
    ds2 = load_dataset(path)
    assert np.array_equal(ds2.frames, ds.frames)
    assert ds2.frames.dtype == np.uint16
    assert ds2.annotations == ds.annotations
    assert (ds2.width, ds2.height, ds2.fps) == (ds.width, ds.height, ds.fps)
    assert ds2.label_kind == ds.label_kind


def test_loading_a_dataset_holds_one_copy_of_its_frames(tmp_path):
    # the payload is read straight into the array that becomes the frames:
    # no copy of the file's bytes for the CRC, the payload slice or a cast
    frames = np.random.default_rng(5).integers(0, 1024, (2000, 10, 10)).astype(np.uint16)
    path = tmp_path / "big.mgds"
    save_dataset(path, AnnotatedSequence(width=10, height=10, frames=frames))
    load_dataset(path)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * frames.nbytes
    assert ds.frames.dtype == np.uint16 and ds.frames.tobytes() == frames.tobytes()
    assert ds.frames.flags.writeable and ds.frames.flags.aligned


def test_a_file_shorter_than_its_stat_size_is_truncated(tmp_path, monkeypatch):
    import microgest.model_io as model_io

    path = tmp_path / "corpus.mgds"
    save_dataset(path, build_corpus(1, seed=4))
    real_fstat = os.fstat
    monkeypatch.setattr(
        model_io.os, "fstat",
        lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + 8),
    )
    with pytest.raises(Truncated, match="changed while it was read"):
        load_dataset(path)


def test_empty_dataset_round_trips(tmp_path):
    ds = build_corpus(0, seed=0)
    path = tmp_path / "empty.mgds"
    save_dataset(path, ds)
    ds2 = load_dataset(path)
    assert ds2.frames.shape == (0, 3, 3)
    assert ds2.annotations == []


def test_out_of_range_pixels_are_rejected(tmp_path):
    ds = AnnotatedSequence(
        width=2, height=2, frames=np.full((3, 2, 2), 1024, dtype=np.int32),
    )
    with pytest.raises(PixelOutOfRange):
        save_dataset(tmp_path / "bad.mgds", ds)
    for bad in (np.nan, np.inf, 2.5, 5.5):
        frames = np.zeros((3, 2, 2))
        frames[1, 0, 1] = bad
        ds = AnnotatedSequence(width=2, height=2, frames=frames)
        with pytest.raises(PixelOutOfRange):
            save_dataset(tmp_path / "bad.mgds", ds)
    assert not (tmp_path / "bad.mgds").exists()


def test_dangling_annotation_is_rejected(tmp_path):
    ds = AnnotatedSequence(
        width=2, height=2, frames=np.zeros((3, 2, 2), dtype=np.uint16),
        label_frames=[3], labels=[0],
    )
    with pytest.raises(InvalidParams):
        save_dataset(tmp_path / "bad.mgds", ds)
    ds.label_frames[0] = -1
    with pytest.raises(InvalidParams):
        save_dataset(tmp_path / "bad.mgds", ds)


@pytest.mark.parametrize("fps", [-1.0, 0.0, float("nan"), float("inf")])
def test_a_dataset_header_with_a_bad_fps_is_rejected(tmp_path, fps):
    path = tmp_path / "corpus.mgds"
    save_dataset(path, build_corpus(1, seed=1))
    _with_header_field(path, ("fps",), fps)
    with pytest.raises(InvalidParams):
        load_dataset(path)


def test_file_kinds_do_not_cross_load(tmp_path, model):
    model_path = tmp_path / "net.mgnn"
    save_model(model_path, *model)
    with pytest.raises(CorruptStream):
        load_dataset(model_path)
    ds_path = tmp_path / "corpus.mgds"
    save_dataset(ds_path, build_corpus(1, seed=1))
    with pytest.raises(CorruptStream):
        load_model(ds_path)
