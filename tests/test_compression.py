"""Pruning, weight sharing, sparse deltas, bit packing, Huffman, pipeline."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgest.bitcode import (
    MAX_BIT_WIDTH,
    HuffmanTable,
    _code_lengths,
    _huffman_coded_size,
    canonical_codes,
    huffman_table_bytes,
    pack_bits,
    unpack_bits,
)
from microgest.compression import (
    _BLOCK_BYTES,
    DELTA_LIMIT,
    CompressionOptions,
    SparseLayer,
    _sorted_cut,
    apply_pruning,
    bias_block,
    bits_per_index,
    compress_model,
    decode_sparse,
    decompress_model,
    encode_sparse,
    huffman_decode,
    huffman_encode,
    kmeans_1d,
    layer_core_block,
    prune,
    sparse_matvec,
)
from microgest.errors import (
    CorruptStream,
    DeltaOverflow,
    InvalidParams,
    KTooLarge,
    MicrogestError,
)
from microgest.inference import count_macs
from microgest.model import LayerParams, Parameters, parse_arch
from microgest.training import init_params

from conftest import (
    oracle_code_lengths,
    oracle_encode_with_code,
    oracle_huffman_decode,
    oracle_huffman_encode,
    oracle_kmeans_1d,
    oracle_pack_bits,
    oracle_unpack_bits,
    random_model,
)


def _params_from(*weight_lists):
    layers = []
    for w in weight_lists:
        w = np.asarray(w, dtype=float)
        layers.append(LayerParams(w, np.zeros(w.shape[0])))
    return Parameters(layers)


# --- pruning -----------------------------------------------------------------

def test_prune_needs_exactly_one_policy():
    params = _params_from([[1.0, 2.0]])
    with pytest.raises(InvalidParams):
        prune(params)
    with pytest.raises(InvalidParams):
        prune(params, threshold=0.1, target_density=0.5)
    with pytest.raises(InvalidParams):
        prune(params, threshold=-0.1)
    with pytest.raises(InvalidParams):
        prune(params, threshold=float("nan"))  # once pruned nothing
    with pytest.raises(InvalidParams):
        prune(params, target_density=1.5)


def test_threshold_pruning_is_strict():
    params = _params_from([[0.1, -0.5, 0.3, 0.05]])
    removed = prune(params, threshold=0.3)
    assert removed[0].ravel().tolist() == [True, False, False, True]  # 0.3 survives


def test_density_pruning_keeps_the_largest():
    params = _params_from([[0.1, -0.5, 0.3, 0.05]])
    removed = prune(params, target_density=0.5)
    assert removed[0].ravel().tolist() == [True, False, False, True]


def test_density_extremes():
    params = _params_from(np.arange(1.0, 7.0).reshape(2, 3))
    assert not prune(params, target_density=1.0)[0].any()
    assert prune(params, target_density=0.0)[0].all()


def test_density_count_is_rounded_per_layer():
    params = _params_from(np.arange(1.0, 11.0).reshape(2, 5))
    removed = prune(params, target_density=0.25)  # round(2.5) -> 2 kept
    assert int((~removed[0]).sum()) == 2
    assert not removed[0][1, 3] and not removed[0][1, 4]  # the two largest


def test_apply_pruning_zeroes_only_the_mask():
    params = _params_from([[1.0, -2.0], [3.0, -4.0]])
    params.layers[0].biases[:] = [5.0, 6.0]
    mask = [np.array([[True, False], [False, True]])]
    out = apply_pruning(params, mask)
    assert out.layers[0].weights.tolist() == [[0.0, -2.0], [3.0, 0.0]]
    assert out.layers[0].biases.tolist() == [5.0, 6.0]
    assert params.layers[0].weights[0, 0] == 1.0  # input untouched


# --- scalar k-means ----------------------------------------------------------

def test_kmeans_finds_the_two_obvious_groups():
    centroids, assignment, sse = kmeans_1d(np.array([-1.0, -0.9, 1.0, 1.1]), 2)
    assert np.allclose(sorted(centroids), [-0.95, 1.05])
    assert len(set(assignment[:2])) == 1 and len(set(assignment[2:])) == 1
    assert assignment[0] != assignment[2]
    assert sse[-1] == pytest.approx(0.01)


def test_kmeans_error_never_increases():
    rng = np.random.default_rng(5)
    values = rng.normal(size=400)
    for k in (2, 5, 16):
        _, _, sse = kmeans_1d(values, k)
        assert all(b <= a + 1e-12 for a, b in zip(sse, sse[1:]))


def test_kmeans_k_equal_to_equally_spaced_values_is_exact():
    values = np.arange(6.0)
    centroids, assignment, sse = kmeans_1d(values, 6)
    assert sse[-1] == 0.0
    assert np.allclose(np.sort(centroids), values)


def test_kmeans_single_cluster_returns_the_mean():
    centroids, assignment, _ = kmeans_1d(np.array([0.0, 1.0, 5.0]), 1)
    assert centroids.tolist() == [2.0]
    assert assignment.tolist() == [0, 0, 0]


def test_kmeans_constant_input_is_stable():
    centroids, _, sse = kmeans_1d(np.array([3.0, 3.0, 3.0]), 2)
    assert sse[-1] == 0.0
    assert np.all(centroids == 3.0)


def test_kmeans_is_deterministic():
    values = np.random.default_rng(6).normal(size=100)
    a = kmeans_1d(values, 7)
    b = kmeans_1d(values, 7)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_kmeans_rejects_bad_k():
    with pytest.raises(InvalidParams):
        kmeans_1d(np.ones(4), 0)
    with pytest.raises(KTooLarge):
        kmeans_1d(np.ones(4), 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_refuses_values_that_are_not_finite(bad):
    with pytest.raises(InvalidParams, match="finite"):
        kmeans_1d(np.array([bad, 1.0, 2.0]), 2)


# subnormals and signed zeros; values 1e17-1e20, whose distances to
# centroids 1e-300 or 8.0 apart round to equal; magnitudes whose sums and
# midpoints overflow
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 2e-300,
         3e-300, -1e-300, 1.0, -1.0, 1.0000000000000002, 8.0, 16.0]
_FAR = [1e17, 1.0000000000000002e17, -1e17, 3e18, 1e19, -1e20, 1e20]
_HUGE = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
         8.98846567431158e307]
_KMEANS_INPUT = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.lists(st.sampled_from(_TINY + _FAR), min_size=1, max_size=40),
    st.lists(st.sampled_from(_TINY + _FAR + _HUGE), min_size=1, max_size=40),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),  # duplicates
)


def _assert_same_kmeans(values, k):
    """Equal centroids, assignment and error history, bit for bit, and no
    RuntimeWarning unless the full-matrix oracle raises one too."""
    with warnings.catch_warnings(record=True) as oracle_warnings:
        warnings.simplefilter("always")
        expected = _outcome(oracle_kmeans_1d, values, k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(kmeans_1d, values, k)
    if not oracle_warnings:
        assert [str(w.message) for w in caught] == []
    if not isinstance(expected, tuple) or isinstance(expected[0], type):
        assert got == expected  # the same error
        return
    (centroids, assignment, sse), (want_c, want_a, want_sse) = got, expected
    assert centroids.tobytes() == want_c.tobytes()
    assert assignment.dtype == want_a.dtype
    assert assignment.tolist() == want_a.tolist()
    assert np.array(sse).tobytes() == np.array(want_sse).tobytes()


@given(_KMEANS_INPUT, st.data())
@settings(max_examples=400, deadline=None)
def test_kmeans_matches_the_full_matrix_oracle(values, data):
    n = len(values)
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
    _assert_same_kmeans(np.array(values), k)


@given(st.integers(0, 2**32 - 1), st.integers(100, 2500), st.integers(2, 20),
       st.sampled_from([None, 3, 1]))
@settings(max_examples=25, deadline=None)
def test_kmeans_matches_the_oracle_over_many_rounds(seed, n, k, decimals):
    # layer-sized inputs run dozens of rounds; rounding adds duplicates
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    if decimals is not None:
        values = np.round(values, decimals)
    _assert_same_kmeans(values, k)


def test_kmeans_of_extreme_inputs_matches_the_oracle():
    for values in ([1e308, 1.7e308, -1e308], [-1e308, -1e308, 1e308, 1e308],
                   [0.0, -0.0, 0.0, -0.0], [5e-324, 0.0, -5e-324, 1e-300],
                   [8.0, 1e17, 1.0000000000000002e17, 0.0, 1e21]):
        for k in range(1, len(values) + 1):
            _assert_same_kmeans(np.array(values), k)


@given(
    st.lists(st.sampled_from(_TINY + _FAR), min_size=1, max_size=30),
    st.lists(st.sampled_from([0.0, 1e-300, 2e-300, 8.0, 16.0, 1e17, 1e21, -1e21]),
             min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_a_sorted_cut_is_kept_only_where_it_is_the_argmin(values, centroids):
    ordered = np.sort(np.array(values))
    centroids = np.sort(np.array(centroids))
    cut = _sorted_cut(ordered, centroids)
    if cut is not None:
        nearest = np.argmin(np.abs(ordered[:, None] - centroids[None, :]), axis=1)
        segment = np.repeat(np.arange(centroids.size), np.diff(cut))
        assert segment.tolist() == nearest.tolist()


def test_a_tie_inside_a_segment_refuses_the_cut():
    # both ends of the middle segment are strictly nearest to 8.0, but
    # 1e17 - 8.0 rounds to 1e17, a tie that argmin gives to 0.0
    ordered = np.array([8.0, 1e17, 1.0000000000000002e17])
    centroids = np.array([0.0, 8.0, 1e21])
    nearest = np.argmin(np.abs(ordered[:, None] - centroids[None, :]), axis=1)
    assert nearest.tolist() == [1, 0, 1]
    assert _sorted_cut(ordered, centroids) is None


@pytest.mark.parametrize(
    "k, bits", [(1, 0), (2, 1), (3, 2), (15, 4), (16, 4), (17, 5), (256, 8)]
)
def test_index_width(k, bits):
    assert bits_per_index(k) == bits


def test_index_width_rejects_zero():
    with pytest.raises(InvalidParams):
        bits_per_index(0)


def test_quantize_and_dequantize_round_trip_two_values():
    weights = [[0.5, -0.25, 0.5], [-0.25, 0.0, 0.5]]
    # the threshold removes only the zero; two values survive
    cm = compress_model(
        parse_arch("3-2softmax"),
        _params_from(weights),
        CompressionOptions(threshold=0.1, clusters=2),
    )
    assert cm.layers[0].bits == 1
    assert np.array_equal(decompress_model(cm).layers[0].weights, weights)


@pytest.mark.parametrize("clusters", [None, 1])
def test_a_layer_pruned_to_nothing_is_k_too_large_in_both_modes(clusters):
    # the 2x1 output layer keeps round(0.2 * 2) = 0 weights
    spec = parse_arch("4-1relu-2softmax")
    opts = CompressionOptions(target_density=0.2, clusters=clusters)
    with pytest.raises(KTooLarge, match="no surviving weights"):
        compress_model(spec, init_params(spec, 0), opts)


# --- sparse address map ------------------------------------------------------

def test_sparse_encoding_of_a_hand_matrix():
    m = np.zeros((2, 4))
    m[0, 0] = 7.0   # linear 0, delta 1
    m[0, 3] = -2.0  # linear 3, delta 3
    m[1, 0] = 4.0   # linear 4, delta 1
    sl = encode_sparse(m)
    assert sl.values.tolist() == [7.0, -2.0, 4.0]
    assert sl.deltas.tolist() == [1, 3, 1]
    assert np.array_equal(decode_sparse(sl, m.shape), m)


def test_wide_gap_bridged_with_zero_fillers():
    m = np.zeros((2, 400))
    m[1, 200] = 9.0  # linear position 600, gap 601 from the virtual -1
    sl = encode_sparse(m)
    assert sl.deltas.tolist() == [DELTA_LIMIT, DELTA_LIMIT, 91]
    assert sl.values.tolist() == [0.0, 0.0, 9.0]
    assert np.array_equal(decode_sparse(sl, m.shape), m)


def test_empty_matrix_encodes_to_nothing():
    sl = encode_sparse(np.zeros((3, 5)))
    assert len(sl.values) == 0
    assert np.array_equal(decode_sparse(sl, (3, 5)), np.zeros((3, 5)))
    y = sparse_matvec(sl, (3, 5), np.ones(5))
    assert y.dtype == np.float64 and np.array_equal(y, np.zeros(3))


@given(st.integers(1, 8), st.integers(1, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_sparse_round_trip_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.1)
    sl = encode_sparse(m)
    assert np.array_equal(decode_sparse(sl, m.shape), m)
    assert np.all((sl.deltas >= 1) & (sl.deltas <= DELTA_LIMIT))


def test_decode_rejects_bad_deltas():
    with pytest.raises(DeltaOverflow):
        decode_sparse(SparseLayer(np.array([1.0]), np.array([0])), (2, 2))
    with pytest.raises(CorruptStream):
        decode_sparse(SparseLayer(np.array([1.0, 1.0]), np.array([3, 3])), (1, 4))


def test_sparse_matvec_matches_dense_product():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 30)) * (rng.random((6, 30)) < 0.2)
    x = rng.normal(size=30)
    sl = encode_sparse(m)
    assert np.allclose(sparse_matvec(sl, m.shape, x), m @ x)


def test_sparse_matvec_counts_one_mac_per_stored_entry():
    m = np.zeros((2, 400))
    m[0, 10] = 1.0
    m[1, 300] = 2.0  # crosses a wide gap: fillers cost MACs too
    sl = encode_sparse(m)
    with count_macs() as macs:
        sparse_matvec(sl, m.shape, np.ones(400))
    assert macs.count == len(sl.values)
    assert macs.count > 2  # fillers included


@given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_sparse_matvec_sums_in_stream_order(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
    x = rng.normal(size=cols)
    sl = encode_sparse(m)
    # the firmware's walk over the address map, one entry at a time
    expected = np.zeros(rows)
    pos = -1
    for value, delta in zip(sl.values, sl.deltas):
        pos += int(delta)
        expected[pos // cols] += value * x[pos % cols]
    y = sparse_matvec(sl, m.shape, x)
    assert y.dtype == np.float64 and np.array_equal(y, expected)


def test_value_and_delta_streams_must_have_equal_length():
    sl = SparseLayer(np.array([1.0, 2.0, 3.0]), np.array([1, 1], dtype=np.uint16))
    with pytest.raises(CorruptStream):
        sparse_matvec(sl, (2, 2), np.ones(2))
    with pytest.raises(CorruptStream):
        decode_sparse(sl, (2, 2))


def test_sparse_matvec_validates_vector_length():
    sl = encode_sparse(np.eye(3))
    with pytest.raises(InvalidParams):
        sparse_matvec(sl, (3, 3), np.ones(4))


# --- bit packing -------------------------------------------------------------

def test_pack_bits_is_msb_first():
    assert pack_bits([1], 1) == b"\x80"
    assert pack_bits([0xA, 0xB], 4) == b"\xab"
    assert pack_bits([1, 0, 1, 1], 2) == b"\x45"  # 01 00 01 01 -> 0b01000101


def test_pack_zero_width_is_empty():
    assert pack_bits([0, 0, 0], 0) == b""
    assert unpack_bits(b"", 0, 3).tolist() == [0, 0, 0]


@given(st.integers(1, 12), st.lists(st.integers(0, 2**12 - 1), max_size=50))
@settings(max_examples=80)
def test_pack_round_trip_property(width, values):
    values = [v & ((1 << width) - 1) for v in values]
    packed = pack_bits(values, width)
    assert len(packed) == (len(values) * width + 7) // 8
    assert unpack_bits(packed, width, len(values)).tolist() == values


def test_pack_validates_range_and_width():
    with pytest.raises(InvalidParams):
        pack_bits([4], 2)
    with pytest.raises(CorruptStream):
        unpack_bits(b"\xff", 4, 5)
    for width in (-1, MAX_BIT_WIDTH + 1):
        with pytest.raises(InvalidParams):
            pack_bits([0], width)
        with pytest.raises(InvalidParams):
            unpack_bits(b"\0" * 16, width, 1)


def _outcome(fn, *args):
    """What a call gives: its result, or the type and text of its error."""
    try:
        out = fn(*args)
    except MicrogestError as exc:
        return type(exc), str(exc)
    return out.tolist() if isinstance(out, np.ndarray) else out


@given(st.data())
@settings(max_examples=150)
def test_pack_bits_matches_the_bit_serial_oracle(data):
    width = data.draw(st.integers(0, MAX_BIT_WIDTH), label="width")
    value = st.integers(0, (1 << width) - 1)
    stray = st.integers(-(2**70), 2**70)  # mostly outside the width
    values = data.draw(st.lists(st.one_of(value, value, value, stray), max_size=40))
    assert _outcome(pack_bits, values, width) == _outcome(oracle_pack_bits, values, width)
    if all(0 <= v < 1 << width for v in values):
        as_array = np.array(values, dtype=np.int64)
        assert pack_bits(as_array, width) == oracle_pack_bits(values, width)


@given(st.binary(max_size=64), st.integers(0, MAX_BIT_WIDTH), st.integers(0, 80))
@settings(max_examples=150)
def test_unpack_bits_matches_the_bit_serial_oracle(data, width, count):
    assert _outcome(unpack_bits, data, width, count) == _outcome(
        oracle_unpack_bits, data, width, count
    )


# --- canonical Huffman -------------------------------------------------------

def test_two_symbol_code_uses_single_bits():
    encoded, table = huffman_encode(b"ab")
    assert table.lengths == {ord("a"): 1, ord("b"): 1}
    assert canonical_codes(table.lengths) == {ord("a"): (0, 1), ord("b"): (1, 1)}
    assert huffman_decode(encoded, table) == b"ab"


def test_single_symbol_alphabet_costs_one_bit_each():
    data = b"\x07" * 100
    encoded, table = huffman_encode(data)
    assert table.lengths == {7: 1}
    assert len(encoded) == 13  # ceil(100 / 8)
    assert huffman_decode(encoded, table) == data


def test_skewed_bytes_compress_well():
    rng = np.random.default_rng(8)
    data = bytes(rng.choice([0, 0, 0, 0, 0, 0, 1, 2], size=4000).astype(np.uint8))
    encoded, table = huffman_encode(data)
    assert len(encoded) < len(data) / 2
    assert huffman_decode(encoded, table) == data


def test_code_lengths_satisfy_kraft_equality():
    rng = np.random.default_rng(9)
    data = bytes(rng.integers(0, 40, size=3000).astype(np.uint8))
    _, table = huffman_encode(data)
    assert sum(2.0 ** -length for length in table.lengths.values()) == pytest.approx(1.0)


@given(
    size=st.sampled_from([1, 2, 256]),
    levels=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=120)
def test_code_lengths_match_the_heap_oracle_on_tied_counts(size, levels, data):
    # counts from at most three values tie often, among leaves and merged subtrees
    symbols = data.draw(st.lists(st.integers(0, 255), min_size=size, max_size=size, unique=True))
    picks = data.draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
    counts = np.zeros(256, dtype=np.int64)
    counts[symbols] = picks
    stream = b"".join(bytes([sym]) * n for sym, n in zip(symbols, picks))
    assert _code_lengths(counts) == oracle_code_lengths(stream)


def test_a_code_table_handed_out_is_the_callers_own():
    data = b"mississippi river " * 5
    size = _huffman_coded_size(data)
    encoded, table = huffman_encode(data)
    expected = dict(table.lengths)
    table.lengths[ord("s")] = 9
    table.lengths.pop(ord("m"))
    assert huffman_encode(data) == (encoded, HuffmanTable(expected, len(data)))
    assert _huffman_coded_size(data) == size
    lengths = _code_lengths(np.bincount(np.frombuffer(data, np.uint8), minlength=256))
    lengths.clear()
    assert huffman_encode(data)[1].lengths == expected


def test_canonical_codes_are_prefix_free():
    rng = np.random.default_rng(10)
    data = bytes(rng.choice([1, 1, 1, 2, 2, 3, 4, 5], size=500).astype(np.uint8))
    _, table = huffman_encode(data)
    codes = canonical_codes(table.lengths)
    widths = {sym: f"{value:0{length}b}" for sym, (value, length) in codes.items()}
    items = list(widths.values())
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if i != j:
                assert not b.startswith(a)


@given(st.binary(min_size=1, max_size=600))
@settings(max_examples=80)
def test_huffman_round_trip_property(data):
    encoded, table = huffman_encode(data)
    assert huffman_decode(encoded, table) == data


def test_huffman_rejects_empty_input():
    with pytest.raises(InvalidParams):
        huffman_encode(b"")


def test_decode_detects_truncation():
    encoded, table = huffman_encode(b"squeeze these bytes down")
    with pytest.raises(CorruptStream):
        huffman_decode(encoded[:-2], table)


def test_decode_empty_table_gives_empty_bytes():
    assert huffman_decode(b"", HuffmanTable({}, 0)) == b""


def test_decode_rejects_unmatchable_stream():
    table = HuffmanTable({1: 2, 2: 2, 3: 2}, 4)  # code space 11 unused
    with pytest.raises(CorruptStream):
        huffman_decode(b"\xff\xff", table)
    with pytest.raises(CorruptStream):
        huffman_decode(b"\xff\xff", HuffmanTable({1: 0, 2: 1}, 4))  # a zero-bit word


@pytest.mark.parametrize("table", [
    HuffmanTable({}, 3),  # once a ValueError from min() of no lengths
    HuffmanTable({1: 1, 2: 1}, 2.5),  # once a TypeError
    HuffmanTable({1: 1, 2: 1}, -3),  # once decoded 5 bytes
    HuffmanTable({1: 1, 2: 1}, True),  # once decoded as a count of 1
], ids=["no-lengths", "2.5", "-3", "True"])
def test_decode_refuses_a_table_without_a_whole_symbol_count_or_code_words(table):
    with pytest.raises(CorruptStream):
        huffman_decode(b"\x55\x55", table)


@pytest.mark.parametrize("encoded, error", [
    (b"\x03", "bit stream ended inside a code word"),  # 00 00 00 11: two bits left
    (b"\x03\x00", "no code word matches the stream"),  # ten bits left
    (b"\x0c", "no code word matches the stream"),  # 00 00 11 00: four bits left
])
def test_an_unused_word_is_a_mismatch_only_past_max_length_bits(encoded, error):
    lengths = {1: 2, 2: 2, 3: 2}  # code space 11 unused
    expected = _outcome(oracle_huffman_decode, encoded, lengths, 4)
    assert _outcome(huffman_decode, encoded, HuffmanTable(lengths, 4)) == expected
    assert expected == (CorruptStream, error)


# skewed alphabets give deep codes; uniform ones give flat codes
_CODEC_INPUT = st.one_of(
    st.binary(max_size=600),
    st.lists(st.sampled_from([0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 200]),
             max_size=600).map(bytes),
)


@given(_CODEC_INPUT)
@settings(max_examples=150)
def test_huffman_encode_matches_the_bit_serial_oracle(data):
    try:
        expected = oracle_huffman_encode(data)
    except InvalidParams:
        with pytest.raises(InvalidParams):
            huffman_encode(data)
        return
    encoded, table = huffman_encode(data)
    assert (encoded, table.lengths) == expected
    assert table.n_symbols == len(data)


@given(
    lengths=st.dictionaries(
        st.integers(0, 255), st.one_of(st.integers(1, 12), st.integers(1, 255)),
        min_size=1, max_size=24,
    ),
    n_symbols=st.integers(0, 40),
    encoded=st.binary(max_size=48),
)
@settings(max_examples=200)
def test_huffman_decode_matches_the_bit_serial_oracle(lengths, n_symbols, encoded):
    # any table, complete, incomplete or over-subscribed, and any stream
    assert _outcome(huffman_decode, encoded, HuffmanTable(lengths, n_symbols)) == _outcome(
        oracle_huffman_decode, encoded, lengths, n_symbols
    )


@given(_CODEC_INPUT.filter(bool), st.integers(0, 7), st.data())
@settings(max_examples=100)
def test_huffman_decode_of_damaged_streams_matches_the_oracle(data, cut, draw):
    encoded, lengths = oracle_huffman_encode(data)
    damaged = bytearray(encoded[: len(encoded) - cut])
    if damaged and draw.draw(st.booleans(), label="flip a byte"):
        at = draw.draw(st.integers(0, len(damaged) - 1), label="at")
        damaged[at] ^= draw.draw(st.integers(1, 255), label="mask")
    table = HuffmanTable(lengths, len(data))
    assert _outcome(huffman_decode, bytes(damaged), table) == _outcome(
        oracle_huffman_decode, bytes(damaged), lengths, len(data)
    )


def test_huffman_encode_of_a_code_deeper_than_64_bits_matches_the_oracle(monkeypatch):
    # symbol i counted fib(i) times takes a 69-bit code, whose values need
    # Python ints; counts like these are far beyond any stream, so the
    # histogram is given and a short stream of its symbols is coded
    import microgest.compression as compression

    fib = [1, 1]
    while len(fib) < 70:
        fib.append(fib[-1] + fib[-2])
    counts = np.zeros(256, dtype=np.int64)
    counts[:70] = fib
    monkeypatch.setattr(compression, "_histogram", lambda data: counts)
    data = bytes(range(70)) + bytes([69, 0, 68, 1, 69, 3, 0, 0])
    encoded, table = huffman_encode(data)
    assert max(table.lengths.values()) == 69
    assert encoded == oracle_encode_with_code(data, table.lengths)
    assert huffman_decode(encoded, table) == data


def test_decode_handles_a_code_two_hundred_bits_deep():
    # a complete code over every byte value: symbol s takes s + 1 bits, the
    # last two share 255
    lengths = {sym: min(sym + 1, 255) for sym in range(256)}
    data = bytes([0, 199, 3, 255, 254, 199, 1, 0, 0, 200, 128])  # 200- to 255-bit words
    encoded = oracle_encode_with_code(data, lengths)
    assert len(encoded) > 100
    table = HuffmanTable(lengths, len(data))
    assert huffman_decode(encoded, table) == data
    with pytest.raises(CorruptStream):
        huffman_decode(encoded[:-2], table)


def _fibonacci_stream(n_symbols=20, seed=14):
    """A skewed byte stream: symbol ``i`` appears ``fib(i)`` times, so its
    code reaches 19 bits; it encodes to about 5.8 KB, several decode blocks."""
    fib = [1, 1]
    while len(fib) < n_symbols:
        fib.append(fib[-1] + fib[-2])
    data = np.repeat(np.arange(n_symbols, dtype=np.uint8), fib)
    np.random.default_rng(seed).shuffle(data)
    encoded, lengths = oracle_huffman_encode(bytes(data))
    return bytes(data), encoded, lengths


_DEEP = _fibonacci_stream()
_EDGES = (_BLOCK_BYTES, 2 * _BLOCK_BYTES)  # the first two block edges, in bytes


def test_a_deep_code_over_several_blocks_decodes_as_the_oracle_does():
    data, encoded, lengths = _DEEP
    assert max(lengths.values()) > 12 and len(encoded) > _EDGES[1]
    assert huffman_decode(encoded, HuffmanTable(lengths, len(data))) == data


@pytest.mark.parametrize("edge", _EDGES)
@pytest.mark.parametrize("delta", [-3, -1, 0, 1, 2])
def test_damage_at_a_block_edge_gives_what_the_oracle_gives(edge, delta):
    data, encoded, lengths = _DEEP
    at = edge + delta
    table = HuffmanTable(lengths, len(data))
    for mask in (None, 0x01, 0x80, 0xFF):
        damaged = bytearray(encoded[:at])
        if mask is not None:
            damaged = bytearray(encoded)
            damaged[at] ^= mask
        assert _outcome(huffman_decode, bytes(damaged), table) == _outcome(
            oracle_huffman_decode, bytes(damaged), lengths, len(data)
        )


@pytest.mark.parametrize("before", [1, 7, 12, 13, 18])
def test_a_long_word_across_a_block_edge(before):
    # a one-bit word fills the stream up to `before` bits short of each of the
    # first two block edges, where a 19-bit word starts
    _, _, lengths = _DEEP
    common = min(lengths, key=lengths.get)
    rare = max(lengths, key=lengths.get)
    assert (lengths[common], lengths[rare]) == (1, 19)
    edge_bits = 8 * _BLOCK_BYTES
    data = bytes([common] * (edge_bits - before) + [rare]
                 + [common] * (edge_bits - 19) + [rare] + [common] * 40)
    encoded = oracle_encode_with_code(data, lengths)
    table = HuffmanTable(lengths, len(data))
    assert huffman_decode(encoded, table) == data
    for cut in (_EDGES[0], _EDGES[0] + 1, _EDGES[1], _EDGES[1] + 1):
        assert _outcome(huffman_decode, encoded[:cut], table) == _outcome(
            oracle_huffman_decode, encoded[:cut], lengths, len(data)
        )


@pytest.mark.parametrize("lengths", [{0: 256}, {0: 1, 1: 257}, {0: 2, 1: 2, 2: 300}])
def test_a_code_word_deeper_than_255_bits_is_refused(lengths):
    # 256 fits no uint8 length table: refused, never wrapped to a short word
    table = HuffmanTable(lengths, 2)
    assert _outcome(huffman_decode, bytes(80), table) == (
        CorruptStream, "code table out of range"
    )


def test_a_code_over_symbols_that_are_not_bytes_is_refused():
    with pytest.raises(CorruptStream, match="out of range"):
        huffman_decode(b"\x40", HuffmanTable({1: 1, 300: 1}, 2))


# --- whole-pipeline container -------------------------------------------------

def _demo():
    spec = parse_arch("180-7relu-14relu-13softmax")
    params = init_params(spec, 0)
    return spec, params


def test_pipeline_stage_sizes_on_the_demo_model():
    spec, params = _demo()
    opts = CompressionOptions(target_density=0.32, clusters=15, huffman=True)
    cm = compress_model(spec, params, opts)
    assert cm.stage_sizes == {
        "naive": 6296,
        "pruned_sparse": 2596,
        "encoded": 1055,
        "huffman": 1134,
    }
    assert cm.surviving_weights() == 492
    assert [layer.bits for layer in cm.layers] == [4, 4, 4]


def test_demo_survivor_counts_per_layer():
    spec, params = _demo()
    removed = prune(params, target_density=0.32)
    kept = [int((~m).sum()) for m in removed]
    assert kept == [403, 31, 58]
    assert sum(kept) == 492


@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.2, 0.5, 1.0]),
       clusters=st.sampled_from([None, 1, 2, 4]))
@settings(max_examples=40, deadline=None)
def test_huffman_stage_size_equals_the_encoded_size(seed, density, clusters):
    rng = np.random.default_rng(seed)
    spec, params = random_model(rng, features=int(rng.integers(4, 30)))
    opts = CompressionOptions(target_density=density, clusters=clusters, huffman=True)
    try:
        cm = compress_model(spec, params, opts)
    except KTooLarge:
        return  # a layer kept fewer weights than clusters, or none
    core = b"".join(layer_core_block(layer) for layer in cm.layers)
    encoded, table = huffman_encode(core)
    assert cm.stage_sizes["huffman"] == (
        len(encoded) + huffman_table_bytes(table) + len(bias_block(cm))
    )
    assert cm.stage_sizes["encoded"] == len(core) + len(bias_block(cm))
    pruned = apply_pruning(params, prune(params, target_density=density))
    sparse = [encode_sparse(lp.weights) for lp in pruned.layers]
    assert cm.stage_sizes["pruned_sparse"] == sum(
        4 * len(sl.values) + len(sl.deltas) + 4 * lp.biases.size
        for sl, lp in zip(sparse, pruned.layers)
    )


def test_decompression_reconstructs_the_quantized_weights():
    spec, params = _demo()
    opts = CompressionOptions(target_density=0.32, clusters=15, huffman=True)
    cm = compress_model(spec, params, opts)
    removed = prune(params, target_density=0.32)
    rebuilt = decompress_model(cm)
    for lp, lr, mask, layer in zip(params.layers, rebuilt.layers, removed, cm.layers):
        assert np.all(lr.weights[mask] == 0.0)
        # surviving positions carry float32 centroids near the originals
        err = np.abs(lr.weights[~mask] - lp.weights[~mask])
        span = lp.weights[~mask].max() - lp.weights[~mask].min()
        assert err.max() < span / 2
        assert np.array_equal(lr.biases, np.float32(lp.biases).astype(float))


def test_lossless_options_round_trip_to_float32_of_the_input():
    spec = parse_arch("4-3tanh-2softmax")
    params = init_params(spec, 3)
    cm = compress_model(spec, params, CompressionOptions(huffman=False))
    rebuilt = decompress_model(cm)
    for lp, lr in zip(params.layers, rebuilt.layers):
        assert np.array_equal(lr.weights, np.float32(lp.weights).astype(float))
        assert np.array_equal(lr.biases, np.float32(lp.biases).astype(float))


@pytest.mark.parametrize("bad_index", [-1, 2])
def test_decompression_rejects_indices_outside_the_centroid_table(bad_index):
    spec = parse_arch("4-3tanh-2softmax")
    opts = CompressionOptions(clusters=2, huffman=False)
    cm = compress_model(spec, init_params(spec, 3), opts)
    cm.layers[0].indices[0] = bad_index
    with pytest.raises(CorruptStream):
        decompress_model(cm)


def test_core_block_refuses_a_delta_wider_than_a_byte():
    spec = parse_arch("4-3tanh-2softmax")
    cm = compress_model(spec, init_params(spec, 3), CompressionOptions(huffman=False))
    cm.layers[0].deltas[0] = DELTA_LIMIT + 1  # would wrap to 0 as a byte
    with pytest.raises(DeltaOverflow):
        layer_core_block(cm.layers[0])


def test_cluster_list_must_match_layer_count():
    spec, params = _demo()
    with pytest.raises(InvalidParams):
        compress_model(spec, params, CompressionOptions(clusters=[4, 4]))


def test_per_layer_cluster_counts_apply():
    spec, params = _demo()
    cm = compress_model(
        spec, params, CompressionOptions(clusters=[4, 8, 16], huffman=False)
    )
    assert [len(layer.centroids) for layer in cm.layers] == [4, 8, 16]
    assert [layer.bits for layer in cm.layers] == [2, 3, 4]


def test_a_numpy_cluster_count_compresses_as_the_int_does():
    spec, params = _demo()
    want = compress_model(spec, params, CompressionOptions(target_density=0.5, clusters=4))
    got = compress_model(
        spec, params, CompressionOptions(target_density=0.5, clusters=np.int64(4))
    )
    assert got.stage_sizes == want.stage_sizes
    for a, b in zip(got.layers, want.layers):
        assert a.bits == b.bits
        for name in ("centroids", "indices", "deltas", "biases"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("clusters", [True, 4.0, "4"])
def test_a_cluster_count_that_is_not_an_integer_is_refused(clusters):
    spec, params = _demo()
    with pytest.raises(InvalidParams):
        compress_model(spec, params, CompressionOptions(clusters=clusters))


def test_retraining_hooks_see_masks_and_replace_values():
    spec = parse_arch("6-4relu-3softmax")
    params = init_params(spec, 1)
    opts = CompressionOptions(target_density=0.5, clusters=3, huffman=False)
    seen = {}

    def after_prune(pruned, removed):
        seen["masks"] = [m.copy() for m in removed]
        assert all(
            np.all(lp.weights[m] == 0.0) for lp, m in zip(pruned.layers, removed)
        )
        return pruned

    def after_quantize(assignments, centroids, current):
        seen["assignments"] = assignments
        assert all(
            np.all((a >= 0) == ~m) for a, m in zip(assignments, seen["masks"])
        )
        new_centroids = [np.asarray(c) + 1.0 for c in centroids]
        return new_centroids, current

    cm = compress_model(
        spec,
        params,
        opts,
        retrain_after_prune=after_prune,
        retrain_after_quantize=after_quantize,
    )
    plain = compress_model(spec, params, opts)
    for shifted, base in zip(cm.layers, plain.layers):
        assert np.allclose(
            np.sort(shifted.centroids), np.sort(np.float32(base.centroids + 1.0))
        )


def test_gap_bridging_adds_a_zero_centroid_when_needed():
    from microgest.model import zero_params

    spec = parse_arch("300-2relu-2softmax")
    params = zero_params(spec)
    # two far-apart survivors in the wide layer force filler entries
    params.layers[0].weights[0, 0] = 1.0
    params.layers[0].weights[1, 299] = -1.0  # linear position 599
    params.layers[1].weights[:] = 1.0
    opts = CompressionOptions(threshold=0.5, clusters=2, huffman=False)
    cm = compress_model(spec, params, opts)
    wide = cm.layers[0]
    assert wide.deltas.tolist() == [1, DELTA_LIMIT, DELTA_LIMIT, 89]
    filler_values = wide.centroids[
        np.asarray(wide.indices)[np.asarray(wide.deltas) == DELTA_LIMIT]
    ]
    assert np.all(filler_values == 0.0)
    assert len(wide.centroids) == 3  # the two survivors plus the added zero
    rebuilt = decompress_model(cm)
    assert np.array_equal(rebuilt.layers[0].weights, params.layers[0].weights)
    assert cm.surviving_weights() == 2 + 4  # fillers not counted
    # the sparse stage counts the fillers: 4 + 4 entries of 5 bytes, 4 biases
    assert cm.stage_sizes["pruned_sparse"] == 5 * (4 + 4) + 4 * 4
