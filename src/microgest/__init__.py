"""Tiny gesture classifiers for 8-bit microcontrollers.

Everything revolves around a :class:`~microgest.model.ModelSpec`: build
one (or parse an architecture string), train it at desk scale, compress
it for flash, estimate whether it fits the target, and run the gesture
pipeline on recorded or synthetic streams.
"""

from .errors import (
    ChecksumMismatch,
    CorruptStream,
    DeltaOverflow,
    DivergenceDetected,
    IllegalActivationPlacement,
    InvalidParams,
    KTooLarge,
    MicrogestError,
    NonFiniteParameter,
    NonSquareImage,
    PixelOutOfRange,
    RangeExceeded,
    RecurrentLayerPresent,
    ShapeMismatch,
    TooShort,
    Truncated,
    UnknownActivationCost,
    VersionUnsupported,
)
from .model import (
    Activation,
    LayerKind,
    LayerParams,
    LayerSpec,
    ModelSpec,
    Parameters,
    RnnState,
    chain,
    check_spec,
    format_arch,
    parse_arch,
    validate,
    zero_params,
)
from .inference import (
    approx_exp,
    approx_pow2,
    approx_softmax,
    count_macs,
    forward_dense,
    max_onehot,
    record_macs,
    run_ffnn,
    softmax,
    step_recurrent,
    step_rnn,
)
from .features import (
    ADC_MAX,
    AnnotatedSequence,
    Annotation,
    Image,
    RollingStats,
    build_features,
    normalize,
    stream_features,
    update_rolling,
)
from .pipeline import (
    Candidate,
    CandidateDetector,
    FfnnRecognizer,
    GestureClass,
    N_PHASE_STATES,
    candidate_features,
    evaluate_accuracy,
    extract_candidates,
    fsm_postprocess,
    label_candidates,
    match_events,
    scale_candidate,
)
from .synth import (
    Brightness,
    Gamma,
    GestureSynthParams,
    MirrorX,
    MirrorY,
    Noise,
    Rotate,
    augment,
    auto_annotate,
    build_corpus,
    gesture_label_map,
    synthesize_gesture,
)
from .training import (
    TrainingConfig,
    classification_accuracy,
    evaluate_loss,
    gradients,
    init_params,
    retrain_pruned,
    retrain_quantized,
    sequence_gradients,
    sequence_loss,
    train_ffnn,
    train_rnn_bptt,
)
from .bitcode import HuffmanTable, pack_bits, unpack_bits
from .compression import (
    CompressedLayer,
    CompressedModel,
    CompressionOptions,
    SparseLayer,
    apply_pruning,
    bits_per_index,
    compress_model,
    decode_sparse,
    decompress_model,
    encode_sparse,
    huffman_decode,
    huffman_encode,
    kmeans_1d,
    prune,
    sparse_matvec,
)
from .estimator import (
    Budget,
    CostModel,
    ResourceReport,
    check_fit,
    count_parameters,
    count_ram_variables,
    count_weights,
    estimate_exec_time,
    load_config,
)
from .model_io import (
    load_compressed,
    load_dataset,
    load_model,
    save_compressed,
    save_dataset,
    save_model,
)

__version__ = "0.1.0"
