"""End-to-end checks of the command line interface.

Every test drives ``microgest.cli.main`` in process and inspects the files
and output it produces, so the full synth -> train -> eval -> compress ->
estimate -> infer workflow stays wired together.
"""

import json
from collections import Counter

import numpy as np
import pytest

from microgest import cli, inference, model_io, pipeline
from microgest.cli import main
from microgest.estimator import check_fit, load_config
from microgest.model import parse_arch
from microgest.features import AnnotatedSequence
from microgest.model_io import (
    compressed_payload_size,
    load_compressed,
    load_dataset,
    load_model,
    load_model_meta,
    save_dataset,
    save_model,
)
from microgest.pipeline import GestureClass
from microgest.training import init_params


def run(capsys, argv):
    """Invoke the CLI and return (exit code, stdout, stderr)."""
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, list(argv) + ["--json"])
    assert rc == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def gesture_setup(tmp_path_factory):
    """A synthetic gesture corpus plus a small trained classifier."""
    root = tmp_path_factory.mktemp("cli-gesture")
    data = root / "train.mgds"
    model = root / "model.mgnn"
    assert main(["synth", "--out", str(data), "--per-class", "8",
                 "--seed", "5"]) == 0
    assert main(["train", "--data", str(data), "--arch", "180-8relu-5softmax",
                 "--out", str(model), "--epochs", "40", "--seed", "1"]) == 0
    return root, data, model


@pytest.fixture(scope="module")
def phase_setup(tmp_path_factory):
    """A phase-labelled corpus plus a (barely) trained recurrent model."""
    root = tmp_path_factory.mktemp("cli-phase")
    data = root / "phases.mgds"
    model = root / "phases.mgnn"
    assert main(["synth", "--out", str(data), "--per-class", "2",
                 "--labels", "phase", "--seed", "9"]) == 0
    assert main(["train", "--data", str(data),
                 "--arch", "12-r10tanh-17softmax", "--out", str(model),
                 "--epochs", "3", "--seed", "2"]) == 0
    return root, data, model


# --- synth -------------------------------------------------------------------

@pytest.mark.parametrize("where", ["missing_dir/x.mgds", "adir"])
def test_synth_names_the_output_path_it_could_not_write(tmp_path, capsys, where):
    # the error line once named the temporary file, x.mgds.<random>.tmp
    (tmp_path / "adir").mkdir()
    out = tmp_path / where
    rc, _, err = run(capsys, ["synth", "--out", out, "--per-class", 1])
    assert rc == 1
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert repr(str(out)) in err and ".tmp" not in err


def test_synth_writes_a_balanced_loadable_corpus(tmp_path, capsys):
    out = tmp_path / "ds.mgds"
    rc, _, _ = run(capsys, ["synth", "--out", out, "--per-class", "2",
                            "--seed", "0"])
    assert rc == 0
    ds = load_dataset(out)
    assert (ds.width, ds.height, ds.fps) == (3, 3, 40.0)
    counts = Counter(ann.label for ann in ds.annotations)
    assert counts == {int(c): 2 for c in GestureClass}


def test_synth_is_deterministic_per_seed(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.mgds", "b.mgds", "c.mgds"))
    run(capsys, ["synth", "--out", a, "--per-class", "2", "--seed", "4"])
    run(capsys, ["synth", "--out", b, "--per-class", "2", "--seed", "4"])
    run(capsys, ["synth", "--out", c, "--per-class", "2", "--seed", "5"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_json_echoes_the_configuration(tmp_path, capsys):
    payload = run_json(capsys, ["synth", "--out", tmp_path / "ds.mgds",
                                "--per-class", "2", "--seed", "0"])
    assert payload["config"]["per_class"] == 2
    assert payload["config"]["seed"] == 0


def test_synth_phase_labels_annotate_every_frame(tmp_path, capsys):
    out = tmp_path / "ph.mgds"
    rc, _, _ = run(capsys, ["synth", "--out", out, "--per-class", "1",
                            "--labels", "phase", "--seed", "1"])
    assert rc == 0
    ds = load_dataset(out)
    assert ds.label_kind == "phase"
    assert len(ds.annotations) == len(ds)


def test_synth_refuses_a_corpus_above_its_instance_cap(tmp_path, capsys):
    # once drew instances without bound
    out = tmp_path / "big.mgds"
    err = _one_error_line(capsys, ["synth", "--out", out, "--per-class", "1000000000"])
    assert "per_class must be <=" in err
    assert not out.exists()


def test_synth_per_class_zero_gives_an_empty_corpus(tmp_path, capsys):
    out = tmp_path / "empty.mgds"
    rc, _, _ = run(capsys, ["synth", "--out", out, "--per-class", "0"])
    assert rc == 0
    ds = load_dataset(out)
    assert len(ds) == 0 and ds.annotations == []


# --- train -------------------------------------------------------------------

def test_train_saves_a_loadable_model_with_metadata(gesture_setup):
    _, _, model = gesture_setup
    spec, params = load_model(model)
    meta = load_model_meta(model)
    assert meta == {"arch": "180-8relu-5softmax", "seed": 1, "epochs": 40}
    assert spec.features == 180 and spec.output_size == 5
    # Storage rounds to float32, so loaded values are f32-representable.
    assert all(
        np.array_equal(lp.weights, lp.weights.astype(np.float32))
        for lp in params.layers
    )


def test_train_json_reports_loss_and_accuracy(tmp_path, gesture_setup, capsys):
    _, data, _ = gesture_setup
    payload = run_json(capsys, ["train", "--data", data,
                                "--arch", "180-6relu-5softmax",
                                "--out", tmp_path / "m.mgnn",
                                "--epochs", "2", "--seed", "0"])
    assert payload["candidates"] > 0
    assert np.isfinite(payload["final_loss"])
    assert 0.0 <= payload["train_accuracy"] <= 1.0
    assert 0.0 <= payload["val_accuracy"] <= 1.0


def test_train_with_zero_epochs_saves_the_initial_weights(
    tmp_path, gesture_setup, capsys
):
    _, data, _ = gesture_setup
    out = tmp_path / "init.mgnn"
    rc, _, _ = run(capsys, ["train", "--data", data,
                            "--arch", "180-8relu-5softmax", "--out", out,
                            "--epochs", "0", "--seed", "3"])
    assert rc == 0
    spec, params = load_model(out)
    fresh = init_params(parse_arch("180-8relu-5softmax"), 3)
    for got, want in zip(params.layers, fresh.layers):
        assert np.array_equal(got.weights, want.weights.astype(np.float32))
        assert np.array_equal(got.biases, want.biases.astype(np.float32))


def test_train_rejects_a_mismatched_feature_width(
    tmp_path, gesture_setup, capsys
):
    _, data, _ = gesture_setup
    rc, _, err = run(capsys, ["train", "--data", data, "--arch",
                              "91-5softmax", "--out", tmp_path / "m.mgnn"])
    assert rc == 1
    assert "features" in err


def test_train_refuses_a_recurrent_candidate_model(tmp_path, gesture_setup, capsys):
    # this once leaked a ValueError from the first training batch
    _, data, _ = gesture_setup
    rc, _, err = run(capsys, ["train", "--data", data, "--arch", "180-r8-5softmax",
                              "--out", tmp_path / "m.mgnn", "--epochs", "1"])
    assert rc == 1
    assert "feed-forward" in err


def test_a_candidate_model_takes_as_many_frames_as_its_features_fill(
    tmp_path, gesture_setup, capsys, monkeypatch
):
    # 90 features are ten frames of the 3x3 sensor; train resamples every
    # candidate in one call, and so does eval's recognizer
    _, data, _ = gesture_setup
    calls = []
    resample = pipeline._resample

    def spy(stack, spans, target):
        calls.append((len(spans), target))
        return resample(stack, spans, target)

    monkeypatch.setattr(pipeline, "_resample", spy)
    model = tmp_path / "m.mgnn"
    payload = run_json(capsys, ["train", "--data", data, "--arch", "90-5softmax",
                                "--out", model, "--epochs", "1"])
    assert calls == [(payload["candidates"], 10)] and payload["candidates"] > 0
    assert run_json(capsys, ["eval", "--model", model, "--data", data])["total"] > 0
    assert calls[1:] == [(payload["candidates"], 10)]


def test_train_fails_cleanly_on_an_empty_corpus(tmp_path, capsys):
    data = tmp_path / "empty.mgds"
    run(capsys, ["synth", "--out", data, "--per-class", "0"])
    rc, _, err = run(capsys, ["train", "--data", data,
                              "--arch", "180-8relu-5softmax",
                              "--out", tmp_path / "m.mgnn"])
    assert rc == 1
    assert "candidates" in err


def test_train_builds_recurrent_phase_models(phase_setup):
    _, _, model = phase_setup
    spec, _ = load_model(model)
    assert spec.layers[0].kind.value == "recurrent"
    assert spec.output_size == 17


@pytest.mark.parametrize("flow", ["train-gesture", "train-phase", "compress-retrain"])
def test_a_diverging_run_is_one_error_line(tmp_path, request, capsys, flow):
    # numpy's overflow warnings once came first, and under an error filter
    # one of them was raised in place of DivergenceDetected
    _, data, model = request.getfixturevalue(
        "phase_setup" if flow == "train-phase" else "gesture_setup")
    capsys.readouterr()  # what the fixture printed
    out = tmp_path / "out.mgcm"
    argv = {
        "train-gesture": ["train", "--data", data, "--arch", "180-8relu-5softmax"],
        "train-phase": ["train", "--data", data, "--arch", "12-r10tanh-17softmax"],
        "compress-retrain": ["compress", "--model", model, "--density", "0.32",
                             "--retrain-data", data],
    }[flow]
    err = _one_error_line(capsys, argv + ["--out", out, "--lr", "1e308"])
    assert "loss became nan during training" in err
    assert not out.exists()


# --- eval --------------------------------------------------------------------

def test_eval_prints_an_accuracy_summary(gesture_setup, capsys):
    _, data, model = gesture_setup
    rc, out, _ = run(capsys, ["eval", "--model", model, "--data", data])
    assert rc == 0
    assert "accuracy:" in out
    assert "->" in out  # per-class confusion lines


def test_eval_json_counts_are_consistent(gesture_setup, capsys):
    _, data, model = gesture_setup
    payload = run_json(capsys, ["eval", "--model", model, "--data", data])
    assert payload["total"] > 0
    assert payload["correct"] <= payload["total"]
    assert payload["accuracy"] == pytest.approx(
        payload["correct"] / payload["total"]
    )
    # Training data, so the tiny model should at least beat chance badly.
    assert payload["accuracy"] >= 0.5


def test_a_negative_eval_tolerance_is_one_error_line(gesture_setup, capsys):
    _, data, model = gesture_setup
    err = _one_error_line(capsys, ["eval", "--model", model, "--data", data,
                                   "--tolerance", "-3"])
    assert "tolerance must be >= 0" in err
    assert run_json(capsys, ["eval", "--model", model, "--data", data,
                             "--tolerance", "0"])["total"] > 0


def test_eval_phase_data_needs_a_seventeen_output_model(
    gesture_setup, phase_setup, capsys
):
    _, _, gesture_model = gesture_setup
    _, phase_data, _ = phase_setup
    rc, _, err = run(capsys, ["eval", "--model", gesture_model,
                              "--data", phase_data])
    assert rc == 1
    assert "17" in err


def test_eval_phase_model_runs_end_to_end(phase_setup, capsys):
    _, data, model = phase_setup
    rc, out, _ = run(capsys, ["eval", "--model", model, "--data", data])
    assert rc == 0
    assert "accuracy:" in out


def _step_rnn_per_frame(spec, params, X, state):
    """``step_rnn`` over a stream one frame at a time, as the phase commands
    once stepped it."""
    outs = [inference.step_rnn(spec, params, x, state) for x in X]
    return np.array(outs).reshape(len(X), spec.output_size)


def test_phase_commands_step_a_stream_as_one_block_as_frame_by_frame(
    tmp_path, phase_setup, capsys, monkeypatch
):
    # train's validation, eval and infer pass each stream to step_rnn as one
    # block; stepping it frame by frame must print the same JSON
    _, data, _ = phase_setup

    def commands(model):
        return [
            ["train", "--data", data, "--arch", "12-6relu-r9tanh-17softmax",
             "--out", model, "--epochs", "1", "--seed", "4"],
            ["eval", "--model", model, "--data", data],
            ["infer", "--model", model, "--data", data, "--mode", "rnn-phases"],
        ]

    def payloads(model):
        out = [run_json(capsys, argv) for argv in commands(model)]
        out[0].pop("path")
        for payload in out:  # the model's path
            payload["config"].pop("out" if "out" in payload["config"] else "model")
        return out

    capsys.readouterr()  # what the fixture printed
    blocks = payloads(tmp_path / "blocks.mgnn")
    monkeypatch.setattr(cli, "step_rnn", _step_rnn_per_frame)
    frames = payloads(tmp_path / "frames.mgnn")
    assert "val_accuracy" in blocks[0]
    assert blocks == frames
    assert (tmp_path / "blocks.mgnn").read_bytes() == (tmp_path / "frames.mgnn").read_bytes()


def test_phase_models_may_take_pixels_alone(tmp_path, phase_setup, capsys):
    # train once refused the pixels-only net that eval and infer ran
    _, data, _ = phase_setup
    model = tmp_path / "pixels.mgnn"
    rc, _, err = run(capsys, ["train", "--data", data, "--arch",
                              "9-6relu-r17softmax", "--out", model,
                              "--epochs", "1"])
    assert rc == 0, err
    rc, out, _ = run(capsys, ["eval", "--model", model, "--data", data])
    assert rc == 0 and "accuracy:" in out
    rc, out, _ = run(capsys, ["infer", "--model", model, "--data", data,
                              "--mode", "rnn-phases"])
    assert rc == 0 and "event(s)" in out


def test_train_refuses_a_phase_model_eval_refuses(tmp_path, phase_setup, capsys):
    _, data, _ = phase_setup
    spec = parse_arch("12-6relu-r18softmax")
    model = tmp_path / "wide.mgnn"
    save_model(model, spec, init_params(spec, 0))
    eval_err = _one_error_line(capsys, ["eval", "--model", model, "--data", data])
    train_err = _one_error_line(capsys, ["train", "--data", data, "--arch",
                                         "12-6relu-r18softmax",
                                         "--out", tmp_path / "m.mgnn",
                                         "--epochs", "1"])
    assert train_err == eval_err and "17-output" in train_err
    assert not (tmp_path / "m.mgnn").exists()


def test_a_candidate_model_without_five_outputs_is_one_error_line(
    tmp_path, gesture_setup, capsys
):
    # classifying once leaked a ValueError
    _, data, _ = gesture_setup
    spec = parse_arch("180-4relu-9softmax")
    model = tmp_path / "nine.mgnn"
    save_model(model, spec, init_params(spec, 0))
    for argv in (["eval", "--model", model, "--data", data],
                 ["infer", "--model", model, "--data", data,
                  "--mode", "ffnn-candidates"]):
        err = _one_error_line(capsys, argv)
        assert "5-output" in err


def test_train_and_compress_refuse_a_candidate_model_eval_refuses(
    tmp_path, gesture_setup, capsys
):
    # train once saved a nine-output gesture model that eval and infer refuse
    _, data, _ = gesture_setup
    spec = parse_arch("180-4relu-9softmax")
    model = tmp_path / "nine.mgnn"
    save_model(model, spec, init_params(spec, 0))
    eval_err = _one_error_line(capsys, ["eval", "--model", model, "--data", data])
    train_err = _one_error_line(capsys, ["train", "--data", data, "--arch",
                                         "180-4relu-9softmax",
                                         "--out", tmp_path / "m.mgnn",
                                         "--epochs", "1"])
    compress_err = _one_error_line(capsys, ["compress", "--model", model,
                                            "--out", tmp_path / "m.mgcm",
                                            "--retrain-data", data,
                                            "--retrain-epochs", "1"])
    assert train_err == compress_err == eval_err and "5-output" in train_err
    assert not (tmp_path / "m.mgnn").exists()
    assert not (tmp_path / "m.mgcm").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_a_non_finite_learning_rate_is_one_error_line(
    tmp_path, gesture_setup, capsys, lr
):
    # NaN once trained to "loss became nan", inf leaked a RuntimeWarning
    # and compress blamed the weights
    _, data, model = gesture_setup
    for argv in (["train", "--data", data, "--arch", "180-4relu-5softmax",
                  "--out", tmp_path / "m.mgnn", "--epochs", "1", "--lr", lr],
                 ["compress", "--model", model, "--out", tmp_path / "m.mgcm",
                  "--density", "0.4", "--clusters", "15",
                  "--retrain-data", data, "--retrain-epochs", "1",
                  "--lr", lr]):
        err = _one_error_line(capsys, argv)
        assert "learning_rate must be finite" in err
    assert not (tmp_path / "m.mgnn").exists()
    assert not (tmp_path / "m.mgcm").exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_a_negative_seed_is_one_error_line(tmp_path, gesture_setup, capsys, seed):
    # each once ended in a numpy ValueError traceback from default_rng
    _, data, model = gesture_setup
    synth_err = _one_error_line(capsys, ["synth", "--out", tmp_path / "ds.mgds",
                                         "--per-class", "1", "--seed", seed])
    train_err = _one_error_line(capsys, ["train", "--data", data,
                                         "--arch", "180-4relu-5softmax",
                                         "--out", tmp_path / "m.mgnn",
                                         "--epochs", "1", "--seed", seed])
    compress_err = _one_error_line(capsys, ["compress", "--model", model,
                                            "--out", tmp_path / "m.mgcm",
                                            "--retrain-data", data,
                                            "--retrain-epochs", "1", "--seed", seed])
    assert synth_err == train_err == compress_err
    assert f"seed must be >= 0, got {seed}" in synth_err
    assert not any(tmp_path.iterdir())


def test_a_learning_rate_past_float32_is_one_error_line(
    tmp_path, gesture_setup, capsys
):
    # it once trained finite float64 weights beyond float32's range, leaked
    # an overflow RuntimeWarning on save and wrote an unloadable model
    _, data, _ = gesture_setup
    err = _one_error_line(capsys, ["train", "--data", data,
                                   "--arch", "180-4relu-5softmax",
                                   "--out", tmp_path / "m.mgnn",
                                   "--epochs", "1", "--lr", "1e300"])
    assert "32-bit" in err
    assert not (tmp_path / "m.mgnn").exists()


# --- compress ----------------------------------------------------------------

def test_compress_writes_a_loadable_compressed_model(
    tmp_path, gesture_setup, capsys
):
    _, _, model = gesture_setup
    out = tmp_path / "model.mgcm"
    rc, _, _ = run(capsys, ["compress", "--model", model, "--out", out,
                            "--density", "0.4", "--clusters", "15"])
    assert rc == 0
    cm = load_compressed(out)
    assert set(cm.stage_sizes) == {"naive", "pruned_sparse", "encoded",
                                   "huffman"}
    assert compressed_payload_size(out) == cm.stage_sizes["huffman"]


def test_compress_json_reports_stage_sizes(tmp_path, gesture_setup, capsys):
    _, _, model = gesture_setup
    payload = run_json(capsys, ["compress", "--model", model,
                                "--out", tmp_path / "m.mgcm",
                                "--density", "0.4", "--clusters", "15"])
    sizes = payload["stage_sizes"]
    assert sizes["pruned_sparse"] < sizes["naive"]
    assert payload["payload_bytes"] > 0
    assert payload["factor"] > 1.0
    assert payload["surviving_weights"] > 0


def test_compress_no_huffman_skips_that_stage(tmp_path, gesture_setup, capsys):
    _, _, model = gesture_setup
    out = tmp_path / "plain.mgcm"
    rc, _, _ = run(capsys, ["compress", "--model", model, "--out", out,
                            "--density", "0.4", "--clusters", "15",
                            "--no-huffman"])
    assert rc == 0
    cm = load_compressed(out)
    assert "huffman" not in cm.stage_sizes
    assert cm.huffman is False


def test_compress_accepts_a_cluster_list(tmp_path, gesture_setup, capsys):
    _, _, model = gesture_setup
    out = tmp_path / "list.mgcm"
    rc, _, _ = run(capsys, ["compress", "--model", model, "--out", out,
                            "--density", "0.4", "--clusters", "4,8"])
    assert rc == 0
    assert [layer.bits for layer in load_compressed(out).layers] == [2, 3]


def test_compress_rejects_a_wrong_length_cluster_list(
    tmp_path, gesture_setup, capsys
):
    _, _, model = gesture_setup
    rc, _, err = run(capsys, ["compress", "--model", model,
                              "--out", tmp_path / "bad.mgcm",
                              "--clusters", "4,8,16"])
    assert rc == 1 and err


def test_compress_rejects_a_nan_threshold(tmp_path, gesture_setup, capsys):
    # NaN once pruned nothing and succeeded
    _, _, model = gesture_setup
    out = tmp_path / "nan.mgcm"
    err = _one_error_line(capsys, ["compress", "--model", model, "--out", out,
                                   "--threshold", "nan", "--clusters", "15"])
    assert "threshold" in err
    assert not out.exists()


def test_compress_with_retraining_runs_end_to_end(
    tmp_path, gesture_setup, capsys
):
    _, data, model = gesture_setup
    out = tmp_path / "retrained.mgcm"
    rc, _, _ = run(capsys, ["compress", "--model", model, "--out", out,
                            "--density", "0.4", "--clusters", "15",
                            "--retrain-data", data, "--retrain-epochs", "2"])
    assert rc == 0
    assert load_compressed(out).surviving_weights() > 0


def test_retraining_labels_beyond_the_model_outputs_are_one_error_line(
    tmp_path, gesture_setup, capsys
):
    # the corpus carries five gesture labels; this model has two outputs
    _, data, _ = gesture_setup
    spec = parse_arch("180-4relu-2softmax")
    model = tmp_path / "two.mgnn"
    save_model(model, spec, init_params(spec, 0))
    out = tmp_path / "retrained.mgcm"
    rc, _, err = run(capsys, ["compress", "--model", model, "--out", out,
                              "--retrain-data", data, "--retrain-epochs", "1"])
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "5-output" in err  # the candidate-model contract, as for train
    assert not out.exists()


def test_retraining_on_a_phase_corpus_is_one_error_line(
    tmp_path, gesture_setup, phase_setup, capsys
):
    # phase-state ids are not gesture classes, whatever states candidates end on
    _, _, model = gesture_setup
    _, phase_data, _ = phase_setup
    out = tmp_path / "retrained.mgcm"
    err = _one_error_line(capsys, ["compress", "--model", model, "--out", out,
                                   "--retrain-data", phase_data,
                                   "--retrain-epochs", "1"])
    assert "gesture-labelled corpus, got phase labels" in err
    assert not out.exists()


def test_train_refuses_a_net_above_the_size_cap_and_estimate_prices_it(gesture_setup, capsys):
    # a larger net, 100000-100000relu-5softmax, once ended in numpy's "Unable
    # to allocate 74.5 GiB"; this one is refused before numpy allocates 134 MB
    _, data, _ = gesture_setup
    rc, _, err = run(capsys, ["train", "--data", data, "--arch", "4097-4097softmax",
                              "--out", data.parent / "huge.mgnn"])
    assert rc == 1
    assert err.splitlines() == [err.strip()] and "16785409 dense weights, above the" in err
    # estimate allocates nothing, so it prices both
    for arch, weights in (("4097-4097softmax", 16_785_409),
                          ("100000-100000relu-5softmax", 10_000_500_000)):
        assert run_json(capsys, ["estimate", "--arch", arch])["weights"] == weights


# --- estimate ----------------------------------------------------------------

def test_estimate_arch_reports_exact_resource_numbers(capsys):
    payload = run_json(capsys, ["estimate", "--arch",
                                "12-9relu-9relu-r17softmax"])
    assert payload["weights"] == 631
    assert payload["parameters"] == 666
    assert payload["activation_time_us"] == pytest.approx(2980.0)
    assert payload["exec_time_us"] == pytest.approx(14338.0)
    assert payload["flash_bytes"] == 666 * 4
    assert payload["fits"] is True


def test_estimate_from_model_matches_the_arch_route(gesture_setup, capsys):
    _, _, model = gesture_setup
    via_model = run_json(capsys, ["estimate", "--model", model])
    via_arch = run_json(capsys, ["estimate", "--arch", "180-8relu-5softmax"])
    for key in ("weights", "parameters", "flash_bytes", "exec_time_us"):
        assert via_model[key] == via_arch[key]


def test_estimate_requires_exactly_one_source(gesture_setup, capsys):
    _, _, model = gesture_setup
    rc, _, err = run(capsys, ["estimate"])
    assert rc == 1 and "exactly one" in err
    rc, _, err = run(capsys, ["estimate", "--model", model,
                              "--arch", "180-8relu-5softmax"])
    assert rc == 1 and "exactly one" in err


def test_estimate_bytes_per_param_scales_flash(capsys):
    wide = run_json(capsys, ["estimate", "--arch", "180-8relu-5softmax"])
    narrow = run_json(capsys, ["estimate", "--arch", "180-8relu-5softmax",
                               "--bytes-per-param", "1"])
    assert wide["flash_bytes"] == 4 * narrow["flash_bytes"]


def test_estimate_config_file_overrides_timings(tmp_path, capsys):
    cfg = tmp_path / "board.cfg"
    cfg.write_text("mac_us = 1\n")
    payload = run_json(capsys, ["estimate", "--arch",
                                "12-9relu-9relu-r17softmax",
                                "--config", cfg])
    assert payload["exec_time_us"] == pytest.approx(631 * 1 + 2980)


def test_estimate_json_activation_time_is_the_exact_sum(tmp_path, capsys):
    cfg = tmp_path / "fractional.cfg"
    cfg.write_text("mac_us = 0.1\nrelu_us = 0.3\nsoftmax_us = 1.7\n")
    payload = run_json(capsys, ["estimate", "--arch", "180-8-5",
                                "--config", cfg])
    cost, _ = load_config(cfg)
    assert payload["activation_time_us"] == check_fit(
        parse_arch("180-8-5"), cost=cost
    ).activation_time_us == 10.9
    assert payload["exec_time_us"] == 1480 * 0.1 + 8 * 0.3 + 5 * 1.7


@pytest.mark.parametrize("line", ["mac_us = nan", "relu_us = inf",
                                  "softmax_us = -inf"])
def test_estimate_rejects_non_finite_costs(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc, out, err = run(capsys, ["estimate", "--arch", "180-8-5",
                                "--config", cfg, "--json"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def _one_error_line(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def test_unreadable_inputs_are_one_error_line(tmp_path, gesture_setup, capsys):
    _, data, _ = gesture_setup
    missing = tmp_path / "missing.cfg"
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("# d\u00e9mo\nmac_us = 9\n".encode("latin-1"))
    for cfg in (missing, tmp_path, latin1):
        _one_error_line(capsys, ["estimate", "--arch", "180-8-5",
                                 "--config", cfg])
    err = _one_error_line(capsys, ["eval", "--model", tmp_path / "none.mgnn",
                                   "--data", data])
    assert "none.mgnn" in err


def test_train_needs_at_least_two_target_frames(tmp_path, gesture_setup, capsys):
    # nine features are one frame of the 3x3 sensor
    _, data, _ = gesture_setup
    err = _one_error_line(capsys, ["train", "--data", data,
                                   "--arch", "9-8relu-5softmax",
                                   "--out", tmp_path / "m.mgnn"])
    assert "at least 2 frames" in err
    assert not (tmp_path / "m.mgnn").exists()


@pytest.mark.parametrize("fraction", ["nan", "inf", "-0.1", "1.0", "1.5"])
def test_train_rejects_a_validation_fraction_outside_zero_to_one(
    tmp_path, gesture_setup, phase_setup, capsys, fraction
):
    # on phase data, 1.5 made a negative cut and 1.0 trained on no frames
    for (_, data, _), arch in ((gesture_setup, "180-8relu-5softmax"),
                               (phase_setup, "12-r10tanh-17softmax")):
        err = _one_error_line(capsys, ["train", "--data", data, "--arch", arch,
                                       "--out", tmp_path / "m.mgnn",
                                       "--epochs", "1", "--val-fraction", fraction])
        assert "--val-fraction" in err
        assert not (tmp_path / "m.mgnn").exists()


def test_phase_training_without_training_frames_is_one_error_line(
    tmp_path, phase_setup, capsys
):
    # the parent trained on nothing and saved the initial weights
    _, data, _ = phase_setup
    empty = tmp_path / "empty.mgds"
    run(capsys, ["synth", "--out", empty, "--per-class", "0", "--labels", "phase"])
    for source, fraction in ((data, "0.99999"), (empty, "0.2"), (empty, "0")):
        err = _one_error_line(capsys, ["train", "--data", source,
                                       "--arch", "12-r10tanh-17softmax",
                                       "--out", tmp_path / "m.mgnn",
                                       "--val-fraction", fraction])
        assert "no frames to train on" in err
        assert not (tmp_path / "m.mgnn").exists()


@pytest.mark.parametrize("clusters", ["a", "4,,2", "4.5"])
def test_compress_rejects_a_malformed_cluster_option(
    tmp_path, gesture_setup, capsys, clusters
):
    _, _, model = gesture_setup
    err = _one_error_line(capsys, ["compress", "--model", model,
                                   "--out", tmp_path / "bad.mgcm",
                                   "--clusters", clusters])
    assert "--clusters" in err


@pytest.mark.parametrize("label, error", [
    (17, "phase label 17"),
    (-2, "phase label -2"),
    # once refused by the label check; now the header refuses it
    (2**70, "not an integer within 64 bits"),
], ids=["17", "negative", "huge"])
def test_a_phase_label_outside_the_state_space_is_one_error_line(
    tmp_path, phase_setup, capsys, label, error
):
    # written into the saved header, since no label array holds 2**70
    _, data, model = phase_setup
    header, payload = model_io._unframe(data, model_io.MAGIC_DATASET)
    header["annotations"][40][1] = label
    bad = tmp_path / "bad.mgds"
    model_io._atomic_write(bad, model_io._frame(model_io.MAGIC_DATASET, header, payload))
    for argv in (["train", "--data", bad, "--arch", "12-r10tanh-17softmax",
                  "--out", tmp_path / "m.mgnn", "--epochs", "1"],
                 ["eval", "--model", model, "--data", bad]):
        assert error in _one_error_line(capsys, argv)


def test_a_stream_of_frames_without_pixels_is_one_error_line(tmp_path, gesture_setup, capsys):
    # eval and infer once leaked a ZeroDivisionError from the frame count
    _, _, model = gesture_setup
    empty = tmp_path / "empty.mgds"
    save_dataset(empty, AnnotatedSequence(0, 3, np.zeros((50, 3, 0), dtype=np.uint16)))
    for argv in (["train", "--data", empty, "--arch", "180-8relu-5softmax",
                  "--out", tmp_path / "m.mgnn", "--epochs", "1"],
                 ["eval", "--model", model, "--data", empty],
                 ["infer", "--model", model, "--data", empty, "--mode", "ffnn-candidates"]):
        assert "have no pixels" in _one_error_line(capsys, argv)
    assert not (tmp_path / "m.mgnn").exists()


@pytest.mark.parametrize("label", [5, 7, -2])
def test_a_gesture_label_outside_the_classes_is_one_error_line(
    tmp_path, gesture_setup, capsys, label
):
    # eval once leaked "ValueError: 7 is not a valid GestureClass"
    _, data, model = gesture_setup
    ds = load_dataset(data)
    ds.labels[3] = label
    bad = tmp_path / "bad.mgds"
    save_dataset(bad, ds)
    for argv in (["train", "--data", bad, "--arch", "180-8relu-5softmax",
                  "--out", tmp_path / "m.mgnn", "--epochs", "1"],
                 ["eval", "--model", model, "--data", bad],
                 ["compress", "--model", model, "--out", tmp_path / "m.mgcm",
                  "--retrain-data", bad, "--retrain-epochs", "1"]):
        err = _one_error_line(capsys, argv)
        assert f"gesture label {label} outside 0..4" in err
    assert not (tmp_path / "m.mgnn").exists()
    assert not (tmp_path / "m.mgcm").exists()


SEEDED = ("synth", "train", "compress")


@pytest.mark.parametrize("command", ["synth", "train", "eval", "compress",
                                     "estimate", "infer"])
def test_only_commands_that_draw_random_numbers_take_a_seed(command, capsys):
    # the frame count, frame rate and unread seeds were once flags
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out
    assert "--target-frames" not in usage and "--fps" not in usage
    assert ("--seed" in usage) == (command in SEEDED)


def test_a_seed_on_a_command_that_draws_nothing_is_a_usage_error(
    gesture_setup, capsys
):
    _, data, model = gesture_setup
    for argv in (["eval", "--model", model, "--data", data],
                 ["estimate", "--arch", "180-8relu-5softmax"],
                 ["infer", "--model", model, "--data", data,
                  "--mode", "ffnn-candidates"]):
        with pytest.raises(SystemExit) as exit_:
            main([str(a) for a in argv] + ["--seed", "0"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_commands_are_looked_up_when_main_runs(monkeypatch, capsys):
    # the parser is built once per process; a command rebound after the
    # first call (as a tracer that wraps cmd_* does) is the one that runs
    argv = ["estimate", "--arch", "180-8relu-5softmax"]
    assert run(capsys, argv)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_estimate", lambda args: seen.append(args.arch) or 3)
    assert run(capsys, argv)[0] == 3
    assert seen == ["180-8relu-5softmax"]


# --- infer -------------------------------------------------------------------

def test_infer_reports_gesture_events(gesture_setup, capsys):
    _, data, model = gesture_setup
    rc, out, _ = run(capsys, ["infer", "--model", model, "--data", data,
                              "--mode", "ffnn-candidates"])
    assert rc == 0
    assert "event(s)" in out


def test_infer_json_event_schema(gesture_setup, capsys):
    _, data, model = gesture_setup
    payload = run_json(capsys, ["infer", "--model", model, "--data", data,
                                "--mode", "ffnn-candidates"])
    names = {c.name.lower() for c in GestureClass}
    assert len(payload["events"]) > 0
    for event in payload["events"]:
        assert event["name"] in names
        assert event["label"] == GestureClass[event["name"].upper()].value
        assert event["frame"] >= 0


def test_infer_rnn_mode_rejects_small_output_models(
    gesture_setup, phase_setup, capsys
):
    _, _, gesture_model = gesture_setup
    _, phase_data, _ = phase_setup
    rc, _, err = run(capsys, ["infer", "--model", gesture_model,
                              "--data", phase_data, "--mode", "rnn-phases"])
    assert rc == 1 and "17" in err


def test_infer_rnn_phase_mode_runs(phase_setup, capsys):
    _, data, model = phase_setup
    rc, out, _ = run(capsys, ["infer", "--model", model, "--data", data,
                              "--mode", "rnn-phases"])
    assert rc == 0
    assert "event(s)" in out


def test_infer_on_an_empty_stream_finds_nothing(
    tmp_path, gesture_setup, capsys
):
    _, _, model = gesture_setup
    empty = tmp_path / "empty.mgds"
    run(capsys, ["synth", "--out", empty, "--per-class", "0"])
    payload = run_json(capsys, ["infer", "--model", model, "--data", empty,
                                "--mode", "ffnn-candidates"])
    assert payload["events"] == []


def test_a_model_whose_output_overflows_is_one_error_line(
    tmp_path, gesture_setup, capsys
):
    # float32 weights that load_model accepts overflow float64 in 8 layers;
    # the NaN outputs once drove the events silently
    _, data, _ = gesture_setup
    spec = parse_arch("180-8-8-8-8-8-8-8-5")
    params = init_params(spec, 0)
    for lp in params.layers:
        lp.weights[:] = 3e38
    model = tmp_path / "huge.mgnn"
    save_model(model, spec, params)
    for argv in (["eval", "--model", model, "--data", data],
                 ["infer", "--model", model, "--data", data,
                  "--mode", "ffnn-candidates"]):
        assert "not finite" in _one_error_line(capsys, argv)
