import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (FAST_OVERRIDES, LIST_PAST_RIFF_SIZE, fast_config,
                      write_patched_rate_wav, write_truncated_wav)
from prefixasr import cli
from prefixasr.checkpoint import file_digest, load_checkpoint, save_checkpoint
from prefixasr.system import AsrSystem
from prefixasr.tokenizer import CharTokenizer


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def fast_cfg_file(tmp_path_factory):
    import yaml
    path = tmp_path_factory.mktemp("cfg") / "fast.yaml"
    data = {}
    for item in FAST_OVERRIDES:
        key, _, value = item.partition("=")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = yaml.safe_load(value)
    path.write_text(yaml.safe_dump(data))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, toy_corpus, fast_cfg_file):
    """One pretrain + train pass shared by the CLI read-only tests."""
    manifest, _ = toy_corpus
    out = tmp_path_factory.mktemp("run")
    assert run("pretrain", "--config", fast_cfg_file, "--manifest",
               str(manifest), "--out-dir", str(out)) == 0
    assert run("train", "--config", fast_cfg_file, "--manifest", str(manifest),
               "--ckpt", str(out / "encoder.ckpt"), "--out-dir", str(out)) == 0
    return out, manifest


def test_pretrain_writes_reloadable_checkpoint(trained):
    out, _ = trained
    ckpt = load_checkpoint(out / "encoder.ckpt")
    assert ckpt.metadata["stage"] == "ctc_pretrain"
    assert (out / "train_log.csv").exists()


def test_train_writes_model_checkpoint(trained):
    out, _ = trained
    ckpt = load_checkpoint(out / "model.ckpt")
    assert ckpt.metadata["stage"] == "joint"
    assert any(k.startswith("lora.") for k in ckpt.tensors)


def test_pretrain_same_seed_identical_digest(toy_corpus, fast_cfg_file,
                                             tmp_path):
    manifest, _ = toy_corpus
    for sub in ("a", "b"):
        assert run("pretrain", "--config", fast_cfg_file, "--manifest",
                   str(manifest), "--out-dir", str(tmp_path / sub),
                   "--seed", "5") == 0
    assert file_digest(tmp_path / "a" / "encoder.ckpt") == \
        file_digest(tmp_path / "b" / "encoder.ckpt")


def test_train_rejects_config_digest_mismatch(trained, fast_cfg_file,
                                              toy_corpus, tmp_path, caplog):
    out, manifest = trained
    code = run("train", "--config", fast_cfg_file, "--set", "lora.rank=4",
               "--manifest", str(manifest), "--ckpt", str(out / "encoder.ckpt"),
               "--out-dir", str(tmp_path))
    assert code == cli.EXIT_BAD_DATA
    assert "different lora config" in caplog.text


def test_train_accepts_int_spelling_of_float(trained, fast_cfg_file, tmp_path):
    """lora.alpha=16 is the encoder's default 16.0: configs compare by value."""
    out, manifest = trained
    assert run("train", "--config", fast_cfg_file, "--set", "lora.alpha=16",
               "--manifest", str(manifest), "--ckpt", str(out / "encoder.ckpt"),
               "--out-dir", str(tmp_path)) == cli.EXIT_OK


def test_transcribe_prints_hypothesis(trained, toy_corpus, capsys):
    # exact-transcript recovery is checked by the longer overfit harness;
    # here the briefly-trained model just has to decode deterministically
    out, _ = trained
    _, entries = toy_corpus
    assert run("transcribe", "--ckpt", str(out / "model.ckpt"),
               entries[0].audio_path) == 0
    first = capsys.readouterr().out
    assert run("transcribe", "--ckpt", str(out / "model.ckpt"),
               entries[0].audio_path) == 0
    assert capsys.readouterr().out == first


def test_transcribe_corrupt_wav_exit_3(trained, tmp_path):
    out, _ = trained
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFgarbage")
    assert run("transcribe", "--ckpt", str(out / "model.ckpt"),
               str(bad)) == cli.EXIT_BAD_DATA


def test_transcribe_zero_sample_rate_exit_3(trained, tmp_path):
    out, _ = trained
    write_patched_rate_wav(tmp_path / "r0.wav")
    assert run("transcribe", "--ckpt", str(out / "model.ckpt"),
               str(tmp_path / "r0.wav")) == cli.EXIT_BAD_DATA


def eval_skipped(trained, tmp_path, bad):
    """Run eval over the trained manifest plus the file `bad`; it must exit 0.
    Returns the report's skipped entries."""
    out, manifest = trained
    lines = Path(manifest).read_text().splitlines()
    lines.append(json.dumps({"audio_path": str(bad), "text": "a b", "language": "aa"}))
    (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
    assert run("eval", "--ckpt", str(out / "model.ckpt"), "--manifest",
               str(tmp_path / "m.jsonl"), "--out-dir", str(tmp_path)) == 0
    return json.loads((tmp_path / "report.json").read_text())["skipped"]


def test_eval_skips_zero_sample_rate(trained, tmp_path):
    bad = tmp_path / "r0.wav"
    write_patched_rate_wav(bad)
    skipped = eval_skipped(trained, tmp_path, bad)
    assert [s["audio_path"] for s in skipped] == [str(bad)]


# a data chunk that ends mid-sample (mono, one byte short) or with an odd
# sample count (stereo, one sample short)
TRUNCATED = pytest.mark.parametrize("channels, cut", [(1, 1), (2, 2)],
                                    ids=["mono_mid_sample", "stereo_mid_frame"])


@TRUNCATED
def test_transcribe_truncated_wav_exit_3(trained, tmp_path, channels, cut):
    out, _ = trained
    write_truncated_wav(tmp_path / "cut.wav", channels, cut)
    assert run("transcribe", "--ckpt", str(out / "model.ckpt"),
               str(tmp_path / "cut.wav")) == cli.EXIT_BAD_DATA


@TRUNCATED
def test_eval_skips_truncated_wav(trained, tmp_path, channels, cut):
    bad = tmp_path / "cut.wav"
    write_truncated_wav(bad, channels, cut)
    skipped = eval_skipped(trained, tmp_path, bad)
    assert [s["audio_path"] for s in skipped] == [str(bad)]
    assert "truncated data chunk" in skipped[0]["reason"]


def test_transcribe_chunk_past_riff_size_exit_3(trained, tmp_path):
    out, _ = trained
    (tmp_path / "list.wav").write_bytes(LIST_PAST_RIFF_SIZE)
    assert run("transcribe", "--ckpt", str(out / "model.ckpt"),
               str(tmp_path / "list.wav")) == cli.EXIT_BAD_DATA


def test_eval_skips_chunk_past_riff_size(trained, tmp_path):
    bad = tmp_path / "list.wav"
    bad.write_bytes(LIST_PAST_RIFF_SIZE)
    skipped = eval_skipped(trained, tmp_path, bad)
    assert [s["audio_path"] for s in skipped] == [str(bad)]
    assert "RIFF size" in skipped[0]["reason"]


def test_eval_nothing_scorable_exit_3(trained, tmp_path, caplog):
    """A WER over zero utterances is no score: exit 3, no report files."""
    out, _ = trained
    (tmp_path / "bad.wav").write_bytes(b"not a wav")
    (tmp_path / "m.jsonl").write_text(json.dumps(
        {"audio_path": str(tmp_path / "bad.wav"), "text": "a b", "language": "aa"}) + "\n")
    assert run("eval", "--ckpt", str(out / "model.ckpt"), "--manifest",
               str(tmp_path / "m.jsonl"), "--out-dir", str(tmp_path)) == cli.EXIT_BAD_DATA
    assert "1 skipped" in caplog.text
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.txt").exists()


def test_eval_writes_report_files(trained, tmp_path):
    out, manifest = trained
    rep = tmp_path / "rep"
    assert run("eval", "--ckpt", str(out / "model.ckpt"), "--manifest",
               str(manifest), "--out-dir", str(rep)) == 0
    report = json.loads((rep / "report.json").read_text())
    assert set(report["per_language"]) == {"aa", "bb"}
    table = (rep / "report.txt").read_text()
    assert table.splitlines()[0].split()[-1] == "Avg"


def test_eval_twice_byte_identical(trained, tmp_path):
    out, manifest = trained
    blobs = []
    for sub in ("x", "y"):
        rep = tmp_path / sub
        assert run("eval", "--ckpt", str(out / "model.ckpt"), "--manifest",
                   str(manifest), "--out-dir", str(rep)) == 0
        blobs.append((rep / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("overrides,code", [
    ([], cli.EXIT_OK),
    (["--set", "lora.rank=4"], cli.EXIT_BAD_DATA),
    (["--set", "lora.alpha=8.0"], cli.EXIT_BAD_DATA),
    (["--set", "lora.alpha=16"], cli.EXIT_OK),
], ids=["training_config", "other_rank", "other_alpha", "alpha_as_int"])
def test_eval_config_digest_check(overrides, code, trained, fast_cfg_file, tmp_path):
    """--config is compared by value with the config the checkpoint was
    trained under, LoRA rank included, which the loaded system keeps."""
    out, manifest = trained
    assert run("eval", "--config", fast_cfg_file, *overrides, "--ckpt",
               str(out / "model.ckpt"), "--manifest", str(manifest),
               "--out-dir", str(tmp_path)) == code


def test_align_exports_heatmap(trained, tmp_path):
    out, manifest = trained
    assert run("align", "--ckpt", str(out / "model.ckpt"), "--manifest",
               str(manifest), "--index", "0", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "align_0000.csv").exists()
    assert (tmp_path / "align_0000.pgm").exists()


def test_align_index_out_of_range(trained, tmp_path):
    out, manifest = trained
    assert run("align", "--ckpt", str(out / "model.ckpt"), "--manifest",
               str(manifest), "--index", "99",
               "--out-dir", str(tmp_path)) == cli.EXIT_BAD_INPUT


def test_inspect_ckpt(trained, capsys):
    out, _ = trained
    assert run("inspect-ckpt", "--ckpt", str(out / "model.ckpt")) == 0
    printed = capsys.readouterr().out
    assert "config digest:" in printed
    assert "total parameters:" in printed


def test_eval_digest_is_the_checkpoints(trained, tmp_path, capsys):
    """report.json names the config digest of the checkpoint it decoded."""
    out, manifest = trained
    assert run("inspect-ckpt", "--ckpt", str(out / "model.ckpt")) == 0
    printed = capsys.readouterr().out.splitlines()
    digest = next(l for l in printed if l.startswith("config digest:")).split()[-1]
    assert run("eval", "--ckpt", str(out / "model.ckpt"), "--manifest",
               str(manifest), "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["decode_config_digest"] == digest


def test_inspect_ckpt_prints_train_state(trained, capsys):
    out, _ = trained
    assert run("inspect-ckpt", "--ckpt", str(out / "pretrain_state.ckpt")) == 0
    state = load_checkpoint(out / "pretrain_state.ckpt").metadata["train_state"]
    printed = capsys.readouterr().out.splitlines()
    block = printed[printed.index("train_state:") + 1:][:4]
    assert block == [f"  {k}: {state[k]}" for k in ("stage", "step", "best_valid",
                                                        "infeasible")]
    assert state["stage"] == "ctc_pretrain" and state["step"] > 0


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
def test_inspect_ckpt_into_a_closed_pipe_exits_0(unbuffered, trained):
    """A reader that stops early (`| head -1`) is not an internal error. The
    read end is closed before the child starts, so its first write fails:
    a print when stdout is unbuffered, else the flush of the buffered
    printout."""
    out, _ = trained
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "prefixasr.cli", "inspect-ckpt",
                               "--ckpt", str(out / "encoder.ckpt")],
                              env={**base, "PYTHONPATH": str(src), **unbuffered},
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_joint_state_file_holds_best_copies_of_the_trained_tensors_only(trained):
    """The joint state file holds the model tensors, and the Adam moments and
    best-validation copies of the trained tensors; the frozen LM base and CTC
    head are stored once."""
    out, _ = trained
    system = AsrSystem.from_encoder_checkpoint(fast_config(),
                                               load_checkpoint(out / "encoder.ckpt"))
    state = load_checkpoint(out / "train_state.ckpt").tensors
    assert set(state) == set(system.all_tensors()) | {
        group + n for group in ("adam.m.", "adam.v.", "best.") for n in system.joint_trainable()}
    assert [k for k in state if k.startswith(("best.lm.", "best.encoder.ctc."))] == []


def test_resume_over_state_with_a_frozen_best_copy_exit_3(trained, fast_cfg_file,
                                                          tmp_path, caplog):
    out, manifest = trained
    ckpt = load_checkpoint(out / "train_state.ckpt")
    frozen = min(k for k in ckpt.tensors if k.startswith("lm."))
    ckpt.tensors["best." + frozen] = ckpt.tensors[frozen]
    save_checkpoint(tmp_path / "train_state.ckpt", ckpt)
    assert run("train", "--config", fast_cfg_file, "--manifest", str(manifest),
               "--ckpt", str(out / "encoder.ckpt"), "--out-dir", str(tmp_path),
               "--resume") == cli.EXIT_BAD_DATA
    assert "best." + frozen in caplog.text


def test_inspect_ckpt_damaged_train_state_exit_3(trained, tmp_path):
    out, _ = trained
    ckpt = load_checkpoint(out / "pretrain_state.ckpt")
    ckpt.metadata["train_state"]["step"] = "x"
    save_checkpoint(tmp_path / "s.ckpt", ckpt)
    assert run("inspect-ckpt", "--ckpt", str(tmp_path / "s.ckpt")) == cli.EXIT_BAD_DATA


def test_cli_import_leaves_scipy_out():
    """scipy is the resampler's test oracle only; the CLI must not load it."""
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c",
                    "import sys, prefixasr.cli; assert 'scipy' not in sys.modules"],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


@pytest.mark.parametrize("override", ["encoder.max_frames=8", "lm.max_positions=4"])
def test_audio_past_position_table_exit_3(override, toy_corpus, tmp_path):
    _, entries = toy_corpus
    system = AsrSystem(fast_config([override, "frontend.normalize=false"]),
                       CharTokenizer.from_texts([e.text for e in entries]))
    save_checkpoint(tmp_path / "model.ckpt", system.to_checkpoint())
    assert run("transcribe", "--ckpt", str(tmp_path / "model.ckpt"),
               entries[0].audio_path) == cli.EXIT_BAD_DATA


def test_missing_manifest_exit_2(fast_cfg_file, tmp_path):
    assert run("pretrain", "--config", fast_cfg_file, "--manifest",
               str(tmp_path / "nope.jsonl"),
               "--out-dir", str(tmp_path)) == cli.EXIT_BAD_INPUT


def test_missing_checkpoint_exit_2(tmp_path):
    assert run("inspect-ckpt",
               "--ckpt", str(tmp_path / "nope.ckpt")) == cli.EXIT_BAD_INPUT


def test_bad_config_override_exit_2(toy_corpus, tmp_path):
    manifest, _ = toy_corpus
    assert run("pretrain", "--manifest", str(manifest), "--out-dir",
               str(tmp_path), "--set", "encoder.bogus=1") == cli.EXIT_BAD_INPUT


@pytest.mark.parametrize("override", [
    "encoder.num_heads=5",
    "training.pretrain.warmup_steps=20000",
    "training.pretrain.peak_lr=1e-6",
    "training.joint.final_lr=0",
    "training.eval_interval=0",
    "encoder.d_model=abc",
    "lora.rank=-1",
    "eval.max_decode_tokens=-1",
    "training.valid_fraction=1.0",
    "training.valid_fraction=-0.5",
    "encoder.d_model=0",
    "encoder.num_layers=-1",
    "encoder.conv_kernel=-1",
    "encoder.dropout=1.0",
    "lm.dropout=-0.5",
    "training.batch_seconds=.inf",
    "training.batch_seconds=.nan",
    "training.batch_seconds=10000000.0",
    "encoder.d_model=[1",
])
def test_bad_config_value_exit_2(override, toy_corpus, tmp_path):
    manifest, _ = toy_corpus
    assert run("pretrain", "--manifest", str(manifest), "--out-dir",
               str(tmp_path), "--set", override) == cli.EXIT_BAD_INPUT


def _file(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


def _manifest_line(line):
    return lambda d, m: ["pretrain", "--manifest", _file(d / "m.jsonl", line + "\n"),
                         "--out-dir", str(d / "out")]


# each builds (tmp_path, manifest) -> argv that fails before any training
USER_MISTAKES = {
    "config_bad_yaml": lambda d, m: [
        "pretrain", "--config", _file(d / "c.yaml", "encoder: [1\n"),
        "--manifest", m, "--out-dir", str(d / "out")],
    "config_is_dir": lambda d, m: [
        "pretrain", "--config", str(d), "--manifest", m, "--out-dir", str(d / "out")],
    "config_not_utf8": lambda d, m: [
        "pretrain", "--config", _file(d / "c.yaml", b"encoder:\n  d_model: \xff\xfe\n"),
        "--manifest", m, "--out-dir", str(d / "out")],
    "manifest_is_dir": lambda d, m: [
        "pretrain", "--manifest", str(d), "--out-dir", str(d / "out")],
    "manifest_not_utf8": lambda d, m: [
        "pretrain", "--manifest", _file(d / "m.jsonl", b'{"text": "\xff"}\n'),
        "--out-dir", str(d / "out")],
    "manifest_line_not_object": _manifest_line("5"),
    "manifest_text_not_string": _manifest_line(
        json.dumps({"audio_path": "a.wav", "text": 5, "language": "aa"})),
    "out_dir_is_file": lambda d, m: [
        "pretrain", "--manifest", m, "--out-dir", _file(d / "taken", "")],
    "ckpt_is_dir": lambda d, m: [
        "transcribe", "--ckpt", str(d), _file(d / "a.wav", "")],
}


@pytest.mark.parametrize("mistake", sorted(USER_MISTAKES))
def test_user_mistake_exit_2(mistake, toy_corpus, tmp_path):
    manifest, _ = toy_corpus
    assert run(*USER_MISTAKES[mistake](tmp_path, str(manifest))) == cli.EXIT_BAD_INPUT


def test_unknown_subcommand_exit_2():
    assert run("frobnicate") == cli.EXIT_BAD_INPUT


def test_resume_matches_uninterrupted(toy_corpus, fast_cfg_file, tmp_path):
    manifest, _ = toy_corpus
    a, b = tmp_path / "full", tmp_path / "halves"
    assert run("pretrain", "--config", fast_cfg_file, "--manifest",
               str(manifest), "--out-dir", str(a)) == 0
    # interrupted run: stop after 10 steps, then resume to completion
    assert run("pretrain", "--config", fast_cfg_file, "--set",
               "training.pretrain.max_steps=10", "--manifest", str(manifest),
               "--out-dir", str(b)) == 0
    # align the saved state with the full-length configuration before resuming
    state = load_checkpoint(b / "pretrain_state.ckpt")
    from prefixasr.checkpoint import save_checkpoint
    from prefixasr.config import load_config
    state.config = load_config(fast_cfg_file).to_dict()
    save_checkpoint(b / "pretrain_state.ckpt", state)
    assert run("pretrain", "--config", fast_cfg_file, "--manifest",
               str(manifest), "--out-dir", str(b), "--resume") == 0
    full = load_checkpoint(a / "encoder.ckpt")
    resumed = load_checkpoint(b / "encoder.ckpt")
    for name, arr in full.tensors.items():
        np.testing.assert_array_equal(resumed.tensors[name], arr, err_msg=name)


def test_resume_with_other_model_config_exit_3(toy_corpus, fast_cfg_file, tmp_path):
    manifest, _ = toy_corpus
    assert run("pretrain", "--config", fast_cfg_file, "--set", "encoder.d_model=64",
               "--set", "training.pretrain.max_steps=10", "--manifest",
               str(manifest), "--out-dir", str(tmp_path)) == 0
    assert run("pretrain", "--config", fast_cfg_file, "--set", "encoder.d_model=32",
               "--manifest", str(manifest), "--out-dir", str(tmp_path),
               "--resume") == cli.EXIT_BAD_DATA


@pytest.mark.parametrize("source", ["encoder.ckpt", "train_state.ckpt"])
def test_resume_over_wrong_kind_of_state_file_exit_3(source, trained, fast_cfg_file,
                                                      tmp_path):
    out, manifest = trained
    shutil.copy(out / source, tmp_path / "pretrain_state.ckpt")
    assert run("pretrain", "--config", fast_cfg_file, "--manifest", str(manifest),
               "--out-dir", str(tmp_path), "--resume") == cli.EXIT_BAD_DATA


def test_no_normalizer_when_normalization_is_off(toy_corpus, fast_cfg_file, tmp_path):
    from prefixasr.system import AsrSystem
    manifest, _ = toy_corpus
    common = ["--config", fast_cfg_file, "--set", "frontend.normalize=false",
              "--set", "training.pretrain.max_steps=2",
              "--set", "training.joint.max_steps=2",
              "--manifest", str(manifest), "--out-dir", str(tmp_path)]
    assert run("pretrain", *common) == 0
    assert run("train", *common, "--ckpt", str(tmp_path / "encoder.ckpt")) == 0
    system = AsrSystem.from_checkpoint(load_checkpoint(tmp_path / "model.ckpt"))
    assert system.cfg.frontend.normalize is False
    assert system.normalizer is None


def _drop_tokenizer(ckpt):
    del ckpt.metadata["tokenizer"]


def _chars_not_a_list(ckpt):
    ckpt.metadata["tokenizer"] = {"chars": 5}


def _chars_not_strings(ckpt):
    chars = ckpt.metadata["tokenizer"]["chars"]
    ckpt.metadata["tokenizer"]["chars"] = list(range(len(chars)))


def _mel_stats_79_wide(ckpt):
    for name in ("frontend.mel_mean", "frontend.mel_std"):
        ckpt.tensors[name] = ckpt.tensors[name][:79]


def _mel_mean_nan(ckpt):
    ckpt.tensors["frontend.mel_mean"] = np.full(80, np.nan, np.float32)


def _mel_std_zero(ckpt):
    ckpt.tensors["frontend.mel_std"] = np.zeros(80, np.float32)


def _mel_stats_missing(ckpt):
    del ckpt.tensors["frontend.mel_mean"], ckpt.tensors["frontend.mel_std"]


def _stored_config_invalid(ckpt):
    ckpt.config["encoder"]["num_heads"] = 3  # does not divide d_model


def _unknown_state_key(ckpt):
    ckpt.metadata["train_state"]["bogus"] = 1


def _missing_adam_tensor(ckpt):
    name = min(k for k in ckpt.tensors if k.startswith("adam.m."))
    del ckpt.tensors[name]
    return name


@pytest.mark.parametrize("damage", [_drop_tokenizer, _chars_not_a_list, _chars_not_strings,
                                    _mel_stats_79_wide, _mel_mean_nan, _mel_std_zero,
                                    _mel_stats_missing, _stored_config_invalid],
                         ids=["no_tokenizer", "chars_not_a_list", "chars_not_strings",
                              "mel_stats_79_wide", "mel_mean_nan", "mel_std_zero",
                              "mel_stats_missing", "stored_config_invalid"])
def test_transcribe_with_damaged_metadata_exit_3(damage, trained, toy_corpus, tmp_path):
    out, _ = trained
    _, entries = toy_corpus
    ckpt = load_checkpoint(out / "model.ckpt")
    damage(ckpt)
    save_checkpoint(tmp_path / "model.ckpt", ckpt)
    assert run("transcribe", "--ckpt", str(tmp_path / "model.ckpt"),
               entries[0].audio_path) == cli.EXIT_BAD_DATA


def _step_not_an_int(ckpt):
    ckpt.metadata["train_state"]["step"] = "x"


def _best_valid_a_bool(ckpt):
    ckpt.metadata["train_state"]["best_valid"] = True


def _log_not_a_list(ckpt):
    ckpt.metadata["train_state"]["log"] = {"step": 1}


def _adam_tensor_too_wide(ckpt):
    name = min(k for k, v in ckpt.tensors.items() if k.startswith("adam.m.") and v.ndim == 2)
    rows, cols = ckpt.tensors[name].shape
    ckpt.tensors[name] = np.zeros((rows, cols + 1), np.float32)
    return name


def _adam_tensor_0d(ckpt):
    name = min(k for k in ckpt.tensors if k.startswith("adam.m."))
    ckpt.tensors[name] = np.zeros((), np.float32)
    return name


def _model_tensor_missing(ckpt):
    del ckpt.tensors["encoder.block0.wq"]
    return "encoder.block0.wq"


def _best_tensor_wrong_shape(ckpt):
    ckpt.tensors["best.encoder.block0.wq"] = np.zeros(3, np.float32)
    return "best.encoder.block0.wq"


@pytest.mark.parametrize("damage", [_unknown_state_key, _missing_adam_tensor,
                                    _step_not_an_int, _best_valid_a_bool, _log_not_a_list,
                                    _adam_tensor_too_wide, _adam_tensor_0d,
                                    _model_tensor_missing, _best_tensor_wrong_shape],
                         ids=["unknown_state_key", "missing_adam_tensor",
                              "step_not_an_int", "best_valid_a_bool", "log_not_a_list",
                              "adam_tensor_too_wide", "adam_tensor_0d",
                              "model_tensor_missing", "best_tensor_wrong_shape"])
def test_resume_with_damaged_state_exit_3(damage, trained, fast_cfg_file, tmp_path, caplog):
    out, manifest = trained
    ckpt = load_checkpoint(out / "pretrain_state.ckpt")
    named = damage(ckpt)
    save_checkpoint(tmp_path / "pretrain_state.ckpt", ckpt)
    assert run("pretrain", "--config", fast_cfg_file, "--manifest", str(manifest),
               "--out-dir", str(tmp_path), "--resume") == cli.EXIT_BAD_DATA
    if named is not None:
        assert named in caplog.text


def test_train_over_encoder_checkpoint_missing_a_tensor_exit_3(trained, fast_cfg_file,
                                                               tmp_path, caplog):
    out, manifest = trained
    ckpt = load_checkpoint(out / "encoder.ckpt")
    del ckpt.tensors["encoder.block0.wq"]
    save_checkpoint(tmp_path / "encoder.ckpt", ckpt)
    assert run("train", "--config", fast_cfg_file, "--manifest", str(manifest),
               "--ckpt", str(tmp_path / "encoder.ckpt"),
               "--out-dir", str(tmp_path)) == cli.EXIT_BAD_DATA
    assert "encoder.block0.wq" in caplog.text


def test_pretrain_with_vanishing_sampling_weights(toy_corpus, fast_cfg_file, tmp_path):
    """Every hours**400 underflows to 0 on the toy corpus."""
    manifest, _ = toy_corpus
    assert run("pretrain", "--config", fast_cfg_file, "--set", "training.sampling_alpha=400.0",
               "--set", "training.pretrain.max_steps=2", "--manifest", str(manifest),
               "--out-dir", str(tmp_path)) == 0


def test_pretrain_with_overflowing_sampling_exponent(toy_corpus, fast_cfg_file, tmp_path):
    """alpha * log(hours) is -inf for every toy language at alpha = 1e308."""
    manifest, _ = toy_corpus
    assert run("pretrain", "--config", fast_cfg_file, "--set", "training.sampling_alpha=1.0e+308",
               "--set", "training.pretrain.max_steps=2", "--manifest", str(manifest),
               "--out-dir", str(tmp_path)) == 0


def test_valid_fraction_near_one_keeps_training_data(toy_corpus, fast_cfg_file, tmp_path):
    """0.95 of the 8-utterance corpus rounds to 8; one must stay for training."""
    manifest, _ = toy_corpus
    common = ["--config", fast_cfg_file, "--manifest", str(manifest), "--out-dir",
              str(tmp_path), "--set", "training.valid_fraction=0.95",
              "--set", "training.pretrain.max_steps=2", "--set", "training.joint.max_steps=2"]
    assert run("pretrain", *common) == 0
    assert run("train", *common, "--ckpt", str(tmp_path / "encoder.ckpt")) == 0


def _pretrain_subprocess(manifest, out, env):
    """A three-step stage-1 run at the default model size through `python
    -m prefixasr.cli`, under `env` for the BLAS thread variables."""
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    subprocess.run([sys.executable, "-m", "prefixasr.cli", "pretrain", "--manifest",
                    str(manifest), "--out-dir", str(out),
                    "--set", "training.pretrain.max_steps=3",
                    "--set", "training.valid_fraction=0",
                    "--set", "training.eval_interval=3"],
                   env={**base, "PYTHONPATH": str(src), **env}, check=True,
                   capture_output=True)
    return out / "encoder.ckpt"


def test_blas_threads_pinned_to_one_unless_set(toy_corpus, tmp_path):
    """With no BLAS thread variable set the CLI runs BLAS on one thread, so
    the checkpoint is the one a run at OPENBLAS_NUM_THREADS=1 writes, on a
    host of any CPU count. The file records the count and numpy's version."""
    manifest, _ = toy_corpus
    unset = _pretrain_subprocess(manifest, tmp_path / "unset", {})
    one = _pretrain_subprocess(manifest, tmp_path / "one", {"OPENBLAS_NUM_THREADS": "1"})
    assert file_digest(unset) == file_digest(one)
    assert load_checkpoint(one).metadata["runtime"] == {"numpy": np.__version__,
                                                        "blas_threads": "1"}


def test_blas_threads_the_user_set_are_kept():
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    probe = subprocess.run(
        [sys.executable, "-c", "import os, prefixasr.cli as c; "
         "print(c.BLAS_THREADS, os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env={**base, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "2"},
        check=True, capture_output=True, text=True)
    assert probe.stdout.split() == ["2", "None"]


def test_inspect_ckpt_prints_runtime(trained, capsys):
    out, _ = trained
    runtime = load_checkpoint(out / "model.ckpt").metadata["runtime"]
    assert runtime == {"numpy": np.__version__, "blas_threads": cli.BLAS_THREADS}
    assert run("inspect-ckpt", "--ckpt", str(out / "model.ckpt")) == 0
    assert f"runtime: {json.dumps(runtime, sort_keys=True)}" in \
        capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("rank", [0, 4, 8])
def test_logged_adapter_count_is_what_the_lm_builds(rank, caplog):
    system = AsrSystem(fast_config([f"lora.rank={rank}"]), CharTokenizer.from_texts(["ab"]))
    with caplog.at_level("INFO", logger="prefixasr"):
        cli._log_adapters(system.to_checkpoint())
    logged = int(caplog.records[-1].getMessage().rsplit(" ", 1)[1])
    assert logged == sum(t.data.size for t in system.lm.lora_parameters().values())
    assert (logged > 0) == (rank > 0)
