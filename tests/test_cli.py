"""End-to-end tests for the command-line interface."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voicedet.cli import main
from voicedet.dsp import Waveform, write_wav
from voicedet.labels import align_for_lowest_vde, read_labels, write_labels
from voicedet.tracker import VoicingLabels
from scipy.signal import sawtooth


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = main(["synth-corpus", "--out", str(root), "--n", "6", "--seed", "7"])
    assert code == 0
    return root


class TestSynthCorpus:
    def test_regeneration_is_byte_identical(self, small_corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth-corpus", "--out", str(again), "--n", "6", "--seed", "7"]) == 0
        for rel in ("mic/utt0003.wav", "laryn/utt0001.wav", "labels/utt0002.lab", "manifest.tsv.stats.json"):
            a = (small_corpus / rel).read_bytes()
            b = (again / rel).read_bytes()
            # manifests embed absolute paths; compare content-bearing files only
            assert a == b


class TestLabelsExtract:
    def test_extract_and_rerun_identical(self, small_corpus, tmp_path):
        out1 = tmp_path / "l1"
        out2 = tmp_path / "l2"
        args = ["labels-extract", "--manifest", str(small_corpus / "manifest.tsv")]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        for lab in sorted(out1.glob("*.lab")):
            assert lab.read_bytes() == (out2 / lab.name).read_bytes()
        summary = (out1 / "summary.tsv").read_text()
        assert summary.startswith("#v1 voicedet-extract-summary\n")
        assert "voiced_fraction\tsynthetic" in summary

    def test_strict_mode_flags_skipped_records(self, tmp_path):
        root = tmp_path / "broken"
        (root / "mic").mkdir(parents=True)
        write_wav(root / "mic" / "u0.wav", Waveform(np.zeros(8000), 8000))
        (root / "meta.tsv").write_text("u0\tspk0\tmale\n")
        import voicedet.corpus as corpus_io

        manifest = corpus_io.scan_corpus(root, "synthetic")
        corpus_io.write_manifest(root / "manifest.tsv", manifest)
        out = tmp_path / "out"
        # no laryngograph: skipped -> exit 0 without --strict, 2 with it
        assert main(["labels-extract", "--manifest", str(root / "manifest.tsv"), "--out", str(out)]) == 0
        assert (
            main(["labels-extract", "--manifest", str(root / "manifest.tsv"), "--out", str(out), "--strict"])
            == 2
        )


    def test_missing_laryngograph_file_is_usage_error(self, tmp_path, capsys):
        import voicedet.corpus as corpus_io

        root = tmp_path / "corpus"
        for sub in ("mic", "laryn"):
            (root / sub).mkdir(parents=True)
            write_wav(root / sub / "u0.wav", Waveform(np.zeros(8000), 16000))
        (root / "meta.tsv").write_text("u0\tspk0\tmale\n")
        corpus_io.write_manifest(root / "manifest.tsv", corpus_io.scan_corpus(root, "synthetic"))
        gone = root / "laryn" / "u0.wav"
        gone.unlink()
        out = tmp_path / "out"
        assert main(["labels-extract", "--manifest", str(root / "manifest.tsv"), "--out", str(out)]) == 1
        assert str(gone) in capsys.readouterr().err
        assert not out.exists()  # checked before any work starts


class TestLabelsCompare:
    def test_identical_dirs_all_zero(self, small_corpus, tmp_path, capsys):
        labels = small_corpus / "labels"
        assert main(["labels-compare", "--a", str(labels), "--b", str(labels)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#hop_ms=10\n")
        for line in out.splitlines()[2:]:
            assert line.split(",")[2] == "0.0000"

    def test_single_flipped_frame(self, small_corpus, tmp_path):
        import shutil

        b_dir = tmp_path / "b"
        shutil.copytree(small_corpus / "labels", b_dir)
        target = b_dir / "utt0000.lab"
        labels = read_labels(target)
        flipped = labels.labels.copy()
        flipped[10] ^= 1
        f0 = np.where(flipped == 1, np.maximum(labels.f0, 100.0), 0.0)
        write_labels(target, VoicingLabels(flipped, f0=f0))
        out_csv = tmp_path / "cmp.csv"
        assert main(
            ["labels-compare", "--a", str(small_corpus / "labels"), "--b", str(b_dir), "--out", str(out_csv)]
        ) == 0
        lines = out_csv.read_text().splitlines()
        pooled = lines[-1].split(",")
        total = int(pooled[1])
        assert pooled[0] == "POOLED"
        assert float(pooled[2]) == pytest.approx(100.0 / total, abs=1e-3)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n_utts=st.integers(1, 4))
    def test_pooled_row_is_ratio_of_integer_counts(self, seed, n_utts):
        rng = np.random.default_rng(seed)
        wrong = aligned_wrong = n = aligned_n = 0
        with tempfile.TemporaryDirectory() as tmp:
            dir_a, dir_b = Path(tmp, "a"), Path(tmp, "b")
            dir_a.mkdir()
            dir_b.mkdir()
            for i in range(n_utts):
                length = int(rng.integers(20, 120))
                a = VoicingLabels(rng.integers(0, 2, length).astype(np.int8))
                b = VoicingLabels(np.where(rng.random(length + int(rng.integers(-2, 3))) < 0.2,
                                           1, 0).astype(np.int8))
                write_labels(dir_a / f"u{i}.lab", a)
                write_labels(dir_b / f"u{i}.lab", b)
                m = min(len(a), len(b))
                wrong += int(np.count_nonzero(a.labels[:m] != b.labels[:m]))
                n += m
                _, aligned = align_for_lowest_vde(a, b, 5)
                aligned_wrong += aligned.wrong
                aligned_n += aligned.n_frames
            out = Path(tmp, "cmp.csv")
            assert main(["labels-compare", "--a", str(dir_a), "--b", str(dir_b),
                         "--out", str(out)]) == 0
            pooled = out.read_text().splitlines()[-1]
        assert pooled == (f"POOLED,{n},{100.0 * wrong / n:.4f},"
                          f"{100.0 * aligned_wrong / aligned_n:.4f},0")

    def test_disjoint_dirs_error(self, small_corpus, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["labels-compare", "--a", str(small_corpus / "labels"), "--b", str(empty)]) == 1

    @pytest.mark.parametrize("text, lineno", [
        ("#hop_ms=10\n0\t0\t0.000\n1\tx\t0.000\n", 3),   # non-integer label
        ("#hop_ms=ten\n0\t0\t0.000\n", 1),                 # bad header value
        ("#hop_ms=-10\n0\t0\t0.000\n", 1),                 # negative hop
        ("#hop_ms=nan\n0\t0\t0.000\n", 1),                 # non-finite hop
        ("#hop_ms=10\n0\t1\t1e2x\n", 2),                    # non-float f0
        ("#hop_ms=10\n0\t0\t0.000\n\n1\t2\t0.000\n", 4),  # non-binary label
    ])
    def test_malformed_label_file_is_usage_error(self, tmp_path, capsys, text, lineno):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        write_labels(dir_a / "u.lab", VoicingLabels(np.zeros(3, dtype=np.int8)))
        (dir_b / "u.lab").write_text(text)
        assert main(["labels-compare", "--a", str(dir_a), "--b", str(dir_b)]) == 1
        assert f"{dir_b / 'u.lab'}:{lineno}:" in capsys.readouterr().err


def tiny_checkpoint(path):
    from voicedet.nn.checkpoint import save_checkpoint
    from voicedet.nn.model import DccrnModel, ModelConfig

    cfg = ModelConfig(block_out_channels=(2, 4), blstm_hidden=8, groups=2, dtype="float32")
    model = DccrnModel(cfg, seed=0)
    save_checkpoint(path, cfg, model.params(), model.buffers())
    return path


class TestDetect:
    def test_rapt_on_voiced_tone(self, tmp_path):
        t = np.arange(2 * 8000) / 8000
        wav = tmp_path / "tone.wav"
        write_wav(wav, Waveform(0.5 * sawtooth(2 * np.pi * 150 * t), 8000))
        out = tmp_path / "out"
        assert main(["detect", "--method", "rapt", "--out", str(out), str(wav)]) == 0
        labels = read_labels(out / "tone.lab")
        assert labels.labels[5:-5].mean() >= 0.95

    def test_dccrn_with_untrained_checkpoint(self, tmp_path):
        ckpt = tiny_checkpoint(tmp_path / "m.ckpt")
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.random.default_rng(0).standard_normal(8000) * 0.1, 8000))
        out = tmp_path / "out"
        code = main(
            ["detect", "--method", "dccrn", "--checkpoint", str(ckpt), "--out", str(out),
             "--posteriors", str(wav)]
        )
        assert code == 0
        labels = read_labels(out / "x.lab")
        assert len(labels) == 100
        post = (out / "x.posteriors.csv").read_text().splitlines()
        assert post[0] == "frame,probability"
        probs = np.array([float(ln.split(",")[1]) for ln in post[1:]])
        assert np.all((probs > 0) & (probs < 1))

    @pytest.mark.parametrize("tracker", [
        {"max_candidates_per_frame": 2.5},
        {"voicing_bias": float("nan")},
        {"energy_floor": -1},
        {"corr_window_ms": 0},
        {"corr_window_ms": 0.01},  # rounds to 0 samples at 8 kHz
        {"bogus": 1},
    ])
    def test_rapt_bad_tracker_config_is_usage_error(self, tmp_path, capsys, tracker):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tracker": tracker}))
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        code = main(["detect", "--method", "rapt", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), str(wav)])
        assert code == 1
        assert next(iter(tracker)) in capsys.readouterr().err

    def test_missing_input_file_names_path(self, tmp_path, capsys):
        code = main(["detect", "--method", "rapt", "--out", str(tmp_path), "/nope/missing.wav"])
        assert code == 1
        assert "missing.wav" in capsys.readouterr().err

    def test_dccrn_without_checkpoint_is_usage_error(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        assert main(["detect", "--method", "dccrn", "--out", str(tmp_path), str(wav)]) == 1

    def test_truncated_checkpoint_is_usage_error(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.ckpt")
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        code = main(["detect", "--method", "dccrn", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out"), str(wav)])
        assert code == 1
        assert str(ckpt) in capsys.readouterr().err

    def test_one_digit_shape_edit_is_usage_error(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.ckpt")
        data = ckpt.read_bytes()
        at = data.index(b'"shape": [') + len(b'"shape": [')
        ckpt.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        code = main(["detect", "--method", "dccrn", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out"), str(wav)])
        assert code == 1
        assert str(ckpt) in capsys.readouterr().err


def malformed_wav(kind, path):
    """Write a WAV file cut to a 30-byte header, replaced by non-RIFF bytes,
    or cut in half (scipy reads the first half and only warns)."""
    write_wav(path, Waveform(np.zeros(16000), 16000))
    data = path.read_bytes()
    path.write_bytes({"header": data[:30], "not_riff": b"not a wav file" * 8,
                      "half": data[: len(data) // 2]}[kind])


@pytest.mark.parametrize("kind", ["header", "not_riff", "half"])
@pytest.mark.parametrize("command", ["detect", "labels-extract"])
def test_malformed_wav_is_usage_error(tmp_path, capsys, command, kind):
    root = tmp_path / "corpus"
    (root / "mic").mkdir(parents=True)
    (root / "laryn").mkdir()
    write_wav(root / "mic" / "u0.wav", Waveform(np.zeros(16000), 16000))
    bad = root / "laryn" / "u0.wav"
    malformed_wav(kind, bad)
    out = str(tmp_path / "out")
    if command == "detect":
        argv = ["detect", "--method", "rapt", "--out", out, str(bad)]
    else:
        import voicedet.corpus as corpus_io

        (root / "meta.tsv").write_text("u0\tspk0\tmale\n")
        corpus_io.write_manifest(root / "manifest.tsv", corpus_io.scan_corpus(root, "synthetic"))
        argv = ["labels-extract", "--manifest", str(root / "manifest.tsv"), "--out", out]
    assert main(argv) == 1
    assert str(bad) in capsys.readouterr().err


class TestTrainAndEval:
    def test_demo_round_trip(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train", "--out", str(out), "--synthetic-demo",
             "--demo-utterances", "14", "--demo-epochs", "1", "--seed", "5"]
        )
        assert code == 0
        assert (out / "synthetic.ckpt").exists()
        history = (out / "synthetic.history.csv").read_text()
        assert history.splitlines()[0] == "epoch,train_loss,val_loss,lr"
        assert len(history.splitlines()) == 2
        config = json.loads((out / "config.json").read_text())
        assert set(config) == {"tracker", "model", "train"}
        assert config["train"]["seed"] == 5
        assert config["model"]["block_out_channels"] == [2, 4]
        eval_csv = (out / "demo-eval.csv").read_text()
        assert eval_csv.splitlines()[0] == "train_set,test_set,method,vde_percent,n_frames,shift"

        # eval command with method=rapt needs no checkpoint
        import voicedet.corpus as corpus_io

        corpus_dir = out / "synth-corpus"
        manifest = corpus_io.scan_corpus(corpus_dir, "synthetic")
        data_ids = tuple(r.full_id for r in manifest.records)
        fold = corpus_io.FoldPlan("synthetic", data_ids[2:], data_ids[1:2], data_ids[:1])
        folds_path = tmp_path / "folds.json"
        folds_path.write_text(corpus_io.folds_to_json([fold]))
        report_csv = tmp_path / "report.csv"
        strips = tmp_path / "strips.csv"
        code = main(
            ["eval", "--corpus", f"{corpus_dir}:synthetic", "--folds", str(folds_path),
             "--methods", "rapt,reference", "--out", str(report_csv), "--strips", str(strips)]
        )
        assert code == 0
        rows = report_csv.read_text().splitlines()
        assert rows[0] == "train_set,test_set,method,vde_percent,n_frames,shift"
        assert len(rows) == 3  # rapt + reference
        ref_row = [r for r in rows[1:] if ",reference," in r][0]
        assert ",0.0000," in ref_row
        strip_lines = strips.read_text().splitlines()
        assert strip_lines[0] == "fold,method,utt_id,frame,reference,estimate"
        assert len(strip_lines) > 300

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"learning_rate": 1}}))
        assert main(["train", "--out", str(tmp_path / "o"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(bad)]) == 1
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps({"optimizer": {}}))
        assert main(["train", "--out", str(tmp_path / "o2"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(worse)]) == 1
        zero_stride = tmp_path / "zero_stride.json"
        zero_stride.write_text(json.dumps({"model": {"gated_stride": 0}}))
        assert main(["train", "--out", str(tmp_path / "o3"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(zero_stride)]) == 1

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("adam_beta1", 1.0), ("adam_beta2", 1.0), ("seed", -1),
        ("lr_init", float("nan")), ("adam_eps", float("nan")), ("min_delta", float("nan")),
        ("clip_max_norm", float("inf")), ("batch_size", 2.5), ("batch_size", True), ("plateau_patience", 1.5),
    ])
    def test_bad_train_field_is_usage_error(self, tmp_path, capsys, field, value):
        """Each would otherwise train: epochs 0 and beta1 1 end in a NaN
        validation loss, beta2 1 divides by zero, seed -1 fails in numpy, and
        the NaN, infinite, fractional and boolean values ran as given."""
        self.assert_config_rejected(tmp_path, capsys, "train", field, value)

    @pytest.mark.parametrize("field, value", [
        ("bn_eps", float("nan")), ("bn_eps", 0.0), ("bn_eps", -1e-5), ("bn_momentum", float("nan")),
        ("bn_momentum", 1.0), ("bn_momentum", -0.1), ("blstm_layers", True),
    ])
    def test_bad_model_field_is_usage_error(self, tmp_path, capsys, field, value):
        self.assert_config_rejected(tmp_path, capsys, "model", field, value)

    @staticmethod
    def assert_config_rejected(tmp_path, capsys, section, field, value):
        # json writes NaN and Infinity, and Python's json reads them back
        cfg = tmp_path / "cfg.json"
        config = {"model": {"block_out_channels": [2, 4], "composite_growth": 4, "blstm_hidden": 32, "groups": 4},
                  "train": {"max_epochs": 1}}
        config[section][field] = value
        cfg.write_text(json.dumps(config))
        assert main(["train", "--out", str(tmp_path / "o"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and field in err
        assert not (tmp_path / "o").exists()

    def test_diverged_training_is_partial_failure(self, tmp_path, capsys):
        import voicedet.corpus as corpus_io
        from voicedet.synth import generate_synthetic_corpus

        root = tmp_path / "corpus"
        ids = [r.full_id for r in generate_synthetic_corpus(root, n_utterances=4, seed=3, duration_sec=1.0).records]
        folds = tmp_path / "folds.json"
        folds.write_text(corpus_io.folds_to_json([corpus_io.FoldPlan("synthetic", ids[:2], ids[2:3], ids[3:])]))
        cfg = tmp_path / "cfg.json"
        reduced = {"block_out_channels": [2, 4], "composite_growth": 4, "blstm_hidden": 32, "groups": 4}
        cfg.write_text(json.dumps({"model": reduced, "train": {"lr_init": 1e30, "max_epochs": 3, "batch_size": 2}}))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--corpus", f"{root}:synthetic", "--folds", str(folds),
                         "--config", str(cfg), "--out", str(out)])
        assert code == 2
        # only the divergence is reported, not numpy's overflow warnings
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "fold synthetic: training diverged in epoch 2" in capsys.readouterr().err
        # the best checkpoint before the divergence is still written
        assert (out / "synthetic.ckpt").exists()


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["labels-extract"]) == 1  # missing required args
        assert main(["bogus-command"]) == 1

    def test_jobs_only_accepted_by_labels_extract(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        out = str(tmp_path / "out")
        assert main(["detect", "--method", "rapt", "--jobs", "8", "--out", out, str(wav)]) == 1
        assert main(["train", "--synthetic-demo", "--jobs", "2", "--out", out]) == 1
        assert main(["eval", "--corpus", f"{tmp_path}:x", "--folds", "f.json",
                     "--jobs", "2", "--out", out]) == 1
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_short_meta_line_is_usage_error(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "mic").mkdir(parents=True)
        write_wav(root / "mic" / "u1.wav", Waveform(np.zeros(800), 8000))
        (root / "meta.tsv").write_text("# utt\tspeaker\tsex\nu1\tspk\n")
        argv = ["train", "--corpus", f"{root}:FDA", "--folds", str(tmp_path / "f.json"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"{root / 'meta.tsv'}:2: " in capsys.readouterr().err

    def test_internal_errors_are_three(self, tmp_path, monkeypatch):
        import voicedet.cli as cli

        def boom(args):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(cli.build_parser()._defaults, "func", boom)
        # patch via parser default is awkward; simulate through a failing command
        monkeypatch.setattr(cli, "generate_synthetic_corpus", boom)
        assert main(["synth-corpus", "--out", str(tmp_path / "x")]) == 3


BAD_INPUTS = {
    "missing": None,
    "not_utf8": b"\xff\xfe{\x00",
    "not_json": b"{not json",
    "no_folds": b'{"version": 1}',
    "no_ids": b'{"version": 1, "folds": [{"held_out_corpus": "FDA"}]}',
    "malformed_line": b"#v1 voicedet-manifest\nFDA\tu0\t/a.wav\n",
}


def bad_input_argv(tmp_path, command, flag, bad):
    """argv that hands `bad` to `command` as `flag`, every other input valid."""
    import voicedet.corpus as corpus_io

    out = str(tmp_path / "out")
    corpus = tmp_path / "corpus"
    (corpus / "mic").mkdir(parents=True)
    wav = tmp_path / "x.wav"
    write_wav(wav, Waveform(np.zeros(800), 8000))
    manifest = tmp_path / "manifest.tsv"
    corpus_io.write_manifest(manifest, corpus_io.Manifest(()))
    return {
        ("train", "--config"): ["train", "--synthetic-demo", "--demo-utterances", "6", "--config", bad],
        ("train", "--folds"): ["train", "--corpus", f"{corpus}:FDA", "--folds", bad],
        ("eval", "--folds"): ["eval", "--corpus", f"{corpus}:FDA", "--folds", bad, "--methods", "rapt"],
        ("labels-extract", "--manifest"): ["labels-extract", "--manifest", bad],
        ("labels-extract", "--exclusions"): ["labels-extract", "--manifest", str(manifest), "--exclusions", bad],
        ("detect", "--checkpoint"): ["detect", "--method", "dccrn", "--checkpoint", bad, str(wav)],
        ("detect", "--config"): ["detect", "--method", "rapt", "--config", bad, str(wav)],
    }[command, flag] + ["--out", out]


@pytest.mark.parametrize("command, flag, kind", [
    *[("train", "--config", k) for k in ("missing", "not_utf8", "not_json")],
    *[(c, "--folds", k) for c in ("train", "eval")
      for k in ("missing", "not_utf8", "not_json", "no_folds", "no_ids")],
    *[("labels-extract", "--manifest", k) for k in ("missing", "not_utf8", "malformed_line")],
    ("labels-extract", "--exclusions", "missing"),
    ("labels-extract", "--exclusions", "not_utf8"),
    ("detect", "--checkpoint", "missing"),
    ("detect", "--config", "missing"),
    ("detect", "--config", "not_json"),
])
def test_bad_input_file_is_usage_error_naming_it(tmp_path, capsys, command, flag, kind):
    bad = tmp_path / "input-file"
    if BAD_INPUTS[kind] is not None:
        bad.write_bytes(BAD_INPUTS[kind])
    assert main(bad_input_argv(tmp_path, command, flag, str(bad))) == 1
    err = capsys.readouterr().err
    assert (f"{bad}:2: " if kind == "malformed_line" else str(bad)) in err
    assert "Traceback" not in err
