"""End-to-end tests for the command-line interface."""

import argparse
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_bits_equal, cut_points, member_span
from hypothesis import given, settings, strategies as st
from test_train_canary import perfbench_module

from voicedet.cli import DEMO_MODEL, DEMO_TRAIN, load_run_config, main
from voicedet.dsp import Waveform, write_wav
from voicedet.labels import SpeakerMeta, align_for_lowest_vde, read_labels, write_labels
from voicedet.nn.model import ModelConfig
from voicedet.tracker import VoicingLabels
from voicedet.training import TrainConfig
from scipy.io import wavfile
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

    @pytest.mark.parametrize("flag, value", [
        ("--duration", "-1"), ("--duration", "nan"), ("--duration", "0"), ("--duration", "1e-5"),
        ("--seed", "-1"), ("--n", "0"), ("--n", "-3"),
    ])
    def test_bad_argument_is_usage_error_naming_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        assert main(["synth-corpus", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err and "Traceback" not in err
        assert not out.exists()


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
        assert sorted(p.name for p in out1.iterdir() if not p.name.endswith(".lab")) == ["summary.tsv"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_records_sharing_a_utt_id_are_usage_error(self, tmp_path, capsys, jobs):
        """KEELE/u1 and FDA/u1 would both write u1.lab: refused, naming both
        full ids, before anything is written."""
        import voicedet.corpus as corpus_io

        records = []
        for corpus in ("KEELE", "FDA"):
            laryn = tmp_path / corpus / "u1.wav"
            laryn.parent.mkdir()
            write_wav(laryn, Waveform(np.zeros(8000), 8000))
            records.append(corpus_io.UtteranceRecord("u1", corpus, str(laryn), str(laryn),
                                                     SpeakerMeta("spk", "male")))
        corpus_io.write_manifest(tmp_path / "m.tsv", corpus_io.Manifest(tuple(records)))
        out = tmp_path / "out"
        assert main(["labels-extract", "--manifest", str(tmp_path / "m.tsv"), "--out", str(out),
                     "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert "KEELE/u1" in err and "FDA/u1" in err and "u1.lab" in err
        assert not out.exists()

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

    def test_correction_rows_replace_the_tracker_labels(self, tmp_path):
        import voicedet.corpus as corpus_io

        root = tmp_path / "corpus"
        assert main(["synth-corpus", "--out", str(root), "--n", "3", "--seed", "5",
                     "--duration", "1.0"]) == 0
        fixed = tmp_path / "fixed.lab"
        write_labels(fixed, VoicingLabels(np.ones(100, dtype=np.int8)))
        (root / "laryn" / "utt0000.wav").unlink()  # a corrected record is not tracked
        corpus_io.write_exclusions(tmp_path / "x.tsv", corpus_io.ExclusionList(
            entries=(("synthetic", "utt0001", "other"),),
            corrections=(("synthetic", "utt0000", str(fixed)), ("synthetic", "utt0001", str(fixed))),
        ))
        out = tmp_path / "out"
        assert main(["labels-extract", "--manifest", str(root / "manifest.tsv"),
                     "--exclusions", str(tmp_path / "x.tsv"), "--out", str(out)]) == 0
        assert (out / "utt0000.lab").read_bytes() == fixed.read_bytes()
        assert not (out / "utt0001.lab").exists()  # excluded stays excluded
        assert (out / "utt0002.lab").exists()
        assert "#records=2 written=2 skipped=0" in (out / "summary.tsv").read_text()


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

    @pytest.mark.parametrize("n_a, n_b, message", [
        (2, 6, "length difference 4 > 2 frames; align first"),
        (0, 0, "no valid frames to compare"),
    ])
    def test_comparison_error_names_both_files(self, tmp_path, capsys, n_a, n_b, message):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for d, n in ((dir_a, n_a), (dir_b, n_b)):
            d.mkdir()
            (d / "u.lab").write_text("#hop_ms=10\n" + "".join(f"{i}\t0\t0.000\n" for i in range(n)))
        assert main(["labels-compare", "--a", str(dir_a), "--b", str(dir_b)]) == 1
        assert f"error: {dir_a / 'u.lab'} vs {dir_b / 'u.lab'}: {message}" in capsys.readouterr().err


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

    def test_checkpoint_loads_without_drawing_weights(self, tmp_path, monkeypatch):
        from voicedet.cli import _load_model
        from voicedet.nn.model import DccrnModel

        ckpt = tiny_checkpoint(tmp_path / "m.ckpt")

        def no_draws(*args, **kwargs):
            raise AssertionError("a random generator was created")

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", no_draws)
            model = _load_model(ckpt)
        seeded = DccrnModel(model.cfg, seed=0)  # the weights tiny_checkpoint saved
        for name, want in {**seeded.params(), **seeded.buffers()}.items():
            assert_bits_equal({**model.params(), **model.buffers()}[name], want, name)
        x = np.random.default_rng(1).standard_normal((1, 6, 513, 2)).astype(np.float32)
        assert_bits_equal(model.forward_batch(x)[0], seeded.forward_batch(x)[0], "posteriors")

    def test_missing_input_file_names_path(self, tmp_path, capsys):
        code = main(["detect", "--method", "rapt", "--out", str(tmp_path), "/nope/missing.wav"])
        assert code == 1
        assert "missing.wav" in capsys.readouterr().err

    def test_inputs_sharing_a_stem_are_usage_error(self, tmp_path, capsys):
        """Two inputs named x.wav would write one x.lab: refused, naming
        both, before anything is written."""
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            write_wav(tmp_path / d / "x.wav", Waveform(np.zeros(800), 8000))
        first, second = str(tmp_path / "a" / "x.wav"), str(tmp_path / "b" / "x.wav")
        out = tmp_path / "out"
        for wavs in ([first, second], [first, first]):
            assert main(["detect", "--method", "rapt", "--out", str(out), *wavs]) == 1
            err = capsys.readouterr().err
            assert f"{wavs[0]} and {wavs[1]}" in err and "x.lab" in err
            assert not out.exists()

    def test_dccrn_without_checkpoint_is_usage_error(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        assert main(["detect", "--method", "dccrn", "--out", str(tmp_path), str(wav)]) == 1

    @pytest.mark.parametrize("where", ["local_header", "config", "array", "one_short"])
    def test_truncated_checkpoint_is_usage_error(self, tmp_path, capsys, where):
        ckpt = tiny_checkpoint(tmp_path / "m.ckpt")
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: cut_points(data)[where]])
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        code = main(["detect", "--method", "dccrn", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out"), str(wav)])
        assert code == 1
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["params_only", "config_disagrees", "dtype_disagrees",
                                      "array_byte_flipped"])
    def test_checkpoint_not_matching_its_model_is_usage_error(self, tmp_path, capsys, kind):
        from voicedet.nn.checkpoint import save_checkpoint
        from voicedet.nn.model import DccrnModel, ModelConfig

        ckpt = tmp_path / "m.ckpt"
        cfg = ModelConfig(block_out_channels=(2, 4), blstm_hidden=8, groups=2, dtype="float32")
        model = DccrnModel(cfg, seed=0)
        params, buffers = model.params(), model.buffers()
        if kind == "params_only":
            save_checkpoint(ckpt, cfg, params, {})
        elif kind == "config_disagrees":
            save_checkpoint(ckpt, ModelConfig(block_out_channels=(2, 4), blstm_hidden=16, groups=2,
                                              dtype="float32"), params, buffers)
        elif kind == "dtype_disagrees":  # float64 arrays would be rounded into the float32 model
            as64 = {n: a.astype(np.float64) for n, a in params.items()}
            save_checkpoint(ckpt, cfg, as64, buffers)
        else:
            save_checkpoint(ckpt, cfg, params, buffers)
            data = ckpt.read_bytes()
            at = sum(member_span(data, "param/head.w.npy")) // 2
            ckpt.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        code = main(["detect", "--method", "dccrn", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out"), str(wav)])
        err = capsys.readouterr().err
        assert code == 1
        assert str(ckpt) in err and "Traceback" not in err


def malformed_wav(kind, path):
    """Write a WAV file cut to a 30-byte header, replaced by non-RIFF bytes,
    cut in half (scipy reads the first half and only warns), holding no
    samples or a float NaN; or make a directory of its name."""
    if kind == "directory":
        path.mkdir()
        return
    if kind == "non-finite":
        samples = np.zeros(16000, dtype=np.float32)
        samples[100] = np.nan
        wavfile.write(path, 16000, samples)
        return
    write_wav(path, Waveform(np.zeros(0 if kind == "empty" else 16000), 16000))
    data = path.read_bytes()
    path.write_bytes({"header": data[:30], "not_riff": b"not a wav file" * 8,
                      "half": data[: len(data) // 2], "empty": data}[kind])


@pytest.mark.parametrize("kind", ["header", "not_riff", "half", "empty", "directory", "non-finite"])
@pytest.mark.parametrize("command", ["detect", "labels-extract", "labels-extract --jobs 2"])
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
        argv = ["labels-extract", "--manifest", str(root / "manifest.tsv"), "--out", out, *command.split()[1:]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err and "Traceback" not in err


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
        assert set(config) == {"model", "train"}
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

    @pytest.mark.parametrize("rate", [8000, 16000])
    @pytest.mark.parametrize("short_labels", [False, True])
    def test_eval_decides_every_frame_as_detect(self, tmp_path, rate, short_labels):
        """`eval --strips` and `detect` run one route: the estimate of every
        strip frame equals the frame's decision in `detect`'s label file, for
        the tracker and the model, at any corpus rate, and also when the
        provided labels stop two frames early (the slack `eval` accepts)."""
        import voicedet.corpus as corpus_io
        from voicedet.synth import generate_synthetic_corpus

        root = tmp_path / "corpus"
        records = generate_synthetic_corpus(root, n_utterances=3, seed=4242, sample_rate=rate).records
        if short_labels:
            for rec in records:
                full = read_labels(rec.provided_label_path)
                write_labels(rec.provided_label_path, VoicingLabels(full.labels[:-2], f0=full.f0[:-2]))
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        tiny_checkpoint(ckpts / "synthetic.ckpt")
        folds = tmp_path / "folds.json"
        ids = tuple(r.full_id for r in records)
        folds.write_text(corpus_io.folds_to_json([corpus_io.FoldPlan("synthetic", ("other/x",), (), ids)]))
        strips = tmp_path / "strips.csv"
        assert main(["eval", "--corpus", f"{root}:synthetic", "--folds", str(folds),
                     "--methods", "rapt,dccrn", "--checkpoints", str(ckpts),
                     "--out", str(tmp_path / "report.csv"), "--strips", str(strips)]) == 0
        estimates = {}
        for line in strips.read_text().splitlines()[1:]:
            _, method, utt_id, frame, _, est = line.split(",")
            estimates.setdefault((method, utt_id), []).append((int(frame), int(est)))
        for method in ("rapt", "dccrn"):
            out = tmp_path / method
            argv = ["detect", "--method", method, "--out", str(out), *(r.mic_path for r in records)]
            if method == "dccrn":
                argv[3:3] = ["--checkpoint", str(ckpts / "synthetic.ckpt")]
            assert main(argv) == 0
            for rec in records:
                detected = read_labels(out / f"{rec.utt_id}.lab").labels
                frames, est = zip(*estimates[method, rec.full_id])
                assert list(frames) == list(range(len(frames)))
                assert len(frames) == len(detected) - (2 if short_labels else 0)
                assert np.array_equal(np.array(est), detected[: len(frames)]), (method, rec.utt_id)

    @staticmethod
    def eval_inputs(tmp_path, n=2):
        """A small synthetic corpus and one fold holding it all out."""
        import voicedet.corpus as corpus_io
        from voicedet.synth import generate_synthetic_corpus

        root = tmp_path / "corpus"
        records = generate_synthetic_corpus(root, n_utterances=n, seed=4343, duration_sec=1.0).records
        folds = tmp_path / "folds.json"
        ids = tuple(r.full_id for r in records)
        folds.write_text(corpus_io.folds_to_json([corpus_io.FoldPlan("synthetic", ("other/x",), (), ids)]))
        return ["eval", "--corpus", f"{root}:synthetic", "--folds", str(folds),
                "--out", str(tmp_path / "report.csv")]

    def test_eval_computes_no_features_for_rapt_and_reference(self, tmp_path, monkeypatch):
        """`eval` loads recordings, not training examples: neither the load
        nor the tracker and reference rows compute model features."""
        import voicedet.training as training

        def no_features(*args, **kwargs):
            raise AssertionError("features_for_wave called")

        monkeypatch.setattr(training, "features_for_wave", no_features)
        argv = self.eval_inputs(tmp_path) + ["--methods", "rapt,reference"]
        assert main(argv) == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert [r.split(",")[2] for r in rows[1:]] == ["rapt", "reference"]

    @pytest.mark.parametrize("checkpoints", [None, "missing-dir", "empty-dir"])
    def test_eval_strict_counts_a_dccrn_fold_without_checkpoint(self, tmp_path, capsys, checkpoints):
        argv = self.eval_inputs(tmp_path) + ["--methods", "rapt,dccrn"]
        if checkpoints is not None:
            (tmp_path / "empty-dir").mkdir()
            argv += ["--checkpoints", str(tmp_path / checkpoints)]
        assert main(argv) == 0
        assert main(argv + ["--strict"]) == 2
        assert "fold synthetic: no checkpoint for dccrn" in capsys.readouterr().err
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert [r.split(",")[2] for r in rows[1:]] == ["rapt"]

    @pytest.mark.parametrize("tag", ["x/y", ""])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_fold_tag_not_a_corpus_is_usage_error(self, tmp_path, capsys, monkeypatch, command, tag):
        """A held_out_corpus names the fold's output files, so one that is not
        a corpus tag is refused, naming the fold plan, before audio is read."""
        import voicedet.cli as cli

        def no_audio(path):
            raise AssertionError(f"read {path}")

        argv = self.eval_inputs(tmp_path)
        folds = tmp_path / "folds.json"
        plan = json.loads(folds.read_text())
        plan["folds"][0]["held_out_corpus"] = tag
        folds.write_text(json.dumps(plan))
        if command == "train":
            argv = ["train", *argv[1:5], "--out", str(tmp_path / "run")]
        monkeypatch.setattr(cli, "read_wav", no_audio)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {folds}: unknown held_out_corpus {tag!r}" in err
        assert not (tmp_path / "report.csv").exists()
        assert not list(tmp_path.glob("run/*"))
        assert not (tmp_path / "run").exists()  # train reads its inputs before it makes --out

    @pytest.mark.parametrize("methods", ["rapt,rapt", "rapt,bogus", "", "rapt,"])
    def test_eval_bad_methods_is_usage_error_before_loading(self, tmp_path, capsys, methods):
        argv = ["eval", "--corpus", f"{tmp_path / 'no-corpus'}:x", "--folds", str(tmp_path / "no-folds.json"),
                "--methods", methods, "--out", str(tmp_path / "report.csv")]
        assert main(argv) == 1
        assert "error: --methods must" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--synthetic-demo", "--demo-epochs", "0"],
        ["train", "--synthetic-demo", "--demo-epochs", "-2"],
        ["train", "--synthetic-demo", "--demo-utterances", "0"],
        ["labels-extract", "--manifest", "m.tsv", "--jobs", "0"],
        ["labels-extract", "--manifest", "m.tsv", "--jobs", "-3"],
    ])
    def test_count_flag_below_one_is_usage_error_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        flag, value = argv[-2:]
        assert f"error: {flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["labels-compare", "--a", "a", "--b", "b", "--max-shift", "-1"],
        ["eval", "--corpus", "c:X", "--folds", "f.json", "--max-shift", "-1"],
    ])
    def test_negative_max_shift_is_usage_error_naming_it(self, tmp_path, capsys, argv):
        """Raised before any file is read: eval would otherwise load every
        corpus and checkpoint and decode a record first."""
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert "error: --max-shift must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_train_seed_is_usage_error_naming_it(self, tmp_path, capsys):
        """The flag check synth-corpus --seed has; the config's seed field
        keeps its own message naming the config file."""
        out = tmp_path / "out"
        assert main(["train", "--synthetic-demo", "--seed", "-1", "--out", str(out)]) == 1
        assert "error: --seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_mic_wav_is_a_skipped_record(self, tmp_path, capsys, monkeypatch):
        """`train` and `eval` skip a record whose mic WAV holds no samples, as
        any unusable record (exit 2 only with --strict), where `detect` and
        `labels-extract` reject the file."""
        import voicedet.cli as cli
        import voicedet.corpus as corpus_io

        def with_empty_wav(*args, **kwargs):
            manifest = generate(*args, **kwargs)
            write_wav(manifest.records[0].mic_path, Waveform(np.zeros(0), 16000))
            return manifest

        generate = cli.generate_synthetic_corpus
        monkeypatch.setattr(cli, "generate_synthetic_corpus", with_empty_wav)
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--synthetic-demo", "--strict",
                     "--demo-utterances", "14", "--demo-epochs", "1", "--seed", "5"]) == 2
        assert "partial failure: 1 records skipped" in capsys.readouterr().err
        assert (out / "synthetic.ckpt").exists() and (out / "demo-eval.csv").exists()

        corpus_dir = out / "synth-corpus"
        ids = tuple(r.full_id for r in corpus_io.scan_corpus(corpus_dir, "synthetic").records)
        folds = tmp_path / "folds.json"
        folds.write_text(corpus_io.folds_to_json([corpus_io.FoldPlan("synthetic", (), (), ids[:3])]))
        argv = ["eval", "--corpus", f"{corpus_dir}:synthetic", "--folds", str(folds),
                "--methods", "reference", "--out", str(tmp_path / "report.csv")]
        assert main(argv) == 0
        assert main(argv + ["--strict"]) == 2
        assert "partial failure: 1 records skipped" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"learning_rate": 1}}))
        assert main(["train", "--out", str(tmp_path / "o"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(bad)]) == 1
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps({"optimizer": {}}))
        assert main(["train", "--out", str(tmp_path / "o2"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(worse)]) == 1
        zero_growth = tmp_path / "zero_growth.json"
        zero_growth.write_text(json.dumps({"model": {"composite_growth": 0}}))
        assert main(["train", "--out", str(tmp_path / "o3"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(zero_growth)]) == 1
        # the fixed Conv-DC geometry is no config key, even at its own value
        fixed = tmp_path / "fixed.json"
        fixed.write_text(json.dumps({"model": {"gated_stride": 2}}))
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path / "o4"), "--synthetic-demo",
                     "--demo-utterances", "6", "--config", str(fixed)]) == 1
        assert "unknown model config keys: ['gated_stride']" in capsys.readouterr().err
        # nor is the fixed training recipe
        for key, value in (("plateau_patience", 5), ("lr_factor", 0.5), ("min_delta", 1e-4),
                           ("clip_max_norm", 5.0), ("adam_beta1", 0.9), ("adam_beta2", 0.999),
                           ("adam_eps", 1e-8)):
            fixed.write_text(json.dumps({"train": {key: value}}))
            assert main(["train", "--out", str(tmp_path / "o5"), "--synthetic-demo",
                         "--demo-utterances", "6", "--config", str(fixed)]) == 1
            assert f"unknown train config keys: ['{key}']" in capsys.readouterr().err
            assert not (tmp_path / "o5").exists()

    @pytest.mark.parametrize("source", ["perfbench", "demo"])
    def test_benchmark_and_demo_configs_load(self, tmp_path, source):
        """The reduced model the train benchmark and the synthetic demo run is
        a valid run config, so a config field they set cannot be removed
        without this test failing."""
        if source == "perfbench":
            workloads = perfbench_module("workloads")
            model, train_cfg = workloads.TRAIN_MODEL, workloads.TRAIN_CFG
        else:
            model, train_cfg = DEMO_MODEL, DEMO_TRAIN
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": model, "train": train_cfg}))
        got_model, got_train = load_run_config(str(path))
        assert got_model == ModelConfig(**model)
        assert got_train == TrainConfig(**train_cfg)

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("seed", -1), ("lr_init", float("nan")), ("lr_init", float("inf")),
        ("lr_init", 0.0), ("batch_size", 2.5), ("batch_size", True), ("batch_size", 0),
    ])
    def test_bad_train_field_is_usage_error(self, tmp_path, capsys, field, value):
        """Each would otherwise train: epochs 0 ends in a NaN validation
        loss, seed -1 fails in numpy, and the NaN, infinite, zero,
        fractional and boolean values ran as given."""
        self.assert_config_rejected(tmp_path, capsys, "train", field, value)

    @pytest.mark.parametrize("field, value", [
        ("threshold", float("nan")), ("threshold", 1.0), ("threshold", 0.0), ("composite_growth", 0),
        ("composite_layers", -1), ("groups", 2.5), ("blstm_layers", True),
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

    def test_seed_only_on_train_and_strict_not_on_detect(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        out = str(tmp_path / "out")
        for flags in (["--seed", "5"], ["--strict"]):
            assert main(["detect", "--method", "rapt", *flags, "--out", out, str(wav)]) == 1
        assert main(["eval", "--corpus", f"{tmp_path}:x", "--folds", "f.json",
                     "--seed", "5", "--out", out]) == 1
        assert main(["labels-extract", "--manifest", "m.tsv", "--seed", "5", "--out", out]) == 1
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_config_only_on_train(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(800), 8000))
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = str(tmp_path / "out")
        assert main(["detect", "--method", "rapt", "--config", str(cfg), "--out", out, str(wav)]) == 1
        assert main(["labels-extract", "--manifest", "m.tsv", "--config", str(cfg), "--out", out]) == 1
        assert main(["eval", "--corpus", f"{tmp_path}:x", "--folds", "f.json",
                     "--config", str(cfg), "--out", out]) == 1
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

        monkeypatch.setattr(cli, "generate_synthetic_corpus", boom)
        assert main(["synth-corpus", "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("workload", ["labels", "train", "detect"])
    def test_benchmark_command_lines_parse(self, tmp_path, workload):
        """Every command line the benchmark runs parses, so renaming a flag
        it passes fails here rather than in a benchmark run."""
        import voicedet.cli as cli

        workloads = perfbench_module("workloads")
        inputs = tmp_path / "inputs"
        for rel in ("chunks/00.tsv", "chunks/01.tsv", "test/mic/t.wav", "wavs/a.wav", "wavs/b.wav"):
            (inputs / rel).parent.mkdir(parents=True, exist_ok=True)
            (inputs / rel).touch()
        argvs = workloads.COMMANDS[workload](inputs, tmp_path / "out")
        assert argvs
        for argv in argvs:
            args = cli.build_parser().parse_args(argv)
            assert args.command == argv[0]


def readme_usage_flags() -> dict[str, set[str]]:
    """The flags of each command in the README's CLI usage block; the lines
    of one command, both `train` forms included, make one flag set."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    flags = {}
    for line in block.strip().splitlines():
        if line.startswith("voicedet "):
            command = line.split()[1]
        flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_usage_lists_the_parser_flags():
    import voicedet.cli as cli

    (commands,) = [a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
              for name, p in commands.items()}
    assert readme_usage_flags() == parsed


BAD_INPUTS = {
    "missing": None,
    "not_utf8": b"\xff\xfe{\x00",
    "not_json": b"{not json",
    "no_folds": b'{"version": 1}',
    "no_ids": b'{"version": 1, "folds": [{"held_out_corpus": "FDA"}]}',
    "malformed_line": b"#v1 voicedet-manifest\nFDA\tu0\t/a.wav\n",
    "tracker_section": b'{"tracker": {}}',
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
    }[command, flag] + ["--out", out]


@pytest.mark.parametrize("command, flag, kind", [
    *[("train", "--config", k) for k in ("missing", "not_utf8", "not_json", "tracker_section")],
    *[(c, "--folds", k) for c in ("train", "eval")
      for k in ("missing", "not_utf8", "not_json", "no_folds", "no_ids")],
    *[("labels-extract", "--manifest", k) for k in ("missing", "not_utf8", "malformed_line")],
    ("labels-extract", "--exclusions", "missing"),
    ("labels-extract", "--exclusions", "not_utf8"),
    ("detect", "--checkpoint", "missing"),
])
def test_bad_input_file_is_usage_error_naming_it(tmp_path, capsys, command, flag, kind):
    bad = tmp_path / "input-file"
    if BAD_INPUTS[kind] is not None:
        bad.write_bytes(BAD_INPUTS[kind])
    assert main(bad_input_argv(tmp_path, command, flag, str(bad))) == 1
    err = capsys.readouterr().err
    assert (f"{bad}:2: " if kind == "malformed_line" else str(bad)) in err
    assert "Traceback" not in err
