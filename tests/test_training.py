"""Tests for the metric, optimizer, schedule, training loop, and evaluation."""

import numpy as np
import pytest

import voicedet.training as training
from voicedet.corpus import FoldPlan
from voicedet.dsp import InvalidArgument, Waveform
from voicedet.labels import mismatch_rate
from voicedet.nn.model import DccrnModel, ModelConfig
from voicedet.synth import synth_utterance
from voicedet.tracker import VoicingLabels
from voicedet.training import (
    AdamState,
    Example,
    PlateauSchedule,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    adam_step,
    clip_gradients,
    evaluate_cross_corpus,
    features_for_wave,
    make_example,
    pretrain_then_finetune,
    recording,
    train,
    vde,
)


def labels_of(bits):
    return VoicingLabels(np.array([int(b) for b in bits], dtype=np.int8))


class TestVde:
    def test_identity(self):
        a = labels_of("10101")
        assert vde(a, a) == 0.0

    def test_three_of_hundred(self):
        ref = VoicingLabels(np.ones(100, dtype=np.int8))
        est_arr = np.ones(100, dtype=np.int8)
        est_arr[[10, 50, 90]] = 0
        assert vde(VoicingLabels(est_arr), ref) == pytest.approx(3.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            a = VoicingLabels(rng.integers(0, 2, n).astype(np.int8))
            b = VoicingLabels(rng.integers(0, 2, n).astype(np.int8))
            wrong = sum(1 for x, y in zip(a.labels, b.labels) if x != y)
            assert vde(a, b) == 100.0 * wrong / n

    def test_agrees_with_mismatch_rate(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 100))
            a = VoicingLabels(rng.integers(0, 2, n).astype(np.int8))
            b = VoicingLabels(rng.integers(0, 2, n).astype(np.int8))
            assert vde(a, b) == mismatch_rate(a, b).mismatch_rate

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            vde(labels_of("101"), labels_of("1010"))


class TestClipGradients:
    def grads_of_norm(self, norm):
        g = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
        scale = norm / 5.0
        return {k: v * scale for k, v in g.items()}

    def test_clips_to_exact_norm(self):
        grads = self.grads_of_norm(10.0)
        pre = clip_gradients(grads)
        assert pre == pytest.approx(10.0)
        total = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert total == pytest.approx(5.0, abs=1e-9)

    def test_small_norm_unchanged(self):
        grads = self.grads_of_norm(3.0)
        ref = {k: v.copy() for k, v in grads.items()}
        clip_gradients(grads)
        for k in grads:
            assert np.array_equal(grads[k], ref[k])

    def test_direction_preserved(self):
        grads = self.grads_of_norm(20.0)
        ref = {k: v.copy() for k, v in grads.items()}
        clip_gradients(grads)
        for k in grads:
            cos = np.sum(grads[k] * ref[k]) / (
                np.linalg.norm(grads[k]) * np.linalg.norm(ref[k]) + 1e-30
            )
            assert cos == pytest.approx(1.0)

    def test_post_clip_norm_bounded_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            grads = {
                "a": rng.standard_normal((3, 4)) * rng.uniform(0.1, 10),
                "b": rng.standard_normal(7) * rng.uniform(0.1, 10),
            }
            clip_gradients(grads)
            total = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
            assert total <= 5.0 + 1e-9


class TestAdam:
    def test_zero_gradient_no_update(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        g = {"w": np.array([0.37])}
        adam_step(params, g, state, lr=5e-4)
        # bias-corrected first step moves by ~lr against the gradient sign
        assert params["w"][0] == pytest.approx(-5e-4, rel=1e-6)

    def test_quadratic_bowl_decreases(self):
        params = {"x": np.array([3.0])}
        state = AdamState.for_params(params)
        values = [0.5 * params["x"][0] ** 2]
        for _ in range(10):
            adam_step(params, {"x": params["x"].copy()}, state, lr=0.05)
            values.append(0.5 * params["x"][0] ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nan_gradient_rejected(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(TrainingDiverged, match="w"):
            adam_step(params, {"w": np.array([np.nan])}, state, lr=0.1)


class TestPlateauSchedule:
    def lrs_after(self, losses):
        sched = PlateauSchedule(1e-3)
        lrs = []
        for loss in losses:
            sched.update(loss)
            lrs.append(sched.lr)
        return lrs

    def test_halves_after_five_flat_epochs(self):
        assert self.lrs_after([1.0] * 6) == [1e-3] * 5 + [5e-4]

    def test_improvement_resets_counter(self):
        # four flat epochs, an improvement, then five flat: without the reset
        # the first 0.85 would be the fifth non-improving epoch and halve
        losses = (1.0, 0.9, 0.95, 0.95, 0.95, 0.95, 0.8, 0.85, 0.85, 0.85, 0.85, 0.85)
        assert self.lrs_after(losses) == [1e-3] * 11 + [5e-4]

    def test_tiny_improvement_below_min_delta_counts_as_flat(self):
        # each epoch is a new best, but by less than MIN_DELTA = 1e-4
        losses = [1.0] + [1.0 - k * 1e-5 for k in range(5, 10)]
        assert self.lrs_after(losses) == [1e-3] * 5 + [5e-4]


def toy_config(**kw):
    base = dict(
        block_out_channels=(4,),
        blstm_hidden=16,
        groups=2,
        blstm_layers=2,
        input_freq_bins=8,
        dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def toy_dataset(n_utts, t_len, rng, corpus="synthetic"):
    """Learnable task: frame voiced iff the first input feature is positive."""
    data = {}
    for i in range(n_utts):
        x = rng.standard_normal((t_len, 8, 2))
        y = (x[:, 0, 0] > 0).astype(np.float64)
        data[f"{corpus}/u{i:03d}"] = Example(f"{corpus}/u{i:03d}", x, y)
    return data


def toy_fold(data, n_val=2, corpus="synthetic"):
    ids = sorted(data)
    return FoldPlan(
        held_out_corpus="FDA",
        train_ids=tuple(ids[n_val:]),
        val_ids=tuple(ids[:n_val]),
        test_ids=(),
    )


class TestTrainLoop:
    def test_loss_improves_on_learnable_task(self):
        rng = np.random.default_rng(3)
        data = toy_dataset(10, 30, rng)
        fold = toy_fold(data)
        cfg = TrainConfig(lr_init=3e-3, max_epochs=10, batch_size=5, seed=1)
        result = train(toy_config(), None, fold, data, cfg)
        assert len(result.history) == 10
        first = result.history.records[0].val_loss
        assert min(r.val_loss for r in result.history.records) < first
        assert result.best_epoch >= 1

    def test_seeded_determinism(self):
        rng = np.random.default_rng(4)
        data = toy_dataset(6, 20, rng)
        fold = toy_fold(data)
        cfg = TrainConfig(lr_init=1e-3, max_epochs=3, batch_size=2, seed=7)
        a = train(toy_config(), None, fold, data, cfg)
        b = train(toy_config(), None, fold, data, cfg)
        assert a.history.deterministic_fields() == b.history.deterministic_fields()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_single_utterance_overfit(self):
        # tiny-config optimization smoke test
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 8, 2))
        y = rng.integers(0, 2, 40).astype(np.float64)
        data = {
            "synthetic/solo": Example("synthetic/solo", x, y),
            "synthetic/solo2": Example("synthetic/solo2", x, y),
        }
        fold = FoldPlan("FDA", ("synthetic/solo",), ("synthetic/solo2",), ())
        cfg = TrainConfig(lr_init=3e-3, max_epochs=500, batch_size=1, seed=0)
        result = train(toy_config(block_out_channels=(2, 4), blstm_hidden=32), None, fold, data, cfg)
        assert min(r.train_loss for r in result.history.records) < 0.05

    def test_empty_train_set_rejected(self):
        data = toy_dataset(2, 10, np.random.default_rng(6))
        fold = FoldPlan("FDA", (), tuple(sorted(data)), ())
        with pytest.raises(InvalidArgument):
            train(toy_config(), None, fold, data, TrainConfig())

    def test_lr_sequence_non_increasing_and_halving_only(self):
        rng = np.random.default_rng(7)
        data = toy_dataset(6, 16, rng)
        fold = toy_fold(data)
        cfg = TrainConfig(lr_init=1e-3, max_epochs=14, batch_size=3, seed=2)
        result = train(toy_config(), None, fold, data, cfg)
        lrs = [r.lr for r in result.history.records]
        for a, b in zip(lrs, lrs[1:]):
            assert b <= a
            assert b == a or b == pytest.approx(a * 0.5)
        assert lrs[-1] < lrs[0]  # at least one halving within 14 epochs at patience 5


class TestPretrainFinetune:
    def test_empty_pretraining_data_identical_to_train(self):
        rng = np.random.default_rng(8)
        data = toy_dataset(6, 16, rng)
        fold = toy_fold(data)
        cfg = TrainConfig(lr_init=1e-3, max_epochs=3, batch_size=2, seed=3)
        plain = train(toy_config(), None, fold, data, cfg)
        combo_zero, pre_hist_zero = pretrain_then_finetune(
            toy_config(), {}, fold, data, cfg
        )
        assert pre_hist_zero is None
        assert plain.history.deterministic_fields() == combo_zero.history.deterministic_fields()
        for k in plain.params:
            assert np.array_equal(plain.params[k], combo_zero.params[k])

    def test_pretraining_transfers(self):
        # pretrain on the same kind of task: finetune must start better than
        # a random-init model's first validation loss
        rng = np.random.default_rng(10)
        data = toy_dataset(8, 20, rng)
        pre_data = toy_dataset(12, 20, np.random.default_rng(11), corpus="LibriSpeech")
        fold = toy_fold(data)
        cfg = TrainConfig(lr_init=3e-3, max_epochs=4, batch_size=4, seed=5)
        plain = train(toy_config(), None, fold, data, cfg)
        combo, pre_hist = pretrain_then_finetune(
            toy_config(), pre_data, fold, data, cfg,
            pretrain_cfg=TrainConfig(lr_init=3e-3, max_epochs=8, batch_size=4, seed=5),
        )
        assert pre_hist is not None
        assert combo.history.records[0].val_loss < plain.history.records[0].val_loss


class TestHistory:
    def test_csv_holds_the_deterministic_fields(self):
        """Four columns, floats at full precision, wall times left out: the
        file reads back to the deterministic fields."""
        hist = TrainHistory(
            (
                training.EpochRecord(1, 0.7, 0.65, 5e-4, 1.25),
                training.EpochRecord(2, 0.1 + 0.2, 0.66, 5e-4, 1.3),
                training.EpochRecord(3, 0.5, 0.64, 2.5e-4, 1.1),
            )
        )
        lines = hist.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert lines[2] == "2,0.30000000000000004,0.66,0.0005"
        back = [(int(e), float(a), float(b), float(c))
                for e, a, b, c in (ln.split(",") for ln in lines[1:])]
        assert back == hist.deterministic_fields()

    def test_lr_increase_rejected(self):
        with pytest.raises(InvalidArgument):
            TrainHistory(
                (
                    training.EpochRecord(1, 0.7, 0.65, 1e-4, 1.0),
                    training.EpochRecord(2, 0.6, 0.66, 2e-4, 1.0),
                )
            )


class TestEvaluateCrossCorpus:
    def eval_data(self, rng, n=4, t_len=30, corpus="FDA"):
        """Recordings: a random 8 kHz wave and random labels of its length."""
        return {f"{corpus}/u{i}": (Waveform(rng.standard_normal(80 * t_len), 8000),
                                   VoicingLabels(rng.integers(0, 2, t_len).astype(np.int8)))
                for i in range(n)}

    def fold_for(self, data, corpus="FDA"):
        return FoldPlan(corpus, ("KEELE/x",), ("KEELE/y",), tuple(sorted(data)))

    @staticmethod
    def detect_from_labels(data, decide):
        """A `detect_wave` stand-in: `decide` of the labels of the recording
        whose wave it is handed."""
        def detect(wave, method, model=None, tracker_cfg=None):
            (y,) = [ref.labels for w, ref in data.values() if w is wave]
            return VoicingLabels(decide(y)), None
        return detect

    def test_reference_method_is_exact(self):
        rng = np.random.default_rng(12)
        data = self.eval_data(rng)
        report, _ = evaluate_cross_corpus([self.fold_for(data)], ["reference"], data)
        assert len(report.rows) == 1
        assert report.rows[0].vde_percent == 0.0
        assert report.rows[0].vde_unaligned_percent == 0.0
        assert report.rows[0].shift_used == 0

    def test_hand_computed_pooling(self, monkeypatch):
        rng = np.random.default_rng(13)
        data = self.eval_data(rng, n=2, t_len=20)

        def corrupt(y):
            est = y.astype(np.int8)
            est[:3] ^= 1  # corrupt exactly 3 frames per utterance
            return est

        monkeypatch.setattr(training, "detect_wave", self.detect_from_labels(data, corrupt))
        report, _ = evaluate_cross_corpus([self.fold_for(data)], ["rapt"], data)
        row = report.rows[0]
        assert row.n_frames == 40
        assert row.vde_unaligned_percent == pytest.approx(100.0 * 6 / 40)
        assert row.method == "rapt"

    def test_alignment_recovers_shifted_decisions(self, monkeypatch):
        rng = np.random.default_rng(14)
        data = self.eval_data(rng, n=3, t_len=40)

        def delay(y):
            return np.concatenate([[0, 0], y[:-2]]).astype(np.int8)

        monkeypatch.setattr(training, "detect_wave", self.detect_from_labels(data, delay))
        report, decisions = evaluate_cross_corpus([self.fold_for(data)], ["rapt"], data)
        row = report.rows[0]
        assert row.vde_percent == 0.0  # alignment absorbs the 2-frame delay
        assert row.vde_unaligned_percent > 0.0
        assert row.shift_used == -2
        assert len(decisions) == 3

    def test_missing_checkpoint_skips_row(self, caplog):
        rng = np.random.default_rng(15)
        data = self.eval_data(rng)
        with caplog.at_level("WARNING"):
            report, _ = evaluate_cross_corpus([self.fold_for(data)], ["dccrn"], data)
        assert len(report.rows) == 0
        assert "no checkpoint" in caplog.text

    def test_dccrn_method_produces_row(self):
        cfg = ModelConfig(block_out_channels=(2, 4), blstm_hidden=8, groups=2, dtype="float32")
        data = {}
        for i in range(3):
            mic, _, truth = synth_utterance(16, i, duration_sec=0.5)
            data[f"FDA/u{i}"] = recording(f"FDA/u{i}", mic, truth)
        model = DccrnModel(cfg, seed=0)
        report, _ = evaluate_cross_corpus(
            [self.fold_for(data)], ["dccrn"], data, models={"FDA": model}
        )
        assert len(report.rows) == 1
        assert report.rows[0].n_frames == 150
        assert 0.0 <= report.rows[0].vde_percent <= 100.0

    def test_frames_masked_invalid_are_not_counted(self, monkeypatch):
        """Frames a reference masks invalid (an uncertain class) count
        neither as errors nor as frames, for decoded methods and for
        "reference" alike."""
        valid = np.ones(20, dtype=bool)
        valid[5:9] = False
        data = {u: (wave, VoicingLabels(ref.labels, valid=valid))
                for u, (wave, ref) in self.eval_data(np.random.default_rng(16), n=2, t_len=20).items()}

        def wrong_where_invalid(y):
            est = y.astype(np.int8)
            est[5:9] ^= 1
            return est

        monkeypatch.setattr(training, "detect_wave", self.detect_from_labels(data, wrong_where_invalid))
        report, _ = evaluate_cross_corpus([self.fold_for(data)], ["rapt", "reference"], data)
        assert [r.method for r in report.rows] == ["rapt", "reference"]
        for row in report.rows:
            assert row.n_frames == 32
            assert row.vde_percent == row.vde_unaligned_percent == 0.0

    def test_csv_header_format(self):
        rng = np.random.default_rng(17)
        data = self.eval_data(rng)
        report, _ = evaluate_cross_corpus([self.fold_for(data)], ["reference"], data)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "train_set,test_set,method,vde_percent,n_frames,shift"
        assert "KEELE" in csv_text.splitlines()[1]
        text = report.to_text()
        assert "VDE%" in text


class TestFeaturePrep:
    def test_features_shape_and_rate_handling(self):
        rng = np.random.default_rng(18)
        w16 = Waveform(rng.standard_normal(16000), 16000)
        x = features_for_wave(w16)
        assert x.shape == (100, 513, 2)

    def test_recording_label_slack(self):
        """Labels up to two frames off the recording's 100 frames are cut to
        the shorter length, with their f0 and valid mask; more is refused."""
        w = Waveform(np.random.default_rng(19).standard_normal(8000), 8000)
        for n in (98, 99, 100, 101, 102):
            voiced = np.arange(n) % 3 == 0
            labels = VoicingLabels(voiced.astype(np.int8), f0=np.where(voiced, 120.0, 0.0),
                                   valid=np.arange(n) % 5 != 0)
            wave, cut = recording("u", w, labels)
            assert wave is w and len(cut) == min(n, 100)
            assert np.array_equal(cut.labels, labels.labels[:100])
            assert np.array_equal(cut.f0, labels.f0[:100]) and np.array_equal(cut.valid, labels.valid[:100])
            ex = make_example("u", wave, cut, ModelConfig())
            assert ex.x.shape[0] == ex.y.size == min(n, 100)
        for n in (90, 97, 103):
            with pytest.raises(InvalidArgument, match="u: 100 frames"):
                recording("u", w, VoicingLabels(np.zeros(n, dtype=np.int8)))

    def test_recording_is_the_8khz_wave(self):
        """A 16 kHz recording is resampled once: the recording holds the
        8 kHz wave, and its example's features are those of the native
        recording."""
        w16 = Waveform(np.random.default_rng(20).standard_normal(16000), 16000)
        wave, labels = recording("u", w16, VoicingLabels(np.zeros(100, dtype=np.int8)))
        assert wave.sample_rate == 8000 and len(wave) == 8000
        ex = make_example("u", wave, labels, ModelConfig(dtype="float64"))
        assert np.array_equal(ex.x, features_for_wave(w16))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_make_example_stores_the_model_dtype(self, dtype):
        w = Waveform(np.random.default_rng(21).standard_normal(8000), 8000)
        ex = make_example("u", w, VoicingLabels(np.zeros(100, dtype=np.int8)),
                          ModelConfig(dtype=dtype))
        assert ex.x.dtype == np.dtype(dtype)
        assert np.array_equal(ex.x, features_for_wave(w).astype(dtype))
