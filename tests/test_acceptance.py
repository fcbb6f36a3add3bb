"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion report
lines interleaved; without -s they appear for failing criteria only.
"""

import itertools
import time

import numpy as np
import pytest

from voicedet.corpus import (
    FoldPlan,
    folds_from_json,
    folds_to_json,
    make_locro_folds,
    manifest_from_text,
    manifest_to_text,
)
from voicedet.dsp import design_kaiser_highpass
from voicedet.labels import (
    SpeakerMeta,
    extract_reference_labels,
    mismatch_rate,
    read_labels,
    write_labels,
)
from voicedet.nn.checkpoint import load_checkpoint, save_checkpoint
from voicedet.nn.model import DccrnModel, ModelConfig, bce_loss, count_params
from voicedet.nn.recurrent import GroupedBlstmLayer
from voicedet.synth import boundary_exclusion_mask, generate_synthetic_corpus, synth_utterance
from voicedet.tracker import PitchCandidate, VoicingLabels, path_cost, viterbi_path
from voicedet.training import (
    Example,
    PlateauSchedule,
    TrainConfig,
    clip_gradients,
    detect_wave,
    make_example,
    pretrain_then_finetune,
    recording,
    train,
    vde,
    vde_counts,
)

SEED = 1234


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def _staged_losses(model, x, y):
    """Loss closures that recompute only from a parameter's own stage on,
    caching all activations upstream of it (exact for a feedforward net)."""
    block_in = [x.astype(np.float64)]
    for block in model.blocks:
        out, _ = block.forward(block_in[-1], True)
        block_in.append(out)
    conv_out = block_in[-1]
    b, t, f, c = conv_out.shape
    flat = conv_out.transpose(0, 1, 3, 2).reshape(b, t, c * f)
    rec = model.recurrent
    rec_in = [flat]
    for i, layer in enumerate(rec.layers):
        out, _ = layer.forward(rec_in[-1])
        rec_in.append(out[..., rec.perm] if i + 1 < len(rec.layers) else out)

    def head_loss(z):
        from voicedet.nn import ops
        from voicedet.nn.model import POSTERIOR_EPS

        logits, _ = ops.linear_forward(z, model.head_w, model.head_b)
        probs = np.clip(ops.sigmoid(logits[..., 0]), POSTERIOR_EPS, 1 - POSTERIOR_EPS)
        return bce_loss(y, probs)[0]

    def from_recurrent(j):
        z = rec_in[j]
        for i in range(j, len(rec.layers)):
            z, _ = rec.layers[i].forward(z)
            if i + 1 < len(rec.layers):
                z = z[..., rec.perm]
        return head_loss(z)

    def from_block(i):
        z = block_in[i]
        for block in model.blocks[i:]:
            z, _ = block.forward(z, True)
        bb, tt, ff, cc = z.shape
        z = z.transpose(0, 1, 3, 2).reshape(bb, tt, cc * ff)
        return from_recurrent_fresh(z)

    def from_recurrent_fresh(z):
        for i, layer in enumerate(rec.layers):
            z, _ = layer.forward(z)
            if i + 1 < len(rec.layers):
                z = z[..., rec.perm]
        return head_loss(z)

    def loss_for(name: str):
        if name.startswith("block"):
            return lambda i=int(name.split(".")[0][5:]): from_block(i)
        if name.startswith("blstm.layer"):
            return lambda j=int(name.split(".")[1][5:]): from_recurrent(j)
        return lambda: head_loss(rec_in[-1])

    return loss_for


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    cfg = ModelConfig(
        block_out_channels=(2, 4), blstm_hidden=32, groups=2,
        input_freq_bins=8, dtype="float64",
    )
    model = DccrnModel(cfg, seed=3)
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((1, 3, 8, 2))
    y = rng.integers(0, 2, size=(1, 3)).astype(np.float64)

    probs, cache = model.forward_batch(x, training=True)
    _, dprobs = bce_loss(y, probs)
    grads = model.backward_batch(dprobs, cache)
    loss_for = _staged_losses(model, x, y)

    eps = 1e-5
    worst = 0.0
    worst_name = ""
    params = model.params()
    n_checked = 0
    for name, arr in params.items():
        fn = loss_for(name)
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            lp = fn()
            flat[idx] = old - eps
            lm = fn()
            flat[idx] = old
            fd = (lp - lm) / (2 * eps)
            an = gflat[idx]
            # the 1e-6 floor absorbs central-difference noise (~1e-11) on
            # parameters with exactly-zero gradients (conv bias before BN)
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            n_checked += 1
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 120.0,
        f"all {n_checked} parameter gradients vs central differences: "
        f"max rel err {worst:.2e} at {worst_name}, {elapsed:.0f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 2. Architecture shape suite
# ---------------------------------------------------------------------------

def test_criterion_2_architecture_shapes():
    cfg = ModelConfig()
    chain = cfg.freq_chain()
    ok = chain == [513, 256, 128, 64, 32, 16, 8, 4]
    model = DccrnModel(cfg, seed=0)
    c_in = 2  # the real and imaginary STFT channels
    for b, block in enumerate(model.blocks):
        widths = [comp.w.shape[1] for comp in block.composites]
        ok = ok and widths == [c_in + 8 * l for l in range(4)]
        ok = ok and block.gated.w1.shape[1] == c_in + 32
        c_in = cfg.block_out_channels[b]
    rng = np.random.default_rng(0)
    lengths = {}
    for t in (1, 7, 300):
        probs, _ = model.forward_batch(
            rng.standard_normal((1, t, 513, 2)).astype(np.float32), training=False
        )
        lengths[t] = probs.shape
    ok = ok and all(lengths[t] == (1, t) for t in (1, 7, 300))
    report(2, ok, f"freq chain {chain}, composite channels C_in+8(l-1), outputs {lengths}")


# ---------------------------------------------------------------------------
# 3. Metric oracle
# ---------------------------------------------------------------------------

def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(SEED)
    exact = 0
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        a = VoicingLabels(rng.integers(0, 2, n).astype(np.int8))
        b = VoicingLabels(rng.integers(0, 2, n).astype(np.int8))
        wrong = 0
        for xa, xb in zip(a.labels, b.labels):  # independent counting loop
            if xa != xb:
                wrong += 1
        expect = 100.0 * wrong / n
        if vde(a, b) == expect and mismatch_rate(a, b).mismatch_rate == expect:
            exact += 1
    x = VoicingLabels(rng.integers(0, 2, 100).astype(np.int8))
    inv = VoicingLabels((1 - x.labels).astype(np.int8))
    ok = exact == 1000 and vde(x, x) == 0.0 and vde(x, inv) == 100.0
    report(3, ok, f"{exact}/1000 random pairs exact; VDE(x,x)=0, VDE(x,~x)=100")


# ---------------------------------------------------------------------------
# 4. Viterbi oracle
# ---------------------------------------------------------------------------

def test_criterion_4_viterbi_oracle():
    rng = np.random.default_rng(SEED)
    exact = 0
    for _ in range(500):
        n_frames = int(rng.integers(1, 7))
        inst = []
        for _ in range(n_frames):
            cands = [PitchCandidate(0, float(rng.uniform(0.2, 0.7)))]
            for _ in range(int(rng.integers(0, 4))):
                cands.append(
                    PitchCandidate(int(rng.integers(16, 161)), float(rng.uniform(0, 1)))
                )
            inst.append(cands)
        _, dp_cost = viterbi_path(inst)
        best = min(
            path_cost(inst, list(p))
            for p in itertools.product(*[range(len(c)) for c in inst])
        )
        if dp_cost == best:
            exact += 1
    report(4, exact == 500, f"{exact}/500 lattice instances match exhaustive search exactly")


# ---------------------------------------------------------------------------
# 5. Filter spec
# ---------------------------------------------------------------------------

def test_criterion_5_kaiser_filter_spec():
    filt = design_kaiser_highpass(5.0, 2400, 15.0, 8000)
    resp = filt.frequency_response(np.array([5.0, 100.0]), 8000)
    atten_5hz = -20.0 * np.log10(max(abs(resp[0]), 1e-300))
    ripple_100hz = abs(20.0 * np.log10(abs(resp[1])))
    symmetric = np.array_equal(filt.taps, filt.taps[::-1])
    ok = atten_5hz >= 40.0 and ripple_100hz < 1.0 and symmetric
    report(
        5,
        ok,
        f"5 Hz attenuation {atten_5hz:.1f} dB (>= 40), 100 Hz ripple "
        f"{ripple_100hz:.4f} dB (< 1), taps exactly symmetric: {symmetric}",
    )


# ---------------------------------------------------------------------------
# 6. Synthetic end-to-end (tracker)
# ---------------------------------------------------------------------------

def test_criterion_6_tracker_end_to_end():
    t0 = time.time()
    wrong = 0
    total = 0
    for i in range(200):
        mic, laryn, truth = synth_utterance(SEED, i)
        sex = "male" if (i % 10) % 2 == 0 else "female"
        est = extract_reference_labels(laryn, SpeakerMeta(f"spk{i % 10:02d}", sex))
        keep = boundary_exclusion_mask(truth, margin=2)
        wrong += int(((est.labels != truth.labels) & keep).sum())
        total += int(keep.sum())
    rate = 100.0 * wrong / total
    elapsed = time.time() - t0
    report(
        6,
        rate < 5.0 and elapsed < 180.0,
        f"200-utterance corpus: VDE {rate:.2f}% excluding +-2 boundary frames "
        f"(< 5%), {elapsed:.0f}s (< 180s)",
    )


# ---------------------------------------------------------------------------
# 7. Synthetic end-to-end (model)
# ---------------------------------------------------------------------------

REDUCED_MODEL = ModelConfig(
    block_out_channels=(2, 4), composite_growth=4, blstm_hidden=32, groups=4,
    dtype="float32",
)


def _synthetic_recordings(seed, count, labeler="truth"):
    recordings = {}
    for i in range(count):
        mic, _, truth = synth_utterance(seed, i)
        labels = truth if labeler == "truth" else detect_wave(mic, "rapt")[0]
        utt_id = f"synthetic/utt{i:04d}"
        recordings[utt_id] = recording(utt_id, mic, labels)
    return recordings


def _examples(recordings, ids):
    return {u: make_example(u, *recordings[u], REDUCED_MODEL) for u in ids}


def test_criterion_7_model_end_to_end():
    t0 = time.time()
    recordings = _synthetic_recordings(SEED, 200)
    ids = sorted(recordings)
    fold = FoldPlan("synthetic", tuple(ids[:160]), tuple(ids[160:180]), tuple(ids[180:]))
    data = _examples(recordings, ids[:180])
    cfg = TrainConfig(lr_init=1e-3, batch_size=4, max_epochs=1, seed=11)
    result = train(REDUCED_MODEL, None, fold, data, cfg)

    model = DccrnModel(REDUCED_MODEL, seed=0)
    model.load_state(result.params, result.buffers)
    wrong = 0
    total = 0
    for utt in fold.test_ids:
        wave, ref = recordings[utt]
        est, _ = detect_wave(wave, "dccrn", model)
        n_wrong, n_counted = vde_counts(est, ref)
        wrong += n_wrong
        total += n_counted
    test_vde = 100.0 * wrong / total

    # pretraining on a second corpus with tracker pseudo-labels must start
    # finetuning at a lower validation loss than random initialization
    pre_recordings = _synthetic_recordings(5678, 40, labeler="pseudo")
    pre_data = _examples(pre_recordings, pre_recordings)
    pre_cfg = TrainConfig(lr_init=1e-3, batch_size=4, max_epochs=1, seed=11)
    combo, pre_hist = pretrain_then_finetune(
        REDUCED_MODEL, pre_data, fold, data, cfg, pretrain_cfg=pre_cfg
    )
    random_init_val = result.initial_val_loss
    pretrained_val = combo.initial_val_loss

    elapsed = time.time() - t0
    ok = (
        test_vde < 10.0
        and pre_hist is not None
        and pretrained_val < random_init_val
        and elapsed < 600.0
    )
    report(
        7,
        ok,
        f"held-out VDE {test_vde:.2f}% (< 10%) after {len(result.history)} epoch(s); "
        f"finetuning starts at val loss {pretrained_val:.3f} < random init "
        f"{random_init_val:.3f}; {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 8. Training contract
# ---------------------------------------------------------------------------

def test_criterion_8_training_contract():
    # plateau: five flat epochs then a halving
    sched = PlateauSchedule(1e-3)
    lrs = []
    for _ in range(6):
        sched.update(1.0)
        lrs.append(sched.lr)
    plateau_ok = lrs == [1e-3] * 5 + [5e-4]

    # post-clip global norm bounded
    rng = np.random.default_rng(SEED)
    clip_ok = True
    for _ in range(50):
        grads = {
            "a": rng.standard_normal((5, 3)) * rng.uniform(0.1, 20),
            "b": rng.standard_normal(11) * rng.uniform(0.1, 20),
        }
        clip_gradients(grads)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        clip_ok = clip_ok and norm <= 5.0 + 1e-9

    # bit-exact determinism across two runs
    toy_cfg = ModelConfig(
        block_out_channels=(4,), blstm_hidden=16, groups=2, input_freq_bins=8, dtype="float64"
    )
    data = {}
    for i in range(6):
        x = rng.standard_normal((20, 8, 2))
        data[f"synthetic/u{i}"] = Example(f"synthetic/u{i}", x, (x[:, 0, 0] > 0).astype(np.float64))
    ids = sorted(data)
    fold = FoldPlan("FDA", tuple(ids[2:]), tuple(ids[:2]), ())
    tc = TrainConfig(lr_init=1e-3, max_epochs=3, batch_size=2, seed=9)
    a = train(toy_cfg, None, fold, data, tc)
    b = train(toy_cfg, None, fold, data, tc)
    determinism_ok = a.history.deterministic_fields() == b.history.deterministic_fields() and all(
        np.array_equal(a.params[k], b.params[k]) for k in a.params
    ) and all(np.array_equal(a.buffers[k], b.buffers[k]) for k in a.buffers)

    ok = plateau_ok and clip_ok and determinism_ok
    report(
        8,
        ok,
        f"plateau halving at epoch 6: {plateau_ok}; post-clip norm <= 5: {clip_ok}; "
        f"bit-exact two-run determinism: {determinism_ok}",
    )


# ---------------------------------------------------------------------------
# 9. Grouping efficiency
# ---------------------------------------------------------------------------

def test_criterion_9_grouping_efficiency():
    rng = np.random.default_rng(0)
    grouped = GroupedBlstmLayer("g", 1024, 4, 128, rng, np.float64)
    ungrouped = GroupedBlstmLayer("u", 1024, 1, 512, rng, np.float64)
    g_rec = count_params({n: a for n, a in grouped.params() if n.endswith(".wh")})
    u_rec = count_params({n: a for n, a in ungrouped.params() if n.endswith(".wh")})
    ok = 4 * g_rec == u_rec
    report(
        9,
        ok,
        f"recurrent weights: groups=4 {g_rec} scalars vs groups=1 {u_rec} (ratio exactly 1/4)",
    )


# ---------------------------------------------------------------------------
# 10. Format round-trips
# ---------------------------------------------------------------------------

def test_criterion_10_format_round_trips(tmp_path):
    checks = {}

    # checkpoint
    cfg = ModelConfig(block_out_channels=(2,), blstm_hidden=4, groups=2,
                      input_freq_bins=8, dtype="float32")
    model = DccrnModel(cfg, seed=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, cfg, model.params(), model.buffers())
    cfg2, params2, buffers2 = load_checkpoint(p1)
    save_checkpoint(p2, cfg2, params2, buffers2)
    checks["checkpoint"] = p1.read_bytes() == p2.read_bytes()

    # manifest
    manifest = generate_synthetic_corpus(tmp_path / "c", n_utterances=3, seed=2)
    text = manifest_to_text(manifest)
    checks["manifest"] = manifest_to_text(manifest_from_text(text)) == text

    # fold plan
    folds = make_locro_folds(
        {"synthetic": manifest, "FDA": manifest_from_text(text.replace("synthetic", "FDA"))},
        seed=3,
    )
    checks["fold_plan"] = folds_from_json(folds_to_json(folds)) == folds

    # label files
    rng = np.random.default_rng(4)
    lab = rng.integers(0, 2, 40).astype(np.int8)
    f0 = np.where(lab == 1, rng.uniform(80, 300, 40), 0.0)
    l1, l2 = tmp_path / "x.lab", tmp_path / "y.lab"
    write_labels(l1, VoicingLabels(lab, f0=f0))
    write_labels(l2, read_labels(l1))
    checks["labels"] = l1.read_bytes() == l2.read_bytes()

    # hop provenance through detect -> compare
    from voicedet.cli import main
    from voicedet.dsp import Waveform, write_wav
    from scipy.signal import sawtooth

    t = np.arange(8000) / 8000
    wav = tmp_path / "tone.wav"
    write_wav(wav, Waveform(0.4 * sawtooth(2 * np.pi * 120 * t), 8000))
    out_a, out_b = tmp_path / "da", tmp_path / "db"
    assert main(["detect", "--method", "rapt", "--out", str(out_a), str(wav)]) == 0
    assert main(["detect", "--method", "rapt", "--out", str(out_b), str(wav)]) == 0
    checks["detect_idempotent"] = (
        (out_a / "tone.lab").read_bytes() == (out_b / "tone.lab").read_bytes()
    )
    cmp_csv = tmp_path / "cmp.csv"
    assert main(["labels-compare", "--a", str(out_a), "--b", str(out_b), "--out", str(cmp_csv)]) == 0
    checks["hop_provenance"] = cmp_csv.read_text().startswith("#hop_ms=10\n")

    ok = all(checks.values())
    report(10, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
