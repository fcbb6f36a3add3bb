"""Training loop (Adam, plateau LR halving, gradient clipping), the
pretrain-then-finetune protocol, the one inference route (`detect_wave`),
the VDE metric, and cross-corpus reports.

Training is fully deterministic given (seed, config, data): shuffling comes
from one seeded generator, parameters update in place, and the best
validation checkpoint is returned. Wall-clock times are recorded in the
history but excluded from determinism comparisons.
"""
from __future__ import annotations

import csv
import io
import logging
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import FoldPlan, split_train_val
from .dsp import (
    FrameConfig,
    InvalidArgument,
    Waveform,
    check_field_types,
    peak_normalize,
    resample,
    stft,
)
from .labels import (
    MAX_LENGTH_SLACK,
    LabelComparison,
    _count_mismatch,
    align_for_lowest_vde,
    pool_comparisons,
)
from .nn.model import DccrnModel, ModelConfig, VoicingPosterior, bce_loss, decide_voicing
from .tracker import TrackerConfig, VoicingLabels, track_voicing

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Raised when a NaN gradient or loss aborts the epoch."""


# The paper's fixed training recipe: Adam with lr halved after PLATEAU_PATIENCE
# epochs whose validation loss improves by no more than MIN_DELTA, and
# gradients clipped to a global norm of CLIP_MAX_NORM.
PLATEAU_PATIENCE = 5
LR_FACTOR = 0.5
MIN_DELTA = 1e-4
CLIP_MAX_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 5e-4
    max_epochs: int = 80
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("lr_init", "max_epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise InvalidArgument(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    wall_time: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[EpochRecord, ...]
    aborted: bool = False

    def __post_init__(self):
        lrs = [r.lr for r in self.records]
        if any(b > a for a, b in zip(lrs, lrs[1:])):
            raise InvalidArgument("learning rate must be non-increasing")

    def __len__(self) -> int:
        return len(self.records)

    def deterministic_fields(self) -> list[tuple]:
        """Everything except wall_time, for bit-exact comparisons."""
        return [(r.epoch, r.train_loss, r.val_loss, r.lr) for r in self.records]

    def to_csv(self) -> str:
        """The deterministic fields, byte-identical across reruns; wall times
        are left out."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for r in self.records:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss), repr(r.lr)])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

def vde_counts(est: VoicingLabels, ref: VoicingLabels) -> tuple[int, int]:
    """(wrong frames, counted frames); invalid-masked frames are skipped."""
    if len(est) != len(ref):
        raise InvalidArgument(f"length mismatch: {len(est)} vs {len(ref)}")
    wrong, n = _count_mismatch(est, ref)
    if n == 0:
        raise InvalidArgument("no valid frames")
    return wrong, n


def vde(est: VoicingLabels, ref: VoicingLabels) -> float:
    """Voicing decision error: percent of frames with the wrong decision."""
    wrong, n = vde_counts(est, ref)
    return 100.0 * wrong / n


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def clip_gradients(grads: dict[str, np.ndarray]) -> float:
    """Scale gradients in place to a global norm of at most CLIP_MAX_NORM;
    returns the pre-clip global norm."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.vdot(g, g).real)
    norm = float(np.sqrt(sq))
    if norm > CLIP_MAX_NORM:
        scale = CLIP_MAX_NORM / norm
        for g in grads.values():
            g *= scale
    return norm


class PlateauSchedule:
    """Halve the LR after PLATEAU_PATIENCE consecutive non-improving epochs.

    An epoch improves when its validation loss is below the best seen so far
    by more than MIN_DELTA. The counter resets after each halving.
    """

    def __init__(self, lr_init: float):
        self.lr = lr_init
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> None:
        """Feed one epoch's validation loss."""
        if val_loss < self.best - MIN_DELTA:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= PLATEAU_PATIENCE:
                self.lr *= LR_FACTOR
                self.bad_epochs = 0


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, applied to params in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Feature preparation
# ---------------------------------------------------------------------------

TARGET_RATE = 8000


def features_for_wave(wave: Waveform) -> np.ndarray:
    """Resample to 8 kHz, peak-normalize, STFT: the [T, F, 2] real and
    imaginary parts, a float64 view of the complex STFT (no copy)."""
    spec = stft(peak_normalize(resample(wave, TARGET_RATE)), FrameConfig.for_rate(TARGET_RATE))
    return spec.view(np.float64).reshape(*spec.shape, 2)


def detect_wave(wave: Waveform, method: str, model: DccrnModel | None = None,
                tracker_cfg: TrackerConfig | None = None
                ) -> tuple[VoicingLabels, VoicingPosterior | None]:
    """Voicing decisions for one recording, resampled once to TARGET_RATE:
    the one inference route of `detect`, `eval`, the demo and pretraining
    pseudo-labels. "rapt" tracks the signal and returns no posterior;
    "dccrn" thresholds the model's posterior at its configured threshold."""
    if method not in ("rapt", "dccrn"):
        raise InvalidArgument(f"unknown method {method!r}")
    if method == "dccrn" and model is None:
        raise InvalidArgument("dccrn decoding needs a model/checkpoint")
    if method == "rapt":
        return track_voicing(resample(wave, TARGET_RATE), tracker_cfg or TrackerConfig()), None
    probs, _ = model.forward_batch(features_for_wave(wave)[None], training=False)
    post = VoicingPosterior(probs[0])
    return decide_voicing(post, model.cfg.threshold), post


def recording(utt_id: str, wave: Waveform, labels: VoicingLabels) -> tuple[Waveform, VoicingLabels]:
    """A recording as evaluation decodes it and training builds on it: the
    8 kHz wave, and its labels cut to the wave's frame count, which they may
    exceed or fall short of by at most MAX_LENGTH_SLACK frames."""
    wave = resample(wave, TARGET_RATE)
    t = FrameConfig.for_rate(TARGET_RATE).n_frames(len(wave))
    if abs(t - len(labels)) > MAX_LENGTH_SLACK:
        raise InvalidArgument(f"{utt_id}: {t} frames vs {len(labels)} labels")
    return wave, VoicingLabels(labels.labels[:t], labels.hop_ms,
                               None if labels.f0 is None else labels.f0[:t],
                               None if labels.valid is None else labels.valid[:t])


@dataclass(frozen=True)
class Example:
    """One training utterance: model input and targets."""

    utt_id: str
    x: np.ndarray  # [T, F, 2] in the model's dtype
    y: np.ndarray  # [T] float {0, 1}


def make_example(utt_id: str, wave: Waveform, labels: VoicingLabels,
                 model_cfg: ModelConfig) -> Example:
    """The one Example builder: the features of a `recording`, at the
    model's dtype, cut to its labels."""
    y = labels.labels.astype(np.float64)
    x = features_for_wave(wave)[: y.size]
    return Example(utt_id, x.astype(model_cfg.np_dtype(), copy=False), y)


def _batches(ids: list[str], data, batch_size: int):
    """Deterministic batches of consecutive same-length utterances."""
    batch: list[str] = []
    t_len = -1
    for utt_id in ids:
        t = data[utt_id].x.shape[0]
        if batch and (t != t_len or len(batch) >= batch_size):
            yield batch
            batch = []
        batch.append(utt_id)
        t_len = t
    if batch:
        yield batch


def _epoch_loss(model: DccrnModel, ids, data, batch_size: int) -> float:
    """Frame-weighted BCE in inference mode; a diverged model's is NaN,
    without numpy's overflow warnings."""
    total = 0.0
    frames = 0
    for batch in _batches(sorted(ids), data, batch_size):
        x = np.stack([data[u].x for u in batch])
        y = np.stack([data[u].y for u in batch])
        with np.errstate(over="ignore", invalid="ignore"):
            probs, _ = model.forward_batch(x, training=False)
            loss, _ = bce_loss(y, probs)
        total += loss * y.size
        frames += y.size
    return total / max(frames, 1)


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]
    history: TrainHistory
    best_epoch: int
    initial_val_loss: float = float("nan")  # before the first update


def train(model_cfg: ModelConfig, params_init, fold: FoldPlan, data, cfg: TrainConfig) -> TrainResult:
    """Epoch loop: shuffle, forward/BCE/backward/clip/Adam, validation,
    plateau LR halving; returns the best-validation checkpoint.

    params_init may be None (fresh seeded init) or (params, buffers) from a
    previous run; the optimizer state and LR schedule always start fresh.
    """
    train_ids = [i for i in fold.train_ids if i in data]
    val_ids = [i for i in fold.val_ids if i in data]
    if not train_ids:
        raise InvalidArgument("empty train set")
    if not val_ids:
        raise InvalidArgument("empty validation set")

    if params_init is None:
        model = DccrnModel(model_cfg, seed=cfg.seed)
    else:
        model = DccrnModel.from_state(model_cfg, *params_init)
    live_params = model.params()
    opt = AdamState.for_params(live_params)
    rng = np.random.default_rng(cfg.seed)
    schedule = PlateauSchedule(cfg.lr_init)
    initial_val_loss = _epoch_loss(model, val_ids, data, cfg.batch_size)

    best_val = np.inf  # strict lowest-val checkpoint, independent of MIN_DELTA
    best_epoch = 0
    best_params = {k: v.copy() for k, v in live_params.items()}
    best_buffers = {k: v.copy() for k, v in model.buffers().items()}
    records: list[EpochRecord] = []
    aborted = False

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        lr = schedule.lr
        order = [train_ids[i] for i in rng.permutation(len(train_ids))]
        total = 0.0
        frames = 0
        try:
            for batch in _batches(order, data, cfg.batch_size):
                x = np.stack([data[u].x for u in batch])
                y = np.stack([data[u].y for u in batch])
                # a diverging step overflows inside the model; the loss check
                # reports that, and numpy's warnings would only repeat it
                with np.errstate(over="ignore", invalid="ignore"):
                    probs, cache = model.forward_batch(x, training=True)
                    loss, dprobs = bce_loss(y, probs)
                    if not np.isfinite(loss):
                        raise TrainingDiverged(f"non-finite loss in epoch {epoch}")
                    grads = model.backward_batch(dprobs, cache)
                clip_gradients(grads)
                adam_step(live_params, grads, opt, lr)
                total += loss * y.size
                frames += y.size
        except TrainingDiverged as err:
            log.error("aborting training: %s", err)
            aborted = True
            break
        train_loss = total / max(frames, 1)
        val_loss = _epoch_loss(model, val_ids, data, cfg.batch_size)
        records.append(EpochRecord(epoch, train_loss, val_loss, lr, time.perf_counter() - t0))

        schedule.update(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in live_params.items()}
            best_buffers = {k: v.copy() for k, v in model.buffers().items()}

    return TrainResult(
        params=best_params,
        buffers=best_buffers,
        history=TrainHistory(tuple(records), aborted=aborted),
        best_epoch=best_epoch,
        initial_val_loss=initial_val_loss,
    )


def split_for_pretrain(ids: list[str], seed: int) -> FoldPlan:
    """Seeded 90/10 split of a pretraining pool into a pseudo-fold."""
    tr, val = split_train_val(ids, np.random.default_rng([seed, 0xBEEF]))
    return FoldPlan(held_out_corpus="synthetic", train_ids=tuple(tr), val_ids=tuple(val), test_ids=())


def pretrain_then_finetune(model_cfg: ModelConfig, pretrain_data, fold: FoldPlan, data,
                           cfg: TrainConfig, pretrain_cfg: TrainConfig | None = None
                           ) -> tuple[TrainResult, TrainHistory | None]:
    """Train on the pretraining corpus (pseudo-labels), then fine-tune on the
    fold with a fresh optimizer and LR schedule. Empty pretraining data skips
    pretraining: the result is plain train()'s and the history is None."""
    pretrain_cfg = pretrain_cfg or cfg
    init = None
    pre_history = None
    if pretrain_data:
        pre_fold = split_for_pretrain(sorted(pretrain_data), pretrain_cfg.seed)
        pre = train(model_cfg, None, pre_fold, pretrain_data, pretrain_cfg)
        init = (pre.params, pre.buffers)
        pre_history = pre.history
    result = train(model_cfg, init, fold, data, cfg)
    return result, pre_history


# ---------------------------------------------------------------------------
# Cross-corpus evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRow:
    train_corpora: tuple[str, ...]
    test_corpus: str
    method: str
    vde_percent: float  # aligned (per-utterance best shift)
    vde_unaligned_percent: float
    n_frames: int
    shift_used: int  # most common per-utterance shift

    def __post_init__(self):
        for v in (self.vde_percent, self.vde_unaligned_percent):
            if not (0.0 <= v <= 100.0):
                raise InvalidArgument("vde out of [0, 100]")


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]

    def to_csv(self, aligned: bool = True) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["train_set", "test_set", "method", "vde_percent", "n_frames", "shift"])
        for r in self.rows:
            writer.writerow(
                [
                    "+".join(r.train_corpora),
                    r.test_corpus,
                    r.method,
                    f"{r.vde_percent if aligned else r.vde_unaligned_percent:.4f}",
                    r.n_frames,
                    r.shift_used if aligned else 0,
                ]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        header = f"{'train set':<24}{'test set':<14}{'method':<12}{'VDE%':>8}{'VDE% (unaligned)':>18}{'frames':>10}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{'+'.join(r.train_corpora):<24}{r.test_corpus:<14}{r.method:<12}"
                f"{r.vde_percent:>8.2f}{r.vde_unaligned_percent:>18.2f}{r.n_frames:>10}"
            )
        return "\n".join(lines) + "\n"


def evaluate_cross_corpus(folds: list[FoldPlan], methods: list[str], recordings,
                          models: dict[str, DccrnModel] | None = None,
                          tracker_cfg: TrackerConfig | None = None,
                          max_shift: int = 5):
    """Per fold and method: decode each held-out `recording` whole through
    `detect_wave` and cut the decisions to its labels ("reference" scores
    the labels themselves), align each utterance for the lowest VDE, pool
    the counts of frames its labels mask valid. Returns (EvalReport, decisions)
    where decisions maps (fold, method, utt_id) -> (ref, est, shift)."""
    models = models or {}
    rows = []
    decisions = {}
    for fold in folds:
        train_corpora = tuple(sorted({i.split("/")[0] for i in fold.train_ids}))
        for method in methods:
            model = models.get(fold.held_out_corpus)
            if method == "dccrn" and model is None:
                log.warning(
                    "fold %s: no checkpoint for dccrn, row skipped", fold.held_out_corpus
                )
                continue
            plain, aligned = [], []
            for utt_id in fold.test_ids:
                if utt_id not in recordings:
                    continue
                wave, ref = recordings[utt_id]
                if method == "reference":
                    est = ref
                else:
                    labels, _ = detect_wave(wave, method, model, tracker_cfg)
                    est = VoicingLabels(labels.labels[: len(ref)])
                shift, aligned_cmp = align_for_lowest_vde(est, ref, max_shift)
                plain.append(LabelComparison(*vde_counts(est, ref)))
                aligned.append(aligned_cmp)
                decisions[(fold.held_out_corpus, method, utt_id)] = (ref, est, shift)
            if not plain:
                log.warning("fold %s/%s: no test data", fold.held_out_corpus, method)
                continue
            pooled_plain, pooled_aligned = pool_comparisons(plain), pool_comparisons(aligned)
            rows.append(
                EvalRow(
                    train_corpora=train_corpora,
                    test_corpus=fold.held_out_corpus,
                    method=method,
                    vde_percent=pooled_aligned.mismatch_rate,
                    vde_unaligned_percent=pooled_plain.mismatch_rate,
                    n_frames=pooled_plain.n_frames,
                    shift_used=Counter(c.shift_applied for c in aligned).most_common(1)[0][0],
                )
            )
    return EvalReport(tuple(rows)), decisions
