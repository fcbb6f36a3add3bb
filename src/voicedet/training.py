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

from .corpus import FoldPlan
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


@dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 5e-4
    plateau_patience: int = 5
    lr_factor: float = 0.5
    clip_max_norm: float = 5.0
    max_epochs: int = 80
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 1
    seed: int = 0
    min_delta: float = 1e-4

    def __post_init__(self):
        check_field_types(self)
        if not (0.0 < self.lr_factor < 1.0):
            raise InvalidArgument("lr_factor must be in (0, 1)")
        for name in ("lr_init", "clip_max_norm", "adam_eps", "max_epochs", "batch_size", "plateau_patience"):
            if getattr(self, name) <= 0:
                raise InvalidArgument(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("seed", "min_delta"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("adam_beta1", "adam_beta2"):
            # beta = 1 zeroes Adam's bias correction 1 - beta**t
            if not (0.0 <= getattr(self, name) < 1.0):
                raise InvalidArgument(f"{name} must be in [0, 1), got {getattr(self, name)!r}")


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

def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = 5.0
                   ) -> tuple[dict[str, np.ndarray], float]:
    """Scale gradients in place to a global norm of at most max_norm;
    returns (grads, pre-clip global norm)."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.vdot(g, g).real)
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads, norm


class PlateauSchedule:
    """Halve the LR after `patience` consecutive non-improving epochs.

    An epoch improves when its validation loss is below the best seen so far
    by more than min_delta. The counter resets after each halving.
    """

    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.lr_init
        self.factor = cfg.lr_factor
        self.patience = cfg.plateau_patience
        self.min_delta = cfg.min_delta
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> bool:
        """Feed one epoch's validation loss; returns True if it improved."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        if self.bad_epochs >= self.patience:
            self.lr *= self.factor
            self.bad_epochs = 0
        return False


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
              state: AdamState, cfg: TrainConfig, lr: float) -> None:
    """One bias-corrected Adam update, applied to params in place."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)


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
    schedule = PlateauSchedule(cfg)
    initial_val_loss = _epoch_loss(model, val_ids, data, cfg.batch_size)

    best_val = np.inf  # strict lowest-val checkpoint, independent of min_delta
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
                clip_gradients(grads, cfg.clip_max_norm)
                adam_step(live_params, grads, opt, cfg, lr)
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


def split_for_pretrain(ids: list[str], seed: int, val_fraction: float = 0.1) -> FoldPlan:
    """Seeded 90/10 split of a pretraining pool into a pseudo-fold."""
    rng = np.random.default_rng([seed, 0xBEEF])
    order = rng.permutation(len(ids))
    n_val = max(1, round(val_fraction * len(ids))) if len(ids) > 1 else 0
    val = tuple(ids[i] for i in order[:n_val])
    tr = tuple(ids[i] for i in order[n_val:])
    return FoldPlan(held_out_corpus="synthetic", train_ids=tr, val_ids=val, test_ids=())


def pretrain_then_finetune(model_cfg: ModelConfig, pretrain_data, fold: FoldPlan, data,
                           cfg: TrainConfig, pretrain_cfg: TrainConfig | None = None
                           ) -> tuple[TrainResult, TrainHistory | None]:
    """Train on the pretraining corpus (pseudo-labels), then fine-tune on the
    fold with a fresh optimizer and LR schedule. Zero pretraining epochs is
    identical to plain train()."""
    pretrain_cfg = pretrain_cfg or cfg
    init = None
    pre_history = None
    if pretrain_cfg.max_epochs > 0 and pretrain_data:
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
