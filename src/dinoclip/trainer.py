"""Optimization loop tying together encoders, objectives, and the data
pipeline: AdamW with linear warmup and cosine decay, EMA teacher updates,
centering, metrics logging, and checkpoint persistence.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .autodiff import Tape, Tensor, backward
from .data import (AugmentationConfig, EpochSamplingPolicy, load_record_image,
                   make_views, sample_caption, tokenize)
from .encoders import (DinoProjectorConfig, ModelConfig, ModelParams,
                       TextEncoderConfig, VisionEncoderConfig, encode_images,
                       encode_text, init_model_params, project_dino, resize_bicubic)
from .errors import (CheckpointError, CheckpointShapeError, ContractError, DomainError,
                     NumericError)
from .objectives import (ContrastiveBatch, TeacherState, combined_loss, ema_update,
                         info_nce_loss, make_teacher, soft_distillation_terms,
                         teacher_distribution, update_center)
from .prng import RandomStream, fisher_yates

LOG_TAU_MIN = float(np.log(0.005))
LOG_TAU_MAX = float(np.log(5.0))

_TAG_ORDER = 0x4F524452


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.00025
    epochs: int = 200
    warmup_epochs: int = 10
    weight_decay: float = 0.05
    betas: tuple = (0.9, 0.98)
    adam_eps: float = 1e-6
    ema_momentum: float = 0.996
    tau_student: float = 0.1
    tau_teacher: float = 0.04
    center_momentum: float = 0.9
    loss_mode: str = "combined"             # or "infonce_only"
    average_pairs: bool = True
    freeze_temperature: bool = False
    seed: int = 0
    sampling: EpochSamplingPolicy = field(default_factory=EpochSamplingPolicy)
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise DomainError(f"warmup_epochs {self.warmup_epochs} must not exceed "
                              f"epochs {self.epochs}")
        if self.loss_mode not in ("combined", "infonce_only"):
            raise DomainError(f"unknown loss_mode {self.loss_mode!r}")
        if self.augmentation.global_crop_size != self.model.vision.image_size:
            raise DomainError("global crop size must equal the model input size")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        obj = dict(obj)
        obj["betas"] = tuple(obj.get("betas", (0.9, 0.98)))
        obj["sampling"] = EpochSamplingPolicy(**obj.get("sampling", {}))
        aug = dict(obj.get("augmentation", {}))
        for key in ("global_scale", "local_scale"):
            if key in aug:
                aug[key] = tuple(aug[key])
        obj["augmentation"] = AugmentationConfig(**aug)
        model = obj.get("model", {})
        obj["model"] = ModelConfig(
            vision=VisionEncoderConfig(**model.get("vision", {})),
            text=TextEncoderConfig(**model.get("text", {})),
            dino=DinoProjectorConfig(**model.get("dino", {})),
        )
        return cls(**obj)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, params: ModelParams):
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.t = 0


def adamw_step(params: ModelParams, grads, moments: AdamState, lr: float,
               betas: tuple = (0.9, 0.98), eps: float = 1e-6,
               weight_decay: float = 0.0, skip: set = frozenset()):
    """Decoupled-weight-decay Adam update with bias correction; mutates and
    returns (params, moments)."""
    b1, b2 = betas
    if set(moments.m.keys()) != set(params.tensors.keys()):
        raise ContractError("optimizer state does not match parameter tree")
    for name, p in params.items():
        if moments.m[name].shape != p.shape:
            raise ContractError(f"moment for {name!r} has shape "
                                f"{moments.m[name].shape}, parameter has {p.shape}")
    moments.t += 1
    bc1 = 1.0 - b1 ** moments.t
    bc2 = 1.0 - b2 ** moments.t
    for name, p in params.items():
        g = grads[name]
        g = g.data if isinstance(g, Tensor) else np.asarray(g)
        if g.shape != p.shape:
            raise ContractError(f"gradient for {name!r} has shape {g.shape}, "
                                f"parameter has {p.shape}")
        m = moments.m[name] = b1 * moments.m[name] + (1.0 - b1) * g
        v = moments.v[name] = b2 * moments.v[name] + (1.0 - b2) * (g * g)
        if name in skip:
            continue
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        new = p.data - lr * update - lr * weight_decay * p.data
        params.tensors[name] = Tensor(new.astype(p.dtype), requires_grad=True,
                                      name=name, dtype=p.dtype)
    return params, moments


def lr_schedule(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp 0 -> base_lr over warmup, cosine decay to 0 afterward."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsLog:
    records: list = field(default_factory=list)

    def append(self, *, step: int, epoch: int, loss_infonce: float,
               loss_distill, loss_combined: float, lr: float, teacher_entropy):
        if self.records and step <= self.records[-1]["step"]:
            raise ContractError(f"metric steps must be strictly increasing "
                                f"(got {step} after {self.records[-1]['step']})")
        self.records.append({"step": step, "epoch": epoch,
                             "loss_infonce": loss_infonce,
                             "loss_distill": loss_distill,
                             "loss_combined": loss_combined,
                             "lr": lr, "teacher_entropy": teacher_entropy})

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records:
                f.write(json.dumps(rec, sort_keys=True))
                f.write("\n")


# ---------------------------------------------------------------------------
# training state and persistence
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    config: TrainConfig
    student: ModelParams
    teacher: TeacherState
    adam: AdamState
    step: int = 0
    next_epoch: int = 0


def init_train_state(config: TrainConfig) -> TrainState:
    student = init_model_params(config.model, config.seed)
    teacher = make_teacher(student, ema_momentum=config.ema_momentum,
                           tau_teacher=config.tau_teacher,
                           center_momentum=config.center_momentum)
    return TrainState(config=config, student=student, teacher=teacher,
                      adam=AdamState(student))


_SECTIONS = ("config", "counters", "student", "teacher", "center", "adam_m", "adam_v")
_COUNTERS = ("step", "next_epoch", "adam_t")


def save_checkpoint(state: TrainState, path):
    payloads = (
        ckpt.pack_json(state.config.to_dict()),
        ckpt.pack_json(dict(zip(_COUNTERS, (state.step, state.next_epoch, state.adam.t)))),
        ckpt.pack_tensors({k: v.data for k, v in state.student.items()}),
        ckpt.pack_tensors({k: v.data for k, v in state.teacher.params.items()}),
        ckpt.pack_tensors({"center": state.teacher.center}),
        ckpt.pack_tensors(state.adam.m),
        ckpt.pack_tensors(state.adam.v),
    )
    ckpt.write_container(path, list(zip(_SECTIONS, payloads)))


def _params_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelParams:
    skeleton = init_model_params(config, seed=0)
    if set(arrays.keys()) != set(skeleton.tensors.keys()):
        raise CheckpointShapeError("stored parameter names do not match the config")
    tensors = {}
    for name, ref in skeleton.items():
        arr = arrays[name]
        if arr.shape != ref.shape:
            raise CheckpointShapeError(f"tensor {name!r}: stored shape {arr.shape}, "
                                       f"config implies {ref.shape}")
        tensors[name] = Tensor(arr, requires_grad=True, name=name, dtype=arr.dtype)
    return ModelParams(config, tensors)


def load_checkpoint(path) -> TrainState:
    sections = ckpt.read_container(path, required=_SECTIONS)
    config = TrainConfig.from_dict(ckpt.unpack_json(sections["config"]))
    counters = ckpt.unpack_json(sections["counters"])
    if not isinstance(counters, dict) or any(type(counters.get(k)) is not int
                                             for k in _COUNTERS):
        raise CheckpointError(f"counters section needs integer {_COUNTERS}, got {counters!r}")
    student = _params_from_arrays(config.model, ckpt.unpack_tensors(sections["student"]))
    teacher_params = _params_from_arrays(config.model, ckpt.unpack_tensors(sections["teacher"]))
    center = ckpt.unpack_tensors(sections["center"])["center"]
    teacher = TeacherState(params=teacher_params, center=center,
                           ema_momentum=config.ema_momentum,
                           tau_teacher=config.tau_teacher,
                           center_momentum=config.center_momentum)
    adam = AdamState(student)
    adam.m = ckpt.unpack_tensors(sections["adam_m"])
    adam.v = ckpt.unpack_tensors(sections["adam_v"])
    adam.t = counters["adam_t"]
    return TrainState(config=config, student=student, teacher=teacher, adam=adam,
                      step=counters["step"], next_epoch=counters["next_epoch"])


# ---------------------------------------------------------------------------
# embedding helpers (shared by evaluation and the CLI)
# ---------------------------------------------------------------------------

def embed_record_images(params: ModelParams, records, data_root=None) -> np.ndarray:
    """Embed each record's full image, resized to the model input size."""
    size = params.config.vision.image_size
    rows = []
    for rec in records:
        img = load_record_image(rec, root=data_root)
        if img.shape[1] != size or img.shape[2] != size:
            img = resize_bicubic(img, size)
        rows.append(img)
    images = Tensor(np.stack(rows))
    return encode_images(params, images).data


def embed_texts(params: ModelParams, texts: list[str]) -> np.ndarray:
    max_len = params.config.text.max_length
    return np.stack([encode_text(params, tokenize(t, max_len)).data for t in texts])


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _entropy(dist: np.ndarray) -> float:
    p = np.clip(dist.astype(np.float64), 1e-12, None)
    return float(-(p * np.log(p)).sum())


def train(config: TrainConfig, records, *, data_root=None, resume: TrainState = None,
          stop_after_epoch: int = None, epoch_callback=None):
    """Run the combined-objective loop over the train split.

    Deterministic in (config, manifest): batch order, caption choice, and
    augmentation draws are all keyed on (seed, epoch, record index).
    Returns (TrainState, MetricsLog).
    """
    train_records = [r for r in records if r.split == "train"]
    if not train_records:
        raise ContractError("manifest has no train records")
    if len(train_records) < config.batch_size:
        raise ContractError(f"batch_size {config.batch_size} exceeds train set "
                            f"of {len(train_records)} records (last incomplete "
                            "batch is dropped)")

    state = resume if resume is not None else init_train_state(config)
    if resume is not None:
        config = state.config
    policy = config.sampling
    aug = config.augmentation
    distill = config.loss_mode == "combined"
    if not distill:
        aug = dataclasses.replace(aug, n_local=0)

    steps_per_epoch = len(train_records) // config.batch_size
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch
    max_len = config.model.text.max_length
    skip = {"log_tau"} if config.freeze_temperature else set()

    image_cache: dict[int, np.ndarray] = {}
    metrics = MetricsLog()
    last_epoch = config.epochs if stop_after_epoch is None else min(stop_after_epoch,
                                                                    config.epochs)

    for epoch in range(state.next_epoch, last_epoch):
        order = fisher_yates([r.index for r in train_records],
                             RandomStream(_TAG_ORDER, config.seed, epoch))
        by_index = {r.index: r for r in train_records}
        for start in range(0, steps_per_epoch * config.batch_size, config.batch_size):
            batch = [by_index[i] for i in order[start:start + config.batch_size]]
            lr = lr_schedule(state.step, total_steps, warmup_steps, config.learning_rate)

            captions = [sample_caption(rec, epoch, policy) for rec in batch]
            views = []
            for rec in batch:
                img = image_cache.get(rec.index)
                if img is None:
                    img = image_cache.setdefault(rec.index,
                                                 load_record_image(rec, root=data_root))
                stream = RandomStream(config.seed, epoch, rec.index)
                views.append(make_views(img, aug, stream))
            view_batches = [Tensor(v) for v in np.stack(views, axis=1)]  # [B, 3, S, S] each

            teacher_dists, teacher_logit_rows, teacher_entropy = None, None, None
            if distill:
                t_logits = [project_dino(state.teacher.params,
                                         encode_images(state.teacher.params,
                                                       view_batches[g])).data
                            for g in range(2)]
                teacher_dists = [teacher_distribution(z, state.teacher) for z in t_logits]
                teacher_logit_rows = np.concatenate(t_logits, axis=0)
                teacher_entropy = _entropy(np.concatenate(teacher_dists,
                                                          axis=0).mean(axis=0))

            with Tape() as tape:
                text_emb = [encode_text(state.student, tokenize(c.text, max_len))
                            for c in captions]
                u = ad.concat([ad.reshape(e, (1, e.shape[0])) for e in text_emb], axis=0)
                v_first = encode_images(state.student, view_batches[0])
                tau = ad.exp(state.student.log_tau)
                loss_nce = info_nce_loss(ContrastiveBatch(captions=u, images=v_first,
                                                          tau=tau))
                if distill:
                    student_dists = []
                    for vi, vb in enumerate(view_batches):
                        emb = v_first if vi == 0 else encode_images(state.student, vb)
                        logits = project_dino(state.student, emb)
                        student_dists.append(ad.softmax(logits, axis=-1,
                                                        temperature=config.tau_student))
                    loss_dist = soft_distillation_terms(teacher_dists, student_dists,
                                                        config.average_pairs)
                    loss = combined_loss(loss_nce, loss_dist)
                else:
                    loss_dist = None
                    loss = loss_nce

            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(f"non-finite loss {loss_val} at step {state.step} "
                                   f"(epoch {epoch}, lr {lr:.3e})")

            grads = backward(tape, loss, params=state.student.tensors.values())
            adamw_step(state.student, grads, state.adam, lr, betas=config.betas,
                       eps=config.adam_eps, weight_decay=config.weight_decay, skip=skip)
            clamped = np.clip(state.student.log_tau.data, LOG_TAU_MIN, LOG_TAU_MAX)
            state.student.tensors["log_tau"] = Tensor(clamped, requires_grad=True,
                                                      name="log_tau", dtype=clamped.dtype)

            if distill:
                ema_update(state.teacher, state.student)
                update_center(state.teacher, teacher_logit_rows)

            state.step += 1
            metrics.append(step=state.step, epoch=epoch,
                           loss_infonce=float(loss_nce.item()),
                           loss_distill=None if loss_dist is None else float(loss_dist.item()),
                           loss_combined=float(loss_val), lr=float(lr),
                           teacher_entropy=teacher_entropy)
        state.next_epoch = epoch + 1
        if epoch_callback is not None and epoch_callback(state, metrics):
            break
    return state, metrics
