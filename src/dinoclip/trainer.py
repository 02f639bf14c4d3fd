"""Optimization loop tying together encoders, objectives, and the data
pipeline: AdamW with linear warmup and cosine decay, EMA teacher updates,
centering, metrics logging, and checkpoint persistence.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .autodiff import Tape, Tensor, backward
from .data import (AugmentationConfig, EpochSamplingPolicy, load_record_image,
                   make_views, sample_caption, tokenize)
from .encoders import (ModelConfig, ModelParams, _parameter_spec, encode_images,
                       encode_text, init_model_params, project_dino, resize_bicubic)
from .errors import (CheckpointError, CheckpointShapeError, ContractError, DomainError,
                     NumericError, ValidationError)
from .objectives import (ContrastiveBatch, TeacherState, combined_loss, ema_update,
                         info_nce_loss, make_teacher, soft_distillation_terms,
                         teacher_distribution, update_center)
from .prng import RandomStream, fisher_yates

LOG_TAU_MIN = float(np.log(0.005))
LOG_TAU_MAX = float(np.log(5.0))

_TAG_ORDER = 0x4F524452

# Tokens per encode_text call in embed_texts.  Larger packed blocks cost
# more in page faults than they save in calls (BENCH_text_pack.json).
TEXT_CHUNK_TOKENS = 512


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
        if not all(0 <= beta < 1 for beta in self.betas):
            raise DomainError(f"betas {self.betas} must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise DomainError(f"adam_eps must be positive, got {self.adam_eps}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise DomainError(f"warmup_epochs {self.warmup_epochs} must not exceed "
                              f"epochs {self.epochs}")
        if self.loss_mode not in ("combined", "infonce_only"):
            raise DomainError(f"unknown loss_mode {self.loss_mode!r}")
        aug, patch = self.augmentation, self.model.vision.patch_size
        if aug.global_crop_size != self.model.vision.image_size:
            raise DomainError("global crop size must equal the model input size")
        if aug.local_crop_size % patch != 0 or aug.local_crop_size > aug.global_crop_size:
            raise DomainError(f"local crop size {aug.local_crop_size} must be a multiple "
                              f"of the patch size {patch} no larger than the global "
                              f"crop size {aug.global_crop_size}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        """Inverse of to_dict; an unknown or ill-typed field, at any level,
        raises ValidationError."""
        return _dataclass_from_dict(cls, obj, "config")


def _dataclass_from_dict(cls, obj, where: str):
    """Build a config dataclass from parsed JSON, type-checking each field
    against its default: bool, int, float (ints accepted), str, a tuple of
    numbers of the default's length, or a nested config dataclass."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object, got {type(obj).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {unknown}")
    kwargs = {}
    for name, value in obj.items():
        f = fields[name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        path = f"{where}.{name}"
        if dataclasses.is_dataclass(default):
            kwargs[name] = _dataclass_from_dict(type(default), value, path)
            continue
        if isinstance(default, tuple):
            ok = (isinstance(value, (list, tuple)) and len(value) == len(default)
                  and all(_is_number(v) for v in value))
            value = tuple(float(v) for v in value) if ok else value
        elif isinstance(default, float):
            ok = _is_number(value)
            value = float(value) if ok else value
        else:
            # exact type: bool is a subclass of int, and neither may stand for the other
            ok = type(value) is type(default)
        if not ok:
            raise ValidationError(f"{path}: expected {type(default).__name__} like "
                                  f"{default!r}, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


def _is_number(value) -> bool:
    """A finite int or float, not a bool: NaN, infinities and ints past
    float's range are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment estimates plus the shared step counter: zeros at
    step 0 for ``params``, or the stored (m, v) ``moments`` at step ``t``."""

    def __init__(self, params: ModelParams, moments: tuple = None, t: int = 0):
        self.m, self.v = moments or [{k: np.zeros_like(p.data) for k, p in params.items()}
                                     for _ in range(2)]
        self.t = t


def adamw_step(params: ModelParams, grads: dict, moments: AdamState, lr: float,
               betas: tuple = (0.9, 0.98), eps: float = 1e-6,
               weight_decay: float = 0.0, skip: set = frozenset()):
    """Decoupled-weight-decay Adam update with bias correction from ``grads``
    (parameter name -> gradient array); mutates and returns (params, moments)."""
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
    train_fingerprint: str = None   # set by train; a resume must see the same records


def init_train_state(config: TrainConfig) -> TrainState:
    student = init_model_params(config.model, config.seed)
    teacher = make_teacher(student, ema_momentum=config.ema_momentum,
                           tau_teacher=config.tau_teacher,
                           center_momentum=config.center_momentum)
    return TrainState(config=config, student=student, teacher=teacher,
                      adam=AdamState(student))


def _train_fingerprint(records) -> str:
    """The record count and a CRC-32 over each record's image_ref and captions."""
    crc = 0
    for rec in records:
        crc = zlib.crc32(json.dumps([rec.image_ref, rec.captions], sort_keys=True).encode(), crc)
    return f"{len(records)} records, crc32 {crc:08x}"


_COUNTERS = ("step", "next_epoch", "adam_t")


def _group(config: ModelConfig, arrays) -> list[np.ndarray]:
    """One tensor group's arrays in parameter-spec order, which the container
    stores as one flat array."""
    return [arrays[name] for name, _ in _parameter_spec(config)]


def _unflat(config: ModelConfig, flat, group: str) -> dict[str, np.ndarray]:
    """Inverse of _group: the stored config defines every shape."""
    spec = list(_parameter_spec(config))
    sizes = [math.prod(shape) for _, shape in spec]
    if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and sum(sizes) == flat.size
            and flat.dtype in (np.float32, np.float64)):
        got = f"{flat.dtype} {flat.shape}" if isinstance(flat, np.ndarray) else type(flat)
        raise CheckpointShapeError(f"{group} section: expected {sum(sizes)} float32 or "
                                   f"float64 values, got {got}")
    ends = np.cumsum([0, *sizes]).tolist()
    return {name: flat[a:b].reshape(shape).copy()
            for (name, shape), a, b in zip(spec, ends, ends[1:])}


def save_checkpoint(state: TrainState, path):
    model = state.config.model
    ckpt.write_container(path, {
        "config": state.config.to_dict(),
        "counters": dict(zip(_COUNTERS, (state.step, state.next_epoch, state.adam.t)),
                         train_fingerprint=state.train_fingerprint),
        "center": state.teacher.center,
        "student": _group(model, {k: v.data for k, v in state.student.items()}),
        "teacher": _group(model, {k: v.data for k, v in state.teacher.params.items()}),
        "adam_m": _group(model, state.adam.m),
        "adam_v": _group(model, state.adam.v)})


def load_checkpoint(path) -> TrainState:
    sections = ckpt.read_container(path)   # a missing section is None, refused below
    try:
        config = TrainConfig.from_dict(sections.get("config"))
    except (ValidationError, DomainError) as e:
        raise CheckpointError(f"config section: {e}") from e
    counters, center = sections.get("counters"), sections.get("center")
    if not (isinstance(counters, dict) and all(type(counters.get(k)) is int for k in _COUNTERS)
            and isinstance(counters.get("train_fingerprint"), (str, type(None)))):
        raise CheckpointError(f"counters section needs integer {_COUNTERS} and a "
                              f"train_fingerprint, got {counters!r}")
    if not isinstance(center, np.ndarray) or center.shape != (config.model.dino.output_dim,):
        raise CheckpointError(f"center section needs a tensor of shape "
                              f"({config.model.dino.output_dim},)")
    student, teacher_params = (
        ModelParams(config.model, {k: Tensor(a, requires_grad=True, name=k, dtype=a.dtype)
                                   for k, a in _unflat(config.model, sections.get(g), g).items()})
        for g in ("student", "teacher"))
    teacher = TeacherState(params=teacher_params, center=center,
                           ema_momentum=config.ema_momentum,
                           tau_teacher=config.tau_teacher,
                           center_momentum=config.center_momentum)
    adam = AdamState(student, [_unflat(config.model, sections.get(g), g)
                               for g in ("adam_m", "adam_v")], counters["adam_t"])
    return TrainState(config=config, student=student, teacher=teacher, adam=adam,
                      step=counters["step"], next_epoch=counters["next_epoch"],
                      train_fingerprint=counters.get("train_fingerprint"))


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
    """[N, m] caption embeddings in input order, in the encoder's dtype.

    The texts are sorted by token length and encoded in packed chunks of at
    most TEXT_CHUNK_TOKENS tokens, so a chunk holds few distinct lengths.
    encode_text packs without padding, so each row is bit-identical to the
    text embedded alone, whatever else is in the list.
    """
    max_len = params.config.text.max_length
    token_lists = [tokenize(t, max_len) for t in texts]
    chunks, tokens = [], TEXT_CHUNK_TOKENS
    for i in sorted(range(len(texts)), key=lambda i: len(token_lists[i])):
        if tokens + len(token_lists[i]) > TEXT_CHUNK_TOKENS:
            chunks.append([])
            tokens = 0
        chunks[-1].append(i)
        tokens += len(token_lists[i])
    out = np.empty((len(texts), params.config.embed_dim), dtype=params["text.proj"].dtype)
    for rows in chunks:
        out[rows] = encode_text(params, [token_lists[i] for i in rows]).data
    return out


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _entropy(dist: np.ndarray) -> float:
    p = np.clip(dist.astype(np.float64), 1e-12, None)
    return float(-(p * np.log(p)).sum())


def _epoch_batches(records, batch_size: int, seed: int, epoch: int) -> list[list]:
    """The epoch's batches in step order, shuffled on (seed, epoch); the last
    incomplete batch is dropped."""
    by_index = {r.index: r for r in records}
    order = fisher_yates([r.index for r in records], RandomStream(_TAG_ORDER, seed, epoch))
    return [[by_index[i] for i in order[start:start + batch_size]]
            for start in range(0, len(order) - batch_size + 1, batch_size)]


def train(config: TrainConfig, records, *, data_root=None, resume: TrainState = None,
          stop_after_epoch: int = None, epoch_callback=None):
    """Run the combined-objective loop over the train split.

    Deterministic in (config, manifest): batch order, caption choice, and
    augmentation draws are all keyed on (seed, epoch, record index).  Each
    step loads the images it has not seen yet and builds its batch's
    view-major views in one make_views call; under infonce_only only global
    view 0, the one the contrastive loss encodes, is built.
    Returns (TrainState, MetricsLog).
    """
    train_records = [r for r in records if r.split == "train"]
    if not train_records:
        raise ContractError("manifest has no train records")
    if len(train_records) < config.batch_size:
        raise ContractError(f"batch_size {config.batch_size} exceeds train set "
                            f"of {len(train_records)} records (last incomplete "
                            "batch is dropped)")

    if resume is not None and config != resume.config:
        raise ContractError("a resumed run trains on its state's config; "
                            "pass resume.config as config")
    state = resume if resume is not None else init_train_state(config)
    fingerprint = _train_fingerprint(train_records)
    if state.train_fingerprint not in (None, fingerprint):
        raise ValidationError(f"cannot resume on different train records: the state has "
                              f"{state.train_fingerprint}, the manifest {fingerprint}")
    state.train_fingerprint = fingerprint
    policy = config.sampling
    distill = config.loss_mode == "combined"

    steps_per_epoch = len(train_records) // config.batch_size
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch
    max_len = config.model.text.max_length
    skip = {"log_tau"} if config.freeze_temperature else set()

    metrics = MetricsLog()
    last_epoch = config.epochs if stop_after_epoch is None else min(stop_after_epoch,
                                                                    config.epochs)
    aug, n_global = config.augmentation, 2
    if not distill:
        aug, n_global = dataclasses.replace(aug, n_local=0), 1
    images: dict[int, np.ndarray] = {}

    for epoch in range(state.next_epoch, last_epoch):
        for batch in _epoch_batches(train_records, config.batch_size, config.seed, epoch):
            lr = lr_schedule(state.step, total_steps, warmup_steps, config.learning_rate)
            captions = [sample_caption(rec, epoch, policy) for rec in batch]
            for rec in batch:
                if rec.index not in images:
                    images[rec.index] = load_record_image(rec, root=data_root)
            globals_, locals_ = make_views([images[rec.index] for rec in batch], aug,
                                           [RandomStream(config.seed, epoch, rec.index)
                                            for rec in batch], n_global)
            b = len(batch)

            teacher_entropy = None
            if distill:
                teacher_logits = project_dino(state.teacher.params,
                                              encode_images(state.teacher.params,
                                                            Tensor(globals_))).data
                dists = teacher_distribution(teacher_logits, state.teacher)   # [2B, K]
                teacher_dists = dists.reshape(2, b, -1)
                teacher_entropy = _entropy(dists.mean(axis=0))

            with Tape() as tape:
                u = encode_text(state.student,
                                [tokenize(c.text, max_len) for c in captions])
                tau = ad.exp(state.student.log_tau)
                emb = encode_images(state.student, Tensor(globals_))   # [n_global*B, m]
                v_first = ad.gather_rows(emb, np.arange(b))
                if len(locals_):
                    emb = ad.concat([emb, encode_images(state.student, Tensor(locals_))])
                loss_nce = info_nce_loss(ContrastiveBatch(captions=u, images=v_first,
                                                          tau=tau))
                if distill:
                    probs = ad.softmax(project_dino(state.student, emb), axis=-1,
                                       temperature=config.tau_student)
                    loss_dist = soft_distillation_terms(teacher_dists, probs,
                                                        config.average_pairs)
                    loss = combined_loss(loss_nce, loss_dist)
                else:
                    loss, loss_dist = loss_nce, None

            loss_val, nce_val = loss.item(), loss_nce.item()
            dist_val = None if loss_dist is None else loss_dist.item()
            if not np.isfinite(loss_val):
                raise NumericError(f"non-finite loss {loss_val} at step {state.step} "
                                   f"(epoch {epoch}, lr {lr:.3e}): InfoNCE {nce_val}, "
                                   f"distillation {dist_val}")

            tensors = state.student.tensors
            grads = dict(zip(tensors, backward(tape, loss, params=tensors.values())))
            adamw_step(state.student, grads, state.adam, lr, betas=config.betas,
                       eps=config.adam_eps, weight_decay=config.weight_decay,
                       skip=skip)
            clamped = np.clip(state.student.log_tau.data, LOG_TAU_MIN, LOG_TAU_MAX)
            state.student.tensors["log_tau"] = Tensor(clamped, requires_grad=True,
                                                      name="log_tau",
                                                      dtype=clamped.dtype)

            if distill:
                ema_update(state.teacher, state.student)
                update_center(state.teacher, teacher_logits)

            state.step += 1
            metrics.append(step=state.step, epoch=epoch, loss_infonce=nce_val,
                           loss_distill=dist_val, loss_combined=loss_val, lr=float(lr),
                           teacher_entropy=teacher_entropy)
        state.next_epoch = epoch + 1
        if epoch_callback is not None and epoch_callback(state, metrics):
            break
    return state, metrics
