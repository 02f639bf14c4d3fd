"""Optimization loop tying together encoders, objectives, and the data
pipeline: AdamW with linear warmup and cosine decay, EMA teacher updates
whose momentum follows DINO's cosine to 1, centering, metrics logging, and
checkpoint persistence.
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
                   make_views, sample_caption, split_records, tokenize)
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
# Most images per encode_images call in embed_record_images
IMAGE_CHUNK_IMAGES = 64


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.00025
    epochs: int = 200
    warmup_epochs: int = 10
    weight_decay: float = 0.05
    betas: tuple = (0.9, 0.98)
    adam_eps: float = 1e-6
    ema_momentum: float = 0.996             # the base; the schedule ends at 1
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
        if not (self.tau_student > 0 and self.tau_teacher > 0 and self.weight_decay >= 0
                and 0 <= self.ema_momentum <= 1 and 0 <= self.center_momentum <= 1):
            raise DomainError(
                f"tau_student {self.tau_student} and tau_teacher {self.tau_teacher} must be "
                f"positive, weight_decay {self.weight_decay} >= 0, and ema_momentum "
                f"{self.ema_momentum} and center_momentum {self.center_momentum} in [0, 1]")
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

@dataclass
class AdamState:
    """First and second moment estimates, one array per tensor AdamW steps."""

    m: dict
    v: dict


def adamw_step(params: ModelParams, grads: dict, moments: AdamState, t: int, lr: float,
               betas: tuple, eps: float, weight_decay: float):
    """Decoupled-weight-decay Adam update of each tensor named in ``grads``
    (parameter name -> gradient array), with bias correction for update
    ``t`` (1 at the first); mutates and returns (params, moments).

    Only tensors of rank >= 2 decay: biases, norm gains, ``log_tau`` and
    ``dino.last_scale`` do not, as DINO's and CLIP's parameter groups
    exempt them.  A Python float ``lr`` keeps the update in the tensors'
    dtype."""
    b1, b2 = betas
    if grads.keys() != moments.m.keys() or not grads.keys() <= params.names():
        raise ContractError("optimizer state does not match parameter tree")
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, g in grads.items():
        p = params[name]
        if not g.shape == moments.m[name].shape == p.shape:
            raise ContractError(f"{name!r}: gradient shape {g.shape}, moment shape "
                                f"{moments.m[name].shape}, parameter shape {p.shape}")
        m = moments.m[name] = b1 * moments.m[name] + (1.0 - b1) * g
        v = moments.v[name] = b2 * moments.v[name] + (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        new = p.data - lr * update
        if p.ndim >= 2:
            new -= lr * weight_decay * p.data
        params.tensors[name] = Tensor(new, requires_grad=True, name=name, dtype=p.dtype)
    return params, moments


def lr_schedule(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp 0 -> base_lr over warmup, cosine decay to 0 afterward."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def momentum_schedule(step: int, total_steps: int, base: float) -> float:
    """DINO's teacher momentum for EMA update ``step`` (1 at the first) of
    ``total_steps``: a cosine from ``base`` at the first update to 1 at the
    last, base + (1 - base) * (1 - cos(pi * (step - 1) / (total_steps - 1))) / 2.
    A run of one update uses ``base``."""
    if not 1 <= step <= total_steps:
        raise ContractError(f"update {step} outside [1, {total_steps}]")
    progress = (step - 1) / max(1, total_steps - 1)
    return base + (1.0 - base) * 0.5 * (1.0 - math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsLog:
    records: list = field(default_factory=list)

    def append(self, record: dict):
        if self.records and record["step"] <= self.records[-1]["step"]:
            raise ContractError(f"metric steps must be strictly increasing "
                                f"(got {record['step']} after {self.records[-1]['step']})")
        self.records.append(record)

    def write_jsonl(self, path):
        """One JSON line per record, written through checkpoint.write_atomic."""
        lines = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.records)
        ckpt.write_atomic(path, lambda f: f.write(lines.encode("utf-8")))


# ---------------------------------------------------------------------------
# training state and persistence
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    config: TrainConfig
    student: ModelParams
    teacher: TeacherState | None    # None under infonce_only
    adam: AdamState
    step: int = 0                   # also AdamW's bias-correction count
    next_epoch: int = 0
    train_fingerprint: str = None   # set by train; a resume must see the same records


def _teacher_spec(config: ModelConfig) -> list:
    """What a teacher forward reads: the image tower and DINO head spec entries."""
    return [e for e in _parameter_spec(config) if e[0].startswith(("vision.", "dino."))]


def _trained_spec(config: TrainConfig) -> list:
    """What AdamW steps, the spec entries a loss reads: every tensor under
    combined, none of the DINO head under infonce_only, and not log_tau
    under freeze_temperature."""
    return [(name, shape) for name, shape in _parameter_spec(config.model)
            if not (name.startswith("dino.") and config.loss_mode != "combined"
                    or name == "log_tau" and config.freeze_temperature)]


def init_train_state(config: TrainConfig) -> TrainState:
    student = init_model_params(config.model, config.seed)
    teacher = None
    if config.loss_mode == "combined":
        tower = {n: student[n] for n, _ in _teacher_spec(config.model)}
        teacher = make_teacher(ModelParams(config.model, tower), config.ema_momentum)
    return TrainState(config=config, student=student, teacher=teacher,
                      adam=AdamState(*({n: np.zeros_like(student[n].data)
                                        for n, _ in _trained_spec(config)} for _ in range(2))))


def _train_fingerprint(records) -> str:
    """The record count and a CRC-32 over each record's image_ref and captions."""
    crc = 0
    for rec in records:
        crc = zlib.crc32(json.dumps([rec.image_ref, rec.captions], sort_keys=True).encode(), crc)
    return f"{len(records)} records, crc32 {crc:08x}"


_COUNTERS = ("step", "next_epoch")


def _group(spec: list, arrays) -> list[np.ndarray]:
    """One tensor group's arrays in ``spec`` order, which the container
    stores as one flat array."""
    return [arrays[name] for name, _ in spec]


def _unflat(spec: list, flat, group: str) -> dict[str, np.ndarray]:
    """Inverse of _group: the stored config defines every shape."""
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
    spec, a_spec = list(_parameter_spec(state.config.model)), _trained_spec(state.config)
    sections = {
        "config": state.config.to_dict(),
        "counters": dict(zip(_COUNTERS, (state.step, state.next_epoch)),
                         train_fingerprint=state.train_fingerprint),
        "student": _group(spec, {k: v.data for k, v in state.student.items()}),
        "adam_m": _group(a_spec, state.adam.m),
        "adam_v": _group(a_spec, state.adam.v)}
    if state.teacher is not None:
        teacher = {k: v.data for k, v in state.teacher.params.items()}
        sections.update(center=state.teacher.center,
                        teacher=_group(_teacher_spec(state.config.model), teacher))
    ckpt.write_container(path, sections)


def load_checkpoint(path) -> TrainState:
    sections = ckpt.read_container(path)   # a missing section is None, refused below
    try:
        config = TrainConfig.from_dict(sections.get("config"))
    except (ValidationError, DomainError) as e:
        raise CheckpointError(f"config section: {e}") from e
    counters = sections.get("counters")
    if not (isinstance(counters, dict) and set(counters) == {*_COUNTERS, "train_fingerprint"}
            and all(type(counters[k]) is int for k in _COUNTERS)
            and counters["step"] >= 0 and 0 <= counters["next_epoch"] <= config.epochs
            and isinstance(counters["train_fingerprint"], (str, type(None)))):
        raise CheckpointError(f"counters section needs exactly an integer step >= 0, an integer "
                              f"next_epoch in [0, {config.epochs}] and a train_fingerprint, "
                              f"got {counters!r}")
    members = {"config", "counters", "student", "adam_m", "adam_v"}
    if config.loss_mode == "combined":
        members |= {"teacher", "center"}
    if stray := sorted(set(sections) - members):
        raise CheckpointError(f"members {stray} are not read under {config.loss_mode}")

    def params(group, spec, requires_grad):
        return ModelParams(config.model, {
            k: Tensor(a, requires_grad=requires_grad, name=k, dtype=a.dtype)
            for k, a in _unflat(spec, sections.get(group), group).items()})

    student, teacher = params("student", list(_parameter_spec(config.model)), True), None
    if config.loss_mode == "combined":
        center, k = sections.get("center"), config.model.dino.output_dim
        if not isinstance(center, np.ndarray) or center.shape != (k,):
            raise CheckpointError(f"center section needs a tensor of shape ({k},)")
        teacher = TeacherState(params=params("teacher", _teacher_spec(config.model), False),
                               center=center, ema_momentum=config.ema_momentum)
    adam = AdamState(*(_unflat(_trained_spec(config), sections.get(g), g)
                       for g in ("adam_m", "adam_v")))
    return TrainState(config=config, student=student, teacher=teacher, adam=adam,
                      step=counters["step"], next_epoch=counters["next_epoch"],
                      train_fingerprint=counters.get("train_fingerprint"))


# ---------------------------------------------------------------------------
# embedding helpers (shared by evaluation and the CLI)
# ---------------------------------------------------------------------------

def embed_record_images(params: ModelParams, records, data_root=None) -> np.ndarray:
    """Embed each record's full image, resized to the model input size.

    The images are loaded and encoded in chunks of at most
    IMAGE_CHUNK_IMAGES, so memory is bounded by the chunk, not by the list.
    An image's row has the same bits in any chunk, alone included."""
    size = params.config.vision.image_size
    out = []
    for start in range(0, len(records), IMAGE_CHUNK_IMAGES):
        rows = []
        for record in records[start:start + IMAGE_CHUNK_IMAGES]:
            img = load_record_image(record, root=data_root)
            if img.shape[1] != size or img.shape[2] != size:
                img = resize_bicubic(img, size)
            rows.append(img)
        out.append(encode_images(params, Tensor(np.stack(rows))).data)
    return np.concatenate(out)


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

def _epoch_batches(records, batch_size: int, seed: int, epoch: int) -> list[list]:
    """The epoch's batches in step order, shuffled on (seed, epoch); the last
    incomplete batch is dropped."""
    order = fisher_yates(records, RandomStream(_TAG_ORDER, seed, epoch))
    return [order[start:start + batch_size]
            for start in range(0, len(order) - batch_size + 1, batch_size)]


def _train_step(state: TrainState, batch, images, epoch: int, lr: float,
                momentum: float) -> dict:
    """One optimization step on ``batch`` and its loaded ``images``: builds
    the batch's view-major views in one make_views call (under infonce_only
    only global view 0, the one the contrastive loss encodes), runs the
    teacher (under combined) outside the tape and the student on it, then
    backward and AdamW over the tensors the state's moments hold, the
    log-temperature clamp, and the EMA update at ``momentum`` and the center
    update.  Advances ``state.step`` and returns the step's metrics record."""
    config = state.config
    distill = config.loss_mode == "combined"
    aug, n_global = config.augmentation, 2
    if not distill:
        aug, n_global = dataclasses.replace(aug, n_local=0), 1
    captions = [sample_caption(rec, epoch, config.sampling) for rec in batch]
    globals_, locals_ = make_views(images, aug, [RandomStream(config.seed, epoch, rec.index)
                                                 for rec in batch], n_global)
    b = len(batch)

    teacher_entropy = None
    if distill:
        teacher_logits = project_dino(state.teacher.params,
                                      encode_images(state.teacher.params, Tensor(globals_))).data
        dists = teacher_distribution(teacher_logits, state.teacher.center,
                                     config.tau_teacher)               # [2B, K]
        teacher_dists = dists.reshape(2, b, -1)
        mean = dists.mean(axis=0).astype(np.float64)
        teacher_entropy = ad.soft_cross_entropy(mean, Tensor(mean)).item()   # H(p) = CE(p, p)

    max_len = config.model.text.max_length
    with Tape() as tape:
        u = encode_text(state.student, [tokenize(c, max_len) for c in captions])
        tau = ad.exp(state.student["log_tau"])
        emb = encode_images(state.student, Tensor(globals_))   # [n_global*B, m]
        v_first = ad.take_index(emb, np.arange(b), 0)
        if len(locals_):
            emb = ad.concat([emb, encode_images(state.student, Tensor(locals_))])
        loss_nce = info_nce_loss(ContrastiveBatch(captions=u, images=v_first, tau=tau))
        if distill:
            # no name holds the [V·B, K] logits, so the sweep frees them
            loss_dist = soft_distillation_terms(teacher_dists, project_dino(state.student, emb),
                                                config.tau_student, config.average_pairs)
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
    trained = [tensors[n] for n in state.adam.m]   # the tensors AdamW steps
    grads = dict(zip(state.adam.m, backward(tape, loss, params=trained)))
    adamw_step(state.student, grads, state.adam, state.step + 1, lr, config.betas,
               config.adam_eps, config.weight_decay)
    clamped = np.clip(state.student["log_tau"].data, LOG_TAU_MIN, LOG_TAU_MAX)
    tensors["log_tau"] = Tensor(clamped, requires_grad=True, name="log_tau", dtype=clamped.dtype)

    if distill:
        state.teacher.ema_momentum = momentum
        ema_update(state.teacher, state.student)
        update_center(state.teacher, teacher_logits, config.center_momentum)

    state.step += 1
    return {"step": state.step, "epoch": epoch, "loss_infonce": nce_val,
            "loss_distill": dist_val, "loss_combined": loss_val, "lr": float(lr),
            "teacher_entropy": teacher_entropy}


def train(config: TrainConfig, records, *, data_root=None, resume: TrainState = None,
          stop_after_epoch: int = None, epoch_callback=None):
    """Run the combined-objective loop over the train split, one _train_step
    per batch.

    Deterministic in (config, manifest): batch order, caption choice, and
    augmentation draws are all keyed on (seed, epoch, record index).  Each
    image is loaded the first time a batch needs it and kept for the run.
    Returns (TrainState, MetricsLog).
    """
    train_records = split_records(records, "train")
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
    steps_per_epoch = len(train_records) // config.batch_size
    if state.step != state.next_epoch * steps_per_epoch:
        raise CheckpointError(f"the state is at step {state.step} after {state.next_epoch} "
                              f"epochs of {steps_per_epoch} steps")
    state.train_fingerprint = fingerprint

    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch
    metrics = MetricsLog()
    last_epoch = config.epochs if stop_after_epoch is None else min(stop_after_epoch,
                                                                    config.epochs)
    images: dict[int, np.ndarray] = {}

    for epoch in range(state.next_epoch, last_epoch):
        for batch in _epoch_batches(train_records, config.batch_size, config.seed, epoch):
            for rec in batch:
                if rec.index not in images:
                    images[rec.index] = load_record_image(rec, root=data_root)
            lr = lr_schedule(state.step, total_steps, warmup_steps, config.learning_rate)
            momentum = momentum_schedule(state.step + 1, total_steps, config.ema_momentum)
            metrics.append(_train_step(state, batch, [images[rec.index] for rec in batch],
                                       epoch, lr, momentum))
        state.next_epoch = epoch + 1
        if epoch_callback is not None and epoch_callback(state, metrics):
            break
    return state, metrics
