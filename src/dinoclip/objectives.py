"""Training losses and teacher dynamics.

Two objectives are combined: a symmetric InfoNCE loss over matched
caption/image embedding pairs, and a self-distillation loss where a student
matches the centered/sharpened output distribution of an EMA teacher across
global and local views.  The combined loss is their plain average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import ModelParams
from .errors import ContractError, DomainError, ShapeError

DEFAULT_TEACHER_TAU = 0.04
DEFAULT_CENTER_MOMENTUM = 0.9
DEFAULT_EMA_MOMENTUM = 0.996


@dataclass
class ContrastiveBatch:
    """Matched caption embeddings U and image embeddings V, row i paired."""

    captions: Tensor      # [N, m]
    images: Tensor        # [N, m]
    tau: Tensor | float   # positive temperature, may be a learnable tensor

    def __post_init__(self):
        u, v = self.captions, self.images
        if u.ndim != 2 or v.ndim != 2 or u.shape != v.shape:
            raise ShapeError(f"contrastive batch needs matching [N, m] matrices, "
                             f"got {u.shape} and {v.shape}")
        tau = self.tau.item() if isinstance(self.tau, Tensor) else float(self.tau)
        if not tau > 0:
            raise DomainError(f"temperature must be positive, got {tau}")

    @property
    def n(self) -> int:
        return self.captions.shape[0]


@dataclass
class TeacherState:
    """EMA copy of the student plus the centering vector and temperatures."""

    params: ModelParams
    center: np.ndarray                                   # [K]
    ema_momentum: float = DEFAULT_EMA_MOMENTUM           # lambda
    tau_teacher: float = DEFAULT_TEACHER_TAU
    center_momentum: float = DEFAULT_CENTER_MOMENTUM

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float32)
        k = self.params.config.dino.output_dim
        if self.center.shape != (k,):
            raise ShapeError(f"center must have shape ({k},), got {self.center.shape}")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise DomainError(f"EMA momentum must lie in [0, 1], got {self.ema_momentum}")
        if not 0.0 <= self.center_momentum <= 1.0:
            raise DomainError(f"center momentum must lie in [0, 1], got {self.center_momentum}")
        if not self.tau_teacher > 0:
            raise DomainError(f"teacher temperature must be positive, got {self.tau_teacher}")


def make_teacher(student: ModelParams, **kwargs) -> TeacherState:
    """Teacher initialized as an exact copy of the student, zero center."""
    k = student.config.dino.output_dim
    return TeacherState(params=student.clone(), center=np.zeros(k, dtype=np.float32), **kwargs)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def info_nce_loss(batch: ContrastiveBatch) -> Tensor:
    """Symmetric InfoNCE over the N x N cosine-similarity matrix.

    Per direction the loss is the mean negative log-probability of the
    matched column (softmax over in-batch negatives at temperature tau);
    the two directions are averaged.
    """
    n = batch.n
    if n == 0:
        raise ContractError("empty contrastive batch")
    u = ad.l2_normalize(batch.captions, axis=-1)
    v = ad.l2_normalize(batch.images, axis=-1)
    sims = ad.matmul(u, ad.transpose(v))                      # [N, N], row i = caption i
    logits = ad.div(sims, batch.tau)
    eye = np.eye(n, dtype=logits.dtype)
    t2i = ad.neg(ad.mul(ad.sum_(ad.mul(ad.log_softmax(logits, axis=1), eye)), 1.0 / n))
    i2t = ad.neg(ad.mul(ad.sum_(ad.mul(ad.log_softmax(logits, axis=0), eye)), 1.0 / n))
    return ad.mul(ad.add(t2i, i2t), 0.5)


def teacher_distribution(z: np.ndarray, state: TeacherState) -> np.ndarray:
    """Centered and sharpened teacher output: softmax((z - c) / tau_t).

    Pure value computation over a [B, K] logit block: the centered logits
    are a fresh Tensor that requires no gradient, so no tape records them.
    """
    k = state.center.shape[0]
    if z.shape[-1] != k:
        raise ShapeError(f"teacher logits last dim {z.shape} vs center ({k},)")
    return ad.softmax(Tensor(z - state.center.astype(z.dtype)), axis=-1,
                      temperature=state.tau_teacher).data


def soft_distillation_terms(teacher_dists, student_probs: Tensor,
                            average_pairs: bool = True) -> Tensor:
    """Cross entropy from each of the two teacher global views to every
    other student view, averaged over the pairs (raw sum when average_pairs
    is False).

    ``teacher_dists`` holds the two global views' plain [B, K] blocks;
    ``student_probs`` is one view-major [V * B, K] tensor on the tape, the
    two global views first.  Each pair term is the batch-mean cross
    entropy, which is linear in its target, so student view v takes the
    sum of the teacher views other than v as target (T1 for view 0, T0 for
    view 1, T0 + T1 for every local view) and one cross entropy over all
    V * B rows, scaled by V, is the sum over the 2 * (V - 1) pairs:
    2 global + 8 local views make 18."""
    if len(teacher_dists) != 2:
        raise ContractError(f"need 2 teacher (global) view blocks, got {len(teacher_dists)}")
    t0, t1 = (np.asarray(t) for t in teacher_dists)
    v = student_probs.shape[0] // t0.shape[0]
    # a row count that is not V >= 2 views of B fails the shape check here
    ce = ad.soft_cross_entropy(np.concatenate([t1, t0] + [t0 + t1] * (v - 2)),
                               student_probs)                         # sum / (V * B)
    return ad.mul(ce, v / (2 * (v - 1)) if average_pairs else float(v))


def combined_loss(contrastive, distillation) -> Tensor:
    """Average of the two objectives, tensors or plain numbers."""
    return ad.mul(ad.add(contrastive, distillation), 0.5)


# ---------------------------------------------------------------------------
# teacher updates (value-level, outside any tape)
# ---------------------------------------------------------------------------

def ema_update(teacher: TeacherState, student: ModelParams) -> TeacherState:
    """theta_t <- lambda * theta_t + (1 - lambda) * theta_s, elementwise."""
    t_params, s_params = teacher.params, student
    if list(t_params.names()) != list(s_params.names()):
        raise ContractError("teacher and student parameter trees differ")
    lam = teacher.ema_momentum
    if lam == 1.0:
        return teacher
    for name, s_tensor in s_params.items():
        t_tensor = t_params[name]
        if t_tensor.shape != s_tensor.shape:
            raise ContractError(f"parameter {name!r}: teacher shape {t_tensor.shape} "
                                f"vs student {s_tensor.shape}")
        if lam == 0.0:
            new = s_tensor.data.copy()
        else:
            new = lam * t_tensor.data + (1.0 - lam) * s_tensor.data
        t_params.tensors[name] = Tensor(new, requires_grad=False, name=name, dtype=new.dtype)
    return teacher


def update_center(state: TeacherState, z: np.ndarray) -> TeacherState:
    """c <- momentum * c + (1 - momentum) * batch mean of teacher logits."""
    if z.ndim != 2 or z.shape[0] < 1:
        raise ContractError(f"need a non-empty [B, K] logit batch, got shape {z.shape}")
    if z.shape[1] != state.center.shape[0]:
        raise ShapeError(f"logit width {z.shape[1]} vs center {state.center.shape[0]}")
    m = state.center_momentum
    batch_mean = z.mean(axis=0).astype(np.float32)
    state.center = (m * state.center + (1.0 - m) * batch_mean).astype(np.float32)
    return state
