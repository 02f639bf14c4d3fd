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


@dataclass
class TeacherState:
    """EMA copy of the student's image tower and DINO head, its center, and
    the momentum lambda of its next EMA update (the trainer sets it from
    its schedule before each update)."""

    params: ModelParams
    center: np.ndarray                                   # [K]
    ema_momentum: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float32)
        k = self.params.config.dino.output_dim
        if self.center.shape != (k,):
            raise ShapeError(f"center must have shape ({k},), got {self.center.shape}")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise DomainError(f"EMA momentum must lie in [0, 1], got {self.ema_momentum}")


def make_teacher(student: ModelParams, ema_momentum: float) -> TeacherState:
    """Teacher initialized as an exact copy of ``student``, whichever tensors
    it holds, as constants that no tape records, and a zero center."""
    params = ModelParams(student.config, {k: Tensor(v.data.copy(), name=k, dtype=v.dtype)
                                          for k, v in student.items()})
    k = student.config.dino.output_dim
    return TeacherState(params=params, center=np.zeros(k, dtype=np.float32),
                        ema_momentum=ema_momentum)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def info_nce_loss(batch: ContrastiveBatch) -> Tensor:
    """Symmetric InfoNCE over the N x N cosine logits at temperature tau: the
    cross entropy from identity targets to the softmax of their rows (caption
    to image) and of their columns (image to caption), averaged, as one
    soft_cross_entropy_logits node over the 2N rows of [logits; logits^T],
    the node the distillation term uses.  A learnable tau gets its gradient
    through the division."""
    n = batch.captions.shape[0]
    if n == 0:
        raise ContractError("empty contrastive batch")
    u = ad.l2_normalize(batch.captions, axis=-1)
    v = ad.l2_normalize(batch.images, axis=-1)
    sims = ad.matmul(u, ad.transpose(v))                      # [N, N], row i = caption i
    logits = ad.div(sims, batch.tau)
    eye = np.eye(n, dtype=logits.dtype)
    return ad.soft_cross_entropy_logits(np.concatenate([eye, eye]),
                                        ad.concat([logits, ad.transpose(logits)]), 1.0)


def teacher_distribution(z: np.ndarray, center: np.ndarray, tau_teacher: float) -> np.ndarray:
    """Centered and sharpened teacher output: softmax((z - c) / tau_t).

    Pure value computation over a [B, K] logit block: the centered logits
    are a fresh Tensor that requires no gradient, so no tape records them.
    """
    if z.shape[-1] != center.shape[0]:
        raise ShapeError(f"teacher logits last dim {z.shape} vs center {center.shape}")
    if not tau_teacher > 0:
        raise DomainError(f"teacher temperature must be positive, got {tau_teacher}")
    return ad.softmax(Tensor(z - center.astype(z.dtype)), axis=-1,
                      temperature=tau_teacher).data


def soft_distillation_terms(teacher_dists, student_logits: Tensor, tau_student: float,
                            average_pairs: bool = True) -> Tensor:
    """Cross entropy from each of the two teacher global views to the
    student's softmax(z / tau_s) on every other view, averaged over the
    pairs (raw sum when average_pairs is False).

    ``teacher_dists`` holds the two global views' plain [B, K] blocks;
    ``student_logits`` is one view-major [V * B, K] tensor on the tape, the
    two global views first.  Each pair term is the batch-mean cross
    entropy, which is linear in its target, so student view v takes the
    sum of the teacher views other than v as target (T1 for view 0, T0 for
    view 1, T0 + T1 for every local view) and one cross entropy over all
    V * B rows, scaled by V, is the sum over the 2 * (V - 1) pairs:
    2 global + 8 local views make 18.  The cross entropy takes DINO's
    log_softmax of the logits, so no student probability is clamped."""
    if len(teacher_dists) != 2:
        raise ContractError(f"need 2 teacher (global) view blocks, got {len(teacher_dists)}")
    t0, t1 = (np.asarray(t) for t in teacher_dists)
    v = student_logits.shape[0] // t0.shape[0]
    # a row count that is not V >= 2 views of B fails the shape check here
    ce = ad.soft_cross_entropy_logits(np.concatenate([t1, t0] + [t0 + t1] * (v - 2)),
                                      student_logits, tau_student)    # sum / (V * B)
    return ad.mul(ce, v / (2 * (v - 1)) if average_pairs else float(v))


def combined_loss(contrastive, distillation) -> Tensor:
    """Average of the two objectives, tensors or plain numbers."""
    return ad.mul(ad.add(contrastive, distillation), 0.5)


# ---------------------------------------------------------------------------
# teacher updates (value-level, outside any tape)
# ---------------------------------------------------------------------------

def ema_update(teacher: TeacherState, student: ModelParams) -> TeacherState:
    """theta_t <- lambda * theta_t + (1 - lambda) * theta_s for each tensor the teacher holds."""
    t_params, s_params = teacher.params, student
    if missing := t_params.names() - s_params.names():
        raise ContractError(f"student lacks teacher parameter(s) {sorted(missing)}")
    lam = teacher.ema_momentum
    for name, t_tensor in t_params.items():
        s_tensor = s_params[name]
        if t_tensor.shape != s_tensor.shape:
            raise ContractError(f"parameter {name!r}: teacher shape {t_tensor.shape} "
                                f"vs student {s_tensor.shape}")
        new = lam * t_tensor.data + (1.0 - lam) * s_tensor.data
        t_params.tensors[name] = Tensor(new, requires_grad=False, name=name, dtype=new.dtype)
    return teacher


def update_center(state: TeacherState, z: np.ndarray, m: float) -> TeacherState:
    """c <- m * c + (1 - m) * batch mean of teacher logits, m the center momentum."""
    if z.ndim != 2 or z.shape[0] < 1:
        raise ContractError(f"need a non-empty [B, K] logit batch, got shape {z.shape}")
    if z.shape[1] != state.center.shape[0]:
        raise ShapeError(f"logit width {z.shape[1]} vs center {state.center.shape[0]}")
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"center momentum must lie in [0, 1], got {m}")
    batch_mean = z.mean(axis=0).astype(np.float32)
    state.center = (m * state.center + (1.0 - m) * batch_mean).astype(np.float32)
    return state
