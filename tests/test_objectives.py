"""Loss definitions and teacher dynamics against independent recomputations."""

import numpy as np
import pytest

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tape, Tensor, backward
from dinoclip.encoders import init_model_params
from dinoclip.errors import ContractError, DomainError, NumericError
from dinoclip.evaluation import cosine_matrix
from dinoclip.objectives import (ContrastiveBatch, combined_loss, ema_update,
                                 info_nce_loss, make_teacher, soft_distillation_terms,
                                 teacher_distribution, update_center)

from conftest import DistributionSet, self_distillation_loss, tiny_model_config


# -------------------------------------------------------------------------
# cosine similarity
# -------------------------------------------------------------------------

def _cosine(a, b) -> float:
    return float(cosine_matrix(np.asarray(a)[None, :], np.asarray(b)[None, :])[0, 0])


def test_cosine_self_similarity_is_one(rng):
    v = rng.normal(size=8).astype(np.float32)
    assert abs(_cosine(v, v) - 1.0) < 1e-6


def test_cosine_orthogonal_is_zero():
    a = np.array([1.0, 0.0], dtype=np.float32)
    b = np.array([0.0, 1.0], dtype=np.float32)
    assert abs(_cosine(a, b)) < 1e-7


def test_cosine_antipodal_is_minus_one(rng):
    v = rng.normal(size=5).astype(np.float32)
    assert abs(_cosine(v, -v) + 1.0) < 1e-6


# -------------------------------------------------------------------------
# InfoNCE
# -------------------------------------------------------------------------

def _nce_reference(u, v, tau):
    """Independent float64 recomputation straight from the definition."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    un = u / np.linalg.norm(u, axis=1, keepdims=True)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    sims = un @ vn.T / tau
    n = u.shape[0]
    t2i = 0.0
    i2t = 0.0
    for i in range(n):
        t2i += -np.log(np.exp(sims[i, i]) / np.exp(sims[i, :]).sum())
        i2t += -np.log(np.exp(sims[i, i]) / np.exp(sims[:, i]).sum())
    return 0.5 * (t2i + i2t) / n


def test_info_nce_single_pair_is_exactly_zero(rng):
    u = Tensor(rng.normal(size=(1, 6)).astype(np.float32))
    v = Tensor(rng.normal(size=(1, 6)).astype(np.float32))
    assert info_nce_loss(ContrastiveBatch(u, v, tau=0.07)).item() == 0.0


def test_info_nce_separable_limit():
    eye = np.eye(4, dtype=np.float32)
    batch = ContrastiveBatch(Tensor(eye), Tensor(eye), tau=0.01)
    assert info_nce_loss(batch).item() < 1e-3


def test_info_nce_matches_independent_recomputation(rng):
    for _ in range(20):
        u = rng.normal(size=(3, 5))
        v = rng.normal(size=(3, 5))
        got = info_nce_loss(ContrastiveBatch(Tensor(u, dtype=np.float64),
                                             Tensor(v, dtype=np.float64),
                                             tau=0.2)).item()
        assert abs(got - _nce_reference(u, v, 0.2)) < 1e-6


def test_info_nce_empty_batch_rejected():
    with pytest.raises(ContractError):
        info_nce_loss(ContrastiveBatch(Tensor(np.zeros((0, 4))),
                                       Tensor(np.zeros((0, 4))), tau=0.1))


def test_info_nce_scale_invariance(rng):
    u = rng.normal(size=(5, 6))
    v = rng.normal(size=(5, 6))
    base = info_nce_loss(ContrastiveBatch(Tensor(u, dtype=np.float64),
                                          Tensor(v, dtype=np.float64), tau=0.1)).item()
    for c in (0.01, 3.0, 250.0):
        got = info_nce_loss(ContrastiveBatch(Tensor(u * c, dtype=np.float64),
                                             Tensor(v, dtype=np.float64), tau=0.1)).item()
        assert abs(got - base) < 1e-9


def test_info_nce_pair_consistent_permutation_invariance(rng):
    u = rng.normal(size=(6, 4))
    v = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    a = info_nce_loss(ContrastiveBatch(Tensor(u, dtype=np.float64),
                                       Tensor(v, dtype=np.float64), tau=0.3)).item()
    b = info_nce_loss(ContrastiveBatch(Tensor(u[perm], dtype=np.float64),
                                       Tensor(v[perm], dtype=np.float64), tau=0.3)).item()
    assert abs(a - b) < 1e-9


def test_info_nce_nonnegative(rng):
    for _ in range(10):
        u = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        assert info_nce_loss(ContrastiveBatch(Tensor(u), Tensor(v), tau=0.5)).item() >= 0.0


def test_info_nce_gradient_reaches_learnable_temperature(rng):
    log_tau = ad.parameter(np.asarray(-1.0), "log_tau", dtype=np.float64)
    u = ad.parameter(rng.normal(size=(3, 4)), "u", dtype=np.float64)
    v = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    with Tape() as tape:
        loss = info_nce_loss(ContrastiveBatch(u, v, tau=ad.exp(log_tau)))
    grads = backward(tape, loss, params=[log_tau, u])
    assert grads[log_tau].data != 0.0


# -------------------------------------------------------------------------
# teacher / student distributions
# -------------------------------------------------------------------------

def _teacher_state(k=8, **kwargs):
    params = init_model_params(tiny_model_config(k), seed=0)
    return make_teacher(params, **kwargs)


def test_teacher_distribution_centered_out_is_uniform(rng):
    state = _teacher_state()
    state.center = rng.normal(size=8).astype(np.float32)
    dist = teacher_distribution(state.center.copy(), state)
    assert np.allclose(dist, 1.0 / 8, atol=1e-6)


def test_teacher_distribution_sharpening_concentrates(rng):
    state = _teacher_state(tau_teacher=0.005)
    logits = 0.01 * rng.normal(size=8).astype(np.float32)
    logits[3] = logits.max() + 0.2            # gap / tau_t = 40 >> 10
    dist = teacher_distribution(logits, state)
    assert dist[np.argmax(logits)] > 0.99


def test_teacher_distribution_sums_to_one(rng):
    state = _teacher_state()
    for _ in range(10):
        dist = teacher_distribution(rng.normal(size=8).astype(np.float32), state)
        assert abs(dist.sum() - 1.0) < 1e-6


# The student distribution is softmax(z / tau_s), computed by ad.softmax.

def test_student_distribution_uniform_and_identity(rng):
    assert np.allclose(ad.softmax(Tensor(np.zeros(6)), temperature=0.1).data, 1 / 6,
                       atol=1e-7)
    z = rng.normal(size=6)
    a = ad.softmax(Tensor(z / 0.5, dtype=np.float64)).data
    b = ad.softmax(Tensor(z, dtype=np.float64), temperature=0.5).data
    assert np.allclose(a, b)


def test_student_distribution_monotone(rng):
    z = np.sort(rng.normal(size=7))
    p = ad.softmax(Tensor(z, dtype=np.float64), temperature=0.3).data
    assert (np.diff(p) > 0).all()


def test_student_distribution_rejects_bad_temperature():
    with pytest.raises(DomainError):
        ad.softmax(Tensor(np.zeros(3)), temperature=0.0)


# -------------------------------------------------------------------------
# self-distillation
# -------------------------------------------------------------------------

def _rows(dists):
    """[K] distributions -> [1, K] float64 teacher blocks for soft_distillation_terms."""
    return [np.asarray(d, dtype=np.float64)[None, :] for d in dists]


def _blocks(dists):
    """[K] distributions -> [1, K] float64 student blocks (tensors)."""
    return [Tensor(r, dtype=np.float64) for r in _rows(dists)]


def test_pair_count_formula(rng):
    for n_views, pairs in ((10, 18), (3, 4)):
        teacher = [rng.dirichlet(np.ones(4)) for _ in range(2)]
        student = _blocks(rng.dirichlet(np.ones(4)) for _ in range(n_views))
        avg = soft_distillation_terms(_rows(teacher), student).item()
        raw = soft_distillation_terms(_rows(teacher), student, average_pairs=False).item()
        assert abs(raw - pairs * avg) < 1e-9


def test_self_distillation_uniform_equals_log_k():
    k, n_views = 8, 5
    u = np.full(k, 1.0 / k)
    loss = soft_distillation_terms(_rows([u] * 2), _blocks([u] * n_views))
    assert abs(loss.item() - np.log(k)) < 1e-6


def test_self_distillation_matches_brute_force(rng):
    k, n_views = 6, 4
    teacher = [rng.dirichlet(np.ones(k)) for _ in range(2)]
    student = [rng.dirichlet(np.ones(k)) for _ in range(n_views)]
    got = soft_distillation_terms(_rows(teacher), _blocks(student)).item()

    total, pairs = 0.0, 0
    for ti in range(2):
        for si in range(n_views):
            if si == ti:
                continue
            total += -(teacher[ti] * np.log(np.maximum(student[si], 1e-12))).sum()
            pairs += 1
    assert pairs == 2 * (n_views - 1)
    assert abs(got - total / pairs) < 1e-6


def test_self_distillation_raw_sum_variant(rng):
    k = 5
    teacher = _rows(rng.dirichlet(np.ones(k)) for _ in range(2))
    student = _blocks(rng.dirichlet(np.ones(k)) for _ in range(3))
    avg = soft_distillation_terms(teacher, student, average_pairs=True).item()
    raw = soft_distillation_terms(teacher, student, average_pairs=False).item()
    assert abs(raw - avg * 4) < 1e-9


def test_self_distillation_needs_two_globals():
    u = np.full(4, 0.25)
    with pytest.raises(ContractError):
        soft_distillation_terms(_rows([u]), _blocks([u] * 3))


def test_self_distillation_lower_bound_is_teacher_entropy(rng):
    k = 7
    p = rng.dirichlet(np.ones(k))
    entropy = -(p * np.log(p)).sum()
    got = soft_distillation_terms(_rows([p] * 2), _blocks([p] * 4)).item()
    assert abs(got - entropy) < 1e-9
    # any other student distribution can only increase the loss
    q = rng.dirichlet(np.ones(k))
    worse = soft_distillation_terms(_rows([p] * 2), _blocks([q] * 4)).item()
    assert worse >= got - 1e-12


def test_batched_terms_match_scalar_form(rng):
    """The scalar oracle in conftest, averaged over the batch."""
    k, b = 5, 3
    teacher = [rng.dirichlet(np.ones(k), size=b) for _ in range(2)]
    student = [rng.dirichlet(np.ones(k), size=b) for _ in range(4)]
    batched = soft_distillation_terms(teacher, [Tensor(s, dtype=np.float64)
                                                for s in student]).item()
    per_item = []
    for i in range(b):
        dists = DistributionSet(teacher=[Tensor(t[i], dtype=np.float64) for t in teacher],
                                student=[Tensor(s[i], dtype=np.float64) for s in student])
        per_item.append(self_distillation_loss(dists).item())
    assert abs(batched - np.mean(per_item)) < 1e-9


# -------------------------------------------------------------------------
# EMA and centering
# -------------------------------------------------------------------------

def test_ema_lambda_one_keeps_teacher_bit_identical():
    student = init_model_params(tiny_model_config(), seed=1)
    teacher = make_teacher(student, ema_momentum=1.0)
    before = {k: v.data.copy() for k, v in teacher.params.items()}
    student2 = init_model_params(tiny_model_config(), seed=2)
    ema_update(teacher, student2)
    for name, arr in before.items():
        assert np.array_equal(arr, teacher.params[name].data), name


def test_ema_lambda_zero_copies_student():
    student = init_model_params(tiny_model_config(), seed=1)
    teacher = make_teacher(student, ema_momentum=0.0)
    student2 = init_model_params(tiny_model_config(), seed=2)
    ema_update(teacher, student2)
    for name, t in student2.items():
        assert np.array_equal(t.data, teacher.params[name].data), name


def test_ema_standard_momentum_scalar_case():
    student = init_model_params(tiny_model_config(), seed=1)
    teacher = make_teacher(student, ema_momentum=0.996)
    for name in teacher.params.names():
        shape = teacher.params[name].shape
        teacher.params.tensors[name] = Tensor(np.ones(shape, dtype=np.float32),
                                              name=name)
        student.tensors[name] = Tensor(np.zeros(shape, dtype=np.float32), name=name)
    ema_update(teacher, student)
    val = teacher.params["log_tau"].data
    assert np.float32(val) == np.float32(0.996)


def test_ema_composition_identity():
    """Two EMA steps against a fixed student equal one step of momentum
    lam1 * lam2."""
    lam1, lam2 = 0.9, 0.8
    student = init_model_params(tiny_model_config(), seed=3)
    t_a = make_teacher(student, ema_momentum=lam1)
    t_b = make_teacher(student, ema_momentum=lam1 * lam2)
    fixed = init_model_params(tiny_model_config(), seed=4)
    ema_update(t_a, fixed)
    t_a.ema_momentum = lam2
    ema_update(t_a, fixed)
    ema_update(t_b, fixed)
    for name, t in t_a.params.items():
        assert np.allclose(t.data, t_b.params[name].data, atol=1e-6), name


def test_update_center_momentum_extremes(rng):
    state = _teacher_state(center_momentum=1.0)
    before = state.center.copy()
    update_center(state, rng.normal(size=(4, 8)).astype(np.float32))
    assert np.array_equal(before, state.center)

    state = _teacher_state(center_momentum=0.0)
    batch = rng.normal(size=(4, 8)).astype(np.float32)
    update_center(state, batch)
    assert np.allclose(state.center, batch.mean(axis=0), atol=1e-6)


def test_update_center_one_step_arithmetic():
    state = _teacher_state(center_momentum=0.9)
    state.center = np.zeros(8, dtype=np.float32)
    update_center(state, np.ones((3, 8), dtype=np.float32))
    assert np.allclose(state.center, 0.1, atol=1e-6)


def test_update_center_rejects_empty_batch():
    state = _teacher_state()
    with pytest.raises(ContractError):
        update_center(state, np.zeros((0, 8), dtype=np.float32))


# -------------------------------------------------------------------------
# combined loss
# -------------------------------------------------------------------------

def test_combined_loss_values():
    assert combined_loss(0.0, 0.0).item() == 0.0
    assert combined_loss(2.0, 4.0).item() == 3.0


def test_combined_loss_rejects_nonfinite():
    with pytest.raises(NumericError):
        combined_loss(float("nan"), 1.0)


def test_combined_loss_recomposition(rng):
    u = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    v = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    nce = info_nce_loss(ContrastiveBatch(u, v, tau=0.1))
    teacher = [rng.dirichlet(np.ones(5)) for _ in range(2)]
    student = [Tensor(rng.dirichlet(np.ones(5)), dtype=np.float64) for _ in range(3)]
    dist = soft_distillation_terms(teacher, student)
    got = combined_loss(nce, dist).item()
    assert abs(got - 0.5 * (nce.item() + dist.item())) < 1e-6


def test_teacher_gradient_is_identically_zero(rng):
    """The teacher runs outside the tape: its parameters get zero gradient
    from the combined loss."""
    student = init_model_params(tiny_model_config(), seed=7, dtype=np.float64)
    teacher = make_teacher(student)
    imgs = rng.random((2, 3, 8, 8))

    from dinoclip.encoders import encode_images, project_dino
    t_logits = project_dino(teacher.params,
                            encode_images(teacher.params, Tensor(imgs, dtype=np.float64)))
    t_dist = teacher_distribution(t_logits.data, teacher)

    with Tape() as tape:
        emb = encode_images(student, Tensor(imgs, dtype=np.float64))
        s_dist = ad.softmax(project_dino(student, emb), temperature=1.0)
        loss = combined_loss(
            info_nce_loss(ContrastiveBatch(emb, emb, tau=0.1)),
            ad.soft_cross_entropy(t_dist, s_dist))
    grads = backward(tape, loss, params=list(teacher.params.tensors.values()))
    for name, t in teacher.params.items():
        assert np.array_equal(grads[t].data, np.zeros_like(t.data)), name


def test_contrastive_branch_ignores_local_views(rng):
    """Perturbing local views changes the distillation term only."""
    student = init_model_params(tiny_model_config(), seed=8, dtype=np.float64)
    teacher = make_teacher(student)
    from dinoclip.encoders import encode_images, project_dino

    g0 = rng.random((2, 3, 8, 8))
    g1 = rng.random((2, 3, 8, 8))
    local_a = rng.random((2, 3, 8, 8))
    local_b = local_a + 0.05 * rng.random((2, 3, 8, 8))
    texts = rng.normal(size=(2, 4))

    def losses(local):
        t_dists = [teacher_distribution(
            project_dino(teacher.params,
                         encode_images(teacher.params, Tensor(g, dtype=np.float64))).data,
            teacher) for g in (g0, g1)]
        emb0 = encode_images(student, Tensor(g0, dtype=np.float64))
        nce = info_nce_loss(ContrastiveBatch(Tensor(texts, dtype=np.float64), emb0,
                                             tau=0.1))
        s_dists = []
        for view in (g0, g1, local):
            e = encode_images(student, Tensor(view, dtype=np.float64))
            s_dists.append(ad.softmax(project_dino(student, e), temperature=1.0))
        dist = soft_distillation_terms(t_dists, s_dists)
        return nce.item(), dist.item()

    nce_a, dist_a = losses(local_a)
    nce_b, dist_b = losses(local_b)
    assert nce_a == nce_b  # bit-identical: locals never touch the contrastive branch
    assert dist_a != dist_b
