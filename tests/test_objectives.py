"""Loss definitions and teacher dynamics against independent recomputations."""

import numpy as np
import pytest

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tape, Tensor, backward
from dinoclip.encoders import ModelParams, init_model_params
from dinoclip.errors import ContractError, DomainError
from dinoclip.evaluation import cosine_matrix
from dinoclip.objectives import (ContrastiveBatch, combined_loss, ema_update,
                                 info_nce_loss, make_teacher, soft_distillation_terms,
                                 teacher_distribution, update_center)
from dinoclip.trainer import LOG_TAU_MIN

from conftest import (DistributionSet, composed_info_nce, float64_params, parameter,
                      self_distillation_loss, tiny_model_config)


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
    log_tau = parameter(np.asarray(-1.0), "log_tau", dtype=np.float64)
    u = parameter(rng.normal(size=(3, 4)), "u", dtype=np.float64)
    v = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    with Tape() as tape:
        loss = info_nce_loss(ContrastiveBatch(u, v, tau=ad.exp(log_tau)))
    grads = backward(tape, loss, params=[log_tau, u])
    assert grads[0] != 0.0


def _nce_and_grads(loss_fn, u, v, log_tau, dtype):
    """The loss and its gradients w.r.t. u, v and log_tau (tau = exp(log_tau))."""
    leaves = [parameter(u, "u", dtype=dtype), parameter(v, "v", dtype=dtype),
              parameter(np.asarray(log_tau), "log_tau", dtype=dtype)]
    with Tape() as tape:
        loss = loss_fn(ContrastiveBatch(leaves[0], leaves[1], tau=ad.exp(leaves[2])))
    return loss.item(), backward(tape, loss, params=leaves)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_info_nce_matches_composed_log_softmax_chain(rng, dtype, tol):
    """Loss and the gradients of u, v and log_tau equal the two-direction
    log_softmax chain's, relative to the chain's scale, for N = 1..20; a
    single pair still gives exactly 0."""
    for n in range(1, 21):
        u, v = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
        log_tau = rng.uniform(np.log(0.02), 0.0)
        got, got_grads = _nce_and_grads(info_nce_loss, u, v, log_tau, dtype)
        want, want_grads = _nce_and_grads(composed_info_nce, u, v, log_tau, dtype)
        assert abs(got - want) <= tol * abs(want), n
        for name, g, w in zip(("u", "v", "log_tau"), got_grads, want_grads):
            assert g.dtype == dtype
            assert np.max(np.abs(g - w)) <= tol * np.max(np.abs(w)), (n, name)
        if n == 1:
            assert got == 0.0


def test_info_nce_stays_finite_where_float32_softmax_underflows(rng):
    """At tau = 0.005 (LOG_TAU_MIN) anti-aligned pairs put each matched
    logit ~250 below its row and column maxima, so its float32 softmax is
    0; the loss and the gradients stay finite and match float64."""
    v = rng.normal(size=(6, 8))
    u = -v
    got, grads = _nce_and_grads(info_nce_loss, u, v, LOG_TAU_MIN, np.float32)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    logits = -(vn @ vn.T) / np.exp(LOG_TAU_MIN)                   # symmetric
    assert np.all(np.exp((logits - logits.max(axis=1, keepdims=True)).astype(np.float32))
                  .diagonal() == 0.0)
    assert np.isfinite(got) and got > 100.0
    assert all(np.all(np.isfinite(g)) for g in grads)
    want, want_grads = _nce_and_grads(composed_info_nce, u, v, LOG_TAU_MIN, np.float64)
    assert abs(got - want) <= 1e-5 * want
    for g, w in zip(grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-5 * np.max(np.abs(w))


def test_info_nce_records_one_cross_entropy_node(rng):
    """Normalize, cosine logits, their transpose and one cross entropy over
    both directions: 8 nodes, none of the composed chain's."""
    u = parameter(rng.normal(size=(4, 6)), "u")
    v = parameter(rng.normal(size=(4, 6)), "v")
    with Tape() as tape:
        info_nce_loss(ContrastiveBatch(u, v, tau=0.07))
    ops = [node.op for node in tape.nodes]
    assert ops.count("soft_cross_entropy_logits") == 1 and len(ops) == 8
    assert not {"log_softmax", "neg", "sum"} & set(ops)


# -------------------------------------------------------------------------
# teacher / student distributions
# -------------------------------------------------------------------------

def _teacher_state():
    params = init_model_params(tiny_model_config(8), seed=0)
    return make_teacher(params, ema_momentum=0.996)


def test_teacher_distribution_centered_out_is_uniform(rng):
    center = rng.normal(size=8).astype(np.float32)
    dist = teacher_distribution(center.copy(), center, 0.04)
    assert np.allclose(dist, 1.0 / 8, atol=1e-6)


def test_teacher_distribution_sharpening_concentrates(rng):
    logits = 0.01 * rng.normal(size=8).astype(np.float32)
    logits[3] = logits.max() + 0.2            # gap / tau_t = 40 >> 10
    dist = teacher_distribution(logits, np.zeros(8, np.float32), 0.005)
    assert dist[np.argmax(logits)] > 0.99


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_teacher_distribution_is_the_centered_sharpened_softmax(rng, dtype):
    """Bit for bit the explicit formula: shift by the center, divide by
    tau_t, subtract the row max, exponentiate, normalize."""
    center, tau_teacher = rng.normal(size=16).astype(np.float32), 0.04
    z = (5.0 * rng.normal(size=(6, 16))).astype(dtype)
    shifted = (z - center.astype(dtype)) / tau_teacher
    e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    dist = teacher_distribution(z, center, tau_teacher)
    assert dist.dtype == dtype
    assert np.array_equal(dist, e / e.sum(axis=-1, keepdims=True))


def test_teacher_distribution_sums_to_one(rng):
    center = _teacher_state().center
    for _ in range(10):
        dist = teacher_distribution(rng.normal(size=8).astype(np.float32), center, 0.04)
        assert abs(dist.sum() - 1.0) < 1e-6


@pytest.mark.parametrize("tau_teacher", [0.0, -0.04, float("nan")])
def test_teacher_distribution_rejects_a_non_positive_temperature(tau_teacher):
    with pytest.raises(DomainError, match="teacher temperature"):
        teacher_distribution(np.zeros((2, 8), np.float32), np.zeros(8, np.float32),
                             tau_teacher)


# softmax(z / tau), computed by ad.softmax: the teacher's distribution at
# tau_t, and the student's at tau_s inside the distillation cross entropy.

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


def _stacked(dists):
    """[K] distributions, one per view -> one view-major [V, K] float64
    tensor of their logs (batch 1): student logits for
    soft_distillation_terms at tau_s = 1, whose softmax gives back the
    distributions."""
    return Tensor(np.log(np.concatenate(_rows(dists))), dtype=np.float64)


def test_pair_count_formula(rng):
    for n_views, pairs in ((10, 18), (3, 4)):
        teacher = [rng.dirichlet(np.ones(4)) for _ in range(2)]
        student = _stacked(rng.dirichlet(np.ones(4)) for _ in range(n_views))
        avg = soft_distillation_terms(_rows(teacher), student, 1.0).item()
        raw = soft_distillation_terms(_rows(teacher), student, 1.0,
                                      average_pairs=False).item()
        assert abs(raw - pairs * avg) < 1e-9


def test_self_distillation_uniform_equals_log_k():
    k, n_views = 8, 5
    u = np.full(k, 1.0 / k)
    loss = soft_distillation_terms(_rows([u] * 2), _stacked([u] * n_views), 1.0)
    assert abs(loss.item() - np.log(k)) < 1e-6


def test_self_distillation_matches_brute_force(rng):
    k, n_views = 6, 4
    teacher = [rng.dirichlet(np.ones(k)) for _ in range(2)]
    student = [rng.dirichlet(np.ones(k)) for _ in range(n_views)]
    got = soft_distillation_terms(_rows(teacher), _stacked(student), 1.0).item()

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
    student = _stacked(rng.dirichlet(np.ones(k)) for _ in range(3))
    avg = soft_distillation_terms(teacher, student, 1.0, average_pairs=True).item()
    raw = soft_distillation_terms(teacher, student, 1.0, average_pairs=False).item()
    assert abs(raw - avg * 4) < 1e-9


def test_self_distillation_needs_two_globals():
    u = np.full(4, 0.25)
    with pytest.raises(ContractError):
        soft_distillation_terms(_rows([u]), _stacked([u] * 3), 1.0)


def test_self_distillation_lower_bound_is_teacher_entropy(rng):
    k = 7
    p = rng.dirichlet(np.ones(k))
    entropy = -(p * np.log(p)).sum()
    got = soft_distillation_terms(_rows([p] * 2), _stacked([p] * 4), 1.0).item()
    assert abs(got - entropy) < 1e-9
    # any other student distribution can only increase the loss
    q = rng.dirichlet(np.ones(k))
    worse = soft_distillation_terms(_rows([p] * 2), _stacked([q] * 4), 1.0).item()
    assert worse >= got - 1e-12


def test_student_logit_below_the_log_clamp_gets_its_gradient():
    """DINO's -q . log_softmax(s / tau_s) in float32: student logits whose
    probability at tau_s = 0.1 is below 1e-12 (about 4e-31), or underflows
    to 0, still get the gradient (p * rowsum(q) - q) / (rows * tau_s) of the
    teacher mass q on them, which pulls them up.  Through a clamped
    log(max(p, 1e-12)) the first got a positive gradient of the order of p
    and the second exactly 0."""
    tau, v = 0.1, 3
    logits = parameter(np.tile(np.float32([4.0, 0.0, 1.0, -3.0, -20.0]), (v, 1)), "z")
    teacher = [np.float32([[0.2, 0.2, 0.2, 0.2, 0.2]]), np.float32([[0.4, 0.1, 0.1, 0.2, 0.2]])]
    with Tape() as tape:
        loss = soft_distillation_terms(teacher, logits, tau)
    (grad,) = backward(tape, loss, params=[logits])
    p = np.exp(logits.data[0] / tau - (logits.data[0] / tau).max())
    assert p[3] / p.sum() < 1e-12 and np.float32(p[4]) == 0.0
    targets = np.concatenate([teacher[1], teacher[0], teacher[0] + teacher[1]])
    want = -targets[:, 3:] / (v * tau) * (v / (2 * (v - 1)))  # p's share is below 1e-30
    assert (grad[:, 3:] < 0).all()
    assert np.allclose(grad[:, 3:], want, rtol=1e-6, atol=0)


def test_batched_terms_match_scalar_form(rng):
    """The scalar oracle in conftest, averaged over the batch."""
    k, b = 5, 3
    teacher = [rng.dirichlet(np.ones(k), size=b) for _ in range(2)]
    student = [rng.dirichlet(np.ones(k), size=b) for _ in range(4)]
    batched = soft_distillation_terms(teacher, Tensor(np.log(np.concatenate(student)),
                                                      dtype=np.float64), 1.0).item()
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


def test_ema_reads_only_the_tensors_the_teacher_holds():
    """A teacher of part of the tree averages its own tensors toward the
    student's and leaves the student's other tensors alone."""
    student = init_model_params(tiny_model_config(), seed=1)
    teacher = make_teacher(ModelParams(student.config, {n: t for n, t in student.items()
                                                        if n.startswith("dino.")}),
                           ema_momentum=0.5)
    before = {n: t.data.copy() for n, t in teacher.params.items()}
    other = init_model_params(tiny_model_config(), seed=2)
    other_before = {n: t.data.copy() for n, t in other.items()}
    ema_update(teacher, other)
    assert list(teacher.params.names()) == list(before)
    for name, arr in before.items():
        assert np.array_equal(teacher.params[name].data,
                              0.5 * arr + 0.5 * other_before[name]), name
    for name, t in other.items():
        assert np.array_equal(t.data, other_before[name]), name


def test_ema_teacher_tensor_missing_from_student_raises():
    student = init_model_params(tiny_model_config(), seed=1)
    teacher = make_teacher(student, ema_momentum=0.5)
    before = {n: t.data.copy() for n, t in teacher.params.items()}
    partial = ModelParams(student.config, {n: t for n, t in student.items() if n != "dino.w1"})
    with pytest.raises(ContractError, match="dino.w1"):
        ema_update(teacher, partial)
    for name, arr in before.items():
        assert np.array_equal(arr, teacher.params[name].data), name


def test_update_center_momentum_extremes(rng):
    state = _teacher_state()
    before = state.center.copy()
    update_center(state, rng.normal(size=(4, 8)).astype(np.float32), 1.0)
    assert np.array_equal(before, state.center)

    state = _teacher_state()
    batch = rng.normal(size=(4, 8)).astype(np.float32)
    update_center(state, batch, 0.0)
    assert np.allclose(state.center, batch.mean(axis=0), atol=1e-6)


def test_update_center_one_step_arithmetic():
    state = _teacher_state()
    state.center = np.zeros(8, dtype=np.float32)
    update_center(state, np.ones((3, 8), dtype=np.float32), 0.9)
    assert np.allclose(state.center, 0.1, atol=1e-6)


def test_update_center_rejects_empty_batch():
    state = _teacher_state()
    with pytest.raises(ContractError):
        update_center(state, np.zeros((0, 8), dtype=np.float32), 0.9)


@pytest.mark.parametrize("momentum", [-0.1, 1.5, float("nan")])
def test_update_center_rejects_a_momentum_outside_unit_interval(momentum):
    state = _teacher_state()
    with pytest.raises(DomainError, match="center momentum"):
        update_center(state, np.ones((3, 8), dtype=np.float32), momentum)
    assert np.array_equal(state.center, np.zeros(8, np.float32))


# -------------------------------------------------------------------------
# combined loss
# -------------------------------------------------------------------------

def test_combined_loss_values():
    assert combined_loss(0.0, 0.0).item() == 0.0
    assert combined_loss(2.0, 4.0).item() == 3.0


def test_combined_loss_recomposition(rng):
    u = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    v = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    nce = info_nce_loss(ContrastiveBatch(u, v, tau=0.1))
    teacher = _rows(rng.dirichlet(np.ones(5)) for _ in range(2))
    student = _stacked(rng.dirichlet(np.ones(5)) for _ in range(3))
    dist = soft_distillation_terms(teacher, student, 1.0)
    got = combined_loss(nce, dist).item()
    assert abs(got - 0.5 * (nce.item() + dist.item())) < 1e-6


def test_teacher_gradient_is_identically_zero(rng):
    """The teacher runs outside the tape: its parameters get zero gradient
    from the combined loss."""
    student = float64_params(tiny_model_config(), seed=7)
    teacher = make_teacher(student, ema_momentum=0.996)
    imgs = rng.random((2, 3, 8, 8))

    from dinoclip.encoders import encode_images, project_dino
    t_logits = project_dino(teacher.params,
                            encode_images(teacher.params, Tensor(imgs, dtype=np.float64)))
    t_dist = teacher_distribution(t_logits.data, teacher.center, 0.04)

    with Tape() as tape:
        emb = encode_images(student, Tensor(imgs, dtype=np.float64))
        s_dist = ad.softmax(project_dino(student, emb), temperature=1.0)
        loss = combined_loss(
            info_nce_loss(ContrastiveBatch(emb, emb, tau=0.1)),
            ad.soft_cross_entropy(t_dist, s_dist))
    grads = backward(tape, loss, params=teacher.params.tensors.values())
    for (name, t), g in zip(teacher.params.items(), grads):
        assert np.array_equal(g, np.zeros_like(t.data)), name


def test_contrastive_branch_ignores_local_views(rng):
    """Perturbing local views changes the distillation term only."""
    student = float64_params(tiny_model_config(), seed=8)
    teacher = make_teacher(student, ema_momentum=0.996)
    from dinoclip.encoders import encode_images, project_dino

    globals_ = Tensor(rng.random((4, 3, 8, 8)), dtype=np.float64)   # 2 views of 2
    local_a = rng.random((2, 3, 4, 4))
    local_b = local_a + 0.05 * rng.random((2, 3, 4, 4))
    texts = rng.normal(size=(2, 4))

    def losses(local):
        t_dists = teacher_distribution(
            project_dino(teacher.params, encode_images(teacher.params, globals_)).data,
            teacher.center, 0.04).reshape(2, 2, -1)
        emb = encode_images(student, globals_)
        nce = info_nce_loss(ContrastiveBatch(Tensor(texts, dtype=np.float64),
                                             ad.gather_rows(emb, np.arange(2)), tau=0.1))
        emb = ad.concat([emb, encode_images(student, Tensor(local, dtype=np.float64))])
        dist = soft_distillation_terms(t_dists, project_dino(student, emb), 1.0)
        return nce.item(), dist.item()

    nce_a, dist_a = losses(local_a)
    nce_b, dist_b = losses(local_b)
    assert nce_a == nce_b  # bit-identical: locals never touch the contrastive branch
    assert dist_a != dist_b
