"""Engine semantics, tape invariants, and per-op gradient verification."""

import numpy as np
import pytest

from dinoclip import autodiff as ad
from dinoclip.autodiff import GradientMap, Tape, Tensor, backward, parameter
from dinoclip.errors import ContractError, DomainError, ShapeError

from gradcheck import check_gradients, max_gradient_error

# -------------------------------------------------------------------------
# value semantics
# -------------------------------------------------------------------------

def test_matmul_identity():
    eye = Tensor(np.eye(2, dtype=np.float32))
    out = ad.matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2, dtype=np.float32))


def test_matmul_hand_arithmetic():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    b = Tensor(np.array([[1.0], [1.0]], dtype=np.float32))
    assert ad.matmul(a, b).data.ravel().tolist() == [3.0, 7.0]


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(a, b)


def test_softmax_uniform_on_zero_logits():
    out = ad.softmax(Tensor(np.zeros(4, dtype=np.float32)), temperature=1.0)
    assert np.allclose(out.data, 0.25, atol=1e-7)


def test_softmax_analytic():
    x = Tensor(np.log(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)))
    assert np.allclose(ad.softmax(x).data, [0.1, 0.2, 0.3, 0.4], atol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.normal(size=(5, 7)).astype(np.float32) * 10)
        sums = ad.softmax(x, axis=-1, temperature=0.07).data.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=9).astype(np.float32)
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + 123.0)).data
    assert np.allclose(a, b, atol=1e-6)


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(DomainError):
        ad.softmax(Tensor(np.zeros(3)), temperature=0.0)


def test_l2_normalize_345_triangle():
    out = ad.l2_normalize(Tensor(np.array([3.0, 4.0], dtype=np.float32)))
    assert np.allclose(out.data, [0.6, 0.8], atol=1e-7)


def test_l2_normalize_idempotent_on_unit_vector():
    v = np.array([0.6, 0.8], dtype=np.float32)
    out = ad.l2_normalize(Tensor(v))
    assert np.allclose(out.data, v, atol=1e-6)


def test_l2_normalize_zero_vector_guarded():
    out = ad.l2_normalize(Tensor(np.zeros(3, dtype=np.float32)))
    assert np.array_equal(out.data, np.zeros(3, dtype=np.float32))
    assert np.isfinite(out.data).all()


def test_l2_normalize_unit_norm_above_threshold():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.normal(size=6).astype(np.float32) * 10.0 ** float(rng.integers(-5, 2))
        if np.linalg.norm(v) < 1e-6:
            continue
        assert abs(np.linalg.norm(ad.l2_normalize(Tensor(v)).data) - 1.0) < 1e-6


def test_soft_cross_entropy_one_hot_match_is_zero():
    p = np.zeros(5, dtype=np.float32)
    p[2] = 1.0
    assert ad.soft_cross_entropy(p, Tensor(p)).item() == 0.0


def test_soft_cross_entropy_uniform_is_log_k():
    k = 11
    u = np.full(k, 1.0 / k, dtype=np.float64)
    assert abs(ad.soft_cross_entropy(u, Tensor(u, dtype=np.float64)).item()
               - np.log(k)) < 1e-9


def test_soft_cross_entropy_matches_float64_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t = rng.dirichlet(np.ones(6))
        p = rng.dirichlet(np.ones(6))
        got = ad.soft_cross_entropy(t.astype(np.float32), Tensor(p.astype(np.float32))).item()
        want = float(-(t * np.log(np.maximum(p.astype(np.float32), 1e-12))).sum())
        assert abs(got - want) < 1e-6


def test_soft_cross_entropy_self_is_at_least_entropy():
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        h = -(p * np.log(p)).sum()
        assert ad.soft_cross_entropy(p, Tensor(q, dtype=np.float64)).item() >= h - 1e-9


def test_soft_cross_entropy_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.soft_cross_entropy(np.array([1.0]), Tensor(np.array([0.5, 0.5])))


def test_layer_norm_constant_vector_returns_bias():
    x = Tensor(np.full(6, 3.7, dtype=np.float32))
    gain = Tensor(np.full(6, 2.0, dtype=np.float32))
    bias = Tensor(np.arange(6, dtype=np.float32))
    out = ad.layer_norm(x, gain, bias)
    assert np.allclose(out.data, bias.data, atol=1e-5)


def test_gelu_zero_fixed_point():
    assert ad.gelu(Tensor(np.zeros(3, dtype=np.float32))).data.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_keeps_input_dtype(dtype):
    x = Tensor(np.linspace(-3, 3, 7), requires_grad=True, dtype=dtype)
    with Tape() as tape:
        y = ad.gelu(x)
        loss = ad.sum_(y)
    assert y.dtype == dtype
    assert backward(tape, loss, params=[x])[x].dtype == dtype


def test_rank_limit_enforced():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2, 2)))


# -------------------------------------------------------------------------
# tape and backward
# -------------------------------------------------------------------------

def test_backward_sum_gives_unit_gradients():
    p = parameter(np.arange(6, dtype=np.float32).reshape(2, 3), "p")
    with Tape() as tape:
        loss = ad.sum_(p)
    grads = backward(tape, loss, params=[p])
    assert np.array_equal(grads[p].data, np.ones((2, 3), dtype=np.float32))


def test_backward_disconnected_parameter_gets_zero():
    p = parameter(np.ones(3, dtype=np.float32), "p")
    q = parameter(np.ones(3, dtype=np.float32), "q")
    with Tape() as tape:
        loss = ad.sum_(p)
    grads = backward(tape, loss, params=[p, q])
    assert np.array_equal(grads[q].data, np.zeros(3, dtype=np.float32))


def test_backward_rejects_nonscalar_loss():
    p = parameter(np.ones(3, dtype=np.float32), "p")
    with Tape() as tape:
        out = ad.mul(p, 2.0)
    with pytest.raises(ContractError):
        backward(tape, out, params=[p])


def test_backward_accumulates_reused_operand():
    p = parameter(np.array([2.0], dtype=np.float32), "p")
    with Tape() as tape:
        loss = ad.sum_(ad.mul(p, p))
    grads = backward(tape, loss, params=[p])
    assert np.allclose(grads[p].data, [4.0])


def test_gradient_map_lookup_by_name():
    p = parameter(np.ones(2, dtype=np.float32), "weights")
    with Tape() as tape:
        loss = ad.sum_(p)
    grads = backward(tape, loss, params=[p])
    assert isinstance(grads, GradientMap)
    assert np.array_equal(grads["weights"].data, np.ones(2, dtype=np.float32))


def test_ops_outside_tape_record_nothing():
    p = parameter(np.ones(3, dtype=np.float32), "p")
    with Tape() as tape:
        pass
    ad.sum_(ad.mul(p, 3.0))  # no active tape
    assert tape.nodes == []


# -------------------------------------------------------------------------
# finite-difference agreement (a 100-seed sweep runs in the acceptance suite)
# -------------------------------------------------------------------------

def _mask(rng, shape):
    return rng.normal(size=shape)


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_core_ops(seed):
    rng = np.random.default_rng(seed)
    m = _mask(rng, (5, 3))
    arrays = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=(4, 3))}
    check_gradients(lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["b"]), m)), arrays)

    vec = {"x": rng.normal(size=8)}
    mask8 = _mask(rng, 8)
    check_gradients(lambda t: ad.sum_(ad.mul(ad.softmax(t["x"], temperature=0.07), mask8)),
                    vec)
    check_gradients(lambda t: ad.sum_(ad.mul(ad.l2_normalize(t["x"]), mask8)), vec)
    check_gradients(lambda t: ad.sum_(ad.gelu(t["x"])), vec)


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_weight_norm_linear(seed):
    rng = np.random.default_rng(100 + seed)
    m = _mask(rng, (2, 5))
    arrays = {"x": rng.normal(size=(2, 3)), "d": rng.normal(size=(5, 3)),
              "s": rng.normal(size=5)}
    check_gradients(lambda t: ad.sum_(ad.mul(
        ad.weight_norm_linear(t["x"], t["d"], t["s"]), m)), arrays)


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_layer_norm_and_xent(seed):
    rng = np.random.default_rng(200 + seed)
    m = _mask(rng, (3, 6))
    arrays = {"x": rng.normal(size=(3, 6)), "g": 1 + 0.1 * rng.normal(size=6),
              "b": rng.normal(size=6)}
    check_gradients(lambda t: ad.sum_(ad.mul(ad.layer_norm(t["x"], t["g"], t["b"]), m)),
                    arrays)

    target = rng.dirichlet(np.ones(6))
    check_gradients(lambda t: ad.soft_cross_entropy(target, ad.softmax(t["x"])),
                    {"x": rng.normal(size=6)})


def test_gradcheck_structural_ops():
    rng = np.random.default_rng(300)
    m = _mask(rng, (1, 4, 12))
    check_gradients(lambda t: ad.sum_(ad.mul(ad.extract_patches(t["x"], 2), m)),
                    {"x": rng.normal(size=(1, 3, 4, 4))})
    ids = np.array([0, 2, 2, 1])
    m2 = _mask(rng, (4, 3))
    check_gradients(lambda t: ad.sum_(ad.mul(ad.gather_rows(t["w"], ids), m2)),
                    {"w": rng.normal(size=(4, 3))})
    m3 = _mask(rng, (5, 2))
    check_gradients(lambda t: ad.sum_(ad.mul(ad.concat([t["a"], t["b"]], axis=0), m3)),
                    {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(3, 2))})


def test_gradcheck_reports_tolerance_breach():
    # a deliberately wrong function of its input has no matching adjoint
    def broken(t):
        frozen = Tensor(t["x"].data * 2.0)  # detached: kills the gradient path
        return ad.sum_(frozen)

    err = max_gradient_error(broken, {"x": np.ones(3)})
    assert err > 1e-3
