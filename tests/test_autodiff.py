"""Engine semantics, tape invariants, and per-op gradient verification."""

import ctypes
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tape, Tensor, backward
from dinoclip.errors import ContractError, DomainError, ShapeError

from conftest import parameter
from gradcheck import check_gradients, max_gradient_error, relative_error

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
    assert backward(tape, loss, params=[x])[0].dtype == dtype


def test_gelu_float32_limits_exact():
    """Past |x| = 6, erf(|x| / sqrt(2)) rounds to 1 in float32, so gelu is
    exactly 0 below -6 and exactly x above 6."""
    neg = -np.geomspace(6.0, 1e4, 50).astype(np.float32)
    assert not ad.gelu(Tensor(neg)).data.any()
    assert np.array_equal(ad.gelu(Tensor(-neg)).data, -neg)


@pytest.mark.parametrize("dtype, forward_tol, backward_tol",
                         [(np.float32, 2.5e-7, 4e-7), (np.float64, 7.5e-8, 1e-7)])
def test_gelu_matches_float64_erf(dtype, forward_tol, backward_tol):
    """Against scipy's float64 erf on a 2.4M-point grid over [-12, 12] and on
    random activations: the forward error is at most forward_tol * max(1, |x|)
    (in float64 the Abramowitz & Stegun bound, 1.5e-7 on erf, halved) and
    the derivative's error at most backward_tol."""
    rng = np.random.default_rng(601)
    grid = np.array_split(np.linspace(-12.0, 12.0, 2_400_001), 8)   # in parts, to save memory
    for x in (*grid, 2.0 * rng.normal(size=(4, 17, 256))):
        x = x.astype(dtype)
        with Tape() as tape:
            out = ad.gelu(Tensor(x, requires_grad=True, dtype=dtype)).data
        grad = tape.nodes[-1].backward_fn(np.ones_like(x))[0]
        assert out.dtype == grad.dtype == dtype
        x64 = x.astype(np.float64)
        cdf = 0.5 * (1.0 + erf(x64 * (1.0 / math.sqrt(2.0))))
        pdf = np.exp(-0.5 * x64 * x64) * (1.0 / math.sqrt(2.0 * math.pi))
        assert np.all(np.abs(out - x64 * cdf) <= forward_tol * np.maximum(1.0, np.abs(x64)))
        assert np.all(np.abs(grad - (cdf + x64 * pdf)) <= backward_tol)


def _ref_gelu(x):
    """gelu as the same steps compute it with e = exp(-x^2 / 2) in an array
    of its own, which the adjoint reads: (output, adjoint)."""
    t = np.abs(x) * ad._ERF_P_OVER_SQRT2 + 1.0
    np.reciprocal(t, out=t)
    erf = t * -ad._ERF_A[0]
    for coef in ad._ERF_A[1:]:
        erf -= coef
        erf *= t
    e = x * x
    e *= -0.5
    np.exp(e, out=e)
    erf *= e
    erf += 1.0
    out = np.abs(x) * erf
    out += x
    out *= 0.5

    def backward(g):
        d = np.copysign(erf, x) + 1.0
        d *= 0.5
        d += x * e * ad._INV_SQRT_2PI
        return d * g

    return out, backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bits_equal_a_saved_exponential(dtype):
    """Recomputing e = exp(-x^2 / 2) in the adjoint gives the bits of the
    adjoint that read e saved by the forward, at 0, around and past +-6 and
    on random activations."""
    rng = np.random.default_rng(602)
    edges = np.array([0.0, -0.0, 6.0, -6.0, 6.5, -6.5, 40.0, -40.0, 1e4, -1e4])
    x = np.concatenate([edges, 3.0 * rng.normal(size=500)]).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    out, bw = _node_of(ad.gelu, Tensor(x, requires_grad=True, dtype=dtype))
    ref, ref_bw = _ref_gelu(x)
    _assert_same(out, ref)
    _assert_same(bw(g)[0], ref_bw(g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recorded_gelu_keeps_only_its_output_and_erf(dtype):
    """Between its forward and the sweep a recorded gelu on [64, 256] holds
    two arrays of the input's size, its output and erf; its adjoint's
    closure holds the input's array and erf, no third array."""
    x = Tensor(np.random.default_rng(603).normal(size=(64, 256)), requires_grad=True,
               dtype=dtype)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = ad.gelu(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 2 * x.data.nbytes <= held < 2.5 * x.data.nbytes, held
    cells = [c.cell_contents for c in tape.nodes[-1].backward_fn.__closure__]
    arrays = [c for c in cells if isinstance(c, np.ndarray)]
    assert len(arrays) == 2 and any(a is x.data for a in arrays)
    assert not any(a is y.data for a in arrays)


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
    assert np.array_equal(grads[0], np.ones((2, 3), dtype=np.float32))


def test_backward_disconnected_parameter_gets_zero():
    """A tensor the loss does not reach, requiring grad or not, gets zeros
    of its shape and dtype, and so does the loss, whose gradient the sweep
    consumed."""
    p = parameter(np.ones(3, dtype=np.float32), "p")
    q = parameter(np.ones(3), "q", dtype=np.float64)
    constant = Tensor(np.ones((2, 2), dtype=np.float32))
    with Tape() as tape:
        loss = ad.sum_(p)
    grads = backward(tape, loss, params=[p, q, constant, loss])
    for g, want in zip(grads[1:], (np.zeros(3), np.zeros((2, 2), np.float32),
                                   np.zeros((), np.float32))):
        assert g.dtype == want.dtype and np.array_equal(g, want)


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
    assert np.allclose(grads[0], [4.0])


def test_backward_returns_one_array_per_param_in_order():
    """Plain arrays in the order of ``params``, whatever order the sweep
    reaches them in, and one entry per listed tensor."""
    p = parameter(np.ones(2, dtype=np.float32), "p")
    q = parameter(np.ones((2, 2), dtype=np.float32), "q")
    with Tape() as tape:
        loss = ad.sum_(ad.add(ad.mul(p, 3.0), ad.sum_(q, axis=0)))
    grads = backward(tape, loss, params=[q, p, q])
    assert all(type(g) is np.ndarray for g in grads)
    assert [g.tolist() for g in grads] == [[[1.0, 1.0], [1.0, 1.0]], [3.0, 3.0],
                                           [[1.0, 1.0], [1.0, 1.0]]]


def test_backward_frees_the_tape_it_sweeps():
    """The sweep pops each node: an array that only the tape held is dead
    once backward returns, and sweeping the same tape again is refused."""
    p = parameter(np.linspace(-1.0, 1.0, 6, dtype=np.float32), "p")
    with Tape() as tape:
        loss = ad.sum_(ad.gelu(ad.mul(p, 2.0)))
    scaled = weakref.ref(tape.nodes[0].output.data)    # gelu's input, which it saves
    grads = backward(tape, loss, params=[p])
    assert scaled() is None
    assert tape.nodes == []
    assert grads[0].shape == (6,)
    with pytest.raises(ContractError, match="swept"):
        backward(tape, loss, params=[p])


def test_importing_the_engine_keeps_freed_pages_mapped():
    """After import, allocating and freeing 1 MiB arrays reuses mapped
    pages: glibc's default threshold maps and unmaps each such array, about
    240 minor faults per array of 4 KiB pages."""
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt")
    code = """if True:
        import resource
        import numpy as np
        import dinoclip.autodiff
        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(1 << 20, dtype=np.uint8)
        before = faults()
        for _ in range(50):
            a = np.ones(1 << 20, dtype=np.uint8)
            b = np.ones(1 << 20, dtype=np.uint8)
            del a, b
        print(faults() - before)
    """
    src = os.path.dirname(os.path.dirname(ad.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert int(done.stdout) < 50 * 16                  # under 8 faults per pair


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
def test_gradcheck_soft_cross_entropy_logits(seed):
    """Rows whose target mass is not 1 (the distillation's T0 + T1 rows),
    at DINO's student temperature and at 1, and a single row of rank 1."""
    rng = np.random.default_rng(150 + seed)
    target = rng.dirichlet(np.ones(6), size=4) * np.array([[1.0], [1.0], [2.0], [2.0]])
    for temperature in (0.1, 1.0):
        check_gradients(lambda t: ad.soft_cross_entropy_logits(target, t["z"], temperature),
                        {"z": rng.normal(size=(4, 6))})
    check_gradients(lambda t: ad.soft_cross_entropy_logits(target[0], t["z"], 0.3),
                    {"z": rng.normal(size=6)})


def _composed_weight_norm_linear(x, d, s):
    """The chain of primitives that weight_norm_linear replaced."""
    norms = ad.sqrt(ad.sum_(ad.mul(d, d), axis=1))
    coeff = ad.reshape(ad.div(s, norms), (d.shape[0], 1))
    return ad.matmul(x, ad.transpose(ad.mul(d, coeff)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,d,k", [(2, 3, 5), (160, 64, 4096)])
def test_weight_norm_linear_forward_bits_equal_composed_chain(dtype, b, d, k):
    """The one node gives the composed chain's forward bits (so the
    teacher's logits keep theirs), and its gradients agree with the chain's
    to rounding."""
    rng = np.random.default_rng(640)
    arrays = {"x": rng.normal(size=(b, d)), "d": rng.normal(size=(k, d)),
              "s": 1.0 + 0.2 * rng.normal(size=k)}
    mask = rng.normal(size=(b, k)).astype(dtype)
    outs = []
    for head in (ad.weight_norm_linear, _composed_weight_norm_linear):
        t = {n: Tensor(a, requires_grad=True, name=n, dtype=dtype) for n, a in arrays.items()}
        with Tape() as tape:
            out = head(t["x"], t["d"], t["s"])
            loss = ad.sum_(ad.mul(out, mask))
        outs.append([out.data, *backward(tape, loss, params=list(t.values()))])
    (got, *got_grads), (want, *want_grads) = outs
    _assert_same(got, want)
    rtol = 1e-4 if dtype == np.float32 else 1e-10
    for g, w in zip(got_grads, want_grads):
        assert g.dtype == dtype
        assert relative_error(g, w) < rtol


def test_weight_norm_linear_skips_the_adjoint_of_a_constant_input():
    rng = np.random.default_rng(650)
    x = Tensor(rng.normal(size=(2, 3)), dtype=np.float32)
    d, s = (parameter(rng.normal(size=shape).astype(np.float32), n)
            for shape, n in (((5, 3), "d"), ((5,), "s")))
    with Tape() as tape:
        ad.weight_norm_linear(x, d, s)
    gx, gd, gs = tape.nodes[0].backward_fn(np.ones((2, 5), dtype=np.float32))
    assert gx is None and gd.shape == (5, 3) and gs.shape == (5,)


def test_weight_norm_linear_rejects_mismatched_operands():
    x, d, s = np.zeros((2, 3)), np.ones((5, 3)), np.ones(5)
    for args in ((x, d, np.ones(4)), (np.zeros((2, 4)), d, s), (np.zeros(3), d, s),
                 (np.zeros((2, 2, 3)), d, s)):
        with pytest.raises(ShapeError):
            ad.weight_norm_linear(*args)


def _ref_log_softmax_cross_entropy(target, logits, temperature):
    """Value and logits gradient in float64 through scipy-free log-softmax."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    t = np.asarray(target, dtype=np.float64)
    lse = np.log(np.exp(z - z.max(axis=-1, keepdims=True)).sum(axis=-1, keepdims=True))
    log_p = z - z.max(axis=-1, keepdims=True) - lse
    rows = math.prod(z.shape[:-1])
    grad = (np.exp(log_p) * t.sum(axis=-1, keepdims=True) - t) / (rows * temperature)
    return -(t * log_p).sum() / rows, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_soft_cross_entropy_logits_matches_float64_log_softmax(dtype):
    """Value and gradient against a float64 log-softmax, on rows whose
    target mass is 1 or 2, at the student's temperature and at 1, with
    logits spread wide enough that some probabilities underflow float32.
    The tolerance is what rounding logits / T to the dtype allows: a few
    epsilons of its largest magnitude."""
    rng = np.random.default_rng(660)
    for shape, temperature, scale in (((160, 64), 0.1, 3.0), ((5, 7), 1.0, 1.0),
                                      ((9,), 0.04, 1.0), ((3, 4, 8), 0.1, 20.0)):
        logits = (rng.normal(size=shape) * scale).astype(dtype)
        target = (rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
                  * rng.integers(1, 3, size=shape[:-1] + (1,))).astype(dtype)
        z = parameter(logits, "z", dtype=dtype)
        with Tape() as tape:
            loss = ad.soft_cross_entropy_logits(target, z, temperature)
        (grad,) = backward(tape, loss, params=[z])
        want, want_grad = _ref_log_softmax_cross_entropy(target, logits, temperature)
        tol = 8 * np.finfo(dtype).eps * max(1.0, np.abs(logits).max() / temperature)
        assert loss.dtype == grad.dtype == dtype
        assert abs(loss.item() - want) <= tol * max(1.0, abs(want))
        assert np.abs(grad - want_grad).max() <= tol * np.abs(want_grad).max()


def test_soft_cross_entropy_logits_rejects_bad_operands():
    with pytest.raises(ShapeError):
        ad.soft_cross_entropy_logits(np.ones((2, 3)), Tensor(np.zeros((2, 4))), 1.0)
    with pytest.raises(ShapeError):
        ad.soft_cross_entropy_logits(1.0, Tensor(np.zeros(())), 1.0)
    for temperature in (0.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            ad.soft_cross_entropy_logits(np.ones(3), Tensor(np.zeros(3)), temperature)


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


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_stacked_matmul(seed):
    """Stacked shapes: a shared weight over [B, T, I] rows, as the encoders
    use it, and a batched product with its right operand fed through
    transpose."""
    rng = np.random.default_rng(400 + seed)
    m = _mask(rng, (2, 3, 5))
    check_gradients(lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["w"]), m)),
                    {"a": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 5))})
    m2 = _mask(rng, (2, 2, 3, 3))
    check_gradients(lambda t: ad.sum_(ad.mul(
        ad.matmul(t["q"], ad.transpose(t["k"], (0, 1, 3, 2))), m2)),
        {"q": rng.normal(size=(2, 2, 3, 4)), "k": rng.normal(size=(2, 2, 3, 4))})


RUNS = [(2, 3), (1, 1), (3, 2)]      # (count, length): 6 + 1 + 6 packed rows


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_attention(seed):
    """The fused attention over packed rows in one run and in runs of
    unequal length; with a query-row count n, where q holds each sequence's
    first min(n, length) rows and k and v all of them, in both forms and
    with sequences of length 1."""
    rng = np.random.default_rng(430 + seed)
    for q_shape, kv_shape, runs, n in (((6, 8), (6, 8), [(2, 3)], None),
                                       ((13, 8), (13, 8), RUNS, None),
                                       ((4, 8), (6, 8), [(2, 3)], 2),
                                       ((2, 8), (2, 8), [(2, 1)], 2),
                                       ((11, 8), (13, 8), RUNS, 2),
                                       ((6, 8), (13, 8), RUNS, 1),
                                       ((11, 8), (16, 8), [(1, 4), (2, 1), (2, 5)], 3)):
        m = _mask(rng, q_shape)
        check_gradients(lambda t: ad.sum_(ad.mul(
            ad.attention(t["q"], t["k"], t["v"], 2, runs, queries=n), m)),
            {"q": rng.normal(size=q_shape), "k": rng.normal(size=kv_shape),
             "v": rng.normal(size=kv_shape)})


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_linear(seed):
    """x @ w + b for [N, I] and stacked [B, T, I] rows, alone and with a
    residual of the output's shape."""
    rng = np.random.default_rng(460 + seed)
    for x_shape in ((5, 4), (2, 3, 4)):
        out_shape = x_shape[:-1] + (3,)
        m = _mask(rng, out_shape)
        arrays = {"x": rng.normal(size=x_shape), "w": rng.normal(size=(4, 3)),
                  "b": rng.normal(size=3)}
        check_gradients(lambda t: ad.sum_(ad.mul(ad.linear(t["x"], t["w"], t["b"]), m)),
                        arrays)
        check_gradients(lambda t: ad.sum_(ad.mul(
            ad.linear(t["x"], t["w"], t["b"], residual=t["r"]), m)),
            {**arrays, "r": rng.normal(size=out_shape)})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(7, 16), (2, 17, 16)])
def test_linear_bit_identical_to_matmul_add_chain(dtype, x_shape):
    """Forward and every adjoint equal the chains that linear replaced:
    matmul(x, w) + b, and (residual + matmul(x, w)) + b."""
    rng = np.random.default_rng(620)
    arrays = {"x": rng.normal(size=x_shape), "w": rng.normal(size=(16, 24)),
              "b": rng.normal(size=24), "r": rng.normal(size=x_shape[:-1] + (24,))}
    mask = rng.normal(size=x_shape[:-1] + (24,)).astype(dtype)
    for residual in (False, True):
        names = "xwbr" if residual else "xwb"
        outs = []
        for fused in (True, False):
            t = {n: Tensor(arrays[n], requires_grad=True, name=n, dtype=dtype) for n in names}
            with Tape() as tape:
                if fused:
                    out = ad.linear(t["x"], t["w"], t["b"], residual=t.get("r"))
                elif residual:
                    out = ad.add(ad.add(t["r"], ad.matmul(t["x"], t["w"])), t["b"])
                else:
                    out = ad.add(ad.matmul(t["x"], t["w"]), t["b"])
                loss = ad.sum_(ad.mul(out, mask))
            outs.append([out.data, *backward(tape, loss, params=[t[n] for n in names])])
        for got, want in zip(*outs):
            _assert_same(got, want)


def test_linear_skips_the_adjoint_of_a_constant_input():
    rng = np.random.default_rng(630)
    x = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float32)
    w, b = (parameter(rng.normal(size=s).astype(np.float32), n)
            for s, n in (((4, 5), "w"), ((5,), "b")))
    with Tape() as tape:
        ad.linear(x, w, b)
    gx, gw, gb = tape.nodes[0].backward_fn(np.ones((2, 3, 5), dtype=np.float32))
    assert gx is None and gw.shape == (4, 5) and gb.shape == (5,)


def test_linear_rejects_mismatched_operands():
    x, w, b = np.zeros((3, 4)), np.zeros((4, 5)), np.zeros(5)
    for args in ((x, w, np.zeros(4)), (x, np.zeros((5, 4)), b), (np.zeros(4), w, b),
                 (x, np.zeros((1, 4, 5)), b)):
        with pytest.raises(ShapeError):
            ad.linear(*args)
    with pytest.raises(ShapeError):
        ad.linear(x, w, b, residual=np.zeros((3, 4)))


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_take_index_rows(seed):
    """An array of distinct indices keeps the axis: its adjoint scatters the
    gradient into those slices and leaves zeros elsewhere."""
    rng = np.random.default_rng(470 + seed)
    for shape, index, axis in (((2, 4, 3), np.array([0, 1]), 1),
                               ((7, 3), np.array([0, 1, 3, 5, 6]), 0)):
        out_shape = list(shape)
        out_shape[axis] = index.size
        m = _mask(rng, tuple(out_shape))
        check_gradients(lambda t: ad.sum_(ad.mul(ad.take_index(t["a"], index, axis), m)),
                        {"a": rng.normal(size=shape)})


@pytest.mark.parametrize("runs", [[(3, 5)], [(2, 1), (3, 2), (4, 7), (1, 64)]])
def test_attention_query_rows_equal_first_rows_of_all(runs):
    """float32: each query row's output equals, bit for bit, that row's
    output when every row queries; the gradients agree with the all-rows
    node's under an incoming gradient that is zero on the other rows."""
    rng = np.random.default_rng(460)
    keep, start = [], 0                             # each sequence's first 2 rows
    for c, t in runs:
        for _ in range(c):
            keep.extend(range(start, start + min(2, t)))
            start += t
    keep, n_rows = np.array(keep), start
    q, k, v = (rng.normal(size=(n_rows, 64)).astype(np.float32) for _ in range(3))
    g = rng.normal(size=(keep.size, 64)).astype(np.float32)
    out, bw = _node_of(lambda *t: ad.attention(*t, 4, runs, queries=2),
                       *(parameter(a, n) for a, n in zip((q[keep], k, v), "qkv")))
    full, full_bw = _node_of(lambda *t: ad.attention(*t, 4, runs),
                             *(parameter(a, n) for a, n in zip((q, k, v), "qkv")))
    _assert_same(out, full[keep])
    g_full = np.zeros_like(q)
    g_full[keep] = g
    (gq, gk, gv), (fq, fk, fv) = bw(g), full_bw(g_full)
    assert gq.shape == (keep.size, 64) and gk.shape == gv.shape == k.shape
    assert np.array_equal(np.delete(fq, keep, axis=0), np.zeros((n_rows - keep.size, 64)))
    for got, want in ((gq, fq[keep]), (gk, fk), (gv, fv)):
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


def test_attention_packed_runs_equal_each_run_alone():
    """Packed runs give, bit for bit, each run's output rows and q, k and v
    gradient rows computed as a run of its own: no row sees another
    sequence."""
    rng = np.random.default_rng(420)
    runs = [(3, 2), (2, 5), (1, 7), (4, 1)]
    n = sum(c * t for c, t in runs)
    q, k, v, g = (rng.normal(size=(n, 16)).astype(np.float32) for _ in range(4))
    out, bw = _node_of(lambda *t: ad.attention(*t, 4, runs),
                       *(parameter(a, name) for a, name in zip((q, k, v), "qkv")))
    grads = bw(g)
    assert out.shape == q.shape and all(x.shape == q.shape for x in grads)
    start = 0
    for c, t in runs:
        rows = slice(start, start + c * t)
        start = rows.stop
        alone = [parameter(a[rows], name) for a, name in zip((q, k, v), "qkv")]
        ref, ref_bw = _node_of(lambda *t_: ad.attention(*t_, 4, [(c, t)]), *alone)
        _assert_same(out[rows], ref)
        for got, want in zip(grads, ref_bw(g[rows])):
            _assert_same(got[rows], want)


def test_attention_rejects_mismatched_operands():
    """Operands are packed [N, W] rows only: a [B, T, W] batch is rejected,
    as are k and v of different shapes, W not divisible by the heads, runs
    that do not cover the rows and query counts that do not fit q."""
    packed = Tensor(np.zeros((6, 8)))
    batch = Tensor(np.zeros((2, 3, 8)))               # the same 6 rows as [B, T, W]
    for q, k in ((packed, Tensor(np.zeros((8, 8)))), (batch, batch),
                 (batch, packed), (packed, batch)):
        with pytest.raises(ShapeError):
            ad.attention(q, k, k, 2, [(2, 3)])
    with pytest.raises(ShapeError):
        ad.attention(packed, packed, packed, 3, [(2, 3)])
    for runs in ([], [(2, 2)], [(2, 2), (1, 3)], [(0, 4), (3, 2)]):
        with pytest.raises(ShapeError):
            ad.attention(packed, packed, packed, 2, runs)
    for n in (0, 1, 3):                   # 4 query rows fit only queries=2
        with pytest.raises(ShapeError):
            ad.attention(Tensor(np.zeros((4, 8))), packed, packed, 2, [(2, 3)], queries=n)


def test_shared_weight_matmul_float32_adjoints_match_float64():
    rng = np.random.default_rng(410)
    a, w, g = (rng.normal(size=s).astype(np.float32).astype(np.float64)
               for s in ((8, 5, 64), (64, 32), (8, 5, 32)))
    with Tape() as tape:
        ad.matmul(Tensor(a, requires_grad=True, dtype=np.float32),
                  Tensor(w, requires_grad=True, dtype=np.float32))
    ga, gw = tape.nodes[0].backward_fn(g.astype(np.float32))
    assert ga.dtype == gw.dtype == np.float32
    assert ga.shape == a.shape and gw.shape == w.shape
    assert relative_error(ga, g @ w.T) < 1e-5
    assert relative_error(gw, a.reshape(-1, 64).T @ g.reshape(-1, 32)) < 1e-5


# -------------------------------------------------------------------------
# adjoint purity: an op writes in place only into arrays it allocated
# -------------------------------------------------------------------------

def _purity_cases():
    """op case -> (builder over named tensors, input shapes or arrays).
    Positive arrays where the op needs them; l2_normalize and
    soft_cross_entropy each meet their clamp."""
    probs = np.random.default_rng(0).dirichlet(np.ones(6), size=3)
    probs[0, :2] = [0.0, 1e-14]                       # below LOG_CLAMP
    rows = np.random.default_rng(1).normal(size=(3, 5))
    rows[1] = 0.0                                     # a zero row: l2_normalize's clamp
    pos = lambda *shape: np.random.default_rng(2).uniform(0.5, 2.0, size=shape)
    return {
        "add": (lambda t: ad.add(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
        "sub": (lambda t: ad.sub(t["a"], t["b"]), {"a": (3, 4), "b": (3, 1)}),
        "mul": (lambda t: ad.mul(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
        "div": (lambda t: ad.div(t["a"], t["b"]), {"a": (3, 4), "b": pos(3, 4)}),
        "neg": (lambda t: ad.neg(t["a"]), {"a": (3, 4)}),
        "exp": (lambda t: ad.exp(t["a"]), {"a": (3, 4)}),
        "log": (lambda t: ad.log(t["a"]), {"a": pos(3, 4)}),
        "sqrt": (lambda t: ad.sqrt(t["a"]), {"a": pos(3, 4)}),
        "gelu": (lambda t: ad.gelu(t["a"]), {"a": (2, 3, 8)}),
        "gelu_rank0": (lambda t: ad.gelu(t["a"]), {"a": ()}),
        "sum_axis": (lambda t: ad.sum_(t["a"], axis=1), {"a": (3, 4)}),
        "sum_all": (lambda t: ad.sum_(t["a"]), {"a": (3, 4)}),
        "mean": (lambda t: ad.mean(t["a"], axis=0, keepdims=True), {"a": (3, 4)}),
        "reshape": (lambda t: ad.reshape(t["a"], (4, 3)), {"a": (3, 4)}),
        "transpose": (lambda t: ad.transpose(t["a"], (0, 2, 1)), {"a": (2, 3, 4)}),
        "concat": (lambda t: ad.concat([t["a"], t["b"]], axis=1), {"a": (3, 2), "b": (3, 4)}),
        "take_index": (lambda t: ad.take_index(t["a"], 1, axis=1), {"a": (2, 3, 4)}),
        "take_index_rows": (lambda t: ad.take_index(t["a"], np.array([0, 2]), axis=1),
                            {"a": (2, 3, 4)}),
        "gather_rows": (lambda t: ad.gather_rows(t["a"], np.array([0, 2, 2])),
                        {"a": (3, 4)}),
        "extract_patches": (lambda t: ad.extract_patches(t["a"], 2), {"a": (2, 3, 4, 4)}),
        "matmul": (lambda t: ad.matmul(t["a"], t["b"]), {"a": (3, 4), "b": (4, 5)}),
        "linear": (lambda t: ad.linear(t["x"], t["w"], t["b"]),
                   {"x": (2, 3, 4), "w": (4, 5), "b": (5,)}),
        "linear_residual": (lambda t: ad.linear(t["x"], t["w"], t["b"], residual=t["r"]),
                            {"x": (3, 4), "w": (4, 5), "b": (5,), "r": (3, 5)}),
        "matmul_shared": (lambda t: ad.matmul(t["a"], t["b"]),
                          {"a": (2, 3, 4), "b": (4, 5)}),
        "matmul_batched": (lambda t: ad.matmul(t["a"], ad.transpose(t["b"], (0, 1, 3, 2))),
                           {"a": (2, 2, 3, 4), "b": (2, 2, 3, 4)}),
        "attention": (lambda t: ad.attention(t["q"], t["k"], t["v"], 2, [(2, 3)]),
                      {"q": (6, 8), "k": (6, 8), "v": (6, 8)}),
        "attention_runs": (lambda t: ad.attention(t["q"], t["k"], t["v"], 2, RUNS),
                           {"q": (13, 8), "k": (13, 8), "v": (13, 8)}),
        "attention_queries": (lambda t: ad.attention(t["q"], t["k"], t["v"], 2, [(2, 3)],
                                                     queries=2),
                              {"q": (4, 8), "k": (6, 8), "v": (6, 8)}),
        "attention_runs_queries": (lambda t: ad.attention(t["q"], t["k"], t["v"], 2, RUNS,
                                                          queries=2),
                                   {"q": (11, 8), "k": (13, 8), "v": (13, 8)}),
        "weight_norm_linear": (lambda t: ad.weight_norm_linear(t["x"], t["d"], t["s"]),
                               {"x": (2, 3), "d": (5, 3), "s": (5,)}),
        "softmax": (lambda t: ad.softmax(t["a"], axis=-1, temperature=0.07), {"a": (3, 6)}),
        "softmax_axis0": (lambda t: ad.softmax(t["a"], axis=0), {"a": (3, 6)}),
        "log_softmax": (lambda t: ad.log_softmax(t["a"], axis=0), {"a": (3, 6)}),
        "l2_normalize": (lambda t: ad.l2_normalize(t["a"]), {"a": rows}),
        "layer_norm": (lambda t: ad.layer_norm(t["a"], t["g"], t["b"]),
                       {"a": (2, 3, 8), "g": (8,), "b": (8,)}),
        "soft_cross_entropy": (lambda t: ad.soft_cross_entropy(probs[::-1], t["p"]),
                               {"p": probs}),
        "soft_cross_entropy_rank0": (lambda t: ad.soft_cross_entropy(0.3, t["p"]),
                                     {"p": pos()}),
        "soft_cross_entropy_logits": (
            lambda t: ad.soft_cross_entropy_logits(2.0 * probs[::-1], t["z"], 0.1),
            {"z": (3, 6)}),
        "soft_cross_entropy_logits_rank1": (
            lambda t: ad.soft_cross_entropy_logits(probs[1], t["z"], 1.0), {"z": (6,)}),
    }


def _purity_inputs(spec, rng, dtype):
    arrays = {}
    for name, s in spec.items():
        arr = s if isinstance(s, np.ndarray) else rng.normal(size=s)
        arrays[name] = Tensor(arr, requires_grad=True, name=name, dtype=dtype)
    return arrays


def _recorded_ops():
    return set(re.findall(r'_record\("(\w+)"', inspect.getsource(ad)))


def test_purity_cases_cover_every_recorded_op():
    seen = set()
    for build, spec in _purity_cases().values():
        with Tape() as tape:
            build(_purity_inputs(spec, np.random.default_rng(0), np.float64))
        seen |= {node.op for node in tape.nodes}
    assert seen == _recorded_ops()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_purity_cases()))
def test_adjoints_write_only_into_their_own_arrays(case, dtype):
    """Each recorded node's adjoint, on a contiguous and on a strided
    incoming gradient, leaves that gradient, its inputs' data and its output
    unchanged, returns one gradient per input in the input's shape, and
    gives the same gradients when called again."""
    build, spec = _purity_cases()[case]
    rng = np.random.default_rng(500)
    with Tape() as tape:
        build(_purity_inputs(spec, rng, dtype))
    assert tape.nodes
    for node in tape.nodes:
        out = node.output.data   # recorded unchecked: the op's own array
        assert type(out) is np.ndarray and out.flags.c_contiguous, node.op
        assert out.dtype == dtype and out.ndim <= ad.MAX_RANK, node.op
        base = np.asarray(rng.normal(size=node.output.shape + (2,)), dtype=dtype)
        for g in (base[..., 0].copy(), base[..., 1]):     # the second is strided
            before = [g.copy(), node.output.data.copy()] + [t.data.copy() for t in node.inputs]
            first = node.backward_fn(g)
            second = node.backward_fn(g)
            after = [g, node.output.data] + [t.data for t in node.inputs]
            for was, now in zip(before, after):
                assert np.array_equal(was, now, equal_nan=True), node.op
            assert len(first) == len(node.inputs)
            for t, g1, g2 in zip(node.inputs, first, second):
                assert g1.shape == t.shape, node.op
                assert np.array_equal(g1, g2, equal_nan=True), node.op


# -------------------------------------------------------------------------
# recorded and unrecorded forwards: one body, the same bits
# -------------------------------------------------------------------------

def _untaped_cases():
    """The purity cases, plus attention over more runs of distinct lengths
    (one of length 1) with and without query rows."""
    runs = [(2, 5), (1, 1), (3, 9), (1, 17), (2, 2)]
    n, n_q = sum(c * t for c, t in runs), sum(c * min(2, t) for c, t in runs)
    return {**_purity_cases(),
            "attention_long_runs": (lambda t: ad.attention(t["q"], t["k"], t["v"], 4, runs),
                                    {"q": (n, 16), "k": (n, 16), "v": (n, 16)}),
            "attention_long_runs_queries": (
                lambda t: ad.attention(t["q"], t["k"], t["v"], 4, runs, queries=2),
                {"q": (n_q, 16), "k": (n, 16), "v": (n, 16)})}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_untaped_cases()))
def test_unrecorded_forward_bits_equal_recorded(case, dtype):
    """Every op gives the same output bits with a recording tape, with no
    tape, and on a tape with constant inputs; the last two record nothing,
    and no forward changes its inputs' bytes."""
    build, spec = _untaped_cases()[case]
    inputs = _purity_inputs(spec, np.random.default_rng(700), dtype)
    constants = {k: Tensor(t.data, dtype=dtype) for k, t in inputs.items()}
    before = {k: t.data.copy() for k, t in inputs.items()}
    with Tape() as tape:
        recorded = build(inputs).data
    assert tape.nodes
    unrecorded = [build(inputs).data]
    with Tape() as tape:
        unrecorded.append(build(constants).data)
    assert tape.nodes == []
    for out in unrecorded:
        assert out.dtype == recorded.dtype == dtype
        assert out.tobytes() == recorded.tobytes(), case
    for k, t in inputs.items():
        assert t.data.tobytes() == before[k].tobytes(), k


# -------------------------------------------------------------------------
# the in-place rewrites against the expressions they replaced
# -------------------------------------------------------------------------

def _ref_softmax(x, axis, temperature):
    z = x / temperature
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (g - dot) * out / temperature

    return out, backward


def _ref_layer_norm(x, gain, bias):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gain + bias

    def backward(g):
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gain
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return out, backward


def _ref_soft_cross_entropy(target, pred):
    rows = 1 if pred.ndim < 2 else int(np.prod(pred.shape[:-1]))
    pc = np.maximum(pred, ad.LOG_CLAMP)
    out = np.asarray(-(target * np.log(pc)).sum() / rows, dtype=pred.dtype)

    def backward(g):
        grad = np.where(pred >= ad.LOG_CLAMP, -target / pc, 0.0) * (g / rows)
        return grad.astype(pred.dtype, copy=False)

    return out, backward


def _node_of(fn, *inputs):
    with Tape() as tape:
        out = fn(*inputs)
    return out.data, tape.nodes[-1].backward_fn


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rewritten_ops_bit_identical_to_reference_expressions(dtype):
    rng = np.random.default_rng(600)
    arr = lambda *s, scale=1.0: (rng.normal(size=s) * scale).astype(dtype)
    param = lambda a: Tensor(a, requires_grad=True, dtype=dtype)

    for shape, axis, temperature in (((5, 7), -1, 0.07), ((5, 7), 0, 1.0),
                                     ((4, 160, 40), -1, 0.04)):
        x = arr(*shape, scale=3.0)
        g = arr(*shape)
        out, bw = _node_of(lambda t: ad.softmax(t, axis=axis, temperature=temperature),
                           param(x))
        ref, ref_bw = _ref_softmax(x, axis, temperature)
        _assert_same(out, ref)
        _assert_same(bw(g)[0], ref_bw(g))

    for shape in ((3, 6), (4, 17, 64)):
        x, gain, bias, g = arr(*shape, scale=2.0), arr(shape[-1]), arr(shape[-1]), arr(*shape)
        out, bw = _node_of(ad.layer_norm, param(x), param(gain), param(bias))
        ref, ref_bw = _ref_layer_norm(x, gain, bias)
        _assert_same(out, ref)
        for got, want in zip(bw(g), ref_bw(g)):
            _assert_same(got, want)

    pred = rng.dirichlet(np.ones(64), size=10).astype(dtype)
    pred[0, :3] = [0.0, 1e-14, 1e-13]                 # clamped entries
    target = rng.dirichlet(np.ones(64), size=10).astype(dtype)
    for g in (np.asarray(1.0, dtype), np.asarray(-0.37, dtype)):
        out, bw = _node_of(lambda p: ad.soft_cross_entropy(target, p), param(pred))
        ref, ref_bw = _ref_soft_cross_entropy(target, pred)
        _assert_same(out, ref)
        _assert_same(bw(g)[0], ref_bw(g))


def _ref_attention(q, k, v, heads):
    """The composed chain that ``attention`` replaced, node by node in plain
    numpy: reshape and transpose copies of each head split and of the key's
    transpose, the batched products, ``mul`` by the scale cast to the
    operands' dtype, softmax at temperature 1 and the merge; the adjoints as
    those nodes' backward functions ran them."""
    b, t, w = q.shape
    hd = w // heads
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=q.dtype)

    def split(z):
        return np.ascontiguousarray(np.transpose(z.reshape(b, t, heads, hd).copy(),
                                                 (0, 2, 1, 3)))

    qs, ks, vs = split(q), split(k), split(v)
    kt = np.ascontiguousarray(np.transpose(ks, (0, 1, 3, 2)))
    z = (qs @ kt) * scale / 1.0
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    o = p @ vs
    out = np.ascontiguousarray(np.transpose(o, (0, 2, 1, 3))).reshape(b, t, w).copy()

    def merge_grad(g):                          # transpose's, then reshape's adjoint
        return np.transpose(g, (0, 2, 1, 3)).reshape(b, t, w)

    def backward(g):
        gc = np.transpose(g.reshape(b, t, heads, hd), (0, 2, 1, 3))
        gp = gc @ np.ascontiguousarray(vs.swapaxes(-1, -2))
        gv = p.swapaxes(-1, -2) @ gc
        r = gp - (gp * p).sum(axis=-1, keepdims=True)
        r *= p
        r /= 1.0
        gl = r * scale
        gq = gl @ np.ascontiguousarray(kt.swapaxes(-1, -2))
        gkt = qs.swapaxes(-1, -2) @ gl
        return merge_grad(gq), merge_grad(np.transpose(gkt, (0, 1, 3, 2))), merge_grad(gv)

    return out, backward


@pytest.mark.parametrize("shape,heads,lengths", [
    ((3, 5, 64), 4, None), ((3, 5, 64), 4, [5, 2, 4]), ((80, 9, 64), 4, None),
    ((2, 17, 64), 1, None), ((4, 1, 64), 4, None), ((2, 6, 16), 16, [6, 1])])
def test_attention_bit_identical_to_composed_chain(shape, heads, lengths):
    """float32 forward and (gq, gk, gv) equal the composed chain's bits.
    Without ``lengths`` the [B, T, W] batch's rows are packed as the one run
    (B, T).  With ``lengths``, sequence i holds the first lengths[i] rows of
    batch entry i; the sequences are packed, one run each, and every one
    equals the chain run on it alone."""
    rng = np.random.default_rng(610)
    q, k, v, g = (rng.normal(size=shape).astype(np.float32) for _ in range(4))
    if lengths is None:
        rows = lambda z: z.reshape(-1, shape[2])
        out, bw = _node_of(lambda *t: ad.attention(*t, heads, [shape[:2]]),
                           *(parameter(rows(a), n) for a, n in zip((q, k, v), "qkv")))
        ref, ref_bw = _ref_attention(q, k, v, heads)
        _assert_same(out, rows(ref))
        for got, want in zip(bw(rows(g)), ref_bw(g)):
            _assert_same(got, rows(want))
        return
    pack = lambda z: np.concatenate([z[i, :n] for i, n in enumerate(lengths)])
    out, bw = _node_of(lambda *t: ad.attention(*t, heads, [(1, n) for n in lengths]),
                       *(parameter(pack(a), n) for a, n in zip((q, k, v), "qkv")))
    grads = bw(pack(g))
    ends = np.cumsum([0, *lengths])
    for i, n in enumerate(lengths):
        rows = slice(ends[i], ends[i + 1])
        *qkv, g_alone = (np.ascontiguousarray(a[i:i + 1, :n]) for a in (q, k, v, g))
        ref, ref_bw = _ref_attention(*qkv, heads)
        _assert_same(out[rows], ref[0])
        for got, want in zip(grads, ref_bw(g_alone)):
            _assert_same(got[rows], want[0])


def test_copysign_bits_equal_numpy():
    """The gelu adjoint's copysign equals np.copysign bit for bit, on both
    dtypes, for every pairing of signed zeros, infinities, NaNs of either
    sign, subnormals, normals and magnitudes whose sign bit is set."""
    for dtype in (np.float32, np.float64):
        info = np.finfo(dtype)
        nan = np.asarray(np.nan, dtype)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
                             -info.smallest_subnormal, info.tiny / 3, -info.tiny / 3,
                             info.tiny, 0.5, -0.5, 1.0, -1e-9, -3.0, info.max, -info.max],
                            dtype=dtype)
        specials = np.concatenate([specials, [nan, np.negative(nan)]])
        assert np.signbit(specials[-1]) and not np.signbit(specials[-2])
        mag, sign = np.meshgrid(specials, specials)
        ints = np.int32 if dtype == np.float32 else np.int64
        got = ad._copysign(mag, sign)
        assert got.dtype == dtype
        assert np.array_equal(got.view(ints), np.copysign(mag, sign).view(ints))
        assert np.array_equal(mag, np.meshgrid(specials, specials)[0], equal_nan=True)
