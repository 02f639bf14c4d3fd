"""Finite-difference verification of reverse-mode gradients: the tests'
oracle for every adjoint in ``dinoclip.autodiff``.

Checks run in 64-bit: inputs are float64 arrays, so truncation error of the
central difference (h = 1e-4) sits far below the 1e-3 relative tolerance.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from dinoclip.autodiff import Tape, Tensor, backward

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-3

# builder: named float64 tensors -> scalar loss tensor, pure in its inputs
LossBuilder = Callable[[Mapping[str, Tensor]], Tensor]


def _eval(builder: LossBuilder, arrays: Mapping[str, np.ndarray]) -> float:
    tensors = {k: Tensor(v, dtype=np.float64) for k, v in arrays.items()}
    return builder(tensors).item()


def finite_difference_gradients(builder: LossBuilder,
                                arrays: Mapping[str, np.ndarray],
                                h: float = DEFAULT_STEP) -> dict[str, np.ndarray]:
    """Central differences of the loss w.r.t. every entry of every array."""
    base = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    grads = {}
    for name, arr in base.items():
        g = np.zeros_like(arr)
        flat = g.reshape(-1)
        work = arr.copy()
        wflat = work.reshape(-1)
        for i in range(wflat.size):
            orig = wflat[i]
            wflat[i] = orig + h
            up = _eval(builder, {**base, name: work})
            wflat[i] = orig - h
            down = _eval(builder, {**base, name: work})
            wflat[i] = orig
            flat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def reverse_mode_gradients(builder: LossBuilder,
                           arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    tensors = {k: Tensor(v, requires_grad=True, name=k, dtype=np.float64)
               for k, v in arrays.items()}
    with Tape() as tape:
        loss = builder(tensors)
    gm = backward(tape, loss, params=tensors.values())
    return {k: gm[t].data for k, t in tensors.items()}


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """||a - b||_2 / (max(||a||_2, ||b||_2) + floor).

    The additive floor keeps mathematically-zero gradients (which the two
    routes represent as exact zero vs. accumulated roundoff) from reading as
    100% disagreement.
    """
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / (max(na, nb) + floor))


def max_gradient_error(builder: LossBuilder,
                       arrays: Mapping[str, np.ndarray],
                       h: float = DEFAULT_STEP) -> float:
    """Worst per-parameter relative error between the two gradient routes."""
    ad = reverse_mode_gradients(builder, arrays)
    fd = finite_difference_gradients(builder, arrays, h=h)
    return max(relative_error(ad[k], fd[k]) for k in arrays)


def check_gradients(builder: LossBuilder,
                    arrays: Mapping[str, np.ndarray],
                    h: float = DEFAULT_STEP,
                    tol: float = DEFAULT_TOL) -> float:
    """Assert agreement of both routes; returns the worst relative error."""
    err = max_gradient_error(builder, arrays, h=h)
    if err > tol:
        raise AssertionError(f"gradient check failed: relative error {err:.3e} > {tol:.1e}")
    return err
