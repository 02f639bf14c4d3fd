"""Encoder stacks: shapes, determinism, seeded init, projector, resize."""

import numpy as np
import pytest

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tensor
from dinoclip.encoders import (VisionEncoderConfig, encode_images, encode_text, init_model_params,
                               project_dino, resize_bicubic)
from dinoclip.errors import ContractError, DomainError, ShapeError, VocabularyError

from conftest import tiny_model_config
from gradcheck import check_gradients


@pytest.fixture(scope="module")
def params():
    return init_model_params(tiny_model_config(), seed=5)


def test_sequence_length_after_patchify():
    cfg = VisionEncoderConfig(image_size=32, patch_size=8)
    assert cfg.num_patches == 16
    assert cfg.seq_len == 17


def test_invalid_patch_division_rejected():
    with pytest.raises(DomainError):
        VisionEncoderConfig(image_size=30, patch_size=8)


def test_encode_image_deterministic(params, rng):
    img = Tensor(rng.random((1, 3, 8, 8), dtype=np.float32))
    a = encode_images(params, img)
    b = encode_images(params, img)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, 4)


def test_encode_image_wrong_size_rejected(params, rng):
    with pytest.raises(ShapeError, match="positional"):
        encode_images(params, Tensor(rng.random((1, 3, 16, 16), dtype=np.float32)))


def test_batch_matches_single(params, rng):
    imgs = rng.random((3, 3, 8, 8), dtype=np.float32)
    batch = encode_images(params, Tensor(imgs)).data
    for i in range(3):
        single = encode_images(params, Tensor(imgs[i:i + 1])).data
        assert np.allclose(single[0], batch[i], atol=1e-6)


def test_init_is_pure_function_of_config_and_seed():
    cfg = tiny_model_config()
    a = init_model_params(cfg, seed=9)
    b = init_model_params(cfg, seed=9)
    c = init_model_params(cfg, seed=10)
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data), name
    assert any(not np.array_equal(t.data, c[name].data) for name, t in a.items())


def test_encode_text_empty_caption_valid(params):
    # sentinel + end is the empty caption
    emb = encode_text(params, [1, 2])
    assert emb.shape == (4,)
    assert np.isfinite(emb.data).all()


def test_encode_text_deterministic(params):
    ids = [1, 5, 9, 11, 2]
    assert np.array_equal(encode_text(params, ids).data, encode_text(params, ids).data)


def test_encode_text_single_token_difference_changes_embedding(params):
    a = encode_text(params, [1, 5, 9, 2])
    b = encode_text(params, [1, 5, 10, 2])
    assert not np.allclose(a.data, b.data)


def test_encode_text_vocabulary_error(params):
    with pytest.raises(VocabularyError):
        encode_text(params, [1, 512, 2])


def test_encode_text_overlong_is_callers_problem(params):
    with pytest.raises(ContractError, match="truncate"):
        encode_text(params, [1, 3, 4, 5, 6, 7, 2])  # max_length is 6


def test_project_dino_output_length(params, rng):
    out = project_dino(params, Tensor(rng.normal(size=(1, 4)).astype(np.float32)))
    assert out.shape == (1, 8)


def test_project_dino_bottleneck_scale_invariance(params, rng):
    """Scaling the vector entering the l2 normalization leaves logits fixed."""
    h = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    h10 = Tensor(h.data * 10.0)

    def head(x):
        n = ad.l2_normalize(x, axis=-1)
        return ad.weight_norm_linear(n, params["dino.last_dir"], params["dino.last_scale"])

    assert np.allclose(head(h).data, head(h10).data, atol=1e-5)


def test_project_dino_prefinal_vector_is_unit_norm(params, rng):
    emb = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    h = ad.gelu(ad.matmul(emb, params["dino.w1"]) + params["dino.b1"])
    h = ad.gelu(ad.matmul(h, params["dino.w2"]) + params["dino.b2"])
    h = ad.matmul(h, params["dino.w3"]) + params["dino.b3"]
    n = ad.l2_normalize(h, axis=-1)
    assert np.allclose(np.linalg.norm(n.data, axis=-1), 1.0, atol=1e-6)


def test_encoder_gradients_match_finite_differences(rng):
    cfg = tiny_model_config()
    img = rng.random((1, 3, 8, 8))

    def builder(tensors):
        from dinoclip.encoders import ModelParams
        p = ModelParams(cfg, dict(tensors))
        emb = encode_images(p, Tensor(img, dtype=np.float64))
        return ad.sum_(emb)

    base = init_model_params(cfg, seed=2, dtype=np.float64)
    arrays = {k: v.data for k, v in base.items()
              if k.startswith("vision.patch_embed")}
    # only the probed tensors vary; the rest are captured constants
    fixed = {k: v.data for k, v in base.items()}

    def probe(tensors):
        merged = dict(fixed)
        merged.update({k: t.data for k, t in tensors.items()})
        from dinoclip.encoders import ModelParams
        p = ModelParams(cfg, {k: Tensor(v, requires_grad=(k in tensors), name=k,
                                        dtype=np.float64)
                              for k, v in merged.items()})
        # reuse the probed tensors so gradients land on them
        for k, t in tensors.items():
            p.tensors[k] = t
        emb = encode_images(p, Tensor(img, dtype=np.float64))
        return ad.sum_(emb)

    check_gradients(probe, arrays)


def test_project_dino_gradients(rng):
    cfg = tiny_model_config()
    base = init_model_params(cfg, seed=4, dtype=np.float64)
    emb = rng.normal(size=(2, 4))
    dino_names = [k for k in base.names() if k.startswith("dino.")]
    fixed = {k: v.data for k, v in base.items()}
    mask = rng.normal(size=(2, 8))

    def probe(tensors):
        from dinoclip.encoders import ModelParams
        merged = {k: Tensor(v, name=k, dtype=np.float64) for k, v in fixed.items()}
        for k, t in tensors.items():
            merged[k] = t
        p = ModelParams(cfg, merged)
        return ad.sum_(ad.mul(project_dino(p, Tensor(emb, dtype=np.float64)), mask))

    arrays = {k: 0.5 * rng.normal(size=fixed[k].shape) for k in dino_names}
    arrays["dino.last_scale"] = 1.0 + 0.1 * rng.normal(size=8)
    check_gradients(probe, arrays)


# -------------------------------------------------------------------------
# bicubic resize
# -------------------------------------------------------------------------

def test_resize_constant_image_preserved():
    img = np.full((3, 5, 5), 0.37, dtype=np.float32)
    for target in (3, 5, 9, 16):
        out = resize_bicubic(img, target)
        assert out.shape == (3, target, target)
        assert np.allclose(out, 0.37, atol=1e-6)


def test_resize_identity_when_same_size(rng):
    img = rng.random((3, 7, 7), dtype=np.float32)
    assert np.allclose(resize_bicubic(img, 7), img, atol=1e-6)


def test_resize_ramp_reproduced_at_interior_points():
    """Catmull-Rom interpolation reproduces a linear ramp exactly away from
    the clamped borders: each upscaled sample must equal the analytic ramp
    at its mapped source coordinate."""
    s, t = 8, 16
    ramp = np.linspace(0.0, 1.0, s, dtype=np.float64)
    img = np.broadcast_to(ramp, (3, s, s)).copy()
    up = resize_bicubic(img, t)
    for i in range(t):
        coord = (i + 0.5) * s / t - 0.5
        if not 1.0 <= coord <= s - 2.0:
            continue  # edge-clamped region
        expected = coord / (s - 1)
        assert abs(up[0, t // 2, i] - expected) < 1e-3


def test_resize_rejects_bad_target(rng):
    with pytest.raises(DomainError):
        resize_bicubic(rng.random((3, 4, 4)), 0)
