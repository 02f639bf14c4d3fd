"""Encoder stacks: shapes, determinism, seeded init, projector, resize."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dinoclip import autodiff as ad
from dinoclip import encoders
from dinoclip.autodiff import Tensor
from dinoclip.data import AugmentationConfig, make_views
from dinoclip.encoders import (ModelParams, TextEncoderConfig, VisionEncoderConfig,
                               encode_images, encode_text, init_model_params, project_dino,
                               resize_bicubic)
from dinoclip.errors import ContractError, DomainError, ShapeError, VocabularyError
from dinoclip.prng import RandomStream

import encoder_oracle
from conftest import bicubic_resize_oracle, float64_params, tiny_model_config
from gradcheck import check_gradients


@pytest.fixture(scope="module")
def params():
    return init_model_params(tiny_model_config(), seed=5)


def test_sequence_length_after_patchify():
    cfg = VisionEncoderConfig(image_size=32, patch_size=8)
    assert cfg.seq_len == 17


def test_invalid_patch_division_rejected():
    with pytest.raises(DomainError):
        VisionEncoderConfig(image_size=30, patch_size=8)


@pytest.mark.parametrize("config", [VisionEncoderConfig, TextEncoderConfig])
@pytest.mark.parametrize("depth", [0, -1])
def test_encoder_config_rejects_depth_below_one(config, depth):
    """A tower without blocks has no last block to run on the pooled rows
    only, and its kept-row ids would pool the wrong rows."""
    with pytest.raises(DomainError, match="depth"):
        config(depth=depth)


def test_encode_image_deterministic(params, rng):
    img = Tensor(rng.random((1, 3, 8, 8), dtype=np.float32))
    a = encode_images(params, img)
    b = encode_images(params, img)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, 4)


def test_encode_image_wrong_size_rejected(params, rng):
    """Sizes that are not a patch multiple, or exceed the configured size,
    are rejected; a smaller patch multiple encodes."""
    for size in (16, 12, 6, 2):
        with pytest.raises(ShapeError, match="positional"):
            encode_images(params, Tensor(rng.random((1, 3, size, size), dtype=np.float32)))
    with pytest.raises(ShapeError):
        encode_images(params, Tensor(rng.random((1, 3, 8, 4), dtype=np.float32)))
    assert encode_images(params, Tensor(rng.random((2, 3, 4, 4), dtype=np.float32))).shape \
        == (2, 4)


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
    emb = encode_text(params, [[1, 2]])
    assert emb.shape == (1, 4)
    assert np.isfinite(emb.data[0]).all()


def test_encode_text_deterministic(params):
    ids = [1, 5, 9, 11, 2]
    assert np.array_equal(encode_text(params, [ids]).data[0],
                          encode_text(params, [ids]).data[0])


def test_encode_text_single_token_difference_changes_embedding(params):
    a = encode_text(params, [[1, 5, 9, 2]])
    b = encode_text(params, [[1, 5, 10, 2]])
    assert not np.allclose(a.data[0], b.data[0])


def test_encode_text_vocabulary_error(params):
    with pytest.raises(VocabularyError):
        encode_text(params, [[1, 512, 2]])


def test_encode_text_overlong_is_callers_problem(params):
    with pytest.raises(ContractError, match="truncate"):
        encode_text(params, [[1, 3, 4, 5, 6, 7, 2]])  # max_length is 6


# -------------------------------------------------------------------------
# packed text batches
# -------------------------------------------------------------------------

MIXED_LENGTHS = [[1, 5, 9, 2], [1, 7, 2], [1, 3, 11, 4, 6, 2], [1, 2]]


def test_encode_text_packed_rows_equal_batch_of_one(params, rng):
    """Bit for bit, also at the default width with lengths from 2 to
    max_length, where a padded batch moved rows by ~1e-7."""
    batch = encode_text(params, MIXED_LENGTHS).data
    assert batch.shape == (len(MIXED_LENGTHS), 4)
    for i, ids in enumerate(MIXED_LENGTHS):
        assert np.array_equal(batch[i], encode_text(params, [ids]).data[0]), i
    default = init_model_params(encoders.ModelConfig(), seed=5)
    top = default.config.text.max_length
    seqs = [[1, *rng.integers(256, 512, size=n - 2), 2]
            for n in (top, 2, top // 2 + 1, 3, top - 1)]
    batch = encode_text(default, seqs).data
    for i, ids in enumerate(seqs):
        assert np.array_equal(batch[i], encode_text(default, [ids]).data[0]), len(ids)


@pytest.mark.parametrize("m", [2, 3, 17, 32, 160, 256, 511, 2000])
@pytest.mark.parametrize("k,n", [(64, 64), (64, 256), (64, 32), (256, 64)])
def test_gemm_rows_do_not_depend_on_row_count(m, k, n):
    """The packed text encoder's bit-identity rests on this BLAS property: a
    float32 GEMM row does not depend on how many rows are multiplied (at
    least two), at the encoder's shapes.  The last block's products have
    2B kept rows: 2 (one image), 32 (16 globals), 160 (80 captions) and
    256 (128 locals), as [2B, W] @ [W, 4W] and [2B, 4W] @ [4W, W]."""
    rng = np.random.default_rng(m * k + n)
    a = rng.normal(size=(2048, k)).astype(np.float32)
    b = rng.normal(size=(k, n)).astype(np.float32)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert np.array_equal(a[:m] @ b, (a @ b)[:m]), (
        f"BLAS {blas.get('name')} {blas.get('version')} gives [{m}, {k}] @ [{k}, {n}] "
        f"rows that depend on the row count; the packed text encoder needs them not to")


@pytest.mark.parametrize("t", [2, 5, 17, 35, 64])
def test_attention_gemm_rows_do_not_depend_on_query_count(t):
    """The last block's bit-identity rests on the same property for
    attention's two products at two query rows, head width 16: each equals
    the first two rows of the product over all t query rows."""
    rng = np.random.default_rng(t)
    c, heads, hd = 16, 4, 16
    q, k, v = (rng.normal(size=(c, heads, t, hd)).astype(np.float32) for _ in range(3))
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))                   # [c, H, hd, t]
    p = rng.random((c, heads, t, t)).astype(np.float32)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for two, full in ((np.ascontiguousarray(q[:, :, :2]) @ kt, q @ kt),
                      (np.ascontiguousarray(p[:, :, :2]) @ v, p @ v)):
        assert np.array_equal(two, full[:, :, :2]), (
            f"BLAS {blas.get('name')} {blas.get('version')} gives attention rows at "
            f"t = {t} that depend on the query count; the encoders' last block needs "
            f"them not to")


@pytest.fixture(scope="module")
def default_params():
    return init_model_params(encoders.ModelConfig(), seed=5)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lengths=st.lists(st.one_of(st.sampled_from([1, 2]), st.integers(1, 64)),
                        min_size=1, max_size=48),
       seed=st.integers(0, 2**16))
@example(lengths=[1], seed=0)
@example(lengths=[2], seed=0)
@example(lengths=[64], seed=0)
@example(lengths=[1, 5, 1, 2], seed=1)
@example(lengths=[2, 64, 3, 63, 2], seed=2)
@example(lengths=[int(n) for n in np.random.default_rng(3).integers(2, 65, size=80)], seed=3)
def test_encode_text_equals_all_rows_oracle(default_params, lengths, seed):
    """Bit for bit on the default config, against every block run on every
    row, for any mix of lengths 1 to 64, length-1 and length-2 sequences
    drawn often (a length-1 sequence keeps one row, every other two), and
    an 80-caption pack as eval embeds."""
    rng = np.random.default_rng(seed)
    seqs = [[1, *rng.integers(256, 512, size=n - 2), 2] if n > 1 else [1] for n in lengths]
    assert np.array_equal(encode_text(default_params, seqs).data,
                          encoder_oracle.encode_text(default_params, seqs).data)


@pytest.mark.parametrize("size,batch", [(32, 16), (32, 1), (16, 128), (16, 3), (16, 1)])
def test_encode_images_equals_all_rows_oracle(default_params, rng, size, batch):
    """Bit for bit on the default config at 32 px (globals) and 16 px
    (locals, interpolated positions), one image included, against every
    block run on every row."""
    params = default_params
    images = Tensor(rng.random((batch, 3, size, size), dtype=np.float32))
    assert np.array_equal(encode_images(params, images).data,
                          encoder_oracle.encode_images(params, images).data)


@pytest.mark.parametrize("size", [32, 16])
def test_encode_images_rows_equal_each_image_alone(default_params, rng, size):
    """On the default config, at 32 px (globals) and 16 px (locals), each
    image encoded alone has the bits of its row in a batch of 8."""
    images = rng.random((8, 3, size, size), dtype=np.float32)
    batch = encode_images(default_params, Tensor(images)).data
    for i in range(len(images)):
        assert np.array_equal(encode_images(default_params, Tensor(images[i:i + 1])).data[0],
                              batch[i]), i


def test_encode_text_packed_gradients_match_finite_differences(rng):
    cfg = tiny_model_config(vocab=16)
    base = float64_params(cfg, seed=6)
    weights = rng.normal(size=(len(MIXED_LENGTHS), 4))
    probed = ("text.tok_embed", "text.pos", "text.blocks.0.attn.wk",
              "text.blocks.0.attn.wq", "text.proj")

    def probe(tensors):
        merged = {k: Tensor(v.data, name=k, dtype=np.float64) for k, v in base.items()}
        merged.update(tensors)
        emb = encode_text(ModelParams(cfg, merged), MIXED_LENGTHS)
        return ad.sum_(ad.mul(emb, weights))

    arrays = {k: 0.5 * rng.normal(size=base[k].shape) for k in probed}
    check_gradients(probe, arrays)


def test_encode_text_pos_rows_past_longest_get_zero_gradient(params):
    """Packing leaves no padding: the positional rows past the longest
    sequence take no part and get exactly zero gradient."""
    seqs = MIXED_LENGTHS[:2] + MIXED_LENGTHS[3:]           # lengths 4, 3, 2
    tensors = {k: Tensor(v.data, requires_grad=True, name=k) for k, v in params.items()}
    with ad.Tape() as tape:
        emb = encode_text(ModelParams(params.config, tensors), seqs)
        loss = ad.sum_(ad.mul(emb, emb))
    grads = dict(zip(tensors, ad.backward(tape, loss, params=tensors.values())))
    g = grads["text.pos"]
    assert g.shape[0] > 4
    assert np.array_equal(g[4:], np.zeros_like(g[4:]))
    assert all(np.abs(g[i]).max() > 0 for i in range(4))


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

    base = float64_params(cfg, seed=2)
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
    base = float64_params(cfg, seed=4)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_matches_per_pixel_oracle(rng, dtype):
    """Against the brute-force per-pixel oracle, up- and down-scales, square
    and not, on non-contiguous crops and a transposed view: within 1e-12 in
    float64, and within float32 rounding of the oracle otherwise."""
    tol = 1e-12 if dtype == np.float64 else 1e-6
    drawn = [tuple(int(n) for n in rng.integers(2, 24, size=3)) for _ in range(6)]
    for h, w, target in [(12, 12, 5), (5, 5, 16), (9, 9, 9), (2, 2, 7), (17, 11, 8),
                         (7, 13, 3), (32, 32, 1), (3, 20, 12), *drawn]:
        image = rng.random((3, h + 4, w + 6)).astype(dtype)
        for view in (image[:, 2:2 + h, 3:3 + w],
                     image.transpose(0, 2, 1)[:, 3:3 + w, 2:2 + h]):
            out = resize_bicubic(view, target)
            assert out.dtype == dtype and out.shape == (3, target, target)
            assert np.abs(out - bicubic_resize_oracle(view, target)).max() <= tol


def test_resize_stack_equals_each_image_alone(rng):
    """[..., H, W]: a stack of crops resizes in one call to the bits of each
    crop resized alone."""
    stack = rng.random((4, 3, 11, 7)).astype(np.float32)
    out = resize_bicubic(stack, 6)
    assert out.shape == (4, 3, 6, 6) and out.dtype == np.float32
    for image, got in zip(stack, out):
        assert np.array_equal(got, resize_bicubic(image, 6))


def test_resize_matrix_cached_read_only():
    axis = encoders._resize_matrix(7, 4)
    assert encoders._resize_matrix(7, 4) is axis
    assert axis.shape == (4, 7) and axis.dtype == np.float64
    assert not axis.flags.writeable
    with pytest.raises(ValueError):
        axis[0, 0] = 0


def test_resize_cached_matrix_bit_identical_to_uncached(monkeypatch, rng):
    img = rng.random((3, 12, 12), dtype=np.float32)
    aug = AugmentationConfig(global_crop_size=8, local_crop_size=4, n_local=3)
    cached = [resize_bicubic(img, t) for t in (5, 8, 16)]
    cached_views = make_views([img], aug, [RandomStream(4, 0, 1)])
    monkeypatch.setattr(encoders, "_resize_matrix", encoders._resize_matrix.__wrapped__)
    for t, out in zip((5, 8, 16), cached):
        assert np.array_equal(resize_bicubic(img, t), out)
    uncached_views = make_views([img], aug, [RandomStream(4, 0, 1)])
    assert all(np.array_equal(a, b) for a, b in zip(uncached_views, cached_views))


# -------------------------------------------------------------------------
# inputs below the configured size: interpolated positional embeddings
# -------------------------------------------------------------------------

def _grid_config(image_size: int):
    """The tiny config with a 4 px patch grid of image_size / 4 per side."""
    return dataclasses.replace(tiny_model_config(), vision=VisionEncoderConfig(
        image_size=image_size, patch_size=4, width=8, depth=1, heads=2, embed_dim=4))


@pytest.mark.parametrize("dst", [1, 2, 3])
def test_interpolated_positions_equal_bicubic_resize_of_grid(rng, dst):
    """Patch rows: resize_bicubic of the [W, g, g] position grid to 1e-12 in
    float64; the class row is passed through unchanged."""
    g, w = 4, 8
    pos = rng.normal(size=(1 + g * g, w))
    rows = encoders._interpolated_positions(Tensor(pos, dtype=np.float64), g, dst).data
    grid = pos[1:].T.reshape(w, g, g)
    expected = resize_bicubic(grid, dst).reshape(w, dst * dst).T
    assert rows.shape == (1 + dst * dst, w)
    assert np.array_equal(rows[0], pos[0])
    assert np.abs(rows[1:] - expected).max() <= 1e-12


def test_position_resize_matrix_same_size_is_identity(rng):
    """At an unchanged grid the per-axis matrix, its Kronecker square and so
    the interpolated rows are the identity, exactly."""
    for g in (2, 3, 4):
        axis = encoders._resize_matrix(g, g)
        assert np.array_equal(np.kron(axis, axis), np.eye(g * g))
        pos = rng.normal(size=(1 + g * g, 8))
        rows = encoders._interpolated_positions(Tensor(pos, dtype=np.float64), g, g).data
        assert np.array_equal(rows, pos)


def test_encode_images_reduced_size_gradients_match_finite_differences(rng):
    """A 3 x 3 position grid encoding 2 x 2 patch inputs: gradients reach
    vision.pos through the resize matrix, and the class token and patch
    embedding as before."""
    cfg = _grid_config(12)
    base = float64_params(cfg, seed=3)
    img = Tensor(rng.random((2, 3, 8, 8)), dtype=np.float64)
    weights = rng.normal(size=(2, 4))
    probed = ("vision.pos", "vision.cls", "vision.patch_embed.w")

    def probe(tensors):
        merged = {k: Tensor(v.data, name=k, dtype=np.float64) for k, v in base.items()}
        merged.update(tensors)
        return ad.sum_(ad.mul(encode_images(ModelParams(cfg, merged), img), weights))

    arrays = {k: 0.5 * rng.normal(size=base[k].shape) for k in probed}
    check_gradients(probe, arrays)
