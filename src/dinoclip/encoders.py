"""Desk-scale vision and text transformers with shared-dimension projections.

Defaults keep a training step in CPU milliseconds (32 px images, width 64,
depth 2); the full-scale values (224 px, K = 65536, hidden 2048) stay
expressible through the configs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DomainError, ShapeError, VocabularyError
from .prng import RandomStream

# Byte-level tokenizer constants: ids below 256 are reserved for specials,
# raw bytes live at 256 + b.
SENTINEL_ID = 1
END_ID = 2
BYTE_OFFSET = 256
BYTE_VOCAB_SIZE = 512

# Rows per sequence that the last block runs past attention's keys and
# values: row 0 is pooled, and a second row keeps every product off the
# one-row BLAS path, whose bits differ from a row of a larger product.
QUERY_ROWS = 2

INIT_STD = 0.02
# learnable contrastive temperature starts at 1/14.3
INIT_LOG_TAU = float(np.log(1.0 / 14.3))


@dataclass
class VisionEncoderConfig:
    image_size: int = 32
    patch_size: int = 8
    width: int = 64
    depth: int = 2
    heads: int = 4
    embed_dim: int = 32

    def __post_init__(self):
        if min(self.patch_size, self.heads, self.depth) < 1:
            raise DomainError(f"patch_size {self.patch_size}, heads {self.heads} and depth "
                              f"{self.depth} must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise DomainError(f"image_size {self.image_size} not divisible by "
                              f"patch_size {self.patch_size}")
        if self.width % self.heads != 0:
            raise DomainError(f"width {self.width} not divisible by heads {self.heads}")

    @property
    def seq_len(self) -> int:
        return (self.image_size // self.patch_size) ** 2 + 1


@dataclass
class TextEncoderConfig:
    vocab_size: int = BYTE_VOCAB_SIZE
    max_length: int = 64
    width: int = 64
    depth: int = 2
    heads: int = 4
    embed_dim: int = 32

    def __post_init__(self):
        if self.max_length < 2 or min(self.heads, self.depth) < 1:
            raise DomainError(f"max_length {self.max_length} must be >= 2 (a sentinel and an "
                              f"end id), and heads {self.heads} and depth {self.depth} >= 1")
        if self.width % self.heads != 0:
            raise DomainError(f"width {self.width} not divisible by heads {self.heads}")


@dataclass
class DinoProjectorConfig:
    hidden_dim: int = 128
    bottleneck_dim: int = 64
    output_dim: int = 256

    def __post_init__(self):
        for name in ("hidden_dim", "bottleneck_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")


@dataclass
class ModelConfig:
    vision: VisionEncoderConfig = field(default_factory=VisionEncoderConfig)
    text: TextEncoderConfig = field(default_factory=TextEncoderConfig)
    dino: DinoProjectorConfig = field(default_factory=DinoProjectorConfig)

    def __post_init__(self):
        if self.vision.embed_dim != self.text.embed_dim:
            raise DomainError("vision and text encoders must share embed_dim, got "
                              f"{self.vision.embed_dim} vs {self.text.embed_dim}")

    @property
    def embed_dim(self) -> int:
        return self.vision.embed_dim


class ModelParams:
    """Named trainable tensors of one full encoder stack.

    One instance plays the student role; a constant copy of its image tower
    and DINO head plays the teacher.  Tensors are immutable; updates replace entries.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self):
        return self.tensors.keys()

    def items(self):
        return self.tensors.items()

    def tau(self) -> float:
        return float(np.exp(self.tensors["log_tau"].data))


def _block_names(prefix: str, depth: int, width: int):
    """Yield (name, shape) for one transformer stack."""
    hidden = 4 * width
    for i in range(depth):
        b = f"{prefix}.blocks.{i}"
        yield f"{b}.ln1.gain", (width,)
        yield f"{b}.ln1.bias", (width,)
        for proj in ("q", "k", "v", "o"):
            yield f"{b}.attn.w{proj}", (width, width)
            yield f"{b}.attn.b{proj}", (width,)
        yield f"{b}.ln2.gain", (width,)
        yield f"{b}.ln2.bias", (width,)
        yield f"{b}.mlp.w1", (width, hidden)
        yield f"{b}.mlp.b1", (hidden,)
        yield f"{b}.mlp.w2", (hidden, width)
        yield f"{b}.mlp.b2", (width,)


def _parameter_spec(config: ModelConfig):
    v, t, d = config.vision, config.text, config.dino
    m = config.embed_dim
    yield "vision.patch_embed.w", (3 * v.patch_size ** 2, v.width)
    yield "vision.patch_embed.b", (v.width,)
    yield "vision.cls", (1, 1, v.width)
    yield "vision.pos", (v.seq_len, v.width)
    yield from _block_names("vision", v.depth, v.width)
    yield "vision.ln_f.gain", (v.width,)
    yield "vision.ln_f.bias", (v.width,)
    yield "vision.proj", (v.width, m)
    yield "text.tok_embed", (t.vocab_size, t.width)
    yield "text.pos", (t.max_length, t.width)
    yield from _block_names("text", t.depth, t.width)
    yield "text.ln_f.gain", (t.width,)
    yield "text.ln_f.bias", (t.width,)
    yield "text.proj", (t.width, m)
    yield "dino.w1", (m, d.hidden_dim)
    yield "dino.b1", (d.hidden_dim,)
    yield "dino.w2", (d.hidden_dim, d.hidden_dim)
    yield "dino.b2", (d.hidden_dim,)
    yield "dino.w3", (d.hidden_dim, d.bottleneck_dim)
    yield "dino.b3", (d.bottleneck_dim,)
    yield "dino.last_dir", (d.output_dim, d.bottleneck_dim)
    yield "dino.last_scale", (d.output_dim,)
    yield "log_tau", ()


def init_model_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seed-deterministic initialization: truncated normal (std 0.02) for
    weights, zeros for biases, ones for norm gains and weight-norm scales."""
    rng = RandomStream(0x494E4954, seed)
    zero_leaves = {"b", "b1", "b2", "b3", "bq", "bk", "bv", "bo", "bias"}
    tensors: dict[str, Tensor] = {}
    for name, shape in _parameter_spec(config):
        leaf = name.rsplit(".", 1)[-1]
        if name == "log_tau":
            arr = np.asarray(INIT_LOG_TAU)
        elif leaf == "gain" or name == "dino.last_scale":
            arr = np.ones(shape)
        elif leaf in zero_leaves:
            arr = np.zeros(shape)
        else:
            arr = rng.truncated_normals(int(np.prod(shape)), std=INIT_STD).reshape(shape)
        tensors[name] = Tensor(arr, requires_grad=True, name=name, dtype=np.float32)
    return ModelParams(config, tensors)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _row_offsets(runs) -> np.ndarray:
    """Each packed row's position within its sequence, for the sequences
    ``runs`` gives as (count, length) pairs in row order."""
    counts, lengths = np.array(runs, dtype=np.int64).T
    seq_lengths = np.repeat(lengths, counts)
    starts = np.cumsum(seq_lengths) - seq_lengths
    return np.arange(seq_lengths.sum()) - np.repeat(starts, seq_lengths)


def _transformer(params: ModelParams, prefix: str, x: Tensor, runs, offsets: np.ndarray,
                 pick: np.ndarray) -> Tensor:
    """One tower (``prefix`` "vision" or "text") over packed [N, W] rows,
    whose sequences ``runs`` gives as (count, length) pairs in row order
    and ``offsets`` as each row's position (``_row_offsets(runs)``): its
    pre-norm blocks, final layer norm and projection.  Returns [len(pick),
    m], row i the first row of sequence pick[i].

    Each block's attention is one ``autodiff.attention`` node over the
    biased q, k and v projections.  Every biased projection, the attention
    output's and the second MLP layer's with their residuals included, is
    one ``autodiff.linear`` node; every other op is position-wise.  Only
    first rows are pooled, so the last block keeps each sequence's first
    min(QUERY_ROWS, length) rows: every row is still a key and a value, so
    layer norm 1 and the k and v projections run on all rows, and the rest
    of the block, the final layer norm and the projection on the kept rows
    only.  The pooled rows are gathered after the projection, so no product
    has a single row unless the one sequence has length 1.  A float32 GEMM
    row does not depend on how many rows (at least two) are multiplied with
    it, as tests/test_encoders.py checks for the encoders' shapes, so each
    returned row has the bits of its sequence encoded alone."""
    cfg = getattr(params.config, prefix)
    keep = np.flatnonzero(offsets < QUERY_ROWS)
    for i in range(cfg.depth):
        blk = f"{prefix}.blocks.{i}"
        last = i == cfg.depth - 1
        h = ad.layer_norm(x, params[f"{blk}.ln1.gain"], params[f"{blk}.ln1.bias"])
        hq = h
        if last:
            x, hq = ad.take_index(x, keep, 0), ad.take_index(h, keep, 0)
        q, k, v = (ad.linear(z, params[f"{blk}.attn.w{p}"], params[f"{blk}.attn.b{p}"])
                   for z, p in zip((hq, h, h), "qkv"))
        attn = ad.attention(q, k, v, cfg.heads, runs, queries=QUERY_ROWS if last else None)
        x = ad.linear(attn, params[f"{blk}.attn.wo"], params[f"{blk}.attn.bo"], residual=x)

        h = ad.layer_norm(x, params[f"{blk}.ln2.gain"], params[f"{blk}.ln2.bias"])
        h = ad.linear(h, params[f"{blk}.mlp.w1"], params[f"{blk}.mlp.b1"])
        x = ad.linear(ad.gelu(h), params[f"{blk}.mlp.w2"], params[f"{blk}.mlp.b2"], residual=x)
    x = ad.layer_norm(x, params[f"{prefix}.ln_f.gain"], params[f"{prefix}.ln_f.bias"])
    first = np.flatnonzero(offsets[keep] == 0)
    return ad.gather_rows(ad.matmul(x, params[f"{prefix}.proj"]), first[pick])


def encode_images(params: ModelParams, images: Tensor) -> Tensor:
    """Batch image encoder: [B, 3, S, S] -> [B, m] class-token embeddings,
    each with the bits of its image encoded alone.

    S is the configured image_size or any smaller multiple of the patch
    size.  Below image_size the patch positional embeddings are the bicubic
    resize of the configured grid (as DINO interpolates them for its local
    crops) and the class position is used as is.  The B sequences of T
    tokens run through the tower as B * T packed rows."""
    cfg = params.config.vision
    if images.ndim != 4 or images.shape[1] != 3 or images.shape[2] != images.shape[3]:
        raise ShapeError(f"encode_images expects [B, 3, S, S], got {images.shape}")
    size = images.shape[2]
    if size % cfg.patch_size != 0 or not cfg.patch_size <= size <= cfg.image_size:
        raise ShapeError(f"input spatial size {size} must be a multiple of the patch "
                         f"size {cfg.patch_size} no larger than the configured "
                         f"{cfg.image_size} (the positional embeddings' grid)")
    b = images.shape[0]
    pos = params["vision.pos"]
    if size != cfg.image_size:
        pos = _interpolated_positions(pos, cfg.image_size // cfg.patch_size,
                                      size // cfg.patch_size)
    patches = ad.extract_patches(images, cfg.patch_size)            # [B, P, 3p^2]
    tokens = ad.linear(patches, params["vision.patch_embed.w"], params["vision.patch_embed.b"])
    cls = Tensor(np.zeros((b, 1, cfg.width), dtype=images.dtype)) + params["vision.cls"]
    x = ad.concat([cls, tokens], axis=1) + pos                      # [B, T, W]
    x = ad.reshape(x, (-1, cfg.width))                              # [B * T, W]
    runs = [(b, pos.shape[0])]
    return _transformer(params, "vision", x, runs, _row_offsets(runs), np.arange(b))


def _interpolated_positions(pos: Tensor, src: int, dst: int) -> Tensor:
    """Positional rows for a dst x dst patch grid from [1 + src^2, W] rows
    of a src x src grid: the class row as is, then the patch rows through
    the Kronecker product of resize_bicubic's per-axis matrices."""
    cls_row = ad.gather_rows(pos, np.zeros(1, dtype=np.int64))
    patch_rows = ad.gather_rows(pos, np.arange(1, src * src + 1, dtype=np.int64))
    axis = _resize_matrix(src, dst)
    resized = ad.matmul(np.kron(axis, axis), patch_rows)                 # [dst^2, W]
    return ad.concat([cls_row, resized], axis=0)


def encode_text(params: ModelParams, token_lists) -> Tensor:
    """Batch text encoder: B token id sequences -> [B, m] embeddings in input
    order, pooled at each sequence's position-0 sentinel.

    The sequences are sorted by length (stably) and their tokens packed into
    one [N, W] row block without padding, so every position-wise op runs
    once over all N rows; attention runs within each sequence, per run of
    equal lengths.  Each row is bit-identical to its sequence encoded alone
    (see ``_transformer``).
    """
    cfg = params.config.text
    seqs = [np.asarray(ids, dtype=np.int64) for ids in token_lists]
    if not seqs:
        raise ContractError("encode_text needs at least one token sequence")
    for ids in seqs:
        if ids.ndim != 1 or ids.size < 1:
            raise ContractError(f"token sequence must be non-empty and 1-D, "
                                f"got shape {ids.shape}")
        if ids.size > cfg.max_length:
            raise ContractError(f"sequence length {ids.size} exceeds max_length "
                                f"{cfg.max_length}; truncate before encoding")
    lengths = np.array([ids.size for ids in seqs])
    order = np.argsort(lengths, kind="stable")
    flat = np.concatenate([seqs[i] for i in order])
    if flat.min() < 0 or flat.max() >= cfg.vocab_size:
        raise VocabularyError(f"token id out of range [0, {cfg.vocab_size}): "
                              f"{int(flat.min())}..{int(flat.max())}")
    run_lengths, run_counts = np.unique(lengths, return_counts=True)
    runs = [(int(c), int(t)) for c, t in zip(run_counts, run_lengths)]
    offsets = _row_offsets(runs)
    x = (ad.gather_rows(params["text.tok_embed"], flat)
         + ad.gather_rows(params["text.pos"], offsets))                    # [N, W]
    return _transformer(params, "text", x, runs, offsets, np.argsort(order))


def project_dino(params: ModelParams, embedding: Tensor) -> Tensor:
    """Distillation head: 3-layer MLP, l2 normalization, weight-normalized
    output layer: [B, m] -> [B, K]."""
    cfg = params.config
    if embedding.ndim != 2 or embedding.shape[1] != cfg.embed_dim:
        raise ShapeError(f"project_dino expects [B, {cfg.embed_dim}], "
                         f"got {embedding.shape}")
    h = ad.gelu(ad.linear(embedding, params["dino.w1"], params["dino.b1"]))
    h = ad.gelu(ad.linear(h, params["dino.w2"], params["dino.b2"]))
    h = ad.linear(h, params["dino.w3"], params["dino.b3"])
    h = ad.l2_normalize(h, axis=-1)
    return ad.weight_norm_linear(h, params["dino.last_dir"], params["dino.last_scale"])


# ---------------------------------------------------------------------------
# bicubic resize (data-path helper; not differentiated)
# ---------------------------------------------------------------------------

def _catmull_rom(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5."""
    x = np.abs(x)
    x2, x3 = x * x, x * x * x
    return np.where(x <= 1.0, 1.5 * x3 - 2.5 * x2 + 1.0,
                    np.where(x < 2.0, -0.5 * x3 + 2.5 * x2 - 4.0 * x + 2.0, 0.0))


@functools.lru_cache(maxsize=None)
def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """[dst, src] float64 matrix of one axis's bicubic resize: row i holds the
    4-tap Catmull-Rom weights of output sample i, normalized, with taps past
    an edge clamped to it (summed where they meet).

    Cached per (src, dst): the pairs in use are the crop sides times the few
    output sizes, and every caller shares the read-only result."""
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    base = np.floor(coords).astype(np.int64)
    frac = coords - base
    taps = np.clip(np.stack([base - 1, base, base + 1, base + 2], axis=1), 0, src - 1)
    weights = _catmull_rom(np.stack([frac + 1, frac, frac - 1, frac - 2], axis=1))
    weights /= weights.sum(axis=1, keepdims=True)
    out = np.zeros((dst, src))
    np.add.at(out, (np.arange(dst)[:, None], taps), weights)
    out.flags.writeable = False
    return out


def resize_bicubic(arr: np.ndarray, target: int) -> np.ndarray:
    """Separable Catmull-Rom resize of [..., H, W] to [..., target, target]:
    one resize matrix per axis, R_H @ arr @ R_W.T in float64, so a stack of
    equal-sized images resizes in one call, each as it would alone.

    Edge-clamped sampling; forward-only (sits on the data path, before the
    differentiated graph).
    """
    if target < 1:
        raise DomainError(f"resize target must be >= 1, got {target}")
    if arr.ndim < 2:
        raise ShapeError(f"resize_bicubic expects [..., H, W], got shape {arr.shape}")
    h, w = arr.shape[-2:]
    if min(h, w) < 2:
        raise ContractError(f"source size {h}x{w} too small to interpolate")
    out = _resize_matrix(h, target) @ arr.astype(np.float64) @ _resize_matrix(w, target).T
    return out.astype(arr.dtype)
