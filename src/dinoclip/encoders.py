"""Desk-scale vision and text transformers with shared-dimension projections.

Defaults keep a training step in CPU milliseconds (32 px images, width 64,
depth 2); the full-scale values (224 px, K = 65536, hidden 2048) stay
expressible through the configs.
"""

from __future__ import annotations

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
        if self.image_size % self.patch_size != 0:
            raise DomainError(f"image_size {self.image_size} not divisible by "
                              f"patch_size {self.patch_size}")
        if self.width % self.heads != 0:
            raise DomainError(f"width {self.width} not divisible by heads {self.heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1


@dataclass
class TextEncoderConfig:
    vocab_size: int = BYTE_VOCAB_SIZE
    max_length: int = 64
    width: int = 64
    depth: int = 2
    heads: int = 4
    embed_dim: int = 32

    def __post_init__(self):
        if self.max_length < 1:
            raise DomainError(f"max_length must be >= 1, got {self.max_length}")
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

    One instance plays the student role; a structural clone plays the
    teacher.  Tensors are immutable; updates replace entries.
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

    def clone(self) -> "ModelParams":
        return ModelParams(self.config,
                           {k: Tensor(v.data.copy(), requires_grad=v.requires_grad, name=k,
                                      dtype=v.dtype)
                            for k, v in self.tensors.items()})

    @property
    def log_tau(self) -> Tensor:
        return self.tensors["log_tau"]

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


def init_model_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
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
        tensors[name] = Tensor(arr, requires_grad=True, name=name, dtype=dtype)
    return ModelParams(config, tensors)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _transformer(params: ModelParams, prefix: str, x: Tensor, depth: int,
                 heads: int) -> Tensor:
    """Pre-norm transformer over x: [B, T, W] -> [B, T, W]."""
    b, t, w = x.shape
    hd = w // heads
    scale = 1.0 / np.sqrt(hd)
    for i in range(depth):
        blk = f"{prefix}.blocks.{i}"
        h = ad.layer_norm(x, params[f"{blk}.ln1.gain"], params[f"{blk}.ln1.bias"])

        def head_split(z):
            return ad.transpose(ad.reshape(z, (b, t, heads, hd)), (0, 2, 1, 3))

        q = head_split(ad.matmul(h, params[f"{blk}.attn.wq"]) + params[f"{blk}.attn.bq"])
        k = head_split(ad.matmul(h, params[f"{blk}.attn.wk"]) + params[f"{blk}.attn.bk"])
        v = head_split(ad.matmul(h, params[f"{blk}.attn.wv"]) + params[f"{blk}.attn.bv"])
        scores = ad.softmax(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * scale, axis=-1)
        attn = ad.reshape(ad.transpose(ad.matmul(scores, v), (0, 2, 1, 3)), (b, t, w))
        x = x + ad.matmul(attn, params[f"{blk}.attn.wo"]) + params[f"{blk}.attn.bo"]

        h = ad.layer_norm(x, params[f"{blk}.ln2.gain"], params[f"{blk}.ln2.bias"])
        h = ad.matmul(h, params[f"{blk}.mlp.w1"]) + params[f"{blk}.mlp.b1"]
        h = ad.matmul(ad.gelu(h), params[f"{blk}.mlp.w2"]) + params[f"{blk}.mlp.b2"]
        x = x + h
    return x


def encode_images(params: ModelParams, images: Tensor) -> Tensor:
    """Batch image encoder: [B, 3, S, S] -> [B, m] class-token embeddings."""
    cfg = params.config.vision
    if images.ndim != 4 or images.shape[1] != 3:
        raise ShapeError(f"encode_images expects [B, 3, S, S], got {images.shape}")
    if images.shape[2] != cfg.image_size or images.shape[3] != cfg.image_size:
        raise ShapeError(f"input spatial size {images.shape[2:]}"
                         f" does not match configured {cfg.image_size}"
                         " (positional embeddings are fixed-size)")
    b = images.shape[0]
    patches = ad.extract_patches(images, cfg.patch_size)            # [B, P, 3p^2]
    tokens = ad.matmul(patches, params["vision.patch_embed.w"]) + params["vision.patch_embed.b"]
    cls = Tensor(np.zeros((b, 1, cfg.width), dtype=images.dtype)) + params["vision.cls"]
    x = ad.concat([cls, tokens], axis=1) + params["vision.pos"]
    x = _transformer(params, "vision", x, cfg.depth, cfg.heads)
    x = ad.layer_norm(x, params["vision.ln_f.gain"], params["vision.ln_f.bias"])
    pooled = ad.take_index(x, 0, axis=1)                            # [B, W]
    return ad.matmul(pooled, params["vision.proj"])                 # [B, m]


def encode_text(params: ModelParams, token_ids) -> Tensor:
    """Token id sequence -> [m] embedding, pooled at the position-0 sentinel."""
    cfg = params.config.text
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ContractError(f"token sequence must be non-empty and 1-D, got shape {ids.shape}")
    if ids.size > cfg.max_length:
        raise ContractError(f"sequence length {ids.size} exceeds max_length "
                            f"{cfg.max_length}; truncate before encoding")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise VocabularyError(f"token id out of range [0, {cfg.vocab_size}): "
                              f"{int(ids.min())}..{int(ids.max())}")
    t = ids.size
    tok = ad.gather_rows(params["text.tok_embed"], ids)             # [T, W]
    # slice positional rows via gather so the gradient lands on the used rows
    pos_rows = ad.gather_rows(params["text.pos"], np.arange(t, dtype=np.int64))
    x = ad.reshape(tok + pos_rows, (1, t, cfg.width))
    x = _transformer(params, "text", x, cfg.depth, cfg.heads)
    x = ad.layer_norm(x, params["text.ln_f.gain"], params["text.ln_f.bias"])
    pooled = ad.take_index(ad.take_index(x, 0, axis=0), 0, axis=0)  # [W]
    return ad.reshape(ad.matmul(ad.reshape(pooled, (1, cfg.width)), params["text.proj"]),
                      (params.config.embed_dim,))


def project_dino(params: ModelParams, embedding: Tensor) -> Tensor:
    """Distillation head: 3-layer MLP, l2 normalization, weight-normalized
    output layer: [B, m] -> [B, K]."""
    cfg = params.config
    if embedding.ndim != 2 or embedding.shape[1] != cfg.embed_dim:
        raise ShapeError(f"project_dino expects [B, {cfg.embed_dim}], "
                         f"got {embedding.shape}")
    h = ad.gelu(ad.matmul(embedding, params["dino.w1"]) + params["dino.b1"])
    h = ad.gelu(ad.matmul(h, params["dino.w2"]) + params["dino.b2"])
    h = ad.matmul(h, params["dino.w3"]) + params["dino.b3"]
    h = ad.l2_normalize(h, axis=-1)
    return ad.weight_norm_linear(h, params["dino.last_dir"], params["dino.last_scale"])


# ---------------------------------------------------------------------------
# bicubic resize (data-path helper; not differentiated)
# ---------------------------------------------------------------------------

def _catmull_rom(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5."""
    x = np.abs(x)
    x2, x3 = x * x, x * x * x
    out = np.where(x <= 1.0, 1.5 * x3 - 2.5 * x2 + 1.0,
                   np.where(x < 2.0, -0.5 * x3 + 2.5 * x2 - 4.0 * x + 2.0, 0.0))
    return out


def _resize_axis_weights(src: int, dst: int):
    """Sample positions and 4-tap Catmull-Rom weights for one axis,
    edge-clamped."""
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    base = np.floor(coords).astype(np.int64)
    frac = coords - base
    taps = np.stack([base - 1, base, base + 1, base + 2], axis=1)
    weights = _catmull_rom(np.stack([frac + 1, frac, frac - 1, frac - 2], axis=1))
    weights /= weights.sum(axis=1, keepdims=True)
    taps = np.clip(taps, 0, src - 1)
    return taps, weights


def resize_bicubic(arr: np.ndarray, target: int) -> np.ndarray:
    """Separable Catmull-Rom resize of [C, s, s] to [C, target, target].

    Edge-clamped sampling; forward-only (sits on the data path, before the
    differentiated graph).
    """
    if target < 1:
        raise DomainError(f"resize target must be >= 1, got {target}")
    if arr.ndim != 3:
        raise ShapeError(f"resize_bicubic expects [C, H, W], got shape {arr.shape}")
    c, h, w = arr.shape
    if min(h, w) < 2:
        raise ContractError(f"source size {h}x{w} too small to interpolate")
    work = arr.astype(np.float64)

    taps_h, w_h = _resize_axis_weights(h, target)
    rows = work[:, taps_h, :] * w_h[None, :, :, None]               # [C, t, 4, W]
    work = rows.sum(axis=2)                                         # [C, t, W]
    taps_w, w_w = _resize_axis_weights(w, target)
    cols = work[:, :, taps_w] * w_w[None, None, :, :]               # [C, t, t, 4]
    return cols.sum(axis=3).astype(arr.dtype)
