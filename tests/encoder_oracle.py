"""The all-rows reference for ``dinoclip.encoders``' forwards: every block,
the final layer norm and the projection run on every row, and the pooling
then picks one row per input.  The tests require the library's encoders to
give these bits exactly."""

import numpy as np

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tensor
from dinoclip.encoders import _interpolated_positions


def transformer(params, prefix, x, depth, heads, runs):
    """Pre-norm blocks over every packed [N, W] row of x."""
    for i in range(depth):
        blk = f"{prefix}.blocks.{i}"
        h = ad.layer_norm(x, params[f"{blk}.ln1.gain"], params[f"{blk}.ln1.bias"])
        q, k, v = (ad.matmul(h, params[f"{blk}.attn.w{p}"]) + params[f"{blk}.attn.b{p}"]
                   for p in "qkv")
        attn = ad.attention(q, k, v, heads, runs)
        x = x + ad.matmul(attn, params[f"{blk}.attn.wo"]) + params[f"{blk}.attn.bo"]

        h = ad.layer_norm(x, params[f"{blk}.ln2.gain"], params[f"{blk}.ln2.bias"])
        h = ad.matmul(h, params[f"{blk}.mlp.w1"]) + params[f"{blk}.mlp.b1"]
        x = x + ad.matmul(ad.gelu(h), params[f"{blk}.mlp.w2"]) + params[f"{blk}.mlp.b2"]
    return x


def encode_images(params, images: Tensor) -> Tensor:
    """[B, 3, S, S] -> [B, m]: the B images' T tokens as packed rows, every
    row through every block, the projection on every row, then each image's
    class row."""
    cfg = params.config.vision
    b, size = images.shape[0], images.shape[2]
    pos = params["vision.pos"]
    if size != cfg.image_size:
        pos = _interpolated_positions(pos, cfg.image_size // cfg.patch_size,
                                      size // cfg.patch_size)
    patches = ad.extract_patches(images, cfg.patch_size)
    tokens = ad.matmul(patches, params["vision.patch_embed.w"]) + params["vision.patch_embed.b"]
    cls = Tensor(np.zeros((b, 1, cfg.width), dtype=images.dtype)) + params["vision.cls"]
    x = ad.concat([cls, tokens], axis=1) + pos
    t = x.shape[1]
    x = transformer(params, "vision", ad.reshape(x, (b * t, cfg.width)), cfg.depth,
                    cfg.heads, [(b, t)])
    x = ad.layer_norm(x, params["vision.ln_f.gain"], params["vision.ln_f.bias"])
    return ad.gather_rows(ad.matmul(x, params["vision.proj"]), np.arange(b) * t)


def encode_text(params, token_lists) -> Tensor:
    """B token id lists -> [B, m]: packed by length, every row through every
    block, the projection on every row, then each sequence's first row."""
    cfg = params.config.text
    seqs = [np.asarray(ids, dtype=np.int64) for ids in token_lists]
    sizes_in = np.array([ids.size for ids in seqs])
    order = np.argsort(sizes_in, kind="stable")
    sizes = sizes_in[order]
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate([seqs[i] for i in order])
    positions = np.arange(flat.size) - np.repeat(starts, sizes)
    x = (ad.gather_rows(params["text.tok_embed"], flat)
         + ad.gather_rows(params["text.pos"], positions))
    lengths, counts = np.unique(sizes, return_counts=True)
    runs = [(int(c), int(t)) for c, t in zip(counts, lengths)]
    x = transformer(params, "text", x, cfg.depth, cfg.heads, runs)
    x = ad.layer_norm(x, params["text.ln_f.gain"], params["text.ln_f.bias"])
    first = np.empty_like(starts)
    first[order] = starts
    return ad.gather_rows(ad.matmul(x, params["text.proj"]), first)
