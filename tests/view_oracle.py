"""The per-view reference for ``dinoclip.data.make_views``: one image, one
view and one draw at a time, as the library built its views before it built
a whole batch's at once.  The tests require the batch form to give these
bits exactly."""

import numpy as np

from dinoclip.data import _TAG_VIEWS, BLUR_SIGMA_RANGE, JITTER_PROB, AugmentationConfig
from dinoclip.encoders import resize_bicubic
from dinoclip.errors import ContractError
from dinoclip.prng import RandomStream, fold_key


def _substream(stream: RandomStream, *words: int) -> RandomStream:
    """The child stream keyed on the parent's key plus extra words."""
    child = RandomStream()
    child._key = fold_key(stream._key, *words)
    return child


def _random_resized_crop(image: np.ndarray, out_size: int, scale: tuple,
                         rng: RandomStream) -> np.ndarray:
    _, h, w = image.shape
    frac = rng.uniform(scale[0], scale[1])
    side = int(round(np.sqrt(frac) * min(h, w)))
    side = max(2, min(side, min(h, w)))
    top = rng.next_below(h - side + 1)
    left = rng.next_below(w - side + 1)
    crop = image[:, top:top + side, left:left + side]
    return resize_bicubic(crop, out_size)


def _color_jitter(image: np.ndarray, strength: float, rng: RandomStream) -> np.ndarray:
    out = image
    b = rng.uniform(max(0.0, 1.0 - strength), 1.0 + strength)
    out = out * b
    c = rng.uniform(max(0.0, 1.0 - strength), 1.0 + strength)
    mean = np.ascontiguousarray(out).mean()         # summed in C order, whatever the layout
    out = (out - mean) * c + mean
    s = rng.uniform(max(0.0, 1.0 - 0.5 * strength), 1.0 + 0.5 * strength)
    gray = 0.299 * out[0] + 0.587 * out[1] + 0.114 * out[2]
    out = out * s + gray[None, :, :] * (1.0 - s)
    return np.clip(out, 0.0, 1.0)


def _blur_matrix(n: int, sigma: float) -> np.ndarray:
    """[n, n] float64 matrix of a normalized Gaussian along one axis, cut at
    scipy.ndimage's radius int(4 sigma + 0.5), taps past an edge clamped to it."""
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * offsets * offsets)
    weights /= weights.sum()
    rows = np.arange(n)[:, None]
    out = np.zeros((n, n))
    np.add.at(out, (rows, np.clip(rows + offsets, 0, n - 1)),
              np.broadcast_to(weights, (n, offsets.size)))
    return out


def _gaussian_blur(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of [C, H, W] over H and then W, edges clamped,
    rounded to the input's dtype after each axis (scipy.ndimage's
    gaussian_filter1d in "nearest" mode, one axis at a time)."""
    _, h, w = arr.shape
    rows = _blur_matrix(h, sigma)
    cols = rows if w == h else _blur_matrix(w, sigma)
    out = (rows @ arr).astype(arr.dtype)
    return (out @ cols.T).astype(arr.dtype)


def _augment_view(view: np.ndarray, config: AugmentationConfig,
                  rng: RandomStream) -> np.ndarray:
    out = view.astype(np.float32)
    if rng.uniform() < JITTER_PROB and config.jitter_strength > 0:
        out = _color_jitter(out, config.jitter_strength, rng).astype(np.float32)
    if rng.uniform() < config.blur_prob:
        sigma = rng.uniform(*BLUR_SIGMA_RANGE)
        out = _gaussian_blur(out, sigma)
    if rng.uniform() < config.solarize_prob:
        out = np.where(out >= config.solarize_threshold, 1.0 - out, out).astype(np.float32)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def make_views_oracle(image: np.ndarray, config: AugmentationConfig, stream: RandomStream,
                      n_global: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The first n_global of two global crops and n_local local crops at their
    own (smaller) size, with jitter/blur/solarize draws keyed on the view index.

    Returns (globals [n_global, 3, G, G], locals [n_local, 3, L, L]), float32;
    locals is empty when n_local is 0.  Global view 0 feeds the contrastive
    branch."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3:
        raise ContractError(f"expected [3, H, W] image, got shape {image.shape}")
    _, h, w = image.shape
    if config.n_local and min(h, w) < config.local_crop_size:
        raise ContractError(f"image {h}x{w} smaller than local crop size "
                            f"{config.local_crop_size}")
    views = []
    for view_idx in [*range(n_global), *range(2, 2 + config.n_local)]:
        rng = _substream(stream, _TAG_VIEWS, view_idx)
        if view_idx < 2:
            crop = _random_resized_crop(image, config.global_crop_size,
                                        config.global_scale, rng)
        else:
            crop = _random_resized_crop(image, config.local_crop_size,
                                        config.local_scale, rng)
        views.append(_augment_view(crop, config, rng))
    size = config.local_crop_size
    local = np.stack(views[n_global:]) if config.n_local else np.empty((0, 3, size, size),
                                                                       dtype=np.float32)
    return np.stack(views[:n_global]), local
