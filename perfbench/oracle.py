"""Brute-force reference for the retrieval and zero-shot results, and the
InfoNCE loss over probe embeddings that the learning check reads.

Written without ``dinoclip.evaluation`` so that a change there is checked
against an independent computation.  Ranking follows the library's
documented rule: descending cosine similarity, ties to the lower gallery
index.
"""

from __future__ import annotations

import numpy as np

ZERO_SHOT_PREFIX = "a satellite photo of "


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a / np.maximum(np.sqrt((a * a).sum(axis=1, keepdims=True)), 1e-12)
    b = b / np.maximum(np.sqrt((b * b).sum(axis=1, keepdims=True)), 1e-12)
    # an elementwise product summed per row, not a BLAS matrix-vector product:
    # BLAS may round identical rows of b differently, which breaks exact ties
    return np.stack([(b * x).sum(axis=1) for x in a])


def _rank(row: np.ndarray, g: int) -> int:
    """Position of gallery item g in the row's ranking (0 = first)."""
    return int((row > row[g]).sum() + (row[:g] == row[g]).sum())


def _recalls(sim: np.ndarray, correct: list[list[int]]) -> tuple:
    best = [min(_rank(sim[q], g) for g in hits) for q, hits in enumerate(correct)]
    n_gallery = sim.shape[1]
    return tuple(100.0 * sum(b < min(k, n_gallery) for b in best) / len(best)
                 for k in (1, 5, 10))


def recalls(image_emb, caption_emb, caption_to_image: list[int]) -> tuple:
    """(i2t R@1, R@5, R@10, t2i R@1, R@5, R@10) in percent."""
    sim = _cosine(image_emb, caption_emb)
    owned = [[] for _ in range(sim.shape[0])]
    for cap, img in enumerate(caption_to_image):
        owned[img].append(cap)
    i2t = _recalls(sim, owned)
    t2i = _recalls(sim.T.copy(), [[img] for img in caption_to_image])
    return i2t + t2i


def zero_shot(image_emb, class_emb) -> list[int]:
    """Index of the most similar class per image, lowest index on ties."""
    sim = _cosine(image_emb, class_emb)
    return [next(c for c in range(sim.shape[1]) if _rank(row, c) == 0) for row in sim]


def info_nce(image_emb, caption_emb, tau: float) -> float:
    """Symmetric InfoNCE of matched rows: the mean of the image-to-caption
    and caption-to-image cross-entropies over cosine similarities / tau."""
    logits = _cosine(image_emb, caption_emb) / tau

    def cross_entropy(m):
        m = m - m.max(axis=1, keepdims=True)
        return float(np.mean(np.log(np.exp(m).sum(axis=1)) - np.diag(m)))
    return 0.5 * (cross_entropy(logits) + cross_entropy(logits.T))
