import json
from dataclasses import dataclass

import numpy as np
import pytest

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tensor
from dinoclip.data import load_manifest
from dinoclip.encoders import (BYTE_OFFSET, DinoProjectorConfig, ModelConfig,
                               TextEncoderConfig, VisionEncoderConfig)
from dinoclip.errors import ContractError
from dinoclip.evaluation import format_lmcap_block

FIXTURE_CAPTIONS_EN = [
    "airport with runways", "dense residential area", "baseball field",
    "large parking lot", "stadium with seats", "green playground",
    "river through town", "bridge over water", "forest with trees",
    "desert with sand", "harbor with boats", "farmland with crops",
    "school with yard", "railway station", "mountain with snow",
    "island in the sea",
]

FIXTURE_CAPTIONS_DE = [
    "Flughafen mit Landebahnen", "dichtes Wohngebiet", "Baseballfeld",
    "grosser Parkplatz", "Stadion mit Sitzen", "gruener Spielplatz",
    "Fluss durch die Stadt", "Bruecke ueber Wasser", "Wald mit Baeumen",
    "Wueste mit Sand", "Hafen mit Booten", "Ackerland mit Feldern",
    "Schule mit Hof", "Bahnhof", "Berg mit Schnee", "Insel im Meer",
]


def tiny_model_config(k: int = 8, vocab: int = 512) -> ModelConfig:
    """Smallest config that still exercises every code path.

    vocab defaults to the byte tokenizer's full range; gradient-check tests
    shrink it and feed hand-picked token ids instead.
    """
    return ModelConfig(
        vision=VisionEncoderConfig(image_size=8, patch_size=4, width=8, depth=1,
                                   heads=2, embed_dim=4),
        text=TextEncoderConfig(vocab_size=vocab, max_length=6, width=8, depth=1,
                               heads=2, embed_dim=4),
        dino=DinoProjectorConfig(hidden_dim=8, bottleneck_dim=4, output_dim=k),
    )


def write_synthetic_manifest(path, n: int = 16, size: int = 32, languages=("en", "de"),
                             split: str = "train"):
    """n synthetic images with one distinct caption per language."""
    lines = []
    for i in range(n):
        captions = {}
        if "en" in languages:
            captions["en"] = [FIXTURE_CAPTIONS_EN[i % len(FIXTURE_CAPTIONS_EN)]]
        if "de" in languages:
            captions["de"] = [FIXTURE_CAPTIONS_DE[i % len(FIXTURE_CAPTIONS_DE)]]
        lines.append(json.dumps({"image": {"synthetic": {"seed": i, "size": size}},
                                 "captions": captions, "split": split}))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path


def write_ppm(path, image: np.ndarray):
    """[3, H, W] floats in [0, 1] to binary PPM."""
    arr = np.clip(np.asarray(image), 0.0, 1.0)
    c, h, w = arr.shape
    data = (arr * 255.0).round().astype(np.uint8).transpose(1, 2, 0)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def detokenize(ids) -> str:
    """Inverse of tokenize below the truncation limit (specials dropped)."""
    payload = bytes(i - BYTE_OFFSET for i in ids if i >= BYTE_OFFSET)
    return payload.decode("utf-8", errors="replace")


def format_lmcap_example(retrieved_captions: list[str], language_name: str,
                         completion: str) -> str:
    """One few-shot block: the query template with its answer appended."""
    return format_lmcap_block(retrieved_captions, language_name) + f" {completion}\n\n"


# -------------------------------------------------------------------------
# scalar self-distillation oracle: one [K] distribution per view, one
# cross-entropy term per (teacher view, other student view) pair
# -------------------------------------------------------------------------

DIST_SUM_TOL = 1e-4


@dataclass
class DistributionSet:
    """Teacher distributions per global view, student distributions per view.

    Student views are ordered with the global views first, so view index i of
    the teacher list and of the student list name the same crop.
    """

    teacher: list   # G tensors of shape [K]
    student: list   # S tensors of shape [K]

    def __post_init__(self):
        if len(self.teacher) < 2:
            raise ContractError(f"need >= 2 teacher (global) views, got {len(self.teacher)}")
        if len(self.student) < len(self.teacher):
            raise ContractError("student must cover at least the global views")
        for name, dists in (("teacher", self.teacher), ("student", self.student)):
            for d in dists:
                vals = d.data if isinstance(d, Tensor) else np.asarray(d)
                if vals.min() < 0 or abs(vals.sum() - 1.0) > DIST_SUM_TOL:
                    raise ContractError(f"{name} entry is not a distribution "
                                        f"(sum {vals.sum():.6f}, min {vals.min():.3e})")


def self_distillation_loss(dists: DistributionSet, average_pairs: bool = True) -> Tensor:
    """Cross entropy from each teacher global view to every other student
    view, averaged over the summed pairs (raw sum when average_pairs is
    False)."""
    terms = []
    for ti, target in enumerate(dists.teacher):
        target = target.data if isinstance(target, Tensor) else np.asarray(target)
        for si, pred in enumerate(dists.student):
            if si != ti:
                terms.append(ad.soft_cross_entropy(target, pred))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    if average_pairs:
        total = ad.mul(total, 1.0 / len(terms))
    return total


def distillation_pair_count(n_global: int, n_views: int) -> int:
    return n_global * (n_views - 1)


@pytest.fixture
def synthetic_manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_synthetic_manifest(path)
    return load_manifest(path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
