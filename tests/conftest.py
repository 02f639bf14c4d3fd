import os

# BLAS runs on one thread for the whole session, as the benchmark runs it.
# Set before numpy is first imported, which is here: pytest and hypothesis
# load without it.  A value set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tensor
from dinoclip.data import load_manifest
from dinoclip import encoders, evaluation, objectives
from dinoclip.encoders import (BYTE_OFFSET, DinoProjectorConfig, ModelConfig,
                               TextEncoderConfig, VisionEncoderConfig)
from dinoclip.errors import ContractError, DomainError, NumericError, ValidationError
from dinoclip.evaluation import cosine_matrix, format_lmcap_block, top_k_rows

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


def float64_params(config: ModelConfig, seed: int) -> encoders.ModelParams:
    """The library's float32 initialization as float64 leaf tensors, for
    gradient checks."""
    params = encoders.init_model_params(config, seed)
    return encoders.ModelParams(config, {k: parameter(v.data, k, dtype=np.float64)
                                         for k, v in params.items()})


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


def flip_bit(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def byte_mutations(valid: bytes):
    """Parser fuzzing input: random bytes, truncations and single-bit flips
    of a valid input."""
    return st.one_of(st.binary(max_size=2 * len(valid)),
                     st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
                     st.integers(0, 8 * len(valid) - 1).map(lambda bit: flip_bit(valid, bit)))


def write_ppm(path, image: np.ndarray):
    """[3, H, W] floats in [0, 1] to binary PPM."""
    arr = np.clip(np.asarray(image), 0.0, 1.0)
    c, h, w = arr.shape
    data = (arr * 255.0).round().astype(np.uint8).transpose(1, 2, 0)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def parameter(data, name: str, dtype=np.float32) -> Tensor:
    """A named leaf tensor that gradients flow to."""
    return Tensor(data, requires_grad=True, name=name, dtype=dtype)


def _catmull_rom_taps(i: int, src: int, dst: int) -> list[tuple[int, float]]:
    """(source index, weight) of output sample i along one axis: the 4
    nearest taps of its source coordinate, weights normalized, indices past
    an edge clamped to it."""
    x = (i + 0.5) * src / dst - 0.5
    taps = range(math.floor(x) - 1, math.floor(x) + 3)
    weights = []
    for k in taps:
        d = abs(x - k)
        weights.append(1.5 * d ** 3 - 2.5 * d ** 2 + 1.0 if d <= 1.0
                       else -0.5 * d ** 3 + 2.5 * d ** 2 - 4.0 * d + 2.0)   # 1 < d <= 2
    return [(min(max(k, 0), src - 1), w / sum(weights)) for k, w in zip(taps, weights)]


def bicubic_resize_oracle(image: np.ndarray, target: int) -> np.ndarray:
    """Brute-force Catmull-Rom (a = -0.5) resize of [C, H, W] to
    [C, target, target] in float64, one output pixel at a time over its
    4 x 4 source taps."""
    c, h, w = image.shape
    out = np.zeros((c, target, target))
    for i in range(target):
        for j in range(target):
            for y, wy in _catmull_rom_taps(i, h, target):
                for x, wx in _catmull_rom_taps(j, w, target):
                    out[:, i, j] += wy * wx * np.asarray(image[:, y, x], dtype=np.float64)
    return out


def encode_text(params, token_ids) -> Tensor:
    """One token id sequence -> [m] embedding: the library's batch encoder on
    a batch of one."""
    return ad.reshape(encoders.encode_text(params, [token_ids]), (params.config.embed_dim,))


def soft_distillation_terms(teacher_dists, student_blocks, average_pairs: bool = True):
    """Per-view [B, K] student probability blocks, global views first -> the
    library's distillation term on the logs of their view-major
    concatenation at tau_s = 1, whose softmax gives back the blocks."""
    return objectives.soft_distillation_terms(
        teacher_dists, ad.log(ad.concat(student_blocks, axis=0)), 1.0, average_pairs)


def detokenize(ids) -> str:
    """Inverse of tokenize below the truncation limit (specials dropped)."""
    payload = bytes(i - BYTE_OFFSET for i in ids if i >= BYTE_OFFSET)
    return payload.decode("utf-8", errors="replace")


def format_lmcap_example(retrieved_captions: list[str], language_name: str,
                         completion: str) -> str:
    """One few-shot block: the query template with its answer appended."""
    return format_lmcap_block(retrieved_captions, language_name) + f" {completion}\n\n"


def retrieve_top_k(query: np.ndarray, gallery: np.ndarray, k: int) -> list[int]:
    """One query's top-k gallery indices through the library's ranking, as
    build-lmcap-prompts ranks every query row at once."""
    return top_k_rows(cosine_matrix(query[None], gallery), k)[0].tolist()


@dataclass
class SimilarityMatrix:
    """Cosine similarities between Q queries (rows) and G gallery items."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError(f"similarity matrix must be 2-D, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise NumericError("similarity matrix has non-finite entries")
        if (np.abs(self.values) > 1.0 + 1e-5).any():
            raise ValidationError("similarity entries fall outside [-1, 1]")


@dataclass
class GroundTruth:
    """Correct gallery indices per query; every query needs at least one."""

    correct: dict[int, set]

    def mask(self, num_queries: int, num_gallery: int) -> np.ndarray:
        """[Q, G] mask of correct items; keys that are not query rows are ignored."""
        correct = np.zeros((num_queries, num_gallery), dtype=bool)
        for q in range(num_queries):
            hits = self.correct.get(q)
            if not hits:
                raise ContractError(f"query {q} has no correct gallery index")
            for g in hits:
                if not 0 <= g < num_gallery:
                    raise ContractError(f"query {q}: gallery index {g} out of range "
                                        f"[0, {num_gallery})")
                correct[q, g] = True
        return correct


def recall_at_k(sim: SimilarityMatrix, gt: GroundTruth, k: int) -> float:
    """Percentage of queries whose top-k ranking contains a correct item,
    ranked by the library's rank rule and counted by its recall_at_k, as
    retrieval_report does for each direction."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    num_queries, num_gallery = sim.values.shape
    if k > num_gallery:
        raise DomainError(f"k={k} exceeds gallery size {num_gallery}")
    ranks = evaluation._best_correct_rank(sim.values, gt.mask(num_queries, num_gallery))
    return evaluation.recall_at_k(ranks, k)


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
