"""Cross-modal retrieval metrics, zero-shot classification, the seeded 80/20
split procedure, and prompt construction for retrieval-augmented captioning.

Ranking is everywhere by descending similarity with ties broken by ascending
gallery index, so reports are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError, DomainError, NumericError, ValidationError
from .prng import RandomStream, fisher_yates, stable_hash

ZERO_SHOT_TEMPLATE = "a satellite photo of {class name}"
TEMPLATE_SLOT = "{class name}"

LMCAP_TEMPLATE = ("You are an intelligent image captioning bot tasked with describing "
                  "remote sensing images. Similar images have the following captions: "
                  "{captions}. A creative short caption that can describe this image "
                  "in {language} is:")

LMCAP_DEFAULT_RETRIEVED = 4  # K


@dataclass
class RetrievalReport:
    """Recall percentages in both directions plus their arithmetic mean."""

    i2t_r1: float
    i2t_r5: float
    i2t_r10: float
    t2i_r1: float
    t2i_r5: float
    t2i_r10: float
    mean_recall: float

    @classmethod
    def from_recalls(cls, i2t: tuple, t2i: tuple) -> "RetrievalReport":
        six = tuple(i2t) + tuple(t2i)
        return cls(*six, mean_recall=mean_recall(six))

    def as_tuple(self) -> tuple:
        return (self.i2t_r1, self.i2t_r5, self.i2t_r10,
                self.t2i_r1, self.t2i_r5, self.t2i_r10)

    def to_json(self) -> str:
        return json.dumps({k: round(v, 2) for k, v in asdict(self).items()})

    def to_csv_row(self) -> str:
        vals = self.as_tuple() + (self.mean_recall,)
        return ",".join(f"{v:.2f}" for v in vals)


@dataclass
class ZeroShotTemplate:
    """Prompt template with exactly one class-name slot."""

    template: str = ZERO_SHOT_TEMPLATE

    def __post_init__(self):
        if self.template.count(TEMPLATE_SLOT) != 1:
            raise ValidationError(f"template needs exactly one {TEMPLATE_SLOT!r} slot: "
                                  f"{self.template!r}")

    def expand(self, class_name: str) -> str:
        return self.template.replace(TEMPLATE_SLOT, class_name)


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------

def _best_correct_rank(values: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """Per query row (each with a correct item), the 0-based rank of its best
    correct item: the items scoring strictly higher plus those scoring equal
    at a lower index.  The best correct item is the first highest-scoring one."""
    best = np.where(correct, values, -np.inf).argmax(axis=1)
    score = values[np.arange(len(values)), best][:, None]
    before = np.arange(values.shape[1]) < best[:, None]
    return (values > score).sum(axis=1) + ((values == score) & before).sum(axis=1)


def recall_at_k(ranks: np.ndarray, k: int) -> float:
    """Percentage of queries whose best correct item ranks inside the top k,
    from the 0-based ranks of _best_correct_rank."""
    return 100.0 * int((ranks < k).sum()) / len(ranks)


def mean_recall(six_values) -> float:
    """Arithmetic mean of R@1/5/10 in both directions."""
    vals = tuple(float(v) for v in six_values)
    if len(vals) != 6:
        raise ContractError(f"mean recall takes exactly six values, got {len(vals)}")
    for v in vals:
        if not 0.0 <= v <= 100.0:
            raise DomainError(f"recall {v} outside [0, 100]")
    return sum(vals) / 6.0


def top_k_rows(sims: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k columns of highest score; ties go to the lower index."""
    if not 1 <= k <= sims.shape[1]:
        raise DomainError(f"k={k} outside [1, {sims.shape[1]}]")
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between rows of a and rows of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    an = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return np.clip(an @ bn.T, -1.0, 1.0)


def zero_shot_classify(image_embeddings: np.ndarray, class_names: list[str],
                       template: ZeroShotTemplate, text_encoder) -> list[int]:
    """Predict the class whose prompt embedding is most cosine-similar to
    each image embedding; ties break toward the lower class index.

    text_encoder maps a prompt string to a 1-D embedding array.
    """
    if not class_names:
        raise ContractError("zero-shot classification needs at least one class")
    imgs = np.asarray(image_embeddings, dtype=np.float64)
    if imgs.ndim != 2:
        raise ContractError(f"image embeddings must be [Q, m], got {imgs.shape}")
    class_vecs = [text_encoder(template.expand(name)) for name in class_names]
    sims = cosine_matrix(imgs, np.stack(class_vecs))
    # argmax returns the first (lowest-index) maximum, which is the tie rule
    return [int(np.argmax(row)) for row in sims]


# ---------------------------------------------------------------------------
# split procedure
# ---------------------------------------------------------------------------

def split_80_20(class_to_filenames: dict[str, list[str]], seed: int = 42):
    """Per class: Fisher-Yates shuffle (the SplitMix64 stream on the key seed
    XOR a stable hash of the class name), first floor(0.8 n) to train and the
    rest to test."""
    train, test = {}, {}
    for cls, files in class_to_filenames.items():
        if not files:
            raise ContractError(f"class {cls!r} has no filenames")
        rng = RandomStream.from_key(seed ^ stable_hash(cls))
        shuffled = fisher_yates(list(files), rng)
        cut = int(0.8 * len(shuffled))
        train[cls] = shuffled[:cut]
        test[cls] = shuffled[cut:]
    return train, test


# ---------------------------------------------------------------------------
# retrieval-augmented captioning prompts
# ---------------------------------------------------------------------------

def format_lmcap_block(retrieved_captions: list[str], language_name: str) -> str:
    if not retrieved_captions:
        raise ContractError("need at least one retrieved caption")
    for c in retrieved_captions:
        if not c:
            raise ValidationError("retrieved caption list contains an empty caption")
    joined = ", ".join(f'"{c}"' for c in retrieved_captions)
    return LMCAP_TEMPLATE.format(captions=joined, language=language_name)


def build_lmcap_prompt(retrieved_captions: list[str], language_name: str,
                       fewshot_blocks: list[str] = ()) -> str:
    """Concatenate preformatted few-shot blocks (in order) and the query
    block.  Retrieved captions appear quoted and comma-joined, in retrieval
    order."""
    return "".join(fewshot_blocks) + format_lmcap_block(retrieved_captions, language_name)


# ---------------------------------------------------------------------------
# retrieval harness over embedding sets
# ---------------------------------------------------------------------------

def retrieval_report(image_embeddings: np.ndarray, caption_embeddings: np.ndarray,
                     caption_to_image: list[int]) -> RetrievalReport:
    """Recalls for both directions from embedding matrices.

    caption_to_image[j] is the image row each caption row belongs to.  A
    text query counts one correct image; an image query counts a hit when
    any of its captions ranks inside the top k.
    """
    n_img, n_cap = image_embeddings.shape[0], caption_embeddings.shape[0]
    if len(caption_to_image) != n_cap:
        raise ContractError("caption ownership list does not match caption count")
    if not n_img:
        raise ContractError("retrieval needs at least one image")
    owned = np.zeros((n_img, n_cap), dtype=bool)
    for j, owner in enumerate(caption_to_image):
        if not 0 <= owner < n_img:
            raise ContractError(f"caption {j}: owner image {owner} out of range [0, {n_img})")
        owned[owner, j] = True
    lonely = np.flatnonzero(~owned.any(axis=1))
    if lonely.size:
        raise ContractError(f"image {lonely[0]} has no caption")
    sim = cosine_matrix(image_embeddings, caption_embeddings)
    if not np.isfinite(sim).all():
        i, j = np.argwhere(~np.isfinite(sim))[0]
        raise NumericError(f"image-to-text similarity of image {i} and caption {j} is not finite")
    i2t = _best_correct_rank(sim, owned)
    t2i = _best_correct_rank(sim.T, owned.T)
    return RetrievalReport.from_recalls(tuple(recall_at_k(i2t, k) for k in (1, 5, 10)),
                                        tuple(recall_at_k(t2i, k) for k in (1, 5, 10)))
