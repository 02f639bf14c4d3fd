"""Dataset manifests, multilingual caption sampling, multi-crop augmentation,
byte-level tokenization, and the file boundary to the external translation
service.

All randomness is keyed (seed, epoch, record index, view index) through
counter-based streams, so pipelines reproduce bit-for-bit regardless of
execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoders import END_ID, SENTINEL_ID, BYTE_OFFSET, resize_bicubic
from .errors import (AlignmentError, ContractError, DomainError, ManifestParseError,
                     ValidationError)
from .prng import RandomStream

SUPPORTED_LANGUAGES = ("en", "de", "fr", "es", "zh", "pt", "it", "ru", "ko", "nl")

LANGUAGE_NAMES = {
    "en": "English", "de": "German", "fr": "French", "es": "Spanish",
    "zh": "Chinese", "pt": "Portuguese", "it": "Italian", "ru": "Russian",
    "ko": "Korean", "nl": "Dutch",
}

TRANSLATION_PROMPT_TEMPLATE = ("Translate the following text from English into {language}."
                               "\nEnglish: {caption}\n{language}:")

RECORD_SEPARATOR = "\x1e"

VALID_SPLITS = ("train", "val", "test")

# stream tags keeping caption sampling, view augmentation, and synthetic
# pixels statistically independent
_TAG_CAPTION = 0x434150
_TAG_VIEWS = 0x564945
_TAG_SYNTH = 0x53594E

# jitter applies with this fixed probability; factor ranges scale with the
# configured strength (saturation at half strength)
JITTER_PROB = 0.8
BLUR_SIGMA_RANGE = (0.1, 2.0)


@dataclass
class CaptionRecord:
    text: str
    language: str

    def __post_init__(self):
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValidationError(f"unsupported language {self.language!r}")
        if not self.text:
            raise ValidationError("caption text must be non-empty")


@dataclass
class ImageCaptionRecord:
    """One image with caption variants grouped by language.

    Non-English caption lists are parallel translations of the English list
    and must match its length.
    """

    image_ref: object                       # path string or synthetic descriptor
    captions: dict[str, list[str]]
    split: str
    index: int = 0                          # position in the manifest, set by the loader

    def validate(self):
        label = f"record {self.index} (image={self.image_ref!r})"
        if not _is_image_ref(self.image_ref):
            raise ValidationError(f"{label}: image must be a non-empty path string or "
                                  '{"synthetic": {"seed": int, "size": int}}')
        if self.split not in VALID_SPLITS:
            raise ValidationError(f"{label}: bad split {self.split!r}")
        if not isinstance(self.captions, dict):
            raise ValidationError(f"{label}: captions must be an object mapping "
                                  "language codes to caption lists")
        for lang, texts in self.captions.items():
            if lang not in SUPPORTED_LANGUAGES:
                raise ValidationError(f"{label}: unknown language {lang!r}")
            if not isinstance(texts, list):
                raise ValidationError(f"{label}: captions under {lang!r} must be a list "
                                      f"of strings, got {type(texts).__name__}")
        if not self.captions.get("en"):
            raise ValidationError(f"{label}: English captions are required")
        n = len(self.captions["en"])
        for lang, texts in self.captions.items():
            if lang != "en" and len(texts) != n:
                raise ValidationError(f"{label}: {lang} has {len(texts)} captions, "
                                      f"English has {n} (translation must be 1:1)")
            for text in texts:
                if not isinstance(text, str) or not text:
                    raise ValidationError(f"{label}: empty caption under {lang!r}")
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as e:   # a lone surrogate from a JSON escape
                    raise ValidationError(f"{label}: caption under {lang!r} is not "
                                          f"UTF-8 encodable: {e}") from e

    def languages(self) -> list[str]:
        return sorted(self.captions.keys())


def _is_image_ref(ref) -> bool:
    if isinstance(ref, str):
        return bool(ref)
    if not isinstance(ref, dict) or set(ref) != {"synthetic"}:
        return False
    desc = ref["synthetic"]
    return (isinstance(desc, dict) and set(desc) == {"seed", "size"}
            and all(type(v) is int for v in desc.values()) and desc["size"] >= 1)


@dataclass
class AugmentationConfig:
    global_crop_size: int = 32
    local_crop_size: int = 16
    n_local: int = 8
    jitter_strength: float = 0.4
    blur_prob: float = 0.5
    solarize_prob: float = 0.2
    solarize_threshold: float = 0.5
    global_scale: tuple = (0.4, 1.0)
    local_scale: tuple = (0.05, 0.4)

    def __post_init__(self):
        if self.n_local < 0:
            raise DomainError("n_local must be >= 0")
        if self.global_crop_size < 2 or self.local_crop_size < 2:
            raise DomainError("crop sizes must be >= 2")
        for p in (self.blur_prob, self.solarize_prob):
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"probability {p} outside [0, 1]")
        for lo, hi in (self.global_scale, self.local_scale):
            if not 0.0 < lo <= hi <= 1.0:
                raise DomainError(f"bad crop scale range ({lo}, {hi})")


@dataclass
class EpochSamplingPolicy:
    mode: str = "english_only"              # or "one_translation"
    seed: int = 0
    include_english: bool = True            # candidate language under one_translation

    def __post_init__(self):
        if self.mode not in ("english_only", "one_translation"):
            raise DomainError(f"unknown sampling mode {self.mode!r}")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def load_manifest(path) -> list[ImageCaptionRecord]:
    """Parse a JSON-lines manifest; every record is validated on load."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: manifest is not UTF-8 text: {e}") from e
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:   # too deep, or an int too long
            raise ManifestParseError(line_no, str(e)) from e
        if not isinstance(obj, dict):
            raise ManifestParseError(line_no, f"expected a JSON object, "
                                              f"got {type(obj).__name__}")
        for key in ("image", "captions", "split"):
            if key not in obj:
                raise ManifestParseError(line_no, f"missing field {key!r}")
        rec = ImageCaptionRecord(image_ref=obj["image"], captions=obj["captions"],
                                 split=obj["split"], index=len(records))
        rec.validate()
        records.append(rec)
    return records


def save_manifest(records: list[ImageCaptionRecord], path):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps({"image": rec.image_ref, "captions": rec.captions,
                                "split": rec.split}, ensure_ascii=False))
            f.write("\n")


def split_records(records, split: str) -> list[ImageCaptionRecord]:
    return [r for r in records if r.split == split]


# ---------------------------------------------------------------------------
# caption sampling
# ---------------------------------------------------------------------------

def sample_caption(record: ImageCaptionRecord, epoch: int,
                   policy: EpochSamplingPolicy) -> CaptionRecord:
    """Pick one caption for this (record, epoch): a uniform English caption,
    or under one_translation a uniform caption index plus a uniform language
    among those present."""
    rng = RandomStream(_TAG_CAPTION, policy.seed, epoch, record.index)
    english = record.captions["en"]
    idx = rng.next_below(len(english))
    if policy.mode == "english_only":
        return CaptionRecord(english[idx], "en")
    langs = record.languages()
    if not policy.include_english and len(langs) > 1:
        langs = [l for l in langs if l != "en"]
    lang = langs[rng.next_below(len(langs))]
    return CaptionRecord(record.captions[lang][idx], lang)


# ---------------------------------------------------------------------------
# images and augmentation
# ---------------------------------------------------------------------------

def synthetic_image(seed: int, size: int) -> np.ndarray:
    """Deterministic smooth test image: per-channel sinusoid plus one blob."""
    rng = RandomStream(_TAG_SYNTH, seed)
    span = max(size - 1, 1)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / span
    img = np.empty((3, size, size), dtype=np.float64)
    for c in range(3):
        base = rng.uniform(0.2, 0.8)
        amp = rng.uniform(0.15, 0.4)
        fx, fy = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        img[c] = base + amp * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    cx, cy = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
    radius = rng.uniform(0.12, 0.3)
    blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * radius * radius))
    img[rng.next_below(3)] += 0.4 * blob
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6, 8-bit) to [3, H, W] float32 in [0, 1]."""
    raw = Path(path).read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(raw):
            ch = raw[pos:pos + 1]
            if ch == b"#":
                while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError(f"{path}: truncated PPM header")
        return raw[start:pos]

    def next_int(field_name):
        token = next_token()
        try:
            if token.isdigit():
                return int(token)
        except ValueError:   # more digits than int() converts
            pass
        raise ValidationError(f"{path}: PPM {field_name} {token[:20]!r} is not an integer")

    magic = next_token()
    if magic != b"P6":
        raise ValidationError(f"{path}: not a binary PPM (magic {magic!r})")
    width, height, maxval = (next_int(name) for name in ("width", "height", "maxval"))
    if width < 1 or height < 1:
        raise ValidationError(f"{path}: empty PPM ({width}x{height})")
    if maxval != 255:
        raise ValidationError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    count = width * height * 3
    if len(raw) - pos < count:
        raise ValidationError(f"{path}: pixel payload truncated")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    img = pixels.reshape(height, width, 3).transpose(2, 0, 1)
    return (img.astype(np.float32) / 255.0)


def load_record_image(record: ImageCaptionRecord, root=None) -> np.ndarray:
    ref = record.image_ref
    if isinstance(ref, dict):
        desc = ref["synthetic"]
        return synthetic_image(desc["seed"], desc["size"])
    path = Path(ref)
    if root is not None and not path.is_absolute():
        path = Path(root) / path
    return read_ppm(path)


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


def make_views(image: np.ndarray, config: AugmentationConfig, stream: RandomStream,
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
    if min(h, w) < config.local_crop_size:
        raise ContractError(f"image {h}x{w} smaller than local crop size "
                            f"{config.local_crop_size}")
    views = []
    for view_idx in [*range(n_global), *range(2, 2 + config.n_local)]:
        rng = stream.substream(_TAG_VIEWS, view_idx)
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


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def tokenize(text: str, max_length: int = 64) -> list[int]:
    """[sentinel] + UTF-8 bytes at a +256 offset + [end], truncated to fit."""
    if max_length < 2:
        raise DomainError(f"max_length must be >= 2, got {max_length}")
    payload = text.encode("utf-8")[: max_length - 2]
    return [SENTINEL_ID] + [BYTE_OFFSET + b for b in payload] + [END_ID]


# ---------------------------------------------------------------------------
# translation file boundary
# ---------------------------------------------------------------------------

def build_translation_prompt(caption: str, target_language_name: str) -> str:
    """Byte-exact zero-shot translation instruction for the external LLM."""
    if target_language_name not in LANGUAGE_NAMES.values():
        raise DomainError(f"unsupported target language {target_language_name!r}")
    return TRANSLATION_PROMPT_TEMPLATE.format(language=target_language_name,
                                              caption=caption)


def write_record_file(path, blocks: list[str]):
    """Write text blocks separated by a line holding only the record
    separator (every block is terminated, including the last)."""
    with open(path, "w", encoding="utf-8") as f:
        for block in blocks:
            f.write(block)
            f.write("\n" + RECORD_SEPARATOR + "\n")


def read_record_file(path) -> list[str]:
    """Blocks of a record file; bytes that are not UTF-8 raise ValidationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: record file is not UTF-8 text: {e}") from e
    if not text:
        return []
    blocks, current = [], []
    for line in text.split("\n"):
        if line == RECORD_SEPARATOR:
            blocks.append("\n".join(current))
            current = []
        else:
            current.append(line)
    tail = "\n".join(current)
    if tail.strip():
        blocks.append(tail)
    return blocks


def english_captions_in_order(records) -> list[tuple[int, int, str]]:
    """(record index, caption index, text) for every English caption."""
    out = []
    for rec in records:
        for ci, text in enumerate(rec.captions["en"]):
            out.append((rec.index, ci, text))
    return out


def build_translation_prompts(records, target_language_name: str) -> list[str]:
    return [build_translation_prompt(text, target_language_name)
            for _, _, text in english_captions_in_order(records)]


def ingest_translations(records, responses_path, language: str):
    """Attach one translated caption per English caption, in manifest order.

    The response file must contain exactly one record per English caption;
    any count mismatch aborts before touching the manifest.
    """
    if language not in SUPPORTED_LANGUAGES or language == "en":
        raise ValidationError(f"cannot ingest translations for language {language!r}")
    order = english_captions_in_order(records)
    blocks = [b.strip("\n") for b in read_record_file(responses_path)]
    if len(blocks) != len(order):
        raise AlignmentError(expected=len(order), actual=len(blocks))
    for block in blocks:
        if not block:
            raise ValidationError("empty translation record in response file")
    cursor = 0
    for rec in records:
        n = len(rec.captions["en"])
        rec.captions[language] = blocks[cursor:cursor + n]
        cursor += n
        rec.validate()
    return records
