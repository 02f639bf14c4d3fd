"""Dataset manifests, multilingual caption sampling, multi-crop augmentation,
byte-level tokenization, and the file boundary to the external translation
service.

All randomness is keyed (seed, epoch, record index, view index) through
counter-based streams, so pipelines reproduce bit-for-bit regardless of
execution order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .encoders import END_ID, SENTINEL_ID, BYTE_OFFSET, resize_bicubic
from .errors import (AlignmentError, ContractError, DomainError, ManifestParseError,
                     ValidationError)
from .prng import RandomStream, substream_outputs, unit_floats

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

# draws per view, in stream order: the crop's area share, top and left; the
# jitter coin, then its brightness, contrast and saturation factors only
# when it lands; the blur coin, then its sigma only when it lands; the
# solarize coin
VIEW_DRAWS = 10

# one PPM header field: whitespace and "#" comments (each to the end of its
# line) skipped, then a run of non-whitespace bytes
_PPM_FIELD = re.compile(rb"(?:\s|#.*$)*([^\s#]\S*)", re.MULTILINE)


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
            if lang not in LANGUAGE_NAMES:
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
# JSON inputs: manifests, training configs and class indexes
# ---------------------------------------------------------------------------

def parse_json(data: bytes, source):
    """The JSON value in ``data``, which must be UTF-8 text whose every key
    and string is UTF-8 encodable; anything else raises ValidationError
    naming ``source``."""
    try:
        obj = json.loads(data.decode("utf-8"))
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as e:   # a lone surrogate from an escape such as "\ud800"
        raise ValidationError(f"{source}: a string is not UTF-8 encodable: {e}") from e
    except (ValueError, RecursionError) as e:   # not UTF-8 or JSON, too deep, an int too long
        raise ValidationError(f"{source}: not UTF-8 JSON: {e}") from e
    return obj


def load_manifest(path) -> list[ImageCaptionRecord]:
    """Parse a JSON-lines manifest; every record is validated on load."""
    records = []
    for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        # strip whitespace as str.strip does, keeping bytes that are not UTF-8 for parse_json
        line = line.decode("utf-8", "surrogateescape").strip().encode("utf-8", "surrogateescape")
        if not line:
            continue
        try:
            obj = parse_json(line, path)
        except ValidationError as e:
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
    """One JSON line per record, written through checkpoint.write_atomic."""
    def write(f):
        for rec in records:
            line = json.dumps({"image": rec.image_ref, "captions": rec.captions,
                               "split": rec.split}, ensure_ascii=False)
            f.write(f"{line}\n".encode("utf-8"))

    write_atomic(path, write)


def split_records(records, split: str) -> list[ImageCaptionRecord]:
    return [r for r in records if r.split == split]


# ---------------------------------------------------------------------------
# caption sampling
# ---------------------------------------------------------------------------

def sample_caption(record: ImageCaptionRecord, epoch: int, policy: EpochSamplingPolicy) -> str:
    """Pick one caption for this (record, epoch): a uniform English caption,
    or under one_translation a uniform caption index plus a uniform language
    among those present."""
    rng = RandomStream(_TAG_CAPTION, policy.seed, epoch, record.index)
    english = record.captions["en"]
    idx = rng.next_below(len(english))
    if policy.mode == "english_only":
        return english[idx]
    langs = sorted(record.captions)
    if not policy.include_english and len(langs) > 1:
        langs = [l for l in langs if l != "en"]
    lang = langs[rng.next_below(len(langs))]
    return record.captions[lang][idx]


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
    fields, pos = [], 0
    while len(fields) < 4 and (field := _PPM_FIELD.match(raw, pos)):
        fields.append(field[1])
        pos = field.end()
    if len(fields) < 4:
        raise ValidationError(f"{path}: truncated PPM header")
    magic, *numbers = fields
    if magic != b"P6":
        raise ValidationError(f"{path}: not a binary PPM (magic {magic!r})")
    message = f"{path}: PPM width, height and maxval {[n[:20] for n in numbers]} must be integers"
    if not all(n.isdigit() for n in numbers):
        raise ValidationError(message)
    try:
        width, height, maxval = map(int, numbers)
    except ValueError as e:   # more digits than int() converts
        raise ValidationError(message) from e
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


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """RandomStream.uniform(lo, hi) for each unit draw in u."""
    return lo + (hi - lo) * u


def _resized_crops(images: list, draws: np.ndarray, size: int,
                   scale: tuple) -> np.ndarray:
    """[V * B, 3, size, size] float32, row v * B + i from images[i] by
    draws[v, i]: a square crop, its area a uniform share in ``scale`` of the
    shorter side's square, at a uniform position, resized bicubically.
    Crops of one side are resized in one call."""
    hw = np.array([image.shape[1:] for image in images], dtype=np.int64)
    h, w = hw.T
    short = hw.min(axis=1)
    frac = _uniform(unit_floats(draws[..., 0]), *scale)
    side = np.clip(np.rint(np.sqrt(frac) * short).astype(np.int64), 2, short)
    top, left = ((draws[..., k] % (n - side + 1).astype(np.uint64)).ravel().tolist()
                 for k, n in ((1, h), (2, w)))
    side = side.ravel()
    out = np.empty((side.size, 3, size, size), dtype=np.float32)
    for s in np.unique(side).tolist():
        rows = np.flatnonzero(side == s)
        out[rows] = resize_bicubic(np.stack([images[r % len(images)][:, top[r]:top[r] + s,
                                                                     left[r]:left[r] + s]
                                             for r in rows.tolist()]), size)
    return out


def _color_jitter(x: np.ndarray, strength: float, u: np.ndarray) -> np.ndarray:
    """Brightness, contrast and saturation of each view of x [V, 3, H, W],
    by factors from the unit draws u [V, 3]; each contrast mean sums its
    view in C order, whatever the layout."""
    lo, hi = max(0.0, 1.0 - strength), 1.0 + strength
    b, c = (_uniform(u[:, k], lo, hi).astype(np.float32)[:, None, None, None]
            for k in (0, 1))
    s = _uniform(u[:, 2], max(0.0, 1.0 - 0.5 * strength), 1.0 + 0.5 * strength)
    out = x * b
    mean = out.reshape(len(out), -1).mean(axis=1)[:, None, None, None]
    out -= mean                                   # (out - mean) * c + mean
    out *= c
    out += mean
    gray = 0.299 * out[:, 0]                      # 0.299 r + 0.587 g + 0.114 b
    gray += 0.587 * out[:, 1]
    gray += 0.114 * out[:, 2]
    gray = gray[:, None] * (1.0 - s).astype(np.float32)[:, None, None, None]
    out *= s.astype(np.float32)[:, None, None, None]
    out += gray                                   # out * s + gray * (1 - s)
    return np.clip(out, 0.0, 1.0, out=out)


def _blur_matrices(n: int, sigmas: np.ndarray) -> np.ndarray:
    """[V, n, n] float64: for each sigma, the matrix of a normalized Gaussian
    along one axis, cut at scipy.ndimage's radius int(4 sigma + 0.5), taps
    past an edge clamped to it and summed there in tap order."""
    radius = (4.0 * sigmas + 0.5).astype(np.int64)
    widest = radius.max()
    offsets = np.arange(-widest, widest + 1)
    weights = np.exp(-0.5 / (sigmas * sigmas)[:, None] * offsets * offsets)
    weights[np.abs(offsets) > radius[:, None]] = 0.0
    for row, r in zip(weights, radius):
        taps = row[widest - r:widest + r + 1]
        taps /= taps.sum()
    rows = np.arange(n)
    out = np.zeros((len(sigmas), n, n))
    for tap, offset in enumerate(offsets):
        out[:, rows, np.clip(rows + offset, 0, n - 1)] += weights[:, tap, None]
    return out


def _gaussian_blur(x: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur of each view of x [V, C, H, W] over H and then
    W, edges clamped, rounded to the input's dtype after each axis
    (scipy.ndimage's gaussian_filter1d in "nearest" mode, one axis at a
    time)."""
    h, w = x.shape[-2:]
    rows = _blur_matrices(h, sigmas)[:, None]
    cols = rows if w == h else _blur_matrices(w, sigmas)[:, None]
    out = (rows @ x).astype(x.dtype)
    return (out @ cols.swapaxes(-1, -2)).astype(x.dtype)


def _augment(x: np.ndarray, config: AugmentationConfig, draws: np.ndarray):
    """Jitter, blur and solarize each view of x [V, 3, S, S] in place by its
    draws [V, VIEW_DRAWS], then clip to [0, 1]."""
    u = unit_floats(draws)
    views = np.arange(len(x))
    jitter = (u[:, 3] < JITTER_PROB) & (config.jitter_strength > 0)
    if jitter.any():
        x[jitter] = _color_jitter(x[jitter], config.jitter_strength, u[jitter, 4:7])
    coin = np.where(jitter, 7, 4)                 # past the jitter factors, if drawn
    blur = u[views, coin] < config.blur_prob
    if blur.any():
        x[blur] = _gaussian_blur(x[blur], _uniform(u[views, coin + 1][blur],
                                                   *BLUR_SIGMA_RANGE))
    coin += np.where(blur, 2, 1)                  # past the sigma, if drawn
    solarize = u[views, coin] < config.solarize_prob
    if solarize.any():
        y = x[solarize]
        x[solarize] = np.where(y >= config.solarize_threshold, 1.0 - y, y)
    np.clip(x, 0.0, 1.0, out=x)


def make_views(images, config: AugmentationConfig, streams,
               n_global: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """A batch's views, view-major: the first n_global of two global crops
    and n_local local crops at their own (smaller) size of each image, with
    crop, jitter, blur and solarize draws keyed on streams[i] (the stream of
    images[i]) and the view index.

    Returns (globals [n_global * B, 3, G, G], locals [n_local * B, 3, L, L]),
    float32, row v * B + i holding view v of image i; locals is empty when
    n_local is 0.  Global view 0 feeds the contrastive branch."""
    images = [np.asarray(image, dtype=np.float32) for image in images]
    if len(streams) != len(images):
        raise ContractError(f"{len(images)} images need as many streams, got {len(streams)}")
    for image in images:
        if image.ndim != 3 or image.shape[0] != 3:
            raise ContractError(f"expected [3, H, W] image, got shape {image.shape}")
        _, h, w = image.shape
        if config.n_local and min(h, w) < config.local_crop_size:
            raise ContractError(f"image {h}x{w} smaller than local crop size "
                                f"{config.local_crop_size}")
    draws = substream_outputs(streams, _TAG_VIEWS,
                              [*range(n_global), *range(2, 2 + config.n_local)], VIEW_DRAWS)
    out = []
    for part, size, scale in ((draws[:n_global], config.global_crop_size, config.global_scale),
                              (draws[n_global:], config.local_crop_size, config.local_scale)):
        views = _resized_crops(images, part, size, scale)
        _augment(views, config, part.reshape(-1, VIEW_DRAWS))
        out.append(views)
    return out[0], out[1]


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
    separator (every block is terminated, including the last), through
    checkpoint.write_atomic."""
    def write(f):
        for block in blocks:
            f.write(f"{block}\n{RECORD_SEPARATOR}\n".encode("utf-8"))

    write_atomic(path, write)


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


def build_translation_prompts(records, target_language_name: str) -> list[str]:
    return [build_translation_prompt(text, target_language_name)
            for rec in records for text in rec.captions["en"]]


def ingest_translations(records, responses_path, language: str):
    """Attach one translated caption per English caption, in manifest order.

    The response file must contain exactly one record per English caption;
    any count mismatch aborts before touching the manifest.
    """
    if language not in LANGUAGE_NAMES or language == "en":
        raise ValidationError(f"cannot ingest translations for language {language!r}")
    expected = sum(len(rec.captions["en"]) for rec in records)
    blocks = [b.strip("\n") for b in read_record_file(responses_path)]
    if len(blocks) != expected:
        raise AlignmentError(expected=expected, actual=len(blocks))
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
