"""Manifests, caption sampling statistics, augmentation, tokenizer, and the
translation file boundary."""

import json

import numpy as np
import pytest
from scipy.stats import chisquare

from dinoclip.data import (AugmentationConfig, EpochSamplingPolicy, CaptionRecord,
                           ImageCaptionRecord, build_translation_prompt,
                           build_translation_prompts, ingest_translations,
                           load_manifest, make_views, read_ppm, read_record_file,
                           sample_caption, save_manifest, synthetic_image, tokenize,
                           write_record_file)
from dinoclip.encoders import END_ID, SENTINEL_ID, BYTE_OFFSET
from dinoclip.errors import (AlignmentError, ContractError, DomainError,
                             ManifestParseError, ValidationError)
from dinoclip.prng import RandomStream

from conftest import detokenize, write_ppm, write_synthetic_manifest


# -------------------------------------------------------------------------
# manifest loading
# -------------------------------------------------------------------------

def test_empty_manifest(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_manifest(path) == []


def test_english_only_record_is_valid(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image": "a.ppm", "captions": {"en": ["a road"]},
                                "split": "train"}) + "\n")
    records = load_manifest(path)
    assert len(records) == 1
    assert records[0].captions["en"] == ["a road"]


def test_translation_length_mismatch_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image": "a.ppm",
                                "captions": {"en": ["one", "two"], "de": ["eins"]},
                                "split": "train"}) + "\n")
    with pytest.raises(ValidationError, match="1:1"):
        load_manifest(path)


def test_unknown_language_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image": "a.ppm",
                                "captions": {"en": ["x"], "xx": ["y"]},
                                "split": "train"}) + "\n")
    with pytest.raises(ValidationError, match="xx"):
        load_manifest(path)


def test_missing_english_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image": "a.ppm", "captions": {"de": ["y"]},
                                "split": "train"}) + "\n")
    with pytest.raises(ValidationError, match="English"):
        load_manifest(path)


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "m.jsonl"
    good = json.dumps({"image": "a.ppm", "captions": {"en": ["x"]}, "split": "train"})
    path.write_text(good + "\n{not json\n")
    with pytest.raises(ManifestParseError, match="line 2"):
        load_manifest(path)


_GOOD_LINE = json.dumps({"image": "a.ppm", "captions": {"en": ["x"]}, "split": "train"})


@pytest.mark.parametrize("line, error, match", [
    ("[1, 2]", ManifestParseError, "line 2: expected a JSON object"),
    ('"just a string"', ManifestParseError, "line 2"),
    ('{"image": "a.ppm", "captions": ["x"], "split": "train"}', ValidationError,
     "captions must be an object"),
    ('{"image": "a.ppm", "captions": 3, "split": "train"}', ValidationError,
     "captions must be an object"),
    ('{"image": "a.ppm", "captions": {"en": "abc"}, "split": "train"}', ValidationError,
     "must be a list"),
    ('{"image": "a.ppm", "captions": {"en": ["x"], "de": "y"}, "split": "train"}',
     ValidationError, "must be a list"),
    ('{"image": "a.ppm", "captions": {"en": ["x", 7]}, "split": "train"}', ValidationError,
     "empty caption"),
    ('{"image": 5, "captions": {"en": ["x"]}, "split": "train"}', ValidationError,
     "image must be"),
    ('{"image": "", "captions": {"en": ["x"]}, "split": "train"}', ValidationError,
     "image must be"),
    ('{"image": null, "captions": {"en": ["x"]}, "split": "train"}', ValidationError,
     "image must be"),
    ('{"image": {"path": "a.ppm"}, "captions": {"en": ["x"]}, "split": "train"}',
     ValidationError, "image must be"),
    ('{"image": {"synthetic": {"seed": 1}}, "captions": {"en": ["x"]}, "split": "train"}',
     ValidationError, "image must be"),
    ('{"image": {"synthetic": {"seed": 1.5, "size": 8}}, "captions": {"en": ["x"]}, '
     '"split": "train"}', ValidationError, "image must be"),
    ('{"image": {"synthetic": {"seed": 1, "size": "8"}}, "captions": {"en": ["x"]}, '
     '"split": "train"}', ValidationError, "image must be"),
    ('{"image": {"synthetic": [1, 8]}, "captions": {"en": ["x"]}, "split": "train"}',
     ValidationError, "image must be"),
], ids=["array-line", "string-line", "captions-list", "captions-int", "en-string",
        "de-string", "non-string-caption", "image-int", "image-empty", "image-null",
        "image-other-object", "synthetic-no-size", "synthetic-float-seed",
        "synthetic-string-size", "synthetic-list"])
def test_malformed_manifest_lines_raise_documented_errors(tmp_path, line, error, match):
    path = tmp_path / "m.jsonl"
    path.write_text(_GOOD_LINE + "\n" + line + "\n")
    with pytest.raises(error, match=match):
        load_manifest(path)


def test_manifest_round_trip(tmp_path, synthetic_manifest):
    out = tmp_path / "again.jsonl"
    save_manifest(synthetic_manifest, out)
    again = load_manifest(out)
    assert len(again) == len(synthetic_manifest)
    for a, b in zip(synthetic_manifest, again):
        assert a.captions == b.captions and a.split == b.split


# -------------------------------------------------------------------------
# caption sampling
# -------------------------------------------------------------------------

def _record(captions, index=0):
    rec = ImageCaptionRecord(image_ref="x.ppm", captions=captions, split="train",
                             index=index)
    rec.validate()
    return rec


def test_english_only_singleton_every_epoch():
    rec = _record({"en": ["only caption"], "de": ["einzige"]})
    policy = EpochSamplingPolicy(mode="english_only", seed=3)
    for epoch in range(25):
        got = sample_caption(rec, epoch, policy)
        assert got == CaptionRecord("only caption", "en")


def test_sample_caption_deterministic():
    rec = _record({"en": ["a", "b", "c"], "de": ["A", "B", "C"]})
    policy = EpochSamplingPolicy(mode="one_translation", seed=11)
    for epoch in (0, 1, 7, 99):
        assert sample_caption(rec, epoch, policy) == sample_caption(rec, epoch, policy)


def test_language_frequency_uniform_over_epochs():
    captions = {lang: [f"{lang} text"] for lang in
                ("en", "de", "fr", "es", "zh", "pt", "it", "ru", "ko", "nl")}
    rec = _record(captions)
    policy = EpochSamplingPolicy(mode="one_translation", seed=5)
    counts = {}
    n = 10_000
    for epoch in range(n):
        got = sample_caption(rec, epoch, policy)
        counts[got.language] = counts.get(got.language, 0) + 1
    for lang, c in counts.items():
        assert abs(c / n - 0.1) <= 0.01, (lang, c)


def test_sample_caption_chi_square_uniform_over_pairs():
    rec = _record({"en": ["a", "b"], "de": ["A", "B"], "fr": ["x", "y"]})
    policy = EpochSamplingPolicy(mode="one_translation", seed=17)
    counts = {}
    n = 12_000
    for epoch in range(n):
        got = sample_caption(rec, epoch, policy)
        counts[(got.language, got.text)] = counts.get((got.language, got.text), 0) + 1
    observed = [counts.get(key, 0) for key in sorted(counts)]
    assert len(observed) == 6
    assert chisquare(observed).pvalue > 0.001


def test_exclude_english_flag():
    rec = _record({"en": ["a"], "de": ["A"], "fr": ["x"]})
    policy = EpochSamplingPolicy(mode="one_translation", seed=2, include_english=False)
    langs = {sample_caption(rec, e, policy).language for e in range(200)}
    assert langs == {"de", "fr"}


def test_pair_volume_independent_of_mode(synthetic_manifest):
    # one caption per record per epoch in either mode
    for mode in ("english_only", "one_translation"):
        policy = EpochSamplingPolicy(mode=mode, seed=1)
        picks = [sample_caption(r, 0, policy) for r in synthetic_manifest]
        assert len(picks) == len(synthetic_manifest)


# -------------------------------------------------------------------------
# synthetic images and PPM files
# -------------------------------------------------------------------------

def test_synthetic_image_deterministic_and_in_range():
    a = synthetic_image(7, 32)
    b = synthetic_image(7, 32)
    assert np.array_equal(a, b)
    assert a.shape == (3, 32, 32)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert not np.array_equal(a, synthetic_image(8, 32))


def test_ppm_round_trip(tmp_path, rng):
    img = rng.random((3, 9, 7)).astype(np.float32)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValidationError):
        read_ppm(path)


@pytest.mark.parametrize("blob", [
    b"P6\n2 2\n255\n" + bytes(5),          # pixel payload truncated
    b"P6\n2 two\n255\n" + bytes(12),       # non-integer header field
    b"P6\n2 -2\n255\n" + bytes(12),        # negative header field
    b"P6\n2 2\n255",                        # ends right after maxval
    b"P6\n0 2\n255\n",                     # empty image
], ids=["truncated", "non-integer", "negative", "ends-after-maxval", "empty"])
def test_ppm_malformed_raises_validation_error(tmp_path, blob):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(ValidationError):
        read_ppm(path)


# -------------------------------------------------------------------------
# multi-crop augmentation
# -------------------------------------------------------------------------

def _plain_config(**kwargs):
    defaults = dict(global_crop_size=16, local_crop_size=8, n_local=8)
    defaults.update(kwargs)
    return AugmentationConfig(**defaults)


def test_make_views_counts_and_sizes():
    img = synthetic_image(0, 24)
    config = _plain_config()
    views = make_views(img, config, RandomStream(1))
    assert views.shape == (10, 3, 16, 16)
    assert views.dtype == np.float32


def test_make_views_augmentation_off_reproduces_input():
    img = synthetic_image(3, 16).astype(np.float32)
    config = _plain_config(jitter_strength=0.0, blur_prob=0.0, solarize_prob=0.0,
                           global_scale=(1.0, 1.0))
    views = make_views(img, config, RandomStream(4))
    for view in views[:2]:
        assert np.allclose(view, img, atol=1e-6)


def test_make_views_deterministic():
    img = synthetic_image(5, 24)
    config = _plain_config()
    a = make_views(img, config, RandomStream(42, 7))
    b = make_views(img, config, RandomStream(42, 7))
    assert np.array_equal(a, b)
    c = make_views(img, config, RandomStream(42, 8))
    assert any(not np.array_equal(va, vc) for va, vc in zip(a, c))


def test_make_views_output_range():
    config = _plain_config(jitter_strength=1.0, blur_prob=1.0, solarize_prob=1.0)
    for seed in range(5):
        img = synthetic_image(seed, 24)
        views = make_views(img, config, RandomStream(seed))
        assert views.min() >= 0.0 and views.max() <= 1.0


def test_make_views_rejects_too_small_images():
    img = synthetic_image(0, 6)
    with pytest.raises(ContractError, match="smaller"):
        make_views(img, _plain_config(), RandomStream(0))


# -------------------------------------------------------------------------
# tokenizer
# -------------------------------------------------------------------------

def test_tokenize_empty_string():
    assert tokenize("") == [SENTINEL_ID, END_ID]


def test_tokenize_single_ascii():
    assert tokenize("a") == [SENTINEL_ID, BYTE_OFFSET + ord("a"), END_ID]


@pytest.mark.parametrize("text", [
    "a large airport", "ein großer Flughafen", "un grand aéroport",
    "un gran aeropuerto", "一个大机场", "um grande aeroporto",
    "un grande aeroporto", "большой аэропорт", "큰 공항", "een grote luchthaven",
])
def test_tokenize_round_trips_all_languages(text):
    ids = tokenize(text, max_length=128)
    assert ids[0] == SENTINEL_ID and ids[-1] == END_ID
    assert detokenize(ids) == text


def test_tokenize_truncates_to_max_length():
    ids = tokenize("abcdefgh", max_length=6)
    assert len(ids) == 6
    assert detokenize(ids) == "abcd"


# -------------------------------------------------------------------------
# translation boundary
# -------------------------------------------------------------------------

def test_translation_prompt_byte_exact():
    got = build_translation_prompt("a large airport", "German")
    assert got == ("Translate the following text from English into German.\n"
                   "English: a large airport\nGerman:")


def test_translation_prompt_passes_newlines_verbatim():
    got = build_translation_prompt("line one\nline two", "French")
    assert "English: line one\nline two\nFrench:" in got


def test_translation_prompt_empty_caption():
    got = build_translation_prompt("", "Dutch")
    assert got.endswith("English: \nDutch:")


def test_translation_prompt_rejects_unknown_language():
    with pytest.raises(DomainError):
        build_translation_prompt("x", "Klingon")


def test_record_file_round_trip(tmp_path):
    blocks = ["first prompt\nwith newline", "second", "third\n\nblock"]
    path = tmp_path / "records.txt"
    write_record_file(path, blocks)
    assert read_record_file(path) == blocks


def test_record_file_empty(tmp_path):
    path = tmp_path / "empty.txt"
    write_record_file(path, [])
    assert read_record_file(path) == []


def test_ingest_translations_happy_path(tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    write_synthetic_manifest(manifest_path, n=4, languages=("en",))
    records = load_manifest(manifest_path)
    prompts = build_translation_prompts(records, "German")
    assert len(prompts) == 4

    responses = tmp_path / "resp.txt"
    write_record_file(responses, [f"übersetzung {i}" for i in range(4)])
    ingest_translations(records, responses, "de")
    for i, rec in enumerate(records):
        assert rec.captions["de"] == [f"übersetzung {i}"]


def test_ingest_translations_count_mismatch(tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    write_synthetic_manifest(manifest_path, n=4, languages=("en",))
    records = load_manifest(manifest_path)
    responses = tmp_path / "resp.txt"
    write_record_file(responses, ["nur", "drei", "zeilen"])
    with pytest.raises(AlignmentError, match="expected 4 .* got 3"):
        ingest_translations(records, responses, "de")


def test_ingest_translations_empty_file_empty_manifest(tmp_path):
    responses = tmp_path / "resp.txt"
    write_record_file(responses, [])
    assert ingest_translations([], responses, "de") == []
