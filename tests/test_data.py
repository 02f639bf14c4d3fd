"""Manifests, caption sampling statistics, augmentation, tokenizer, and the
translation file boundary."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.ndimage import gaussian_filter1d
from scipy.stats import chisquare

from dinoclip.data import (BLUR_SIGMA_RANGE, AugmentationConfig, EpochSamplingPolicy,
                           ImageCaptionRecord, _color_jitter, _gaussian_blur,
                           build_translation_prompt, build_translation_prompts,
                           ingest_translations, load_manifest, make_views, read_ppm,
                           read_record_file, sample_caption, save_manifest, synthetic_image,
                           tokenize, write_record_file)
from dinoclip.encoders import END_ID, SENTINEL_ID, BYTE_OFFSET, resize_bicubic
from dinoclip.errors import (AlignmentError, ContractError, DomainError,
                             ManifestParseError, ValidationError)
from dinoclip.prng import RandomStream

from conftest import byte_mutations, detokenize, write_ppm, write_synthetic_manifest
from ppm_oracle import read_ppm_oracle
from view_oracle import make_views_oracle


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
    ('{"image": "a.ppm", "captions": {"en": 5}, "split": "train"}', ValidationError,
     "must be a list"),
    ('{"image": "a.ppm", "captions": {"en": ["x\\ud800"]}, "split": "train"}',
     ValidationError, "not UTF-8 encodable"),
    ('{"image": "x\\ud800.ppm", "captions": {"en": ["x"]}, "split": "train"}',
     ManifestParseError, "line 2: .*m.jsonl: a string is not UTF-8 encodable"),
], ids=["array-line", "string-line", "captions-list", "captions-int", "en-string",
        "de-string", "non-string-caption", "image-int", "image-empty", "image-null",
        "image-other-object", "synthetic-no-size", "synthetic-float-seed",
        "synthetic-string-size", "synthetic-list", "en-int", "lone-surrogate",
        "image-lone-surrogate"])
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


def _language(rec, caption: str) -> str:
    """The language whose caption list holds ``caption`` (the test records
    use each caption under one language only)."""
    [lang] = [lang for lang, texts in rec.captions.items() if caption in texts]
    return lang


def test_english_only_singleton_every_epoch():
    rec = _record({"en": ["only caption"], "de": ["einzige"]})
    policy = EpochSamplingPolicy(mode="english_only", seed=3)
    for epoch in range(25):
        assert sample_caption(rec, epoch, policy) == "only caption"


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
        lang = _language(rec, sample_caption(rec, epoch, policy))
        counts[lang] = counts.get(lang, 0) + 1
    for lang, c in counts.items():
        assert abs(c / n - 0.1) <= 0.01, (lang, c)


def test_sample_caption_chi_square_uniform_over_pairs():
    rec = _record({"en": ["a", "b"], "de": ["A", "B"], "fr": ["x", "y"]})
    policy = EpochSamplingPolicy(mode="one_translation", seed=17)
    counts = {}
    n = 12_000
    for epoch in range(n):
        got = sample_caption(rec, epoch, policy)
        key = (_language(rec, got), got)
        counts[key] = counts.get(key, 0) + 1
    observed = [counts.get(key, 0) for key in sorted(counts)]
    assert len(observed) == 6
    assert chisquare(observed).pvalue > 0.001


def test_exclude_english_flag():
    rec = _record({"en": ["a"], "de": ["A"], "fr": ["x"]})
    policy = EpochSamplingPolicy(mode="one_translation", seed=2, include_english=False)
    langs = {_language(rec, sample_caption(rec, e, policy)) for e in range(200)}
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
# parser fuzzing: random bytes, truncations and single-bit flips of a valid
# input raise only the documented error kind (ManifestParseError is a
# ValidationError); a fixed 200-example corpus per parser
# -------------------------------------------------------------------------

_FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


_VALID_PPM = b"P6\n# fuzz\n2 2\n255\n" + bytes(range(0, 240, 20))
_VALID_LINE = (json.dumps({"image": {"synthetic": {"seed": 1, "size": 8}},
                           "captions": {"en": ["a b"], "de": ["c d"]},
                           "split": "train"}) + "\n").encode()


@_FUZZ
@given(blob=byte_mutations(_VALID_PPM))
@example(blob=b"P6\n" + b"9" * 5000 + b" 2\n255\n" + bytes(12))   # int() digit limit
def test_read_ppm_fuzzed_raises_only_validation_error(tmp_path, blob):
    path = tmp_path / "fuzz.ppm"
    path.write_bytes(blob)
    try:
        img = read_ppm(path)
    except ValidationError:
        return
    assert img.dtype == np.float32 and img.shape[0] == 3


@_FUZZ
@given(blob=byte_mutations(_VALID_PPM))
@example(blob=b"P6\n2 2 255 #c")              # a comment at the end of the file
@example(blob=b"P6#c\n2 2\n255\n" + bytes(12))   # "#" inside a field
@example(blob=b"P6 #c\r2 2\n255\n" + bytes(12))  # a comment runs to "\n", not "\r"
@example(blob=b"\x0bP6\x0c2\t2\r255 " + bytes(12))   # each whitespace byte separates
def test_read_ppm_header_matches_oracle(tmp_path, blob):
    """read_ppm and the byte-at-a-time tokenizer accept the same files with
    equal arrays, and refuse the rest with ValidationError."""
    path = tmp_path / "fuzz.ppm"
    path.write_bytes(blob)
    results = []
    for reader in (read_ppm, read_ppm_oracle):
        try:
            results.append(reader(path))
        except ValidationError:
            results.append(None)
    got, want = results
    assert (got is None and want is None) or np.array_equal(got, want)


@_FUZZ
@given(blob=byte_mutations(_VALID_LINE))
@example(blob=b"\xff\xfe")                                        # not UTF-8
@example(blob=_VALID_LINE[:-2] + b', "n": ' + b"1" * 5000 + b"}")  # int() digit limit
@example(blob=b"[" * 100_000)                                      # nesting depth
def test_load_manifest_fuzzed_raises_only_validation_error(tmp_path, blob):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(blob)
    try:
        records = load_manifest(path)
    except ValidationError:
        return
    for rec in records:
        rec.validate()


# -------------------------------------------------------------------------
# multi-crop augmentation
# -------------------------------------------------------------------------

def _plain_config(**kwargs):
    defaults = dict(global_crop_size=16, local_crop_size=8, n_local=8)
    defaults.update(kwargs)
    return AugmentationConfig(**defaults)


def _views(image, config, stream, n_global=2):
    """make_views on a batch of one image."""
    return make_views([image], config, [stream], n_global)


def test_color_jitter_bits_do_not_depend_on_memory_layout():
    """A channel-fastest input (a transposed view) gives the bits of its
    C-contiguous copy: the contrast mean sums in C order."""
    for seed in range(3):
        hwc = np.random.default_rng(seed).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        chw = hwc.transpose(0, 3, 1, 2)
        assert not chw.flags["C_CONTIGUOUS"]
        u = RandomStream(4).uniforms(6).reshape(2, 3)
        got = _color_jitter(chw, 0.8, u)
        want = _color_jitter(np.ascontiguousarray(chw), 0.8, u)
        assert np.array_equal(got, want)


def test_make_views_counts_and_sizes():
    img = synthetic_image(0, 24)
    globals_, locals_ = _views(img, _plain_config(), RandomStream(1))
    assert globals_.shape == (2, 3, 16, 16)
    assert locals_.shape == (8, 3, 8, 8)
    assert globals_.dtype == locals_.dtype == np.float32
    _, none = _views(img, _plain_config(n_local=0), RandomStream(1))
    assert none.shape == (0, 3, 8, 8) and none.dtype == np.float32
    globals_, locals_ = make_views([img, synthetic_image(1, 20), img], _plain_config(),
                                   [RandomStream(1), RandomStream(2), RandomStream(3)], 1)
    assert globals_.shape == (3, 3, 16, 16) and locals_.shape == (24, 3, 8, 8)


def test_make_views_augmentation_off_reproduces_input():
    """Without augmentation, full-image crops are the image itself (globals)
    and its bicubic resize to the local size, clipped (locals, not upscaled
    back)."""
    img = synthetic_image(3, 16).astype(np.float32)
    config = _plain_config(jitter_strength=0.0, blur_prob=0.0, solarize_prob=0.0,
                           global_scale=(1.0, 1.0), local_scale=(1.0, 1.0))
    globals_, locals_ = _views(img, config, RandomStream(4))
    for view in globals_:
        assert np.allclose(view, img, atol=1e-6)
    for view in locals_:
        assert np.allclose(view, np.clip(resize_bicubic(img, 8), 0.0, 1.0), atol=1e-6)


def test_make_views_deterministic():
    img = synthetic_image(5, 24)
    config = _plain_config()
    a = _views(img, config, RandomStream(42, 7))
    b = _views(img, config, RandomStream(42, 7))
    assert all(np.array_equal(va, vb) for va, vb in zip(a, b))
    c = _views(img, config, RandomStream(42, 8))
    for va, vc in zip(a, c):
        assert any(not np.array_equal(x, y) for x, y in zip(va, vc))


def test_make_views_output_range():
    config = _plain_config(jitter_strength=1.0, blur_prob=1.0, solarize_prob=1.0)
    for seed in range(5):
        img = synthetic_image(seed, 24)
        for views in _views(img, config, RandomStream(seed)):
            assert views.min() >= 0.0 and views.max() <= 1.0


def test_gaussian_blur_matches_scipy_within_one_ulp():
    """The blur matrices against scipy.ndimage's two-pass gaussian_filter1d in
    "nearest" mode (all 600 seeded cases were bit-identical when written),
    blurred 20 views to a call."""
    rng = np.random.default_rng(602)
    for _ in range(30):
        h, w = rng.choice([8, 16, 32], size=2)
        sigmas = rng.uniform(*BLUR_SIGMA_RANGE, size=20)
        x = rng.random((20, 3, h, w)).astype(np.float32)
        got = _gaussian_blur(x, sigmas)
        assert got.dtype == np.float32
        for view, sigma, out in zip(x, sigmas, got):
            want = gaussian_filter1d(view, sigma, axis=1, mode="nearest")
            want = gaussian_filter1d(want, sigma, axis=2, mode="nearest")
            np.testing.assert_array_max_ulp(out, want, maxulp=1)


def test_make_views_rejects_too_small_images():
    img = synthetic_image(0, 6)
    with pytest.raises(ContractError, match="smaller"):
        _views(img, _plain_config(), RandomStream(0))
    with pytest.raises(ContractError, match="smaller"):   # one small image in a batch
        make_views([synthetic_image(1, 24), img], _plain_config(),
                   [RandomStream(0), RandomStream(1)])


def test_make_views_without_local_crops_takes_images_smaller_than_them():
    """The local-crop size bounds the image only when local views are made."""
    globals_, locals_ = _views(synthetic_image(0, 6), _plain_config(n_local=0),
                               RandomStream(0))
    assert globals_.shape == (2, 3, 16, 16) and locals_.shape == (0, 3, 8, 8)


@st.composite
def _view_cases(draw):
    """An augmentation config, one to three images of their own (not always
    square) sizes, and n_global."""
    unit = st.floats(0.0, 1.0)

    def scale():
        lo = draw(st.floats(0.01, 1.0))
        return lo, draw(st.floats(lo, 1.0))

    local = draw(st.sampled_from([2, 4, 5, 8]))
    config = AugmentationConfig(
        global_crop_size=draw(st.sampled_from([local, 8, 16])), local_crop_size=local,
        n_local=draw(st.integers(0, 8)),
        jitter_strength=draw(st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.5)),
        blur_prob=draw(st.sampled_from([0.0, 1.0]) | unit),
        solarize_prob=draw(st.sampled_from([0.0, 1.0]) | unit),
        solarize_threshold=draw(unit), global_scale=scale(), local_scale=scale())
    shapes = draw(st.lists(st.tuples(st.integers(local, 24), st.integers(local, 24)),
                           min_size=1, max_size=3))
    return config, shapes, draw(st.integers(1, 2)), draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_view_cases())
def test_make_views_equals_per_view_oracle(case):
    """The batch form gives the per-view reference's bits for every view,
    row v * B + i holding view v of image i."""
    config, shapes, n_global, seed = case
    rng = np.random.default_rng(seed)
    images = [rng.random((3, h, w), dtype=np.float32) for h, w in shapes]
    streams = [RandomStream(seed, 1, i) for i in range(len(images))]
    got = make_views(images, config, streams, n_global)
    want = [make_views_oracle(image, config, RandomStream(seed, 1, i), n_global)
            for i, image in enumerate(images)]
    for part, views in enumerate(got):
        rows = np.stack([w[part] for w in want], axis=1).reshape(-1, *views.shape[1:])
        assert views.dtype == np.float32
        assert np.array_equal(views, rows)   # shapes included


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


_VALID_RECORDS = "first prompt\nwith newline\n\x1e\nzweite Zeile \u00e9\n\x1e\n".encode()


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=byte_mutations(_VALID_RECORDS))
@example(blob=b"ab\xff\xfe")                                      # not UTF-8
def test_read_record_file_fuzzed_raises_only_validation_error(tmp_path, blob):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(blob)
    try:
        blocks = read_record_file(path)
    except ValidationError:
        return
    assert all(isinstance(b, str) for b in blocks)


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
