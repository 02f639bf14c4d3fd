"""Command-line surface: every subcommand plus exit-code mapping."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import dinoclip
from dinoclip import checkpoint as ckpt
from dinoclip import cli, errors, trainer
from dinoclip.autodiff import Tensor
from dinoclip.cli import main
from dinoclip.data import (ImageCaptionRecord, load_manifest, read_record_file,
                           write_record_file)
from dinoclip.errors import CheckpointError
from dinoclip.evaluation import ZeroShotTemplate, build_lmcap_prompt, zero_shot_classify
from dinoclip.trainer import TrainConfig, embed_record_images, embed_texts, load_checkpoint

from conftest import retrieve_top_k, write_ppm, write_synthetic_manifest
from test_trainer import checkpoint_mutations, set_config_field, tiny_train_config


@pytest.fixture
def workdir(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    write_synthetic_manifest(manifest, n=4, size=8)
    # a test split for retrieval / lmcap queries
    with open(manifest, "a", encoding="utf-8") as f:
        for i in range(4, 6):
            f.write(json.dumps({"image": {"synthetic": {"seed": i, "size": 8}},
                                "captions": {"en": [f"query scene {i}"],
                                             "de": [f"abfrage {i}"]},
                                "split": "test"}) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tiny_train_config(epochs=2).to_dict()))
    return tmp_path


def _train(workdir, extra=()):
    ckpt = workdir / "model.ckpt"
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--manifest", str(workdir / "manifest.jsonl"),
               "--out", str(ckpt), *extra])
    assert rc == 0
    return ckpt


def test_train_and_metrics_log(workdir):
    log = workdir / "metrics.jsonl"
    ckpt = _train(workdir, ("--metrics-log", str(log)))
    assert ckpt.exists()
    lines = [json.loads(l) for l in log.read_text().strip().split("\n")]
    assert [l["step"] for l in lines] == list(range(1, len(lines) + 1))
    assert {"loss_infonce", "loss_distill", "loss_combined", "lr"} <= set(lines[0])


def test_eval_retrieval_report(workdir, capsys):
    ckpt = _train(workdir)
    out = workdir / "report.json"
    rc = main(["eval-retrieval", "--checkpoint", str(ckpt),
               "--manifest", str(workdir / "manifest.jsonl"),
               "--split", "test", "--language", "en", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report) == {"i2t_r1", "i2t_r5", "i2t_r10", "t2i_r1", "t2i_r5",
                           "t2i_r10", "mean_recall"}
    printed = capsys.readouterr().out.strip().split("\n")
    assert len(printed[-1].split(",")) == 7  # CSV row: i2t recalls, t2i recalls, mean


def test_eval_retrieval_dedupe_drops_repeats_within_an_image(workdir):
    ckpt = _train(workdir)

    def report(captions_per_image, *flags):
        manifest = workdir / "dedupe.jsonl"
        manifest.write_text("".join(
            json.dumps({"image": {"synthetic": {"seed": i, "size": 8}},
                        "captions": {"en": caps}, "split": "test"}) + "\n"
            for i, caps in enumerate(captions_per_image)))
        out = workdir / "dedupe.json"
        assert main(["eval-retrieval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--split", "test", "--language", "en", "--out", str(out), *flags]) == 0
        return out.read_text()

    deduped = report([["a river", "a river", "a lake", "a river"], ["a river", "trees"]],
                     "--dedupe-captions")
    assert deduped == report([["a river", "a lake"], ["a river", "trees"]])


def test_eval_retrieval_language_flag(workdir):
    ckpt = _train(workdir)
    rc = main(["eval-retrieval", "--checkpoint", str(ckpt),
               "--manifest", str(workdir / "manifest.jsonl"),
               "--split", "test", "--language", "de"])
    assert rc == 0
    rc = main(["eval-retrieval", "--checkpoint", str(ckpt),
               "--manifest", str(workdir / "manifest.jsonl"),
               "--split", "test", "--language", "fr"])
    assert rc == 2  # no French captions in the manifest


def test_export_embeddings_binary_and_sidecar(workdir):
    ckpt = _train(workdir)
    out = workdir / "emb.bin"
    rc = main(["export-embeddings", "--checkpoint", str(ckpt),
               "--manifest", str(workdir / "manifest.jsonl"),
               "--split", "train", "--kind", "images", "--out", str(out)])
    assert rc == 0
    sidecar = json.loads((workdir / "emb.bin.json").read_text())
    raw = np.frombuffer(out.read_bytes(), dtype="<f4")
    assert raw.size == sidecar["count"] * sidecar["dim"]
    assert sidecar["count"] == 4 and len(sidecar["ids"]) == 4


def test_build_translation_prompts_and_ingest(workdir):
    prompts_path = workdir / "prompts.txt"
    rc = main(["build-translation-prompts", "--manifest", str(workdir / "manifest.jsonl"),
               "--language", "fr", "--out", str(prompts_path)])
    assert rc == 0
    prompts = read_record_file(prompts_path)
    assert len(prompts) == 6
    assert prompts[0].startswith("Translate the following text from English into French.")

    responses = workdir / "responses.txt"
    write_record_file(responses, [f"traduction {i}" for i in range(6)])
    out_manifest = workdir / "manifest_fr.jsonl"
    rc = main(["ingest-translations", "--manifest", str(workdir / "manifest.jsonl"),
               "--responses", str(responses), "--language", "fr",
               "--out", str(out_manifest)])
    assert rc == 0
    lines = [json.loads(l) for l in out_manifest.read_text().strip().split("\n")]
    assert all("fr" in l["captions"] for l in lines)


def test_ingest_translations_accepts_language_name(workdir):
    responses = workdir / "responses.txt"
    write_record_file(responses, [f"traduction {i}" for i in range(6)])
    out_manifest = workdir / "manifest_fr.jsonl"
    rc = main(["ingest-translations", "--manifest", str(workdir / "manifest.jsonl"),
               "--responses", str(responses), "--language", "French",
               "--out", str(out_manifest)])
    assert rc == 0
    lines = [json.loads(l) for l in out_manifest.read_text().strip().split("\n")]
    assert [l["captions"]["fr"] for l in lines] == [[f"traduction {i}"] for i in range(6)]

    rc = main(["ingest-translations", "--manifest", str(workdir / "manifest.jsonl"),
               "--responses", str(responses), "--language", "Klingon",
               "--out", str(workdir / "x.jsonl")])
    assert rc == 2


def test_ingest_misaligned_responses_exit_code(workdir):
    responses = workdir / "responses.txt"
    write_record_file(responses, ["une seule"])
    rc = main(["ingest-translations", "--manifest", str(workdir / "manifest.jsonl"),
               "--responses", str(responses), "--language", "fr",
               "--out", str(workdir / "x.jsonl")])
    assert rc == 2


def test_record_files_that_are_not_utf8_exit_2(workdir, capsys):
    """A responses or few-shot file holding bytes that are not UTF-8 is a
    validation error (exit 2), not a traceback."""
    bad = workdir / "bad.txt"
    bad.write_bytes(b"ab\xff\xfe")
    rc = main(["ingest-translations", "--manifest", str(workdir / "manifest.jsonl"),
               "--responses", str(bad), "--language", "fr", "--out", str(workdir / "x.jsonl")])
    assert rc == 2
    ckpt = _train(workdir)
    rc = main(["build-lmcap-prompts", "--checkpoint", str(ckpt), "--manifest",
               str(workdir / "manifest.jsonl"), "--fewshot", str(bad),
               "--out", str(workdir / "lmcap.txt")])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_build_lmcap_prompts(workdir):
    ckpt = _train(workdir)
    out = workdir / "lmcap.txt"
    rc = main(["build-lmcap-prompts", "--checkpoint", str(ckpt),
               "--manifest", str(workdir / "manifest.jsonl"),
               "--split", "test", "--language", "English", "--k", "4",
               "--out", str(out)])
    assert rc == 0
    prompts = read_record_file(out)
    assert len(prompts) == 2
    for p in prompts:
        assert p.startswith("You are an intelligent image captioning bot")
        assert p.endswith("in English is:")
        assert p.count('"') == 8  # four quoted retrieved captions


def test_build_lmcap_prompts_rank_as_retrieve_top_k(workdir):
    """The command ranks all queries at once; each prompt holds the captions
    retrieve_top_k picks for its query alone."""
    ckpt = _train(workdir)
    out = workdir / "lmcap.txt"
    assert main(["build-lmcap-prompts", "--checkpoint", str(ckpt), "--manifest",
                 str(workdir / "manifest.jsonl"), "--k", "3", "--out", str(out)]) == 0
    student = load_checkpoint(ckpt).student
    records = load_manifest(workdir / "manifest.jsonl")
    texts = [t for r in records if r.split == "train" for t in r.captions["en"]]
    gallery = embed_texts(student, texts)
    queries = embed_record_images(student, [r for r in records if r.split == "test"])
    want = [build_lmcap_prompt([texts[i] for i in retrieve_top_k(q, gallery, 3)], "English")
            for q in queries]
    assert read_record_file(out) == want


def test_make_splits(workdir):
    index = {f"class{i}": [f"c{i}_{j}.ppm" for j in range(10)] for i in range(3)}
    index_path = workdir / "classes.json"
    index_path.write_text(json.dumps(index))
    out = workdir / "splits.json"
    rc = main(["make-splits", "--class-index", str(index_path), "--seed", "42",
               "--out", str(out)])
    assert rc == 0
    splits = json.loads(out.read_text())
    for cls in index:
        assert len(splits["train"][cls]) == 8
        assert len(splits["test"][cls]) == 2


def test_zero_shot_command(workdir):
    ckpt = _train(workdir)
    img_dir = workdir / "imgs"
    img_dir.mkdir()
    rng = np.random.default_rng(0)
    index = {}
    for cls in ("river", "forest"):
        files = []
        for j in range(2):
            name = f"{cls}_{j}.ppm"
            write_ppm(img_dir / name, rng.random((3, 8, 8), dtype=np.float32))
            files.append(name)
        index[cls] = files
    index_path = workdir / "cls.json"
    index_path.write_text(json.dumps(index))
    out = workdir / "zs.json"
    # the tiny text encoder keeps a prompt's first 4 bytes, so the default
    # template would give every class the same prompt embedding
    rc = main(["zero-shot", "--checkpoint", str(ckpt), "--class-index", str(index_path),
               "--data-root", str(img_dir), "--out", str(out), "--template", "{class name}"])
    assert rc == 0
    result = json.loads(out.read_text())
    assert 0.0 <= result["accuracy"] <= 100.0
    assert len(result["predictions"]) == 4
    # the command embeds all prompts in one call; one call per prompt agrees
    student = load_checkpoint(ckpt).student
    classes = sorted(index)
    images = [ImageCaptionRecord(image_ref=fn, captions={}, split="test")
              for cls in classes for fn in index[cls]]
    per_prompt = zero_shot_classify(
        embed_record_images(student, images, data_root=img_dir), classes,
        ZeroShotTemplate("{class name}"), lambda prompt: embed_texts(student, [prompt])[0])
    assert result["predictions"] == [classes[p] for p in per_prompt]


def test_zero_shot_prompts_equal_after_truncation_is_validation_error(workdir, capsys):
    """The tiny text encoder keeps 4 bytes of a prompt: both names start
    "rive", so every image would go to the first class."""
    ckpt = _train(workdir)
    write_ppm(workdir / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
    index_path = workdir / "cls.json"
    index_path.write_text(json.dumps({"riverbank": ["a.ppm"], "forest": ["a.ppm"],
                                      "riverside": ["a.ppm"]}))
    rc = main(["zero-shot", "--checkpoint", str(ckpt), "--class-index", str(index_path),
               "--data-root", str(workdir), "--template", "{class name}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'riverbank' and 'riverside'" in err and "max_length" in err


def test_zero_shot_truncated_image_is_validation_error(workdir):
    ckpt = _train(workdir)
    (workdir / "cut.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(10))
    index_path = workdir / "cls.json"
    index_path.write_text(json.dumps({"river": ["cut.ppm"]}))
    rc = main(["zero-shot", "--checkpoint", str(ckpt), "--class-index", str(index_path),
               "--data-root", str(workdir)])
    assert rc == 2


@pytest.mark.parametrize("index", [
    {}, {"river": "cut.ppm"}, {"river": []}, {"river": ["a.ppm", 3]}, ["a.ppm"],
    {"test": {}},
], ids=["empty", "string-value", "empty-list", "non-string-path", "array", "empty-test"])
def test_zero_shot_bad_class_index_is_validation_error(workdir, capsys, index):
    ckpt = _train(workdir)
    index_path = workdir / "cls.json"
    index_path.write_text(json.dumps(index))
    rc = main(["zero-shot", "--checkpoint", str(ckpt), "--class-index", str(index_path),
               "--data-root", str(workdir)])
    assert rc == 2
    assert "class" in capsys.readouterr().err


def test_make_splits_bad_class_index_is_validation_error(workdir):
    index_path = workdir / "classes.json"
    index_path.write_text(json.dumps({"river": "abc.ppm"}))
    rc = main(["make-splits", "--class-index", str(index_path),
               "--out", str(workdir / "splits.json")])
    assert rc == 2
    assert not (workdir / "splits.json").exists()


def test_corrupt_checkpoint_is_io_error(workdir):
    blob = _train(workdir).read_bytes()
    bad = workdir / "bad.ckpt"
    bad.write_bytes(blob.replace(b'"batch_size"', b'"batch_size\xff', 1))
    rc = main(["eval-retrieval", "--checkpoint", str(bad),
               "--manifest", str(workdir / "manifest.jsonl")])
    assert rc == 4


def test_missing_checkpoint_is_io_error(workdir):
    rc = main(["eval-retrieval", "--checkpoint", str(workdir / "nope.ckpt"),
               "--manifest", str(workdir / "manifest.jsonl")])
    assert rc == 4


def test_flipped_checkpoint_bit_is_io_error(workdir, capsys):
    blob = bytearray(_train(workdir).read_bytes())
    blob[len(blob) // 2] ^= 0x10
    bad = workdir / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    rc = main(["eval-retrieval", "--checkpoint", str(bad),
               "--manifest", str(workdir / "manifest.jsonl")])
    assert rc == 4
    assert "CRC" in capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=checkpoint_mutations())
def test_fuzzed_checkpoint_is_io_error(workdir, blob):
    """Every mutation that the loader refuses makes the CLI exit 4."""
    bad = workdir / "fuzz.ckpt"
    bad.write_bytes(blob)
    try:
        load_checkpoint(bad)
    except CheckpointError:
        assert main(["eval-retrieval", "--checkpoint", str(bad),
                     "--manifest", str(workdir / "manifest.jsonl")]) == 4


def test_resume_on_different_manifest_is_validation_error(workdir, capsys):
    ckpt_path = _train(workdir, ("--stop-after-epoch", "1"))
    other = workdir / "other.jsonl"
    write_synthetic_manifest(other, n=5, size=8)
    rc = main(["train", "--checkpoint", str(ckpt_path), "--manifest", str(other),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 2
    assert "different train records" in capsys.readouterr().err
    assert not (workdir / "x.ckpt").exists()


def test_bad_manifest_is_validation_error(workdir):
    bad = workdir / "bad.jsonl"
    bad.write_text("{not json\n")
    rc = main(["train", "--config", str(workdir / "config.json"),
               "--manifest", str(bad), "--out", str(workdir / "x.ckpt")])
    assert rc == 2


@pytest.mark.parametrize("path,value", [
    (("foo",), 1),
    (("betas",), [0.9]),
    (("sampling", "include_english"), "yes"),
    (("augmentation", "n_local"), "2"),
    (("model", "vision", "foo"), 1),
    (("model", "text", "heads"), 2.0),
    (("model", "dino", "output_dim"), True),
    ((), [1, 2]),
], ids=["unknown-top", "short-tuple", "sampling-bool", "augmentation-int",
        "vision-unknown", "text-int", "dino-bool", "not-object"])
def test_train_bad_config_is_validation_error(workdir, capsys, path, value):
    obj = json.loads((workdir / "config.json").read_text())
    obj = set_config_field(obj, path, value) if path else value
    bad = workdir / "bad_config.json"
    bad.write_text(json.dumps(obj))
    rc = main(["train", "--config", str(bad), "--manifest", str(workdir / "manifest.jsonl"),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 2
    assert "config" in capsys.readouterr().err
    assert not (workdir / "x.ckpt").exists()


@pytest.mark.parametrize("path,value", [
    (("model", "vision", "patch_size"), 0), (("model", "vision", "heads"), 0),
    (("model", "text", "heads"), -4), (("learning_rate",), 10 ** 400),
    (("augmentation", "global_scale"), [0.4, -10 ** 400]),
    (("learning_rate",), float("nan")), (("tau_student",), float("inf")), (None, None),
    (("betas",), [1.0, 0.98]), (("betas",), [0.9, -0.5]), (("adam_eps",), 0.0),
    (("adam_eps",), -1.0)],
    ids=["patch-size-0", "vision-heads-0", "text-heads-negative", "float-past-range",
         "tuple-item-past-range", "float-nan", "float-inf", "nested-too-deep",
         "beta-1", "beta-negative", "adam-eps-0", "adam-eps-negative"])
def test_train_degenerate_config_exits_2(workdir, capsys, path, value):
    """A zero divisor, a float field that is not finite (NaN, an infinity,
    an int past float's range), JSON nested past the parser's depth and
    Adam settings that divide by zero (a beta of 1, an eps of 0) or make no
    sense (a negative beta or eps) are validation errors, not tracebacks or
    a run on non-finite settings."""
    bad = workdir / "bad_config.json"
    if path is None:
        bad.write_text("[" * 100_000)
    else:
        obj = json.loads((workdir / "config.json").read_text())
        bad.write_text(json.dumps(set_config_field(obj, path, value)))
    rc = main(["train", "--config", str(bad), "--manifest", str(workdir / "manifest.jsonl"),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not (workdir / "x.ckpt").exists()


@pytest.mark.parametrize("local", [6, 2, 12], ids=["not-patch-multiple",
                                                    "below-patch", "above-global"])
def test_train_bad_local_crop_size_is_validation_error(workdir, capsys, local):
    """The tiny model has 4 px patches and 8 px global crops."""
    obj = json.loads((workdir / "config.json").read_text())
    bad = workdir / "bad_config.json"
    bad.write_text(json.dumps(set_config_field(obj, ("augmentation", "local_crop_size"),
                                               local)))
    rc = main(["train", "--config", str(bad), "--manifest", str(workdir / "manifest.jsonl"),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 2
    assert "local crop size" in capsys.readouterr().err
    assert not (workdir / "x.ckpt").exists()


def test_train_resume_from_mismatched_adam_moments_is_io_error(workdir, capsys):
    """A checkpoint whose adam_m lacks a parameter is refused at load."""
    sections = ckpt.read_container(_train(workdir))
    sections["adam_m"] = sections["adam_m"][:-1]   # log_tau, the last tensor
    bad = workdir / "bad.ckpt"
    ckpt.write_container(bad, sections)
    rc = main(["train", "--checkpoint", str(bad), "--manifest",
               str(workdir / "manifest.jsonl"), "--out", str(workdir / "x.ckpt")])
    assert rc == 4
    assert "adam_m" in capsys.readouterr().err
    assert not (workdir / "x.ckpt").exists()


@pytest.mark.parametrize("flags", [
    ("--config", "config.json"), ("--seed", "0"), ("--exclude-english-from-sampling",),
    ("--freeze-temperature",), ("--seed", "1", "--freeze-temperature"),
])
def test_train_resume_with_fresh_run_flags_is_validation_error(workdir, capsys, flags):
    """A resumed run keeps its checkpoint's config, so a flag that would
    change it is refused, not ignored."""
    ckpt_path = _train(workdir, ("--stop-after-epoch", "1"))
    flags = [str(workdir / f) if f.endswith(".json") else f for f in flags]
    rc = main(["train", "--checkpoint", str(ckpt_path), "--manifest",
               str(workdir / "manifest.jsonl"), "--out", str(workdir / "x.ckpt"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(f in err for f in flags if f.startswith("--"))
    assert not (workdir / "x.ckpt").exists()


@pytest.mark.parametrize("command,flags", [
    ("eval-retrieval", ("--checkpoint", "c", "--manifest", "m", "--seed", "1")),
    ("export-embeddings", ("--checkpoint", "c", "--manifest", "m", "--out", "o",
                           "--config", "x.json")),
    ("build-translation-prompts", ("--manifest", "m", "--out", "o", "--language", "de",
                                   "--data-root", "d")),
    ("ingest-translations", ("--manifest", "m", "--out", "o", "--responses", "r",
                             "--language", "de", "--seed", "1")),
    ("build-lmcap-prompts", ("--checkpoint", "c", "--manifest", "m", "--out", "o",
                             "--config", "x.json")),
])
def test_subcommand_rejects_flag_it_does_not_read(command, flags, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command, *flags])
    assert raised.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_train_nonfinite_distillation_names_the_step(workdir, capsys, monkeypatch):
    """A NaN distillation term reaches the trainer's one finiteness check,
    whose message names the step and both terms; the CLI exits 3."""
    monkeypatch.setattr(trainer, "soft_distillation_terms",
                        lambda *args: Tensor(np.array(np.nan, np.float32)))
    rc = main(["train", "--config", str(workdir / "config.json"), "--manifest",
               str(workdir / "manifest.jsonl"), "--out", str(workdir / "x.ckpt")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite loss nan at step 0 (epoch 0" in err
    assert "InfoNCE" in err and "distillation nan" in err
    assert not (workdir / "x.ckpt").exists()


def test_train_config_not_json_is_validation_error(workdir):
    bad = workdir / "bad_config.json"
    bad.write_text("{not json")
    rc = main(["train", "--config", str(bad), "--manifest", str(workdir / "manifest.jsonl"),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 2


def _no_file(path):
    pass


def _truncated_ppm(path):
    path.write_bytes(b"P6\n8 8\n255\n" + bytes(10))


def _small_ppm(path):
    write_ppm(path, np.zeros((3, 2, 2)))   # the tiny config's local crops are 4 px


@pytest.mark.parametrize("write_last,code,message", [
    (_truncated_ppm, 2, "pixel payload truncated"),
    (_no_file, 4, "No such file"),
    (_small_ppm, 2, "smaller than local crop size"),
], ids=["truncated-ppm", "missing-file", "smaller-than-local-crop"])
def test_train_bad_image_exit_code(workdir, capsys, write_last, code, message):
    """An image that cannot be read or is too small for its crops stops
    training at the step that needs it, with its error's exit code."""
    lines = []
    for i in range(4):
        name = f"img{i}.ppm"
        if i < 3:
            write_ppm(workdir / name, np.full((3, 8, 8), 0.2 * i))
        else:
            write_last(workdir / name)
        lines.append(json.dumps({"image": name, "captions": {"en": [f"scene {i}"]},
                                 "split": "train"}))
    manifest = workdir / "ppm.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--config", str(workdir / "config.json"), "--manifest",
               str(manifest), "--data-root", str(workdir), "--out", str(workdir / "x.ckpt")])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (workdir / "x.ckpt").exists()


@pytest.mark.parametrize("kind,code", [
    (errors.ShapeError, 2), (errors.DomainError, 2), (errors.ContractError, 2),
    (errors.ValidationError, 2), (errors.NumericError, 3), (errors.CheckpointError, 4),
    (OSError, 4),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_exit_code_of_each_error_kind(tmp_path, capsys, monkeypatch, kind, code):
    """main maps each error kind a command raises to its exit code."""
    def command(args):
        raise kind("stub failure")
    monkeypatch.setattr(cli, "cmd_make_splits", command)
    rc = main(["make-splits", "--class-index", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "s.json")])
    assert rc == code
    assert "stub failure" in capsys.readouterr().err


def test_config_round_trip():
    cfg = tiny_train_config(epochs=7, loss_mode="infonce_only")
    again = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()


def test_library_imports_without_scipy():
    """scipy is a test dependency only: the CLI, trainer and evaluation load
    none of it."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(dinoclip.__file__).parents[1])!r})\n"
            "import dinoclip.cli, dinoclip.trainer, dinoclip.evaluation\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
