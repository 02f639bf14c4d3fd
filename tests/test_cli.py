"""Command-line surface: every subcommand plus exit-code mapping."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dinoclip
from dinoclip import checkpoint as ckpt
from dinoclip.cli import main
from dinoclip.data import ImageCaptionRecord, read_record_file, write_record_file
from dinoclip.evaluation import ZeroShotTemplate, zero_shot_classify
from dinoclip.trainer import TrainConfig, embed_record_images, embed_texts, load_checkpoint

from conftest import write_ppm, write_synthetic_manifest
from test_trainer import set_config_field, tensors_with, tiny_train_config


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
    sections["adam_m"] = tensors_with(sections["adam_m"], "log_tau", None)
    bad = workdir / "bad.ckpt"
    ckpt.write_container(bad, list(sections.items()))
    rc = main(["train", "--checkpoint", str(bad), "--manifest",
               str(workdir / "manifest.jsonl"), "--out", str(workdir / "x.ckpt")])
    assert rc == 4
    assert "adam_m" in capsys.readouterr().err
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
    """Images are read in the view worker; its errors keep their kind, and so
    their exit code, across the process boundary."""
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
