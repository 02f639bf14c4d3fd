"""Command-line surface: every subcommand plus exit-code mapping."""

import json

import numpy as np
import pytest

from dinoclip.cli import main
from dinoclip.data import read_record_file, write_record_file
from dinoclip.trainer import TrainConfig

from conftest import write_ppm, write_synthetic_manifest
from test_trainer import tiny_train_config


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
    rc = main(["zero-shot", "--checkpoint", str(ckpt), "--class-index", str(index_path),
               "--data-root", str(img_dir), "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert 0.0 <= result["accuracy"] <= 100.0
    assert len(result["predictions"]) == 4


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


def test_config_round_trip():
    cfg = tiny_train_config(epochs=7, loss_mode="infonce_only")
    again = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()
