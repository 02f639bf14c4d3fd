"""Command-line surface.

Exit codes: 0 success, 2 validation error, 3 numeric abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .data import (LANGUAGE_NAMES, ImageCaptionRecord, build_translation_prompts,
                   ingest_translations, load_manifest, parse_json, save_manifest,
                   split_records, tokenize, write_record_file, read_record_file)
from .errors import CheckpointError, DinoClipError, NumericError, ValidationError
from .evaluation import (LMCAP_DEFAULT_RETRIEVED, ZeroShotTemplate, build_lmcap_prompt,
                         cosine_matrix, retrieval_report, split_80_20, top_k_rows,
                         zero_shot_classify)
from .trainer import (TrainConfig, embed_record_images, embed_texts, load_checkpoint,
                      save_checkpoint, train)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_config(args) -> TrainConfig:
    if args.config:
        cfg = TrainConfig.from_dict(parse_json(Path(args.config).read_bytes(), args.config))
    else:
        cfg = TrainConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.sampling.seed = args.seed
    if args.exclude_english_from_sampling:
        cfg.sampling.include_english = False
    if args.freeze_temperature:
        cfg.freeze_temperature = True
    return cfg


def _language(code_or_name: str) -> tuple[str, str]:
    """(code, name) for a --language value given as either."""
    for code, name in LANGUAGE_NAMES.items():
        if code_or_name in (code, name):
            return code, name
    raise ValidationError(f"unknown language {code_or_name!r}")


def _read_class_index(path, split: str = None) -> dict[str, list[str]]:
    """Class name -> non-empty list of image paths, from a JSON object; with
    ``split``, make-splits output (objects under train and test alone) yields that split."""
    index = parse_json(Path(path).read_bytes(), path)
    if (split is not None and isinstance(index, dict) and index.keys() == {"train", "test"}
            and all(isinstance(v, dict) for v in index.values())):
        index = index[split]
    if not isinstance(index, dict) or not index:
        raise ValidationError(f"{path}: class index must be a non-empty object of "
                              "class name to image paths")
    for name, files in index.items():
        if not (isinstance(files, list) and files
                and all(isinstance(fn, str) and fn for fn in files)):
            raise ValidationError(f"{path}: class {name!r} needs a non-empty list of "
                                  "path strings")
    return index


def cmd_train(args) -> int:
    fresh_only = [flag for flag, given in (
        ("--config", args.config is not None), ("--seed", args.seed is not None),
        ("--exclude-english-from-sampling", args.exclude_english_from_sampling),
        ("--freeze-temperature", args.freeze_temperature)) if given]
    if args.checkpoint and fresh_only:
        raise ValidationError(f"a resumed run keeps its checkpoint's config; "
                              f"{', '.join(fresh_only)} would be ignored")
    records = load_manifest(args.manifest)
    resume = load_checkpoint(args.checkpoint) if args.checkpoint else None
    config = resume.config if resume else _load_config(args)
    state, metrics = train(config, records, data_root=args.data_root, resume=resume,
                           stop_after_epoch=args.stop_after_epoch)
    save_checkpoint(state, args.out)
    if args.metrics_log:
        metrics.write_jsonl(args.metrics_log)
    last = metrics.records[-1] if metrics.records else {}
    print(f"trained through epoch {state.next_epoch} ({state.step} steps); "
          f"final loss {last.get('loss_combined', float('nan')):.4f}; "
          f"checkpoint -> {args.out}")
    return EXIT_OK


def _write_text(path, text: str):
    write_atomic(path, lambda f: f.write(text.encode("utf-8")))


def _caption_rows(records, language: str):
    """(texts, owner image row) for every caption of one language."""
    texts, owners = [], []
    for row, rec in enumerate(records):
        for text in rec.captions.get(language, []):
            texts.append(text)
            owners.append(row)
    return texts, owners


def cmd_eval_retrieval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    records = split_records(load_manifest(args.manifest), args.split)
    if not records:
        raise ValidationError(f"no records in split {args.split!r}")
    texts, owners = _caption_rows(records, args.language)
    if args.dedupe_captions:  # drop per-image duplicate captions, first one kept
        kept = list(dict.fromkeys(zip(texts, owners)))
        texts, owners = [t for t, _ in kept], [o for _, o in kept]
    if not texts:
        raise ValidationError(f"split has no captions in language {args.language!r}")
    img = embed_record_images(state.student, records, data_root=args.data_root)
    txt = embed_texts(state.student, texts)
    report = retrieval_report(img, txt, owners)
    print(report.to_json())
    print(report.to_csv_row())
    if args.out:
        _write_text(args.out, report.to_json() + "\n")
    return EXIT_OK


def cmd_zero_shot(args) -> int:
    class_index = _read_class_index(args.class_index, split="test")
    state = load_checkpoint(args.checkpoint)
    class_names = sorted(class_index.keys())
    template = ZeroShotTemplate(args.template)
    max_len, owners = state.student.config.text.max_length, {}
    for name in class_names:
        other = owners.setdefault(tuple(tokenize(template.expand(name), max_len)), name)
        if other != name:
            raise ValidationError(f"classes {other!r} and {name!r} have prompts equal in their "
                                  f"first {max_len} (max_length) tokens, so they embed alike")

    images, labels = [], []
    for ci, name in enumerate(class_names):
        for fn in class_index[name]:
            images.append(ImageCaptionRecord(image_ref=fn, captions={}, split="test"))
            labels.append(ci)
    img_emb = embed_record_images(state.student, images, data_root=args.data_root)
    prompts = [template.expand(name) for name in class_names]
    prompt_emb = dict(zip(prompts, embed_texts(state.student, prompts)))
    predictions = zero_shot_classify(img_emb, class_names, template, prompt_emb.__getitem__)
    correct = sum(int(p == t) for p, t in zip(predictions, labels))
    result = {"accuracy": round(100.0 * correct / len(labels), 2),
              "n": len(labels),
              "predictions": [class_names[p] for p in predictions]}
    print(json.dumps({"accuracy": result["accuracy"], "n": result["n"]}))
    if args.out:
        _write_text(args.out, json.dumps(result, indent=2))
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    state = load_checkpoint(args.checkpoint)
    records = split_records(load_manifest(args.manifest), args.split)
    if not records:
        raise ValidationError(f"no records in split {args.split!r}")
    if args.kind == "images":
        matrix = embed_record_images(state.student, records, data_root=args.data_root)
        ids = [f"record{r.index}" for r in records]
    else:
        texts, owners = _caption_rows(records, args.language)
        if not texts:
            raise ValidationError(f"no captions in language {args.language!r}")
        matrix = embed_texts(state.student, texts)
        ids = [f"record{records[o].index}:cap{i}" for i, o in enumerate(owners)]
    matrix = np.ascontiguousarray(matrix.astype("<f4"))
    write_atomic(args.out, lambda f: f.write(matrix))
    sidecar = {"count": int(matrix.shape[0]), "dim": int(matrix.shape[1]), "ids": ids}
    _write_text(str(args.out) + ".json", json.dumps(sidecar))
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} embeddings -> {args.out}")
    return EXIT_OK


def cmd_build_translation_prompts(args) -> int:
    records = load_manifest(args.manifest)
    prompts = build_translation_prompts(records, _language(args.language)[1])
    write_record_file(args.out, prompts)
    print(f"wrote {len(prompts)} prompts -> {args.out}")
    return EXIT_OK


def cmd_ingest_translations(args) -> int:
    records = load_manifest(args.manifest)
    code = _language(args.language)[0]
    ingest_translations(records, args.responses, code)
    save_manifest(records, args.out)
    print(f"attached {code!r} translations -> {args.out}")
    return EXIT_OK


def cmd_build_lmcap_prompts(args) -> int:
    language_name = _language(args.language)[1]
    state = load_checkpoint(args.checkpoint)
    records = load_manifest(args.manifest)
    datastore = split_records(records, "train")
    queries = split_records(records, args.split)
    if not datastore or not queries:
        raise ValidationError("need train records (datastore) and query records")
    texts, _ = _caption_rows(datastore, args.caption_language)
    if not texts:
        raise ValidationError(f"datastore has no {args.caption_language!r} captions")
    gallery = embed_texts(state.student, texts)
    query_emb = embed_record_images(state.student, queries, data_root=args.data_root)
    fewshot = read_record_file(args.fewshot) if args.fewshot else []
    top = top_k_rows(cosine_matrix(query_emb, gallery), min(args.k, len(texts)))
    prompts = [build_lmcap_prompt([texts[i] for i in row], language_name, fewshot)
               for row in top]
    write_record_file(args.out, prompts)
    print(f"wrote {len(prompts)} prompts -> {args.out}")
    return EXIT_OK


def cmd_make_splits(args) -> int:
    class_index = _read_class_index(args.class_index)
    train_set, test_set = split_80_20(class_index, seed=args.seed)
    _write_text(args.out, json.dumps({"train": train_set, "test": test_set},
                                     indent=2, sort_keys=True))
    sizes = {c: (len(train_set[c]), len(test_set[c])) for c in sorted(class_index)}
    print(json.dumps({"classes": len(sizes), "sizes": sizes}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dinoclip",
                                description="dual-encoder contrastive training with "
                                            "self-distillation, plus evaluation tools")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False, out=True, data_root=True):
        sp.add_argument("--manifest", required=True, help="JSON-lines manifest")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True)
        if out:
            sp.add_argument("--out", required=True)
        if data_root:
            sp.add_argument("--data-root", default=None, help="base directory for image paths")

    sp = sub.add_parser("train", help="run the training loop")
    common(sp)
    sp.add_argument("--config", help="JSON training config")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--checkpoint", default=None, help="resume from this checkpoint")
    sp.add_argument("--metrics-log", default=None, help="write JSON-lines metrics here")
    sp.add_argument("--stop-after-epoch", type=int, default=None)
    sp.add_argument("--exclude-english-from-sampling", action="store_true",
                    help="one_translation draws only from non-English captions")
    sp.add_argument("--freeze-temperature", action="store_true",
                    help="keep the contrastive temperature at its initial value")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval-retrieval", help="cross-modal retrieval recalls")
    common(sp, checkpoint=True, out=False)
    sp.add_argument("--out", default=None)
    sp.add_argument("--split", default="test")
    sp.add_argument("--language", default="en")
    sp.add_argument("--dedupe-captions", action="store_true",
                    help="drop per-image duplicate captions before ranking")
    sp.set_defaults(fn=cmd_eval_retrieval)

    sp = sub.add_parser("zero-shot", help="zero-shot classification accuracy")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--class-index", required=True,
                    help="JSON: class name -> list of PPM paths (or make-splits output)")
    sp.add_argument("--template", default=ZeroShotTemplate().template)
    sp.add_argument("--data-root", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_zero_shot)

    sp = sub.add_parser("export-embeddings", help="binary f32 rows + JSON sidecar")
    common(sp, checkpoint=True)
    sp.add_argument("--kind", choices=("images", "captions"), default="images")
    sp.add_argument("--split", default="test")
    sp.add_argument("--language", default="en")
    sp.set_defaults(fn=cmd_export_embeddings)

    sp = sub.add_parser("build-translation-prompts",
                        help="one prompt per English caption, record-separated")
    common(sp, data_root=False)
    sp.add_argument("--language", required=True, help="target language code or name")
    sp.set_defaults(fn=cmd_build_translation_prompts)

    sp = sub.add_parser("ingest-translations",
                        help="attach responses (1:1 with English captions) to the manifest")
    common(sp, data_root=False)
    sp.add_argument("--responses", required=True)
    sp.add_argument("--language", required=True)
    sp.set_defaults(fn=cmd_ingest_translations)

    sp = sub.add_parser("build-lmcap-prompts",
                        help="retrieval-augmented captioning prompts for query images")
    common(sp, checkpoint=True)
    sp.add_argument("--split", default="test", help="query split")
    sp.add_argument("--language", default="English", help="output caption language")
    sp.add_argument("--caption-language", default="en", help="datastore caption language")
    sp.add_argument("--k", type=int, default=LMCAP_DEFAULT_RETRIEVED)
    sp.add_argument("--fewshot", default=None, help="record-separated few-shot blocks")
    sp.set_defaults(fn=cmd_build_lmcap_prompts)

    sp = sub.add_parser("make-splits", help="seeded per-class 80/20 split")
    sp.add_argument("--class-index", required=True)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_make_splits)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except DinoClipError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
