"""Print the seeded digests that tell whether a change moves training bits.

    python tests/seeded_digests.py

Trains the 16-record synthetic manifest (English and German captions,
32 px images) for 6 epochs of batch 8, seed 3, in both loss modes and
both caption sampling modes, everything else at its default.  Per run it
prints:

- ``checkpoint``: the first 8 hex digits of the saved checkpoint's sha256;
- ``student``: the same of the student tensors alone (name, dtype, shape
  and bytes in spec order), so a change of the file format can be told
  apart from a change of the trained values.

Then ``embeddings``: a digest of ``embed_record_images`` and
``embed_texts`` over the manifest from the combined/english_only state,
which checks the forward bits.

It asserts nothing: the digests depend on the BLAS kernels of the host, so
they are compared between two trees on one machine, not against golden
values.  No pytest collects it (no ``test_`` prefix).
"""

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dinoclip.data import EpochSamplingPolicy, load_manifest   # noqa: E402
from dinoclip.trainer import (TrainConfig, embed_record_images, embed_texts,   # noqa: E402
                              save_checkpoint, train)

from conftest import write_synthetic_manifest   # noqa: E402

LOSS_MODES = ("combined", "infonce_only")
SAMPLING_MODES = ("english_only", "one_translation")


def short(h) -> str:
    return h.hexdigest()[:8]


def tensor_digest(arrays) -> str:
    """sha256 over (name, dtype, shape, bytes) of each (name, array) pair."""
    h = hashlib.sha256()
    for name, a in arrays:
        h.update(f"{name} {a.dtype} {a.shape}\n".encode())
        h.update(a.tobytes())
    return short(h)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        records = load_manifest(write_synthetic_manifest(Path(tmp) / "manifest.jsonl", n=16,
                                                         size=32, languages=("en", "de")))
        embedding_state = None
        for loss_mode in LOSS_MODES:
            for mode in SAMPLING_MODES:
                config = TrainConfig(batch_size=8, epochs=6, warmup_epochs=1, seed=3,
                                     loss_mode=loss_mode,
                                     sampling=EpochSamplingPolicy(mode=mode, seed=3))
                state, _ = train(config, records)
                path = Path(tmp) / f"{loss_mode}-{mode}.ckpt"
                save_checkpoint(state, path)
                print(f"{loss_mode}/{mode}: "
                      f"checkpoint {short(hashlib.sha256(path.read_bytes()))} "
                      f"student {tensor_digest((k, v.data) for k, v in state.student.items())}")
                if embedding_state is None:
                    embedding_state = state
        params = embedding_state.student
        texts = [t for rec in records for captions in rec.captions.values() for t in captions]
        print(f"embeddings ({LOSS_MODES[0]}/{SAMPLING_MODES[0]}): "
              + tensor_digest([("images", embed_record_images(params, records)),
                               ("texts", embed_texts(params, texts))]))


if __name__ == "__main__":
    main()
