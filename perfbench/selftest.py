#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute):

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
the result line parses, names every metric of BENCHMARK.json exactly once
with its unit, passes its own output checks, and that the tracer leaves
every dinoclip function it wrapped unpatched.  Finally checks that the
benchmark fails, without a result line, in a directory that holds only
BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run

run.pin_blas()
run.load_library()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from dinoclip.data import AugmentationConfig  # noqa: E402
from dinoclip.encoders import (DinoProjectorConfig, ModelConfig,  # noqa: E402
                               TextEncoderConfig, VisionEncoderConfig)

# wide enough that 50 steps pass the learning check (probe InfoNCE ratio 0.97-0.98)
TINY_MODEL = ModelConfig(
    vision=VisionEncoderConfig(image_size=8, patch_size=4, width=32, depth=1, heads=2,
                               embed_dim=16),
    text=TextEncoderConfig(max_length=16, width=32, depth=1, heads=2, embed_dim=16),
    dino=DinoProjectorConfig(hidden_dim=8, bottleneck_dim=4, output_dim=8),
)
TINY_AUG = AugmentationConfig(global_crop_size=8, local_crop_size=4, n_local=2)
TINY_LR = 1e-3
TINY = {
    "train_overfit": workloads.TrainSpec(epochs=60, learning_rate=TINY_LR,
                                         augmentation=TINY_AUG, model=TINY_MODEL),
    "train_multicrop": workloads.TrainSpec(epochs=60, learning_rate=TINY_LR,
                                           captions_per_record=2, languages=("en", "de"),
                                           sampling="one_translation",
                                           augmentation=TINY_AUG, model=TINY_MODEL),
    "eval_retrieval": workloads.EvalSpec(n_records=32, image_size=16,
                                         captions_per_record=2, classes=workloads.CLASSES[:3],
                                         model=TINY_MODEL),
}


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in result line: {keys}")
    return dict(pairs)


def check_result(line: str, declared: list, positive: bool) -> list:
    problems = []
    result = json.loads(line, object_pairs_hook=_no_duplicates)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"checks: {result['correct']}, {result['failed']} failed of "
                        f"{result['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name):
            problems.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
        elif positive and m["value"] <= 0:
            problems.append(f"{name}: end-to-end value {m['value']} is not positive")
    return problems


def check_bare_directory() -> list:
    """The benchmark must refuse to run without the library's sources."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "train_overfit", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                              timeout=180)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    contract = run.load_contract()
    before = tracing.target_functions()
    problems = []
    for name in TINY:
        for trace in (False, True):
            result = run.run_workload(name, seed=7, seconds=0, trace=trace, specs=TINY)
            declared = contract["per_layer"] if trace else contract["end_to_end"]
            found = check_result(json.dumps(result), declared, positive=not trace)
            after = tracing.target_functions()
            found += [f"dinoclip.{mod}.{attr} left patched"
                      for (mod, attr), fn in before.items() if after[(mod, attr)] is not fn]
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
    problems += check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
