#!/usr/bin/env python3
"""dinoclip benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload train_overfit --seed 1 --seconds 30 --trace 0

prints progress lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer metrics from a run with the tracer installed (and writes its
spans to perfbench/out/).  ``--until-r1`` makes train_overfit train until
both R@1 read 100 (cap 500 epochs) and adds time_to_r1_s and epochs_to_r1.

The whole suite, each workload untraced and traced in its own process plus
the train_overfit run to 100% R@1:

    python3 perfbench/run.py [--seed 1] [--seconds 30]

The library is imported from src/ of the checkout this file sits in; the
run fails when it is not there.  BLAS runs on one thread.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# numpy is imported only after pin_blas(), so that BLAS starts single-threaded
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_REPEATS = 3
# autodiff op types counted one by one; any other op counts as "other"
OPS = ("add", "concat", "div", "exp", "extract_patches", "gather_rows", "gelu",
       "l2_normalize", "layer_norm", "log", "log_softmax", "matmul", "mul", "neg",
       "reshape", "soft_cross_entropy", "softmax", "sqrt", "sub", "sum", "take_index",
       "transpose")
# spans whose self time and call count are reported per step (per pass on eval)
SPANS = ("data.make_views", "data.resize_bicubic", "encoders.encode_text",
         "encoders.encode_images_student", "encoders.encode_images_teacher",
         "encoders.project_dino", "autodiff.backward", "objectives.info_nce",
         "objectives.distill", "objectives.ema_center", "trainer.adamw",
         "trainer.embed_texts", "trainer.embed_images", "evaluation.retrieval_report",
         "evaluation.cosine_matrix", "evaluation.recall_at_k", "evaluation.zero_shot")


class BenchError(Exception):
    """The benchmark cannot run here (no library, no BENCHMARK.json)."""


def pin_blas():
    for var in BLAS_ENV:
        os.environ[var] = "1"


def import_seconds() -> float:
    """Median time to import the library in a fresh interpreter."""
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import dinoclip.trainer, dinoclip.evaluation\n"
            "print(time.perf_counter() - t)\n"
            "print(dinoclip.__file__)\n")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            raise BenchError(f"cannot import dinoclip from {SRC}: {proc.stderr.strip()}")
        if not Path(lines[1]).resolve().is_relative_to(SRC):
            raise BenchError(f"dinoclip imported from {lines[1]}, not from {SRC}")
        times.append(float(lines[0]))
    return statistics.median(times)


def load_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import dinoclip
    except ImportError as e:
        raise BenchError(f"cannot import dinoclip from {SRC}: {e}") from e
    if not Path(dinoclip.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"dinoclip imported from {dinoclip.__file__}, not from {SRC}")


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def provenance() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "commit": commit, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def end_to_end(outcome, import_s: float) -> dict:
    steps = outcome.step_s
    return {
        "setup_s": import_s + outcome.setup_s,
        "step_ms_p50": 1000.0 * percentile(steps, 50),
        "step_ms_p75": 1000.0 * percentile(steps, 75),
        "pairs_per_s": outcome.items / sum(steps),
        "pass_s": statistics.median(outcome.pass_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, s: dict, outcome) -> dict:
    """Per-layer metric values from the tracer summary ``s``."""
    out = {}
    for name in SPANS:
        out[f"{name}_ms"] = s["self_ms"].get(name, 0.0)
        out[f"{name}_calls"] = s["calls"].get(name, 0.0)
    out["autodiff.tape_nodes"] = sum(s["ops"].values())
    for op in OPS:
        out[f"autodiff.nodes.{op}"] = s["ops"].get(op, 0.0)
    out["autodiff.nodes.other"] = sum(v for k, v in s["ops"].items() if k not in OPS)
    out["trainer.loop_self_ms"] = s["loop_self_ms"]
    for name, key in (("trainer.probe", "trainer.probe_ms"),
                      ("checkpoint.load", "checkpoint.load_ms"),
                      ("checkpoint.save", "checkpoint.save_ms")):
        times = tracer.durations_ms(name)
        out[key] = statistics.median(times) if times else 0.0
    out["checkpoint.bytes"] = float(outcome.info.get("checkpoint_bytes", 0))
    out["trace.step_ms_p50"] = 1000.0 * percentile(outcome.step_s, 50)
    out["trace.unit_ms"] = s["unit_ms"]
    # loop_self_ms is the unit time the spans leave over, so the self times sum
    # to the unit by definition; what can go wrong is a span outside its unit
    outcome.check(s["min_self_ms"] >= 0.0 and s["loop_self_ms"] >= 0.0,
                  f"a self time is negative (least span {s['min_self_ms']:.3f} ms, "
                  f"loop {s['loop_self_ms']:.3f} ms)")
    return out


def print_layer_table(s: dict, units: int, unit_name: str):
    print(f"per-layer split, per {unit_name} ({units} traced, "
          f"{s['unit_ms']:.2f} ms each):")
    print(f"  {'span':34s} {'calls':>9s} {'self ms':>10s} {'share':>7s}")
    rows = sorted(s["self_ms"].items(), key=lambda kv: -kv[1])
    rows.append(("trainer.loop_self", s["loop_self_ms"]))
    for name, ms in rows:
        calls = s["calls"].get(name)
        calls = f"{calls:9.2f}" if calls is not None else f"{'-':>9s}"
        print(f"  {name:34s} {calls} {ms:10.3f} {100.0 * ms / s['unit_ms']:6.1f}%")
    if s["ops"]:
        ops = ", ".join(f"{k} {v:g}" for k, v in sorted(s["ops"].items(), key=lambda kv: -kv[1]))
        print(f"  tape nodes per {unit_name}: {sum(s['ops'].values()):g} ({ops})")


def result_line(values: dict, declared: list, outcome, extra: dict = None) -> dict:
    """The run's final JSON object; every declared metric exactly once."""
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    metrics.update(extra or {})
    return {"correct": not outcome.failures, "attempted": outcome.attempted,
            "failed": len(outcome.failures), "metrics": metrics}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 until_r1: bool = False, specs: dict = None) -> dict:
    """Run one workload in this process and return its result object."""
    contract = load_contract()
    import_s = None if trace else import_seconds()
    load_library()
    import tracer as tracing
    import workloads

    specs = specs or {"train_overfit": workloads.OVERFIT,
                      "train_multicrop": workloads.MULTICROP,
                      "eval_retrieval": workloads.EVAL}
    if name not in specs or name not in {w["name"] for w in contract["workloads"]}:
        raise BenchError(f"unknown workload {name!r}")
    if until_r1 and name != "train_overfit":
        raise BenchError("--until-r1 applies to train_overfit only")
    info = provenance()
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        if name == "eval_retrieval":
            outcome = workloads.run_eval(specs[name], seed, seconds, OUT, tracer)
        else:
            outcome = workloads.run_training(specs[name], seed, seconds, tracer, until_r1)
    finally:
        if tracer is not None:
            tracer.uninstall()

    unit_name = "pass" if name == "eval_retrieval" else "step"
    print(f"{name} seed {seed}: {len(outcome.step_s)} steps timed, "
          f"{len(outcome.pass_s)} passes; "
          + ", ".join(f"{k} {v}" for k, v in sorted(outcome.info.items())), flush=True)
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}", flush=True)
    if not outcome.step_s or not outcome.pass_s:
        raise BenchError("no step or pass completed")
    if tracer is not None:
        # the tracer numbers units from 1: steps in training, passes on eval
        timed = outcome.pass_s if name == "eval_retrieval" else outcome.step_s
        units = {i + 1: t for i, t in enumerate(timed)}
        summary = tracer.summarize(units)
        values = per_layer(tracer, summary, outcome)
        print_layer_table(summary, len(units), unit_name)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
        return result_line(values, contract["per_layer"], outcome)
    values = end_to_end(outcome, import_s)
    for m in contract["end_to_end"]:
        print(f"  {m['name']:14s} {values[m['name']]:12.4f} {m['unit']}")
    extra = None
    if until_r1 and "epochs_to_r1" in outcome.info:
        extra = {"time_to_r1_s": {"value": outcome.info["time_to_r1_s"], "unit": "s"},
                 "epochs_to_r1": {"value": outcome.info["epochs_to_r1"], "unit": "count"}}
        print(f"  {'time_to_r1_s':14s} {outcome.info['time_to_r1_s']:12.4f} s")
        print(f"  {'epochs_to_r1':14s} {outcome.info['epochs_to_r1']:12d} count")
    return result_line(values, contract["end_to_end"], outcome, extra)


# ---------------------------------------------------------------------------
# the whole suite
# ---------------------------------------------------------------------------

def child(workload: str, seed: int, seconds: float, trace: int, until_r1=False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if until_r1:
        cmd.append("--until-r1")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print("    " + line)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_suite(seed: int, seconds: float) -> bool:
    contract = load_contract()
    results, ok = {}, True
    for w in contract["workloads"]:
        name = w["name"]
        print(f"== {name}: {w['why']}", flush=True)
        plain = child(name, seed, seconds, 0)
        traced = child(name, seed, seconds, 1)
        results[name] = {"untraced": plain, "traced": traced}
        ok = ok and plain["correct"] and traced["correct"]
    print("== train_overfit until both R@1 read 100", flush=True)
    converge = child("train_overfit", seed, seconds, 0, until_r1=True)
    results["train_overfit_to_r1"] = converge
    ok = ok and converge["correct"]

    print(f"\nend-to-end (untraced, seed {seed}, {seconds} s per run)")
    names = [m["name"] for m in contract["end_to_end"]]
    print(f"  {'metric':14s} {'unit':6s}" + "".join(f"{w['name']:>17s}"
                                                   for w in contract["workloads"]))
    for m in contract["end_to_end"]:
        row = "".join(f"{results[w['name']]['untraced']['metrics'][m['name']]['value']:17.4f}"
                      for w in contract["workloads"])
        print(f"  {m['name']:14s} {m['unit']:6s}{row}")
    for key in ("time_to_r1_s", "epochs_to_r1"):
        if key in converge["metrics"]:
            v = converge["metrics"][key]
            print(f"  train_overfit {key}: {v['value']:g} {v['unit']}")
    print("tracing overhead (traced minus untraced step_ms_p50):")
    for w in contract["workloads"]:
        r = results[w["name"]]
        gap = (r["traced"]["metrics"]["trace.step_ms_p50"]["value"]
               - r["untraced"]["metrics"]["step_ms_p50"]["value"])
        base = r["untraced"]["metrics"]["step_ms_p50"]["value"]
        print(f"  {w['name']:17s} {gap:+9.3f} ms ({100.0 * gap / base:+.1f}% of {base:.3f} ms)")
    for name, r in results.items():
        for kind, res in (r.items() if "untraced" in r else (("run", r),)):
            print(f"{name}/{kind}: {res['attempted'] - res['failed']} of "
                  f"{res['attempted']} operations and checks passed")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"suite-seed{seed}.json"
    path.write_text(json.dumps({"seed": seed, "seconds": seconds, "metric_names": names,
                                "results": results}, indent=1), encoding="utf-8")
    print(f"results written to {path}")
    return ok


def main(argv=None) -> int:
    pin_blas()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload; omit to run the suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--until-r1", action="store_true")
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
        if args.workload is None:
            return 0 if run_suite(args.seed, seconds) else 1
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                              args.until_r1)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
