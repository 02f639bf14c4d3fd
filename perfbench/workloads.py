"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload calls the library only through its public entry points,
looked up on the module at call time so that the tracer's wrappers apply:
``trainer.train`` (with ``epoch_callback``), ``trainer.init_train_state``,
``trainer.embed_record_images``, ``trainer.embed_texts``,
``trainer.save_checkpoint``, ``trainer.load_checkpoint``,
``evaluation.retrieval_report`` and ``evaluation.zero_shot_classify``.
The library receives only the generated records.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dinoclip import evaluation, trainer
from dinoclip.data import AugmentationConfig, EpochSamplingPolicy, ImageCaptionRecord
from dinoclip.encoders import DinoProjectorConfig, ModelConfig
from dinoclip.errors import NumericError

import oracle

SETUP_REPEATS = 5
N_TRAIN = 16            # one batch of 16: one step per epoch
TRAIN_IMAGE_SIZE = 32
TRAIN_CAPTION_WORDS = (3, 3)    # a fixed length keeps text cost equal across seeds
EVAL_CAPTION_WORDS = (2, 8)
EVAL_BATCH = 16         # records embedded per eval step
PROBE_EVERY = 25        # the acceptance run's R@1 probe cadence, in epochs (--until-r1)
# A timed run probes more often, so that pass_s samples the whole run: the
# machine's speed drifts over seconds, and 5-probe clusters every 25 steps
# gave pass_s a quartile spread of up to 0.19 across seeds.
TIMED_PROBE_EVERY = 5
PROBE_REPEATS = 2       # probes per probe point in a timed run, checked to agree
REPLAY_EPOCHS = 3       # length of the second same-seed run in the determinism check
LEARN_STEPS = 50        # a timed run trains at least this long, for the learning check
# The probe's InfoNCE at the last probe must be at most this share of the
# untrained model's.  At step 50, data seeds 1-10 read 0.41-0.74 on
# train_overfit and 0.88-0.97 on train_multicrop; a model that does not
# change reads 1.
LEARN_RATIO = 0.99

# (English, German) word pairs; captions are drawn word by word, so the
# German caption is a parallel translation of the English one.
WORDS = (
    ("airport", "Flughafen"), ("runway", "Landebahn"), ("river", "Fluss"),
    ("bridge", "Bruecke"), ("forest", "Wald"), ("harbor", "Hafen"),
    ("boats", "Boote"), ("beach", "Strand"), ("farmland", "Ackerland"),
    ("houses", "Haeuser"), ("road", "Strasse"), ("parking", "Parkplatz"),
    ("cars", "Autos"), ("trees", "Baeume"), ("stadium", "Stadion"),
    ("school", "Schule"), ("railway", "Bahnlinie"), ("station", "Bahnhof"),
    ("mountain", "Berg"), ("snow", "Schnee"), ("island", "Insel"),
    ("sea", "Meer"), ("desert", "Wueste"), ("sand", "Sand"), ("field", "Feld"),
    ("tennis", "Tennis"), ("court", "Platz"), ("golf", "Golf"),
    ("course", "Parcours"), ("tanks", "Tanks"), ("freeway", "Autobahn"),
    ("intersection", "Kreuzung"), ("buildings", "Gebaeude"), ("dense", "dicht"),
    ("sparse", "locker"), ("green", "gruen"), ("large", "gross"),
    ("small", "klein"), ("many", "viele"), ("with", "mit"), ("near", "nahe"),
    ("and", "und"), ("white", "weiss"), ("dark", "dunkel"),
)

# the 21 UC Merced land-use classes
CLASSES = (
    "agricultural", "airplane", "baseball diamond", "beach", "buildings",
    "chaparral", "dense residential", "forest", "freeway", "golf course",
    "harbor", "intersection", "medium residential", "mobile home park",
    "overpass", "parking lot", "river", "runway", "sparse residential",
    "storage tanks", "tennis court",
)

_TAG_TRAIN, _TAG_EVAL = 1, 2


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    captions_per_record: int = 1
    languages: tuple = ("en",)
    sampling: str = "english_only"
    epochs: int = 200
    learning_rate: float = 0.00025
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)


@dataclass(frozen=True)
class EvalSpec:
    n_records: int = 400
    image_size: int = 64
    captions_per_record: int = 5
    classes: tuple = CLASSES
    model: ModelConfig = field(default_factory=ModelConfig)


# tests/test_acceptance.py::_overfit_config (criterion 6), batch 16
OVERFIT = TrainSpec(
    epochs=500, learning_rate=5e-4,
    augmentation=AugmentationConfig(global_crop_size=32, local_crop_size=16, n_local=2,
                                    global_scale=(0.7, 1.0), local_scale=(0.2, 0.5),
                                    jitter_strength=0.1, blur_prob=0.1,
                                    solarize_prob=0.05),
    model=ModelConfig(dino=DinoProjectorConfig(hidden_dim=128, bottleneck_dim=64,
                                               output_dim=256)),
)

# default AugmentationConfig (2 global + 8 local views), K = 4096, en+de
MULTICROP = TrainSpec(
    captions_per_record=2, languages=("en", "de"), sampling="one_translation",
    model=ModelConfig(dino=DinoProjectorConfig(output_dim=4096)),
)

EVAL = EvalSpec()


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: float
    step_s: list = field(default_factory=list)     # wall seconds per step
    pass_s: list = field(default_factory=list)     # wall seconds per evaluation pass
    items: int = 0                                 # pairs handled in the timed steps
    attempted: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def make_captions(rng: np.random.Generator, n: int, words: tuple) -> list[tuple]:
    """n distinct (English, German) captions of words[0]..words[1] words."""
    seen, out = set(), []
    while len(out) < n:
        idx = rng.integers(0, len(WORDS), size=int(rng.integers(words[0], words[1] + 1)))
        en = " ".join(WORDS[i][0] for i in idx)
        if en not in seen:
            seen.add(en)
            out.append((en, " ".join(WORDS[i][1] for i in idx)))
    return out


def make_records(seed: int, tag: int, n: int, image_size: int, per_record: int,
                 words: tuple, languages: tuple, split: str) -> list[ImageCaptionRecord]:
    rng = np.random.default_rng([seed, tag])
    captions = make_captions(rng, n * per_record, words)
    first_image = int(rng.integers(0, 2 ** 30))
    records = []
    for i in range(n):
        mine = captions[i * per_record:(i + 1) * per_record]
        texts = {"en": [en for en, _ in mine]}
        if "de" in languages:
            texts["de"] = [de for _, de in mine]
        rec = ImageCaptionRecord(
            image_ref={"synthetic": {"seed": first_image + i, "size": image_size}},
            captions=texts, split=split, index=i)
        rec.validate()
        records.append(rec)
    return records


def training_config(spec: TrainSpec, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        batch_size=16, learning_rate=spec.learning_rate, epochs=spec.epochs,
        warmup_epochs=10, loss_mode="combined", seed=seed,
        sampling=EpochSamplingPolicy(mode=spec.sampling, seed=seed),
        augmentation=spec.augmentation, model=spec.model)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def params_digest(params) -> str:
    names = sorted(params.tensors)
    return digest(np.array(names), *(params.tensors[n].data for n in names))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def run_training(spec: TrainSpec, seed: int, seconds: float, tracer=None,
                 until_r1: bool = False) -> Outcome:
    """Train on the seeded records, one step per epoch, with the acceptance
    R@1 probe every PROBE_EVERY epochs with ``until_r1``, every
    TIMED_PROBE_EVERY otherwise.  Stops at the first step after
    ``seconds`` once LEARN_STEPS steps have run or, with ``until_r1``, at the
    probe that reads 100/100.  Checks that training learns: the InfoNCE loss
    over the probe's embeddings falls to at most LEARN_RATIO of the untrained
    model's.

    A step is timed between epoch callbacks, so the probe, which runs inside
    the callback, is not part of it; the probe is the workload's evaluation
    pass, run PROBE_REPEATS times on the same weights (once with
    ``until_r1``, so that time_to_r1_s matches the acceptance run).
    """
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        records = make_records(seed, _TAG_TRAIN, N_TRAIN, TRAIN_IMAGE_SIZE,
                               spec.captions_per_record, TRAIN_CAPTION_WORDS,
                               spec.languages, "train")
        config = training_config(spec, seed)
        state = trainer.init_train_state(config)
        setup.append(perf_counter() - t0)
    out = Outcome(setup_s=statistics.median(setup))
    probe_captions = [r.captions["en"][0] for r in records]
    owners = list(range(len(records)))
    digests = {}
    # the untrained model's probe InfoNCE, the learning check's reference
    probe_nce = [oracle.info_nce(trainer.embed_record_images(state.student, records),
                                 trainer.embed_texts(state.student, probe_captions),
                                 state.student.tau())]
    if tracer is not None:
        tracer.teacher_params = state.teacher.params
        tracer.unit = 1

    def callback(st, metrics):
        nonlocal last
        now = perf_counter()
        epoch = st.next_epoch
        out.step_s.append(now - last)
        out.items += config.batch_size
        if tracer is not None:
            tracer.unit = None
        if epoch == REPLAY_EPOCHS:
            digests["run"] = params_digest(st.student)
        reached = False
        if epoch % (PROBE_EVERY if until_r1 else TIMED_PROBE_EVERY) == 0:
            reports = []
            for _ in range(1 if until_r1 else PROBE_REPEATS):
                probe_began = perf_counter()
                with _span(tracer, "trainer.probe"):
                    img = trainer.embed_record_images(st.student, records)
                    txt = trainer.embed_texts(st.student, probe_captions)
                    reports.append(evaluation.retrieval_report(img, txt, owners))
                out.pass_s.append(perf_counter() - probe_began)
            rep = reports[0]
            probe_nce.append(oracle.info_nce(img, txt, st.student.tau()))
            out.check(all(r == rep for r in reports), f"probes at epoch {epoch} differ")
            reached = rep.i2t_r1 == 100.0 and rep.t2i_r1 == 100.0
            if reached and "epochs_to_r1" not in out.info:
                out.info["epochs_to_r1"] = epoch
                out.info["time_to_r1_s"] = perf_counter() - started
            out.info["last_r1"] = (rep.i2t_r1, rep.t2i_r1)
        stop = epoch >= LEARN_STEPS and (   # a probe has run by then
            reached if until_r1 else perf_counter() - started >= seconds)
        last = perf_counter()
        if tracer is not None:
            tracer.unit = len(out.step_s) + 1
        return stop

    started = last = perf_counter()
    try:
        trainer.train(config, records, resume=state, epoch_callback=callback)
    except NumericError as e:   # raised on a non-finite loss
        out.check(False, f"training failed: {e}")
    if tracer is not None:
        tracer.unit = None
    out.attempted += len(out.step_s)
    out.info.update(steps_timed=len(out.step_s), passes=len(out.pass_s))

    out.info["probe_infonce"] = (probe_nce[0], probe_nce[-1])
    out.check(len(out.step_s) >= LEARN_STEPS and probe_nce[-1] <= LEARN_RATIO * probe_nce[0],
              f"training did not learn in {len(out.step_s)} steps: probe InfoNCE "
              f"{probe_nce[0]:.4f} untrained, {probe_nce[-1]:.4f} at the last probe")
    if until_r1:
        out.check("epochs_to_r1" in out.info,
                  f"R@1 did not reach 100/100 within {config.epochs} epochs "
                  f"(last probe {out.info.get('last_r1')})")

    replay = trainer.init_train_state(config)
    try:
        trainer.train(config, records, resume=replay, stop_after_epoch=REPLAY_EPOCHS)
        same = digests.get("run") == params_digest(replay.student)
    except NumericError:
        same = False
    out.check(same, f"two same-seed runs differ after {REPLAY_EPOCHS} epochs")
    return out


# ---------------------------------------------------------------------------
# forward-only retrieval workload
# ---------------------------------------------------------------------------

def run_eval(spec: EvalSpec, seed: int, seconds: float, workdir, tracer=None) -> Outcome:
    """Load a seeded checkpoint, then repeat passes until ``seconds``: embed
    every record's image and captions in batches of ``EVAL_BATCH`` records
    (one step each), then run retrieval_report and zero_shot_classify.
    The first pass is checked against the brute-force oracle and every
    later pass against the first."""
    size = spec.model.vision.image_size
    config = trainer.TrainConfig(seed=seed, model=spec.model, augmentation=AugmentationConfig(
        global_crop_size=size, local_crop_size=size // 2))
    seeded = trainer.init_train_state(config)
    path = workdir / f"eval-{os.getpid()}.ckpt"
    try:
        trainer.save_checkpoint(seeded, path)
        ckpt_bytes = path.stat().st_size
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            records = make_records(seed, _TAG_EVAL, spec.n_records, spec.image_size,
                                   spec.captions_per_record, EVAL_CAPTION_WORDS,
                                   ("en",), "test")
            state = trainer.load_checkpoint(path)
            setup.append(perf_counter() - t0)
    finally:
        path.unlink(missing_ok=True)
    out = Outcome(setup_s=statistics.median(setup), info={"checkpoint_bytes": ckpt_bytes})
    params = state.student
    out.check(params_digest(params) == params_digest(seeded.student),
              "checkpoint round trip changed the student parameters")

    captions = [c for r in records for c in r.captions["en"]]
    owners = [i for i, r in enumerate(records) for _ in r.captions["en"]]
    per = spec.captions_per_record
    template = evaluation.ZeroShotTemplate()

    def encode_prompt(prompt):
        return trainer.embed_texts(params, [prompt])[0]

    first = None
    start = perf_counter()
    while True:
        unit = len(out.pass_s) + 1
        if tracer is not None:
            tracer.unit = unit
        t_pass = perf_counter()
        img_rows, txt_rows = [], []
        for b in range(0, len(records), EVAL_BATCH):
            t0 = perf_counter()
            img_rows.append(trainer.embed_record_images(params, records[b:b + EVAL_BATCH]))
            txt_rows.append(trainer.embed_texts(params,
                                                captions[b * per:(b + EVAL_BATCH) * per]))
            out.step_s.append(perf_counter() - t0)
            out.items += len(txt_rows[-1])
        img, txt = np.concatenate(img_rows), np.concatenate(txt_rows)
        report = evaluation.retrieval_report(img, txt, owners)
        predicted = evaluation.zero_shot_classify(img, list(spec.classes), template,
                                                  encode_prompt)
        out.pass_s.append(perf_counter() - t_pass)
        if tracer is not None:
            tracer.unit = None
        out.attempted += len(img_rows) + 2

        seen = (digest(img, txt), report.as_tuple(), predicted)
        if first is None:
            first = seen
            class_emb = trainer.embed_texts(
                params, [oracle.ZERO_SHOT_PREFIX + c for c in spec.classes])
            expected = oracle.recalls(img, txt, owners)
            out.check(report.as_tuple() == expected,
                      f"recalls {report.as_tuple()} differ from the oracle's {expected}")
            out.check(predicted == oracle.zero_shot(img, class_emb),
                      "zero-shot predictions differ from the oracle's")
            out.info["recalls"] = report.as_tuple()
        else:
            out.check(seen == first, f"pass {unit} differs from pass 1")
        if perf_counter() - start >= seconds:
            break
    out.info.update(passes=len(out.pass_s), steps_timed=len(out.step_s))
    return out
