"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The overfit runs (criteria
6 and 7) share a module-scoped fixture so the expensive training happens once.
"""

import time

import numpy as np
import pytest

from dinoclip import autodiff as ad
from dinoclip.autodiff import Tensor
from dinoclip.data import (AugmentationConfig, EpochSamplingPolicy,
                           build_translation_prompt, load_manifest)
from dinoclip.encoders import (DinoProjectorConfig, ModelConfig, ModelParams,
                               encode_images, init_model_params, project_dino,
                               _parameter_spec)
from dinoclip.evaluation import (GroundTruth, SimilarityMatrix, ZeroShotTemplate,
                                 build_lmcap_prompt, cosine_matrix, format_lmcap_block,
                                 mean_recall, recall_at_k, retrieval_report,
                                 split_80_20, zero_shot_classify)
from dinoclip.objectives import (ContrastiveBatch, combined_loss, ema_update,
                                 info_nce_loss, make_teacher)
from dinoclip.trainer import (TrainConfig, embed_record_images, embed_texts,
                              load_checkpoint, save_checkpoint, train)

from conftest import (DistributionSet, distillation_pair_count, encode_text,
                      format_lmcap_example, retrieve_top_k, self_distillation_loss,
                      soft_distillation_terms, tiny_model_config, write_synthetic_manifest)
from gradcheck import max_gradient_error

GRAD_TOL = 1e-3
GRAD_STEP = 1e-4
SEEDS_PER_OP = 100


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# =========================================================================
# criterion 1: gradient suite
# =========================================================================

def _op_cases(rng):
    """One random configuration per differentiable operation."""
    m34 = rng.normal(size=(3, 4))
    m8 = rng.normal(size=8)
    m23 = rng.normal(size=(2, 3))
    m25 = rng.normal(size=(2, 5))
    m1412 = rng.normal(size=(1, 4, 12))
    m43 = rng.normal(size=(4, 3))
    m52 = rng.normal(size=(5, 2))
    m222 = rng.normal(size=(2, 2, 2))
    m31 = rng.normal(size=(3, 1))
    m53 = rng.normal(size=(5, 3))
    m26 = rng.normal(size=(2, 6))
    target = rng.dirichlet(np.ones(8))
    ids = rng.integers(0, 4, size=5)
    return {
        "add": (lambda t: ad.sum_(ad.mul(ad.add(t["a"], t["b"]), m34)),
                {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}),
        "sub": (lambda t: ad.sum_(ad.mul(ad.sub(t["a"], t["b"]), m34)),
                {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}),
        "mul": (lambda t: ad.sum_(ad.mul(ad.mul(t["a"], t["b"]), m34)),
                {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}),
        "div": (lambda t: ad.sum_(ad.mul(ad.div(t["a"], t["b"]), m34)),
                {"a": rng.normal(size=(3, 4)),
                 "b": rng.normal(size=(3, 4)) + 3.0 * np.sign(rng.normal(size=(3, 4)))}),
        "neg": (lambda t: ad.sum_(ad.mul(ad.neg(t["a"]), m8)),
                {"a": rng.normal(size=8)}),
        "exp": (lambda t: ad.sum_(ad.mul(ad.exp(t["a"]), m8)),
                {"a": rng.normal(size=8)}),
        "log": (lambda t: ad.sum_(ad.mul(ad.log(t["a"]), m8)),
                {"a": np.abs(rng.normal(size=8)) + 0.5}),
        "sqrt": (lambda t: ad.sum_(ad.mul(ad.sqrt(t["a"]), m8)),
                 {"a": np.abs(rng.normal(size=8)) + 0.5}),
        "gelu": (lambda t: ad.sum_(ad.mul(ad.gelu(t["a"]), m8)),
                 {"a": rng.normal(size=8)}),
        "sum": (lambda t: ad.sum_(ad.mul(ad.sum_(t["a"], axis=1, keepdims=True), m31)),
                {"a": rng.normal(size=(3, 4))}),
        "mean": (lambda t: ad.mul(ad.mean(t["a"]), 2.5), {"a": rng.normal(size=(3, 4))}),
        "matmul_2d": (lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["b"]), m23)),
                      {"a": rng.normal(size=(2, 4)), "b": rng.normal(size=(4, 3))}),
        "matmul_batched": (lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["b"]), m222)),
                           {"a": rng.normal(size=(2, 2, 3)),
                            "b": rng.normal(size=(2, 3, 2))}),
        "softmax": (lambda t: ad.sum_(ad.mul(
            ad.softmax(t["x"], axis=-1, temperature=0.07), m8)),
            {"x": 0.1 * rng.normal(size=8)}),
        "log_softmax": (lambda t: ad.sum_(ad.mul(ad.log_softmax(t["x"], axis=1), m34)),
                        {"x": rng.normal(size=(3, 4))}),
        "l2_normalize": (lambda t: ad.sum_(ad.mul(ad.l2_normalize(t["x"], axis=-1), m34)),
                         {"x": rng.normal(size=(3, 4))}),
        "layer_norm": (lambda t: ad.sum_(ad.mul(
            ad.layer_norm(t["x"], t["g"], t["b"]), m34)),
            {"x": rng.normal(size=(3, 4)), "g": 1 + 0.2 * rng.normal(size=4),
             "b": rng.normal(size=4)}),
        "weight_norm_linear": (lambda t: ad.sum_(ad.mul(
            ad.weight_norm_linear(t["x"], t["d"], t["s"]), m25)),
            {"x": rng.normal(size=(2, 3)), "d": rng.normal(size=(5, 3)),
             "s": 1 + 0.2 * rng.normal(size=5)}),
        "cross_entropy_soft": (lambda t: ad.soft_cross_entropy(
            target, ad.softmax(t["x"], axis=-1, temperature=1.0)),
            {"x": rng.normal(size=8)}),
        "extract_patches": (lambda t: ad.sum_(ad.mul(ad.extract_patches(t["x"], 2),
                                                     m1412)),
                            {"x": rng.normal(size=(1, 3, 4, 4))}),
        "gather_rows": (lambda t: ad.sum_(ad.mul(ad.gather_rows(t["w"], ids), m53)),
                        {"w": rng.normal(size=(4, 3))}),
        "take_index": (lambda t: ad.sum_(ad.mul(ad.take_index(t["x"], 1, axis=1), m23)),
                       {"x": rng.normal(size=(2, 3, 3))}),
        "concat": (lambda t: ad.sum_(ad.mul(ad.concat([t["a"], t["b"]], axis=0), m52)),
                   {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(3, 2))}),
        "transpose": (lambda t: ad.sum_(ad.mul(ad.transpose(t["x"], (1, 0)), m43)),
                      {"x": rng.normal(size=(3, 4))}),
        "reshape": (lambda t: ad.sum_(ad.mul(ad.reshape(t["x"], (2, 6)), m26)),
                    {"x": rng.normal(size=(3, 4))}),
    }


def _combined_loss_case(rng):
    """Full training objective over every parameter of a miniature model.

    Evaluated at a well-conditioned point (unit-scale weights, soft student
    temperature) so the finite-difference oracle itself stays accurate.
    """
    cfg = tiny_model_config(k=8, vocab=16)
    arrays = {}
    for name, shape in _parameter_spec(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if name == "log_tau":
            arrays[name] = np.asarray(np.log(0.5))
        elif leaf == "gain" or name == "dino.last_scale":
            arrays[name] = 1.0 + 0.2 * rng.normal(size=shape)
        else:
            arrays[name] = 0.5 * rng.normal(size=shape)
    views = [rng.random((2, 3, 8, 8)) for _ in range(3)]
    texts = [[1, 5, 9, 2], [1, 7, 3, 11, 2]]
    teacher_dists = [rng.dirichlet(np.ones(8), size=2) for _ in range(2)]

    def builder(tensors):
        params = ModelParams(cfg, dict(tensors))
        u = ad.concat([ad.reshape(encode_text(params, t), (1, 4)) for t in texts],
                      axis=0)
        v0 = encode_images(params, Tensor(views[0], dtype=np.float64))
        nce = info_nce_loss(ContrastiveBatch(u, v0, tau=ad.exp(params["log_tau"])))
        student = []
        for i, vw in enumerate(views):
            emb = v0 if i == 0 else encode_images(params, Tensor(vw, dtype=np.float64))
            student.append(ad.softmax(project_dino(params, emb), axis=-1,
                                      temperature=1.0))
        return combined_loss(nce, soft_distillation_terms(teacher_dists, student))

    return builder, arrays


def test_criterion_1_gradient_suite():
    start = time.time()
    worst = {}
    for seed in range(SEEDS_PER_OP):
        rng = np.random.default_rng(10_000 + seed)
        for name, (builder, arrays) in _op_cases(rng).items():
            err = max_gradient_error(builder, arrays, h=GRAD_STEP)
            worst[name] = max(worst.get(name, 0.0), err)
    # the full combined objective, checked over every parameter
    rng = np.random.default_rng(777)
    builder, arrays = _combined_loss_case(rng)
    worst["combined_loss"] = max_gradient_error(builder, arrays, h=GRAD_STEP)
    elapsed = time.time() - start

    bad = {k: v for k, v in worst.items() if v > GRAD_TOL}
    ok = not bad and elapsed <= 120.0
    _report(1, ok,
            f"{len(worst)} ops x {SEEDS_PER_OP} seeds + combined loss over "
            f"{sum(a.size for a in arrays.values())} parameters; worst rel err "
            f"{max(worst.values()):.2e} (tol {GRAD_TOL}); {elapsed:.0f}s "
            f"(limit 120s){'; failures: ' + str(bad) if bad else ''}")


# =========================================================================
# criterion 2: loss identities
# =========================================================================

def test_criterion_2_loss_identities(rng):
    u = Tensor(rng.normal(size=(1, 8)).astype(np.float32))
    v = Tensor(rng.normal(size=(1, 8)).astype(np.float32))
    nce_single = info_nce_loss(ContrastiveBatch(u, v, tau=0.07)).item()

    k = 256
    uniform = np.full(k, 1.0 / k)
    dists = DistributionSet(teacher=[Tensor(uniform, dtype=np.float64)] * 2,
                            student=[Tensor(uniform, dtype=np.float64)] * 10)
    uniform_loss = self_distillation_loss(dists).item()

    combined_zero = combined_loss(0.0, 0.0).item()
    pairs = distillation_pair_count(2, 10)

    ok = (nce_single == 0.0
          and abs(uniform_loss - np.log(k)) < 1e-6
          and combined_zero == 0.0
          and pairs == 18)
    _report(2, ok,
            f"InfoNCE(N=1)={nce_single}; uniform distill {uniform_loss:.8f} vs "
            f"ln {k}={np.log(k):.8f}; combined(0,0)={combined_zero}; "
            f"pairs(2g+8l)={pairs}")


# =========================================================================
# criterion 3: metric-oracle equivalence
# =========================================================================

def _oracle_ranking(row):
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(33)
    recall_checked = topk_checked = 0
    for _ in range(1000):
        q = int(rng.integers(1, 51))
        g = int(rng.integers(1, 51))
        # quantized similarities guarantee ties
        sim = rng.integers(-8, 9, size=(q, g)) / 8.0
        gt = {i: set(rng.choice(g, size=int(rng.integers(1, min(g, 5) + 1)),
                                replace=False).tolist()) for i in range(q)}
        k = int(rng.integers(1, g + 1))
        got = recall_at_k(SimilarityMatrix(sim), GroundTruth(gt), k)
        hits = sum(1 for i in range(q)
                   if any(j in gt[i] for j in _oracle_ranking(sim[i])[:k]))
        assert got == 100.0 * hits / q
        recall_checked += 1

        query = rng.normal(size=6)
        gallery = rng.normal(size=(g, 6))
        sims = cosine_matrix(query[None, :], gallery)[0]
        assert retrieve_top_k(query, gallery, k) == _oracle_ranking(sims)[:k]
        topk_checked += 1

    template = ZeroShotTemplate()
    zs_checked = 0
    for _ in range(100):
        n_cls = int(rng.integers(2, 11))
        classes = [f"class{i}" for i in range(n_cls)]
        vecs = rng.normal(size=(n_cls, 5))
        table = {template.expand(c): vecs[i] for i, c in enumerate(classes)}
        imgs = rng.normal(size=(int(rng.integers(1, 8)), 5))
        preds = zero_shot_classify(imgs, classes, template, lambda p: table[p])
        sims = cosine_matrix(imgs, vecs)
        for row, p in zip(sims, preds):
            best = max(range(n_cls), key=lambda j: (row[j], -j))
            assert p == best
        zs_checked += 1

    _report(3, True,
            f"recall_at_k exact on {recall_checked} instances, retrieve_top_k exact "
            f"on {topk_checked}, zero_shot_classify exact on {zs_checked} fixtures")


# =========================================================================
# criterion 4: reference mean-recall arithmetic
# =========================================================================

def test_criterion_4_mean_recall_reproduction():
    row_a = (60.48, 72.10, 75.93, 44.37, 60.35, 69.02)
    row_b = (67.48, 77.66, 82.30, 59.87, 76.99, 83.01)
    got_a, got_b = mean_recall(row_a), mean_recall(row_b)
    ok = abs(got_a - 63.71) <= 0.005 and abs(got_b - 74.55) <= 0.005
    _report(4, ok, f"mean{row_a} = {got_a:.4f} (target 63.71 +- 0.005); "
                   f"mean{row_b} = {got_b:.4f} (target 74.55 +- 0.005)")


# =========================================================================
# criterion 5: EMA semantics
# =========================================================================

def test_criterion_5_ema_semantics():
    cfg = tiny_model_config()
    student = init_model_params(cfg, seed=1)
    other = init_model_params(cfg, seed=2)

    frozen = make_teacher(student, ema_momentum=1.0)
    before = {k: v.data.copy() for k, v in frozen.params.items()}
    ema_update(frozen, other)
    frozen_ok = all(np.array_equal(arr, frozen.params[name].data)
                    for name, arr in before.items())

    copied = make_teacher(student, ema_momentum=0.0)
    ema_update(copied, other)
    copy_ok = all(np.array_equal(t.data, copied.params[name].data)
                  for name, t in other.items())

    point996 = make_teacher(student, ema_momentum=0.996)
    for name in point996.params.names():
        shape = point996.params[name].shape
        point996.params.tensors[name] = Tensor(np.ones(shape, dtype=np.float32),
                                               name=name)
        student.tensors[name] = Tensor(np.zeros(shape, dtype=np.float32), name=name)
    ema_update(point996, student)
    scalar_ok = all(np.all(t.data == np.float32(0.996)) for t in
                    (point996.params[n] for n in point996.params.names()))

    ok = frozen_ok and copy_ok and scalar_ok
    _report(5, ok, f"lambda=1 bit-identical: {frozen_ok}; lambda=0 copies student: "
                   f"{copy_ok}; lambda=0.996 on (1, 0) -> 0.996 exactly: {scalar_ok}")


# =========================================================================
# criteria 6 and 7: overfit runs and the collapse guard
# =========================================================================

OVERFIT_EPOCHS = 500
CHECK_EVERY = 25
K_OVERFIT = 256


def _overfit_config(mode: str, **overrides) -> TrainConfig:
    base = dict(
        batch_size=16, learning_rate=5e-4, epochs=OVERFIT_EPOCHS, warmup_epochs=10,
        loss_mode="combined", seed=1,
        sampling=EpochSamplingPolicy(mode=mode, seed=1),
        augmentation=AugmentationConfig(global_crop_size=32, local_crop_size=16,
                                        n_local=2, global_scale=(0.7, 1.0),
                                        local_scale=(0.2, 0.5), jitter_strength=0.1,
                                        blur_prob=0.1, solarize_prob=0.05),
        model=ModelConfig(dino=DinoProjectorConfig(hidden_dim=128, bottleneck_dim=64,
                                                   output_dim=K_OVERFIT)),
    )
    base.update(overrides)
    return TrainConfig(**base)


def _train_to_perfect_recall(records, mode: str):
    """Train until both R@1 hit 100 (checked every CHECK_EVERY epochs)."""
    own = {"i2t": 0.0, "t2i": 0.0}

    def probe(state):
        img = embed_record_images(state.student, records)
        txt = embed_texts(state.student, [r.captions["en"][0] for r in records])
        rep = retrieval_report(img, txt, list(range(len(records))))
        own["i2t"], own["t2i"] = rep.i2t_r1, rep.t2i_r1
        return rep.i2t_r1 == 100.0 and rep.t2i_r1 == 100.0

    def callback(state, metrics):
        return state.next_epoch % CHECK_EVERY == 0 and probe(state)

    start = time.time()
    state, metrics = train(_overfit_config(mode), records, epoch_callback=callback)
    probe(state)
    elapsed = time.time() - start
    entropies = [m["teacher_entropy"] for m in metrics.records]
    return {"epochs": state.next_epoch, "elapsed": elapsed, "i2t": own["i2t"],
            "t2i": own["t2i"], "min_entropy": min(entropies), "metrics": metrics}


@pytest.fixture(scope="module")
def overfit_runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "overfit.jsonl"
    write_synthetic_manifest(path, n=16, size=32, languages=("en", "de"))
    records = load_manifest(path)
    runs = {"english_only": _train_to_perfect_recall(records, "english_only"),
            "one_translation": _train_to_perfect_recall(records, "one_translation")}

    # collapse variant: centering frozen at zero, hard sharpening
    state, metrics = train(_overfit_config("english_only", epochs=30,
                                           center_momentum=1.0, tau_teacher=0.01),
                           records)
    runs["no_centering"] = {
        "min_entropy": min(m["teacher_entropy"] for m in metrics.records)}
    return runs


def test_criterion_6_overfit_both_sampling_modes(overfit_runs):
    lines = []
    ok = True
    for mode in ("english_only", "one_translation"):
        r = overfit_runs[mode]
        good = (r["i2t"] == 100.0 and r["t2i"] == 100.0
                and r["epochs"] <= OVERFIT_EPOCHS and r["elapsed"] <= 600.0)
        ok = ok and good
        lines.append(f"{mode}: R@1 {r['i2t']:.0f}/{r['t2i']:.0f} at epoch "
                     f"{r['epochs']} in {r['elapsed']:.0f}s")
    _report(6, ok, "; ".join(lines) + f" (limits: {OVERFIT_EPOCHS} epochs, 600s)")


def test_criterion_6b_loss_decreases_over_windows(overfit_runs):
    """Window-averaged training loss is monotone decreasing (50-step windows)."""
    losses = [m["loss_combined"] for m in
              overfit_runs["english_only"]["metrics"].records]
    windows = [np.mean(losses[i:i + 50]) for i in range(0, len(losses) - 49, 50)]
    deltas = np.diff(windows)
    ok = bool((deltas <= 1e-3).all())
    _report(6, ok, f"50-step window means decrease: {[round(w, 3) for w in windows]}")


def test_criterion_7_collapse_guard(overfit_runs):
    bound = 0.1 * np.log(K_OVERFIT)
    with_centering = min(overfit_runs[m]["min_entropy"]
                         for m in ("english_only", "one_translation"))
    without = overfit_runs["no_centering"]["min_entropy"]
    ok = with_centering >= bound and without < bound
    _report(7, ok,
            f"centering on: min batch-mean teacher entropy {with_centering:.3f} >= "
            f"{bound:.3f}; centering off (tau_t=0.01): {without:.4f} < {bound:.3f}")


# =========================================================================
# criterion 8: determinism and persistence
# =========================================================================

def test_criterion_8_determinism_and_persistence(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_synthetic_manifest(manifest, n=4, size=8)
    records = load_manifest(manifest)

    def cfg():
        return TrainConfig(
            batch_size=4, learning_rate=1e-3, epochs=4, warmup_epochs=1, seed=3,
            sampling=EpochSamplingPolicy(mode="one_translation", seed=3),
            augmentation=AugmentationConfig(global_crop_size=8, local_crop_size=4,
                                            n_local=1, global_scale=(0.8, 1.0),
                                            local_scale=(0.3, 0.6),
                                            jitter_strength=0.1, blur_prob=0.1,
                                            solarize_prob=0.05),
            model=tiny_model_config())

    a, _ = train(cfg(), records)
    b, _ = train(cfg(), records)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, pa)
    save_checkpoint(b, pb)
    seeded_identical = pa.read_bytes() == pb.read_bytes()

    half, _ = train(cfg(), records, stop_after_epoch=2)
    mid = tmp_path / "mid.ckpt"
    save_checkpoint(half, mid)
    resumed = load_checkpoint(mid)
    done, _ = train(resumed.config, records, resume=resumed)
    pc = tmp_path / "resumed.ckpt"
    save_checkpoint(done, pc)
    resume_identical = pa.read_bytes() == pc.read_bytes()

    ok = seeded_identical and resume_identical
    _report(8, ok, f"two seeded runs bit-identical: {seeded_identical}; "
                   f"save/load/resume equals uninterrupted: {resume_identical}")


# =========================================================================
# criterion 9: template fidelity
# =========================================================================

def test_criterion_9_template_fidelity():
    translation = build_translation_prompt("a large airport", "German")
    translation_ok = translation == ("Translate the following text from English into "
                                     "German.\nEnglish: a large airport\nGerman:")

    zs = ZeroShotTemplate()
    zs_ok = (zs.template == "a satellite photo of {class name}"
             and zs.expand("beach") == "a satellite photo of beach")

    blocks = [format_lmcap_example([f"example caption {i}.{j}" for j in range(4)],
                                   "English", f"completion {i}") for i in range(6)]
    captions = [f"retrieved caption {j}" for j in range(4)]
    prompt = build_lmcap_prompt(captions, "English", blocks)
    expected_query = ('You are an intelligent image captioning bot tasked with '
                      'describing remote sensing images. Similar images have the '
                      'following captions: "retrieved caption 0", "retrieved caption 1", '
                      '"retrieved caption 2", "retrieved caption 3". A creative short '
                      'caption that can describe this image in English is:')
    lmcap_ok = (prompt == "".join(blocks) + expected_query
                and format_lmcap_block(captions, "English") == expected_query
                and len(blocks) == 6 and len(captions) == 4)

    ok = translation_ok and zs_ok and lmcap_ok
    _report(9, ok, f"translation template byte-exact: {translation_ok}; zero-shot "
                   f"template byte-exact: {zs_ok}; lmcap prompt (N=6, K=4): {lmcap_ok}")


# =========================================================================
# criterion 10: split procedure
# =========================================================================

def test_criterion_10_split_procedure():
    rng = np.random.default_rng(0)
    index = {f"class_{i}": [f"c{i}_img{j}.ppm" for j in range(int(rng.integers(1, 40)))]
             for i in range(12)}
    a_train, a_test = split_80_20(index, seed=42)
    b_train, b_test = split_80_20(index, seed=42)

    deterministic = a_train == b_train and a_test == b_test
    partitions = all(sorted(a_train[c] + a_test[c]) == sorted(files)
                     and set(a_train[c]).isdisjoint(a_test[c])
                     for c, files in index.items())
    floor_sizes = all(len(a_train[c]) == int(0.8 * len(files))
                      for c, files in index.items())

    ok = deterministic and partitions and floor_sizes
    _report(10, ok, f"seed-42 deterministic: {deterministic}; per-class partition: "
                    f"{partitions}; floor(0.8 n) train sizes: {floor_sizes} "
                    f"({len(index)} classes)")
