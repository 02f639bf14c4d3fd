"""Retrieval metrics against exhaustive oracles, split procedure, templates."""

import numpy as np
import pytest

from dinoclip.errors import ContractError, DomainError, NumericError, ValidationError
from dinoclip.evaluation import (RetrievalReport, ZeroShotTemplate, build_lmcap_prompt,
                                 cosine_matrix, format_lmcap_block, mean_recall,
                                 retrieval_report, split_80_20, zero_shot_classify)

from conftest import (GroundTruth, SimilarityMatrix, format_lmcap_example, recall_at_k,
                      retrieve_top_k)


# -------------------------------------------------------------------------
# brute-force oracles (independent of the implementation under test)
# -------------------------------------------------------------------------

def oracle_ranking(row):
    """Python sort on (-similarity, index) tuples."""
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def oracle_recall(sim, gt, k):
    hits = 0
    for q in range(sim.shape[0]):
        top = oracle_ranking(sim[q])[:k]
        if any(j in gt[q] for j in top):
            hits += 1
    return 100.0 * hits / sim.shape[0]


# -------------------------------------------------------------------------
# recall@k
# -------------------------------------------------------------------------

def test_recall_perfect_diagonal():
    sim = np.eye(5) * 0.5 + 0.1
    gt = GroundTruth({i: {i} for i in range(5)})
    assert recall_at_k(SimilarityMatrix(sim), gt, 1) == 100.0


def test_recall_reversed_ranking_worst_case():
    n = 10
    sim = np.zeros((n, n))
    for q in range(n):
        for g in range(n):
            sim[q, g] = (g - q) % n / 10.0  # correct item ranked last
    sim = sim - 0.45
    gt = GroundTruth({i: {i} for i in range(n)})
    assert recall_at_k(SimilarityMatrix(sim), gt, 1) == 0.0


def test_recall_matches_oracle_on_random_instances(rng):
    for trial in range(200):
        q = int(rng.integers(1, 21))
        g = int(rng.integers(1, 21))
        # quantized similarities force plenty of ties
        sim = rng.integers(-4, 5, size=(q, g)) / 4.0
        gt = {i: set(rng.choice(g, size=int(rng.integers(1, min(g, 4) + 1)),
                                replace=False).tolist()) for i in range(q)}
        k = int(rng.integers(1, g + 1))
        got = recall_at_k(SimilarityMatrix(sim), GroundTruth(gt), k)
        assert got == oracle_recall(sim, gt, k)


def test_recall_monotone_in_k(rng):
    sim = rng.normal(size=(8, 12)).clip(-1, 1)
    gt = GroundTruth({i: {int(rng.integers(0, 12))} for i in range(8)})
    values = [recall_at_k(SimilarityMatrix(sim), gt, k) for k in range(1, 13)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_recall_invariant_under_monotone_transform(rng):
    sim = rng.uniform(-1, 1, size=(6, 9))
    gt = GroundTruth({i: {int(rng.integers(0, 9))} for i in range(6)})
    squashed = np.tanh(2.0 * sim)  # strictly monotone, stays in [-1, 1]
    for k in (1, 3, 9):
        assert (recall_at_k(SimilarityMatrix(sim), gt, k)
                == recall_at_k(SimilarityMatrix(squashed), gt, k))


def test_recall_rejects_non_finite_similarity(rng):
    sim = rng.uniform(-1, 1, size=(3, 4))
    sim[1, 2] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        recall_at_k(SimilarityMatrix(sim), GroundTruth({i: {0} for i in range(3)}), 1)


def test_recall_k_out_of_range(rng):
    sim = SimilarityMatrix(rng.uniform(-1, 1, size=(3, 4)))
    gt = GroundTruth({i: {0} for i in range(3)})
    with pytest.raises(DomainError):
        recall_at_k(sim, gt, 5)
    with pytest.raises(DomainError):
        recall_at_k(sim, gt, 0)


# -------------------------------------------------------------------------
# mean recall
# -------------------------------------------------------------------------

def test_mean_recall_reference_rows():
    assert abs(mean_recall((60.48, 72.10, 75.93, 44.37, 60.35, 69.02)) - 63.71) <= 0.005
    assert abs(mean_recall((67.48, 77.66, 82.30, 59.87, 76.99, 83.01)) - 74.55) <= 0.005


def test_mean_recall_zeros():
    assert mean_recall((0, 0, 0, 0, 0, 0)) == 0.0


def test_mean_recall_arity_and_range():
    with pytest.raises(ContractError):
        mean_recall((1, 2, 3))
    with pytest.raises(DomainError):
        mean_recall((0, 0, 0, 0, 0, 101))


def test_mean_recall_permutation_invariant(rng):
    vals = rng.uniform(0, 100, size=6)
    base = mean_recall(vals)
    for _ in range(10):
        assert abs(mean_recall(rng.permutation(vals)) - base) < 1e-9


# -------------------------------------------------------------------------
# retrieve_top_k: one query ranked through top_k_rows and cosine_matrix
# -------------------------------------------------------------------------

def test_retrieve_full_gallery_is_permutation(rng):
    gallery = rng.normal(size=(12, 5))
    out = retrieve_top_k(rng.normal(size=5), gallery, 12)
    assert sorted(out) == list(range(12))


def test_retrieve_exact_match_first(rng):
    gallery = rng.normal(size=(9, 4))
    out = retrieve_top_k(gallery[4] * 2.5, gallery, 3)
    assert out[0] == 4


def test_retrieve_matches_full_sort_oracle(rng):
    for _ in range(50):
        gallery = rng.normal(size=(50, 6))
        query = rng.normal(size=6)
        sims = cosine_matrix(query[None, :], gallery)[0]
        k = int(rng.integers(1, 51))
        assert retrieve_top_k(query, gallery, k) == oracle_ranking(sims)[:k]


def test_retrieve_empty_gallery():
    """An empty gallery has no k columns to rank, so top_k_rows refuses it."""
    with pytest.raises(DomainError):
        retrieve_top_k(np.ones(3), np.zeros((0, 3)), 1)


# -------------------------------------------------------------------------
# zero-shot classification
# -------------------------------------------------------------------------

def _identity_encoder(table):
    def encoder(prompt):
        return table[prompt]
    return encoder


def test_zero_shot_single_class(rng):
    template = ZeroShotTemplate()
    table = {template.expand("runway"): rng.normal(size=4)}
    preds = zero_shot_classify(rng.normal(size=(5, 4)), ["runway"], template,
                               _identity_encoder(table))
    assert preds == [0] * 5


def test_zero_shot_exact_match_wins():
    template = ZeroShotTemplate()
    img = np.array([[1.0, 0.0, 0.0]])
    table = {template.expand("a"): np.array([0.0, 1.0, 0.0]),
             template.expand("b"): np.array([1.0, 0.0, 0.0]),
             template.expand("c"): np.array([0.0, 0.0, 1.0])}
    preds = zero_shot_classify(img, ["a", "b", "c"], template, _identity_encoder(table))
    assert preds == [1]


def test_zero_shot_matches_brute_force_scan(rng):
    template = ZeroShotTemplate()
    for _ in range(100):
        classes = [f"class{i}" for i in range(10)]
        vecs = rng.normal(size=(10, 6))
        table = {template.expand(c): vecs[i] for i, c in enumerate(classes)}
        imgs = rng.normal(size=(7, 6))
        preds = zero_shot_classify(imgs, classes, template, _identity_encoder(table))
        sims = cosine_matrix(imgs, vecs)
        for row, p in zip(sims, preds):
            best = max(range(10), key=lambda j: (row[j], -j))
            assert p == best


def test_zero_shot_rescaling_invariance(rng):
    template = ZeroShotTemplate()
    classes = ["x", "y", "z"]
    vecs = rng.normal(size=(3, 5))
    table = {template.expand(c): vecs[i] for i, c in enumerate(classes)}
    imgs = rng.normal(size=(6, 5))
    a = zero_shot_classify(imgs, classes, template, _identity_encoder(table))
    b = zero_shot_classify(imgs * 37.5, classes, template, _identity_encoder(table))
    assert a == b


def test_zero_shot_empty_classes():
    with pytest.raises(ContractError):
        zero_shot_classify(np.ones((1, 3)), [], ZeroShotTemplate(), lambda p: np.ones(3))


# -------------------------------------------------------------------------
# split procedure
# -------------------------------------------------------------------------

def test_split_single_item_goes_to_test():
    train, test = split_80_20({"lonely": ["a.ppm"]}, seed=42)
    assert train["lonely"] == []
    assert test["lonely"] == ["a.ppm"]


def test_split_ten_items_80_20():
    files = [f"f{i}.ppm" for i in range(10)]
    train, test = split_80_20({"c": files}, seed=42)
    assert len(train["c"]) == 8 and len(test["c"]) == 2


def test_split_deterministic_and_partition():
    index = {f"class{i}": [f"c{i}_f{j}.ppm" for j in range(i + 1)] for i in range(8)}
    a_train, a_test = split_80_20(index, seed=42)
    b_train, b_test = split_80_20(index, seed=42)
    assert a_train == b_train and a_test == b_test
    for cls, files in index.items():
        union = a_train[cls] + a_test[cls]
        assert sorted(union) == sorted(files)
        assert set(a_train[cls]).isdisjoint(a_test[cls])
        assert len(a_train[cls]) == int(0.8 * len(files))


def test_split_seed_changes_shuffle():
    files = [f"f{i}" for i in range(25)]
    a, _ = split_80_20({"c": files}, seed=42)
    b, _ = split_80_20({"c": files}, seed=43)
    assert a["c"] != b["c"]


def test_split_rejects_empty_class():
    with pytest.raises(ContractError):
        split_80_20({"empty": []})


# -------------------------------------------------------------------------
# templates and reports
# -------------------------------------------------------------------------

def test_zero_shot_template_default_byte_exact():
    t = ZeroShotTemplate()
    assert t.template == "a satellite photo of {class name}"
    assert t.expand("airport") == "a satellite photo of airport"


def test_zero_shot_template_needs_exactly_one_slot():
    with pytest.raises(ValidationError):
        ZeroShotTemplate("no slot at all")
    with pytest.raises(ValidationError):
        ZeroShotTemplate("{class name} and {class name}")


def test_lmcap_minimal_block():
    got = build_lmcap_prompt(["an airport"], "English")
    assert got == ('You are an intelligent image captioning bot tasked with describing '
                   'remote sensing images. Similar images have the following captions: '
                   '"an airport". A creative short caption that can describe this image '
                   'in English is:')


def test_lmcap_fewshot_blocks_prepended_in_order():
    blocks = [format_lmcap_example([f"cap {i}"], "English", f"answer {i}")
              for i in range(6)]
    got = build_lmcap_prompt(["q1", "q2", "q3", "q4"], "English", blocks)
    assert got == "".join(blocks) + format_lmcap_block(["q1", "q2", "q3", "q4"],
                                                       "English")
    order = [got.find(f"answer {i}") for i in range(6)]
    assert order == sorted(order)


def test_lmcap_retrieved_captions_in_order():
    got = format_lmcap_block(["first", "second", "third", "fourth"], "French")
    assert '"first", "second", "third", "fourth"' in got
    assert "in French is:" in got


def test_lmcap_rejects_empty_caption():
    with pytest.raises(ValidationError):
        build_lmcap_prompt(["ok", ""], "English")
    with pytest.raises(ContractError):
        build_lmcap_prompt([], "English")


def test_report_validation_and_formats():
    rep = RetrievalReport.from_recalls((60.48, 72.10, 75.93), (44.37, 60.35, 69.02))
    assert abs(rep.mean_recall - 63.7083333) < 1e-6
    assert rep.to_csv_row() == "60.48,72.10,75.93,44.37,60.35,69.02,63.71"
    assert '"mean_recall": 63.71' in rep.to_json()


def test_retrieval_report_perfect_alignment(rng):
    emb = rng.normal(size=(12, 6))
    rep = retrieval_report(emb, emb.copy(), list(range(12)))
    assert rep.i2t_r1 == 100.0 and rep.t2i_r1 == 100.0 and rep.mean_recall == 100.0


def test_retrieval_report_multiple_captions_per_image(rng):
    imgs = rng.normal(size=(4, 5))
    # two captions per image: one exact, one noisy
    caps = np.concatenate([imgs, imgs + 0.01 * rng.normal(size=imgs.shape)], axis=0)
    owners = list(range(4)) * 2
    rep = retrieval_report(imgs, caps, owners)
    assert rep.i2t_r1 == 100.0
    assert rep.t2i_r1 == 100.0


def _brute_force_recalls(imgs, caps, owners):
    """Six recalls from pure-Python cosines; exactly equal rows tie exactly."""
    def unit(v):
        n = sum(x * x for x in v) ** 0.5
        return [x / n for x in v]

    img_u = [unit(v) for v in imgs.tolist()]
    cap_u = [unit(v) for v in caps.tolist()]
    sim = [[sum(x * y for x, y in zip(a, b)) for b in cap_u] for a in img_u]
    sim_t = [list(col) for col in zip(*sim)]
    i2t_gt = {i: {j for j, o in enumerate(owners) if o == i} for i in range(len(imgs))}
    t2i_gt = {j: {o} for j, o in enumerate(owners)}
    i2t = tuple(oracle_recall(np.array(sim), i2t_gt, min(k, len(caps))) for k in (1, 5, 10))
    t2i = tuple(oracle_recall(np.array(sim_t), t2i_gt, min(k, len(imgs))) for k in (1, 5, 10))
    return i2t + t2i


@pytest.mark.parametrize("seed", range(8))
def test_retrieval_report_ties_match_brute_force(seed):
    """Duplicated image rows and duplicated caption rows make exact ties in
    both directions; they must break toward the lower index."""
    rng = np.random.default_rng(seed)
    imgs = rng.normal(size=(6, 4))[[0, 1, 2, 3, 0, 4, 1, 5, 2]]
    caps = rng.normal(size=(5, 4))[rng.integers(0, 5, size=20)]
    caps[:3] = imgs[[0, 4, 6]]
    owners = list(range(9)) + rng.integers(0, 9, size=11).tolist()
    report = retrieval_report(imgs, caps, owners)
    assert report.as_tuple() == _brute_force_recalls(imgs, caps, owners)


@pytest.mark.parametrize("owners, match", [
    ([0, 1, 5], "caption 2: owner image 5 out of range"),
    ([0, -1, 1], "caption 1: owner image -1 out of range"),
    ([0, 0, 0], "image 1 has no caption"),
], ids=["past-end", "negative", "image-without-caption"])
def test_retrieval_report_rejects_bad_owner(rng, owners, match):
    with pytest.raises(ContractError, match=match):
        retrieval_report(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), owners)


def test_retrieval_report_rejects_non_finite_similarity(rng):
    imgs = rng.normal(size=(3, 4))
    imgs[1] = np.nan
    with pytest.raises(NumericError, match="image-to-text similarity of image 1 and caption 0"):
        retrieval_report(imgs, rng.normal(size=(3, 4)), [0, 1, 2])
