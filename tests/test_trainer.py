"""Optimizer, schedule, persistence, and training loop contracts."""

import numpy as np
import pytest

from dinoclip.autodiff import Tensor
from dinoclip import checkpoint as ckpt
from dinoclip.checkpoint import FORMAT_VERSION
from dinoclip.data import AugmentationConfig, EpochSamplingPolicy, load_manifest
from dinoclip.encoders import init_model_params
from dinoclip.errors import (CheckpointError, CheckpointShapeError,
                             CheckpointTruncationError, CheckpointVersionError,
                             ContractError)
from dinoclip.trainer import (AdamState, MetricsLog, TrainConfig, adamw_step,
                              embed_record_images, embed_texts, init_train_state,
                              load_checkpoint, lr_schedule, save_checkpoint, train)

from conftest import tiny_model_config, write_synthetic_manifest


def tiny_train_config(**overrides) -> TrainConfig:
    cfg = dict(
        batch_size=4, learning_rate=1e-3, epochs=4, warmup_epochs=1, seed=3,
        sampling=EpochSamplingPolicy(mode="english_only", seed=3),
        augmentation=AugmentationConfig(global_crop_size=8, local_crop_size=4,
                                        n_local=1, global_scale=(0.8, 1.0),
                                        local_scale=(0.3, 0.6), jitter_strength=0.1,
                                        blur_prob=0.1, solarize_prob=0.05),
        model=tiny_model_config(),
    )
    cfg.update(overrides)
    return TrainConfig(**cfg)


@pytest.fixture
def tiny_records(tmp_path):
    path = tmp_path / "m.jsonl"
    write_synthetic_manifest(path, n=4, size=8)
    return load_manifest(path)


# -------------------------------------------------------------------------
# AdamW
# -------------------------------------------------------------------------

def _scalar_params(value: float):
    cfg = tiny_model_config()
    params = init_model_params(cfg, seed=0)
    return params


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    params = _scalar_params(1.0)
    before = {k: v.data.copy() for k, v in params.items()}
    zero = {k: np.zeros_like(v.data) for k, v in params.items()}
    adamw_step(params, zero, AdamState(params), lr=0.1, weight_decay=0.0)
    for name, arr in before.items():
        assert np.array_equal(arr, params[name].data), name


def test_adamw_single_step_hand_computation():
    """From zero moments: delta = -lr * g_hat / (sqrt(v_hat) + eps)."""
    params = _scalar_params(1.0)
    g = 0.25
    grads = {k: np.full_like(v.data, g) for k, v in params.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.98, 1e-6
    before = params["log_tau"].data.copy()
    adamw_step(params, grads, AdamState(params), lr=lr, betas=(b1, b2), eps=eps,
               weight_decay=0.0)
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = before - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.allclose(params["log_tau"].data, expected, atol=1e-6)


def test_adamw_decoupled_weight_decay_only():
    params = _scalar_params(1.0)
    zero = {k: np.zeros_like(v.data) for k, v in params.items()}
    before = params["vision.proj"].data.copy()
    adamw_step(params, zero, AdamState(params), lr=1.0, weight_decay=0.1)
    assert np.allclose(params["vision.proj"].data, before - 0.1 * before, atol=1e-6)


def test_adamw_structural_mismatch_rejected():
    params = _scalar_params(1.0)
    other = init_model_params(tiny_model_config(k=16), seed=0)
    with pytest.raises(ContractError):
        adamw_step(params, {k: v.data for k, v in params.items()}, AdamState(other),
                   lr=0.1)


# -------------------------------------------------------------------------
# learning-rate schedule
# -------------------------------------------------------------------------

def test_lr_schedule_endpoints():
    assert lr_schedule(0, 100, 10, 3.0) == 0.0
    assert lr_schedule(10, 100, 10, 3.0) == 3.0
    assert abs(lr_schedule(100, 100, 10, 3.0)) < 1e-9


def test_lr_schedule_linear_ramp():
    for step in range(11):
        assert abs(lr_schedule(step, 100, 10, 1.0) - step / 10) < 1e-12


def test_lr_schedule_cosine_midpoint():
    assert abs(lr_schedule(55, 100, 10, 2.0) - 1.0) < 1e-9


def test_lr_schedule_rejects_out_of_range():
    with pytest.raises(ContractError):
        lr_schedule(101, 100, 10, 1.0)


# -------------------------------------------------------------------------
# metrics log
# -------------------------------------------------------------------------

def test_metrics_log_strictly_increasing(tmp_path):
    log = MetricsLog()
    log.append(step=1, epoch=0, loss_infonce=1.0, loss_distill=2.0, loss_combined=1.5,
               lr=0.1, teacher_entropy=3.0)
    with pytest.raises(ContractError):
        log.append(step=1, epoch=0, loss_infonce=1.0, loss_distill=2.0,
                   loss_combined=1.5, lr=0.1, teacher_entropy=3.0)
    log.append(step=2, epoch=0, loss_infonce=0.9, loss_distill=None, loss_combined=0.9,
               lr=0.1, teacher_entropy=None)
    out = tmp_path / "log.jsonl"
    log.write_jsonl(out)
    assert len(out.read_text().strip().split("\n")) == 2


# -------------------------------------------------------------------------
# checkpoints
# -------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(tmp_path, tiny_records):
    cfg = tiny_train_config(epochs=1)
    state, _ = train(cfg, tiny_records)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for name, t in state.student.items():
        assert np.array_equal(t.data, loaded.student[name].data), name
    assert np.array_equal(state.teacher.center, loaded.teacher.center)
    assert state.step == loaded.step and state.next_epoch == loaded.next_epoch
    assert state.adam.t == loaded.adam.t


def test_checkpoint_truncation_detected(tmp_path, tiny_records):
    cfg = tiny_train_config(epochs=1)
    state, _ = train(cfg, tiny_records)
    path = tmp_path / "c.ckpt"
    save_checkpoint(state, path)
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointTruncationError):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_version_mismatch_detected(tmp_path, tiny_records):
    cfg = tiny_train_config(epochs=1)
    state, _ = train(cfg, tiny_records)
    path = tmp_path / "c.ckpt"
    save_checkpoint(state, path)
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1  # little-endian version field
    (tmp_path / "vers.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(tmp_path / "vers.ckpt")


def test_checkpoint_shape_mismatch_detected(tmp_path, tiny_records):
    cfg = tiny_train_config(epochs=1)
    state, _ = train(cfg, tiny_records)
    path = tmp_path / "c.ckpt"
    # lie about a tensor's shape without changing the payload size
    state.student.tensors["vision.proj"] = Tensor(
        state.student["vision.proj"].data.reshape(4, 8), name="vision.proj")
    save_checkpoint(state, path)
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


def _rewrite_sections(src, dst, edit):
    """Re-pack a checkpoint after edit(sections) changes its section dict."""
    sections = ckpt.read_container(src)
    edit(sections)
    ckpt.write_container(dst, list(sections.items()))


@pytest.mark.parametrize("edit", [
    lambda sec: sec.pop("center"),
    lambda sec: sec.pop("config"),
    lambda sec: sec.update(config=b"{not json"),
    lambda sec: sec.update(counters=b"\xff\xfe"),
    lambda sec: sec.update(student=sec["student"].replace(b"vision.pos", b"vision.p\xffs")),
    lambda sec: sec.update(counters=b"{}"),
], ids=["missing-center", "missing-config", "bad-json", "bad-utf8-json",
        "bad-utf8-tensor-name", "counters-without-keys"])
def test_checkpoint_corrupt_section_detected(tmp_path, tiny_records, edit):
    state, _ = train(tiny_train_config(epochs=1), tiny_records)
    path, bad = tmp_path / "c.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(state, path)
    _rewrite_sections(path, bad, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_write_failing_midway_keeps_old_file(tmp_path, tiny_records):
    state, _ = train(tiny_train_config(epochs=1), tiny_records)
    (tmp_path / "ckpt").mkdir()
    path = tmp_path / "ckpt" / "c.ckpt"
    save_checkpoint(state, path)
    before = path.read_bytes()
    # the second payload is not bytes, so the write fails after the first section
    with pytest.raises(TypeError):
        ckpt.write_container(path, [("config", b"{}" * 1000), ("counters", object())])
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == ["c.ckpt"]


# -------------------------------------------------------------------------
# training loop contracts
# -------------------------------------------------------------------------

def test_train_requires_train_records(tmp_path):
    path = tmp_path / "m.jsonl"
    write_synthetic_manifest(path, n=3, size=8, split="val")
    with pytest.raises(ContractError):
        train(tiny_train_config(), load_manifest(path))


def test_train_two_runs_same_seed_bit_identical(tmp_path, tiny_records):
    cfg = tiny_train_config(epochs=2)
    a, _ = train(cfg, tiny_records)
    b, _ = train(tiny_train_config(epochs=2), tiny_records)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, pa)
    save_checkpoint(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_train_seed_changes_outcome(tiny_records):
    a, _ = train(tiny_train_config(epochs=1), tiny_records)
    b, _ = train(tiny_train_config(epochs=1, seed=4,
                                   sampling=EpochSamplingPolicy(mode="english_only",
                                                                seed=4)), tiny_records)
    assert any(not np.array_equal(t.data, b.student[name].data)
               for name, t in a.student.items())


def test_resume_equals_uninterrupted(tmp_path, tiny_records):
    cfg = tiny_train_config(epochs=4)
    full, full_metrics = train(cfg, tiny_records)

    half, half_metrics = train(tiny_train_config(epochs=4), tiny_records,
                               stop_after_epoch=2)
    mid = tmp_path / "mid.ckpt"
    save_checkpoint(half, mid)
    resumed_state = load_checkpoint(mid)
    done, rest_metrics = train(resumed_state.config, tiny_records, resume=resumed_state)

    pa, pb = tmp_path / "full.ckpt", tmp_path / "resumed.ckpt"
    save_checkpoint(full, pa)
    save_checkpoint(done, pb)
    assert pa.read_bytes() == pb.read_bytes()
    # step-for-step: the resumed half reproduces the tail of the full log
    tail = full_metrics.records[len(half_metrics.records):]
    assert len(rest_metrics.records) == len(tail)
    for a, b in zip(tail, rest_metrics.records):
        assert a == b


def test_infonce_only_never_reads_teacher(tiny_records):
    """Wrecking the teacher changes nothing under loss-mode infonce_only."""
    cfg = tiny_train_config(epochs=2, loss_mode="infonce_only")
    a, metrics_a = train(cfg, tiny_records)

    state = init_train_state(tiny_train_config(epochs=2, loss_mode="infonce_only"))
    for name, t in state.teacher.params.items():
        state.teacher.params.tensors[name] = Tensor(np.full_like(t.data, 7.7), name=name)
    b, metrics_b = train(state.config, tiny_records, resume=state)

    for name, t in a.student.items():
        assert np.array_equal(t.data, b.student[name].data), name
    assert [(m["loss_infonce"], m["loss_distill"]) for m in metrics_a.records] == \
           [(m["loss_infonce"], m["loss_distill"]) for m in metrics_b.records]
    assert all(m["loss_distill"] is None for m in metrics_a.records)


def test_frozen_teacher_with_unit_momenta(tiny_records):
    """lambda = 1 and center momentum 1 freeze the teacher bit-for-bit."""
    cfg = tiny_train_config(epochs=2, ema_momentum=1.0, center_momentum=1.0)
    state = init_train_state(cfg)
    before = {k: v.data.copy() for k, v in state.teacher.params.items()}
    center_before = state.teacher.center.copy()
    done, _ = train(cfg, tiny_records, resume=state)
    for name, arr in before.items():
        assert np.array_equal(arr, done.teacher.params[name].data), name
    assert np.array_equal(center_before, done.teacher.center)


def test_train_batch_too_large_rejected(tiny_records):
    with pytest.raises(ContractError, match="batch_size"):
        train(tiny_train_config(batch_size=64), tiny_records)


def test_embedding_helpers_shapes(tiny_records):
    state = init_train_state(tiny_train_config())
    img = embed_record_images(state.student, tiny_records)
    txt = embed_texts(state.student, ["a", "bb"])
    assert img.shape == (4, 4)
    assert txt.shape == (2, 4)
