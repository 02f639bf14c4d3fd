"""Optimizer, schedule, persistence, and training loop contracts."""

import contextlib
import dataclasses
import functools
import io
import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dinoclip import autodiff as ad
from dinoclip import checkpoint as ckpt
from dinoclip import encoders, objectives
from dinoclip import trainer
from dinoclip.autodiff import Tensor, backward
from dinoclip.checkpoint import FORMAT_VERSION
from dinoclip.data import (AugmentationConfig, EpochSamplingPolicy, load_manifest,
                           load_record_image, parse_json, tokenize)
from dinoclip.encoders import (ModelConfig, ModelParams, _parameter_spec, encode_images,
                               encode_text, init_model_params, project_dino)
from dinoclip.errors import (CheckpointError, CheckpointShapeError,
                             CheckpointTruncationError, CheckpointVersionError,
                             ContractError, DomainError, ManifestParseError, NumericError,
                             ValidationError)
from dinoclip.objectives import soft_distillation_terms
from dinoclip.trainer import (AdamState, MetricsLog, TrainConfig, adamw_step,
                              embed_record_images, embed_texts, init_train_state,
                              load_checkpoint, lr_schedule, momentum_schedule,
                              save_checkpoint, train)
from dinoclip.prng import RandomStream

from conftest import (DistributionSet, byte_mutations, flip_bit, float64_params,
                      self_distillation_loss, tiny_model_config, write_synthetic_manifest)
from gradcheck import reverse_mode_gradients
from view_oracle import make_views_oracle


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


def _zero_moments(params) -> AdamState:
    return AdamState(*({k: np.zeros_like(v.data) for k, v in params.items()} for _ in range(2)))


ADAM = dict(betas=(0.9, 0.98), eps=1e-6)


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    params = _scalar_params(1.0)
    before = {k: v.data.copy() for k, v in params.items()}
    zero = {k: np.zeros_like(v.data) for k, v in params.items()}
    adamw_step(params, zero, _zero_moments(params), 1, lr=0.1, weight_decay=0.0, **ADAM)
    for name, arr in before.items():
        assert np.array_equal(arr, params[name].data), name


def test_adamw_single_step_hand_computation():
    """From zero moments: delta = -lr * g_hat / (sqrt(v_hat) + eps)."""
    params = _scalar_params(1.0)
    g = 0.25
    grads = {k: np.full_like(v.data, g) for k, v in params.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.98, 1e-6
    before = params["log_tau"].data.copy()
    adamw_step(params, grads, _zero_moments(params), 1, lr=lr, betas=(b1, b2), eps=eps,
               weight_decay=0.0)
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = before - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.allclose(params["log_tau"].data, expected, atol=1e-6)


def test_adamw_bias_correction_follows_t():
    """At update t the moments are divided by 1 - beta**t: a constant
    gradient from the moments a first update leaves moves each tensor by
    lr * g_hat / (sqrt(v_hat) + eps) at t = 2."""
    params = _scalar_params(1.0)
    g, lr, (b1, b2), eps = 0.25, 0.01, ADAM["betas"], ADAM["eps"]
    grads = {k: np.full_like(v.data, g) for k, v in params.items()}
    moments = AdamState(*({k: np.full_like(v.data, c) for k, v in params.items()}
                          for c in ((1 - b1) * g, (1 - b2) * g * g)))
    before = params["log_tau"].data.copy()
    adamw_step(params, grads, moments, 2, lr=lr, weight_decay=0.0, **ADAM)
    m_hat = (b1 * (1 - b1) * g + (1 - b1) * g) / (1 - b1 ** 2)
    v_hat = (b2 * (1 - b2) * g * g + (1 - b2) * g * g) / (1 - b2 ** 2)
    assert np.allclose(params["log_tau"].data, before - lr * m_hat / (np.sqrt(v_hat) + eps),
                       atol=1e-7)


def test_adamw_decoupled_weight_decay_only():
    params = _scalar_params(1.0)
    zero = {k: np.zeros_like(v.data) for k, v in params.items()}
    before = params["vision.proj"].data.copy()
    adamw_step(params, zero, _zero_moments(params), 1, lr=1.0, weight_decay=0.1, **ADAM)
    assert np.allclose(params["vision.proj"].data, before - 0.1 * before, atol=1e-6)


def test_adamw_steps_only_the_tensors_named_in_grads():
    """A tensor without a gradient or moment entry keeps its bits, weight
    decay included; of the stepped tensors only those of rank >= 2 decay;
    grads and moments naming different tensors are refused."""
    params = _scalar_params(1.0)
    before = {k: v.data.copy() for k, v in params.items()}
    stepped = {k: v for k, v in params.items() if not k.startswith("dino.")}
    zero = {k: np.zeros_like(v.data) for k, v in stepped.items()}
    adamw_step(params, zero, _zero_moments(stepped), 1, lr=1.0, weight_decay=0.1, **ADAM)
    for name, arr in before.items():
        if name.startswith("dino.") or arr.ndim < 2:
            assert np.array_equal(arr, params[name].data), name
        else:
            assert np.allclose(params[name].data, 0.9 * arr, atol=1e-6), name
    with pytest.raises(ContractError, match="does not match"):
        adamw_step(params, {**zero, "dino.w1": params["dino.w1"].data},
                   _zero_moments(stepped), 1, lr=1.0, weight_decay=0.1, **ADAM)


def test_adamw_decays_only_tensors_of_rank_two_or_more():
    """With a zero gradient one step keeps a rank-1 tensor's bits and
    shrinks a rank-2 tensor by lr * weight_decay, in float32."""
    params = _scalar_params(1.0)
    names = ("vision.ln_f.gain", "vision.blocks.0.mlp.b1", "log_tau", "dino.last_scale",
             "vision.proj", "dino.last_dir")
    stepped = {k: params[k] for k in names}
    before = {k: v.data.copy() for k, v in stepped.items()}
    lr, wd = 0.5, 0.1
    adamw_step(params, {k: np.zeros_like(v.data) for k, v in stepped.items()},
               _zero_moments(stepped), 1, lr=lr, weight_decay=wd, **ADAM)
    for name, arr in before.items():
        got = params[name].data
        assert got.dtype == np.float32, name
        if arr.ndim < 2:
            assert np.array_equal(got, arr), name
        else:
            assert np.allclose(got, arr * (1 - lr * wd), rtol=1e-6, atol=0), name
            assert not np.array_equal(got, arr), name


def test_adamw_structural_mismatch_rejected():
    params = _scalar_params(1.0)
    other = init_model_params(tiny_model_config(k=16), seed=0)
    with pytest.raises(ContractError):
        adamw_step(params, {k: v.data for k, v in params.items()}, _zero_moments(other), 1,
                   lr=0.1, weight_decay=0.0, **ADAM)


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


def test_lr_schedule_returns_a_python_float():
    """A Python float on both sides of warm-up, so that AdamW's update stays
    in float32 (an np.float64 rate would promote it)."""
    for step in (0, 5, 10, 55, 100):
        assert type(lr_schedule(step, 100, 10, 2.0)) is float, step


def test_lr_schedule_rejects_out_of_range():
    with pytest.raises(ContractError):
        lr_schedule(101, 100, 10, 1.0)


# -------------------------------------------------------------------------
# teacher momentum schedule
# -------------------------------------------------------------------------

def test_momentum_schedule_runs_from_the_base_to_one():
    for base in (0.9, 0.996):
        values = [momentum_schedule(t, 10, base) for t in range(1, 11)]
        assert values[0] == base and values[-1] == 1.0
        assert (np.diff(values) > 0).all()
        assert abs(momentum_schedule(5, 9, base) - (1.0 + base) / 2) < 1e-15   # midpoint
        assert type(values[3]) is float
    assert momentum_schedule(1, 1, 0.996) == 0.996
    for step in (0, 11):
        with pytest.raises(ContractError):
            momentum_schedule(step, 10, 0.996)


def _momenta_seen(monkeypatch) -> list:
    """The teacher momentum of every EMA update train makes, in order."""
    seen = []

    def spy(teacher, student):
        seen.append(teacher.ema_momentum)
        return objectives.ema_update(teacher, student)

    monkeypatch.setattr(trainer, "ema_update", spy)
    return seen


def test_ema_updates_follow_the_schedule_from_the_base_to_one(tiny_records, monkeypatch):
    """Update 1 uses the configured ema_momentum and the last update of the
    run 1, DINO's cosine between."""
    seen = _momenta_seen(monkeypatch)
    cfg = tiny_train_config(epochs=3, batch_size=2)          # 2 steps per epoch
    train(cfg, tiny_records)
    assert seen == [momentum_schedule(t, 6, cfg.ema_momentum) for t in range(1, 7)]
    assert seen[0] == cfg.ema_momentum == 0.996 and seen[-1] == 1.0


def test_scheduled_run_stopped_and_resumed_equals_uninterrupted(tmp_path, tiny_records,
                                                                monkeypatch):
    """The momentum comes from the step count and the run's length, so a run
    stopped with stop_after_epoch, checkpointed and resumed makes the same
    updates and ends in the same bytes as the uninterrupted run."""
    seen = _momenta_seen(monkeypatch)
    cfg = tiny_train_config(epochs=3, batch_size=2)
    full, _ = train(cfg, tiny_records)
    full_momenta = seen[:]
    seen.clear()
    half, _ = train(cfg, tiny_records, stop_after_epoch=1)
    save_checkpoint(half, tmp_path / "mid.ckpt")
    resumed = load_checkpoint(tmp_path / "mid.ckpt")
    done, _ = train(resumed.config, tiny_records, resume=resumed)
    assert seen == full_momenta and len(seen) == 6
    save_checkpoint(full, tmp_path / "full.ckpt")
    save_checkpoint(done, tmp_path / "resumed.ckpt")
    assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()


# -------------------------------------------------------------------------
# metrics log
# -------------------------------------------------------------------------

def test_metrics_log_strictly_increasing(tmp_path):
    log = MetricsLog()
    first = {"step": 1, "epoch": 0, "loss_infonce": 1.0, "loss_distill": 2.0,
             "loss_combined": 1.5, "lr": 0.1, "teacher_entropy": 3.0}
    log.append(first)
    with pytest.raises(ContractError, match="got 1 after 1"):
        log.append(dict(first))
    log.append({**first, "step": 2, "loss_distill": None, "teacher_entropy": None})
    assert [r["step"] for r in log.records] == [1, 2]
    out = tmp_path / "log.jsonl"
    log.write_jsonl(out)
    assert [json.loads(line) for line in out.read_text().splitlines()] == log.records


@pytest.mark.parametrize("loss_mode", ["combined", "infonce_only"])
def test_every_metrics_record_has_the_seven_fields(tiny_records, loss_mode):
    """Each step of a 2-epoch run logs exactly the seven fields; the
    distillation loss and teacher entropy are None without a teacher."""
    _, metrics = train(tiny_train_config(epochs=2, loss_mode=loss_mode), tiny_records)
    assert [(r["step"], r["epoch"]) for r in metrics.records] == [(1, 0), (2, 1)]
    for rec in metrics.records:
        assert set(rec) == {"step", "epoch", "loss_infonce", "loss_distill", "loss_combined",
                            "lr", "teacher_entropy"}
        assert all(isinstance(rec[k], float) for k in ("loss_infonce", "loss_combined", "lr"))
        if loss_mode == "combined":
            assert isinstance(rec["loss_distill"], float)
            assert isinstance(rec["teacher_entropy"], float)
        else:
            assert rec["loss_distill"] is None and rec["teacher_entropy"] is None
            assert rec["loss_combined"] == rec["loss_infonce"]


def test_teacher_tensors_are_constants(tmp_path, tiny_records):
    """The teacher is a stop-gradient copy from the start and after a load:
    no teacher tensor requires a gradient, and a teacher forward on an
    active tape records no node."""
    state = init_train_state(tiny_train_config())
    save_checkpoint(state, tmp_path / "a.ckpt")
    images = Tensor(np.stack([load_record_image(r) for r in tiny_records[:2]]))
    for st in (state, load_checkpoint(tmp_path / "a.ckpt")):
        assert not any(t.requires_grad for _, t in st.teacher.params.items())
        assert all(t.requires_grad for _, t in st.student.items())
        with ad.Tape() as tape:
            project_dino(st.teacher.params, encode_images(st.teacher.params, images))
        assert tape.nodes == []


class _RecordingTensors(dict):
    """A tensor mapping that records each name it is asked for."""

    def __init__(self, tensors):
        super().__init__(tensors)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


def test_teacher_holds_exactly_what_its_forward_reads(tmp_path):
    """The names that a teacher forward, project_dino(p, encode_images(p,
    x)), asks a full student for are the teacher's names, after
    init_train_state and after load_checkpoint: the default model's 47
    image-tower and DINO-head tensors."""
    state = init_train_state(TrainConfig())
    read = _RecordingTensors(state.student.tensors)
    full = ModelParams(state.config.model, read)
    size = state.config.model.vision.image_size
    images = Tensor(np.random.default_rng(0).random((2, 3, size, size), dtype=np.float32))
    project_dino(full, encode_images(full, images))
    assert len(read.read) == 47
    save_checkpoint(state, tmp_path / "a.ckpt")
    for st in (state, load_checkpoint(tmp_path / "a.ckpt")):
        assert set(st.teacher.params.names()) == read.read


# -------------------------------------------------------------------------
# checkpoints
# -------------------------------------------------------------------------

def _teacher_names(config: ModelConfig) -> list[str]:
    return [name for name, _ in _parameter_spec(config) if name.startswith(("vision.", "dino."))]


# The four checkpoint layouts: the loss mode decides whether the file holds
# a teacher and center and whether the AdamW groups hold the DINO head, and
# freeze_temperature whether they hold log_tau.
LAYOUTS = {"combined": {}, "combined-frozen_tau": {"freeze_temperature": True},
           "infonce_only": {"loss_mode": "infonce_only"},
           "infonce_only-frozen_tau": {"loss_mode": "infonce_only", "freeze_temperature": True}}


def write_earlier_format_checkpoint(state, path, version: int):
    """A combined-loss ``state`` in the format-2 or format-3 layout: both
    kept AdamW's step count as ``adam_t`` beside ``step``, and format 2's
    teacher group held every student tensor, text tower and
    log-temperature included."""
    save_checkpoint(state, path)
    sections = ckpt.read_container(path)
    sections.update(format_version=version, counters={**sections["counters"],
                                                      "adam_t": state.step})
    if version == 2:
        sections["teacher"] = sections["student"]
    ckpt.write_container(path, sections)


def _state_arrays(state) -> dict:
    """Each student tensor, AdamW moment, teacher tensor and the center of
    ``state``, keyed by (group, name) in the state's order."""
    groups = {"student": {k: t.data for k, t in state.student.items()},
              "adam_m": state.adam.m, "adam_v": state.adam.v}
    if state.teacher is not None:
        groups.update(teacher={k: t.data for k, t in state.teacher.params.items()},
                      center={"center": state.teacher.center})
    return {(g, k): a for g, arrays in groups.items() for k, a in arrays.items()}


def _assert_same_state(a, b):
    one, other = _state_arrays(a), _state_arrays(b)
    assert list(one) == list(other)
    for key, arr in one.items():
        assert arr.dtype == other[key].dtype and np.array_equal(arr, other[key]), key
    assert (a.step, a.next_epoch, a.train_fingerprint) == \
           (b.step, b.next_epoch, b.train_fingerprint)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_checkpoint_round_trip_bit_identical(tmp_path, tiny_records, layout):
    cfg = tiny_train_config(epochs=1, **LAYOUTS[layout])
    state, _ = train(cfg, tiny_records)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    _assert_same_state(state, loaded)


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
    state, _ = train(tiny_train_config(epochs=1), tiny_records)
    path, bad = tmp_path / "c.ckpt", tmp_path / "vers.ckpt"
    save_checkpoint(state, path)
    # a section of the version member's name stands in for the version
    ckpt.write_container(bad, {**ckpt.read_container(path), "format_version": FORMAT_VERSION + 1})
    with pytest.raises(CheckpointVersionError, match=f"format {FORMAT_VERSION + 1}, not"):
        load_checkpoint(bad)


@pytest.mark.parametrize("version", [2, 3])
def test_checkpoint_earlier_format_refused(tmp_path, version):
    """A format-2 file, whose teacher group holds the text tower too, and a
    format-3 file, with adam_t, are refused by their version."""
    path = tmp_path / "old.ckpt"
    write_earlier_format_checkpoint(init_train_state(tiny_train_config()), path, version)
    with pytest.raises(CheckpointVersionError,
                       match=f"format {version}, not {FORMAT_VERSION}"):
        load_checkpoint(path)


def test_checkpoint_old_format_named(tmp_path):
    """A format-1 file (magic, little-endian version, section count) is
    refused with the format it is in."""
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"DCKP" + struct.pack("<II", 1, 7) + bytes(64))
    with pytest.raises(CheckpointVersionError, match="DCKP"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_detected(tmp_path):
    """The config defines every shape, so a tensor group is checked by its
    length and dtype: one element short or long, 2-D, float16 or int32."""
    path, bad = tmp_path / "c.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(init_train_state(tiny_train_config()), path)
    for edit in (lambda flat: flat[:-1], lambda flat: np.concatenate([flat, flat[:1]]),
                 lambda flat: flat.reshape(1, -1), lambda flat: flat.astype(np.float16),
                 lambda flat: flat.astype(np.int32)):
        _rewrite_sections(path, bad, lambda sec: sec.update(student=edit(sec["student"])))
        with pytest.raises(CheckpointShapeError, match="student section"):
            load_checkpoint(bad)


def _rewrite_sections(src, dst, edit):
    """Re-write a checkpoint after edit(sections) changes its section dict;
    a bytes value is stored as the raw payload of a .json member."""
    sections = ckpt.read_container(src)
    edit(sections)
    raw = {name: v for name, v in sections.items() if isinstance(v, bytes)}
    ckpt.write_container(dst, {name: v for name, v in sections.items() if name not in raw})
    with zipfile.ZipFile(dst, "a") as zf:
        for name, payload in raw.items():
            zf.writestr(f"{name}.json", payload)


def set_config_field(obj: dict, path: tuple, value) -> dict:
    """Set the field at ``path`` (keys from the top) of a config dict."""
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


@pytest.mark.parametrize("edit", [
    lambda sec: sec.pop("center"),
    lambda sec: sec.pop("config"),
    lambda sec: sec.update(config=b"{not json"),
    lambda sec: sec.update(counters=b"\xff\xfe"),
    lambda sec: sec.update(teacher=sec["teacher"][:-1]),
    lambda sec: sec.update(counters={}),
    lambda sec: sec["counters"].update(adam_t=sec["counters"]["step"]),
    lambda sec: sec["counters"].update(step=-1),
    lambda sec: sec["counters"].update(next_epoch=-1),
    lambda sec: sec["counters"].update(next_epoch=2),
    lambda sec: sec["counters"].update(step=True),
    lambda sec: sec.update(config={"foo": 1}),
    lambda sec: set_config_field(sec["config"], ("batch_size",), "4"),
    lambda sec: set_config_field(sec["config"], ("model", "text", "depth"), 0.5),
    lambda sec: set_config_field(sec["config"], ("augmentation", "n_local"), -1),
    lambda sec: set_config_field(sec["config"], ("betas",), [1.0, 0.98]),
    lambda sec: set_config_field(sec["config"], ("adam_eps",), 0.0),
    lambda sec: set_config_field(sec["config"], ("tau_student",), 0.0),
    lambda sec: set_config_field(sec["config"], ("tau_teacher",), -1.0),
    lambda sec: set_config_field(sec["config"], ("weight_decay",), -1.0),
    lambda sec: set_config_field(sec["config"], ("ema_momentum",), 1.5),
    lambda sec: set_config_field(sec["config"], ("center_momentum",), -0.1),
    lambda sec: sec.update(centre=sec.pop("center")),
    lambda sec: sec.update(center=np.zeros(3, np.float32)),
    lambda sec: sec.update(adam_m=sec["adam_m"][:-1]),   # log_tau, the last tensor
    lambda sec: sec.update(adam_v=sec["adam_v"].reshape(1, -1)),
], ids=["missing-center", "missing-config", "bad-json", "bad-utf8-json",
        "teacher-one-short", "counters-without-keys", "counters-with-adam_t",
        "counters-step-negative", "counters-next-epoch-negative",
        "counters-next-epoch-past-epochs", "counters-step-bool", "config-unknown-field",
        "config-ill-typed", "config-nested-ill-typed", "config-out-of-domain",
        "config-beta-1", "config-adam-eps-0", "config-tau-student-0",
        "config-tau-teacher-negative", "config-weight-decay-negative",
        "config-ema-momentum-above-1", "config-center-momentum-negative", "center-misnamed", "center-wrong-shape", "adam_m-missing-name",
        "adam_v-wrong-shape"])
def test_checkpoint_corrupt_section_detected(tmp_path, tiny_records, edit):
    state, _ = train(tiny_train_config(epochs=1), tiny_records)
    path, bad = tmp_path / "c.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(state, path)
    _rewrite_sections(path, bad, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


@pytest.mark.parametrize("loss_mode,extra", [
    ("infonce_only", ("teacher", "center")), ("infonce_only", ("stray",)),
    ("combined", ("stray",))])
def test_checkpoint_refuses_members_it_does_not_read(tmp_path, tiny_records, loss_mode, extra):
    """A member outside the set the config implies (config, counters,
    student, adam_m, adam_v, and teacher and center under combined) is
    refused, not dropped by the next save: a combined file's teacher and
    center copied into an infonce_only file, or a stray member."""
    combined, _ = train(tiny_train_config(epochs=1), tiny_records)
    state, _ = train(tiny_train_config(epochs=1, loss_mode=loss_mode), tiny_records)
    donor, path, bad = tmp_path / "donor.ckpt", tmp_path / "c.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(combined, donor)
    save_checkpoint(state, path)
    donated = {**ckpt.read_container(donor), "stray": np.zeros(3, np.float32)}
    _rewrite_sections(path, bad, lambda sec: sec.update({k: donated[k] for k in extra}))
    load_checkpoint(path)
    with pytest.raises(CheckpointError, match=re.escape(f"members {sorted(extra)}")):
        load_checkpoint(bad)


def test_checkpoint_write_failing_midway_keeps_old_file(tmp_path, tiny_records):
    state, _ = train(tiny_train_config(epochs=1), tiny_records)
    (tmp_path / "ckpt").mkdir()
    path = tmp_path / "ckpt" / "c.ckpt"
    save_checkpoint(state, path)
    before = path.read_bytes()
    # the second section is not JSON-serializable, so the write fails after the first
    with pytest.raises(TypeError):
        ckpt.write_container(path, {"config": {"a": "b" * 1000}, "counters": object()})
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == ["c.ckpt"]


def test_write_atomic_failed_rename_keeps_old_file_and_no_temporary(tmp_path, monkeypatch):
    """The write reaches a temporary file and the rename fails: the old file
    keeps its bytes and the temporary file is removed.  MetricsLog writes
    through the same helper."""
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(ckpt.os, "replace", refuse)
    log = MetricsLog()
    log.append({"step": 1})
    for write in (lambda: ckpt.write_atomic(path, lambda f: f.write(b"new")),
                  lambda: log.write_jsonl(path)):
        with pytest.raises(OSError, match="rename refused"):
            write()
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_checkpoint_saves_seconds_apart_are_identical(tmp_path, monkeypatch):
    """Zip timestamps have a 2 s resolution; none from the clock is stored.
    The second save runs on a clock moved 2.1 s forward, the clock zipfile
    reads for a member's default timestamp."""
    state = init_train_state(tiny_train_config())
    save_checkpoint(state, tmp_path / "a.ckpt")
    now, localtime = time.time, time.localtime
    monkeypatch.setattr(time, "time", lambda: now() + 2.1)
    monkeypatch.setattr(time, "localtime",
                        lambda secs=None: localtime(time.time() if secs is None else secs))
    save_checkpoint(state, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_groups_hold_the_npy_bytes_of_their_concatenation(tmp_path,
                                                                    tiny_records):
    """Each tensor group is streamed tensor by tensor into its member, and
    the member holds exactly the bytes numpy.lib.format writes for the
    group's concatenation in parameter-spec order: every tensor for the
    student and AdamW groups, the vision and DINO-head tensors for the
    teacher."""
    state, _ = train(tiny_train_config(epochs=1), tiny_records)
    save_checkpoint(state, tmp_path / "a.ckpt")
    names = [name for name, _ in _parameter_spec(state.config.model)]
    groups = {"student": ({k: v.data for k, v in state.student.items()}, names),
              "teacher": ({k: v.data for k, v in state.teacher.params.items()},
                          _teacher_names(state.config.model)),
              "adam_m": (state.adam.m, names), "adam_v": (state.adam.v, names)}
    with zipfile.ZipFile(tmp_path / "a.ckpt") as zf:
        for group, (arrays, order) in groups.items():
            reference = io.BytesIO()
            np.lib.format.write_array(reference, np.concatenate(
                [np.ravel(arrays[name]) for name in order]), allow_pickle=False)
            assert zf.read(f"{group}.npy") == reference.getvalue(), group


def test_checkpoint_reads_with_numpy_alone(tmp_path):
    """numpy.load lists and reads every member in a process that never
    imports dinoclip."""
    state = init_train_state(tiny_train_config())
    path = tmp_path / "c.ckpt"
    save_checkpoint(state, path)
    code = ("import json, sys, numpy\n"
            f"with numpy.load({str(path)!r}, allow_pickle=False) as z:\n"
            "    out = {name: json.loads(z[name]) if name.endswith('.json')\n"
            "           else [str(z[name].dtype), z[name].size] for name in z.files}\n"
            "assert 'dinoclip' not in sys.modules\n"
            "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path, env={"PATH": os.environ.get("PATH", "")})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    n = sum(t.data.size for t in state.student.tensors.values())
    n_teacher = sum(state.student[name].data.size for name in _teacher_names(state.config.model))
    assert out == {"format_version.json": FORMAT_VERSION,
                   "config.json": json.loads(json.dumps(state.config.to_dict())),
                   "counters.json": {"step": 0, "next_epoch": 0, "train_fingerprint": None},
                   "center": ["float32", state.config.model.dino.output_dim],
                   "teacher": ["float32", n_teacher],
                   **{g: ["float32", n] for g in ("student", "adam_m", "adam_v")}}


def test_checkpoint_flipped_payload_bit_detected(tmp_path):
    state = init_train_state(tiny_train_config())
    path, bad = tmp_path / "c.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(state, path)
    bad.write_bytes(flip_bit(path.read_bytes(), 8 * (path.stat().st_size // 2)))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(bad)


# -------------------------------------------------------------------------
# config fuzzing: parse_json and TrainConfig.from_dict on random bytes,
# truncations and single-bit flips of a valid config raise only their
# documented kinds, ValidationError (the JSON, a field's name or type) and
# DomainError (a value)
# -------------------------------------------------------------------------

_VALID_CONFIG = json.dumps(TrainConfig().to_dict()).encode()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(blob=byte_mutations(_VALID_CONFIG))
def test_config_from_dict_fuzzed_raises_only_documented_errors(blob):
    try:
        cfg = TrainConfig.from_dict(parse_json(blob, "config.json"))
    except (ValidationError, DomainError):
        return
    assert isinstance(cfg, TrainConfig)


# -------------------------------------------------------------------------
# checkpoint fuzzing: random bytes, truncations and single-bit flips of a
# valid checkpoint raise only CheckpointError kinds, or load the same state
# -------------------------------------------------------------------------

@functools.cache
def valid_checkpoint(layout: str = "combined") -> bytes:
    """The bytes of an untrained tiny-config checkpoint in one of LAYOUTS,
    built on first use."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        save_checkpoint(init_train_state(tiny_train_config(**LAYOUTS[layout])), path)
        with open(path, "rb") as f:
            return f.read()


def checkpoint_mutations(layout: str = "combined"):
    return st.deferred(lambda: byte_mutations(valid_checkpoint(layout)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(list(LAYOUTS)).flatmap(
    lambda layout: st.tuples(st.just(layout), checkpoint_mutations(layout))))
@example(case=("combined", b"PK\x05\x06" + bytes(18)))   # a well-formed empty zip
def test_checkpoint_fuzzed_raises_only_checkpoint_error(tmp_path, case):
    """Each of the four layouts' files, mutated."""
    layout, blob = case
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        state = load_checkpoint(path)
    except CheckpointError:
        return
    # a flip in a field the reader does not use: the state is unchanged
    save_checkpoint(state, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == valid_checkpoint(layout)


def test_checkpoint_cut_and_damaged_end_record_told_apart(tmp_path):
    """A bit flip in the end record of a full-length file is damage: it
    raises a CheckpointError other than truncation, or falls in a field the
    reader does not use and loads the same state.  A strict prefix is a cut:
    every length over the directory and end record, and every 61st below."""
    blob, path = valid_checkpoint(), tmp_path / "c.ckpt"
    kinds = set()
    for bit in range(8 * (len(blob) - 22), 8 * len(blob)):
        path.write_bytes(flip_bit(blob, bit))
        try:
            save_checkpoint(load_checkpoint(path), tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == blob
            kinds.add("loads")
        except CheckpointTruncationError:
            raise AssertionError(f"bit {bit} of the end record read as a cut") from None
        except CheckpointError:
            kinds.add("damage")
    assert kinds == {"loads", "damage"}
    directory = struct.unpack_from("<L", blob, len(blob) - 6)[0]
    path.write_bytes(blob)
    for n in sorted({*range(directory, len(blob)), *range(0, directory, 61)}, reverse=True):
        os.truncate(path, n)
        with pytest.raises(CheckpointTruncationError):
            load_checkpoint(path)


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


@pytest.mark.parametrize("layout", LAYOUTS)
def test_resume_equals_uninterrupted(tmp_path, tiny_records, layout):
    cfg = tiny_train_config(epochs=4, **LAYOUTS[layout])
    full, full_metrics = train(cfg, tiny_records)

    half, half_metrics = train(tiny_train_config(epochs=4, **LAYOUTS[layout]), tiny_records,
                               stop_after_epoch=2)
    mid = tmp_path / "mid.ckpt"
    save_checkpoint(half, mid)
    resumed_state = load_checkpoint(mid)
    done, rest_metrics = train(resumed_state.config, tiny_records, resume=resumed_state)

    pa, pb = tmp_path / "full.ckpt", tmp_path / "resumed.ckpt"
    save_checkpoint(full, pa)
    save_checkpoint(done, pb)
    assert pa.read_bytes() == pb.read_bytes()
    _assert_same_state(full, done)
    # step-for-step: the resumed half reproduces the tail of the full log
    tail = full_metrics.records[len(half_metrics.records):]
    assert len(rest_metrics.records) == len(tail)
    for a, b in zip(tail, rest_metrics.records):
        assert a == b


def test_resume_on_different_train_records_is_refused(tmp_path, tiny_records):
    """A changed caption or an added record would silently change the batches
    and, with the record count, the LR schedule."""
    half, _ = train(tiny_train_config(epochs=4), tiny_records, stop_after_epoch=1)
    save_checkpoint(half, tmp_path / "mid.ckpt")
    state = load_checkpoint(tmp_path / "mid.ckpt")
    assert state.train_fingerprint.startswith("4 records, crc32 ")
    recaptioned = [dataclasses.replace(r, captions={"en": ["other words"]}) if r.index == 0
                   else r for r in tiny_records]
    added = tiny_records + [dataclasses.replace(tiny_records[0], index=len(tiny_records))]
    for records in (recaptioned, added):
        with pytest.raises(ValidationError, match="different train records") as raised:
            train(state.config, records, resume=state)
        assert state.train_fingerprint in str(raised.value)


def test_resume_with_a_different_config_is_refused(tiny_records):
    """The state's config is the run's config: another one, such as fewer
    epochs, is refused rather than silently replaced by the state's."""
    state = init_train_state(tiny_train_config(epochs=3))
    with pytest.raises(ContractError, match="resume.config"):
        train(tiny_train_config(epochs=1), tiny_records, resume=state)
    assert state.step == 0 and state.train_fingerprint is None


def _members(path) -> set:
    with zipfile.ZipFile(path) as zf:
        return set(zf.namelist())


def test_infonce_only_holds_no_teacher_and_keeps_its_dino_head(tmp_path, tiny_records,
                                                               monkeypatch):
    """Under infonce_only the state and its checkpoint hold no teacher, no
    center and no DINO-head moment, backward is asked for no DINO tensor,
    and after training every DINO tensor equals its initial value bit for
    bit, where weight decay alone used to shrink it."""
    cfg = tiny_train_config(epochs=3, loss_mode="infonce_only")
    initial = init_model_params(cfg.model, cfg.seed)
    asked = []

    def backward_spy(tape, loss, params):
        params = list(params)
        asked.append({t.name for t in params})
        return backward(tape, loss, params=params)

    monkeypatch.setattr(trainer, "backward", backward_spy)
    state, metrics = train(cfg, tiny_records)
    dino = {n for n in initial.names() if n.startswith("dino.")}
    assert len(asked) == 3 and all(names == initial.names() - dino for names in asked)
    save_checkpoint(state, tmp_path / "a.ckpt")
    assert _members(tmp_path / "a.ckpt") == {"format_version.json", "config.json",
                                             "counters.json", "student.npy", "adam_m.npy",
                                             "adam_v.npy"}
    for st_ in (state, load_checkpoint(tmp_path / "a.ckpt")):
        assert st_.teacher is None
        assert set(st_.adam.m) == set(st_.adam.v) == initial.names() - dino
        for name in dino:
            assert np.array_equal(st_.student[name].data, initial[name].data), name
    assert all(m["loss_distill"] is None for m in metrics.records)


def test_freeze_temperature_holds_no_log_tau_moment(tmp_path, tiny_records):
    """A freeze_temperature run keeps no AdamW moment for log_tau, in the
    state or the file, and ends at its initial temperature."""
    cfg = tiny_train_config(epochs=3, freeze_temperature=True)
    initial = init_model_params(cfg.model, cfg.seed)["log_tau"].data
    state, _ = train(cfg, tiny_records)
    save_checkpoint(state, tmp_path / "a.ckpt")
    for st_ in (state, load_checkpoint(tmp_path / "a.ckpt")):
        assert "log_tau" not in st_.adam.m and "log_tau" not in st_.adam.v
        assert set(st_.adam.m) == set(st_.student.names()) - {"log_tau"}
        assert np.array_equal(st_.student["log_tau"].data, initial)


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


def test_infonce_only_trains_on_images_smaller_than_local_crops(tiny_records):
    """infonce_only builds no local view, so its 8 px images need not hold
    the configured 12 px local crops."""
    model = tiny_model_config()
    model = dataclasses.replace(model, vision=dataclasses.replace(model.vision, image_size=16))
    aug = AugmentationConfig(global_crop_size=16, local_crop_size=12, n_local=2)
    state, log = train(tiny_train_config(epochs=1, loss_mode="infonce_only",
                                         augmentation=aug, model=model), tiny_records)
    assert state.step == 1 and np.isfinite(log.records[-1]["loss_combined"])


def test_config_from_dict_refuses_text_max_length_below_two():
    """tokenize needs room for the sentinel and the end id."""
    obj = tiny_train_config().to_dict()
    obj["model"]["text"]["max_length"] = 1
    with pytest.raises(DomainError, match="max_length"):
        TrainConfig.from_dict(obj)


# -------------------------------------------------------------------------
# a config that from_dict accepts runs: one epoch of train, a checkpoint
# round trip and both embedding paths, on 8 px images
# -------------------------------------------------------------------------

def _tower(draw, **fields) -> dict:
    heads = draw(st.integers(1, 4))
    return dict(fields, width=heads * draw(st.integers(1, 32 // heads)), heads=heads,
                depth=draw(st.integers(1, 2)))


@st.composite
def small_configs(draw) -> dict:
    """A TrainConfig dict over small models for 8 px images, some of which
    construction refuses (a patch of 3, max_length 1, embedding widths that
    differ)."""
    patch, embed = draw(st.sampled_from((1, 2, 4, 8, 3))), draw(st.integers(1, 8))
    return {
        "batch_size": draw(st.integers(1, 4)), "epochs": 1,
        "warmup_epochs": draw(st.integers(0, 1)),
        "sampling": {"mode": draw(st.sampled_from(("english_only", "one_translation")))},
        "augmentation": {"global_crop_size": 8, "n_local": draw(st.integers(0, 2)),
                         "local_crop_size": draw(st.sampled_from(range(patch, 9, patch)))},
        "model": {
            "vision": _tower(draw, image_size=8, patch_size=patch, embed_dim=embed),
            "text": _tower(draw, max_length=draw(st.integers(1, 8)),
                           embed_dim=draw(st.sampled_from((embed, embed, embed + 1)))),
            "dino": {"hidden_dim": draw(st.integers(1, 8)),
                     "bottleneck_dim": draw(st.integers(1, 8)),
                     "output_dim": draw(st.integers(1, 8))}}}


@pytest.mark.parametrize("loss_mode", ["combined", "infonce_only"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=small_configs())
def test_an_accepted_config_trains_checkpoints_and_embeds(tiny_records, loss_mode, obj):
    try:
        config = TrainConfig.from_dict({**obj, "loss_mode": loss_mode})
    except (ValidationError, DomainError):
        return
    state, log = train(config, tiny_records)
    assert state.next_epoch == 1 and len(log.records) == 4 // config.batch_size
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
    for name, t in state.student.items():
        assert np.array_equal(loaded.student[name].data, t.data), name
    texts = [t for rec in tiny_records for caps in rec.captions.values() for t in caps]
    assert embed_texts(loaded.student, texts).shape == (len(texts), config.model.embed_dim)
    images = embed_record_images(loaded.student, tiny_records)
    assert images.shape == (len(tiny_records), config.model.embed_dim)


def test_train_batch_too_large_rejected(tiny_records):
    with pytest.raises(ContractError, match="batch_size"):
        train(tiny_train_config(batch_size=64), tiny_records)


def test_training_step_stays_float32(tiny_records, monkeypatch):
    """One combined-loss step of a float32 model records only float32 tape
    nodes and yields float32 gradients."""
    seen = []

    def spy(tape, loss, params):
        node_dtypes = {t.dtype for n in tape.nodes for t in (n.output, *n.inputs)}
        grads = backward(tape, loss, params=list(params))   # empties the tape
        seen.append((node_dtypes, {g.dtype for g in grads}))
        return grads

    monkeypatch.setattr(trainer, "backward", spy)
    train(tiny_train_config(epochs=1), tiny_records)
    assert len(seen) == 1
    node_dtypes, grad_dtypes = seen[0]
    assert node_dtypes == {np.dtype(np.float32)}
    assert grad_dtypes == {np.dtype(np.float32)}


@pytest.mark.parametrize("loss_mode,images,heads,student_heads", [
    ("combined", [(8, 3, 8, 8), (8, 3, 8, 8), (4, 3, 4, 4)], [(8, 4), (12, 4)], 1),
    ("infonce_only", [(4, 3, 8, 8)], [], 0),
])
def test_training_step_batches_views_by_resolution(tiny_records, monkeypatch, loss_mode,
                                                   images, heads, student_heads):
    """Batch 4, 2 global views at 8 px and 1 local at 4 px: the teacher
    encodes the view-major globals once, the student once per resolution,
    each side makes one head call, and the tape holds one cross entropy per
    recorded head call plus InfoNCE's, and no softmax or log_softmax."""
    calls = {"images": [], "heads": [], "ops": []}

    def spy(fn, key):
        def wrapped(params, x):
            calls[key].append(x.shape)
            return fn(params, x)
        return wrapped

    def backward_spy(tape, loss, params):
        calls["ops"] = [node.op for node in tape.nodes]
        return backward(tape, loss, params=params)

    monkeypatch.setattr(trainer, "encode_images", spy(trainer.encode_images, "images"))
    monkeypatch.setattr(trainer, "project_dino", spy(trainer.project_dino, "heads"))
    monkeypatch.setattr(trainer, "backward", backward_spy)
    train(tiny_train_config(epochs=1, loss_mode=loss_mode), tiny_records)
    assert calls["images"] == images
    assert calls["heads"] == heads
    assert calls["ops"].count("soft_cross_entropy_logits") == student_heads + 1
    assert calls["ops"].count("weight_norm_linear") == student_heads
    assert not {"softmax", "soft_cross_entropy", "log_softmax"} & set(calls["ops"])


@pytest.mark.parametrize("loss_mode,image_calls", [("combined", 2), ("infonce_only", 1)])
def test_training_step_records_one_attention_node_per_block(tiny_records, monkeypatch,
                                                            loss_mode, image_calls):
    """At depth 2, each student encoder call (text once, images once per
    resolution) records 2 attention nodes, and the tape holds no 4-D
    transpose: head split and merge live inside the fused node."""
    nodes = []

    def backward_spy(tape, loss, params):
        nodes.extend(tape.nodes)
        return backward(tape, loss, params=params)

    model = tiny_model_config()
    model = dataclasses.replace(model, vision=dataclasses.replace(model.vision, depth=2),
                                text=dataclasses.replace(model.text, depth=2))
    monkeypatch.setattr(trainer, "backward", backward_spy)
    train(tiny_train_config(epochs=1, loss_mode=loss_mode, model=model), tiny_records)
    assert [n.op for n in nodes].count("attention") == 2 * (image_calls + 1)
    assert not [n for n in nodes if n.op == "transpose" and n.output.ndim == 4]


def test_training_step_runs_last_block_on_pooled_rows(tiny_records, monkeypatch):
    """At depth 2, each student encoder call's first-block MLP holds every
    row and its last-block MLP (its gelu node) only each sequence's first 2
    rows: the rows the encoders pool."""
    calls, transformer = [], encoders._transformer

    def spy(params, prefix, x, runs, *rest):
        tape = ad._active_tape()
        if tape is None:                            # the teacher's forward
            return transformer(params, prefix, x, runs, *rest)
        start = len(tape.nodes)
        out = transformer(params, prefix, x, runs, *rest)
        gelus = [n.output.shape for n in tape.nodes[start:] if n.op == "gelu"]
        calls.append((prefix, runs, [int(np.prod(s[:-1])) for s in gelus]))
        return out

    model = tiny_model_config()
    model = dataclasses.replace(model, vision=dataclasses.replace(model.vision, depth=2),
                                text=dataclasses.replace(model.text, depth=2))
    monkeypatch.setattr(encoders, "_transformer", spy)
    train(tiny_train_config(epochs=1, model=model), tiny_records)
    assert sorted(prefix for prefix, *_ in calls) == ["text", "vision", "vision"]
    for prefix, runs, rows in calls:
        assert all(t >= 2 for _, t in runs), prefix
        assert rows == [sum(c * t for c, t in runs), 2 * sum(c for c, _ in runs)], prefix


# -------------------------------------------------------------------------
# the views each step builds
# -------------------------------------------------------------------------

def _reference_views(config, records, epoch):
    """One epoch's batches as per-record oracle calls, stacked view-major
    here: row v * B + i is view v of record i.  Under infonce_only only
    global view 0 is kept, with the bits it has when both are built."""
    aug = config.augmentation
    if config.loss_mode != "combined":
        aug = dataclasses.replace(aug, n_local=0)
    out = []
    for batch in trainer._epoch_batches(records, config.batch_size, config.seed, epoch):
        per_record = [make_views_oracle(load_record_image(rec), aug,
                                        RandomStream(config.seed, epoch, rec.index))
                      for rec in batch]
        if config.loss_mode != "combined":
            per_record = [(globals_[:1], locals_) for globals_, locals_ in per_record]
        pair = []
        for part in (0, 1):
            blocks = [views[part] for views in per_record]
            rows = [block[v] for v in range(len(blocks[0])) for block in blocks]
            pair.append(np.stack(rows) if rows else
                        np.empty((0, *blocks[0].shape[1:]), np.float32))
        out.append(tuple(pair))
    return out


def _assert_same_views(got, want):
    assert len(got) == len(want)
    for got_pair, want_pair in zip(got, want):
        for a, b in zip(got_pair, want_pair):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)   # shapes included


def _spy_on_make_views(monkeypatch) -> list:
    """Each make_views call the loop makes, as (n_global, n_local, views)."""
    calls = []

    def spy(images, config, streams, n_global):
        views = build(images, config, streams, n_global)
        calls.append((n_global, config.n_local, views))
        return views

    build = trainer.make_views
    monkeypatch.setattr(trainer, "make_views", spy)
    return calls


@pytest.mark.parametrize("loss_mode,n_local", [("combined", 1), ("infonce_only", 1),
                                               ("combined", 0)])
def test_view_batches_equal_per_record_views(tiny_records, loss_mode, n_local,
                                             monkeypatch):
    """The loop's views over a 3-epoch run of two steps per epoch."""
    aug = dataclasses.replace(tiny_train_config().augmentation, n_local=n_local)
    cfg = tiny_train_config(epochs=3, batch_size=2, loss_mode=loss_mode, augmentation=aug)
    calls = _spy_on_make_views(monkeypatch)
    train(cfg, tiny_records)
    want = [pair for epoch in range(3) for pair in _reference_views(cfg, tiny_records, epoch)]
    assert len(want) == 6
    _assert_same_views([views for _, _, views in calls], want)


def test_infonce_only_builds_and_pipes_only_global_view_0(tiny_records, monkeypatch):
    """One step of 4 records: its one make_views call builds global view 0
    of each record and no local view, and the loop gets [4, 3, 8, 8] globals
    and no locals."""
    calls = _spy_on_make_views(monkeypatch)
    train(tiny_train_config(epochs=1, loss_mode="infonce_only"), tiny_records)
    assert [(n_global, n_local, [v.shape for v in views])
            for n_global, n_local, views in calls] == [(1, 0, [(4, 3, 8, 8), (0, 3, 4, 4)])]


def test_resumed_run_receives_reference_views(tmp_path, tiny_records, monkeypatch):
    """Resumed from an epoch-2 checkpoint, the loop starts at epoch 2, and
    the globals the teacher encodes are the reference's, bit for bit."""
    half, _ = train(tiny_train_config(epochs=3, batch_size=2), tiny_records,
                    stop_after_epoch=2)
    save_checkpoint(half, tmp_path / "mid.ckpt")
    state = load_checkpoint(tmp_path / "mid.ckpt")
    want = _reference_views(state.config, tiny_records, 2)

    seen = []

    def spy(params, images):
        if params is state.teacher.params:
            seen.append(images.data)
        return encode_images(params, images)

    monkeypatch.setattr(trainer, "encode_images", spy)
    train(state.config, tiny_records, resume=state)
    assert len(seen) == len(want) == 2
    for got, (globals_, _) in zip(seen, want):
        assert np.array_equal(got, globals_)


def _missing_image(records, index):
    return [dataclasses.replace(r, image_ref="missing.ppm") if r.index == index else r
            for r in records]


@pytest.mark.parametrize("how", ["return", "stop_after_epoch", "callback", "numeric",
                                 "image_error"])
def test_no_process_outlives_train(tmp_path, tiny_records, monkeypatch, how):
    """However train stops (a return, stop_after_epoch, a callback stop, a
    NumericError or an image error), it leaves no child process behind."""
    records, kwargs, raises, epochs = tiny_records, {}, None, 3
    if how == "stop_after_epoch":
        kwargs["stop_after_epoch"] = 1
    elif how == "callback":
        kwargs["epoch_callback"], epochs = (lambda state, metrics: True), 200
    elif how == "numeric":
        monkeypatch.setattr(trainer, "combined_loss",
                            lambda nce, dist: Tensor(np.array(np.nan, np.float32)))
        raises, epochs = NumericError, 200
    elif how == "image_error":
        records, kwargs["data_root"] = _missing_image(tiny_records, 2), tmp_path
        raises = FileNotFoundError
    with pytest.raises(raises) if raises else contextlib.nullcontext():
        train(tiny_train_config(epochs=epochs), records, **kwargs)
    assert multiprocessing.active_children() == []


def test_image_error_raised_at_the_step_that_needs_the_image(tmp_path, tiny_records,
                                                             monkeypatch):
    """A missing image in epoch 0's second batch: the first step completes,
    then its FileNotFoundError is raised with its message."""
    cfg = tiny_train_config(epochs=3, batch_size=2)
    second = trainer._epoch_batches(tiny_records, 2, cfg.seed, 0)[1]
    steps = []

    def counting_adamw(*args, **kwargs):
        steps.append(1)
        return adamw_step(*args, **kwargs)

    monkeypatch.setattr(trainer, "adamw_step", counting_adamw)
    with pytest.raises(FileNotFoundError, match="missing.ppm"):
        train(cfg, _missing_image(tiny_records, second[0].index), data_root=tmp_path)
    assert len(steps) == 1


def test_image_load_error_reaches_caller_with_type_message_and_fields(tiny_records,
                                                                      monkeypatch):
    """An error whose constructor takes other arguments than its message
    reaches the caller with its type, message and fields."""
    def bad_image(rec, root=None):
        raise ManifestParseError(7, "bad record")

    monkeypatch.setattr(trainer, "load_record_image", bad_image)
    with pytest.raises(ManifestParseError, match="^manifest line 7: bad record$") as raised:
        train(tiny_train_config(epochs=2), tiny_records)
    assert raised.value.line_no == 7


@pytest.mark.parametrize("average_pairs", [True, False])
def test_batched_distillation_matches_per_view_reference(rng, average_pairs):
    """In float64, the step's distillation term (one encoder call per
    resolution, one head call, one cross entropy on the logits) and its
    gradients equal the per-view form: one encode_images and project_dino
    call per view, its softmax, and the conftest scalar oracle per record,
    averaged over the batch."""
    cfg = tiny_model_config()
    params = float64_params(cfg, seed=11)
    b, n_local, tau = 3, 2, 0.1
    globals_ = rng.random((2, b, 3, 8, 8))
    locals_ = rng.random((n_local, b, 3, 4, 4))
    teacher = [rng.dirichlet(np.ones(8), size=b) for _ in range(2)]

    def probs(p, views):
        return ad.softmax(project_dino(p, encode_images(p, Tensor(views, dtype=np.float64))),
                          axis=-1, temperature=tau)

    def batched(tensors):
        p = ModelParams(cfg, {**params.tensors, **tensors})
        emb = ad.concat([encode_images(p, Tensor(v.reshape(-1, *v.shape[2:]), dtype=np.float64))
                         for v in (globals_, locals_)])
        return soft_distillation_terms(teacher, project_dino(p, emb), tau, average_pairs)

    def per_view(tensors):
        p = ModelParams(cfg, {**params.tensors, **tensors})
        views = [probs(p, v) for v in (*globals_, *locals_)]
        total = None
        for i in range(b):
            dists = DistributionSet(teacher=[t[i] for t in teacher],
                                    student=[ad.take_index(v, i, axis=0) for v in views])
            term = self_distillation_loss(dists, average_pairs)
            total = term if total is None else ad.add(total, term)
        return ad.mul(total, 1.0 / b)

    arrays = {k: v.data for k, v in params.items() if k.startswith(("vision.", "dino."))}
    got, want = reverse_mode_gradients(batched, arrays), reverse_mode_gradients(per_view, arrays)
    tensors = {k: Tensor(v, dtype=np.float64) for k, v in arrays.items()}
    assert abs(batched(tensors).item() - per_view(tensors).item()) <= 1e-12
    for name in arrays:
        assert np.allclose(got[name], want[name], rtol=1e-9, atol=1e-15), name


@pytest.mark.parametrize("model", [tiny_model_config(), ModelConfig()], ids=["tiny", "default"])
def test_embed_texts_rows_equal_each_text_alone(model, monkeypatch):
    """Texts of shared and of distinct token lengths, one cut at max_length,
    spread over several encode_text chunks of at most TEXT_CHUNK_TOKENS
    tokens; each row is bit-equal to the text embedded on its own."""
    params = init_model_params(model, seed=1)
    texts = ["ab", "cd", "a", "", "xyz", "ef", "a photo of a river", "a photo of a field",
             "y" * 2 * model.text.max_length] + [f"{'w' * (i % 7)}{i}" for i in range(400)]
    assert len(tokenize(texts[8], model.text.max_length)) == model.text.max_length
    chunks = []

    def spy(p, token_lists):
        chunks.append(sum(map(len, token_lists)))
        return encode_text(p, token_lists)

    monkeypatch.setattr(trainer, "encode_text", spy)
    rows = embed_texts(params, texts)
    assert len(chunks) >= 2 and max(chunks) <= trainer.TEXT_CHUNK_TOKENS
    assert rows.dtype == np.float32
    for i, text in enumerate(texts):
        assert np.array_equal(rows[i], embed_texts(params, [text])[0]), text


def test_embed_record_images_rows_equal_each_record_alone(tmp_path):
    """On the default config, a one-record list (a one-record split for
    eval-retrieval or export-embeddings) embeds to the bits of its row in
    the whole list."""
    write_synthetic_manifest(tmp_path / "m.jsonl", n=6, size=32)
    records = load_manifest(tmp_path / "m.jsonl")
    params = init_model_params(ModelConfig(), seed=1)
    rows = embed_record_images(params, records)
    for i, rec in enumerate(records):
        assert np.array_equal(embed_record_images(params, [rec])[0], rows[i]), i


def test_embed_record_images_memory_is_bounded_by_the_chunk(tmp_path, monkeypatch):
    """Embedding 2N records (N = 2 chunks) peaks at about the memory of
    embedding N: the images are loaded and encoded chunk by chunk.  Every
    chunk holds 1 to IMAGE_CHUNK_IMAGES images (the 2N + 1 records end in a
    one-image chunk), and the rows equal the whole list encoded in one
    call."""
    n = 2 * trainer.IMAGE_CHUNK_IMAGES
    model = tiny_model_config()
    params = init_model_params(model, seed=1)
    write_synthetic_manifest(tmp_path / "m.jsonl", n=2 * n + 1, size=model.vision.image_size)
    records = load_manifest(tmp_path / "m.jsonl")
    peaks = []
    for count in (n, 2 * n):
        tracemalloc.start()
        try:
            embed_record_images(params, records[:count])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks

    sizes = []

    def spy(p, images):
        sizes.append(images.shape[0])
        return encode_images(p, images)

    monkeypatch.setattr(trainer, "encode_images", spy)
    rows = embed_record_images(params, records)
    assert sum(sizes) == len(records) and len(sizes) > 1
    assert all(1 <= s <= trainer.IMAGE_CHUNK_IMAGES for s in sizes), sizes
    whole = encode_images(params, Tensor(np.stack([load_record_image(r) for r in records])))
    assert np.array_equal(rows, whole.data)


def test_embedding_helpers_shapes(tiny_records):
    state = init_train_state(tiny_train_config())
    img = embed_record_images(state.student, tiny_records)
    txt = embed_texts(state.student, ["a", "bb"])
    assert img.shape == (4, 4)
    assert txt.shape == (2, 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_helpers_on_an_empty_list(dtype):
    """Both helpers embed no input to a [0, m] array in the encoder's dtype."""
    model = tiny_model_config()
    params = (float64_params(model, seed=1) if dtype == np.float64
              else init_model_params(model, seed=1))
    for rows in (embed_record_images(params, []), embed_texts(params, [])):
        assert rows.shape == (0, model.embed_dim) and rows.dtype == dtype
