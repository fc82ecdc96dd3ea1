"""Acceptance gate: eight end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Criteria 3-5 share one heavy pipeline — the built-in world, 15000 sampled
scenes split 60/10/30, and all four variants trained at the default
hyperparameters — built once per module. The remaining criteria are
self-contained and cheap, and run before the pipeline is built.
"""

import math
import time

import numpy as np
import pytest

from uavad import adnet, evaluate
from uavad import world as world_mod
from uavad.adnet import (
    Checkpoint,
    Dataset,
    GpsNormalization,
    ModelConfig,
    TrainConfig,
    VARIANTS,
    init_params,
)
from uavad.detect import detect
from uavad.grid import BoundingBox, GridSpec, cell_of_center
from uavad.nn import Rng

PIPELINE_SEED = 11
N_SAMPLES = 15000
THRESHOLD = 0.5
ADNET = "uav_adnet"
WO_GPS = "uav_adnet_wo_gps"


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients of every variant agree with finite
# differences on a small full model, within 1e-4, in under 10 seconds.
# ---------------------------------------------------------------------------


def test_criterion_1_full_model_gradient_check():
    tiny = GridSpec(image_width=64, image_height=64, cells_x=4, cells_y=4)
    start = time.perf_counter()
    worst = {}
    for variant in VARIANTS:
        config = ModelConfig(variant=variant, grid=tiny, n_o=2, n_h=3)
        errors = adnet.gradient_check(config, seed=0, batch=2)
        worst[variant] = max(errors.values())
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative error {max(worst.values()):.3e} in {elapsed:.2f}s")
    for variant, err in worst.items():
        assert err < 1e-4, f"{variant}: {err}"
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: loss identities hold to 1e-12 and the latent regularizer is
# non-negative across 10^4 random posterior statistics.
# ---------------------------------------------------------------------------


def test_criterion_2_loss_identities_and_nonnegative_regularizer():
    x, x_hat = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    at_prior = adnet.loss(x, x_hat, np.zeros(4), np.zeros(4))
    assert abs(at_prior.rec - 2.0 * math.log(2.0)) < 1e-12
    assert abs(at_prior.reg) < 1e-12

    unit = adnet.loss(x, x_hat, np.array([1.0]), np.array([0.0]))
    assert abs(unit.reg - 0.5) < 1e-12

    rng = Rng(2)
    worst = math.inf
    for _ in range(10_000):
        mu = rng.gaussian(4)
        log_var = rng.gaussian(4)
        worst = min(worst, adnet.loss(x, x_hat, mu, log_var).reg)
    print(f"criterion 2: smallest regularizer over 10^4 draws {worst:.3e}")
    assert worst >= 0.0


# ---------------------------------------------------------------------------
# Criteria 3-5 share the trained pipeline below.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    w = world_mod.default_world()
    scenes = world_mod.sample_dataset(w, N_SAMPLES, PIPELINE_SEED)
    n_train, n_val, _ = world_mod.split_sizes(N_SAMPLES)
    train_set = Dataset.from_scenes(scenes[:n_train])
    val_set = Dataset.from_scenes(scenes[n_train : n_train + n_val])
    test_scenes = scenes[n_train + n_val :]
    test_set = Dataset.from_scenes(test_scenes)

    checkpoints, train_seconds = {}, {}
    for variant in VARIANTS:
        config = ModelConfig(variant=variant, grid=w.grid)
        start = time.perf_counter()
        checkpoints[variant], _ = adnet.train(
            config, train_set, val_set, TrainConfig(seed=PIPELINE_SEED)
        )
        train_seconds[variant] = time.perf_counter() - start

    benchmarks = {
        task: world_mod.build_benchmark(w, test_scenes, task, Rng(PIPELINE_SEED + task))
        for task in (1, 2, 3)
    }
    task_sets = {
        task: (Dataset.from_scenes((g, gps) for g, gps, _ in records), [c for *_, c in records])
        for task, records in benchmarks.items()
    }

    metrics = {}
    for variant in VARIANTS:
        counts, (precision, recall, f1) = evaluate.reconstruction_metrics(
            checkpoints[variant], test_set, THRESHOLD
        )
        metrics[variant] = {
            "counts": counts,
            "precision": precision,
            "recall": recall,
            "f1": f1,
            **{
                f"task{task}": evaluate.task_accuracy(
                    checkpoints[variant], *task_sets[task], THRESHOLD
                )
                for task in (1, 2, 3)
            },
        }

    order = Rng(0).permutation(test_set.n)
    permuted_set = Dataset(test_set.x, test_set.gps[order])
    permuted = {
        variant: evaluate.reconstruction_metrics(checkpoints[variant], permuted_set, THRESHOLD)
        for variant in (ADNET, WO_GPS)
    }

    return {
        "metrics": metrics,
        "train_seconds": train_seconds,
        "benchmarks": {task: len(records) for task, records in benchmarks.items()},
        "permuted": permuted,
        "plain_wo_gps": (metrics[WO_GPS]["counts"], (
            metrics[WO_GPS]["precision"], metrics[WO_GPS]["recall"], metrics[WO_GPS]["f1"],
        )),
    }


def test_criterion_3_reconstruction_quality_and_variant_gap(pipeline):
    """The copy-crop variants reconstruct held-out scenes nearly perfectly;
    the plain variational models trail by a wide F1 margin; each variant
    trains within its time budget."""
    m = pipeline["metrics"]
    line = ", ".join(
        f"{v}: f1 {m[v]['f1']:.4f} ({pipeline['train_seconds'][v]:.0f}s)" for v in VARIANTS
    )
    print(f"criterion 3: {line}")
    assert m[ADNET]["precision"] >= 0.95
    assert m[ADNET]["recall"] >= 0.95
    assert m[ADNET]["f1"] >= 0.95
    assert m["cvae"]["f1"] <= m[ADNET]["f1"] - 0.2
    assert m["vae"]["f1"] <= m[ADNET]["f1"] - 0.2
    for variant in VARIANTS:
        assert pipeline["train_seconds"][variant] <= 600.0, variant


def test_criterion_4_task_accuracy_ordering(pipeline):
    """The GPS+copy variant leads every detection task, private-rule
    detection is strong, and rare placements are no easier than private
    violations."""
    m = pipeline["metrics"]
    for task in (1, 2, 3):
        key = f"task{task}"
        print(
            f"criterion 4 {key} ({pipeline['benchmarks'][task]} cases): "
            + ", ".join(f"{v} {m[v][key]:.4f}" for v in VARIANTS)
        )
    assert m[ADNET]["task1"] >= 0.80
    for task in (1, 2, 3):
        key = f"task{task}"
        assert m[ADNET][key] >= m[WO_GPS][key], key
        assert m[WO_GPS][key] >= max(m["cvae"][key], m["vae"][key]), key
    assert m[ADNET]["task3"] <= m[ADNET]["task1"]


def test_criterion_5_gps_conditioning_matters(pipeline):
    """Shuffling GPS labels across test scenes costs the GPS-conditioned
    model measurable F1 and leaves the GPS-free model untouched."""
    f1_plain = pipeline["metrics"][ADNET]["f1"]
    _, (_, _, f1_permuted) = pipeline["permuted"][ADNET]
    print(f"criterion 5: f1 {f1_plain:.4f} -> {f1_permuted:.4f} under permuted gps")
    assert f1_plain - f1_permuted >= 0.02
    assert pipeline["permuted"][WO_GPS] == pipeline["plain_wo_gps"]


# ---------------------------------------------------------------------------
# Criterion 6: the box-center cell assignment matches a brute-force
# membership scan for 1000 random boxes.
# ---------------------------------------------------------------------------


def brute_force_cell(cx: float, cy: float, spec: GridSpec) -> tuple[int, int]:
    """Scan every cell window for the point; far edges close the last cell."""
    for row in range(spec.cells_y):
        for col in range(spec.cells_x):
            x_hi_ok = cx < (col + 1) * spec.cell_width or col == spec.cells_x - 1
            y_hi_ok = cy < (row + 1) * spec.cell_height or row == spec.cells_y - 1
            if col * spec.cell_width <= cx and x_hi_ok and row * spec.cell_height <= cy and y_hi_ok:
                return row, col
    raise AssertionError(f"point ({cx}, {cy}) in no cell")


def test_criterion_6_box_centers_match_membership_scan():
    spec = GridSpec()
    rng = Rng(66)
    for i in range(1000):
        xs = sorted(rng.uniform(2) * spec.image_width)
        ys = sorted(rng.uniform(2) * spec.image_height)
        if xs[0] == xs[1] or ys[0] == ys[1]:
            continue
        box = BoundingBox(int(rng.randint(8)), xs[0], ys[0], xs[1], ys[1])
        box.validate(spec)
        cx, cy = box.center
        assert cell_of_center(box, spec) == brute_force_cell(cx, cy, spec), i


# ---------------------------------------------------------------------------
# Criterion 7: dataset generation and training are bit-reproducible from a
# fixed seed.
# ---------------------------------------------------------------------------


def test_criterion_7_generation_and_training_reproduce_bitwise(tmp_path):
    w = world_mod.default_world()
    for sub in ("a", "b"):
        world_mod.build_dataset(w, 60, str(tmp_path / sub), seed=5)
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name

    train_set = Dataset.from_scenes(
        world_mod.load_scenes(str(tmp_path / "a" / "train.jsonl"), w.grid)
    )
    val_set = Dataset.from_scenes(
        world_mod.load_scenes(str(tmp_path / "a" / "val.jsonl"), w.grid)
    )
    config = ModelConfig(variant=ADNET, grid=w.grid)
    tc = TrainConfig(max_epochs=3, seed=5)
    ck_a, hist_a = adnet.train(config, train_set, val_set, tc)
    ck_b, hist_b = adnet.train(config, train_set, val_set, tc)
    assert hist_a == hist_b
    assert all(np.array_equal(ck_a.values[k], ck_b.values[k]) for k in ck_a.values)
    print(f"criterion 7: {len(hist_a)} epochs reproduced bit-identically")


# ---------------------------------------------------------------------------
# Criterion 8: one detection call on a full-size scene finishes in under
# five milliseconds.
# ---------------------------------------------------------------------------


def test_criterion_8_single_detection_latency():
    config = ModelConfig(ADNET)
    checkpoint = Checkpoint(
        config, GpsNormalization(41.1, 29.0), init_params(config, 0).copy_values()
    )
    w = world_mod.default_world()
    grid, gps = world_mod.sample_scene(w, 0, Rng(8))
    for _ in range(3):  # warm-up: first calls pay numpy initialization costs
        detect(checkpoint, grid, gps, THRESHOLD)
    timings = []
    for _ in range(20):
        start = time.perf_counter()
        detect(checkpoint, grid, gps, THRESHOLD)
        timings.append(time.perf_counter() - start)
    median_ms = sorted(timings)[len(timings) // 2] * 1e3
    print(f"criterion 8: median detection latency {median_ms:.3f} ms")
    assert median_ms < 5.0
