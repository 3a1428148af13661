"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Benchmarks run on small 2-D synthetic mixtures so the whole suite stays
within a desk-scale time budget.
"""

import itertools
import time

import numpy as np
import pytest

from magnetdml import (
    Dataset,
    EvalContext,
    ExperimentConfig,
    MixtureSpec,
    Mode,
    attribute_precision,
    attribute_precision_values,
    build_index,
    classify_batch,
    collapse_labels,
    generate_mixture,
    hierarchy_recovery_eval,
    kmeans,
    magnet_as_triplet,
    magnet_full_objective,
    magnet_minibatch_loss,
    random_pairing,
    split,
)
from magnetdml.cli import main as cli_main
from magnetdml.gradcheck import check_all_objectives
from magnetdml.losses import ncm_centroids, ncm_classify
from magnetdml.training import train


@pytest.fixture
def announce(capfd):
    def _announce(criterion, name, passed, detail=""):
        with capfd.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"[criterion {criterion:2d}] {status}  {name}  {detail}")

    return _announce


def test_01_gradient_fidelity(announce):
    started = time.monotonic()
    reports = check_all_objectives(layer_dims=(10, 16, 8), tolerance=1e-4, seed=0)
    elapsed = time.monotonic() - started
    worst = max(r.max_relative_error for r in reports.values())
    ok = (
        set(reports) == {"magnet", "triplet", "nca", "ncm", "softmax"}
        and all(r.passed and r.checked >= 200 for r in reports.values())
        and elapsed < 30.0
    )
    announce(1, "gradient fidelity", ok, f"max_rel_err={worst:.2e} t={elapsed:.1f}s")
    assert ok


def test_02_triplet_reduction_identity(announce):
    rng = np.random.default_rng(2)
    worst = 0.0
    for dim in (1, 8):
        for _ in range(100):
            pair = rng.standard_normal((2, dim))
            neg = rng.standard_normal(dim)
            alpha = float(rng.uniform(0.1, 3.0))
            direct = magnet_as_triplet(pair, neg, alpha)
            symmetrized = sum(
                max(
                    np.sum((pair[d] - pair[1 - d]) ** 2)
                    - np.sum((pair[d] - neg) ** 2)
                    + alpha,
                    0.0,
                )
                for d in (0, 1)
            )
            worst = max(worst, abs(direct - symmetrized))
    ok = worst < 1e-10
    announce(2, "triplet reduction identity", ok, f"max_abs_diff={worst:.2e}")
    assert ok


def test_03_full_vs_minibatch_agreement(announce):
    from magnetdml.model import EmbeddingModel

    rng = np.random.default_rng(3)
    inputs = np.concatenate(
        [rng.normal(4 * c, 1.0, (16, 3)) for c in range(4)]
    )
    ds = Dataset(inputs, np.repeat(np.arange(4), 16))
    model = EmbeddingModel([3, 3], seed=0)
    model.weights[0] = np.eye(3)
    model.biases[0][:] = 0.0
    idx = build_index(model, ds, k=2, seed=0)
    alpha = 1.0
    full = magnet_full_objective(idx, ds.inputs, ds.labels, alpha)
    batch = magnet_minibatch_loss(
        ds.inputs, idx.example_cluster, idx.cluster_classes, alpha
    )
    diff = abs(full - batch.mean_loss)
    ok = diff < 1e-9 and ds.size <= 64
    announce(3, "full/minibatch objective agreement", ok, f"|diff|={diff:.2e}")
    assert ok


def test_04_hand_computed_loss(announce):
    reps = np.array([[0.0], [2.0], [1.0], [3.0]])
    result = magnet_minibatch_loss(
        reps, np.array([0, 0, 1, 1]), np.array([0, 1]), 2.0
    )
    diff = abs(result.mean_loss - 1.625)
    ok = diff < 1e-9
    announce(4, "hand-computed 4-point loss", ok, f"loss={result.mean_loss!r}")
    assert ok


def test_05_kmeans_properties(announce):
    rng = np.random.default_rng(5)
    monotone = True
    for _ in range(1000):
        pts = rng.standard_normal((rng.integers(4, 24), rng.integers(1, 4)))
        history = []
        kmeans(pts, int(rng.integers(1, min(5, len(pts)))), seed=int(rng.integers(2**31)),
               history=history)
        monotone &= all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    # K=2 on {0, 0.1, 10, 10.1}: compare against all 2-partitions
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    _, assign, obj = kmeans(pts, 2, seed=0)
    best = min(
        sum(
            float(((pts[list(side)] - pts[list(side)].mean(axis=0)) ** 2).sum())
            for side in (group, set(range(4)) - set(group))
            if side
        )
        for r in range(1, 4)
        for group in itertools.combinations(range(4), r)
    )
    optimal = np.isclose(obj, best) and len({assign[0], assign[1]}) == 1 != len(
        {assign[1], assign[2]}
    )

    centers, _, _ = kmeans(pts, 1, seed=0)
    mean_exact = np.allclose(centers[0], pts.mean(axis=0), atol=0)

    ok = monotone and optimal and mean_exact
    announce(5, "k-means properties", ok,
             f"monotone={monotone} optimal_2part={optimal} k1_mean={mean_exact}")
    assert ok


def test_06_knc_ncm_equivalence(announce):
    rng = np.random.default_rng(6)
    train_x = rng.standard_normal((90, 4)) + rng.integers(0, 3, 90)[:, None]
    train_y = rng.integers(0, 3, 90)
    centroids = ncm_centroids(train_x, train_y, k=1)
    ctx = EvalContext(centroids[:, 0, :], np.arange(3), sigma2=1.0, l=3)
    queries = rng.standard_normal((1000, 4)) * 2.0
    agreement = float(
        (classify_batch(ctx, queries) == ncm_classify(np.eye(4), centroids, queries)).mean()
    )
    ok = agreement == 1.0
    announce(6, "kNC/NCM equivalence", ok, f"agreement={agreement:.3f}")
    assert ok


def _magnet_config(**overrides):
    base = dict(
        objective="magnet", layer_dims=[2, 32, 16], learning_rate=0.01,
        alpha=1.0, k=2, m=4, d=4, refresh_interval=50, eval_interval=50,
        iterations=2000, seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_07_multimodal_separation(announce, interleaved_benchmark):
    started = time.monotonic()
    tr, te = split(interleaved_benchmark, 0.2, seed=7)

    magnet_result = train(_magnet_config(), tr, te)
    magnet_errors = [r.val_error for r in magnet_result.metrics if r.val_error is not None]
    magnet_best = min(magnet_errors)

    ncm_cfg = ExperimentConfig(objective="ncm", layer_dims=[2, 16], learning_rate=0.01,
                               iterations=500, eval_interval=50, seed=5)
    ncm_result = train(ncm_cfg, tr, te)
    ncm_final = ncm_result.metrics[-1].val_error
    elapsed = time.monotonic() - started

    ok = magnet_best <= 0.05 and ncm_final > 0.25 and elapsed < 300.0
    announce(7, "multimodal separation", ok,
             f"magnet={magnet_best:.3f} ncm={ncm_final:.3f} t={elapsed:.1f}s")
    assert ok


def test_08_convergence_efficiency(announce, interleaved_benchmark):
    tr, te = split(interleaved_benchmark, 0.2, seed=7)

    magnet_result = train(_magnet_config(iterations=1500), tr, te)
    triplet_cfg = ExperimentConfig(
        objective="triplet", layer_dims=[2, 32, 16], learning_rate=0.002,
        alpha=0.5, impostor_fraction=0.5, batch_size=16, refresh_interval=50,
        eval_interval=50, iterations=1500, seed=5,
    )
    triplet_result = train(triplet_cfg, tr, te)

    def eval_curve(result):
        return [(r.iteration, r.val_error) for r in result.metrics if r.val_error is not None]

    t_curve = eval_curve(triplet_result)
    m_curve = eval_curve(magnet_result)
    # triplet's asymptotic error: mean over the final quarter of its evals
    tail = [e for _, e in t_curve[-(len(t_curve) // 4):]]
    asymptote = float(np.mean(tail))

    def first_reaching(curve):
        for it, err in curve:
            if err <= asymptote:
                return it
        return None

    magnet_iters = first_reaching(m_curve)
    triplet_iters = first_reaching(t_curve)
    ok = (
        magnet_iters is not None
        and triplet_iters is not None
        and 2 * magnet_iters <= triplet_iters
    )
    ratio = None if not magnet_iters else (triplet_iters or np.inf) / magnet_iters
    announce(8, "convergence efficiency", ok,
             f"target={asymptote:.3f} magnet@{magnet_iters} triplet@{triplet_iters} "
             f"ratio={ratio:.1f}" if ratio else "no iterations reached the target")
    assert ok


def _ring_hierarchy_data():
    centers = [(6 * np.cos(t), 6 * np.sin(t))
               for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    spec = MixtureSpec(classes=[[Mode(list(c), 0.9, 120)] for c in centers])
    full = generate_mixture(spec, seed=11)
    collapsed, fine = collapse_labels(full, random_pairing(8, seed=11))
    rng = np.random.default_rng(11)
    test_mask = np.zeros(full.size, bool)
    for c in range(8):
        members = np.flatnonzero(fine == c)
        test_mask[rng.choice(members, 24, replace=False)] = True
    tr = Dataset(collapsed.inputs[~test_mask], collapsed.labels[~test_mask])
    te = Dataset(collapsed.inputs[test_mask], collapsed.labels[test_mask])
    return tr, te, fine[~test_mask], fine[test_mask]


def test_09_hierarchy_recovery(announce):
    tr, te, fine_tr, fine_te = _ring_hierarchy_data()

    magnet_result = train(_magnet_config(iterations=3000, eval_interval=500), tr, te)
    m_e1, m_e5 = hierarchy_recovery_eval(
        magnet_result.model.embed(tr.inputs), fine_tr,
        magnet_result.model.embed(te.inputs), fine_te,
        sigma2=magnet_result.sigma2, method="knc", clusters_per_class=2,
    )

    triplet_cfg = ExperimentConfig(
        objective="triplet", layer_dims=[2, 32, 16], learning_rate=0.003,
        alpha=1.0, impostor_fraction=0.5, batch_size=16, refresh_interval=50,
        eval_interval=500, iterations=6000, seed=5,
    )
    triplet_result = train(triplet_cfg, tr, te)
    t_e1, t_e5 = hierarchy_recovery_eval(
        triplet_result.model.embed(tr.inputs), fine_tr,
        triplet_result.model.embed(te.inputs), fine_te,
        sigma2=triplet_result.sigma2, method="soft_knn",
    )

    chance = 1.0 - 1.0 / 8.0
    ok = (
        m_e1 < chance
        and m_e1 < t_e1
        and m_e5 is not None and m_e5 <= m_e1
        and t_e5 is not None and t_e5 <= t_e1
    )
    announce(9, "hierarchy recovery", ok,
             f"magnet@1={m_e1:.3f} triplet@1={t_e1:.3f} "
             f"magnet@5={m_e5:.3f} triplet@5={t_e5:.3f}")
    assert ok


def test_10_attribute_precision(announce):
    spec = MixtureSpec(classes=[
        [Mode([0.0, 0.0], 0.8, 150, attributes=[1, 0]),
         Mode([4.0, 4.0], 0.8, 150, attributes=[0, 1])],
        [Mode([0.0, 4.0], 0.8, 150, attributes=[1, 0]),
         Mode([4.0, 0.0], 0.8, 150, attributes=[0, 1])],
    ])
    full = generate_mixture(spec, seed=3)
    # control attribute drawn independently of geometry
    rng = np.random.default_rng(99)
    control = (rng.random(full.size) < 0.4).astype(np.int8)
    full = Dataset(full.inputs, full.labels,
                   attributes=np.column_stack([full.attributes, control]))
    tr, te = split(full, 0.25, seed=3)

    sizes = (5, 10, 20)
    results = {}
    for objective, extra in (
        ("magnet", dict(alpha=1.0, k=2, m=4, d=4, refresh_interval=50)),
        ("softmax", dict(batch_size=16)),
    ):
        cfg = ExperimentConfig(objective=objective, layer_dims=[2, 32, 16],
                               learning_rate=0.01, iterations=6000,
                               eval_interval=1000, seed=5, **extra)
        result = train(cfg, tr, te)
        reps = result.model.embed(te.inputs)
        prec = attribute_precision(reps, te.attributes[:, :2], sizes)
        results[objective] = (reps, float(np.mean([prec[s] for s in sizes])))

    magnet_reps, magnet_mean = results["magnet"]
    _, softmax_mean = results["softmax"]

    control_vals = attribute_precision_values(magnet_reps, te.attributes[:, 2:], size=10)
    freq = float(te.attributes[:, 2].mean())
    se = control_vals.std(ddof=1) / np.sqrt(len(control_vals))
    control_ok = abs(control_vals.mean() - freq) <= 3 * se

    ok = magnet_mean >= softmax_mean and control_ok
    announce(10, "attribute precision", ok,
             f"magnet={magnet_mean:.4f} softmax={softmax_mean:.4f} "
             f"control_dev={abs(control_vals.mean() - freq) / se:.2f}se")
    assert ok


def test_11_determinism(announce, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"classes": [[{"center": [0, 0], "deviation": 0.8, "count": 60},'
        ' {"center": [4, 4], "deviation": 0.8, "count": 60}],'
        ' [{"center": [0, 4], "deviation": 0.8, "count": 60},'
        ' {"center": [4, 0], "deviation": 0.8, "count": 60}]]}'
    )
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"objective = magnet\nmixture_spec = {spec_path}\n"
        "layer_dims = 2,16,8\nlearning_rate = 0.01\niterations = 120\n"
        "eval_interval = 30\nrefresh_interval = 30\nk = 2\nm = 2\nd = 4\nseed = 9\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli_main(["train", str(config_path), str(out_a)])
    rc_b = cli_main(["train", str(config_path), str(out_b)])
    identical = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and identical
    announce(11, "deterministic metrics.csv", ok, f"byte_identical={identical}")
    assert ok
