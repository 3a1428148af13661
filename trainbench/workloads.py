"""Workload definitions and input generation for the training benchmark.

Every workload trains on the reference case: 10 classes x 3 Gaussian modes x
150 points in 8-d, split 80/20. The class layout (the mode centers) is part
of the workload and fixed; the benchmark seed draws the points and the
training seed. Keeping the layout fixed means two seeds pose problems of the
same difficulty, so the error rate moves with the code, not with the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from magnetdml.data import MixtureSpec, Mode, generate_mixture, save_dataset

CLASSES, MODES, POINTS_PER_MODE, DIM = 10, 3, 150, 8
CENTER_RANGE = 6.0
# 2.0 leaves every objective at a clearly non-zero error; at 1.0 the test
# error is about one point and cannot show a loss of quality.
DEVIATION = 2.0
LAYOUT_SEED = 1511_05939

_SHARED = {"layer_dims": "8,64,32", "test_fraction": 0.2}


@dataclass(frozen=True)
class Workload:
    # (objective, config keys), in the order of training
    objectives: List[Tuple[str, dict]]
    # Each run trains on this many datasets drawn from the benchmark seed
    # and reports the mean error over them: on one 900-point test set the
    # final-quarter error moves by a tenth to a fifth of itself between
    # seeds, because the test sample and the end of training both vary.
    datasets: int = 4


WORKLOADS: Dict[str, Workload] = {
    # Magnet: the sampler, index rebuilds, magnet loss, model and checkpoint
    # writes share the time; evaluation is kNC over 30 centers.
    "magnet-ref": Workload(
        [("magnet", {
            "k": 3, "m": 8, "d": 4, "refresh_interval": 50, "eval_interval": 100,
            "learning_rate": 0.01, "iterations": 1000,
        })],
        # its passes are short, so more datasets fit in a run
        datasets=8,
    ),
    # Mined triplets: sample_triplets and soft-kNN evaluation over the
    # training set dominate; the index is never called. The rate is the
    # acceptance suite's: at 0.01 triplet training diverges.
    "triplet-mined": Workload(
        [("triplet", {
            "impostor_fraction": 0.2, "batch_size": 16, "learning_rate": 0.002,
            "alpha": 0.5, "refresh_interval": 100, "eval_interval": 30, "iterations": 300,
        })],
    ),
    # The nca, softmax and ncmc loops, their losses and LinearHead SGD, which
    # no other workload runs. Full-batch ncm_loss costs about 100 ms an
    # iteration, so ncmc runs 1/20 of nca's iterations and does not drown
    # the other two.
    "baselines": Workload(
        [
            ("nca", {
                "batch_size": 32, "learning_rate": 0.002, "refresh_interval": 100,
                "eval_interval": 50, "iterations": 500,
            }),
            ("softmax", {
                "batch_size": 64, "learning_rate": 0.01, "refresh_interval": 100,
                "eval_interval": 100, "iterations": 1000,
            }),
            ("ncmc", {
                "layer_dims": "8,32", "ncm_k": 3, "eval_interval": 5, "iterations": 25,
            }),
        ],
    ),
}


def mixture_spec() -> MixtureSpec:
    rng = np.random.default_rng(LAYOUT_SEED)
    return MixtureSpec(classes=[
        [
            Mode(rng.uniform(-CENTER_RANGE, CENTER_RANGE, DIM).tolist(), DEVIATION, POINTS_PER_MODE)
            for _ in range(MODES)
        ]
        for _ in range(CLASSES)
    ])


def data_seeds(workload: str, seed: int) -> List[int]:
    """The dataset seeds of one benchmark run; distinct runs share none."""
    count = WORKLOADS[workload].datasets
    return [seed * count + j for j in range(count)]


def write_inputs(workload: str, seed: int, workdir: Path, scale: float = 1.0) -> List[Dict[str, Path]]:
    """Write one dataset CSV and one config per objective for each data seed.

    Returns, per data seed, a map from objective to its config path.
    ``scale`` multiplies iteration counts and eval intervals; the self-tests
    use it to run every workload in seconds.
    """
    spec = mixture_spec()
    inputs = []
    for data_seed in data_seeds(workload, seed):
        csv_path = workdir / f"data-{data_seed}.csv"
        save_dataset(generate_mixture(spec, seed=data_seed), csv_path)
        configs = {}
        for objective, keys in WORKLOADS[workload].objectives:
            values = {**_SHARED, **keys, "objective": objective,
                      "dataset": csv_path.resolve(), "seed": data_seed}
            for key in ("iterations", "eval_interval"):
                values[key] = max(1, round(values[key] * scale))
            path = workdir / f"{objective}-{data_seed}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            configs[objective] = path
        inputs.append(configs)
    return inputs
