import base64
import csv
import json

import numpy as np
import pytest

from magnetdml import Dataset, save_dataset, training
from magnetdml.cli import main
from magnetdml.config import parse_config
from magnetdml.errors import ContractError
from magnetdml.evaluate import attribute_precision
from magnetdml.model import EmbeddingModel, _pack, _unpack
from magnetdml.training import resolve_datasets

from test_metrics_pin import COMMON, CONFIGS, pin_data


SPEC = {
    "classes": [
        [
            {"center": [0.0, 0.0], "deviation": 0.8, "count": 40},
            {"center": [4.0, 4.0], "deviation": 0.8, "count": 40},
        ],
        [
            {"center": [0.0, 4.0], "deviation": 0.8, "count": 40},
            {"center": [4.0, 0.0], "deviation": 0.8, "count": 40},
        ],
    ]
}


def _spec_bytes(**mode):
    """SPEC as JSON with the first mode's keys replaced, or dropped for None."""
    spec = json.loads(json.dumps(SPEC))
    first = {**spec["classes"][0][0], **mode}
    spec["classes"][0][0] = {k: v for k, v in first.items() if v is not None}
    return json.dumps(spec).encode()


# each was a raw KeyError, JSONDecodeError, ValueError, UnicodeDecodeError or
# RecursionError
BAD_SPECS = {
    "no-count": _spec_bytes(count=None),
    "not-json": b"{bad",
    "text-center": _spec_bytes(center="ab"),
    "fractional-count": _spec_bytes(count=2.5),
    "not-utf8": b"\xff\xfe{}",
    "deeply-nested": b"[" * 100_000 + b"]" * 100_000,
}


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def write_config(tmp_path, name="run.cfg", **overrides):
    """A magnet config over SPEC; an override of None drops that key."""
    values = {
        "objective": "magnet",
        "mixture_spec": str(write_spec(tmp_path)),
        "layer_dims": "2,16,8",
        "learning_rate": "0.01",
        "iterations": "60",
        "eval_interval": "20",
        "refresh_interval": "20",
        "epoch_length": "40",
        "k": "2",
        "m": "2",
        "d": "4",
        "seed": "3",
    }
    values.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
    return path


class TestGenData:
    def test_writes_csv(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "data.csv"
        assert main(["gen-data", str(spec), str(out), "--seed", "5"]) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "f0", "f1"]
        assert len(rows) == 161  # header plus one row per example
        assert all(len(r) == 3 for r in rows)

    def test_deterministic_per_seed(self, tmp_path):
        spec = write_spec(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", str(spec), str(a), "--seed", "5"])
        main(["gen-data", str(spec), str(b), "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_spec_errors(self, tmp_path, capsys):
        assert main(["gen-data", str(tmp_path / "nope.json"), str(tmp_path / "o.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_errors(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not out.exists()

    def test_zero_width_spec_errors(self, tmp_path, capsys):
        # centers of length 0 used to write a CSV with no feature columns
        spec = json.loads(json.dumps(SPEC))
        for modes in spec["classes"]:
            for mode in modes:
                mode["center"] = []
        path, out = tmp_path / "spec.json", tmp_path / "o.csv"
        path.write_text(json.dumps(spec))
        assert main(["gen-data", str(path), str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: inputs must be a non-empty")
        assert not out.exists()

    def test_out_of_memory_errors(self, tmp_path, capsys, monkeypatch):
        # numpy refuses a too-large spec's arrays up front with a MemoryError;
        # a stand-in raises it here so that the test allocates nothing large
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.46 TiB for an array")

        monkeypatch.setattr("magnetdml.cli.generate_mixture", refuse)
        out = tmp_path / "o.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(out)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 1.46 TiB for an array\n"
        assert not out.exists()

    def test_non_binary_spec_attribute_errors(self, tmp_path, capsys):
        # was a raw OverflowError traceback from the int8 cast
        spec = json.loads(json.dumps(SPEC))
        for modes in spec["classes"]:
            for mode in modes:
                mode["attributes"] = [0, 1]
        spec["classes"][1][0]["attributes"] = [300, 1]
        path, out = tmp_path / "spec.json", tmp_path / "o.csv"
        path.write_text(json.dumps(spec))
        assert main(["gen-data", str(path), str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: class 1 has an attribute value other than 0 or 1\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("case", BAD_SPECS)
def test_malformed_spec_errors(tmp_path, capsys, command, case):
    config = write_config(tmp_path)  # names tmp_path / "spec.json"
    spec = tmp_path / "spec.json"
    spec.write_bytes(BAD_SPECS[case])
    args = {"gen-data": [str(spec), str(tmp_path / "o.csv")],
            "train": [str(config), str(tmp_path / "out")]}[command]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "spec.json" in err


class TestTrain:
    def test_end_to_end_outputs(self, tmp_path):
        config = write_config(tmp_path)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0

        metrics = (outdir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "iter,train_loss,val_error"
        iters = [int(row.split(",")[0]) for row in metrics[1:]]
        assert iters == sorted(iters)
        assert iters[0] == 0 and iters[-1] == 59

        report = json.loads((outdir / "report.json").read_text())
        assert report["objective"] == "magnet"
        assert report["metric"] == "knc"
        assert 0.0 <= report["error_rate"] <= 1.0
        assert len(report["confusion"]) == 2
        assert sum(map(sum, report["confusion"])) == 32  # 20% test split

        assert (outdir / "checkpoint.bin").exists()

    def test_byte_identical_metrics(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", str(config), str(out_a)]) == 0
        assert main(["train", str(config), str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    def test_zero_iterations_still_reports(self, tmp_path):
        config = write_config(tmp_path, iterations=0)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        assert (outdir / "metrics.csv").read_text().splitlines() == [
            "iter,train_loss,val_error"
        ]
        assert (outdir / "report.json").exists()

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["train", str(config), str(out_a)])
        monkeypatch.setenv("MAGNETDML_SEED", "99")
        main(["train", str(config), str(out_b)])
        main(["train", str(config), str(out_c)])
        assert (out_a / "checkpoint.bin").read_bytes() != (out_b / "checkpoint.bin").read_bytes()
        assert (out_b / "checkpoint.bin").read_bytes() == (out_c / "checkpoint.bin").read_bytes()

    def test_non_integer_env_seed_errors(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        monkeypatch.setenv("MAGNETDML_SEED", "abc")
        assert main(["train", str(config), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MAGNETDML_SEED" in err

    def test_resume_matches_uninterrupted(self, tmp_path):
        full = write_config(tmp_path, name="full.cfg", iterations=60)
        half = write_config(tmp_path, name="half.cfg", iterations=40)
        out_full, out_half = tmp_path / "full", tmp_path / "half"
        assert main(["train", str(full), str(out_full)]) == 0
        assert main(["train", str(half), str(out_half)]) == 0
        # continue the halted run to 60 iterations
        resumed = write_config(tmp_path, name="resumed.cfg", iterations=60)
        out_res = tmp_path / "resumed"
        assert main(["train", str(resumed), str(out_res), "--resume", str(out_half)]) == 0
        assert (out_res / "metrics.csv").read_bytes() == (out_full / "metrics.csv").read_bytes()
        assert (out_res / "checkpoint.bin").read_bytes() == (out_full / "checkpoint.bin").read_bytes()

    def test_ncm_resume_matches_uninterrupted(self, tmp_path):
        # ncm checkpoints and resumes like the other objectives; halting at
        # 50 stops inside a refresh window
        ncm = dict(objective="ncm", layer_dims="2,8")
        out_full, out_half, out_res = tmp_path / "full", tmp_path / "half", tmp_path / "res"
        full = write_config(tmp_path, name="ncm.cfg", **ncm)
        half = write_config(tmp_path, name="half.cfg", iterations=50, **ncm)
        assert main(["train", str(full), str(out_full)]) == 0
        assert main(["train", str(half), str(out_half)]) == 0
        assert main(["train", str(full), str(out_res), "--resume", str(out_half)]) == 0
        assert (out_res / "metrics.csv").read_bytes() == (out_full / "metrics.csv").read_bytes()
        assert (out_res / "checkpoint.bin").read_bytes() == (out_full / "checkpoint.bin").read_bytes()

    # a truncated checkpoint.bin resumes: see test_resume_ignores_the_exported_checkpoint
    @pytest.mark.parametrize("name", ["training_state.json"])
    def test_resume_from_truncated_state_errors(self, tmp_path, capsys, name):
        config = write_config(tmp_path, iterations=30)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        path = outdir / name
        path.write_bytes(path.read_bytes()[:40])
        capsys.readouterr()
        assert main(["train", str(config), str(tmp_path / "res"), "--resume", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_resume_from_state_with_misshapen_head_errors(self, tmp_path, capsys):
        # used to escape main as a raw numpy ValueError from the first step
        config = write_config(tmp_path, objective="softmax", iterations=20)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        path = outdir / "training_state.json"
        state = json.loads(path.read_text())
        for key in ("weights", "w_velocity"):
            blob = state["head"][key][0]
            rows, cols = blob["shape"]
            data = np.frombuffer(base64.b64decode(blob["f8"]), dtype="<f8").reshape(rows, cols)
            blob.update(shape=[rows, cols - 1],
                        f8=base64.b64encode(data[:, :-1].tobytes()).decode())
        path.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(["train", str(config), str(tmp_path / "res"), "--resume", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "head" in err

    def test_resume_of_overflowing_weights_errors(self, tmp_path, capsys):
        # the refresh's K-means used to escape main as numpy's raw
        # "Probabilities contain NaN"
        config = write_config(tmp_path, iterations=20)  # the state is the run's end
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        path = outdir / "training_state.json"
        state = json.loads(path.read_text())  # finite weights whose products overflow
        state["weights"] = [_pack(_unpack(w, "weights") * 1e300) for w in state["weights"]]
        path.write_text(json.dumps(state))
        longer = write_config(tmp_path, name="longer.cfg", iterations=40)
        capsys.readouterr()
        assert main(["train", str(longer), str(tmp_path / "res"), "--resume", str(outdir)]) == 1
        assert capsys.readouterr().err == "error: the model's embeddings are not finite\n"
        assert not any((tmp_path / "res").iterdir())

    def test_bad_config_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("objective = gravity\n")
        assert main(["train", str(bad), str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("objective", ["magnet", "ncm"])
    def test_zero_refresh_interval_errors(self, tmp_path, capsys, objective):
        config = write_config(tmp_path, objective=objective, refresh_interval=0)
        assert main(["train", str(config), str(tmp_path / "out")]) == 1
        assert "refresh_interval" in capsys.readouterr().err

    @pytest.mark.parametrize("objective", ["ncm", "ncmc"])
    def test_empty_layer_dims_errors(self, tmp_path, capsys, objective):
        # used to escape as a raw IndexError at config.layer_dims[-1]
        config = write_config(tmp_path, objective=objective, layer_dims="")
        assert main(["train", str(config), str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == (
            "", "error: layer_dims must be a non-empty list of sizes >= 1\n")
        assert not (tmp_path / "out").exists()

    def test_triplet_objective_runs(self, tmp_path):
        config = write_config(
            tmp_path, objective="triplet", learning_rate=0.002, alpha=0.5,
            impostor_fraction=0.5, batch_size=8,
        )
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["metric"] == "soft_knn"

    def test_csv_dataset_with_attributes_reports_attribute_precision(self, tmp_path):
        spec = json.loads(json.dumps(SPEC))
        for c, modes in enumerate(spec["classes"]):
            for j, mode in enumerate(modes):
                mode["attributes"] = [1 - c, c, 1 - j, j]
        spec_path, data, attrs = tmp_path / "spec.json", tmp_path / "d.csv", tmp_path / "a.csv"
        spec_path.write_text(json.dumps(spec))
        assert main(["gen-data", str(spec_path), str(data), "--attributes-out", str(attrs)]) == 0
        config = write_config(tmp_path, mixture_spec=None, dataset=data, dataset_attributes=attrs)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0

        report = json.loads((outdir / "report.json").read_text())
        _, test = resolve_datasets(parse_config(config))
        reps = EmbeddingModel.load(outdir / "checkpoint.bin").embed(test.inputs)
        expected = attribute_precision(reps, test.attributes, [5, 10, 20])
        assert report["attribute_precision"] == {str(k): v for k, v in expected.items()}

    def test_non_binary_csv_attribute_errors(self, tmp_path, capsys):
        # was a raw OverflowError traceback from the int8 cast
        data, attrs = tmp_path / "d.csv", tmp_path / "a.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(data)]) == 0
        attrs.write_text("a0\n300\n" + "1\n" * 159)
        config = write_config(tmp_path, mixture_spec=None, dataset=data, dataset_attributes=attrs)
        assert main(["train", str(config), str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {attrs}: line 2: attribute value 300 is not 0 or 1\n")


# class c of the pins' mixture is written to the training CSV as RAW_LABELS[c],
# so its labels first appear in an order other than ascending
RAW_LABELS = [30, 10, 40, 20]


def train_pin_run(tmp_path, objective, iterations):
    """Train the pinned config of ``objective`` through the CLI on a CSV of
    the pins' mixture; return the config file and the run directory."""
    train_data, test_data = pin_data()
    data = tmp_path / "pins.csv"
    with data.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "f0", "f1", "f2", "f3"])
        for ds in (train_data, test_data):
            writer.writerows([RAW_LABELS[y]] + list(map(repr, x.tolist()))
                             for y, x in zip(ds.labels, ds.inputs))
    values = {**COMMON, **CONFIGS[objective], "iterations": iterations, "dataset": data}
    config = tmp_path / f"{objective}.cfg"
    config.write_text("".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for k, v in values.items()))
    run = tmp_path / "run"
    assert main(["train", str(config), str(run)]) == 0
    return config, run


class TestEval:
    # 120 iterations end on a refresh boundary; 110 end off one, with the
    # state at 90, so that eval re-runs the last 20
    @pytest.mark.parametrize("iterations", [120, 110])
    @pytest.mark.parametrize("objective", sorted(CONFIGS))
    def test_reproduces_the_runs_report(self, tmp_path, objective, iterations):
        config, run = train_pin_run(tmp_path, objective, iterations)
        _, test = resolve_datasets(parse_config(config))
        shuffled = tmp_path / "test.csv"
        save_dataset(Dataset(test.inputs[::-1], test.labels[::-1], raw_labels=test.raw_labels),
                     shuffled)
        assert main(["eval", str(run), str(shuffled), str(tmp_path / "eval")]) == 0
        assert (tmp_path / "eval" / "report.json").read_bytes() == (run / "report.json").read_bytes()

    @pytest.mark.parametrize("objective", ["magnet", "triplet"])
    def test_eval_on_fresh_data(self, tmp_path, objective):
        config = write_config(tmp_path, objective=objective)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        data = tmp_path / "data.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(data), "--seed", "4"]) == 0
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["metric"] == {"magnet": "knc", "triplet": "soft_knn"}[objective]
        assert report["error_rate"] < 0.2
        assert sum(map(sum, report["confusion"])) == 160

    def test_leaves_the_run_directory_unchanged(self, tmp_path):
        config = write_config(tmp_path, iterations=50)  # state at 40: eval re-runs 10
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        data = tmp_path / "data.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(data)]) == 0
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 0
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_state_before_the_last_boundary_refused(self, tmp_path, capsys, monkeypatch):
        # a run stopped at 45 of 60 leaves the state of 40; eval would re-run 20
        config = write_config(tmp_path)
        outdir = tmp_path / "out"
        step = training._Step.step

        def stop_at_45(self, iteration, rng):
            if iteration == 45:
                raise ContractError("stopped")
            return step(self, iteration, rng)

        with monkeypatch.context() as patch:
            patch.setattr(training._Step, "step", stop_at_45)
            assert main(["train", str(config), str(outdir)]) == 1
        data = tmp_path / "data.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (
            f"error: {outdir}: the saved state is at iteration 40 of 60; "
            "finish the run with `train --resume` first\n")
        assert not (tmp_path / "eval").exists()
        # finishing the run in place lets eval read it
        assert main(["train", str(config), str(outdir), "--resume", str(outdir)]) == 0
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 0

    @pytest.mark.parametrize("objective", sorted(CONFIGS))
    def test_dataset_of_another_width_errors(self, tmp_path, capsys, objective):
        # ncm and ncmc used to end in numpy's raw matmul ValueError
        layer_dims = "2,8" if objective in ("ncm", "ncmc") else "2,16,8"
        config = write_config(tmp_path, objective=objective, layer_dims=layer_dims,
                              iterations=20, batch_size=8)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        data = tmp_path / "data.csv"
        data.write_text("label,f0\n0,1.0\n1,2.0\n")
        capsys.readouterr()
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (
            "error: the test set has dimension 1, the training set has 2\n")
        assert not (tmp_path / "eval").exists()

    def test_dataset_of_another_class_count_errors(self, tmp_path, capsys):
        # without raw label 20 the file numbers 30 and 40 as classes 1 and 2,
        # not 2 and 3: every point of them was counted as misclassified
        _, run = train_pin_run(tmp_path, "nca", 120)
        rows = (tmp_path / "pins.csv").read_text().splitlines(keepends=True)
        data = tmp_path / "data.csv"
        data.write_text("".join(r for r in rows if not r.startswith("20,")))
        capsys.readouterr()
        assert main(["eval", str(run), str(data), str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (
            "error: the test set has 3 classes, the training set has 4\n")
        assert not (tmp_path / "eval").exists()

    def test_dataset_with_a_label_the_run_never_saw_errors(self, tmp_path, capsys):
        # with raw label 40 in place of 10, the file numbers 20, 30 and 40 as
        # classes 0, 1 and 2, not 1, 2 and a new one: eval exited 0 with
        # error_rate 1.0 for points the run tells apart
        rng = np.random.default_rng(0)
        centers = {10: [0.0, 0.0], 20: [4.0, 0.0], 30: [0.0, 4.0]}
        data = tmp_path / "data.csv"
        data.write_text("label,f0,f1\n" + "".join(
            f"{raw},{x!r},{y!r}\n" for raw, center in centers.items()
            for x, y in (center + 0.5 * rng.standard_normal((60, 2))).tolist()))
        config = write_config(tmp_path, objective="nca", mixture_spec=None, dataset=data,
                              iterations=100, batch_size=16)
        run = tmp_path / "run"
        assert main(["train", str(config), str(run)]) == 0
        relabelled = tmp_path / "relabelled.csv"
        relabelled.write_text(data.read_text().replace("\n10,", "\n40,"))
        capsys.readouterr()
        assert main(["eval", str(run), str(relabelled), str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (
            "error: the test set has labels [40] that the training set does not have\n")
        assert not (tmp_path / "eval").exists()

    # was a truncated checkpoint.bin, which eval no longer reads
    @pytest.mark.parametrize("cut", [10, 40, None])
    def test_truncated_or_missing_state_errors(self, tmp_path, capsys, cut):
        config = write_config(tmp_path, iterations=20)
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        state = outdir / "training_state.json"
        if cut is None:
            state.unlink()
        else:
            state.write_bytes(state.read_bytes()[:cut])
        data = tmp_path / "data.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "training_state.json" in err or "bad training state" in err
        assert not (tmp_path / "eval").exists()

    # softmax and ncmc each used to exit 0 with the argmax or argmin of NaN
    # rows as its predictions, and a report that held "sigma2": NaN; magnet
    # escaped main as numpy's "Probabilities contain NaN" from K-means, and
    # triplet and nca blamed the config's sigma2 after three numpy warnings
    @pytest.mark.parametrize("objective, layer_dims, fault", [
        ("softmax", "2,16,8", "softmax logits"),
        ("ncmc", "2,8", "NCM distances"),
        ("magnet", "2,16,8", "the model's embeddings"),
        ("triplet", "2,16,8", "the model's embeddings"),
        ("nca", "2,16,8", "the model's embeddings"),
    ])
    def test_overflowing_weights_refused(self, tmp_path, capsys, objective, layer_dims, fault):
        config = write_config(tmp_path, objective=objective, layer_dims=layer_dims,
                              iterations=20, batch_size=8)  # the state is the run's end
        outdir = tmp_path / "out"
        assert main(["train", str(config), str(outdir)]) == 0
        path = outdir / "training_state.json"
        state = json.loads(path.read_text())
        models = [state, state["head"]] if objective == "softmax" else [state]
        for model in models:  # finite weights whose products overflow
            model["weights"] = [_pack(_unpack(w, "weights") * 1e300) for w in model["weights"]]
        path.write_text(json.dumps(state))
        data = tmp_path / "data.csv"
        assert main(["gen-data", str(write_spec(tmp_path)), str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", str(outdir), str(data), str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == f"error: {fault} are not finite\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("option", [["--objective", "magnet"], ["--k", "2"],
                                        ["--sigma2", "1"], ["--train-dataset", "d.csv"]])
    def test_takes_no_options(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "run", "data.csv", str(tmp_path / "eval"), *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBench:
    def test_identical_configs_ratio_one(self, tmp_path):
        config = write_config(tmp_path)
        outdir = tmp_path / "bench"
        rc = main(["bench", str(config), str(config), "--target", "0.45",
                   "--outdir", str(outdir)])
        assert rc == 0
        rows = json.loads((outdir / "bench.json").read_text())
        assert len(rows) == 2
        assert rows[0]["iterations_to_target"] == rows[1]["iterations_to_target"]
        assert rows[1]["ratio_to_first"] == 1.0

    def test_unreachable_target_never(self, tmp_path, capsys):
        config = write_config(tmp_path, iterations=20)
        rc = main(["bench", str(config), "--target", "-1.0"])
        assert rc == 0
        assert "never" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_rejected(self, tmp_path, capsys, target):
        # nan used to print "never" for every objective and exit 0
        config = write_config(tmp_path, iterations=20)
        assert main(["bench", str(config), f"--target={target}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --target must be finite")


class TestGradCheck:
    def test_default_passes(self, capsys):
        # a change to any check's inputs (data, rng draws, step settings) moves these
        assert main(["grad-check"]) == 0
        assert capsys.readouterr().out == (
            "magnet   pass  max_rel_err=5.522e-08 checked=200 skipped=0\n"
            "nca      pass  max_rel_err=1.110e-05 checked=200 skipped=0\n"
            "ncm      pass  max_rel_err=1.426e-08 checked=200 skipped=0\n"
            "softmax  pass  max_rel_err=8.789e-09 checked=200 skipped=0\n"
            "triplet  pass  max_rel_err=5.106e-09 checked=200 skipped=0\n")

    def test_config_layer_dims_pass(self, tmp_path, capsys):
        assert main(["grad-check", str(write_config(tmp_path, layer_dims="2,5,3"))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            [name, "pass"] for name in ("magnet", "nca", "ncm", "softmax", "triplet")]

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_tolerance_not_positive_and_finite_rejected(self, capsys, tolerance):
        # nan and -1 used to print FAIL for five correct gradients; inf passed anything
        assert main(["grad-check", "--tolerance", tolerance]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --tolerance must be positive and finite")

    def test_bad_optimizer_config_errors(self, tmp_path, capsys):
        config = write_config(tmp_path, learning_rate=0)
        assert main(["grad-check", str(config)]) == 1
        assert capsys.readouterr() == ("", "error: learning_rate must be positive\n")

    @pytest.mark.parametrize("objective", sorted(CONFIGS))
    def test_empty_layer_dims_errors(self, tmp_path, capsys, objective):
        # used to escape as a raw IndexError at layer_dims[0], whatever the objective
        config = write_config(tmp_path, objective=objective, layer_dims="")
        assert main(["grad-check", str(config)]) == 1
        assert capsys.readouterr() == (
            "", "error: layer_dims must be a non-empty list of sizes >= 1\n")

    def test_bad_eval_l_errors(self, tmp_path, capsys):
        # eval_l = 0 used to pass every check and fail only at a run's first eval
        config = write_config(tmp_path, eval_l=0)
        assert main(["grad-check", str(config)]) == 1
        assert capsys.readouterr() == ("", "error: eval_l must be >= 1\n")
