"""``check_all_objectives`` differentiates the objectives that training runs."""

import numpy as np
import pytest

from magnetdml.gradcheck import check_all_objectives, grad_check
from magnetdml.model import EmbeddingModel
from magnetdml.training import _STEPS

# report name -> the objective whose step class it checks
REPORTED = {"magnet": "magnet", "triplet": "triplet", "nca": "nca",
            "softmax": "softmax", "ncm": "ncmc"}


@pytest.mark.parametrize("name", sorted(REPORTED))
def test_a_wrong_training_gradient_fails_its_check(name, monkeypatch):
    cls = _STEPS[REPORTED[name]]
    objective = cls.objective

    def doubled(self, model, batch):
        loss, (w_grads, b_grads), kinks, out = objective(self, model, batch)
        return loss, ([2 * g for g in w_grads], [2 * g for g in b_grads]), kinks, out

    monkeypatch.setattr(cls, "objective", doubled)
    reports = check_all_objectives()
    assert not reports[name].passed
    assert all(r.passed for n, r in reports.items() if n != name)


def test_coordinates_near_a_kink_are_skipped():
    """The one kink sits at 0.5, exactly ``kink_margin``: the two parameters
    that move it (W[0, 0] and b[0]) bring it inside the margin and are skipped;
    the four that leave it in place are checked."""
    model = EmbeddingModel([2, 2], seed=0)
    model.weights[0][:] = [[0.5, 0.3], [-0.2, 0.7]]
    x = np.array([[1.0, 0.0]])

    def objective(m):
        reps, trace = m.forward(x)
        return float((reps * reps).sum()), m.backward(trace, 2.0 * reps), [reps[:, 0]]

    report = grad_check(model, objective, num_coords=6, kink_margin=0.5)
    assert report.skipped == 2
    assert report.checked + report.skipped == 6
    assert report.passed


def test_a_kink_the_perturbation_leaves_in_place_skips_nothing():
    """A 4 -> 6 -> 3 MLP whose smallest hidden pre-activation lies just inside
    ``kink_margin``: only the five parameters of its unit (four weights and a
    bias) move it and are skipped; the other 46 are checked."""
    model = EmbeddingModel([4, 6, 3], seed=0)
    x = np.random.default_rng(0).standard_normal((5, 4))

    def objective(m):
        reps, trace = m.forward(x)
        return float((reps * reps).sum()), m.backward(trace, 2.0 * reps), trace.preacts[:-1]

    smallest = np.abs(model.forward(x)[1].preacts[0]).min()
    report = grad_check(model, objective, kink_margin=1.001 * smallest)
    assert (report.checked, report.skipped) == (46, 5)
    assert report.passed


def test_no_objective_skips_a_coordinate_at_the_default_margin():
    assert all(r.skipped == 0 and r.passed for r in check_all_objectives().values())


def restore_case():
    """A 3 -> 4 -> 2 MLP, a quadratic objective that counts its calls and
    the identity and bytes of every weight and bias before grad_check."""
    model = EmbeddingModel([3, 4, 2], seed=0)
    x = np.random.default_rng(0).standard_normal((5, 3))
    calls = []

    def objective(m):
        calls.append(None)
        reps, trace = m.forward(x)
        return float((reps * reps).sum()), m.backward(trace, 2.0 * reps), trace.preacts[:-1]

    arrays = model.weights + model.biases
    return model, objective, calls, arrays, [a.tobytes() for a in arrays]


def assert_restored(model, arrays, before):
    now = model.weights + model.biases
    assert len(now) == len(arrays) and all(a is b for a, b in zip(now, arrays))
    assert [a.tobytes() for a in now] == before


def test_grad_check_restores_every_parameter():
    model, objective, calls, arrays, before = restore_case()
    assert grad_check(model, objective).passed
    assert len(calls) == 1 + 2 * 26  # the analytic pass, then two per coordinate
    assert_restored(model, arrays, before)


@pytest.mark.parametrize("failing_call", [2, 3, 5])
def test_grad_check_restores_when_the_objective_raises(failing_call):
    """The 2nd call sees the first coordinate at +step, the 3rd at -step, the
    5th the second coordinate at -step: each leaves the model as it was and
    its exception reaches the caller."""
    model, objective, calls, arrays, before = restore_case()

    def failing(m):
        if len(calls) + 1 == failing_call:
            calls.append(None)
            raise RuntimeError("objective failed")
        return objective(m)

    with pytest.raises(RuntimeError, match="objective failed"):
        grad_check(model, failing)
    assert len(calls) == failing_call
    assert_restored(model, arrays, before)
