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
