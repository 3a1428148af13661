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
