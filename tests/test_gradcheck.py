"""``check_all_objectives`` differentiates the objectives that training runs."""

import pytest

from magnetdml.gradcheck import check_all_objectives
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
