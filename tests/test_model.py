import json

import pytest

from csviu import CriterionConfig, ModelError, SystemModel, load_model
from csviu.model import NOISE_KINDS
from csviu.simulator import draw_noise_block

import support


def test_load_scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    data = dict(support.SCALAR_DATA)
    data["criterion"] = {"alpha": 0.9, "kappa": 50, "paths": 200, "seed": 7, "omega": 1.2}
    path.write_text(json.dumps(data))
    model = load_model(path)
    assert (model.n, model.m, model.p, model.r) == (1, 1, 1, 1)
    assert model.A[0, 0] == 0.5
    assert model.sigma_bar_u[0, 0] == 0.4
    assert model.criterion.alpha == 0.9
    assert model.criterion.kappa == 50
    assert model.criterion.sor_omega == 1.2


def test_missing_noise_matrices_default_to_zero():
    model = SystemModel.from_dict({"A": [[0.5, 0.1], [0.0, 0.3]], "B": [[1.0], [0.5]],
                                   "C": [[1.0, 0.0]], "D": [[1.0]]})
    assert model.sigma.shape == (2, 1)
    assert not model.sigma.any()
    assert not model.sigma_bar_x.any()
    assert model.criterion is None


def test_shape_mismatch_names_offending_field():
    data = dict(support.SCALAR_DATA, sigma_u=[[0.1], [0.2]])
    with pytest.raises(ModelError, match="sigma_u"):
        SystemModel.from_dict(data)


def test_non_finite_entries_rejected():
    with pytest.raises(ModelError, match="A"):
        SystemModel.from_dict(dict(support.SCALAR_DATA, A=float("nan")))


def test_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelError, match="JSON"):
        load_model(bad)
    with pytest.raises(ModelError, match="cannot read"):
        load_model(tmp_path / "absent.json")


def test_criterion_validation():
    with pytest.raises(ModelError):
        CriterionConfig(alpha=0.0)
    with pytest.raises(ModelError):
        CriterionConfig(sor_omega=2.0)
    with pytest.raises(ModelError):
        CriterionConfig(paths=0)
    cfg = CriterionConfig(alpha=1.1, kappa=None)
    assert cfg.kappa is None


def test_noise_model_kinds():
    model = support.scalar_model()
    for kind in NOISE_KINDS:
        assert draw_noise_block(model, 2, 1, 0, kind).shape == (1, 2, 3)
    with pytest.raises(ValueError, match="unknown noise kind"):
        draw_noise_block(model, 2, 1, 0, "cauchy")
