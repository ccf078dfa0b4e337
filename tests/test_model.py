import dataclasses
import json

import numpy as np
import pytest

from csviu import CriterionConfig, ModelError, SystemModel, load_model
from csviu.model import NOISE_KINDS
from csviu.simulator import draw_noise_block

import support


def test_load_scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    data = dict(support.SCALAR_DATA)
    data["criterion"] = {"alpha": 0.9, "kappa": 50, "paths": 200, "seed": 7}
    path.write_text(json.dumps(data))
    model = load_model(path)
    assert (model.n, model.m, model.p, model.r) == (1, 1, 1, 1)
    assert model.A[0, 0] == 0.5
    assert model.sigma_bar_u[0, 0] == 0.4
    assert model.criterion.alpha == 0.9
    assert model.criterion.kappa == 50


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


def test_ragged_matrix_is_named():
    # numpy's bare ValueError used to escape the conversion
    with pytest.raises(ModelError, match="^A must be an array of real numbers: "):
        SystemModel.from_dict(dict(support.SCALAR_DATA, A=[[1.0, 0.0], [0.0]]))


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
        CriterionConfig(paths=0)
    cfg = CriterionConfig(alpha=1.1, kappa=None)
    assert cfg.kappa is None


def test_noise_model_kinds():
    model = support.scalar_model()
    for kind in NOISE_KINDS:
        assert draw_noise_block(model, 2, 1, 0, kind).shape == (1, 2, 3)
    with pytest.raises(ValueError, match="unknown noise kind"):
        draw_noise_block(model, 2, 1, 0, "cauchy")


_MATRICES = ("A", "B", "C", "D", "sigma", "sigma_x", "sigma_bar_x", "sigma_u", "sigma_bar_u")
# every field away from its default
_FULL_CRITERION = CriterionConfig(alpha=0.9, kappa=25, paths=321, seed=11, tol_fixed_point=1e-9,
                                  tol_sor=1e-8, max_iters=5000)


@pytest.mark.parametrize("criterion", [None, _FULL_CRITERION], ids=["no-criterion", "full-criterion"])
def test_dict_and_file_round_trip(tmp_path, criterion):
    assert all(getattr(_FULL_CRITERION, f.name) != f.default for f in dataclasses.fields(CriterionConfig))
    model = dataclasses.replace(
        support.random_model(np.random.default_rng(3), n=3, m=2, r=2), criterion=criterion
    )
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    for back in (SystemModel.from_dict(model.to_dict()), load_model(path)):
        for name in _MATRICES:
            np.testing.assert_array_equal(getattr(back, name), getattr(model, name))
        assert back.criterion == criterion


class TestSchema:
    def test_unknown_model_key_is_rejected(self):
        # a misspelled sigma_bar_u used to drop the control growth noise silently
        with pytest.raises(ModelError, match=r"unknown model keys: \['sigma_baru'\]"):
            SystemModel.from_dict(dict(support.SCALAR_DATA, sigma_baru=0.4))

    @pytest.mark.parametrize("criterion", [{"kapa": 5}, {"omega": 1.2}], ids=["misspelled", "omega"])
    def test_unknown_criterion_key_is_rejected(self, criterion):
        # omega is a setting of the stand-alone stage solvers (sor_solve), not of a model
        key = next(iter(criterion))
        with pytest.raises(ModelError, match=rf"unknown criterion keys: \['{key}'\]"):
            SystemModel.from_dict(dict(support.SCALAR_DATA, criterion=criterion))

    @pytest.mark.parametrize("tolerances, match", [
        ({"sorr": 1e-3}, r"unknown tolerances keys: \['sorr'\]"),
        ([1], "tolerances must be an object, got list"),
    ], ids=["unknown-key", "list"])
    def test_bad_tolerances_block_is_rejected(self, tolerances, match):
        with pytest.raises(ModelError, match=match):
            SystemModel.from_dict(dict(support.SCALAR_DATA, criterion={"tolerances": tolerances}))

    @pytest.mark.parametrize("criterion, match", [
        ({"kappa": 2.5}, "kappa"), ({"paths": 2.7}, "paths"), ({"seed": 1.9}, "seed"),
        ({"max_iters": 3.5}, "max_iters"), ({"alpha": True}, "alpha"), ({"kappa": True}, "kappa"),
        ({"alpha": "0.9"}, "alpha"), ({"max_iters": "5000"}, "max_iters"), ({"seed": -3}, "seed"),
        ({"tolerances": {"sor": "1e-3"}}, "tol_sor"),
    ])
    def test_criterion_values_are_not_coerced(self, criterion, match):
        with pytest.raises(ModelError, match=match):
            SystemModel.from_dict(dict(support.SCALAR_DATA, criterion=criterion))

    @pytest.mark.parametrize("key, name", [("fixed_point", "tol_fixed_point"), ("sor", "tol_sor")])
    def test_infinite_tolerance_is_rejected_at_load(self, key, name):
        # JSON 1e999 reads as inf; an infinite fixed-point tolerance would stop the
        # Riccati iteration after one step with a wrong L
        data = json.loads(json.dumps(support.SCALAR_DATA)[:-1]
                          + f', "criterion": {{"tolerances": {{"{key}": 1e999}}}}}}')
        with pytest.raises(ModelError, match=f"{name} must be a finite positive real, got inf"):
            SystemModel.from_dict(data)

    @pytest.mark.parametrize("kwargs, match", [
        ({"paths": 2.5}, "paths"), ({"seed": -3}, "seed"), ({"tol_sor": "1e-3"}, "tol_sor"),
        ({"kappa": True}, "kappa"), ({"max_iters": float("nan")}, "max_iters"),
    ])
    def test_config_checks_types(self, kwargs, match):
        with pytest.raises(ModelError, match=match):
            CriterionConfig(**kwargs)

    def test_config_stores_ints_and_floats(self):
        cfg = CriterionConfig(alpha=1, kappa=50.0, paths=200.0)
        assert type(cfg.alpha) is float and cfg.alpha == 1.0
        assert type(cfg.kappa) is int and cfg.kappa == 50
        assert type(cfg.paths) is int and cfg.paths == 200

    @pytest.mark.parametrize("name", ["C", "D"])
    def test_null_optional_matrix_means_absent(self, name):
        absent = {k: v for k, v in support.SCALAR_DATA.items() if k != name}
        model = SystemModel.from_dict(dict(support.SCALAR_DATA, **{name: None}))
        np.testing.assert_array_equal(getattr(model, name), getattr(SystemModel.from_dict(absent), name))

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_null_required_matrix_is_missing(self, name):
        with pytest.raises(ModelError, match="must contain at least A and B"):
            SystemModel.from_dict(dict(support.SCALAR_DATA, **{name: None}))
