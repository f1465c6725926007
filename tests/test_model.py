"""Config validation, occupancy bookkeeping, and JSON ingestion."""
import json

import numpy as np
import pytest

from aoisched.errors import (
    FractionError,
    IntegralityError,
    ParseError,
    RangeError,
)
from aoisched.model import (
    ClassSpec,
    NetworkConfig,
    OccupancyVector,
    config_from_dict,
    load_config,
    validate_config,
)


def two_class(n=10, alpha=0.5, l=6):
    return NetworkConfig(
        n=n, alpha=alpha, l=l,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.5)),
    )


def test_valid_config_passes_and_derives_sizes():
    cfg = validate_config(two_class())
    assert cfg.k == 2
    assert cfg.m == 5
    assert cfg.class_sizes() == (5, 5)
    assert cfg.p_vector().tolist() == [0.5, 0.8]
    assert cfg.gamma_vector().tolist() == [0.5, 0.5]


def test_alpha_out_of_range_rejected():
    for alpha in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(RangeError):
            validate_config(two_class(alpha=alpha))


def test_p_zero_rejected_p_one_allowed():
    with pytest.raises(RangeError):
        validate_config(NetworkConfig(
            n=4, alpha=0.5, l=4,
            classes=(ClassSpec(p=0.0, gamma=1.0),),
        ))
    validate_config(NetworkConfig(
        n=4, alpha=0.5, l=4, classes=(ClassSpec(p=1.0, gamma=1.0),),
    ))


def test_gamma_sum_mismatch_is_fraction_error():
    cfg = NetworkConfig(
        n=10, alpha=0.5, l=6,
        classes=(ClassSpec(p=0.5, gamma=0.5), ClassSpec(p=0.8, gamma=0.4)),
    )
    with pytest.raises(FractionError):
        validate_config(cfg)


def test_non_integral_budget_and_class_sizes():
    with pytest.raises(IntegralityError):
        validate_config(two_class(n=7))
    cfg = NetworkConfig(
        n=10, alpha=0.5, l=6,
        classes=(ClassSpec(p=0.5, gamma=0.55), ClassSpec(p=0.8, gamma=0.45)),
    )
    with pytest.raises(IntegralityError):
        validate_config(cfg)


def test_budget_must_leave_slack():
    # alpha close enough to 1 that m = n after rounding
    cfg = NetworkConfig(n=3, alpha=0.999999999999, l=4,
                        classes=(ClassSpec(p=0.5, gamma=1.0),))
    with pytest.raises(RangeError):
        validate_config(cfg)


def test_l_must_be_at_least_two():
    with pytest.raises(RangeError):
        validate_config(NetworkConfig(
            n=4, alpha=0.5, l=1, classes=(ClassSpec(p=0.5, gamma=1.0),),
        ))


def test_occupancy_vector_is_write_protected():
    z = OccupancyVector(z=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        z.z[0, 0] = 1.0


def test_config_from_dict_strict_keys():
    doc = {"n": 4, "alpha": 0.5, "l": 4,
           "classes": [{"p": 0.5, "gamma": 1.0}]}
    cfg = config_from_dict(doc)
    assert cfg.m == 2
    for bad in (
        {**doc, "extra": 1},
        {k: v for k, v in doc.items() if k != "l"},
        {**doc, "classes": [{"p": 0.5, "gamma": 1.0, "x": 2}]},
        {**doc, "classes": []},
        {**doc, "n": 4.0},
        {**doc, "n": True},
        {**doc, "alpha": "0.5"},
        {**doc, "classes": [{"p": True, "gamma": 1.0}]},
    ):
        with pytest.raises(ParseError):
            config_from_dict(bad)


def test_load_config_roundtrip(tmp_path):
    doc = {"n": 10, "alpha": 0.5, "l": 6,
           "classes": [{"p": 0.5, "gamma": 0.5}, {"p": 0.8, "gamma": 0.5}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg == two_class()
    with pytest.raises(ParseError):
        load_config(tmp_path / "missing.json")
    (tmp_path / "broken.json").write_text("{")
    with pytest.raises(ParseError):
        load_config(tmp_path / "broken.json")
