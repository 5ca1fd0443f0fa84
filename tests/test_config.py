"""Configuration precedence: flags beat files beat dataset defaults."""

import json

import pytest

from ciprec import config


def test_dataset_defaults_frozen():
    d = config.DATASET_DEFAULTS["ml-100k"]
    assert (d["delta_h"], d["delta"], d["k_users"], d["k_items"]) == (10, 60, 50, 30)
    assert (d["window"], d["top_n"], d["min_weight"]) == (5, 10, 30)
    assert (d["n_train"], d["n_valid"], d["n_test"]) == (75000, 5000, 20000)
    assert d["fmt"] == "ml-tab"
    m = config.DATASET_DEFAULTS["ml-1m"]
    assert m["delta_h"] == 30 and m["fmt"] == "ml-dcolon"
    assert m["n_train"] == 970209
    c = config.DATASET_DEFAULTS["ciao"]
    assert c["delta"] == 6000 and c["min_weight"] == 2 and c["fmt"] == "csv"
    assert (c["n_train"], c["n_valid"], c["n_test"]) == (19396, 1000, 2000)


def test_resolve_precedence():
    cfg = config.resolve("ml-100k",
                         {"delta": 120, "k_users": 40},
                         {"k_users": 45, "top_n": None})
    assert cfg.delta == 120          # file beats dataset default (60)
    assert cfg.k_users == 45         # flag beats file (40)
    assert cfg.top_n == 10           # None overrides are ignored
    assert cfg.delta_h == 10         # untouched dataset default


def test_resolve_validation():
    with pytest.raises(ValueError):
        config.resolve("nope")
    with pytest.raises(ValueError):
        config.resolve(None, None, {"model": "bogus"})
    assert config.resolve(None, None, {"model": "cip-u"}).model == "cip-u"


def test_config_file_delta_minutes(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"delta_minutes": 2, "k_items": 7}))
    data = config.load_config_file(p)
    assert data["delta"] == 120 and "delta_minutes" not in data
    assert config.resolve(None, data).delta == 120


def test_config_file_refuses_both_pack_gaps(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"delta": 90, "delta_minutes": 2}))
    with pytest.raises(ValueError, match=r"run\.json.*'delta' and 'delta_minutes'"):
        config.load_config_file(p)


def test_config_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"wat": 1}))
    with pytest.raises(ValueError):
        config.load_config_file(p)
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        config.load_config_file(p)


@pytest.mark.parametrize("key, value", [("batch_q", 2.5), ("k_items", "5"), ("seed", True),
                                        ("delta_minutes", 1.5), ("delta", None),
                                        ("lr", "0.1"), ("model", 3)])
def test_config_file_rejects_a_value_of_the_wrong_type(tmp_path, key, value):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({key: value}))
    with pytest.raises(ValueError) as err:
        config.load_config_file(p)
    assert repr(key) in str(err.value) and str(p) in str(err.value)


def test_config_file_takes_ints_for_floats_and_null_for_optional_fields(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"lr": 1, "min_weight": 2.5, "n_train": None, "model": "cip-i"}))
    assert config.load_config_file(p) == {"lr": 1, "min_weight": 2.5, "n_train": None,
                                          "model": "cip-i"}
