"""Tests for run configuration parsing and report envelopes."""

import json

import pytest

from listlab.config import (
    Budgets,
    RunConfig,
    budgets_from_dict,
    config_from_dict,
    load_config,
)
from listlab.reports import (
    REPO_CSV_COLUMNS,
    build_report,
    canonical_bytes,
    render_csv,
    render_json,
)


def test_budgets_defaults_and_validation():
    b = Budgets()
    assert b.max_codewords == 1 << 22
    assert b.max_received_words == 1 << 28
    assert b.max_subsets == 1 << 22
    with pytest.raises(ValueError):
        Budgets(max_codewords=0)
    with pytest.raises(ValueError):
        Budgets(max_subsets=-5)
    with pytest.raises(ValueError):
        budgets_from_dict({"max_codewords": 10, "max_words": 1})


def test_config_from_dict_round_trip():
    cfg = config_from_dict(
        {"constants": {"C0": 0.5, "c1": 32.0}, "budgets": {"max_subsets": 100}}
    )
    assert cfg.constants.C0 == 0.5 and cfg.constants.c1 == 32.0
    assert cfg.budgets.max_subsets == 100
    assert cfg.as_dict()["defaults"] == {"eta_rule": "1/log2(L)"}
    assert config_from_dict(cfg.as_dict()).as_dict() == cfg.as_dict()
    with pytest.raises(ValueError):
        config_from_dict({"extra": 1})
    with pytest.raises(ValueError):
        config_from_dict({"defaults": {"eta_rule": "constant"}})
    with pytest.raises(ValueError):
        config_from_dict({"defaults": {"other": 1}})


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"constants": {"C3": 2.0}}))
    cfg = load_config(str(path))
    assert cfg.constants.C3 == 2.0
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_report_envelope_and_canonical_bytes():
    rep = build_report("demo", {"q": 5}, {"value": 1}, meta={"wall_time_s": 0.5})
    assert rep["schema"] == 1
    base = canonical_bytes(rep)
    # meta changes never touch the canonical region
    other = build_report("demo", {"q": 5}, {"value": 1}, meta={"wall_time_s": 9.9})
    assert canonical_bytes(other) == base
    changed = build_report("demo", {"q": 5}, {"value": 2})
    assert canonical_bytes(changed) != base
    # canonical form is key-sorted and compact
    assert b'"command":"demo"' in base
    assert json.loads(render_json(rep)) == rep


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_report_values_are_refused(value):
    rep = build_report("demo", {"q": 5}, {"rows": [{"value": value}]})
    with pytest.raises(ValueError):
        canonical_bytes(rep)
    with pytest.raises(ValueError):
        render_json(rep)
    # meta is outside the canonical region, but render_json writes it too
    rep = build_report("demo", {"q": 5}, {"value": 1}, meta={"wall_time_s": value})
    assert canonical_bytes(rep)
    with pytest.raises(ValueError):
        render_json(rep)


def test_render_csv_and_column_registry():
    text = render_csv(["a", "b"], [[1, "x"], [2, "y"]])
    assert text == "a,b\n1,x\n2,y\n"
    for command, columns in REPO_CSV_COLUMNS.items():
        assert columns and all(isinstance(c, str) for c in columns), command
