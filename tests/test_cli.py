"""End-to-end CLI tests: exit codes, file outputs, determinism, CSV forms."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import listlab
from listlab import cli, oracle, plurality
from listlab.bounds import _real
from listlab.cli import main
from listlab.linear_code import lex_digits
from listlab.oracle import certificate_from_json_dict
from listlab.reports import REPO_CSV_COLUMNS, canonical_bytes


@pytest.fixture
def rs_path(tmp_path):
    path = tmp_path / "rs.json"
    assert main([
        "code", "make", "--kind", "rs", "--q", "5", "--k", "2",
        "--evals", "0,1,2,3", "--out", str(path),
    ]) == 0
    return str(path)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_code_make_info_serialize(rs_path, tmp_path):
    doc = read(rs_path)
    assert doc["schema"] == 1 and doc["command"] == "code make"
    assert doc["results"]["info"]["min_distance"] == "3/4"
    info_path = tmp_path / "info.json"
    assert main(["code", "info", "--code", rs_path, "--out", str(info_path)]) == 0
    info = read(info_path)["results"]
    assert info["rank"] == 2 and info["size"] == 25 and info["n"] == 4
    ser_path = tmp_path / "ser.json"
    assert main(["code", "serialize", "--code", rs_path, "--out", str(ser_path)]) == 0
    assert read(ser_path)["results"]["code"] == doc["results"]["code"]


def test_field_command(tmp_path):
    out = tmp_path / "f.json"
    assert main(["field", "--q", "16", "--out", str(out)]) == 0
    res = read(out)["results"]
    assert res["characteristic"] == 2 and res["degree"] == 4 and res["poly"] == 0b10011


def test_oracle_check_exit_codes_and_certificate(rs_path, tmp_path):
    cert_path = tmp_path / "cert.json"
    rc = main([
        "oracle", "check", "--code", rs_path, "--radius", "1/2",
        "--list-bound", "2", "--out", str(cert_path),
    ])
    assert rc == 1
    cert = certificate_from_json_dict(read(cert_path)["results"]["certificate"])
    assert cert.verify()
    assert cert.verdict == "violated"
    assert cert.witness_received == (0, 0, 0, 1)
    assert main([
        "oracle", "check", "--code", rs_path, "--radius", "1/2",
        "--list-bound", "6", "--out", str(tmp_path / "ok.json"),
    ]) == 0
    # average-radius mode: a pair of codewords overfills radius 1/2
    rc_avg = main([
        "oracle", "check", "--code", rs_path, "--radius", "1/2", "--list-bound", "1",
        "--mode", "average-radius", "--out", str(tmp_path / "avg.json"),
    ])
    assert rc_avg == 1
    avg_cert = certificate_from_json_dict(read(tmp_path / "avg.json")["results"]["certificate"])
    assert avg_cert.verify()


def test_oracle_profile_csv_frozen(rs_path, tmp_path):
    out = tmp_path / "profile.csv"
    assert main([
        "oracle", "profile", "--code", rs_path, "--max-list-size", "5",
        "--format", "csv", "--out", str(out),
    ]) == 0
    assert out.read_text() == (
        "list_size,standard_radius,average_radius\n"
        "1,1/4,1/4\n2,1/4,1/4\n3,1/4,1/4\n4,1/4,1/2\n5,1/4,1/2\n"
    )


def test_bounds_table_and_eval(tmp_path):
    out = tmp_path / "table.csv"
    assert main([
        "bounds", "table", "--q-grid", "2,1048576", "--eps-grid", "2/5",
        "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(REPO_CSV_COLUMNS["bounds table"])
    assert lines[1].startswith("2,2/5,small-q,")
    assert lines[2].startswith("1048576,2/5,large-q,")
    # q * eps^2 = 1 exactly: not large-q, as the large-q corollary also says
    assert main([
        "bounds", "table", "--q-grid", "25", "--eps-grid", "1/5",
        "--format", "csv", "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[1].startswith("25,1/5,small-q,")
    assert main([
        "experiment", "corollary", "--variant", "large-q", "--q", "25", "--eps", "1/5",
        "--k", "2", "--draws", "1", "--n", "3",
    ]) == 2
    eval_out = tmp_path / "bound.json"
    assert main([
        "bounds", "eval", "--name", "gaussian-max",
        "--params", '{"sigma": 1.0, "n": 1000}', "--out", str(eval_out),
    ]) == 0
    assert read(eval_out)["results"]["bound"]["value"] == pytest.approx(3.9315848910168056)
    assert main(["bounds", "eval", "--name", "no-such", "--params", "{}"]) == 2


def test_plurality_commands(rs_path, tmp_path):
    out = tmp_path / "pl.json"
    assert main([
        "plurality", "profile", "--code", rs_path, "--messages", "0,1;1,2;2,3",
        "--out", str(out),
    ]) == 0
    res = read(out)["results"]
    assert len(res["pl"]) == 4 and all("/" in v or v.isdigit() for v in res["pl"])
    agr_out = tmp_path / "agr.json"
    assert main([
        "plurality", "maxagr", "--code", rs_path, "--messages", "0,1;1,2",
        "--out", str(agr_out),
    ]) == 0
    # these two codewords share no coordinate, so each contributes 1 per column
    assert read(agr_out)["results"]["total_agreement"] == 4
    q_out = tmp_path / "q.json"
    assert main([
        "plurality", "Q", "--code", rs_path, "--list-size", "3", "--out", str(q_out),
    ]) == 0
    mass = read(q_out)["results"]["mass"]
    assert mass["exact"] and not mass["lower_bound"]


def test_chain_commands(tmp_path):
    had_path = tmp_path / "had.json"
    assert main([
        "code", "make", "--kind", "hadamard", "--q", "3", "--k", "5",
        "--out", str(had_path),
    ]) == 0
    build_out = tmp_path / "net.json"
    assert main([
        "chain", "build", "--code", str(had_path), "--list-size", "64",
        "--eta", "0.5", "--seed", "7", "--out", str(build_out),
    ]) == 0
    net = read(build_out)["results"]["net"]
    assert net["success"] and len(net["levels"]) == 2
    trace_out = tmp_path / "net.csv"
    assert main([
        "chain", "build", "--code", str(had_path), "--list-size", "64",
        "--eta", "0.5", "--seed", "7", "--format", "csv", "--out", str(trace_out),
    ]) == 0
    lines = trace_out.read_text().splitlines()
    assert lines[0] == ",".join(REPO_CSV_COLUMNS["chain build"])
    assert len(lines) == 3 and lines[1].startswith("0,64,243,")


def test_chain_build_at_size_floor_is_one_level(tmp_path):
    # L = 64 <= c0: a degenerate chain runs no halving step
    had_path = tmp_path / "had.json"
    assert main([
        "code", "make", "--kind", "hadamard", "--q", "3", "--k", "5",
        "--out", str(had_path),
    ]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"constants": {"c0": 100}}))
    out = tmp_path / "net.json"
    assert main([
        "chain", "build", "--code", str(had_path), "--list-size", "64", "--eta", "0.5",
        "--config", str(cfg_path), "--out", str(out),
    ]) == 0
    net = read(out)["results"]["net"]
    assert net["params"]["degenerate"] and net["params"]["t_max"] == 0
    assert net["success"] and len(net["levels"]) == 1


def test_chain_mc_and_symmetrize(rs_path, tmp_path):
    conc_out = tmp_path / "conc.json"
    assert main([
        "chain", "mc", "--code", rs_path, "--list-size", "4", "--trials", "300",
        "--out", str(conc_out),
    ]) == 0
    assert read(conc_out)["results"]["concentration"]["mode"] == "exact"
    sup_out = tmp_path / "sup.json"
    assert main([
        "chain", "mc", "--check", "supremum", "--code", rs_path, "--list-size", "4",
        "--trials", "200", "--out", str(sup_out),
    ]) == 0
    assert read(sup_out)["results"]["supremum"]["q_hat_exact"]
    sym_out = tmp_path / "sym.json"
    assert main([
        "chain", "symmetrize", "--family", "sampled-hadamard", "--q", "3", "--k", "2",
        "--n", "6", "--list-size", "4", "--trials", "80", "--out", str(sym_out),
    ]) == 0
    assert read(sym_out)["results"]["symmetrization"]["lambda_family"] == "sampled"
    assert main([
        "chain", "symmetrize", "--family", "fixed", "--list-size", "3",
    ]) == 2  # fixed family without --code


def test_experiment_commands(tmp_path):
    cor_out = tmp_path / "cor.json"
    assert main([
        "experiment", "corollary", "--variant", "small-q", "--q", "5", "--eps", "1/2",
        "--k", "2", "--draws", "10", "--n", "4", "--out", str(cor_out),
    ]) == 0
    cor = read(cor_out)["results"]["experiment"]
    assert cor["measurements"]["successes"] == 10
    assert main([
        "experiment", "corollary", "--variant", "large-q", "--q", "9", "--eps", "1/4",
        "--k", "2", "--draws", "2", "--n", "3",
    ]) == 2
    bj_out = tmp_path / "bj.csv"
    assert main([
        "experiment", "beyond-johnson", "--q", "5", "--k", "2", "--n", "3",
        "--l-cap", "3", "--seeds-count", "2", "--format", "csv", "--out", str(bj_out),
    ]) == 0
    lines = bj_out.read_text().splitlines()
    assert lines[0] == ",".join(REPO_CSV_COLUMNS["experiment beyond-johnson"])
    assert len(lines) == 3


def test_suite_command(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["suite", "--scope", "galois", "--out", str(out)]) == 0
    res = read(out)["results"]["suite"]
    assert res["all_passed"] and res["total"] >= 1
    assert main(["suite", "--scope", "no-such-module"]) == 2


def test_usage_errors(rs_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["oracle", "check"])  # missing required flags
    assert main([
        "plurality", "maxagr", "--code", rs_path, "--messages", "0,1", "--format", "csv",
    ]) == 2  # no CSV form
    err = _usage_error([  # refused before the command runs, so before its --code is read
        "plurality", "maxagr", "--code", str(tmp_path / "missing.json"), "--messages", "0,1",
        "--format", "csv",
    ])
    assert "no CSV form" in err and err.count("\n") == 1
    assert main(["code", "info", "--code", str(tmp_path / "missing.json")]) == 2
    # an --out that cannot be written: a missing directory, or a directory
    for out in (tmp_path / "no" / "such" / "x.json", tmp_path):
        err = _usage_error(["field", "--q", "5", "--out", str(out)])
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main([
        "code", "make", "--kind", "rs", "--q", "5", "--k", "2",  # no --evals
    ]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"constants": {"C9": 1.0}}')
    assert main(["field", "--q", "4", "--config", str(bad_cfg)]) == 2
    # an alphabet of size 0 is out of range, not a division by zero
    for name, params in (
        ("capacity", '{"q": 0, "eps": 0.1}'),
        ("johnson-eps", '{"n": 5, "q": 0, "L": 2, "eps": 0.5, "pair_sum": 1.0}'),
        # numbers that do not convert to a finite float
        ("entropy", '{"q": 3, "x": 1%s}' % ("0" * 400)),
        ("capacity", '{"q": 3, "eps": Infinity}'),
        ("hoeffding", '{"ranges": [[0, NaN]], "v": 1}'),
        # sizes that are not JSON integers, and alphabets below 2
        ("entropy", '{"q": 2.5, "x": 0.5}'),
        ("capacity", '{"q": 2.5, "eps": 0.1}'),
        ("blocklength", '{"q": 2.5, "eps": 0.25, "variant": "small-q", "k": 2}'),
        ("blocklength", '{"q": 16, "eps": 0.25, "variant": "small-q", "k": 2.0}'),
        ("johnson-eps", '{"n": 5.5, "q": 3, "L": 2, "eps": 0.5, "pair_sum": 1.0}'),
        ("johnson-root", '{"n": 5, "L": 2.5, "pair_sum": 1.0}'),
        ("sampled-agreement", '{"E": 2.0, "L": 4, "N": 16.5}'),
        ("sampled-agreement", '{"E": 2.0, "L": 4, "N": 16, "q": 1}'),
        ("gaussian-max", '{"sigma": 1, "n": 1000.5}'),
    ):
        assert main(["bounds", "eval", "--name", name, "--params", params]) == 2
    # a zero denominator is a usage error, not a ZeroDivisionError
    for argv in (
        ["oracle", "check", "--code", rs_path, "--radius", "1/0", "--list-bound", "2"],
        ["experiment", "corollary", "--variant", "small-q", "--q", "5", "--eps", "1/0",
         "--k", "2"],
        ["bounds", "table", "--q-grid", "2", "--eps-grid", "1/4,1/0"],
    ):
        err = _usage_error(argv)
        assert err.startswith("error: ") and err.count("\n") == 1
    # an eps or eta whose square underflows, a q that overflows a float, ranges
    # whose squared widths overflow, and negative seeds
    for argv, param in (
        (["bounds", "eval", "--name", "blocklength", "--params",
          '{"eps": 1e-300, "k": 2, "q": 2, "variant": "small-q"}'], "eps"),
        (["experiment", "corollary", "--variant", "small-q", "--q", "2",
          "--eps", "1/1" + "0" * 200, "--k", "2", "--draws", "1"], "eps"),
        (["bounds", "table", "--q-grid", "2", "--eps-grid", "1e-300"], "eps"),
        (["bounds", "table", "--q-grid", "1" + "0" * 400, "--eps-grid", "1/4"],
         "alphabet size"),
        (["chain", "build", "--code", rs_path, "--list-size", "2", "--eta", "1e-300"], "eta"),
        (["suite", "--seed", "-3"], "seed"),
        (["chain", "mc", "--code", rs_path, "--list-size", "4", "--seed", "-1"], "seed"),
        (["bounds", "eval", "--name", "hoeffding", "--params",
          '{"ranges": [[0, 1e308], [0, 1e308]], "v": 1e308}'], "ranges"),
    ):
        err = _usage_error(argv)
        assert err.startswith("error: ") and err.count("\n") == 1 and param in err


def test_config_file_threads_through(rs_path, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "constants": {"C0": 0.002},
        "budgets": {"max_received_words": 100},
    }))
    out = tmp_path / "rep.json"
    rc = main([
        "experiment", "corollary", "--variant", "small-q", "--q", "5", "--eps", "1/2",
        "--k", "2", "--draws", "3", "--config", str(cfg_path), "--out", str(out),
    ])
    assert rc == 0
    rep = read(out)
    assert rep["params"]["config"]["constants"]["C0"] == 0.002
    assert rep["results"]["experiment"]["params"]["n"] <= 6
    # the tiny received-word budget makes the exhaustive oracle refuse
    assert main([
        "oracle", "check", "--code", rs_path, "--radius", "1/2", "--list-bound", "2",
        "--config", str(cfg_path),
    ]) == 2


@pytest.mark.parametrize("doc", [{"constants": 5}, {"defaults": None}, {"budgets": 7}])
def test_config_sections_that_are_not_objects_are_usage_errors(doc, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    err = _usage_error(["field", "--q", "5", "--config", str(path)])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("rate", ["nan", "2", "-0.5"])
def test_required_success_rate_outside_the_unit_interval_is_a_usage_error(rate):
    err = _usage_error([
        "experiment", "corollary", "--variant", "small-q", "--q", "5", "--eps", "1/2",
        "--k", "2", "--draws", "2", "--n", "4", f"--require-success-rate={rate}",
    ])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "success rate" in err


def test_reports_byte_identical_between_runs(tmp_path):
    pairs = []
    for i in range(2):
        out = tmp_path / f"det{i}.json"
        assert main([
            "code", "make", "--kind", "sample-rs", "--q", "7", "--k", "2", "--n", "5",
            "--seed", "3", "--out", str(out),
        ]) == 0
        pairs.append(canonical_bytes(read(out)))
    assert pairs[0] == pairs[1]


def test_stdout_emission(rs_path, capsys):
    assert main(["code", "info", "--code", rs_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["size"] == 25


# -- every exact command charges the --config budgets ----------------------------

TINY_BUDGETS = {"max_codewords": 1, "max_received_words": 1, "max_subsets": 1}
ONLY_CODEWORDS = dict(TINY_BUDGETS, max_codewords=1 << 22)
EXACT_COMMANDS = {
    "oracle-check-standard": ["oracle", "check", "--radius", "1/2", "--list-bound", "2"],
    "oracle-check-average": [
        "oracle", "check", "--radius", "1/2", "--list-bound", "2", "--mode", "average-radius",
    ],
    "oracle-profile": ["oracle", "profile", "--max-list-size", "3"],
    "plurality-Q": ["plurality", "Q", "--list-size", "3", "--mode", "exact"],
    "code-info": ["code", "info"],
    "chain-supremum": [
        "chain", "mc", "--check", "supremum", "--list-size", "4", "--trials", "50",
    ],
    "chain-concentration": ["chain", "mc", "--check", "concentration", "--list-size", "4"],
}


@pytest.mark.parametrize(
    "name, budgets",
    [pytest.param(name, TINY_BUDGETS, id=f"{name}-tiny") for name in EXACT_COMMANDS]
    + [
        pytest.param(name, ONLY_CODEWORDS, id=f"{name}-only-codewords")
        for name in EXACT_COMMANDS if name != "code-info"
    ],
)
def test_exact_commands_honour_config_budgets(name, budgets, rs_path, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"budgets": budgets}))
    out = tmp_path / "out.json"
    rc = main(EXACT_COMMANDS[name] + [
        "--code", rs_path, "--config", str(cfg_path), "--out", str(out),
    ])
    if name == "code-info":
        info = read(out)["results"]
        assert rc == 0 and info["min_distance"] is None
        assert info["min_distance_note"] == "row space has 25 codewords, budget 1"
    elif name == "chain-supremum" and budgets is ONLY_CODEWORDS:
        # both exact routes are over budget, so Q falls back to the sampled mass
        assert rc == 0
        assert read(out)["results"]["supremum"]["q_hat_exact"] is False
    elif name == "chain-concentration":
        # the 2^4 - 1 subsets are over max_subsets, so the moments are sampled
        assert rc == 0
        assert read(out)["results"]["concentration"]["mode"] == "sampled"
    else:
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


# -- malformed input files and arguments are usage errors ------------------------

VALID_CODE = {"field": {"q": 5}, "k": 2, "n": 4, "generator": [1, 1, 1, 1, 0, 1, 2, 3]}
VALID_PARAMS = {
    "entropy": {"q": 3, "x": 0.5},
    "johnson-eps": {"n": 5, "q": 3, "L": 2, "eps": 0.5, "pair_sum": 1.0},
    "blocklength": {"q": 16, "eps": 0.25, "variant": "small-q", "k": 2},
    "hoeffding": {"ranges": [[0, 1]], "v": 1},
}

_non_objects = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=3),
)
# bound params are real numbers, so only non-numbers are wrong for them
_non_numbers = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.text(max_size=2), min_size=1, max_size=3),
)
_wrong_values = st.one_of(_non_numbers, st.floats(allow_nan=False, allow_infinity=False))


def _without(valid: dict):
    keys = sorted(valid)
    return st.sets(st.sampled_from(keys), min_size=1).map(
        lambda drop: {k: v for k, v in valid.items() if k not in drop}
    )


def _retyped(valid: dict, keys, values=_wrong_values):
    return st.tuples(st.sampled_from(sorted(keys)), values).map(
        lambda kv: {**valid, kv[0]: kv[1]}
    )


_bad_codes = st.one_of(
    _non_objects,
    _without(VALID_CODE),
    _retyped(VALID_CODE, VALID_CODE),
    _retyped(VALID_CODE, ["provenance"]).filter(lambda d: d["provenance"] is not None),
    _wrong_values.map(lambda v: {**VALID_CODE, "field": {"q": v}}),
    # a negative bitmask has a degree too; -7 .. -4 pass the degree check
    st.one_of(_wrong_values.filter(lambda v: v is not None), st.integers(-7, -1)).map(
        lambda v: {**VALID_CODE, "field": {"q": 4, "poly": v}}
    ),
).flatmap(lambda doc: st.sampled_from([doc, {"results": {"code": doc}}]))

_bad_params = st.sampled_from(sorted(VALID_PARAMS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.one_of(
            _non_objects,
            _without(VALID_PARAMS[name]),
            # a fraction string is a real number too
            _retyped(VALID_PARAMS[name], VALID_PARAMS[name], _non_numbers.filter(
                lambda v: not isinstance(v, str) or _real(v) is None)),
        ),
    )
)


def _usage_error(argv) -> str:
    """Run main() and return its stderr, asserting exit 2 and no stdout."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        assert main(argv) == 2
    assert out.getvalue() == ""
    return err.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=_bad_codes)
@example(doc={**VALID_CODE, "field": {"q": 4, "poly": -7}})
def test_malformed_code_documents_are_usage_errors(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("bad") / "code.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = _usage_error(["code", "info", "--code", str(path)])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_eval_fraction_string(tmp_path):
    out = tmp_path / "b.json"
    params = '{"q": 8, "eps": "1/7", "variant": "small-q", "k": 2}'
    assert main(["bounds", "eval", "--name", "blocklength", "--params", params,
                 "--out", str(out)]) == 0
    assert read(out)["results"]["bound"]["value"] == 531868.0
    err = _usage_error(["bounds", "eval", "--name", "blocklength", "--params",
                        params.replace("1/7", "1/x")])
    assert err == "error: bound 'blocklength' got an invalid eps: '1/x'\n"


@settings(max_examples=150, deadline=None)
@given(case=_bad_params)
def test_malformed_bound_params_are_usage_errors(case):
    name, params = case
    err = _usage_error(["bounds", "eval", "--name", name, f"--params={json.dumps(params)}"])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["plurality", "profile"], ["plurality", "maxagr"], ["chain", "build"],
])
@pytest.mark.parametrize("messages,reason", [
    ("0,0;0,9", "9 is not an element of GF(5)"),
    ("0,0;0,-1", "-1 is not an element of GF(5)"),
    ("0,0,0;1,2,3", "length-k integer vectors"),
])
def test_messages_outside_the_field_are_usage_errors(rs_path, command, messages, reason):
    err = _usage_error([*command, "--code", rs_path, f"--messages={messages}"])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("argv, name", [
    (["plurality", "Q", "--list-size", "3", "--mode", "sampled", "--trials", "0"], "trials"),
    (["plurality", "Q", "--list-size", "3", "--mode", "sampled", "--trials", "-2"], "trials"),
    (["chain", "symmetrize", "--family", "fixed", "--list-size", "3", "--candidates", "0"],
     "candidates"),
    (["chain", "mc", "--check", "supremum", "--list-size", "3", "--candidates", "-1"],
     "candidates"),
    # the exact routes take no trials, but refuse a bad count all the same
    (["plurality", "Q", "--list-size", "3", "--trials", "0"], "trials"),
    (["chain", "mc", "--check", "concentration", "--list-size", "3", "--trials", "0"], "trials"),
])
def test_counts_below_one_are_usage_errors(rs_path, argv, name):
    err = _usage_error([*argv, "--code", rs_path])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err


def test_average_radius_check_refuses_a_received_word_sample(rs_path):
    # the average-radius oracle has no sampled scan
    err = _usage_error([
        "oracle", "check", "--code", rs_path, "--radius", "1/4", "--list-bound", "3",
        "--mode", "average-radius", "--sample-received", "40",
    ])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--sample-received" in err


@pytest.mark.parametrize("size", [[], ["--list-size", "2"]])
def test_supremum_check_refuses_a_message_set(rs_path, size):
    # the supremum experiment draws its own candidate sets of the list size
    err = _usage_error([
        "chain", "mc", "--check", "supremum", "--code", rs_path, "--messages", "0,1;1,2",
        *size, "--trials", "20",
    ])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--list-size" in err


def test_non_finite_result_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(cli, "_run", lambda args, cfg: ({"value": float("nan")}, None, 0))
    err = _usage_error(["field", "--q", "5"])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc, line", [
    # numpy's allocation failures subclass MemoryError and name the allocation
    (MemoryError("Unable to allocate 21.8 TiB"), "error: Unable to allocate 21.8 TiB\n"),
    (MemoryError(), "error: MemoryError\n"),  # as the interpreter raises it
])
def test_out_of_memory_is_a_usage_error(monkeypatch, exc, line):
    def run(args, cfg):
        raise exc

    monkeypatch.setattr(cli, "_run", run)
    assert _usage_error(["field", "--q", "5"]) == line


def test_candidate_sets_past_int64_message_indices_are_usage_errors():
    # 256^8 = 2^64 messages: their indices do not fit in an int64
    err = _usage_error([
        "chain", "symmetrize", "--family", "sampled-rs", "--q", "256", "--k", "8",
        "--n", "10", "--list-size", "3", "--trials", "2", "--candidates", "4",
    ])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--q 256" in err and "--k 8" in err and "2^63 - 1" in err


@pytest.mark.parametrize("q", ["0", "1", "-3"])
def test_corollary_field_order_out_of_range_is_a_usage_error(q):
    # refused before any eps check divides by q
    err = _usage_error([
        "experiment", "corollary", "--variant", "small-q", "--q", q, "--eps", "1/2", "--k", "2",
    ])
    assert err == f"error: field order {q} out of supported range [2, 2^16]\n"


# -- oracle verify: certificates read back from disk -------------------------------


def _saved_certificate(rs_path, tmp_path, name, *argv):
    path = tmp_path / f"{name}.json"
    main(["oracle", "check", "--code", rs_path, *argv, "--out", str(path)])
    return path


def _verify(path, *argv):
    return main(["oracle", "verify", "--certificate", str(path), *argv])


def test_oracle_verify_reads_saved_certificates(rs_path, tmp_path):
    # radius 0 in average-radius mode is proved from the minimum distance
    proved = _saved_certificate(
        rs_path, tmp_path, "proved", "--radius", "0", "--list-bound", "2",
        "--mode", "average-radius",
    )
    assert read(proved)["results"]["certificate"]["verdict"] == "decodable"
    out = tmp_path / "verified.json"
    assert _verify(proved, "--out", str(out)) == 0
    assert read(out)["results"]["verified"] is True
    # a bare certificate document verifies too, and so does a violation
    violated = _saved_certificate(rs_path, tmp_path, "bad", "--radius", "1/2", "--list-bound", "2")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(read(violated)["results"]["certificate"]))
    assert _verify(bare) == 0
    # the decodable re-check is a scan charged to the --config budgets
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_received_words": 100}}))
    assert _usage_error(["oracle", "verify", "--certificate", str(proved), "--config", str(cfg)])


def test_oracle_verify_rejects_forged_certificates(rs_path, tmp_path):
    violated = read(_saved_certificate(
        rs_path, tmp_path, "violated", "--radius", "1/2", "--list-bound", "1",
        "--mode", "average-radius",
    ))["results"]["certificate"]
    decodable = read(_saved_certificate(
        rs_path, tmp_path, "decodable", "--radius", "1/4", "--list-bound", "1",
        "--mode", "average-radius",
    ))["results"]["certificate"]
    assert violated["verdict"] == "violated" and decodable["verdict"] == "decodable"
    forged_decodable = {
        **violated, "verdict": "decodable", "witness_received": None, "witness_codewords": None,
    }
    # two codewords at total distance 3 from (0,0,0,0), not below 2 * 4 * 1/4 = 2
    forged_violated = {
        **decodable, "verdict": "violated", "witness_received": [0, 0, 0, 0],
        "witness_codewords": [[0, 0, 0, 0], [0, 1, 2, 3]],
    }
    for doc in (forged_decodable, forged_violated):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps({"results": {"certificate": doc}}))
        out = tmp_path / "forged-out.json"
        assert _verify(path, "--out", str(out)) == 1
        assert read(out)["results"]["verified"] is False


@pytest.mark.parametrize("text", [
    "not json", "[]", '{"verdict": "decodable"}',
    json.dumps({"results": {"certificate": {"code": VALID_CODE, "verdict": "violated"}}}),
])
def test_oracle_verify_malformed_documents_are_usage_errors(text, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(text)
    err = _usage_error(["oracle", "verify", "--certificate", str(path)])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_past_the_histogram_limit_exits_0_or_2(tmp_path, capsys, monkeypatch):
    # q^n * N = 2^57 comparisons fit this budget, but at n = 54 the scan's
    # packed histograms are not exact: the sampled supremum reroutes, the
    # exact commands refuse with a message
    code = tmp_path / "h54.json"
    assert main(["code", "make", "--kind", "sample-hadamard", "--q", "2", "--k", "3",
                 "--n", "54", "--seed", "1", "--out", str(code)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_received_words": 1 << 60, "max_subsets": 1}}))
    common = ["--code", str(code), "--config", str(cfg)]
    monkeypatch.setattr(plurality, "lex_digits", _small_digit_tables_only)
    out = tmp_path / "sup.json"
    assert main(["chain", "mc", "--check", "supremum", "--list-size", "3", "--trials", "20",
                 *common, "--out", str(out)]) == 0
    assert read(out)["results"]["supremum"]["q_hat_exact"] is False
    for argv, message in (
        (["oracle", "check", "--radius", "1/4", "--list-bound", "3"],
         "error: no exact packed histogram at length 54"),
        (["oracle", "check", "--radius", "1/4", "--list-bound", "2", "--mode", "average-radius"],
         "at length 54 > 53 or 56 subsets"),
        (["plurality", "Q", "--list-size", "3"], "at length 54 > 53 or 56 subsets"),
    ):
        assert main(argv + common) == 2
        assert message in capsys.readouterr().err


def _small_digit_tables_only(q, width, indices):
    # a scan that built its suffix table before checking the length would ask
    # for 2^27 words here
    assert np.size(indices) <= 1 << 16, f"lex_digits table of {np.size(indices)} words"
    return lex_digits(q, width, indices)


HUGE = str(10**20)


def test_profile_list_sizes_are_capped_by_the_codeword_budget(rs_path, tmp_path):
    # up to the configured cap every row past N = 25 reads radius 1; one more is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_codewords": 30}}))
    out = tmp_path / "profile.json"
    argv = ["oracle", "profile", "--code", rs_path, "--config", str(cfg)]
    assert main([*argv, "--max-list-size", "30", "--out", str(out)]) == 0
    rows = read(out)["results"]["profile"]
    assert len(rows) == 30 and all(r["standard_radius"] == "1" for r in rows[24:])
    err = _usage_error([*argv, "--max-list-size", "31"])
    assert err == ("error: max_list_size 31 exceeds the codeword budget 30: "
                   "every longer list decodes at radius 1\n")


# every list-size-like option at 10^20; each command must exit 0, 1 or 2 with
# no traceback, within the timeout and the address-space limit below (run in a
# child interpreter, so a command that loops over list sizes cannot take this
# process's memory)
_LIST_SIZE_CASES = [
    ["oracle", "profile", "--max-list-size", HUGE],
    ["oracle", "check", "--radius", "1/2", "--list-bound", HUGE],
    ["oracle", "check", "--radius", "1/2", "--list-bound", HUGE, "--mode", "average-radius"],
    ["plurality", "Q", "--list-size", HUGE],
    ["plurality", "Q", "--list-size", HUGE, "--mode", "greedy"],
    ["plurality", "Q", "--list-size", HUGE, "--mode", "sampled"],
    ["chain", "build", "--list-size", HUGE],
    ["chain", "mc", "--list-size", HUGE],
    ["chain", "mc", "--check", "supremum", "--list-size", HUGE],
    ["chain", "symmetrize", "--family", "fixed", "--list-size", HUGE],
]
_UNCODED_LIST_SIZE_CASES = [
    ["chain", "symmetrize", "--family", "sampled-rs", "--q", "5", "--k", "2", "--n", "4",
     "--list-size", HUGE],
    ["experiment", "beyond-johnson", "--q", "5", "--k", "2", "--n", "3", "--seeds-count", "1",
     "--l-cap", HUGE],
]
_GUARD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from listlab.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv, code, err.getvalue()]), flush=True)
"""


def test_huge_list_size_options_exit_promptly_without_a_traceback(rs_path, tmp_path):
    cases = [[*argv, "--code", rs_path] for argv in _LIST_SIZE_CASES] + _UNCODED_LIST_SIZE_CASES
    cases = [[*argv, "--out", str(tmp_path / f"{i}.json")] for i, argv in enumerate(cases)]
    # one BLAS thread: each more reserves tens of MB of the address space
    env = {**os.environ, "PYTHONPATH": str(Path(listlab.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    # one interpreter runs every case: a hang trips the timeout, a traceback
    # ends the run with it on stderr
    run = subprocess.run([sys.executable, "-c", _GUARD, json.dumps(cases)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    results = [json.loads(line) for line in run.stdout.splitlines()]
    assert [argv for argv, _, _ in results] == cases
    for argv, code, err in results:
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    # both profile commands refuse before they scan or build any row
    refusal = ("error: max_list_size 100000000000000000000 exceeds the codeword "
               "budget 4194304: every longer list decodes at radius 1\n")
    assert [r[1:] for r in results if "--max-list-size" in r[0] or "--l-cap" in r[0]] == (
        [[2, refusal]] * 2)


def test_oracle_modes_match_the_oracle_module():
    # the parser spells the modes out, so that building it imports no oracle
    parser = cli.build_parser()
    for name in ("oracle", "check"):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    mode = next(a for a in parser._actions if a.dest == "mode")
    assert mode.choices == (oracle.STANDARD, oracle.AVERAGE_RADIUS)
    assert mode.default == oracle.STANDARD


_FRESH = """
import contextlib, io, json, sys
import listlab
from listlab.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv

def loaded():
    return sorted(m.removeprefix("listlab.") for m in sys.modules if m.startswith("listlab."))

run(["bounds", "eval", "--name", "gaussian-max", "--params", '{"sigma": 1.0, "n": 1000}'])
print(json.dumps(["numpy" in sys.modules, loaded()]))
run(["code", "make", "--kind", "rs", "--q", "5", "--k", "2", "--evals", "0,1,2,3"])
print(json.dumps(loaded()))
for name in sys.argv[1:]:
    getattr(listlab, name)
print(json.dumps(loaded()))
"""


def test_a_fresh_interpreter_loads_only_the_modules_its_commands_run():
    # every CLI command starts a new interpreter, which pays for each module it
    # imports; bench/tracer.py reads every module as an attribute of the package
    modules = sorted(p.stem for p in Path(listlab.__file__).parent.glob("[!_]*.py"))
    env = {**os.environ, "PYTHONPATH": str(Path(listlab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _FRESH, *modules], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    after_bounds, after_code, after_getattr = map(json.loads, run.stdout.splitlines())
    assert after_bounds == [False, ["bounds", "cli", "config", "errors", "reports"]]
    assert after_code == ["bounds", "cli", "config", "errors", "galois", "linear_code",
                          "reports", "seeds"]
    assert after_getattr == modules
