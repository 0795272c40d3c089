"""End-to-end CLI tests: exit codes, file outputs, determinism, CSV forms."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlab.cli import main
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
    # an eps whose square underflows, and ranges whose squared widths overflow
    for argv, param in (
        (["bounds", "eval", "--name", "blocklength", "--params",
          '{"eps": 1e-300, "k": 2, "q": 2, "variant": "small-q"}'], "eps"),
        (["experiment", "corollary", "--variant", "small-q", "--q", "2",
          "--eps", "1/1" + "0" * 200, "--k", "2", "--draws", "1"], "eps"),
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
    _wrong_values.filter(lambda v: v is not None).map(
        lambda v: {**VALID_CODE, "field": {"q": 4, "poly": v}}
    ),
).flatmap(lambda doc: st.sampled_from([doc, {"results": {"code": doc}}]))

_bad_params = st.sampled_from(sorted(VALID_PARAMS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.one_of(
            _non_objects,
            _without(VALID_PARAMS[name]),
            _retyped(VALID_PARAMS[name], VALID_PARAMS[name], _non_numbers),
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
def test_malformed_code_documents_are_usage_errors(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("bad") / "code.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = _usage_error(["code", "info", "--code", str(path)])
    assert err.startswith("error: ") and err.count("\n") == 1


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
])
def test_counts_below_one_are_usage_errors(rs_path, argv, name):
    err = _usage_error([*argv, "--code", rs_path])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
