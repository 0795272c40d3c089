"""Command-line interface.

Every command emits a versioned report envelope (schema 1) as JSON; tabular
commands can emit CSV instead. The canonical region of a JSON report (all
keys except "meta") is byte-identical across runs with the same arguments,
config, and seed. Exit codes: 0 success, 1 adverse verdict (a violated
certificate from a check command, a certificate that fails `oracle verify`,
a failed suite, or a missed required success rate), 2 usage errors and
infeasible requests.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .config import RunConfig, load_config
from .errors import InfeasibleError
from .reports import REPO_CSV_COLUMNS, build_report, emit, render_csv, render_json


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root seed (u64)")
    parser.add_argument("--config", help="JSON config: constants, budgets, defaults")
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _parse_messages(text: str):
    from .plurality import MessageSet

    groups = [g for g in text.split(";") if g.strip()]
    msgs = tuple(tuple(int(v) for v in g.split(",")) for g in groups)
    return MessageSet(msgs)


def _fraction(text: str, flag: str) -> Fraction:
    """Parse a fraction argument such as 1/2; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None


def _load_document(path: str, key: str) -> dict:
    """The JSON document at `path`, or its results[key] when it is a report."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and isinstance(doc.get("results"), dict) and key in doc["results"]:
        doc = doc["results"][key]
    return doc


def _load_code(path: str):
    from .linear_code import code_from_json_dict

    return code_from_json_dict(_load_document(path, "code"))


def _default_messages(code, size: int):
    from .plurality import MessageSet

    q, k = code.field.q, code.k
    if size > q**k:
        raise ValueError(f"list size {size} exceeds message count {q**k}")
    return MessageSet.from_indices(q, k, range(size))


def _resolve_messages(args, code):
    if getattr(args, "messages", None):
        return _parse_messages(args.messages)
    if getattr(args, "list_size", None):
        return _default_messages(code, args.list_size)
    raise ValueError("provide --messages or --list-size")


def _make_code(args, cfg: RunConfig):
    from .galois import field_new
    from .linear_code import full_rs_code, hadamard_code, puncture_code, rs_code, sample_code

    field = field_new(args.q)
    kind = args.kind
    if kind == "rs":
        if not args.evals:
            raise ValueError("rs codes need --evals")
        evals = [int(v) for v in args.evals.split(",")]
        return rs_code(field, args.k, evals)
    if kind == "full-rs":
        return full_rs_code(field, args.k)
    if kind == "hadamard":
        return hadamard_code(field, args.k)
    if kind in ("sample-rs", "sample-hadamard", "puncture-rs", "puncture-hadamard"):
        if args.n is None:
            raise ValueError(f"{kind} needs --n")
        parent = (
            full_rs_code(field, args.k)
            if kind.endswith("rs")
            else hadamard_code(field, args.k)
        )
        op = sample_code if kind.startswith("sample") else puncture_code
        return op(parent, args.n, seed=args.seed)
    raise ValueError(f"unknown code kind {kind!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="listlab", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    p_field = sub.add_parser("field", help="describe a finite field")
    p_field.add_argument("--q", type=int, required=True)
    _add_common(p_field)

    p_code = sub.add_parser("code", help="construct and inspect codes")
    code_sub = p_code.add_subparsers(dest="action", required=True)
    for action in ("make", "info", "serialize"):
        pc = code_sub.add_parser(action)
        if action == "make":
            pc.add_argument(
                "--kind",
                required=True,
                choices=(
                    "rs", "full-rs", "hadamard",
                    "sample-rs", "sample-hadamard",
                    "puncture-rs", "puncture-hadamard",
                ),
            )
            pc.add_argument("--q", type=int, required=True)
            pc.add_argument("--k", type=int, required=True)
            pc.add_argument("--evals", help="comma-separated evaluation points")
            pc.add_argument("--n", type=int, help="block length for sampled/punctured")
        else:
            pc.add_argument("--code", required=True, help="path to a code JSON file")
        _add_common(pc)

    p_oracle = sub.add_parser("oracle", help="list-decodability oracles")
    oracle_sub = p_oracle.add_subparsers(dest="action", required=True)
    po = oracle_sub.add_parser("check")
    po.add_argument("--code", required=True)
    po.add_argument("--radius", required=True, help="decoding radius, e.g. 1/2")
    po.add_argument("--list-bound", type=int, required=True)
    # oracle.STANDARD and oracle.AVERAGE_RADIUS, spelled out so that parsing imports no oracle
    po.add_argument("--mode", choices=("standard", "average-radius"), default="standard")
    po.add_argument("--sample-received", type=int, help="sampled scan instead of exhaustive")
    _add_common(po)
    pv = oracle_sub.add_parser("verify")
    pv.add_argument("--certificate", required=True, help="certificate or oracle check report")
    _add_common(pv)
    pp = oracle_sub.add_parser("profile")
    pp.add_argument("--code", required=True)
    pp.add_argument("--max-list-size", type=int, required=True)
    _add_common(pp)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds and rate tables")
    bounds_sub = p_bounds.add_subparsers(dest="action", required=True)
    pt = bounds_sub.add_parser("table")
    pt.add_argument("--q-grid", required=True, help="comma-separated field sizes")
    pt.add_argument("--eps-grid", required=True, help="comma-separated fractions")
    _add_common(pt)
    pe = bounds_sub.add_parser("eval")
    pe.add_argument("--name", required=True)
    pe.add_argument("--params", required=True, help="JSON object of arguments")
    _add_common(pe)

    p_pl = sub.add_parser("plurality", help="plurality vectors and masses")
    pl_sub = p_pl.add_subparsers(dest="action", required=True)
    for action in ("profile", "maxagr", "Q"):
        pa = pl_sub.add_parser(action)
        pa.add_argument("--code", required=True)
        if action == "Q":
            pa.add_argument("--list-size", type=int, required=True)
            pa.add_argument("--mode", choices=("exact", "greedy", "sampled"), default="exact")
            pa.add_argument("--trials", type=int, default=200)
        else:
            pa.add_argument("--messages", required=True, help="e.g. 0,1;2,0")
        _add_common(pa)

    p_chain = sub.add_parser("chain", help="net hierarchy and its Monte Carlo checks")
    chain_sub = p_chain.add_subparsers(dest="action", required=True)
    pb = chain_sub.add_parser("build")
    pb.add_argument("--code", required=True)
    pb.add_argument("--messages")
    pb.add_argument("--list-size", type=int)
    pb.add_argument("--eta", type=float)
    pb.add_argument("--retry-limit", type=int, default=200)
    _add_common(pb)
    pm = chain_sub.add_parser("mc")
    pm.add_argument("--code", required=True)
    pm.add_argument("--check", choices=("concentration", "supremum"), default="concentration")
    pm.add_argument("--messages")
    pm.add_argument("--list-size", type=int)
    pm.add_argument("--trials", type=int, default=2000)
    pm.add_argument("--candidates", type=int, default=16)
    _add_common(pm)
    ps = chain_sub.add_parser("symmetrize")
    ps.add_argument("--family", choices=("sampled-rs", "sampled-hadamard", "fixed"), required=True)
    ps.add_argument("--q", type=int)
    ps.add_argument("--k", type=int)
    ps.add_argument("--n", type=int)
    ps.add_argument("--code", help="for --family fixed")
    ps.add_argument("--list-size", type=int, required=True)
    ps.add_argument("--trials", type=int, default=200)
    ps.add_argument("--candidates", type=int, default=8)
    _add_common(ps)

    p_exp = sub.add_parser("experiment", help="desk-scale experiments")
    exp_sub = p_exp.add_subparsers(dest="action", required=True)
    pc = exp_sub.add_parser("corollary")
    pc.add_argument("--variant", choices=("small-q", "large-q"), required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--eps", required=True, help="fraction, e.g. 1/4")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--draws", type=int, default=50)
    pc.add_argument("--n", type=int, help="override the derived block length")
    pc.add_argument("--allow-sampled", action="store_true")
    pc.add_argument("--require-success-rate", type=float)
    _add_common(pc)
    pj = exp_sub.add_parser("beyond-johnson")
    pj.add_argument("--q", type=int, default=7)
    pj.add_argument("--k", type=int, default=2)
    pj.add_argument("--n", type=int, default=5)
    pj.add_argument("--l-cap", type=int, default=6)
    pj.add_argument("--seeds-count", type=int, default=20)
    _add_common(pj)

    p_suite = sub.add_parser("suite", help="run the invariant suite")
    p_suite.add_argument("--scope", default="all")
    _add_common(p_suite)

    return top


def _code_info(code, cfg: RunConfig) -> dict:
    info = {
        "q": code.field.q,
        "n": code.n,
        "rows": code.k,
        "rank": code.rank(),
        "size": code.size,
        "rate": code.k / code.n,
        "provenance": code.provenance,
    }
    try:
        info["min_distance"] = str(code.min_distance_exact(budgets=cfg.budgets))
    except (InfeasibleError, ValueError) as exc:
        info["min_distance"] = None
        info["min_distance_note"] = str(exc)
    return info


# One runner per command group. Every CLI command starts a fresh interpreter,
# which pays to import each module it loads, so a runner imports the listlab
# modules its group calls when it runs, and this module loads only config,
# errors and reports.


def _run_field(args, cfg: RunConfig):
    from .galois import field_new

    f = field_new(args.q)
    info = {
        "q": f.q,
        "kind": f.kind,
        "characteristic": f.characteristic,
        "degree": f.degree,
        "poly": f.poly,
    }
    return info, None, 0


def _run_code(args, cfg: RunConfig):
    if args.action == "make":
        code = _make_code(args, cfg)
        return {"code": code.as_dict(), "info": _code_info(code, cfg)}, None, 0
    code = _load_code(args.code)
    if args.action == "info":
        return _code_info(code, cfg), None, 0
    return {"code": code.as_dict()}, None, 0


def _run_oracle(args, cfg: RunConfig):
    from .oracle import (
        AVERAGE_RADIUS,
        STANDARD,
        VIOLATED,
        ListDecQuery,
        certificate_from_json_dict,
        decoding_radius_profile,
        is_avg_radius_list_decodable,
        is_list_decodable,
    )

    if args.action == "check" and args.mode == AVERAGE_RADIUS and args.sample_received:
        raise ValueError("--sample-received applies to --mode standard only")
    if args.action == "verify":
        cert = certificate_from_json_dict(_load_document(args.certificate, "certificate"))
        verified = cert.verify(budgets=cfg.budgets)
        return {"certificate": cert.as_dict(), "verified": verified}, None, 0 if verified else 1
    code = _load_code(args.code)
    if args.action == "check":
        query = ListDecQuery(_fraction(args.radius, "--radius"), args.list_bound, args.mode)
        if args.mode == STANDARD:
            cert = is_list_decodable(
                code,
                query,
                budgets=cfg.budgets,
                sample_received=args.sample_received,
                seed=args.seed,
            )
        else:
            cert = is_avg_radius_list_decodable(code, query, budgets=cfg.budgets)
        code_result = 1 if cert.verdict == VIOLATED else 0
        return {"certificate": cert.as_dict()}, None, code_result
    profile = decoding_radius_profile(code, args.max_list_size, budgets=cfg.budgets)
    rows = [[r.list_size, str(r.standard_radius), str(r.average_radius)] for r in profile]
    return {"profile": [r.as_dict() for r in profile]}, rows, 0


def _run_bounds(args, cfg: RunConfig):
    from .bounds import (
        capacity_rate,
        capacity_rate_small_eps,
        evaluate_bound,
        is_large_q,
        rate_summary,
    )

    if args.action == "eval":
        params = json.loads(args.params)
        rep = evaluate_bound(args.name, params, cfg.constants)
        return {"bound": rep.as_dict()}, None, 0
    qs = [int(v) for v in args.q_grid.split(",")]
    epss = [_fraction(v, "--eps-grid") for v in args.eps_grid.split(",")]
    table = []
    for q in qs:
        for eps in epss:
            s = rate_summary(q, float(eps), cfg.constants)
            regime = "large-q" if is_large_q(q, eps) else "small-q"
            cap = capacity_rate(q, float(eps))
            cap_small = capacity_rate_small_eps(q, float(eps))
            row = {
                "q": q,
                "eps": str(eps),
                "regime": regime,
                "sampled_rate": s.rlc_rate,
                "rs_rate": s.rs_rate,
                "johnson_rate": s.johnson_rate,
                "capacity": cap,
                "capacity_small_eps": cap_small,
                "beats_johnson": s.beats_johnson,
            }
            table.append(row)
    return {"table": table}, [list(row.values()) for row in table], 0


def _run_plurality(args, cfg: RunConfig):
    from .plurality import max_agreement_sum, plurality_mass, plurality_profile

    code = _load_code(args.code)
    if args.action == "Q":
        mass = plurality_mass(
            code,
            args.list_size,
            args.mode,
            trials=args.trials,
            seed=args.seed,
            budgets=cfg.budgets,
        )
        return {"mass": mass.as_dict()}, None, 0
    lam = _parse_messages(args.messages)
    if args.action == "profile":
        prof = plurality_profile(code, lam)
        return (
            {
                "pl": [str(v) for v in prof.pl],
                "counts": list(prof.counts),
                "maximizers": list(prof.maximizers),
            },
            None,
            0,
        )
    total, witness = max_agreement_sum(code, lam)
    return {"total_agreement": total, "witness": list(witness)}, None, 0


def _run_chain(args, cfg: RunConfig):
    from .chaining import (
        build_nets,
        chain_params,
        concentration_check,
        gaussian_supremum_experiment,
        symmetrization_check,
    )
    from .galois import field_new
    from .plurality import CodeFamily

    if args.action == "symmetrize":
        if args.family == "fixed":
            if not args.code:
                raise ValueError("--family fixed needs --code")
            fam = CodeFamily("fixed", code=_load_code(args.code))
        else:
            if args.q is None or args.k is None or args.n is None:
                raise ValueError("sampled families need --q, --k, and --n")
            fam = CodeFamily(args.family, field=field_new(args.q), k=args.k, n=args.n)
        rep = symmetrization_check(
            fam, args.list_size, trials=args.trials, seed=args.seed,
            n_candidates=args.candidates,
        )
        return {"symmetrization": rep.as_dict()}, None, 0
    if args.action == "mc" and args.check == "supremum" and args.messages:
        raise ValueError("--check supremum draws its own message sets: use --list-size")
    code = _load_code(args.code)
    lam = _resolve_messages(args, code)
    if args.action == "build":
        params = chain_params(
            len(lam), cfg.constants, args.eta, retry_limit=args.retry_limit
        )
        res = build_nets(code, lam, seed=args.seed, params=params)
        rows = [
            [
                lv.level, lv.lam_size, len(lv.coords), str(lv.pl_sum),
                lv.q_bound, lv.retries, lv.step_distance, lv.width_rhs,
                lv.holder_lhs, lv.holder_rhs,
            ]
            for lv in res.levels
        ]
        return {"net": res.as_dict()}, rows, 0
    if args.check == "concentration":
        rep = concentration_check(
            code, lam, trials=args.trials, seed=args.seed, cfg=cfg.constants,
            budgets=cfg.budgets,
        )
        return {"concentration": rep.as_dict()}, None, 0
    rep = gaussian_supremum_experiment(
        code,
        len(lam),
        n_candidates=args.candidates,
        trials=args.trials,
        seed=args.seed,
        cfg=cfg.constants,
        budgets=cfg.budgets,
    )
    return {"supremum": rep.as_dict()}, None, 0


def _run_experiment(args, cfg: RunConfig):
    from .harness import experiment_beyond_johnson, experiment_corollary

    if args.action == "corollary":
        rep = experiment_corollary(
            args.variant,
            args.q,
            _fraction(args.eps, "--eps"),
            args.k,
            draws=args.draws,
            cfg=cfg.constants,
            seed=args.seed,
            budgets=cfg.budgets,
            n_override=args.n,
            allow_sampled=args.allow_sampled,
            require_success_rate=args.require_success_rate,
        )
        failed = rep.verdicts.get("passed") is False
        return {"experiment": rep.as_dict()}, None, 1 if failed else 0
    rep = experiment_beyond_johnson(
        q=args.q,
        k=args.k,
        n=args.n,
        l_cap=args.l_cap,
        n_seeds=args.seeds_count,
        seed=args.seed,
        budgets=cfg.budgets,
    )
    rows = [
        [
            r["seed_index"], r["distance"], r["johnson_radius"],
            r["johnson_clamped"],
            ";".join(r["standard_radii"]), ";".join(r["average_radii"]),
            ";".join(str(v) for v in r["beyond_at"]),
        ]
        for r in rep.measurements["rows"]
    ]
    return {"experiment": rep.as_dict()}, rows, 0


def _run_suite(args, cfg: RunConfig):
    from .harness import invariant_suite

    res = invariant_suite(args.scope, seed=args.seed)
    return {"suite": res.as_dict()}, None, 0 if res.passed else 1


_RUNNERS = {
    "field": _run_field,
    "code": _run_code,
    "oracle": _run_oracle,
    "bounds": _run_bounds,
    "plurality": _run_plurality,
    "chain": _run_chain,
    "experiment": _run_experiment,
    "suite": _run_suite,
}


def _run(args, cfg: RunConfig) -> tuple[dict, list[list] | None, int]:
    """Execute one parsed command.

    Returns (results, csv_rows, exit_code); csv_rows is None when the
    command has no tabular form (no entry in REPO_CSV_COLUMNS).
    """
    runner = _RUNNERS.get(args.group)
    if runner is None:
        raise ValueError(f"unknown command group {args.group!r}")
    return runner(args, cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    command = args.group + (f" {args.action}" if getattr(args, "action", None) else "")
    header = REPO_CSV_COLUMNS.get(command)
    if args.format == "csv" and header is None:
        print(f"error: {command} has no CSV form; use --format json", file=sys.stderr)
        return 2
    try:
        if args.seed < 0:  # every seed keys a numpy stream, which takes no negatives
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config) if args.config else RunConfig()
        results, rows, exit_code = _run(args, cfg)
        params = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("group", "action", "out", "format", "config") and v is not None
        }
        params["config"] = cfg.as_dict()
        report = build_report(
            command, params, results, meta={"wall_time_s": time.perf_counter() - start}
        )
        # a NaN or infinity in the report is a ValueError here, not a non-JSON token
        text = render_csv(header, rows) if args.format == "csv" else render_json(report)
    except (InfeasibleError, ValueError, OSError, MemoryError) as exc:
        # numpy's allocation failures subclass MemoryError; one raised by the
        # interpreter itself has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    try:
        emit(text, args.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
