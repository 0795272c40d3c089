"""Span tracing of listlab's public functions, from outside the package.

`Tracer.install` replaces every public function and public method of each
listlab module with a wrapper that records a span (name, start, end, parent
span, job id). A function is patched under every name that binds it, so
`oracle.agreement_block`, imported from `plurality`, is traced as
`plurality.agreement_block`. Generator functions get one span per `next()`.
Spans live in flat arrays until the run ends.

Work counters are read at the same boundaries, from arguments and results:
rows yielded by the two enumerators, m*N agreement cells, rng draws inside
`build_nets`, and the subsets the exact plurality-mass search evaluates.
Counts with an analytic value are checked per call; a mismatch is recorded
in `Tracer.failures`.

`plurality.subsets_visited` is a stand-in tied to how the subset search is
written: the search is a closure inside the private `_mass_by_subsets`, and
the one thing visible per visited subset is the single `sum` call its leaf
makes, so the tracer counts calls to `sum` as seen from the `plurality`
module. A rewrite of `_mass_by_subsets` that visits the same C(N, L) subsets
without that call (running totals, numpy batches) must update this counter
in the same change, or the traced run aborts on its C(N, L) check. The
wrapper also runs once per leaf and inflates the self time of
`plurality.plurality_mass.subsets`. A visit counter kept by listlab itself,
in the report's meta block, should replace it.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import inspect
import math
import time
from array import array
from collections import Counter

# Per-symbol arithmetic inside encoders, table builds and row reduction:
# a span per call would cost more than the call itself.
NOT_TRACED = frozenset({
    "galois.Field.add", "galois.Field.sub", "galois.Field.neg",
    "galois.Field.mul", "galois.Field.inv", "galois.Field.pow",
    "galois.poly_mul_gf2", "galois.poly_mod_gf2",
})

MODULES = (
    "galois", "linear_code", "plurality", "oracle", "chaining", "bounds",
    "harness", "reports", "cli", "config", "seeds",
)

# Span names per layer, as named in the benchmark's layer table; shares of
# traced self time are reported per layer and per module.
LAYERS = {
    "scan": (
        "plurality.agreement_block", "plurality.iter_received_blocks",
        "plurality.top_agreement_scan", "oracle.decoding_radius_profile",
        "oracle.is_list_decodable",
    ),
    "subsets": (
        "plurality.plurality_mass.subsets", "plurality.plurality_mass.scan",
        "chaining.concentration_check.exact",
    ),
    "plurality_counts": (
        "plurality.plurality_counts_array", "plurality.plurality_profile",
        "plurality.profile_from_words", "linear_code.encode",
    ),
    "chaining_mc": (
        "chaining.build_nets", "chaining.gaussian_process_sample",
        "chaining.symmetrization_check", "chaining.gaussian_supremum_experiment",
        "chaining.concentration_check.sampled", "plurality.plurality_mass.sampled",
    ),
    "codewords_fields": (
        "linear_code.iter_codeword_chunks", "linear_code.codeword_matrix",
        "linear_code.min_distance_exact", "galois.field_new",
        "galois.add_array", "galois.scale_array",
    ),
    "command_overhead": (
        "cli.main", "cli.build_parser", "reports.render_json",
        "harness.experiment_beyond_johnson", "harness.experiment_corollary",
    ),
}

SELF_TIMED = tuple(name for names in LAYERS.values() for name in names)
CALL_COUNTED = (
    "plurality.plurality_counts_array", "plurality.plurality_profile",
    "linear_code.encode", "galois.field_new",
)
WORK_COUNTS = (
    "plurality.agreement_cells", "plurality.received_words",
    "plurality.subsets_visited", "chaining.concentration_subsets",
    "chaining.net_attempts", "linear_code.codewords", "oracle.scan_base",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{n}.self_s", "s", "lower") for n in SELF_TIMED]
    out += [(f"{n}.calls", "count", "lower") for n in CALL_COUNTED]
    out += [(n, "count", "lower") for n in WORK_COUNTS]
    out += [
        ("oracle.scan_fraction", "ratio", "lower"),
        ("chaining.net_accept_ratio", "ratio", "higher"),
        ("trace.jobs", "count", "higher"),
        ("trace.self_s_total", "s", "lower"),
        ("trace.jobs_per_s_untraced", "1/s", "higher"),
        ("trace.jobs_per_s_traced", "1/s", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    out += [(f"share.{layer}", "ratio", "lower") for layer in (*LAYERS, "other")]
    out += [(f"share.module.{m}", "ratio", "lower") for m in MODULES]
    return out


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [-math.inf] * n
    for c in sorted(range(n), key=start.__getitem__):
        p = parent[c]
        if p < 0:
            continue
        s, e = max(start[c], start[p]), min(end[c], end[p])
        if e <= s:
            continue
        if s >= reach[p]:
            covered[p] += e - s
            reach[p] = e
        elif e > reach[p]:
            covered[p] += e - reach[p]
            reach[p] = e
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span arrays, work counters and analytic-count checks of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack: list[int] = []
        self.current_job = -1
        self.active = False
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, sid: int) -> int:
        i = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def rename(self, i: int, name: str) -> None:
        self.sid[i] = self.name_id(name)

    def fail(self, message: str) -> None:
        self.failures.append(f"job {self.current_job}: {message}")

    # -- wrappers ------------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Run a block, such as a hook or an output check, without recording spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, fn, name: str):
        sid = self.name_id(name)
        hook = CALL_HOOKS.get(name)
        item_hook = ITEM_HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        i = tracer.enter(sid) if tracer.active else None
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if i is not None:
                                tracer.exit(i)
                        if i is not None and item_hook is not None:
                            item_hook(tracer, item)
                        yield item
                finally:
                    inner.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            after = None
            if hook is not None:
                with tracer.paused():
                    after = hook(tracer, args, kwargs)
            i = tracer.enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(i)
            if after is not None:
                with tracer.paused():
                    after(result, i)
            return result
        return traced

    def install(self, package) -> None:
        """Patch the public functions and methods of every listlab module."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            funcs, methods = {}, []
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs[name] = obj
                elif inspect.isclass(obj):
                    methods += [
                        (obj, attr, member) for attr, member in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(member)
                    ]
            taken = Counter(list(funcs) + [attr for _, attr, _ in methods])
            for name, fn in funcs.items():
                if f"{short}.{name}" not in NOT_TRACED:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
            for cls, attr, fn in methods:
                full = f"{short}.{cls.__name__}.{attr}"
                if full in NOT_TRACED:
                    continue
                span = f"{short}.{attr}" if taken[attr] == 1 else full
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, span))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        plurality = mods["plurality"]
        counts = self.counts

        def counted_sum(*args, **kwargs):
            counts["plurality.sum_calls"] += 1
            return builtins.sum(*args, **kwargs)

        plurality.sum = counted_sum
        self._restore.append((plurality, "sum", None))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values over every span recorded so far."""
        selfs = self_times(self.start, self.end, self.parent)
        by_name: Counter = Counter()
        calls: Counter = Counter()
        for i, s in enumerate(selfs):
            name = self.names[self.sid[i]]
            by_name[name] += s
            calls[name] += 1
        total = sum(by_name.values())
        out: dict[str, float] = {}
        for n in SELF_TIMED:
            out[f"{n}.self_s"] = by_name[n]
        for n in CALL_COUNTED:
            out[f"{n}.calls"] = calls[n]
        for n in WORK_COUNTS:
            out[n] = self.counts[n]
        c = self.counts
        out["oracle.scan_fraction"] = (
            c["oracle.scan_words"] / c["oracle.scan_base"] if c["oracle.scan_base"] else 0.0
        )
        out["chaining.net_accept_ratio"] = (
            c["chaining.net_accepted"] / c["chaining.net_attempts"]
            if c["chaining.net_attempts"] else 0.0
        )
        out["trace.self_s_total"] = total
        grouped = set()
        for layer, names in LAYERS.items():
            grouped.update(names)
            out[f"share.{layer}"] = sum(by_name[n] for n in names) / total
        out["share.other"] = sum(v for n, v in by_name.items() if n not in grouped) / total
        for m in MODULES:
            part = sum(v for n, v in by_name.items() if n.split(".", 1)[0] == m)
            out[f"share.module.{m}"] = part / total
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            names, sid, start, end, parent, job = (
                self.names, self.sid, self.start, self.end, self.parent, self.job
            )
            for i in range(len(sid)):
                fh.write(
                    f"{i}\t{names[sid[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\t{parent[i]}\t{job[i]}\n"
                )


# -- counters and analytic checks at layer boundaries ----------------------------


def _count_received(t: Tracer, item) -> None:
    t.counts["plurality.received_words"] += len(item[1])


def _count_codewords(t: Tracer, item) -> None:
    t.counts["linear_code.codewords"] += len(item)


def _agreement_cells(t: Tracer, args, kwargs):
    received, words = _arg(args, kwargs, 0, "received"), _arg(args, kwargs, 1, "words")
    t.counts["plurality.agreement_cells"] += received.shape[0] * words.shape[0]


def _counter(key):
    def hook(t: Tracer, args, kwargs):
        t.counts[key] += 1
    return hook


def _profile_scan(t: Tracer, args, kwargs):
    code = _arg(args, kwargs, 0, "code")
    want = code.field.q ** code.n
    before = t.counts["plurality.received_words"]

    def after(result, i):
        got = t.counts["plurality.received_words"] - before
        if got != want:
            t.fail(f"decoding_radius_profile scanned {got} received words, q^n = {want}")
    return after


def _standard_scan(t: Tracer, args, kwargs):
    if kwargs.get("sample_received") is not None:
        return None
    code = _arg(args, kwargs, 0, "code")
    base = code.field.q ** code.n
    before = t.counts["plurality.received_words"]

    def after(cert, i):
        got = t.counts["plurality.received_words"] - before
        t.counts["oracle.scan_words"] += got
        t.counts["oracle.scan_base"] += base
        if cert.verdict == "decodable" and got != base:
            t.fail(f"decodable standard check scanned {got} of q^n = {base} words")
    return after


def _mass_route(t: Tracer, args, kwargs):
    code, L = _arg(args, kwargs, 0, "code"), _arg(args, kwargs, 1, "L")
    before = t.counts["plurality.sum_calls"]

    def after(mass, i):
        t.rename(i, f"plurality.plurality_mass.{mass.route or mass.mode}")
        if mass.route == "subsets":
            visited = t.counts["plurality.sum_calls"] - before
            t.counts["plurality.subsets_visited"] += visited
            want = math.comb(code.size, L)
            if visited != want:
                t.fail(f"subset route visited {visited} subsets, C(N, L) = {want}")
    return after


def _concentration_mode(t: Tracer, args, kwargs):
    L = len(_arg(args, kwargs, 1, "lam"))
    before = t.counts["plurality.plurality_counts_array"]

    def after(rep, i):
        t.rename(i, f"chaining.concentration_check.{rep.mode}")
        if rep.mode == "exact":
            # one call for the full set, then one per nonempty subset
            subsets = t.counts["plurality.plurality_counts_array"] - before - 1
            t.counts["chaining.concentration_subsets"] += subsets
            if subsets != 2**L - 1:
                t.fail(f"exact concentration visited {subsets} subsets, 2^L - 1 = {2**L - 1}")
    return after


def _net_attempts(t: Tracer, args, kwargs):
    before = t.counts["seeds.rng_for"]

    def after(res, i):
        # every halving attempt draws its coins from one rng_for stream
        t.counts["chaining.net_attempts"] += t.counts["seeds.rng_for"] - before
        t.counts["chaining.net_accepted"] += len(res.levels) - 1
    return after


CALL_HOOKS = {
    "plurality.agreement_block": _agreement_cells,
    "plurality.plurality_counts_array": _counter("plurality.plurality_counts_array"),
    "seeds.rng_for": _counter("seeds.rng_for"),
    "oracle.decoding_radius_profile": _profile_scan,
    "oracle.is_list_decodable": _standard_scan,
    "plurality.plurality_mass": _mass_route,
    "chaining.concentration_check": _concentration_mode,
    "chaining.build_nets": _net_attempts,
}
ITEM_HOOKS = {
    "plurality.iter_received_blocks": _count_received,
    "linear_code.iter_codeword_chunks": _count_codewords,
}
