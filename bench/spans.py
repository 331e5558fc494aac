"""In-memory span tracer for the benchmark's traced runs.

A span is recorded around each call into a momentmix function by
replacing the function where the calling module looks it up, for example
``momentmix.generating.lstsq`` or ``momentmix.decomposition.nlls_refine``.
The replacement lives only in the benchmark process; nothing under
``src/`` changes.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module whose global the caller looks up, attribute, span name)
SPANS = [
    ("momentmix.decomposition", "from_components", "tensor_store.from_components"),
    ("momentmix.decomposition", "omega_norm", "tensor_store.omega_norm"),
    ("momentmix.decomposition", "solve_generating_matrix", "generating.solve_generating_matrix"),
    ("momentmix.decomposition", "companion_matrices", "generating.companion_matrices"),
    ("momentmix.decomposition", "extract_tails", "generating.extract_tails"),
    ("momentmix.decomposition", "solve_tail_products", "decomposition.solve_tail_products"),
    ("momentmix.decomposition", "solve_heads", "decomposition.solve_heads"),
    ("momentmix.decomposition", "solve_scales", "decomposition.solve_scales"),
    ("momentmix.decomposition", "decomp_err", "decomposition.decomp_err"),
    ("momentmix.decomposition", "decompose", "decomposition.decompose"),
    ("momentmix.decomposition", "lstsq", "numerics.lstsq"),
    ("momentmix.generating", "lstsq", "numerics.lstsq"),
    ("momentmix.generating", "eig", "numerics.eig"),
    ("momentmix.decomposition", "nlls_refine", "numerics.nlls_refine"),
    ("momentmix.gmm", "simplex_nlls", "numerics.simplex_nlls"),
    ("momentmix.gmm", "nnls", "numerics.nnls"),
    ("momentmix.gmm", "sample_moments", "gmm.sample_moments"),
    ("momentmix.gmm", "learn_from_moments", "gmm.learn_from_moments"),
    ("momentmix.gmm", "recover_weights", "gmm.recover_weights"),
    ("momentmix.gmm", "refine_params", "gmm.refine_params"),
    ("momentmix.gmm", "recover_covariances", "gmm.recover_covariances"),
]

# Per-layer metrics that are a span's whole duration: the exact stage
# inside ``approximate`` is one number, though its parts have their own.
INCLUSIVE_METRICS = {"decomposition.decompose_s": "decomposition.decompose"}
# Per-layer metrics that are the summed self time of one span name: the
# named stages, whose self times the coverage figures add up.
SELF_TIME_METRICS = {
    name + "_s": name for _, _, name in SPANS if name not in INCLUSIVE_METRICS.values()
}
# Per-layer counts that are the number of spans of one name.
SPAN_COUNT_METRICS = {
    "numerics.lstsq_calls": "numerics.lstsq",
    "numerics.eig_calls": "numerics.eig",
    "numerics.nnls_calls": "numerics.nnls",
}
# Per-layer counts kept as counters (see ``install``); the workloads add
# ``gmm.em_iterations`` from the returned log-likelihood history.
COUNTERS = [
    "tensor_store.lookups",
    "generating.columns",
    "numerics.nlls_residual_calls",
    "numerics.nlls_jacobian_calls",
    "numerics.simplex_residual_calls",
    "gmm.moment_keys",
]


class Tracer:
    """Spans as ``[name, start, end, parent, root]`` lists, indexed by id."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.root_counts: dict[int, dict[str, int]] = {}
        self.captured: list[tuple] = []
        self._stack: list[int] = []
        self._root_start_counts: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][4] if parent is not None else sid
        if parent is None:
            self._root_start_counts = dict(self.counts)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()
        if not self._stack:
            start = self._root_start_counts
            self.root_counts[sid] = {
                k: v - start[k] for k, v in self.counts.items() if v != start[k]
            }

    def _wrap(self, module, attr: str, name: str, on_call=None, on_result=None):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            sid = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(sid)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def _counting(self, fn, counter: str):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    def install(self):
        """Wrap every function in ``SPANS`` and count tensor lookups."""
        counts = self.counts

        def count_nlls_calls(args, kwargs):
            args = (self._counting(args[0], "numerics.nlls_residual_calls"),) + args[1:]
            if kwargs.get("jacobian") is not None:
                kwargs = dict(kwargs, jacobian=self._counting(
                    kwargs["jacobian"], "numerics.nlls_jacobian_calls"))
            return args, kwargs

        def count_simplex_calls(args, kwargs):
            args = (self._counting(args[0], "numerics.simplex_residual_calls"),) + args[1:]
            return args, kwargs

        def count_moment_keys(args, kwargs):
            counts["gmm.moment_keys"] += len(args[1])
            return args, kwargs

        def capture_moments(args, kwargs, result):
            self.captured.append((args[0], result))

        def count_columns(args, kwargs, result):
            counts["generating.columns"] += result.values.shape[1]

        hooks = {
            "numerics.nlls_refine": (count_nlls_calls, None),
            "numerics.simplex_nlls": (count_simplex_calls, None),
            "gmm.sample_moments": (count_moment_keys, capture_moments),
            "generating.solve_generating_matrix": (None, count_columns),
        }
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            self._wrap(module, attr, name, *hooks.get(name, (None, None)))

        store = importlib.import_module("momentmix.tensor_store")
        cls = store.IncompleteSymmetricTensor
        getitem = cls.__getitem__

        def counted_getitem(tensor, key):
            counts["tensor_store.lookups"] += 1
            return getitem(tensor, key)

        cls.__getitem__ = counted_getitem
        self._patches.append((cls, "__getitem__", getitem))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_captured(self) -> list[tuple]:
        out, self.captured = self.captured, []
        return out

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, root in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_root(self, roots: list[int]) -> dict[int, dict]:
        """For each root span id: per span name, summed self time,
        summed duration and span count, plus the root's counters."""
        wanted = set(roots)
        selfs = self.self_times()
        out = {r: {"self": {}, "incl": {}, "n": {}} for r in roots}
        for (name, start, end, parent, root), own in zip(self.spans, selfs):
            if root not in wanted or parent is None:
                continue
            rec = out[root]
            rec["self"][name] = rec["self"].get(name, 0.0) + own
            rec["incl"][name] = rec["incl"].get(name, 0.0) + (end - start)
            rec["n"][name] = rec["n"].get(name, 0) + 1
        for r in roots:
            out[r]["counts"] = dict(self.root_counts.get(r, {}))
            out[r]["duration"] = self.spans[r][2] - self.spans[r][1]
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "root": s[4]}
            for i, s in enumerate(self.spans)
        ]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "%" if metric.endswith("_pct") else "count"


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(tracer, outcomes, first_round, trials, solver) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and each operation's coverage.

    Times are medians over the successful traced operations that ran the
    stage; counts are totals over the first round's successful operations,
    which every run makes on the same inputs, so they repeat exactly.
    ``trials`` holds (seconds, scaled seconds, traced) triples.
    """
    ok = [o for o in outcomes if not o.failed and o.span is not None]
    roots = tracer.per_root([o.span for o in ok])
    m = {}
    for metric, name in SELF_TIME_METRICS.items():
        m[metric] = median_or_zero(
            rec["self"][name] for rec in roots.values() if name in rec["self"])
    for metric, name in INCLUSIVE_METRICS.items():
        m[metric] = median_or_zero(
            rec["incl"][name] for rec in roots.values() if name in rec["incl"])
    first = [o for o in ok if o in first_round]
    for metric, name in SPAN_COUNT_METRICS.items():
        m[metric] = sum(roots[o.span]["n"].get(name, 0) for o in first)
    for name in COUNTERS + ["gmm.em_iterations"]:
        m[name] = sum(roots[o.span]["counts"].get(name, 0) + o.counts.get(name, 0)
                      for o in first)
    m["gmm.em_iteration_s"] = median_or_zero(
        roots[o.span]["duration"] / o.counts["gmm.em_iterations"]
        for o in ok if o.op == "em")
    m["trace.solve_s"] = median_or_zero(roots[o.span]["duration"] for o in ok if o.op == solver)
    m["trace.trial_s"] = median_or_zero(t for t, _, traced in trials if traced)
    untraced = median_or_zero(
        o.seconds for o in outcomes if o.op == solver and not o.failed and o.span is None)
    m["trace.solve_overhead_pct"] = (
        100.0 * (m["trace.solve_s"] / untraced - 1.0) if untraced else 0.0)
    for op in ("tensor_load", "classify", "em"):
        m[f"op.{op}_s"] = median_or_zero(roots[o.span]["duration"] for o in ok if o.op == op)
    # Coverage: the share of each traced call that the named stages' self
    # times cover.  Inclusive spans count as uncovered, so the self time of
    # ``decompose`` around its stages is part of what is left.
    stages = set(SELF_TIME_METRICS.values())
    coverage = {}
    for op in sorted({o.op for o in ok}):
        recs = [roots[o.span] for o in ok if o.op == op]
        names = sorted({n for r in recs for n in r["self"]} & stages)
        coverage[op] = {
            "traced_s": statistics.median(r["duration"] for r in recs),
            "uncovered_share": statistics.median(
                1.0 - sum(r["self"].get(n, 0.0) for n in names) / r["duration"]
                for r in recs),
            "stage_self_s": {n: statistics.median(r["self"].get(n, 0.0) for r in recs)
                             for n in names},
        }
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(m.items())}
    return metrics, coverage
