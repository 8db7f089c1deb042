"""Spans around calls into wandergen's public functions, recorded from the
benchmark's own code.

``Tracer.install`` wraps every function named in ``LAYERS`` and patches the
wrapper into every ``wandergen.*`` module namespace that binds it (``fibers``
imports ``fourier`` by name, so patching ``groups`` alone would miss those
calls).  A function missing from the library is skipped; its metrics then
read 0.  Spans stay in memory as (name, start, end, parent, job) rows until
``write`` dumps them once.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> public functions ("Class.method" for methods)
LAYERS = {
    "groups": ["fourier", "inverse_fourier", "GroupVector.dense", "from_dense", "character_table"],
    "fibers": [
        "fiber_tensor", "gram_fibers", "riesz_bounds", "frame_bounds", "is_contained",
        "is_biorthogonal", "fiber_span_angle", "family_from_fibers",
    ],
    "_linalg": [
        "matrix_rank", "orth_columns", "projector", "phase_normalize_columns", "null_space_columns",
        "complement_in_span", "procrustes_align", "max_principal_angle", "oblique_projector_matrix",
    ],
    "wandering": ["verify_wandering", "complement_wandering"],
    "oblique": [
        "oblique_riesz_wavelets", "oblique_frame_wavelets", "dual_family", "biorthogonal_wavelets",
        "oblique_projector", "orth_complement_in",
    ],
    "nonabelian": [
        "Representation.__init__", "regular_representation", "are_equivalent", "cancel",
        "wandering_complement_general",
    ],
    "oracle": ["dense_family_matrix", "dense_riesz_bounds", "dense_frame_bounds"],
    "cli": ["run_job", "render_json"],
}

# metric name for the layer part of a span name
LAYER_METRIC = {"_linalg": "linalg"}
# span names that differ from the function name
SPAN_NAME = {"GroupVector.dense": "vector_dense", "Representation.__init__": "representation"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.stack: list[int] = []
        self.job = None
        self.enabled = False
        self.report_bytes: list[int] = []
        self.attempts: list[int] = []
        self.fiber_calls = 0
        self.fiber_repeats = 0
        self._seen: dict = {}  # id -> family, for the current job only
        self._cache_info = None  # character_table.cache_info, when the library has one
        self.cache_start = None

    def begin_job(self, job_id) -> None:
        self.job = job_id
        self._seen = {}

    def install(self) -> None:
        import wandergen.cli  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items() if name == "wandergen" or name.startswith("wandergen.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"wandergen.{layer}")
            for qualified in names:
                span = span_name(layer, qualified)
                if "." in qualified:
                    cls_name, attr = qualified.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is not None and attr in vars(cls):
                        setattr(cls, attr, self._wrap(span, vars(cls)[attr]))
                    continue
                original = getattr(home, qualified, None)
                if original is None:
                    continue
                wrapped = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        table = getattr(sys.modules["wandergen.groups"], "character_table", None)
        self._cache_info = getattr(getattr(table, "__wrapped_original__", None), "cache_info", None)

    def _wrap(self, span: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            row = [span, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job]
            tracer.spans.append(row)
            tracer.stack.append(index)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                tracer.stack.pop()
            tracer._observe(span, args, result)
            return result

        wrapper.__wrapped_original__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _observe(self, span: str, args, result) -> None:
        if span == "fibers.fiber_tensor":
            self.fiber_calls += 1
            key = id(args[0])
            if key in self._seen:
                self.fiber_repeats += 1
            else:
                self._seen[key] = args[0]  # keep it alive so the id stays unique
        elif span == "cli.run_job":
            self.report_bytes.append(len(result[0].encode()))
        elif span == "nonabelian.are_equivalent" and result is not None and result.seed is not None:
            self.attempts.append(result.seed + 1)

    def cache_info(self):
        return self._cache_info() if self._cache_info else None

    def start(self) -> None:
        self.enabled = True
        self.cache_start = self.cache_info()

    def state(self) -> dict:
        """Everything the per-layer metrics need, as plain JSON data."""
        end = self.cache_info()
        hits = misses = entries = 0
        if end is not None:
            hits = end.hits - self.cache_start.hits
            misses = end.misses - self.cache_start.misses
            entries = end.currsize
        return {
            "spans": self.spans,
            "report_bytes": self.report_bytes,
            "attempts": self.attempts,
            "fiber_calls": self.fiber_calls,
            "fiber_repeats": self.fiber_repeats,
            "cache": [hits, misses, entries],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.state(), handle)


def merge(states: list[dict]) -> dict:
    """Combine tracer states of separate processes (one per cli-cold job)."""
    out = {"spans": [], "report_bytes": [], "attempts": [], "fiber_calls": 0, "fiber_repeats": 0,
           "cache": [0, 0, 0]}
    for st in states:
        base = len(out["spans"])
        out["spans"] += [[n, s, e, p + base if p >= 0 else -1, j] for n, s, e, p, j in st["spans"]]
        for key in ("report_bytes", "attempts"):
            out[key] += st[key]
        out["fiber_calls"] += st["fiber_calls"]
        out["fiber_repeats"] += st["fiber_repeats"]
        hits, misses, entries = st["cache"]
        out["cache"] = [out["cache"][0] + hits, out["cache"][1] + misses, max(out["cache"][2], entries)]
    return out


PER_CALL = {"groups.fourier", "groups.inverse_fourier", "fibers.fiber_tensor"}
LAYER_NAMES = [LAYER_METRIC.get(layer, layer) for layer in LAYERS]


def span_name(layer: str, qualified: str) -> str:
    return f"{LAYER_METRIC.get(layer, layer)}.{SPAN_NAME.get(qualified, qualified)}"


def layer_metrics(state: dict, jobs: int) -> dict:
    """Per-layer metrics per traced job: calls, inclusive busy seconds, self seconds."""
    spans = state["spans"]
    n = max(jobs, 1)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict = {}
    busy: dict = {}
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    linalg_top = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        parent_layer = spans[parent][0].split(".")[0] if parent >= 0 else None
        if parent < 0 or spans[parent][0] != name:
            busy[name] = busy.get(name, 0.0) + dur
        if layer == "linalg" and parent_layer != "linalg":
            linalg_top += dur
        self_s[layer] += dur - child_time[i]
    out = {}
    for layer, fns in LAYERS.items():
        if layer == "_linalg":  # reported as one layer total
            continue
        for fn in fns:
            key = span_name(layer, fn)
            if key in PER_CALL:
                out[f"{key}.calls"] = calls.get(key, 0) / n
            out[f"{key}.s"] = busy.get(key, 0.0) / n
    out["linalg.calls"] = sum(v for k, v in calls.items() if k.startswith("linalg.")) / n
    out["linalg.s"] = linalg_top / n
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = self_s[layer] / n
    hits, misses, entries = state["cache"]
    out["groups.character_table.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["groups.character_table.entries"] = entries
    calls_ft = state["fiber_calls"]
    out["fibers.fiber_tensor.repeat_ratio"] = state["fiber_repeats"] / calls_ft if calls_ft else 0.0
    attempts = state["attempts"]
    out["nonabelian.intertwiner_attempts"] = sum(attempts) / len(attempts) if attempts else 0.0
    sizes = state["report_bytes"]
    out["cli.report_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    return out
