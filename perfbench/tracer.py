"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each traced function on every ``dgmlp`` module
attribute that refers to it. Library callers look these names up at call
time (``from .propagation import spmm`` binds a module attribute of the
caller), so the wrappers see the real calls without touching ``src/``.

A span is ``[id, name, parent_id, start, end]`` with times in seconds from
the tracer's origin. Spans are kept in memory and written out once, when
the pass ends. Counters record exact work counts computed from call
arguments and results (array shapes, nnz), not measured.
"""

from __future__ import annotations

import importlib
import time

# layer (= dgmlp module) -> traced public names; "Cls.meth" wraps a method
TRACED = {
    "data": ("load_dataset", "erdos_renyi"),
    "graph": ("build_graph", "normalize"),
    "propagation": ("spmm", "propagate", "stationary_features"),
    "smoothness": ("matrix_nsl", "compute_nsl", "nsl_streaming",
                   "propagation_weights", "combine", "combine_streaming",
                   "write_node_profile_csv", "write_gsl_csv"),
    "nn": ("train", "loss_and_grad", "forward", "Adam.step", "save_checkpoint"),
    "runner": ("run_train", "run_profile", "prepare_combined", "row_normalize"),
    "cli": ("write_json", "write_csv"),
}
LAYERS = tuple(TRACED)


def _spmm_counts(counts, args, kwargs, out):
    adj, x = args[0], args[1]
    counts["propagation.spmm_flops_computed"] += 2 * adj.matrix.nnz * x.shape[1]


def _stack_counts(counts, args, kwargs, out):
    counts["propagation.stack_bytes_computed"] += sum(s.nbytes for s in out.steps)


def _csv_counts(counts, args, kwargs, out):
    counts["smoothness.csv_rows"] += args[0].nsl.size


def _train_counts(counts, args, kwargs, out):
    counts["nn.epochs"] += len(out[1].train_loss)


COUNTERS = {
    "propagation.spmm": _spmm_counts,
    "propagation.propagate": _stack_counts,
    "smoothness.write_node_profile_csv": _csv_counts,
    "nn.train": _train_counts,
}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.counts: dict[str, int] = {
            "propagation.spmm_flops_computed": 0,
            "propagation.stack_bytes_computed": 0,
            "smoothness.csv_rows": 0,
            "nn.epochs": 0,
        }
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ids, counts, clock = self.spans, self._open, self.counts, time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [len(spans), name, open_ids[-1] if open_ids else None, 0.0, 0.0]
            spans.append(span)
            open_ids.append(span[0])
            span[3] = clock() - self.origin
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock() - self.origin
                open_ids.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced name on every dgmlp module that refers to it."""
        modules = [importlib.import_module("dgmlp")]
        modules += [importlib.import_module(f"dgmlp.{layer}") for layer in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"dgmlp.{layer}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(f"{layer}.{name}", getattr(cls, meth)))
                    continue
                orig = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)


def summarize(spans: list[list], counts: dict, total_s: float) -> tuple[dict, list[float]]:
    """Per-layer totals of one traced pass, and its epoch times in ms.

    ``<layer>.<fn>_s`` is inclusive time summed over that function's spans;
    ``<layer>.self_s`` sums span duration minus the time its child spans
    cover, over every span of the layer. Epoch percentiles are left to the
    caller, which pools the epochs of several passes.
    """
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for sid, name, parent, start, end in spans:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] += end - start
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sid, name, parent, start, end in spans:
        layer_self[name.split(".")[0]] += (end - start) - child_time[sid]
    top = sum(end - start for _, _, parent, start, end in spans if parent is None)

    # epoch i runs from loss_and_grad start i to start i+1; the last epoch
    # ends with its evaluation forward pass
    epochs = []
    by_parent: dict[int, list] = {}
    for span in spans:
        if span[2] is not None:
            by_parent.setdefault(span[2], []).append(span)
    for sid, name, *_ in spans:
        if name != "nn.train":
            continue
        kids = by_parent.get(sid, [])
        starts = [s[3] for s in kids if s[1] == "nn.loss_and_grad"]
        evals = [s[4] for s in kids if s[1] == "nn.forward"]
        if starts and evals:
            epochs += [(b - a) * 1e3 for a, b in zip(starts, starts[1:] + [evals[-1]])]

    def inc(*names):
        return sum(inclusive.get(n, 0.0) for n in names)

    spmm_calls = calls.get("propagation.spmm", 0)
    metrics = {
        "data.load_dataset_s": inc("data.load_dataset"),
        "data.erdos_renyi_s": inc("data.erdos_renyi"),
        "graph.build_graph_s": inc("graph.build_graph"),
        "graph.normalize_s": inc("graph.normalize"),
        "propagation.stationary_features_s": inc("propagation.stationary_features"),
        "propagation.propagate_s": inc("propagation.propagate"),
        "propagation.spmm_calls": spmm_calls,
        "propagation.spmm_s": inc("propagation.spmm"),
        "propagation.spmm_ms_per_call":
            inc("propagation.spmm") * 1e3 / spmm_calls if spmm_calls else 0.0,
        "propagation.spmm_flops_computed": counts["propagation.spmm_flops_computed"],
        "propagation.stack_bytes_computed": counts["propagation.stack_bytes_computed"],
        "smoothness.matrix_nsl_calls": calls.get("smoothness.matrix_nsl", 0),
        "smoothness.matrix_nsl_s": inc("smoothness.matrix_nsl"),
        "smoothness.combine_s": inc("smoothness.combine", "smoothness.combine_streaming"),
        "smoothness.propagation_weights_s": inc("smoothness.propagation_weights"),
        "smoothness.write_node_profile_csv_s": inc("smoothness.write_node_profile_csv"),
        "smoothness.csv_rows": counts["smoothness.csv_rows"],
        "nn.train_s": inc("nn.train"),
        "nn.epochs": counts["nn.epochs"],
        "nn.loss_and_grad_s": inc("nn.loss_and_grad"),
        "nn.eval_forward_s": inc("nn.forward"),
        "nn.adam_step_s": inc("nn.Adam.step"),
        "nn.save_checkpoint_s": inc("nn.save_checkpoint"),
        "runner.prepare_combined_s": inc("runner.prepare_combined"),
        "cli.write_json_s": inc("cli.write_json"),
        "trace.top_level_pct": 100.0 * top / total_s,
        "trace.spans": len(spans),
    }
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    return metrics, epochs
