"""Span tracer that wraps the package's public functions from outside.

Nothing in the package is edited: `Tracer.install` replaces each traced
function or method with a timing wrapper wherever the package holds a
reference to it (the defining module and every module that imported the
name), and `Tracer.uninstall` puts the originals back. Spans are kept in
memory as (name, start, end, parent) and turned into per-layer metrics by
`unit_metrics`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from cate_ebm.cate import LEARNERS

# (module, attribute, span name); "Class.method" patches a class attribute
TRACED = [
    ("cate_ebm.nce", "train_ebm", "nce.train_ebm"),
    ("cate_ebm.nce", "build_candidates", "nce.build_candidates"),
    ("cate_ebm.nce", "nce_loss", "nce.nce_loss"),
    ("cate_ebm.nce", "kmeans_fit", "partition.kmeans_fit"),
    ("cate_ebm.numerics", "Mlp.forward", "numerics.mlp_forward"),
    ("cate_ebm.numerics", "Mlp.forward_cache", "numerics.mlp_forward_cache"),
    ("cate_ebm.numerics", "Mlp.backward", "numerics.mlp_backward"),
    ("cate_ebm.numerics", "Adam.step", "numerics.adam_step"),
    ("cate_ebm.cate", "fit_learner", "cate.fit_learner"),
    ("cate_ebm.cate", "fit_base", "cate.fit_base"),
    ("cate_ebm.cate", "KernelRidge.fit", "cate.kernel_fit"),
    ("cate_ebm.cate", "KernelRidge.predict", "cate.kernel_predict"),
    ("cate_ebm.cate", "median_gamma", "cate.median_gamma"),
    ("cate_ebm.cate", "propensity_fit", "cate.propensity_fit"),
    ("cate_ebm.ebm", "EbmModel.represent", "ebm.represent"),
    ("cate_ebm.ebm", "save_model", "ebm.save_model"),
    ("cate_ebm.ebm", "load_model", "ebm.load_model"),
    ("cate_ebm.dgp", "sample", "dgp.sample"),
    ("cate_ebm.dgp", "save_csv", "dgp.save_csv"),
    ("cate_ebm.dgp", "load_csv", "dgp.load_csv"),
    ("cate_ebm.config", "load_config", "config.load_config"),
    ("cate_ebm.evalx", "pehe", "evalx.pehe"),
    ("cate_ebm.evalx", "mcc", "evalx.mcc"),
    ("cate_ebm.evalx", "write_table", "evalx.write_table"),
    ("cate_ebm.cli", "cmd_pipeline", "cli.pipeline"),
]

KINDS = tuple(LEARNERS)  # t, x, dr, r

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "nce.train_ebm_s": "s", "nce.train_ebm_self_s": "s",
    "nce.build_candidates_s": "s", "nce.build_candidates_calls": "count",
    "nce.nce_loss_s": "s", "nce.nce_loss_self_s": "s", "nce.nce_loss_calls": "count",
    "nce.epochs_run": "count",
    "numerics.mlp_forward_s": "s", "numerics.mlp_backward_s": "s",
    "numerics.mlp_gflop": "GFLOP",
    "numerics.adam_step_s": "s", "numerics.adam_steps": "count",
    "partition.kmeans_fit_s": "s", "partition.kmeans_iters": "count",
    "cate.fit_base_s": "s", "cate.fit_base_self_s": "s", "cate.fit_base_calls": "count",
    "cate.kernel_fit_s": "s", "cate.kernel_fits": "count", "cate.kernel_predict_s": "s",
    "cate.median_gamma_s": "s", "cate.median_gamma_calls": "count",
    "cate.propensity_fit_s": "s", "cate.propensity_fits": "count",
    **{f"cate.fit_learner_s.{k}": "s" for k in KINDS},
    **{f"cate.fit_learner_self_s.{k}": "s" for k in KINDS},
    "cate.kernel_bytes": "B",
    "ebm.represent_s": "s", "ebm.save_model_s": "s", "ebm.load_model_s": "s",
    "ebm.model_bytes": "B",
    "dgp.sample_s": "s", "dgp.save_csv_s": "s", "dgp.load_csv_s": "s", "dgp.csv_bytes": "B",
    "config.load_config_s": "s",
    "evalx.pehe_s": "s", "evalx.mcc_s": "s", "evalx.write_table_s": "s",
    "cli.pipeline_self_s": "s",
    "trace_overhead_s": "s",
}

_F8 = 8  # bytes per float64


def _mlp_flop(net, rows, backward):
    # 2 flops per multiply-add; backward forms both the weight and input grads
    per_row = sum(2 * a * b for a, b in zip(net.widths[:-1], net.widths[1:]))
    return rows * per_row * (2 if backward else 1)


def _forward_note(args, result):
    return {"flop": _mlp_flop(args[0], np.atleast_2d(args[1]).shape[0], False)}


def _fit_learner_note(args, result):
    kind, ds, spec = args[0], args[1], args[2]
    # the R-learner builds its n-by-n kernel inline, outside KernelRidge
    inline = _F8 * ds.n * ds.n if kind == "r" and spec.kind == "kernel" else 0
    return {"kind": kind, "bytes": inline}


# span name -> fn(args, result) giving the counts and computed sizes of a call
ANNOTATE = {
    "nce.train_ebm": lambda args, result: {"epochs": len(result.history)},
    "partition.kmeans_fit": lambda args, result: {"iters": len(result.history)},
    "numerics.mlp_forward": _forward_note,
    "numerics.mlp_forward_cache": _forward_note,
    "numerics.mlp_backward": lambda args, result: {
        "flop": _mlp_flop(args[0], np.atleast_2d(args[2]).shape[0], True)},
    "cate.kernel_fit": lambda args, result: {"bytes": _F8 * np.shape(args[1])[0] ** 2},
    "cate.kernel_predict": lambda args, result: {
        "bytes": _F8 * np.shape(args[1])[0] * args[0].x_train.shape[0]},
    "cate.fit_learner": _fit_learner_note,
    "ebm.save_model": lambda args, result: {"bytes": os.path.getsize(args[1])},
    "dgp.save_csv": lambda args, result: {"bytes": os.path.getsize(args[1])},
}


class Tracer:
    """Collects spans while installed; restores every original on uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, info]
        self._stack = []
        self._saved = []  # (owner, attr, original)

    def _wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        note = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        traced.__traced__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "cate_ebm" or key.startswith("cate_ebm.")]
        try:
            for mod_name, attr, span_name in TRACED:
                mod = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrapper(span_name, original))
                    continue
                original = getattr(mod, attr)
                wrapped = self._wrapper(span_name, original)
                for m in modules:
                    if m.__dict__.get(attr) is original:
                        self._patch(m, attr, original, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self):
        """Index into the span list, to cut it into per-round pieces."""
        return len(self.spans)

    def write(self, path, t0):
        """One span per line: name, start, end (seconds from t0), parent index."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _totals(spans, lo, hi):
    """Per-name total and self time, call count and summed annotations."""
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(float)
    for name, start, end, parent, info in spans[lo:hi]:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent >= lo:
            child[parent] += dur
        if info:
            for key, val in info.items():
                if key == "kind":
                    total[f"{name}.{val}"] += dur
                else:
                    notes[f"{name}:{key}"] += val
    self_t = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, _, info = spans[i]
        key = f"{name}.{info['kind']}" if info and "kind" in info else name
        self_t[key] += (end - start) - child[i]
    return total, self_t, calls, notes


def unit_metrics(spans, lo, hi):
    """Per-layer metrics of the spans in [lo, hi)."""
    total, self_t, calls, notes = _totals(spans, lo, hi)
    m = {
        "nce.train_ebm_s": total["nce.train_ebm"],
        "nce.train_ebm_self_s": self_t["nce.train_ebm"],
        "nce.build_candidates_s": total["nce.build_candidates"],
        "nce.build_candidates_calls": calls["nce.build_candidates"],
        "nce.nce_loss_s": total["nce.nce_loss"],
        "nce.nce_loss_self_s": self_t["nce.nce_loss"],
        "nce.nce_loss_calls": calls["nce.nce_loss"],
        "nce.epochs_run": notes["nce.train_ebm:epochs"],
        "numerics.mlp_forward_s": total["numerics.mlp_forward"]
        + total["numerics.mlp_forward_cache"],
        "numerics.mlp_backward_s": total["numerics.mlp_backward"],
        "numerics.mlp_gflop": (notes["numerics.mlp_forward:flop"]
                               + notes["numerics.mlp_forward_cache:flop"]
                               + notes["numerics.mlp_backward:flop"]) / 1e9,
        "numerics.adam_step_s": total["numerics.adam_step"],
        "numerics.adam_steps": calls["numerics.adam_step"],
        "partition.kmeans_fit_s": total["partition.kmeans_fit"],
        "partition.kmeans_iters": notes["partition.kmeans_fit:iters"],
        "cate.fit_base_s": total["cate.fit_base"],
        "cate.fit_base_self_s": self_t["cate.fit_base"],
        "cate.fit_base_calls": calls["cate.fit_base"],
        "cate.kernel_fit_s": total["cate.kernel_fit"],
        "cate.kernel_fits": calls["cate.kernel_fit"],
        "cate.kernel_predict_s": total["cate.kernel_predict"],
        "cate.median_gamma_s": total["cate.median_gamma"],
        "cate.median_gamma_calls": calls["cate.median_gamma"],
        "cate.propensity_fit_s": total["cate.propensity_fit"],
        "cate.propensity_fits": calls["cate.propensity_fit"],
        **{f"cate.fit_learner_s.{k}": total[f"cate.fit_learner.{k}"] for k in KINDS},
        **{f"cate.fit_learner_self_s.{k}": self_t[f"cate.fit_learner.{k}"] for k in KINDS},
        "cate.kernel_bytes": notes["cate.kernel_fit:bytes"]
        + notes["cate.kernel_predict:bytes"] + notes["cate.fit_learner:bytes"],
        "ebm.represent_s": total["ebm.represent"],
        "ebm.save_model_s": total["ebm.save_model"],
        "ebm.load_model_s": total["ebm.load_model"],
        "ebm.model_bytes": notes["ebm.save_model:bytes"],
        "dgp.sample_s": total["dgp.sample"],
        "dgp.save_csv_s": total["dgp.save_csv"],
        "dgp.load_csv_s": total["dgp.load_csv"],
        "dgp.csv_bytes": notes["dgp.save_csv:bytes"],
        "config.load_config_s": total["config.load_config"],
        "evalx.pehe_s": total["evalx.pehe"],
        "evalx.mcc_s": total["evalx.mcc"],
        "evalx.write_table_s": total["evalx.write_table"],
        "cli.pipeline_self_s": self_t["cli.pipeline"],
    }
    return {k: float(v) for k, v in m.items()}
