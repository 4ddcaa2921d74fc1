"""Spans and exact counts recorded around calls into cxrgen's public functions.

Wrappers are installed from here, never from inside the package: ``install``
replaces every module-level reference to a traced function (functions are
imported by name across cxrgen, so patching one module is not enough) and
``uninstall`` puts the originals back. Spans live in memory until ``write``.

A span's self time is its duration minus the time covered by its child
spans. ``tensor.matmul`` runs thousands of times per step, so it is counted
and timed in aggregate only; its time still counts as child time of the span
that called it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; methods as "Class.method".
TRACED = (
    ("data", "synthesize_corpus"),
    ("text", "build_vocabulary"),
    ("text", "decode_ids"),
    ("training", "encode_examples"),
    ("training", "train_step"),
    ("training", "batch_loss"),
    ("training", "evaluate_loss"),
    ("training", "fit"),
    ("model", "encode_inputs"),
    ("model", "decoder_forward"),
    ("model", "generate"),
    ("tensor", "backward"),
    ("tensor", "matmul"),
    ("optim", "Adam.step"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("checkpoint", "parameter_checksum"),
    ("metrics", "bleu"),
    ("metrics", "embedding_f1"),
    ("metrics", "evaluate_corpus"),
    ("metrics", "paired_t_test"),
)
AGGREGATE_ONLY = {"tensor.matmul"}
# Spans whose self time per call is reported; fit, evaluate_corpus and
# paired_t_test are traced for the span tree only.
SELF_TIMED = (
    "tensor.backward", "tensor.matmul", "training.batch_loss", "model.encode_inputs",
    "model.decoder_forward", "model.generate", "optim.Adam.step", "training.evaluate_loss",
    "checkpoint.parameter_checksum", "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint", "data.synthesize_corpus", "text.build_vocabulary",
    "training.encode_examples", "text.decode_ids", "metrics.bleu", "metrics.embedding_f1",
)
# Called during set-up only, so their self time is taken from the traced set-up.
SETUP_ONLY = ("data.synthesize_corpus", "text.build_vocabulary", "training.encode_examples")
_MODULES = ("checkpoint", "data", "metrics", "model", "optim", "tensor", "text", "training")


class Tracer:
    """In-memory span recorder plus the exact per-step and per-token counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []          # (id, name, start, end, parent id)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []          # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []
        self.setup_calls: dict[str, int] = {}
        self.setup_self_s: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        keep = name not in AGGREGATE_ONLY
        enter, leave = _HOOKS.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            before = enter(tracer.counts, args) if enter else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if keep:
                    tracer.spans.append((span_id, name, start, end, parent))
            if leave:
                leave(tracer.counts, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside cxrgen."""
        modules = {m: sys.modules[f"cxrgen.{m}"] for m in _MODULES}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[module_name], cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(modules[module_name], attr)
            wrapped = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def end_setup(self) -> None:
        """Keep the set-up's timings apart; from here on, times and counts are the cycles' only."""
        self.setup_calls, self.setup_self_s = dict(self.calls), dict(self.self_s)
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- reporting -----------------------------------------------------------

    def self_ms_per_call(self, name: str) -> float:
        calls, self_s = ((self.setup_calls, self.setup_self_s) if name in SETUP_ONLY
                         else (self.calls, self.self_s))
        return 1000.0 * self_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def _matmul_enter(counts, args):
    a, b = args[0], args[1]
    counts["matmul_calls"] += 1
    counts["matmul_flop"] += 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def _backward_enter(counts, args):
    counts["tape_entries"] += len(sys.modules["cxrgen.tensor"].active_graph())
    counts["backward_calls"] += 1


def _train_step_enter(counts, args):
    return counts["matmul_calls"], counts["matmul_flop"]


def _train_step_leave(counts, args, result, before):
    """Charge the step's matmuls to it; count parameter elements left with a zero gradient."""
    counts["train_steps"] += 1
    counts["step_matmul_calls"] += counts["matmul_calls"] - before[0]
    counts["step_matmul_flop"] += counts["matmul_flop"] - before[1]
    for p in args[1].values():
        counts["param_elements"] += p.data.size
        counts["zero_grad_elements"] += (
            p.data.size if p.grad is None else p.data.size - int(np.count_nonzero(p.grad)))


def _decoder_forward_enter(counts, args):
    counts["decoder_positions"] += int(np.asarray(args[0]).reshape(-1).shape[0])


def _generate_enter(counts, args):
    return counts["decoder_positions"]


def _generate_leave(counts, args, result, before):
    counts["generate_positions"] += counts["decoder_positions"] - before
    counts["generated_tokens"] += len(result)


# name -> (called with the arguments before the call, called with the result after it)
_HOOKS = {
    "tensor.matmul": (_matmul_enter, None),
    "tensor.backward": (_backward_enter, None),
    "training.train_step": (_train_step_enter, _train_step_leave),
    "model.decoder_forward": (_decoder_forward_enter, None),
    "model.generate": (_generate_enter, _generate_leave),
}


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self time per call for each traced layer plus the exact counts, by metric name."""
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    metrics = {f"{name}_ms": (tracer.self_ms_per_call(name), "ms") for name in SELF_TIMED}
    metrics["optim.adam_step_ms"] = metrics.pop("optim.Adam.step_ms")
    metrics["tensor.tape_entries_per_step"] = (ratio("tape_entries", "backward_calls"), "count")
    metrics["tensor.matmul_calls_per_step"] = (ratio("step_matmul_calls", "train_steps"), "count")
    metrics["tensor.matmul_gflop_per_step"] = (
        ratio("step_matmul_flop", "train_steps") / 1e9, "GFLOP")
    metrics["model.decoder_positions_per_token"] = (
        ratio("generate_positions", "generated_tokens"), "count")
    metrics["model.zero_grad_param_share"] = (
        ratio("zero_grad_elements", "param_elements"), "ratio")
    return metrics
