"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the names the training code actually resolves
(module attributes and methods) with wrappers that record a span per call
and the counters named below; ``Tracer.remove`` puts the originals back.
Spans are kept in memory and summarised by ``Tracer.summary``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import magnetdml.data
import magnetdml.index
import magnetdml.losses
import magnetdml.sampler
import magnetdml.training
from magnetdml.index import ClusterIndex
from magnetdml.losses import LinearHead
from magnetdml.model import EmbeddingModel

Counts = Dict[str, float]


def _forward_rows(counts: Counts, args, kwargs, result):
    counts["model.forward.rows"] += len(args[1])


def _neighbourhood(counts, args, kwargs, nb):
    counts["sampler.truncated"] += nb.truncated
    counts["sampler.replacement_fallback"] += nb.replacement_fallback


def _hinges(prefix: str):
    def count(counts, args, kwargs, result):
        counts[prefix + ".active_hinges"] += int((result.hinge_args > 0).sum())
        counts[prefix + ".hinges"] += len(result.hinge_args)
    return count


def _classify(counts, args, kwargs, result):
    counts["evaluate.classify_batch.queries"] += len(args[1])
    counts["evaluate.classify_batch.references"] += len(args[0].references)


def _saved_bytes(counts, args, kwargs, result):
    outdir = Path(args[0])
    counts["training.save_state.bytes"] += sum(
        (outdir / name).stat().st_size for name in ("checkpoint.bin", "training_state.json")
    )


# (owner, attribute, span name, counter). The training loop resolves the
# sampler, index and evaluation functions through its own module globals and
# the losses through ``L.``; wrapping ``magnetdml.index.build_index`` alone
# would miss the loop's bound reference.
TARGETS: List[Tuple[object, str, str, Optional[Callable]]] = [
    (magnetdml.data, "load_dataset", "data.load_dataset", None),
    (magnetdml.data, "split", "data.split", None),
    (EmbeddingModel, "forward", "model.forward", _forward_rows),
    (EmbeddingModel, "backward", "model.backward", None),
    (EmbeddingModel, "sgd_step", "model.sgd_step", None),
    (LinearHead, "sgd_step", "model.head_sgd_step", None),
    (magnetdml.training, "build_index", "index.build_index", None),
    (magnetdml.index, "kmeans", "index.kmeans", None),
    (ClusterIndex, "update_loss_cache", "index.update_loss_cache", None),
    (magnetdml.training, "sample_neighbourhood", "sampler.sample_neighbourhood", _neighbourhood),
    (magnetdml.sampler, "seed_distribution", "sampler.seed_distribution", None),
    (magnetdml.training, "sample_triplets", "sampler.sample_triplets", None),
    (magnetdml.losses, "magnet_minibatch_loss", "losses.magnet_minibatch_loss", _hinges("losses.magnet")),
    (magnetdml.losses, "triplet_loss", "losses.triplet_loss", _hinges("losses.triplet")),
    (magnetdml.losses, "nca_loss", "losses.nca_loss", None),
    (magnetdml.losses, "ncm_loss", "losses.ncm_loss", None),
    (LinearHead, "loss_and_grads", "losses.softmax_head", None),
    (magnetdml.training, "classify_batch", "evaluate.classify_batch", _classify),
    (magnetdml.training, "_save_training_state", "training.save_state", _saved_bytes),
    (magnetdml.training, "train", "training.train", None),
]
SPAN_NAMES = [name for _, _, name, _ in TARGETS]
# The spans that contain other wrapped calls, so that their self time differs
# from their total; the self time of train() is the loop's own work.
SELF_TIME = {
    "index.build_index": "index.build_index.self_s",
    "sampler.sample_neighbourhood": "sampler.sample_neighbourhood.self_s",
    "training.train": "training.loop_self.s",
}

# Ratios reported per layer: name -> (numerator counter, denominator counter).
RATIOS = {
    "sampler.truncated_frac": ("sampler.truncated", "sampler.sample_neighbourhood.calls"),
    "sampler.replacement_fallback_frac": (
        "sampler.replacement_fallback", "sampler.sample_neighbourhood.calls"),
    "losses.magnet.active_hinge_frac": ("losses.magnet.active_hinges", "losses.magnet.hinges"),
    "losses.triplet.active_hinge_frac": ("losses.triplet.active_hinges", "losses.triplet.hinges"),
}
COUNTERS = [
    "model.forward.rows", "index.kmeans.lloyd_iters", "evaluate.classify_batch.queries",
    "evaluate.classify_batch.references", "training.save_state.bytes",
]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a summary holds, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".s"] = "s"
        if name in SELF_TIME:
            units[SELF_TIME[name]] = "s"
        units[name + ".calls"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "fraction" for name in RATIOS})
    return units


class Tracer:
    """Records a span per wrapped call: (name, start, end, parent span)."""

    def __init__(self):
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Counts = defaultdict(float)
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._kmeans(original) if name == "index.kmeans" else original
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, wrapped, count))

    def remove(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name: str, fn, count: Optional[Callable]):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _kmeans(self, fn):
        # kmeans appends the objective once per assignment step to ``history``
        counts = self.counts

        @functools.wraps(fn)
        def with_history(*args, history=None, **kwargs):
            steps = [] if history is None else history
            before = len(steps)
            result = fn(*args, history=steps, **kwargs)
            counts["index.kmeans.lloyd_iters"] += len(steps) - before
            return result

        return with_history

    def summary(self) -> Dict[str, float]:
        """Total seconds and calls per span name, self seconds where a span has
        children, and the counters and ratios."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {key: 0.0 for key in metric_units()}
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name + ".s"] += end - start
            out[name + ".calls"] += 1
            if name in SELF_TIME:
                out[SELF_TIME[name]] += end - start - child_time[idx]
        for name in COUNTERS:
            out[name] = self.counts[name]
        for name, (num, den) in RATIOS.items():
            total = out.get(den, self.counts[den])
            out[name] = self.counts[num] / total if total else 0.0
        return out
