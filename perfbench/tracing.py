"""Spans and counters around geotweet's public functions, from outside the
program.

``Tracer.install`` replaces each entry of ``WRAPPED`` (a module global or a
class attribute) with a wrapper and ``Tracer.remove`` puts the originals
back. A missing name raises ``MissingTarget`` naming it, so a renamed
function can never turn into a silent zero.

Backward time goes to the layer whose call created the node: after each
wrapped layer call, every graph node reachable from the call's outputs but
not from its inputs gets its ``_backward`` rule wrapped in a timer for that
layer. This module is the only place the benchmark reads ``_parents`` and
``_backward``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

# kinds of wrapper
LAYER = "layer"  # self time to <label>.fwd_s, created nodes tagged <label>
PHASE = "phase"  # inclusive time to <label>
COUNT = "count"  # call count only
# The other kinds in WRAPPED each name one special wrapper in Tracer._wrapper.

# (metric label, module, attribute path, kind). Attribute paths with a dot
# name a class attribute; the others name a module global at the site where
# the program looks it up.
WRAPPED = (
    ("autodiff.matmul", "geotweet.autodiff", "matmul", COUNT),
    ("autodiff.cross_entropy", "geotweet.autodiff", "cross_entropy", LAYER),
    ("autodiff.backward", "geotweet.autodiff", "Tensor.backward", "backward"),
    ("text_net.char_vectors", "geotweet.text_net", "TextNetwork.char_vectors", LAYER),
    ("text_net.bilstm_contexts", "geotweet.text_net", "TextNetwork.bilstm_contexts", LAYER),
    ("text_net.contextual_projection", "geotweet.text_net",
     "TextNetwork.contextual_projection", LAYER),
    ("text_net.windowed_max_pool", "geotweet.text_net", "TextNetwork.windowed_max_pool", LAYER),
    ("text_net.attention_pool", "geotweet.text_net", "TextNetwork.attention_pool", LAYER),
    ("loc_net.conv", "geotweet.loc_net", "LocConvNetwork.forward", LAYER),
    ("loc_net.timezone", "geotweet.loc_net", "TimezoneEmbedding.forward", LAYER),
    ("rbf_net", "geotweet.rbf_net", "RbfNetwork.forward", LAYER),
    ("fusion", "geotweet.fusion", "FusionClassifier.fuse", LAYER),
    ("fusion", "geotweet.fusion", "FusionClassifier.penultimate", LAYER),
    ("fusion", "geotweet.fusion", "FusionClassifier.classify", LAYER),
    ("fusion", "geotweet.model", "extrema_loss", LAYER),
    ("model.forward", "geotweet.model", "GeoModel.forward", "forward"),
    ("trainer.step", "geotweet.model", "GeoModel.loss", "step_begin"),
    ("optim.step", "geotweet.optim", "Adam.step", "step_end"),
    ("trainer.dev_eval", "geotweet.trainer", "evaluate_accuracy", PHASE),
    ("corpus.read_jsonl", "geotweet.corpus", "read_jsonl", PHASE),
    ("corpus.encode", "geotweet.corpus", "encode_example", PHASE),
    ("model.load_checkpoint", "geotweet.cli", "load_checkpoint", PHASE),
    ("model.save_checkpoint", "geotweet.cli", "save_checkpoint", PHASE),
    ("hashing.compute_representations", "geotweet.hashing", "compute_representations", PHASE),
    ("hashing.save_codes", "geotweet.hashing", "save_codes", "save_codes"),
    ("hashing.load_codes", "geotweet.hashing", "load_codes", PHASE),
    ("hashing.retrieve", "geotweet.hashing", "retrieve", "retrieve"),
    ("hashing.average_precision", "geotweet.hashing", "average_precision", PHASE),
)

LAYER_LABELS = tuple(dict.fromkeys(label for label, _, _, kind in WRAPPED
                                   if kind == LAYER))
UNTAGGED = "untagged"


def _train_flag(fn, args, kwargs):
    """The ``train`` argument of a GeoModel.forward/loss call."""
    return bool(inspect.signature(fn).bind(*args, **kwargs).arguments.get("train", False))


class MissingTarget(RuntimeError):
    """A name in the wrapper table does not exist in the program."""


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            raise MissingTarget(f"{module_name}.{path}: {name} not found")
    if not callable(owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None)):
        raise MissingTarget(f"{module_name}.{path} not found")
    return owner, attr


def _tensors(value, out):
    """Collect every Tensor nested in tuples, lists and dicts."""
    if hasattr(value, "_parents"):
        out.append(value)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _tensors(v, out)
    elif isinstance(value, dict):
        for v in value.values():
            _tensors(v, out)
    return out


class Tracer:
    """Per-layer self times and exact counts for one traced phase."""

    def __init__(self):
        self.installed = []
        self.reset()

    def reset(self):
        """Drop everything recorded so far (the wrappers stay installed)."""
        self.fwd = defaultdict(float)
        self.bwd = defaultdict(float)
        self.phase = defaultdict(float)
        self.rules_total = 0.0
        self.tag_s = 0.0
        self.codes_bytes = 0
        self.retrieve_candidates = []
        self.eval_graph_nodes = []
        self.losses = []
        self.steps = []  # one dict per training step
        self._stack = []  # child-time accumulators of open spans
        self._step = None
        self._matmul_calls = 0

    # --- install / remove ----------------------------------------------------

    def install(self):
        targets = [(_resolve(module, path), label, kind)
                   for label, module, path, kind in WRAPPED]
        for (owner, attr), label, kind in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, label, kind))
            self.installed.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # --- spans ---------------------------------------------------------------

    def _call(self, fn, args, kwargs):
        """Run fn as a child span; return (result, start, duration, self time)."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
        return out, start, duration, duration - frame[0]

    def _charge_parent(self, start):
        if self._stack:
            self._stack[-1][0] += perf_counter() - start

    def _wrapper(self, fn, label, kind):
        tracer = self
        if kind == COUNT:
            def wrapper(*args, **kwargs):
                tracer._matmul_calls += 1
                return fn(*args, **kwargs)
        elif kind == LAYER:
            def wrapper(*args, **kwargs):
                out, start, _, own = tracer._call(fn, args, kwargs)
                tracer.fwd[label] += own
                tracer._tag(out, (args, kwargs), label)
                tracer._charge_parent(start)
                return out
        elif kind == "backward":
            def wrapper(root):
                t0 = perf_counter()
                nodes = tracer._graph_nodes(root, tag=UNTAGGED)
                tracer.tag_s += perf_counter() - t0
                rules_before = tracer.rules_total
                _, start, duration, _ = tracer._call(fn, (root,), {})
                if tracer._step is not None:
                    tracer._step["nodes"] = nodes
                    tracer._step["rules"] = tracer.rules_total - rules_before
                    tracer._step["backward"] = duration
                tracer._charge_parent(t0)
        elif kind == "forward":
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if not _train_flag(fn, args, kwargs):
                    t0 = perf_counter()
                    tracer.eval_graph_nodes.append(tracer._graph_nodes(out))
                    tracer.tag_s += perf_counter() - t0
                return out
        elif kind == "step_begin":
            def wrapper(*args, **kwargs):
                if _train_flag(fn, args, kwargs):
                    tracer._step = {"start": perf_counter(), "before": tracer._totals()}
                out = fn(*args, **kwargs)
                tracer.losses.append(float(out[0].data))
                return out
        elif kind == "step_end":
            def wrapper(optimizer):
                _, start, duration, _ = tracer._call(fn, (optimizer,), {})
                tracer._close_step(start + duration, duration)
                tracer._charge_parent(start)
        elif kind == "save_codes":
            def wrapper(path, codes):
                _, start, duration, _ = tracer._call(fn, (path, codes), {})
                tracer.phase[label] += duration
                tracer.codes_bytes += os.path.getsize(path)
                tracer._charge_parent(start)
        elif kind == "retrieve":
            def wrapper(query_bits, index):
                out, start, duration, _ = tracer._call(
                    fn, (query_bits, index), {})
                tracer.phase[label] += duration
                tracer.retrieve_candidates.append(len(index))
                tracer._charge_parent(start)
                return out
        elif kind == PHASE:
            def wrapper(*args, **kwargs):
                out, start, duration, _ = tracer._call(fn, args, kwargs)
                tracer.phase[label] += duration
                tracer._charge_parent(start)
                return out
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        wrapper.__wrapped__ = fn
        return wrapper

    # --- training steps ------------------------------------------------------

    def _totals(self):
        return {"fwd": sum(self.fwd.values()), "tag": self.tag_s,
                "matmul": self._matmul_calls}

    def _close_step(self, end, optim):
        """Close the step opened by GeoModel.loss; the residual is step time
        no span accounts for (un-wrapped glue code and wrapper cost)."""
        step, self._step = self._step, None
        if step is None:
            return
        before, after = step["before"], self._totals()
        wall = end - step["start"]
        backward = step.get("backward", 0.0)
        attributed = (after["fwd"] - before["fwd"] + backward + optim
                      + after["tag"] - before["tag"])
        self.steps.append({
            "wall": wall, "optim": optim, "backward": backward,
            "rules": step.get("rules", 0.0),
            "nodes": step.get("nodes", 0),
            "matmul": after["matmul"] - before["matmul"],
            "residual": wall - attributed,
        })

    # --- graph walks ---------------------------------------------------------

    def _rule(self, rule, label):
        tracer = self

        def timed(g):
            start = perf_counter()
            out = rule(g)
            duration = perf_counter() - start
            tracer.bwd[label] += duration
            tracer.rules_total += duration
            tracer._charge_parent(start)
            return out

        timed.bench_layer = label
        return timed

    def _tag(self, out, inputs, label):
        """Wrap the rules of nodes reachable from out but not from inputs."""
        t0 = perf_counter()
        stop = {id(t) for t in _tensors(inputs, [])}
        stack = [t for t in _tensors(out, []) if id(t) not in stop]
        while stack:
            node = stack.pop()
            rule = node._backward
            if rule is None or hasattr(rule, "bench_layer"):
                continue
            node._backward = self._rule(rule, label)
            stack.extend(p for p in node._parents if id(p) not in stop)
        self.tag_s += perf_counter() - t0

    def _graph_nodes(self, out, tag=None):
        """Number of graph nodes reachable from out; with ``tag``, nodes that
        no layer created are tagged with it."""
        seen = set()
        stack = _tensors(out, [])
        while stack:
            node = stack.pop()
            if id(node) in seen or node._backward is None:
                continue
            seen.add(id(node))
            if tag is not None and not hasattr(node._backward, "bench_layer"):
                node._backward = self._rule(node._backward, tag)
            stack.extend(node._parents)
        return len(seen)

    # --- results -------------------------------------------------------------

    def counts(self):
        """Exact counts, each as the set of values seen (one value expected)."""
        return {
            "autodiff.nodes_per_step": sorted({s["nodes"] for s in self.steps}),
            "autodiff.matmul_calls_per_step": sorted({s["matmul"] for s in self.steps}),
            "autodiff.eval_graph_nodes_per_batch": sorted(set(self.eval_graph_nodes)),
            "hashing.candidates_per_query": sorted(set(self.retrieve_candidates)),
        }

    def metrics(self, passes):
        """Per-layer metrics: layer and phase times per pass, step figures per
        training step, exact counts as single values."""
        m = {}
        for label in LAYER_LABELS:
            m[f"{label}.fwd_s"] = self.fwd[label] / passes
            m[f"{label}.bwd_s"] = self.bwd[label] / passes
        m["untagged.bwd_s"] = self.bwd[UNTAGGED] / passes
        n_steps = len(self.steps)
        per_step = (lambda key: sum(s[key] for s in self.steps) / n_steps
                    if n_steps else 0.0)
        m["autodiff.backward_s"] = per_step("backward")
        m["autodiff.rules_s"] = per_step("rules")
        m["autodiff.bookkeeping_s"] = m["autodiff.backward_s"] - m["autodiff.rules_s"]
        for name, values in self.counts().items():
            m[name] = max(values, default=0)  # run() fails a count seen twice
        m["optim.step_s"] = per_step("optim")
        walls = [s["wall"] for s in self.steps]
        if len(walls) >= 2:
            q = statistics.quantiles(walls, n=10, method="inclusive")
            m["trainer.step_s.p50"], m["trainer.step_s.p90"] = statistics.median(walls), q[8]
        else:
            m["trainer.step_s.p50"] = m["trainer.step_s.p90"] = walls[0] if walls else 0.0
        m["trainer.step_residual_share"] = (
            sum(s["residual"] for s in self.steps) / sum(walls) if walls else 0.0)
        m["trainer.dev_eval_s"] = self.phase["trainer.dev_eval"] / passes
        for label in ("corpus.read_jsonl", "corpus.encode", "model.load_checkpoint",
                      "model.save_checkpoint", "hashing.compute_representations",
                      "hashing.save_codes", "hashing.load_codes", "hashing.retrieve",
                      "hashing.average_precision"):
            m[f"{label}_s"] = self.phase[label] / passes
        m["hashing.codes_bytes"] = self.codes_bytes / passes
        m["trace.tag_s"] = self.tag_s / passes
        return m
