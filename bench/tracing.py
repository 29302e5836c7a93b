"""Wrappers the benchmark installs on prefixasr attributes in its own process.

``Patcher`` swaps a function for a wrapper everywhere a loaded prefixasr
module binds it (``from x import f`` makes a second binding), or a method on
its class, and puts every original back on ``restore``. ``Tracer`` records
one span per wrapped call: name, start, end, parent span and op id, plus
counts taken at the call boundary. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

from metrics import LAYERS, SPAN_COUNTS, SPANS

OP = "op"  # root span of one step or utterance


class Patcher:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr (a class method or a module function) by
        make_wrapper(original)."""
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            targets = [(owner, attr)]
        else:
            orig = getattr(owner, attr)
            targets = [(mod, name) for mod_name, mod in list(sys.modules.items())
                       if mod_name.split(".")[0] == "prefixasr"
                       for name, value in vars(mod).items() if value is orig]
        new = make_wrapper(orig)
        for target, name in targets:
            self._undo.append((target, name, orig))
            setattr(target, name, new)

    def restore(self) -> None:
        while self._undo:
            target, name, orig = self._undo.pop()
            setattr(target, name, orig)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, op id or None, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.enabled = True

    def begin_op(self, op_id: int, now: float) -> None:
        self.end_op(now)
        self.op = op_id
        self._stack = [len(self.spans)]
        self.spans.append([OP, now, now, None, op_id, {}])

    def end_op(self, now: float) -> None:
        if self.op is not None:
            self.spans[self._stack[0]][2] = now
        self.op = None
        self._stack = []

    def wrapper(self, name: str, before=None, after=None):
        """Wrapper factory for Patcher.wrap. before(args) and after(args,
        result) return counts; they run outside the timed span."""
        def make(fn):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                counts = before(args) if before else {}
                parent = self._stack[-1] if self._stack else None
                span = [name, 0.0, 0.0, parent, self.op, counts]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                if after:
                    counts.update(after(args, result))
                return result
            return traced
        return make

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, counts in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op,
                                    "counts": counts}) + "\n")

    def summary(self, num_ops: int, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; see metrics.PER_LAYER for names. Every time is
        multiplied by scale, the run's median host-speed factor."""
        ops = max(num_ops, 1)
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        calls_in_ops = defaultdict(int)
        total_ms = defaultdict(float)
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        count_sum = defaultdict(float)
        count_sum_in_ops = defaultdict(float)
        root_ms = []
        for i, (name, start, end, _, op, counts) in enumerate(self.spans):
            dur = (end - start) * 1e3 * scale
            calls[name] += 1
            total_ms[name] += dur
            for key, value in counts.items():
                count_sum[key] += value
                if op is not None:
                    count_sum_in_ops[key] += value
            if op is None:
                continue
            calls_in_ops[name] += 1
            layer = "untraced" if name == OP else name.split(".")[0]
            self_ms[layer] += dur - child_time[i] * 1e3 * scale
            if name == OP:
                root_ms.append(dur)
        out: dict[str, float] = {}
        for s in SPANS:
            out[f"{s}.calls"] = calls_in_ops[s] / ops
            out[f"{s}.ms"] = total_ms[s] / calls[s] if calls[s] else 0.0
        for metric, _, _, per in SPAN_COUNTS:
            if per == "op":
                out[metric] = count_sum_in_ops[metric] / ops
            else:
                span = metric.rsplit(".", 1)[0]
                out[metric] = count_sum[metric] / calls[span] if calls[span] else 0.0
        tokens = count_sum["declm.greedy_decode.tokens"]
        out["declm.greedy_decode.ms_per_token"] = (
            total_ms["declm.greedy_decode"] / tokens if tokens else 0.0)
        for layer in LAYERS + ["untraced"]:
            out[f"{layer}.self_ms"] = self_ms[layer] / ops
        out["trace.op_ms_p50"] = float(np.median(root_ms)) if root_ms else 0.0
        out["trace.spans_per_op"] = (sum(calls_in_ops.values()) - len(root_ms)) / ops
        return out


def tape_nodes(loss) -> int:
    """Op nodes on the tape reachable from loss (tensors with a backward)."""
    seen = set()
    stack = [loss]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if getattr(t, "_backward", None) is not None:
            nodes += 1
        stack.extend(getattr(t, "_parents", ()))
    return nodes


def install_spans(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every function and method in metrics.SPANS."""
    from prefixasr import checkpoint, ctc, evalsuite, frontend, trainer
    from prefixasr.bridge import Bridge
    from prefixasr.declm import DecoderLM
    from prefixasr.encoder import ConformerEncoder
    from prefixasr.numcore import optim
    from prefixasr.numcore.tensor import Tensor

    def batch(args, result):
        return {"trainer.sample_batch.utts": len(result),
                "trainer.sample_batch.audio_s": sum(u.duration for u in result)}

    table = [
        (Tensor, "backward", "numcore.backward",
         lambda a: {"numcore.backward.tape_nodes": tape_nodes(a[0])}, None),
        (optim, "adam_step", "numcore.adam_step", None, None),
        (optim, "clip_grad_norm", "numcore.clip_grad_norm", None, None),
        (ConformerEncoder, "forward", "encoder.forward", None,
         lambda a, r: {"encoder.frames": r.shape[0]}),
        (ctc, "ctc_loss", "ctc.ctc_loss", None,
         lambda a, r: {"ctc.infeasible": int(not math.isfinite(r.item()))}),
        (Bridge, "forward", "bridge.forward", None, None),
        (DecoderLM, "forward_mixed", "declm.forward_mixed", None, None),
        (DecoderLM, "greedy_decode", "declm.greedy_decode", None,
         lambda a, r: {"declm.greedy_decode.tokens": len(r)}),
        (frontend, "load_audio", "frontend.load_audio", None, None),
        (frontend, "log_mel", "frontend.log_mel", None, None),
        (trainer, "prepare_corpus", "trainer.prepare_corpus", None, None),
        (trainer, "sample_batch", "trainer.sample_batch", None, batch),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None,
         lambda a, r: {"checkpoint.save_checkpoint.bytes": os.path.getsize(a[0])}),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None, None),
        (evalsuite, "wer", "evalsuite.wer", None, None),
    ]
    assert [row[2] for row in table] == SPANS
    for owner, attr, name, before, after in table:
        patcher.wrap(owner, attr, tracer.wrapper(name, before, after))
