"""In-memory span tracing of osev's public functions, installed from outside.

A :class:`Tracer` replaces each traced function with a wrapper that records a
span (name, start, end, parent) and restores the originals when it stops.
Modules that import a name with ``from .x import y`` hold their own binding,
so every ``osev.*`` module attribute that *is* the original function object is
patched, not only the defining module's.  Methods are patched on their class,
which also covers subclasses that inherit them (``PointwiseConv`` runs
``TemporalConv.forward``).
"""

from __future__ import annotations

import functools
import sys
import time

#: Traced functions as (module, qualified name); spans are named
#: ``<module>.<qualified name>`` with the ``osev.`` prefix dropped.
TARGETS = (
    ("nn", "TemporalConv.forward"),
    ("nn", "TemporalConv.backward"),
    ("nn", "sgd_step"),
    ("nn", "draw_time_permutations"),
    ("nn", "apply_time_permutations"),
    ("nn", "gradcheck"),
    ("hsic", "hsic_value_and_grad"),
    ("hsic", "median_bandwidth"),
    ("losses", "edl_loss_batch"),
    ("losses", "euc_loss_grad_evidence"),
    ("evidential", "evidence_from_logits"),
    ("evidential", "batch_probs_and_uncertainty"),
    ("debias", "ced_forward"),
    ("debias", "accumulate_gradients"),
    ("debias", "train_step"),
    ("debias", "vanilla_train_step"),
    ("debias", "debias_objective"),
    ("debias", "bias_objective"),
    ("metrics", "open_maf1_curve"),
    ("metrics", "open_predictions"),
    ("metrics", "roc_auc"),
    ("metrics", "ece"),
    ("metrics", "write_score_dump"),
    ("data", "load_dataset"),
    ("data", "load_split"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("runner", "run_training"),
    ("runner", "run_evaluation"),
    ("runner", "score_split"),
    ("runner", "run_gradcheck"),
    ("config", "RunConfig.from_file"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

#: Spans whose calls make up one optimizer step.
STEP_SPANS = ("debias.train_step", "debias.vanilla_train_step")


def _conv_forward_cost(layer, x) -> tuple[int, int]:
    """FLOPs and bytes of one forward, computed from shapes (each operand touched once)."""
    b, c_in, t = x.shape
    t_out = t - layer.kernel + 1
    macs = b * layer.c_out * c_in * layer.kernel * t_out
    flops = 2 * macs + b * layer.c_out * t_out
    words = b * c_in * t + layer.c_out * c_in * layer.kernel + layer.c_out + b * layer.c_out * t_out
    return flops, 8 * words


def _conv_backward_cost(layer, grad_out) -> tuple[int, int]:
    """FLOPs and bytes of one backward: weight, bias and input gradients."""
    b, c_out, t_out = grad_out.shape
    t = t_out + layer.kernel - 1
    macs = b * c_out * layer.c_in * layer.kernel * t_out
    flops = 2 * macs + b * c_out * t_out + 2 * macs
    weights = c_out * layer.c_in * layer.kernel
    words = b * c_out * t_out + b * layer.c_in * t + 2 * weights + 2 * c_out + b * layer.c_in * t
    return flops, 8 * words


#: Per-call cost models, keyed by span name; called with the traced call's arguments.
COSTS = {
    "nn.TemporalConv.forward": _conv_forward_cost,
    "nn.TemporalConv.backward": _conv_backward_cost,
}


class Tracer:
    """Records spans of the traced functions between :meth:`start` and :meth:`stop`.

    ``spans`` holds ``[name, start_s, end_s, parent_index]`` lists in start
    order; ``costs`` maps a span name to its summed computed [flops, bytes].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.costs: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, costs = self.spans, self._stack, self.costs
        cost = COSTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
                if cost is not None:
                    flops, nbytes = cost(*args, **kwargs)
                    total = costs.setdefault(name, [0, 0])
                    total[0] += flops
                    total[1] += nbytes

        return traced

    def start(self) -> None:
        """Clear the recorded spans and patch every traced binding."""
        if self._restore:
            raise RuntimeError("tracer already started")
        self.spans.clear()
        self.costs.clear()
        self._stack.clear()
        modules = [m for key, m in sorted(sys.modules.items()) if key == "osev" or key.startswith("osev.")]
        for (module, qualname), name in zip(TARGETS, SPAN_NAMES):
            owner = sys.modules[f"osev.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def stop(self) -> None:
        """Put every original binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total minus direct children)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def durations(self, names) -> list[float]:
        """Durations in seconds of every span whose name is in ``names``."""
        return [end - start for name, start, end, _ in self.spans if name in names]
