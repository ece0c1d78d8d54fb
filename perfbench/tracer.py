"""Per-layer timing by wrapping public functions of `steinfed` from outside.

Each layer is a public function or method named ``<module>.<function>``
(``<module>.<Class>.<method>`` for methods).  A wrapper records calls,
inclusive seconds and self seconds; self time is the span's duration minus
the time its traced children took.  The benchmark opens its own spans
around each phase, so a phase's self time is the part of it that no layer
accounts for.

Several layers are imported by name into other modules (``experiments``
does ``from .metrics import save_snapshot``), so installing a wrapper
replaces every binding of the original object in every loaded `steinfed`
module, which is where the calls look it up.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

LAYERS = (
    "experiments.build_problem",
    "models.pretrain_feature_map",
    "data.make_synthetic_pair",
    "federation.learning_round",
    "federation.unlearning_round",
    "federation.centralized_round",
    "svgd.run_svgd",
    "svgd.svgd_direction",
    "kernels.median_bandwidth",
    "kernels.kde_log_density_grad",
    "kernels.kde_log_density",
    "models.SoftmaxHeadLoss.neg_loss_grad",
    "models.SoftmaxHeadLoss.loss",
    "models.GaussianMixtureLoss.neg_loss_grad",
    "models.per_class_accuracy",
    "metrics.grid_kl",
    "metrics.save_snapshot",
    "metrics.load_snapshot",
    "metrics.MetricsWriter.append",
    "metrics.TranscriptWriter.append",
    "pvi.pvi_round",
    "pvi.ulpvi_round",
)


class Tracer:
    """Span statistics keyed by name: ``[calls, inclusive_s, self_s]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self._child_time: list[float] = []

    def _enter(self) -> float:
        self._child_time.append(0.0)
        return self.clock()

    def _exit(self, name: str, start: float) -> None:
        elapsed = self.clock() - start
        children = self._child_time.pop()
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - children
        if self._child_time:
            self._child_time[-1] += elapsed

    @contextmanager
    def span(self, name: str):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "steinfed", layers=LAYERS) -> None:
        """Wrap each layer of the loaded package; a missing layer is an error."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer in layers:
            module_name, *path = layer.split(".")
            owner = sys.modules[f"{package}.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            traced = self.wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def metrics(self, layers=LAYERS) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.s`` and ``<layer>.self_s`` for every layer."""
        out: dict[str, float] = {}
        for layer in layers:
            calls, total, own = self.stats.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = total
            out[f"{layer}.self_s"] = own
        return out
