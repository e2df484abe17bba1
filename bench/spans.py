"""Span tracing of the package's public functions, installed from outside.

The package modules import each other's functions by name (``shooting``
calls its own ``integrate``, ``blowup`` its own ``a_integral``), so patching
``liouville.radial.integrate`` alone would miss those calls. ``Tracer.install``
therefore replaces the original object under every name that holds it in
every loaded ``liouville`` module, and ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, count]`` and written
out when the run ends. A span's self time is its duration minus the time its
child spans cover; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time

import numpy as np

# (module, attribute, span name). Attributes with a dot are methods.
WRAPPED = (
    ("radial", "integrate", "radial.integrate"),
    ("radial", "origin_series", "radial.origin_series"),
    ("radial", "evaluate", "radial.evaluate"),
    ("energy", "extract_summary", "energy.extract_summary"),
    ("energy", "pohozaev_residual", "energy.pohozaev_residual"),
    ("energy", "pohozaev_tail_table", "energy.pohozaev_tail_table"),
    ("energy", "truncated_sigma", "energy.truncated_sigma"),
    ("shooting", "alpha_to_sigma", "shooting.alpha_to_sigma"),
    ("shooting", "shooting_jacobian", "shooting.shooting_jacobian"),
    ("shooting", "invert_sigma", "shooting.invert_sigma"),
    ("scaling", "height_match", "scaling.height_match"),
    ("scaling", "mu_transform", "scaling.mu_transform"),
    ("scaling", "eta_rescale", "scaling.eta_rescale"),
    ("scaling", "hat_rescale", "scaling.hat_rescale"),
    ("scaling", "d_relation_residual", "scaling.d_relation_residual"),
    ("scaling", "bubble_distance", "scaling.bubble_distance"),
    ("green", "green_eval", "green.green_eval"),
    ("green", "green_gradient", "green.green_gradient"),
    ("green", "regular_part", "green.regular_part"),
    ("green", "gstar_matrix", "green.gstar_matrix"),
    ("green", "a_integral", "green.a_integral"),
    ("blowup", "BlowupConfiguration.__post_init__", "blowup.config_init"),
    ("blowup", "BlowupConfiguration.gstar_gradient", "blowup.gstar_gradient"),
    ("blowup", "b_coefficient", "blowup.b_coefficient"),
    ("blowup", "leading_term_general", "blowup.leading_term_general"),
    ("blowup", "leading_term_Q", "blowup.leading_term_Q"),
    ("blowup", "location_residual", "blowup.location_residual"),
    ("fields", "field_from_config", "fields.field_from_config"),
    ("algebra", "validate_structure", "algebra.validate_structure"),
    ("algebra", "critical_values", "algebra.critical_values"),
    ("algebra", "lambda_L", "algebra.lambda_L"),
    ("algebra", "frak_m", "algebra.frak_m"),
    ("algebra", "q_point", "algebra.q_point"),
    ("algebra", "classify_region", "algebra.classify_region"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "main", "cli.main"),
)

# Spans whose count is the work they did: nodes of a profile, Green points.
_NODES = "radial.integrate"
_POINT_SPANS = ("green.green_eval", "green.green_gradient")
# The harness opens one root span per operation under this prefix.
OP_PREFIX = "op."
FIELD_OP = OP_PREFIX + "field"

# Counters that must repeat exactly between two traced passes of one seed.
DETERMINISTIC = (
    "radial.nodes_per_solve",
    "shooting.integrations_per_invert",
    "green.a_integral.calls",
    "green.points",
)

# Per-layer metrics derived from spans, with their units.
SPAN_METRICS = {
    "radial.integrate.calls": "count",
    "radial.integrate.self_ms": "ms",
    "radial.nodes_per_solve": "count",
    "radial.us_per_node": "us",
    "energy.extract_summary.calls": "count",
    "energy.extract_summary.self_ms": "ms",
    "scaling.self_ms": "ms",
    "shooting.integrations_per_invert": "count",
    "shooting.alpha_to_sigma.calls": "count",
    "shooting.shooting_jacobian.self_ms": "ms",
    "shooting.invert_sigma.self_ms": "ms",
    "green.a_integral.calls": "count",
    "green.a_integral.self_ms": "ms",
    "green.regular_part.calls": "count",
    "green.regular_part.self_ms": "ms",
    "green.gstar_matrix.self_ms": "ms",
    "green.points": "count",
    "green.us_per_point": "us",
    "blowup.config_init.self_ms": "ms",
    "blowup.leading_term_general.self_ms": "ms",
    "blowup.location_residual.self_ms": "ms",
    "blowup.leading_term_Q.self_ms": "ms",
    "algebra.self_ms": "ms",
}


def _point_count(args, kwargs) -> int:
    """Number of (x, p) pairs a broadcasting Green call evaluates."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    p = args[2] if len(args) > 2 else kwargs["p"]
    shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(p)[:-1])
    return math.prod(shape)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without spans (the harness's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == _NODES:
            def count(args, kwargs, result):
                return len(result.grid)
        elif name in _POINT_SPANS:
            def count(args, kwargs, result):
                return _point_count(args, kwargs)
        else:
            count = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                tracer.close(index, n)

        return wrapper

    def install(self) -> None:
        """Wrap every target in ``WRAPPED``; record the ones that are gone."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "liouville" or k.startswith("liouville."))
        ]
        self.absent = []
        for mod_name, attr, name in WRAPPED:
            mod = sys.modules.get(f"liouville.{mod_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            if owner is None or (method and method not in vars(owner)):
                self.absent.append(name)
                continue
            if method:
                original = vars(owner)[method]
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, owner)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is owner:
                        self._patch(m, key, owner, wrapper)

    def _patch(self, target, key, original, replacement) -> None:
        setattr(target, key, replacement)
        self._patched.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched = []

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as stream:
            stream.write(json.dumps(extra) + "\n")
            for name, start, end, parent, count in self.spans:
                stream.write(
                    json.dumps([name, start, end, parent, count]) + "\n"
                )


def span_metrics(spans):
    """Per-layer metrics and the exact counters of one traced pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    nodes = 0
    points = 0
    point_ms = 0.0
    invert_integrations = 0
    for k, (name, start, end, parent, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (end - start - child[k])
        if name == _NODES:
            nodes += count
            if _has_ancestor(spans, k, "shooting.invert_sigma"):
                invert_integrations += 1
        elif name in _POINT_SPANS and parent >= 0 and spans[parent][0] == FIELD_OP:
            points += count
            point_ms += 1e3 * (end - start)

    def layer_self(prefix):
        return sum(v for k, v in self_ms.items() if k.startswith(prefix))

    solves = calls.get(_NODES, 0)
    inverts = calls.get("shooting.invert_sigma", 0)
    out = {
        "radial.integrate.calls": solves,
        "radial.integrate.self_ms": self_ms.get(_NODES, 0.0),
        "radial.nodes_per_solve": nodes / solves if solves else 0.0,
        "radial.us_per_node": 1e3 * self_ms.get(_NODES, 0.0) / nodes if nodes else 0.0,
        "energy.extract_summary.calls": calls.get("energy.extract_summary", 0),
        "energy.extract_summary.self_ms": self_ms.get("energy.extract_summary", 0.0),
        "scaling.self_ms": layer_self("scaling."),
        "shooting.integrations_per_invert": (
            invert_integrations / inverts if inverts else 0.0
        ),
        "shooting.alpha_to_sigma.calls": calls.get("shooting.alpha_to_sigma", 0),
        "shooting.shooting_jacobian.self_ms": self_ms.get("shooting.shooting_jacobian", 0.0),
        "shooting.invert_sigma.self_ms": self_ms.get("shooting.invert_sigma", 0.0),
        "green.a_integral.calls": calls.get("green.a_integral", 0),
        "green.a_integral.self_ms": self_ms.get("green.a_integral", 0.0),
        "green.regular_part.calls": calls.get("green.regular_part", 0),
        "green.regular_part.self_ms": self_ms.get("green.regular_part", 0.0),
        "green.gstar_matrix.self_ms": self_ms.get("green.gstar_matrix", 0.0),
        "green.points": points,
        "green.us_per_point": 1e3 * point_ms / points if points else 0.0,
        "blowup.config_init.self_ms": self_ms.get("blowup.config_init", 0.0),
        "blowup.leading_term_general.self_ms": self_ms.get("blowup.leading_term_general", 0.0),
        "blowup.location_residual.self_ms": self_ms.get("blowup.location_residual", 0.0),
        "blowup.leading_term_Q.self_ms": self_ms.get("blowup.leading_term_Q", 0.0),
        "algebra.self_ms": layer_self("algebra."),
    }
    counters = {k: out[k] for k in DETERMINISTIC}
    counters.update({f"calls:{k}": v for k, v in sorted(calls.items())})
    return out, counters


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
