"""Span tracing from outside the package, by wrapping its public callables.

Every wrapped call is timed.  A *span* call emits a record (name, layer,
start, end, parent, self time) kept in memory; a *leaf* call, for per-call
kernels such as ``rhs_flat`` or ``eit_factors``, is only counted and its
time summed onto the nearest enclosing span record.  Self time of a call is
its duration minus the time of the wrapped calls it made, and is summed per
layer, a layer being one module of the package.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.records: list[dict] = []
        self.count: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [start, child_seconds, emitted-ancestor record]
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr: str, name, layer: str, span: bool = True,
             after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`remove`.

        ``name`` is a string or a function of the call arguments giving one;
        ``after(tracer, result)`` may add counts taken from the result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            return tracer._call(original, label, layer, span, after, args, kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _call(self, fn, label, layer, span, after, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        anchor = parent[2] if parent is not None else None
        record = None
        if span:
            record = {"id": len(self.records), "name": label, "layer": layer,
                      "parent": None if anchor is None else anchor["id"],
                      "leaves": {}}
            self.records.append(record)
        frame = [time.perf_counter(), 0.0, record if span else anchor]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[0]
            own = duration - frame[1]
            if parent is not None:
                parent[1] += duration
            self.count[label] += 1
            self.seconds[label] += duration
            self.layer_self[layer] += own
            if record is not None:
                record.update(start=frame[0], end=end, self=own)
            elif anchor is not None:
                leaf = anchor["leaves"].setdefault(label, [0, 0.0])
                leaf[0] += 1
                leaf[1] += duration
        if after is not None:
            after(self, result)
        return result

    def add(self, label: str, amount) -> None:
        """Add a count taken from a result (iterations, simulated time)."""
        self.count[label] += amount

    def run(self, label: str, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span of the benchmark's own."""
        return self._call(fn, label, layer, True, None, args, kwargs)

    def total(self, prefix: str) -> tuple[int, float]:
        """(calls, seconds) summed over labels starting with ``prefix``."""
        keys = [k for k in self.count if k.startswith(prefix)]
        return (sum(self.count[k] for k in keys),
                sum(self.seconds[k] for k in keys))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.records,
                                    "layer_self_s": dict(self.layer_self)}))


def _nmax(kwargs, default):
    return kwargs.get("nmax", default)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every computing module of rydcav.

    Names are patched where callers look them up: a function imported by
    name into another module is wrapped in that module's namespace.
    """
    from rydcav import bubble, cli, fitting, interactions, linear, meanfield

    w = tracer.wrap
    w(cli, "main", lambda argv: f"cli.{argv[0]}", "cli")
    for attr in ("write_csv", "write_json", "read_xy_csv"):
        w(cli, attr, f"datafiles.{attr}", "datafiles")
    for attr in ("load_config", "validate", "set_path"):
        w(cli, attr, f"params.{attr}", "params", span=False)
    w(fitting, "set_paths", "params.set_paths", "params", span=False)

    w(fitting, "fit_xi_series", "fitting.fit_xi_series", "fitting")
    w(fitting, "fit", "fitting.fit", "fitting",
      after=lambda t, res: t.add("fitting.iterations", res.iterations))
    w(fitting, "jacobian", "fitting.jacobian", "fitting")
    w(fitting.FitProblem, "model_curve", "fitting.model_curve", "fitting")

    default = bubble.DEFAULT_NMAX
    w(bubble, "evolve",
      lambda *a, **k: f"bubble.evolve.n{_nmax(k, default)}", "bubble",
      after=lambda t, res: t.add(f"bubble.sim_us.n{res.metadata['nmax']}",
                                 float(res.t[-1] - res.t[0])))
    w(bubble, "steady_transmission_bubble",
      lambda *a, **k: f"bubble.steady.n{_nmax(k, default)}", "bubble")
    w(bubble.BubbleModel, "__init__",
      lambda *a, **k: f"bubble.build.n{_nmax(k, default)}", "bubble")
    w(bubble.BubbleModel, "rhs_flat",
      lambda model, t, y: f"bubble.rhs_flat.n{model.nmax}", "bubble", span=False)
    w(bubble, "integrate", "ode.integrate", "ode")

    w(meanfield, "scan_meanfield", "meanfield.scan_meanfield", "meanfield")
    w(meanfield, "transmission_curve", "meanfield.transmission_curve", "meanfield")
    w(meanfield, "solve_self_consistent", "meanfield.solve", "meanfield", span=False)
    w(meanfield, "transmission_from_solution", "meanfield.transmission_from_solution",
      "meanfield", span=False)
    w(meanfield, "eit_factors", "linear.eit_factors", "linear", span=False)

    w(linear, "scan_linear", "linear.scan_linear", "linear")
    w(linear, "transmission_linear", "linear.transmission_linear", "linear",
      span=False)
    for attr in ("c6_coefficient", "blockade_volume", "kappa", "atoms_per_bubble"):
        w(interactions, attr, f"interactions.{attr}", "interactions", span=False)
