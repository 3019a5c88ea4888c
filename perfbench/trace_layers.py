"""Span recorder for the traced benchmark run.

The traced run replaces the public functions as bound in
``stabsim.scenarios`` (and ``stabsim.device.bundled_scenario``) with
wrappers that record one span per call: name, start, end and the span
that caused it.  Work counts are read from the returned objects after the
span closes.  Spans stay in memory until the job process writes them out.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

JOB = "scenarios.job"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one process, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call; ``count(result, args)`` gives
        the work counts stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(result, args))
            return result
        return traced

    def to_jsonable(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _model_counts(model, args):
    return {"dim": model.space.total_dim}


def _liouvillian_counts(liouv, args):
    return {"nnz": liouv.matrix.nnz}


def _evolve_counts(result, args):
    rhs = result.diagnostics["rhs_evaluations"]
    # one complex sparse matvec: a complex multiply-add (8 flops) per nonzero
    return {"rhs_evals": rhs, "matvec_flops_computed": 8 * args[0].matrix.nnz * rhs}


def _steady_counts(steady, args):
    return {"residual": steady.residual,
            "evolved_us": steady.info.get("evolved_time", 0.0)}


#: (module, attribute, layer name, work counter) of every wrapped function
LAYERS = (
    ("device", "bundled_scenario", "device.bundled_scenario", None),
    ("scenarios", "build_dispersive", "hamiltonian.build_dispersive", _model_counts),
    ("scenarios", "build_collapse_set", "hamiltonian.build_collapse_set", None),
    ("scenarios", "build_liouvillian", "lindblad.build_liouvillian",
     _liouvillian_counts),
    ("scenarios", "evolve", "lindblad.evolve", _evolve_counts),
    ("scenarios", "steady_state", "lindblad.steady_state", _steady_counts),
    ("scenarios", "partial_trace", "hilbert.partial_trace", None),
    ("scenarios", "fit_exponential", "scenarios.fit_exponential", None),
    ("scenarios", "write_report", "scenarios.write_report", None),
)


def install(tracer: Tracer, modules: dict) -> None:
    """Rebind each function of ``LAYERS`` in ``modules`` (name -> module)."""
    for mod, attr, name, count in LAYERS:
        module = modules[mod]
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and work counts of one traced job process.

    Layers never called read 0.  ``scenarios.self_s`` is the job span's
    own time, so the ``*_s`` layers under the job add up to ``trace.job_s``.
    """
    own = self_times(spans)
    m = {f"{name}_s": 0.0 for _, _, name, _ in LAYERS}
    m.update({"lindblad.evolve_calls": 0, "lindblad.rhs_evals": 0,
              "lindblad.matvec_flops_computed": 0,
              "lindblad.steady_state_calls": 0, "lindblad.steady_residual": 0.0,
              "lindblad.steady_evolved_us": 0.0, "hamiltonian.dim": 0,
              "lindblad.nnz": 0})
    jobs = [s for s in spans if s.name == JOB]
    if len(jobs) != 1:
        raise ValueError(f"expected one {JOB} span, found {len(jobs)}")
    job = jobs[0]
    m["scenarios.self_s"] = own[job.id]
    m["trace.job_s"] = job.duration
    for s in spans:
        if s.name == JOB:
            continue
        m[f"{s.name}_s"] += own[s.id]
        c = s.counts
        if s.name == "lindblad.evolve":
            m["lindblad.evolve_calls"] += 1
            m["lindblad.rhs_evals"] += c["rhs_evals"]
            m["lindblad.matvec_flops_computed"] += c["matvec_flops_computed"]
        elif s.name == "lindblad.steady_state":
            m["lindblad.steady_state_calls"] += 1
            m["lindblad.steady_residual"] = max(m["lindblad.steady_residual"],
                                                c["residual"])
            m["lindblad.steady_evolved_us"] += c["evolved_us"]
        elif s.name == "hamiltonian.build_dispersive":
            m["hamiltonian.dim"] = max(m["hamiltonian.dim"], c["dim"])
        elif s.name == "lindblad.build_liouvillian":
            m["lindblad.nnz"] = max(m["lindblad.nnz"], c["nnz"])
    return m


def unaccounted_s(spans: list[Span]) -> float:
    """Job duration minus the self times of the job span and every span it
    caused; 0 up to rounding when the spans nest properly."""
    own = self_times(spans)
    inside: set[int] = set()
    for s in spans:  # a parent opens, so is listed, before its children
        if s.name == JOB or s.parent in inside:
            inside.add(s.id)
    job = next(s for s in spans if s.name == JOB)
    return job.duration - sum(own[i] for i in inside)
