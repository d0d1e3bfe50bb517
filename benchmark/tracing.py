"""Layer spans recorded from outside the library.

The tracer rebinds the public functions each layer exposes (module
attributes and generator methods) to timing wrappers for the duration of a
traced call, then restores them.  Spans nest because every call is
synchronous: a span's self time is its duration minus the durations of the
spans opened while it was open.  Work counts are taken at the same
boundaries, so ratios such as rows transformed per point are measured where
the work happens.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from qmcube import control_variates, engine, ledger
from qmcube.sequences import DigitalGenerator, LatticeGenerator


def _leading_rows(args, out) -> int:
    return args[0].shape[0]


def _batch_rows(args, out) -> int:
    return out.count


def _report_count(args, out) -> int:
    return len(out)


# (owner, attribute, span name, work count or None).  The transform and the
# cone functions are imported by name into ``engine`` and
# ``control_variates``, so each binding the adaptive loops read is wrapped.
# The transforms ``cv_integrate`` runs to fit beta get their own span names,
# so the coverage check notices if either binding stops firing.
_TARGETS = (
    (DigitalGenerator, "points", "sequences.points", _batch_rows),
    (LatticeGenerator, "points", "sequences.points", _batch_rows),
    (engine, "build_ledger", "ledger.build", None),
    (ledger.CoefficientLedger, "__init__", "ledger.assemble", None),
    (ledger, "fwht", "ledger.fwht", _leading_rows),
    (ledger, "lattice_dft", "ledger.lattice_dft", _leading_rows),
    (ledger, "magnitude_map", "ledger.magnitude_map", _leading_rows),
    (ledger, "tier_sums", "ledger.tier_sums", _leading_rows),
    (engine, "error_bound", "cone.error_bound", None),
    (engine, "necessary_condition", "cone.necessary_condition", _report_count),
    (control_variates, "fwht", "control_variates.fwht", _leading_rows),
    (control_variates, "lattice_dft", "control_variates.lattice_dft", _leading_rows),
    (control_variates, "error_bound", "cone.error_bound", None),
    (control_variates, "necessary_condition", "cone.necessary_condition", _report_count),
    (control_variates, "beta_qmc", "control_variates.beta_qmc", None),
)


class Tracer:
    """Per-span-name totals: calls, self time and work counts."""

    def __init__(self):
        self._open: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the totals so the next traced call is recorded on its own."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.unbound: list[str] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` timed as span ``name``; ``count(args, out)`` adds work."""
        tracer = self

        def traced(*args, **kwargs):
            children = [0.0]
            tracer._open.append(children)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - children[0]
            if count is not None:
                tracer.work[name] += count(args, out)
            return out

        return traced

    def solver(self, setup, seed: int):
        """Build a workload with traced integrands, timed as span ``engine.solve``."""
        integrand = lambda fn: self.wrap("integrands.eval", fn, _leading_rows)  # noqa: E731
        return self.wrap("engine.solve", setup(seed, integrand))

    def counts(self) -> dict:
        """Exact span calls and work counts; equal on every call with the same inputs."""
        return {"calls": dict(sorted(self.calls.items())), "work": dict(sorted(self.work.items()))}

    @contextmanager
    def installed(self):
        """Rebind every layer target to its traced wrapper, restoring on exit.

        A target the library no longer has is recorded in ``unbound``
        rather than created, so the coverage check reports the lost span.
        """
        saved = []
        try:
            for owner, attr, name, count in _TARGETS:
                original = vars(owner).get(attr)
                if original is None:
                    self.unbound.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
