"""The three paper problems the benchmark runs, with their known answers.

Each workload is one adaptive run to a fixed absolute tolerance.  Its set-up
builds the problem and the randomized generator from the workload seed; the
returned ``solve`` makes exactly one call into the public API.  ``wrap`` is
applied to every integrand and control callable, so a traced run can time
the integrand layer without touching the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from qmcube import Tolerance, integrate, integrate_scalar, make_generator
from qmcube.control_variates import ControlVariateSpec, cv_integrate
from qmcube.integrands import (
    AsianOption,
    SobolIndexProblem,
    asian_payoffs,
    bratley_g,
    equicorrelated_mvn,
    genz_integrand,
    mvn_equicorrelated_oracle,
    sobol_index_functional,
)

HERE = Path(__file__).resolve().parent
ASIAN_REFERENCE_FILE = HERE / "asian_reference.json"

SOBOL_TOL = 1e-5
MVN_TOL = 1e-5
ASIAN_TOL = 5e-4


def bratley_first_order_index() -> Fraction:
    """Exact closed first-order Sobol' index of coordinate 1 of ``bratley_g``.

    g(x) = sum_{k=1..6} (-1)**k prod_{i<=k} x_i with independent uniform
    x_i, so only the moments E[x] = 1/2 and E[x**2] = 1/3 enter.
    E[g | x_1] = c x_1 with c = sum_k (-1)**k E[x]**(k-1), hence the
    numerator is c**2 Var(x_1).  For the variance,
    E[prod_{i<=k} x_i prod_{i<=l} x_i] = E[x**2]**min(k,l) E[x]**|k-l|.
    """
    m1, m2 = Fraction(1, 2), Fraction(1, 3)
    ks = range(1, 7)
    c = sum((-1) ** k * m1 ** (k - 1) for k in ks)
    mean = sum((-1) ** k * m1**k for k in ks)
    second = sum((-1) ** (k + l) * m2 ** min(k, l) * m1 ** abs(k - l) for k in ks for l in ks)
    return c * c * (m2 - m1 * m1) / (second - mean * mean)


def _sobol_index_setup(seed: int, wrap: Callable) -> Callable:
    problem = SobolIndexProblem(bratley_g, 1, 6)
    f = wrap(problem.integrand())
    functional = sobol_index_functional()
    generator = make_generator("digital", 12, seed)
    tol = Tolerance(abs_tol=SOBOL_TOL)
    return lambda: integrate(f, 12, functional, tol, generator=generator)


def baker(f: Callable) -> Callable:
    """Baker's (tent) periodization x -> 1 - |2x - 1|, which keeps the integral.

    Lattice rules assume a periodic integrand.  Without it the lattice error
    bound under-covers the Genz integrand: at abs tol 5e-6 seeds 5 and 11
    miss the oracle by 5.4e-6, and at 1e-5 nine of seeds 1 to 16 miss.
    """
    return lambda x: f(1.0 - np.abs(2.0 * x - 1.0))


def _mvn_setup(seed: int, wrap: Callable) -> Callable:
    problem = equicorrelated_mvn(8, 0.5, np.ones(8))
    f = wrap(baker(genz_integrand(problem)))
    generator = make_generator("lattice", 7, seed)
    tol = Tolerance(abs_tol=MVN_TOL)
    return lambda: integrate_scalar(f, 7, tol, generator=generator)


def _asian_setup(seed: int, wrap: Callable) -> Callable:
    option = AsianOption()
    arithmetic, geometric, geometric_price = asian_payoffs(option)
    f = wrap(arithmetic)
    spec = ControlVariateSpec(
        wrap(geometric), np.array([geometric_price]), policy="freeze-after-first-level"
    )
    generator = make_generator("digital", option.monitors, seed)
    tol = Tolerance(abs_tol=ASIAN_TOL)
    return lambda: cv_integrate(f, option.monitors, spec, tol, generator=generator).result


def _sobol_truth() -> tuple[float, float]:
    return float(bratley_first_order_index()), 0.0


def _mvn_truth() -> tuple[float, float]:
    return mvn_equicorrelated_oracle(8, 0.5, np.ones(8)), 0.0


def _asian_truth() -> tuple[float, float]:
    """Reference price and its own error bound, from ``record.py reference``."""
    ref = json.loads(ASIAN_REFERENCE_FILE.read_text(encoding="ascii"))
    return float(ref["v_hat"]), float(ref["err_bound"])


@dataclass(frozen=True)
class Workload:
    """One adaptive problem: set-up, known answer and the spans it must fire.

    ``truth`` returns the answer and the error bound of the answer itself;
    a run fails when it misses the answer by more than ``abs_tol`` plus
    that bound.  ``required_spans`` must each fire at least once in a
    traced call and ``forbidden_spans`` never.
    """

    name: str
    abs_tol: float
    setup: Callable[[int, Callable], Callable]
    truth: Callable[[], tuple[float, float]]
    required_spans: tuple[str, ...]
    forbidden_spans: tuple[str, ...]


_ALWAYS = ("sequences.points", "integrands.eval", "ledger.magnitude_map", "ledger.tier_sums",
           "cone.error_bound", "cone.necessary_condition")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sobol-index-digital", SOBOL_TOL, _sobol_index_setup, _sobol_truth,
            _ALWAYS + ("ledger.fwht", "ledger.build", "ledger.assemble"),
            ("ledger.lattice_dft", "control_variates.lattice_dft", "control_variates.beta_qmc"),
        ),
        Workload(
            "mvn-lattice", MVN_TOL, _mvn_setup, _mvn_truth,
            _ALWAYS + ("ledger.lattice_dft", "ledger.build", "ledger.assemble"),
            ("ledger.fwht", "control_variates.fwht", "control_variates.beta_qmc"),
        ),
        Workload(
            "asian-cv-digital", ASIAN_TOL, _asian_setup, _asian_truth,
            _ALWAYS + ("ledger.fwht", "ledger.assemble", "control_variates.beta_qmc",
                       "control_variates.fwht"),
            ("ledger.lattice_dft", "control_variates.lattice_dft"),
        ),
    )
}
