"""Test oracles: code the tests compare the library against.

None of this is part of ``qmcube``.  The library's method is the adaptive
loop, whose bound comes from the ranked transform coefficients; the code
here only checks it from outside:

- :func:`tolerance_value` scores an estimate against a known answer;
- the sparse-spectrum diagnostics build integrands with a known
  expansion and predict the discrete coefficients the aliasing identity
  implies for the first 2**m points;
- the replication heuristics are the literature's comparators, which
  claim an error bound without any guarantee.

They live beside the tests, not in the package, so the package ships no
code that only tests read.  The guarantee audit (ROADMAP item 4) reads them
too.  Test modules import them as ``from oracles import ...``; pytest puts
this directory on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qmcube.engine import Tolerance
from qmcube.ledger import CoefficientLedger, _evaluate
from qmcube.sequences import PRECISION, DigitalGenerator, make_generator


def tolerance_value(true_v: float, v_hat: float, tol: Tolerance) -> float:
    """Squared error over the squared active tolerance; <= 1 means success."""
    denom = tol.scale(true_v)
    if denom == 0.0:
        return 0.0 if true_v == v_hat else np.inf
    with np.errstate(over="ignore"):
        return float(np.float64((true_v - v_hat) / denom) ** 2)


# -- sparse-spectrum diagnostics ------------------------------------------
#
# A spectrum is a sequence of (wavenumber, amplitude) pairs.  For a digital
# generator the wavenumber is a tuple of nonnegative Walsh indices (one per
# coordinate) and amplitudes must be real; for a lattice generator it is a
# tuple of integers (negative allowed) and amplitudes may be complex as
# long as the resulting function is real (conjugate-symmetric spectrum).

Spectrum = Sequence[tuple[tuple[int, ...], complex]]


def _walsh_digit_rep(k: int) -> int:
    """52-bit digit representation of a Walsh index (bit a -> digit a + 1)."""
    if k < 0 or k >= 1 << PRECISION:
        raise ValueError(f"Walsh index {k} out of range")
    return int(format(k, f"0{PRECISION}b")[::-1], 2)


def synthesize_integrand(generator, spectrum: Spectrum) -> Callable[[np.ndarray], np.ndarray]:
    """Function on [0,1)^d whose exact expansion is the given sparse spectrum."""
    if isinstance(generator, DigitalGenerator):
        reps = [
            [_walsh_digit_rep(kc) for kc in wav] for wav, _ in spectrum
        ]
        amps = np.array([amp for _, amp in spectrum])
        if np.abs(amps.imag).max(initial=0.0) > 1e-14:
            raise ValueError("digital (Walsh) spectra must have real amplitudes")

        def f(x: np.ndarray) -> np.ndarray:
            ints = np.round(x * 2.0**PRECISION).astype(np.uint64)
            total = np.zeros(x.shape[0])
            for rep, amp in zip(reps, amps.real):
                par = np.zeros(x.shape[0], dtype=np.uint64)
                for c, kc in enumerate(rep):
                    par ^= np.bitwise_count(ints[:, c] & np.uint64(kc)).astype(np.uint64)
                total += amp * (1.0 - 2.0 * (par & np.uint64(1)).astype(np.float64))
            return total

        return f

    waves = np.array([wav for wav, _ in spectrum], dtype=np.float64)
    amps = np.array([amp for _, amp in spectrum])

    def f(x: np.ndarray) -> np.ndarray:
        phases = np.exp(2j * np.pi * (x @ waves.T))
        total = phases @ amps
        if np.abs(total.imag).max(initial=0.0) > 1e-9:
            raise ValueError("lattice spectrum is not conjugate symmetric")
        return total.real

    return f


def predicted_coefficients(generator, spectrum: Spectrum, m: int) -> np.ndarray:
    """Level-m discrete coefficients implied by the aliasing identity.

    Every spectrum term lands in the bin given by its wavenumber's residue
    for the first 2**m points, multiplied by the phase the shift induces;
    terms sharing a bin add up.
    """
    out = np.zeros(1 << m, dtype=np.complex128)
    if isinstance(generator, DigitalGenerator):
        mask = (1 << m) - 1
        for wav, amp in spectrum:
            full = 0
            sign = 0
            for c, kc in enumerate(wav):
                rep = np.uint64(_walsh_digit_rep(kc))
                for j in range(PRECISION):
                    if int(rep & generator.columns[c, j]).bit_count() & 1:
                        full ^= 1 << j
                sign ^= int(rep & generator.shift[c]).bit_count() & 1
            out[full & mask] += amp * (1.0 - 2.0 * sign)
        return out
    g = generator.generating_vector
    for wav, amp in spectrum:
        residue = int(np.dot(wav, g[: len(wav)])) % (1 << m)
        phase = np.exp(2j * np.pi * (float(np.dot(wav, generator.shift[: len(wav)])) % 1.0))
        out[residue] += amp * phase
    return out


def aliasing_check(ledger: CoefficientLedger, spectrum: Spectrum) -> float:
    """Max deviation between the ledger's coefficients and the aliasing sums."""
    observed = ledger.coefficients()[:, 0]
    predicted = predicted_coefficients(ledger.generator, spectrum, ledger.m)
    return float(np.abs(observed - predicted).max())


# -- replication heuristics -----------------------------------------------


@dataclass(frozen=True)
class BaselineEstimate:
    """Replication-heuristic estimate with its non-guaranteed bound."""

    estimate: float
    claimed_bound: float
    replicate_means: np.ndarray


BASELINE_STRATEGIES = ("iid-replications", "internal-replications", "quasi-standard-error")
# The factor a replication heuristic applies to the spread of its replicate means.
BASELINE_INFLATION = 1.2


def replicate_seeds(seed, repeats: int) -> list[int]:
    """One integer generator seed per replicate, each drawn from its own
    stream spawned from ``seed`` (anything ``np.random.default_rng`` takes)."""
    return [int(rng.integers(1 << 63)) for rng in np.random.default_rng(seed).spawn(repeats)]


def heuristic_baselines(
    f: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    strategy: str,
    repeats: int,
    n: int,
    family: str = "digital",
    seed=0,
) -> BaselineEstimate:
    """Replication heuristics: estimate plus an inflated-spread "bound".

    All three report the average of R replicate means and claim
    ``BASELINE_INFLATION * std(replicate means)`` as an error bound.  None of
    them is guaranteed; see :func:`qmcube.integrate` for the guaranteed path.
    Points are evaluated in the same bounded blocks as :func:`qmcube.integrate`,
    so a non-finite value raises :class:`qmcube.EvaluationError` with its
    point index.  ``seed`` takes anything ``np.random.default_rng`` does;
    ``"iid-replications"`` gives replicate r the r-th seed of
    :func:`replicate_seeds`.
    """
    if repeats < 2:
        raise ValueError("at least two replicates are required")
    if n < 1:
        raise ValueError("n must be positive")
    if strategy == "iid-replications":
        means = np.empty(repeats)
        for rep, rep_seed in enumerate(replicate_seeds(seed, repeats)):
            gen = make_generator(family, dimension, rep_seed)
            means[rep] = float(np.mean(_evaluate((f,), gen, 0, n)[0]))
    elif strategy == "internal-replications":
        gen = make_generator(family, dimension, seed)
        vals = _evaluate((f,), gen, 0, n * repeats)[0]
        means = vals.reshape(repeats, -1).mean(axis=1)
    elif strategy == "quasi-standard-error":
        gen = make_generator(family, dimension * repeats, seed)
        # replicate r reads coordinates [r d, (r + 1) d) of the d R-dimensional points
        slices = [
            lambda x, lo=rep * dimension: f(x[:, lo : lo + dimension]) for rep in range(repeats)
        ]
        means = np.array([float(np.mean(vals)) for vals in _evaluate(slices, gen, 0, n)])
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {BASELINE_STRATEGIES}")
    spread = float(np.std(means, ddof=1))
    return BaselineEstimate(
        estimate=float(np.mean(means)),
        claimed_bound=BASELINE_INFLATION * spread,
        replicate_means=means,
    )
