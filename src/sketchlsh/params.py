"""Parameter selection and feasibility analysis for the frequency-ranked search.

The engine separates near neighbors from background purely by how often a
candidate collides with the query across tables. That works when the hash
family is sensitive enough: with per-hash collision probabilities p1 (within
the near radius) and p2 (beyond the far radius), choosing

    rho = log(1/p1) / (log(1/p2) - log(1/p1))
    K   >= C2 * log(n) / log(p1/p2)        (background suppression)
    K   <= log(L/C1) / log(1/p1)           (signal concentration)
    L   =  max(n**rho, C1 * (1/p1)**K)     (rounded up)

keeps expected background collision mass below the expected signal count
while the table count stays sub-linear in n. Sub-linearity requires the
strong-sensitivity condition log(p1)/log(p2) <= 1/(2*C2 - 1); with C2 -> 1
that degenerates to the familiar log(p1)/log(p2) < 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_TABLES, SketchLshError


class ParameterError(SketchLshError, ValueError):
    """Inputs outside the admissible domain (e.g. p1 <= p2)."""


class InfeasibleParamsError(SketchLshError, ValueError):
    """No (K, L) satisfies both bounds, or the instance is not sub-linear."""


@dataclass(frozen=True)
class LshSensitivity:
    """Sensitivity of a hash family around a near radius.

    p1 bounds the collision probability from below within distance r; p2
    bounds it from above beyond distance c*r. p2 = 0 (nothing far ever
    collides) is admitted as a degenerate but useful simulation case.
    """

    r: float
    c: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not 0 <= self.r < math.inf:
            raise ParameterError("r must be finite and >= 0")
        if not 1 <= self.c < math.inf:
            raise ParameterError("c must be finite and >= 1")
        if not (0 < self.p1 < 1):
            raise ParameterError("p1 must lie strictly inside (0, 1)")
        if not (0 <= self.p2 < self.p1):
            raise ParameterError("p2 must satisfy 0 <= p2 < p1")


def compute_rho(p1: float, p2: float) -> float:
    """Quality exponent rho = log(1/p1) / (log(1/p2) - log(1/p1)).

    Query cost scales as n**rho, so rho < 1 is required for sub-linearity
    and small rho means a strong instance (rho -> 0 as p1 -> 1).
    """
    if not (0 < p2 < p1 < 1):
        raise ParameterError(
            f"need 0 < p2 < p1 < 1, got p1={p1}, p2={p2}"
        )
    return math.log(1 / p1) / (math.log(1 / p2) - math.log(1 / p1))


def strong_ratio(p1: float, p2: float) -> float:
    """log(p1)/log(p2); below 1/(2*C2-1) the instance is strongly sensitive."""
    if not (0 < p2 < p1 < 1):
        raise ParameterError(f"need 0 < p2 < p1 < 1, got p1={p1}, p2={p2}")
    return math.log(p1) / math.log(p2)


@dataclass(frozen=True)
class ParameterRecommendation:
    """Recommended table parameters with the bound values backing them."""

    rho: float
    k_rec: int
    l_rec: int
    n: int
    c1: float
    c2: float
    k_bound: int
    k_lower: float  # background-suppression lower bound on K
    k_upper: float  # signal-concentration upper bound on K given l_rec
    l_floor: float  # smallest real L consistent with both bounds
    strong_ratio: float
    sketch_rows: int
    sketch_cols: int


def feasible_l_floor(p1: float, p2: float, n: int, c1: float, c2: float) -> float:
    """Smallest L for which some real K satisfies both bounds.

    Equating the two K bounds gives L >= C1 * n**(C2*log(1/p1)/log(p1/p2)).
    """
    exponent = c2 * math.log(1 / p1) / math.log(p1 / p2)
    return c1 * n**exponent


def recommend_params(
    sens: LshSensitivity,
    n: int,
    c1: float = 2.0,
    c2: float = 1.5,
    k_bound: int = 8,
) -> ParameterRecommendation:
    """Choose (K, L) for an n-point dataset under the given sensitivity.

    K is the background-suppression bound rounded up (stricter suppression);
    L is the larger of n**rho and the signal-concentration requirement
    c = C1 * (1/p1)**K, rounded up (more tables never hurt recall). Both
    bounds hold by construction: K >= k_lower by the ceiling, and L >= c
    gives k_upper = K + log(L/c)/log(1/p1) >= K. The sketch size
    recommendation is proportional to k_bound, the assumed cap on near
    neighbors per query.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    if not (1 < c1 < math.inf and 1 < c2 < math.inf):
        raise ParameterError("separation constants C1 and C2 must be finite and exceed 1")
    if k_bound < 1:
        raise ParameterError("k_bound must be >= 1")
    p1, p2 = sens.p1, sens.p2
    if p2 <= 0:
        raise ParameterError("recommendation needs p2 > 0")

    ratio = strong_ratio(p1, p2)
    limit = 1 / (2 * c2 - 1)
    rho = compute_rho(p1, p2)
    if rho >= 1 or ratio > limit:
        raise InfeasibleParamsError(
            f"not a strong instance: log(p1)/log(p2)={ratio:.4f} exceeds "
            f"1/(2*C2-1)={limit:.4f} (rho={rho:.4f}); query cost would not be "
            "sub-linear"
        )

    try:
        k_lower = c2 * math.log(n) / math.log(p1 / p2)
        k_rec = math.ceil(k_lower)
        c = c1 * (1 / p1) ** k_rec
        l_rec = math.ceil(max(n**rho, c))
        # L / c >= 1 in floats, since L is c or n**rho rounded up
        k_upper = k_rec + math.log(l_rec / c) / math.log(1 / p1)
        l_floor = feasible_l_floor(p1, p2, n, c1, c2)
    except OverflowError:
        raise ParameterError("n or C1 too large: the bounds on K and L overflow a float") from None
    return ParameterRecommendation(
        rho=rho,
        k_rec=k_rec,
        l_rec=l_rec,
        n=n,
        c1=c1,
        c2=c2,
        k_bound=k_bound,
        k_lower=k_lower,
        k_upper=k_upper,
        l_floor=l_floor,
        strong_ratio=ratio,
        sketch_rows=4,
        sketch_cols=4 * k_bound,
    )


@dataclass(frozen=True)
class SnrReport:
    """Empirical signal/noise frequencies from a Monte-Carlo collision model."""

    trials: int
    planted: int
    n_background: int
    num_tables: int
    signal_mean: float
    expected_signal_mean: float
    signal_se: float
    min_signal: int
    max_noise: int
    separation_rate: float
    signal_counts: np.ndarray  # (trials, planted)
    noise_max_counts: np.ndarray  # (trials,)


def _noise_max_counts(
    rng: np.random.Generator, n: int, q: float, num_tables: int, trials: int
) -> np.ndarray:
    """The largest of n Binomial(L, q) counts per trial, by inverting F(j)^n.

    The pmf lives on the support within 40 * sqrt(Lq) + 40 of the mean Lq.
    Its two tails hold less than e^-283, and even n = 2^63 times that is
    below the 2^-53 step of a uniform draw, so no draw lands there.
    """
    if n == 0 or q == 0:
        return np.zeros(trials, dtype=np.int64)
    mean, spread = num_tables * q, 40 * math.sqrt(num_tables * q) + 40
    lo, top = max(0, math.floor(mean - spread)), min(num_tables, math.ceil(mean + spread))
    k = np.arange(lo + 1, top + 1, dtype=np.float64)
    # log P(k) - log P(lo): each term adds log((L - k + 1)/k) + log q - log(1 - q)
    steps = np.log((num_tables - k + 1) / k) + (math.log(q) - math.log1p(-q))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    pmf = np.exp(log_pmf - log_pmf.max())
    # P(count > j) for j in lo..top - 1
    above = np.minimum(np.cumsum(pmf[::-1])[::-1][1:] / pmf.sum(), 1)
    with np.errstate(divide="ignore"):
        levels = n * np.log1p(-above)  # n log F(j), rising; -inf where F(j) = 0
    return lo + np.searchsorted(levels, np.log(1 - rng.random(trials)))


def snr_simulation(
    sens: LshSensitivity,
    n: int,
    k_hashes: int,
    num_tables: int,
    trials: int,
    planted: int = 1,
    seed: int = 0,
) -> SnrReport:
    """Simulate per-table collision draws for planted neighbors vs background.

    Each planted neighbor collides with the query in a table with
    probability p1**K, each of the n background items with probability
    q = p2**K, independently across tables and items. The signal counts
    are the generator's first draw. Only the largest background count
    matters, and it is at most j with probability F(j)^n, F the
    Binomial(L, q) CDF; so each trial draws one uniform u in (0, 1] and
    takes the smallest j with n * log F(j) >= log u, one ``searchsorted``
    in log space. Reports the per-trial frequency distributions and how
    often every planted neighbor strictly outranks every background item.
    L is at most ``MAX_TABLES``, the most tables an index header stores.
    """
    if trials < 1 or planted < 1 or seed < 0 or not 0 <= n <= 2**63 - 1:
        raise ParameterError("trials and planted must be >= 1, seed >= 0, and n in 0..2^63 - 1")
    if k_hashes < 1 or num_tables < 1:
        raise ParameterError("k_hashes and num_tables must be >= 1")
    if num_tables > MAX_TABLES:
        raise ParameterError(
            f"num_tables={num_tables} exceeds {MAX_TABLES}, the most tables an index header stores"
        )
    rng = np.random.default_rng(seed)
    p_sig = sens.p1**k_hashes
    signal = rng.binomial(num_tables, p_sig, size=(trials, planted))
    noise_max = _noise_max_counts(rng, n, sens.p2**k_hashes, num_tables, trials)

    separated = (signal.min(axis=1) > noise_max).mean()
    expected = num_tables * p_sig
    se = math.sqrt(num_tables * p_sig * (1 - p_sig) / (trials * planted))
    return SnrReport(
        trials=trials,
        planted=planted,
        n_background=n,
        num_tables=num_tables,
        signal_mean=float(signal.mean()),
        expected_signal_mean=float(expected),
        signal_se=float(se),
        min_signal=int(signal.min()),
        max_noise=int(noise_max.max()),
        separation_rate=float(separated),
        signal_counts=signal,
        noise_max_counts=noise_max,
    )
