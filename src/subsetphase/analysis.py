"""Closed-form scaling predictors and parameter-regime checkers.

The success bounds below give lower bounds on the probability that the
copies-by-rounds condition matrix reaches full rank, which is the event
that makes a thermalizer run succeed.  The cost predictor reads each
generator's stage table (``generators.stage_table``, the same table its
draws and cost profiles read) and turns it into expected gate counts and
exact layer counts with one formula, using the fixed decomposition
constant (2m-3 CCX per m-site condition) from the circuit module.
"""

from __future__ import annotations

import math

from .circuit import ccx_ladder_count
from .f2linalg import RankBoundParams, full_rank_probability_bound
from .generators import CostMeasurement, stage_table

CCX_REGIME = "gate-opt-ccx"
MCX_REGIME = "gate-opt-mcx"
DEPTH_CCX_REGIME = "depth-opt-ccx"
DEPTH_MCX_REGIME = "depth-opt-mcx"
SIGN_UNIT_REGIME = "sign-unit-depth"
SIGN_MCZ_REGIME = "sign-mcz"

# Asymptotic roles ("grows faster than log n") are checked at finite size
# as at least LOG_FACTOR * ln(n)
LOG_FACTOR = 2.0

REGIMES = (
    CCX_REGIME,
    MCX_REGIME,
    DEPTH_CCX_REGIME,
    DEPTH_MCX_REGIME,
    SIGN_UNIT_REGIME,
    SIGN_MCZ_REGIME,
)


def success_bound_ccx(alpha: float, t: int, epsilon: float = 0.5) -> float:
    """Full-rank lower bound for the CCX schedule (2-site conditions).

    Conditions drawn from a thermalized region match a copy with
    probability 1/4, so this is the generic bound at p = 1/4 with l = t
    rows and m = alpha*t condition rounds.
    """
    if alpha * t < 1:
        raise ValueError("alpha*t must be at least 1")
    return full_rank_probability_bound(RankBoundParams(p=0.25, l=t, m=alpha * t, epsilon=epsilon))


def success_bound_mcx(alpha: float, t: int, epsilon: float = 0.5) -> float:
    """Full-rank lower bound for ceil(log2 t)-site condition schedules.

    Evaluates the two-factor approximation
    exp(-(t-1)e^(-alpha)(e-1)) * exp(-(t-1)^((1+eps)*alpha-1)/t^(alpha*t) * s/(1-s)^2)
    with the matching-probability 1/t and s = (p*q)^(1-(1+eps)*p).
    The second factor is evaluated in log space; it underflows towards 1
    harmlessly for large alpha*t.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    p = 1.0 / t
    q = 1.0 - p
    q_hi = 1.0 - (1.0 + epsilon) * p
    s = (p * q) ** q_hi
    lead = (t - 1.0) * math.exp(-alpha) * (math.e - 1.0)
    log_tail = (
        math.log(s)
        - 2.0 * math.log1p(-s)
        + ((1.0 + epsilon) * alpha - 1.0) * math.log(t - 1.0)
        - alpha * t * math.log(t)
    )
    return math.exp(-(lead + math.exp(log_tail)))


def predicted_cost(algorithm: str, n: int, k: int, t: int, alpha: float, m: int, p: int | None = None) -> CostMeasurement:
    """Expected costs of one run of a generator, over its fair firing bits.

    A layer of width w (firing bits) holds a gate with probability
    1 - 2^-w and then takes the ladder depth of its m-site condition;
    otherwise it is a unit idle step.  Every stage of a run has the same
    round count, so the decomposed depth is rounds times the sum of that
    expectation over one round's layers of every stage.  ``unit_depth``
    is exact for every seed, since the generators keep one layer per
    scheduling slot.  ``p`` is only consulted for the sign thermalizer
    (parallel slots per layer).  Out-of-regime parameters are not
    rejected here, except depth-opt shapes that have no stage table; use
    ``premise_check`` to vet them.
    """
    table = stage_table(algorithm, n, k, t, alpha, m, p)
    cost = ccx_ladder_count(m)
    rounds = table[0].rounds
    layers = [(row.firing // row.width, 0.5**row.width) for row in table]
    gates = rounds * sum(row.firing for row in table) / 2.0
    decomposed = rounds * sum(count * (cost * (1.0 - idle) + idle) for count, idle in layers)
    return CostMeasurement(gates, rounds * sum(count for count, _ in layers), decomposed, gates * cost)


def premise_check(
    regime: str,
    *,
    n: int,
    t: int,
    alpha: float,
    m: int,
    k: int | None = None,
    p: int | None = None,
) -> list[str]:
    """Mechanical check of a parameter point against a regime's premises.

    Asymptotic roles ("grows faster than log n") are operationalized at
    finite size as >= LOG_FACTOR * ln(n).  Returns a list of violation
    messages, empty when every premise holds.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {REGIMES}")
    v: list[str] = []
    ln_n = math.log(n) if n > 1 else 1.0
    # the condition rounds of one bit-thermalizer stage, ceil(alpha*t)
    rounds = stage_table("gate-opt", n, k or 0, t, alpha, m)[0].rounds

    def need(cond: bool, msg: str):
        if not cond:
            v.append(msg)

    need(n > 0, "n must be positive")
    need(t >= 1, "t must be at least 1")
    need(alpha > 0, "alpha must be positive")

    if regime in (CCX_REGIME, MCX_REGIME, DEPTH_CCX_REGIME, DEPTH_MCX_REGIME):
        if k is None:
            v.append("k is required for bit-thermalizer regimes")
            return v
        need(1 < k <= n, f"k={k} must satisfy 1 < k <= n")
        need(k >= LOG_FACTOR * ln_n, f"k={k} below the log-growth proxy {LOG_FACTOR}*ln(n)={LOG_FACTOR * ln_n:.1f}")
        need(m <= k, f"m={m} exceeds k={k}")

    if regime == CCX_REGIME or regime == DEPTH_CCX_REGIME:
        need(m == 2, f"CCX regime requires m=2, got m={m}")
        need(t <= k / 2, f"t={t} exceeds k/2={k / 2:.1f}")
        need(rounds <= k / 2, f"rounds=ceil(alpha*t)={rounds} exceeds k/2={k / 2:.1f}")
        need(alpha * t >= LOG_FACTOR * ln_n,
             f"alpha*t={alpha * t:.1f} below the log-growth proxy {LOG_FACTOR * ln_n:.1f}")
    if regime == MCX_REGIME or regime == DEPTH_MCX_REGIME:
        want_m = max(1, math.ceil(math.log2(t))) if t > 1 else 1
        need(t >= 2, "many-copy regime needs t >= 2")
        need(m == want_m, f"regime requires m=ceil(log2 t)={want_m}, got m={m}")
        need(alpha >= LOG_FACTOR * ln_n,
             f"alpha={alpha:.1f} below the log-growth proxy {LOG_FACTOR * ln_n:.1f}")
    if regime == CCX_REGIME or regime == MCX_REGIME:
        need(m <= n - k, f"m={m} exceeds n-k={n - k} (second-stage window)")
    if regime in (DEPTH_CCX_REGIME, DEPTH_MCX_REGIME):
        need(n - k >= m, "closing phase needs n-k >= m")

    if regime == SIGN_UNIT_REGIME:
        need(m == 1, f"unit-depth sign regime requires m=1, got m={m}")
        need(p == n, f"unit-depth sign regime requires p=n, got p={p}")
        need(t <= n, f"t={t} exceeds n={n}")
        need(rounds <= n, f"rounds=ceil(alpha*t)={rounds} exceeds n={n}")
        need(alpha * t >= LOG_FACTOR * ln_n,
             f"alpha*t={alpha * t:.1f} below the log-growth proxy {LOG_FACTOR * ln_n:.1f}")
    if regime == SIGN_MCZ_REGIME:
        want_m = max(1, math.ceil(math.log2(n)))
        need(m == want_m, f"regime requires m=ceil(log2 n)={want_m}, got m={m}")
        need(p == n // want_m, f"regime requires p=floor(n/m)={n // want_m}, got p={p}")
        need(alpha >= LOG_FACTOR * ln_n,
             f"alpha={alpha:.1f} below the log-growth proxy {LOG_FACTOR * ln_n:.1f}")
    return v
