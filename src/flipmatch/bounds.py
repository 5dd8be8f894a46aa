"""Closed-form competitive ratios and lower bounds for flip-budget matching.

Everything here is pure arithmetic on the budget ``k`` (and the length cap
``L`` of the bounded-length matcher): the guaranteed ratios of the three
online algorithms and the adversarial lower bounds. The two bounds of the
doubling matcher are minima over its growth factor, solved from their
stationarity conditions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable


class BadBudgetError(ValueError):
    code = "bad-k"


class BadParamsError(ValueError):
    code = "bad-params"


def require_int(
    value: object,
    minimum: float,
    what: str,
    error: type[Exception] = BadParamsError,
    even: bool = False,
) -> None:
    """The one check of an integer parameter: an ``int``, not a ``bool``, at
    least ``minimum`` and, if ``even`` is set, even. Raises ``error`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < minimum or even and value % 2:
        kind = "an even integer" if even else "an integer"
        raise error(f"{what} must be {kind} >= {minimum}, got {_shown(value)}")


def _shown(value: object) -> str:
    """``value`` for an error message, naming a long ``int`` by its bit length:
    decimal fails past 4300 digits."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
    return repr(value)


def require_growth(r: object) -> None:
    """The one check of a growth factor: a real number whose float is finite and
    above 1 (not nan), which an ``int`` past the float range is not."""
    try:
        fits = isinstance(r, numbers.Real) and 1 < float(r) < math.inf
    except OverflowError:
        fits = False
    if not fits:
        raise BadParamsError(f"growth factor must be a real in (1, 2**1024), got {_shown(r)}")


# ----------------------------------------------------------------------
# upper bounds (algorithm guarantees)


def greedy_bound(k: int) -> float:
    """Guarantee of the plain greedy matcher: 3/2 for even budgets, 2 for odd."""
    require_int(k, 1, "budget", BadBudgetError)
    return 1.5 if k % 2 == 0 else 2.0


def lgreedy_default_L(k: int) -> int:
    """Length parameter that optimizes the bounded-length matcher's bound."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    return int(math.isqrt(k - 1))


def lgreedy_bound(k: int, L: int | None = None) -> float:
    """Guarantee of the bounded-length matcher at even budget ``k``.

    An explicit cap ``L`` gives (k(L+2)-2) / ((L+1)(k-1)). Without one, budget
    4 runs uncapped with plain greedy's 3/2, and from 6 on the default cap is
    used.
    """
    require_int(k, 4, "budget", BadBudgetError, even=True)
    if L is not None:
        require_int(L, 0, "length cap L")
    if k == 4 and L is None:
        return 1.5
    if L is None:
        L = lgreedy_default_L(k)
    return (k * (L + 2) - 2) / ((L + 1) * (k - 1))


def _require_amp_budget(k: int) -> None:
    """The check of an AMP budget: an even integer >= 4 that fits in a float."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    try:
        float(k)
    except OverflowError:
        raise BadBudgetError("budget does not fit in a float (k >= 2**1024)") from None


def amp_default_r(k: int) -> float:
    """Growth factor minimizing the doubling matcher's improved guarantee.

    From about k = 4e17 on, (k-1)^(1/(k-2)) rounds to 1 in floats, and a
    growth factor of 1 never opens a phase, so such a budget is refused.
    """
    _require_amp_budget(k)
    r = (k - 1) ** (1.0 / (k - 2))
    if r == 1.0:
        raise BadBudgetError(f"growth factor (k-1)^(1/(k-2)) rounds to 1 in floats at k={k}")
    return r


def amp_bound(k: int, r: float) -> float:
    """Guarantee of the doubling matcher at growth factor ``r``: r^k/(r^(k-1)-r)."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    require_growth(r)
    try:
        return r**k / (r ** (k - 1) - r)
    except OverflowError:  # r^(2-k) is below float resolution, so the bound is r
        return r


def amp_bound_improved(k: int) -> float:
    """Improved guarantee of the doubling matcher: min over r of r^k/(r^(k-1)-r).

    The derivative of the log vanishes where r^(k-2) = k-1, so at
    r = (k-1)^(1/(k-2)) the bound r/(1 - r^(2-k)) is r(k-1)/(k-2). It is
    taken as the exp of its log, which cannot overflow.
    """
    _require_amp_budget(k)
    return math.exp(math.log(k - 1) / (k - 2) + math.log1p(1 / (k - 2)))


def amp_bound_original(k: int) -> float:
    """First-published guarantee of the doubling matcher.

    The minimum of f(r) = r^k (r-1) / (r^(k-1)(r-1) - r) over the r > 1 where
    the denominator is positive. Put t = r - 1 and A = (1+t)^(k-2) t, which
    rises with t; then f = (1+t) A / (A - 1) on the domain A > 1.

    - Multiplying d(log f)/dt by t(1+t)(A-1) > 0 leaves
      p(t) = (1+t)^(k-2) t^2 - (kt + 1), so f' has the sign of p there.
    - p(0) = -1, and p is convex for t >= 0 (its first term is a polynomial
      with non-negative coefficients), so p has exactly one positive root t*,
      with p < 0 below it and p > 0 above it.
    - Where the domain begins, A = 1 and p = (1-k)t - 1 < 0, so t* lies
      inside the domain: f falls before t* and rises after it, and the
      bound is f(t*).
    - At t*, A t = kt + 1, so A = k + 1/t and f(t*) = (1+t)(1 + t/(1 + (k-1)t)).

    t* is found by bisecting [0, 2] (p(2) > 0 for every k >= 4) on the sign of
    (k-2) log1p(t) + 2 log(t) - log1p(kt), which is p's sign and cannot
    overflow, down to adjacent floats.
    """
    _require_amp_budget(k)
    lo, hi = 0.0, 2.0
    while (t := (lo + hi) / 2) not in (lo, hi):
        if (k - 2) * math.log1p(t) + 2 * math.log(t) < math.log1p(k * t):
            lo = t
        else:
            hi = t
    s = hi / (1 + (k - 1) * hi)
    return 1 + (hi + s + hi * s)


# ----------------------------------------------------------------------
# lower bounds (adversary guarantees)


def det_lower_bound(k: int) -> float:
    """No deterministic arrival-only matcher beats 1 + 1/(k-1)."""
    require_int(k, 3, "budget", BadBudgetError)
    return 1 + 1 / (k - 1)


def dep_lower_bound(k: int) -> float:
    """Arrival+departure lower bound (k^2-3k+6)/(k^2-4k+7) for even k >= 4."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    return (k * k - 3 * k + 6) / (k * k - 4 * k + 7)


def lgreedy_lower_bound(k: int, L: int) -> float:
    """Hard-instance ratio forced on the bounded-length matcher."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    require_int(L, 3, "length cap L")
    return (3 * ((L - 1) // 2) + k - 2) / (L + k - 3)


# ----------------------------------------------------------------------
# weight-ledger case expressions for the bounded-length matcher's analysis


@dataclass
class LedgerCases:
    """Ratio expressions of the weight-ledger argument, as plain callables.

    ``short(length)`` covers applied paths below the length cap, ``long`` the
    cap boundary, and the ``r*`` fields the aggregated per-case ratios.
    ``alpha_2b`` is the per-vertex increment that balances the two binding
    cases.
    """

    k: int
    L: int
    alpha: float
    short: Callable[[int], float]
    long: float
    r1b: float
    r2a: float
    r2b: float
    alpha_2b: float


def lgreedy_case_expressions(k: int, L: int, alpha: float) -> LedgerCases:
    """All case ratios of the weight argument at the given parameters.

    Denominators are left to fail loudly (ZeroDivisionError) when a degenerate
    parameter combination makes one vanish.
    """

    def short(length: int) -> float:
        return (length + 1) / (length - 2 * length * L * alpha + 2 * (k - 1) * alpha)

    long = (L + 2) / (L + 1 - 2 * L * L * alpha - 2 * L * alpha)
    r1b = (L * L + 2 * k + k * L - 2 * L - 2) / ((k - 1) * (L + 1))
    r2a = (L + 2) * (L + k - 1) / ((L + 1) * (k - 1))
    r2b = (k * (L + 2) - 2) / ((L + 1) * (k - 1))
    alpha_2b = 1 / (2 * k * (L + 2) - 4)
    return LedgerCases(k, L, alpha, short, long, r1b, r2a, r2b, alpha_2b)


def cycle_case(length: int, L: int, alpha: float) -> float:
    """Ratio charged to an alternating cycle of the given half-length."""
    return length / (length - 2 * length * L * alpha)
