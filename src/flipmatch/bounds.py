"""Closed-form competitive ratios and lower bounds for flip-budget matching.

Everything here is pure arithmetic on the budget ``k`` (and the length cap
``L`` of the bounded-length matcher): the guaranteed ratios of the three
online algorithms, the adversarial lower bounds, and a small golden-section
minimizer used to tune the phase growth factor of the doubling matcher.
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


class BadIntervalError(ValueError):
    code = "bad-interval"


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
        raise error(f"{what} must be {kind} >= {minimum}, got {value!r}")


def require_growth(r: object) -> None:
    """The one check of a growth factor: a finite real number above 1 (not nan)."""
    if not (isinstance(r, numbers.Real) and 1 < r < math.inf):
        raise BadParamsError(f"growth factor must be a finite real number above 1, got {r!r}")


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

    The budget-4 case caps at 3/2 (it cannot beat plain greedy); from 6 on the
    default length parameter gives (k(L+2)-2) / ((L+1)(k-1)).
    """
    require_int(k, 4, "budget", BadBudgetError, even=True)
    if L is not None:
        require_int(L, 0, "length cap L")
    if k == 4:
        return 1.5
    if L is None:
        L = lgreedy_default_L(k)
    return (k * (L + 2) - 2) / ((L + 1) * (k - 1))


def amp_default_r(k: int) -> float:
    """Growth factor minimizing the doubling matcher's improved guarantee."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    return (k - 1) ** (1.0 / (k - 2))


def amp_bound(k: int, r: float) -> float:
    """Guarantee of the doubling matcher at growth factor ``r``: r^k/(r^(k-1)-r)."""
    require_int(k, 4, "budget", BadBudgetError, even=True)
    require_growth(r)
    try:
        return r**k / (r ** (k - 1) - r)
    except OverflowError:  # r^(2-k) is below float resolution, so the bound is r
        return r


def amp_bound_improved(k: int) -> float:
    """Improved guarantee of the doubling matcher: min over r of r^k/(r^(k-1)-r)."""
    return amp_bound(k, amp_default_r(k))


def amp_bound_original(k: int) -> float:
    """First-published guarantee of the doubling matcher.

    min over r > r0 of r^k (r-1) / (r^(k-1)(r-1) - r), where r0 is the point
    where the denominator turns positive.
    """
    require_int(k, 4, "budget", BadBudgetError, even=True)

    def denom(r: float) -> float:
        try:
            return r ** (k - 1) * (r - 1) - r
        except OverflowError:
            return math.inf  # far past the root, so positive

    # the root nears 1 as k grows (past it from about k=1.38e7 at 1 + 1e-6),
    # so halve lo - 1 until lo is below the root again
    step = 1e-6
    lo, hi = 1.0 + step, 2.0
    while denom(lo) >= 0:
        step /= 2
        lo = 1.0 + step
        if lo == 1.0:
            raise BadBudgetError(f"no denominator root above 1 for k={k}")
    while denom(hi) <= 0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if denom(mid) <= 0:
            lo = mid
        else:
            hi = mid
    r0 = hi

    def objective(r: float) -> float:
        d = denom(r)
        if d <= 0:
            return math.inf
        try:
            return r**k * (r - 1) / d
        except OverflowError:  # r^(2-k) is below float resolution, so the ratio is r
            return r

    result = minimize_1d(objective, r0 + 1e-9, 8.0, tol=1e-9)
    return result.min


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
    require_int(k, 4, "budget", even=True)
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


# ----------------------------------------------------------------------
# 1-D minimization


@dataclass
class MinimizeResult:
    argmin: float
    min: float


def minimize_1d(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9
) -> MinimizeResult:
    """Golden-section search for a unimodal function on [lo, hi]."""
    if not (lo < hi and tol > 0):  # refuses a nan tolerance too
        raise BadIntervalError(f"need lo < hi and tol > 0, got [{lo!r}, {hi!r}], tol={tol!r}")
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return MinimizeResult(x, f(x))


# ----------------------------------------------------------------------
# table assembly


@dataclass
class BoundRow:
    k: int
    det_lb: float
    dep_lb: float
    lgreedy: float
    amp_improved: float
    amp_original: float


def bound_rows(k_min: int, k_max: int) -> list[BoundRow]:
    """One row per even budget in [k_min, k_max]."""
    require_int(k_min, 4, "k_min")
    require_int(k_max, k_min, "k_max")
    rows = []
    for k in range(k_min + (k_min % 2), k_max + 1, 2):
        rows.append(
            BoundRow(
                k=k,
                det_lb=det_lower_bound(k),
                dep_lb=dep_lower_bound(k),
                lgreedy=lgreedy_bound(k),
                amp_improved=amp_bound_improved(k),
                amp_original=amp_bound_original(k),
            )
        )
    return rows
