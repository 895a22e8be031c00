"""Log-polynomial p-value family: density, CDF, quantile, moments,
reparameterization, mixtures, and parameter-space validation.

The family has density

    psi_I(p | theta) = theta_0 + sum_{i=1..I} theta_i * (-log p)^i,   0 < p <= 1,

with theta_0 = 1 - sum_i i! * theta_i so the density integrates to one.
The order-zero member is the uniform distribution.  The CDF is

    Psi_I(p | beta) = p * sum_{j=0..I} beta_j * (-log p)^j,   beta_0 = 1,

where beta_j = sum_{i>=j} theta_i * i!/j!.  The valid region,
checked by :func:`validate_theta`, is the same at every order: the
simplex u >= 0, sum(u) <= 1 in u_j = j! * theta_j.  There the density is
a mixture of the uniform and the Gamma(j+1) laws of -log p, so it is
nonnegative and nonincreasing in p and its CDF is concave.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, InputError, NumericError

__all__ = [
    "ThetaParams",
    "BetaParams",
    "ValidationReport",
    "validate_theta",
    "require_valid",
    "chained_upper_bound",
    "theta_to_beta",
    "beta_to_theta",
    "density",
    "cdf",
    "quantile",
    "moment",
    "mix",
    "pi0_estimate",
    "random_theta",
    "checked_pvalues",
]


# sizes up to 2^53 convert to float exactly (and far from overflow)
_MAX_SIZE = 2**53
# 171! overflows a double, so no higher order has a weight u_I = I! theta_I
_MAX_ORDER = 170
# values per block of the vectorized work (the inverse CDF, the copula's
# node-by-count sums, the sampler's chunks): the working set stays in cache
_BLOCK = 1 << 16


def _whole(value, rule: str, lo: int = 1, hi: int = _MAX_SIZE) -> int:
    """``value`` as an int if it is an integer or a whole-valued float in
    [lo, hi] (by default a size: 1 to 2^53), else InputError(f"{rule}, got
    {value!r}"); NaN, inf and anything not a real number fail."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not (whole and lo <= value <= hi):
        raise InputError(f"{rule}, got {value!r}")
    return int(value)


def _instance(value, kind, rule: str):
    """``value`` if it is a ``kind``, else InputError naming its type."""
    if not isinstance(value, kind):
        raise InputError(f"{rule}, got {type(value).__name__}")
    return value


def _real(value, rule: str) -> float:
    """``value`` as a float if it is a real number in float range (NaN and
    inf included, 10**400 not), else InputError(f"{rule}, got {value!r}")."""
    if isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise InputError(f"{rule}, got {value!r}")


def _reals(values, rule: str) -> tuple:
    """``values`` as a tuple of finite floats if it is an iterable of them,
    else InputError(f"{rule}, got {values!r}")."""
    with contextlib.suppress(InputError, TypeError):
        vals = tuple(_real(v, rule) for v in values)
        if all(map(math.isfinite, vals)):
            return vals
    raise InputError(f"{rule}, got {values!r}")


def _weights(coeffs) -> list:
    """The mixture weights u_i = i! * theta_i, lowest order first."""
    return [math.factorial(i) * c for i, c in enumerate(coeffs, start=1)]


def _mass(u) -> float:
    """sum(u), added from the top order down.  theta_0 = 1 - _mass(u), and
    the fit's snap onto sum(u) = 1 adds its terms in this same order."""
    return sum(reversed(u))


@dataclass(frozen=True)
class _Coefficients:
    """An order I in [0, 170] and I finite coefficients, lowest order first."""

    order: int
    coeffs: tuple = field(default=())

    def __post_init__(self):
        order = _whole(self.order, "order must be an integer in [0, 170]", 0,
                       _MAX_ORDER)
        name = type(self).__name__
        coeffs = _reals(self.coeffs, f"{name} coefficients must be finite")
        if len(coeffs) != order:
            raise InputError(f"{name} expects {order} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)


class ThetaParams(_Coefficients):
    """Density-side coefficients (theta_1, ..., theta_I).

    theta_0 is always derived from the normalization constraint and never
    stored, which makes inconsistent states unrepresentable.  Construction
    checks only shape and finiteness; membership in the valid parameter
    region is a separate, explicit step (:func:`validate_theta`).
    """

    @property
    def theta0(self) -> float:
        return 1.0 - _mass(_weights(self.coeffs))

    @classmethod
    def uniform(cls, order: int = 0) -> "ThetaParams":
        """The uniform member, optionally padded with zero coefficients."""
        return cls(0).padded(order)

    def padded(self, order: int) -> "ThetaParams":
        """Zero-pad the coefficient vector up to a larger order."""
        order = _whole(order, f"order must be an integer in [{self.order}, 170]",
                       self.order, _MAX_ORDER)
        return ThetaParams(order, self.coeffs + (0.0,) * (order - self.order))


class BetaParams(_Coefficients):
    """CDF-side coefficients (beta_1, ..., beta_I); beta_0 is fixed at 1."""

    @property
    def beta0(self) -> float:
        return 1.0


def theta_to_beta(theta: ThetaParams) -> BetaParams:
    """Map density coefficients to CDF coefficients.

    beta_j = sum_{i=j..I} theta_i * i!/j!, evaluated from the top down by
    beta_I = theta_I, beta_j = theta_j + (j+1) beta_{j+1}: the inverse of
    :func:`beta_to_theta`'s formula.
    """
    beta = list(theta.coeffs)
    for j in range(theta.order - 1, 0, -1):
        beta[j - 1] += (j + 1) * beta[j]
    return BetaParams(theta.order, tuple(beta))


def beta_to_theta(beta: BetaParams) -> ThetaParams:
    """Inverse of :func:`theta_to_beta`: theta_i = beta_i - (i+1) beta_{i+1},
    with theta_I = beta_I at the top."""
    b = beta.coeffs + (0.0,)
    return ThetaParams(beta.order, tuple(
        b[i - 1] - (i + 1) * b[i] for i in range(1, beta.order + 1)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_theta`: whether theta lies on the simplex
    of weights u_j = j! theta_j, and the inequalities it violates."""

    valid: bool
    violations: tuple

    def first_violation(self) -> str:
        return self.violations[0] if self.violations else ""


def chained_upper_bound(i: int, coeffs) -> float:
    """Upper bound for theta_i given the higher-order coefficients:
    (1/i!) * (1 - sum_{j>i} j! * theta_j)."""
    return (1.0 - _mass(_weights(coeffs)[i:])) / math.factorial(i)


# absorbs float noise on the simplex faces (e.g. vectors scaled onto one)
_BOUND_SLACK = 1e-12


def validate_theta(theta: ThetaParams) -> ValidationReport:
    """Check membership in the valid parameter region, the simplex
    u >= 0, sum(u) <= 1 in the weights u_j = j! theta_j.

    Above order 1 the top weight must also be strictly positive, since
    theta_I > 0 defines the order; order 1 keeps the closed interval
    0 <= theta_1 <= 1.  On the simplex psi is the mixture
    (1 - sum(u)) * 1 + sum_j u_j x^j / j! of the uniform and the
    Gamma(j+1) laws of x = -log p: a proof, at every order, that the
    density is nonnegative and nonincreasing in p.  Every bound but
    u_I > 0 is widened by 1e-12 to absorb rounding on the boundary.  The
    report names each violated inequality in theta, the top one first.
    Anything but a ThetaParams raises InputError.
    """
    _instance(theta, ThetaParams, "expected ThetaParams")
    I = theta.order
    u = _weights(theta.coeffs)
    terms = [f"{math.factorial(i)}*theta_{i}" for i in range(1, I + 1)]
    violations = [] if I < 2 or u[-1] > 0.0 else [f"0 < {terms[-1]} <= 1"]
    closed = I - (I > 1)  # weights with u_i >= 0 (above order 1, u_I > 0)
    violations += [f"0 <= {terms[i]} <= 1" for i in reversed(range(closed))
                   if u[i] < -_BOUND_SLACK]
    if _mass(u) - 1.0 > _BOUND_SLACK:  # 1 + 1e-12 would round up
        violations.append(f"{' + '.join(terms)} <= 1")
    return ValidationReport(not violations, tuple(violations))


def require_valid(theta: ThetaParams, what: str = "theta") -> ThetaParams:
    """Raise :class:`ConstraintError` naming the first violated bound."""
    report = validate_theta(theta)
    if not report.valid:
        raise ConstraintError(
            f"{what} outside the valid region: violates {report.first_violation()}"
        )
    return theta


def checked_pvalues(pvalues, positive: bool = False) -> np.ndarray:
    """p-values as a flat float array, every entry finite and in [0, 1].

    With ``positive`` the array must also be nonempty and every entry lie
    in (0, 1], the domain of the density.  Errors name the index of the
    first offending entry; if numpy cannot convert the argument, that is
    its first entry that is not a real number.
    """
    try:
        arr = np.asarray(pvalues, dtype=float)
    except (TypeError, ValueError):
        bad = (i for i, v in enumerate(pvalues if np.iterable(pvalues) else [pvalues])
               if not isinstance(v, numbers.Real))
        raise InputError(f"p-value at index {next(bad, 0)} is not a number") from None
    if arr.ndim != 1:
        raise InputError(f"expected a flat vector of p-values, got shape {arr.shape}")
    if positive and not arr.size:
        raise InputError("no p-values supplied")
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"p-value at index {i} is not finite: {float(arr[i])}")
    bad = ((arr <= 0.0) if positive else (arr < 0.0)) | (arr > 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        domain = "(0, 1]" if positive else "[0, 1]"
        raise InputError(f"p-value at index {i} is {float(arr[i])}, outside {domain}")
    return arr


def _theta_poly(theta: ThetaParams) -> np.ndarray:
    """Coefficients [theta_0, theta_1, ..., theta_I] for Horner evaluation."""
    return np.array((theta.theta0,) + theta.coeffs, dtype=float)


def _beta_poly(theta: ThetaParams) -> np.ndarray:
    return np.array((1.0,) + theta_to_beta(theta).coeffs, dtype=float)


def _horner(coeffs: np.ndarray, x):
    acc = np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def density(p, theta: ThetaParams):
    """Density psi_I(p | theta), evaluated by Horner's scheme in -log p.

    Accepts a scalar or an array; the domain is (0, 1].  density(1) equals
    theta_0 exactly.  The caller is responsible for parameter validity.
    """
    arr = np.asarray(p)
    if arr.size:
        arr = checked_pvalues(arr.reshape(-1), positive=True).reshape(arr.shape)
    x = -np.log(arr)
    out = _horner(_theta_poly(theta), x)
    return float(out) if np.isscalar(p) else out


def cdf(p, theta: ThetaParams):
    """CDF Psi_I(p | beta) = p * sum_j beta_j (-log p)^j.

    Accepts a scalar or an array on [0, 1].  Inputs below 1e-300 are
    evaluated as exp(-x + log B(x)), x = -log p and B the polynomial, so
    the product is never formed from a subnormal p.
    """
    arr = np.asarray(p)
    arr = checked_pvalues(arr.reshape(-1)).reshape(arr.shape)
    beta = _beta_poly(theta)
    with np.errstate(divide="ignore"):
        x = -np.log(arr)
    pos = arr > 0.0
    xs = np.where(pos, x, 1.0)
    poly = _horner(beta, xs)
    out = np.where(pos, arr * poly, 0.0)
    tiny = pos & (arr < 1e-300)
    if np.any(tiny):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(tiny, np.exp(np.log(poly) - xs), out)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(p) else out


_QUANTILE_X_MAX = 745.0  # -log of the smallest positive double
_QUANTILE_NEWTON = 12      # Newton steps before an entry falls back to halving
_QUANTILE_HALVINGS = 53    # 745 / 2^53 < 1e-13


def quantile(q: float, theta: ThetaParams, tol: float = 1e-12) -> float:
    """Inverse CDF of one probability, through :func:`_quantile_array`.

    Returns 0 at q = 0, 1 at q = 1 and q itself for the uniform member.
    Guarantees |cdf(result) - q| <= tol, else raises NumericError; ``tol``
    must be finite and nonnegative.
    """
    tol = _real(tol, "tol must be a real number")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tol must be finite and >= 0, got {tol}")
    q = _real(q, "quantile argument must be a real number")
    if not 0.0 <= q <= 1.0:
        raise InputError(f"quantile argument must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    p = float(_quantile_array(np.array([q]), theta)[0])
    if abs(cdf(p, theta) - q) > tol:
        raise NumericError(
            f"quantile failed to reach |cdf - q| <= {tol} at q = {q}: "
            f"residual {cdf(p, theta) - q:.3e}"
        )
    return p


def _quantile_array(u: np.ndarray, theta: ThetaParams) -> np.ndarray:
    """Vectorized inverse CDF: Newton in x = -log p, bracket halving as
    the fallback.  Returns a new array of u's shape.

    Solves G(x) = log B(x) - x - log u = 0, B the CDF polynomial
    (Psi = e^-x B).  G falls with slope -T/B, T the density polynomial,
    so the Newton step is x += G B / T, from x0 = -log u, a lower bound
    because B >= 1.  An entry stops once its step is within 1e-13 of
    max(1, x).  Entries still moving after a fixed number of steps (Newton
    slows where the density vanishes, near p = 1 when theta_0 is near 0)
    or stopped outside [0, 745] halve the bracket [x0, 745] instead.
    u = 0 maps to exp(-745), the smallest positive double.  The input is
    processed in fixed slices, so the temporaries do not grow with it.
    """
    if all(c == 0.0 for c in theta.coeffs):
        return u.copy()
    beta = _beta_poly(theta)
    poly = _theta_poly(theta)
    flat = u.reshape(-1)
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _BLOCK):
        hi = lo + _BLOCK
        out[lo:hi] = _solve_x(flat[lo:hi], beta, poly)
    return np.exp(np.negative(out, out=out), out=out).reshape(u.shape)


def _log_b(x: np.ndarray, beta: np.ndarray):
    """(log B(x), B(x)), through log1p of B - 1 for accuracy near x = 0."""
    bx = _horner(beta[1:], x)
    bx *= x
    return np.log1p(bx), bx + 1.0


def _solve_x(u: np.ndarray, beta: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """x = -log p for one slice of :func:`_quantile_array`."""
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    x0 = np.minimum(-log_u, _QUANTILE_X_MAX)
    out, x, lu, idx = x0.copy(), x0.copy(), log_u, np.arange(x0.size)
    stopped = np.zeros(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_QUANTILE_NEWTON):
            log_b, b = _log_b(x, beta)
            g = log_b - x - lu
            step = g * b / _horner(poly, x)
            np.copyto(step, 0.0, where=stopped | (g == 0.0))
            x += step
            stopped |= np.abs(step) <= 1e-13 * np.maximum(x, 1.0)
            if 2 * np.count_nonzero(stopped) >= x.size:
                # compact the working set once half of it has stopped
                out[idx] = x
                k = np.flatnonzero(~stopped)
                x, lu, idx, stopped = x[k], lu[k], idx[k], stopped[k]
                if not k.size:
                    break
        out[idx] = x
        k = np.union1d(idx[~stopped],
                       np.flatnonzero(~((out >= 0.0) & (out <= _QUANTILE_X_MAX))))
        lo, hi, lu = x0[k], np.full(k.size, _QUANTILE_X_MAX), log_u[k]
        for _ in range(_QUANTILE_HALVINGS if k.size else 0):
            mid = 0.5 * (lo + hi)
            right = _log_b(mid, beta)[0] - mid > lu
            np.copyto(lo, mid, where=right)
            np.copyto(hi, mid, where=~right)
        out[k] = 0.5 * (lo + hi)
    return out


def moment(j: int, theta: ThetaParams) -> float:
    """E p^j = sum_{i=0..I} i! * theta_i / (j+1)^(i+1) for integer j in
    [1, 2^53].  A power (j+1)^(i+1) past the float range is divided out
    through its top 1000 bits and a power of two, so a term that underflows
    comes back as its subnormal or 0 instead of raising."""
    j = _whole(j, "moment order must be an integer in [1, 2^53]")
    total = theta.theta0 / (j + 1)
    for i, u in enumerate(_weights(theta.coeffs), start=1):
        power = (j + 1) ** (i + 1)
        shift = max(power.bit_length() - 1000, 0)
        total += math.ldexp(u / (power >> shift), -shift)
    return total


def mix(thetas, weights) -> ThetaParams:
    """Mixture closure: the weighted mixture of family members is the
    member with the weighted-average coefficient vector.

    Members are zero-padded to a common order first.  Weights must be
    nonnegative and sum to one.
    """
    thetas = list(thetas)
    weights = _reals(weights, "weights must be finite")
    if len(thetas) != len(weights) or not thetas:
        raise InputError("need equal, nonzero numbers of components and weights")
    if any(w < 0.0 for w in weights):
        raise InputError(f"weights must be nonnegative: {weights}")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise InputError(f"weights must sum to 1, got {sum(weights)!r}")
    order = max(t.order for t in thetas)
    coeffs = np.zeros(order)
    for th, w in zip(thetas, weights):
        coeffs += w * np.array(th.padded(order).coeffs)
    return ThetaParams(order, tuple(coeffs))


def pi0_estimate(theta: ThetaParams) -> float:
    """Null-fraction estimate: the density at p = 1, which is theta_0."""
    return theta.theta0


def random_theta(order: int, rng: np.random.Generator) -> ThetaParams:
    """Draw a coefficient vector uniformly on the valid region.

    The weights u = (E_1, ..., E_I) / (E_0 + ... + E_I), E_j standard
    exponentials, are uniform on the simplex u >= 0, sum(u) <= 1 (Devroye
    1986, Non-Uniform Random Variate Generation, ch. V); theta_i = u_i / i!.
    Every draw passes :func:`validate_theta`.
    """
    order = _whole(order, "order must be an integer in [0, 170]", 0, _MAX_ORDER)
    e = rng.standard_exponential(order + 1)
    # theta_I > 0 defines the order; an exponential of exactly 0 (drawn
    # with probability about 2^-53) is moved to the smallest normal float
    e[-1] = max(e[-1], np.finfo(float).tiny)
    u = e[1:] / e.sum()
    return ThetaParams(order, tuple(
        float(w) / math.factorial(i) for i, w in enumerate(u, start=1)
    ))
