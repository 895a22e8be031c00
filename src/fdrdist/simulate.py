"""Monte Carlo sampling of p-value vectors and empirical count laws.

Every analytic result in the package can be cross-checked here: p-values
are drawn under the independent, latent-mixture, or Gumbel-copula models,
the counting rules are applied per replicate, and normalized histograms
with binomial standard errors come back as empirical distributions.

Reproducibility contract: a run with seed s reads the one stream
``PCG64DXSM(s)`` in order, one 64-bit word per double and m words per
replicate (m is fixed by the model, see :func:`sample_pvalues`): row r
is words [r*m, (r+1)*m) whatever the chunking, and ``advance(r*m)``
rebuilds it alone.  A chunk is one block: as many whole rows as fit in
65,536 values (one row if a row is wider), drawn, screened, counted and
transformed whole, so memory does not grow with the number of replicates.

Counting runs on the Psi scale.  Psi is increasing, so p <= t exactly
when u <= Psi(t), u the value the inverse CDF maps to p (the uniform, or
the copula's transformed uniform).  The thresholds are t_i = i alpha / n
for the step-down rule and t_1 = alpha / n for Bonferroni, and each
marginal (each latent half has its own) has b_i = Psi(t_i).  Every row is
counted against b (1 - delta) and against b (1 + delta), delta = 1e-8;
a row whose two counts differ is recounted from its exact transform, as
:func:`sample_pvalues` returns it.  So every count is the count of the
fully transformed matrix, and no other entry is inverted:

* The inverse CDF stops within 1e-13 max(1, x) in x = -log p, and its
  bracket halving within 745 / 2^53, so the computed p is within about
  7.5e-11 relative of the true p.  Psi is concave with Psi(0) = 0, so
  p psi(p) <= Psi(p), and the relative error on the u scale is no larger.
* delta covers that error and the rounding of :func:`cdf`, so an entry
  with u <= b_i (1 - delta) has a computed p <= t_i, and one with
  u > b_i (1 + delta) a computed p > t_i: N_lo(t_i) <= N(t_i) <= N_hi(t_i)
  for every i, N(t) the number of entries at or below t.
* The step-down count is the first i with N(t_i) < i, minus 1, so it does
  not decrease in the N: K_lo <= K <= K_hi, and equal endpoints fix K.
  The Bonferroni count is N(t_1) itself.
* Below the smallest normal double the relative argument fails, so a
  threshold t_i < 2^-1022 gets no lower end, and its upper end is
  Psi(2^-1022)(1 + delta): every entry up to there is settled by a
  recount.

For the uniform marginal b is t and the transform the identity, so there
is no band and no recount.

Most rows count 0, and a screen finds them before any sort or transform.
Let b_hi_1 be the top of a marginal's first band (t_1 for the uniform
marginal).  A row whose smallest Psi-scale entry lies above the b_hi_1 of
its own marginal has N_hi(t_1) = 0: its computed p-values all exceed t_1,
so K_lo = K_hi = 0 and it counts 0 under either rule.  Only the other
rows are gathered, sorted and counted as above; the chunk itself is never
written.

For the copula the Psi-scale value x(U) = exp(-exp((log E - log S) /
gamma)), E = -log1p(-U), decreases in U, so exactly x(U_i) >= x(max U)
within a row.  Given the row's one computed log S, a computed x of at
least 2^-1022 near b is within about 1e-13 relative of the exact one
(|log E| <= 37 for every double U > 0), far inside delta.  So a row whose
largest uniform has a computed x above max(b_hi_1, 2^-1022)(1 + delta)
has every computed entry above b_hi_1, and counts 0.  Only the rows kept
run the whole chain, through the one helper :func:`sample_pvalues` uses,
so their values are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .psi_dist import (
    _BLOCK,
    ThetaParams,
    _instance,
    _quantile_array,
    _whole,
    cdf,
    require_valid,
)
from .count_dist import CountDistribution, TestingSetup, _check_alpha
from .dependence import (
    DependenceSpec,
    GumbelCopula,
    Independent,
    Latent,
    _check_gamma,
    _log_kanter_a,
    perturbed_pair,
)

__all__ = [
    "SimConfig",
    "EmpiricalCountDistribution",
    "sample_pvalues",
    "positive_stable",
    "empirical_count_distribution",
]


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run; the seed pins everything."""

    n_tests: int
    replicates: int
    marginal: ThetaParams
    alpha: float
    seed: int
    dependence: DependenceSpec = field(default_factory=Independent)

    def __post_init__(self):
        for name in ("n_tests", "replicates"):
            object.__setattr__(self, name, _whole(
                getattr(self, name), f"{name} must be an integer in [1, 2^53]"))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "seed", _whole(
            self.seed, "seed must be a 64-bit unsigned integer", 0, 2**64 - 1))
        require_valid(self.marginal, "marginal")
        dep = _instance(self.dependence, (Independent, GumbelCopula, Latent),
                        "unsupported dependence spec")
        if isinstance(dep, Latent):
            perturbed_pair(self.marginal, dep.eps)  # raises if either side is invalid


def _chunk_rows(m: int, replicates: int) -> int:
    return max(1, min(replicates, _BLOCK // m))


def positive_stable(gamma: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive-stable frailties S with Laplace transform exp(-t^(1/gamma)).

    Draws ``size`` uniforms U, then ``size`` more U', and returns exp of
    :func:`_log_kanter` of W = pi U and E = -log1p(-U'): the sampler's
    inversion, so ``rng`` gives exactly 2 size doubles.  gamma = 1
    degenerates to S = 1 (independence); the two driving variates are
    still consumed, so the draws taken from ``rng`` do not depend on gamma.
    """
    gamma = _check_gamma(gamma)
    size = _whole(size, "size must be an integer in [0, 2^53]", 0)
    w = math.pi * rng.random(size)
    e = -np.log1p(-rng.random(size))
    return np.exp(_log_kanter(gamma, w, e))


def _log_kanter(gamma: float, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log S for the exact Kanter construction of positive-stable
    variates: with a = 1/gamma, W uniform on (0, pi) and E standard
    exponential,

        S = sin(a W) * sin((1-a) W)^((1-a)/a) / sin(W)^(1/a) * E^(-(1-a)/a);

    0 at gamma = 1.  S itself overflows or underflows once gamma reaches
    a few hundred, so the copula sampler never exponentiates it.
    """
    if gamma == 1.0:
        return np.zeros(w.shape)
    a = 1.0 / gamma
    return _log_kanter_a(gamma, w) - (1.0 - a) / a * np.log(e)


def _copula_psi(u: np.ndarray, log_s: np.ndarray, gamma: float,
                out: np.ndarray = None) -> np.ndarray:
    """The copula's Psi-scale values exp(-exp((log E_i - log S) / gamma))
    of the 2-D uniforms ``u``, E_i = -log1p(-U_i), with one log S per row;
    decreasing in U.  Written to ``out`` if given.  Both entry points call
    this one chain, so its values do not depend on which of them asked."""
    x = np.negative(u, out=out)
    np.negative(np.log1p(x, out=x), out=x)
    with np.errstate(divide="ignore"):
        np.log(x, out=x)
    x -= log_s[:, None]
    x /= gamma
    np.exp(x, out=x)
    return np.exp(np.negative(x, out=x), out=x)


# relative half-width of the band around each Psi-scale threshold: covers
# the inverse CDF and the rounding of cdf with two orders to spare
_BAND = 1e-8
_NORMAL_MIN = 2.0 ** -1022


def _marginals(config: SimConfig) -> tuple:
    """The marginal laws of a run: (theta - eps, theta + eps) in the latent
    model, in the order of its coin (True draws theta - eps), else (theta,)."""
    dep = config.dependence
    if isinstance(dep, Latent):
        return perturbed_pair(config.marginal, dep.eps)
    return (config.marginal,)


def _halves(dep: DependenceSpec, aux) -> tuple:
    """Row selectors in the order of :func:`_marginals`, from the ``aux``
    of a chunk: in the latent model its coin and the complement, else
    None (every row)."""
    return (aux, ~aux) if isinstance(dep, Latent) else (None,)


def sample_pvalues(config: SimConfig) -> np.ndarray:
    """Matrix of p-values, shape (replicates, n_tests).

    Row r is built from the m uniforms U_0..U_{m-1} at words [r*m,
    (r+1)*m) of ``PCG64DXSM(seed)``, read in order or after ``advance(r*m)``:

    * Independent (m = n_tests): the marginal quantile transform of U.
    * Latent (m = n_tests + 1): U_0 < 0.5 selects theta - eps, else
      theta + eps; U_1.. go through the selected quantile transform.
    * GumbelCopula (m = n_tests + 2): the frailty log S is
      :func:`_log_kanter` of W = pi U_0 and E = -log1p(-U_1); with
      E_i = -log1p(-U_{i+2}), exp(-exp((log E_i - log S) / gamma)) goes
      through the marginal transform.

    Exponentials are drawn by inversion, so every row takes exactly m words.
    """
    _instance(config, SimConfig, "expected SimConfig")
    out = np.empty((config.replicates, config.n_tests))
    dep, marginals = config.dependence, _marginals(config)
    for lo, hi, aux, x in _iter_pvalue_chunks(config):
        block = out[lo:hi]
        if isinstance(dep, GumbelCopula):
            _copula_psi(x, aux, dep.gamma, out=block)
        else:
            block[...] = x
        for theta, rows in zip(marginals, _halves(dep, aux)):
            if any(theta.coeffs):  # else the transform is the identity
                sel = slice(None) if rows is None else rows
                block[sel] = _quantile_array(block[sel], theta)
    return out


def _iter_pvalue_chunks(config: SimConfig):
    """Yield (lo, hi, aux, x) for the chunks of replicates, one block of
    at most 65,536 values each (one row if a row is wider).

    For the independent and latent models ``x`` holds rows lo..hi on the
    Psi scale: the uniforms the marginal's inverse CDF maps to the
    p-values of :func:`sample_pvalues`.  ``aux`` is None, or in the latent
    model the boolean row vector that is True where a row is drawn from
    theta - eps.  For the copula ``x`` is the view U_2.. of the rows'
    uniforms and ``aux`` their log S: :func:`_copula_psi` of the two is
    the Psi scale.
    """
    n, reps, dep = config.n_tests, config.replicates, config.dependence
    m = n + {Independent: 0, Latent: 1, GumbelCopula: 2}[type(dep)]
    rows = _chunk_rows(m, reps)
    rng = np.random.Generator(np.random.PCG64DXSM(config.seed))
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        u = rng.random((hi - lo, m))
        aux, x = None, u
        if isinstance(dep, Latent):
            aux, x = u[:, 0] < 0.5, u[:, 1:]
        elif isinstance(dep, GumbelCopula):
            aux = _log_kanter(dep.gamma, math.pi * u[:, 0], -np.log1p(-u[:, 1]))
            x = u[:, 2:]
        yield lo, hi, aux, x


@dataclass(frozen=True)
class EmpiricalCountDistribution(CountDistribution):
    """Histogram estimate of a count law with per-cell standard errors."""

    std_errs: np.ndarray = None
    replicates: int = 0

    def __post_init__(self):
        super().__post_init__()
        se = np.asarray(self.std_errs, dtype=float)
        se.flags.writeable = False
        object.__setattr__(self, "std_errs", se)

    def mean_error_bound(self) -> float:
        """Not defined: the mean of a Monte Carlo law is an estimate, not a
        truncated exact sum, and its error is statistical (``std_errs``)."""
        raise InputError(
            "a Monte Carlo count law has no truncation bound on its mean; "
            "its error is statistical: use std_errs")


_RULES = ("bh", "bonferroni")


def _count(x: np.ndarray, b: np.ndarray, bh: bool) -> np.ndarray:
    """Discoveries in each row of the 2-D ``x`` against thresholds ``b``
    broadcast over it: the step-down count of sorted rows (the number of
    leading entries at or below their threshold), or the number of
    entries at or below the one Bonferroni threshold."""
    ok = x <= b
    if bh:
        return np.where(ok.all(axis=1), x.shape[1], np.argmin(ok, axis=1))
    return np.count_nonzero(ok, axis=1)


def _bands(theta: ThetaParams, t: np.ndarray) -> tuple:
    """(lo, hi) around b = Psi(t): an entry u <= lo has a computed p <= t,
    and one with u > hi a computed p > t (module docstring)."""
    if all(c == 0.0 for c in theta.coeffs):
        return t, t
    b = cdf(np.maximum(t, _NORMAL_MIN), theta)
    return np.where(t < _NORMAL_MIN, -1.0, b * (1.0 - _BAND)), b * (1.0 + _BAND)


def _discoveries(x: np.ndarray, aux, dep: DependenceSpec, marginals: tuple,
                 bands: list, t: np.ndarray, bh: bool) -> np.ndarray:
    """Discoveries in each row of the chunk ``x``, which is one block;
    ``x`` is not modified.  A row whose smallest Psi-scale entry
    lies above the top of its marginal's first band counts 0 (module
    docstring), so only the other rows are gathered, put on the Psi scale
    (copula), sorted (step-down) and counted against both ends of their
    marginal's band; a row whose two counts differ is recounted from its
    exact transform."""
    copula = isinstance(dep, GumbelCopula)
    k = np.zeros(x.shape[0], dtype=np.intp)
    if copula:
        # the smallest Psi-scale value of a row is that of its largest U
        low = _copula_psi(x.max(axis=1)[:, None], aux, dep.gamma)[:, 0]
    else:
        low = x.min(axis=1)
    for theta, rows, (b_lo, b_hi) in zip(marginals, _halves(dep, aux), bands):
        top = max(b_hi[0], _NORMAL_MIN) * (1.0 + _BAND) if copula else b_hi[0]
        live = low <= top
        sel = np.flatnonzero(live if rows is None else live & rows)
        if not sel.size:
            continue
        y = x[sel]
        if copula:
            _copula_psi(y, aux[sel], dep.gamma, out=y)
        if bh:
            y.sort(axis=1)
        k_sel = _count(y, b_lo, bh)
        if b_hi is not b_lo:
            redo = np.flatnonzero(k_sel != _count(y, b_hi, bh))
            if redo.size:
                p = _quantile_array(y[redo], theta)
                p.sort(axis=1)
                k_sel[redo] = _count(p, t, bh)
        k[sel] = k_sel
    return k


def empirical_count_distribution(config: SimConfig,
                                 rule: str = "bh") -> EmpiricalCountDistribution:
    """Apply a counting rule to every simulated replicate and normalize.

    ``rule`` is "bh" (step-down) or "bonferroni".  Standard errors are
    binomial: sqrt(phat (1 - phat) / replicates) per cell.  A row whose
    smallest Psi-scale entry lies above the top of the first band counts
    0 without a sort or transform.  The other rows are counted on the
    Psi scale, and only a row whose count an entry within 1e-8 relative
    of a threshold Psi(t_i) leaves open is transformed and recounted; the
    counts equal those of the fully transformed :func:`sample_pvalues`
    matrix (module docstring).
    """
    _instance(config, SimConfig, "expected SimConfig")
    rule_key = str(rule).lower()
    if rule_key not in _RULES:
        raise InputError(f"rule must be one of {_RULES}, got {rule!r}")
    n, alpha, bh = config.n_tests, config.alpha, rule_key == "bh"
    counts = np.zeros(n + 1, dtype=np.int64)
    t = np.arange(1, n + 1 if bh else 2) * alpha / n
    marginals = _marginals(config)
    bands = [_bands(theta, t) for theta in marginals]
    for _, _, aux, chunk in _iter_pvalue_chunks(config):
        k = _discoveries(chunk, aux, config.dependence, marginals, bands, t, bh)
        counts += np.bincount(k, minlength=n + 1)
    k_max = int(np.nonzero(counts)[0][-1])
    pmf = counts[: k_max + 1] / config.replicates
    se = np.sqrt(pmf * (1.0 - pmf) / config.replicates)
    return EmpiricalCountDistribution(
        setup=TestingSetup(n, alpha, config.marginal),
        pmf=pmf,
        k_max=k_max,
        tail_mass=0.0,
        std_errs=se,
        replicates=config.replicates,
    )
