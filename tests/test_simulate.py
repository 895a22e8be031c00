"""Monte Carlo engine: reproducibility, marginal laws, dependence
structure, and empirical-vs-analytic agreement.

Oracles: the analytic moments and CDFs of the p-value family, the
Laplace transform of the positive-stable frailty, scipy's KS test, the
exact count pmfs from the analytic modules, a gamma-mixture sampler that
never inverts the CDF, and the documented layout: row r rebuilt from
words [r*m, (r+1)*m) of one ``PCG64DXSM(seed)`` stream, drawn in a
single call or, for one row alone, after ``advance(r*m)``.
"""
import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from conftest import SIG_BC3, THETA_BC3
from fdrdist import (
    ConstraintError,
    EmpiricalCountDistribution,
    GumbelCopula,
    Independent,
    InputError,
    Latent,
    SimConfig,
    TestingSetup,
    ThetaParams,
    bh_count,
    bh_pmf,
    bonferroni_pmf_copula,
    cdf,
    empirical_count_distribution,
    latent_pvalue_correlation,
    moment,
    positive_stable,
    sample_pvalues,
)
from fdrdist import simulate
from fdrdist.dependence import perturbed_pair
from fdrdist.psi_dist import _quantile_array, random_theta

HALF_SIG = tuple(0.5 * s for s in SIG_BC3)
MODELS = [Independent(), GumbelCopula(1.7), Latent(HALF_SIG)]


def _substream(seed, r):
    """Independent per-replicate generator for the gamma-mixture oracle."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | r))


def _stream(seed, reps, m):
    """The run's uniforms in one call: row r is words [r*m, (r+1)*m)."""
    return np.random.Generator(np.random.PCG64DXSM(seed)).random((reps, m))


def _three_row_chunks(monkeypatch):
    # with n_tests = 101, chunks of 3 rows start at words 3m, 6m and 9m,
    # so each later chunk starts mid-stream, not at the seed's first word
    monkeypatch.setattr(simulate, "_chunk_rows", lambda m, reps: 3)


def _config(**kw):
    base = dict(n_tests=100, replicates=50, marginal=ThetaParams.uniform(),
                alpha=0.05, seed=7)
    base.update(kw)
    return SimConfig(**base)


# ------------------------------------------------------------ config rules

def test_config_validation():
    with pytest.raises(InputError):
        _config(replicates=0)
    with pytest.raises(InputError):
        _config(n_tests=0)
    with pytest.raises(InputError):
        _config(seed=-1)
    with pytest.raises(InputError):
        _config(seed=2**64)
    with pytest.raises(InputError):
        _config(alpha=1.0)
    with pytest.raises(ConstraintError):
        _config(marginal=ThetaParams(3, (0.9, 0.9, 0.9)))
    with pytest.raises(ConstraintError):
        _config(marginal=THETA_BC3, dependence=Latent((0.0, 0.0, 0.03)))
    with pytest.raises(InputError):
        _config(marginal=THETA_BC3, dependence=Latent((0.1, 0.1)))
    for name in ("n_tests", "replicates", "seed"):
        for bad in (2.5, math.nan, math.inf, 10**400):
            with pytest.raises(InputError, match=name):
                _config(**{name: bad})
    for name in ("n_tests", "replicates"):
        with pytest.raises(InputError, match=name):
            _config(**{name: 2**53 + 1})
    cfg = _config(n_tests=100.0, replicates=50.0, seed=7.0)
    assert [(v, type(v)) for v in (cfg.n_tests, cfg.replicates, cfg.seed)] == [
        (100, int), (50, int), (7, int)]


# ---------------------------------------------------------- reproducibility

@pytest.mark.parametrize("dep", MODELS)
def test_bit_identical_across_runs(dep):
    cfg = _config(marginal=THETA_BC3, dependence=dep, replicates=20)
    a = sample_pvalues(cfg)
    b = sample_pvalues(cfg)
    assert a.shape == (20, 100)
    np.testing.assert_array_equal(a, b)


def test_replicate_substreams_are_stable():
    # row r depends only on (seed, r): a longer run extends, never reshuffles
    for dep in MODELS:
        short = sample_pvalues(_config(marginal=THETA_BC3, dependence=dep, replicates=3))
        long = sample_pvalues(_config(marginal=THETA_BC3, dependence=dep, replicates=11))
        np.testing.assert_array_equal(short, long[:3])


@pytest.mark.parametrize("dep", MODELS)
def test_bit_identical_regardless_of_chunking(dep, monkeypatch):
    cfg = _config(marginal=THETA_BC3, dependence=dep, replicates=10)
    whole = sample_pvalues(cfg)
    for rows in (1, 3):
        monkeypatch.setattr(simulate, "_chunk_rows", lambda n, reps, rows=rows: rows)
        np.testing.assert_array_equal(sample_pvalues(cfg), whole)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_uniform_rows_are_the_documented_substreams(seed, monkeypatch):
    # chunks start at words 303, 606 and 909 of the one stream
    _three_row_chunks(monkeypatch)
    got = sample_pvalues(_config(n_tests=101, seed=seed, replicates=10))
    np.testing.assert_array_equal(got, _stream(seed, 10, 101))


@pytest.mark.parametrize("gamma", [1.0, 1.7])
def test_copula_rows_use_positive_stable_frailties(gamma, monkeypatch):
    # words 0 and 1 of a row drive positive_stable by inversion
    # (W = pi U_0, E = -log1p(-U_1)); words 2.. are the exponentials.
    # The sampler works in log S and never forms S, so its values are
    # exp(-exp((log E_i - log S) / gamma)) exactly, and exp(-(E_i/S)^(1/gamma))
    # up to rounding
    _three_row_chunks(monkeypatch)
    cfg = _config(n_tests=101, seed=2**63 + 5, replicates=7,
                  dependence=GumbelCopula(gamma))
    got = sample_pvalues(cfg)
    u = _stream(cfg.seed, 7, 103)
    for r in range(7):
        words = iter([u[r, :1], u[r, 1:2]])
        s = positive_stable(gamma, SimpleNamespace(random=lambda size: next(words)), 1)[0]
        e = -np.log1p(-u[r, 2:])
        log_s = simulate._log_kanter(gamma, math.pi * u[r, :1], -np.log1p(-u[r, 1:2]))[0]
        np.testing.assert_array_equal(got[r], np.exp(-np.exp((np.log(e) - log_s) / gamma)))
        np.testing.assert_allclose(got[r], np.exp(-((e / s) ** (1.0 / gamma))), rtol=1e-13)


def test_copula_sampler_at_large_gamma():
    # at gamma = 1000 the frailty S itself overflows and underflows in a
    # double (about half the draws); the sampler must never form it.
    # Oracles: E[B] = n Psi(alpha / n) for the Bonferroni count, and the
    # marginal alone at n = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = _config(n_tests=5, replicates=50_000, marginal=THETA_BC3, alpha=0.01,
                      seed=3, dependence=GumbelCopula(1000.0))
        emp = empirical_count_distribution(cfg, "bonferroni")
        k = np.arange(emp.pmf.size)
        mean = float(k @ emp.pmf)
        se = math.sqrt((float(k * k @ emp.pmf) - mean * mean) / cfg.replicates)
        assert abs(mean - 5 * cdf(0.002, THETA_BC3)) <= 4 * se
        one = empirical_count_distribution(
            _config(n_tests=1, replicates=50_000, marginal=THETA_BC3, alpha=0.01,
                    seed=3, dependence=GumbelCopula(1000.0)), "bonferroni")
        q = cdf(0.01, THETA_BC3)
        assert abs(one.prob(1) - q) <= 4 * math.sqrt(q * (1 - q) / 50_000)


def test_latent_rows_are_the_documented_words(monkeypatch):
    # word 0 of a row is the coin (< 0.5 selects theta - eps), words 1..
    # go through the selected inverse CDF
    _three_row_chunks(monkeypatch)
    cfg = _config(n_tests=101, seed=2**63 + 5, replicates=10, marginal=THETA_BC3,
                  dependence=Latent(HALF_SIG))
    got = sample_pvalues(cfg)
    minus, plus = perturbed_pair(THETA_BC3, HALF_SIG)
    u = _stream(cfg.seed, 10, 102)
    assert 0 < np.count_nonzero(u[:, 0] < 0.5) < 10
    for r in range(10):
        theta = minus if u[r, 0] < 0.5 else plus
        np.testing.assert_array_equal(got[r], _quantile_array(u[r, 1:], theta))


def _words_per_row(cfg):
    return cfg.n_tests + {Independent: 0, Latent: 1, GumbelCopula: 2}[type(cfg.dependence)]


def _row_alone(cfg, r):
    """Row r of ``sample_pvalues(cfg)`` from its own m words, read after
    ``advance(r*m)``, through the documented transform."""
    dep, theta, m = cfg.dependence, cfg.marginal, _words_per_row(cfg)
    u = np.random.Generator(np.random.PCG64DXSM(cfg.seed).advance(r * m)).random(m)
    if isinstance(dep, Latent):
        minus, plus = perturbed_pair(theta, dep.eps)
        return _quantile_array(u[1:], minus if u[0] < 0.5 else plus)
    if isinstance(dep, GumbelCopula):
        log_s = simulate._log_kanter(dep.gamma, math.pi * u[:1], -np.log1p(-u[1:2]))[0]
        u = np.exp(-np.exp((np.log(-np.log1p(-u[2:])) - log_s) / dep.gamma))
    return _quantile_array(u, theta)


@pytest.mark.parametrize("three_rows", [False, True], ids=["default", "three-row"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("dep", MODELS)
def test_any_row_reproduces_alone(dep, seed, three_rows, monkeypatch):
    # row 0, the first row of the second chunk, and the last row
    if three_rows:
        _three_row_chunks(monkeypatch)
    cfg = _config(n_tests=101, replicates=1400, seed=seed, marginal=THETA_BC3,
                  dependence=dep)
    rows = simulate._chunk_rows(_words_per_row(cfg), cfg.replicates)
    assert 2 * rows < cfg.replicates - 1
    got = sample_pvalues(cfg)
    for r in (0, rows, cfg.replicates - 1):
        np.testing.assert_array_equal(got[r], _row_alone(cfg, r), err_msg=f"row {r}")


def test_seed_changes_output():
    a = sample_pvalues(_config(seed=1))
    b = sample_pvalues(_config(seed=2))
    assert not np.array_equal(a, b)


# ------------------------------------------------------------ marginal law

def test_uniform_marginal_passes_ks():
    sample = sample_pvalues(_config(replicates=1000, seed=3)).ravel()
    stat, pval = stats.kstest(sample, "uniform")
    assert pval > 0.01


def test_fitted_marginal_matches_moments():
    cfg = _config(n_tests=1000, replicates=1000, marginal=THETA_BC3, seed=5)
    sample = sample_pvalues(cfg).ravel()
    m1, m2 = moment(1, THETA_BC3), moment(2, THETA_BC3)
    se1 = math.sqrt((m2 - m1 * m1) / sample.size)
    assert abs(sample.mean() - m1) <= 4 * se1
    # fourth-moment bound for the SE of the second empirical moment
    m4 = moment(4, THETA_BC3)
    se2 = math.sqrt((m4 - m2 * m2) / sample.size)
    assert abs((sample**2).mean() - m2) <= 4 * se2


def test_fitted_marginal_matches_cdf():
    sample = sample_pvalues(
        _config(n_tests=500, replicates=400, marginal=THETA_BC3, seed=8)).ravel()
    for p in (0.001, 0.01, 0.1, 0.5):
        q = cdf(p, THETA_BC3)
        se = math.sqrt(q * (1 - q) / sample.size)
        assert abs(np.mean(sample <= p) - q) <= 4 * se


# -------------------------------------------------------- positive stable

@pytest.mark.parametrize("gamma", [1.5, 3.0])
def test_positive_stable_laplace_transform(gamma):
    rng = np.random.default_rng(11)
    s = positive_stable(gamma, rng, 200000)
    assert np.all(s > 0)
    for t in (0.5, 1.0, 2.0):
        emp = np.exp(-t * s)
        target = math.exp(-(t ** (1.0 / gamma)))
        se = emp.std(ddof=1) / math.sqrt(s.size)
        assert abs(emp.mean() - target) <= 4 * se


def test_positive_stable_degenerate_at_gamma_one():
    rng = np.random.default_rng(0)
    s = positive_stable(1.0, rng, 1000)
    np.testing.assert_array_equal(s, np.ones(1000))


def test_positive_stable_rejects_bad_size():
    for bad in (-1, 2.5, math.nan, math.inf):
        with pytest.raises(InputError, match="size"):
            positive_stable(1.5, np.random.default_rng(0), bad)
    assert positive_stable(1.5, np.random.default_rng(0), 3.0).shape == (3,)
    assert positive_stable(1.5, np.random.default_rng(0), 0).shape == (0,)


def test_positive_stable_vs_gamma_one_layout():
    # gamma = 1 consumes the same number of variates as gamma > 1, so
    # downstream draws stay aligned across dependence strengths
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    positive_stable(1.0, a, 17)
    positive_stable(2.0, b, 17)
    assert a.uniform() == b.uniform()


# ------------------------------------------------------------- dependence

def test_copula_sampler_matches_analytic_pmf():
    cfg = _config(n_tests=20, replicates=20000, seed=13,
                  dependence=GumbelCopula(1.5))
    emp = empirical_count_distribution(cfg, rule="bonferroni")
    ana = bonferroni_pmf_copula(TestingSetup(20, 0.05), 1.5, k_max=20)
    for k in range(6):
        q = ana.prob(k)
        se = math.sqrt(q * (1 - q) / cfg.replicates)
        assert abs(emp.prob(k) - q) <= 4 * se + 1e-12


def test_latent_sampler_pairwise_correlation():
    cfg = _config(n_tests=500, replicates=2000, marginal=THETA_BC3,
                  dependence=Latent(HALF_SIG), seed=17)
    sample = sample_pvalues(cfg)
    target = latent_pvalue_correlation(THETA_BC3, HALF_SIG)
    n = cfg.n_tests
    s1 = sample.sum(axis=1)
    s2 = (sample**2).sum(axis=1)
    cross = (s1**2 - s2) / (n * (n - 1))  # mean of p_i p_j over pairs
    mu = sample.mean()
    var = (sample**2).mean() - mu * mu
    corr = (cross.mean() - mu * mu) / var
    # batch the replicates to estimate the estimator's own spread
    batches = cross.reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(20) / var
    assert abs(corr - target) <= 4 * se


def test_latent_rows_use_one_coin_per_replicate():
    # with a huge eps the two mixture branches separate cleanly: row
    # means cluster at the branch means, never in between
    eps = (0.15,)
    theta = ThetaParams(1, (0.2,))
    cfg = SimConfig(n_tests=400, replicates=60, marginal=theta, alpha=0.05,
                    seed=23, dependence=Latent(eps))
    rows = sample_pvalues(cfg).mean(axis=1)
    lo = moment(1, ThetaParams(1, (0.35,)))
    hi = moment(1, ThetaParams(1, (0.05,)))
    assert set(np.round(rows, 1)) <= {round(lo, 1), round(hi, 1)}


# --------------------------------------------------------- gamma mixture

def _gamma_mixture_sampler(config):
    """Independent-model sampler that never touches the quantile solver.

    The density is a mixture over i = 0..I of laws whose -log p is
    Gamma(i + 1): draw the component with weights (theta_0, 1! theta_1,
    ..., I! theta_I), then multiply i + 1 uniforms.
    """
    theta = config.marginal
    weights = np.array(
        [theta.theta0]
        + [math.factorial(i) * c for i, c in enumerate(theta.coeffs, start=1)]
    )
    n = config.n_tests
    out = np.empty((config.replicates, n))
    for r in range(config.replicates):
        rng = _substream(config.seed, r)
        comp = rng.choice(len(weights), size=n, p=weights)
        u = rng.uniform(size=(n, theta.order + 1))
        # product of the first comp+1 uniforms per test
        mask = np.arange(theta.order + 1)[None, :] <= comp[:, None]
        out[r] = np.where(mask, u, 1.0).prod(axis=1)
    return out


def test_gamma_mixture_sampler_agrees_with_inverse_cdf():
    cfg = _config(n_tests=200, replicates=500, marginal=THETA_BC3, seed=29)
    a = _gamma_mixture_sampler(cfg)
    assert a.shape == (500, 200)
    m1 = moment(1, THETA_BC3)
    m2 = moment(2, THETA_BC3)
    se = math.sqrt((m2 - m1 * m1) / a.size)
    assert abs(a.mean() - m1) <= 4 * se
    for p in (0.01, 0.1, 0.5):
        q = cdf(p, THETA_BC3)
        se_q = math.sqrt(q * (1 - q) / a.size)
        assert abs(np.mean(a <= p) - q) <= 4 * se_q
    # same law as the inverse-CDF engine: two-sample KS on pooled draws
    b = sample_pvalues(cfg)
    stat, pval = stats.ks_2samp(a.ravel(), b.ravel())
    assert pval > 0.01


# ------------------------------------------------- empirical distributions

def _brute_force_pmf(cfg, rule):
    """Counts of the fully transformed matrix, one row at a time."""
    sample = sample_pvalues(cfg)
    if rule == "bh":
        counts = [bh_count(row, cfg.alpha) for row in sample]
    else:
        counts = [np.count_nonzero(row <= cfg.alpha / cfg.n_tests) for row in sample]
    return np.bincount(counts) / cfg.replicates


def test_empirical_matches_brute_force_counts():
    # the counting path compares Psi-scale values with Psi(t_i), so the
    # oracle counts sample_pvalues, which transforms every entry; at
    # n = 3, alpha = 0.05 the last step-down threshold,
    # 0.05000000000000001, lies above alpha
    cfg = _config(n_tests=50, replicates=300, marginal=THETA_BC3, seed=31)
    emp = empirical_count_distribution(cfg, rule="bh")
    np.testing.assert_array_equal(emp.pmf, _brute_force_pmf(cfg, "bh"))
    assert emp.replicates == 300
    assert emp.tail_mass == 0.0
    rng = np.random.default_rng(31)
    thetas = [ThetaParams.uniform()] + [random_theta(i, rng) for i in range(1, 7)]
    for theta in thetas:
        # the latent halves are theta / 2 and theta, both valid
        center = ThetaParams(theta.order, tuple(0.75 * c for c in theta.coeffs))
        eps = tuple(0.25 * c for c in theta.coeffs)
        models = [(theta, Independent()), (center, Latent(eps)),
                  (theta, GumbelCopula(1.3)), (theta, GumbelCopula(1.0))]
        for marginal, dep in models:
            for n, alpha in ((3, 0.05), (40, 0.05), (40, 0.3), (40, 0.9)):
                cfg = _config(n_tests=n, replicates=200, marginal=marginal,
                              alpha=alpha, dependence=dep, seed=int(rng.integers(2**32)))
                for rule in ("bh", "bonferroni"):
                    np.testing.assert_array_equal(
                        empirical_count_distribution(cfg, rule).pmf,
                        _brute_force_pmf(cfg, rule), err_msg=f"{cfg} {rule}")


@pytest.mark.parametrize("rule", ["bh", "bonferroni"])
@pytest.mark.parametrize("dep", MODELS)
def test_counts_do_not_depend_on_chunking(dep, rule, monkeypatch):
    cfg = _config(n_tests=150, replicates=500, marginal=THETA_BC3, dependence=dep,
                  alpha=0.2, seed=43)
    whole = empirical_count_distribution(cfg, rule).pmf
    assert np.count_nonzero(whole) > 2
    for rows in (1, 3):
        monkeypatch.setattr(simulate, "_chunk_rows", lambda m, reps, rows=rows: rows)
        np.testing.assert_array_equal(empirical_count_distribution(cfg, rule).pmf, whole)


@pytest.mark.parametrize("dep", MODELS)
def test_rows_wider_than_a_block_count_as_brute_force(dep):
    # 70,000 values exceed one block, so each chunk is a single row
    cfg = _config(n_tests=70_000, replicates=3, marginal=THETA_BC3, dependence=dep)
    assert simulate._chunk_rows(70_000, 3) == 1
    for rule in ("bh", "bonferroni"):
        np.testing.assert_array_equal(empirical_count_distribution(cfg, rule).pmf,
                                      _brute_force_pmf(cfg, rule), err_msg=rule)


@pytest.mark.parametrize("dep", MODELS)
def test_counting_memory_does_not_grow_with_replicates(dep):
    # one chunk is one block of 65,536 values (512 KB); a chunk of the
    # whole run would be 20,000 x 200 doubles, 32 MB
    cfg = _config(n_tests=200, replicates=20_000, marginal=THETA_BC3, dependence=dep,
                  seed=1901)
    tracemalloc.start()
    try:
        empirical_count_distribution(cfg, "bh")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _near_threshold_rows(theta, alpha, n, rule):
    """Psi-scale rows whose entries sit at or next to b_i = Psi(t_i).

    About 44 % of the entries u = Psi(t_i) invert to a computed p above
    t_i at n = 200 (breast-cancer theta), so these rows fall between the
    two ends of every band and only the exact transform counts them.
    Step-down: row j keeps entries i < j safely below their threshold and
    the rest on it.  Bonferroni: entries Psi(alpha/n)(1 + k 1e-15)."""
    t = np.arange(1, n + 1) * alpha / n
    b = cdf(t, theta)
    if rule == "bh":
        return np.array([np.where(np.arange(n) < j, b * (1 - 1e-6), b)
                         for j in range(0, 40, 2)])
    k = np.arange(n) - n // 2
    return np.array([b[0] * (1 + (k + s) * 1e-15) for s in range(-3, 4)])


@pytest.mark.parametrize("rule, alpha", [("bh", 0.05), ("bonferroni", 0.1)])
@pytest.mark.parametrize("dep", [Independent(), Latent(HALF_SIG)], ids=["ind", "latent"])
def test_rows_inside_the_band_are_recounted_exactly(rule, alpha, dep, monkeypatch):
    # both entry points read the replayed Psi-scale chunk: the counting
    # path must give the counts of the fully transformed matrix, each
    # latent half through its own theta (True coins draw theta - eps)
    n = 200
    halves = (perturbed_pair(THETA_BC3, HALF_SIG) if isinstance(dep, Latent)
              else (THETA_BC3,))
    blocks = [_near_threshold_rows(theta, alpha, n, rule) for theta in halves]
    x = np.concatenate(blocks)
    coin = None
    if len(blocks) == 2:
        coin = np.repeat([True, False], [len(blk) for blk in blocks])
    monkeypatch.setattr(simulate, "_iter_pvalue_chunks",
                        lambda config: iter([(0, len(x), coin, x.copy())]))
    cfg = SimConfig(n_tests=n, replicates=len(x), marginal=THETA_BC3,
                    alpha=alpha, seed=1, dependence=dep)
    expected = _brute_force_pmf(cfg, rule)
    support = np.flatnonzero(expected)
    assert 0 < support[0] and support[-1] < n
    np.testing.assert_array_equal(empirical_count_distribution(cfg, rule).pmf, expected)


def _screen_rows(theta, alpha, n):
    """Psi-scale rows whose smallest entry sits at the screen's top
    b_hi[0], one ulp above or below it, or inside the first band at
    b_0 (1 - delta / 2), which always inverts to a p <= t_1.  The other
    entries are b_i (1 - 1e-6), below their thresholds and above the
    first, so each row counts 0 or n (step-down), 0 or 1 (Bonferroni)."""
    t = np.arange(1, n + 1) * alpha / n
    b, top = cdf(t, theta), simulate._bands(theta, t)[1][0]
    lows = [top, np.nextafter(top, 1.0), np.nextafter(top, 0.0),
            b[0] * (1 - 0.5 * simulate._BAND)]
    return np.array([np.concatenate([[low], b[1:] * (1 - 1e-6)]) for low in lows])


def _copula_uniforms(x, gamma):
    """(U, log S) whose copula chain gives about the Psi-scale rows ``x``:
    log S is set per row so that E stays below 1, where U = 1 - e^-E
    resolves E to about 1e-16 relative."""
    log_s = np.log(0.5) - gamma * np.log(-np.log(x.min(axis=1)))
    log_s += np.linspace(-1.0, 0.0, len(x))
    e = np.exp(log_s[:, None] + gamma * np.log(-np.log(x)))
    return -np.expm1(-e), log_s


@pytest.mark.parametrize("rule, alpha", [("bh", 0.05), ("bonferroni", 0.1)])
@pytest.mark.parametrize("marginal, dep", [
    (ThetaParams.uniform(), Independent()), (THETA_BC3, Independent()),
    (THETA_BC3, Latent(HALF_SIG)), (THETA_BC3, GumbelCopula(1.3))],
    ids=["uniform", "fitted", "latent", "copula"])
def test_screen_keeps_every_row_that_can_count(rule, alpha, marginal, dep, monkeypatch):
    # a row is screened out when its smallest Psi-scale entry lies above
    # the top of its own marginal's first band (for the copula, that of
    # its largest uniform); rows at and around that top must count as
    # the fully transformed matrix does
    n = 200
    cfg = SimConfig(n_tests=n, replicates=1, marginal=marginal, alpha=alpha, seed=1,
                    dependence=dep)
    halves = simulate._marginals(cfg)
    blocks = [_screen_rows(theta, alpha, n) for theta in halves]
    x, aux = np.concatenate(blocks), None
    if isinstance(dep, Latent):
        aux = np.repeat([True, False], [len(blk) for blk in blocks])
    elif isinstance(dep, GumbelCopula):
        x, aux = _copula_uniforms(x, dep.gamma)
    monkeypatch.setattr(simulate, "_iter_pvalue_chunks",
                        lambda config: iter([(0, len(x), aux, x.copy())]))
    cfg = dataclasses.replace(cfg, replicates=len(x))
    expected = _brute_force_pmf(cfg, rule)
    assert 0 < expected[0] < 1
    np.testing.assert_array_equal(empirical_count_distribution(cfg, rule).pmf, expected)


@pytest.mark.parametrize("rule", ["bh", "bonferroni"])
def test_subnormal_threshold_has_no_lower_band(rule, monkeypatch):
    # below 2^-1022 a relative band says nothing: at alpha = 1e-320 the
    # entry Psi(alpha)(1 + 1e-6) still inverts to a p <= alpha, because
    # the subnormal p is rounded to a grid of relative step 5e-4
    b = cdf(1e-320, THETA_BC3)
    x = np.array([[b * (1 + 1e-6)], [b * (1 - 1e-6)], [1e-290], [0.5]])
    monkeypatch.setattr(simulate, "_iter_pvalue_chunks",
                        lambda config: iter([(0, 4, None, x.copy())]))
    cfg = _config(n_tests=1, replicates=4, marginal=THETA_BC3, alpha=1e-320)
    expected = _brute_force_pmf(cfg, rule)
    np.testing.assert_array_equal(expected, [0.5, 0.5])
    np.testing.assert_array_equal(empirical_count_distribution(cfg, rule).pmf, expected)


def test_bench_shapes_invert_nothing_while_counting(monkeypatch):
    # the four monte-carlo bench commands at a tenth of their replicates:
    # the counting path inverts no row, and sample_pvalues every entry
    inverted = []

    def counted(u, theta):
        inverted.append(u.size)
        return _quantile_array(u, theta)

    monkeypatch.setattr(simulate, "_quantile_array", counted)
    shapes = ((ThetaParams.uniform(), Independent(), "bh", 10_000),
              (THETA_BC3, Independent(), "bh", 2000),
              (THETA_BC3, Latent(HALF_SIG), "bh", 2000),
              (THETA_BC3, GumbelCopula(1.3), "bonferroni", 2000))
    for marginal, dep, rule, reps in shapes:
        cfg = SimConfig(n_tests=200, replicates=reps, marginal=marginal,
                        alpha=0.05, seed=1901, dependence=dep)
        inverted.clear()
        empirical_count_distribution(cfg, rule)
        assert inverted == [], cfg
        sample_pvalues(cfg)
        assert sum(inverted) == (0 if marginal.order == 0 else reps * 200), cfg


@pytest.mark.parametrize("rule", ["bh", "bonferroni"])
def test_copula_chain_runs_on_live_rows_only(rule, monkeypatch):
    # the bench copula shape at a tenth of its replicates: the counting
    # path puts fewer than half of the draws through the copula chain,
    # sample_pvalues every one, and a gathered row's chain is bit for bit
    # the one sample_pvalues transforms
    seen, original = [], simulate._copula_psi

    def chain(u, log_s, gamma, out=None):
        x = original(u, log_s, gamma, out)
        seen.append(x.copy())
        return x

    monkeypatch.setattr(simulate, "_copula_psi", chain)
    cfg = SimConfig(n_tests=200, replicates=2000, marginal=THETA_BC3, alpha=0.05,
                    seed=1901, dependence=GumbelCopula(1.3))
    empirical_count_distribution(cfg, rule)
    counted = seen[:]
    seen.clear()
    sample_pvalues(cfg)
    assert sum(x.size for x in seen) == 2000 * 200
    assert sum(x.size for x in counted) < 2000 * 200 / 2
    whole = {row.tobytes() for x in seen for row in x}
    gathered = [row for x in counted if x.shape[1] == 200 for row in x]
    assert gathered and all(row.tobytes() in whole for row in gathered)


@pytest.mark.parametrize("dep", MODELS)
def test_counting_leaves_the_chunks_untouched(dep, monkeypatch):
    # both entry points read replayed chunks without writing to them, so
    # a replay (as the benchmark's count probe makes) sees the same draws
    cfg = _config(marginal=THETA_BC3, dependence=dep, replicates=300)
    drawn = list(simulate._iter_pvalue_chunks(cfg))
    kept = [(None if aux is None else aux.copy(), x.copy()) for *_, aux, x in drawn]
    monkeypatch.setattr(simulate, "_iter_pvalue_chunks", lambda config: iter(drawn))
    for rule in ("bh", "bonferroni"):
        empirical_count_distribution(cfg, rule)
    sample_pvalues(cfg)
    for (*_, aux, x), (aux0, x0) in zip(drawn, kept, strict=True):
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(aux, aux0)


def test_empirical_standard_errors():
    cfg = _config(n_tests=100, replicates=5000, seed=37)
    emp = empirical_count_distribution(cfg, rule="bh")
    assert emp.std_errs is not None
    assert emp.std_errs.shape == emp.pmf.shape
    manual = np.sqrt(emp.pmf * (1 - emp.pmf) / cfg.replicates)
    np.testing.assert_allclose(emp.std_errs, manual, rtol=1e-12)
    with pytest.raises(ValueError):
        emp.std_errs[0] = 0.0  # frozen


def test_empirical_uniform_null_matches_exact():
    cfg = _config(n_tests=1000, replicates=20000, seed=41)
    emp = empirical_count_distribution(cfg, rule="bh")
    ana = bh_pmf(TestingSetup(1000, 0.05))
    for k in range(4):
        q = ana.prob(k)
        se = math.sqrt(q * (1 - q) / cfg.replicates)
        assert abs(emp.prob(k) - q) <= 4 * se
    # the null zero-count mass is e^{-alpha} up to O(1/n)
    assert emp.prob(0) == pytest.approx(math.exp(-0.05), abs=0.01)


def test_empirical_is_count_distribution():
    emp = empirical_count_distribution(_config(), rule="bonferroni")
    assert isinstance(emp, EmpiricalCountDistribution)
    assert emp.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert emp.mean() >= 0.0


def test_empirical_has_no_mean_error_bound():
    # tail_mass is 0, but a histogram's mean is not exact: no bound of 0
    emp = empirical_count_distribution(_config(), rule="bh")
    with pytest.raises(InputError, match="std_errs"):
        emp.mean_error_bound()


def test_empirical_rejects_unknown_rule():
    with pytest.raises(InputError):
        empirical_count_distribution(_config(), rule="holm")
