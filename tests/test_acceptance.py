"""End-to-end acceptance gates.

Every test prints exactly one summary line to the terminal, bypassing
capture, of the form

    ACCEPTANCE NN <name>: PASS
    ACCEPTANCE NN <name>: FAIL <failing subchecks>

and then asserts.  The reference values and tolerances in this file are
frozen deliverable gates: a failure documents a real numeric
disagreement and must never be silenced by loosening a tolerance.
"""
import math
import time

import numpy as np
from mpmath import fac, mpf, workprec
from scipy import stats

from conftest import SIG_BC3, THETA_BC3, THETA_HUANG, THETA_TCGA
from fdrdist import (
    Latent,
    SimConfig,
    TestingSetup,
    ThetaParams,
    bh_pmf,
    bh_pmf_uniform_exact,
    bonferroni_pmf_copula,
    borel_limit_param,
    borel_tanner_pmf,
    cdf,
    empirical_count_distribution,
    fit,
    latent_bh_pmf,
    latent_pvalue_correlation,
    normal_approx,
    power_table,
    sample_pvalues,
    select_order,
)


def _report(capsys, num, name, checks, note=None):
    """checks: (label, ok, detail) triples.  Prints the one-line verdict
    unconditionally, then asserts that every subcheck held."""
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    if failed:
        status = "FAIL " + "; ".join(f"{label} ({detail})"
                                     for label, detail in failed)
    else:
        status = "PASS"
    if note:
        status += f" [{note}]"
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failed, f"{name}: {status}"


def _within(value, target, tol, unit=""):
    return (abs(value - target) <= tol,
            f"{value:.6g} vs {target} ± {tol}{unit}")


def _rel_within(value, target, rel):
    return (abs(value - target) <= rel * abs(target),
            f"{value:.6g} vs {target} ± {rel:.1%}")


def test_01_uniform_null_exactness(capsys):
    # the recursion reproduces the closed form exactly; matching every
    # entry also exercises the inductive identity the recursion rests on
    start = time.perf_counter()
    worst = 0.0
    for n in (10, 100, 1000):
        for alpha in (0.01, 0.05, 0.2):
            k_top = min(n, 60)
            dist = bh_pmf(TestingSetup(n, alpha), k_max=k_top)
            for k in range(k_top + 1):
                closed = bh_pmf_uniform_exact(n, alpha, k)
                err = (abs(dist.pmf[k] - closed) / closed if closed
                       else abs(dist.pmf[k]))
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "uniform-null-exactness", [
        ("recursion vs closed form", worst <= 1e-10,
         f"worst rel err {worst:.2e}, tol 1e-10"),
        ("runtime", elapsed < 10.0, f"{elapsed:.1f}s, limit 10s"),
    ])


def test_02_borel_tanner_identities(capsys):
    alpha = 0.05
    pmf = np.array([borel_tanner_pmf(alpha, k) for k in range(501)])
    ks = np.arange(501)
    total = float(pmf.sum())
    mean = float((ks * pmf).sum())
    var = float((ks**2 * pmf).sum()) - mean**2
    pr_pos = 1.0 - borel_tanner_pmf(alpha, 0)
    _report(capsys, 2, "borel-tanner-identities", [
        ("mass", abs(total - 1.0) <= 1e-10, f"sum {total:.15f}"),
        ("mean", abs(mean - alpha / (1 - alpha)) <= 1e-8,
         f"{mean:.10f} vs {alpha / (1 - alpha):.10f}"),
        ("variance", abs(var - alpha / (1 - alpha) ** 3) <= 1e-8,
         f"{var:.10f} vs {alpha / (1 - alpha) ** 3:.10f}"),
        ("hit probability", abs(pr_pos - (1 - math.exp(-alpha))) <= 1e-12
         and pr_pos < alpha,
         f"{pr_pos:.10f} vs 1-e^-a {1 - math.exp(-alpha):.10f} < {alpha}"),
    ])


# What is known about the failures of 03-05: the printed coefficients
# are rounded, and the references sit inside the spread that rounding
# alone produces (evidence gathered offline; the unrounded coefficients
# are not available).
_ROUNDING_BOX_03 = (
    "116 of 1,500 theta drawn uniformly in the rounding box of the printed "
    "(0.158, 0.0492, 0.0201) pass every subcheck; the references look "
    "computed from unrounded coefficients")
_ROUNDING_BOX_04 = (
    "over the 64 corners of the rounding box of the printed theta and sigma "
    "the z=0.75 mean spans [37.13, 37.80] and the SD [39.84, 40.47]; both "
    "references lie inside")
_ROUNDING_BOX_05 = (
    "145 of 1,500 theta drawn uniformly in the rounding box of the printed "
    "coefficients pass every subcheck; the references look computed from "
    "unrounded coefficients")


def test_03_breast_cancer_distribution(capsys):
    start = time.perf_counter()
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    dist = bh_pmf(setup)
    approx = normal_approx(setup)
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "breast-cancer-distribution", [
        ("mean", *_within(dist.mean(), 22.75, 0.01)),
        ("Pr[BH=0]", *_within(dist.prob(0), 0.101, 0.001)),
        ("SD", *_within(dist.sd(), 18.13, 0.02)),
        ("normal mu", *_within(approx.mu, 26.1, 0.05)),
        ("normal sigma", *_within(approx.sigma, 14.9, 0.05)),
        ("runtime", elapsed < 30.0, f"{elapsed:.1f}s, limit 30s"),
    ], note=_ROUNDING_BOX_03)


def test_04_latent_dependence_table(capsys):
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    targets = {
        0.25: (24.43, 21.44, 0.104, 0.004),
        0.50: (29.40, 29.50, 0.116, 0.017),
        0.75: (37.18, 39.85, 0.136, 0.037),
    }
    checks = []
    for z, (mean_t, sd_t, pr0_t, corr_t) in targets.items():
        eps = tuple(z * s for s in SIG_BC3)
        dist = latent_bh_pmf(setup, eps)
        corr = latent_pvalue_correlation(THETA_BC3, eps)
        checks.append((f"z={z} mean", *_rel_within(dist.mean(), mean_t, 0.005)))
        checks.append((f"z={z} SD", *_rel_within(dist.sd(), sd_t, 0.005)))
        checks.append((f"z={z} Pr[BH=0]",
                       *_rel_within(dist.prob(0), pr0_t, 0.005)))
        checks.append((f"z={z} correlation", *_within(corr, corr_t, 0.001)))
    _report(capsys, 4, "latent-dependence-table", checks, note=_ROUNDING_BOX_04)


def test_05_tcga_distribution(capsys):
    start = time.perf_counter()
    setup = TestingSetup(20068, 0.05, THETA_TCGA)
    dist = bh_pmf(setup)
    approx = normal_approx(setup)
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "tcga-distribution", [
        ("mean", *_within(dist.mean(), 176.35, 0.1)),
        ("Pr[BH<=2]", *_within(dist.prob_at_most(2), 0.012, 0.001)),
        ("normal mu", *_within(approx.mu, 178.8, 0.1)),
        ("normal sigma", *_within(approx.sigma, 39.1, 0.1)),
        ("runtime", elapsed < 300.0, f"{elapsed:.1f}s, limit 300s"),
    ], note=_ROUNDING_BOX_05)


# Correlations as printed in the source power table, three decimals,
# for z = 0, 0.4, 0.8 per row.  Recomputed values that round differently
# are flagged on the report line; the flags are informational, since the
# tabulated (300, 0.8) entry is internally inconsistent with its
# neighbours and under investigation upstream.
_PRINTED_CORR = {
    78: (0.0, 0.001, 0.006),
    300: (0.0, 0.006, 0.002),
    450: (0.0, 0.008, 0.034),
    600: (0.0, 0.011, 0.045),
}


def test_06_pilot_power_table(capsys):
    grid = power_table(THETA_HUANG, 78, 48803, 0.05,
                       (78, 300, 450, 600), (0.0, 0.4, 0.8))
    cell = {(r.n_subjects, r.z): r for r in grid.rows}
    checks = [
        ("N=78 z=0 E[BH]", *_within(cell[78, 0.0].expected_bh, 1.5, 0.05)),
        ("N=78 z=0 Pr[BH>0]",
         *_within(cell[78, 0.0].prob_bh_positive, 0.517, 0.005)),
        ("N=450 z=0 E[BH]", *_within(cell[450, 0.0].expected_bh, 12.6, 0.1)),
        ("N=450 z=0 Pr[BH>0]",
         *_within(cell[450, 0.0].prob_bh_positive, 0.813, 0.005)),
        ("N=600 z=0.8 E[BH]",
         *_within(cell[600, 0.8].expected_bh, 90.8, 0.5)),
        ("N=600 z=0.8 Pr[BH>0]",
         *_within(cell[600, 0.8].prob_bh_positive, 0.657, 0.005)),
    ]
    flags = []
    for n_subj, printed in _PRINTED_CORR.items():
        for z, target in zip((0.0, 0.4, 0.8), printed):
            got = round(cell[n_subj, z].correlation, 3)
            if got != target:
                flags.append(f"N={n_subj} z={z} corr {got:.3f} vs "
                             f"printed {target:.3f}")
    note = ("correlation flags: " + "; ".join(flags)) if flags else None
    _report(capsys, 6, "pilot-power-table", checks, note=note)


def test_07_small_quantile_chain(capsys):
    psi = cdf(0.05 / 3226, THETA_BC3)
    printed = float(f"{psi:.3g}")  # three significant digits, as quoted
    chain = 3226 * printed
    raw = 3226 * psi
    # the quoted 2.297 is the product of the already-rounded first
    # factor, so the comparison follows the same chain; the unrounded
    # product is reported alongside for context
    _report(capsys, 7, "small-quantile-chain", [
        ("Psi(alpha/n)", abs(psi - 7.12e-4) <= 1e-6,
         f"{psi:.6e} vs 7.12e-4 ± 1e-6"),
        ("n times p*", abs(chain - 2.297) <= 0.001,
         f"{chain:.6f} vs 2.297 ± 0.001"),
    ], note=f"unrounded product {raw:.5f}")


def _orthant_pmf(p_star, gamma, n=3):
    """Exchangeable inclusion-exclusion over joint-orthant masses
    p*^(m^(1/gamma)): brute-force check independent of the production
    difference scheme."""
    def joint(m):
        return 1.0 if m == 0 else p_star ** (m ** (1.0 / gamma))

    out = []
    for k in range(n + 1):
        total = 0.0
        for j in range(n - k + 1):
            total += (-1) ** j * math.comb(n - k, j) * joint(k + j)
        out.append(math.comb(n, k) * total)
    return out


def test_08_copula_correctness(capsys):
    worst_binom = 0.0
    for theta in (ThetaParams.uniform(), THETA_BC3):
        setup = TestingSetup(50, 0.05, theta)
        dist = bonferroni_pmf_copula(setup, 1.0, k_max=50)
        p_star = cdf(0.05 / 50, theta)
        ref = stats.binom.pmf(np.arange(51), 50, p_star)
        for k in range(51):
            if ref[k] > 1e-300:
                worst_binom = max(worst_binom,
                                  abs(dist.pmf[k] - ref[k]) / ref[k])
    worst_orthant = 0.0
    for theta in (ThetaParams.uniform(), THETA_BC3):
        for gamma in (1.0, 1.3, 2.0):
            setup = TestingSetup(3, 0.3, theta)
            dist = bonferroni_pmf_copula(setup, gamma, k_max=3)
            oracle = _orthant_pmf(cdf(0.1, theta), gamma)
            worst_orthant = max(
                worst_orthant,
                max(abs(a - b) for a, b in zip(dist.pmf, oracle)))
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    pr0 = [bonferroni_pmf_copula(setup, g, k_max=0).prob(0)
           for g in (1.0, 1.05, 1.1, 1.2)]
    monotone = all(a <= b for a, b in zip(pr0, pr0[1:]))
    _report(capsys, 8, "copula-correctness", [
        ("independence reduces to binomial", worst_binom <= 1e-8,
         f"worst rel err {worst_binom:.2e}, tol 1e-8"),
        ("n=3 orthant oracle", worst_orthant <= 1e-10,
         f"worst abs err {worst_orthant:.2e}, tol 1e-10"),
        ("Pr[B=0] nondecreasing in gamma", monotone,
         "Pr0 " + ", ".join(f"{v:.4f}" for v in pr0)),
    ])


def test_09_monte_carlo_gates(capsys):
    replicates = 100000
    eps = tuple(0.5 * s for s in SIG_BC3)
    start = time.perf_counter()
    setup_u = TestingSetup(200, 0.05)
    setup_b = TestingSetup(200, 0.05, THETA_BC3)
    scenarios = (
        ("uniform null", bh_pmf(setup_u),
         SimConfig(200, replicates, ThetaParams.uniform(), 0.05, 20240814)),
        ("fitted marginal", bh_pmf(setup_b),
         SimConfig(200, replicates, THETA_BC3, 0.05, 20240814)),
        ("latent mixture", latent_bh_pmf(setup_b, eps),
         SimConfig(200, replicates, THETA_BC3, 0.05, 20240814, Latent(eps))),
    )
    checks = []
    for name, analytic, sim in scenarios:
        emp = empirical_count_distribution(sim, "bh")
        worst = 0.0
        checked = []
        for k in range(analytic.k_max + 1):
            q = analytic.prob(k)
            if q < 1e-4:  # below ten expected hits the cell test degenerates
                continue
            checked.append(k)
            se = math.sqrt(q * (1 - q) / replicates)
            worst = max(worst, abs(emp.prob(k) - q) / (4 * se))
        # everything left over, including the analytic tail, as one cell
        q_pool = 1.0 - sum(analytic.prob(k) for k in checked)
        e_pool = 1.0 - sum(emp.prob(k) for k in checked)
        if q_pool > 0.0:
            se = math.sqrt(q_pool * (1 - q_pool) / replicates)
            worst = max(worst, abs(e_pool - q_pool) / (4 * se))
        checks.append((name, worst <= 1.0,
                       f"worst cell at {worst:.2f} of the 4-SE budget, "
                       f"{len(checked)} cells"))
    elapsed = time.perf_counter() - start
    checks.append(("runtime", elapsed < 120.0, f"{elapsed:.1f}s, limit 120s"))
    _report(capsys, 9, "monte-carlo-gates", checks)


def test_10_mle_recovery_gates(capsys):
    # raw case-study p-value files are not bundled, so only the
    # property-based gates run; the file-based comparisons would slot in
    # here if the data were procured
    rows = sample_pvalues(SimConfig(3226, 100, THETA_BC3, 0.05, 20240814))
    covered = 0
    picked_cubic = 0
    for row in rows:
        sel = select_order(row, max_order=6)
        if sel.order == 3:
            picked_cubic += 1
        fit3 = (sel.trace[2] if len(sel.trace) >= 3 and
                sel.trace[2].order == 3 else fit(row, 3))
        if fit3.std_errs is None:
            continue
        if all(abs(est - true) <= 3 * se for est, true, se in
               zip(fit3.theta_hat.coeffs, THETA_BC3.coeffs, fit3.std_errs)):
            covered += 1
    _report(capsys, 10, "mle-recovery-gates", [
        ("3-SE coverage", covered >= 93, f"{covered}/100, need >= 93"),
        ("order selection", picked_cubic >= 80,
         f"picked 3 in {picked_cubic}/100, need >= 80"),
    ], note=f"coverage {covered}/100, cubic in {picked_cubic}/100; "
            "case-study p-value files unavailable; property-based path only")


def test_11_alternating_factorial_identity(capsys):
    rng = np.random.default_rng(20240811)
    xs = rng.uniform(0.0, 25.0, size=20)
    worst = 0.0
    with workprec(400):
        for k in range(16):
            target = fac(k)
            for x in xs:
                xm = mpf(float(x))  # convert once; exact thereafter
                total = mpf(0)
                for i in range(k + 1):
                    total += (-1) ** i * math.comb(k, i) * (xm - i) ** k
                worst = max(worst, abs(total - target) / target)
    _report(capsys, 11, "alternating-factorial-identity", [
        ("identity", worst <= 1e-20,
         f"worst rel err {float(worst):.2e}, tol 1e-20, k <= 15, 20 points"),
    ])


def test_12_borel_limit_consistency(capsys):
    n = 10 ** 6
    shrink = math.log(n) ** THETA_BC3.order
    scaled = ThetaParams(THETA_BC3.order,
                         tuple(c / shrink for c in THETA_BC3.coeffs))
    dist = bh_pmf(TestingSetup(n, 0.05, scaled), k_max=5)
    param = borel_limit_param(THETA_BC3, 0.05)
    worst = max(abs(dist.pmf[k] - borel_tanner_pmf(param, k))
                for k in range(6))
    _report(capsys, 12, "borel-limit-consistency", [
        ("exact vs limit", worst <= 0.02,
         f"worst abs diff {worst:.4f} for k <= 5, tol 0.02"),
    ], note=f"limit parameter {param:.6f}")
