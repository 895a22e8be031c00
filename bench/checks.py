"""Correctness checks for every command's JSON document.

Each check returns a list of problems; an empty list is a pass.  The
references are either values recorded from the package at a fixed commit
(``references.json``, which names the commit) or independent oracles
computed here with numpy and scipy.  Tolerances are the ones the
package's tests use for the same quantity.
"""

from __future__ import annotations

import math

import numpy as np

TAIL_TOL = 1e-9            # the CLI's default --tail-tol
FIT_LOGLIK_SLACK = 1e-6    # a fit may sit this far below the oracle maximum
CHI2_1_05 = 3.84           # order selection: chi-squared(1) critical value
NO_CHANGE = 1e-4           # order selection: numerically nil gain


def _rel(problems, what, got, want, tol):
    if not (got is not None and abs(got - want) <= tol * abs(want)):
        problems.append(f"{what}={got!r}, want {want!r} (rel {tol:g})")


def _abs(problems, what, got, want, tol):
    if not (got is not None and abs(got - want) <= tol):
        problems.append(f"{what}={got!r}, want {want!r} (abs {tol:g})")


def _mass(problems, res):
    pmf = res["pmf"]
    if len(pmf) != res["k_max"] + 1:
        problems.append(f"pmf has {len(pmf)} entries, k_max is {res['k_max']}")
    total = math.fsum(pmf) + res["tail_mass"]
    if abs(total - 1.0) > 1e-9:
        problems.append(f"pmf plus tail mass is {total!r}")
    if res["tail_mass"] > TAIL_TOL:
        problems.append(f"tail mass {res['tail_mass']!r} above {TAIL_TOL}")


def marginal_cdf(p: float, theta) -> float:
    """Psi(p) = p * sum_i theta_i i! sum_{m<=i} x^m / m!, x = -log p,
    with theta_0 = 1 - sum_i i! theta_i (integral of the density)."""
    x = -math.log(p)
    coeffs = [1.0 - sum(math.factorial(i) * c for i, c in enumerate(theta, 1))]
    coeffs += list(theta)
    total = 0.0
    for i, c in enumerate(coeffs):
        total += c * math.factorial(i) * sum(x ** m / math.factorial(m)
                                             for m in range(i + 1))
    return p * total


def bh_dist(res, ref, **_):
    """Seed-commit moments (tests/test_count_dist.py regression tolerances)."""
    problems = []
    _rel(problems, "mean", res["mean"], ref["mean"], 1e-9)
    _rel(problems, "sd", res["sd"], ref["sd"], 1e-6)
    _rel(problems, "pr_zero", res["pr_zero"], ref["pr_zero"], 1e-4)
    _rel(problems, "normal_mu", res["normal_mu"], ref["normal_mu"], 1e-10)
    _rel(problems, "normal_sigma", res["normal_sigma"], ref["normal_sigma"], 1e-10)
    _mass(problems, res)
    return problems


def dependent(res, ref, **_):
    """Seed-commit moments (tests/test_dependence.py latent tolerances)."""
    problems = []
    _abs(problems, "mean", res["mean"], ref["mean"], 5e-4)
    _abs(problems, "sd", res["sd"], ref["sd"], 5e-4)
    _abs(problems, "pr_zero", res["pr_zero"], ref["pr_zero"], 5e-5)
    _rel(problems, "correlation", res["correlation"], ref["correlation"], 1e-12)
    _mass(problems, res)
    return problems


def _p_star(doc):
    cfg = doc["config"]
    return marginal_cdf(cfg["alpha"] / cfg["n"], cfg["theta"])


def bonf_binomial(res, doc, **_):
    """Oracle: Binomial(n, p*) with p* from the closed-form CDF."""
    problems = []
    n, p = doc["config"]["n"], _p_star(doc)
    _rel(problems, "p_star", res["p_star"], p, 1e-12)
    k = np.arange(res["k_max"] + 1)
    from scipy import stats  # here, so runs that need no scipy do not load it

    want = stats.binom.pmf(k, n, p)
    if not np.allclose(res["pmf"], want, rtol=1e-12, atol=0.0):
        problems.append("pmf differs from Binomial(n, p*) beyond rel 1e-12")
    _mass(problems, res)
    return problems


def bonf_poisson(res, doc, **_):
    """Oracle: Poisson(n p*) with p* from the closed-form CDF."""
    problems = []
    n, p = doc["config"]["n"], _p_star(doc)
    k = np.arange(res["k_max"] + 1)
    from scipy import stats

    want = stats.poisson.pmf(k, n * p)
    if not np.allclose(res["pmf"], want, rtol=1e-12, atol=0.0):
        problems.append("pmf differs from Poisson(n p*) beyond rel 1e-12")
    _mass(problems, res)
    return problems


def bonf_copula(res, ref, doc, **_):
    """Oracle: the copula leaves the mean at n p*; shape from the seed."""
    problems = []
    n, p = doc["config"]["n"], _p_star(doc)
    if abs(res["mean"] - n * p) > 1e-9 * n * p + res["mean_error_bound"]:
        problems.append(f"mean={res['mean']!r}, want n p* = {n * p!r}")
    _abs(problems, "sd", res["sd"], ref["sd"], 5e-4)
    _abs(problems, "pr_zero", res["pr_zero"], ref["pr_zero"], 5e-5)
    _mass(problems, res)
    return problems


def power(res, ref, **_):
    """Seed-commit cells (tests/test_power.py pilot tolerances)."""
    problems = []
    rows, want_rows = res["rows"], ref["rows"]
    if len(rows) != len(want_rows):
        return [f"{len(rows)} grid rows, want {len(want_rows)}"]
    for row, want in zip(rows, want_rows):
        cell = f"N={want['N']},z={want['z']}"
        if (row["N"], row["z"]) != (want["N"], want["z"]):
            problems.append(f"row {row['N']},{row['z']} out of order, want {cell}")
            continue
        _abs(problems, f"{cell} expected_bh", row["expected_bh"], want["expected_bh"], 5e-4)
        _abs(problems, f"{cell} prob_bh_positive", row["prob_bh_positive"],
             want["prob_bh_positive"], 5e-4)
        _abs(problems, f"{cell} correlation", row["correlation"], want["correlation"], 5e-6)
    return problems


def simulate(res, ref, doc, **_):
    """Pooled 4-SE rule of acceptance gate 09 against the exact pmf.

    Cells with fewer than ten expected hits are pooled with the truncated
    tail into one cell, so a sampler that draws different bits still
    passes while a wrong law does not.  Gate 09 writes the cut as q < 1e-4
    at its 100k replicates; at 20k that would test cells of two expected
    hits, whose counts are too skewed for a 4-SE budget.
    """
    problems = []
    reps = doc["config"]["replicates"]
    if res["replicates"] != reps:
        problems.append(f"replicates={res['replicates']}, want {reps}")
    exact, emp = ref["pmf"], res["pmf"]

    def emp_at(k):
        return emp[k] if k < len(emp) else 0.0

    worst, checked = 0.0, []
    for k, q in enumerate(exact):
        if q * reps < 10:
            continue
        checked.append(k)
        worst = max(worst, abs(emp_at(k) - q) / (4 * math.sqrt(q * (1 - q) / reps)))
    q_pool = 1.0 - math.fsum(exact[k] for k in checked)
    e_pool = 1.0 - math.fsum(emp_at(k) for k in checked)
    if q_pool > 0.0:
        se = math.sqrt(q_pool * (1 - q_pool) / reps)
        worst = max(worst, abs(e_pool - q_pool) / (4 * se))
    if worst > 1.0:
        problems.append(f"worst cell at {worst:.2f} of the 4-SE budget")
    if abs(math.fsum(emp) - 1.0) > 1e-12:
        problems.append("empirical pmf does not sum to 1")
    return problems


def count(res, data, doc, **_):
    """Oracle: BH step-down, step-up and Bonferroni counts in numpy."""
    alpha = doc["config"]["alpha"]
    p = np.sort(data)
    n = p.size
    ok = p <= np.arange(1, n + 1) * alpha / n
    want = {
        "n": n,
        "bh": n if ok.all() else int(np.argmin(ok)),
        "bh_step_up": int(np.nonzero(ok)[0][-1]) + 1 if ok.any() else 0,
        "bonferroni": int((p <= alpha / n).sum()),
    }
    return [f"{key}={res[key]!r}, want {val}" for key, val in want.items()
            if res[key] != val]


# ------------------------------------------------------------------ fitting

def _design(data, order):
    x = -np.log(data)
    return np.stack([x ** j - math.factorial(j) for j in range(1, order + 1)], axis=1)


def loglik(data, theta) -> float:
    """Sum of log densities, log(1 + sum_j theta_j (x^j - j!)) per point."""
    dens = 1.0 + _design(data, len(theta)) @ np.asarray(theta, dtype=float)
    return float(np.log(dens).sum()) if np.all(dens > 0) else -math.inf


def oracle_loglik(data, order: int) -> float:
    """Maximum log-likelihood over the valid region, orders 1 to 4.

    The log-likelihood is concave in theta and the region is the linear
    chained box theta_i >= 0, sum_{j>=i} j! theta_j <= 1, so one SLSQP
    solve with the analytic gradient finds the global maximum.
    """
    from scipy import optimize

    V = _design(data, order)
    fact = np.array([math.factorial(j) for j in range(1, order + 1)], dtype=float)
    A = np.triu(np.tile(fact, (order, 1)))

    def nll(t):
        dens = 1.0 + V @ t
        if np.any(dens <= 0):
            return 1e300, np.zeros(order)
        return -float(np.log(dens).sum()), -(V / dens[:, None]).sum(axis=0)

    cons = {"type": "ineq", "fun": lambda t: 1.0 - A @ t, "jac": lambda t: -A}
    best = math.inf
    for t0 in (np.full(order, 1e-3) / fact, np.full(order, 0.1) / fact):
        r = optimize.minimize(nll, t0, jac=True, method="SLSQP",
                              bounds=[(0.0, None)] * order, constraints=[cons],
                              options=dict(ftol=1e-14, maxiter=500))
        best = min(best, float(r.fun))
    return -best


def _check_fit(problems, data, order, theta, reported, oracle):
    own = loglik(data, theta)
    _abs(problems, f"order {order} loglik vs its theta_hat", reported, own, 1e-6)
    if reported < oracle - FIT_LOGLIK_SLACK:
        problems.append(f"order {order} loglik {reported!r} below the "
                        f"maximum {oracle!r} by more than {FIT_LOGLIK_SLACK:g}")


def fit_order3(res, data, **_):
    problems = []
    if res["selected_order"] != 3:
        problems.append(f"fitted order {res['selected_order']}, want 3")
        return problems
    _check_fit(problems, data, 3, res["theta_hat"], res["loglik"],
               oracle_loglik(data, 3))
    return problems


def fit_select(res, data, doc, **_):
    """The selection sweep must reach each order's maximum and stop where
    the likelihood-ratio rule applied to those maxima stops.

    Orders above 4 have no closed region; a fit there is only held to
    the order-4 maximum, which it nests.
    """
    problems = []
    trace = res["trace"]
    best = {}
    for step in trace:
        order = step["order"]
        oracle = oracle_loglik(data, min(order, 4))
        best[order] = oracle if order <= 4 else step["loglik"]
        _check_fit(problems, data, order, step["theta_hat"], step["loglik"], oracle)
    selected = 1
    for order in range(2, len(trace) + 1):
        gain = best[order] - best[selected]
        if 2.0 * gain < CHI2_1_05 or gain < NO_CHANGE:
            break
        selected = order
    else:
        if len(trace) < doc["config"]["max_order"]:
            problems.append(f"sweep stopped at order {len(trace)} without a reason")
    if res["selected_order"] != selected:
        problems.append(f"selected order {res['selected_order']}, want {selected}")
    if [s["order"] for s in trace] != list(range(1, len(trace) + 1)):
        problems.append("trace orders are not 1, 2, ...")
    return problems


CHECKS = {
    "bh_dist": bh_dist,
    "dependent": dependent,
    "bonf_binomial": bonf_binomial,
    "bonf_poisson": bonf_poisson,
    "bonf_copula": bonf_copula,
    "power": power,
    "simulate": simulate,
    "count": count,
    "fit_order3": fit_order3,
    "fit_select": fit_select,
}


def check(cmd, doc, refs, size, data):
    """Problems found in one command's document; [] when it passes."""
    ref = None
    if cmd.ref:
        group, _, key = cmd.ref.partition(".")
        ref = refs["exact"][key] if group == "exact" else refs[size][cmd.ref]
    arr = data[cmd.data] if cmd.data >= 0 else None
    try:
        return CHECKS[cmd.check](res=doc["result"], ref=ref, doc=doc, data=arr)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"malformed document: {type(exc).__name__}: {exc}"]
