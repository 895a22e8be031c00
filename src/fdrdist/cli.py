"""Command-line surface.

Every subcommand emits a machine-readable document (JSON by default,
CSV with --csv) that embeds the fully resolved configuration, so a run
can be reproduced from its own output.  JSON writes each float as its
shortest round-trip repr and CSV as %.17g; both parse back to the same
double.  The CSV carries scalars as "# key=value" comment lines above
the table.

Exit codes: 0 success, 2 bad input (flags, files, malformed values),
3 numeric failure (a quadrature or root that did not converge), 4
infeasible parameters (outside the valid coefficient region).
"""

from __future__ import annotations

import io
import json
import sys

import click
import numpy as np

from .errors import FdrDistError, InputError
from .psi_dist import ThetaParams, cdf
from .count_dist import (
    TestingSetup,
    bh_count,
    bh_count_step_up,
    bh_pmf,
    bonferroni_count,
    bonferroni_pmf,
    bonferroni_poisson,
    borel_limit_param,
    borel_tanner_pmf,
    normal_approx,
)
from .dependence import (
    bonferroni_pmf_copula,
    latent_bh_pmf,
    latent_pvalue_correlation,
)
from .mle import fit, select_order
from .power import power_table
from .simulate import (
    GumbelCopula,
    Independent,
    Latent,
    SimConfig,
    empirical_count_distribution,
)

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit(ctx_obj, command: str, config: dict, result: dict,
          table: tuple | None = None):
    """Write one result document.

    ``table`` is (result key, column names, rows) rendered as the CSV
    body; other result entries become comment lines.  JSON always
    carries the full structure.
    """
    doc = {"command": command, "config": config, "result": result}
    if ctx_obj["format"] == "json":
        click.echo(json.dumps(doc, indent=2))
        return
    out = io.StringIO()
    out.write(f"# command={command}\n")
    for key, val in sorted(doc["config"].items()):
        out.write(f"# config.{key}={_fmt(val)}\n")
    for key, val in doc["result"].items():
        if table is not None and key == table[0]:
            continue
        if isinstance(val, (list, dict)):
            out.write(f"# {key}={json.dumps(val)}\n")
        else:
            out.write(f"# {key}={_fmt(val)}\n")
    if table is not None:
        _, columns, rows = table
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    click.echo(out.getvalue(), nl=False)


def _parse_floats(ctx, param, value):
    if value is None:
        return None
    try:
        items = tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError as exc:
        raise click.BadParameter(f"expected comma-separated numbers: {exc}")
    if not items:
        raise click.BadParameter("expected at least one number")
    return items


def _parse_ints(ctx, param, value):
    floats = _parse_floats(ctx, param, value)
    if not all(v.is_integer() for v in floats):
        raise click.BadParameter(f"expected integers, got {value}")
    return tuple(int(v) for v in floats)


_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none", "."}


def _is_header_token(token: str) -> bool:
    if token.lower() in _MISSING_TOKENS:
        return False
    try:
        float(token)
        return False
    except ValueError:
        return True


def _raise_first_fault(path: str, tokens, lines) -> None:
    """Raise the error of the first token, in file order, that is neither
    missing nor a number in [0, 1] (NaN counts as missing)."""
    for token, lineno in zip(tokens, lines):
        if token.lower() in _MISSING_TOKENS:
            continue
        try:
            val = float(token)
        except ValueError:
            raise InputError(f"{path} line {lineno}: {token!r} is not a number")
        if not (val != val or 0.0 <= val <= 1.0):
            raise InputError(
                f"{path} line {lineno}: p-value {val!r} outside [0, 1]"
            )


def read_pvalues(path: str, column: str | None = None,
                 delimiter: str | None = None):
    """Parse a p-value file.

    Plain format: one value per line.  Delimited format (when --column
    is given): the named or 0-based-indexed column of each row; the
    first data row may be a header, detected automatically.  Blank and
    # lines are ignored and a UTF-8 byte-order mark is accepted.
    Missing entries (a ``_MISSING_TOKENS`` spelling in any case, or NaN)
    are skipped and counted; anything else non-numeric or outside [0, 1]
    is an error naming its line.  Returns (values array, source line
    numbers, skipped count).

    One numpy call converts every token as ``float`` would.  Only if it
    fails are the missing spellings read as NaN and the tokens converted
    again; only if that fails too, or a value lies outside [0, 1], are
    the tokens walked in file order for the first line at fault.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        col_index = None if column is None else int(column)
    except ValueError:
        col_index = None
    if col_index is not None and col_index < 0:
        raise InputError(f"column index must be >= 0, got {column}")
    stripped = [raw.strip() for raw in text.splitlines()]
    lines = [n for n, line in enumerate(stripped, 1) if line and line[0] != "#"]
    tokens = [stripped[n - 1] for n in lines]
    short = None  # a column-count error, raised after any earlier fault
    if column is not None and tokens:
        rows = [line.split(delimiter or ",") for line in tokens]
        first = [c.strip() for c in rows[0]]
        if col_index is None:
            # the first data line is the header in name mode
            if column not in first:
                raise InputError(
                    f"{path}: header line {lines[0]} has no column "
                    f"named {column!r} (columns: {first})"
                )
            col_index = first.index(column)
            start = 1
        else:
            # only the first data line may be a header in index mode
            start = int(col_index < len(first)
                        and _is_header_token(first[col_index]))
        end = next((i for i in range(start, len(rows))
                    if len(rows[i]) <= col_index), len(rows))
        if end < len(rows):
            short = (f"{path} line {lines[end]}: only {len(rows[end])} "
                     f"columns, column {col_index} requested")
        lines = lines[start:end]
        tokens = [row[col_index].strip() for row in rows[start:end]]
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        # a missing spelling reads as NaN, which counts as missing too
        try:
            values = np.array(["nan" if t.lower() in _MISSING_TOKENS else t
                               for t in tokens], dtype=float)
        except ValueError:
            _raise_first_fault(path, tokens, lines)
            raise  # numpy rejected a token that float accepts
    nan = np.isnan(values)
    if not ((values >= 0.0) & (values <= 1.0) | nan).all():
        _raise_first_fault(path, tokens, lines)
    if short is not None:
        raise InputError(short)
    if nan.any():
        values = values[~nan]
        lines = [n for n, missing in zip(lines, nan) if not missing]
    if not values.size:
        raise InputError(f"{path}: no usable p-values found")
    return values, lines, len(tokens) - values.size


def _reject_zeros(values, lines, path):
    zero = np.nonzero(values == 0.0)[0]
    if zero.size:
        raise InputError(
            f"{path} line {lines[int(zero[0])]}: p-value is exactly 0, "
            "outside the fit domain (0, 1]; floor such values explicitly "
            "(e.g. at the machine minimum) before fitting"
        )


def _resolve_theta(theta, uniform_) -> ThetaParams:
    if theta is not None and uniform_:
        raise InputError("--theta and --uniform are mutually exclusive")
    if theta is None and not uniform_:
        raise InputError("one of --theta or --uniform is required")
    return ThetaParams.uniform() if uniform_ else ThetaParams(len(theta), theta)


_OPTIONS = {
    "n": click.option("--n", required=True, type=int,
                      help="Number of tests."),
    "alpha": click.option("--alpha", required=True, type=float,
                          help="FDR level."),
    "theta": click.option("--theta", callback=_parse_floats, default=None,
                          help="Comma-separated coefficients theta_1..theta_I."),
    "uniform": click.option("--uniform", "uniform_", is_flag=True,
                            help="Uniform marginal (order 0)."),
    "tail_tol": click.option("--tail-tol", default=1e-9, show_default=True,
                             type=float,
                             help="Mass allowed beyond the truncation point."),
    "column": click.option("--column", default=None,
                           help="Column name or 0-based index for delimited files."),
    "delimiter": click.option("--delimiter", default=None,
                              help="Field delimiter for delimited files [default: ,]."),
}


def _options(*names):
    """Apply the named ``_OPTIONS`` entries, first name listed first."""
    def deco(f):
        for name in reversed(names):
            f = _OPTIONS[name](f)
        return f

    return deco


class _Main(click.Group):
    """The command group.  A package error raised by a command prints its
    message and exits with the error's code; ``sys.exit`` raises
    SystemExit, so in-process callers see the code as well."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FdrDistError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)


@click.group(cls=_Main)
@click.option("--json", "fmt", flag_value="json", default=True,
              help="JSON output (default).")
@click.option("--csv", "fmt", flag_value="csv", help="CSV output.")
@click.option("--seed", default=0, show_default=True, type=int,
              help="Seed for the simulate command's random draws.")
@click.pass_context
def main(ctx, fmt, seed):
    """Distributions of multiple-testing discovery counts: exact pmfs,
    p-value density fitting, dependence models, power planning, and
    Monte Carlo checks."""
    ctx.ensure_object(dict)
    ctx.obj.update(format=fmt, seed=int(seed))


def _emit_pmf(obj, command: str, config: dict, dist, head: dict, tail: dict,
              columns: dict):
    """Write the document of one count distribution.

    The result holds ``head``, the distribution's summary, ``tail``, the
    pmf and, for a quadrature law, its disagreement.  The CSV body is the
    k, pmf table with ``columns`` (name: one value per k) appended.
    """
    result = {
        **head,
        "mean": dist.mean(),
        "sd": dist.sd(),
        "pr_zero": dist.prob(0),
        "k_max": dist.k_max,
        "tail_mass": dist.tail_mass,
        "mean_error_bound": dist.mean_error_bound(),
        **tail,
        "pmf": list(dist.pmf),
    }
    if dist.quadrature_disagreement is not None:
        result["quadrature_disagreement"] = dist.quadrature_disagreement
    rows = [(k, p, *(col[k] for col in columns.values()))
            for k, p in enumerate(dist.pmf)]
    _emit(obj, command, config, result, ("pmf", ("k", "pmf", *columns), rows))


@main.command("fit")
@click.argument("file", type=click.Path())
@click.option("--order", default=None, type=int,
              help="Fit this fixed order instead of selecting one.")
@click.option("--max-order", default=6, show_default=True, type=int,
              help="Largest order tried by the selection sweep.")
@_options("column", "delimiter")
@click.pass_obj
def fit_cmd(obj, file, order, max_order, column, delimiter):
    """Maximum-likelihood fit of the p-value density family to FILE."""
    values, lines, skipped = read_pvalues(file, column, delimiter)
    _reject_zeros(values, lines, file)
    if order is not None:
        result = fit(values, order)
    else:
        result = select_order(values, max_order)
    trace = [
        {"order": f.order, "loglik": f.loglik,
         "theta_hat": list(f.theta_hat.coeffs)}
        for f in (result.trace or (result,))
    ]
    for i in range(1, len(trace)):
        trace[i]["two_delta"] = 2.0 * (trace[i]["loglik"] - trace[i - 1]["loglik"])
    config = {
        "file": file, "order": order, "max_order": max_order,
        "column": column, "delimiter": delimiter, "skipped_rows": skipped,
    }
    result_doc = {
        "selected_order": result.order,
        "theta_hat": list(result.theta_hat.coeffs),
        "theta0_hat": result.theta_hat.theta0,
        "pi0_hat": result.pi0_hat,
        "std_errs": None if result.std_errs is None else list(result.std_errs),
        "boundary_flags": list(result.boundary_flags),
        "loglik": result.loglik,
        "n_obs": result.n_obs,
        "converged": result.converged,
        "iterations": result.iterations,
        "trace": trace,
    }
    rows = [
        (i + 1, c,
         "" if result.std_errs is None else result.std_errs[i],
         int(result.boundary_flags[i]))
        for i, c in enumerate(result.theta_hat.coeffs)
    ]
    _emit(obj, "fit", config, result_doc,
          ("theta_hat", ("index", "theta_hat", "std_err", "boundary"), rows))


@main.command("bh-dist")
@_options("n", "alpha", "theta", "uniform", "tail_tol")
@click.option("--k-max", default=None, type=int,
              help="Force the pmf out to this k regardless of tail mass.")
@click.pass_obj
def bh_dist_cmd(obj, n, alpha, theta, uniform_, tail_tol, k_max):
    """Exact distribution of the step-down discovery count."""
    marginal = _resolve_theta(theta, uniform_)
    setup = TestingSetup(n, alpha, marginal)
    dist = bh_pmf(setup, tail_tol, k_max)
    approx = normal_approx(setup)
    bt_param = borel_limit_param(marginal, alpha)
    bt = [borel_tanner_pmf(bt_param, k) for k in range(dist.k_max + 1)]
    config = {
        "n": n, "alpha": alpha, "theta": list(marginal.coeffs),
        "tail_tol": tail_tol, "k_max_forced": k_max,
    }
    tail = {
        "normal_mu": approx.mu,
        "normal_sigma": approx.sigma,
        "borel_param": bt_param,
    }
    _emit_pmf(obj, "bh-dist", config, dist, {}, tail, {"borel_tanner_pmf": bt})


@main.command("bonf-dist")
@_options("n", "alpha", "theta", "uniform")
@click.option("--gamma", default=None, type=float,
              help="Gumbel copula parameter (>= 1); omit for independence.")
@click.option("--poisson", "poisson_", is_flag=True,
              help="Use the large-n Poisson limit instead of the binomial.")
@_options("tail_tol")
@click.pass_obj
def bonf_dist_cmd(obj, n, alpha, theta, uniform_, gamma, poisson_, tail_tol):
    """Distribution of the Bonferroni count (binomial, Poisson limit,
    or Gumbel-copula dependent)."""
    marginal = _resolve_theta(theta, uniform_)
    setup = TestingSetup(n, alpha, marginal)
    if gamma is not None and poisson_:
        raise InputError("--gamma and --poisson are mutually exclusive")
    if gamma is not None:
        dist = bonferroni_pmf_copula(setup, gamma, tail_tol)
        model = "gumbel-copula"
    elif poisson_:
        dist = bonferroni_poisson(setup, tail_tol)
        model = "poisson"
    else:
        dist = bonferroni_pmf(setup, tail_tol)
        model = "binomial"
    config = {
        "n": n, "alpha": alpha, "theta": list(marginal.coeffs),
        "gamma": gamma, "poisson": poisson_, "tail_tol": tail_tol,
    }
    head = {"model": model, "p_star": cdf(alpha / n, marginal)}
    _emit_pmf(obj, "bonf-dist", config, dist, head, {}, {})


@main.command("count")
@click.argument("file", type=click.Path())
@_options("alpha", "column", "delimiter")
@click.pass_obj
def count_cmd(obj, file, alpha, column, delimiter):
    """Observed discovery counts for the p-values in FILE."""
    values, _, skipped = read_pvalues(file, column, delimiter)
    config = {
        "file": file, "alpha": alpha, "column": column,
        "delimiter": delimiter, "skipped_rows": skipped,
    }
    result = {
        "n": int(values.size),
        "bh": bh_count(values, alpha),
        "bh_step_up": bh_count_step_up(values, alpha),
        "bonferroni": bonferroni_count(values, alpha),
    }
    _emit(obj, "count", config, result)


@main.command("dependent")
@_options("n", "alpha")
@click.option("--theta", callback=_parse_floats, required=True,
              help="Comma-separated coefficients theta_1..theta_I.")
@click.option("--eps", callback=_parse_floats, default=None,
              help="Latent perturbation vector, same length as theta.")
@click.option("--z", default=None, type=float,
              help="Perturbation scale; eps = z * sigma.")
@click.option("--sigma", callback=_parse_floats, default=None,
              help="Base vector multiplied by --z.")
@_options("tail_tol")
@click.pass_obj
def dependent_cmd(obj, n, alpha, theta, eps, z, sigma, tail_tol):
    """Step-down count distribution under the latent fair-coin model."""
    marginal = ThetaParams(len(theta), theta)
    if eps is not None and (z is not None or sigma is not None):
        raise InputError("--eps and --z/--sigma are mutually exclusive")
    if eps is None and (z is None or sigma is None):
        raise InputError("supply either --eps or both --z and --sigma")
    flag, vector = ("--eps", eps) if sigma is None else ("--sigma", sigma)
    if len(vector) != len(theta):
        raise InputError(
            f"{flag} has length {len(vector)}, --theta has {len(theta)}"
        )
    if eps is None:
        eps = tuple(z * s for s in sigma)
    setup = TestingSetup(n, alpha, marginal)
    dist = latent_bh_pmf(setup, eps, tail_tol)
    config = {
        "n": n, "alpha": alpha, "theta": list(marginal.coeffs),
        "eps": list(eps), "z": z,
        "sigma": None if sigma is None else list(sigma),
        "tail_tol": tail_tol,
    }
    tail = {"correlation": latent_pvalue_correlation(marginal, eps)}
    _emit_pmf(obj, "dependent", config, dist, {}, tail, {})


@main.command("power")
@click.option("--theta", callback=_parse_floats, required=True,
              help="Pilot-fitted coefficients theta_1..theta_I.")
@click.option("--pilot-n", required=True, type=int,
              help="Subject sample size of the pilot study.")
@click.option("--n-tests", required=True, type=int,
              help="Number of hypotheses in the planned study.")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--n-list", callback=_parse_ints, required=True,
              help="Comma-separated subject sample sizes to evaluate.")
@click.option("--z-list", callback=_parse_floats, required=True,
              help="Comma-separated dependence levels (eps = z * theta(N)).")
@_options("tail_tol")
@click.pass_obj
def power_cmd(obj, theta, pilot_n, n_tests, alpha, n_list, z_list, tail_tol):
    """Power table over subject sample sizes and dependence levels."""
    pilot = ThetaParams(len(theta), theta)
    grid = power_table(pilot, pilot_n, n_tests, alpha, n_list, z_list,
                       tail_tol)
    config = {
        "theta": list(pilot.coeffs), "pilot_n": pilot_n,
        "n_tests": n_tests, "alpha": alpha,
        "n_list": list(n_list), "z_list": list(z_list),
        "tail_tol": tail_tol,
    }
    columns = ("N", "z", "correlation", "expected_bh", "prob_bh_positive",
               "expected_bh_error")
    rows = [
        (r.n_subjects, r.z, r.correlation, r.expected_bh,
         r.prob_bh_positive, r.expected_bh_error)
        for r in grid.rows
    ]
    result = {"rows": [dict(zip(columns, row)) for row in rows]}
    _emit(obj, "power", config, result, ("rows", columns, rows))


@main.command("simulate")
@_options("n", "alpha")
@click.option("--replicates", default=10000, show_default=True, type=int)
@_options("theta", "uniform")
@click.option("--gamma", default=None, type=float,
              help="Sample under a Gumbel copula with this parameter.")
@click.option("--eps", callback=_parse_floats, default=None,
              help="Sample under the latent model with this perturbation.")
@click.option("--rule", default="bh", show_default=True,
              type=click.Choice(["bh", "bonferroni"]))
@click.pass_obj
def simulate_cmd(obj, n, alpha, replicates, theta, uniform_, gamma, eps, rule):
    """Empirical count distribution from Monte Carlo replicates."""
    marginal = _resolve_theta(theta, uniform_)
    if gamma is not None and eps is not None:
        raise InputError("--gamma and --eps are mutually exclusive")
    if gamma is not None:
        dependence = GumbelCopula(gamma)
    elif eps is not None:
        dependence = Latent(eps)
    else:
        dependence = Independent()
    sim = SimConfig(
        n_tests=n, replicates=replicates, marginal=marginal,
        alpha=alpha, seed=obj["seed"], dependence=dependence,
    )
    emp = empirical_count_distribution(sim, rule)
    config = {
        "n": n, "alpha": alpha, "replicates": replicates,
        "theta": list(marginal.coeffs), "gamma": gamma,
        "eps": None if eps is None else list(eps),
        "rule": rule, "seed": obj["seed"],
    }
    result = {
        "mean": emp.mean(),
        "sd": emp.sd(),
        "pr_zero": emp.prob(0),
        "k_max": emp.k_max,
        "replicates": emp.replicates,
        "pmf": list(emp.pmf),
        "std_errs": list(emp.std_errs),
    }
    rows = [
        (k, emp.pmf[k], emp.std_errs[k]) for k in range(emp.k_max + 1)
    ]
    _emit(obj, "simulate", config, result,
          ("pmf", ("k", "pmf", "std_err"), rows))


if __name__ == "__main__":
    main()
