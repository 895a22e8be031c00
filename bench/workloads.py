"""The four workloads: which CLI commands each one runs, at which size,
and which check each result must pass.

A workload is a fixed list of commands run one after another through
``fdrdist.cli.main``.  Every command carries a ``check`` name that
``checks.py`` resolves against its parsed JSON document.  The ``tiny``
size of each workload keeps the same command shapes at small n so the
benchmark can check itself in seconds.  Input files are written by
``write_inputs`` before the workload process starts; ``build`` only
names them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("case-studies", "power-grid", "monte-carlo", "pilot-fit")
SIZES = ("full", "tiny")

BC = (0.158, 0.0492, 0.0201)          # breast-cancer fit, n = 3226
SIG_BC = (0.084, 0.0506, 0.0075)      # its reported standard errors
TCGA = (0.100, 0.0761, 0.000493, 0.00195)
HUANG = (0.0524, 0.00983, 0.00327)    # pilot fit, 78 subjects
EPS_HALF = (0.042, 0.0253, 0.00375)   # 0.5 * SIG_BC
ALPHA = "0.05"


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


@dataclass(frozen=True)
class Command:
    label: str          # e.g. "bh-dist.tcga"; pilot-fit labels end in ".f<i>"
    args: tuple         # argv handed to fdrdist.cli.main
    check: str          # name of the check in checks.py
    ref: str = ""       # key of the reference entry, when the check uses one
    data: int = -1      # index of the generated p-value file, if any

    @property
    def base_label(self) -> str:
        """Label without the per-file suffix, used to sum over files."""
        head, _, tail = self.label.rpartition(".")
        return head if tail.startswith("f") and tail[1:].isdigit() else self.label


def _case_studies(size: str) -> list:
    n_bc, n_tcga = ("3226", "20068") if size == "full" else ("300", "1000")
    bc = ("--n", n_bc, "--alpha", ALPHA, "--theta", _csv(BC))
    cmds = [
        Command("bh-dist.bc", ("bh-dist",) + bc, "bh_dist", "bh-dist.bc"),
        Command("bh-dist.tcga",
                ("bh-dist", "--n", n_tcga, "--alpha", ALPHA, "--theta", _csv(TCGA)),
                "bh_dist", "bh-dist.tcga"),
    ]
    for z in ("0.25", "0.5", "0.75"):
        cmds.append(Command(
            f"dependent.z{z}",
            ("dependent",) + bc + ("--z", z, "--sigma", _csv(SIG_BC)),
            "dependent", f"dependent.z{z}"))
    cmds += [
        Command("bonf-dist.gamma", ("bonf-dist",) + bc + ("--gamma", "1.05"),
                "bonf_copula", "bonf-dist.gamma"),
        Command("bonf-dist.binomial", ("bonf-dist",) + bc, "bonf_binomial"),
        Command("bonf-dist.poisson", ("bonf-dist",) + bc + ("--poisson",),
                "bonf_poisson"),
    ]
    return cmds


def _power_grid(size: str) -> list:
    if size == "full":
        grid = ("--n-tests", "48803", "--n-list", "78,300,450,600",
                "--z-list", "0,0.4,0.8")
    else:
        grid = ("--n-tests", "2000", "--n-list", "78,300", "--z-list", "0,0.4")
    return [Command("power.grid",
                    ("power", "--theta", _csv(HUANG), "--pilot-n", "78") + grid,
                    "power", "power.grid")]


def _monte_carlo(size: str, seed: int) -> list:
    reps_uniform, reps = ("100000", "20000") if size == "full" else ("10000", "2000")
    head = ("--seed", str(seed), "simulate", "--n", "200", "--alpha", ALPHA)
    bc = ("--theta", _csv(BC))
    return [
        Command("simulate.uniform", head + ("--uniform", "--replicates", reps_uniform),
                "simulate", "exact.uniform"),
        Command("simulate.fitted", head + bc + ("--replicates", reps),
                "simulate", "exact.fitted"),
        Command("simulate.latent",
                head + bc + ("--eps", _csv(EPS_HALF), "--replicates", reps),
                "simulate", "exact.latent"),
        Command("simulate.copula",
                head + bc + ("--gamma", "1.3", "--rule", "bonferroni",
                             "--replicates", reps),
                "simulate", "exact.copula"),
    ]


# 12 files, not the 8 of the original sizing: which files' order
# selection stops at order 3 or goes on to 5 varies with the seed, and
# over 40 seeds the Nelder-Mead work of 8 files spread by 10 %
# (quartile distance over median); 12 cut its variance by a third
# while keeping a run short enough for the benchmark's time budget.
PILOT_FILES = {"full": (12, 3226), "tiny": (2, 600)}


def _pilot_paths(size: str, workdir: str) -> list:
    return [os.path.join(workdir, f"pilot_{i}.txt") for i in range(PILOT_FILES[size][0])]


def _pilot_fit(size: str, workdir: str) -> list:
    cmds = []
    for i, path in enumerate(_pilot_paths(size, workdir)):
        cmds += [
            Command(f"fit.select.f{i}", ("fit", path, "--max-order", "6"),
                    "fit_select", data=i),
            Command(f"fit.order3.f{i}", ("fit", path, "--order", "3"),
                    "fit_order3", data=i),
            Command(f"count.f{i}", ("count", path, "--alpha", ALPHA),
                    "count", data=i),
        ]
    return cmds


def breast_cancer_pvalues(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n p-values from the breast-cancer marginal.

    The density is a mixture over i = 0..3 of laws whose -log p is
    Gamma(i + 1), with weights (theta_0, 1! theta_1, 2! theta_2,
    3! theta_3).  This uses only numpy, not the package's samplers.
    """
    weights = [1.0 - sum(math.factorial(i) * c for i, c in enumerate(BC, 1))]
    weights += [math.factorial(i) * c for i, c in enumerate(BC, 1)]
    shape = rng.choice(len(weights), size=n, p=weights) + 1.0
    return np.exp(-rng.gamma(shape))


def write_inputs(name: str, size: str, seed: int, workdir: str) -> list:
    """Write the workload's input files, drawn from the seed, into
    workdir; returns their p-values (only pilot-fit has any)."""
    if name != "pilot-fit":
        return []
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = []
    for path in _pilot_paths(size, workdir):
        values = breast_cancer_pvalues(rng, PILOT_FILES[size][1])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join("%.17g\n" % v for v in values))
        arrays.append(values)
    return arrays


def build(name: str, size: str, seed: int, workdir: str) -> list:
    """Commands of one workload; pilot-fit reads its files from workdir."""
    if name == "case-studies":
        return _case_studies(size)
    if name == "power-grid":
        return _power_grid(size)
    if name == "monte-carlo":
        return _monte_carlo(size, seed)
    if name == "pilot-fit":
        return _pilot_fit(size, workdir)
    raise ValueError(f"unknown workload {name!r}")
