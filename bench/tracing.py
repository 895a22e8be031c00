"""Spans recorded from outside the package, and the per-layer metrics
computed from them.

In a traced process the benchmark rebinds the public names one fdrdist
module imports from another (``fdrdist.cli.bh_pmf``,
``fdrdist.power.latent_bh_pmf``, ...) to wrappers that open a span
around each call.  No source file is edited.  Spans stay in memory; the
metrics below are computed once, when the workload has finished.  A
name that is missing from its module is listed, and every metric built
from it is reported as missing (None), never as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

# (module that looks the name up, name, span name = defining layer.function)
REBIND = (
    ("fdrdist.cli", "read_pvalues", "cli.read_pvalues"),
    ("fdrdist.cli", "bh_pmf", "count_dist.bh_pmf"),
    ("fdrdist.dependence", "bh_pmf", "count_dist.bh_pmf"),
    ("fdrdist.cli", "normal_approx", "count_dist.normal_approx"),
    ("fdrdist.cli", "bonferroni_pmf", "count_dist.bonferroni_pmf"),
    ("fdrdist.cli", "bonferroni_poisson", "count_dist.bonferroni_poisson"),
    ("fdrdist.cli", "bh_count", "count_dist.bh_count"),
    ("fdrdist.cli", "bh_count_step_up", "count_dist.bh_count_step_up"),
    ("fdrdist.cli", "bonferroni_count", "count_dist.bonferroni_count"),
    ("fdrdist.cli", "bonferroni_pmf_copula", "dependence.bonferroni_pmf_copula"),
    ("fdrdist.cli", "latent_bh_pmf", "dependence.latent_bh_pmf"),
    ("fdrdist.power", "latent_bh_pmf", "dependence.latent_bh_pmf"),
    ("fdrdist.cli", "power_table", "power.power_table"),
    ("fdrdist.cli", "select_order", "mle.select_order"),
    ("fdrdist.cli", "fit", "mle.fit"),
    ("fdrdist.mle", "fit", "mle.fit"),
    ("fdrdist.cli", "empirical_count_distribution",
     "simulate.empirical_count_distribution"),
)

LAYERS = ("count_dist", "dependence", "power", "mle", "simulate")


class Tracer:
    """Flat list of spans; each names its parent by index (-1: none)."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.missing = set()       # span names whose rebinding failed

    def begin(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._open[-1] if self._open else -1}
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def end(self, span: dict):
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            for attr in ("precision_bits", "k_max", "iterations", "order",
                         "replicates"):
                value = getattr(result, attr, None)
                if isinstance(value, int):
                    span[attr] = value
            return result

        return traced

    def install(self):
        """Rebind every name in REBIND; one wrapper per original function."""
        wrappers = {}
        for module_name, attr, span_name in REBIND:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(span_name)
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, span_name)
            setattr(module, attr, wrappers[id(fn)])


# ------------------------------------------------------------ span algebra

def _duration(span) -> float:
    """Span time at the reference speed, set by the workload process
    from its speed meter (speed.py), with the kernel runs left out."""
    return span["dur"]


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids[s["parent"]].append(i)
    return kids


def self_times(spans) -> list:
    """Duration minus the part covered by direct children (children of
    one span never overlap: the program is single-threaded)."""
    kids = _children(spans)
    return [_duration(s) - sum(_duration(spans[c]) for c in kids[i])
            for i, s in enumerate(spans)]


class Metrics:
    """Collects (name -> value, unit); a value built from a span whose
    rebinding is missing becomes None."""

    def __init__(self, missing):
        self.values = {}
        self.missing = missing

    def put(self, name, value, unit, needs=()):
        if any(n in self.missing for n in needs):
            value = None
        self.values[name] = {"value": value, "unit": unit}

    def add(self, name, value, unit, needs=()):
        """Accumulate over calls (pilot-fit runs each command per file)."""
        prev = self.values.get(name, {"value": 0.0})["value"]
        self.put(name, None if prev is None else prev + value, unit, needs)


def span_metrics(spans, missing, commands, docs, wall_s):
    """(generic, detail): generic metrics exist on every workload and
    are the ones BENCHMARK.json lists; detail metrics are named after
    this workload's commands, grid cells and fit orders."""
    selfs = self_times(spans)
    kids = _children(spans)
    gen, det = Metrics(missing), Metrics(missing)
    every = {n for _, _, n in REBIND}
    top = [i for i, s in enumerate(spans) if s["parent"] < 0]

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(_duration(spans[i]) for i in named(name))

    bh = "count_dist.bh_pmf"
    in_power = [i for i in named(bh)
                if any(spans[j]["name"] == "power.power_table"
                       for j in _ancestors(spans, i))]
    sims = named("simulate.empirical_count_distribution")
    sim_s = sum(_duration(spans[i]) for i in sims)
    fits = [d["result"] for c, d in zip(commands, docs) if d and c.args[0] == "fit"]

    gen.put("cli.commands", len(top), "count")
    gen.put("cli.self_s", sum(selfs[i] for i in top), "s", needs=every)
    gen.put("cli.read_pvalues_s", total("cli.read_pvalues"), "s",
            needs=("cli.read_pvalues",))
    for layer in LAYERS:
        mine = {n for n in every if n.startswith(layer + ".")}
        gen.put(f"{layer}.busy_s",
                sum(selfs[i] for i, s in enumerate(spans) if s["name"] in mine),
                "s", needs=mine)
    gen.put("count_dist.bh_pmf_calls", len(named(bh)), "count", needs=(bh,))
    gen.put("count_dist.bits_max",
            max((spans[i].get("precision_bits", 0) for i in named(bh)), default=0),
            "bits", needs=(bh,))
    gen.put("count_dist.normal_approx_s", total("count_dist.normal_approx"), "s",
            needs=("count_dist.normal_approx",))
    gen.put("count_dist.bh_count_s", total("count_dist.bh_count"), "s",
            needs=("count_dist.bh_count",))
    gen.put("dependence.copula_s", total("dependence.bonferroni_pmf_copula"), "s",
            needs=("dependence.bonferroni_pmf_copula",))
    gen.put("power.bh_pmf_calls", len(in_power), "count",
            needs=(bh, "power.power_table"))
    gen.put("mle.fit_calls", len(named("mle.fit")), "count", needs=("mle.fit",))
    gen.put("mle.iterations",
            sum(spans[i].get("iterations", 0) for i in named("mle.fit")), "count",
            needs=("mle.fit",))
    gen.put("mle.orders_tried", sum(len(r["trace"]) for r in fits), "count")
    gen.put("simulate.rows_per_s",
            sum(spans[i].get("replicates", 0) for i in sims) / sim_s if sim_s else 0.0,
            "1/s", needs=("simulate.empirical_count_distribution",))
    gen.put("trace.coverage", sum(_duration(spans[i]) for i in top) / wall_s, "ratio")

    for i in top:
        label = spans[i]["label"]
        group, _, case = label.partition(".")
        det.add(f"cli.{label}_s", _duration(spans[i]), "s")
        for c in _descendants(kids, i):
            s, name = spans[c], spans[c]["name"]
            if group == "bh-dist" and name == bh:
                det.put(f"count_dist.bh_pmf_s.{case}", _duration(s), "s", needs=(bh,))
                det.put(f"count_dist.bits.{case}", s.get("precision_bits"), "bits",
                        needs=(bh,))
                det.put(f"count_dist.k_max.{case}", s.get("k_max"), "count", needs=(bh,))
            elif group == "dependent" and name == "dependence.latent_bh_pmf":
                det.put(f"dependence.latent_bh_pmf_s.{case}", _duration(s), "s",
                        needs=(name,))
                det.put(f"dependence.latent_bits.{case}", s.get("precision_bits"),
                        "bits", needs=(name,))
            elif name == "dependence.bonferroni_pmf_copula":
                det.put("dependence.copula_s", _duration(s), "s", needs=(name,))
                det.put("dependence.copula_bits", s.get("precision_bits"), "bits",
                        needs=(name,))
            elif name == "mle.select_order":
                det.add("mle.select_order_s", _duration(s), "s", needs=(name,))
            elif (name == "mle.fit" and s["parent"] >= 0
                  and spans[s["parent"]]["name"] == "mle.select_order"):
                det.add(f"mle.fit_s.order{s.get('order')}", _duration(s), "s",
                        needs=(name,))
            elif group == "simulate" and name == "simulate.empirical_count_distribution":
                det.put(f"simulate.rows_per_s.{case}",
                        s.get("replicates", 0) / _duration(s), "1/s", needs=(name,))
        if label == "power.grid":
            doc = docs[[c.label for c in commands].index("power.grid")]
            _power_cells(det, spans, kids, i, doc)
    return gen.values, det.values


def _ancestors(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
        yield i


def _descendants(kids, i):
    stack = list(kids[i])
    while stack:
        c = stack.pop()
        yield c
        stack.extend(kids[c])


def _power_cells(det, spans, kids, top_i, doc):
    """Grid cells in power_table's order: N outer, z inner."""
    if not doc:
        return
    cells = [(r["N"], r["z"]) for r in doc["result"]["rows"]]
    calls = [c for c in sorted(_descendants(kids, top_i))
             if spans[c]["name"] == "dependence.latent_bh_pmf"]
    for (n, z), c in zip(cells, calls):
        tag = f"N{n}_z{z:g}"
        det.put(f"power.cell_s.{tag}", _duration(spans[c]), "s",
                needs=("dependence.latent_bh_pmf",))
        det.put(f"power.cell_bits.{tag}", spans[c].get("precision_bits"), "bits",
                needs=("dependence.latent_bh_pmf",))


# ------------------------------------------------------------ direct probes

def _median_time(fn, repeats: int, meter) -> float:
    """Median time of fn() at the reference speed, each call bracketed
    by kernel runs of the running speed meter."""
    times = []
    for _ in range(repeats):
        meter.mark()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        meter.mark()
        times.append(meter.interval(t0, t1)[1])
    return statistics.median(times)


def probes(k_bc: int, k_tcga: int, meter) -> dict:
    """Sub-layers no command isolates, timed by direct calls at fixed
    sizes.  A missing public name yields None for its metrics."""
    from fdrdist import mle, psi_dist, simulate
    from workloads import BC, TCGA

    out = {}

    def put(name, needs, fn, unit="s"):
        value = None if any(n is None for n in needs) else fn()
        out[name] = {"value": value, "unit": unit}

    theta = getattr(psi_dist, "ThetaParams", None)
    cdf = getattr(psi_dist, "cdf", None)
    sim_cfg = getattr(simulate, "SimConfig", None)
    sample = getattr(simulate, "sample_pvalues", None)
    emp = getattr(simulate, "empirical_count_distribution", None)
    stable = getattr(simulate, "positive_stable", None)
    chunks = getattr(simulate, "_iter_pvalue_chunks", None)
    loglik = getattr(mle, "log_likelihood", None)

    def cdf_thresholds():
        cases = ((3226, theta(3, BC), k_bc), (20068, theta(4, TCGA), k_tcga))
        grids = [(np.arange(1, k + 1) * 0.05 / n, th) for n, th, k in cases]
        return _median_time(lambda: [cdf(p, th) for p, th in grids], 11, meter)

    def cfg(marginal):
        return sim_cfg(n_tests=200, replicates=10_000, marginal=marginal,
                       alpha=0.05, seed=1)

    def count_s():
        # empirical_count_distribution over p-values drawn beforehand, so
        # only its sort and count are timed: a difference of two timings
        # drowns that 5 % share in the sampler's noise and can read < 0
        drawn = list(chunks(cfg(theta.uniform())))
        simulate._iter_pvalue_chunks = lambda _config: iter(drawn)
        try:
            return _median_time(lambda: emp(cfg(theta.uniform()), "bh"), 5, meter)
        finally:
            simulate._iter_pvalue_chunks = chunks

    put("psi_dist.cdf_thresholds_s", (theta, cdf), cdf_thresholds)
    def uniform_s():
        return _median_time(lambda: sample(cfg(theta.uniform())), 3, meter)

    put("psi_dist.transform_s", (theta, sim_cfg, sample),
        lambda: _median_time(lambda: sample(cfg(theta(3, BC))), 3, meter) - uniform_s())
    put("simulate.rng_s", (theta, sim_cfg, sample), uniform_s)
    put("simulate.count_s", (theta, sim_cfg, emp, chunks), count_s)
    put("simulate.positive_stable_s", (stable,),
        lambda: _median_time(
            lambda: stable(1.3, np.random.default_rng(1), 100_000), 5, meter))
    rng = np.random.default_rng(2)
    pvals = np.exp(-rng.gamma(1.0, size=3226))
    put("mle.log_likelihood_s", (theta, loglik),
        lambda: _median_time(lambda: loglik(pvals, theta(3, BC)), 11, meter))
    return out
