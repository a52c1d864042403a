"""The tree-directed exhaustive tuner against a brute-force oracle.

:func:`exhaustive_tune` walks the branching tree and measures one
configuration per distinct joint path signature.  The oracle below is the
walk it replaced: every configuration of the candidate product in
``itertools.product`` order, de-duplicated by joint signature.  Every
``TuningResult`` field must agree, on the sweeps of Figs. 2, 7 and 8, on
generated programs and on edge cases.
"""

import dataclasses
import itertools
import random

import pytest

from repro.bench import runner
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.check.genprog import build_program, random_recipe, recipe_datasets
from repro.compiler import compile_program
from repro.flatten.versions import ThresholdRegistry
from repro.gpu import K40, VEGA64
from repro.interp.evaluator import DEFAULT_THRESHOLD
from repro.tuning import (
    Autotuner,
    TuningResult,
    candidate_values,
    exhaustive_tune,
    path_signature,
)

DEVICES = pytest.mark.parametrize("device", [K40, VEGA64], ids=lambda d: d.name)


def product_tune(compiled, datasets, device, max_configs=200_000):
    """Brute-force oracle: the whole candidate product, de-duplicated by
    joint path signature before measuring."""
    tuner = Autotuner(compiled, datasets, device)
    cands = candidate_values(compiled, datasets)
    names = list(cands)
    total = 1
    for name in names:
        total *= len(cands[name])
    assert total <= max_configs

    best_cfg = None
    best_cost = float("inf")
    proposals = 0
    seen = set()
    history = []
    full_history = []
    for combo in itertools.product(*(cands[n] for n in names)):
        cfg = dict(zip(names, combo))
        proposals += 1
        joint = tuple(
            tuner._signature(i, cfg) for i in range(len(tuner.datasets))
        )
        if joint in seen:
            continue
        seen.add(joint)
        cost = tuner.measure(cfg)
        full_history.append((dict(cfg), cost))
        if cost < best_cost:
            best_cfg, best_cost = cfg, cost
            history.append((proposals, cost))

    assert best_cfg is not None
    return TuningResult(
        best_thresholds=best_cfg,
        best_cost=best_cost,
        proposals=proposals,
        simulations=tuner.simulations,
        cache_hits=tuner.cache_hits,
        history=history,
        full_history=full_history,
    )


def assert_matches_oracle(compiled, datasets, device, max_configs=200_000):
    got = exhaustive_tune(compiled, datasets, device, max_configs=max_configs)
    want = product_tune(compiled, datasets, device, max_configs=max_configs)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


@pytest.fixture(scope="module")
def train20():
    return [matmul_sizes(e, 20) for e in range(11)]


@pytest.fixture
def record_sweep(monkeypatch):
    """Run a figure's row function, recording each of its tuner calls."""
    calls = []

    def recording(compiled, datasets, device, max_configs=200_000):
        calls.append((compiled, datasets, device, max_configs))
        return exhaustive_tune(compiled, datasets, device, max_configs=max_configs)

    monkeypatch.setattr(runner, "exhaustive_tune", recording)

    def run(rows_fn, **kwargs):
        rows_fn(**kwargs)
        return calls

    return run


class TestSweepsMatchOracle:
    @DEVICES
    def test_fig2_matmul(self, record_sweep, device):
        (call,) = record_sweep(runner.fig2_rows, device=device)
        assert_matches_oracle(*call)

    @DEVICES
    def test_fig7_locvolcalib(self, record_sweep, device):
        (call,) = record_sweep(runner.fig7_rows, devices=(device,))
        datasets = [locvolcalib_sizes(n) for n in ("small", "medium", "large")]
        assert call[1] == datasets
        res = assert_matches_oracle(*call)
        # many configurations, few distinct joint paths
        assert len(res.full_history) * 10 < res.proposals

    @DEVICES
    @pytest.mark.parametrize("name", list(runner.BULK_BENCHMARKS))
    def test_fig8_bulk(self, record_sweep, name, device):
        (call,) = record_sweep(
            runner.fig8_rows, devices=(device,), benchmarks=(name,)
        )
        assert_matches_oracle(*call)


# seeds whose programs have several thresholds and simulate (some generated
# programs have value-dependent loop bounds the cost model cannot derive)
@pytest.mark.parametrize("seed", [0, 1, 15, 17, 18, 25])
def test_generated_programs(seed):
    recipe = random_recipe(random.Random(seed), max_depth=3)
    cp = compile_program(build_program(recipe), "incremental")
    datasets = [*recipe_datasets(recipe), {"n": 3, "m": 5000}, {"n": 900, "m": 2}]
    assert_matches_oracle(cp, datasets, K40)


class TestEdgeCases:
    def test_no_datasets_measures_first_candidates(self, matmul_if):
        res = assert_matches_oracle(matmul_if, [], K40)
        cands = candidate_values(matmul_if, [])
        assert res.full_history == [({n: c[0] for n, c in cands.items()}, 0.0)]
        assert res.proposals == 2 ** len(cands)

    def test_no_thresholds(self, train20):
        cp = compile_program(matmul_program(), "moderate")
        assert len(cp.registry) == 0
        res = assert_matches_oracle(cp, train20, K40)
        assert res.best_thresholds == {}
        assert res.proposals == 1 and len(res.full_history) == 1

    def test_guard_missing_from_candidates_uses_default(self, matmul_if, train20):
        dropped = matmul_if.registry.items[0]
        registry = ThresholdRegistry()
        registry.items = matmul_if.registry.items[1:]
        cp = dataclasses.replace(matmul_if, registry=registry)
        assert dropped.name not in candidate_values(cp, train20)
        res = assert_matches_oracle(cp, train20, K40)
        assert dropped.name not in res.best_thresholds
        # the guard is reached, and the datasets fall on both sides of the
        # default, so the fallback decides different paths
        reached = [
            s for s in train20
            if any(
                n == dropped.name
                for n, _ in path_signature(
                    cp.body, s, res.best_thresholds, device=K40
                )
            )
        ]
        pars = {dropped.par.eval(s) >= DEFAULT_THRESHOLD for s in reached}
        assert pars == {True, False}

    def test_no_cache_matches(self, monkeypatch, matmul_if, train20):
        cached = exhaustive_tune(matmul_if, train20, K40)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        res = assert_matches_oracle(matmul_if, train20, K40)
        assert res.cache_hits == 0
        assert res.simulations == len(res.full_history) * len(train20)
        assert res.best_thresholds == cached.best_thresholds
        assert res.history == cached.history
        assert res.full_history == cached.full_history

    def test_no_cache_locvolcalib(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cp = compile_program(locvolcalib_program(), "incremental")
        datasets = [locvolcalib_sizes(n) for n in ("small", "medium", "large")]
        assert_matches_oracle(cp, datasets, VEGA64, max_configs=10**6)

    def test_cap_checked_before_any_work(self, monkeypatch, matmul_if, train20):
        def boom(*a, **k):
            raise AssertionError("measured despite the cap")

        monkeypatch.setattr(Autotuner, "measure", boom)
        with pytest.raises(ValueError, match="exceed the cap 2"):
            exhaustive_tune(matmul_if, train20, K40, max_configs=2)
