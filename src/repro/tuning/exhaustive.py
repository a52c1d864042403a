"""Tree-aware exhaustive tuning.

The paper notes (§4.2) that the stochastic tuner can take long to find the
optimum and suggests "us[ing] the structure of the branching tree to avoid
redundant parameter settings entirely".  This module implements that idea.
For each threshold the only decision boundaries are the distinct values its
``Par`` expression takes across the training datasets, so the candidate set
per threshold is tiny ({always-true} ∪ {just-above-each-par-value}).

The candidate product is never enumerated.  Instead the search walks each
dataset's precompiled decision tree (:meth:`SignatureEngine.decision_tree`)
in turn, depth first, carrying for every threshold the candidates still
allowed.  At each guard the allowed candidates split into those that take
the guard and those that do not (``par >= value and not blocked``, the rule
of :meth:`SignatureEngine.signature`), and the walk follows each non-empty
part.  Each leaf is one distinct joint path signature over all datasets, and
its configurations form a product of per-threshold candidate ranges; one
representative per leaf is measured.  The cost therefore scales with the
number of distinct joint paths, not with the candidate product.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Mapping, Sequence

from repro.compiler import CompiledProgram
from repro.gpu.device import DeviceSpec
from repro.interp.evaluator import DEFAULT_THRESHOLD
from repro.tuning.tuner import Autotuner, CostFn, TuningResult, sum_cost

__all__ = ["exhaustive_tune", "candidate_values"]


def candidate_values(
    compiled: CompiledProgram, datasets: Sequence[Mapping[str, int]]
) -> dict[str, list[int]]:
    """Decision-boundary candidates per threshold, in ascending order.

    Setting a threshold to 1 makes its guard always true on these datasets;
    setting it just above a Par value flips the decision for the datasets
    at or below that value.
    """
    out: dict[str, list[int]] = {}
    for th in compiled.registry.items:
        pars = sorted({th.par.eval(dict(d)) for d in datasets})
        # boundaries *between* training datasets discriminate them; placing
        # each at the geometric midpoint of adjacent Par values (rather than
        # at par+1) makes the decision robust on unseen datasets of similar
        # shape — the paper trains on different datasets than it evaluates
        mids = [
            max(2, int(round((a * b) ** 0.5)))
            for a, b in zip(pars, pars[1:])
        ]
        cands = [1] + mids + [2**30]
        out[th.name] = sorted(set(cands))
    return out


def _path_classes(
    trees: Sequence[list[tuple]], cands: Mapping[str, list[int]]
) -> Iterator[tuple[int, ...]]:
    """Yield, once per distinct joint path signature over ``trees``, the
    candidate indices of its product-order-first configuration.

    Candidates ascend, so a guard is taken for a prefix of them: the
    indices still allowed for a threshold always form one range
    ``[lo, hi)``, and a class's first configuration takes every ``lo``.
    """
    bounds = {name: (0, len(c)) for name, c in cands.items()}

    def walk(nodes: list[tuple], i: int, rest) -> Iterator[tuple[int, ...]]:
        # ``rest`` links the node lists still to visit after this one:
        # enclosing siblings first, then the trees of later datasets
        while True:
            if i == len(nodes):
                if rest is None:
                    yield tuple(lo for lo, _ in bounds.values())
                    return
                nodes, i, rest = rest
                continue
            name, par, blocked, then_nodes, else_nodes = nodes[i]
            after = (nodes, i + 1, rest)
            if name not in cands:
                taken = par >= DEFAULT_THRESHOLD and not blocked
                nodes, i, rest = (then_nodes if taken else else_nodes), 0, after
                continue
            lo, hi = bounds[name]
            cut = lo if blocked else min(max(bisect_right(cands[name], par), lo), hi)
            if cut == lo or cut == hi:
                nodes, i, rest = (then_nodes if cut == hi else else_nodes), 0, after
                continue
            bounds[name] = (lo, cut)
            yield from walk(then_nodes, 0, after)
            bounds[name] = (cut, hi)
            yield from walk(else_nodes, 0, after)
            bounds[name] = (lo, hi)
            return

    rest = None
    for tree in reversed(trees):
        rest = (tree, 0, rest)
    yield from walk([], 0, rest)


def exhaustive_tune(
    compiled: CompiledProgram,
    datasets: Sequence[Mapping[str, int]],
    device: DeviceSpec,
    cost_fn: CostFn = sum_cost,
    max_configs: int = 200_000,
) -> TuningResult:
    """Measure one configuration per behaviourally distinct assignment.

    The result equals that of walking the whole candidate product in
    ``itertools.product`` order and measuring each configuration whose
    joint path signature is new: representatives are measured in product
    order, ``proposals`` is the product's size, and each ``history`` entry
    carries its representative's 1-based position in the product.
    """
    tuner = Autotuner(compiled, datasets, device, cost_fn=cost_fn)
    cands = candidate_values(compiled, datasets)
    names = list(cands)
    total = 1
    for name in names:
        total *= len(cands[name])
    if total > max_configs:
        raise ValueError(
            f"{total} candidate configurations exceed the cap {max_configs}; "
            f"use the stochastic tuner instead"
        )

    best_cfg: dict[str, int] | None = None
    best_cost = float("inf")
    history: list[tuple[int, float]] = []
    full_history: list[tuple[dict[str, int], float]] = []
    trees = [engine.decision_tree() for engine in tuner.engines]
    for idx in sorted(_path_classes(trees, cands)):
        cfg = {n: cands[n][j] for n, j in zip(names, idx)}
        cost = tuner.measure(cfg)
        full_history.append((dict(cfg), cost))
        if cost < best_cost:
            best_cfg, best_cost = cfg, cost
            pos = 0  # mixed-radix position of ``idx`` in the product
            for n, j in zip(names, idx):
                pos = pos * len(cands[n]) + j
            history.append((pos + 1, cost))

    assert best_cfg is not None
    return TuningResult(
        best_thresholds=best_cfg,
        best_cost=best_cost,
        proposals=total,
        simulations=tuner.simulations,
        cache_hits=tuner.cache_hits,
        history=history,
        full_history=full_history,
    )
