"""Guarded execution: launch-wrapper overhead and breaker recovery.

Two legs, both against real compiled benchmarks under the codegen
engine:

**Overhead.**  Six Fig. 8 bulk programs (the ones whose bodies lower to
emitted kernels) run warm — compile cache and ``_CODE_CACHE`` populated,
lower rungs never built — as alternating guard-on / ``REPRO_GUARD=0``
suite passes.  A shared host steals time in bursts, so the estimator is
built for spiky, drifting noise: passes are timed in adjacent A/B pairs
whose within-pair order alternates (so monotone drift cancels instead of
always landing on one side), the collector is disabled across the timed
region exactly as ``timeit`` does, and the overhead estimate is the
*median of paired per-pass ratios*.  Pairs accumulate in rounds until a
bootstrap confidence interval of that median is tighter than the floor
margin (or a hard cap), so a noisy host buys more samples rather than a
flaky verdict.  The acceptance floor is on the aggregate ratio: guarded
wall time must stay within ``FLOOR`` of unguarded (2% on the full run).
Guard-on and guard-off results must be bit-identical, launch for launch.

**Recovery.**  A kernel ladder with an injected persistently-failing top
tier is driven through the full breaker cycle — closed → open (trip) →
quarantined skips → half_open probe → closed again once the tier heals —
and every launch's result stays bit-identical.  This asserts the state
machine *converges*: after recovery the healthy tier serves again with
zero demotions.

Results land in ``BENCH_guard.json`` at the repo root.  Runnable
standalone (``python benchmarks/bench_guard.py [--smoke]``) or under
pytest; ``REPRO_BENCH_SMOKE=1`` shrinks the suite/repeats and relaxes
the floor to ``FLOOR_SMOKE`` (CI timing jitter dominates at smoke
scale).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

import numpy as np  # noqa: E402

OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_guard.json"
)

FLOOR = 1.02  # guarded/unguarded aggregate wall-time ratio (full run)
FLOOR_SMOKE = 1.25
SEED = 0

#: Fig. 8 bulk programs that emit codegen kernels, with sizes scaled so
#: a warm run is a few to tens of milliseconds — large enough that the
#: measurement reflects kernel work (as the paper's datasets do), small
#: enough that the bench finishes in seconds
SUITE = {
    "Heston": dict(numQuotes=512, numCand=16, numInt=32),
    "Backprop": dict(numIn=512, numHidden=128),
    "LavaMD": dict(numBoxes=16, perBox=16, numNbr=16),
    "NN": dict(numB=128, numP=512),
    "SRAD": dict(numB=4, H=48, W=48),
    "Pathfinder": dict(numB=4, rows=16, cols=128),
}
SUITE_SMOKE = ("Heston", "SRAD")

#: adaptive sampling: pairs accumulate in rounds until the bootstrap CI
#: of the median paired ratio is tighter than ``TARGET_HW`` (half-width)
#: or ``PAIRS_MAX`` is reached; smoke runs cap early — CI jitter is
#: absorbed by the relaxed smoke floor instead
PAIRS_ROUND = 30
PAIRS_MAX = 300
PAIRS_MAX_SMOKE = 30
TARGET_HW = 0.0035


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _floor() -> float:
    return FLOOR_SMOKE if _smoke() else FLOOR


def _bits(vals) -> tuple:
    return tuple(np.ascontiguousarray(v).tobytes() for v in vals)


def _workloads():
    from repro.bench.runner import BULK_BENCHMARKS
    from repro.cli import _random_inputs
    from repro.compiler import compile_program_cached

    names = SUITE_SMOKE if _smoke() else tuple(SUITE)
    out = []
    for name in names:
        spec = BULK_BENCHMARKS[name]
        prog = spec.program()
        sizes = SUITE[name]
        inputs = _random_inputs(prog, sizes, SEED)
        cp = compile_program_cached(prog, "incremental")
        out.append((name, cp, inputs))
    return out


def _suite_pass(workloads, guard_on: bool, per_prog: dict) -> float:
    """One timed pass over the whole suite; per-program seconds append
    into ``per_prog[name]``, the return value is the pass total."""
    if guard_on:
        os.environ.pop("REPRO_GUARD", None)
    else:
        os.environ["REPRO_GUARD"] = "0"
    try:
        total = 0.0
        for name, cp, inputs in workloads:
            t0 = time.perf_counter()
            cp.run(inputs, engine="codegen")
            dt = time.perf_counter() - t0
            per_prog[name].append(dt)
            total += dt
        return total
    finally:
        os.environ.pop("REPRO_GUARD", None)


def _median_ci_hw(ratios, draws: int = 400) -> float:
    """Bootstrap 95% CI half-width of the median of ``ratios``."""
    r = np.asarray(ratios)
    idx = np.random.default_rng(0).integers(0, len(r), (draws, len(r)))
    boots = np.median(r[idx], axis=1)
    return float(
        (np.percentile(boots, 97.5) - np.percentile(boots, 2.5)) / 2.0
    )


def _time_paired(workloads):
    """Aggregate guard-on/guard-off ratio from paired suite passes.

    Adjacent A/B passes share their noise environment, the within-pair
    order alternates so monotone drift cancels across pairs, and GC is
    disabled over the timed region (as ``timeit`` does) so collector
    scheduling can't land on one side of a pair.  Sampling is adaptive:
    rounds of ``PAIRS_ROUND`` pairs accumulate until the bootstrap CI of
    the median paired ratio is tighter than ``TARGET_HW``, or the cap is
    reached — a noisy host buys more samples, not a flaky verdict.
    """
    pairs_max = PAIRS_MAX_SMOKE if _smoke() else PAIRS_MAX
    prog_on = {name: [] for name, _, _ in workloads}
    prog_off = {name: [] for name, _, _ in workloads}
    ratios = []
    # warm both settings
    _suite_pass(workloads, True, {n: [] for n in prog_on})
    _suite_pass(workloads, False, {n: [] for n in prog_on})
    gc.collect()
    gc.disable()
    try:
        while len(ratios) < pairs_max:
            for i in range(PAIRS_ROUND):
                if i % 2:
                    t_on = _suite_pass(workloads, True, prog_on)
                    t_off = _suite_pass(workloads, False, prog_off)
                else:
                    t_off = _suite_pass(workloads, False, prog_off)
                    t_on = _suite_pass(workloads, True, prog_on)
                ratios.append(t_on / t_off)
            if _median_ci_hw(ratios) <= TARGET_HW:
                break
    finally:
        gc.enable()
    return ratios, prog_on, prog_off


def _run_bits(workloads, guard_on: bool) -> dict:
    """Output bits of one run per program under the given setting."""
    if guard_on:
        os.environ.pop("REPRO_GUARD", None)
    else:
        os.environ["REPRO_GUARD"] = "0"
    try:
        return {
            name: _bits(cp.run(inputs, engine="codegen"))
            for name, cp, inputs in workloads
        }
    finally:
        os.environ.pop("REPRO_GUARD", None)


def _overhead_leg() -> dict:
    from repro.exec import guard
    from repro.exec.codegen import _CODE_CACHE

    workloads = _workloads()
    # compile everything once so both sides measure pure execution
    _CODE_CACHE.clear()
    for _, cp, inputs in workloads:
        cp.run(inputs, engine="codegen")

    assert guard.active()
    dem0 = guard.demotion_count()
    ratios, prog_on, prog_off = _time_paired(workloads)
    on_bits = _run_bits(workloads, True)
    off_bits = _run_bits(workloads, False)
    assert guard.demotion_count() == dem0, "healthy run must not demote"
    assert guard.active()

    for name in off_bits:
        assert on_bits[name] == off_bits[name], (
            f"{name}: guarded result differs from unguarded"
        )

    ratio = float(np.median(ratios))
    return {
        "programs": {
            name: {
                "guard_on_s": float(np.median(prog_on[name])),
                "guard_off_s": float(np.median(prog_off[name])),
                "ratio": float(
                    np.median(
                        np.asarray(prog_on[name])
                        / np.asarray(prog_off[name])
                    )
                ),
            }
            for name in prog_on
        },
        "pairs": len(ratios),
        "ci_half_width": _median_ci_hw(ratios),
        "ratio": ratio,
        "overhead_pct": (ratio - 1.0) * 100.0,
    }


def _recovery_leg() -> dict:
    """Drive one breaker through trip -> quarantine -> probe -> re-close."""
    from repro import perf
    from repro.exec import guard

    trip, cooldown = 3, 4
    os.environ["REPRO_GUARD_TRIP"] = str(trip)
    os.environ["REPRO_GUARD_COOLDOWN"] = str(cooldown)
    try:
        calls = {"top": 0, "bottom": 0}
        want = np.arange(8.0)

        def top(env, n):
            calls["top"] += 1
            if calls["top"] <= trip:
                raise RuntimeError("injected: device fell off the bus")
            return (want * 1.0,)

        def bottom(env, n):
            calls["bottom"] += 1
            return (want * 1.0,)

        launch = guard.wrap_kernel(
            "bench-guard-recovery", [("codegen", top), ("vector", bottom)]
        )
        c0 = perf.counters()
        launches = trip + cooldown + 4  # past the probe, into steady state
        for i in range(launches):
            (out,) = launch({}, 8)
            assert out.tobytes() == want.tobytes(), f"launch {i} diverged"
        c1 = perf.counters()

        def delta(name):
            return c1.get(name, 0) - c0.get(name, 0)

        br = [
            b for b in guard.snapshot()["breakers"]
            if b["key"] == "bench-guard-recovery"
        ]
        state = br[0]["state"] if br else "closed"
        doc = {
            "launches": launches,
            "tripped": delta("exec.guard.tripped"),
            "quarantined": delta("exec.guard.quarantined"),
            "probes": delta("exec.guard.probes"),
            "reclosed": delta("exec.guard.reclosed"),
            "demotions": delta("exec.guard.demotions"),
            "final_state": state,
            "bit_identical": True,
        }
        assert doc["tripped"] == 1, doc
        # the cooldown-th quarantined launch becomes the half-open probe
        assert doc["quarantined"] == cooldown - 1, doc
        assert doc["probes"] >= 1, doc
        assert doc["reclosed"] == 1, doc
        assert state == "closed", doc
        # converged: the post-recovery launches were served by the top
        # tier again, not by permanent demotion
        assert calls["top"] == launches - (cooldown - 1), calls
        return doc
    finally:
        os.environ.pop("REPRO_GUARD_TRIP", None)
        os.environ.pop("REPRO_GUARD_COOLDOWN", None)
        guard.reset(drop_disk=True)


def run() -> dict:
    from repro.exec import guard

    # isolated compile cache: the bench must not inherit this checkout's
    # breaker file or evict a developer's warm kernels
    cache = tempfile.mkdtemp(prefix="repro-bench-guard-")
    os.environ["REPRO_CODEGEN_CACHE"] = cache
    guard.reset(drop_disk=True)

    overhead = _overhead_leg()
    recovery = _recovery_leg()

    doc = {
        "bench": "guard",
        "smoke": _smoke(),
        "floor_ratio": _floor(),
        "overhead": overhead,
        "recovery": recovery,
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    assert overhead["ratio"] <= _floor(), (
        f"guard overhead {overhead['overhead_pct']:.2f}% exceeds floor "
        f"({(_floor() - 1.0) * 100.0:.0f}%)"
    )
    return doc


def test_guard_overhead():
    run()


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    doc = run()
    ov = doc["overhead"]
    print(f"guard overhead (aggregate, {ov['pairs']} paired passes, "
          f"CI ±{100*ov['ci_half_width']:.2f}%): "
          f"{ov['overhead_pct']:+.2f}%  (floor {(_floor()-1)*100:.0f}%)")
    for name, row in sorted(ov["programs"].items()):
        print(f"  {name:12s} on={row['guard_on_s']*1e3:7.2f}ms "
              f"off={row['guard_off_s']*1e3:7.2f}ms "
              f"ratio={row['ratio']:.3f}")
    rec = doc["recovery"]
    print(f"breaker recovery: tripped={rec['tripped']} "
          f"quarantined={rec['quarantined']} probes={rec['probes']} "
          f"reclosed={rec['reclosed']} final={rec['final_state']}")
    print(f"-> {os.path.abspath(OUT_PATH)}")


if __name__ == "__main__":
    main()
