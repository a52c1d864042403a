"""Codegen engine: fallback elimination speedup on fallback-heavy workloads.

The vector executor (``BENCH_exec_engine.json``) wins 100x+ on programs it
can batch, but the three constructs it cannot — non-total batched ``if``,
batched-bound ``loop``, batched-argument intrinsics — drop to a per-lane
scalar-oracle fallback, reintroducing the tree-walker's cost times the
batch width.  This benchmark measures the codegen engine's dedicated
lowerings (masked two-sided ``if``, max-trip masked loop iteration,
registered whole-batch intrinsics) on three workloads built from exactly
those constructs, and checks that

* every workload is bit-identical across scalar oracle, vector engine and
  codegen engine (the same property ``repro check`` enforces);
* the vector engine records scalar fallbacks on every workload while the
  codegen engine records **zero** (the fallback-elimination criterion,
  required on at least two workloads);
* the codegen engine beats the vector engine by at least 2x geomean
  (the acceptance floor; in practice the gap is one to two orders of
  magnitude because the fallback path re-enters Python per lane).

Results land in ``BENCH_native_engine.json`` at the repo root.  Runnable
standalone (``python benchmarks/bench_native_engine.py [--smoke]``) or
under pytest; ``REPRO_BENCH_SMOKE=1`` selects tiny batch widths for CI.
The file name is historical: the number is generated-Python codegen with
masked lowerings against the vector engine's per-lane fallback, not
native code.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

import repro.bench.references  # noqa: F401  (registers thomas_tridag)
from repro.exec import CodegenEvaluator, VectorEvaluator
from repro.interp import Evaluator
from repro.ir import source as S
from repro.ir.builder import abs_, f32, i64, if_, intrinsic, loop_, map_, min_, to_i64, v

OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_native_engine.json"
)

SEED = 0
FLOOR = 2.0  # geomean acceptance floor, both full and smoke
REPEATS = 3


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


# -- the fallback-heavy workload set -----------------------------------------


def _branchy_pow(n: int):
    """Non-total batched ``if``: pow is off the totality whitelist, so the
    vector engine runs every lane through the scalar oracle."""
    e = map_(
        lambda x: if_(
            S.BinOp(">", x, i64(0)),
            S.BinOp("pow", i64(2), S.BinOp("min", x, i64(30))),
            S.BinOp("*", x, i64(-3)),
        ),
        v("xs"),
    )
    rng = np.random.default_rng(SEED)
    xs = rng.integers(-40, 40, size=n).astype(np.int64)
    return e, {"xs": xs}


def _databound_loop(n: int):
    """Batched-bound ``loop``: per-lane trip counts (0..8)."""
    e = map_(
        lambda x: loop_(
            x,
            to_i64(min_(abs_(x) * 4.0, f32(8.0))),
            lambda i, acc: acc * 1.5 + 0.25,
        ),
        v("xs"),
    )
    rng = np.random.default_rng(SEED + 1)
    xs = rng.standard_normal(n).astype(np.float32)
    return e, {"xs": xs}


def _tridag_rows(n: int, m: int = 64):
    """Batched-argument intrinsic: thomas_tridag over every row."""
    e = map_(lambda row: intrinsic("thomas_tridag", row), v("xss"))
    rng = np.random.default_rng(SEED + 2)
    xss = rng.standard_normal((n, m)).astype(np.float32)
    return e, {"xss": xss}


def _workloads():
    if _smoke():
        return [
            ("branchy_pow", *_branchy_pow(400)),
            ("databound_loop", *_databound_loop(400)),
            ("tridag_rows", *_tridag_rows(60, 32)),
        ]
    return [
        ("branchy_pow", *_branchy_pow(4000)),
        ("databound_loop", *_databound_loop(4000)),
        ("tridag_rows", *_tridag_rows(400, 64)),
    ]


# -- measurement -------------------------------------------------------------


def _measure(make_ev, e, env):
    """Median wall time over REPEATS launches (first launch compiles)."""
    ev = make_ev()
    results = ev.eval(e, env)  # warm-up: compile + first launch
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        got = ev.eval(e, env)
        times.append(time.perf_counter() - t0)
        for a, b in zip(results, got):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return results, sorted(times)[len(times) // 2], ev


def run() -> dict:
    rows = []
    eliminated = 0
    for name, e, env in _workloads():
        ref = Evaluator().eval(e, env)
        vres, vector_s, vev = _measure(VectorEvaluator, e, env)
        cres, codegen_s, cev = _measure(CodegenEvaluator, e, env)
        for r, g1, g2 in zip(ref, vres, cres):
            ra = np.asarray(r)
            for g in (g1, g2):
                ga = np.asarray(g)
                assert ra.shape == ga.shape and ra.dtype == ga.dtype, name
                assert ra.tobytes() == ga.tobytes(), f"{name}: engines diverge"
        assert vev.scalar_fallbacks > 0, (
            f"{name}: expected the vector engine to hit the per-lane "
            f"fallback (the workload is miscalibrated otherwise)"
        )
        if cev.scalar_fallbacks == 0:
            eliminated += 1
        speedup = vector_s / codegen_s if codegen_s > 0 else float("inf")
        rows.append(
            {
                "workload": name,
                "vector_seconds": vector_s,
                "codegen_seconds": codegen_s,
                "speedup": speedup,
                "vector_fallbacks": vev.scalar_fallbacks,
                "vector_fallback_counts": dict(vev.fallback_counts),
                "codegen_fallbacks": cev.scalar_fallbacks,
                "codegen_masked": {
                    "if": cev.masked_ifs,
                    "loop": cev.masked_loops,
                },
            }
        )
    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in rows) / len(rows)
    )
    doc = {
        "benchmark": "native_engine",
        "workloads": rows,
        "geomean_speedup": geomean,
        "floor": FLOOR,
        "fallbacks_eliminated_on": eliminated,
        "smoke": _smoke(),
        "seed": SEED,
        "repeats": REPEATS,
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # acceptance floors, enforced here so CI and standalone runs both trip
    assert geomean >= FLOOR, (
        f"codegen engine only {geomean:.2f}x geomean over the vector engine "
        f"on the fallback-heavy set (floor {FLOOR}x)"
    )
    assert eliminated >= 2, (
        f"scalar fallbacks eliminated on only {eliminated} workloads "
        f"(need >= 2)"
    )
    return doc


def test_native_engine_speedup():
    run()


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    doc = run()
    dest = os.path.abspath(OUT_PATH)
    for r in doc["workloads"]:
        print(
            f"{r['workload']:16} vector {r['vector_seconds']*1e3:8.1f} ms "
            f"({r['vector_fallbacks']} fallbacks)  codegen "
            f"{r['codegen_seconds']*1e3:8.1f} ms ({r['codegen_fallbacks']} "
            f"fallbacks)  {r['speedup']:7.1f}x"
        )
    print(
        f"geomean {doc['geomean_speedup']:.1f}x (floor {doc['floor']}x), "
        f"fallbacks eliminated on {doc['fallbacks_eliminated_on']}/"
        f"{len(doc['workloads'])} workloads -> {dest}"
    )


if __name__ == "__main__":
    main()
