"""Cost-model behavioural laws: the properties the crossovers rely on."""

import math

import pytest

from repro.compiler import compile_program
from repro.gpu import K40, VEGA64, Chain, Simulator, roofline_time
from repro.gpu.cost import AArr, AScal, aval_from_type, intra_local_demand
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import (
    Program,
    f32,
    i64,
    iota,
    let_,
    map_,
    op2,
    redomap_,
    scan_,
    size_e,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

from repro.bench.programs.matmul import matmul_program, matmul_sizes


class TestRoofline:
    def test_launch_floor(self):
        t, _ = roofline_time(K40, Chain(), 1, 256, 1)
        assert t >= K40.launch_s

    def test_compute_bound_scales_with_work(self):
        c = Chain(ops=1000)
        t1, _ = roofline_time(K40, c, 10**6, 256, 4000)
        t2, _ = roofline_time(K40, c.scaled(2), 10**6, 256, 4000)
        assert t2 > t1

    def test_memory_bound_dominates_heavy_traffic(self):
        c = Chain(ops=1, gbytes=4000.0)
        _, bd = roofline_time(K40, c, 10**6, 256, 4000)
        assert bd["memory"] > bd["compute"]

    def test_underoccupancy_latency_bound(self):
        # one thread with a long chain is latency bound
        c = Chain(ops=10**6, gacc=10**6)
        _, bd = roofline_time(K40, c, 1, 32, 1)
        assert bd["latency"] > bd["compute"]
        assert bd["latency"] > bd["memory"]

    def test_more_parallelism_never_slower_constant_work(self):
        """Fixed total work spread over more threads: never slower."""
        total_ops = 2**22
        times = []
        for p_exp in range(0, 18, 2):
            p = 2**p_exp
            chain = Chain(ops=total_ops / p, gacc=total_ops / p / 32)
            t, _ = roofline_time(K40, chain, p, min(256, p), math.ceil(p / 256))
            times.append(t)
        for a, b in zip(times, times[1:]):
            assert b <= a * 1.01

    def test_serial_chain_separate_from_totals(self):
        total = Chain(ops=1000)
        serial = Chain(ops=10)
        t_coop, bd = roofline_time(K40, total, 100, 256, 100, serial_chain=serial)
        t_flat, bd2 = roofline_time(K40, total, 100, 256, 100)
        assert bd["latency"] < bd2["latency"]
        assert bd["compute"] == bd2["compute"]

    def test_device_ratio_memory_boundness(self):
        # Vega is relatively more memory-bound: ops/byte higher
        assert VEGA64.ops_per_byte > K40.ops_per_byte


class TestSimulatorBasics:
    def _sim(self, prog, sizes, device=K40, mode="moderate", **kw):
        cp = compile_program(prog, mode)
        return cp.simulate(sizes, device, **kw)

    def test_simple_map_kernel(self):
        n = SizeVar("n")
        prog = Program(
            "p", [("xs", array_of(F32, n))], map_(lambda x: x * 2.0, v("xs"))
        )
        rep = self._sim(prog, {"n": 4096})
        assert rep.num_kernels == 1
        k = rep.kernels[0]
        assert k.kind == "segmap" and k.threads == 4096
        # reads and writes 4 bytes each per element
        assert k.gbytes == pytest.approx(4096 * 8, rel=0.01)

    def test_bigger_dataset_costs_more(self):
        n = SizeVar("n")
        prog = Program(
            "p", [("xs", array_of(F32, n))], map_(lambda x: x * 2.0, v("xs"))
        )
        t1 = self._sim(prog, {"n": 2**16}).time
        t2 = self._sim(prog, {"n": 2**22}).time
        assert t2 > t1

    def test_scan_kernel_multiple_passes(self):
        n = SizeVar("n")
        prog = Program(
            "p", [("xs", array_of(F32, n))], scan_(op2("+"), f32(0.0), v("xs"))
        )
        rep = self._sim(prog, {"n": 2**20})
        (k,) = rep.kernels
        assert k.kind == "segscan"
        # ≥3 accesses per element (paper §5.2)
        assert k.gbytes >= 3 * 4 * 2**20

    def test_redomap_reads_inputs(self):
        n = SizeVar("n")
        prog = Program(
            "p",
            [("xs", array_of(F32, n)), ("ys", array_of(F32, n))],
            redomap_(op2("+"), lambda x, y: x * y, f32(0.0), v("xs"), v("ys")),
        )
        rep = self._sim(prog, {"n": 2**20})
        (k,) = rep.kernels
        assert k.kind == "segred"
        assert k.gbytes >= 2 * 4 * 2**20  # both operands once

    def test_zero_size_dataset(self):
        n, m = SizeVar("n"), SizeVar("m")
        prog = Program(
            "p",
            [("xss", array_of(F32, n, m))],
            map_(lambda r: map_(lambda x: x + 1.0, r), v("xss")),
        )
        rep = self._sim(prog, {"n": 0, "m": 4})
        assert rep.time == 0.0

    def test_distinct_row_temporaries_each_charged_a_full_read(self):
        """``xss[i][0] + yss[i][0]`` reads two arrays: the row of ``yss``
        is a new temporary, never a repeat read of the freed row of
        ``xss``, so it costs what the same read through a named row does."""
        n, m = SizeVar("n"), SizeVar("m")

        def first(arr, i):
            return S.Index(S.Index(v(arr), [i]), [i64(0)])

        def gbytes(f):
            prog = Program(
                "p",
                [("xss", array_of(F32, n, m)), ("yss", array_of(F32, n, m))],
                map_(f, iota(size_e("n"))),
            )
            (k,) = self._sim(prog, {"n": 4096, "m": 64}).kernels
            return k.gbytes

        nested = gbytes(lambda i: first("xss", i) + first("yss", i))
        named = gbytes(
            lambda i: let_(
                S.Index(v("yss"), [i]),
                lambda row: first("xss", i) + S.Index(row, [i64(0)]),
            )
        )
        assert nested == named


class TestMatmulCrossover:
    """The mechanics behind Fig. 2."""

    def test_mf_catastrophic_on_degenerate(self):
        prog = matmul_program()
        mf = compile_program(prog, "moderate")
        ff = compile_program(prog, "full")
        s = matmul_sizes(0, 20)
        assert mf.simulate(s, K40).time > 50 * ff.simulate(s, K40).time

    def test_mf_wins_on_large(self):
        prog = matmul_program()
        mf = compile_program(prog, "moderate")
        ff = compile_program(prog, "full")
        s = matmul_sizes(10, 25)
        assert mf.simulate(s, K40).time < ff.simulate(s, K40).time

    def test_crossover_exists(self):
        prog = matmul_program()
        mf = compile_program(prog, "moderate")
        ff = compile_program(prog, "full")
        diffs = []
        for e in range(11):
            s = matmul_sizes(e, 25)
            diffs.append(mf.simulate(s, K40).time - ff.simulate(s, K40).time)
        # MF slower at the start, faster at the end
        assert diffs[0] > 0 and diffs[-1] < 0

    def test_tiling_reduces_traffic(self):
        prog = matmul_program()
        mf = compile_program(prog, "moderate")
        s = matmul_sizes(8, 25)
        with_t = mf.simulate(s, K40, enable_tiling=True)
        without = mf.simulate(s, K40, enable_tiling=False)
        assert with_t.total_gbytes < without.total_gbytes / 4


class TestLocalMemory:
    def test_intra_local_demand(self):
        ctx1 = T.Ctx([T.Binding(("row",), (v("xss"),), SizeVar("n"))])
        ctx0 = T.Ctx([T.Binding(("x",), (v("row"),), SizeVar("m"))])
        inner = T.SegScan(0, ctx0, op2("+"), [f32(0.0)], v("x"))
        outer = T.SegMap(1, ctx1, inner)
        assert intra_local_demand(outer, {"n": 10, "m": 1000}) == 4000

    def test_fallback_on_local_overflow(self):
        """A middle version that exceeds local memory falls back (§4.1)."""
        n, m = SizeVar("n"), SizeVar("m")
        prog = Program(
            "p",
            [("xss", array_of(F32, n, m))],
            map_(lambda row: scan_(op2("+"), f32(0.0), row), v("xss")),
        )
        cp = compile_program(prog, "incremental")
        # force the intra version everywhere
        th = {t.name: 1 if t.kind == "suff_intra_par" else 2**30
              for t in cp.registry.items}
        small = cp.simulate({"n": 64, "m": 256}, K40, thresholds=th)
        assert any(k.kind == "intra" for k in small.kernels)
        # huge rows cannot fit in local memory: fallback, no intra kernel
        big = cp.simulate({"n": 64, "m": 10**6}, K40, thresholds=th)
        assert not any(k.kind == "intra" for k in big.kernels)

    def test_intra_kernel_records_local_use(self):
        n, m = SizeVar("n"), SizeVar("m")
        prog = Program(
            "p",
            [("xss", array_of(F32, n, m))],
            map_(lambda row: scan_(op2("+"), f32(0.0), row), v("xss")),
        )
        cp = compile_program(prog, "incremental")
        th = {t.name: 1 if t.kind == "suff_intra_par" else 2**30
              for t in cp.registry.items}
        rep = cp.simulate({"n": 64, "m": 256}, K40, thresholds=th)
        intra = [k for k in rep.kernels if k.kind == "intra"]
        assert intra and intra[0].local_mem_used >= 256 * 4


class TestAbstractValues:
    def test_aval_from_type(self):
        t = array_of(F32, SizeVar("n"), 4)
        av = aval_from_type(t, {"n": 8})
        assert av == AArr((8, 4), 4)

    def test_scalar_aval(self):
        from repro.ir.types import I64

        av = aval_from_type(I64, {}, value=7)
        assert isinstance(av, AScal) and av.value == 7

    def test_arr_bytes(self):
        assert AArr((8, 4), 4).bytes == 128

    def test_peel(self):
        a = AArr((8, 4), 4, "local", frozenset({1}))
        row = a.peel()
        assert row == AArr((4,), 4, "local", frozenset({1}))
        assert isinstance(row.peel(), AScal)


class TestAllocationTracking:
    """§6: full flattening historically failed on memory usage; the
    simulator reports global allocations so the effect is visible."""

    def test_ff_allocates_more_than_outer_only(self):
        from repro.bench.programs.optionpricing import (
            optionpricing_program,
            optionpricing_sizes,
        )

        prog = optionpricing_program()
        s = optionpricing_sizes("D1")
        ff = compile_program(prog, "full").simulate(s, K40)
        top = compile_program(prog, "incremental")
        rep_top = top.simulate(
            s, K40, thresholds={t: 1 for t in top.thresholds()}
        )
        assert ff.alloc_bytes > 100 * max(rep_top.alloc_bytes, 1e6)

    def test_map_allocates_result(self):
        n = SizeVar("n")
        prog = Program(
            "p", [("xs", array_of(F32, n))], map_(lambda x: x * 2.0, v("xs"))
        )
        rep = compile_program(prog, "moderate").simulate({"n": 1024}, K40)
        assert rep.alloc_bytes == 1024 * 4

    def test_reduction_allocates_nothing_big(self):
        n = SizeVar("n")
        prog = Program(
            "p",
            [("xs", array_of(F32, n))],
            redomap_(op2("+"), lambda x: x * x, f32(0.0), v("xs")),
        )
        rep = compile_program(prog, "moderate").simulate({"n": 2**20}, K40)
        assert rep.alloc_bytes < 1024


class TestAbstractResultShapes:
    """The simulator's abstract results agree with real execution shapes —
    cross-validation of the whole abstract interpreter."""

    @pytest.mark.parametrize(
        "name,sizes",
        [
            ("matmul", dict(n=3, m=4)),
            ("locvolcalib", dict(numS=2, numX=3, numY=4, numT=2)),
            ("nn", dict(numB=3, numP=5)),
            ("pathfinder", dict(numB=2, rows=4, cols=5)),
            ("srad", dict(numB=2, H=4, W=3, numIter=2)),
        ],
    )
    def test_shapes_match_interpreter(self, name, sizes):
        import numpy as np

        from repro.gpu.cost import AArr, AScal, Simulator, aval_from_type
        from repro.interp import run_program
        from repro.ir.types import ArrayType

        from repro.bench.programs import (
            locvolcalib,
            matmul as mm,
            nn as nn_,
            pathfinder as pf,
            srad as sr,
        )

        progs = {
            "matmul": (mm.matmul_program, None),
            "locvolcalib": (
                locvolcalib.locvolcalib_program,
                locvolcalib.locvolcalib_inputs,
            ),
            "nn": (nn_.nn_program, nn_.nn_inputs),
            "pathfinder": (pf.pathfinder_program, pf.pathfinder_inputs),
            "srad": (sr.srad_program, sr.srad_inputs),
        }
        mk, mk_inputs = progs[name]
        prog = mk()
        if mk_inputs is None:
            rng = np.random.default_rng(0)
            inputs = {
                "xss": rng.standard_normal((3, 4)).astype(np.float32),
                "yss": rng.standard_normal((4, 3)).astype(np.float32),
            }
        else:
            inputs = mk_inputs(sizes)
        cp = compile_program(prog, "incremental")
        real = run_program(prog, inputs, body=cp.body, sizes=sizes)

        params = {}
        for pname, t in prog.params:
            value = None if isinstance(t, ArrayType) else sizes.get(pname)
            params[pname] = aval_from_type(t, sizes, value)
        sim = Simulator(K40)
        sim.simulate(cp.body, params, sizes)
        assert len(sim.result) == len(real)
        for av, val in zip(sim.result, real):
            if isinstance(av, AArr):
                assert av.shape == np.asarray(val).shape
            else:
                assert np.isscalar(val) or np.asarray(val).ndim == 0
