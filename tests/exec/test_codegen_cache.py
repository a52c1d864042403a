"""On-disk compile cache: integrity, LRU bounds, cross-process sharing.

The cache is the contract that lets ``tuning/parallel.py`` spawn workers
(and repeated CLI invocations) share kernel compilations.  These tests
cover the satellite requirements directly: a torn/truncated entry falls
back to recompilation (never a crash), a poisoned entry (fingerprint or
checksum mismatch) is rejected, the directory is LRU-bounded, and two
spawn-based worker processes executing the same program record exactly
one compile between them.
"""

import json
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from repro import perf
from repro.exec import CodegenEvaluator, compile_cache
from repro.exec.codegen import _CODE_CACHE
from repro.interp import Evaluator
from repro.ir import source as S
from repro.ir.builder import map_, v


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "kcache"))
    _CODE_CACHE.clear()
    yield


def _chain():
    return map_(lambda x: S.UnOp("abs", x * 2.0 + 1.0 - x * 0.5), v("xs"))


def _xs(n=4):
    return np.linspace(-2.0, 3.0, n).astype(np.float32)


def _eval_codegen(e, xs):
    return CodegenEvaluator().eval(e, {"xs": xs})


def _entry_files():
    d = compile_cache.cache_dir()
    return sorted(f for f in os.listdir(d) if f.endswith(".json"))


class TestEntryIntegrity:
    def test_round_trip(self):
        key = compile_cache.entry_key("fp-A")
        payload = {"engine": "codegen", "source": "def _kernel(env, n): pass"}
        assert compile_cache.store(key, "fp-A", payload)
        assert compile_cache.load(key, "fp-A") == payload

    def test_torn_entry_recompiles_not_crashes(self):
        e = _chain()
        _eval_codegen(e, _xs())
        (name,) = _entry_files()
        path = os.path.join(compile_cache.cache_dir(), name)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn write
        _CODE_CACHE.clear()
        before = perf.counters()
        ref = Evaluator().eval(e, {"xs": _xs(6)})
        got = _eval_codegen(e, _xs(6))
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        after = perf.counters()
        assert after.get("exec.codegen.cache_bad", 0) > before.get(
            "exec.codegen.cache_bad", 0
        )
        assert after.get("exec.codegen.compile", 0) > before.get(
            "exec.codegen.compile", 0
        )

    def test_fingerprint_mismatch_rejected(self):
        # poisoning: an entry copied under a different key must not load
        key_a = compile_cache.entry_key("fp-A")
        key_b = compile_cache.entry_key("fp-B")
        compile_cache.store(key_a, "fp-A", {"engine": "codegen", "src": "x"})
        d = compile_cache.cache_dir()
        shutil.copy(
            os.path.join(d, key_a + ".json"), os.path.join(d, key_b + ".json")
        )
        before = perf.counters().get("exec.codegen.cache_bad", 0)
        assert compile_cache.load(key_b, "fp-B") is None
        assert perf.counters().get("exec.codegen.cache_bad", 0) > before

    def test_payload_tamper_rejected(self):
        key = compile_cache.entry_key("fp-A")
        compile_cache.store(key, "fp-A", {"engine": "codegen", "src": "x"})
        path = os.path.join(compile_cache.cache_dir(), key + ".json")
        doc = json.load(open(path))
        doc["payload"]["src"] = "import os  # oops"
        json.dump(doc, open(path, "w"))
        assert compile_cache.load(key, "fp-A") is None

    def test_no_cache_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        key = compile_cache.entry_key("fp-A")
        assert not compile_cache.store(key, "fp-A", {"x": 1})
        assert compile_cache.load(key, "fp-A") is None


#: the ``"native"`` payload field that entries written before the native
#: C tier was deleted carry beside the same key and ``CACHE_VERSION``:
#: the straight-line plan stored for ``_chain``; nothing reads it now
_OLD_NATIVE_PLAN = {
    "lines": [
        ["load", "_t1", "x"],
        ["const", "_C0", 0],
        ["bin", "_t2", "*", "_t1", "_C0"],
        ["const", "_C1", 1],
        ["bin", "_t3", "+", "_t2", "_C1"],
        ["load", "_t4", "x"],
        ["const", "_C2", 2],
        ["bin", "_t5", "*", "_t4", "_C2"],
        ["bin", "_t6", "-", "_t3", "_t5"],
        ["un", "_t7", "abs", "_t6"],
    ],
    "out": "_t7",
    "consts": [["float32", 2.0], ["float32", 1.0], ["float32", 0.5]],
    "nops": 5,
}


class TestOlderEntries:
    @pytest.mark.parametrize("plan", [_OLD_NATIVE_PLAN, None], ids=["plan", "null"])
    def test_entry_with_native_field_loads_without_compile(self, plan):
        e = _chain()
        _eval_codegen(e, _xs())
        (name,) = _entry_files()
        doc = json.load(open(os.path.join(compile_cache.cache_dir(), name)))
        assert "native" not in doc["payload"]
        key = doc["key"]
        compile_cache.store(
            key, doc["fingerprint"], {**doc["payload"], "native": plan}
        )
        assert compile_cache.load(key, doc["fingerprint"])["native"] == plan
        _CODE_CACHE.clear()
        before = perf.counters()
        ref = Evaluator().eval(e, {"xs": _xs(6)})
        got = _eval_codegen(e, _xs(6))
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        after = perf.counters()
        assert after.get("exec.codegen.compile", 0) == before.get(
            "exec.codegen.compile", 0
        )
        assert after.get("exec.codegen.cache_hits", 0) > before.get(
            "exec.codegen.cache_hits", 0
        )


class TestLRUBound:
    def test_eviction_beyond_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE_MAX", "3")
        for i in range(6):
            fp = f"fp-{i}"
            compile_cache.store(compile_cache.entry_key(fp), fp, {"i": i})
        assert len(_entry_files()) <= 3
        assert perf.counters().get("exec.codegen.cache_evictions", 0) >= 3

    def test_reads_refresh_lru_order(self, monkeypatch):
        import time

        monkeypatch.setenv("REPRO_CODEGEN_CACHE_MAX", "2")
        fps = ["fp-0", "fp-1"]
        for fp in fps:
            compile_cache.store(compile_cache.entry_key(fp), fp, {"fp": fp})
        time.sleep(0.02)
        compile_cache.load(compile_cache.entry_key("fp-0"), "fp-0")  # touch
        time.sleep(0.02)
        compile_cache.store(compile_cache.entry_key("fp-2"), "fp-2", {"fp": "fp-2"})
        names = _entry_files()
        assert compile_cache.entry_key("fp-0") + ".json" in names  # survived
        assert compile_cache.entry_key("fp-1") + ".json" not in names  # evicted


# -- cross-process sharing ---------------------------------------------------
#
# Module-level worker so "spawn" children can import it by qualified name
# (the same constraint tuning/parallel.py workers live under).


def _worker_eval(cache_dir: str) -> dict:
    from repro import perf as wperf
    from repro.exec import CodegenEvaluator as WEvaluator
    from repro.exec import compile_cache as wcache
    from repro.ir import source as WS
    from repro.ir.builder import map_ as wmap
    from repro.ir.builder import v as wv

    # exactly what tuning/parallel.py's _init_worker does with the
    # coordinator-shipped directory
    wcache.set_dir(cache_dir)
    e = wmap(lambda x: WS.UnOp("abs", x * 2.0 + 1.0 - x * 0.5), wv("xs"))
    xs = np.linspace(-2.0, 3.0, 5).astype(np.float32)
    WEvaluator().eval(e, {"xs": xs})
    return dict(wperf.export()["counters"])


class TestCrossProcessSharing:
    def test_two_spawn_workers_one_compile(self, tmp_path):
        cache_dir = str(tmp_path / "shared-kcache")
        os.makedirs(cache_dir, exist_ok=True)
        ctx = multiprocessing.get_context("spawn")
        merged: dict = {}
        for _ in range(2):  # two distinct worker processes, sequentially
            with ctx.Pool(processes=1) as pool:
                counters = pool.apply(_worker_eval, (cache_dir,))
            for k, val in counters.items():
                merged[k] = merged.get(k, 0) + val
        assert merged.get("exec.codegen.compile", 0) == 1
        assert merged.get("exec.codegen.cache_hits", 0) >= 1

    def test_init_worker_pins_cache_dir(self, tmp_path):
        from repro.bench.programs.matmul import matmul_program
        from repro.compiler import compile_program
        from repro.gpu.device import K40
        from repro.tuning.parallel import _init_worker

        cp = compile_program(matmul_program(), "incremental")
        target = str(tmp_path / "worker-kcache")
        try:
            _init_worker(
                cp,
                [dict(n=4, m=4)],
                K40,
                0,
                0.0,
                None,
                codegen_cache=target,
            )
            assert compile_cache.cache_dir() == target
        finally:
            compile_cache.set_dir(None)
