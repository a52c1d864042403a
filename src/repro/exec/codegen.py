"""Codegen executor: specialised generated kernels + fallback elimination.

Third execution engine (after the scalar oracle and the vector closures).
:class:`CodegenEvaluator` extends :class:`~repro.exec.vector.VectorEvaluator`
along two axes:

**Fallback elimination.**  The three construct classes the vector engine
runs per-lane through the scalar oracle each get a dedicated vectorized
lowering — chosen so every lane computes *exactly* the operations the
oracle would, in the same order, so bit-identity is preserved (all
batched ops are lane-wise independent; restricting them to a lane subset
cannot change any lane's bits):

* non-total batched ``if`` → *masked two-sided evaluation*: lanes are
  partitioned by the condition, batched environment entries are
  compressed per partition (boolean indexing), each branch runs only on
  the lanes that take it (so a trapping untaken branch never executes),
  and the partial results are scattered back into one output;
* batched-bound ``loop`` → *max-trip masked iteration*: accumulators are
  lifted to writable batched arrays and the body runs to the per-lane
  trip-count maximum, compressed to the still-active lanes
  (``bounds > it``) each step, scattering accumulator updates back;
* batched-argument intrinsics → a registered whole-batch lowering
  (:attr:`IntrinsicDef.vector`) when the intrinsic provides one.

**Source specialisation.**  Straight-line scalar subtrees (variables,
literals, arithmetic, lets, conditionals, indexing, ``ParCmp`` guards)
are emitted as one generated Python function per (kernel fingerprint,
batchedness, sizes, dtype signature) and compiled with
``compile()``/``exec`` — collapsing a whole closure tree into a single
frame.  Compilations are memoised three deep: per instance (inherited
kernel cache), per process (code-object cache), and on disk
(:mod:`repro.exec.compile_cache`, shared across processes).

Counters: ``exec.codegen.compile`` (fresh source compilations — the
cross-process cache keeps this at one per kernel *fleet-wide*),
``exec.codegen.cache_hits/_misses/_bad``, ``exec.codegen.mem_hits``,
``exec.codegen.masked_if/_loop`` and ``exec.codegen.intrinsic``.  Fault
site ``exec.codegen.compile`` fires on fresh compilations (see
``docs/robustness.md``).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Callable

import numpy as np

from repro import faults, perf
from repro.exec import compile_cache, guard
from repro.exec.vector import (
    _VBINOPS,
    _VUNOPS,
    VectorEvaluator,
    _is_total,
    _lift,
    _select,
)
from repro.interp import intrinsics
from repro.interp.evaluator import (
    _BINOPS,
    _UNOPS,
    DEFAULT_THRESHOLD,
    InterpError,
)
from repro.interp.values import to_dtype
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import walk
from repro.obs import trace as obs

__all__ = ["CodegenEvaluator", "dtype_signature"]

#: bump to invalidate every persisted kernel (lowering semantics changed)
CACHE_VERSION = 1

#: node classes the source emitter can lower (scalar-shaped, loop-free)
_EMIT_NODES = (
    S.Var, S.Lit, S.SizeE, S.TupleExp, S.BinOp, S.UnOp, S.Let, S.If, S.Index,
    T.ParCmp,
)
#: roots worth specialising (an emitted kernel of a bare Var/Lit saves nothing)
_EMIT_ROOTS = (S.BinOp, S.UnOp, S.Let, S.If, S.Index)

_MIN_EMIT_NODES = 4

#: process-wide compiled-code cache: key -> (code object, payload)
_CODE_CACHE: dict[str, tuple] = perf.register_cache("codegen.code", {})


def dtype_signature(inputs) -> tuple:
    """Canonical dtype signature of a program's inputs (cache-key part)."""
    sig = []
    for name in sorted(inputs):
        v = inputs[name]
        if isinstance(v, (np.ndarray, np.generic)):
            sig.append((name, np.asarray(v).dtype.name, np.ndim(v)))
        else:
            sig.append((name, type(v).__name__, 0))
    return tuple(sig)


@contextmanager
def _quiet():
    """Suppress FP warnings during speculative both-branch evaluation
    (mirrors the vector engine's batched-``if`` closure)."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _env_get(env, name):
    try:
        return env[name]
    except KeyError:
        raise InterpError(f"unbound variable {name!r}") from None


def _adapt_vals(vals, got, want, n):
    """Align a demoted rung's batchedness flags to the installed kernel's.

    All engines agree structurally on which results are batched, but a
    lower tier may legitimately report a value uniform where the emitted
    kernel lifted it; lifting here keeps every rung's output shape
    interchangeable.
    """
    if tuple(got) == tuple(want):
        return tuple(vals)
    return tuple(
        _lift(v, n) if (w and not g) else v
        for v, g, w in zip(vals, got, want)
    )


# -- kernel payload (de)serialisation ----------------------------------------


def _const_to_json(v) -> list:
    if isinstance(v, str):
        return ["str", v]
    if isinstance(v, bool):
        return ["pybool", v]
    if isinstance(v, int) and not isinstance(v, np.integer):
        return ["pyint", v]
    a = np.asarray(v)
    if a.dtype.kind == "f":
        return [a.dtype.name, float(a)]  # f32/f64 round-trip exactly
    if a.dtype.kind == "b":
        return [a.dtype.name, bool(a)]
    return [a.dtype.name, int(a)]


def _const_from_json(meta):
    kind, val = meta
    if kind == "str":
        return str(val)
    if kind == "pybool":
        return bool(val)
    if kind == "pyint":
        return int(val)
    return np.dtype(kind).type(val)


_OP_TABLES = {"b": _BINOPS, "vb": _VBINOPS, "u": _UNOPS, "vu": _VUNOPS}


def _resolve_op(kind: str, name: str) -> Callable:
    return _OP_TABLES[kind][name]


# -- source emitter ----------------------------------------------------------


class _CantEmit(Exception):
    """This subtree is not expressible as generated source; use closures."""


class _Emitter:
    """Lowers an emittable subtree to one SSA-style Python function.

    The generated function mirrors the closure semantics op for op: the
    same scalar/vector op tables (resolved into the exec globals as
    ``_opN``), the same lift/select helpers, the same eager evaluation
    with warning suppression for batched conditionals, and a block-local
    ``_ops`` counter flushed to ``_ev.vector_ops`` so accounting matches.
    Constants (literal values, evaluated sizes, threshold names) become
    ``_CN`` globals — the source text stays structural, which is what
    makes it shareable across processes via the content-addressed cache.
    """

    def __init__(self, ev: "CodegenEvaluator", bv: frozenset):
        self.ev = ev
        self.bv = bv
        self.lines: list[str] = []
        self.const_meta: list[list] = []
        self.op_meta: list[list] = []
        self.tmp = 0

    # -- small helpers

    def line(self, s: str) -> None:
        self.lines.append("    " + s)

    def name(self) -> str:
        self.tmp += 1
        return f"_t{self.tmp}"

    def const(self, meta: list) -> str:
        self.const_meta.append(meta)
        return f"_C{len(self.const_meta) - 1}"

    def op(self, kind: str, opname: str) -> str:
        if opname not in _OP_TABLES[kind]:
            raise _CantEmit(opname)
        idx = len(self.op_meta)
        self.op_meta.append([kind, opname])
        return f"_op{idx}"

    def _sub(self, e, scope) -> tuple[list[str], list[str], list[bool]]:
        """Emit ``e`` into a detached line buffer (for branch blocks)."""
        saved, self.lines = self.lines, []
        try:
            names, flags = self.emit(e, scope)
        finally:
            block, self.lines = self.lines, saved
        return block, names, flags

    # -- the recursive emitter

    def emit1(self, e, scope) -> tuple[str, bool]:
        names, flags = self.emit(e, scope)
        if len(names) != 1:
            raise _CantEmit("arity")
        return names[0], flags[0]

    def emit(self, e, scope: dict) -> tuple[list[str], list[bool]]:
        if isinstance(e, S.Var):
            hit = scope.get(e.name)
            if hit is not None:
                return [hit[0]], [hit[1]]
            nm = self.name()
            self.line(f"{nm} = _G(env, {e.name!r})")
            return [nm], [e.name in self.bv]
        if isinstance(e, S.Lit):
            val = to_dtype(e.type).type(e.value)
            return [self.const(_const_to_json(val))], [False]
        if isinstance(e, S.SizeE):
            val = np.int64(e.size.eval(self.ev.sizes))
            return [self.const(_const_to_json(val))], [False]
        if isinstance(e, T.ParCmp):
            par = self.const(["pyint", int(e.par.eval(self.ev.sizes))])
            tn = self.const(["str", e.threshold])
            nm = self.name()
            self.line(f"{nm} = bool({par} >= _ev.thresholds.get({tn}, _DT))")
            return [nm], [False]
        if isinstance(e, S.TupleExp):
            names: list[str] = []
            flags: list[bool] = []
            for sub in e.elems:
                ns, fs = self.emit(sub, scope)
                names.extend(ns)
                flags.extend(fs)
            return names, flags
        if isinstance(e, S.BinOp):
            xn, xf = self.emit1(e.x, scope)
            yn, yf = self.emit1(e.y, scope)
            batched = xf or yf
            opn = self.op("vb" if batched else "b", e.op)
            nm = self.name()
            if batched:
                self.line("_ops += 1")
            self.line(f"{nm} = {opn}({xn}, {yn})")
            return [nm], [batched]
        if isinstance(e, S.UnOp):
            xn, xf = self.emit1(e.x, scope)
            opn = self.op("vu" if xf else "u", e.op)
            nm = self.name()
            if xf:
                self.line("_ops += 1")
            self.line(f"{nm} = {opn}({xn})")
            return [nm], [xf]
        if isinstance(e, S.Let):
            rnames, rflags = self.emit(e.rhs, scope)
            if len(rnames) != len(e.names):
                raise _CantEmit("let arity")
            inner = dict(scope)
            inner.update(
                (nm, (ssa, fl)) for nm, ssa, fl in zip(e.names, rnames, rflags)
            )
            return self.emit(e.body, inner)
        if isinstance(e, S.If):
            return self._emit_if(e, scope)
        if isinstance(e, S.Index):
            return self._emit_index(e, scope)
        raise _CantEmit(type(e).__name__)

    def _emit_if(self, e: S.If, scope) -> tuple[list[str], list[bool]]:
        cn, cf = self.emit1(e.cond, scope)
        if not cf:
            # uniform condition: a real Python branch, only the taken side runs
            tblock, tnames, tflags = self._sub(e.then, scope)
            eblock, enames, eflags = self._sub(e.els, scope)
            if len(tflags) != len(eflags) or not tflags:
                raise _CantEmit("if arity")
            flags = [a or b for a, b in zip(tflags, eflags)]
            outs = [self.name() for _ in flags]
            self.line(f"if {cn}:")
            for ln in tblock:
                self.lines.append("    " + ln)
            for o, src, f, sf in zip(outs, tnames, flags, tflags):
                expr = f"_lift({src}, n)" if f and not sf else src
                self.line(f"    {o} = {expr}")
            self.line("else:")
            for ln in eblock:
                self.lines.append("    " + ln)
            for o, src, f, sf in zip(outs, enames, flags, eflags):
                expr = f"_lift({src}, n)" if f and not sf else src
                self.line(f"    {o} = {expr}")
            return outs, flags
        # batched condition: only total branches may run speculatively —
        # non-total ones take the closure path (masked lowering) instead
        if not (_is_total(e.then) and _is_total(e.els)):
            raise _CantEmit("non-total batched if")
        tblock, tnames, tflags = self._sub(e.then, scope)
        eblock, enames, eflags = self._sub(e.els, scope)
        if len(tflags) != len(eflags) or not tflags:
            raise _CantEmit("if arity")
        self.line("with _quiet():")
        for ln in tblock + eblock:
            self.lines.append("    " + ln)
        if not (tblock or eblock):
            self.line("    pass")
        self.line("_ops += 1")
        wn = self.name()
        self.line(f"{wn} = {cn}.shape[0]")
        outs = []
        for tn, tf, en, ef in zip(tnames, tflags, enames, eflags):
            an = f"_np.asarray({tn})" if tf else f"_lift({tn}, {wn})"
            bn = f"_np.asarray({en})" if ef else f"_lift({en}, {wn})"
            o = self.name()
            self.line(f"{o} = _select({cn}, {an}, {bn})")
            outs.append(o)
        return outs, [True] * len(outs)

    def _emit_index(self, e: S.Index, scope) -> tuple[list[str], list[bool]]:
        an, af = self.emit1(e.arr, scope)
        idxs = [self.emit1(i, scope) for i in e.idxs]
        iflags = [f for _, f in idxs]
        nm = self.name()

        def tup(parts: list[str]) -> str:
            inner = ", ".join(parts)
            return f"({inner},)" if len(parts) == 1 else f"({inner})"

        if not af and not any(iflags):
            parts = [f"int({inm})" for inm, _ in idxs]
            self.line(f"{nm} = {an}[{tup(parts)}]")
            return [nm], [False]
        self.line("_ops += 1")
        if af and any(iflags):
            parts = [f"_np.arange(_np.shape({an})[0])"] + [
                inm if fl else f"int({inm})" for inm, fl in idxs
            ]
        elif af:
            parts = ["_SL"] + [f"int({inm})" for inm, _ in idxs]
        else:
            parts = [inm if fl else f"int({inm})" for inm, fl in idxs]
        self.line(f"{nm} = {an}[{tup(parts)}]")
        return [nm], [True]

    # -- rendering

    def render(self, names: list[str]) -> str:
        ret = ", ".join(names) + ("," if len(names) == 1 else "")
        lines = ["def _kernel(env, n):", "    _ops = 0"]
        lines.extend(self.lines)
        lines.append("    _ev.vector_ops += _ops")
        lines.append(f"    return ({ret})")
        return "\n".join(lines) + "\n"


# -- the evaluator -----------------------------------------------------------


class CodegenEvaluator(VectorEvaluator):
    """Vector engine + generated-source kernels + masked fallback lowerings.

    Construction mirrors :class:`VectorEvaluator`; ``dtype_sig``
    (see :func:`dtype_signature`) distinguishes persisted kernels
    specialised for different input dtype signatures.
    """

    def __init__(self, sizes=None, thresholds=None, dtype_sig=()):
        super().__init__(sizes, thresholds)
        self.dtype_sig = tuple(dtype_sig or ())
        self.masked_ifs = 0
        self.masked_loops = 0
        # sampled once per evaluation: os.environ lookups are ~1us and
        # _guard_kernel runs per emitted kernel
        self._guard_active = guard.active()

    # -- generated-source kernels ------------------------------------------

    def _c(self, e, bv):
        if bv and isinstance(e, _EMIT_ROOTS) and self._emittable(e):
            hit = self._emit_kernel(e, bv)
            if hit is not None:
                return self._guard_kernel(e, bv, hit)
        return super()._c(e, bv)

    def _guard_kernel(self, e, bv, hit):
        """Wrap an emitted kernel in the demotion ladder (``exec/guard.py``).

        Rungs, highest first: the generated-source Python kernel, the
        vector engine's closure lowering of the same expression, and the
        per-lane scalar oracle.  The lower rungs compile lazily — a healthy
        kernel never builds them.  ``REPRO_GUARD=0`` returns the kernel
        unwrapped.
        """
        if not self._guard_active:
            return hit
        fn, flags = hit
        meta = fn._guard
        ev = self
        arity = len(flags)
        vcell: list = []
        scell: list = []

        def vector_rung(env, n):
            if not vcell:
                vcell.append(VectorEvaluator._c(ev, e, bv))
            vfn, vflags = vcell[0]
            return _adapt_vals(vfn(env, n), vflags, flags, n)

        def scalar_rung(env, n):
            if not scell:
                scell.append(ev._c_fallback(e, bv, arity, "guard"))
            sfn, sflags = scell[0]
            return _adapt_vals(sfn(env, n), sflags, flags, n)

        rungs = [("codegen", fn), ("vector", vector_rung), ("scalar", scalar_rung)]
        launch = guard.wrap_kernel(meta["key"], rungs, source=meta["source"])
        return launch, flags

    def _emittable(self, e) -> bool:
        count = 0
        for sub in walk(e):
            if not isinstance(sub, _EMIT_NODES):
                return False
            count += 1
        return count >= _MIN_EMIT_NODES

    def _fingerprint(self, e, bv) -> str:
        from repro.gpu.cost import kernel_fingerprint

        return repr((
            CACHE_VERSION,
            kernel_fingerprint(e),
            tuple(sorted(bv)),
            tuple(sorted(self.sizes.items())),
            self.dtype_sig,
        ))

    def _emit_kernel(self, e, bv):
        fp = self._fingerprint(e, bv)
        key = compile_cache.entry_key("codegen|" + fp)
        hit = _CODE_CACHE.get(key) if perf.caching_enabled() else None
        if hit is not None:
            perf.inc("exec.codegen.mem_hits")
            return self._install(key, *hit)
        payload = compile_cache.load(key, fp)
        if payload is not None:
            try:
                return self._load_payload(key, payload)
            except Exception:  # noqa: BLE001 - semantically corrupt entry
                perf.inc("exec.codegen.cache_bad")
        try:
            em = _Emitter(self, bv)
            names, flags = em.emit(e, {})
            if not names:
                return None
            source = em.render(names)
        except _CantEmit:
            return None
        payload = {
            "engine": "codegen",
            "version": CACHE_VERSION,
            "source": source,
            "flags": [bool(f) for f in flags],
            "ops": em.op_meta,
            "consts": em.const_meta,
        }
        with obs.span("exec.codegen.compile", cat="exec", key=key[:12]):
            code = faults.retrying(
                "exec.codegen.compile",
                lambda: compile(source, f"<codegen:{key[:12]}>", "exec"),
            )
        perf.inc("exec.codegen.compile")
        self._kernel()
        compile_cache.store(key, fp, payload)
        if perf.caching_enabled():
            _CODE_CACHE[key] = (code, payload)
        return self._install(key, code, payload)

    def _load_payload(self, key: str, payload: dict):
        """Rebuild a kernel from a persisted (or replayed) payload."""
        if payload.get("engine") != "codegen" or payload.get("version") != CACHE_VERSION:
            raise ValueError("incompatible codegen payload")
        source = payload["source"]
        code = compile(source, f"<codegen:{key[:12]}>", "exec")
        self._kernel()
        if perf.caching_enabled():
            _CODE_CACHE[key] = (code, payload)
        return self._install(key, code, payload)

    def _install(self, key: str, code, payload: dict):
        flags = tuple(bool(f) for f in payload["flags"])
        g = {
            "_ev": self,
            "_np": np,
            "_lift": _lift,
            "_select": _select,
            "_quiet": _quiet,
            "_G": _env_get,
            "_DT": DEFAULT_THRESHOLD,
            "_SL": slice(None),
            "__builtins__": __builtins__,
        }
        for i, meta in enumerate(payload["ops"]):
            g[f"_op{i}"] = _resolve_op(meta[0], meta[1])
        for i, meta in enumerate(payload["consts"]):
            g[f"_C{i}"] = _const_from_json(meta)
        exec(code, g)  # noqa: S102 - our own generated, checksummed source
        fn = g["_kernel"]
        fn._guard = {"key": key, "source": payload["source"]}
        return fn, flags

    # -- masked non-total batched if ---------------------------------------

    def _c_if(self, e: S.If, bv):
        fc, bc = self._c1(e.cond, bv)
        if not bc or (_is_total(e.then) and _is_total(e.els)):
            return super()._c_if(e, bv)
        # compile both branches at full batchedness; a _NeedsFallback from
        # inside still propagates to the enclosing construct, like vector
        ft, tfl = self._compile(e.then, bv)
        fe, efl = self._compile(e.els, bv)
        if len(tfl) != len(efl):
            raise InterpError("if branch arity mismatch")
        fvs = sorted((self._free(e.then) | self._free(e.els)) & bv)
        self._kernel()
        arity = len(tfl)
        ev = self

        def fn(env, n):
            c = np.asarray(fc(env, n)[0], dtype=bool)
            w = c.shape[0]
            ev.vector_ops += 1
            ev.masked_ifs += 1
            perf.inc("exec.codegen.masked_if")
            with obs.span(
                "exec.codegen.masked", cat="exec", construct="if", lanes=w
            ):
                parts = []
                for mask, fb_, fl_ in ((c, ft, tfl), (~c, fe, efl)):
                    cnt = int(mask.sum())
                    if cnt == 0:
                        parts.append(None)
                        continue
                    if cnt == w:
                        sub = env
                    else:
                        sub = dict(env)
                        for k in fvs:
                            if k in sub:
                                sub[k] = np.asarray(sub[k])[mask]
                    vals = fb_(sub, cnt)
                    parts.append([
                        np.asarray(v) if f else np.asarray(_lift(v, cnt))
                        for v, f in zip(vals, fl_)
                    ])
                tv, evs = parts
                if tv is None:
                    return tuple(evs)
                if evs is None:
                    return tuple(tv)
                out = []
                for j in range(arity):
                    a, b = tv[j], evs[j]
                    res = np.empty(
                        (w,) + a.shape[1:], dtype=np.result_type(a, b)
                    )
                    res[c] = a
                    res[~c] = b
                    out.append(res)
                return tuple(out)

        return fn, (True,) * arity

    # -- max-trip masked batched-bound loop --------------------------------

    def _c_loop(self, e: S.Loop, bv):
        fb, bflag = self._c1(e.bound, bv)
        if not bflag:
            return super()._c_loop(e, bv)
        finits = [self._c1(i, bv) for i in e.inits]
        # lanes run different trip counts, so every accumulator diverges:
        # force them all batched and compile the body once at that width
        base_bv = (bv - set(e.params)) - {e.ivar}
        fbody, rflags = self._compile(
            e.body, frozenset(base_bv | set(e.params))
        )
        if len(rflags) != len(e.params):
            raise InterpError("loop body arity mismatch")
        fvs = sorted((self._free(e.body) - set(e.params) - {e.ivar}) & bv)
        self._kernel()
        params, ivar = e.params, e.ivar
        ev = self

        def fn(env, n):
            bounds = np.asarray(fb(env, n)[0])
            if bounds.dtype.kind != "i":
                bounds = bounds.astype(np.int64)
            w = bounds.shape[0]
            ev.vector_ops += 1
            ev.masked_loops += 1
            perf.inc("exec.codegen.masked_loop")
            vals = [
                np.array(np.asarray(v) if f else _lift(v, w))
                for v, f in [(f(env, n)[0], fl) for f, fl in finits]
            ]
            maxb = int(bounds.max()) if w else 0
            with obs.span(
                "exec.codegen.masked", cat="exec", construct="loop",
                lanes=w, max_trips=maxb,
            ):
                for it in range(maxb):
                    active = bounds > it
                    cnt = int(active.sum())
                    if cnt == 0:
                        break
                    if cnt == w:
                        env2 = dict(env)
                        env2.update(zip(params, vals))
                        env2[ivar] = np.int64(it)
                        out = fbody(env2, w)
                        vals = [
                            np.array(np.asarray(v) if rf else _lift(v, w))
                            for v, rf in zip(out, rflags)
                        ]
                        continue
                    env2 = dict(env)
                    for k in fvs:
                        if k in env2:
                            env2[k] = np.asarray(env2[k])[active]
                    for p, a in zip(params, vals):
                        env2[p] = a[active]
                    env2[ivar] = np.int64(it)
                    out = fbody(env2, cnt)
                    for j, (v, rf) in enumerate(zip(out, rflags)):
                        upd = np.asarray(v) if rf else np.asarray(_lift(v, cnt))
                        tgt = vals[j]
                        if tgt.dtype != upd.dtype:
                            # per-lane dtype drift: promote like np.stack
                            # over mixed lanes would (the oracle's restack)
                            tgt = vals[j] = tgt.astype(
                                np.result_type(tgt.dtype, upd.dtype)
                            )
                        tgt[active] = upd
            return tuple(vals)

        return fn, (True,) * len(e.params)

    # -- intrinsics with registered vector lowerings -----------------------

    def _c_intrinsic(self, e: S.Intrinsic, bv):
        fargs = [self._c1(a, bv) for a in e.args]
        aflags = [f for _, f in fargs]
        if not any(aflags):
            return super()._c_intrinsic(e, bv)
        defn = intrinsics.get(e.name)
        vec = getattr(defn, "vector", None)
        if vec is None:
            return self._c_fallback(e, bv, 1, f"intrinsic:{e.name}")
        self._kernel()
        name = e.name
        ev = self

        def fn(env, n):
            args = [f(env, n)[0] for f, _ in fargs]
            ev.vector_ops += 1
            perf.inc("exec.codegen.intrinsic")
            out = vec(args, aflags)
            out = out if isinstance(out, tuple) else (out,)
            if len(out) != 1:
                raise InterpError(
                    f"multi-value intrinsic {name!r} not supported by the "
                    f"codegen engine"
                )
            return out

        return fn, (True,)
