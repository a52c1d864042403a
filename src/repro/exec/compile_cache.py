"""Content-addressed on-disk cache for codegen-engine kernels.

The codegen executor (:mod:`repro.exec.codegen`) specialises kernels per
(program fingerprint, batchedness, sizes, dtype signature) and compiles
the generated source once.  This module persists those compilations so
*other processes* — ``tuning/parallel.py`` spawn workers, repeated CLI
invocations, CI's warm-cache leg — never recompile the same kernel: the
coordinator and every worker resolve the same directory (override >
``REPRO_CODEGEN_CACHE`` > a per-user temp dir) and exchange entries
through it.

Layout: one ``<key>.json`` file per kernel, where ``key`` is the SHA-256
of the kernel's full fingerprint string.  Each entry records the
fingerprint it was stored under and a checksum of its payload, so

* a *torn or truncated* file (simulated by the PR 5 torn-write tests)
  fails JSON parsing or the checksum and is treated as a miss — the
  kernel is recompiled, never a crash;
* a *poisoned* entry — content copied under the wrong key, or a payload
  edited without its checksum — fails the fingerprint/checksum match and
  is rejected (``exec.codegen.cache_bad``).

The directory is bounded: after every store, entries beyond
``REPRO_CODEGEN_CACHE_MAX`` (default 512) are evicted oldest-mtime-first
(reads touch mtime, so this is LRU).  ``REPRO_NO_CACHE`` disables the
whole layer.

Writes go through :func:`repro.ioutil.atomic_write_json`; concurrent
writers of the same key race benignly (last rename wins, both wrote the
same content).  Every filesystem error degrades to a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro import perf
from repro.ioutil import atomic_write_json

__all__ = [
    "cache_dir",
    "shared_dir",
    "set_dir",
    "entry_key",
    "load",
    "store",
    "evict_lru",
    "clear",
    "max_entries",
    "breaker_path",
]

DEFAULT_MAX_ENTRIES = 512

#: the guard's circuit-breaker table lives beside the kernels it judges
#: (same staleness domain: wiping the cache wipes the verdicts about it);
#: it is not a cache entry and is exempt from LRU eviction
BREAKER_FILE = "breakers.json"

#: explicit override (set_dir) — beats the environment for this process
_DIR_OVERRIDE: str | None = None


def set_dir(path: str | None) -> None:
    """Pin this process's cache directory (``None`` restores resolution).

    Tuning workers are pinned to the coordinator's resolved directory via
    the pool initializer, so a coordinator using the temp-dir default
    still shares one cache with its spawned workers.
    """
    global _DIR_OVERRIDE
    _DIR_OVERRIDE = os.fspath(path) if path is not None else None


def cache_dir() -> str:
    """The cache directory path (not created); override > env > default."""
    if _DIR_OVERRIDE is not None:
        return _DIR_OVERRIDE
    env = os.environ.get("REPRO_CODEGEN_CACHE")
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "repro-codegen-cache")


def shared_dir() -> str:
    """The resolved cache directory, created — the path to hand to workers."""
    d = cache_dir()
    try:
        os.makedirs(d, exist_ok=True)
    except OSError:
        pass
    return d


def max_entries() -> int:
    """LRU size cap (``REPRO_CODEGEN_CACHE_MAX``, default 512)."""
    try:
        return max(1, int(os.environ.get("REPRO_CODEGEN_CACHE_MAX", "")))
    except ValueError:
        return DEFAULT_MAX_ENTRIES


def breaker_path() -> str:
    """Where :mod:`repro.exec.guard` persists circuit-breaker state."""
    return os.path.join(shared_dir(), BREAKER_FILE)


def entry_key(fingerprint: str) -> str:
    """Content address of a kernel: SHA-256 of its fingerprint string."""
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


def _payload_checksum(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _entry_path(key: str) -> str:
    return os.path.join(cache_dir(), key + ".json")


def load(key: str, fingerprint: str) -> dict | None:
    """The payload stored under ``key``, or ``None`` (counted as a miss).

    ``fingerprint`` is the caller's full fingerprint string; an entry
    whose recorded fingerprint differs (poisoning: content moved under
    the wrong key, or a collision-faked entry) is rejected, as is any
    entry that fails parsing or its payload checksum.
    """
    if not perf.caching_enabled():
        perf.inc("exec.codegen.cache_misses")
        return None
    path = _entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        if os.path.exists(path):
            perf.inc("exec.codegen.cache_bad")  # torn/corrupt entry
        perf.inc("exec.codegen.cache_misses")
        return None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if (
        not isinstance(payload, dict)
        or doc.get("fingerprint") != fingerprint
        or doc.get("sha256") != _payload_checksum(payload)
    ):
        perf.inc("exec.codegen.cache_bad")
        perf.inc("exec.codegen.cache_misses")
        return None
    try:
        os.utime(path)  # LRU touch
    except OSError:
        pass
    perf.inc("exec.codegen.cache_hits")
    return payload


def store(key: str, fingerprint: str, payload: dict) -> bool:
    """Persist ``payload`` under ``key``; best-effort (False on failure)."""
    if not perf.caching_enabled():
        return False
    doc = {
        "kind": "repro-codegen-kernel",
        "key": key,
        "fingerprint": fingerprint,
        "sha256": _payload_checksum(payload),
        "payload": payload,
    }
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        atomic_write_json(_entry_path(key), doc)
    except (OSError, TypeError, ValueError):
        return False
    evict_lru()
    return True


def evict_lru(cap: int | None = None) -> int:
    """Drop oldest entries beyond the size cap; returns how many went."""
    cap = max_entries() if cap is None else cap
    d = cache_dir()
    try:
        names = [
            nm for nm in os.listdir(d)
            if nm.endswith(".json") and nm != BREAKER_FILE
        ]
    except OSError:
        return 0
    if len(names) <= cap:
        return 0
    aged = []
    for nm in names:
        try:
            aged.append((os.path.getmtime(os.path.join(d, nm)), nm))
        except OSError:
            continue  # concurrently evicted by another process
    aged.sort()
    evicted = 0
    for _, nm in aged[: max(0, len(aged) - cap)]:
        try:
            os.unlink(os.path.join(d, nm))
        except OSError:
            pass  # concurrently evicted by another process
        evicted += 1
    if evicted:
        perf.inc("exec.codegen.cache_evictions", evicted)
    return evicted


def clear() -> None:
    """Remove every entry (tests; cold-start benchmarking)."""
    d = cache_dir()
    try:
        names = os.listdir(d)
    except OSError:
        return
    for nm in names:
        if nm.endswith(".json") and nm != BREAKER_FILE:
            try:
                os.unlink(os.path.join(d, nm))
            except OSError:
                pass
