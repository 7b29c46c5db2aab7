"""Content-addressed cache for expensive, deterministic pipeline stages.

Every cacheable stage in the experiment pipelines (population generation,
coordinate pools, obfuscation tables, per-row attack sweeps) is a pure
function of its configuration: the generators consume a seeded
``numpy.random.Generator`` in a fixed call order, so the same config
always produces bit-identical arrays.  That makes content-addressed
caching sound — the cache key is a canonical hash of the stage name, its
parameters and a per-stage code version, and a hit returns exactly the
arrays a fresh run would have produced.

Every artifact is a ``.npy`` bundle (:mod:`repro.data.mmapstore`) in its
own ``<key>/`` directory of the cache directory: ``benchmarks/results/cache/``
unless ``REPRO_CACHE_DIR`` or an explicit directory says otherwise.
Large arrays load as read-only maps that pool workers attach by
path+offset; small ones load eagerly.  Bump the stage's version constant
whenever its code changes results; old entries simply stop being
addressed and can be dropped with :meth:`StageCache.clear`.  Single-file
archives left by older checkouts are never read.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.data.mmapstore import (
    MANIFEST_NAME,
    BundleWriter,
    Specs,
    is_writer_tmp,
    read_bundle,
)
from repro.obs.trace import enabled as _obs_enabled
from repro.obs.trace import get_registry as _obs_registry

__all__ = ["DEFAULT_CACHE_DIR", "StageCache", "stage_key"]


def _record_cache_event(event: str, nbytes: int = 0) -> None:
    """Meter one cache interaction (hit/miss/store) when obs is on."""
    if not _obs_enabled():
        return
    registry = _obs_registry()
    registry.counter(f"cache.{event}").inc()
    if event == "hits":
        registry.counter("cache.read_bytes").inc(nbytes)
    elif event == "stores":
        registry.counter("cache.written_bytes").inc(nbytes)


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # src/repro/data/cache.py -> repo root is three levels above the package.
    return Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "cache"


#: Where artifacts land unless a directory is passed explicitly.
DEFAULT_CACHE_DIR = _default_cache_dir()


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-compatible primitives.

    Dataclasses become sorted dicts, tuples become lists, numpy scalars
    become Python scalars; floats round-trip through ``repr`` inside JSON
    so equal values always hash equally.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"stage_key params must be JSON-canonicalisable, got {type(value).__name__}"
    )


def stage_key(stage: str, params: Any, version: str) -> str:
    """Content address for one stage run: ``<stage>-<sha256 prefix>``.

    ``params`` may be a dataclass, mapping, or nested tuples/lists of
    scalars; ``version`` is the stage's code-version constant, bumped when
    the stage's output for the same params changes.
    """
    blob = json.dumps(
        {"stage": stage, "version": version, "params": _canonical(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return f"{stage}-{digest[:32]}"


class StageCache:
    """Load/store named numpy array bundles keyed by content address.

    A disabled cache (``StageCache(enabled=False)``) never hits and never
    writes, which lets callers thread one object through unconditionally.
    Loaded arrays are read-only.  Corrupt or truncated bundles are
    treated as misses and removed.
    """

    def __init__(
        self, directory: Optional[Path] = None, *, enabled: bool = True
    ) -> None:
        self.directory = Path(directory) if directory is not None else DEFAULT_CACHE_DIR
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @classmethod
    def disabled(cls) -> "StageCache":
        """A cache that always misses and never writes."""
        return cls(enabled=False)

    def path_for(self, key: str) -> Path:
        """The manifest of the bundle a key addresses.

        It exists exactly when the bundle is published: the manifest is
        written last and the bundle directory renamed into place whole.
        """
        return self.directory / key / MANIFEST_NAME

    def _miss(self) -> None:
        self.misses += 1
        _record_cache_event("misses")

    def _stored(self, nbytes: int) -> None:
        self.stores += 1
        _record_cache_event("stores", nbytes)

    def load(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """The stored arrays for ``key``, or ``None`` on a miss."""
        manifest = self.path_for(key)
        if not self.enabled or not manifest.is_file():
            if self.enabled and manifest.parent.is_dir():
                # Bundles are published whole, manifest included, so a
                # directory without one is damaged: drop it so the
                # recompute can publish in its place.
                shutil.rmtree(manifest.parent, ignore_errors=True)
            self._miss()
            return None
        try:
            arrays, nbytes = read_bundle(manifest.parent)
        except (OSError, ValueError, EOFError, KeyError, TypeError) as exc:
            if getattr(exc, "errno", None) in (errno.EMFILE, errno.ENFILE):
                # Out of file descriptors (each map holds one): the
                # bundle is fine, so keep it and let the caller fail.
                raise
            # Truncated/corrupt bundle: drop it and recompute.
            shutil.rmtree(manifest.parent, ignore_errors=True)
            self._miss()
            return None
        self.hits += 1
        _record_cache_event("hits", nbytes)
        return arrays

    def store(self, key: str, arrays: Mapping[str, np.ndarray]) -> Optional[Path]:
        """Persist an array bundle atomically; returns its manifest path.

        Returns ``None`` (and writes nothing) when the cache is disabled.
        """
        if not self.enabled:
            return None
        specs = {name: (tuple(arr.shape), arr.dtype.str) for name, arr in arrays.items()}
        with self.writer(key, specs) as writer:
            for name, arr in arrays.items():
                if writer.arrays[name].size:
                    writer.arrays[name][...] = arr
        return self.path_for(key)

    def writer(self, key: str, specs: Specs) -> BundleWriter:
        """A streaming :class:`BundleWriter` for ``key`` (shapes known upfront)."""
        return BundleWriter(self.directory / key, specs, on_commit=self._stored)

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Mapping[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Cached arrays for ``key``, computing and storing on a miss."""
        cached = self.load(key)
        if cached is not None:
            return cached
        arrays = dict(compute())
        self.store(key, arrays)
        return arrays

    def clear(self) -> int:
        """Remove every bundle in the cache directory; returns the count.

        Only what the cache wrote goes: published bundles (directories
        holding a manifest) and crashed writers' temporary directories.
        Anything else in the directory is left alone, so pointing the
        cache at a directory it does not own cannot destroy unrelated
        files.
        """
        removed = 0
        if not self.directory.is_dir():
            return removed
        for entry in sorted(self.directory.iterdir()):
            if not entry.is_dir() or entry.is_symlink():
                continue
            if (entry / MANIFEST_NAME).is_file() or is_writer_tmp(entry):
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counters for reports and tests."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"StageCache({self.directory}, {state}, {self.stats()})"
