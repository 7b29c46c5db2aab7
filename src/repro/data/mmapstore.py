"""The one on-disk artifact format: ``.npy`` bundles behind a manifest.

Every :class:`~repro.data.cache.StageCache` artifact is a *bundle*: a
directory holding one plain ``.npy`` file per array plus a JSON manifest
(names, dtypes, shapes, byte sizes).  A :class:`BundleWriter` fills the
arrays in a temporary sibling directory, writes the manifest last, and
publishes the whole directory with one atomic rename, so a reader only
ever sees complete bundles and "the manifest exists" means "the bundle
is published".

:func:`read_bundle` opens the arrays read-only.  Arrays of at least
:data:`~repro.parallel.shared.SHARED_MIN_BYTES` come back as views of
an ``np.memmap``: the ``.npy`` payload *is* the array's memory, so
the OS pages it in on first touch and may evict it under pressure —
which keeps peak RSS bounded for populations that do not fit the worker
fleet's budget — and :mod:`repro.parallel.shared` ships them to pool
workers by path+offset without copying a byte.  Smaller arrays load
eagerly: a CPython ``mmap`` holds a duplicated file descriptor for its
lifetime, and mapping every tiny per-row artifact would run a long sweep
out of descriptors.

A bundle whose manifest is unreadable, whose files are missing, or whose
``.npy`` payload is truncated or disagrees with the manifest raises from
:func:`read_bundle`; the cache turns that into a miss and regenerates.
"""

from __future__ import annotations

import json
import mmap as _mmap_module
import os
import shutil
import tempfile
from pathlib import Path
from types import TracebackType
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type

import numpy as np

from repro.parallel.shared import SHARED_MIN_BYTES

__all__ = [
    "MANIFEST_NAME",
    "BundleWriter",
    "is_writer_tmp",
    "read_bundle",
    "release_pages",
]

#: Per-bundle metadata file: array names, dtypes, shapes, byte sizes.
MANIFEST_NAME = "manifest.json"

#: Array name -> (shape, dtype string) for a bundle about to be written.
Specs = Mapping[str, Tuple[Tuple[int, ...], str]]


def release_pages(*arrays: np.ndarray) -> None:
    """Advise the kernel to drop resident pages behind memmap-backed arrays.

    This is what keeps peak RSS flat for chunk-streamed walks over a
    bundle much larger than memory: after a window is processed, its
    pages are surrendered (``MADV_DONTNEED``), and the next window
    faults its own pages in from the page cache.  Safe on shared
    file mappings — dropped pages repopulate from the file — and a
    silent no-op for heap arrays, read-only platforms, or interpreters
    without ``mmap.madvise``.
    """
    for arr in arrays:
        base: Any = arr
        while base is not None and not isinstance(base, np.memmap):
            base = getattr(base, "base", None)
        if base is None:
            continue
        raw = getattr(base, "_mmap", None)
        if raw is None:
            continue
        try:
            raw.madvise(_mmap_module.MADV_DONTNEED)
        except (AttributeError, ValueError, OSError):  # pragma: no cover
            pass


#: Name affixes of a :class:`BundleWriter`'s temporary directory.
_TMP_PREFIX = "."
_TMP_SUFFIX = ".tmp"


def is_writer_tmp(path: Path) -> bool:
    """Whether ``path`` names a :class:`BundleWriter`'s temporary directory."""
    return path.name.startswith(_TMP_PREFIX) and path.name.endswith(_TMP_SUFFIX)


def _open_npy(path: Path, dtype: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Open one ``.npy`` payload read-only: mapped if large, loaded if small.

    A mapped payload comes back as a plain ``ndarray`` view of its
    ``np.memmap`` (the ``.base`` keeps the map alive): the ``memmap``
    subclass runs Python code on every slice, several times the cost of
    a plain slice in the per-user loops.  A header/dtype/shape mismatch
    with the manifest, or a file shorter than the header promises,
    raises ``ValueError`` for the caller's corruption handling.
    """
    nbytes = np.dtype(dtype).itemsize * int(np.prod(shape))
    if nbytes >= SHARED_MIN_BYTES:
        arr = np.load(path, mmap_mode="r").view(np.ndarray)
    else:
        arr = np.load(path)
    if arr.dtype.str != dtype or tuple(arr.shape) != tuple(shape):
        raise ValueError(
            f"{path}: payload is {arr.dtype.str}{arr.shape}, "
            f"manifest says {dtype}{tuple(shape)}"
        )
    arr.flags.writeable = False
    return arr


def read_bundle(bundle: Path) -> Tuple[Dict[str, np.ndarray], int]:
    """The arrays of a published bundle plus their total byte count.

    Raises ``OSError``/``ValueError``/``EOFError``/``KeyError``/
    ``TypeError`` on any inconsistency (``json.JSONDecodeError`` is a
    ``ValueError``; an empty ``.npy`` file raises ``EOFError``).
    """
    manifest = json.loads((bundle / MANIFEST_NAME).read_text())
    arrays: Dict[str, np.ndarray] = {}
    total = 0
    for name, entry in manifest["arrays"].items():
        arrays[name] = _open_npy(
            bundle / f"{name}.npy",
            str(entry["dtype"]),
            tuple(int(d) for d in entry["shape"]),
        )
        total += int(entry["nbytes"])
    return arrays, total


class BundleWriter:
    """Preallocated writable bundle, committed atomically.

    ``writer.arrays[name]`` are ``w+`` memmaps created in a temporary
    sibling of ``bundle``; filling them streams straight to disk, so the
    writer's heap footprint is independent of the bundle size.
    :meth:`commit` flushes, writes the manifest, renames the directory
    into place and reports the byte count to ``on_commit``.  Use as a
    context manager: an exception aborts and removes the temporary
    directory.
    """

    def __init__(
        self,
        bundle: Path,
        specs: Specs,
        on_commit: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._final = Path(bundle)
        self._on_commit = on_commit
        self._final.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = Path(
            tempfile.mkdtemp(
                prefix=f"{_TMP_PREFIX}{self._final.name}.", suffix=_TMP_SUFFIX,
                dir=str(self._final.parent),
            )
        )
        self.arrays: Dict[str, np.ndarray] = {}
        self._manifest: Dict[str, Dict[str, object]] = {}
        for name, (shape, dtype) in specs.items():
            path = self._tmp / f"{name}.npy"
            if int(np.prod(shape)) == 0:
                # Zero-size arrays cannot be mapped: there are no pages.
                empty = np.empty(shape, dtype=np.dtype(dtype))
                np.save(path, empty)
                self.arrays[name] = empty
            else:
                self.arrays[name] = np.lib.format.open_memmap(
                    str(path), mode="w+", dtype=np.dtype(dtype), shape=tuple(shape)
                )
            self._manifest[name] = {
                "dtype": np.dtype(dtype).str,
                "shape": list(shape),
                "nbytes": int(np.dtype(dtype).itemsize * int(np.prod(shape))),
            }

    def __enter__(self) -> "BundleWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def commit(self) -> Path:
        """Flush every array, write the manifest, and publish the bundle."""
        total = 0
        for arr in self.arrays.values():
            if isinstance(arr, np.memmap):
                arr.flush()
            total += int(arr.nbytes)
        (self._tmp / MANIFEST_NAME).write_text(
            json.dumps({"version": 1, "arrays": self._manifest}, sort_keys=True)
        )
        # Release the writable mappings before the rename: readers attach
        # their own read-only maps to the published path.
        self.arrays = {}
        try:
            os.replace(self._tmp, self._final)
        except OSError:
            if not (self._final / MANIFEST_NAME).is_file():
                # Not a published bundle but a damaged leftover: replace it.
                shutil.rmtree(self._final, ignore_errors=True)
                try:
                    os.replace(self._tmp, self._final)
                except OSError:
                    self.abort()
                    raise
            else:
                # A concurrent writer published first; its bundle is
                # byte-identical (content-addressed key), keep it.
                shutil.rmtree(self._tmp, ignore_errors=True)
        if self._on_commit is not None:
            self._on_commit(total)
        return self._final

    def abort(self) -> None:
        """Discard the temporary directory without publishing."""
        self.arrays = {}
        shutil.rmtree(self._tmp, ignore_errors=True)
