"""The one worker payload transport: large arrays ship as path+offset refs.

Shipping a population to pool workers through pickling copies every array
once per worker (and once more into each worker's heap).  Instead,
``export_payload`` walks an arbitrary payload tree (arrays, dicts, lists,
tuples, dataclasses) and swaps every array of at least
:data:`SHARED_MIN_BYTES` for a :class:`MmapArrayRef` — a file path, a
byte offset, a shape and a dtype.  ``import_payload`` reverses the walk
inside the worker with one ``np.memmap`` call per ref, so every worker
maps the same physical pages read-only.

Where the bytes come from decides what the export costs:

* arrays that are already **file-backed** — ``np.memmap`` instances or
  views whose base chain bottoms out in one, e.g. columns loaded from a
  :class:`~repro.data.cache.StageCache` bundle — ship as they are:
  nothing is copied, and the parent owns nothing;
* **heap** arrays are copied once into a ``multiprocessing.shared_memory``
  segment and described by the segment's tmpfs path (``/dev/shm/<name>``
  on Linux).  The returned :class:`ShmLease` owns the segments; the
  parent releases it (close + unlink) once the pool is done, and the
  resource tracker unlinks them should the parent die first.

Small arrays pass through untouched and ride the pickle.  Where segments
have no file path, export raises ``OSError`` internally and the original
payload comes back with an empty lease — the caller pickles it whole.  A
ref whose file vanished before a worker attached makes the pool's
initializer fail, and ``parallel_map`` degrades to its serial path.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = [
    "SHARED_MIN_BYTES",
    "SHM_DIR",
    "MmapArrayRef",
    "ShmLease",
    "count_payload_arrays",
    "export_payload",
    "import_payload",
    "memmap_backing",
]

#: Arrays below this size ride the normal pickle path: a 256 KiB copy per
#: worker costs less than a segment create + map round trip.  Cache
#: bundles use the same line to decide which arrays load as maps.
SHARED_MIN_BYTES = 1 << 18

#: The tmpfs directory where POSIX shared-memory segments appear as files.
SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class MmapArrayRef:
    """A by-path descriptor of one array living in a file.

    ``offset`` is the byte position of the array's first element within
    the file (the ``.npy`` header plus any view displacement, or 0 for a
    shared-memory segment), so a worker reattaches with a single
    ``np.memmap`` call.
    """

    path: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int


def memmap_backing(arr: np.ndarray) -> "np.memmap | None":
    """The ``np.memmap`` an array is a view into, or ``None``.

    Walks the ``.base`` chain: canonicalisation such as
    ``np.ascontiguousarray`` strips the ``memmap`` subclass but keeps the
    buffer, so file-backed columns usually arrive here as plain
    ``ndarray`` views whose base bottoms out in the original map.  The
    walk keeps the *deepest* memmap it sees: slicing a memmap yields a
    memmap subclass view whose ``.offset`` attribute is inherited
    verbatim from its parent (stale for the view), so only the root map's
    offset is authoritative.
    """
    deepest = None
    seen: Any = arr
    while seen is not None:
        if isinstance(seen, np.memmap):
            deepest = seen
        seen = getattr(seen, "base", None)
    return deepest


def _as_mmap_ref(arr: np.ndarray) -> "MmapArrayRef | None":
    """Describe ``arr`` by path+offset if its bytes already live in a file.

    Requires a C-contiguous view with a known filename; anything else
    (strided slices, anonymous maps) returns ``None`` and is copied into
    a segment instead.
    """
    mm = memmap_backing(arr)
    if mm is None or not arr.flags.c_contiguous:
        return None
    filename = getattr(mm, "filename", None)
    if filename is None:
        return None
    arr_ptr = arr.__array_interface__["data"][0]
    mm_ptr = mm.__array_interface__["data"][0]
    # mm's first byte sits at file offset mm.offset; arr's displacement
    # within the map carries over verbatim.
    offset = int(mm.offset) + (int(arr_ptr) - int(mm_ptr))
    if offset < 0:
        return None
    return MmapArrayRef(
        path=str(filename), shape=tuple(arr.shape), dtype=arr.dtype.str,
        offset=offset,
    )


@dataclass(frozen=True)
class _DataclassNode:
    """An exported dataclass: its type plus per-field exported values.

    Dataclasses cannot carry refs in their own fields (their
    ``__post_init__`` validation expects real arrays), so the export walk
    flattens them and the import walk reconstructs via ``cls(**fields)``
    once the arrays are attached.
    """

    cls: type
    fields: Dict[str, Any]


class ShmLease:
    """Parent-side ownership of the segments one export created.

    The parent must keep the lease alive while workers may attach, then
    :meth:`release` it — segments are reference counted by the OS, so
    close + unlink here leaves already-attached workers unaffected.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        #: Bytes the export copied into segments (one copy in total).
        self.total_bytes = 0
        # File-backed arrays shipped by reference: counted here for the
        # transport accounting, but never owned — the cache bundle (or
        # whoever created the file) controls its lifetime.
        self.mmap_arrays = 0
        self.mmap_bytes = 0

    @property
    def n_segments(self) -> int:
        """Number of shared segments this lease owns."""
        return len(self._segments)

    def add(self, segment: shared_memory.SharedMemory, nbytes: int) -> None:
        """Record a newly created segment under this lease."""
        self._segments.append(segment)
        self.total_bytes += nbytes

    def release(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # already gone (e.g. manual cleanup)
                pass
        self._segments.clear()


def count_payload_arrays(payload: Any) -> Tuple[int, int]:
    """``(n_arrays, total_bytes)`` of every ndarray in a payload tree.

    Used to meter what stays on the pickle path — the same walk
    :func:`export_payload` does, without exporting.
    """
    if isinstance(payload, np.ndarray):
        return 1, payload.nbytes
    if isinstance(payload, dict):
        values: Any = payload.values()
    elif isinstance(payload, (list, tuple)):
        values = payload
    elif dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        values = [
            getattr(payload, f.name) for f in dataclasses.fields(payload)
        ]
    else:
        return 0, 0
    n_arrays = 0
    n_bytes = 0
    for value in values:
        n, b = count_payload_arrays(value)
        n_arrays += n
        n_bytes += b
    return n_arrays, n_bytes


def _spill(arr: np.ndarray, lease: ShmLease) -> MmapArrayRef:
    """Copy a heap array once into a new segment, described by its path."""
    segment = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    lease.add(segment, arr.nbytes)
    path = os.path.join(SHM_DIR, segment.name)
    if not os.path.exists(path):
        raise OSError(f"shared-memory segment {segment.name} has no file at {path}")
    view: np.ndarray = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
    view[...] = arr
    return MmapArrayRef(
        path=path, shape=tuple(arr.shape), dtype=arr.dtype.str, offset=0
    )


def _export_array(arr: np.ndarray, lease: ShmLease) -> "np.ndarray | MmapArrayRef":
    if arr.nbytes < SHARED_MIN_BYTES:
        return arr
    mmap_ref = _as_mmap_ref(arr)
    if mmap_ref is None:
        return _spill(arr, lease)
    # Already on disk: ship the descriptor, copy nothing.
    lease.mmap_arrays += 1
    lease.mmap_bytes += arr.nbytes
    return mmap_ref


def _export(value: Any, lease: ShmLease) -> Any:
    if isinstance(value, (MmapArrayRef, _DataclassNode)):
        return value
    if isinstance(value, np.ndarray):
        return _export_array(value, lease)
    if isinstance(value, dict):
        out_dict = {k: _export(v, lease) for k, v in value.items()}
        if all(out_dict[k] is value[k] for k in value):
            return value
        return out_dict
    if isinstance(value, (list, tuple)):
        out_items = [_export(v, lease) for v in value]
        if all(a is b for a, b in zip(out_items, value)):
            return value
        return type(value)(out_items)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in dataclasses.fields(value)]
        exported = {n: _export(getattr(value, n), lease) for n in names}
        if all(exported[n] is getattr(value, n) for n in names):
            return value
        return _DataclassNode(cls=type(value), fields=exported)
    return value


def export_payload(payload: Any) -> Tuple[Any, ShmLease]:
    """Rewrite a payload tree, swapping large arrays for path+offset refs.

    Returns ``(exported, lease)``.  If the OS refuses shared memory the
    original payload comes back with an empty lease — the caller's pickle
    path still works.
    """
    lease = ShmLease()
    try:
        exported = _export(payload, lease)
    except OSError:
        lease.release()
        return payload, ShmLease()
    return exported, lease


def _attach(ref: MmapArrayRef) -> np.ndarray:
    """Map a shipped array read-only at its recorded offset.

    Returns a plain ``ndarray`` view of the map: slicing the ``memmap``
    subclass itself runs Python code on every call.
    """
    arr: np.ndarray = np.memmap(
        ref.path,
        dtype=np.dtype(ref.dtype),
        mode="r",
        offset=ref.offset,
        shape=ref.shape,
    ).view(np.ndarray)
    arr.flags.writeable = False
    return arr


def import_payload(payload: Any) -> Any:
    """Resolve every ref in an exported payload tree back into arrays.

    Views are read-only — the pages are shared with the parent and every
    sibling worker.  Payloads without refs pass through unchanged.
    """
    if isinstance(payload, MmapArrayRef):
        return _attach(payload)
    if isinstance(payload, _DataclassNode):
        return payload.cls(
            **{name: import_payload(v) for name, v in payload.fields.items()}
        )
    if isinstance(payload, dict):
        return {k: import_payload(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return type(payload)(import_payload(v) for v in payload)
    return payload
