"""Columnar data plane: struct-of-arrays stores and the stage cache.

The experiment pipelines (datagen → profiles → attack → reports) used to
be object-shaped: per-user ``CheckIn``/``Point`` lists rebuilt and
re-serialized on every run.  This package provides the columnar
counterparts:

* :mod:`repro.data.columns` — ``CheckInColumns``/``PopulationColumns``,
  CSR-layout struct-of-arrays containers with converters to and from the
  existing object types;
* :mod:`repro.data.cache` — a content-addressed stage cache that keys
  each expensive pipeline stage on a canonical hash of its config;
* :mod:`repro.data.mmapstore` — the cache's one artifact format:
  ``.npy`` bundles whose large arrays open as ``np.memmap`` views, so
  million-user tiers load as lazily paged file-backed arrays instead of
  heap copies and pool workers attach them by path+offset;
* :mod:`repro.data.stages` — cached builders for the shared pipeline
  stages (population generation, coordinate pools, candidate tables);
* :mod:`repro.data.plane` — :class:`~repro.data.plane.DataPlaneConfig`,
  the one frozen config (and shared argparse flags) for the
  workers/cache/tier/mmap knobs every CLI driver used to re-plumb.

Everything here preserves bit-identical results: the columns hold exactly
the values the object path produced, and cached stage outputs are only
reused for configs whose outputs are deterministic functions of the key.
"""

from repro.data.cache import DEFAULT_CACHE_DIR, StageCache, stage_key
from repro.data.columns import CheckInColumns, PopulationColumns
from repro.data.mmapstore import release_pages
from repro.data.plane import DataPlaneConfig, add_data_plane_arguments
from repro.data.stages import (
    CANDIDATE_TABLE_STAGE_VERSION,
    POPULATION_STAGE_VERSION,
    candidate_table,
    population_columns,
    population_coords_pool,
)

__all__ = [
    "CheckInColumns",
    "DataPlaneConfig",
    "PopulationColumns",
    "add_data_plane_arguments",
    "release_pages",
    "StageCache",
    "stage_key",
    "DEFAULT_CACHE_DIR",
    "population_columns",
    "population_coords_pool",
    "candidate_table",
    "POPULATION_STAGE_VERSION",
    "CANDIDATE_TABLE_STAGE_VERSION",
]
