"""Population-level array kernels over the CSR columnar plane.

Each kernel consumes an entire ``CheckInColumns``/``PopulationColumns``
shard and replaces a per-user python loop with one (or a handful of)
array passes, while staying bit-identical to the per-user object path it
supersedes:

* :mod:`repro.kernels.cluster` — connectivity clustering for every
  user's check-ins at once (grid cells, a windowed neighbour scan, box
  pruning, C-level connected components), producing the partition.
* :mod:`repro.kernels.profiles` — location profiles (centroids + counts,
  profile-ordered) via global bincounts over that partition and integer
  sort keys.
* :mod:`repro.kernels.frequent` — eta-frequent location sets via a
  segment cumsum (Algorithm 2 for the whole shard).
* :mod:`repro.kernels.gaussian` — batched n-fold Gaussian pinning with
  per-user ``SeedSequence.spawn`` streams preserved, every stream of a
  chunk seeded in one array pass (``user_uniforms``).
* :mod:`repro.kernels.obfuscate` — the one-time Laplace reporting
  stream per shard (the Edge-PrivLocAd stream is the serve actor's,
  :class:`repro.serve.actor.UserActor`).

The property suite (``tests/property/test_kernel_equivalence.py``) pins
every kernel against its per-user reference.
"""

from repro.kernels.cluster import population_component_labels
from repro.kernels.frequent import population_eta_counts, population_eta_tops
from repro.kernels.gaussian import (
    pin_candidates_population,
    user_rng,
    user_uniforms,
)
from repro.kernels.obfuscate import one_time_laplace_population
from repro.kernels.profiles import ProfileColumns, population_profiles

__all__ = [
    "population_component_labels",
    "ProfileColumns",
    "population_profiles",
    "population_eta_counts",
    "population_eta_tops",
    "user_rng",
    "user_uniforms",
    "pin_candidates_population",
    "one_time_laplace_population",
]
