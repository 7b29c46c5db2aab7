"""The privacy-flow policy: sources, sanitizers, sinks, charges.

This module is pure configuration — the taint engine and the flow rules
consult a :class:`FlowPolicy` instead of hard-coding names, so tests can
run the engine against synthetic fixtures with a narrow policy, and the
catalogue documented in ``docs/static_analysis.md`` has a single source
of truth.

The default policy encodes the paper's trust boundary:

* **sources** — functions that materialize raw check-in coordinates
  (synthetic population generators, cached population stage builders);
* **sanitizers** — the geo-indistinguishability mechanisms and their
  columnar fast paths; their outputs are safe to release;
* **sinks** — surfaces the honest-but-curious ad provider (or anyone
  outside the trust boundary) can read: the ads package, trace/metrics
  emission, cache artifacts, stdout/file writes;
* **charges** — ledger/accountant calls that pay for a release;
* **declassifiers** — aggregations whose output no longer identifies a
  location (distances, entropies, attack metrics) or carries only what
  the edge service released (``run_population``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

__all__ = ["FlowPolicy", "default_policy"]


@dataclass(frozen=True)
class FlowPolicy:
    """Names that drive the taint engine and the PRIV/BUD/DET rules."""

    # -- raw-coordinate sources -------------------------------------------
    #: Any resolved callee under these prefixes returns RAW data ...
    source_prefixes: Tuple[str, ...] = ("repro.datagen.",)
    #: ... except callees under these prefixes (the sanitizer helpers
    #: live inside repro.datagen, and repro.datagen.shanghai holds
    #: geography constants — study bounding box, not check-ins).
    source_exempt_prefixes: Tuple[str, ...] = (
        "repro.datagen.obfuscate",
        "repro.datagen.shanghai",
    )
    #: Exact qnames that return RAW data.
    source_functions: FrozenSet[str] = frozenset(
        {
            "repro.data.stages.population_columns",
            "repro.data.stages.population_coords_pool",
            "repro.data.tiers.tier_columns",
        }
    )

    # -- rng sources -------------------------------------------------------
    #: Calls producing a live RNG object (bare or dotted tails).
    rng_constructors: FrozenSet[str] = frozenset(
        {
            "default_rng",
            "numpy.random.default_rng",
            "np.random.default_rng",
            "numpy.random.Generator",
            "np.random.Generator",
            "repro.core.mechanism.default_rng",
            "repro.kernels.gaussian.user_rng",
        }
    )
    #: Calls that launder seeds safely across process boundaries.
    rng_sanctioned: FrozenSet[str] = frozenset(
        {
            "SeedSequence",
            "numpy.random.SeedSequence",
            "np.random.SeedSequence",
            "spawn",
        }
    )

    # -- sanitizers --------------------------------------------------------
    #: Method names that obfuscate (the Mechanism protocol surface).
    sanitizer_methods: FrozenSet[str] = frozenset(
        {"obfuscate", "obfuscate_batch", "obfuscate_one", "obfuscate_stream"}
    )
    #: Resolved function qnames that obfuscate.
    sanitizer_functions: FrozenSet[str] = frozenset(
        {
            "repro.datagen.obfuscate.one_time_obfuscate",
            "repro.datagen.obfuscate.one_time_obfuscate_xy",
            "repro.kernels.obfuscate.one_time_laplace_population",
            "repro.kernels.gaussian.pin_candidates_population",
        }
    )

    # -- sinks -------------------------------------------------------------
    #: PRIV001: resolved callees under these prefixes are ad-provider
    #: surfaces; raw arguments cross the trust boundary.  The serve
    #: egress is the streaming service's response path — everything a
    #: :class:`repro.serve.egress.ServeResponse` carries leaves the edge,
    #: so feeding it raw coordinates is exactly the PRIV001 violation.
    ads_prefixes: Tuple[str, ...] = ("repro.ads.", "repro.serve.egress.")
    #: PRIV002: resolved callees under these prefixes emit traces/metrics.
    obs_prefixes: Tuple[str, ...] = ("repro.obs.",)
    #: PRIV002: unresolved attribute calls with these names on any
    #: receiver count as trace emission (span.annotate(...)).
    obs_methods: FrozenSet[str] = frozenset({"annotate"})
    #: PRIV003: cache-artifact writes.
    cache_store_qnames: FrozenSet[str] = frozenset(
        {
            "repro.data.cache.StageCache.store",
            "repro.data.mmapstore.MmapStore.store",
            # Fleet checkpoints persist whole actor snapshots — including
            # the open profile window's true check-ins — so every write
            # is an audited artifact, same as the stage caches.
            "repro.fleet.checkpoint.CheckpointStore.put",
        }
    )
    cache_store_methods: FrozenSet[str] = frozenset({"store"})
    #: PRIV004: stdout / file-write calls (bare or dotted tails).
    io_calls: FrozenSet[str] = frozenset(
        {
            "print",
            "json.dump",
            "pickle.dump",
            "numpy.save",
            "np.save",
            "numpy.savez",
            "np.savez",
            "numpy.savez_compressed",
            "np.savez_compressed",
            "numpy.savetxt",
            "np.savetxt",
        }
    )
    #: PRIV004: attribute calls that write to a file-like object.
    io_methods: FrozenSet[str] = frozenset(
        {"write", "writelines", "write_text", "write_bytes", "writerow", "writerows"}
    )
    #: PRIV004: report constructors whose rows are rendered to stdout.
    report_qnames: FrozenSet[str] = frozenset(
        {"repro.experiments.tables.ExperimentReport"}
    )

    # -- budget charges ----------------------------------------------------
    #: Resolved qnames that charge a privacy budget.
    charge_qnames: FrozenSet[str] = frozenset(
        {
            "repro.core.ledger.PrivacyLedger.spend",
            "repro.core.accounting.LongitudinalExposureAccountant.observe",
        }
    )
    #: Unresolved attribute calls with these names count as charges
    #: ("spend" is unambiguous; "observe" is not — Histogram.observe —
    #: so it is only credited when the receiver type resolves).
    charge_methods: FrozenSet[str] = frozenset({"spend"})
    #: Modules whose sanitizer call sites are exempt from BUD101: the
    #: mechanism/kernel implementations themselves, and wrapper helpers.
    charge_exempt_prefixes: Tuple[str, ...] = (
        "repro.core.",
        "repro.kernels.",
        "repro.datagen.obfuscate",
    )

    # -- declassifiers -----------------------------------------------------
    #: Builtins/methods whose result carries no location information.
    declassifier_calls: FrozenSet[str] = frozenset({"len", "isinstance", "hash"})
    declassifier_methods: FrozenSet[str] = frozenset(
        {"distance_to", "entropy", "hexdigest", "digest"}
    )
    declassifier_prefixes: Tuple[str, ...] = ("repro.metrics.",)
    #: ``run_population`` takes raw traces and returns the edge service's
    #: egress record.  Each response field comes from a trusted edge step
    #: whose summary ``tests/analysis/test_selfcheck.py`` pins: the
    #: reported point from ``UserActor.handle_checkin`` (depends on no raw
    #: argument, charges the ledger/accountant); the delivered-ad ids and
    #: received count from the auction on that reported point, narrowed by
    #: the AOI filter on the true point — the trusted edge-side filter,
    #: whose selection goes to the user's own device, not the provider.
    declassifier_functions: FrozenSet[str] = frozenset(
        {
            "repro.attack.success.evaluate_user",
            "repro.attack.success.success_rate",
            "repro.serve.harness.run_population",
        }
    )

    # -- parallel boundary -------------------------------------------------
    #: Fan-out entry points: first positional argument is the worker fn,
    #: ``items``/second positional and the ``payload`` kwarg cross the
    #: process boundary.
    parallel_map_qnames: FrozenSet[str] = frozenset(
        {
            "repro.parallel.pool.parallel_map",
            "repro.parallel.pool.parallel_map_with_stats",
        }
    )
    #: Modules exempt from DET202 (the pool implementation itself uses
    #: a module-global payload slot by design).
    det_exempt_prefixes: Tuple[str, ...] = ("repro.parallel.",)

    #: Extra qnames treated as sources in tests.
    extra_sources: FrozenSet[str] = frozenset()

    # -- trusted output layers ---------------------------------------------
    #: Modules whose own bodies are trusted sinks: calls inside them are
    #: never classified as sink events, so e.g. ``StageCache.store``'s
    #: internal file writes don't surface as a second, redundant PRIV004
    #: on top of the PRIV003 reported at the caller's ``store(...)`` site.
    sink_exempt_prefixes: Tuple[str, ...] = (
        "repro.data.cache",
        "repro.data.mmapstore",
        "repro.fleet.checkpoint",
        "repro.experiments.tables",
        "repro.experiments.runner",
        "repro.obs.",
        "repro.analysis.",
    )

    # -- queries -----------------------------------------------------------

    def is_source(self, qname: str) -> bool:
        """Whether a resolved callee returns raw coordinates."""
        if qname in self.source_functions or qname in self.extra_sources:
            return True
        if any(qname.startswith(p) for p in self.source_exempt_prefixes):
            return False
        return any(qname.startswith(p) for p in self.source_prefixes)

    def is_sanitizer(self, qname: Optional[str], attr: Optional[str]) -> bool:
        """Whether a call site obfuscates its input."""
        if qname is not None:
            if qname in self.sanitizer_functions:
                return True
            tail = qname.rsplit(".", 1)[-1]
            if tail in self.sanitizer_methods:
                return True
        return attr is not None and attr in self.sanitizer_methods

    def is_charge(self, qname: Optional[str], attr: Optional[str]) -> bool:
        """Whether a call site charges a ledger/accountant."""
        if qname is not None and qname in self.charge_qnames:
            return True
        return attr is not None and attr in self.charge_methods

    def charge_exempt(self, module: str) -> bool:
        """Whether BUD101 skips sanitizer call sites in ``module``."""
        return any(module.startswith(p) for p in self.charge_exempt_prefixes)

    def is_rng_constructor(self, name: Optional[str]) -> bool:
        """Whether a call produces a live RNG object."""
        if name is None:
            return False
        return name in self.rng_constructors or (
            name.rsplit(".", 1)[-1] in {"default_rng", "user_rng"}
        )

    def is_rng_sanctioned(self, name: Optional[str]) -> bool:
        """Whether a call is the sanctioned SeedSequence idiom."""
        if name is None:
            return False
        return name in self.rng_sanctioned or name.rsplit(".", 1)[-1] in {
            "SeedSequence",
            "spawn",
        }

    def is_declassifier(self, qname: Optional[str], attr: Optional[str]) -> bool:
        """Whether a call's result carries no location information."""
        if attr is not None and attr in self.declassifier_methods:
            return True
        if qname is None:
            return False
        if qname in self.declassifier_calls or qname in self.declassifier_functions:
            return True
        return any(qname.startswith(p) for p in self.declassifier_prefixes)

    def is_parallel_map(self, qname: Optional[str]) -> bool:
        """Whether a resolved callee is the process-pool fan-out."""
        return qname is not None and qname in self.parallel_map_qnames

    def det_exempt(self, module: str) -> bool:
        """Whether DET202 skips functions defined in ``module``."""
        return any(module.startswith(p) for p in self.det_exempt_prefixes)

    def sink_exempt(self, module: str) -> bool:
        """Whether calls inside ``module`` skip sink classification."""
        return any(module.startswith(p) for p in self.sink_exempt_prefixes)


_DEFAULT = FlowPolicy()


def default_policy() -> FlowPolicy:
    """The policy encoding the repo's actual trust boundary."""
    return _DEFAULT
