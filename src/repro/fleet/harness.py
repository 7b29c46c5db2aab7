"""Run a scenario against the serve workload and report.

The entry point :func:`run_fleet` resolves a scenario (a built-in name,
a scenario file, or a :class:`~repro.fleet.scenario.Scenario` object),
runs the same seeded serve workload under fault injection, and returns
the :class:`~repro.serve.harness.ServiceReport` — so the fleet CLI, the
fleet-smoke CI job, and the robustness benchmark all drive one code
path.  :func:`repro.obs.record.fleet_record` reduces a faulted run and
its no-fault baseline to the committed ``BENCH_fleet.json`` record.

Serve imports are deferred into the functions: the serve package itself
imports :mod:`repro.fleet.scenario` (shard specs carry scenarios), so a
module-level import here would cycle through ``repro.fleet.__init__``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional, Union

from repro.fleet.scenario import BUILTIN_SCENARIOS, Scenario, builtin_scenario

if TYPE_CHECKING:
    from repro.serve.harness import ServiceReport

__all__ = ["resolve_scenario", "run_fleet"]


def resolve_scenario(
    spec: Union[str, Scenario],
    n_events: int,
    user_ids: List[str],
) -> Scenario:
    """A :class:`Scenario` from a built-in name, a file path, or itself.

    Built-in names win over same-named files (they are documented and
    stable); anything else must exist on disk as a YAML/JSON scenario.
    """
    if isinstance(spec, Scenario):
        return spec
    if spec in BUILTIN_SCENARIOS:
        return builtin_scenario(spec, n_events, user_ids)
    if os.path.exists(spec):
        return Scenario.from_file(spec)
    known = ", ".join(sorted(BUILTIN_SCENARIOS))
    raise ValueError(
        f"unknown scenario {spec!r}: not a built-in ({known}) and not a file"
    )


def run_fleet(
    scenario: Union[str, Scenario, None],
    n_users: int = 50,
    n_events: int = 2_000,
    n_campaigns: int = 200,
    seed: int = 0,
    n_shards: int = 2,
    replay: bool = True,
    use_processes: bool = True,
    qps: float = 0.0,
    checkpoint_dir: Optional[str] = None,
    dispatch_timeout_s: Optional[float] = None,
) -> "ServiceReport":
    """Run the serve workload under ``scenario`` and report.

    ``scenario=None`` runs the no-fault baseline — the digest and SLO
    reference every faulted run is compared against.  Replay is the
    default here (unlike ``run_service``): fault injection is first a
    determinism instrument, live QPS mode is the explicit opt-out.
    """
    from repro.serve.events import workload_user_ids
    from repro.serve.harness import run_service

    resolved: Optional[Scenario] = None
    if scenario is not None:
        resolved = resolve_scenario(
            scenario, n_events, workload_user_ids(n_users)
        )
    return run_service(
        n_users=n_users,
        n_events=n_events,
        n_campaigns=n_campaigns,
        seed=seed,
        n_shards=n_shards,
        qps=qps,
        replay=replay,
        use_processes=use_processes,
        scenario=resolved,
        checkpoint_dir=checkpoint_dir,
        dispatch_timeout_s=dispatch_timeout_s,
    )
