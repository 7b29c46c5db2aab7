"""Ablation bench: cross-device household linking vs the defense.

Runs the device-linking attack against a population of two-device users
under one-time geo-IND: the linker must correctly re-group each user's
devices from obfuscated traffic alone.  This is the ecosystem-level threat
behind the paper's multi-device integration requirement.
"""

import math

import numpy as np

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.attack.linking import DeviceLinker, split_trace_across_devices
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.datagen.obfuscate import one_time_obfuscate
from repro.datagen.population import PopulationConfig, iter_population
from repro.experiments.tables import ExperimentReport


def _run() -> ExperimentReport:
    users = list(iter_population(PopulationConfig(n_users=15, seed=77)))
    mechanism = PlanarLaplaceMechanism.from_level(
        math.log(2), 200.0, rng=default_rng(5)
    )
    rng = default_rng(6)

    observations = {}
    truth = {}
    for user in users:
        slices = split_trace_across_devices(user.trace, 2, rng)
        for d, sl in enumerate(slices):
            device_id = f"{user.user_id}-dev{d}"
            perturbed = one_time_obfuscate(sl, mechanism)
            observations[device_id] = np.array([(c.x, c.y) for c in perturbed])
            truth[device_id] = user.user_id

    linker = DeviceLinker(DeobfuscationAttack.against(mechanism), link_radius=300.0)
    links = linker.link(observations)

    # Score: a link group is correct when every member shares one owner.
    pure = sum(
        1 for link in links if len({truth[d] for d in link.device_ids}) == 1
    )
    paired = sum(1 for link in links if link.size >= 2)
    rows = [
        {
            "devices": len(observations),
            "link_groups": len(links),
            "pure_groups": pure,
            "correctly_paired_households": paired,
        }
    ]
    return ExperimentReport(
        experiment_id="ablation_linking",
        title="cross-device household linking vs one-time geo-IND",
        rows=rows,
        notes=[
            "each user carries two devices; the linker re-groups them from "
            "obfuscated traffic by co-located inferred top locations",
        ],
    )


def test_ablation_linking(benchmark, archive):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    archive(report)
    row = report.rows[0]
    # Most households must be re-paired (homes are well separated in the
    # synthetic city, so linking is near-perfect under one-time geo-IND).
    assert row["correctly_paired_households"] >= 10
    assert row["pure_groups"] >= row["link_groups"] - 2
