"""The Edge-PrivLocAd edge modules (paper Section V).

Location management, the permanent obfuscation table, and output
selection, plus risk assessment and the time sources their latency
readings come from.  The per-user pipeline that runs them is
:class:`repro.serve.actor.UserActor`; the table's one durable form is
:meth:`ObfuscationModule.snapshot`, carried inside
:meth:`UserActor.snapshot <repro.serve.actor.UserActor.snapshot>` and
stored by :class:`repro.fleet.checkpoint.CheckpointStore`.
"""

from repro.edge.clock import TimeSource, VirtualTimeSource, WallTimeSource
from repro.edge.location_management import DEFAULT_ETA, LocationManagementModule
from repro.edge.obfuscation import ObfuscationModule, ObfuscationTable
from repro.edge.output_selection import OutputSelectionModule

__all__ = [
    "LocationManagementModule",
    "DEFAULT_ETA",
    "ObfuscationModule",
    "ObfuscationTable",
    "OutputSelectionModule",
    "TimeSource",
    "WallTimeSource",
    "VirtualTimeSource",
]

from repro.edge.risk import RiskAssessment, RiskAssessor, RiskLevel, self_attack_margin

__all__ += ["RiskAssessor", "RiskAssessment", "RiskLevel", "self_attack_margin"]
