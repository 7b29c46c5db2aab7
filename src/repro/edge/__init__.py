"""The Edge-PrivLocAd edge modules (paper Section V).

Location management, the permanent obfuscation table, and output
selection, plus risk assessment and secure profile merging.  The
per-user pipeline that runs them is :class:`repro.serve.actor.UserActor`.
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

from repro.edge.secure_merge import (
    MODULUS,
    GridSpec,
    SecureProfileMerge,
    reconstruct_histogram,
    share_histogram,
)

__all__ += [
    "GridSpec",
    "SecureProfileMerge",
    "share_histogram",
    "reconstruct_histogram",
    "MODULUS",
]

from repro.edge.risk import RiskAssessment, RiskAssessor, RiskLevel, self_attack_margin

__all__ += ["RiskAssessor", "RiskAssessment", "RiskLevel", "self_attack_margin"]
