"""Synthetic data substrate calibrated to the paper's dataset statistics."""

from repro.datagen.casestudy import make_fig2_user, make_fig4_user
from repro.datagen.mobility import MobilityModel, TopLocation
from repro.datagen.obfuscate import one_time_obfuscate
from repro.datagen.population import (
    PopulationConfig,
    SyntheticUser,
    generate_population,
    iter_population,
)
from repro.datagen.shanghai import (
    SHANGHAI_GEO_BBOX,
    SHANGHAI_PROJECTION,
    STUDY_DAYS,
    STUDY_END_TS,
    STUDY_START_TS,
    shanghai_planar_bbox,
)

__all__ = [
    "MobilityModel",
    "TopLocation",
    "PopulationConfig",
    "SyntheticUser",
    "generate_population",
    "iter_population",
    "make_fig2_user",
    "make_fig4_user",
    "one_time_obfuscate",
    "SHANGHAI_GEO_BBOX",
    "SHANGHAI_PROJECTION",
    "STUDY_START_TS",
    "STUDY_END_TS",
    "STUDY_DAYS",
    "shanghai_planar_bbox",
]
