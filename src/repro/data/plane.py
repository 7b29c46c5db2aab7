"""One frozen config for the data-plane knobs every driver re-plumbs.

``--workers``, ``--cache``, ``--tier``, ``--mmap`` and ``--cache-dir``
used to be declared, validated, and threaded separately by the
experiment runner, the bench harness, and the top-level CLI — same
semantics, four spellings.  :class:`DataPlaneConfig` is the one place
those knobs live: :func:`add_data_plane_arguments` declares the flags on
any parser, :meth:`DataPlaneConfig.from_args` builds the validated
config from the parsed namespace, and :meth:`DataPlaneConfig.stage_cache`
materialises the cache it asks for.  The config has no process-global
side effects, so drivers hand the object itself to each other.  A new
subcommand inherits the whole data plane by calling two functions.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.data.cache import StageCache
from repro.data.tiers import TIERS

__all__ = ["DataPlaneConfig", "add_data_plane_arguments"]


def add_data_plane_arguments(
    parser: argparse.ArgumentParser,
    default_workers: Optional[int] = None,
    default_cache: bool = False,
) -> None:
    """Declare the shared data-plane flags on ``parser``.

    Defaults are caller-tunable (bench historically defaults to one
    worker and always caches) but the flag spellings and help text are
    fixed here, so every subcommand documents the data plane the same
    way.
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers,
        metavar="N",
        help="process-pool size where the subcommand parallelizes "
        "(default: all cores; results are identical for any N)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=default_cache,
        help="reuse content-addressed stage artifacts under "
        "benchmarks/results/cache (rows are bit-identical either way)",
    )
    parser.add_argument(
        "--tier",
        choices=sorted(TIERS),
        default=None,
        help="named dataset tier for the tier-aware workloads "
        "(overrides the scale's population settings)",
    )
    parser.add_argument(
        "--mmap",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="serve the tier out of core (memmap-backed columns shipped "
        "to workers by path+offset); needs --tier and --cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="stage-cache directory (default: benchmarks/results/cache)",
    )


@dataclass(frozen=True)
class DataPlaneConfig:
    """The validated data-plane knobs, independent of any parser.

    Frozen so a config handed to a driver cannot be mutated mid-run;
    invalid combinations fail at construction with the same messages
    the CLIs have always printed.
    """

    workers: Optional[int] = None
    cache: bool = False
    tier: Optional[str] = None
    mmap: bool = False
    cache_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"--workers must be >= 0, got {self.workers}")
        if self.tier is not None and self.tier not in TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; choose from {sorted(TIERS)}"
            )
        if self.mmap:
            if self.tier is None:
                raise ValueError(
                    "--mmap needs a --tier (only tiers are mmap-served)"
                )
            if not self.cache:
                raise ValueError(
                    "--mmap needs --cache (bundles live beside the stage cache)"
                )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "DataPlaneConfig":
        """Build from a namespace parsed with the shared flags.

        Tolerates parsers that declared only a subset (``getattr`` with
        the field defaults), so legacy subcommands can adopt the config
        without re-declaring every flag at once.
        """
        return cls(
            workers=getattr(args, "workers", None),
            cache=bool(getattr(args, "cache", False)),
            tier=getattr(args, "tier", None),
            mmap=bool(getattr(args, "mmap", False)),
            cache_dir=getattr(args, "cache_dir", None),
        )

    def stage_cache(self) -> Optional[StageCache]:
        """The stage cache this config asks for, or ``None``."""
        if not self.cache:
            return None
        return StageCache(self.cache_dir) if self.cache_dir else StageCache()
