"""The per-user actor: one user's entire edge state behind one mailbox.

This is the paper's Section V edge pipeline (location management, the
pinned n-fold obfuscation table with output selection, the nomadic
one-shot path), run per user.  An edge device serves many users, but
which users land together on a shard depends on the shard count, so
nothing may be shared between them: a :class:`UserActor` owns
*everything* private to its user — profile windows, the permanent
obfuscation table, the pin-state, the privacy ledger, the nomadic
accountant, and the RNG — and seeds the RNG from
``SeedSequence(entropy=seed, spawn_key=(user_index,))``: the actor's
behaviour is a pure function of ``(seed, user_index,`` its own event
subsequence``)``, never of which shard or process runs it.

Events for one user are processed strictly in schedule order (the shard
loop guarantees it), which is the actor-model serialisation the edge's
permanence invariant needs: the obfuscation table is only ever touched
by one event at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.accounting import LongitudinalExposureAccountant
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.ledger import PrivacyLedger
from repro.core.params import GeoIndBudget
from repro.edge.clock import TimeSource, WallTimeSource
from repro.edge.location_management import DEFAULT_ETA, LocationManagementModule
from repro.edge.obfuscation import ObfuscationModule
from repro.edge.output_selection import OutputSelectionModule
from repro.geo.point import Point
from repro.metrics.utilization import DEFAULT_TARGETING_RADIUS_M
from repro.profiles.checkin import CheckIn
from repro.profiles.profile import DEFAULT_CONNECT_RADIUS_M
from repro.profiles.windows import DEFAULT_WINDOW_DAYS

__all__ = ["EdgeConfig", "UserActor"]


@dataclass(frozen=True)
class EdgeConfig:
    """Edge-pipeline settings shared by every user actor."""

    budget: GeoIndBudget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
    eta: float = DEFAULT_ETA
    window_days: float = DEFAULT_WINDOW_DAYS
    connect_radius: float = DEFAULT_CONNECT_RADIUS_M
    #: A check-in within this distance of a current top location is served
    #: from the pinned candidate set.
    match_radius: float = 100.0
    #: Delivered ads must lie within this distance of the true location
    #: (the edge's area-of-interest filter).
    targeting_radius: float = DEFAULT_TARGETING_RADIUS_M


class UserActor:
    """One user's edge-private state and serve logic."""

    def __init__(
        self,
        user_id: str,
        user_index: int,
        seed: int,
        config: EdgeConfig,
        time_source: Optional[TimeSource] = None,
        ledger_max_epsilon: Optional[float] = None,
        epoch: int = 0,
    ) -> None:
        self.user_id = user_id
        self.user_index = user_index
        self.seed = seed
        #: Incarnation number.  Epoch 0 is the original actor; a *lossy*
        #: device crash (state not persisted) bumps it, so the rebuilt
        #: actor draws a fresh — still deterministic — noise stream
        #: instead of replaying the one the attacker already saw.  Epoch 0
        #: keeps the historical ``(2, user_index)`` spawn key so no-fault
        #: digests are unchanged.
        self.epoch = epoch
        spawn_key: Tuple[int, ...] = (
            (2, user_index) if epoch == 0 else (2, user_index, epoch)
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
        )
        #: The single Generator shared by the n-fold mechanism, the
        #: nomadic mechanism, and posterior output selection.  Keeping the
        #: reference lets checkpoint/restore capture every noise stream by
        #: saving one bit-generator state.
        self._rng = rng
        self.config = config
        self.time_source: TimeSource = (
            time_source if time_source is not None else WallTimeSource()
        )
        self._nfold = NFoldGaussianMechanism(config.budget, rng=rng)
        self._nomadic = GaussianMechanism(config.budget.with_n(1), rng=rng)
        self.ledger = PrivacyLedger(max_epsilon=ledger_max_epsilon)
        self.accountant: LongitudinalExposureAccountant = (
            LongitudinalExposureAccountant()
        )
        self.management = LocationManagementModule(
            eta=config.eta,
            window_days=config.window_days,
            connect_radius=config.connect_radius,
        )
        self.obfuscation = ObfuscationModule(
            self._nfold,
            match_radius=config.match_radius,
            ledger=self.ledger,
            time_source=self.time_source,
        )
        self.selection = OutputSelectionModule.posterior(
            self._nfold.posterior_sigma, rng=rng
        )
        #: Eq. 18 selection weights per pinned candidate set.  A pinned set
        #: never changes, so its weights are computed once; they are
        #: derived state, left out of the snapshot and rebuilt on first
        #: use after a restore.
        self._pinned_weights: Dict[Tuple[Point, ...], np.ndarray] = {}
        self.events_handled = 0

    def handle_checkin(self, timestamp: float, x: float, y: float) -> Tuple[Point, str]:
        """Record the check-in and choose the location to report.

        The pinned-candidate path serves known top locations via
        posterior output selection (free post-processing); the nomadic
        path draws a fresh one-shot perturbation and charges its
        longitudinal exposure to the accountant — every release that
        leaves the actor is paid for.
        """
        true_location = Point(x, y)
        self.pin_tops(self.management.record(CheckIn(timestamp, true_location)))
        candidates = self.obfuscation.candidates_for(true_location)
        self.events_handled += 1
        if candidates is not None:
            key = tuple(candidates)
            weights = self._pinned_weights.get(key)
            if weights is None:
                weights = self.selection.selector.probabilities(candidates)
                self._pinned_weights[key] = weights
            return self.selection.select(candidates, weights), "top"
        reported = self._nomadic.obfuscate(true_location)[0]
        self.accountant.observe(
            self.config.budget.epsilon / self.config.budget.r
        )
        return reported, "nomadic"

    def pin_tops(self, tops: Optional[List[Point]]) -> None:
        """Pin — and ledger-charge — the fresh tops of a closed window.

        Serves both window closes: a rollover inside :meth:`handle_checkin`
        and the drain, which closes every actor's trailing window at once
        with :func:`~repro.edge.location_management.flush_trailing_windows`
        and then pins each actor's tops in user order.
        """
        if tops:
            self.obfuscation.ensure_obfuscated(tops)

    def charged_since(self, n_entries: int) -> List[Tuple[float, float]]:
        """(epsilon, delta) of ledger entries appended after ``n_entries``."""
        return [
            (entry.budget.epsilon, entry.budget.delta)
            for entry in self.ledger.entries[n_entries:]
        ]

    def snapshot(self) -> Dict[str, Any]:
        """The actor's full durable state as JSON-able primitives.

        Everything a crashed device needs to resume *bit-identically*:
        the module states, the privacy ledger, the longitudinal
        accountant, and — crucially — the state of the one RNG shared by
        all three noise consumers.  ``ledger_max_epsilon`` rides along
        inside the ledger state; ``seed``/``epoch`` pin the identity.
        """
        return {
            "user_id": self.user_id,
            "user_index": self.user_index,
            "seed": self.seed,
            "epoch": self.epoch,
            "events_handled": self.events_handled,
            "rng_state": self._rng.bit_generator.state,
            "ledger": self.ledger.to_state(),
            "accountant": self.accountant.to_state(),
            "management": self.management.snapshot(),
            "obfuscation": self.obfuscation.snapshot(),
            "selection_count": self.selection.selection_count,
        }

    @classmethod
    def from_snapshot(
        cls,
        state: Dict[str, Any],
        config: EdgeConfig,
        time_source: Optional[TimeSource] = None,
    ) -> "UserActor":
        """Rebuild an actor from :meth:`snapshot` output.

        The actor is constructed normally (wiring mechanisms, modules and
        the shared RNG exactly as a fresh one would), then each module's
        durable state is overlaid.  Restoring the bit-generator state once
        covers the n-fold, nomadic, and selection streams because they
        share the generator.  The ledger, its epsilon cap included, comes
        from the snapshot.  Ledger and accountant restoration bypass
        ``spend``/``observe``, so no budget gauge is ever re-emitted — a
        restore is free, only new releases are charged.
        """
        actor = cls(
            user_id=str(state["user_id"]),
            user_index=int(state["user_index"]),
            seed=int(state["seed"]),
            config=config,
            time_source=time_source,
            epoch=int(state.get("epoch", 0)),
        )
        actor.events_handled = int(state.get("events_handled", 0))
        actor._rng.bit_generator.state = state["rng_state"]
        actor.ledger = PrivacyLedger.from_state(state["ledger"])
        actor.obfuscation.ledger = actor.ledger
        actor.accountant = LongitudinalExposureAccountant.from_state(
            state["accountant"]
        )
        actor.management.restore(state["management"])
        actor.obfuscation.restore(state["obfuscation"])
        actor.selection.selection_count = int(state.get("selection_count", 0))
        return actor
