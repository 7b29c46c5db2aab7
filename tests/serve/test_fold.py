"""Property: folding batch results on arrival equals sorting, then merging.

The service folds each shard's batch result into the fleet metrics and
the ledger audit as it arrives.  In replay the per-event snapshots must
fold in global ``seq`` order, whatever the shard count, the batch split
and the order in which the shards' batches arrive.  The reference is the
earlier post-drain assembly: gather every per-event snapshot and charge
list, sort both by ``seq``, then merge.  Fold and reference must agree
on the metrics digest and on the bits of ``audit_epsilon`` and
``audit_delta``; a replay fold missing an event must raise at drain.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.serve.service import _Fold
from repro.serve.shard import BatchResult

charges = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=4.0),
        st.floats(min_value=0.0, max_value=1e-5),
    ),
    max_size=3,
)
events = st.lists(
    st.tuples(charges, st.floats(min_value=1e-6, max_value=2e-3)),
    min_size=1,
    max_size=40,
)


def _meter(registry, event_charges, handle_s):
    """What a shard's collect window records for one event."""
    registry.counter("serve.events").inc()
    registry.histogram("serve.handle_seconds").observe(handle_s)
    for eps, delta in event_charges:
        registry.gauge("privacy.epsilon_spent").add(eps)
        registry.gauge("privacy.delta_spent").add(delta)
        registry.counter("privacy.ledger_spends").inc()


def _snapshot(event_charges, handle_s):
    registry = MetricsRegistry()
    _meter(registry, event_charges, handle_s)
    return registry.snapshot()


@st.composite
def arrivals(draw):
    """Events, then each shard's batches in one random arrival order."""
    evs = draw(events)
    n_shards = draw(st.integers(min_value=1, max_value=4))
    owner = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_shards - 1),
            min_size=len(evs),
            max_size=len(evs),
        )
    )
    streams = []
    for shard in range(n_shards):
        seqs = [seq for seq, o in enumerate(owner) if o == shard]
        batches = []
        while seqs:
            k = draw(st.integers(min_value=1, max_value=len(seqs)))
            batches.append((shard, seqs[:k]))
            seqs = seqs[k:]
        streams.append(batches)
    order = []
    while any(streams):
        stream = draw(st.sampled_from([s for s in streams if s]))
        order.append(stream.pop(0))
    return evs, n_shards, order


def _replay_batch(evs, shard, seqs):
    return BatchResult(
        shard_id=shard,
        observations=[(seq, _snapshot(*evs[seq])) for seq in seqs],
        charges=[(seq, evs[seq][0]) for seq in seqs],
    )


def _live_batch(evs, shard, seqs):
    registry = MetricsRegistry()
    for seq in seqs:
        _meter(registry, *evs[seq])
    return BatchResult(
        shard_id=shard,
        observations=[(-1, registry.snapshot())],
        charges=[(seq, evs[seq][0]) for seq in seqs],
    )


def _sort_then_merge(results):
    """The post-drain replay assembly the fold replaced."""
    event_obs = []
    event_charges = []
    for batch in results:
        event_obs.extend(batch.observations)
        event_charges.extend(batch.charges)
    event_obs.sort(key=lambda pair: pair[0])
    event_charges.sort(key=lambda pair: pair[0])
    merged = MetricsRegistry()
    audit_eps = 0.0
    audit_delta = 0.0
    charges_by_seq = dict(event_charges)
    for seq, snap in event_obs:
        merged.merge(snap)
        part_eps = 0.0
        part_delta = 0.0
        for eps, delta in charges_by_seq.get(seq, []):
            part_eps += eps
            part_delta += delta
        audit_eps += part_eps
        audit_delta += part_delta
    return merged.snapshot(), audit_eps, audit_delta


def _digest(snapshot):
    canon = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _fold(results, replay, n_shards):
    fold = _Fold(replay, n_shards)
    for batch in results:
        fold.batch(batch)
    return fold


@given(drawn=arrivals())
@settings(max_examples=150, deadline=None)
def test_replay_fold_equals_sort_then_merge(drawn):
    evs, n_shards, order = drawn
    results = [_replay_batch(evs, shard, seqs) for shard, seqs in order]
    fold = _fold(results, True, n_shards)
    fold.drain(len(evs))
    snapshot, audit_eps, audit_delta = _sort_then_merge(results)

    assert _digest(fold.registry.snapshot()) == _digest(snapshot)
    assert fold.audit_epsilon.hex() == audit_eps.hex()
    assert fold.audit_delta.hex() == audit_delta.hex()
    assert fold.ahead == {}
    assert fold.batches == [
        sum(1 for shard, _ in order if shard == s) for s in range(n_shards)
    ]


@given(drawn=arrivals())
@settings(max_examples=60, deadline=None)
def test_live_fold_keeps_gauges_equal_to_the_audit(drawn):
    evs, n_shards, order = drawn
    fold = _fold([_live_batch(evs, s, seqs) for s, seqs in order], False, n_shards)
    fold.drain(len(evs))
    gauges = fold.registry.snapshot()["gauges"]

    assert gauges.get("privacy.epsilon_spent", 0.0).hex() == fold.audit_epsilon.hex()
    assert gauges.get("privacy.delta_spent", 0.0).hex() == fold.audit_delta.hex()


@given(drawn=arrivals(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_replay_fold_missing_an_event_raises_at_drain(drawn, data):
    evs, n_shards, order = drawn
    lost = data.draw(st.integers(min_value=0, max_value=len(evs) - 1))
    results = [
        _replay_batch(evs, shard, [seq for seq in seqs if seq != lost])
        for shard, seqs in order
    ]
    fold = _fold(results, True, n_shards)
    assert fold.cursor == lost
    with pytest.raises(RuntimeError, match="unfolded"):
        fold.drain(len(evs))


def test_replay_fold_refuses_an_event_twice():
    evs = [([(0.5, 0.0)], 1e-4), ([], 2e-4)]
    fold = _Fold(True, 1)
    fold.batch(_replay_batch(evs, 0, [0]))
    with pytest.raises(RuntimeError, match="twice"):
        fold.batch(_replay_batch(evs, 0, [0, 1]))
