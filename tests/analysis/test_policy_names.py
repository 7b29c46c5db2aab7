"""Every ``repro.*`` name the flow policy lists still exists.

The policy is configuration: a qname that names a deleted function
matches nothing, so the rule it drives goes quiet instead of failing.
Resolving each name by import keeps a removal from leaving such a
dead entry behind.
"""

import dataclasses
import importlib

import pytest

from repro.analysis.dataflow.policy import FlowPolicy, default_policy


def _policy_qnames():
    policy = default_policy()
    for field in dataclasses.fields(FlowPolicy):
        value = getattr(policy, field.name)
        if isinstance(value, frozenset):
            for qname in sorted(value):
                if qname.startswith("repro."):
                    yield pytest.param(qname, id=f"{field.name}:{qname}")


def _resolve(qname):
    """Import the longest module prefix of ``qname``, getattr the rest."""
    parts = qname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(qname)


def test_policy_lists_names():
    assert len(list(_policy_qnames())) > 10


@pytest.mark.parametrize("qname", _policy_qnames())
def test_policy_qname_resolves(qname):
    assert callable(_resolve(qname))
