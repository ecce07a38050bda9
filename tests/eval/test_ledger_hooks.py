"""The traced ledger's hooks still find what they wrap.

``perfledger.trace.install`` wraps every :data:`~perfledger.trace.ENTRY_POINTS`
target by name.  A renamed or deleted method would first fail there,
as a ``run_failed`` of the benchmark's traced run; this checks each
target the way ``install`` resolves it, without installing anything:
the module imports, the attribute path walks, and the last name sits in
its owner's ``__dict__`` (a method inherited from a base class would be
wrapped on the wrong class).  ``perfledger`` is imported read-only.
"""

from __future__ import annotations

import pytest

from perfledger import trace


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _ in trace.ENTRY_POINTS]
)
def test_every_entry_point_resolves(module, path):
    owner, attribute, current = trace._resolve(module, path)
    assert attribute in vars(owner)
    assert callable(current) or isinstance(current, (property, classmethod, staticmethod))


def test_every_weighed_entry_point_is_wrapped():
    paths = {path for _, path, _ in trace.ENTRY_POINTS}
    assert set(trace.WEIGHTS) <= paths
