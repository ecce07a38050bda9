"""Store provisioning for experiments: bulk load once, clone thereafter.

Every figure sweep loads the same per-node corpus (plus optional placed
answers) into a fresh StorM store at every sweep point.
:func:`provision_store` funnels all of that through two fast paths:

* the objects are inserted with :meth:`StorM.put_many` (bulk load), and
* the populated store is frozen into a
  :class:`~repro.storm.template.StoreTemplate` keyed by a content digest
  of the exact object sequence, so the next sweep point needing the
  same (corpus, node, size) combination gets a copy-on-write clone
  instead of re-inserting a thousand objects.

A load is a pure function of its parameters — node index, count, size,
corpus size, seed, and the placement's keyword and payloads for the
node — so :func:`provision_store` remembers each load's digest under
them and generates (and hashes) the objects only when the registry has
no template for it.  :func:`store_for_items` computes the same digest
from the items, so both entry points share templates.

Both paths are observationally identical to a fresh ``put`` loop —
record ids, postings, search results, and per-search buffer deltas all
match bit-for-bit.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence

from repro.storm.store import StorM
from repro.storm.template import (
    REGISTRY_CAPACITY,
    StoreTemplate,
    cached_template,
    register_template,
)
from repro.workloads.corpus import KeywordCorpus, generate_objects
from repro.workloads.placement import AnswerPlacement

_U32 = struct.Struct("<I")

#: ``(keywords, payload)`` pairs as :meth:`StorM.put_many` accepts them.
Items = list[tuple[tuple[str, ...], bytes]]

#: What determines a node's load -> its :func:`content_digest`, so a
#: repeated load finds its template without generating and hashing a
#: thousand payloads first.  A memo of a pure function: never stale,
#: and no larger than the registry it serves (oldest entries go first).
_LOAD_KEYS: dict[tuple, str] = {}


def experiment_items(
    node_index: int,
    *,
    count: int,
    size: int,
    corpus: KeywordCorpus,
    seed: int,
    placement: AnswerPlacement | None = None,
) -> Items:
    """One node's full object load: background corpus + placed answers."""
    items: Items = [
        (spec.keywords, spec.payload)
        for spec in generate_objects(
            node_index, count=count, size=size, corpus=corpus, seed=seed
        )
    ]
    if placement is not None:
        items.extend(
            ((placement.keyword,), payload)
            for payload in placement.objects_for(node_index, size=size)
        )
    return items


def content_digest(items: Sequence[tuple[Sequence[str], bytes]]) -> str:
    """A collision-resistant key for an exact object sequence.

    Every field is length-prefixed, so no two distinct sequences share
    an encoding; templates cached under this key can only ever be
    cloned for a byte-identical load.
    """
    hasher = hashlib.sha256()
    for keywords, payload in items:
        for keyword in keywords:
            raw = keyword.encode("utf-8")
            hasher.update(_U32.pack(len(raw)))
            hasher.update(raw)
        hasher.update(b"\xff")
        hasher.update(_U32.pack(len(payload)))
        hasher.update(payload)
    return hasher.hexdigest()


def _template_for(key: str, items: Items) -> StoreTemplate:
    """The template registered under ``key``, built from ``items`` if none is."""
    template = cached_template(key)
    if template is None:
        prototype = StorM()
        prototype.put_many(items)
        template = StoreTemplate.from_store(prototype)
        prototype.close()
        register_template(key, template)
    return template


def store_for_items(items: Items) -> StorM:
    """A store holding exactly ``items``, via the template registry.

    The first call per distinct item sequence builds and registers a
    template; later calls clone it.
    """
    return _template_for(content_digest(items), items).instantiate()


def provision_store(
    node_index: int,
    *,
    count: int,
    size: int,
    corpus: KeywordCorpus,
    seed: int,
    placement: AnswerPlacement | None = None,
    warm: bool = True,
) -> StorM:
    """Build one experiment node's store, ready to attach to the node.

    The registry key is :func:`store_for_items`' — the content digest of
    the node's items — but a load seen before finds it by its parameters
    and generates nothing.  ``warm=True`` reproduces the figures' warm-up
    scan (touch every page once) so cold-cache I/O does not drown
    protocol effects.
    """
    # Placements are duck-typed and need not be hashable: key on what
    # they contribute to the load, never on the object.
    load = (node_index, count, size, corpus.size, seed) + (
        ()
        if placement is None
        else (placement.keyword, *placement.objects_for(node_index, size=size))
    )
    key = _LOAD_KEYS.get(load)
    template = None if key is None else cached_template(key)
    if template is None:
        items = experiment_items(
            node_index,
            count=count,
            size=size,
            corpus=corpus,
            seed=seed,
            placement=placement,
        )
        _LOAD_KEYS[load] = key = content_digest(items)
        while len(_LOAD_KEYS) > REGISTRY_CAPACITY:
            del _LOAD_KEYS[next(iter(_LOAD_KEYS))]
        template = _template_for(key, items)
    store = template.instantiate()
    if warm:
        store.search_scan(corpus.keyword(0))
    return store
