"""Experiment store provisioning: keyed by parameters, same stores as ever."""

from __future__ import annotations

import pytest

import repro.storm.template as template_module
import repro.workloads.provision as provision_module
from repro.storm.template import cached_template, clear_templates
from repro.workloads.corpus import KeywordCorpus
from repro.workloads.placement import AnswerPlacement
from repro.workloads.provision import (
    content_digest,
    experiment_items,
    provision_store,
    store_for_items,
)
from repro.workloads.replication import ReplicationSpec

CORPUS = KeywordCorpus(10)
LOAD = dict(count=30, size=200, corpus=CORPUS, seed=5)


@pytest.fixture(autouse=True)
def empty_registry(monkeypatch):
    monkeypatch.setattr(provision_module, "_LOAD_KEYS", {})
    clear_templates()
    yield
    clear_templates()


@pytest.fixture
def generate_calls(monkeypatch):
    """How many times provisioning generated a node's objects."""
    calls = []
    real = provision_module.generate_objects

    def counting(node_index, **kwargs):
        calls.append(node_index)
        return real(node_index, **kwargs)

    monkeypatch.setattr(provision_module, "generate_objects", counting)
    return calls


def _contents(store):
    return [(obj.keywords, obj.payload) for _, obj in store.scan()]


def _observed(store):
    result = store.search_scan(CORPUS.keyword(3))
    return result.matches, result.objects_examined, result.io, store.stats


def test_both_entry_points_share_one_registry_key():
    items = experiment_items(2, **LOAD)
    key = content_digest(items)
    provision_store(2, **LOAD)
    assert list(template_module._REGISTRY) == [key]
    template = cached_template(key)
    # store_for_items finds the template provision_store registered ...
    assert _contents(store_for_items(items)) == items
    assert cached_template(key) is template
    # ... and the other way round.
    clear_templates()
    store_for_items(items)
    template = cached_template(key)
    assert _contents(provision_store(2, **LOAD)) == items
    assert list(template_module._REGISTRY) == [key]
    assert cached_template(key) is template


def test_registry_hit_generates_nothing(generate_calls):
    first = provision_store(4, **LOAD)
    assert generate_calls == [4]
    again = provision_store(4, **LOAD)
    assert generate_calls == [4]
    assert _observed(again) == _observed(first)
    # Any parameter of the load is part of the key.
    provision_store(4, **{**LOAD, "seed": 6})
    provision_store(4, **{**LOAD, "count": 31})
    provision_store(4, **{**LOAD, "size": 201})
    provision_store(4, **{**LOAD, "corpus": KeywordCorpus(11)})
    provision_store(5, **LOAD)
    assert generate_calls == [4, 4, 4, 4, 4, 5]
    assert len(template_module._REGISTRY) == 6


def test_rebuild_after_clear_is_identical(generate_calls):
    first = provision_store(1, **LOAD)
    clear_templates()
    rebuilt = provision_store(1, **LOAD)
    assert generate_calls == [1, 1]
    assert _contents(rebuilt) == _contents(first)
    assert _observed(rebuilt) == _observed(first)
    assert rebuilt.put(["late"], b"x") == first.put(["late"], b"x")


def test_answer_placement_holders_and_others(generate_calls):
    placement = AnswerPlacement(node_count=6, holder_count=2, seed=3)
    holder = min(placement.holders)
    other = min(set(range(1, 6)) - placement.holders)
    expected = {
        node: experiment_items(node, placement=placement, **LOAD)
        for node in (holder, other)
    }
    generate_calls.clear()
    for node in (holder, other, holder, other):
        store = provision_store(node, placement=placement, **LOAD)
        assert _contents(store) == expected[node]
        answers = store.search_scan(placement.keyword).matches
        assert len(answers) == (placement.answers_per_holder if node == holder else 0)
    assert generate_calls == [holder, other]  # two loads, each generated once
    # A node that holds no answers stores what it would without a placement:
    # a different load key, the same registry key.
    assert _contents(provision_store(other, **LOAD)) == expected[other]
    assert generate_calls == [holder, other, other]
    assert len(template_module._REGISTRY) == 2


def test_same_keyword_different_answers_do_not_collide():
    few = AnswerPlacement(node_count=6, holder_count=5, answers_per_holder=1)
    many = AnswerPlacement(node_count=6, holder_count=5, answers_per_holder=4)
    assert len(provision_store(3, placement=few, **LOAD).search(few.keyword).matches) == 1
    assert len(provision_store(3, placement=many, **LOAD).search(few.keyword).matches) == 4


def test_unhashable_duck_typed_placement(generate_calls):
    spec = ReplicationSpec(node_count=5, factor=2, distinct_objects=3, object_size=64)
    with pytest.raises(TypeError):
        hash(spec)
    holder = min(spec.holders)
    for _ in range(2):
        store = provision_store(holder, placement=spec, **LOAD)
        replicas = [obj.payload for _, obj in store.search_scan(spec.keyword).matches]
        assert replicas == spec.objects_for(holder)
        assert store.count == LOAD["count"] + len(replicas)
    assert generate_calls == [holder]


def test_warm_scan_is_optional():
    cold = provision_store(0, warm=False, **LOAD)
    warm = provision_store(0, **LOAD)
    pages = cold.heap.page_count
    assert cold.stats.logical_reads == pages
    assert warm.stats.logical_reads == 2 * pages


def test_load_key_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(provision_module, "REGISTRY_CAPACITY", 3)
    for node in range(5):
        provision_store(node, **{**LOAD, "count": 2})
    assert len(provision_module._LOAD_KEYS) == 3
