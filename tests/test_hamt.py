"""Tests for the persistent HAMT behind :class:`ShapeTyping`.

The interesting machinery — hash-path placement, collision buckets,
structural sharing, canonical (insertion-independent) structure — is
exercised here with engineered key hashes; pickling is tested against deep
tries because parallel validation ships typings across processes, where the
receiving interpreter has a *different* string hash seed.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import EX
from repro.shex.hamt import HamtMap, _Bitmap, _Collision, _Leaf
from repro.shex.typing import ShapeLabel, ShapeTyping


class FixedHashKey:
    """A key whose hash is chosen by the test (to force collisions/depth)."""

    def __init__(self, name: str, h: int):
        self.name = name
        self.h = h

    def __hash__(self) -> int:
        return self.h

    def __eq__(self, other) -> bool:
        return isinstance(other, FixedHashKey) and other.name == self.name

    def __repr__(self) -> str:
        return f"FixedHashKey({self.name!r}, {self.h})"

    def sort_key(self) -> tuple:
        return ("FixedHashKey", self.name)

    def __reduce__(self):
        return (FixedHashKey, (self.name, self.h))


class TestBasicOperations:
    def test_empty_map(self):
        empty = HamtMap.empty()
        assert len(empty) == 0
        assert not empty
        assert "missing" not in empty
        assert empty.get("missing") is None
        assert empty.get("missing", 42) == 42
        assert list(empty.items()) == []

    def test_empty_is_a_singleton(self):
        assert HamtMap.empty() is HamtMap.empty()

    def test_assoc_is_persistent(self):
        empty = HamtMap.empty()
        one = empty.assoc("a", 1)
        two = one.assoc("b", 2)
        assert len(empty) == 0 and len(one) == 1 and len(two) == 2
        assert one.get("a") == 1 and one.get("b") is None
        assert two.get("a") == 1 and two.get("b") == 2

    def test_assoc_replaces_values(self):
        mapping = HamtMap.empty().assoc("a", 1).assoc("a", 2)
        assert len(mapping) == 1
        assert mapping.get("a") == 2

    def test_assoc_same_value_object_is_a_no_op(self):
        value = frozenset([1])
        mapping = HamtMap.empty().assoc("a", value)
        assert mapping.assoc("a", value) is mapping

    def test_upsert_merges_in_one_walk(self):
        mapping = HamtMap.empty().upsert("a", frozenset([1]), frozenset.union)
        assert mapping.get("a") == frozenset([1])
        mapping = mapping.upsert("a", frozenset([2]), frozenset.union)
        assert mapping.get("a") == frozenset([1, 2])
        # merge handing back the existing object is a no-op returning self
        assert mapping.upsert("a", frozenset([9]), lambda old, new: old) is mapping

    def test_random_contents_match_a_dict(self):
        rng = random.Random(7)
        model = {}
        mapping = HamtMap.empty()
        for i in range(500):
            key, value = f"key{rng.randrange(200)}", rng.randrange(1000)
            model[key] = value
            mapping = mapping.assoc(key, value)
        assert len(mapping) == len(model)
        assert dict(mapping.items()) == model
        assert set(mapping) == set(model)
        for key, value in model.items():
            assert mapping.get(key) == value


class TestCollisionsAndDepth:
    def test_full_hash_collisions_share_a_bucket(self):
        keys = [FixedHashKey(f"c{i}", 999) for i in range(6)]
        mapping = HamtMap.from_items((k, k.name) for k in keys)
        assert len(mapping) == 6
        for key in keys:
            assert mapping.get(key) == key.name
        assert mapping.get(FixedHashKey("other", 999)) is None

    def test_colliding_entries_iterate_canonically(self):
        keys = [FixedHashKey(f"c{i}", 999) for i in range(6)]
        forward = HamtMap.from_items((k, 0) for k in keys)
        backward = HamtMap.from_items((k, 0) for k in reversed(keys))
        assert list(forward.items()) == list(backward.items())
        assert forward == backward and hash(forward) == hash(backward)

    def test_deep_hash_prefixes_build_deep_tries(self):
        # hashes share the low 55 bits, so the trie must chain down to the
        # deepest level before the keys diverge
        keys = [FixedHashKey(f"d{i}", (i << 55) | 0b11111) for i in range(32)]
        mapping = HamtMap.from_items((k, k.name) for k in keys)
        assert len(mapping) == 32
        for key in keys:
            assert mapping.get(key) == key.name

    def test_structure_is_insertion_order_independent(self):
        rng = random.Random(3)
        items = [(FixedHashKey(f"k{i}", rng.randrange(64)), i) for i in range(60)]
        shuffled = items[:]
        rng.shuffle(shuffled)
        a, b = HamtMap.from_items(items), HamtMap.from_items(shuffled)
        assert a == b
        assert hash(a) == hash(b)
        assert list(a.items()) == list(b.items())


class TestMerge:
    def test_merge_is_the_union(self):
        rng = random.Random(11)
        da = {f"k{rng.randrange(40)}": frozenset([rng.randrange(5)]) for _ in range(30)}
        db = {f"k{rng.randrange(40)}": frozenset([rng.randrange(5)]) for _ in range(30)}
        merged = HamtMap.from_items(da.items()).merge(
            HamtMap.from_items(db.items()), frozenset.union)
        expected = dict(da)
        for key, value in db.items():
            expected[key] = expected.get(key, frozenset()) | value
        assert dict(merged.items()) == expected

    def test_merge_skips_identical_subtries(self):
        base = HamtMap.from_items((f"x{i}", frozenset([i])) for i in range(100))
        derived = base.assoc("extra", frozenset([1]))
        # the merge must recognise the shared structure and return the
        # larger map itself, not an equal copy
        assert base.merge(derived, frozenset.union) is derived
        assert derived.merge(base, frozenset.union) is base.merge(
            derived, frozenset.union)
        assert base.merge(base, frozenset.union) is base

    def test_merge_returns_the_covering_operand_without_shared_history(self):
        # the superset was built independently (no identity-shared subtries
        # with the subset, as after unpickling in a worker process); when the
        # merge function hands back the covering operand's value objects —
        # as the typing's label union does — the merge must recognise the
        # coverage and return the covering map itself, not a copy
        def sharing_union(left, right):
            if right.issubset(left):
                return left
            if left.issubset(right):
                return right
            return left | right

        subset = HamtMap.from_items(
            (f"k{i}", frozenset([i % 3])) for i in range(20))
        superset = HamtMap.from_items(
            [(f"k{i}", frozenset([i % 3, 9])) for i in range(20)]
            + [(f"extra{i}", frozenset([9])) for i in range(5)])
        assert subset.merge(superset, sharing_union) is superset
        assert superset.merge(subset, sharing_union) is superset

    def test_merge_with_empty_returns_the_other_operand(self):
        mapping = HamtMap.from_items([("a", 1)])
        assert mapping.merge(HamtMap.empty(), lambda x, y: x) is mapping
        assert HamtMap.empty().merge(mapping, lambda x, y: x) is mapping

    def test_merge_applies_the_value_function_left_to_right(self):
        left = HamtMap.from_items([("k", "L"), ("only-left", "l")])
        right = HamtMap.from_items([("k", "R"), ("only-right", "r")])
        merged = left.merge(right, lambda a, b: a + b)
        assert merged.get("k") == "LR"
        assert merged.get("only-left") == "l"
        assert merged.get("only-right") == "r"

    def test_merge_through_collision_buckets(self):
        shared = [FixedHashKey(f"c{i}", 123) for i in range(4)]
        left = HamtMap.from_items([(k, frozenset([0])) for k in shared[:3]])
        right = HamtMap.from_items([(k, frozenset([1])) for k in shared[1:]])
        merged = left.merge(right, frozenset.union)
        assert len(merged) == 4
        assert merged.get(shared[0]) == frozenset([0])
        assert merged.get(shared[1]) == frozenset([0, 1])
        assert merged.get(shared[3]) == frozenset([1])


class TestPickling:
    """Parallel validation ships typings across processes; the receiving
    interpreter has a different hash seed, so pickles must rebuild."""

    def _round_trip(self, mapping: HamtMap) -> HamtMap:
        clone = pickle.loads(pickle.dumps(mapping))
        assert clone == mapping
        assert len(clone) == len(mapping)
        for key, value in mapping.items():
            assert clone.get(key) == value
        return clone

    def test_small_map_round_trips(self):
        self._round_trip(HamtMap.from_items([("a", 1), ("b", 2)]))

    def test_large_map_round_trips(self):
        self._round_trip(HamtMap.from_items(
            (f"key{i}", frozenset([i % 7])) for i in range(1000)))

    def test_deep_trie_round_trips(self):
        # shared low hash bits force maximum-depth chains — the pickle must
        # not recurse down the tree (it ships items, not nodes)
        keys = [FixedHashKey(f"deep{i}", (i << 55) | 0b1010) for i in range(64)]
        self._round_trip(HamtMap.from_items((k, k.name) for k in keys))

    def test_collision_buckets_round_trip(self):
        keys = [FixedHashKey(f"c{i}", 77) for i in range(8)]
        self._round_trip(HamtMap.from_items((k, k.name) for k in keys))

    def test_pickle_payload_contains_items_not_nodes(self):
        mapping = HamtMap.from_items((f"k{i}", i) for i in range(50))
        rebuild, (items,) = mapping.__reduce__()
        assert dict(items) == dict(mapping.items())
        assert rebuild(items) == mapping

    def test_shape_typing_round_trips(self):
        typing = ShapeTyping.empty()
        for i in range(300):
            typing = typing.add(EX[f"person{i}"], "Person")
            if i % 3 == 0:
                typing = typing.add(EX[f"person{i}"], "Employee")
        clone = pickle.loads(pickle.dumps(typing))
        assert clone == typing
        assert hash(clone) == hash(typing)
        assert clone.to_dict() == typing.to_dict()
        assert clone.labels_for(EX.person0) == \
            {ShapeLabel("Person"), ShapeLabel("Employee")}

    def test_pickled_typing_stays_usable(self):
        typing = ShapeTyping.single(EX.john, "Person")
        clone = pickle.loads(pickle.dumps(typing))
        extended = clone.add(EX.bob, "Person")
        assert extended.has(EX.john, "Person")
        assert extended.has(EX.bob, "Person")


class TestValueSemantics:
    def test_equality_ignores_history(self):
        a = HamtMap.empty().assoc("x", 1).assoc("y", 2).assoc("z", 3)
        b = HamtMap.empty().assoc("z", 3).assoc("x", 0).assoc("y", 2).assoc("x", 1)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = HamtMap.from_items([("x", 1)])
        assert a != HamtMap.from_items([("x", 2)])
        assert a != HamtMap.from_items([("y", 1)])
        assert a != HamtMap.empty()
        assert a.__eq__(object()) is NotImplemented

    def test_maps_are_hashable_set_members(self):
        a = HamtMap.from_items([("x", 1)])
        b = HamtMap.from_items([("x", 1)])
        assert len({a, b}) == 1

    def test_repr_lists_entries(self):
        assert "'x': 1" in repr(HamtMap.from_items([("x", 1)]))

    def test_assoc_requires_hashable_keys(self):
        with pytest.raises(TypeError):
            HamtMap.empty().assoc([], 1)


def node_shape(mapping: HamtMap):
    """A full dump of the trie: node kinds, hashes, bitmaps, counts, entries."""
    def dump(node):
        if type(node) is _Leaf:
            return ("leaf", node.khash, node.key, node.value)
        if type(node) is _Collision:
            return ("collision", node.khash, node.entries)
        assert type(node) is _Bitmap
        return ("bitmap", node.bitmap, node.count,
                tuple(dump(child) for child in node.children))
    return None if mapping._root is None else dump(mapping._root)


#: key hashes chosen to force every trie shape: full 60-bit collisions
#: (``2**60 + h`` masks to ``h``), deep shared prefixes (hashes that differ
#: only in their top bits) and ordinary spread hashes.
_HASHES = st.one_of(
    st.integers(0, 7),
    st.integers(0, 7).map(lambda h: (1 << 60) + h),
    st.integers(0, 7).map(lambda h: h << 55),
    st.integers(0, 2 ** 64),
)


@st.composite
def keyed_items(draw):
    """``(key, value)`` pairs over a small name pool (so keys repeat), each
    name with one fixed hash (``==`` keys must hash alike)."""
    names = draw(st.lists(st.sampled_from("abcdefghijklmnop"), max_size=40))
    hashes = {name: draw(_HASHES) for name in sorted(set(names))}
    return [(FixedHashKey(name, hashes[name]), draw(st.integers(0, 3)))
            for name in names]


class TestBulkBuild:
    """``from_items`` builds in one pass the trie a fold of ``assoc`` builds."""

    @settings(max_examples=300, deadline=None)
    @given(keyed_items())
    def test_from_items_equals_an_assoc_fold(self, items):
        folded = HamtMap.empty()
        for key, value in items:
            folded = folded.assoc(key, value)
        built = HamtMap.from_items(items)
        assert node_shape(built) == node_shape(folded)
        assert built == folded
        assert hash(built) == hash(folded)
        assert list(built.items()) == list(folded.items())
        assert len(built) == len(folded)

    def test_last_value_of_a_repeated_key_wins(self):
        key = FixedHashKey("k", 3)
        twin = FixedHashKey("k", 3)
        built = HamtMap.from_items([(key, 1), (FixedHashKey("j", 3), 2),
                                    (twin, 9)])
        assert built.get(key) == 9
        # the latest key object is kept, as assoc keeps it
        assert any(stored is twin for stored, _ in built.items())

    def test_empty_input_is_the_empty_map(self):
        assert HamtMap.from_items([]) is HamtMap.empty()
