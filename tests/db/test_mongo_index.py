"""Secondary indexes never change Mongo results — only how they're found.

An indexed :class:`Collection` must return byte-identical output to an
unindexed one for every supported filter shape, across interleaved
mutations (the dirty-flag rebuild path), while actually engaging the
planner for the access paths the KB layer uses.
"""

import copy
import math
import numbers

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.mongo import Collection, MongoError, _resolve_path

import pytest

scalars = st.one_of(
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from(["a", "b", "cc"]),
    st.booleans(),
    st.none(),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.fixed_dictionaries({"k": scalars}),
    st.just(float("nan")),
)

one_doc = st.fixed_dictionaries(
    {"h": st.sampled_from(["n1", "n2", "n3"])},
    optional={"x": values, "nested": st.fixed_dictionaries({"y": values}),
              "nodes": st.lists(st.sampled_from(["n1", "n2", "n3"]),
                                min_size=1, max_size=3)},
)
docs = st.lists(one_doc, max_size=40)

paths = st.sampled_from(["h", "x", "nested.y", "nodes", "missing"])
ops = st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"])

filters = st.one_of(
    st.builds(lambda p, v: {p: v}, paths, values),
    st.builds(lambda p, o, v: {p: {o: v}}, paths, ops, scalars),
    st.builds(lambda p, v1, v2: {p: {"$in": [v1, v2]}}, paths, scalars, scalars),
    st.builds(lambda p, e: {p: {"$exists": e}}, paths, st.booleans()),
    st.builds(lambda f1, f2: {"$and": [f1, f2]},
              st.builds(lambda p, v: {p: v}, paths, values),
              st.builds(lambda p, o, v: {p: {o: v}}, paths, ops, scalars)),
)


def _pair(doc_list):
    plain, indexed = Collection("plain"), Collection("indexed")
    for path in ("h", "x", "nested.y", "nodes"):
        indexed.create_index(path)
    for d in doc_list:
        plain.insert_one(copy.deepcopy(d))
        indexed.insert_one(copy.deepcopy(d))
    return plain, indexed


def _strip(results):
    # _id counters are process-global, so the two collections assign
    # different ids; compare everything else.
    return repr([{k: v for k, v in d.items() if k != "_id"} for d in results])


def parent_build(path, docs):
    """``_Index.build`` as it was while it was the only way an index took a
    document in: every slot from one pass over all of ``docs``.  Kept
    verbatim as the reference for what an index extended in place holds."""
    eq, contains, present = {}, {}, []
    nums, strs = [], []
    for pos, d in enumerate(docs):
        found, v = _resolve_path(d, path)
        if not found:
            continue
        present.append(pos)
        try:
            eq.setdefault(v, []).append(pos)
        except TypeError:
            pass  # unhashable (list/dict): reachable via contains/linear
        if isinstance(v, list):
            for el in v:
                try:
                    bucket = contains.setdefault(el, [])
                except TypeError:
                    continue
                if not bucket or bucket[-1] != pos:
                    bucket.append(pos)
        elif isinstance(v, numbers.Real) and v == v:  # NaN never matches a range
            nums.append((v, pos))
        elif isinstance(v, str):
            strs.append((v, pos))
    nums.sort(key=lambda p: p[0])
    strs.sort(key=lambda p: p[0])
    return {
        "eq": eq, "contains": contains, "present": present,
        "num_vals": [v for v, _ in nums], "num_pos": [p for _, p in nums],
        "str_vals": [v for v, _ in strs], "str_pos": [p for _, p in strs],
    }


class TestIndexEquivalence:
    @given(docs, st.lists(one_doc, min_size=1, max_size=25), filters)
    @settings(max_examples=60, deadline=None)
    def test_an_insert_into_clean_indexes_extends_them_in_place(
            self, doc_list, inserts, flt):
        """Mixed types, lists, NaN, a missing path, unhashables: after every
        insert each slot of each index is what a wholesale build over the
        documents now held gives (ties in position order included), no
        rebuild is pending, and every read answers as the linear scan."""
        plain, indexed = _pair(doc_list)
        indexed.count_documents({"h": "n1"})  # the read that builds them
        for d in inserts:
            plain.insert_one(copy.deepcopy(d))
            indexed.insert_one(copy.deepcopy(d))
            assert not indexed._dirty
            for path, idx in indexed._indexes.items():
                want = parent_build(path, indexed._docs)
                assert set(want) == set(idx.__slots__) - {"path"}
                for slot, held in want.items():
                    # repr: a NaN key or value is unequal to itself
                    assert repr(getattr(idx, slot)) == repr(held), (path, slot)
        assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        assert indexed.count_documents(flt) == plain.count_documents(flt)
        for p in ("h", "x", "nested.y", "nodes"):
            assert repr(indexed.distinct(p, flt)) == repr(plain.distinct(p, flt))

    def test_replace_update_and_delete_still_mark_dirty(self):
        _, indexed = _pair([{"h": "n1", "x": 1}, {"h": "n2", "x": 2}])
        for mutate in (
            lambda c: c.replace_one({"h": "n1"}, {"h": "n1", "x": 5}),
            lambda c: c.update_one({"h": "n2"}, {"$set": {"x": 7}}),
            lambda c: c.update_many({"h": "n2"}, {"$set": {"x": 8}}),
            lambda c: c.delete_many({"x": 8}),
        ):
            indexed.find({"h": "n1"})
            assert not indexed._dirty
            assert mutate(indexed) == 1
            assert indexed._dirty
        # an upsert that finds nothing inserts: the scan left them clean
        assert indexed.replace_one({"h": "n9"}, {"h": "n9"}, upsert=True) == 1
        assert not indexed._dirty and indexed.count_documents({"h": "n9"}) == 1

    @given(docs, filters)
    @settings(max_examples=150, deadline=None)
    def test_find_count_distinct_identical(self, doc_list, flt):
        plain, indexed = _pair(doc_list)
        assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        assert indexed.count_documents(flt) == plain.count_documents(flt)
        for p in ("h", "x", "nested.y", "nodes"):
            assert repr(indexed.distinct(p, flt)) == repr(plain.distinct(p, flt))

    @given(docs, filters, filters, values)
    @settings(max_examples=80, deadline=None)
    def test_identical_across_mutations(self, doc_list, flt, mut_flt, newval):
        """The dirty-flag rebuild keeps results identical after updates,
        deletes and fresh inserts."""
        plain, indexed = _pair(doc_list)
        indexed.find(flt)  # force a build, then dirty it below
        update = {"$set": {"x": newval}}
        plain.update_many(mut_flt, copy.deepcopy(update))
        indexed.update_many(mut_flt, copy.deepcopy(update))
        assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        plain.delete_many(mut_flt)
        indexed.delete_many(mut_flt)
        doc = {"h": "n1", "x": newval}
        plain.insert_one(copy.deepcopy(doc))
        indexed.insert_one(copy.deepcopy(doc))
        assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        assert indexed.count_documents(flt) == plain.count_documents(flt)

    @given(docs, filters, filters, filters, one_doc, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_replace_and_delete_identical(self, doc_list, flt, repl_flt, del_flt,
                                          new_doc, upsert):
        """replace_one and delete_many pick their targets through the
        planner: same target, same return value, same collection after."""
        plain, indexed = _pair(doc_list)
        indexed.find(flt)  # force a build, then dirty it below
        for _ in range(2):  # the second replace sees the first one's doc
            assert indexed.replace_one(repl_flt, copy.deepcopy(new_doc), upsert=upsert) \
                == plain.replace_one(repl_flt, copy.deepcopy(new_doc), upsert=upsert)
            assert _strip(indexed.find()) == _strip(plain.find())
            assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        assert indexed.delete_many(del_flt) == plain.delete_many(del_flt)
        assert _strip(indexed.find()) == _strip(plain.find())
        assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        assert indexed.count_documents(del_flt) == 0

    def test_replaced_doc_leaves_and_enters_index_buckets(self):
        plain, indexed = _pair([{"h": "n1", "x": 1}, {"h": "n2", "x": 2},
                                {"h": "n1", "x": 3}])
        for c in (plain, indexed):
            c.find({"h": "n1"})
            assert c.replace_one({"h": "n1"}, {"h": "n2", "x": 10}) == 1
        for flt in ({"h": "n1"}, {"h": "n2"}, {"x": {"$gte": 3}}, {"x": 1}):
            assert _strip(indexed.find(flt)) == _strip(plain.find(flt))
        # It keeps its place in insertion order: ahead of the older n2 doc.
        assert [d["x"] for d in indexed.find({"h": "n2"})] == [10, 2]
        assert [d["x"] for d in indexed.find({"h": "n1"})] == [3]

    def test_limit_respects_insertion_order(self):
        plain, indexed = _pair([{"h": "n1", "x": i} for i in range(10)])
        assert _strip(indexed.find({"h": "n1"}, limit=3)) == _strip(
            plain.find({"h": "n1"}, limit=3)
        )


class TestPlannerEngagement:
    def test_equality_uses_index(self):
        _, indexed = _pair([{"h": f"n{i % 3 + 1}", "x": i} for i in range(30)])
        indexed.find({"h": "n2"})
        assert indexed.index_hits == 1 and indexed.full_scans == 0

    def test_array_containment_uses_index(self):
        _, indexed = _pair([{"h": "n1", "nodes": ["n1", "n2"]},
                            {"h": "n2", "nodes": ["n3"]}])
        got = indexed.find({"nodes": "n3"})
        assert len(got) == 1 and got[0]["h"] == "n2"
        assert indexed.index_hits == 1

    def test_range_uses_index_and_matches(self):
        _, indexed = _pair([{"h": "n1", "x": float(i)} for i in range(20)])
        got = indexed.find({"x": {"$gte": 15.0}})
        assert [d["x"] for d in got] == [15.0, 16.0, 17.0, 18.0, 19.0]
        assert indexed.index_hits == 1

    def test_replace_and_delete_use_index(self):
        _, indexed = _pair([{"h": f"n{i % 3 + 1}", "x": i} for i in range(30)])
        assert indexed.replace_one({"h": "n2"}, {"h": "n2", "x": -1}) == 1
        assert indexed.replace_one({"h": "n9"}, {"h": "n9"}, upsert=True) == 1
        assert indexed.delete_many({"h": "n3"}) == 10
        assert indexed.index_hits == 3 and indexed.full_scans == 0
        assert len(indexed) == 21

    def test_unindexed_path_falls_back_to_scan(self):
        _, indexed = _pair([{"h": "n1", "x": 1}])
        indexed.find({"unindexed_path": 1})
        assert indexed.full_scans == 1 and indexed.index_hits == 0

    def test_regex_falls_back_to_scan(self):
        _, indexed = _pair([{"h": "n1", "x": "abc"}])
        assert indexed.find({"x": {"$regex": "b"}})
        assert indexed.full_scans == 1


class TestIndexApi:
    def test_create_index_idempotent_and_compound(self):
        c = Collection("c")
        assert c.create_index("h") == "h_1"
        assert c.create_index("h") == "h_1"
        assert c.create_index([("a", 1), ("b", -1)]) == "a_1_b_1"
        assert set(c.index_information()) == {"h_1", "a_1", "b_1"}

    def test_bad_keys_rejected(self):
        c = Collection("c")
        with pytest.raises(MongoError):
            c.create_index([])
        with pytest.raises(MongoError):
            c.create_index("")

    def test_nan_values_never_match_ranges(self):
        _, indexed = _pair([{"h": "n1", "x": float("nan")},
                            {"h": "n1", "x": 1.0}])
        assert [d["x"] for d in indexed.find({"x": {"$gt": 0.0}})] == [1.0]
        assert indexed.find({"x": {"$gt": float("nan")}}) == \
            Collection("ref")._docs  # both empty


class TestDistinctFix:
    def test_order_preserved_and_unhashables_handled(self):
        c = Collection("c")
        for v in [3, "a", 3, [1, 2], {"k": 1}, "a", [1, 2], 2.0, True, {"k": 2}]:
            c.insert_one({"v": v})
        assert c.distinct("v") == [3, "a", [1, 2], {"k": 1}, 2.0, True, {"k": 2}]

    def test_numeric_cross_type_dedup_uses_value_key_typing(self):
        """1 and 1.0 collapse (one numeric value), but booleans are their
        own type bracket under `value_key` — like real MongoDB, and unlike
        the seed's Python-equality `v not in seen`, which conflated
        True with 1."""
        c = Collection("c")
        for v in [1, 1.0, True, 0, False, 0.0]:
            c.insert_one({"v": v})
        assert c.distinct("v") == [1, True, 0, False]

    def test_large_distinct_is_fast(self):
        """10k docs over 5 distinct values: the seed's O(n·k) was fine, but
        10k *unique hashable* values would have been O(n²); this finishes
        instantly now."""
        c = Collection("c")
        for i in range(10_000):
            c.insert_one({"v": i})
        assert len(c.distinct("v")) == 10_000

    def test_nan_distinct_keeps_each_object_once(self):
        c = Collection("c")
        nan = float("nan")
        c.insert_one({"v": nan})
        c.insert_one({"v": nan})
        out = c.distinct("v")
        assert len(out) == 1 and math.isnan(out[0])
