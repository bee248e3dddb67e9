"""Tests for the MongoDB substrate."""

import copy
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import MongoDB, MongoError
from repro.db.mongo import _clone


def coll():
    return MongoDB().collection("dt", "kb")


class TestInsertFind:
    def test_insert_assigns_id(self):
        c = coll()
        _id = c.insert_one({"a": 1})
        assert _id
        assert c.find_one({"a": 1})["_id"] == _id

    def test_insert_non_dict_rejected(self):
        with pytest.raises(MongoError):
            coll().insert_one([1, 2])

    def test_insert_is_deep_copy(self):
        c = coll()
        doc = {"nested": {"x": 1}}
        c.insert_one(doc)
        doc["nested"]["x"] = 99
        assert c.find_one()["nested"]["x"] == 1

    def test_find_returns_copies(self):
        c = coll()
        c.insert_one({"nested": {"x": 1}})
        got = c.find_one()
        got["nested"]["x"] = 99
        assert c.find_one()["nested"]["x"] == 1

    def test_find_all(self):
        c = coll()
        c.insert_many([{"i": i} for i in range(5)])
        assert len(c.find()) == 5
        assert len(c) == 5

    def test_find_limit(self):
        c = coll()
        c.insert_many([{"i": i} for i in range(5)])
        assert len(c.find({}, limit=2)) == 2

    def test_dotted_path(self):
        c = coll()
        c.insert_one({"contents": {"name": "gpu0", "numa": 0}})
        assert c.find_one({"contents.name": "gpu0"})

    def test_dotted_path_through_array(self):
        c = coll()
        c.insert_one({"contents": [{"name": "p0"}, {"name": "t1"}]})
        assert c.find_one({"contents.1.name": "t1"})

    def test_array_contains(self):
        c = coll()
        c.insert_one({"tags": ["hw", "telemetry"]})
        assert c.find_one({"tags": "hw"})


class TestOperators:
    def setup_method(self):
        self.c = coll()
        self.c.insert_many(
            [
                {"name": "skx", "threads": 88, "vendor": "intel"},
                {"name": "icl", "threads": 16, "vendor": "intel"},
                {"name": "zen3", "threads": 32, "vendor": "amd"},
            ]
        )

    def test_gt_lt(self):
        assert {d["name"] for d in self.c.find({"threads": {"$gt": 20}})} == {"skx", "zen3"}
        assert {d["name"] for d in self.c.find({"threads": {"$lte": 32}})} == {"icl", "zen3"}

    def test_ne(self):
        assert len(self.c.find({"vendor": {"$ne": "intel"}})) == 1

    def test_in_nin(self):
        assert len(self.c.find({"name": {"$in": ["skx", "icl"]}})) == 2
        assert len(self.c.find({"name": {"$nin": ["skx", "icl"]}})) == 1

    def test_exists(self):
        self.c.insert_one({"name": "gpu", "sms": 80})
        assert len(self.c.find({"sms": {"$exists": True}})) == 1
        assert len(self.c.find({"sms": {"$exists": False}})) == 3

    def test_regex(self):
        assert {d["name"] for d in self.c.find({"name": {"$regex": "^s"}})} == {"skx"}

    def test_and_or(self):
        got = self.c.find(
            {"$or": [{"name": "skx"}, {"$and": [{"vendor": "amd"}, {"threads": 32}]}]}
        )
        assert {d["name"] for d in got} == {"skx", "zen3"}

    def test_unsupported_operator(self):
        with pytest.raises(MongoError):
            self.c.find({"threads": {"$mod": [2, 0]}})

    def test_unsupported_toplevel(self):
        with pytest.raises(MongoError):
            self.c.find({"$nor": []})

    def test_type_mismatch_is_no_match(self):
        assert self.c.find({"name": {"$gt": 5}}) == []

    def test_count_and_distinct(self):
        assert self.c.count_documents({"vendor": "intel"}) == 2
        assert self.c.distinct("vendor") == ["intel", "amd"]


class TestUpdates:
    def test_set_creates_path(self):
        c = coll()
        c.insert_one({"name": "kb"})
        assert c.update_one({"name": "kb"}, {"$set": {"meta.version": 2}}) == 1
        assert c.find_one()["meta"]["version"] == 2

    def test_push_appends(self):
        c = coll()
        c.insert_one({"name": "kb", "entries": []})
        c.update_one({"name": "kb"}, {"$push": {"entries": {"id": 1}}})
        c.update_one({"name": "kb"}, {"$push": {"entries": {"id": 2}}})
        assert [e["id"] for e in c.find_one()["entries"]] == [1, 2]

    def test_push_to_non_array_rejected(self):
        c = coll()
        c.insert_one({"entries": "not-a-list"})
        with pytest.raises(MongoError):
            c.update_one({}, {"$push": {"entries": 1}})

    def test_update_no_match(self):
        c = coll()
        assert c.update_one({"x": 1}, {"$set": {"y": 2}}) == 0

    def test_update_many(self):
        c = coll()
        c.insert_many([{"v": 1}, {"v": 1}, {"v": 2}])
        assert c.update_many({"v": 1}, {"$set": {"seen": True}}) == 2

    def test_unsupported_update_op(self):
        c = coll()
        c.insert_one({"v": 1})
        with pytest.raises(MongoError):
            c.update_one({}, {"$inc": {"v": 1}})

    def test_replace_one_keeps_id(self):
        c = coll()
        _id = c.insert_one({"v": 1})
        assert c.replace_one({"v": 1}, {"v": 2}) == 1
        assert c.find_one({"v": 2})["_id"] == _id

    def test_replace_upsert(self):
        c = coll()
        assert c.replace_one({"v": 1}, {"v": 1}, upsert=True) == 1
        assert len(c) == 1

    def test_delete_many(self):
        c = coll()
        c.insert_many([{"v": i} for i in range(5)])
        assert c.delete_many({"v": {"$lt": 3}}) == 3
        assert len(c) == 2


@dataclass
class Payload:
    xs: list = field(default_factory=list)


json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.floats(allow_nan=False), st.text(max_size=3)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12,
)


def _containers(v):
    """ids of every dict/list in a tree."""
    if isinstance(v, dict):
        return {id(v)}.union(*(_containers(x) for x in v.values()))
    if isinstance(v, list):
        return {id(v)}.union(*(_containers(x) for x in v))
    return set()


class TestCopyContract:
    """The store shares nothing with its callers, whatever a call clones."""

    @given(json_trees)
    @settings(max_examples=100, deadline=None)
    def test_clone_is_equal_typed_alike_and_shares_no_container(self, tree):
        got = _clone(tree)
        assert got == tree and repr(got) == repr(copy.deepcopy(tree))
        assert not _containers(got) & _containers(tree)

    def test_written_documents_are_isolated_from_the_caller(self):
        c = coll()
        doc = {"k": "ins", "nested": {"xs": [1, {"y": 2}]}}
        c.insert_one(doc)
        new = {"k": "rep", "nested": {"xs": [1, {"y": 2}]}}
        c.replace_one({"k": "none"}, new, upsert=True)
        value = {"xs": [3]}
        c.update_one({"k": "ins"}, {"$set": {"set": value}})
        pushed, each = {"xs": [4]}, [{"xs": [5]}, {"xs": [6]}]
        c.update_one({"k": "ins"}, {"$push": {"log": pushed}})
        c.update_one({"k": "ins"}, {"$push": {"log": {"$each": each}}})
        before = copy.deepcopy(c.find())
        doc["nested"]["xs"][1]["y"] = 99
        doc["nested"]["xs"].append(7)
        new["nested"]["xs"][1]["y"] = 99
        value["xs"].append(99)
        pushed["xs"].append(99)
        each[0]["xs"].append(99)
        each.append({"xs": [99]})
        assert c.find() == before
        assert [e["xs"] for e in c.find_one({"k": "ins"})["log"]] == [[4], [5], [6]]

    def test_returned_documents_are_isolated_from_the_store(self):
        c = coll()
        c.insert_one({"k": 1, "nested": {"xs": [1, {"y": 2}]}, "log": [{"a": [1]}]})
        before = copy.deepcopy(c.find())
        for got in (c.find()[0], c.find_one({"k": 1}),
                    c.find_one({"k": 1}, projection=["nested.xs", "log"])):
            got["nested"]["xs"][1]["y"] = 99
            got["nested"]["xs"].append(3)
            got["log"][0]["a"].append(99)
            got["log"].append("x")
        assert c.find() == before

    def test_non_json_values_behave_as_under_deepcopy(self):
        c = coll()
        shared = [1, 2]
        doc = {"t": (1, [2]), "s": {1, 2}, "d": Payload([1]), "a": shared, "b": shared}
        want = copy.deepcopy(doc)
        c.insert_one(doc)
        doc["t"][1].append(99)
        doc["s"].add(99)
        doc["d"].xs.append(99)
        shared.append(99)
        got = c.find_one()
        del got["_id"]
        assert got == want
        assert isinstance(got["t"], tuple) and isinstance(got["s"], set)
        assert isinstance(got["d"], Payload)
        got["t"][1].append(98)
        got["s"].add(98)
        got["d"].xs.append(98)
        got["a"].append(98)
        again = c.find_one()
        del again["_id"]
        assert again == want

    def test_leaf_containers_are_copies_and_the_rest_deep_copies(self):
        """A leaf dict or list (scalars only) is copied whole, but still
        per reference: a shared one comes out as two.  Whatever is not a
        plain dict, list or scalar is deep-copied, its type kept."""
        class Sub(dict):
            pass

        leaf_list, leaf_dict = [1.5, "a", None, True], {"x": 1, "y": -0.0}
        tup, sub = (1, [2]), Sub(a=[1])
        doc = {"l1": leaf_list, "l2": leaf_list, "d1": leaf_dict,
               "d2": leaf_dict, "nest": [leaf_list, {"d": leaf_dict}],
               "t": tup, "s": {1, 2}, "p": Payload([1]),
               "n": np.float64(1.5), "sub": sub}
        got = _clone(doc)
        assert got == doc and list(got) == list(doc)
        lists = [got["l1"], got["l2"], got["nest"][0], leaf_list]
        dicts = [got["d1"], got["d2"], got["nest"][1]["d"], leaf_dict]
        assert len({id(x) for x in lists}) == len({id(x) for x in dicts}) == 4
        assert type(got["n"]) is np.float64 and got["n"] == 1.5
        assert type(got["sub"]) is Sub and got["sub"]["a"] is not sub["a"]
        assert type(got["t"]) is tuple and got["t"][1] is not tup[1]
        assert type(got["p"]) is Payload and got["p"].xs is not doc["p"].xs

        c = coll()
        c.insert_one(doc)
        before = copy.deepcopy(c.find())
        out = c.find_one()
        out["l1"].append(99)
        out["d2"]["z"] = 99
        out["nest"][1]["d"]["x"] = 99
        leaf_list.append(98)
        leaf_dict["x"] = 98
        assert c.find() == before

    def test_push_each_extends_and_rejects_other_modifiers(self):
        c = coll()
        c.insert_one({"k": 1, "log": [0]})
        c.update_one({"k": 1}, {"$push": {"log": {"$each": [1, 2]}}})
        c.update_one({"k": 1}, {"$push": {"log": {"$each": []}}})
        c.update_one({"k": 1}, {"$push": {"fresh": {"$each": ["a"]}}})
        got = c.find_one()
        assert got["log"] == [0, 1, 2] and got["fresh"] == ["a"]
        with pytest.raises(MongoError):
            c.update_one({"k": 1}, {"$push": {"log": {"$each": [3], "$slice": 2}}})
        with pytest.raises(MongoError):
            c.update_one({"k": 1}, {"$push": {"log": {"$each": 3}}})


class TestProjection:
    DOC = {
        "hostname": "n1",
        "aggregates": {"m1": {"_f": {"min": 1.0}, "_g": {"min": 2.0}},
                       "m2": {"_f": {"min": 3.0}}},
        "sketches": {"m1": {"_f": {"digest": [1, 2, 3]}}},
        "time": {"start": 0.0, "end": 1.0},
    }

    def _coll(self):
        c = coll()
        self._id = c.insert_one(self.DOC)
        return c

    def test_returns_exactly_the_requested_paths_plus_id(self):
        c = self._coll()
        got = c.find({"hostname": "n1"},
                     projection=["hostname", "aggregates.m1._f", "time.end"])
        assert got == [{
            "_id": self._id, "hostname": "n1",
            "aggregates": {"m1": {"_f": {"min": 1.0}}}, "time": {"end": 1.0},
        }]
        assert c.find_one(projection={"time": 1}) == {
            "_id": self._id, "time": {"start": 0.0, "end": 1.0}}
        assert c.find(projection=[]) == [{"_id": self._id}]

    def test_missing_path_is_omitted_not_none(self):
        c = self._coll()
        got = c.find_one(projection=["nope", "hostname.deeper", "sketches.m2._f",
                                     "aggregates.m9"])
        assert got == {"_id": self._id, "sketches": {}, "aggregates": {}}

    def test_dotted_key_cannot_alias_a_nested_path(self):
        c = coll()
        _id = c.insert_one({"aggregates": {
            "a.b": {"_f": "flat"}, "a": {"b": {"_f": "nested"}, "b._f": "other"}}})
        assert c.find_one(projection=[("aggregates", "a.b", "_f")]) == {
            "_id": _id, "aggregates": {"a.b": {"_f": "flat"}}}
        assert c.find_one(projection=["aggregates.a.b._f"]) == {
            "_id": _id, "aggregates": {"a": {"b": {"_f": "nested"}}}}
        assert c.find_one(projection=[("aggregates", "a", "b._f")]) == {
            "_id": _id, "aggregates": {"a": {"b._f": "other"}}}

    def test_arrays_project_over_their_subdocuments(self):
        c = coll()
        _id = c.insert_one({"entries": [{"@id": "o1", "big": [1] * 9}, 7,
                                        {"@id": "o2"}, {"other": 1}]})
        assert c.find_one(projection=["entries.@id"]) == {
            "_id": _id, "entries": [{"@id": "o1"}, {"@id": "o2"}, {}]}

    def test_limit_and_filter_still_apply(self):
        c = coll()
        c.insert_many([{"i": i, "pad": [i] * 4} for i in range(5)])
        got = c.find({"i": {"$gte": 1}}, limit=2, projection=["i"])
        assert [d["i"] for d in got] == [1, 2]
        assert all(set(d) == {"_id", "i"} for d in got)

    @pytest.mark.parametrize("bad", [
        {"hostname": 0}, ["time", "time.end"], ["time.end", "time"], [()],
        [("time", 1)],
    ])
    def test_bad_projections_rejected(self, bad):
        with pytest.raises(MongoError):
            self._coll().find(projection=bad)


class TestMongoDB:
    def test_collections_listed(self):
        m = MongoDB()
        m.collection("dt", "kb")
        m.collection("dt", "observations")
        assert m.collections("dt") == ["kb", "observations"]
        assert m.databases() == ["dt"]

    def test_same_collection_returned(self):
        m = MongoDB()
        a = m.collection("dt", "kb")
        b = m.collection("dt", "kb")
        assert a is b

    def test_drop_database(self):
        m = MongoDB()
        m.collection("dt", "kb").insert_one({"a": 1})
        m.drop_database("dt")
        assert m.databases() == []


class TestDistinctValueKeying:
    """Regression: distinct() dedups by the canonical value_key encoding,
    not interpreter hash()/== quirks split across two seen-structures."""

    def test_dict_insertion_order_dedups(self):
        col = MongoDB().collection("dt", "kb")
        col.insert_one({"cfg": {"a": 1, "b": 2}})
        col.insert_one({"cfg": {"b": 2, "a": 1}})
        assert col.distinct("cfg") == [{"a": 1, "b": 2}]

    def test_negative_zero_collapses(self):
        col = MongoDB().collection("dt", "kb")
        col.insert_one({"v": 0.0})
        col.insert_one({"v": -0.0})
        out = col.distinct("v")
        assert len(out) == 1
        assert str(out[0]) == "0.0"  # first-seen wins

    def test_unhashable_values_dedup_in_constant_time(self):
        col = MongoDB().collection("dt", "kb")
        for i in range(200):
            col.insert_one({"tags": [i % 5, "x"]})
        assert col.distinct("tags") == [[i, "x"] for i in range(5)]

    def test_mixed_hashable_and_unhashable_first_seen_order(self):
        col = MongoDB().collection("dt", "kb")
        for v in (3, [1], "s", [1], 3.0, {"k": 1}, {"k": 1}):
            col.insert_one({"v": v})
        assert col.distinct("v") == [3, [1], "s", {"k": 1}]
