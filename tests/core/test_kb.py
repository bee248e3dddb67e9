"""Tests for Knowledge Base construction, navigation, and persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KBError, KnowledgeBase
from repro.core.dtmi import make_dtmi
from repro.core.ontology import Interface, Property
from repro.db import MongoDB
from repro.db.mongo import Collection
from repro.machine import gpu_node, icl, skx
from repro.probing import probe


@pytest.fixture(scope="module")
def kb_skx():
    return KnowledgeBase.from_probe(probe(skx()), config={"influx": "host:8086"})


@pytest.fixture(scope="module")
def kb_gpu():
    return KnowledgeBase.from_probe(probe(gpu_node()))


class TestConstruction:
    def test_component_counts(self, kb_skx):
        assert len(kb_skx.components_of_kind("socket")) == 2
        assert len(kb_skx.components_of_kind("core")) == 44
        assert len(kb_skx.components_of_kind("thread")) == 88
        assert len(kb_skx.components_of_kind("numa")) == 2
        assert len(kb_skx.components_of_kind("disk")) == 4
        assert len(kb_skx.components_of_kind("nic")) == 1
        assert len(kb_skx.components_of_kind("memory")) == 1

    def test_caches_per_core_and_socket(self, kb_skx):
        caches = kb_skx.components_of_kind("cache")
        # 44 cores x (L1 + L2) + 2 sockets x L3.
        assert len(caches) == 44 * 2 + 2
        l3 = kb_skx.find_by_name("socket0 L3")
        assert l3.property_value("size_bytes") == int(30.25 * 1024 * 1024)

    def test_root_properties(self, kb_skx):
        root = kb_skx.get(kb_skx.root_id)
        assert root.property_value("os") == "Ubuntu 20.04.3 LTS x86_64"
        assert root.property_value("pcp_version") == "5.3.6-1"

    def test_thread_telemetry(self, kb_skx):
        t = kb_skx.find_by_name("cpu0")
        hw_names = {h.name for h in t.hw_telemetry()}
        assert "FP_ARITH:SCALAR_DOUBLE" in hw_names
        assert "RAPL_ENERGY_PKG" not in hw_names  # socket scope, not thread
        sw_names = {s.name for s in t.sw_telemetry()}
        assert "kernel.percpu.cpu.idle" in sw_names
        assert all(tel.field_name == "_cpu0" for tel in t.telemetry())

    def test_socket_has_rapl(self, kb_skx):
        s1 = kb_skx.find_by_name("socket1")
        names = {h.name for h in s1.hw_telemetry()}
        assert "RAPL_ENERGY_PKG" in names
        # Socket 1's RAPL is read via its first cpu.
        rapl = next(h for h in s1.hw_telemetry() if h.name == "RAPL_ENERGY_PKG")
        assert rapl.field_name == "_cpu22"

    def test_numa_owns_threads(self, kb_skx):
        n0 = kb_skx.find_by_name("numa0")
        owned = [r for r in n0.relationships() if r.name == "owns_thread"]
        assert len(owned) == 44  # 22 cores x 2 threads

    def test_gpu_interface_matches_listing4(self, kb_gpu):
        g = kb_gpu.find_by_name("gpu0")
        assert g.property_value("model") == "NVIDIA Quadro GV100"
        assert g.property_value("memory") == "34359 Mb"
        assert g.property_value("numa node") == 0
        ncu = [h for h in g.hw_telemetry() if h.pmu_name == "ncu"]
        assert any(
            h.name == "gpu__compute_memory_access_throughput" for h in ncu
        )
        nvml = {s.name for s in g.sw_telemetry()}
        assert "nvidia.memused" in nvml

    def test_missing_probe_section_rejected(self):
        with pytest.raises(KBError, match="missing section"):
            KnowledgeBase.from_probe({"hostname": "x"})

    def test_duplicate_interface_rejected(self, kb_skx):
        from repro.core import Interface, make_dtmi

        kb = KnowledgeBase.from_probe(probe(icl()))
        with pytest.raises(KBError, match="duplicate"):
            kb.add_interface(
                Interface(id=kb.root_id, kind="node", name="again"), parent=None
            )

    def test_unknown_parent_rejected(self):
        from repro.core import Interface, make_dtmi

        kb = KnowledgeBase.from_probe(probe(icl()))
        with pytest.raises(KBError, match="parent"):
            kb.add_interface(
                Interface(id=make_dtmi("icl", "extra"), kind="disk", name="x"),
                parent="dtmi:dt:ghost;1",
            )


class TestNavigation:
    def test_path_to_root(self, kb_skx):
        t = kb_skx.find_by_name("cpu45")
        names = [i.name for i in kb_skx.path_to_root(t.id)]
        assert names == ["cpu45", "core1", "socket0", "skx"]

    def test_children_and_parent(self, kb_skx):
        sock = kb_skx.find_by_name("socket0")
        kids = kb_skx.children(sock.id)
        kinds = {k.kind for k in kids}
        assert kinds == {"cache", "core"}
        assert kb_skx.parent(sock.id).id == kb_skx.root_id
        assert kb_skx.parent(kb_skx.root_id) is None

    def test_subtree_counts(self, kb_skx):
        core0 = kb_skx.find_by_name("core0")
        sub = kb_skx.subtree(core0.id)
        # core + L1 + L2 + 2 threads.
        assert len(sub) == 5
        assert sub[0].id == core0.id  # pre-order

    def test_leaves(self, kb_skx):
        core0 = kb_skx.find_by_name("core0")
        leaves = kb_skx.leaves(core0.id)
        assert all(not kb_skx.children(l.id) for l in leaves)
        assert len(leaves) == 4

    def test_depth(self, kb_skx):
        assert kb_skx.depth(kb_skx.root_id) == 0
        assert kb_skx.depth(kb_skx.find_by_name("cpu0").id) == 3

    def test_unknown_lookups(self, kb_skx):
        with pytest.raises(KBError):
            kb_skx.get("dtmi:dt:ghost;1")
        with pytest.raises(KBError):
            kb_skx.find_by_name("not-there")

    def test_render_tree(self, kb_skx):
        text = kb_skx.render_tree(max_depth=1)
        assert "skx" in text and "socket0" in text
        assert "cpu0" not in text  # depth-limited


class TestEntriesAndPersistence:
    def test_append_entry_validation(self):
        kb = KnowledgeBase.from_probe(probe(icl()))
        with pytest.raises(KBError, match="typed"):
            kb.append_entry({"foo": 1})
        kb.append_entry({"@type": "ObservationInterface", "@id": "dtmi:dt:icl:o1;1"})
        assert len(kb.entries_of_type("ObservationInterface")) == 1
        assert kb.entries_of_type("BenchmarkInterface") == []

    def test_jsonld_roundtrip(self, kb_skx):
        doc = kb_skx.to_jsonld()
        back = KnowledgeBase.from_jsonld(doc)
        assert len(back) == len(kb_skx)
        assert back.config == kb_skx.config
        t = back.find_by_name("cpu87")
        assert [i.name for i in back.path_to_root(t.id)][-1] == "skx"
        # Containment relationships are not duplicated by the round trip.
        sock = back.find_by_name("socket0")
        contains = [r for r in sock.relationships() if r.name == "contains"]
        orig = [r for r in kb_skx.find_by_name("socket0").relationships()
                if r.name == "contains"]
        assert len(contains) == len(orig)

    def test_mongo_save_load(self):
        kb = KnowledgeBase.from_probe(probe(icl()), config={"k": "v"})
        kb.append_entry({"@type": "ObservationInterface", "@id": "dtmi:dt:icl:o1;1"})
        mongo = MongoDB()
        kb.save(mongo)
        loaded = KnowledgeBase.load(mongo, "icl")
        assert len(loaded) == len(kb)
        assert loaded.entries == kb.entries

    def test_save_is_idempotent_upsert(self):
        kb = KnowledgeBase.from_probe(probe(icl()))
        mongo = MongoDB()
        kb.save(mongo)
        kb.save(mongo)
        assert mongo.collection("pmove", "kb").count_documents({}) == 1

    def test_load_missing_host(self):
        with pytest.raises(KBError, match="no KB"):
            KnowledgeBase.load(MongoDB(), "ghost")


# ======================================================================
# Delta persistence: a save sends what changed, and stores what a full
# replace would have stored
# ======================================================================
HOST = "h1"


def _small_kb():
    kb = KnowledgeBase(HOST)
    kb.config = {"influx": "host:8086", "nested": {"k": 0}}
    kb.add_interface(Interface(id=kb.root_id, kind="node", name=HOST), parent=None)
    kb.add_interface(
        Interface(id=make_dtmi(HOST, "memory"), kind="memory", name="memory"),
        parent=kb.root_id,
    )
    return kb


def _stored(mongo):
    col = mongo.collection("pmove", "kb")
    assert col.count_documents({"hostname": HOST}) == 1
    doc = col.find_one({"hostname": HOST})
    del doc["_id"]
    return doc


def _key_order(v):
    if isinstance(v, dict):
        return [(k, _key_order(x)) for k, x in v.items()]
    if isinstance(v, list):
        return [_key_order(x) for x in v]
    return None


def _assert_persisted(kb, mongo):
    stored, want = _stored(mongo), kb.to_jsonld()
    assert stored == want
    assert _key_order(stored) == _key_order(want)
    assert (KnowledgeBase.load(mongo, HOST).to_jsonld()
            == KnowledgeBase.from_jsonld(want).to_jsonld())


config_values = st.one_of(
    st.integers(0, 3), st.sampled_from(["a", "b"]),
    st.fixed_dictionaries({"k": st.integers(0, 3)}),
)
store = st.integers(0, 1)
kb_changes = st.one_of(
    st.tuples(st.just("append")),
    st.tuples(st.just("interface")),
    st.tuples(st.just("content"), st.integers(0, 5)),
    st.tuples(st.just("config"), st.sampled_from(["influx", "token", "x"]),
              config_values),
    st.tuples(st.just("config_nested"), st.integers(0, 3)),
    st.tuples(st.just("truncate"), st.integers(0, 6), st.booleans()),
    st.tuples(st.just("delete"), store),
    st.tuples(st.just("nothing")),
)
#: (change, store to save into afterwards or None): saves are frequent, so
#: that every change lands between two saves into one store often
kb_steps = st.lists(st.tuples(kb_changes, st.one_of(st.none(), store)), max_size=30)


class TestDeltaPersistence:
    @given(kb_steps)
    @settings(max_examples=200, deadline=None)
    def test_delta_save_equals_full_save(self, steps):
        kb = _small_kb()
        mongos = (MongoDB(), MongoDB())
        for n, (op, save_into) in enumerate(steps):
            if op[0] == "append":
                kb.append_entry({"@type": "ObservationInterface",
                                 "@id": make_dtmi(HOST, f"o{n}"),
                                 "metrics": [{"fields": ["_cpu0", "_cpu1"]}]})
            elif op[0] == "interface":
                kb.add_interface(
                    Interface(id=make_dtmi(HOST, f"disk{n}"), kind="disk",
                              name=f"disk{n}"),
                    parent=kb.root_id)
            elif op[0] == "content":
                ifaces = list(kb.interfaces.values())
                ifaces[op[1] % len(ifaces)].add(
                    Property(id=make_dtmi(HOST, f"p{n}"), name=f"p{n}", description=n))
            elif op[0] == "config":
                kb.config[op[1]] = op[2]
            elif op[0] == "config_nested":
                kb.config["nested"]["k"] = op[1]
            elif op[0] == "truncate":
                if op[2]:
                    del kb.entries[op[1]:]
                else:
                    kb.entries = kb.entries[:op[1]]
            elif op[0] == "delete":
                mongos[op[1]].collection("pmove", "kb").delete_many({"hostname": HOST})
            if save_into is not None:
                kb.save(mongos[save_into])
                _assert_persisted(kb, mongos[save_into])

    @pytest.mark.parametrize("change", [
        lambda kb: kb.config.__setitem__("token", "t2"),
        lambda kb: kb.config["nested"].__setitem__("k", 9),
        lambda kb: kb.add_interface(
            Interface(id=make_dtmi(HOST, "nic0"), kind="nic", name="nic0"),
            parent=kb.root_id),
        lambda kb: kb.get(kb.root_id).add(
            Property(id=make_dtmi(HOST, "os"), name="os", description="linux")),
    ], ids=["config", "nested-config", "interface", "content"])
    def test_structure_change_is_never_persisted_stale(self, change):
        kb, mongo = _small_kb(), MongoDB()
        kb.append_entry({"@type": "ObservationInterface", "@id": make_dtmi(HOST, "o1")})
        kb.save(mongo)
        change(kb)
        kb.append_entry({"@type": "ObservationInterface", "@id": make_dtmi(HOST, "o2")})
        kb.save(mongo)
        _assert_persisted(kb, mongo)

    def test_rewritten_log_is_replaced_not_extended(self):
        """Longer than what was persisted is not enough for a push: the
        entries persisted must still be the head of the log."""
        kb, mongo = _small_kb(), MongoDB()
        for i in range(3):
            kb.append_entry({"@type": "ObservationInterface",
                             "@id": make_dtmi(HOST, f"o{i}")})
        kb.save(mongo)
        del kb.entries[1:]
        for i in range(3, 7):
            kb.append_entry({"@type": "ObservationInterface",
                             "@id": make_dtmi(HOST, f"o{i}")})
        kb.save(mongo)
        _assert_persisted(kb, mongo)

    def test_appending_sends_only_the_new_entries(self, monkeypatch):
        """A profiling session's saves cost what they append: one full
        replace, then pushes of the tail; a save with nothing new writes
        nothing."""
        calls = []
        for name in ("replace_one", "update_one"):
            real = getattr(Collection, name)

            def spy(self, flt, arg, *a, _name=name, _real=real, **kw):
                calls.append((_name, arg))
                return _real(self, flt, arg, *a, **kw)

            monkeypatch.setattr(Collection, name, spy)
        kb, mongo = _small_kb(), MongoDB()
        for i in range(5):
            kb.append_entry({"@type": "ObservationInterface",
                             "@id": make_dtmi(HOST, f"o{i}")})
            kb.append_entry({"@type": "ProcessInterface",
                             "@id": make_dtmi(HOST, f"p{i}")})
            kb.save(mongo)
        kb.save(mongo)
        assert [c[0] for c in calls] == ["replace_one"] + ["update_one"] * 4
        assert [c[1] for c in calls[1:]] == [
            {"$push": {"entries": {"$each": kb.entries[2 * i:2 * i + 2]}}}
            for i in range(1, 5)
        ]
        _assert_persisted(kb, mongo)
