"""The Knowledge Base (Fig 1, §III).

"Capturing the target system and its component hierarchy, the KB can be
parsed to acquire any information from topology to database parameters."

A :class:`KnowledgeBase` is a tree of :class:`~repro.core.ontology.Interface`
twins — node → sockets → cores → threads, plus caches, NUMA domains, memory,
disks, NICs and GPUs — each carrying Properties, Relationships and
SW/HW-Telemetry contents; a configuration section (the step-0 environment:
database endpoints, Grafana token); and an append-only list of *entries*
(ObservationInterface / BenchmarkInterface documents, §III-C).

The KB is built exclusively from a **parsed probe** (host side of Fig 3
steps 1–2), never from a live :class:`MachineSpec` — see
:mod:`repro.probing.prober`.
"""

from __future__ import annotations

import re
from operator import is_
from typing import Any

from repro.db.mongo import _ATOMIC, Collection, MongoDB, _clone
from repro.pcp.pmns import instance_field, metric_to_measurement, perfevent_metric

from .dtmi import make_dtmi, parse_dtmi
from .ontology import (
    DTDL_CONTEXT,
    Command,
    HWTelemetry,
    Interface,
    OntologyError,
    Property,
    Relationship,
    SWTelemetry,
)

__all__ = ["KnowledgeBase", "KBError"]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "core.kb": {
        "KnowledgeBase": (
            "from_probe", "save", "append_entry", "entries_of_type",
            "to_jsonld", "subtree", "get"),
    },
}


class KBError(ValueError):
    """Inconsistent KB structure or failed lookups."""


def _seg(s: str) -> str:
    """Coerce arbitrary names into valid DTMI segments."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", str(s))
    if not cleaned or not cleaned[0].isalpha():
        cleaned = "c_" + cleaned
    return cleaned


#: ncu metrics attached to GPU twins as HWTelemetry (Listing 4's example is
#: gpu__compute_memory_access_throughput).
_NCU_EVENTS = (
    ("gpu__compute_memory_access_throughput",
     "Compute Memory Pipeline: throughput of internal activity within caches and DRAM"),
    ("sm__throughput", "SM throughput as percent of peak"),
    ("dram__bytes", "Bytes transferred to/from DRAM"),
    ("gpu__time_duration", "Kernel wall time"),
)


class KnowledgeBase:
    """The tree of twins plus config and history entries."""

    def __init__(self, hostname: str) -> None:
        self.hostname = hostname
        self.root_id = make_dtmi(_seg(hostname))
        self.interfaces: dict[str, Interface] = {}
        self._children: dict[str, list[str]] = {}
        self._parent: dict[str, str | None] = {}
        self.config: dict[str, Any] = {}
        self.entries: list[dict[str, Any]] = []
        self.probe: dict[str, Any] = {}
        #: What :meth:`save` last wrote into each collection — (shape
        #: snapshot, references to the entries persisted) — so the next
        #: save there can send only what changed.
        self._persisted: dict[Collection, tuple[tuple, list]] = {}

    # ==================================================================
    # Construction
    # ==================================================================
    def add_interface(self, iface: Interface, parent: str | None) -> Interface:
        if iface.id in self.interfaces:
            raise KBError(f"duplicate interface {iface.id}")
        if parent is not None:
            if parent not in self.interfaces:
                raise KBError(f"parent {parent} not in KB")
            self._children.setdefault(parent, []).append(iface.id)
            # Encode the containment edge on the parent twin itself.
            psegs, pver = parse_dtmi(parent)
            self.interfaces[parent].add(
                Relationship(
                    id=make_dtmi(*psegs, f"rel_{_seg(iface.name)}", version=pver),
                    name="contains",
                    target=iface.id,
                )
            )
        self._parent[iface.id] = parent
        self.interfaces[iface.id] = iface
        self._children.setdefault(iface.id, [])
        return iface

    @classmethod
    def from_probe(cls, probe: dict[str, Any], config: dict[str, Any] | None = None) -> "KnowledgeBase":
        """Build the initial KB from a parsed probe bundle (§III-C)."""
        for key in ("hostname", "topology", "system", "pmu", "pcp"):
            if key not in probe:
                raise KBError(f"probe missing section {key!r}")
        host = probe["hostname"]
        kb = cls(host)
        kb.probe = probe
        kb.config = dict(config or {})
        topo = probe["topology"]
        h = _seg(host)

        root = Interface(id=kb.root_id, kind="node", name=host)
        root.add(Property(id=make_dtmi(h, "os"), name="os", description=probe["os"]))
        root.add(Property(id=make_dtmi(h, "kernel"), name="kernel", description=probe["kernel"]))
        root.add(Property(id=make_dtmi(h, "cpu_model"), name="cpu_model",
                          description=topo["cpu_name"]))
        root.add(Property(id=make_dtmi(h, "pcp_version"), name="pcp_version",
                          description=probe["pcp"].get("version", "")))
        root.add(Command(id=make_dtmi(h, "cmd_benchmark"), name="run_benchmark",
                         description="Run CARM/STREAM/HPCG via BenchmarkInterface"))
        root.add(Command(id=make_dtmi(h, "cmd_observe"), name="observe_kernel",
                         description="Scenario B: sample PMUs around a kernel execution"))
        kb.add_interface(root, parent=None)

        kb._attach_node_telemetry(probe)
        kb._build_memory(probe)
        kb._build_sockets(probe)
        kb._build_numa(probe)
        kb._build_disks(probe)
        kb._build_nics(probe)
        kb._build_gpus(probe)
        return kb

    # ------------------------------------------------------------------
    def _sw(self, owner_seg: list[str], n: int, metric: str, field: str, desc: str = "") -> SWTelemetry:
        return SWTelemetry(
            id=make_dtmi(*owner_seg, f"telemetry{n}"),
            name=metric,
            sampler_name=metric,
            db_name=metric_to_measurement(metric),
            field_name=field,
            description=desc,
        )

    def _attach_node_telemetry(self, probe: dict[str, Any]) -> None:
        root = self.interfaces[self.root_id]
        h = _seg(self.hostname)
        node_metrics = [
            m
            for m, meta in probe["pcp"].get("metrics", {}).items()
            if meta.get("domain") == "" and not m.startswith("hinv")
        ]
        for i, m in enumerate(sorted(node_metrics)):
            root.add(self._sw([h], i, m, "_value"))

    def _build_memory(self, probe: dict[str, Any]) -> None:
        h = _seg(self.hostname)
        mem = Interface(id=make_dtmi(h, "memory"), kind="memory", name="memory")
        mem.add(Property(id=make_dtmi(h, "memory", "size"), name="size_bytes",
                         description=probe["system"]["memory_bytes"]))
        if probe["system"].get("mem_clock_hz"):
            mem.add(Property(id=make_dtmi(h, "memory", "clock"), name="clock_hz",
                             description=probe["system"]["mem_clock_hz"]))
        kb_metrics = probe["pcp"].get("metrics", {})
        n = 0
        for m in ("mem.util.used", "mem.util.free"):
            if m in kb_metrics:
                mem.add(self._sw([h, "memory"], n, m, "_value"))
                n += 1
        self.add_interface(mem, parent=self.root_id)

    def _build_sockets(self, probe: dict[str, Any]) -> None:
        h = _seg(self.hostname)
        topo = probe["topology"]
        pmu = probe["pmu"]
        n_sockets = topo["sockets"]
        cores_per_socket = topo["cores_per_socket"]
        smt = topo["threads_per_core"]
        n_cores = n_sockets * cores_per_socket
        core_events = [e for e in pmu.get("events", []) if e not in pmu.get("socket_events", [])]
        socket_events = pmu.get("socket_events", [])
        caches = topo.get("caches", [])
        # threads of core c: {c + t*n_cores} — mirrors likwid numbering.
        hwthreads = topo.get("hwthreads", [])
        threads_by_core: dict[int, list[int]] = {}
        for cpu, _t, core, _s in hwthreads:
            threads_by_core.setdefault(core, []).append(cpu)

        for s in range(n_sockets):
            sseg = [h, f"socket{s}"]
            sock = Interface(id=make_dtmi(*sseg), kind="socket", name=f"socket{s}")
            sock.add(Property(id=make_dtmi(*sseg, "n_cores"), name="n_cores",
                              description=cores_per_socket))
            for i, ev in enumerate(sorted(socket_events)):
                first_cpu = s * cores_per_socket
                sock.add(
                    HWTelemetry(
                        id=make_dtmi(*sseg, f"telemetry{i}"),
                        name=ev,
                        pmu_name=pmu.get("uarch", "unknown"),
                        sampler_name=perfevent_metric(ev),
                        db_name=metric_to_measurement(perfevent_metric(ev)),
                        field_name=instance_field(f"cpu{first_cpu}"),
                        description=f"socket-scope event read via cpu{first_cpu}",
                    )
                )
            self.add_interface(sock, parent=self.root_id)

            # Shared LLC as a socket child.
            l3 = next((c for c in caches if c.get("level") == 3), None)
            if l3:
                cseg = sseg + ["l3"]
                c_iface = Interface(id=make_dtmi(*cseg), kind="cache", name=f"socket{s} L3")
                c_iface.add(Property(id=make_dtmi(*cseg, "size"), name="size_bytes",
                                     description=l3["size_bytes"]))
                c_iface.add(Property(id=make_dtmi(*cseg, "level"), name="level", description=3))
                self.add_interface(c_iface, parent=sock.id)

            for c_local in range(cores_per_socket):
                core_id = s * cores_per_socket + c_local
                coreseg = sseg + [f"core{core_id}"]
                core_iface = Interface(id=make_dtmi(*coreseg), kind="core", name=f"core{core_id}")
                self.add_interface(core_iface, parent=sock.id)
                for cache in caches:
                    if cache.get("level") in (1, 2):
                        lseg = coreseg + [f"l{cache['level']}"]
                        ci = Interface(id=make_dtmi(*lseg), kind="cache",
                                       name=f"core{core_id} L{cache['level']}")
                        ci.add(Property(id=make_dtmi(*lseg, "size"), name="size_bytes",
                                        description=cache["size_bytes"]))
                        ci.add(Property(id=make_dtmi(*lseg, "level"), name="level",
                                        description=cache["level"]))
                        self.add_interface(ci, parent=core_iface.id)
                cpus = sorted(threads_by_core.get(core_id, [core_id, core_id + n_cores]))[:smt]
                for cpu in cpus:
                    tseg = coreseg + [f"cpu{cpu}"]
                    t_iface = Interface(id=make_dtmi(*tseg), kind="thread", name=f"cpu{cpu}")
                    t_iface.add(Property(id=make_dtmi(*tseg, "cpu_id"), name="cpu_id",
                                         description=cpu))
                    fld = instance_field(f"cpu{cpu}")
                    n = 0
                    for metric, meta in sorted(probe["pcp"].get("metrics", {}).items()):
                        if meta.get("domain") == "percpu":
                            t_iface.add(self._sw(tseg, n, metric, fld))
                            n += 1
                    for ev in sorted(core_events):
                        t_iface.add(
                            HWTelemetry(
                                id=make_dtmi(*tseg, f"telemetry{n}"),
                                name=ev,
                                pmu_name=pmu.get("uarch", "unknown"),
                                sampler_name=perfevent_metric(ev),
                                db_name=metric_to_measurement(perfevent_metric(ev)),
                                field_name=fld,
                            )
                        )
                        n += 1
                    self.add_interface(t_iface, parent=core_iface.id)

    def _build_numa(self, probe: dict[str, Any]) -> None:
        h = _seg(self.hostname)
        for dom in probe["topology"].get("numa_domains", []):
            nseg = [h, f"numa{dom['node_id']}"]
            iface = Interface(id=make_dtmi(*nseg), kind="numa", name=f"numa{dom['node_id']}")
            iface.add(Property(id=make_dtmi(*nseg, "memory"), name="memory_mb",
                               description=dom.get("memory_mb")))
            fld = instance_field(f"node{dom['node_id']}")
            for i, m in enumerate(("mem.numa.alloc.hit", "mem.numa.alloc.miss")):
                if m in probe["pcp"].get("metrics", {}):
                    iface.add(self._sw(nseg, i, m, fld))
            for cpu in dom.get("processors", []):
                iface.add(
                    Relationship(
                        id=make_dtmi(*nseg, f"rel_cpu{cpu}"),
                        name="owns_thread",
                        target=self._thread_dtmi(cpu),
                    )
                )
            self.add_interface(iface, parent=self.root_id)

    def _build_disks(self, probe: dict[str, Any]) -> None:
        h = _seg(self.hostname)
        for d in probe.get("disks", []):
            dseg = [h, _seg(d["name"])]
            iface = Interface(id=make_dtmi(*dseg), kind="disk", name=d["name"])
            if "model" in d:
                iface.add(Property(id=make_dtmi(*dseg, "model"), name="model",
                                   description=d["model"]))
            if "size_bytes" in d:
                iface.add(Property(id=make_dtmi(*dseg, "size"), name="size_bytes",
                                   description=d["size_bytes"]))
            if "smart" in d:
                iface.add(Property(id=make_dtmi(*dseg, "health"), name="smart_health",
                                   description=d["smart"].get("health")))
            iface.add(self._sw(dseg, 0, "disk.dev.write_bytes", instance_field(d["name"])))
            self.add_interface(iface, parent=self.root_id)

    def _build_nics(self, probe: dict[str, Any]) -> None:
        h = _seg(self.hostname)
        for n in probe.get("system", {}).get("networks", []):
            nseg = [h, _seg(n["name"])]
            iface = Interface(id=make_dtmi(*nseg), kind="nic", name=n["name"])
            iface.add(Property(id=make_dtmi(*nseg, "product"), name="product",
                               description=n.get("product", "")))
            iface.add(Property(id=make_dtmi(*nseg, "capacity"), name="capacity_bps",
                               description=n.get("capacity_bps")))
            iface.add(self._sw(nseg, 0, "network.interface.out.bytes",
                               instance_field(n["name"])))
            self.add_interface(iface, parent=self.root_id)

    def _build_gpus(self, probe: dict[str, Any]) -> None:
        h = _seg(self.hostname)
        for g in probe.get("gpus", []):
            gseg = [h, f"gpu{g['index']}"]
            iface = Interface(id=make_dtmi(*gseg), kind="gpu", name=f"gpu{g['index']}")
            props = [
                ("model", g.get("model")),
                ("memory", f"{g.get('memory_mb')} Mb"),
                ("n_sms", g.get("n_sms")),
                ("compute_capability", g.get("compute_capability")),
                ("numa node", g.get("numa_node")),
                ("bus_id", g.get("bus_id")),
            ]
            for i, (name, val) in enumerate(p for p in props if p[1] is not None):
                iface.add(Property(id=make_dtmi(*gseg, f"property{i}"), name=name,
                                   description=val))
            fld = instance_field(f"gpu{g['index']}")
            n = 0
            for m in probe.get("nvml_metrics", []):
                iface.add(self._sw(gseg, n, m, fld))
                n += 1
            for ev, desc in _NCU_EVENTS:
                iface.add(
                    HWTelemetry(
                        id=make_dtmi(*gseg, f"telemetry{n}"),
                        name=ev,
                        pmu_name="ncu",
                        sampler_name=ev,
                        db_name=f"ncu_{ev}",
                        field_name=fld,
                        description=desc,
                    )
                )
                n += 1
            self.add_interface(iface, parent=self.root_id)

    def _thread_dtmi(self, cpu: int) -> str:
        """DTMI of the thread twin for a Linux CPU id."""
        for iface_id, iface in self.interfaces.items():
            if iface.kind == "thread" and iface.name == f"cpu{cpu}":
                return iface_id
        raise KBError(f"no thread twin for cpu{cpu}")

    # ==================================================================
    # Navigation (what the views consume)
    # ==================================================================
    def get(self, dtmi: str) -> Interface:
        try:
            return self.interfaces[dtmi]
        except KeyError:
            raise KBError(f"no interface {dtmi} in KB") from None

    def children(self, dtmi: str) -> list[Interface]:
        self.get(dtmi)
        return [self.interfaces[c] for c in self._children.get(dtmi, [])]

    def parent(self, dtmi: str) -> Interface | None:
        self.get(dtmi)
        p = self._parent.get(dtmi)
        return self.interfaces[p] if p else None

    def path_to_root(self, dtmi: str) -> list[Interface]:
        """The focus-view path: component → ... → whole system (§III-B)."""
        out = [self.get(dtmi)]
        while (p := self._parent.get(out[-1].id)) is not None:
            out.append(self.interfaces[p])
        return out

    def subtree(self, dtmi: str) -> list[Interface]:
        """Pre-order walk from an arbitrary node to all leaves (§III-B)."""
        out: list[Interface] = []
        stack = [dtmi]
        while stack:
            cur = stack.pop()
            out.append(self.get(cur))
            stack.extend(reversed(self._children.get(cur, [])))
        return out

    def leaves(self, dtmi: str) -> list[Interface]:
        return [i for i in self.subtree(dtmi) if not self._children.get(i.id)]

    def components_of_kind(self, kind: str) -> list[Interface]:
        """One level of the KB tree by type (§III-B level view)."""
        return [i for i in self.interfaces.values() if i.kind == kind]

    def find_by_name(self, name: str) -> Interface:
        for i in self.interfaces.values():
            if i.name == name:
                return i
        raise KBError(f"no interface named {name!r}")

    def depth(self, dtmi: str) -> int:
        return len(self.path_to_root(dtmi)) - 1

    # ==================================================================
    # Entries (§III-C: the KB "captures more ... by attaching new entries")
    # ==================================================================
    def append_entry(self, entry: dict[str, Any]) -> dict[str, Any]:
        if "@type" not in entry or "@id" not in entry:
            raise KBError("KB entries must be typed JSON-LD documents")
        self.entries.append(entry)
        return entry

    def entries_of_type(self, t: str) -> list[dict[str, Any]]:
        return [e for e in self.entries if e.get("@type") == t]

    # ==================================================================
    # Serialization / persistence
    # ==================================================================
    def _structure(self) -> dict[str, Any]:
        """Everything of the document but ``entries``: the part that
        rarely changes."""
        return {
            "@context": DTDL_CONTEXT,
            "hostname": self.hostname,
            "root": self.root_id,
            "config": self.config,
            "interfaces": {i.id: i.to_jsonld() for i in self.interfaces.values()},
            "tree": {k: list(v) for k, v in self._children.items()},
        }

    def to_jsonld(self) -> dict[str, Any]:
        return {**self._structure(), "entries": list(self.entries)}

    @classmethod
    def from_jsonld(cls, doc: dict[str, Any]) -> "KnowledgeBase":
        kb = cls(doc["hostname"])
        kb.config = dict(doc.get("config", {}))
        tree = doc.get("tree", {})
        parent_of: dict[str, str] = {}
        for parent, kids in tree.items():
            for k in kids:
                parent_of[k] = parent
        # Insert root first, then children in BFS order.
        order = [doc["root"]]
        seen = {doc["root"]}
        i = 0
        while i < len(order):
            for k in tree.get(order[i], []):
                if k not in seen:
                    order.append(k)
                    seen.add(k)
            i += 1
        for iface_id in order:
            iface_doc = doc["interfaces"][iface_id]
            iface = Interface.from_jsonld(iface_doc)
            # Drop auto-added containment rels; add_interface recreates them.
            iface.contents = [
                c for c in iface.contents
                if not (isinstance(c, Relationship) and c.name == "contains")
            ]
            kb.add_interface(iface, parent=parent_of.get(iface_id))
        kb.entries = list(doc.get("entries", []))
        return kb

    def _shape(self) -> tuple:
        """A snapshot of everything ``_structure`` is made of, cheap to
        take and to compare (:meth:`_same_shape`): the config by value, per
        interface its id, kind, name and contents list, and the tree.
        Contents are frozen dataclasses, so holding the same objects means
        holding the same values — except a Property whose description is
        not a scalar (a list, a dict) and can be edited in place: those
        descriptions are held by value."""
        rows = [(i.id, i.kind, i.name, list(i.contents))
                for i in self.interfaces.values()]
        held = [(c, _clone(c.description)) for _, _, _, contents in rows
                for c in contents
                if isinstance(c, Property) and type(c.description) not in _ATOMIC]
        return (self.hostname, self.root_id, _clone(self.config), rows, held,
                {k: list(v) for k, v in self._children.items()})

    def _same_shape(self, shape: tuple) -> bool:
        """Whether the KB still has ``shape`` (a :meth:`_shape`): a list
        compare per interface, by identity, and no JSON-LD built."""
        hostname, root, config, rows, held, tree = shape
        ifaces = self.interfaces
        return (
            hostname == self.hostname and root == self.root_id
            and config == self.config and len(rows) == len(ifaces)
            and all(r[0] == i.id and r[1] == i.kind and r[2] == i.name
                    and len(r[3]) == len(i.contents)
                    and all(map(is_, r[3], i.contents))
                    for r, i in zip(rows, ifaces.values()))
            and all(c.description == d for c, d in held)
            and tree == self._children
        )

    def save(self, mongo: MongoDB, database: str = "pmove",
             collection: str = "kb") -> None:
        """Persist to the document store (Fig 3 step 3; re-run on change).

        The document is the structure plus the append-only ``entries``
        log, and a save sends what changed: when the KB still has the
        shape last written to this collection (:meth:`_same_shape`), the
        host's document is still there and the entries persisted then are
        still the head of ``entries``, only the new tail is ``$push``ed.
        Anything else — a first save, another collection, a structure or
        config change, a deleted document, a truncated or rewritten log —
        replaces the document, so what is stored always equals
        ``to_jsonld()``.  Each collection keeps its own record, so saves
        into two of them (the local KB, SUPERDB's copy) do not reset each
        other.
        """
        col = mongo.collection(database, collection)
        flt = {"hostname": self.hostname}
        last = self._persisted.get(col)
        if last is not None:
            shape, sent = last
            if (
                self._same_shape(shape)
                and self.entries[:len(sent)] == sent
                and col.count_documents(flt) == 1
            ):
                new = self.entries[len(sent):]
                if new:
                    col.update_one(flt, {"$push": {"entries": {"$each": new}}})
                    sent.extend(new)
                return
        col.create_index("hostname")  # every load filters on it
        col.replace_one(flt, {**self._structure(), "entries": self.entries},
                        upsert=True)
        self._persisted[col] = (self._shape(), list(self.entries))

    @classmethod
    def load(cls, mongo: MongoDB, hostname: str, database: str = "pmove") -> "KnowledgeBase":
        doc = mongo.collection(database, "kb").find_one({"hostname": hostname})
        if doc is None:
            raise KBError(f"no KB for host {hostname!r} in {database}")
        return cls.from_jsonld(doc)

    # ==================================================================
    def render_tree(self, max_depth: int | None = None) -> str:
        """ASCII rendering of the twin hierarchy (Fig 1 flavour)."""
        lines: list[str] = []

        def walk(dtmi: str, prefix: str, depth: int) -> None:
            iface = self.interfaces[dtmi]
            tele = len(iface.telemetry())
            suffix = f"  [{iface.kind}, {tele} telemetry]" if tele else f"  [{iface.kind}]"
            lines.append(prefix + iface.name + suffix)
            if max_depth is not None and depth >= max_depth:
                return
            kids = self._children.get(dtmi, [])
            for i, k in enumerate(kids):
                walk(k, prefix + ("  " if prefix else "  "), depth + 1)

        walk(self.root_id, "", 0)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.interfaces)
