"""In-memory MongoDB 6 substitute.

"MongoDB stores the knowledge base as JSON-LD extended with entries for each
computation" (§III-A).  This substrate provides databases, collections, and
the query-operator subset the KB layer and SUPERDB use: equality matches on
dotted paths, ``$eq $ne $gt $gte $lt $lte $in $nin $exists $regex``, the
logical ``$and $or``, plus ``$set``/``$push`` (with ``$each``) updates.

Documents are cloned on insert and on return, so callers cannot mutate
stored state by accident — the property that makes "the KB is given to each
function as a parameter ... a snapshot" (§III) trustworthy.  The copy
contract is that a call costs what it writes or reads, not what the
document weighs: writes clone the value written (``$push`` the pushed
elements, not the array), ``count_documents``/``distinct`` clone nothing,
and ``find``/``find_one`` with a ``projection`` clone only the projected
paths.

Collections support ordered secondary indexes (:meth:`Collection.create_index`).
An index never changes results: the planner only narrows the scan to a
candidate *superset* (hash buckets for equality/containment, bisected sorted
runs for ranges), every candidate is re-verified by the full filter, and
candidates are visited in insertion order — so ``find``/``count_documents``/
``distinct`` stay byte-identical to the linear scan.  Indexes rebuild lazily
(one dirty flag per collection): updates, replaces and deletes cost one
rebuild at the next read, an insert into clean indexes extends them in place.
"""

from __future__ import annotations

import copy
import itertools
import numbers
import re
from bisect import bisect_left, bisect_right
from typing import Any

from .sketch import value_key

__all__ = ["MongoError", "Collection", "MongoDB"]


class MongoError(ValueError):
    """Bad filter/update documents."""


_OPERATORS = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin", "$exists", "$regex"}

_ATOMIC = frozenset({str, int, float, bool, type(None)})


def _clone(value: Any) -> Any:
    """Independent copy of a JSON tree.

    Plain dicts, lists and scalars — what documents are made of — are
    rebuilt directly; anything else (tuple, set, dataclass, numpy scalar,
    dict/list subclass) is deep-copied, so nothing the caller holds is
    ever shared with the store.  Unlike one deep copy of the whole tree, a
    sub-list referenced twice comes out as two lists — as it would from a
    real server, which stores bytes, not references.
    """
    # Leaves are tested inline: most of a document is scalars, and a call
    # per scalar doubles the cost of the walk.
    t = type(value)
    if t is dict:
        return {k: v if type(v) in _ATOMIC else _clone(v) for k, v in value.items()}
    if t is list:
        return [v if type(v) in _ATOMIC else _clone(v) for v in value]
    if t in _ATOMIC:
        return value
    return copy.deepcopy(value)


def _projection_tree(projection: Any) -> dict:
    """Compile a pymongo-style inclusion projection into a key trie.

    ``projection`` is an iterable of paths or a ``{path: truthy}`` dict.  A
    path is a dotted string or a tuple of keys; the tuple form takes each
    key literally, so a key that itself contains ``.`` (a measurement
    name, say) cannot alias a nested path.  ``_id`` is always included.
    """
    if isinstance(projection, dict) and not all(projection.values()):
        raise MongoError("only inclusion projections are supported")
    tree: dict = {"_id": True}
    for path in projection:
        parts = path.split(".") if isinstance(path, str) else tuple(path)
        if not parts or not all(isinstance(p, str) for p in parts):
            raise MongoError(f"bad projection path {path!r}")
        cur = tree
        for p in parts[:-1]:
            cur = cur.setdefault(p, {})
            if cur is True:
                raise MongoError(f"projection path collision at {path!r}")
        if cur.setdefault(parts[-1], True) is not True:
            raise MongoError(f"projection path collision at {path!r}")
    return tree


def _project(doc: dict, tree: dict) -> dict:
    """Clone only the paths of ``tree`` out of ``doc``, in ``tree`` order.

    Missing paths are omitted; arrays project element-wise over their
    sub-documents, as on a real server.
    """
    out = {}
    for key, sub in tree.items():
        if key not in doc:
            continue
        value = doc[key]
        if sub is True:
            out[key] = _clone(value)
        elif isinstance(value, dict):
            out[key] = _project(value, sub)
        elif isinstance(value, list):
            out[key] = [_project(el, sub) for el in value if isinstance(el, dict)]
    return out


def _resolve_path(doc: Any, path: str) -> tuple[bool, Any]:
    """Walk a dotted path; returns (found, value)."""
    cur = doc
    for part in path.split("."):
        if isinstance(cur, dict) and part in cur:
            cur = cur[part]
        elif isinstance(cur, list) and part.isdigit() and int(part) < len(cur):
            cur = cur[int(part)]
        else:
            return False, None
    return True, cur


def _match_value(value: Any, found: bool, cond: Any) -> bool:
    if isinstance(cond, dict) and any(k.startswith("$") for k in cond):
        for op, arg in cond.items():
            if op not in _OPERATORS:
                raise MongoError(f"unsupported operator {op!r}")
            if op == "$exists":
                if bool(arg) != found:
                    return False
                continue
            if not found:
                return False
            try:
                if op == "$eq" and not value == arg:
                    return False
                if op == "$ne" and not value != arg:
                    return False
                if op == "$gt" and not value > arg:
                    return False
                if op == "$gte" and not value >= arg:
                    return False
                if op == "$lt" and not value < arg:
                    return False
                if op == "$lte" and not value <= arg:
                    return False
                if op == "$in" and value not in arg:
                    return False
                if op == "$nin" and value in arg:
                    return False
                if op == "$regex" and not (
                    isinstance(value, str) and re.search(arg, value)
                ):
                    return False
            except TypeError:
                return False
        return True
    # Plain equality; arrays match if equal or containing the value.
    if not found:
        return False
    if isinstance(value, list) and not isinstance(cond, list):
        return cond in value or value == cond
    return value == cond


def _matches(doc: dict, flt: dict) -> bool:
    for key, cond in flt.items():
        if key == "$and":
            if not all(_matches(doc, sub) for sub in cond):
                return False
        elif key == "$or":
            if not any(_matches(doc, sub) for sub in cond):
                return False
        elif key.startswith("$"):
            raise MongoError(f"unsupported top-level operator {key!r}")
        else:
            found, value = _resolve_path(doc, key)
            if not _match_value(value, found, cond):
                return False
    return True


class _Index:
    """Ordered secondary index over one dotted path.

    Holds, per document position: hash buckets on the resolved value
    (``eq``), hash buckets on hashable list elements (``contains`` — the
    array-containment leg of plain equality), sorted numeric and string
    runs for range operators, and the sorted positions where the path
    resolves at all (``present``).  Lookups return candidate *supersets*;
    the caller re-verifies every candidate against the full filter.
    """

    __slots__ = ("path", "eq", "contains", "num_vals", "num_pos",
                 "str_vals", "str_pos", "present")

    def __init__(self, path: str) -> None:
        self.path = path
        self.build([])

    def _file(self, pos: int, d: dict) -> Any:
        """File ``d`` (at ``pos``, past every position filed) in the hash
        slots; returns its value if a sorted run takes it too, else None."""
        found, v = _resolve_path(d, self.path)
        if not found:
            return None
        self.present.append(pos)
        try:
            self.eq.setdefault(v, []).append(pos)
        except TypeError:
            pass  # unhashable (list/dict): reachable via contains/linear
        if isinstance(v, list):
            for el in v:
                try:
                    bucket = self.contains.setdefault(el, [])
                except TypeError:
                    continue
                if not bucket or bucket[-1] != pos:
                    bucket.append(pos)
            return None
        if isinstance(v, numbers.Real):
            return v if v == v else None  # NaN never matches a range
        return v if isinstance(v, str) else None

    def build(self, docs: list[dict]) -> None:
        self.eq: dict[Any, list[int]] = {}
        self.contains: dict[Any, list[int]] = {}
        self.present: list[int] = []
        nums: list[tuple[Any, int]] = []
        strs: list[tuple[str, int]] = []
        for pos, d in enumerate(docs):
            v = self._file(pos, d)
            if v is not None:
                (strs if isinstance(v, str) else nums).append((v, pos))
        nums.sort(key=lambda p: p[0])
        strs.sort(key=lambda p: p[0])
        self.num_vals = [v for v, _ in nums]
        self.num_pos = [p for _, p in nums]
        self.str_vals = [v for v, _ in strs]
        self.str_pos = [p for _, p in strs]

    def add(self, pos: int, d: dict) -> None:
        """Extend a built index by the document appended at ``pos``: after
        its ties in the sorted runs, where the stable sort leaves them."""
        v = self._file(pos, d)
        if v is not None:
            vals, at = ((self.str_vals, self.str_pos) if isinstance(v, str)
                        else (self.num_vals, self.num_pos))
            k = bisect_right(vals, v)
            vals.insert(k, v)
            at.insert(k, pos)

    # -- candidate lookups (None = index unusable for this condition) ----
    def _range(self, op: str, arg: Any) -> list[int] | None:
        if isinstance(arg, numbers.Real):
            if arg != arg:  # NaN bound: bisect is meaningless
                return None
            vals, pos = self.num_vals, self.num_pos
        elif isinstance(arg, str):
            vals, pos = self.str_vals, self.str_pos
        else:
            return None
        if op == "$gt":
            return pos[bisect_right(vals, arg):]
        if op == "$gte":
            return pos[bisect_left(vals, arg):]
        if op == "$lt":
            return pos[:bisect_left(vals, arg)]
        return pos[:bisect_right(vals, arg)]  # $lte

    def _equality(self, arg: Any, containment: bool) -> list[int] | None:
        try:
            cands = list(self.eq.get(arg, ()))
        except TypeError:
            return None  # unhashable filter value (whole-list/dict equality)
        if containment:
            cands += self.contains.get(arg, ())
        return cands

    def candidates(self, cond: Any) -> list[int] | None:
        """Positions that *could* satisfy ``cond`` (always a superset)."""
        if isinstance(cond, dict) and any(k.startswith("$") for k in cond):
            best: list[int] | None = None
            for op, arg in cond.items():
                c: list[int] | None = None
                if op == "$eq":
                    c = self._equality(arg, containment=False)
                elif op in ("$gt", "$gte", "$lt", "$lte"):
                    c = self._range(op, arg)
                elif op == "$in" and isinstance(arg, (list, tuple)):
                    c = []
                    for el in arg:
                        sub = self._equality(el, containment=False)
                        if sub is None:
                            c = None
                            break
                        c += sub
                elif op == "$exists" and arg:
                    c = self.present
                if c is not None and (best is None or len(c) < len(best)):
                    best = c
            return best
        return self._equality(cond, containment=True)


class Collection:
    """One document collection."""

    _ids = itertools.count(1)

    def __init__(self, name: str) -> None:
        self.name = name
        self._docs: list[dict] = []
        self._indexes: dict[str, _Index] = {}
        self._dirty = False
        #: Observability: reads served through an index vs full scans.
        self.index_hits = 0
        self.full_scans = 0

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def create_index(self, keys: str | list, **_kwargs: Any) -> str:
        """Create ordered secondary index(es); pymongo-style signature.

        Accepts ``"path"`` or ``[("path", direction), ...]`` — compound
        specs index each component path separately (each narrows a scan
        independently, and candidates are re-verified anyway).  Idempotent.
        """
        paths = [keys] if isinstance(keys, str) else [
            k[0] if isinstance(k, (tuple, list)) else k for k in keys
        ]
        if not paths:
            raise MongoError("create_index needs at least one key")
        for path in paths:
            if not isinstance(path, str) or not path:
                raise MongoError(f"bad index key {path!r}")
            if path not in self._indexes:
                self._indexes[path] = _Index(path)
                self._dirty = True
        return "_".join(f"{p}_1" for p in paths)

    def index_information(self) -> dict[str, dict]:
        return {f"{p}_1": {"key": [(p, 1)]} for p in sorted(self._indexes)}

    def _refresh_indexes(self) -> None:
        if self._dirty:
            for idx in self._indexes.values():
                idx.build(self._docs)
            self._dirty = False

    def _candidates(self, flt: dict) -> list[int] | None:
        """Smallest single-condition candidate set, or None (full scan).

        Only top-level path conditions and ``$and`` branches can narrow
        (every one must hold); any usable one yields a verified superset.
        """
        best: list[int] | None = None
        for key, cond in flt.items():
            c: list[int] | None = None
            if key == "$and":
                for sub in cond:
                    sc = self._candidates(sub)
                    if sc is not None and (c is None or len(sc) < len(c)):
                        c = sc
            elif not key.startswith("$"):
                idx = self._indexes.get(key)
                if idx is not None:
                    c = idx.candidates(cond)
            if c is not None and (best is None or len(c) < len(best)):
                best = c
        return best

    def _scan(self, flt: dict):
        """Yield (position, stored doc) of every match in insertion order,
        via the planner."""
        if self._indexes and flt:
            self._refresh_indexes()
            cands = self._candidates(flt)
            if cands is not None:
                self.index_hits += 1
                docs = self._docs
                for pos in sorted(set(cands)):
                    d = docs[pos]
                    if _matches(d, flt):
                        yield pos, d
                return
        self.full_scans += 1
        for pos, d in enumerate(self._docs):
            if _matches(d, flt):
                yield pos, d

    # ------------------------------------------------------------------
    def insert_one(self, doc: dict) -> Any:
        if not isinstance(doc, dict):
            raise MongoError("documents must be dicts")
        stored = _clone(doc)
        stored.setdefault("_id", f"oid{next(self._ids):08d}")
        self._docs.append(stored)
        if not self._dirty:  # clean indexes grow by the one document
            for idx in self._indexes.values():
                idx.add(len(self._docs) - 1, stored)
        return stored["_id"]

    def insert_many(self, docs: list[dict]) -> list[Any]:
        return [self.insert_one(d) for d in docs]

    def find(
        self,
        flt: dict | None = None,
        limit: int | None = None,
        projection: Any = None,
    ) -> list[dict]:
        """Copies of the matching documents, in insertion order.

        With a ``projection`` (see :func:`_projection_tree`) each result
        holds ``_id`` and the requested paths only, and only those are
        cloned — the way to read one field of a heavy document.
        """
        flt = flt or {}
        tree = None if projection is None else _projection_tree(projection)
        out = []
        for _, d in self._scan(flt):
            out.append(_clone(d) if tree is None else _project(d, tree))
            if limit is not None and len(out) >= limit:
                break
        return out

    def find_one(self, flt: dict | None = None, projection: Any = None) -> dict | None:
        res = self.find(flt, limit=1, projection=projection)
        return res[0] if res else None

    def count_documents(self, flt: dict | None = None) -> int:
        """Number of matches; clones nothing, so it is the existence test."""
        flt = flt or {}
        return sum(1 for _ in self._scan(flt))

    def distinct(self, path: str, flt: dict | None = None) -> list[Any]:
        """Distinct resolved values among matching docs, first-seen order.

        Dedup is by the sketch module's canonical :func:`value_key`
        encoding — one O(1) path for every value shape.  Unhashable
        values (lists/dicts) no longer pay list membership, dicts dedup
        regardless of insertion order, ``1``/``1.0`` and ``-0.0``/``0.0``
        collapse exactly as ``==`` says they should, and the keying is
        process-stable (no salted ``hash()``), so DISTINCT answers agree
        with the Influx side's value-keyed DISTINCT.
        """
        flt = flt or {}
        seen: set[bytes] = set()
        out: list[Any] = []
        for _, d in self._scan(flt):
            found, v = _resolve_path(d, path)
            if not found:
                continue
            k = value_key(v)
            if k not in seen:
                seen.add(k)
                out.append(v)
        return out

    # ------------------------------------------------------------------
    def update_one(self, flt: dict, update: dict) -> int:
        """Apply ``$set``/``$push`` to the first matching document."""
        for _, d in self._scan(flt):
            self._apply_update(d, update)
            self._dirty = True
            return 1
        return 0

    def update_many(self, flt: dict, update: dict) -> int:
        n = 0
        for _, d in self._scan(flt):
            self._apply_update(d, update)
            n += 1
        if n:
            self._dirty = True
        return n

    @staticmethod
    def _apply_update(doc: dict, update: dict) -> None:
        for op, spec in update.items():
            if op == "$set":
                for path, value in spec.items():
                    parts = path.split(".")
                    cur = doc
                    for p in parts[:-1]:
                        cur = cur.setdefault(p, {})
                    cur[parts[-1]] = _clone(value)
            elif op == "$push":
                for path, value in spec.items():
                    parts = path.split(".")
                    cur = doc
                    for p in parts[:-1]:
                        cur = cur.setdefault(p, {})
                    arr = cur.setdefault(parts[-1], [])
                    if not isinstance(arr, list):
                        raise MongoError(f"$push target {path!r} is not an array")
                    if isinstance(value, dict) and "$each" in value:
                        if len(value) != 1 or not isinstance(value["$each"], list):
                            raise MongoError("$push takes {'$each': [...]} alone")
                        arr.extend(_clone(value["$each"]))
                    else:
                        arr.append(_clone(value))
            else:
                raise MongoError(f"unsupported update operator {op!r}")

    def replace_one(self, flt: dict, doc: dict, upsert: bool = False) -> int:
        for pos, d in self._scan(flt):
            stored = _clone(doc)
            stored.setdefault("_id", d["_id"])
            self._docs[pos] = stored
            self._dirty = True
            return 1
        if upsert:
            self.insert_one(doc)
            return 1
        return 0

    def delete_many(self, flt: dict) -> int:
        doomed = {pos for pos, _ in self._scan(flt)}
        if doomed:
            self._docs = [d for pos, d in enumerate(self._docs) if pos not in doomed]
            self._dirty = True
        return len(doomed)

    def __len__(self) -> int:
        return len(self._docs)


class MongoDB:
    """The document store: named databases of named collections."""

    def __init__(self) -> None:
        self._dbs: dict[str, dict[str, Collection]] = {}

    def collection(self, db: str, name: str) -> Collection:
        cols = self._dbs.setdefault(db, {})
        if name not in cols:
            cols[name] = Collection(name)
        return cols[name]

    def __getitem__(self, db: str) -> dict[str, Collection]:
        return self._dbs.setdefault(db, {})

    def databases(self) -> list[str]:
        return sorted(self._dbs)

    def collections(self, db: str) -> list[str]:
        return sorted(self._dbs.get(db, {}))

    def drop_database(self, db: str) -> None:
        self._dbs.pop(db, None)
