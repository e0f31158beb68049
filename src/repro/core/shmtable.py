"""Shared-memory table payloads for multi-process grids and clusters.

A grid fans independent crawls over a process pool, and a
:class:`~repro.net.cluster.SourceCluster` serves one table from several
worker processes; all of them read the *same* immutable
:class:`~repro.core.table.RelationalTable`.  :func:`share_table` copies
the table into **one** ``multiprocessing.shared_memory`` block —

- its CSR posting arrays (equality and keyword),
- every distinct attribute value (attribute index + UTF-8 text) and
  every keyword token, in interned-id order,
- every record as a row of value ids in ``attribute_values()`` order,
  rows in insertion order,

— and returns a tiny picklable :class:`SharedTableHandle`.  A process
calls :meth:`SharedTableHandle.table` to attach **once** (a module-level
cache keyed by block name; forked children inherit the parent's
attachment) and gets a plain ``RelationalTable`` whose posting arrays
are numpy views over the block.  Attaching decodes the interners and the
records once, so the attached table has every read method of the
original with the same body and the same results: ids keep their
values, postings their order, and a record's value row regroups into
the same ``fields`` (the row is attribute-contiguous in first-seen field
order).

Lifecycle: the creating process owns the block and must call
:meth:`SharedTableHandle.unlink` (or use the :func:`shared_table`
context manager) after the grid completes.  Unlinking gives the
creator's own attached table private copies of its arrays, so a table
still in use outlives the block.  Attaching processes deregister the
block from :mod:`multiprocessing.resource_tracker` — Python 3.9+
registers *every* ``SharedMemory(name=...)`` attachment, and a pool
worker's tracker would otherwise destroy the block (or warn about it)
when the worker exits mid-suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.records import Record
from repro.core.schema import Attribute, Schema
from repro.core.table import RelationalTable
from repro.core.values import AttributeValue

#: Wire-format tag written into every block's metadata header.
FORMAT = "repro-shmtable/2"

#: Attach-once cache: block name → (attached table, its mapping).
#: Forked workers inherit the parent's entries and never re-map.
_ATTACHED: Dict[str, Tuple[RelationalTable, shared_memory.SharedMemory]] = {}

#: Blocks created (not merely attached) by this process, for unlink().
_CREATED: Dict[str, shared_memory.SharedMemory] = {}


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _text(strings: List[str]) -> np.ndarray:
    # Normalized values are never empty and never hold a newline
    # (normalize() folds every whitespace run to one space), so a
    # newline separates them and an empty blob means no strings.
    return np.frombuffer("\n".join(strings).encode("utf-8"), dtype=np.uint8)


def _strings(blob: np.ndarray) -> List[str]:
    return blob.tobytes().decode("utf-8").split("\n") if blob.size else []


def share_table(table: RelationalTable) -> "SharedTableHandle":
    """Copy ``table`` into one shared-memory block and return a handle.

    The handle is a few dozen bytes and pickles freely; the block holds
    the complete table (values, both inverted indexes, record rows).

    Raises
    ------
    OSError
        If the block cannot be created (``/dev/shm`` missing or full).
    """
    values = table._value_interner.values()
    tokens = table._keyword_interner.state_dict()
    attr_index = {name: i for i, name in enumerate(table.schema.names)}
    lookup = table._value_interner.lookup
    counts: List[int] = []
    vids: List[int] = []
    for record in table:
        pairs = record.attribute_values()
        counts.append(len(pairs))
        vids.extend(map(lookup, pairs))
    arrays = dict(table._columns())
    arrays["val_attr"] = np.array(
        [attr_index[v.attribute] for v in values], dtype=np.uint32
    )
    arrays["val_text"] = _text([v.value for v in values])
    arrays["kw_text"] = _text(tokens)
    arrays["rec_ids"] = np.array([r.record_id for r in table], dtype=np.int64)
    arrays["rec_counts"] = np.array(counts, dtype=np.int64)
    # uint32 rows: the interner's MAX_ID bound is what keeps ids in range.
    arrays["rec_vids"] = np.array(vids, dtype=np.uint32)
    specs = {}
    size = 0
    for key, data in arrays.items():
        offset = _align8(size)
        specs[key] = [offset, data.dtype.str, int(data.shape[0])]
        size = offset + data.nbytes
    meta = {
        "format": FORMAT,
        "name": table.name,
        "schema": [
            [a.name, a.queriable, a.displayed, a.multivalued]
            for a in table.schema
        ],
        "arrays": specs,
    }
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    base = _align8(16 + len(meta_blob))
    total = max(base + size, 1)
    shm = shared_memory.SharedMemory(create=True, size=total)
    buffer = shm.buf
    buffer[0:8] = len(meta_blob).to_bytes(8, "little")
    buffer[8:16] = base.to_bytes(8, "little")
    buffer[16 : 16 + len(meta_blob)] = meta_blob
    for key, data in arrays.items():
        offset = base + specs[key][0]
        buffer[offset : offset + data.nbytes] = data.tobytes()
    _CREATED[shm.name] = shm
    return SharedTableHandle(shm_name=shm.name, nbytes=total)


def _attach(name: str) -> RelationalTable:
    attached = _ATTACHED.get(name)
    if attached is not None:
        return attached[0]
    shm = _CREATED.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        # SharedMemory(name=...) registers the *attachment* with the
        # resource tracker (bpo-39959); if left registered, this
        # process's tracker destroys the creator's block when the
        # process exits.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker-less platforms
            pass
    buffer = shm.buf
    meta_len = int.from_bytes(bytes(buffer[0:8]), "little")
    base = int.from_bytes(bytes(buffer[8:16]), "little")
    meta = json.loads(bytes(buffer[16 : 16 + meta_len]).decode("utf-8"))
    if meta.get("format") != FORMAT:
        raise RuntimeError(f"unexpected shared table format: {meta.get('format')!r}")
    arrays = {
        key: np.frombuffer(
            buffer, dtype=np.dtype(dtype), count=length, offset=base + offset
        )
        for key, (offset, dtype, length) in meta["arrays"].items()
    }
    schema = Schema(
        tuple(
            Attribute(column, queriable, displayed, multivalued)
            for column, queriable, displayed, multivalued in meta["schema"]
        )
    )
    names = schema.names
    values = [
        AttributeValue(names[attribute], text)
        for attribute, text in zip(
            arrays["val_attr"].tolist(),
            _strings(arrays["val_text"]),
        )
    ]
    table = RelationalTable._assemble(
        schema,
        meta["name"],
        values,
        _strings(arrays["kw_text"]),
        _records(values, arrays),
        arrays,
    )
    _ATTACHED[name] = (table, shm)
    return table


def _records(values: List[AttributeValue], arrays: Dict[str, np.ndarray]):
    """Decode the block's record rows, in insertion order."""
    vids = arrays["rec_vids"].tolist()
    start = 0
    for record_id, count in zip(
        arrays["rec_ids"].tolist(), arrays["rec_counts"].tolist()
    ):
        pairs = tuple(values[vid] for vid in vids[start : start + count])
        start += count
        fields: Dict[str, list] = {}
        for pair in pairs:
            fields.setdefault(pair.attribute, []).append(pair.value)
        yield Record._normalized(
            record_id, {a: tuple(vs) for a, vs in fields.items()}, pairs
        )


@dataclass(frozen=True)
class SharedTableHandle:
    """Picklable pointer to a shared table block.

    Ship it to workers (it rides inside the grid payload); call
    :meth:`table` there to get the attach-once table.  The creating
    process calls :meth:`unlink` when the grid is done.
    """

    shm_name: str
    nbytes: int

    def table(self) -> RelationalTable:
        """Attach (once per process) and return the table."""
        return _attach(self.shm_name)

    def unlink(self) -> None:
        """Destroy the block.  Only the creator should call this."""
        table, shm = _ATTACHED.pop(self.shm_name, (None, None))
        if table is not None:
            # Anyone still holding the table keeps working on copies.
            table._use_columns(
                {key: np.array(data) for key, data in table._columns().items()}
            )
        shm = _CREATED.pop(self.shm_name, shm)
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            shm.close()


class shared_table:
    """Context manager: ``with shared_table(table) as handle: ...``.

    Unlinks the block on exit, however the grid run ends.
    """

    def __init__(self, table: RelationalTable) -> None:
        self._table = table
        self.handle: Optional[SharedTableHandle] = None

    def __enter__(self) -> SharedTableHandle:
        self.handle = share_table(self._table)
        return self.handle

    def __exit__(self, *exc) -> None:
        if self.handle is not None:
            self.handle.unlink()
