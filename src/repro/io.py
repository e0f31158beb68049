"""Persistence: JSON (de)serialization for tables, domain tables, crawls.

A crawling project is long-running — harvests, domain tables, and
generated corpora need to outlive one process.  This module round-trips
the library's main artifacts through plain JSON (gzip-compressed when
the path ends in ``.gz``):

- :func:`save_table` / :func:`load_table` — a full
  :class:`~repro.core.table.RelationalTable` including its schema flags;
- :func:`save_domain_table` / :func:`load_domain_table` — a
  :class:`~repro.domain.table.DomainStatisticsTable` with posting lists;
- :func:`history_to_csv` — a crawl's coverage-versus-cost series for
  external plotting.
- :func:`save_checkpoint` / :func:`load_checkpoint` — a durable
  runtime's :class:`~repro.runtime.checkpoint.CrawlCheckpoint` payload
  (written atomically: a crash mid-write never corrupts the previous
  checkpoint).

All formats carry a ``format`` tag and version so stale files fail
loudly instead of deserializing into garbage.
"""

from __future__ import annotations

import gzip
import json
import os
from pathlib import Path
from typing import Union

from repro.core.errors import ReproError
from repro.core.records import Record
from repro.core.schema import Attribute, Schema
from repro.core.table import RelationalTable
from repro.core.values import AttributeValue
from repro.crawler.metrics import CrawlHistory
from repro.domain.table import DomainEntry, DomainStatisticsTable

PathLike = Union[str, Path]

_TABLE_FORMAT = "repro.table/1"
_DOMAIN_FORMAT = "repro.domain-table/1"
CHECKPOINT_FORMAT = "repro.checkpoint/1"


class PersistenceError(ReproError):
    """A file is not a valid artifact of the expected kind/version."""


def _write_text(path: PathLike, text: str) -> None:
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _read_text(path: PathLike) -> str:
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return handle.read()
    return path.read_text(encoding="utf-8")


def _check_format(payload: dict, expected: str, path: PathLike) -> None:
    found = payload.get("format")
    if found != expected:
        raise PersistenceError(
            f"{path}: expected format {expected!r}, found {found!r}"
        )


# ----------------------------------------------------------------------
# Relational tables
# ----------------------------------------------------------------------
def table_to_dict(table: RelationalTable) -> dict:
    """Plain-JSON-serializable dump of a table (schema + records)."""
    return {
        "format": _TABLE_FORMAT,
        "name": table.name,
        "schema": [
            {
                "name": attribute.name,
                "queriable": attribute.queriable,
                "displayed": attribute.displayed,
                "multivalued": attribute.multivalued,
            }
            for attribute in table.schema
        ],
        "records": [
            {
                "id": record.record_id,
                "fields": {k: list(v) for k, v in record.fields.items()},
            }
            for record in sorted(table, key=lambda r: r.record_id)
        ],
    }


def table_from_dict(payload: dict, path: PathLike = "<dict>") -> RelationalTable:
    """Rebuild a table dumped by :func:`table_to_dict`.

    A missing key raises :class:`PersistenceError`; a record the schema
    does not allow raises :class:`~repro.core.errors.SchemaError`.
    """
    _check_format(payload, _TABLE_FORMAT, path)
    try:
        schema = Schema(
            tuple(
                Attribute(
                    entry["name"],
                    entry.get("queriable", True),
                    entry.get("displayed", True),
                    entry.get("multivalued", False),
                )
                for entry in payload["schema"]
            )
        )
        table = RelationalTable(schema, name=payload.get("name", "db"))
        for entry in payload["records"]:
            fields = {k: tuple(v) for k, v in entry["fields"].items()}
            table.insert(Record(int(entry["id"]), fields))
    except KeyError as error:
        raise PersistenceError(
            f"{path}: table is missing key {error.args[0]!r}"
        ) from error
    return table


def save_table(table: RelationalTable, path: PathLike) -> None:
    _write_text(path, json.dumps(table_to_dict(table)))


def load_table(path: PathLike) -> RelationalTable:
    try:
        payload = json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError) as error:
        raise PersistenceError(f"{path}: cannot read table ({error})") from error
    return table_from_dict(payload, path)


# ----------------------------------------------------------------------
# Domain statistics tables
# ----------------------------------------------------------------------
def domain_table_to_dict(table: DomainStatisticsTable) -> dict:
    return {
        "format": _DOMAIN_FORMAT,
        "size": table.size,
        "entries": [
            {
                "attribute": value.attribute,
                "value": value.value,
                "count": table.count(value),
                "postings": list(table.postings(value)),
            }
            for value in table.values()
        ],
    }


def domain_table_from_dict(
    payload: dict, path: PathLike = "<dict>"
) -> DomainStatisticsTable:
    _check_format(payload, _DOMAIN_FORMAT, path)
    entries = {}
    for item in payload["entries"]:
        value = AttributeValue(item["attribute"], item["value"])
        entries[value] = DomainEntry(
            value=value,
            count=int(item["count"]),
            postings=tuple(int(p) for p in item["postings"]),
        )
    return DomainStatisticsTable(entries, size=int(payload["size"]))


def save_domain_table(table: DomainStatisticsTable, path: PathLike) -> None:
    _write_text(path, json.dumps(domain_table_to_dict(table)))


def load_domain_table(path: PathLike) -> DomainStatisticsTable:
    try:
        payload = json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError) as error:
        raise PersistenceError(
            f"{path}: cannot read domain table ({error})"
        ) from error
    return domain_table_from_dict(payload, path)


# ----------------------------------------------------------------------
# Crawl checkpoints (see repro.runtime)
# ----------------------------------------------------------------------
def save_checkpoint(payload: dict, path: PathLike) -> None:
    """Atomically persist a checkpoint payload.

    The payload is written to a sibling temp file and moved into place
    with :func:`os.replace`, so readers only ever see either the old
    complete checkpoint or the new complete one.  The payload must
    carry ``format == CHECKPOINT_FORMAT`` (the runtime stamps it).
    """
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise PersistenceError(
            f"checkpoint payload must carry format {CHECKPOINT_FORMAT!r}"
        )
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(path: PathLike) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise PersistenceError(
            f"{path}: cannot read checkpoint ({error})"
        ) from error
    _check_format(payload, CHECKPOINT_FORMAT, path)
    return payload


# ----------------------------------------------------------------------
# Crawl histories
# ----------------------------------------------------------------------
def history_to_csv(history: CrawlHistory, path: PathLike) -> None:
    """Write a crawl history as ``rounds,records`` CSV (with header)."""
    lines = ["rounds,records"]
    lines.extend(f"{point.rounds},{point.records}" for point in history.points)
    _write_text(path, "\n".join(lines) + "\n")


def history_from_csv(path: PathLike) -> CrawlHistory:
    text = _read_text(path)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "rounds,records":
        raise PersistenceError(f"{path}: not a crawl-history CSV")
    history = CrawlHistory()
    for line in lines[1:]:
        rounds, records = line.split(",")
        history.append(int(rounds), int(records))
    return history
