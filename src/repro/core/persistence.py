"""JSON persistence for the source state.

A production source runs for months between evolutions; its value is
the recorded aggregates.  This module serialises everything the engine
cannot recompute — the (possibly evolved) DTD set, every extended-DTD
record, the document-level counters, and the repository — to plain
JSON, and restores it into a fully working :class:`XMLSource`.

The repository is read and restored through the
:class:`~repro.classification.stores.DocumentStore` contract: format 2
and 3 snapshots tag which backend held the documents (``memory`` or
``sqlite``), and loading re-materialises into a new store of that kind,
owned by the restored source (one bulk ``add_many``, re-indexing as it
goes), unless the caller overrides it with ``store=``.  Format 1
snapshots (a plain document list) still load, and so do snapshots
written by earlier versions: a ``jsonl`` kind restores into
``sqlite``, and the ``repository.index`` and ``classifier`` sections
they may carry are ignored.

A snapshot copies each repository document's text from the store
(:meth:`~repro.classification.repository.Repository.texts`) without
parsing it: disk-backed stores already hold exactly
``serialize_document(d, xml_declaration=False)``, and the serializer is
a fixed point of parse-then-serialize, so the copy equals a
parse-and-serialize round trip byte for byte.  :func:`save_source`
replaces the target file atomically.

Runtime-only collaborators (trigger sets, tag matchers, the
``fastpath`` flag) are *not* serialised; pass them again at load time.
A file that is not a snapshot raises
:class:`~repro.errors.SnapshotError`.

Round-trip guarantee (tested): saving and loading a source yields one
whose next evolution produces exactly the same DTD as the original
would have — including snapshots taken mid-batch between two
``process_many`` checkpoints.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Tuple

from repro.classification.stores import store_kind
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.extended_dtd import ElementRecord, ExtendedDTD
from repro.dtd.dtd import DTD, AttributeDecl, ElementDecl
from repro.errors import SnapshotError
from repro.xmltree.parser import parse_document
from repro.xmltree.tree import Tree

FORMAT_VERSION = 3
#: snapshot formats :func:`source_from_json` can restore
SUPPORTED_FORMATS = (1, 2, 3)
#: the top-level sections every supported format carries
_SECTIONS = ("config", "auto_evolve", "documents_processed", "extended", "repository")


# ----------------------------------------------------------------------
# Trees and DTDs
# ----------------------------------------------------------------------


def tree_to_json(tree: Tree) -> Any:
    """A leaf becomes its label; an inner vertex ``[label, [children]]``."""
    if tree.is_leaf:
        return tree.label
    return [tree.label, [tree_to_json(child) for child in tree.children]]


def tree_from_json(data: Any) -> Tree:
    if isinstance(data, str):
        return Tree.leaf(data)
    label, children = data
    return Tree(label, [tree_from_json(child) for child in children])


def dtd_to_json(dtd: DTD) -> Dict[str, Any]:
    return {
        "name": dtd.name,
        "root": dtd.root if len(dtd) else None,
        "declarations": [
            {"name": decl.name, "content": tree_to_json(decl.content)}
            for decl in dtd
        ],
        "attlists": {
            name: [
                [attr.name, attr.type_spec, attr.default_spec] for attr in attrs
            ]
            for name, attrs in dtd.attlists.items()
        },
    }


def dtd_from_json(data: Dict[str, Any]) -> DTD:
    dtd = DTD(name=data["name"])
    for declaration in data["declarations"]:
        dtd.add(ElementDecl(declaration["name"], tree_from_json(declaration["content"])))
    dtd.attlists = {
        name: [AttributeDecl(*attr) for attr in attrs]
        for name, attrs in data.get("attlists", {}).items()
    }
    if data.get("root"):
        dtd.root = data["root"]
    return dtd


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def record_to_json(record: ElementRecord) -> Dict[str, Any]:
    return {
        "name": record.name,
        "valid_count": record.valid_count,
        "documents_with_valid": record.documents_with_valid,
        "invalid_count": record.invalid_count,
        "text_count": record.text_count,
        "empty_count": record.empty_count,
        "labels": sorted(record.labels.items(), key=lambda kv: kv[1]),
        "sequences": [
            [sorted(sequence), count] for sequence, count in record.sequences.items()
        ],
        "label_stats": {
            label: [
                stats.instances_with,
                stats.instances_repeated,
                stats.total_occurrences,
                stats.max_occurrences,
            ]
            for label, stats in record.label_stats.items()
        },
        # sorted: the in-memory order follows a frozenset's iteration
        # order, which depends on the per-process string hash seed
        "valid_label_stats": {
            label: [stats.instances_with, stats.min_occurrences, stats.max_occurrences]
            for label, stats in sorted(record.valid_label_stats.items())
        },
        "groups": [
            [sorted(group), count] for group, count in record.groups.items()
        ],
        "plus_records": {
            label: record_to_json(nested)
            for label, nested in record.plus_records.items()
        },
        "attribute_counts": sorted(record.attribute_counts.items()),
        "ordered_sequences": sorted(
            [list(tags), count] for tags, count in record.ordered_sequences.items()
        ),
    }


def record_from_json(data: Dict[str, Any]) -> ElementRecord:
    record = ElementRecord(data["name"])
    record.valid_count = data["valid_count"]
    record.documents_with_valid = data["documents_with_valid"]
    record.invalid_count = data["invalid_count"]
    record.text_count = data["text_count"]
    record.empty_count = data["empty_count"]
    for label, rank in data["labels"]:
        record.labels[label] = rank
    for labels, count in data["sequences"]:
        record.sequences[frozenset(labels)] = count
    for label, values in data["label_stats"].items():
        stats = record.stats_for(label)
        (
            stats.instances_with,
            stats.instances_repeated,
            stats.total_occurrences,
            stats.max_occurrences,
        ) = values
    for label, values in data["valid_label_stats"].items():
        stats = record.valid_stats_for(label)
        stats.instances_with, stats.min_occurrences, stats.max_occurrences = values
    for labels, count in data["groups"]:
        record.groups[frozenset(labels)] = count
    for label, nested in data["plus_records"].items():
        record.plus_records[label] = record_from_json(nested)
    for attribute, count in data.get("attribute_counts", []):
        record.attribute_counts[attribute] = count
    for tags, count in data.get("ordered_sequences", []):
        record.ordered_sequences[tuple(tags)] = count
    return record


def extended_to_json(extended: ExtendedDTD) -> Dict[str, Any]:
    return {
        "dtd": dtd_to_json(extended.dtd),
        "document_count": extended.document_count,
        "valid_document_count": extended.valid_document_count,
        "sum_invalid_fraction": extended.sum_invalid_fraction,
        "evolution_count": extended.evolution_count,
        "records": {
            name: record_to_json(record) for name, record in extended.records.items()
        },
    }


def extended_from_json(data: Dict[str, Any]) -> ExtendedDTD:
    extended = ExtendedDTD(dtd_from_json(data["dtd"]))
    extended.document_count = data["document_count"]
    extended.valid_document_count = data["valid_document_count"]
    extended.sum_invalid_fraction = data["sum_invalid_fraction"]
    extended.evolution_count = data["evolution_count"]
    for name, record in data["records"].items():
        extended.records[name] = record_from_json(record)
    return extended


# ----------------------------------------------------------------------
# Config and the whole source
# ----------------------------------------------------------------------


def config_to_json(config: EvolutionConfig) -> Dict[str, Any]:
    return dict(config._asdict())


def config_from_json(data: Dict[str, Any]) -> EvolutionConfig:
    # tolerate snapshots written before a config field existed
    known = {key: value for key, value in data.items() if key in EvolutionConfig._fields}
    return EvolutionConfig(**known)


def source_to_json(source: XMLSource) -> Dict[str, Any]:
    """Snapshot an :class:`XMLSource` (triggers/tag matchers excluded).

    The repository section records the backing store kind alongside the
    documents' canonical text (copied from the store, never re-parsed),
    so a restored source lands on the same backend by default.
    """
    return {
        "format": FORMAT_VERSION,
        "config": config_to_json(source.config),
        "auto_evolve": source.auto_evolve,
        "documents_processed": source.documents_processed,
        "extended": [
            extended_to_json(source.extended[name]) for name in source.dtd_names()
        ],
        "repository": {
            "store": store_kind(source.repository.store),
            "documents": list(source.repository.texts()),
        },
    }


def source_from_json(
    data: Dict[str, Any],
    tag_matcher=None,
    triggers=None,
    fastpath: bool = True,
    store=None,
) -> XMLSource:
    """Restore a source snapshot (re-supply runtime collaborators).

    ``store`` overrides the snapshot's repository backend: a kind name,
    or a :class:`~repro.classification.stores.MemoryStore` or
    :class:`~repro.classification.stores.SqliteStore` instance (it goes
    through :func:`~repro.classification.stores.make_store`, which
    rejects anything else).  Left ``None``, format-2/3 snapshots restore
    into a new store of the kind they were saved from, which the
    restored source owns and closes, and format-1 snapshots into
    memory.  A saved ``jsonl`` kind,
    from before that backend was removed, restores into ``sqlite``: the
    documents are inline in the snapshot, and sqlite keeps them
    off-heap as jsonl did.

    Raises :class:`~repro.errors.SnapshotError` when ``data`` is not an
    object, names an unsupported ``format`` or lacks a top-level
    section.
    """
    if not isinstance(data, dict):
        raise SnapshotError(
            f"a snapshot is a JSON object, not {type(data).__name__}"
        )
    version = data.get("format")
    if version not in SUPPORTED_FORMATS:
        raise SnapshotError(f"unsupported snapshot format {version!r}")
    missing = [section for section in _SECTIONS if section not in data]
    if missing:
        raise SnapshotError(f"snapshot lacks section(s): {', '.join(missing)}")
    repository_data = data["repository"]
    if version == 1:
        # v1 wrote the repository as a bare list of XML strings
        saved_kind, documents = "memory", repository_data
    else:
        saved_kind = repository_data.get("store", "memory")
        if saved_kind == "jsonl":
            saved_kind = "sqlite"
        documents = repository_data["documents"]
    config = config_from_json(data["config"])
    extended_list = [extended_from_json(entry) for entry in data["extended"]]
    source = XMLSource(
        [extended.dtd for extended in extended_list],
        config,
        tag_matcher=tag_matcher,
        auto_evolve=data["auto_evolve"],
        triggers=triggers,
        fastpath=fastpath,
        store=store if store is not None else saved_kind,
    )
    for extended in extended_list:
        # recorders must write into the restored aggregates
        source._install(extended.dtd, extended)
    source.documents_processed = data["documents_processed"]
    source.repository.add_many(parse_document(xml) for xml in documents)
    return source


def _create_beside(directory: str, base: str) -> Tuple[str, int]:
    """A new, uniquely named file next to ``base`` in ``directory``,
    opened for writing with the mode ``open(path, "w")`` would create."""
    while True:
        temp = os.path.join(directory, f".{base}.{os.urandom(4).hex()}.tmp")
        try:
            return temp, os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def _fsync_directory(directory: str) -> None:
    """Make a rename inside ``directory`` durable (POSIX only)."""
    if not hasattr(os, "O_DIRECTORY"):
        return
    descriptor = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def save_source(source: XMLSource, path: str) -> None:
    """Write a source snapshot to a JSON file, atomically.

    The snapshot goes to a temp file beside ``path`` that is flushed,
    fsynced and then ``os.replace``-d onto ``path``; the directory is
    fsynced last.  A reader, or a restart after a crash, finds either
    the previous checkpoint or the new one, never a torn file.  If
    anything raises, the temp file is removed, ``path`` is untouched
    and the exception propagates.
    """
    data = source_to_json(source)
    directory, base = os.path.split(os.path.abspath(path))
    temp, descriptor = _create_beside(directory, base)
    try:
        with open(descriptor, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise
    _fsync_directory(directory)


def load_source(
    path: str,
    tag_matcher=None,
    triggers=None,
    fastpath: bool = True,
    store=None,
) -> XMLSource:
    """Read a source snapshot from a JSON file (see
    :func:`source_from_json` for the keyword collaborators); a file
    that is not JSON raises :class:`~repro.errors.SnapshotError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotError(f"{path} is not a JSON snapshot: {error}") from error
    return source_from_json(data, tag_matcher, triggers, fastpath, store)
