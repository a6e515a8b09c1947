"""One content-addressed JSON store for every on-disk cache, and the
one writer of every JSON artifact.

The sweep result cache, the fleet compute cache and the streaming
checkpoints share its key hash (:func:`digest`), its code
fingerprint, its atomic writer and its reader, which turns a bad
file into a miss.  A failed write (a full disk, say) removes its temp
file and re-raises, so the previous file stays intact.

Every artifact (BENCH, ``repro-net``, ``repro-search``, ``repro-gen``,
``repro-cover``, ``repro-metrics``) and every checkpoint is written by
:func:`write_json`, in the one byte format of :func:`canonical_json`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from pathlib import Path


def digest(value: object, length: int) -> str:
    """SHA-256 hex of ``value``'s canonical JSON, cut to ``length``."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


def code_fingerprint(package_root: str | Path | None = None) -> str:
    """Hash every ``*.py`` file under the ``repro`` package, whatever
    the checkout location or the file-system walk order."""
    if package_root is None:
        package_root = Path(__file__).resolve().parent
    root = Path(package_root)
    outer = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        inner = hashlib.sha256(path.read_bytes()).hexdigest()
        relative = path.relative_to(root).as_posix()
        outer.update(f"{relative}\x00{inner}\x00".encode("utf-8"))
    return outer.hexdigest()[:16]


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step, or not at all."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def json_safe(value: object) -> object:
    """``value``, or its ``repr`` if it is a non-finite float (JSON has
    no inf/nan, so ``"inf"``, ``"-inf"`` and ``"nan"`` stand in)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def canonical_json(payload: object) -> str:
    """The artifact byte format: sorted keys, 2-space indent, final LF."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload: object) -> Path:
    """Atomically write ``payload`` as canonical JSON; return the path."""
    path = Path(path)
    write_atomic(path, canonical_json(payload))
    return path


def read_json(path: Path) -> object | None:
    """The JSON value in ``path``; ``None`` if unreadable or malformed."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class Store:
    """JSON entries at ``<root>/<fingerprint>/<key[:2]>/<key>.json``.

    ``fingerprint`` defaults to :func:`code_fingerprint`, computed on
    first use, so a code change opens a fresh namespace.
    """

    def __init__(
        self, root: str | Path, fingerprint: str | None = None
    ) -> None:
        self.root = Path(root)
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def path(self, key: str) -> Path:
        return self.root / self.fingerprint / key[:2] / f"{key}.json"

    def get(self, key: str, schema: str, field: str) -> dict | None:
        """The entry; ``None`` if corrupt, foreign or lacking ``field``."""
        entry = read_json(self.path(key))
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != schema
            or not isinstance(entry.get(field), dict)
        ):
            return None
        return entry

    def put(self, key: str, entry: dict) -> None:
        write_atomic(self.path(key), json.dumps(entry, sort_keys=True))

    def __len__(self) -> int:
        """Entries stored under the current fingerprint."""
        namespace = self.root / self.fingerprint
        if not namespace.is_dir():
            return 0
        return sum(1 for _ in namespace.rglob("*.json"))

    def prune(self, keep_current: bool = True) -> int:
        """Delete other fingerprints' namespaces (with ``keep_current``
        false, all of them); return how many."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for child in self.root.iterdir():
            if not child.is_dir():
                continue
            if keep_current and child.name == self.fingerprint:
                continue
            shutil.rmtree(child)
            removed += 1
        return removed
