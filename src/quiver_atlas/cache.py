"""On-disk cache of mutation-class reports.

One JSON file per starting-quiver canonical key, named by the sha256 of the
key bytes (keys themselves can exceed filename limits at large rank).  Each
file stores the schema version, the start key in lowercase hex, the
report, and the sorted member keys when the class was fully enumerated.
Loading rebuilds the report from the stored one and its member keys with
:func:`quiver_atlas.explore.rebuild_report`, which derives classification,
size, fingerprint and name as explore does; an entry that does not rebuild
to itself, or whose member keys leave out its start key, is corrupt.
Corrupt files are ignored with a warning, removed and recomputed.  The
report alone says which caps it answers (see :func:`load_report`), so an
inconclusive report never replaces an entry that explored more classes.
Only files of the current schema version are read: keys changed format
with schema 2, schema 3 dropped the stored cap, and schema 4 changed the
keys of disconnected quivers (canonicalised component by component).

:func:`explore_classes` is the one way to a report through the cache: one
call is one run, which explores each distinct class of its starts at most
once.  No memo of this module outlives a call.  The one memo that does is
the witness probe's beam-search memo in :mod:`quiver_atlas.explore`, kept
for the process; it holds witnesses, never reports, and every witness it
gives is replayed from the start before a report is built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

from .canonical import QuiverKey, canonical_form
from .explore import (
    DEFAULT_CAP,
    Classification,
    MutationClassReport,
    explore,
    rebuild_report,
    report_to_dict,
)
from .matrix import ExchangeMatrix, QuiverError

SCHEMA_VERSION = 4

CACHE_ENV_VAR = "ATLAS_CACHE"
DEFAULT_CACHE_DIR = ".atlas-cache"

log = logging.getLogger(__name__)


class CacheCorrupt(QuiverError):
    """A cache file exists but cannot be parsed or validated."""


def default_cache_dir() -> Path:
    """$ATLAS_CACHE, or ./.atlas-cache when it is unset or empty."""
    return Path(os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR)


def cache_path(cache_dir: Path, key: QuiverKey) -> Path:
    return Path(cache_dir) / (hashlib.sha256(key.data).hexdigest() + ".json")


def store_report(cache_dir: Path, key: QuiverKey, report: MutationClassReport) -> Path:
    """Write the report of ``key``, except that an inconclusive report never
    replaces an entry that explored more classes (it answers larger caps)."""
    path = cache_path(cache_dir, key)
    if report.classification is Classification.INCONCLUSIVE:
        try:
            if json.loads(path.read_text())["report"]["explored"] > report.explored:
                return path
        except (OSError, ValueError, KeyError, TypeError):
            pass  # no readable entry
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "start_key": key.hex(),
        "report": report_to_dict(report),
        "member_keys": (
            list(report.member_keys) if report.member_keys is not None else None
        ),
    }
    # per-process name: runs sharing the directory never touch each
    # other's half-written file
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    tmp.replace(path)
    return path


def load_report(
    cache_dir: Path, key: QuiverKey, cap: int
) -> MutationClassReport | None:
    """Load a cached report, or None on miss / cap-incompatible entry.

    A report answers cap c exactly where explore(start, c) gives it: a
    decided report when it explored at most c classes, an inconclusive one
    when it explored exactly c (explore stops as the count reaches the cap).
    Raises CacheCorrupt on unreadable files, on entries whose report does
    not rebuild to itself (:func:`rebuild_report`), and on member keys that
    leave out the start key (another class's report).
    """
    path = cache_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload["schema_version"] != SCHEMA_VERSION:
            raise CacheCorrupt(f"unknown schema version in {path}")
        if payload["start_key"] != key.hex():
            raise CacheCorrupt(f"start key mismatch in {path}")
        report = rebuild_report(key.n, payload["report"], payload["member_keys"])
        if report.member_keys is not None and key.hex() not in report.member_keys:
            raise CacheCorrupt(f"start key not among the member keys in {path}")
        fits = report.explored == cap or (
            report.explored < cap
            and report.classification is not Classification.INCONCLUSIVE
        )
    except KeyError as e:
        raise CacheCorrupt(f"corrupt cache file {path}: missing field {e}") from e
    except (OSError, ValueError, TypeError, AttributeError) as e:
        raise CacheCorrupt(f"corrupt cache file {path}: {e}") from e
    return report if fits else None


def explore_classes(
    starts,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    cache_dir: Path | None = None,
) -> list[MutationClassReport]:
    """One report per start, in order, as explore(start, cap) would give.

    Each start is canonicalised once, so isomorphic starts share one class
    and the result never depends on which labelling came first.  Each
    distinct class is read from the on-disk cache under ``cache_dir`` (when
    given, and only if the stored report is the one explore would give at
    ``cap``, see :func:`load_report`) or else explored from its canonical
    relabelling and stored; with ``workers`` > 1 and more than one class to
    explore, the explores run in a pool of that many ``spawn`` processes.
    Witnesses are translated back into each start's vertex labels.
    """
    forms = [(start, *canonical_form(start)) for start in starts]
    reports: dict[bytes, MutationClassReport | None] = {}
    missing: dict[bytes, tuple[QuiverKey, ExchangeMatrix]] = {}
    for start, key, perm in forms:
        if key.data in reports:
            continue
        report = None
        if cache_dir is not None:
            try:
                report = load_report(cache_dir, key, cap)
            except CacheCorrupt as e:
                log.warning("ignoring corrupt cache entry: %s", e)
                cache_path(cache_dir, key).unlink(missing_ok=True)
        reports[key.data] = report
        if report is None:
            missing[key.data] = (key, start.permuted(perm))
    if missing:
        keys, canonical_starts = zip(*missing.values())
        if workers > 1 and len(missing) > 1:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                fresh = list(pool.map(explore, canonical_starts, repeat(cap)))
        else:
            fresh = map(explore, canonical_starts, repeat(cap))
        for key, report in zip(keys, fresh):
            if cache_dir is not None:
                store_report(cache_dir, key, report)
            reports[key.data] = report
    out = []
    for _, key, perm in forms:
        report = reports[key.data]
        if report.infinite_witness:
            # perm maps caller label -> canonical label; invert it
            caller = {new: old for old, new in enumerate(perm)}
            report = dataclasses.replace(
                report,
                infinite_witness=tuple(caller[v] for v in report.infinite_witness),
            )
        out.append(report)
    return out
