"""On-disk cache of mutation-class reports.

One JSON file per starting-quiver canonical key, named by the sha256 of the
key bytes (keys themselves can exceed filename limits at large rank).  Each
file stores the schema version, the start key in lowercase hex, the cap the
report was computed at, the report, and the sorted member keys when the
class was fully enumerated.  Corrupt files are ignored with a warning and
the report is recomputed.  :func:`make_explorer` puts a per-run memo in
front of the cache, so each class is explored at most once per run.
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
    class_fingerprint,
    explore,
    report_from_dict,
    report_to_dict,
)
from .matrix import ExchangeMatrix, QuiverError

SCHEMA_VERSION = 1

CACHE_ENV_VAR = "ATLAS_CACHE"
DEFAULT_CACHE_DIR = ".atlas-cache"

log = logging.getLogger(__name__)


class CacheCorrupt(QuiverError):
    """A cache file exists but cannot be parsed or validated."""


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def cache_path(cache_dir: Path, key: QuiverKey) -> Path:
    return Path(cache_dir) / (hashlib.sha256(key.data).hexdigest() + ".json")


def store_report(
    cache_dir: Path, key: QuiverKey, report: MutationClassReport, cap: int
) -> Path:
    path = cache_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "start_key": key.hex(),
        "cap": cap,
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


def _reusable(report: MutationClassReport, report_cap: int, cap: int) -> bool:
    """Whether a report computed at ``report_cap`` answers a call at ``cap``:
    an inconclusive one does not when the larger cap may resolve the class."""
    return not (
        report.classification is Classification.INCONCLUSIVE
        and report_cap < cap
    )


def load_report(
    cache_dir: Path, key: QuiverKey, cap: int
) -> MutationClassReport | None:
    """Load a cached report, or None on miss / cap-incompatible entry.

    Raises CacheCorrupt on unreadable or inconsistent files, including a
    class size or fingerprint that does not match the stored member keys.
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
        report = report_from_dict(payload["report"], payload["member_keys"])
        keys = report.member_keys
        expected = (None, None) if keys is None else (
            len(keys), class_fingerprint(keys)
        )
        if (report.class_size, report.fingerprint) != expected:
            raise CacheCorrupt(f"class size or fingerprint mismatch in {path}")
    except CacheCorrupt:
        raise
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CacheCorrupt(f"unreadable cache file {path}: {e}") from e
    return report if _reusable(report, payload["cap"], cap) else None


def make_explorer(cache_dir: Path | None = None):
    """One run's explorer, called as ``explorer(start, cap)`` like explore().

    Each call explores the canonical relabelling of ``start``, so isomorphic
    starts share one report and the result never depends on which labelling
    came first.  A report is looked up in the run's memo, then in the
    on-disk cache under ``cache_dir`` (when given), and computed only on a
    miss; its witness is translated back into the caller's vertex labels.
    The memo lives as long as the returned function.

    ``explorer.explore_missing(starts, cap, workers)`` fills the memo ahead
    of such calls: it explores each distinct class of ``starts`` that the
    memo and the disk cache cannot answer at ``cap``, in a pool of
    ``workers`` processes, and records the reports in the calling process.
    """
    memo: dict[bytes, tuple[MutationClassReport, int]] = {}

    def known(key: QuiverKey, cap: int) -> MutationClassReport | None:
        entry = memo.get(key.data)
        if entry is not None and _reusable(*entry, cap):
            return entry[0]
        report = None
        if cache_dir is not None:
            try:
                report = load_report(cache_dir, key, cap)
            except CacheCorrupt as e:
                log.warning("ignoring corrupt cache entry: %s", e)
        if report is not None:
            memo[key.data] = (report, cap)
        return report

    def record(
        key: QuiverKey, report: MutationClassReport, cap: int
    ) -> MutationClassReport:
        memo[key.data] = (report, cap)
        if cache_dir is not None:
            store_report(cache_dir, key, report, cap)
        return report

    def explorer(
        start: ExchangeMatrix, cap: int = DEFAULT_CAP
    ) -> MutationClassReport:
        key, perm = canonical_form(start)
        report = known(key, cap)
        if report is None:
            report = record(key, explore(start.permuted(perm), cap), cap)
        if not report.infinite_witness:
            return report
        # perm maps caller label -> canonical label; invert it
        caller = {new: old for old, new in enumerate(perm)}
        return dataclasses.replace(
            report,
            infinite_witness=tuple(caller[v] for v in report.infinite_witness),
        )

    def explore_missing(starts, cap: int, workers: int) -> None:
        missing: dict[bytes, tuple[QuiverKey, ExchangeMatrix]] = {}
        for start in starts:
            key, perm = canonical_form(start)
            if key.data not in missing and known(key, cap) is None:
                missing[key.data] = (key, start.permuted(perm))
        if not missing:
            return
        keys, canonical_starts = zip(*missing.values())
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            reports = pool.map(explore, canonical_starts, repeat(cap))
            for key, report in zip(keys, reports):
                record(key, report, cap)

    explorer.explore_missing = explore_missing
    return explorer
