"""Command-line front end.

Subcommands: classify one cell, reproduce the full table, dump an initial
quiver, and run the full verification suite.

Exit codes for classify/table/verify: 0 on full agreement, 2 on a
classification mismatch, 3 when any exploration was inconclusive.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import __version__
from .cache import default_cache_dir
from .correspondence import classify_cell
from .explore import DEFAULT_CAP, Classification
from .grassmannian import GrassmannianSpec, initial_quiver
from .render import render_rows
from .verify import compute_grid, run_verification

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INCONCLUSIVE = 3


def _cache_opts(f):
    f = click.option(
        "--cache-dir",
        type=click.Path(path_type=Path),
        default=None,
        help="Class-cache directory (default: $ATLAS_CACHE or ./.atlas-cache).",
    )(f)
    f = click.option("--no-cache", is_flag=True, help="Disable the class cache.")(f)
    return f


def _cell_opts(f):
    for name in ("--q", "--p"):  # applied innermost first: --p lists first
        f = click.option(name, type=click.IntRange(min=2), required=True)(f)
    return f


_cap_opt = click.option(
    "--cap", type=click.IntRange(min=1), default=DEFAULT_CAP, show_default=True
)


def _available_cpus() -> int:
    # an affinity mask (taskset, a cpuset) can allow fewer than os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_workers_opt = click.option(
    "--workers",
    type=click.IntRange(min=1),
    default=_available_cpus,
    help="Processes that explore distinct classes (default: available parallelism).",
)
_format_opt = click.option(
    "--format",
    "fmt",
    type=click.Choice(["markdown", "csv", "json"]),
    default="markdown",
    show_default=True,
)


def _resolve_cache(cache_dir, no_cache):
    if no_cache:
        return None
    return Path(cache_dir) if cache_dir is not None else default_cache_dir()


def _exit_code(rows) -> int:
    if any(r.cluster.classification is Classification.INCONCLUSIVE for r in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK if all(r.match for r in rows) else EXIT_MISMATCH


@click.group()
@click.version_option(__version__)
def main():
    """Cross-check Grassmannian mutation classes against regular tilings."""


@main.command()
@_cell_opts
@_cap_opt
@_format_opt
@_cache_opts
def classify(p, q, cap, fmt, cache_dir, no_cache):
    """Classify one cell on both sides and report whether they agree."""
    cache = _resolve_cache(cache_dir, no_cache)
    row = classify_cell(p, q, cap=cap, cache_dir=cache)
    click.echo(render_rows([row], fmt), nl=False)
    sys.exit(_exit_code([row]))


@main.command()
@click.option("--pmax", type=click.IntRange(min=2), default=7, show_default=True)
@click.option("--qmax", type=click.IntRange(min=2), default=7, show_default=True)
@_cap_opt
@_workers_opt
@_format_opt
@_cache_opts
def table(pmax, qmax, cap, workers, fmt, cache_dir, no_cache):
    """Reproduce the classification table over the whole grid."""
    cache = _resolve_cache(cache_dir, no_cache)
    rows = compute_grid(pmax, qmax, cap=cap, workers=workers, cache_dir=cache)
    ordered = [rows[key] for key in sorted(rows)]
    click.echo(render_rows(ordered, fmt), nl=False)
    decided = [
        r
        for r in ordered
        if r.cluster.classification is not Classification.INCONCLUSIVE
    ]
    mismatches = sum(1 for r in decided if not r.match)
    inconclusive = len(ordered) - len(decided)
    click.echo(f"mismatches: {mismatches}  inconclusive: {inconclusive}", err=True)
    sys.exit(_exit_code(ordered))


@main.command()
@_cell_opts
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "dot"]),
    default="json",
    show_default=True,
)
def quiver(p, q, fmt):
    """Print the initial quiver of Gr(p, p+q) as JSON or DOT."""
    m = initial_quiver(GrassmannianSpec(p, q))
    if fmt == "json":
        click.echo(m.serialize())
    else:
        click.echo(m.to_dot(), nl=False)


@main.command()
@_workers_opt
@_cache_opts
def verify(workers, cache_dir, no_cache):
    """Run the full reproduction suite (tables, duality, trichotomy)."""
    cache = _resolve_cache(cache_dir, no_cache)
    results = run_verification(workers=workers, cache_dir=cache)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        click.echo(f"[{status}] {name} ({detail})")
        if not ok:
            failed += 1
    if failed:
        click.echo(f"{failed} of {len(results)} checks failed", err=True)
        sys.exit(EXIT_MISMATCH)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
