"""Command-line front end.

Subcommands: classify one cell, reproduce the full table, dump an initial
quiver, explore a mutation class (with on-disk caching), run the full
verification suite, and run randomized self-tests.

Exit codes for classify/table/verify: 0 on full agreement, 2 on a
classification mismatch, 3 when any exploration was inconclusive.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import click

from . import __version__
from .cache import default_cache_dir
from .canonical import _pack, canonical_form, canonical_key, is_isomorphic
from .correspondence import classify_cell
from .explore import DEFAULT_CAP, Classification, report_to_dict
from .grassmannian import GrassmannianSpec, initial_quiver
from .matrix import ExchangeMatrix
from .render import render_rows, row_to_dict
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
_workers_opt = click.option(
    "--workers",
    type=click.IntRange(min=1),
    default=lambda: os.cpu_count() or 1,
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
    click.echo(render_rows([row_to_dict(row)], fmt), nl=False)
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
    click.echo(render_rows([row_to_dict(r) for r in ordered], fmt), nl=False)
    mismatches = sum(1 for r in ordered if not r.match)
    inconclusive = sum(
        1
        for r in ordered
        if r.cluster.classification is Classification.INCONCLUSIVE
    )
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


@main.command("explore")
@_cell_opts
@_cap_opt
@_cache_opts
def explore_cmd(p, q, cap, cache_dir, no_cache):
    """Enumerate the mutation class of the Gr(p, p+q) initial quiver."""
    cache = _resolve_cache(cache_dir, no_cache)
    report = classify_cell(p, q, cap=cap, cache_dir=cache).cluster
    click.echo(json.dumps(report_to_dict(report), sort_keys=True, indent=1))
    if report.classification is Classification.INCONCLUSIVE:
        sys.exit(EXIT_INCONCLUSIVE)


@main.command()
@_cap_opt
@_workers_opt
@_cache_opts
def verify(cap, workers, cache_dir, no_cache):
    """Run the full reproduction suite (tables, duality, trichotomy)."""
    cache = _resolve_cache(cache_dir, no_cache)
    results = run_verification(
        cap=cap, workers=workers, cache_dir=cache
    )
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


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cases", type=click.IntRange(min=1), default=500, show_default=True)
def selftest(seed, cases):
    """Randomized property checks: the dense mutation formula, restriction
    to a full subquiver, involution, equivariance, canonical keys (also of
    relabelled stars and disjoint 3-cycles)."""
    rng = random.Random(seed)
    failures = []

    def dense_mutation(rows, k):
        # b'_ij = -b_ij if k in {i, j}, else b_ij + sgn(b_ik) max(0, b_ik b_kj),
        # entry by entry: a check on ExchangeMatrix.mutate, which touches
        # only the rows of k and its neighbours.
        n = len(rows)

        def entry(i, j):
            if k in (i, j):
                return -rows[i][j]
            bik = rows[i][k]
            sign = (bik > 0) - (bik < 0)
            return rows[i][j] + sign * max(0, bik * rows[k][j])

        return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))

    def random_quiver(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.randint(-3, 3)
                rows[i][j] = w
                rows[j][i] = -w
        return ExchangeMatrix.from_rows(rows)

    def symmetric_quiver():
        # a star K1,k or k disjoint oriented 3-cycles: random quivers are
        # almost never symmetric, so these exercise the backtracking's
        # automorphism pruning
        k = rng.randint(2, 5)
        if rng.random() < 0.5:
            edges = [(0, v) for v in range(1, k + 1)]
        else:
            edges = [
                (3 * c + i, 3 * c + (i + 1) % 3) for c in range(k) for i in range(3)
            ]
        n = max(max(e) for e in edges) + 1
        rows = [[0] * n for _ in range(n)]
        for i, j in edges:
            rows[i][j], rows[j][i] = 1, -1
        return ExchangeMatrix.from_rows(rows)

    for case in range(cases):
        n = rng.randint(1, 8)
        m = random_quiver(n)
        k = rng.randrange(n)
        if m.mutate(k).rows != dense_mutation(m.rows, k):
            failures.append(f"dense mutation case {case}")
        # mutation at a vertex of S commutes with restriction to S
        sub = rng.sample(range(n), rng.randint(1, n))
        pos = rng.randrange(len(sub))

        def restrict(rows):
            return tuple(tuple(rows[i][j] for j in sub) for i in sub)

        if restrict(m.mutate(sub[pos]).rows) != dense_mutation(
            restrict(m.rows), pos
        ):
            failures.append(f"restriction case {case}")
        if m.mutate(k).mutate(k) != m:
            failures.append(f"involution case {case}")
        perm = list(range(n))
        rng.shuffle(perm)
        pm = m.permuted(perm)
        if m.mutate(k).permuted(perm) != pm.mutate(perm[k]):
            failures.append(f"equivariance case {case}")
        if n <= 7 and canonical_key(m).data != canonical_key(pm).data:
            failures.append(f"canonical invariance case {case}")
        if n <= 5 and not is_isomorphic(m, pm):
            failures.append(f"isomorphism case {case}")
        key, cperm = canonical_form(m)
        if _pack(m.permuted(cperm).rows) != key.data:
            failures.append(f"canonical permutation case {case}")
        sym = symmetric_quiver()
        perm = list(range(sym.n))
        rng.shuffle(perm)
        psym = sym.permuted(perm)
        key, cperm = canonical_form(psym)
        if canonical_key(sym).data != key.data:
            failures.append(f"symmetric canonical invariance case {case}")
        if _pack(psym.permuted(cperm).rows) != key.data:
            failures.append(f"symmetric canonical permutation case {case}")
    for f in failures[:10]:
        click.echo(f"FAIL {f}", err=True)
    if failures:
        click.echo(f"{len(failures)} of {cases} cases failed", err=True)
        sys.exit(1)
    click.echo(f"all {cases} randomized cases passed (seed {seed})")


if __name__ == "__main__":
    main()
