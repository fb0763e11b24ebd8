"""Mutation-class enumeration and classification.

Breadth-first closure of a quiver under mutation at every vertex,
deduplicated by canonical key.  Classification:

* infinite mutation type: some reached quiver carries an edge of weight >= 3
  inside a connected component with at least 3 vertices (early exit, with a
  replayable witness sequence);
* finite type: the closure completes and every member has weights <= 1;
* finite mutation type: the closure completes with some weight 2;
* inconclusive: the exploration cap was hit first.

Before the closure, a witness probe beam-searches the full subquiver on
each ball of up to PROBE_BALL vertices (:func:`_witness_probe`).  Both
searches rest on invariants of Fomin-Zelevinsky mutation at k:

* connected components never change (mu_k keeps k joined to each of its
  neighbours), so the start's components are every member's, and each
  member is canonicalised component by component from them.  "Lies in a
  component of >= 3 vertices" is read off the rows instead: skew-symmetry
  puts every |b_ij| >= 3 in some row i as b_ij >= 3, and the component of
  i and j has a third vertex iff row i or row j has a second nonzero entry
  (:func:`_has_heavy_component`);
* only the rows of k's neighbours change (row k merely changes sign), so
  the largest weight seen reads those rows, and the closure scans a child
  for a heavy component only when they hold an entry >= 3;
* mutation commutes with restriction: for k in a vertex set S, the S-block
  of the mutated quiver is the full subquiver on S mutated at k, so a
  probe witness found on a subquiver is a witness for the whole quiver.

The closure canonicalises each edge of the class's exchange graph about
once.  Mutation is an involution, and it commutes with relabelling: if
mu_k(m) = c and c is carried onto its canonical matrix by the permutation
cp, then mutating that matrix at cp[k] gives a relabelling of m.  So the
seen map keeps, for each key, a bitmask of the canonical vertices known to
lead to a class already seen.  Canonicalising a child c = mu_k(m) sets bit
cp[k] on c's key, and popping a member skips every k whose canonical vertex
has its bit set: that child is isomorphic to a member already seen, so it
adds no key, its weights are already in the largest weight, and it is not
heavy.  Keys, their order, ``explored`` and the cap are what the closure
that mutates at every vertex gives.  An edge is met from both ends only
when the two ends reach different vertices of an automorphism orbit.

The closure also canonicalises each distinct child once per BFS level.
Two mutations at vertices j, k with b_jk = 0 commute, mu_j mu_k = mu_k mu_j
(the squares of the exchange graph, Fomin-Zelevinsky, *Cluster algebras
II*), so two parents on one level often produce the same child rows.
Rows equal to rows already met on the level, packed as canonical keys are
(:func:`quiver_atlas.canonical._pack`, injective on skew-symmetric matrices
of one rank), reuse the key and permutation computed for them, which still
sets the duplicate's back edge.  The memo is emptied at each new level, so it
never holds more than one level's children.

A probe miss is never a wrong answer, but it costs time.  On a
mutation-finite quiver of more than PROBE_BALL vertices the probe tries up
to one ball per vertex before the closure starts.  The beam search is
memoised for the process on the ball's subquiver rows (at most PROBE_MEMO
of them), so a ball whose subquiver equals, row for row, one searched
before, in this explore or an earlier one, costs no search: the grid
starts of A20 and A30 search the same two balls, 7116 quivers and about
0.13 s on 2 vCPUs for the first of them and none for the second.  The memo
holds witnesses, never reports, and every witness is replayed as below.

Every witness the probe or the closure finds is checked independently, by
replaying it from the start and scanning the end with
:func:`_has_heavy_component`.

A class is named by :func:`name_class`, after the anchor quiver whose
canonical key is among its member keys: here a Dynkin diagram for finite
type, in :mod:`quiver_atlas.correspondence` a grid quiver for finite
mutation type.

Each kind of report has one constructor, used at every exit of
:func:`explore`; :func:`rebuild_report` rebuilds a stored report through
the same constructors, so the cache re-validates an entry against the
contract that produced it.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import chain, compress
from operator import mul

from .canonical import _canonical_form, _pack, canonical_key
from .matrix import ExchangeMatrix, QuiverError, _subquiver_rows

DEFAULT_CAP = 10**6


class CapZero(QuiverError):
    """Raised when explore() is called with cap < 1."""


class WitnessCheckFailed(QuiverError):
    """An infinite-type witness does not replay to a heavy component;
    signals a bug in the closure's heavy-edge test or the probe."""


class Classification(Enum):
    FINITE_TYPE = "finite"
    FINITE_MUTATION_TYPE = "finite-mutation"
    INFINITE_MUTATION_TYPE = "infinite-mutation"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MutationClassReport:
    """Outcome of a mutation-class exploration.

    class_size and member_keys are present iff the class was fully
    enumerated; infinite_witness is present iff the classification is
    infinite mutation type, and replaying it from the start quiver reaches
    an edge weight >= 3.  explored is the number of classes the closure
    holds when explore stops: the class size when enumerated, the cap when
    inconclusive, the keys seen when the closure meets a heavy edge, and 1
    when the start is heavy or the witness probe finds a witness (only the
    start's class is known).  So explore(start, c) gives this report iff
    explored <= c, or explored == c for an inconclusive one.
    """

    classification: Classification
    class_size: int | None
    max_weight_seen: int
    infinite_witness: tuple[int, ...] | None
    type_name: str | None
    explored: int
    member_keys: tuple[str, ...] | None = None
    fingerprint: str | None = None


def _has_heavy_component(m: ExchangeMatrix) -> bool:
    """True iff some |b_ij| >= 3 lies in a connected component of size >= 3.

    The weight criterion for infinite mutation type is false at rank 2, so
    heavy edges in 2-vertex components are ignored.  The rows decide it:
    skew-symmetry puts each heavy pair in some row i as b_ij >= 3, and the
    component of i and j has a third vertex iff row i or row j has a
    second nonzero entry.
    """
    rows, n = m.rows, m.n
    for row in rows:
        w = max(row)  # when alone in row i, w = b_ij for j = row.index(w)
        if w >= 3 and (row.count(0) < n - 1 or rows[row.index(w)].count(0) < n - 1):
            return True
    return False


def replay(start: ExchangeMatrix, witness) -> ExchangeMatrix:
    """Apply a mutation sequence to the start quiver."""
    return start.mutate_sequence(witness)


PROBE_BEAM = 4
PROBE_BALL = 12
# Distinct ball subquivers the beam-search memo keeps.  A 2..30 grid table
# at cap 1000 searches 36 distinct ones and `atlas verify` on 2..12 34; a
# 12-vertex key takes about 2 KB, so a full memo holds about 0.5 MB.
PROBE_MEMO = 256


def _ball(m: ExchangeMatrix, v: int) -> list[int]:
    """The first PROBE_BALL vertices of a breadth-first search from v,
    neighbours visited in index order."""
    ball = [v]
    for u in ball:  # ball grows while it is scanned: a BFS queue
        for w in compress(range(m.n), m.rows[u]):
            if w not in ball:
                if len(ball) == PROBE_BALL:
                    return ball
                ball.append(w)
    return ball


@lru_cache(maxsize=PROBE_MEMO)
def _beam_search(start: ExchangeMatrix) -> tuple[int, ...] | None:
    """Beam search over mutation sequences of ``start`` for an edge of
    weight >= 3, scored by (max weight, sum of squared entries); both grow
    along mutation-infinite directions.  ``start`` is a ball's subquiver,
    connected on >= 3 vertices as are its mutations, so such an edge is a
    heavy component.  Returns the witness, or None.

    The search depends only on ``start``'s rows, which hash the frozen
    matrix, so its result is memoised for the process: grid quivers of
    many cells share their balls' subquivers."""
    beam = [(start, ())]
    seen = {start.rows}
    for _ in range(8 * start.n):
        scored = []
        for m, seq in beam:
            for k in range(m.n):
                c = m.mutate(k)
                if c.rows in seen:
                    continue
                flat = list(chain.from_iterable(c.rows))
                w = max(flat)  # skew-symmetric: the largest |b_ij|
                if w >= 3:
                    return seq + (k,)
                seen.add(c.rows)
                scored.append((w, sum(map(mul, flat, flat)), c, seq + (k,)))
        if not scored:
            break
        scored.sort(key=lambda t: t[:2], reverse=True)
        beam = [(c, seq) for _, _, c, seq in scored[:PROBE_BEAM]]
    return None


def _witness_probe(start: ExchangeMatrix) -> tuple[int, ...] | None:
    """Deterministic guided search for a weight->=3 witness.

    ``start`` has no heavy component.  Runs :func:`_beam_search` on the full
    subquiver of the ball (:func:`_ball`) of each vertex, in index order,
    skipping balls of fewer than 3 vertices (a ball has at least 3 exactly
    when its vertex lies in a component of at least 3) and balls already
    probed, and maps the first witness back to ``start``'s labels (it
    mutates the ball's block of ``start`` as it mutated the subquiver).
    A ball whose subquiver rows equal those of one searched before, in
    this call or an earlier one, is answered by the search's memo.
    Returns None when no ball gives a witness, which is expected for
    mutation-finite classes.
    """
    balls = set()
    for v in range(start.n):
        ball = _ball(start, v)
        if len(ball) < 3 or frozenset(ball) in balls:
            continue
        balls.add(frozenset(ball))
        sub = ExchangeMatrix(_subquiver_rows(start.rows, ball))
        witness = _beam_search(sub)
        if witness is not None:
            return tuple(ball[k] for k in witness)
    return None


def _checked_replay(start: ExchangeMatrix, witness) -> int:
    """Replay ``witness`` from ``start`` and check its end with the full
    scan of :func:`_has_heavy_component`.  Returns the largest entry in
    the rows of each step's neighbours, the only rows a mutation changes
    (row k just changes sign), as the closure reads them: with
    ``start.max_weight()`` it is the largest weight met on the way."""
    m, max_w = start, 0
    for k in witness:
        prev, m = m, m.mutate(k)
        max_w = max(max_w, max(map(max, compress(m.rows, prev.rows[k])), default=0))
    if not _has_heavy_component(m):
        raise WitnessCheckFailed(
            f"witness {list(witness)} does not reach a heavy component"
        )
    return max_w


def class_fingerprint(member_keys) -> str:
    """sha256 over the sorted canonical keys of a fully enumerated class."""
    h = hashlib.sha256()
    for k in sorted(member_keys):
        h.update(k.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _arms_tree(arms) -> ExchangeMatrix:
    """Paths of the given lengths glued at vertex 0, arrows pointing away."""
    n = 1 + sum(arms)
    b = [[0] * n for _ in range(n)]
    v = 0
    for length in arms:
        tail = 0
        for _ in range(length):
            v += 1
            b[tail][v], b[v][tail] = 1, -1
            tail = v
    return ExchangeMatrix.from_rows(b)


@cache
def _dynkin_anchors(n: int) -> dict[str, str]:
    """Canonical key (hex) -> name of an orientation of each simply-laced
    Dynkin diagram of rank n, given by its arm lengths."""
    arms = {f"A{n}": (n - 1,)}
    if n >= 4:
        arms[f"D{n}"] = (1, 1, n - 3)
    if 6 <= n <= 8:
        arms[f"E{n}"] = (1, 2, n - 4)
    return {canonical_key(_arms_tree(a)).hex(): name for name, a in arms.items()}


def name_class(member_keys, anchors: dict[str, str]) -> str | None:
    """The name of the anchor whose canonical key (hex) is among the member
    keys of a fully enumerated class, or None.

    A connected finite-type class contains every orientation of its Dynkin
    diagram (Fomin-Zelevinsky, *Cluster algebras II*, 2003), so
    :func:`_dynkin_anchors` names each of them.  Anchors are connected, so
    a disconnected class stays unnamed.
    """
    for key, name in anchors.items():
        if key in member_keys:
            return name
    return None


def _enumerated(n: int, member_keys, max_w: int) -> MutationClassReport:
    """Report of a fully enumerated class of rank n: finite type iff every
    member has weights <= 1, and then named A/D/E by :func:`name_class`."""
    keys = tuple(sorted(member_keys))
    finite = max_w <= 1
    return MutationClassReport(
        classification=(
            Classification.FINITE_TYPE
            if finite
            else Classification.FINITE_MUTATION_TYPE
        ),
        class_size=len(keys),
        max_weight_seen=max_w,
        infinite_witness=None,
        type_name=name_class(keys, _dynkin_anchors(n)) if finite else None,
        explored=len(keys),
        member_keys=keys,
        fingerprint=class_fingerprint(keys),
    )


def _infinite(max_w: int, witness, explored: int) -> MutationClassReport:
    return MutationClassReport(
        classification=Classification.INFINITE_MUTATION_TYPE,
        class_size=None,
        max_weight_seen=max_w,
        infinite_witness=witness,
        type_name=None,
        explored=explored,
    )


def _inconclusive(max_w: int, explored: int) -> MutationClassReport:
    return MutationClassReport(
        classification=Classification.INCONCLUSIVE,
        class_size=None,
        max_weight_seen=max_w,
        infinite_witness=None,
        type_name=None,
        explored=explored,
    )


def explore(start: ExchangeMatrix, cap: int = DEFAULT_CAP) -> MutationClassReport:
    """Enumerate the mutation class of ``start`` up to isomorphism.

    ``cap`` bounds the number of canonical forms visited; hitting it without
    an infinite-type witness yields Inconclusive (never an exception).
    Each exit builds its report with the constructor of its kind, which
    :func:`rebuild_report` shares.  A finite-type class is named A/D/E by
    the Dynkin anchor among its member keys (:func:`name_class`);
    finite-mutation-type classes are left unnamed (the grid anchors of
    :func:`quiver_atlas.correspondence.name_finite_mutation_type` name them).
    """
    if cap < 1:
        raise CapZero("exploration cap must be >= 1")
    max_w = start.max_weight()
    if max_w >= 3 and _has_heavy_component(start):
        return _infinite(max_w, (), 1)
    witness = _witness_probe(start)
    if witness is not None:
        max_w = max(max_w, _checked_replay(start, witness))
        return _infinite(max_w, witness, 1)
    n = start.n
    components = start.components()  # every member's, too
    key, perm = _canonical_form(start, components)
    key = key.hex()
    seen = {key: 0}  # key -> bits of canonical vertices leading to seen keys
    queue = deque([(start, (), key, perm)])
    level, met = 0, {}  # child rows met on this BFS level -> (key, perm)
    while queue:
        m, seq, mkey, mperm = queue.popleft()
        if len(seq) != level:
            level = len(seq)
            met.clear()
        for k in range(n):
            if seen[mkey] >> mperm[k] & 1:
                continue  # mu_k(m) is isomorphic to a member already seen
            child = m.mutate(k)
            # m's weights are already in max_w and m has no heavy component,
            # so only the rows of k's neighbours can raise either.
            crows = child.rows
            w = max(map(max, compress(crows, m.rows[k])), default=0)
            if w > max_w:
                max_w = w
            if w >= 3 and _has_heavy_component(child):
                witness = seq + (k,)
                _checked_replay(start, witness)
                return _infinite(max_w, witness, len(seen))
            packed = _pack(crows)
            form = met.get(packed)
            if form is None:
                key, perm = _canonical_form(child, components)
                form = met[packed] = key.hex(), perm
            key, perm = form
            bits = seen.get(key)
            if bits is None:
                if len(seen) >= cap:
                    return _inconclusive(max_w, len(seen))
                bits = 0
                queue.append((child, seq + (k,), key, perm))
            seen[key] = bits | 1 << perm[k]  # mu_k(child) is m
    return _enumerated(n, seen, max_w)


def report_to_dict(report: MutationClassReport) -> dict:
    return {
        "classification": report.classification.value,
        "class_size": report.class_size,
        "max_weight_seen": report.max_weight_seen,
        "infinite_witness": (
            list(report.infinite_witness)
            if report.infinite_witness is not None
            else None
        ),
        "type_name": report.type_name,
        "explored": report.explored,
        "fingerprint": report.fingerprint,
    }


def _is_int_in(x, low, high=math.inf) -> bool:
    """x is an int, not a bool, with low <= x <= high."""
    return type(x) is int and low <= x <= high


def rebuild_report(n: int, data: dict, member_keys) -> MutationClassReport:
    """The report of rank n that ``data``, a :func:`report_to_dict` dict,
    and ``member_keys`` (None unless the class was enumerated) stand for.

    The report is rebuilt as :func:`explore` builds it, so a fully
    enumerated class gets its classification, size, fingerprint and name
    from its member keys and largest weight.  Raises ValueError unless
    the rebuilt report gives back ``data`` and its numbers are plain ints
    (no bools, no floats that compare equal): ``explored`` >= 1,
    ``max_weight_seen`` >= 0, or >= 3 with a witness, and witness entries
    in 0..n-1 (the witness is not replayed).
    """
    max_w, explored = data["max_weight_seen"], data["explored"]
    witness = data["infinite_witness"]
    if not (
        _is_int_in(explored, 1)
        and _is_int_in(max_w, 0 if witness is None else 3)
        and all(_is_int_in(v, 0, n - 1) for v in witness or ())
    ):
        raise ValueError("stored report has a field of the wrong type or range")
    if member_keys is not None:
        report = _enumerated(n, member_keys, max_w)
    elif witness is not None:
        report = _infinite(max_w, tuple(witness), explored)
    else:
        report = _inconclusive(max_w, explored)
    if report_to_dict(report) != data:
        raise ValueError("stored report does not rebuild to itself")
    return report
