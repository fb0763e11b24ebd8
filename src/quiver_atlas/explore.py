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

* connected components never change, so "lies in a component of >= 3
  vertices" is computed once per call, and a quiver is heavy iff a row of
  such a vertex has an entry >= 3 (skew-symmetry puts every |b_ij| >= 3 in
  row i or row j, and i and j share a component);
* only the rows of k's neighbours change (row k merely changes sign), so
  the closure's heavy test and the largest weight seen read those rows;
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
Rows equal to rows already met on the level, packed one signed byte per
entry, reuse the key and permutation computed for them, which still sets
the duplicate's back edge.  The memo is emptied at each new level, so it
never holds more than one level's children.

A probe miss is never a wrong answer, but it costs time.  On a
mutation-finite quiver of more than PROBE_BALL vertices the probe tries up
to one ball per vertex before the closure starts, less the balls whose
subquiver equals, row for row, one already tried: on the grid starts of A20
and A30 the same 7116 quivers, about 0.2 s on 2 vCPUs.  Such a closure
exceeds the default cap anyway.

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
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain, compress
from operator import mul

from .canonical import canonical_form, canonical_key
from .matrix import ExchangeMatrix, QuiverError

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
    an edge weight >= 3.
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
    heavy edges in 2-vertex components are ignored.
    """
    rows = compress(m.rows, _large_component_vertices(m))
    return max(map(max, rows), default=0) >= 3


def replay(start: ExchangeMatrix, witness) -> ExchangeMatrix:
    """Apply a mutation sequence to the start quiver."""
    return start.mutate_sequence(witness)


PROBE_BEAM = 4
PROBE_BALL = 12


def _large_component_vertices(m: ExchangeMatrix) -> list[bool]:
    """Flags v in a connected component of >= 3 vertices (mutation-invariant)."""
    large = [False] * m.n
    for comp in m.components():
        if len(comp) >= 3:
            for v in comp:
                large[v] = True
    return large


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


def _beam_search(start: ExchangeMatrix) -> tuple[tuple[int, ...] | None, int]:
    """Beam search over mutation sequences of ``start`` for an edge of
    weight >= 3, scored by (max weight, sum of squared entries); both grow
    along mutation-infinite directions.  ``start`` is a ball's subquiver,
    connected on >= 3 vertices as are its mutations, so such an edge is a
    heavy component.  Returns (witness, quivers examined)."""
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
                    return seq + (k,), len(seen)
                seen.add(c.rows)
                scored.append((w, sum(map(mul, flat, flat)), c, seq + (k,)))
        if not scored:
            break
        scored.sort(key=lambda t: t[:2], reverse=True)
        beam = [(c, seq) for _, _, c, seq in scored[:PROBE_BEAM]]
    return None, len(seen)


def _witness_probe(
    start: ExchangeMatrix, large: list[bool]
) -> tuple[tuple[int, ...] | None, int]:
    """Deterministic guided search for a weight->=3 witness.

    ``start`` has no heavy component and ``large`` flags the vertices of its
    components of >= 3 vertices.  Runs :func:`_beam_search` on the full
    subquiver of the ball (:func:`_ball`) of each flagged vertex, in index
    order, skipping balls already probed and balls whose subquiver rows equal
    those of one already probed, and maps the first witness back to
    ``start``'s labels (it mutates the ball's block of ``start`` as it
    mutated the subquiver).  Returns (witness, quivers examined over all
    balls); (None, examined) means no ball gave a witness, which is expected
    for mutation-finite classes.
    """
    rows = start.rows
    examined = 0
    balls, subquivers = set(), set()
    for v in compress(range(start.n), large):
        ball = _ball(start, v)
        if frozenset(ball) in balls:
            continue
        balls.add(frozenset(ball))
        sub = tuple(tuple(rows[i][j] for j in ball) for i in ball)
        if sub in subquivers:
            continue  # _beam_search depends only on the rows: the same miss
        subquivers.add(sub)
        witness, count = _beam_search(ExchangeMatrix(sub))
        examined += count
        if witness is not None:
            return tuple(ball[k] for k in witness), examined
    return None, examined


def _checked_replay(start: ExchangeMatrix, witness) -> int:
    """Replay ``witness`` from ``start`` and check its end with the full
    scan of :func:`_has_heavy_component`; return the largest weight met
    after ``start``."""
    m = start
    max_w = 0
    for k in witness:
        m = m.mutate(k)
        w = m.max_weight()
        if w > max_w:
            max_w = w
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
    n = start.n
    max_w = start.max_weight()
    large = _large_component_vertices(start)
    if max(map(max, compress(start.rows, large)), default=0) >= 3:
        return _infinite(max_w, (), 1)
    witness, probed = _witness_probe(start, large)
    if witness is not None:
        max_w = max(max_w, _checked_replay(start, witness))
        return _infinite(max_w, witness, probed)
    key, perm = canonical_form(start)
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
            if w >= 3 and large[k]:
                witness = seq + (k,)
                _checked_replay(start, witness)
                return _infinite(max_w, witness, len(seen))
            try:  # one signed byte per entry keeps the memo small
                packed = array("b", chain.from_iterable(crows)).tobytes()
            except OverflowError:
                packed = crows
            form = met.get(packed)
            if form is None:
                key, perm = canonical_form(child)
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


def rebuild_report(n: int, data: dict, member_keys) -> MutationClassReport:
    """The report of rank n that ``data``, a :func:`report_to_dict` dict,
    and ``member_keys`` (None unless the class was enumerated) stand for.

    The report is rebuilt as :func:`explore` builds it, so a fully
    enumerated class gets its classification, size, fingerprint and name
    from its member keys and largest weight.  Raises ValueError unless
    the rebuilt report gives back ``data``, and for an infinite-type report
    whose witness names a vertex outside 0..n-1 or whose largest weight is
    below 3 (the witness is not replayed).
    """
    max_w = data["max_weight_seen"]
    if member_keys is not None:
        report = _enumerated(n, member_keys, max_w)
    elif data["infinite_witness"] is not None:
        witness = tuple(data["infinite_witness"])
        if max_w < 3 or not all(0 <= v < n for v in witness):
            raise ValueError("stored infinite-type report is malformed")
        report = _infinite(max_w, witness, data["explored"])
    else:
        report = _inconclusive(max_w, data["explored"])
    if report_to_dict(report) != data:
        raise ValueError("stored report does not rebuild to itself")
    return report
