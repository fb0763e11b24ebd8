"""Rendering of correspondence rows as markdown, CSV, or JSON.

The markdown table follows the grid orientation of the source tables
(rows p, columns q); CSV emits one row per cell with a fixed header; JSON
emits a versioned document.
"""

from __future__ import annotations

import csv
import io
import json

from .correspondence import CorrespondenceRow
from .explore import Classification, report_to_dict
from .tiling import GeometryClass, tiling_report_to_dict

JSON_SCHEMA_VERSION = 1

CSV_HEADER = [
    "p",
    "q",
    "r",
    "cluster_classification",
    "cluster_type",
    "class_size",
    "max_weight",
    "tiling_geometry",
    "tiling_name",
    "coxeter_name",
    "group_order",
    "match",
]

_CLUSTER_TAG = {
    Classification.FINITE_TYPE: "fin",
    Classification.FINITE_MUTATION_TYPE: "fin-mut",
    Classification.INFINITE_MUTATION_TYPE: "inf-mut",
    Classification.INCONCLUSIVE: "???",
}

_TILING_TAG = {
    GeometryClass.SPHERICAL: "sph",
    GeometryClass.PLANAR: "pla",
    GeometryClass.HYPERBOLIC: "hyp",
}


def cell_text(row: CorrespondenceRow) -> str:
    """Compact cell label: category tag per side, plus the type name."""
    tag = _CLUSTER_TAG[row.cluster.classification]
    if row.cluster.type_name:
        tag = f"{tag}:{row.cluster.type_name}"
    text = f"{tag}|{_TILING_TAG[row.tiling.geometry]}"
    if not row.match:
        text += " ✗"
    return text


def render_markdown_grid(rows: list[CorrespondenceRow]) -> str:
    by_cell = {(row.p, row.q): row for row in rows}
    ps = sorted({p for p, _ in by_cell})
    qs = sorted({q for _, q in by_cell})
    lines = ["| p\\q | " + " | ".join(str(q) for q in qs) + " |"]
    lines.append("|" + "---|" * (len(qs) + 1))
    for p in ps:
        cells = [
            cell_text(by_cell[(p, q)]) if (p, q) in by_cell else ""
            for q in qs
        ]
        lines.append(f"| {p} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _csv_record(row: CorrespondenceRow) -> list:
    cluster, tiling = row.cluster, row.tiling
    return [
        row.p,
        row.q,
        row.r,
        cluster.classification.value,
        cluster.type_name or "",
        cluster.class_size if cluster.class_size is not None else "",
        cluster.max_weight_seen,
        tiling.geometry.value,
        tiling.tiling_name,
        tiling.coxeter_name,
        tiling.group_order if tiling.group_order is not None else "",
        "true" if row.match else "false",
    ]


def render_csv(rows: list[CorrespondenceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(_csv_record(row))
    return buf.getvalue()


def render_json(rows: list[CorrespondenceRow]) -> str:
    dicts = [
        {
            "p": row.p,
            "q": row.q,
            "r": row.r,
            "cluster": report_to_dict(row.cluster),
            "tiling": tiling_report_to_dict(row.tiling),
            "match": row.match,
        }
        for row in rows
    ]
    doc = {"schema_version": JSON_SCHEMA_VERSION, "rows": dicts}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def render_rows(rows: list[CorrespondenceRow], fmt: str) -> str:
    if fmt == "markdown":
        return render_markdown_grid(rows)
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "json":
        return render_json(rows)
    raise ValueError(f"unknown format {fmt!r}")
