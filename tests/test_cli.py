import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import quiver_atlas
import quiver_atlas.cli as cli_mod
from quiver_atlas.cli import main
from quiver_atlas.correspondence import CorrespondenceRow
from quiver_atlas.explore import Classification, MutationClassReport, replay
from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.render import render_rows
from quiver_atlas.tiling import SchlafliSymbol, tiling_report


@pytest.fixture
def runner():
    return CliRunner()


def test_library_and_cli_import_without_numpy():
    # numpy is a test-only oracle: a fresh interpreter that imports the
    # package and its CLI must not load it.
    src = str(Path(quiver_atlas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, quiver_atlas, quiver_atlas.cli; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_classify_d4(runner, tmp_path):
    result = runner.invoke(
        main,
        ["classify", "--p", "3", "--q", "3", "--format", "csv",
         "--cache-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "finite,D4,6" in result.output
    assert "tetrahedron" in result.output


def test_classify_degenerate_cell(runner):
    result = runner.invoke(
        main, ["classify", "--p", "2", "--q", "2", "--format", "csv", "--no-cache"]
    )
    assert result.exit_code == 0
    assert "A1" in result.output
    assert "hosohedron" in result.output


def test_classify_inconclusive_exit_code(runner):
    result = runner.invoke(
        main,
        ["classify", "--p", "3", "--q", "5", "--cap", "10", "--no-cache"],
    )
    assert result.exit_code == 3


def test_classify_mismatch_exit_code(runner, monkeypatch):
    real_report = MutationClassReport(
        classification=Classification.FINITE_MUTATION_TYPE,
        class_size=1,
        max_weight_seen=2,
        infinite_witness=None,
        type_name=None,
        explored=1,
    )
    fake_row = CorrespondenceRow(
        p=3,
        q=3,
        r=1,
        cluster=real_report,
        tiling=tiling_report(SchlafliSymbol(3, 3)),
        match=False,
    )
    monkeypatch.setattr(cli_mod, "classify_cell", lambda *a, **kw: fake_row)
    result = runner.invoke(
        main, ["classify", "--p", "3", "--q", "3", "--no-cache"]
    )
    assert result.exit_code == 2


def test_quiver_json_3_3(runner):
    result = runner.invoke(main, ["quiver", "--p", "3", "--q", "3"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 4
    nonzero_pairs = sum(
        1 for i in range(4) for j in range(i + 1, 4) if rows[i][j] != 0
    )
    assert nonzero_pairs == 5


def test_quiver_dot(runner):
    result = runner.invoke(
        main, ["quiver", "--p", "2", "--q", "4", "--format", "dot"]
    )
    assert result.exit_code == 0
    assert "digraph" in result.output
    assert result.output.count("->") == 2  # 3-vertex path
    result33 = runner.invoke(
        main, ["quiver", "--p", "3", "--q", "3", "--format", "dot"]
    )
    assert result33.output.count("->") == 5


def test_quiver_output_is_stable(runner):
    a = runner.invoke(main, ["quiver", "--p", "4", "--q", "4"])
    b = runner.invoke(main, ["quiver", "--p", "4", "--q", "4"])
    assert a.output == b.output


def test_table_small_grid(runner, tmp_path):
    result = runner.invoke(
        main,
        ["table", "--pmax", "3", "--qmax", "3", "--workers", "1",
         "--format", "csv", "--cache-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l and "," in l]
    assert len(lines) == 1 + 4  # header + 4 cells


def test_table_markdown_orientation(runner, tmp_path):
    result = runner.invoke(
        main,
        ["table", "--pmax", "3", "--qmax", "4", "--workers", "1",
         "--cache-dir", str(tmp_path)],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("| p\\q | 2 | 3 | 4 |")
    assert lines[2].startswith("| 2 |")


def test_table_json_schema(runner, tmp_path):
    result = runner.invoke(
        main,
        ["table", "--pmax", "2", "--qmax", "2", "--workers", "1",
         "--format", "json", "--cache-dir", str(tmp_path)],
    )
    doc = json.loads(result.stdout)
    assert "mismatches: 0" in result.stderr
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["cluster"]["type_name"] == "A1"
    assert doc["rows"][0]["match"] is True


def test_table_summary_counts_inconclusive_cell_once(runner):
    # at cap 1 the only undecided cell, D4 at (3,3), is inconclusive and
    # not a mismatch
    result = runner.invoke(
        main,
        ["table", "--pmax", "3", "--qmax", "3", "--cap", "1", "--no-cache",
         "--workers", "1"],
    )
    assert result.exit_code == 3, result.output
    assert "| 3 | fin:A2|sph | ???|sph ✗ |" in result.stdout
    assert result.stderr == "mismatches: 0  inconclusive: 1\n"


# sha256 of render_rows on the 2..7 grid, rows in (p, q) order
RENDERED_GRID7_SHA256 = {
    "markdown": "a32a8415066fa34712238357e01577d3d7211822c2110d7fd8a26c97c5bcc623",
    "csv": "bc362f2c10a15d6362ec479ad581cff80245559a6ba052ada81a51ecf580e098",
    "json": "2b954b3a51586125f1f3f75b6a510fd64309e01336fd783a6b816913770e4f3c",
}


@pytest.mark.parametrize("fmt", sorted(RENDERED_GRID7_SHA256))
def test_rendered_grid7_pinned(grid7, fmt):
    text = render_rows([grid7[cell] for cell in sorted(grid7)], fmt)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == RENDERED_GRID7_SHA256[fmt]


def _cluster(result):
    """The mutation-class report of a one-cell ``classify --format json``."""
    (row,) = json.loads(result.output)["rows"]
    return row["cluster"]


def test_classify_cache_round_trip(runner, tmp_path):
    args = ["classify", "--p", "3", "--q", "3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    assert list(tmp_path.glob("*.json")), "cache file expected"
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert first.output == second.output


def test_corrupt_cache_recomputes(runner, tmp_path):
    args = ["classify", "--p", "3", "--q", "3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    first = runner.invoke(main, args)
    for f in tmp_path.glob("*.json"):
        f.write_text("{ not json")
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert first.output == second.output


@pytest.mark.parametrize(
    "field,value",
    [("class_size", 7), ("type_name", "E6"), ("explored", 5), ("max_weight_seen", 2)],
)
def test_tampered_cache_entry_recomputes(runner, tmp_path, field, value):
    args = ["classify", "--p", "3", "--q", "3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    first = runner.invoke(main, args)
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    payload["report"][field] = value
    path.write_text(json.dumps(payload))
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert first.output == second.output
    report = json.loads(path.read_text())["report"]
    assert (report["class_size"], report["type_name"]) == (6, "D4")


def _has_heavy_component(m):
    return any(
        len(comp) >= 3
        and any(abs(m.rows[i][j]) >= 3 for i in comp for j in comp)
        for comp in m.components()
    )


def test_classify_cache_flags_agree(runner, tmp_path):
    base = ["classify", "--p", "5", "--q", "4", "--format", "json"]
    uncached = runner.invoke(main, base + ["--no-cache"])
    cold = runner.invoke(main, base + ["--cache-dir", str(tmp_path)])
    warm = runner.invoke(main, base + ["--cache-dir", str(tmp_path)])
    assert uncached.exit_code == 0, uncached.output
    assert uncached.output == cold.output == warm.output
    witness = _cluster(uncached)["infinite_witness"]
    start = initial_quiver(GrassmannianSpec(5, 4))
    assert _has_heavy_component(replay(start, witness))


def test_classify_red_cell_has_witness(runner):
    result = runner.invoke(
        main, ["classify", "--p", "5", "--q", "4", "--format", "json", "--no-cache"]
    )
    assert result.exit_code == 0
    report = _cluster(result)
    assert report["classification"] == "infinite-mutation"
    assert report["infinite_witness"]


def test_workers_default_is_cpus_this_process_may_use(runner, monkeypatch):
    # two CPUs in the machine, one in this process's affinity mask
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []

    def fake_run_verification(workers, cache_dir):
        seen.append(workers)
        return [("check", True, "ok")]

    monkeypatch.setattr(cli_mod, "run_verification", fake_run_verification)
    result = runner.invoke(main, ["verify", "--no-cache"])
    assert result.exit_code == 0, result.output
    # a platform without affinity masks falls back to the machine's count
    monkeypatch.delattr(os, "sched_getaffinity")
    result = runner.invoke(main, ["verify", "--no-cache"])
    assert result.exit_code == 0, result.output
    assert seen == [1, 2]


def test_cache_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("ATLAS_CACHE", str(tmp_path / "envcache"))
    result = runner.invoke(
        main, ["classify", "--p", "2", "--q", "3", "--format", "json"]
    )
    assert result.exit_code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


@pytest.mark.parametrize(
    "command",
    [
        ["table", "--pmax", "4", "--qmax", "4", "--workers", "1"],
        ["classify", "--p", "4", "--q", "4"],
    ],
)
def test_planar_cell_inconclusive_at_small_cap(runner, command):
    result = runner.invoke(
        main, command + ["--cap", "100", "--no-cache", "--format", "csv"]
    )
    assert result.exit_code == 3, result.output
    assert "\n4,4,4,inconclusive," in result.output


def test_readme_names_exactly_the_cli_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named, fenced = set(), False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("atlas "):
            named.add(line.split()[1])
    assert named == set(main.commands)
