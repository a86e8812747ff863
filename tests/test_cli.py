import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import sforge
from sforge.cli import EXHAUSTIVE_GAUSS_MAX, main
from sforge.tower import POWER_SEQUENCE_MAX

M3Z4 = {"kind": "Mat", "size": 3, "base": {"kind": "Zmod", "m": 4}}
M3Z12 = {"kind": "Mat", "size": 3, "base": {"kind": "Zmod", "m": 12}}
M2F2 = {"kind": "Mat", "size": 2, "base": {"kind": "Zmod", "m": 2}}
M2Z4 = {"kind": "Mat", "size": 2, "base": {"kind": "Zmod", "m": 4}}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def relations_config(tmp_path):
    return write_config(
        tmp_path, "relations.json", {"ring": M3Z4, "samples": 40, "seed": 7}
    )


@pytest.fixture
def tower_config(tmp_path):
    return write_config(
        tmp_path,
        "tower.json",
        {
            "ring": M3Z12,
            "scale": 2,
            "system": "homotope",
            "k_max": 3,
            "samples": 60,
            "seed": 3,
        },
    )


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_relations_clean_run(relations_config, capsys):
    code, out, err = run_main(capsys, ["relations", "--config", relations_config])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["violations"] == 0
    assert report["artifact"] == {"name": "sforge", "version": report["artifact"]["version"]}
    assert report["command"] == "relations"
    assert report["config"]["seed"] == 7
    assert set(report["suites"]) == {"plain"}
    assert "finished" in err  # timing goes to stderr, never the report
    assert "finished" not in out


def test_relations_homotope_levels(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "hom.json",
        {"ring": M3Z4, "scale": 2, "system": "homotope", "k_max": 2, "samples": 25},
    )
    code, out, _ = run_main(capsys, ["relations", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert set(report["suites"]) == {"plain", "level-0", "level-1", "level-2"}


def test_relations_exhaustive_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, "ex.json", {"ring": M2F2, "samples": 10})
    code, out, _ = run_main(capsys, ["relations", "--config", cfg, "--exhaustive"])
    assert code == 0
    report = json.loads(out)
    grid = report["suites"]["plain"]["St1_exhaustive"]
    assert grid["violations"] == 0 and grid["checked"] > 0


def test_report_bytes_are_canonical_json(relations_config, capsys):
    _, out, _ = run_main(capsys, ["relations", "--config", relations_config])
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_runs_are_deterministic_and_append_only(tower_config, tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    code1, stdout1, _ = run_main(
        capsys, ["tower", "--config", tower_config, "--out", out_dir]
    )
    code2, stdout2, _ = run_main(
        capsys, ["tower", "--config", tower_config, "--out", out_dir]
    )
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    run_dirs = sorted(os.listdir(out_dir))
    assert len(run_dirs) == 2  # second run never overwrites the first
    payloads = []
    for d in run_dirs:
        with open(os.path.join(out_dir, d, "report.json"), "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[1]
    assert payloads[0].decode("utf-8") == stdout1


def test_seed_changes_the_report_but_not_the_shape(tower_config, capsys):
    _, base, _ = run_main(capsys, ["tower", "--config", tower_config])
    _, other, _ = run_main(capsys, ["tower", "--config", tower_config, "--seed", "99"])
    r1, r2 = json.loads(base), json.loads(other)
    assert r1["config"]["seed"] == 3 and r2["config"]["seed"] == 99
    assert set(r1["suites"]) == set(r2["suites"])
    assert r1["verdict"] == r2["verdict"] == "pass"


def test_sample_override_is_echoed(relations_config, capsys):
    _, out, _ = run_main(
        capsys, ["relations", "--config", relations_config, "--samples", "5"]
    )
    report = json.loads(out)
    assert report["config"]["samples"] == 5
    assert report["suites"]["plain"]["St1"]["checked"] == 5


def test_usage_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["relations", "--config", missing]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["relations", "--config", str(bad_json)]) == 2

    unknown = write_config(tmp_path, "unk.json", {"ring": M3Z4, "bogus": 1})
    assert main(["relations", "--config", unknown]) == 2

    bad_ring = write_config(tmp_path, "ring.json", {"ring": {"kind": "Quaternion"}})
    assert main(["relations", "--config", bad_ring]) == 2

    no_scale = write_config(tmp_path, "noscale.json", {"ring": M3Z4})
    assert main(["tower", "--config", no_scale]) == 2

    many = write_config(
        tmp_path, "many.json", {"ring": M3Z4, "scale": 2, "k_max": "many"}
    )
    assert main(["tower", "--config", many]) == 2

    for blocks in ([[False], [True]], [[0.0], [1]]):
        family = write_config(tmp_path, "fam.json", {"ring": M2Z4, "family": blocks})
        assert main(["relations", "--config", family]) == 2
        assert "bad family descriptor" in capsys.readouterr().err
    capsys.readouterr()


def test_fault_injection_relations(relations_config, capsys):
    code, out, _ = run_main(
        capsys,
        ["relations", "--config", relations_config, "--inject-fault", "st3-zero"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["suites"]["plain"]["St3"]["violations"] > 0


def test_fault_injection_crossed_module(tmp_path, capsys):
    cfg = write_config(tmp_path, "cm.json", {"ring": M3Z4, "samples": 25})
    code, out, _ = run_main(
        capsys,
        ["crossed-module", "--config", cfg, "--inject-fault", "drop-diagonal"],
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"
    code, out, _ = run_main(capsys, ["crossed-module", "--config", cfg])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_gauss_rejects_fault_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, "g.json", {"ring": M2F2})
    with pytest.raises(SystemExit):
        main(["gauss", "--config", cfg, "--inject-fault", "anything"])
    capsys.readouterr()


@pytest.mark.parametrize("command", ["crossed-module", "tower"])
def test_exhaustive_flag_only_where_read(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {"ring": M2F2, "scale": 1})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--exhaustive"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gauss_exhaustive_order(tmp_path, capsys):
    cfg = write_config(tmp_path, "g.json", {"ring": M2F2})
    code, out, _ = run_main(capsys, ["gauss", "--config", cfg, "--exhaustive"])
    assert code == 0
    suite = json.loads(out)["suites"]["exhaustive"]
    assert suite["group_order"] == 6
    assert suite["reconstructed"] == 6
    assert suite["sample_factorization"] is not None


def test_gauss_single_element_paths(tmp_path, capsys):
    good = write_config(
        tmp_path,
        "unit.json",
        {"ring": M2F2, "element": [[1, 1], [0, 1]]},
    )
    code, out, _ = run_main(capsys, ["gauss", "--config", good])
    assert code == 0
    assert json.loads(out)["suites"]["element"]["reconstructed"] is True

    singular = write_config(
        tmp_path,
        "sing.json",
        {"ring": M2F2, "element": [[1, 1], [1, 1]]},
    )
    code, out, _ = run_main(capsys, ["gauss", "--config", singular])
    assert code == 1
    suite = json.loads(out)["suites"]["element"]
    assert suite["reconstructed"] is False and "error" in suite


def test_kmax_zero_warns_inconclusive(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "k0.json",
        {"ring": M3Z12, "scale": 2, "system": "homotope", "k_max": 0, "seed": 3},
    )
    code, out, _ = run_main(capsys, ["tower", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "warn"
    assert report["suites"]["relations"]["status"] == "inconclusive"
    assert "note" in report["suites"]
    assert any("budget" in w for w in report["warnings"])


def test_collapsing_tower_still_passes_with_warning(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "z8.json",
        {
            "ring": {"kind": "Mat", "size": 3, "base": {"kind": "Zmod", "m": 8}},
            "scale": 2,
            "k_max": 2,
            "samples": 30,
        },
    )
    code, out, _ = run_main(capsys, ["tower", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "warn"
    assert report["warnings"]


def run_cli_process(argv):
    """The sforge command in a fresh interpreter: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(sforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "sforge.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Importing sforge.cli loads none of dataclasses, inspect or typing,
    which every command would pay for at start-up (dataclasses imports
    inspect).  -S keeps the site module's own imports out of the test."""
    src = os.path.dirname(os.path.dirname(sforge.__file__))
    probe = (
        "import sys; sys.path.insert(0, %r); import sforge.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    ) % src
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gauss_exhaustive_past_its_bound_exits_two_at_once(tmp_path):
    """M(4, Z/12) has 12^16 matrices: refused before any work, with a
    message naming the bound, an empty stdout and no traceback."""
    ring = {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 12}}
    cfg = write_config(tmp_path, "big.json", {"ring": ring})
    started = time.perf_counter()
    code, out, err = run_cli_process(["gauss", "--config", cfg, "--exhaustive"])
    assert time.perf_counter() - started < 10
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "config error" in err and str(EXHAUSTIVE_GAUSS_MAX) in err


@pytest.mark.parametrize("command", ["relations", "tower"])
def test_scale_past_the_power_sequence_bound_exits_two_at_once(tmp_path, capsys, command):
    """3 has order 2^61 - 2 in Z/(2^61 - 1): the tower's power sequence
    is refused on construction, before any work, with a message naming
    s, the ring and the bound, an empty stdout and no traceback."""
    ring = {"kind": "Mat", "size": 2, "base": {"kind": "Zmod", "m": 2 ** 61 - 1}}
    cfg = write_config(tmp_path, "wide.json", {"ring": ring, "system": "homotope", "scale": 3})
    started = time.perf_counter()
    code, out, err = run_main(capsys, [command, "--config", cfg])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "config error" in err and str(POWER_SEQUENCE_MAX) in err
    assert "s = 3" in err and str(2 ** 61 - 1) in err


@pytest.mark.parametrize(
    "command, size, want",
    [("tower", 2, 0), ("tower", 1, 2), ("crossed-module", 1, 2), ("relations", 1, 2)],
)
def test_too_few_blocks_skips_or_exits_two(tmp_path, command, size, want):
    ring = {"kind": "Mat", "size": size, "base": {"kind": "Zmod", "m": 4}}
    cfg = write_config(
        tmp_path, "small.json", {"ring": ring, "scale": 2, "k_max": 2, "samples": 5}
    )
    code, out, err = run_cli_process([command, "--config", cfg])
    assert "Traceback" not in err
    assert code == want
    if want == 2:
        assert "config error" in err and "needs at least" in err
    else:
        report = json.loads(out)
        assert report["suites"]["split_naturality"]["checked"] == 0
        assert any("split_naturality skipped" in w for w in report["warnings"])


@pytest.mark.parametrize("command", ["relations", "crossed-module", "tower"])
def test_zero_ring_exits_two(tmp_path, command):
    """Over Z/1 no letter is nonzero, so no random word can be drawn."""
    ring = {"kind": "Mat", "size": 3, "base": {"kind": "Zmod", "m": 1}}
    cfg = write_config(
        tmp_path, "zero.json", {"ring": ring, "scale": 0, "k_max": 1, "samples": 2}
    )
    code, out, err = run_cli_process([command, "--config", cfg])
    assert "Traceback" not in err
    assert code == 2
    assert out == ""
    assert "config error" in err and "zero ring" in err


@pytest.mark.parametrize("field", ["samples", "k_max", "seed"])
def test_booleans_are_not_integers(tmp_path, capsys, field):
    cfg = write_config(tmp_path, "bool.json", {"ring": M3Z4, field: True})
    code, out, err = run_main(capsys, ["relations", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error" in err and field in err


@pytest.mark.parametrize(
    "field, ring",
    [
        ("m", {"kind": "Zmod", "m": True}),
        ("m", {"kind": "Zmod", "m": "4"}),
        ("p", {"kind": "GF", "p": "3", "f": [1, 0, 1]}),
        ("f", {"kind": "GF", "p": 3, "f": [1, 0, True]}),
        ("size", {"kind": "Mat", "size": True, "base": {"kind": "Zmod", "m": 4}}),
    ],
    ids=["m-true", "m-string", "p-string", "f-entry-true", "size-true"],
)
def test_ring_descriptor_fields_must_be_integers(tmp_path, field, ring):
    if ring["kind"] != "Mat":
        ring = {"kind": "Mat", "size": 2, "base": ring}
    cfg = write_config(tmp_path, "ring.json", {"ring": ring})
    code, out, err = run_cli_process(["relations", "--config", cfg])
    assert "Traceback" not in err
    assert code == 2
    assert out == ""
    assert "bad ring descriptor" in err and "'%s'" % field in err


COMMANDS = ("relations", "gauss", "crossed-module", "tower")


@pytest.mark.parametrize("command", COMMANDS)
def test_rejects_nested_matrix_ring(tmp_path, command):
    inner = {"kind": "Mat", "size": 2, "base": {"kind": "Zmod", "m": 4}}
    cfg = write_config(
        tmp_path,
        "nested.json",
        {"ring": {"kind": "Mat", "size": 3, "base": inner}, "scale": 2, "k_max": 2},
    )
    code, out, err = run_cli_process([command, "--config", cfg])
    assert "Traceback" not in err
    assert code == 2
    assert out == ""
    assert "config error" in err and "M(nk, A) with a block family" in err


@pytest.mark.parametrize("command", ["gauss", "crossed-module"])
def test_block_family_form_of_nested_ring_runs(tmp_path, command):
    """M(3, M(2, Z/4)) written as M(6, Z/4) with three 2 x 2 blocks."""
    cfg = write_config(
        tmp_path,
        "blocks.json",
        {
            "ring": {"kind": "Mat", "size": 6, "base": {"kind": "Zmod", "m": 4}},
            "family": {"blocks": [[0, 1], [2, 3], [4, 5]]},
            "samples": 5,
        },
    )
    code, out, err = run_cli_process([command, "--config", cfg])
    assert "Traceback" not in err
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("command", COMMANDS)
def test_bare_base_ring_is_a_config_error(tmp_path, command):
    cfg = write_config(
        tmp_path, "bare.json", {"ring": {"kind": "Zmod", "m": 4}, "scale": 2}
    )
    code, out, err = run_cli_process([command, "--config", cfg])
    assert "Traceback" not in err
    assert code == 2
    assert out == ""
    assert "config error" in err and "matrix ring" in err


def test_out_that_is_a_file_exits_two_before_any_work(tmp_path):
    cfg = write_config(tmp_path, "g.json", {"ring": M2F2, "samples": 2})
    taken = tmp_path / "somefile"
    taken.write_text("keep", encoding="utf-8")
    for out_dir in (taken, taken / "runs"):
        code, out, err = run_cli_process(
            ["gauss", "--config", cfg, "--out", str(out_dir)]
        )
        assert "Traceback" not in err
        assert code == 2
        assert out == ""
        assert "--out" in err and "not a usable directory" in err
    assert taken.read_text(encoding="utf-8") == "keep"


M3GF9 = {"kind": "Mat", "size": 3, "base": {"kind": "GF", "p": 3, "f": [1, 0, 1]}}
M2Z12 = {"kind": "Mat", "size": 2, "base": {"kind": "Zmod", "m": 12}}


@pytest.mark.parametrize(
    "command, ring, field, value",
    [
        ("tower", M3GF9, "scale", [1.5, 0]),
        ("tower", M3GF9, "scale", [1, True]),
        ("tower", M3GF9, "scale", "1"),
        ("tower", M3Z12, "scale", True),
        ("tower", M3Z12, "scale", 2.7),
        ("tower", M3Z12, "scale", "5"),
        ("tower", M3Z12, "scale", [5]),
        ("gauss", M2Z12, "element", [[1, True], [0, 1]]),
        ("gauss", M2Z12, "element", [[1, 0.5], [0, 1]]),
        ("gauss", M2Z12, "element", ["12", "01"]),
    ],
    ids=[
        "gf-float-coefficient",
        "gf-bool-coefficient",
        "gf-string",
        "zmod-true",
        "zmod-float",
        "zmod-string",
        "zmod-list",
        "element-true",
        "element-float",
        "element-strings",
    ],
)
def test_ring_elements_must_be_json_integers(tmp_path, command, ring, field, value):
    cfg = write_config(
        tmp_path, "elem.json", {"ring": ring, "scale": 2, "k_max": 2, field: value}
    )
    code, out, err = run_cli_process([command, "--config", cfg])
    assert "Traceback" not in err
    assert code == 2
    assert out == ""
    assert "config error: bad %s" % field in err


# Report sha256s of runs over block families with non-singleton blocks,
# where a payload's block values have more than one cell.  The pinned
# benchmark workloads all use the units family, so a slip in the order of
# the cells inside a block would pass them and fail these.
BLOCK_FAMILY_GOLDEN = {
    "relations-M4Z2-[[0,1],[2,3]]": (
        ["relations", "--exhaustive"],
        {
            "ring": {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 2}},
            "family": [[0, 1], [2, 3]],
            "system": "homotope",
            "scale": 1,
            "k_max": 1,
            "samples": 50,
            "seed": 5,
        },
        "7573045f7d5820180836779f707d18992eca18e68dff13a3a69ecc7650f16e04",
    ),
    "tower-M4Z12-[[0,1],[2],[3]]": (
        ["tower"],
        {
            "ring": {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 12}},
            "family": [[0, 1], [2], [3]],
            "system": "homotope",
            "scale": 2,
            "k_max": 3,
            "samples": 120,
            "seed": 11,
        },
        "17dbc57e6634b584ad878f441f41c13aacc030620b23ebf8fca9eec130c4f0e4",
    ),
    # four blocks, so root actors act across the 2 x 2 block too
    "tower-M5Z6-[[0],[1],[2,4],[3]]": (
        ["tower"],
        {
            "ring": {"kind": "Mat", "size": 5, "base": {"kind": "Zmod", "m": 6}},
            "family": [[0], [1], [2, 4], [3]],
            "system": "homotope",
            "scale": 2,
            "k_max": 3,
            "samples": 80,
            "seed": 2,
        },
        "996ff9bf4738d96e8907b0f47747b23dd2b4b7b8bd05fcbf2008841b8023615b",
    ),
}


def assert_golden(tmp_path, capsys, argv, config, want):
    cfg = write_config(tmp_path, "golden.json", config)
    code, out, _ = run_main(capsys, [argv[0], "--config", cfg] + argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("name", sorted(BLOCK_FAMILY_GOLDEN))
def test_block_family_reports_match_their_golden_sha256(tmp_path, capsys, name):
    assert_golden(tmp_path, capsys, *BLOCK_FAMILY_GOLDEN[name])


def _units_tower(base, scale):
    return {
        "ring": {"kind": "Mat", "size": 4, "base": base},
        "family": "units",
        "system": "homotope",
        "scale": scale,
        "k_max": 3,
        "samples": 200,
        "seed": 0,
    }


# Report sha256s of tower runs whose localized scalars differ from the
# pinned benchmark workload's Z/3 (M(4, Z/12) at s = 2): a field, Z/4 and
# the zero ring.  Each actor's conjugation on the GL side is checked there.
TOWER_GOLDEN = {
    "M4-GF4-s[0,1]": (
        _units_tower({"kind": "GF", "p": 2, "f": [1, 1, 1]}, [0, 1]),
        "a44a680186b637da9191a7d91d032a9dc69826f891083b7c9d2a6c1fe24a960c",
    ),
    "M4-Z12-s3": (
        _units_tower({"kind": "Zmod", "m": 12}, 3),
        "ebfc189f673b19688aabd80403a420b561ce54ed67c3d52bc7c9120be85e65dc",
    ),
    "M4-Z8-s2": (
        _units_tower({"kind": "Zmod", "m": 8}, 2),
        "dc6f7f09049ca43720fc31530a0eab5aa937c6202f08ba204d77caf61bac85be",
    ),
    # a nilpotent scale on 2 x 2 blocks: the operator suite's corner and
    # carrier are both the exhaustive 256 block values of a 2 x 2 block
    "M4-Z4-[[0,1],[2,3]]-s2": (
        {
            "ring": {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 4}},
            "family": [[0, 1], [2, 3]],
            "system": "homotope",
            "scale": 2,
            "k_max": 2,
            "samples": 10,
            "seed": 0,
        },
        "bd9d1b5587e0efcb50d98b8826f467b10449a1e28050826afadba9b010d2ada2",
    ),
}


@pytest.mark.parametrize("name", sorted(TOWER_GOLDEN))
def test_tower_reports_match_their_golden_sha256(tmp_path, capsys, name):
    config, want = TOWER_GOLDEN[name]
    assert_golden(tmp_path, capsys, ["tower"], config, want)


# Report sha256s of crossed-module runs on M(n, Z/12) for n = 8 and 16:
# their Ad_g words run to about 115 and 463 letters, so each fold crosses
# many of the packed Z/m kernel's reductions, which no pinned benchmark
# workload's folds do.
LONG_WORD_GOLDEN = {
    8: "3f469716af310ad3eb9f3ad551b20c034631d33d3e9dc4b38ea23d188f6c238c",
    16: "d0fe701430543df800bb7093d807d68397ff82eb8a4710fb1306512ed5c5297e",
}


@pytest.mark.parametrize("n", sorted(LONG_WORD_GOLDEN))
def test_long_word_reports_match_their_golden_sha256(tmp_path, capsys, n):
    config = {
        "ring": {"kind": "Mat", "size": n, "base": {"kind": "Zmod", "m": 12}},
        "family": "units",
        "samples": 10,
        "seed": 0,
    }
    assert_golden(tmp_path, capsys, ["crossed-module"], config, LONG_WORD_GOLDEN[n])
