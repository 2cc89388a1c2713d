import json
import subprocess
import sys

import pytest

from skewsupport.cli import (
    EXIT_DISCOVERY,
    EXIT_OK,
    EXIT_THEOREM,
    EXIT_USAGE,
    main,
)
from skewsupport.config import ENV_JOBS, ENV_MAX_SIZE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shapes_count(capsys):
    code, out, _ = run_cli(capsys, "shapes", "--n", "3", "--count")
    assert code == EXIT_OK
    assert out.strip() == "9"


def test_shapes_listing(capsys):
    code, out, _ = run_cli(capsys, "shapes", "--n", "2")
    data = json.loads(out)
    assert data == {"n": 2, "count": 3, "shapes": ["1,1", "2", "2,1/1"]}


def test_expand_example(capsys):
    code, out, _ = run_cli(capsys, "expand", "311/1", "--basis", "f")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["terms"] == {
        "1,1,2": 1,
        "1,2,1": 1,
        "1,3": 1,
        "2,1,1": 1,
        "2,2": 1,
        "3,1": 1,
    }
    assert len(data["terms"]) == 6


def test_expand_d_basis_signed(capsys):
    code, out, _ = run_cli(capsys, "expand", "22", "--basis", "d")
    data = json.loads(out)
    assert data["terms"] == {"1,3": -1, "2,2": 1}


def test_overlaps_example(capsys):
    code, out, _ = run_cli(capsys, "overlaps", "553111/31")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["rows"] == ["4,3,2,1,1,1", "2,2,1,1,1", "1,1", "1"]
    assert data["cols"] == ["4,2,2,2,2", "2,2,1,1", "1,1,1", "1"]


def test_compare_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "311/1", "22")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["positive"]["f"] is True
    assert data["support_contains"]["schur"] is False
    assert data["violations"] == []


def test_verify_figure6(capsys):
    code, out, _ = run_cli(capsys, "verify", "figure6", "--n", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pass"] is True
    assert data["violations"] == []


def test_verify_conjecture_with_shard(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify", "conjecture", "--n", "4", "--shard", "1/2"
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "conjecture", "--n", "4", "--shard", "2/2"
    )
    assert code1 == code2 == EXIT_OK
    d1, d2 = json.loads(out1), json.loads(out2)
    full_pairs = 15 * 14
    assert d1["pairs_checked"] + d2["pairs_checked"] == full_pairs
    assert d1["pass_theorem"] and d2["pass_theorem"]


def test_poset_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "poset", "--n", "3", "--which", "suppf")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["class_count"] == 6
    code, dot, _ = run_cli(
        capsys, "poset", "--n", "3", "--which", "nc", "--format", "dot"
    )
    assert code == EXIT_OK
    assert dot.startswith("digraph nc_3 {")


def test_multfree(capsys):
    code, out, _ = run_cli(capsys, "multfree", "--n", "5")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pass"] is True
    assert data["subposet"]["class_count"] == 11
    assert len(data["subposet"]["hasse_edges"]) == 10


def test_multfree_unclassified_shape_exits_2(capsys, monkeypatch):
    import skewsupport.posets as posets_mod

    match = posets_mod._match_pattern

    def miss_two_row(s):
        hit = match(s)
        return None if hit and hit[0] == "two-row" else hit

    monkeypatch.setattr(posets_mod, "_match_pattern", miss_two_row)
    code, out, err = run_cli(capsys, "multfree", "--n", "5")
    assert code == EXIT_THEOREM
    data = json.loads(out)
    assert data["pass"] is False
    assert {"shape": "3,2", "classified": False, "expansion_multfree": True} in (
        data["classification_mismatches"]
    )
    assert err == ""


def test_saturation(capsys):
    code, out, _ = run_cli(capsys, "saturation", "--n", "3", "--scale", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["agreement"] is True
    assert data["schur_regression"]["confirmed"] is True


def test_tableaux_limit(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "22", "--limit", "1")
    data = json.loads(out)
    assert data["count"] == 2
    assert data["truncated"] is True
    assert len(data["tableaux"]) == 1
    code, out, _ = run_cli(capsys, "tableaux", "22")
    data = json.loads(out)
    assert data["truncated"] is False
    assert len(data["tableaux"]) == 2
    # eight disconnected boxes: 8! fillings, only the shown one is built
    code, out, _ = run_cli(
        capsys, "tableaux", "8,7,6,5,4,3,2,1/7,6,5,4,3,2,1", "--limit", "1"
    )
    data = json.loads(out)
    assert data["count"] == 40320
    assert data["truncated"] is True
    assert len(data["tableaux"]) == 1


def test_tableaux_negative_limit_rejected(capsys):
    code, out, err = run_cli(capsys, "tableaux", "2,1", "--limit", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "skewsupport: error: --limit must be >= 0\n"
    code, out, _ = run_cli(capsys, "tableaux", "2,1", "--limit", "0")
    assert code == EXIT_OK
    assert json.loads(out)["tableaux"] == []


def test_byte_identical_reruns(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "expand", "321/11", "--basis", "m")
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "poset", "--n", "4", "--format", "dot")
        outputs.add(out)
    assert len(outputs) == 2


def test_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["verify", "conjecture", "--shard", "nope"])
    assert exc.value.code == EXIT_USAGE
    assert main(["expand", "not-a-shape"]) == EXIT_USAGE
    assert main(["compare", "22", "21"]) == EXIT_USAGE
    assert main(["expand", "9,9,9,9/1"]) == EXIT_USAGE
    assert main(["--max-size", "0", "shapes", "--n", "2"]) == EXIT_USAGE
    capsys.readouterr()
    for argv in (
        ["shapes", "--n", "-1"],
        ["verify", "conjecture", "--n", "3", "--shard", "0/0"],
        ["verify", "conjecture", "--n", "3", "--shard", "3/2"],
        ["saturation", "--n", "2", "--scale", "0"],
    ):
        _assert_one_line_error(capsys, argv)
    for name in (ENV_MAX_SIZE, ENV_JOBS):
        monkeypatch.setenv(name, "many")
        _assert_one_line_error(
            capsys, ["verify", "conjecture", "--n", "3"]
        )
        monkeypatch.delenv(name)
    # every sweep stops at the guard, and --max-size lifts it for one call;
    # saturation also doubles its fixed 6-box Schur regression pair
    monkeypatch.setenv(ENV_MAX_SIZE, "3")
    for lift, argv in (
        ("4", ["verify", "figure6", "--n", "4"]),
        ("4", ["verify", "conjecture", "--n", "4"]),
        ("4", ["poset", "--n", "4"]),
        ("4", ["poset", "--n", "4", "--which", "nc"]),
        ("4", ["multfree", "--n", "4"]),
        ("12", ["saturation", "--n", "2", "--scale", "2"]),
    ):
        _assert_one_line_error(capsys, argv)
        assert run_cli(capsys, "--max-size", lift, *argv)[0] == EXIT_OK, argv


def _assert_one_line_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE, argv
    assert out == ""
    assert err.startswith("skewsupport: error: ") and err.count("\n") == 1


def test_max_size_override_and_restore(capsys):
    import os

    from skewsupport.config import ENV_MAX_SIZE

    before = os.environ.get(ENV_MAX_SIZE)
    assert main(["--max-size", "20", "expand", "9,8/1", "--basis", "schur"]) == EXIT_OK
    assert os.environ.get(ENV_MAX_SIZE) == before
    capsys.readouterr()


def test_exit_code_taxonomy_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_THEOREM, EXIT_DISCOVERY) == (0, 1, 2, 3)


def test_console_script_runs(child_env):
    out = subprocess.run(
        [sys.executable, "-m", "skewsupport", "shapes", "--n", "2", "--count"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "3"


def test_discovery_and_theorem_exit_mapping(monkeypatch, capsys):
    import skewsupport.cli as cli_mod

    fake = {
        "n": 3, "shard": {"index": 1, "count": 1}, "shape_count": 9,
        "class_count_suppf": 6, "class_count_nc": 6, "pairs_checked": 30,
        "partition_mismatches": [], "forward_violations": [],
        "reverse_counterexamples": [{"a": "3", "b": "2,1"}],
        "pass_theorem": True, "pass_conjecture": False,
    }
    monkeypatch.setattr(cli_mod, "verify_conjecture", lambda *a, **k: fake)
    assert main(["verify", "conjecture", "--n", "3"]) == EXIT_DISCOVERY
    fake2 = dict(fake, forward_violations=[{"a": "3", "b": "2,1"}],
                 pass_theorem=False, pass_conjecture=True,
                 reverse_counterexamples=[])
    monkeypatch.setattr(cli_mod, "verify_conjecture", lambda *a, **k: fake2)
    assert main(["verify", "conjecture", "--n", "3"]) == EXIT_THEOREM
    capsys.readouterr()
