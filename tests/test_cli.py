import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from skewsupport.cli import (
    EXIT_DISCOVERY,
    EXIT_OK,
    EXIT_THEOREM,
    EXIT_USAGE,
    main,
)
from skewsupport import overlaps, relations, shapes
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.overlaps import overlap_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shapes_count(capsys):
    code, out, _ = run_cli(capsys, "shapes", "--n", "3", "--count")
    assert code == EXIT_OK
    assert out.strip() == "9"


def test_shapes_count_matches_the_listing(capsys):
    # --count sums the component key counts; the listing builds every shape
    for n in range(9):
        code, out, _ = run_cli(capsys, "shapes", "--n", str(n), "--count")
        assert code == EXIT_OK
        assert out == f"{len(shapes.enumerate_shapes(n))}\n"


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
    # only non-zero counts, in (k, l) order
    assert list(data["rects"].items()) == [
        ("1x1", 12), ("1x2", 6), ("1x3", 3), ("1x4", 1),
        ("2x1", 7), ("2x2", 2), ("3x1", 2), ("4x1", 1)]


def test_overlaps_reads_rects_from_the_profile(capsys, monkeypatch):
    # one overlap_rows call per depth of the row and column profiles (up to
    # the first empty one), not one more per (k, l) rectangle count
    calls = []

    def counted(shape, k):
        calls.append(k)
        return overlap_rows(shape, k)

    monkeypatch.setattr(overlaps, "overlap_rows", counted)
    code, out, _ = run_cli(capsys, "overlaps", "553111/31")
    assert code == EXIT_OK
    assert calls == [1, 2, 3, 4, 5] * 2
    assert json.loads(out)["rects"]["2x2"] == 2


def test_overlaps_is_size_guarded(capsys):
    # the statistics grow with the shape's width, so the guard refuses a
    # wide row before any is built, and --max-size lifts it
    for argv in (["overlaps", "10000000000,"], ["overlaps", "15,"]):
        err = _assert_one_line_error(capsys, argv)
        assert "over the size limit 14" in err
    code, out, _ = run_cli(capsys, "--max-size", "15", "overlaps", "15,")
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == ["15"]


def test_compare_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "311/1", "22")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["positive"]["f"] is True
    assert data["support_contains"]["schur"] is False
    assert data["violations"] == []


def test_a_broken_arrow_exits_2(capsys, monkeypatch):
    # the third witness's non-implication, added as an arrow, is named in
    # the output of both commands, and each exits 2
    arrow = ("positive:f", "contains:schur")
    monkeypatch.setattr(relations, "_ARROWS", relations._ARROWS + (arrow,))
    code, out, _ = run_cli(capsys, "compare", "311/1", "22")
    assert code == EXIT_THEOREM
    assert json.loads(out)["violations"] == ["positive:f => contains:schur"]
    code, out, _ = run_cli(capsys, "verify", "figure6", "--n", "4")
    assert code == EXIT_THEOREM
    data = json.loads(out)
    assert data["pass"] is False
    assert {"a": "3,1,1/1", "b": "2,2",
            "arrow": "positive:f => contains:schur"} in data["violations"]


def test_verify_figure6(capsys):
    code, out, _ = run_cli(capsys, "verify", "figure6", "--n", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pass"] is True
    assert data["violations"] == []


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


@pytest.mark.parametrize("limit", ["2", "3", "99999999999999999999"])
def test_tableaux_limit_at_or_past_the_count_is_no_limit(capsys, limit):
    # 2,1 has two fillings; a limit past sys.maxsize must not reach islice
    _, unlimited, _ = run_cli(capsys, "tableaux", "2,1")
    code, out, err = run_cli(capsys, "tableaux", "2,1", "--limit", limit)
    assert code == EXIT_OK
    assert err == ""
    assert out == unlimited
    assert json.loads(out)["truncated"] is False


def test_byte_identical_reruns(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "expand", "321/11", "--basis", "m")
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run_cli(capsys, "poset", "--n", "4", "--format", "dot")
        outputs.add(out)
    assert len(outputs) == 2


def test_benchmark_commands_match_recorded_digests(capsys):
    # every command of the benchmark, at both recorded sizes, must give the
    # exit code and stdout sha256 recorded in perfbench/expected.json
    expected = Path(__file__).resolve().parent.parent / "perfbench"
    sizes = json.loads((expected / "expected.json").read_text())["sizes"]
    checked = 0
    for size in ("tiny", "full"):
        for workload in sizes[size].values():
            for command, want in workload["outputs"].items():
                code, out, _ = run_cli(capsys, *command.split())
                digest = hashlib.sha256(out.encode()).hexdigest()
                assert (code, digest) == (want["rc"], want["sha256"]), command
                checked += 1
    assert checked == 12


def test_benchmark_trace_targets_resolve():
    # `perfbench/run.py --trace 1` wraps each TARGETS entry by name in the
    # modules the CLI loads; a refactor that moves or renames one makes it
    # fail with "trace target ... not found"
    import skewsupport.cli  # noqa: F401

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, target, _ in spans.TARGETS:
        owner = sys.modules[f"skewsupport.{module_name}"]
        *outer, attr = target.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # a method is rebound on the class that defines it
        assert attr in vars(owner) if outer else hasattr(owner, attr), (
            f"trace target {module_name}.{target} not found")
    # each <layer>.hit_ratio the benchmark reports is read from the
    # counters of an LRU that perfbench/worker.py's cache_stats finds:
    # a module function of that name with cache_info
    bench = json.loads((path.parent.parent / "BENCHMARK.json").read_text())
    ratios = [m["name"].removesuffix(".hit_ratio") for m in bench["per_layer"]
              if m["name"].endswith(".hit_ratio")]
    assert ratios
    for layer in ratios:
        module_name, attr = layer.split(".")
        fn = getattr(sys.modules[f"skewsupport.{module_name}"], attr, None)
        assert hasattr(fn, "cache_info"), f"{layer} has no cache_info"
        assert (fn.__module__, fn.__name__) == (
            f"skewsupport.{module_name}", attr), layer


# stdout sha256 of sweeps that build every shape, pinned to catch any change
# in the shapes they list or the order they list them in
PINNED_OUTPUTS = {
    "shapes --n 8":
        "bc3c6ab748d75284359a1298cb010178e439ae96c758c8b91ea366a8e0587316",
    "poset --n 7 --which suppf":
        "e875ec26391669c6b4e922e7763d77adf1e2c0d84c2f6168f397765d19178407",
    "poset --n 7 --which nc":
        "f4643781235636d551fb0b64c0ca6455e4302919328c3bfdd44af591aea70f9b",
    "poset --n 7 --which nc --format dot":
        "f2239bb1c6da87b591a22528424d210cc37dc5d0f2f2dc95d2c31c0a3c8e7eae",
    "multfree --n 6":
        "b8bf2542b0ce7e12f95680216cc1091adfce136df9f37ccee50836f5977ffda8",
    # n = 8 has key multiplicities that n <= 7 lacks
    "poset --n 8 --which suppf":
        "82c339239bd5ac4afced05a2e0e802e2f8dbf0f1c1ce2eca6a12de72924c2c7f",
    "poset --n 8 --which nc --format dot":
        "97275141f28f6bbe68b253f2b70f2b9f8c1d41ae76a87c1bc02d41cb15e58362",
    "multfree --n 8":
        "48c5a92a49a3841f7b9d6ad228e2ed084c565a35ede66d206b02b37f5564bd86",
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
def test_shape_sweep_outputs_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[command]


def test_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["verify", "conjecture", "--n", "3", "--shard", "1/2"])
    assert exc.value.code == EXIT_USAGE
    assert main(["expand", "not-a-shape"]) == EXIT_USAGE
    assert main(["compare", "22", "21"]) == EXIT_USAGE
    assert main(["expand", "9,9,9,9/1"]) == EXIT_USAGE
    capsys.readouterr()
    for argv in (
        ["shapes", "--n", "-1"],
        ["verify", "figure6", "--n", "-1"],
        ["verify", "figure6", "--n", "0"],
        ["verify", "conjecture", "--n", "0"],
        ["poset", "--n", "0"],
        ["poset", "--n", "0", "--which", "nc"],
        ["multfree", "--n", "0"],
        ["saturation", "--n", "0", "--scale", "2"],
        ["saturation", "--n", "2", "--scale", "0"],
        # digits that str.isdigit accepts and int() does not
        ["expand", "²"],
        ["expand", "3,²"],
        ["expand", "2²"],
        ["compare", "3/²", "2"],
        ["tableaux", "21", "--limit", "-1"],
        ["--max-size", "0", "shapes", "--n", "2"],
    ):
        _assert_one_line_error(capsys, argv)
    monkeypatch.setenv(ENV_MAX_SIZE, "many")
    _assert_one_line_error(capsys, ["verify", "conjecture", "--n", "3"])
    monkeypatch.delenv(ENV_MAX_SIZE)
    # saturation's fixed Schur regression doubles a 6-box pair, so it needs
    # a guard of 12 whatever --n is, and says so before sweeping
    monkeypatch.setenv(ENV_MAX_SIZE, "4")
    err = _assert_one_line_error(
        capsys, ["saturation", "--n", "2", "--scale", "2"])
    assert "12 boxes" in err
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
    return err


def test_a_worker_count_in_the_environment_changes_nothing(capsys,
                                                           monkeypatch):
    # sweeps fingerprint serially; a SKEWSUPPORT_JOBS left in the
    # environment, valid or not, is ignored
    argvs = (["verify", "conjecture", "--n", "5"], ["poset", "--n", "5"])
    plain = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == EXIT_OK for code, *_ in plain)
    for value in ("many", "0", "2"):
        monkeypatch.setenv("SKEWSUPPORT_JOBS", value)
        assert [run_cli(capsys, *argv) for argv in argvs] == plain, value


def test_max_size_override_and_restore(capsys):
    import os

    from skewsupport.config import ENV_MAX_SIZE

    before = os.environ.get(ENV_MAX_SIZE)
    assert main(["--max-size", "20", "expand", "9,8/1", "--basis", "schur"]) == EXIT_OK
    assert os.environ.get(ENV_MAX_SIZE) == before
    # a refused --max-size leaves the environment as it found it too
    assert main(["--max-size", "0", "shapes", "--n", "2"]) == EXIT_USAGE
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


@pytest.mark.parametrize("argv", [["shapes", "--n", "8"],
                                  ["shapes", "--n", "2", "--count"],
                                  ["multfree", "--n", "4"]])
def test_closed_output_pipe_exits_1_without_a_traceback(child_env, argv):
    # the reader is gone before the first write, as `| head -0` leaves it;
    # stdout is block-buffered, as in a shell, so a short output reaches
    # the pipe only when it is flushed
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewsupport", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(PYTHONUNBUFFERED=""),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == EXIT_USAGE
    assert err == "skewsupport: error: output closed by its reader\n"


def test_cli_import_leaves_multiprocessing_unloaded(child_env):
    # sweeps run in the calling process; no pool module is loaded at start
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, skewsupport.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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
