import json
import os
import random
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ramseykit
from ramseykit import EdgeColoring, count_mono, parse_pattern, split_coloring
from ramseykit.cli import canonical_json, main
from ramseykit.structure import _BLAS_THREAD_VARS

from .capture_golden import GOLDEN_PATH, capture

# child interpreters import the package from the same directory as this one
PACKAGE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(ramseykit.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_parseable_file(tmp_path, capsys) -> None:
    out = tmp_path / "c.rmc"
    code, stdout, _ = run_cli(capsys, "construct", "--split", "6,2", "--out", str(out))
    assert code == 0
    assert "n=8" in stdout
    assert EdgeColoring.parse(out.read_bytes()) == split_coloring(6, 2)


def test_construct_with_flips(tmp_path, capsys) -> None:
    out = tmp_path / "c.rmc"
    code, _, _ = run_cli(
        capsys, "construct", "--split", "6,2", "--flip", "0,1", "--out", str(out)
    )
    assert code == 0
    parsed = EdgeColoring.parse(out.read_bytes())
    assert parsed == split_coloring(6, 2, flips=[(0, 1)])


def test_construct_json_report_is_canonical(tmp_path, capsys) -> None:
    out = tmp_path / "c.rmc"
    code, stdout, _ = run_cli(
        capsys, "construct", "--split", "6,2", "--out", str(out), "--json"
    )
    assert code == 0
    report = json.loads(stdout)
    assert canonical_json(report) == stdout.rstrip("\n")
    assert report["command"] == "construct"
    assert report["inputs"]["split"] == [6, 2]
    assert isinstance(report["wall_time_s"], float)


@pytest.fixture()
def split_file(tmp_path):
    path = tmp_path / "c62.rmc"
    path.write_bytes(split_coloring(6, 2).serialize())
    return path


def test_count_reports_per_color_and_total(split_file, capsys) -> None:
    code, stdout, _ = run_cli(
        capsys, "count", "--in", str(split_file), "--pattern", "P_6", "--json"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["results"]["red"] == "0"
    assert report["results"]["blue"] == "360"
    assert report["results"]["total"] == "360"
    assert report["results"]["provenance"] == "exact"


def test_count_single_color_omits_total(split_file, capsys) -> None:
    code, stdout, _ = run_cli(
        capsys,
        "count",
        "--in",
        str(split_file),
        "--pattern",
        "P_6",
        "--color",
        "blue",
        "--json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["results"]["blue"] == "360"
    assert "total" not in report["results"]
    assert "red" not in report["results"]


def test_count_json_is_byte_stable(split_file, capsys) -> None:
    _, first, _ = run_cli(
        capsys, "count", "--in", str(split_file), "--pattern", "C_6", "--json"
    )
    _, second, _ = run_cli(
        capsys, "count", "--in", str(split_file), "--pattern", "C_6", "--json"
    )
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert canonical_json(a) == canonical_json(b)


def test_count_missing_file_is_a_usage_error(tmp_path, capsys) -> None:
    code, _, stderr = run_cli(
        capsys, "count", "--in", str(tmp_path / "nope.rmc"), "--pattern", "P_4"
    )
    assert code == 2
    assert stderr


def test_count_oversized_host_exits_with_capability_error(tmp_path, capsys) -> None:
    path = tmp_path / "big.rmc"
    path.write_bytes(split_coloring(12, 12).serialize())
    code, _, stderr = run_cli(capsys, "count", "--in", str(path), "--pattern", "P_12")
    assert code == 2
    assert "capability" in stderr


def test_count_bad_pattern_is_a_usage_error(split_file, capsys) -> None:
    code, _, stderr = run_cli(
        capsys, "count", "--in", str(split_file), "--pattern", "Q_9"
    )
    assert code == 2
    assert stderr


def test_search_exhaustive_reports_exact_minimum(capsys) -> None:
    code, stdout, _ = run_cli(
        capsys, "search", "--pattern", "S_3", "--n", "6", "--exhaustive", "--json"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["results"]["best_count"] == "6"
    assert report["results"]["exact"] is True
    assert report["results"]["provenance"] == "exact"


def test_search_anneal_requires_a_seed(capsys) -> None:
    code, _, stderr = run_cli(
        capsys, "search", "--pattern", "P_6", "--n", "8", "--anneal"
    )
    assert code == 2
    assert "seed" in stderr


def test_search_anneal_writes_a_consistent_witness(tmp_path, capsys) -> None:
    out = tmp_path / "w.rmc"
    code, stdout, _ = run_cli(
        capsys,
        "search",
        "--pattern",
        "P_6",
        "--n",
        "8",
        "--anneal",
        "--seed",
        "1",
        "--out",
        str(out),
        "--json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["results"]["provenance"] == "upper-bound"
    witness = EdgeColoring.parse(out.read_bytes())
    assert count_mono(witness, parse_pattern("P_6")) == int(
        report["results"]["best_count"]
    )
    # at --cooling 0.5 the temperature underflows to 0.0 after 1,076 steps
    code, stdout, _ = run_cli(
        capsys, "search", "--pattern", "P_4", "--n", "5", "--anneal", "--seed", "0",
        "--cooling", "0.5", "--steps", "1100", "--restarts", "1", "--json",
    )
    assert code == 0
    assert json.loads(stdout)["results"]["best_count"] == "10"


def test_search_exhaustive_on_large_host_suggests_annealing(capsys) -> None:
    code, _, stderr = run_cli(
        capsys, "search", "--pattern", "P_6", "--n", "10", "--exhaustive"
    )
    assert code == 2
    assert "anneal" in stderr


def test_search_anneal_past_the_copy_budget_is_refused_quickly(capsys) -> None:
    started = time.perf_counter()
    code, _, stderr = run_cli(
        capsys, "search", "--pattern", "P_8", "--n", "14", "--anneal", "--seed", "1"
    )
    assert time.perf_counter() - started < 1
    assert code == 2
    assert "capability error" in stderr and "60,540,480 copies" in stderr


def test_verify_prints_one_line_per_check(capsys) -> None:
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "formulas")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(line.startswith("PASS formulas/") for line in lines[:-1])
    passed, total = lines[-1].split()[0].split("/")
    assert passed == total
    assert len(lines) - 1 == int(total)


def test_verify_json_reports_zero_failures(capsys) -> None:
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "structure", "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["results"]["failed"] == 0
    assert report["results"]["passed"] >= 1


def test_verify_unknown_suite_is_a_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("split", ["6", "a,b", "6,2,1"])
def test_malformed_split_is_a_usage_error(split, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--split", split])
    assert exc.value.code == 2
    assert "--split" in capsys.readouterr().err


def test_non_finite_temperature_is_a_usage_error(capsys) -> None:
    code, _, stderr = run_cli(
        capsys, "search", "--pattern", "K3", "--n", "6", "--anneal", "--seed", "1",
        "--t0", "nan",
    )
    assert code == 2
    assert "temperature" in stderr


def test_thread_settings_are_gone(capsys, monkeypatch) -> None:
    argv = ["search", "--pattern", "K3", "--n", "6", "--anneal", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    monkeypatch.setenv("RML_THREADS", "0")
    code, _, _ = run_cli(capsys, *argv, "--restarts", "2", "--steps", "200")
    assert code == 0


GOLDEN = json.loads(GOLDEN_PATH.read_text())
JSON_CASES = [case for case in GOLDEN["cases"] if case["argv"][-1] == "--json"]
TEXT_CASES = [case for case in GOLDEN["cases"] if case not in JSON_CASES]


@pytest.mark.parametrize("case", JSON_CASES, ids=lambda case: " ".join(case["argv"][:-1]))
def test_json_reports_match_golden_outputs(case) -> None:
    # pinned reports of exact counts and verdicts: byte-identical apart from
    # wall_time_s, whatever counting engine produces them
    assert capture(case["argv"], GOLDEN["files"]) == case["stdout"]


@pytest.mark.parametrize("case", TEXT_CASES, ids=lambda case: " ".join(case["argv"]))
def test_text_reports_match_golden_outputs(case) -> None:
    # the plain-text summaries, byte-identical
    assert capture(case["argv"], GOLDEN["files"]) == case["stdout"]


# child code that exits with the names of the modules it should not have
# loaded: numpy, and the layers only verify, sampled regularity and
# annealing use (hashlib's _hashlib maps OpenSSL)
UNUSED_LOADED = (
    "' '.join(sorted({'numpy', 'ramseykit.regularity', 'ramseykit.verify', '_hashlib'}"
    " & set(sys.modules))) or None"
)


# child code that exits with the search and formulas layers if it loaded
# them: only the `search` and `verify` commands call them
SEARCH_LOADED = (
    "' '.join(sorted({'ramseykit.search', 'ramseykit.formulas'} & set(sys.modules))) or None"
)


def test_cli_import_does_not_load_numpy() -> None:
    code = f"import sys, ramseykit.cli; sys.exit({UNUSED_LOADED} or {SEARCH_LOADED})"
    assert subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV).returncode == 0


def test_every_exported_name_resolves() -> None:
    for name in ramseykit.__all__:
        assert getattr(ramseykit, name) is vars(ramseykit)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        ramseykit.no_such_name


def test_cli_suites_are_the_verify_suites() -> None:
    from ramseykit import cli, verify

    assert cli.SUITES == verify.SUITES


def test_cli_search_defaults_are_the_search_config_defaults() -> None:
    from dataclasses import fields

    from ramseykit import SearchConfig
    from ramseykit.cli import build_parser

    args = build_parser().parse_args(["search", "--pattern", "P_3", "--n", "5", "--anneal"])
    defaults = {f.name: f.default for f in fields(SearchConfig) if f.name != "seed"}
    assert defaults == {
        "restarts": args.restarts,
        "steps_per_restart": args.steps,
        "initial_temperature": args.t0,
        "cooling_rate": args.cooling,
    }


def test_bounds_suite_and_small_counts_do_not_load_numpy(tmp_path) -> None:
    # their walks stay on the dict kernel: numpy's import would cost more
    # than the dense layers save on them; neither calls a search
    host = tmp_path / "c8.rmc"
    host.write_bytes(EdgeColoring.random(8, random.Random(8)).serialize())
    code = (
        "import contextlib, io, sys\n"
        "from ramseykit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--suite', 'bounds']),\n"
        f"             main(['count', '--in', {str(host)!r}, '--pattern', 'P_4'])]\n"
        "sys.exit(codes != [0, 0] or 'numpy' in sys.modules or 'ramseykit.search' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV).returncode == 0


def test_cli_import_and_count_load_only_the_counting_layers(tmp_path) -> None:
    # counting reads graphs through ramseykit.graph and Pattern is a named
    # tuple, so neither the matching layer nor dataclasses (and with it
    # inspect) is loaded; modules the interpreter loaded at startup are not
    # charged to the package
    host = tmp_path / "c8.rmc"
    host.write_bytes(EdgeColoring.random(8, random.Random(8)).serialize())
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "allowed = {'ramseykit', 'ramseykit.cli', 'ramseykit.coloring', 'ramseykit.counting',\n"
        "           'ramseykit.errors', 'ramseykit.graph'}\n"
        "def unwanted():\n"
        "    return sorted({m for m in sys.modules if m.startswith('ramseykit')} - allowed\n"
        "                  | ({'dataclasses', 'inspect'} & set(sys.modules)) - before)\n"
        "import ramseykit.cli\n"
        "on_import = unwanted()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = ramseykit.cli.main(['count', '--in', {str(host)!r}, '--pattern', 'P_4'])\n"
        "sys.exit(code or ' '.join(on_import + unwanted()) or None)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exhaustive_search_does_not_load_numpy() -> None:
    # the sweep counts in Python ints, bit-sliced over the graph classes
    code = (
        "import contextlib, io, sys\n"
        "from ramseykit import Pattern, exhaustive_min\n"
        "from ramseykit.cli import main\n"
        "best = exhaustive_min(Pattern.path(5), 7).best_count\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['search', '--pattern', 'P_5', '--n', '7', '--exhaustive'])\n"
        f"sys.exit(best != 96 or code != 0 or {UNUSED_LOADED})"
    )
    assert subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV).returncode == 0


def test_sampled_regularity_does_not_load_numpy() -> None:
    # the sampler counts degrees as popcounts in Python ints
    code = (
        "import random, sys\n"
        "from ramseykit import EdgeColoring, VertexPartition, build_reduced, eps_regular_sample\n"
        "from ramseykit.coloring import RED\n"
        "c = EdgeColoring.random(60, random.Random(5))\n"
        "v = eps_regular_sample(c.view(RED), range(30), range(30, 60), 0.2, trials=300)\n"
        "rg = build_reduced(c, VertexPartition.of_size(60, 30), 0.2, 0.5, mode='sample', trials=300)\n"
        "sys.exit(v.trials == 0 or rg.M != 2 or 'numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV).returncode == 0


# child code that sets `threads` to the process's thread count
THREADS = (
    "try:\n"
    "    with open('/proc/self/status') as status:\n"
    "        threads = next(line.split()[1] for line in status if line.startswith('Threads:'))\n"
    "except OSError:  # no /proc off Linux\n"
    "    threads = '?'\n"
)
# a child that runs the smallest annealing search, the package's first numpy
# load, and prints its thread count and whether its environment came back
# unchanged
NUMPY_LOAD = (
    "import os\n"
    "before = dict(os.environ)\n"
    "from ramseykit import Pattern, SearchConfig, anneal_min\n"
    "anneal_min(Pattern.path(3), 4, SearchConfig(seed=0, restarts=1, steps_per_restart=1))\n"
    + THREADS
    + "print(threads, dict(os.environ) == before)"
)
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")


def run_child(code: str, **blas: str) -> str:
    """Output of `code` run under PACKAGE_ENV with no BLAS thread variable
    but those given."""
    env = {k: v for k, v in PACKAGE_ENV.items() if k not in _BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **blas}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@linux_only
def test_search_loads_numpy_with_one_blas_thread() -> None:
    assert run_child(NUMPY_LOAD).split()[0] == "1"


def test_numpy_load_leaves_the_environment_unchanged() -> None:
    assert run_child(NUMPY_LOAD).split()[1] == "True"


@linux_only
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_numpy_load_keeps_the_callers_blas_threads(var) -> None:
    assert run_child(NUMPY_LOAD, **{var: "2"}) == "2 True"


@linux_only
def test_numpy_imported_first_keeps_its_threads() -> None:
    own = run_child("import numpy\n" + THREADS + "print(threads)")
    assert run_child("import numpy\n" + NUMPY_LOAD) == f"{own} True"


def test_numpy_is_imported_at_one_site() -> None:
    # every other module loads it through graph._numpy
    package = Path(ramseykit.__file__).parent
    sites = [
        f"{path.name}:{i}"
        for path in sorted(package.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.match(r"\s*(import numpy|from numpy\b)", line)
    ]
    assert len(sites) == 1 and sites[0].startswith("graph.py:"), sites


def test_module_entry_point_smoke() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit.cli", "--version"],
        capture_output=True,
        text=True,
        env=PACKAGE_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_module_entry_point_exits_with_the_code_main_returns(monkeypatch, tmp_path) -> None:
    # run as ``python -m ramseykit.cli``; the module is dropped from
    # sys.modules first, as runpy warns when it runs an imported module
    monkeypatch.delitem(sys.modules, "ramseykit.cli", raising=False)
    missing = tmp_path / "missing.rmc"
    for argv, code in [
        (["construct", "--split", "2,2", "--json"], 0),
        (["count", "--in", str(missing), "--pattern", "P_4"], 2),
    ]:
        monkeypatch.setattr(sys, "argv", ["ramseykit", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("ramseykit.cli", run_name="__main__")
        assert exc.value.code == code
