"""Command-line interface: output formats, determinism, and exit codes."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sledist import EigensolverError, coefficient_table, montecarlo, table_from_json, table_to_json
from sledist.cli import main

from oracles import closed_form_k2, closed_form_k3


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- coeffs ----------------------------------------------------------------


def test_coeffs_json_smallest_case(capsys):
    code, out, err = run_cli(["coeffs", "--K", "2", "--N", "2"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["K"] == 2 and doc["N"] == 2
    entries = {(e["i"], e["j"]): (e["num"], e["den"]) for e in doc["entries"]}
    assert entries == {
        (1, 0): ("2", "1"),
        (1, 1): ("-2", "1"),
        (1, 2): ("1", "1"),
        (2, 0): ("-2", "1"),
    }


def test_coeffs_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(["coeffs", "--K", "3", "--N", "5", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["K"] == 3 and doc["N"] == 5


def test_coeffs_engines_byte_identical(capsys):
    # the determinant engine's JSON is byte for byte the closed-form oracle's
    for K, N, oracle in [(2, 7, closed_form_k2), (3, 6, closed_form_k3)]:
        _, out, _ = run_cli(["coeffs", "--K", str(K), "--N", str(N)], capsys)
        assert out == table_to_json(oracle(N)) + "\n"


def test_coeffs_beyond_the_int_str_digit_limit(capsys):
    # the largest entry at (2, 900) has 4531 digits, past Python's default
    # 4300-digit limit on int <-> str conversion
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(["coeffs", "--K", "2", "--N", "900"], capsys)
    assert code == 0 and err == ""
    table = coefficient_table(2, 900)
    assert out == table_to_json(table) + "\n"
    assert table_from_json(out) == table
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_repeat_invocations_byte_identical():
    cmd = [sys.executable, "-m", "sledist.cli", "pdf", "--K", "2", "--N", "6", "--grid", "40"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout and len(a.stdout) > 0


def test_cli_digests_agree_between_runs():
    # the byte-identity check compares two checkouts' digests; two runs of one agree
    script = Path(__file__).resolve().parents[1] / "bench" / "cli_digests.py"
    cmd = [sys.executable, str(script), "--shape", "2,10"]
    runs = [subprocess.Popen(cmd, stdout=subprocess.PIPE) for _ in range(2)]
    (a, _), (b, _) = (run.communicate() for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    lines = a.decode().splitlines()
    assert a == b and len(lines) == 12
    assert lines[0].endswith(" cdf --K 2 --N 10") and len(lines[0].split()[0]) == 64


def test_cdf_run_imports_neither_numpy_ma_nor_concurrent_futures():
    # numpy.ma costs about 15 ms to import; a curve run needs neither it nor
    # a thread pool's concurrent.futures
    code = (
        "import sys; from sledist.cli import main; "
        "main(['cdf', '--K', '4', '--N', '10', '--grid', '64']); "
        "sys.stderr.write(str([m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules]))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.startswith("x,pdf,cdf\n")
    assert run.stderr == "[]"


def _loaded_after(statement: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``statement``."""
    code = f"import sys\n{statement}\nsys.stderr.write(repr([m for m in {modules!r} if m in sys.modules]))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(run.stderr.splitlines()[-1])


_SAMPLER_SIDE = ("numpy", "sledist.montecarlo", "sledist.backends", "concurrent.futures")
# dataclasses imports inspect, ast, dis and tokenize: a quarter of `import sledist.cli`
_EXACT_SIDE = ("dataclasses", "inspect")

# each run that needs no numpy, with the modules it must not load beyond those
# above; the two bisections are decided on Python floats (sledist.distributions)
_EXACT_RUNS = {
    "import sledist.cli": ("json",),
    "from sledist.cli import main; main(['coeffs', '--K', '4', '--N', '48'])": (),
    "from sledist.cli import main; main(['moments', '--K', '4', '--N', '50'])": ("json",),
    "from sledist.cli import main; main(['threshold', '--K', '4', '--N', '44', '--alpha', '0.01'])": ("json",),
    "from sledist.cli import main; main(['quantile', '--K', '4', '--N', '44', '--p', '0.5'])": ("json",),
}


@pytest.mark.parametrize("statement", list(_EXACT_RUNS))
def test_exact_runs_load_neither_numpy_nor_the_sampler(statement):
    # coefficient tables and moments are sums of integers; numpy would be half
    # of a cold process's start-up
    assert _loaded_after(statement, _SAMPLER_SIDE + _EXACT_SIDE + _EXACT_RUNS[statement]) == []


def test_threshold_run_does_not_load_the_sampler():
    # at alpha = 0.001 the density is small, the rounding bound leaves steps
    # undecided, and those load numpy; the printed threshold is unchanged
    argv = ["threshold", "--K", "8", "--N", "8", "--alpha", "0.001"]
    statement = f"from sledist.cli import main; main({argv!r})"
    assert _loaded_after(statement, _SAMPLER_SIDE) == ["numpy"]
    run = subprocess.run(
        [sys.executable, "-m", "sledist.cli", *argv], capture_output=True, check=True
    )
    assert run.stdout == b"4.092666853299136\n"


def test_star_import_binds_every_public_name():
    statement = (
        "import sledist\n"
        "namespace = {}\n"
        "exec('from sledist import *', namespace)\n"
        "assert all(name in namespace for name in sledist.__all__), sledist.__all__\n"
        "import sledist.backends\n"
        "assert sledist.EigensolverError is sledist.backends.EigensolverError"
    )
    assert _loaded_after(statement, ("numpy", "sledist.montecarlo")) == ["numpy", "sledist.montecarlo"]


# --- curves ------------------------------------------------------------------


def test_pdf_curve_output(capsys):
    code, out, _ = run_cli(["pdf", "--K", "2", "--N", "4", "--grid", "16"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,pdf,cdf"
    assert len(lines) >= 17  # grid points plus interior breakpoints
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 1.0 and first[2] == "0.0"
    assert float(last[0]) == 2.0 and last[2] == "1.0"


def test_cdf_curve_monotone(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["cdf", "--K", "3", "--N", "8", "--grid", "64", "--out", str(path)], capsys
    )
    assert code == 0
    rows = path.read_text().strip().split("\n")[1:]
    cdf = [float(r.split(",")[2]) for r in rows]
    assert cdf == sorted(cdf)
    assert cdf[-1] == 1.0


# --- scalars --------------------------------------------------------------------


def test_quantile_median_k2n2(capsys):
    code, out, _ = run_cli(["quantile", "--K", "2", "--N", "2", "--p", "0.5"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(1 + 2 ** (-1 / 3), abs=1e-10)


def test_threshold_matches_complementary_quantile(capsys):
    _, t_out, _ = run_cli(["threshold", "--K", "2", "--N", "8", "--alpha", "0.05"], capsys)
    _, q_out, _ = run_cli(["quantile", "--K", "2", "--N", "8", "--p", "0.95"], capsys)
    assert t_out == q_out


def test_moments_output(capsys):
    code, out, _ = run_cli(["moments", "--K", "2", "--N", "2", "--max-order", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "E[X^0] = 1"
    assert lines[1] == "E[X^1] = 7/4"
    assert lines[2] == "E[X^2] = 31/10"
    assert lines[3:] == [f"moment-product identity z={z}: OK" for z in range(1, 7)]


# --- exit codes -------------------------------------------------------------------


def test_domain_error_exits_1(capsys):
    code, _, err = run_cli(["quantile", "--K", "2", "--N", "5", "--p", "1.5"], capsys)
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(["coeffs", "--K", "5", "--N", "3"], capsys)
    assert code == 1 and "error:" in err
    # 1 - alpha rounds to 1, where the threshold would read K
    code, out, err = run_cli(["threshold", "--K", "4", "--N", "10", "--alpha", "1e-17"], capsys)
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


def test_resource_limit_exits_2(capsys):
    code, _, err = run_cli(["coeffs", "--K", "50", "--N", "50"], capsys)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cdf", "--K", "2", "--N", "3"],
        ["coeffs", "--K", "2", "--N", "3"],
        ["validate", "--K", "2", "--N", "3", "--samples", "50"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_1(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli([*argv, "--out", str(path)], capsys)
    assert code == 1 and err.startswith("error:") and str(path) in err


@pytest.mark.parametrize(
    "command,writer",
    [("cdf", "write_distribution_csv"), ("coeffs", "table_to_json")],
)
def test_failed_run_leaves_no_out_file(command, writer, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(f"sledist.cli.{writer}", fail)
    path = tmp_path / "out.txt"
    code, _, err = run_cli([command, "--K", "2", "--N", "3", "--out", str(path)], capsys)
    assert code == 1 and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_bad_arguments_exit_nonzero():
    with pytest.raises(SystemExit) as info:
        main(["quantile", "--K", "2", "--N", "5"])  # missing --p
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


# --- validate ---------------------------------------------------------------------


def test_validate_small_run(tmp_path, capsys):
    out_path = tmp_path / "sample.csv"
    code, out, _ = run_cli(
        [
            "validate",
            "--K", "2",
            "--N", "6",
            "--samples", "4000",
            "--seed", "2718",
            "--ks-threshold", "0.05",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert "KS distance:" in out and ": pass" in out and "FAIL" not in out
    rows = out_path.read_text().strip().split("\n")
    assert rows[0] == "x" and len(rows) == 4001
    meta = json.loads((tmp_path / "sample.csv.meta.json").read_text())
    assert meta["K"] == 2 and meta["N"] == 6 and meta["samples"] == 4000
    assert meta["seed"] == 2718 and meta["generator"] == "Philox" and meta["partitions"] == 1


def test_validate_unwritable_out_fails_before_drawing(tmp_path, capsys, monkeypatch):
    def never(config):
        pytest.fail("sampled although --out cannot be written")

    monkeypatch.setattr(montecarlo, "sample_sle", never)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["validate", "--K", "3", "--N", "40", "--out", str(path)], capsys)
    assert code == 1 and out == "" and err.startswith("error:") and str(path) in err


def test_validate_failed_run_leaves_no_files(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise EigensolverError("LAPACK eigvalsh failed")

    argv = ["validate", "--K", "2", "--N", "6", "--samples", "50", "--out"]
    monkeypatch.setattr(montecarlo, "sample_sle", fail)
    code, _, err = run_cli([*argv, str(tmp_path / "x.csv")], capsys)
    assert code == 1 and "LAPACK" in err
    assert list(tmp_path.iterdir()) == []
    # the sidecar cannot be opened: the sample CSV opened before it goes too
    monkeypatch.undo()
    (tmp_path / "y.csv.meta.json").mkdir()
    code, _, err = run_cli([*argv, str(tmp_path / "y.csv")], capsys)
    assert code == 1 and err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["y.csv.meta.json"]


def test_validate_one_sample_fails_without_warnings(capsys):
    # one draw has no standard error: the mean gate reads nan and fails, and
    # no numpy warning reaches stderr (the suite turns RuntimeWarning into errors)
    code, out, err = run_cli(["validate", "--K", "2", "--N", "3", "--samples", "1"], capsys)
    assert code == 1 and err == ""
    assert out.splitlines()[-1].endswith("vs 3*stderr nan): FAIL")


def test_validate_unreachable_threshold_fails(capsys):
    code, out, _ = run_cli(
        ["validate", "--K", "2", "--N", "6", "--samples", "500", "--seed", "1",
         "--ks-threshold", "1e-6"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out
