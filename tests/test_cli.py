"""End-to-end tests for the command-line interface."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hookpair
import hookpair.bijections as bj
import hookpair.cli as cli
import hookpair.projective as pj
import hookpair.sweep as sweep_mod
from hookpair.bijections import MapEntry, verify_theorem
from hookpair.diagrams import Partition
from hookpair.errors import CounterexampleFound, NotInFamily
from hookpair.projective import StrictPartition, alpha_from_strict, m_decomposition, verify_projective

from util import plant_one_arm_run

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SHOW_ARGS = ["show", "--k", "1", "--n", "1", "--alpha", "1", "--region", "D"]
# What a console-script wrapper runs: argv[0] is the script name and the
# entry point's return value is the exit status.
SCRIPT_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "hookpair"
sys.exit({attr}())
"""


# argv with "{}" where each integer option's text goes
INTEGER_OPTIONS = {
    "--k": ["verify", "--k", "{}", "--n", "3", "--alpha", "1", "--theorem", "1"],
    "--n": ["verify", "--k", "1", "--n", "{}", "--alpha", "1", "--theorem", "1"],
    "--max-k": ["sweep", "--max-k", "{}", "--max-n", "1"],
    "--max-n": ["sweep", "--max-k", "1", "--max-n", "{}"],
    "--jobs": ["sweep", "--max-k", "1", "--max-n", "1", "--jobs", "{}"],
    "--dots": [*SHOW_ARGS, "--dots", "{}"],
    "--i": ["dyck", "--k", "1", "--n", "3", "--alpha", "1", "--i", "{}"],
}


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


TWO_CELL = Partition((1, 0), k=2, n=1)
SMALL = alpha_from_strict(StrictPartition((4, 2), k=5))
SMALL_REPRO = "hookpair verify --k 5 --n 6 --alpha 5,4,2,1,0 --theorem proj"


def plant_collision(monkeypatch):
    """phi sends both strip cells of TWO_CELL to one cell of T*."""
    collision = [
        MapEntry((1, 1), (1, 1), "Tstar", (0, 0)),
        MapEntry((2, 2), (1, 1), "Tstar", (0, 0)),
    ]
    monkeypatch.setattr(bj, "_phi", lambda _p, _stats: collision)


def plant_extra_run(monkeypatch):
    """SQ's side of the diagonal identity gains a cell with (arm, leg) (-1, -1)."""
    original = pj._rising_runs

    def corrupted(rows, part):
        out = original(rows, part)
        if len(rows) == 2 * SMALL.k:  # SQ, the only region with 2k rows
            plant_one_arm_run(out, arm=-1, leg=-1)
        return out

    monkeypatch.setattr(pj, "_rising_runs", corrupted)


def plant_unshifted(monkeypatch):
    """The shifted strip keeps every row of T where it is."""
    monkeypatch.setattr(pj, "_shifted_rows", lambda strip, u, a1: list(strip))


# raise site: (plant the failure, run the site, the case it must report)
RAISE_SITES = {
    "verify_theorem": (
        plant_collision,
        lambda: verify_theorem(TWO_CELL, 3),
        {"alpha": [1, 0], "k": 2, "n": 1, "theorem": 3,
         "repro": "hookpair verify --k 2 --n 1 --alpha 1,0 --theorem 3"},
    ),
    "verify_projective": (
        plant_extra_run,
        lambda: verify_projective(SMALL),
        {"alpha": [5, 4, 2, 1, 0], "k": 5, "n": 6, "theorem": "proj", "repro": SMALL_REPRO},
    ),
    "m_decomposition": (
        plant_unshifted,
        lambda: m_decomposition(SMALL, 1),
        {"alpha": [5, 4, 2, 1, 0], "k": 5, "n": 6, "theorem": "proj", "i": 1,
         "repro": SMALL_REPRO},
    ),
}


@pytest.mark.parametrize("site", list(RAISE_SITES))
def test_counterexample_case_reproduces(site, monkeypatch, capsys):
    plant, run, case = RAISE_SITES[site]
    plant(monkeypatch)
    with pytest.raises(CounterexampleFound) as exc:
        run()
    assert exc.value.case == case
    # the repro line, run with the failure still planted, fails the same way
    code, _, err = run_cli(*shlex.split(case["repro"])[1:], capsys=capsys)
    assert code == 1
    assert err.splitlines()[-1] == f"reproduce: {case['repro']}"


class TestVerify:
    def test_box_identity_passes(self, capsys):
        code, out, _ = run_cli(
            "verify", "--k", "2", "--n", "2", "--alpha", "2,1",
            "--theorem", "2", capsys=capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["theorem"] == 2
        assert report["alpha"] == [2, 1]

    def test_trailing_zeros_optional(self, capsys):
        code, out, _ = run_cli(
            "verify", "--k", "3", "--n", "2", "--alpha", "2",
            "--theorem", "3", capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["alpha"] == [2, 0, 0]

    def test_projective_member_passes(self, capsys):
        code, out, _ = run_cli(
            "verify", "--k", "5", "--n", "6", "--alpha", "5,4,2,1,0",
            "--theorem", "proj", capsys=capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["theorem"] == "pass"
        assert report["lambda"] == [4, 2]

    def test_projective_rejects_outsider(self, capsys):
        code, _, err = run_cli(
            "verify", "--k", "2", "--n", "3", "--alpha", "1,1",
            "--theorem", "proj", capsys=capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_outsider_is_a_package_error(self):
        args = cli.build_parser().parse_args(
            ["verify", "--k", "2", "--n", "3", "--alpha", "1,1", "--theorem", "proj"]
        )
        with pytest.raises(NotInFamily, match="not in the n=k[+]1 Frobenius family"):
            args.func(args)

    def test_projective_rejects_wrong_n(self, capsys):
        code, _, err = run_cli(
            "verify", "--k", "2", "--n", "2", "--alpha", "2,1",
            "--theorem", "proj", capsys=capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_empty_alpha_field_is_usage_error(self, capsys):
        code, out, err = run_cli(
            "verify", "--k", "3", "--n", "3", "--alpha", "3,,1",
            "--theorem", "1", capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert "error: empty field" in err

    def test_non_decimal_alpha_is_usage_error(self, capsys):
        code, out, err = run_cli(
            "verify", "--k", "2", "--n", "12", "--alpha", "1_0",
            "--theorem", "1", capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_increasing_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(
            "verify", "--k", "2", "--n", "3", "--alpha", "1,2",
            "--theorem", "1", capsys=capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_counterexample_exits_one(self, capsys, monkeypatch):
        def broken(p, which):
            raise CounterexampleFound("planted failure", case={}, detail=None)

        monkeypatch.setattr(bj, "verify_theorem", broken)
        code, _, err = run_cli(
            "verify", "--k", "1", "--n", "1", "--alpha", "1",
            "--theorem", "1", capsys=capsys,
        )
        assert code == 1
        assert "counterexample:" in err


class TestSweep:
    def test_box_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            "sweep", "--max-k", "2", "--max-n", "2", capsys=capsys
        )
        assert code == 0
        assert out == "checked 42 cases: pass\n"

    def test_projective_sweep(self, capsys):
        code, out, _ = run_cli(
            "sweep", "--max-k", "3", "--projective", capsys=capsys
        )
        assert code == 0
        assert out == "checked 14 cases: pass\n"

    def test_projective_sweep_rejects_max_n(self, capsys):
        # --max-n used to be ignored and written into the report's config
        code, out, err = run_cli(
            "sweep", "--max-k", "3", "--projective", "--max-n", "1", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: max_n bounds only box sweeps, and none is selected\n"

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            "sweep", "--max-k", "1", "--max-n", "1", "--out", str(out_path),
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["verdict"] == "pass"
        assert data["config"] == {"maxK": 1, "maxN": 1, "theorems": ["1", "2", "3"]}

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_report_to_stdout_redirected_to_a_file(self, tmp_path):
        # /dev/stdout is opened anew at offset 0, so the summary printed on
        # stdout after the report used to overwrite the report's first bytes
        env = dict(os.environ)
        package_root = str(Path(hookpair.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "hookpair.cli", "sweep", "--max-k", "2", "--max-n", "2"]
        redirected, written = tmp_path / "stdout.json", tmp_path / "r.json"
        with open(redirected, "wb") as fh:
            through_stdout = subprocess.run([*argv, "--out", "/dev/stdout"], stdout=fh,
                                            stderr=subprocess.PIPE, env=env, timeout=60)
        to_file = subprocess.run([*argv, "--out", str(written)], capture_output=True,
                                 env=env, timeout=60)
        summary = b"checked 42 cases: pass\n"
        assert (through_stdout.returncode, through_stdout.stderr) == (0, summary)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, summary, b"")
        assert redirected.read_bytes() == written.read_bytes()
        assert json.loads(redirected.read_bytes())["verdict"] == "pass"

    def test_missing_out_directory_exits_before_any_case(self, capsys, tmp_path, monkeypatch):
        # the whole sweep used to run before the report failed to open
        def case_entries(case):
            raise AssertionError(f"checked {case} before the report's target")

        monkeypatch.setattr(sweep_mod, "_case_entries", case_entries)
        out_path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            "sweep", "--max-k", "5", "--max-n", "5", "--out", str(out_path),
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"

    def test_empty_out_exits_before_any_case(self, capsys, monkeypatch):
        # it used to run every case, write nothing and exit 0
        def case_entries(case):
            raise AssertionError(f"checked {case} before the report's target")

        monkeypatch.setattr(sweep_mod, "_case_entries", case_entries)
        code, out, err = run_cli(
            "sweep", "--max-k", "5", "--max-n", "5", "--out", "", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_bad_bounds_are_usage_errors(self, capsys):
        code, _, err = run_cli(
            "sweep", "--max-k", "0", "--max-n", "2", capsys=capsys
        )
        assert code == 2
        assert "error:" in err
        code, _, err = run_cli("sweep", "--max-k", "2", capsys=capsys)
        assert code == 2
        assert "max_n" in err

    def test_jobs_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HOOKPAIR_JOBS", "2")
        code, out, _ = run_cli(
            "sweep", "--max-k", "2", "--max-n", "1", capsys=capsys
        )
        assert code == 0
        assert out == "checked 15 cases: pass\n"


class TestShow:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(
            "show", "--k", "1", "--n", "1", "--alpha", "1",
            "--region", "D", capsys=capsys,
        )
        assert code == 0
        assert out == "□\n"

    def test_diagonal_shading(self, capsys):
        code, out, _ = run_cli(
            "show", "--k", "1", "--n", "2", "--alpha", "2",
            "--region", "D", "--pq", capsys=capsys,
        )
        assert code == 0
        assert out == "■ □\n"

    def test_pq_outside_family(self, capsys):
        code, _, err = run_cli(
            "show", "--k", "1", "--n", "2", "--alpha", "1",
            "--region", "D", "--pq", capsys=capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_pq_outsider_is_a_package_error(self):
        args = cli.build_parser().parse_args(
            ["show", "--k", "1", "--n", "2", "--alpha", "1", "--region", "D", "--pq"]
        )
        with pytest.raises(NotInFamily):
            args.func(args)

    @pytest.mark.parametrize("extra", [[], ["--pq"], ["--dots", "1"]])
    def test_empty_region_is_an_empty_drawing(self, capsys, extra):
        # 0,0,0,0 is a member of the n = k+1 family whose D has no cell
        code, out, err = run_cli(
            "show", "--k", "4", "--n", "5", "--alpha", "0,0,0,0",
            "--region", "D", *extra, capsys=capsys,
        )
        assert (code, out, err) == (0, "\n", "")

    def test_dotted_rightmost_cells(self, capsys):
        code, out, _ = run_cli(
            "show", "--k", "2", "--n", "2", "--alpha", "2,1",
            "--region", "T", "--dots", "1", capsys=capsys,
        )
        assert code == 0
        assert out == "  □ ◉\n□ ◉\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # the bottom row of D holds one cell, fewer than I = 2
            (["--k", "3", "--n", "3", "--alpha", "3,2,1", "--region", "D",
              "--dots", "2"], "□ ◉ □\n◉ □\n□\n"),
            # the top row of SQ holds two cells, fewer than I = 3
            (["--k", "3", "--n", "4", "--alpha", "3,2,0", "--region", "SQ",
              "--dots", "3"],
             "          □ □\n        ◉ □ □\n"
             "      □ ◉ □ □\n  □ ◉ □ □\n□ ◉ □ □\n"),
            # no row of SQ holds four cells
            (["--k", "2", "--n", "3", "--alpha", "2,1", "--region", "SQ",
              "--dots", "4"], "        □\n      □ □\n  □ □ □\n□ □ □\n"),
        ],
        ids=["D-short-row", "SQ-short-row", "SQ-no-row"],
    )
    def test_dots_skip_short_rows_golden(self, capsys, argv, expected):
        code, out, _ = run_cli("show", *argv, capsys=capsys)
        assert code == 0
        assert out == expected

    def test_dots_must_be_positive(self, capsys):
        code, _, err = run_cli(
            "show", "--k", "1", "--n", "1", "--alpha", "1",
            "--region", "T", "--dots", "0", capsys=capsys,
        )
        assert code == 2
        assert "error:" in err


class TestDyck:
    def test_alternating_golden(self, capsys):
        code, out, _ = run_cli(
            "dyck", "--k", "2", "--n", "1", "--alpha", "1,0",
            "--i", "1", capsys=capsys,
        )
        assert code == 0
        assert out.splitlines() == [
            "sigma_1: x1 z2 x2 z1",
            "U  D  U  D",
            "x1 z2 x2 z1",
            "P_1: (2, 1)",
        ]

    def test_cut_out_of_range(self, capsys):
        code, _, err = run_cli(
            "dyck", "--k", "2", "--n", "1", "--alpha", "1,0",
            "--i", "2", capsys=capsys,
        )
        assert code == 2
        assert "error:" in err


class TestMap:
    def test_phi_single_cell(self, capsys):
        code, out, _ = run_cli(
            "map", "--k", "1", "--n", "1", "--alpha", "1",
            "--phi", capsys=capsys,
        )
        assert code == 0
        assert json.loads(out) == [
            {"from": [1, 1], "to": [1, 1], "target": "Tstar", "al": [0, 0]}
        ]

    def test_psi_targets(self, capsys):
        code, out, _ = run_cli(
            "map", "--k", "1", "--n", "1", "--alpha", "1",
            "--psi", capsys=capsys,
        )
        assert code == 0
        tags = sorted(entry["target"] for entry in json.loads(out))
        assert tags == ["D", "R"]

    def test_requires_exactly_one_map(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["map", "--k", "1", "--n", "1", "--alpha", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestIntegerOptions:
    """Every integer option and HOOKPAIR_JOBS read text by one rule."""

    @pytest.mark.parametrize("text", ["١", "１", "1_0", "+3"])
    @pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
    def test_non_decimal_text_rejected(self, capsys, option, text):
        # int() read each of these as a number
        argv = [text if a == "{}" else a for a in INTEGER_OPTIONS[option]]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: value {text!r} is not a decimal integer\n" in err

    @pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
    def test_decimal_text_accepted(self, capsys, option):
        argv = ["1" if a == "{}" else a for a in INTEGER_OPTIONS[option]]
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, err) == (0, "")
        assert out

    def test_verify_reads_no_other_digits(self, capsys):
        # int() read k = 1 and n = 12 and printed a passing report
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "١", "--n", "1_2", "--alpha", "3", "--theorem", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["1_0", "+2", "٢", "two", ""])
    def test_jobs_variable_rejected(self, capsys, monkeypatch, text):
        monkeypatch.setenv("HOOKPAIR_JOBS", text)
        code, out, err = run_cli("sweep", "--max-k", "1", "--max-n", "1", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: HOOKPAIR_JOBS {text!r} is not a decimal integer\n"

    def test_projective_max_n_checked_when_given(self, capsys):
        code, out, err = run_cli(
            "sweep", "--projective", "--max-k", "2", "--max-n", "-3", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: max_n must be at least 1, got -3\n"


class TestParser:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.skipif(
        not PYPROJECT.is_file(), reason=f"{PYPROJECT} is not in this tree"
    )
    def test_installed_script(self, tmp_path):
        """The [project.scripts] entry point, run the way the installed
        `hookpair` script runs it, against the imported package."""
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["hookpair"]
        module, attr = entry.split(":")
        env = dict(os.environ)
        package_root = str(Path(hookpair.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        env["PYTHONIOENCODING"] = "utf-8"
        # An empty working directory, so nothing in it can shadow the package.
        proc = subprocess.run(
            [sys.executable, "-c",
             SCRIPT_WRAPPER.format(module=module, attr=attr), *SHOW_ARGS],
            capture_output=True, encoding="utf-8", env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stdout == "□\n"
        assert proc.stderr == ""

    @pytest.mark.skipif(
        shutil.which("hookpair") is None, reason="no hookpair script on PATH"
    )
    def test_installed_script_on_path(self):
        proc = subprocess.run(
            ["hookpair", *SHOW_ARGS],
            capture_output=True, encoding="utf-8",
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == 0
        assert proc.stdout == "□\n"
        assert proc.stderr == ""


# each prints more than nothing; verify's 20-part report (189 KB) fills a
# pipe, the others fit in the output buffer until the flush at exit
CLOSED_PIPE_COMMANDS = [
    ["verify", "--k", "20", "--n", "20", "--alpha", "20,18,15,12,9,5,3,1", "--theorem", "2"],
    ["map", "--psi", "--k", "2", "--n", "2", "--alpha", "2,1"],
    ["dyck", "--k", "2", "--n", "2", "--alpha", "2,1", "--i", "1"],
]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", CLOSED_PIPE_COMMANDS, ids=lambda argv: argv[0])
def test_closed_output_pipe_exits_141_quietly(argv, unbuffered):
    # hookpair ... | head: the reader is gone before the first write, which is
    # neither a usage error (2) nor a traceback at the flush at exit (120)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hookpair.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")])
    )
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hookpair.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_closed_stdout_exits_with_the_checks_status(tmp_path):
    # with fd 1 closed at start, sys.stdout is None and print does nothing:
    # the flush before exit must not turn a pass into a traceback and status 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hookpair.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")])
    )
    env.pop("HOOKPAIR_JOBS", None)
    closed, devnull = tmp_path / "closed.json", tmp_path / "devnull.json"
    sweep = ["sweep", "--max-k", "2", "--max-n", "2", "--out"]
    verify = ["verify", "--k", "2", "--n", "2", "--alpha", "2,1", "--theorem", "2"]
    for argv in ([*sweep, str(closed)], verify):
        proc = subprocess.run(
            [sys.executable, "-m", "hookpair.cli", *argv], stderr=subprocess.PIPE,
            env=env, timeout=60, preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (0, b""), argv
    proc = subprocess.run([sys.executable, "-m", "hookpair.cli", *sweep, str(devnull)],
                          stdout=subprocess.DEVNULL, env=env, timeout=60)
    assert proc.returncode == 0
    assert closed.read_bytes() == devnull.read_bytes()
