import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_continuum import MALFORMED  # the text parse_superpoly refuses

import fuzzsuper
from fuzzsuper import cli
from fuzzsuper.cli import main
from fuzzsuper.continuum import classical_harmonic, cross_involution, format_superpoly, parse_superpoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_and_exits_zero(capsys):
    code, out = run(capsys, "verify", "--q", "1", "--suite", "casimir")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_reports_seed(capsys):
    code, out = run(capsys, "verify", "--q", "1", "--suite", "harmonics", "--seed", "9")
    assert code == 0
    assert "seed=9" in out


@pytest.mark.parametrize(
    "spoil,failing",
    [
        (lambda y: y + 1e-20 * y.identity(y.dims), "graded weight support"),  # leaks onto weight 0
        (lambda y: 1.001 * y, "graded gram"),
    ],
)
def test_harmonics_suite_fails_a_spoiled_basis(capsys, monkeypatch, spoil, failing):
    harmonic = cli.FuzzySuperSphere.harmonic
    monkeypatch.setattr(cli.FuzzySuperSphere, "harmonic", lambda self, la: spoil(harmonic(self, la)))
    code, out = run(capsys, "verify", "--q", "3", "--suite", "harmonics")
    assert code == 1
    assert [line.split(":")[1].split(" q=")[0].strip() for line in out.splitlines() if line.startswith("FAIL")] == [
        failing
    ]


def test_maurer_cartan_suite_fails_an_inconclusive_rank(capsys, monkeypatch):
    # the right rank, but a gap below 10 tol backs no dimension
    real = cli.invariant_one_forms
    monkeypatch.setattr(cli, "invariant_one_forms", lambda ctx: dataclasses.replace(real(ctx), gap=1e-9))
    code, out = run(capsys, "verify", "--q", "2", "--suite", "maurer-cartan", "--format", "json")
    assert code == 1
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    assert [name for name, r in rows.items() if not r["passed"]] == ["invariant space dimension"]
    assert rows["invariant space dimension"]["residual"] == 1
    assert rows["invariant space dimension"]["info"] == "inconclusive rank, gap 1.0e-09"


def test_calculus_suite_fails_a_perturbed_d_matrix(capsys, monkeypatch):
    # the summand-blocks row compares the blocks of d that the ranks read with exterior_d
    real = cli.summand_block

    def perturbed(frame, p, two_j, a=None):
        block, sources, targets = real(frame, p, two_j, a)
        return 1.001 * block, sources, targets

    monkeypatch.setattr(cli, "summand_block", perturbed)
    code, out = run(capsys, "verify", "--q", "2", "--suite", "calculus", "--format", "json")
    assert code == 1
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    assert [name for name, r in rows.items() if not r["passed"]] == ["summand blocks"]
    assert rows["summand blocks"]["residual"] > 1e-4


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_verify_meta_records_the_radius_only_for_suites_that_read_it(capsys, suite):
    reports = {}
    for rho in ("1", "7/3"):
        code, out = run(capsys, "verify", "--q", "1", "--suite", suite, "--rho", rho, "--format", "json")
        assert code == 0
        reports[rho] = json.loads(out)
    residuals = {rho: [r["residual"] for r in doc["results"]] for rho, doc in reports.items()}
    if suite in cli.RADIUS_SUITES:
        assert reports["7/3"]["meta"]["rho"] == "7/3"
        # the exact oracle passes with zero residuals at every radius; the matrix suites move with it
        assert suite == "oracle" or residuals["1"] != residuals["7/3"]
    else:
        assert "rho" not in reports["7/3"]["meta"]
        assert residuals["1"] == residuals["7/3"]
        code, out = run(capsys, "verify", "--q", "1", "--suite", suite, "--rho", "7/3")
        assert out.splitlines()[0] == f"# seed=0 version={fuzzsuper.__version__}"


ORACLE_INPUTS_SCRIPT = """
import json
from fuzzsuper import cli

seen = []
real = cli.berezin_radial_sum


def recording(f, rho):
    seen.append([sorted((list(k), str(v.re), str(v.im)) for k, v in c.items())
                 for c in f.components()])
    return real(f, rho)


cli.berezin_radial_sum = recording
cli.main(["verify", "--q", "1", "--suite", "oracle", "--seed", "3"])
print(json.dumps(seen))
"""


def test_oracle_suite_inputs_ignore_hash_seed():
    # the random ideal polynomials come from --seed alone, so two processes
    # with different string-hash salts must integrate the same polynomials
    src = str(Path(fuzzsuper.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", ORACLE_INPUTS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert len(runs[0]) == 10
    assert runs[0] == runs[1]


def test_verify_rejects_level_zero():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "0"])
    assert exc.value.code == 2


def test_large_level_needs_opt_in():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "61", "--suite", "casimir"])
    assert exc.value.code == 2


def test_large_level_opt_in_accepted(capsys):
    code, _ = run(capsys, "verify", "--q", "61", "--suite", "casimir", "--allow-large")
    assert code == 0


@pytest.mark.parametrize("opt_in", [[], ["--allow-large"]])
def test_cohomology_takes_any_level(capsys, opt_in):
    # cohomology builds no matrix of the level, so a large level needs no opt-in; the flag is still accepted
    code, out = run(capsys, "cohomology", "--q", "1000", "--pmax", "3", "--format", "json", *opt_in)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["q"] == 1000 and doc["ok"] is True
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--q", "0", *opt_in])
    assert exc.value.code == 2


@pytest.mark.parametrize("opt_in", [[], ["--allow-large"]])
def test_converge_takes_any_level(capsys, opt_in):
    # converge builds no matrix, so a large level needs no opt-in; the flag is still accepted
    argv = ["converge", "--j1", "1/2", "--j2", "1/2", "--q-list", "10,1000", "--format", "json"]
    code, out = run(capsys, *argv, *opt_in)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["q"] for row in rows] == [10, 1000]
    assert rows[1]["abs_delta"] < rows[0]["abs_delta"] / 50


def test_converge_rejects_level_zero():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--j1", "1/2", "--j2", "1", "--q-list", "0,10"])
    assert exc.value.code == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert "argument --suite: invalid choice: 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize("q", [1, 4])
def test_verify_body_counts_the_kernel_on_weight_blocks(capsys, q):
    code, out = run(capsys, "verify", "--q", str(q), "--suite", "body", "--format", "json")
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert rows["kernel dimension"]["passed"] and rows["kernel dimension"]["residual"] == 0


@pytest.mark.parametrize("rho", ["1", "7/3"])
def test_verify_oracle_checks_the_gram_exactly(capsys, rho):
    code, out = run(capsys, "verify", "--q", "1", "--suite", "oracle", "--rho", rho, "--format", "json")
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    gram = rows["classical gram exact"]
    assert gram["passed"] and gram["residual"] == 0 and gram["tol"] == 0


def test_verify_json_format(capsys):
    code, out = run(
        capsys, "verify", "--q", "1", "--suite", "casimir", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["seed"] == 0
    assert all(row["passed"] for row in doc["results"])


def test_verify_csv_format(capsys):
    code, out = run(
        capsys, "verify", "--q", "1", "--suite", "casimir", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,name,q,residual,tol,passed"
    assert len(lines) == 3


def test_verify_q_list(capsys):
    code, out = run(capsys, "verify", "--q-list", "1,2", "--suite", "casimir")
    assert code == 0
    assert "q=1" in out and "q=2" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(
        capsys,
        "verify",
        "--q",
        "1",
        "--suite",
        "casimir",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["meta"]["command"] == "verify"


def test_converge_table(capsys):
    code, out = run(capsys, "converge", "--j1", "1/2", "--j2", "1", "--q-list", "3,5")
    assert code == 0
    assert "q=  3" in out and "q=  5" in out


def test_converge_skips_infeasible_levels(capsys):
    code, out = run(capsys, "converge", "--j1", "2", "--j2", "2", "--q-list", "1,5")
    assert code == 0
    assert "skipped" in out
    assert "q=  5" in out


def test_converge_rejects_bad_spin():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--j1", "0.3", "--j2", "1"])
    assert exc.value.code == 2


def test_converge_csv(capsys):
    code, out = run(
        capsys,
        "converge",
        "--j1",
        "0.5",
        "--j2",
        "0.5",
        "--q-list",
        "4",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j1,j2,q,c_fuzzy,c_classical,abs_delta"
    assert lines[1].startswith("0.5,0.5,4,")


def test_cohomology_exits_zero_on_match(capsys):
    code, out = run(capsys, "cohomology", "--q", "1")
    assert code == 0
    assert "[ok]" in out and "MISMATCH" not in out


def test_cohomology_json(capsys):
    code, out = run(capsys, "cohomology", "--q", "1", "--pmax", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["super"]["betti"] == [1, 0, 0, 1]
    assert doc["body"]["betti"] == [1, 0, 0, 1]


def test_cohomology_csv_matches_json(capsys):
    argv = ("cohomology", "--q", "2", "--pmax", "5")
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "complex,p,dim,betti,rank,sv_gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["super"] * 6 + ["body"] * 4 + ["center"] * 6
    assert all(len(r) == 6 for r in rows)
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for tag, key in (("super", "super"), ("body", "body"), ("center", "center_crosscheck")):
        mine = [r for r in rows if r[0] == tag]
        assert [int(r[1]) for r in mine] == list(range(len(mine)))
        assert [int(r[3]) for r in mine] == doc[key]["betti"], tag
        assert [int(r[2]) for r in mine] == doc[key]["dims"], tag
        assert [int(r[4]) for r in mine] == doc[key]["ranks"], tag
        assert [float(r[5]) for r in mine] == doc[key]["sv_gaps"], tag


def csv_and_json(capsys, argv, key):
    """The csv rows and the json rows (under key) of one command."""
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = out.strip().splitlines()
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    return header.split(","), [line.split(",") for line in lines], json.loads(out)[key]


def test_verify_csv_matches_json(capsys):
    header, rows, doc = csv_and_json(capsys, ("verify", "--q-list", "1,2", "--suite", "casimir"), "results")
    assert header == ["suite", "name", "q", "residual", "tol", "passed"]
    assert len(rows) == len(doc) == 4
    for row, want in zip(rows, doc):
        assert row[:2] == [want["suite"], want["name"]]
        assert int(row[2]) == want["q"]
        assert float(row[3]) == want["residual"] and float(row[4]) == want["tol"]
        assert row[5] == str(want["passed"])


def test_converge_csv_matches_json(capsys):
    argv = ("converge", "--j1", "1/2", "--j2", "1", "--q-list", "4,10")
    header, rows, doc = csv_and_json(capsys, argv, "rows")
    assert header == ["j1", "j2", "q", "c_fuzzy", "c_classical", "abs_delta"]
    assert len(rows) == len(doc) == 2
    for row, want in zip(rows, doc):
        # the spins print as floats, "0.5" and "1.0"
        assert row[:2] == [str(want["j1"]), str(want["j2"])] == ["0.5", "1.0"]
        assert int(row[2]) == want["q"]
        assert [float(x) for x in row[3:]] == [want["c_fuzzy"], want["c_classical"], want["abs_delta"]]


def test_oracle_normal_form(capsys):
    code, out = run(capsys, "oracle", "--op", "normal-form", "--expr", "x3^2", "--rho", "1")
    assert code == 0
    assert "t4 t5" in out  # the x3^2 rewrite spills a soul term


def test_oracle_integral(capsys):
    code, out = run(capsys, "oracle", "--op", "integral", "--expr", "1", "--rho", "2")
    assert code == 0
    assert "1/2" in out


def test_oracle_integral_orders_odd_coordinates(capsys):
    # t5 t4 = -t4 t5, whose integral at rho = 1 is +2 pi
    code, out = run(capsys, "oracle", "--op", "integral", "--expr", "t5 t4", "--rho", "1")
    assert code == 0
    assert out.startswith("(2*pi) * (1+0i)")


def test_oracle_inner(capsys):
    code, out = run(capsys, "oracle", "--op", "inner", "--expr", "1", "--expr2", "1")
    assert code == 0
    assert "exact core = 1" in out


def test_oracle_classical_c(capsys):
    code, out = run(capsys, "oracle", "--op", "classical-c", "--j1", "1", "--j2", "1")
    assert code == 0
    assert "c = 0.8164965809" in out


def test_oracle_requires_expr():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--op", "integral"])
    assert exc.value.code == 2


def test_oracle_harmonic(capsys):
    code, out = run(capsys, "oracle", "--op", "harmonic", "--j1", "1/2", "--mu", "1")
    assert code == 0
    assert "scale" in out and "poly" in out


@pytest.mark.parametrize("m_args", [["--m=-1/2"], ["--m", "-0.5"], ["--m", "-1/2"]])
def test_oracle_harmonic_negative_m(capsys, m_args):
    code, out = run(capsys, "oracle", "--op", "harmonic", "--j1", "1/2", "--mu", "0", *m_args)
    assert code == 0
    cls = classical_harmonic(1, 0, -1, Fraction(1))
    want = f"scale = {cls.scale.coef} * sqrt({cls.scale.rad})\npoly  = {format_superpoly(cls.poly)}"
    assert out.strip() == want


@pytest.mark.parametrize(
    "argv",
    [["oracle", "--op", "cross", "--expr", text] for text in MALFORMED]
    + [["oracle", "--op", "inner", "--expr", "x1", "--expr2", "x1 ** 2"]],
)
def test_malformed_expression_is_a_usage_error(capsys, argv):
    # exit 2 is a usage error, as for every other bad option value; 1 is a failed check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-2]}: cannot read" in err


@pytest.mark.parametrize("text", ["-x1", "-t4", "-i", "-x3^2", "-(1+2i)"])
def test_negative_expression_is_one_value(capsys, text):
    # like --m -1/2, a value that starts with - and then a digit, '.', '(', x, t or i
    # belongs to the flag before it
    code, out = run(capsys, "oracle", "--op", "cross", "--expr", text)
    assert code == 0
    assert out.strip() == format_superpoly(cross_involution(parse_superpoly(text)))
    assert run(capsys, "oracle", "--op", "cross", f"--expr={text}") == (code, out)


@pytest.mark.parametrize("pmax", ["-1", "6"])
def test_cohomology_rejects_pmax_out_of_range(capsys, pmax):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--q", "1", "--pmax", pmax])
    assert exc.value.code == 2
    assert f"argument --pmax: invalid choice: {pmax}" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    # argparse reads the parser without changing it, so one object serves every
    # main call in a process, a usage error between two runs included
    assert cli.build_parser() is cli.build_parser()
    first = ("cohomology", "--q", "2", "--format", "json")
    code, out = run(capsys, *first)
    assert code == 0
    assert run(capsys, "verify", "--q", "1", "--suite", "casimir", "--format", "csv")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--q", "1", "--pmax", "6"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *first) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--op", "cross", "--expr", "x1", "--format", "json"],
        ["converge", "--j1", "1/2", "--j2", "1", "--tol", "1"],
    ],
)
def test_unread_options_are_usage_errors(argv):
    # each subcommand accepts only the shared options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


CONVERGE = ["converge", "--j1", "1/2", "--j2", "1"]
ORACLE = ["oracle", "--op", "integral", "--expr", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--q", "1", "--suite", "casimir", "--rho", "abc"],
        ["verify", "--q", "1", "--suite", "casimir", "--rho", "-1"],
        ["verify", "--q", "1", "--suite", "casimir", "--rho", "1/0"],
        ["verify", "--q", "1", "--suite", "casimir", "--rho", "1e-400"],
        CONVERGE + ["--rho", "1e400"],
        ORACLE + ["--rho", "0"],
        CONVERGE + ["--rho", "0"],
        ORACLE + ["--rho=-5/2"],
        ["cohomology", "--tol", "0"],
        ["verify", "--q", "1", "--suite", "casimir", "--tol", "nan"],
        ["verify", "--q", "1", "--suite", "casimir", "--tol", "inf"],
        CONVERGE + ["--q-list", ""],
        ["verify", "--suite", "casimir", "--q-list", ","],
    ],
)
def test_bad_radius_tolerance_and_level_list_are_usage_errors(argv):
    # --rho must be a positive rational or decimal, --tol finite and positive, and a
    # level list nonempty, on every subcommand that reads them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cohomology_takes_no_radius(capsys):
    # the derivation complex does not depend on rho, so cohomology does not read it
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--rho", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rho 2" in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["-5/2", "-1e-3"])
@pytest.mark.parametrize("spaced", [False, True])
def test_negative_radius_fails_the_positivity_check(capsys, rho, spaced):
    # argparse alone takes a spaced value such as -5/2 for an option string
    with pytest.raises(SystemExit) as exc:
        main(ORACLE + (["--rho", rho] if spaced else [f"--rho={rho}"]))
    assert exc.value.code == 2
    assert f"argument --rho: must be positive, got {rho!r}" in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["5/2", "2.5"])
def test_radius_accepts_rational_and_decimal(capsys, rho):
    code, out = run(capsys, *ORACLE, "--rho", rho)
    assert code == 0
    assert out == run(capsys, *ORACLE, "--rho", "5/2")[1]
