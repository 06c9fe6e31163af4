import argparse
import json
import os
import subprocess
import sys

import pytest

from homcheck.algebras import dump_algebra, load_algebra_file
from homcheck.cli import COMMANDS, build_parser, main, parse_args
from homcheck.consequence import SearchBounds, derive
from homcheck.identities import catalog

from conftest import child_env
from test_algebras import NOT_SYMMETRIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "y*x")
    assert code == 0
    assert out.strip() == "-x*y"


def test_normalize_respects_vars_header(capsys):
    code, out, _ = run(capsys, "normalize", "vars y,x; y*x")
    assert code == 0
    assert out.strip() == "y*x"
    # a variable whose name starts with "vars" is not a header
    code, out, _ = run(capsys, "normalize", "varsity*b")
    assert code == 0
    assert out.strip() == "-b*varsity"


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "--format", "json", "a(x*y)")
    assert code == 0
    doc = json.loads(out)
    assert doc["normal_form"] == "a(x)*a(y)"
    assert doc["vars"] == ["x", "y"]


def test_equal_positive_and_negative(capsys):
    code, out, _ = run(capsys, "equal", "--", "x*y", "-(y*x)")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "equal", "x*y", "y*x")
    assert code == 1 and out.strip() == "not equal"
    code, out, _ = run(capsys, "equal", "--", "vars x,y; x*y", "vars x,y; -y*x")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "equal", "--", "vars y,x; x*y", "vars x,y; y*x")
    assert code == 1 and out.strip() == "not equal"
    code, out, _ = run(capsys, "equal", "a(x*y)", "a(x)*a(y)")
    assert code == 0 and out.strip() == "equal"


def test_equal_with_leading_dash_needs_separator(capsys):
    # argparse treats a leading dash as an option; pass -- first
    code, out, _ = run(capsys, "equal", "--", "J(x,y,z)", "-J(y,x,z)")
    assert code == 0 and out.strip() == "equal"


def test_parse_error_is_usage(capsys):
    code, _, err = run(capsys, "normalize", "x*(")
    assert code == 2
    assert "parse error" in err


def test_oversized_expression_is_usage(capsys):
    code, out, err = run(capsys, "normalize", "*".join(["(w+x)"] * 17))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: expression too large"), err


def test_deep_nesting_is_usage(capsys):
    # nesting past the interpreter's recursion limit: a long product, deep
    # twists and deep parentheses each print one line and exit 2
    for text in (
        "*".join(["x"] * 1200),
        "a(" * 1200 + "x" + ")" * 1200,
        "(" * 1200 + "x*y" + ")" * 1200,
    ):
        code, out, err = run(capsys, "normalize", text)
        assert (code, out) == (2, "")
        assert err == "error: expression nested too deeply\n"
        assert "Traceback" not in err


def test_printed_normal_forms_parse_back():
    # in fresh processes, as the CLI runs: what normalize prints, equal
    # reads back and finds equal to the input
    inputs = [
        "*".join(["x", "y"] * (n // 2)) for n in (340, 700, 900)
    ] + ["a(" * 300 + "x" + ")" * 300, "(" * 400 + "x*y" + ")" * 400]

    def cli(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "homcheck.cli", *argv],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, ""), argv[0]
        return done.stdout

    for text in inputs:
        printed = cli("normalize", text).strip()
        assert cli("equal", "--", text, printed).strip() == "equal"


def test_deep_product_prints(capsys):
    # printing takes one frame per tree level, so a product the parser
    # and the normal form accept also prints
    factors = ["x", "y"] * 350
    code, out, err = run(capsys, "normalize", "*".join(factors))
    assert (code, err) == (0, "")
    assert sorted(out.replace("(", "").replace(")", "").strip().split("*")) == sorted(
        factors
    )


def test_commands_load_only_what_they_use():
    # tests/startup_check.py in a fresh interpreter without site: normalize
    # and check leave the derivation engine and the replay not run
    script = os.path.join(os.path.dirname(__file__), "startup_check.py")
    done = subprocess.run(
        [sys.executable, "-S", script],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["check", "m7", "hom_malcev", "--jobs", "2"]) == 2
    # twist always writes the algebra's JSON, so it takes no --format
    assert main(["twist", "cross3", "--format", "text"]) == 2


def test_polarize(capsys):
    code, out, _ = run(capsys, "polarize", "hom_malcev")
    assert code == 0
    assert "x#1" in out and "x#2" in out


def test_derive_certificate(capsys):
    code, out, _ = run(
        capsys, "derive", "--target", "identity_1_2", "--axiom", "hom_malcev",
        "--K", "1",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(set(r) == {"axiom", "substitution", "coeff"} for r in rows)


def test_derive_not_in_span(capsys):
    code, out, _ = run(
        capsys, "derive", "--target", "hom_jacobi", "--axiom", "hom_malcev",
        "--K", "1",
    )
    assert code == 1
    assert "not in span" in out


def test_derive_not_in_span_json_fields(capsys):
    code, out, _ = run(
        capsys, "derive", "--target", "hom_jacobi", "--axiom", "hom_malcev",
        "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert list(doc)[-2:] == ["k_saturated", "axioms_skipped"]
    assert doc["k_saturated"] == 0 and doc["axioms_skipped"] == ["hom_malcev"]
    # the result carries the polarized target derive returns beside it,
    # and renders the CLI's document itself
    result, polarized = derive(catalog("hom_jacobi"), [catalog("hom_malcev")])
    assert result.target == polarized and result.to_obj() == doc
    code, out, _ = run(
        capsys, "derive", "--target", "J(w*x,a(y),a(z))", "--axiom", "malcev",
        "--axiom", "hom_malcev", "--K", "1", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["k_saturated"] is None and doc["axioms_skipped"] == []
    code, out, _ = run(
        capsys, "derive", "--target", "identity_1_2", "--axiom", "hom_malcev",
        "--K", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"status", "target", "certificate"}
    result, polarized = derive(
        catalog("identity_1_2"), [catalog("hom_malcev")], SearchBounds(1)
    )
    assert result.target == polarized and result.to_obj() == doc



IDENTITY_1_2 = (
    "J(w*x,a(y),a(z)) - J(w,y,z)*a2(x) - a2(w)*J(x,y,z) + 2*J(y*z,a(w),a(x))"
)


def _derive_json(capsys, target, *axioms):
    argv = ["derive", "--target", target, "--K", "0", "--format", "json"]
    for axiom in axioms:
        argv += ["--axiom", axiom]
    return run(capsys, *argv)


def test_derive_drops_unused_variables(capsys):
    want = _derive_json(capsys, f"vars w,x,y,z; {IDENTITY_1_2}", "hom_malcev")
    assert want[0] == 0 and want[2] == ""
    # a declared variable the target lacks does not block the certificate
    assert _derive_json(capsys, f"vars v,w,x,y,z; {IDENTITY_1_2}", "hom_malcev") == want
    # a freely vanishing axiom contributes no instance
    for axiom in ("lemma_2_4_ii", "g_def"):
        assert _derive_json(capsys, "identity_1_2", axiom, "hom_malcev") == want
    code, out, err = _derive_json(capsys, "identity_1_2", "lemma_2_4_ii")
    assert (code, err) == (1, "")
    assert json.loads(out)["axioms_skipped"] == ["lemma_2_4_ii"]
    # an axiom declaring a variable it lacks acts as the axiom without it
    jacobi = _derive_json(capsys, "identity_1_2", "hom_jacobi")
    assert jacobi[0] == 1
    assert _derive_json(capsys, "identity_1_2", "vars x,y,z,w; J(x,y,z)") == jacobi


DEGREE_8 = "(((((((a(x)*x)*a2(x))*x)*a(x))*x)*a2(x))*x)"
DEGREE_9 = f"({DEGREE_8}*a(x))"


def test_polarization_bound_is_usage(capsys):
    for argv in (
        ["polarize", DEGREE_9],
        ["derive", "--target", DEGREE_9, "--axiom", "hom_malcev"],
        ["check", "m7", DEGREE_9],
    ):
        assert run(capsys, *argv) == (
            2, "", "error: identity too large to polarize: 362880 terms "
                   "(at most 65536)\n"
        ), argv
    code, out, _ = run(capsys, "polarize", DEGREE_8)
    assert code == 0
    assert out.startswith("vars: " + ", ".join(f"x#{i}" for i in range(1, 9)) + "\n")


def test_derive_output_is_stable(capsys):
    argv = ["derive", "--target", "eq_2_2", "--axiom", "hom_malcev", "--K", "1"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_max_k_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("HOMCHECK_MAX_K", "0")
    code, out, err = run(
        capsys, "derive", "--target", "eq_2_2", "--axiom", "hom_malcev",
        "--K", "3",
    )
    assert code == 0
    assert "capped to 0" in err
    code, out, err = run(
        capsys, "derive", "--target", "hom_jacobi", "--axiom", "hom_malcev",
        "--K", "3",
    )
    assert code == 1
    assert err.count("capped to 0") == 1


def test_max_k_env_must_be_a_non_negative_integer(capsys, monkeypatch):
    for value in ("abc", "-1"):
        monkeypatch.setenv("HOMCHECK_MAX_K", value)
        for argv in (("verify-paper",),
                     ("derive", "--target", "eq_2_2", "--axiom", "hom_malcev")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == ("error: HOMCHECK_MAX_K must be a non-negative "
                           f"integer, not {value!r}\n")


def test_check_holds_and_counterexample(capsys):
    code, out, _ = run(capsys, "check", "m7", "hom_malcev")
    assert code == 0 and out.strip() == "Holds"
    code, out, _ = run(capsys, "check", "m7", "hom_jacobi")
    assert code == 1
    assert out.startswith("Counterexample")
    # the non-vacuous negative control: not derivable from hom_malcev
    code, out, _ = run(capsys, "check", "m7", "J(w*x,a(y),a(z))")
    assert code == 1
    assert out.strip() == "Counterexample: w = e1, x = e2, y = e1, z = e4 -> 3*e6"


GOLDEN_CLI = os.path.join(os.path.dirname(__file__), "golden", "cli")

# case -> (argv, environment): each runs in text and in JSON, and its
# stdout must equal golden/cli/<case>-<format>.out byte for byte, its exit
# code and stderr the entry "<case>-<format>" of golden/cli/results.json
PINNED = {
    "derive_certified": (["derive", "--target", "identity_1_2", "--axiom",
                          "hom_malcev", "--K", "1"], {}),
    "derive_graded_not_in_span": (["derive", "--target", "J(w*x,a(y),a(z))",
                                   "--axiom", "hom_malcev", "--K", "3"], {}),
    "derive_ungraded_not_in_span": (["derive", "--target", "J(w*x,a(y),a(z))",
                                     "--axiom", "malcev", "--axiom", "hom_malcev",
                                     "--K", "1"], {}),
    "derive_skipped_axiom": (["derive", "--target", "identity_1_2", "--axiom",
                              "lemma_2_4_ii"], {}),
    # the residual is over the polarized names x#1, x#2
    "derive_polarized_residual": (["derive", "--target", "hom_malcev", "--axiom",
                                   "hom_jacobi", "--K", "3"], {}),
    "derive_capped_k": (["derive", "--target", "identity_1_2", "--axiom",
                         "hom_malcev", "--K", "3"], {"HOMCHECK_MAX_K": "0"}),
    "check_holds": (["check", "m7", "hom_malcev"], {}),
    "check_integer_counterexample": (["check", "m7", "J(w*x,a(y),a(z))"], {}),
    "check_rational_counterexample": (["check", "cross3_rot", "hom_malcev"], {}),
    "verify_paper_K0": (["verify-paper", "--K", "0"], {}),
    "verify_paper_K3": (["verify-paper", "--K", "3"], {}),
}


def _assert_golden(name, code, out, err):
    with open(os.path.join(GOLDEN_CLI, f"{name}.out"), newline="") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN_CLI, "results.json")) as fh:
        want = json.load(fh)[name]
    assert {"exit": code, "stderr": err} == want


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("case", PINNED)
def test_output_is_pinned(capsys, monkeypatch, case, fmt):
    argv, env = PINNED[case]
    monkeypatch.delenv("HOMCHECK_MAX_K", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv, "--format", fmt)
    _assert_golden(f"{case}-{fmt}", code, out, err)


# case -> argv of a help or usage-error call, pinned like PINNED's cases
# but in one run each: stdout in golden/cli/<case>.out, exit code and
# stderr under "<case>" in results.json
USAGE = {
    "help": ["-h"],
    "derive_help": ["derive", "-h"],
    "unknown_command": ["frobnicate"],
}


@pytest.mark.parametrize("case", USAGE)
def test_usage_output_is_pinned(capsys, monkeypatch, case):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    _assert_golden(case, *run(capsys, *USAGE[case]))


# command -> arguments of one valid call
VALID = {
    "normalize": ["x*y"],
    "equal": ["x", "y"],
    "polarize": ["hom_malcev"],
    "derive": ["--target", "identity_1_2", "--axiom", "hom_malcev", "--K", "1"],
    "verify-paper": ["--K", "0"],
    "check": ["m7", "hom_malcev"],
    "twist": ["cross3", "-o", "twisted.json"],
}


def _parsed(capsys, parse, argv):
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


def test_each_command_parses_as_the_whole_tree(capsys, monkeypatch):
    # main parses with the invoked command's parser only; the result, the
    # exit code and every help, usage and error line are the whole tree's
    monkeypatch.setenv("COLUMNS", "80")
    assert list(VALID) == list(COMMANDS)
    argvs = [[], ["-h"], ["--"], ["--", "normalize", "x"], ["frobnicate"]]
    for name, valid in VALID.items():
        argvs += [
            [name, *valid],
            [name, *valid, "-h"],
            [name],  # a missing required argument, except for verify-paper
            [name, *valid, "--format", "xml"],
            [name, *valid, "--K", "x"],
            [name, *valid, "--frobnicate"],
        ]
    for argv in argvs:
        whole = _parsed(capsys, lambda a: build_parser().parse_args(a), argv)
        assert _parsed(capsys, parse_args, argv) == whole, argv


def test_main_builds_only_the_invoked_commands_parser(capsys, monkeypatch):
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    # the top-level parser and normalize's, or all eight for a typo
    for argv, parsers in ((["normalize", "x"], 2), (["frobnicate"], 8)):
        built[0] = 0
        main(argv)
        assert built[0] == parsers, argv
    # without argv, main reads sys.argv itself
    monkeypatch.setattr(sys, "argv", ["homcheck", "normalize", "y*x"])
    built[0] = 0
    capsys.readouterr()
    assert (main(), capsys.readouterr().out, built[0]) == (0, "-x*y\n", 2)


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such.json", "hom_jacobi")
    assert code == 3


def test_check_invalid_algebra_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": "two"}')
    code, _, err = run(capsys, "check", str(path), "hom_jacobi")
    assert code == 3
    assert "invalid algebra" in err


def test_check_malformed_algebra_files(capsys, tmp_path):
    base = {"dim": 2, "twist": [["1", "0"], ["0", "1"]]}
    paths = [tmp_path, tmp_path / "binary.json"]  # a directory, not UTF-8
    paths[1].write_bytes(b"\xff\xfe")
    for name, product in (
        ("out_not_object", [{"i": 1, "j": 2, "out": ["1"]}]),
        ("out_key_not_integer", [{"i": 1, "j": 2, "out": {"x": "1"}}]),
        ("product_not_list", 5),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "product": product}))
        paths.append(path)
    for path in paths:
        code, _, err = run(capsys, "check", str(path), "hom_jacobi")
        assert code == 3, path
        assert err.startswith("invalid algebra: "), err


def test_check_refuses_non_multiplicative_twist(capsys, tmp_path):
    # cross3 with twist 2*Id: a(e1*e2) = 2*e3 but a(e1)*a(e2) = 4*e3, so
    # the normal form the sweep evaluates is not the identity as written
    doc = dump_algebra(load_algebra_file("cross3"))
    doc["twist"] = [["2" if i == j else "0" for j in range(3)] for i in range(3)]
    doc["require_multiplicative"] = False
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path), "a(x*y) - a(x)*a(y)")
    assert (code, out) == (3, "")
    assert err == (
        "invalid algebra: twist is not an endomorphism: fails on basis pair (1, 2)\n"
    )


def test_declared_symmetries_that_are_not_ones_are_invalid_files(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for name, symmetries, message in NOT_SYMMETRIES:
        doc = {**dump_algebra(load_algebra_file(name)), "symmetries": symmetries}
        path.write_text(json.dumps(doc))
        for argv in (("check", str(path), "hom_malcev"), ("twist", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (3, "", f"invalid algebra: {message}\n"), argv


def test_check_rational_counterexamples(capsys):
    # cross3_rot's twist has denominator 5, so its residuals are fractions
    for ident, tup, residual in (
        ("hom_malcev", [1, 1, 2, 2], {"3": "16/5"}),
        ("identity_1_2", [1, 2, 1, 2], {"3": "24/5"}),
        ("hom_jacobi", [1, 2, 3], {"3": "8/5"}),
    ):
        code, out, _ = run(capsys, "check", "cross3_rot", ident, "--format", "json")
        assert code == 1, ident
        doc = json.loads(out)
        assert doc["verdict"] == "counterexample"
        assert (doc["tuple"], doc["residual"]) == (tup, residual), ident


def test_twist_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "twisted.json"
    code, _, _ = run(capsys, "twist", "m7_auto", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["dim"] == 7 and doc["require_multiplicative"] is True
    # a symmetry that commutes with the twist preserves the twisted product
    assert doc["symmetries"] == [[-1, 6, 7, 4, -5, -2, -3], [1, -3, 2, 5, -4, 6, 7]]
    code, out, _ = run(capsys, "check", str(out_path), "hom_malcev")
    assert code == 0 and out.strip() == "Holds"


def test_twist_to_unwritable_path_prints_no_traceback(tmp_path):
    def twist_to(path):
        return subprocess.run(
            [sys.executable, "-m", "homcheck.cli", "twist", "m7", "-o", str(path)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )

    done = twist_to(tmp_path)
    assert done.returncode == 3
    assert done.stderr == f"cannot write {tmp_path}: Is a directory\n"
    assert "Traceback" not in done.stderr
    missing = tmp_path / "missing" / "out.json"
    done = twist_to(missing)
    assert done.returncode == 3
    assert done.stderr == (
        f"no such file: [Errno 2] No such file or directory: '{missing}'\n"
    )


# the full text of verify-paper --K 3
VERIFY_PAPER_K3 = (
    "step 1/9: PASS - Hom-Jacobian skew-symmetry (6 permutations) "
    "(normal-form check, no axioms)",
    "step 2/9: PASS - four-variable Jacobian relation vanishes freely "
    "(normal-form check, no axioms)",
    "step 3/9: PASS - G skew-symmetry (free swaps + repeated-argument "
    "vanishing) (certificate with 1 rows)",
    "step 4/9: PASS - cyclic Jacobian sum (eq_2_2) (certificate with 2 "
    "rows)",
    "step 5/9: PASS - 2G through Jacobians (eq_2_3) (certificate with 3 "
    "rows)",
    "step 6/9: PASS - alternating sum (eq_2_5) and G formula (eq_2_4) "
    "(eq_2_5: certificate with 4 rows; eq_2_4: certificate with 4 rows)",
    "step 7/9: PASS - theorem forward: identity_1_2 from hom_malcev "
    "(certificate with 4 rows)",
    "step 8/9: PASS - theorem converse: hom_malcev (polarized) from "
    "identity_1_2 (certificate with 4 rows; specialization replay ok)",
    "step 9/9: PASS - twist=Id reduction on concrete algebras (cross3: "
    "hom_malcev=Holds, malcev=Holds; m7: hom_malcev=Holds, malcev=Holds; "
    "cross3 hom_jacobi Holds)",
    "overall: PASS",
)


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper", "--K", "3")
    assert code == 0
    assert out == "".join(line + "\n" for line in VERIFY_PAPER_K3)


def test_verify_paper_ignores_the_working_directory(capsys, tmp_path, monkeypatch):
    # files named like bundled algebras do not replace them in the replay
    (tmp_path / "cross3").write_text('{"dim":1,"twist":[["1"]]}')
    (tmp_path / "m7").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify-paper", "--K", "3")
    assert code == 0
    assert out == "".join(line + "\n" for line in VERIFY_PAPER_K3)


def test_closed_stdout_pipe_prints_no_traceback():
    # the read end is closed before the child writes, so its write fails
    # with EPIPE (as when a reader like `head` exits early)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "homcheck.cli", "verify-paper", "--K", "0",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=child_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""
