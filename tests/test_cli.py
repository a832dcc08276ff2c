import cmath
import json

import pytest

from xrmatrix import (ExactField, NumericField, check_fused_intertwining,
                      check_intertwining, cli, fusion, vector_rmatrix)
from xrmatrix.cartan import cartan_json
from xrmatrix.cli import main, parse_complex
from xrmatrix.fusion import fused_zeros
from xrmatrix.scalars import sample_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_complex():
    assert parse_complex("1.5,-2") == 1.5 - 2j
    assert parse_complex("3") == 3 + 0j
    with pytest.raises(Exception):
        parse_complex("a,b")


def test_dump_cartan(capsys):
    code, out = run(capsys, "dump-cartan")
    assert code == 0
    assert json.loads(out) == cartan_json()


def test_dump_cartan_to_file(tmp_path):
    target = tmp_path / "cartan.json"
    assert main(["dump-cartan", "--output", str(target)]) == 0
    assert json.loads(target.read_text()) == cartan_json()


def test_check_relations_passes(capsys):
    code, out = run(capsys, "check-relations", "--q", "1.3,0.2",
                    "--x", "0.4,0.3")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True


def test_check_relations_exact(capsys):
    code, out = run(capsys, "check-relations", "--backend", "exact")
    assert code == 0
    assert json.loads(out)["residual"] == "exact-zero"


def test_check_lemma1_detuned_fails(capsys):
    code, out = run(capsys, "check-lemma1", "--q", "1.3,0.2",
                    "--x", "0.5,0.1", "--y", "1.1,0.3")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_check_lemma1_defaults_to_closing_point(capsys):
    # without --y the split is checked at y = q x, where it closes
    code, out = run(capsys, "check-lemma1", "--q", "1.3,0.2",
                    "--x", "0.5,0.1")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_lemma1_looser_tolerance_still_passes(capsys):
    # --tol is the verdict alone: the joint rank keeps its own threshold
    for tol in ("0.9", "1.5"):
        code, out = run(capsys, "check-lemma1", "--tol", tol)
        blob = json.loads(out)
        assert code == 0 and blob["pass"] is True, tol
        assert blob["details"]["joint_rank"] == 16, tol


def test_exact_split_passes_at_zero_tolerance(capsys):
    # an exact residual passes iff it is 0, whatever --tol says
    code, out = run(capsys, "verify", "lemma1", "--backend", "exact",
                    "--tol", "0")
    assert code == 0 and json.loads(out)["pass"] is True


def test_single_checks_report_the_point_they_ran(capsys):
    sampled = sample_params(7).to_json()
    code, out = run(capsys, "check-ybe", "--q", "1.2,0.3", "--samples", "1")
    assert code == 0
    params = json.loads(out)["params"]
    assert params["q"] == {"re": 1.2, "im": 0.3}
    assert params == {**sampled, "q": params["q"]}
    _, out = run(capsys, "check-relations", "--x", "0.4,0.3")
    assert json.loads(out)["params"] == {**sampled,
                                         "x": {"re": 0.4, "im": 0.3}}
    _, out = run(capsys, "check-lemma1")
    assert json.loads(out)["params"] == sampled
    # check-dynamical runs at x = exp(log(q) lambda), lambda 0.7+0.3i
    _, out = run(capsys, "check-dynamical")
    x = cmath.exp(cmath.log(complex(sampled["q"]["re"], sampled["q"]["im"]))
                  * complex(0.7, 0.3))
    assert json.loads(out)["params"] == {**sampled,
                                         "x": {"re": x.real, "im": x.imag}}


def test_check_dynamical_reports_the_x_it_ran_at(capsys):
    ps = sample_params(7)
    x = cmath.exp(cmath.log(ps.q) * complex(0.4, 0.2))
    code, out = run(capsys, "check-dynamical", "--lambda", "0.4,0.2",
                    "--seed", "7")
    assert code == 0
    blob = json.loads(out)
    assert blob["params"]["x"] == {"re": x.real, "im": x.imag}
    assert blob["params"]["q"] == {"re": ps.q.real, "im": ps.q.imag}


def test_usage_error_is_exit_2(capsys, monkeypatch):
    # every command is stubbed, so an argument list that got past the
    # checks would return here instead of starting a construction (some
    # of these would take several GB)
    ran = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda args: ran.append(args.command) or 0)
    for argv in (["verify", "not-a-level"],
                 ["check-relations", "--q", "1,0"],
                 ["check-relations", "--q", "0"],
                 ["check-ybe", "--level", "fused", "--n", "6"],
                 ["check-ybe", "--level", "fused", "--n", "7"],
                 ["check-ybe", "--level", "fused", "--backend", "exact",
                  "--n", "2"],
                 ["check-ybe", "--backend", "exact", "--u", "1.1,0"],
                 ["check-relations", "--backend", "exact", "--q", "1.3,0.2"],
                 ["build-r", "--backend", "exact", "--x", "0.5,0.1"],
                 ["verify", "fused-ybe", "--samples", "0"],
                 # the fused R-matrix vanishes at u = v for n >= 2
                 ["check-ybe", "--level", "fused", "--u", "1", "--v", "1"],
                 ["check-dynamical", "--n", "3", "--sign", "minus",
                  "--u", "1", "--v", "1"],
                 ["check-dynamical", "--v", "0.5,0.1", "--w", "0.5,0.1"],
                 ["fusion-report", "--u", "1", "--v", "1,0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv
    assert ran == []
    # every level reaches n = 5, and u = v is refused only by the fused
    # levels at n >= 2
    for argv in (["verify", "fusion", "--n", "3"],
                 ["verify", "fusion", "--n", "4"],
                 ["verify", "all", "--n", "5"],
                 ["verify", "fused-ybe", "--n", "5"],
                 ["check-ybe", "--level", "fused", "--n", "5"],
                 ["check-ybe", "--u", "1", "--v", "1"],
                 ["check-ybe", "--level", "fused", "--n", "1", "--u", "1",
                  "--v", "1"],
                 ["check-dynamical", "--u", "1", "--v", "1,0.1"]):
        assert main(argv) == 0, argv
    assert ran == ["verify", "verify", "verify", "verify", "check-ybe",
                   "check-ybe", "check-ybe", "check-dynamical"]


def test_fused_zero_ratios_are_exit_2(capsys, monkeypatch):
    # a ratio of two given --u --v --w at a zero of the fused R-matrix is
    # one line and exit 2; the ratios next to the zeros still run
    ran = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda args: ran.append(args.command) or 0)
    for n in (2, 3):
        for sign, sg in (("plus", 1), ("minus", -1)):
            for k in range(-n, n + 1):
                argv = ["check-ybe", "--level", "fused", "--n", str(n),
                        "--sign", sign, "--q", "2", "--u", str(1.3 * 4 ** k),
                        "--v", "1.3", "--w", "0.7"]
                if k not in fused_zeros(n, sg):
                    assert main(argv) == 0, argv
                    continue
                with pytest.raises(SystemExit) as err:
                    main(argv)
                assert err.value.code == 2, argv
                assert capsys.readouterr().err == (
                    f"xrmatrix: error: check-ybe: --u/--v is q^{2 * k}, where "
                    f"the fused R-matrix vanishes at --n {n} --sign "
                    f"{sign}\n"), argv
    assert ran == ["check-ybe"] * 12
    q = sample_params(7).q
    for argv in (["check-dynamical", "--n", "3", "--sign", "minus", "--q",
                  "2", "--v", "1", "--w", "0.0625"],
                 ["fusion-report", "--q", "2", "--u", "1", "--v", "4"],
                 # q sampled at the first of the three seeds
                 ["check-ybe", "--level", "fused", "--u",
                  f"{(q ** -2).real},{(q ** -2).imag}", "--w", "1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv


def test_wrong_fused_dimension_is_exit_2(capsys):
    # at seed 0 and x = 1e-8 the numeric pivoting keeps a ninth column in
    # the n = 2 sign - fused space; both commands name it on one line
    for argv in (["check-ybe", "--level", "fused", "--n", "2", "--sign",
                  "minus", "--x", "1e-8,0", "--seed", "0", "--samples", "1"],
                 ["fusion-report", "--n", "2", "--x", "1e-8,0", "--seed",
                  "0"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err == (f"{argv[0]}: fused space at n = 2, sign -, "
                       "x = (1e-08+0j) has dimension 9, not 8\n"), argv


def test_non_invariant_restriction_is_exit_2(capsys, monkeypatch):
    # a numeric restriction solve that leaves the span is named on one
    # line, as at n = 5, sign -, seed 0 before the builder twisted its
    # factors at q^n x
    def failing(*args):
        raise fusion.NotInvariantError(272, 4.1e-9)

    monkeypatch.setattr(fusion, "_solve_sectors", failing)
    for argv in (["check-ybe", "--level", "fused", "--n", "2", "--samples",
                  "1"],
                 ["fusion-report", "--n", "2"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err == (f"{argv[0]}: subspace is not invariant: column 272 "
                       "has relative residual 4.100e-09\n"), argv


def _masked(out):
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in out.splitlines()]


def test_negative_complex_values_parse_in_both_forms(capsys):
    # a sampled point with a negative real part pastes back either way
    for flags in ((("--q", "-0.8,0.2"), ("--x", "-0.4,-0.3")),
                  (("--u", "-1.1,0.3"), ("--v", "0.9,-0.2"),
                   ("--w", "-0.6,-0.7")),
                  (("--lambda", "-0.4,0.2"),)):
        command = ("check-dynamical" if flags[0][0] == "--lambda"
                   else "check-relations" if flags[0][0] == "--q"
                   else "check-ybe")
        spaced = [tok for flag in flags for tok in flag]
        joined = [f"{flag}={value}" for flag, value in flags]
        code1, out1 = run(capsys, command, *spaced)
        code2, out2 = run(capsys, command, *joined)
        assert code1 == code2 == 0, flags
        assert _masked(out1) == _masked(out2), flags
    _, out = run(capsys, "check-lemma1", "--y", "-1.3,0.2", "--x", "0.4,0.1")
    assert json.loads(out)["params"]["y"] == {"re": -1.3, "im": 0.2}


def test_malformed_negative_value_is_usage_error(capsys):
    for argv in (["check-relations", "--q", "-abc"],
                 ["check-ybe", "--u", "-1,2,3"],
                 ["check-relations", "--q", "--x", "0.4,0.3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert "argument --" in capsys.readouterr().err, argv


def test_exact_reports_carry_term_counts(capsys):
    code, out = run(capsys, "verify", "box-ybe", "--backend", "exact")
    assert code == 0
    box, = [r for r in map(json.loads, out.splitlines())
            if r["check"] == "box-ybe"]
    terms = box["details"]["max_terms"]
    assert isinstance(terms, int) and terms > 0
    code, out = run(capsys, "verify", "hecke", "--backend", "exact")
    assert code == 0
    assert all(r["details"]["max_terms"] > 0
               for r in map(json.loads, out.splitlines()))
    # numeric reports carry no term count
    _, out = run(capsys, "verify", "hecke", "--samples", "1")
    assert all("max_terms" not in r["details"]
               for r in map(json.loads, out.splitlines()))


def test_every_exact_report_carries_term_counts(capsys):
    # the exact relations, lemma1 and r-forms-equal reports, pinned
    want = {"relations": 4, "lemma1": 3, "box-ybe": 19, "r-forms-equal": 42}
    for level in ("relations", "lemma1", "box-ybe"):
        code, out = run(capsys, "verify", level, "--backend", "exact")
        assert code == 0, level
        for r in map(json.loads, out.splitlines()):
            assert r["details"]["max_terms"] == want.pop(r["check"]), level
        _, out = run(capsys, "verify", level, "--samples", "1")
        assert all("max_terms" not in r["details"]
                   for r in map(json.loads, out.splitlines())), level
    assert want == {}
    # the intertwining checks reach the exact backend through the library
    ef, nf = ExactField(), NumericField(sample_params(7).q)
    for fld, u, v, x in ((ef, ef.u, ef.v, ef.x), (nf, 1.3, 0.7, 0.4)):
        reports = [check_intertwining(fld, vector_rmatrix(fld, u, v, x), u,
                                      v, x),
                   check_fused_intertwining(fld, 1, u, v, x, 1)]
        for r in reports:
            assert r.passed and "worst_generator" in r.details
            assert r.details.get("max_terms") == (7 if fld is ef else None)


def test_ybe_reports_carry_sectors(capsys):
    # the joint (K_1, K_3) weight sectors of three legs: 16 of at most 9
    # states for the vector legs, 37 of at most 56 for fused n = 2
    want = {"box-ybe": {"count": 16, "largest": 9},
            "fused-ybe": {"count": 37, "largest": 56},
            "dynamical-ybe": {"count": 37, "largest": 56}}
    for level in ("box-ybe", "fused-ybe", "dynamical"):
        code, out = run(capsys, "verify", level, "--samples", "1",
                        "--negative-controls")
        assert code == 0, level
        reports = [r for r in map(json.loads, out.splitlines())
                   if r["check"].removeprefix("negative:").split("-shift")[0]
                   in want]
        assert len(reports) == 2, level
        for r in reports:
            name = r["check"].removeprefix("negative:").split("-shift")[0]
            assert r["details"]["sectors"] == want[name], r["check"]
            assert 0 <= r["details"]["off_sector"] < 1e-12, r["check"]
    _, out = run(capsys, "verify", "box-ybe", "--backend", "exact")
    box, = [r for r in map(json.loads, out.splitlines())
            if r["check"] == "box-ybe"]
    assert box["details"]["sectors"] == want["box-ybe"]
    assert "off_sector" not in box["details"]


def test_zero_tolerance_is_honoured(capsys):
    # a float residual is never below 0, so the check must fail
    for argv in (["check-ybe", "--tol", "0", "--samples", "1"],
                 ["check-dynamical", "--tol", "0"]):
        code, out = run(capsys, *argv)
        assert code == 1, argv
        assert json.loads(out)["pass"] is False, argv


def test_zero_tolerance_sets_verdicts_only(capsys):
    # --tol 0 must fail the verdicts, not the constructions behind them:
    # each command reports as it does at the default tolerance, and exits 1
    code, out = run(capsys, "fusion-report", "--n", "2", "--tol", "0")
    assert code == 1
    blob = json.loads(out)
    assert blob["dim_plus"] == blob["dim_minus"] == 8
    assert blob["invariance_residual"] < 1e-9
    for level in ("fusion", "all"):
        argv = ["verify", level, "--samples", "1"]
        _, default = run(capsys, *argv)
        code, out = run(capsys, *argv, "--tol", "0")
        assert code == 1, level
        lines = [json.loads(line) for line in out.strip().splitlines()]
        want = [json.loads(line)["check"] for line in default.splitlines()]
        assert [line["check"] for line in lines] == want, level
        assert not any(line["pass"] for line in lines
                       if line["check"] not in ("r-forms-equal",
                                                "intertwining")), level


def test_negative_tolerance_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-ybe", "--tol", "-1", "--samples", "1"])
    assert err.value.code == 2
    assert "tolerance" in capsys.readouterr().err


def test_build_r_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["build-r", "--q", "1.3,0.2", "--u", "1.1,0", "--v", "0.7,0.4",
            "--x", "0.5,0.1"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    blob = json.loads(a.read_text())
    assert blob["legs"] == [4, 4]
    assert all(len(entry) == 3 for entry in blob["entries"])


def test_build_r_exact_schema(tmp_path):
    target = tmp_path / "r.json"
    assert main(["build-r", "--backend", "exact", "--output",
                 str(target)]) == 0
    blob = json.loads(target.read_text())
    entry = blob["entries"][0][2]
    assert set(entry) == {"num", "den"}
    assert all(len(term["exp"]) == 5 for term in entry["num"])


def test_check_ybe_box(capsys):
    code, out = run(capsys, "check-ybe", "--level", "box", "--samples", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert all(line["pass"] for line in lines)


def test_verify_streams_json_lines(capsys):
    code, out = run(capsys, "verify", "lemma1", "--samples", "2",
                    "--single-thread")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert all(line["pass"] for line in lines)


def test_verify_box_ybe_exact_reports_exact_zero(capsys):
    code, out = run(capsys, "verify", "box-ybe", "--backend", "exact",
                    "--single-thread")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(line["residual"] == "exact-zero" for line in lines)


def test_verify_fused_ybe_level(capsys):
    code, out = run(capsys, "verify", "fused-ybe", "--n", "2", "--sign",
                    "minus", "--samples", "3", "--single-thread")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert all(line["pass"] for line in lines)
    assert all(0 <= line["details"]["restriction_residual"] < 1e-9
               for line in lines)


def test_verify_all_level(capsys):
    code, out = run(capsys, "verify", "all", "--samples", "1", "--seed", "7")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    names = {line["check"] for line in lines}
    assert {"relations", "lemma1", "box-ybe", "hecke", "fused-ybe",
            "dynamical-ybe"} <= names
    assert all(line["pass"] for line in lines)


def test_verify_negative_controls(capsys):
    code, out = run(capsys, "verify", "box-ybe", "--samples", "1",
                    "--negative-controls", "--single-thread")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    names = {line["check"] for line in lines}
    assert any(name.startswith("negative:") for name in names)


def test_projector_rows_skip_one_leg(capsys):
    # at n = 1 the symmetrizer is the identity, so the commutation and its
    # sabotaged control would both read 0; the rows do not run there
    for level in ("all", "fusion"):
        code, out = run(capsys, "verify", level, "--n", "1", "--samples", "1",
                        "--negative-controls")
        assert code == 0, level
        names = [json.loads(line)["check"] for line in out.splitlines()]
        assert "fusion-intertwining" in names, level
        assert not any("projector" in name for name in names), level


def test_verify_seed_reproducibility(capsys):
    _, first = run(capsys, "verify", "relations", "--samples", "2",
                   "--seed", "5", "--single-thread")
    _, second = run(capsys, "verify", "relations", "--samples", "2",
                    "--seed", "5", "--single-thread")
    stripped = [
        [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
         for line in text.strip().splitlines()]
        for text in (first, second)
    ]
    assert stripped[0] == stripped[1]


def test_io_error_is_exit_3():
    assert main(["verify", "relations", "--samples", "1",
                 "--output", "/nonexistent-dir/reports.jsonl"]) == 3


def test_check_dynamical(capsys):
    for argv in (["--q", "1.2,0.1", "--lambda", "0.4,0.2", "--n", "2",
                  "--sign", "plus"],
                 [],
                 ["--n", "3", "--sign", "minus", "--seed", "3"]):
        code, out = run(capsys, "check-dynamical", *argv)
        assert code == 0, argv
        blob = json.loads(out)
        assert blob["pass"] is True, argv
        assert 0 <= blob["details"]["restriction_residual"] < 1e-9, argv
        assert blob["elapsed_ms"] > 0, argv
        # the dynamical YBE is the fused YBE at the q and x it ran at,
        # bit for bit (the --k=re,im form takes a negative real part)
        details, params = blob["details"], blob["params"]
        point = [f"--{k}={params[k]['re']!r},{params[k]['im']!r}"
                 for k in ("q", "x")]
        code, out = run(capsys, "check-ybe", "--level", "fused",
                        "--samples", "1", "--seed", str(blob["seed"]),
                        "--n", str(details["n"]), "--sign",
                        "plus" if details["sign"] == 1 else "minus", *point)
        assert code == 0, argv
        assert json.loads(out)["residual"] == blob["residual"], argv


def test_fusion_report(capsys, tmp_path, monkeypatch):
    import xrmatrix.cli
    import xrmatrix.fusion

    # one symmetrizer per sign for the report, whose --sign space serves
    # the restriction, and one for the fused YBE
    built = []
    real = xrmatrix.fusion.symmetrizer

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    for module in (xrmatrix.cli, xrmatrix.fusion):
        monkeypatch.setattr(module, "symmetrizer", counting)
    target = tmp_path / "fusion.json"
    code = main(["fusion-report", "--n", "2", "--sign", "plus",
                 "--json", str(target)])
    assert code == 0
    assert len(built) == 3
    blob = json.loads(target.read_text())
    assert blob["dim_plus"] == 8 and blob["dim_minus"] == 8
    assert blob["basis_plus"]["shape"] == [16, 8]
    assert blob["invariance_residual"] < 1e-9
    assert blob["ybe_residual"] < 1e-8
    assert blob["ybe_elapsed_ms"] > 0


def test_check_ybe_fused_level(capsys):
    code, out = run(capsys, "check-ybe", "--level", "fused", "--n", "2",
                    "--sign", "minus", "--samples", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["check"] == "fused-ybe" and blob["pass"]
    # single-check commands time their reports as verify does
    assert blob["elapsed_ms"] > 0


def test_verify_repeated_runs_match(capsys):
    # checks run sequentially, so identical runs give identical reports
    argv = ("verify", "relations", "--samples", "3", "--seed", "11")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
        for line in text.strip().splitlines()
    ]
    assert strip(first) == strip(second)


def test_basis_serialization(nf, ps):
    from xrmatrix import fused_space
    from xrmatrix.reports import basis_to_json

    basis = fused_space(nf, 2, ps.x, 1).basis
    assert basis_to_json(basis)["shape"] == [16, 8]


# (check, seed, pass) of every report, in the order verify emits them
_ALL_WITH_CONTROLS = [
    ("relations", 7, True),
    ("lemma1", 7, True),
    ("negative:tensor-square-split", 7, True),
    ("box-ybe", 7, True),
    ("negative:box-ybe-shift0", 7, True),
    ("hecke", 7, True),
    ("hecke", 7, True),
    ("hecke", 7, True),
    ("lemma2", 7, True),
    ("lemma2", 7, True),
    ("fusion-intertwining", 7, True),
    ("projector-commutation", 7, True),
    ("negative:projector-commutation", 7, True),
    ("fusion-intertwining", 7, True),
    ("projector-commutation", 7, True),
    ("negative:projector-commutation", 7, True),
    ("fused-ybe", 7, True),
    ("negative:fused-ybe", 7, True),
    ("dynamical-ybe", 7, True),
    ("negative:dynamical-ybe", 7, True),
    ("r-forms-equal", 7, True),
    ("intertwining", 7, True),
]

# exact levels run once, symbolically; the others stay numeric
_ALL_EXACT = [
    ("relations", -1, True),
    ("lemma1", -1, True),
    ("box-ybe", -1, True),
    ("hecke", 7, True),
    ("hecke", 7, True),
    ("lemma2", 7, True),
    ("lemma2", 7, True),
    ("fusion-intertwining", 7, True),
    ("projector-commutation", 7, True),
    ("fusion-intertwining", 7, True),
    ("projector-commutation", 7, True),
    ("fused-ybe", 7, True),
    ("fused-ybe", 8, True),
    ("fused-ybe", 9, True),
    ("dynamical-ybe", 7, True),
    ("r-forms-equal", -1, True),
]


def test_verify_all_report_order(capsys):
    for argv, want in (
            (("verify", "all", "--samples", "1", "--negative-controls"),
             _ALL_WITH_CONTROLS),
            (("verify", "all", "--backend", "exact"), _ALL_EXACT)):
        code, out = run(capsys, *argv)
        assert code == 0, argv
        got = [(r["check"], r["seed"], r["pass"])
               for r in map(json.loads, out.splitlines())]
        assert got == want, argv
