import argparse
import json
import time

import pytest

from orelat import certifier, cli
from orelat import intervals as iv
from orelat import reproduce as rp
from orelat.cli import main
from orelat.errors import InvalidParameters


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestInterval:
    def test_d8_psl(self, capsys):
        code, report = run_json(capsys, "interval", "--catalog", "psl2_7/d8")
        assert code == 0
        results = report["results"]
        assert len(results["members"]) == 4
        assert results["boolean"] and results["rank"] == 2
        assert sorted(m["index"] for m in results["members"]) == [1, 7, 7, 21]

    def test_z12(self, capsys):
        code, report = run_json(capsys, "interval", "--catalog", "z12")
        assert code == 0
        assert len(report["results"]["members"]) == 6
        assert report["results"]["distributive"]

    def test_singleton(self, capsys):
        code, report = run_json(capsys, "interval", "--catalog", "s3/s3")
        assert code == 0
        assert len(report["results"]["members"]) == 1

    def test_nested_catalog_groups(self, capsys):
        code, report = run_json(capsys, "interval", "--catalog", "s4/a4")
        assert code == 0
        assert len(report["results"]["members"]) == 2

    def test_table_format(self, capsys):
        code, out = run(capsys, "interval", "--catalog", "s3/a3", "--format", "table")
        assert code == 0
        assert "members" in out


class TestTotient:
    def test_d8_psl_dual(self, capsys):
        code, report = run_json(capsys, "totient", "--catalog", "psl2_7/d8")
        assert code == 0
        assert report["results"]["dual_totient"] == 8

    def test_z12_euler(self, capsys):
        code, report = run_json(capsys, "totient", "--catalog", "z12")
        assert code == 0
        assert report["results"]["euler_totient_distributive"] == 4
        assert report["results"]["generating_cosets"] == 4


class TestPrimitive:
    def test_d8_psl(self, capsys):
        code, report = run_json(capsys, "primitive", "--catalog", "psl2_7/d8")
        assert code == 0
        assert report["results"]["linearly_primitive"] is True

    def test_v4(self, capsys):
        code, report = run_json(capsys, "primitive", "--catalog", "v4")
        assert code == 0
        assert report["results"]["linearly_primitive"] is False


class TestCertify:
    def test_concrete(self, capsys):
        code, report = run_json(capsys, "certify", "--catalog", "psl2_7/d8")
        assert code == 0
        assert report["results"]["certificate"]["verdict"] == "primitive"

    def test_scenario_9720(self, capsys):
        code, report = run_json(capsys, "certify", "--model-index", "9720")
        assert code == 0
        cert = report["results"]["certificate"]
        assert cert["verdict"] == "undecided"
        assert cert["frontier"] == [[3, 3, 3, 3, 3, 4, 10], [3, 3, 3, 3, 3, 5, 8]]

    def test_scenario_2187(self, capsys):
        code, report = run_json(capsys, "certify", "--model-index", "2187")
        assert code == 0
        assert report["results"]["certificate"]["verdict"] == "primitive"

    @pytest.mark.parametrize("flags", [["--model-rank", "5"]], ids=" ".join)
    def test_scenario_flags_without_an_index_are_an_input_error(self, capsys, flags):
        code = main(["certify", "--catalog", "z12", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "--model-rank describes a scenario and needs --model-index", "exit": 2,
        }

    @pytest.mark.parametrize("rank, index", [(9, 40), (900, 2 ** 62)], ids=["rank-9", "rank-900"])
    def test_scenario_index_below_two_to_the_rank_is_an_input_error(self, capsys, rank, index):
        code = main(["certify", "--model-rank", str(rank), "--model-index", str(index)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"index {index} is below 2^{rank}, the least index of a boolean interval of rank {rank}",
            "exit": 2,
        }

    def test_long_halving_chain_gets_a_verdict_at_any_stack_depth(self, capsys):
        argv = ["certify", "--model-rank", "1000", "--model-index", str(2 ** 1005)]

        def deeper(frames):
            return main(argv) if frames == 0 else deeper(frames - 1)

        reports = []
        for frames in (0, 50):
            code = deeper(frames)
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            reports.append(json.loads(captured.out))
        assert reports[0] == reports[1]
        certificate = reports[0]["results"]["certificate"]
        assert certificate["verdict"] == "primitive"
        assert [s["rule"] for s in certificate["steps"]] == [
            "R5-index-two-reduction", "R8-chain-type-analysis",
        ]
        assert certificate["steps"][0]["evidence"]["reduced_verdict"] == "primitive"

    def test_many_odd_factors_get_a_verdict_at_any_stack_depth(self, capsys):
        argv = ["certify", "--model-rank", "1500", "--model-index", str(3 ** 1500)]

        def deeper(frames):
            return main(argv) if frames == 0 else deeper(frames - 1)

        for frames in (0, 50):
            code = deeper(frames)
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            certificate = json.loads(captured.out)["results"]["certificate"]
            assert certificate["verdict"] == "primitive" and certificate["frontier"] == []

    def test_scenario_with_many_divisors_gets_a_verdict_in_seconds(self, capsys):
        # 3**40 at rank 7: the factor search walks its 41 divisors instead of
        # counting up to the square root of what remains at the last two factors
        start = time.perf_counter()
        code, report = run_json(capsys, "certify", "--model-rank", "7", "--model-index", str(3 ** 40))
        assert time.perf_counter() - start < 10
        assert code == 0
        certificate = report["results"]["certificate"]
        assert certificate["verdict"] == "primitive" and certificate["frontier"] == []

    @pytest.mark.parametrize("rank, index", [(7, 2 ** 127 - 1), (8, 2 * (2 ** 127 - 1))], ids=["prime", "twice"])
    def test_scenario_with_a_large_prime_factor_gets_a_verdict_in_seconds(self, capsys, rank, index):
        # no factorization exists; the factor search trial-divides only up to
        # the rank-th root at the root node, not up to the square root of the prime
        start = time.perf_counter()
        code, report = run_json(capsys, "certify", "--model-rank", str(rank), "--model-index", str(index))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert report["results"]["certificate"]["verdict"] == "primitive"

    def test_scenario_with_a_prime_cofactor_past_ten_to_the_eighteenth_gets_a_verdict(self, capsys):
        # 3**6 * (10**18 + 3): Miller-Rabin finds the cofactor prime, where
        # trial division would count to 10**9
        start = time.perf_counter()
        code, report = run_json(capsys, "certify", "--model-rank", "7", "--model-index", str(3 ** 6 * (10 ** 18 + 3)))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert report["results"]["certificate"]["verdict"] == "primitive"

    @pytest.mark.parametrize("index", [
        3 ** 6 * 10_000_000_019 * 10_000_000_033,
        3 ** 6 * 1_000_003 * 1_000_033,
    ], ids=["past-ten-to-the-tenth", "just-past-the-trial-limit"])
    def test_scenario_with_a_composite_cofactor_gets_a_verdict(self, capsys, index):
        # Miller-Rabin finds the cofactor composite and trial division stops at
        # 10**6; Brent's rho splits it, where counting on would reach 10**10
        start = time.perf_counter()
        code, report = run_json(capsys, "certify", "--model-rank", "7", "--model-index", str(index))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert report["results"]["certificate"]["verdict"] == "primitive"

    def test_scenario_with_an_unfactored_cofactor_past_the_exact_test_exits_3(self, capsys):
        # 3**6 * (10**25 + 13): Miller-Rabin is not exact past 3.3e24, and
        # trial division would count towards 3e12; it stops at the fixed limit
        start = time.perf_counter()
        code = main(["certify", "--model-rank", "7", "--model-index", str(3 ** 6 * (10 ** 25 + 13))])
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"the cofactor {10 ** 25 + 13} of the index has no prime factor up to 1,000,000 "
                     "and is past the exact primality test's bound",
            "exit": 3,
        }

    @pytest.mark.parametrize("flag, value", [("--catalog", "nosuchgroup"), ("--group-file", "group.json"),
                                             ("--subgroup-file", "subgroup.json")], ids=lambda x: x)
    def test_interval_flags_with_an_index_are_an_input_error(self, capsys, flag, value):
        code = main(["certify", flag, value, "--model-index", "2187"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"{flag} names an interval and cannot be given with --model-index", "exit": 2,
        }

    def test_long_non_uniform_chain_type_gets_a_verdict_at_any_stack_depth(self, capsys, monkeypatch):
        # one chain type, (3, ..., 3, 5, 7): its bounds walk passes 1,198 sub-types
        argv = ["certify", "--model-rank", "1200", "--model-index", str(3 ** 1198 * 5 * 7)]
        monkeypatch.setattr(certifier, "_BOUNDS_MEMO", {})

        def deeper(frames):
            return main(argv) if frames == 0 else deeper(frames - 1)

        reports = []
        for frames in (50, 0):  # the deeper call first, on an empty memo
            code = deeper(frames)
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            reports.append(json.loads(captured.out))
        assert reports[0] == reports[1]
        certificate = reports[0]["results"]["certificate"]
        assert certificate["verdict"] == "primitive" and certificate["frontier"] == []

    def test_recursion_error_exhausts_the_budget(self, capsys, monkeypatch):
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_certify", too_deep)
        code = main(["certify", "--model-index", "2187"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "maximum recursion depth exceeded", "exit": 3}


class TestBbl:
    def test_s3(self, capsys):
        code, report = run_json(capsys, "bbl", "--catalog", "s3")
        assert code == 0
        assert report["results"]["bbl"] == 2
        assert report["results"]["cfl"] == 1

    def test_between(self, capsys):
        code, report = run_json(capsys, "bbl", "--catalog", "s3/a3")
        assert code == 0
        assert report["results"]["bbl_between"] == 1


class TestGroupFiles:
    def test_roundtrip(self, tmp_path, capsys):
        doc = {"name": "sym3", "degree": 3, "generators": ["(1 2)", "(1 2 3)"]}
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(doc))
        sub = {"name": "alt3", "degree": 3, "generators": ["(1 2 3)"]}
        sub_path = tmp_path / "a3.json"
        sub_path.write_text(json.dumps(sub))
        code, report = run_json(
            capsys, "interval", "--group-file", str(path),
            "--subgroup-file", str(sub_path),
        )
        assert code == 0
        assert len(report["results"]["members"]) == 2

    def test_missing_file(self, capsys):
        assert main(["interval", "--group-file", "/nonexistent.json"]) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["interval", "--group-file", str(path)]) == 2

    @pytest.mark.parametrize("fields, message", [
        ({"degree": -1}, "'degree' must be an integer of at least 1, got -1"),
        ({"degree": 0}, "'degree' must be an integer of at least 1, got 0"),
        ({"degree": 3.7}, "'degree' must be an integer of at least 1, got 3.7"),
        ({"degree": True}, "'degree' must be an integer of at least 1, got True"),
        ({"degree": "3"}, "'degree' must be an integer of at least 1, got '3'"),
        ({"generators": "(1 2)"}, "'generators' must be a list of cycle strings"),
        ({"generators": [[1, 2]]}, "'generators' must be a list of cycle strings"),
        ({"generators": None}, "'generators' must be a list of cycle strings"),
    ], ids=["negative", "zero", "float", "bool", "string-degree", "string", "nested-list", "null"])
    def test_bad_fields_are_input_errors(self, tmp_path, capsys, fields, message):
        doc = {"name": "sym3", "degree": 3, "generators": ["(1 2)", "(1 2 3)"], **fields}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["interval", "--group-file", str(path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"group file {path}: {message}", "exit": 2,
        }

    @pytest.mark.parametrize("flag", ["--group-file", "--subgroup-file"])
    def test_catalog_with_a_file_is_an_input_error(self, tmp_path, capsys, flag):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"name": "z2", "degree": 4, "generators": ["(1 2)"]}))
        code = main(["totient", "--catalog", "s4", flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"--catalog names an interval and cannot be given with {flag}", "exit": 2,
        }

    def test_unknown_catalog(self):
        assert main(["interval", "--catalog", "nosuchgroup"]) == 2

    def test_cap_exceeded(self, tmp_path):
        doc = {"name": "sym5", "degree": 5, "generators": ["(1 2)", "(1 2 3 4 5)"]}
        path = tmp_path / "s5.json"
        path.write_text(json.dumps(doc))
        assert main(["interval", "--group-file", str(path), "--cap", "10"]) == 3

    def test_group_past_the_table_limit_exits_3(self, capsys, monkeypatch, tmp_path):
        # the limit lowered to 8 stands in for 65,536, so Z3 x Z3 (order 9) is past it
        monkeypatch.setattr(iv, "_MAX_TABLE_ORDER", 8)
        iv._ambient_memo.cache_clear()
        doc = {"name": "z3xz3", "degree": 6, "generators": ["(1 2 3)", "(4 5 6)"]}
        path = tmp_path / "z3xz3.json"
        path.write_text(json.dumps(doc))
        assert main(["interval", "--group-file", str(path)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "group of order 9 exceeds the multiplication table's limit of 8 elements", "exit": 3,
        }

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_cap_below_one_is_an_input_error(self, capsys, cap):
        assert main(["interval", "--catalog", "z12", "--cap", cap]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"--cap must be at least 1, got {cap}", "exit": 2,
        }

    def test_no_selection(self):
        assert main(["interval"]) == 2

    def test_internal_error_exits_4(self, capsys, monkeypatch):
        from orelat import characters
        from orelat.errors import ValidationFailed

        def failing_table(*args, **kwargs):
            raise ValidationFailed("row orthogonality failed")

        monkeypatch.setattr(characters, "character_table", failing_table)
        assert main(["primitive", "--catalog", "s3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "row orthogonality failed", "exit": 4}


class TestReproduce:
    def test_choices_are_the_registry_and_all(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        target = next(a for a in sub.choices["reproduce"]._actions if a.dest == "target")
        assert list(target.choices) == [*rp.TARGETS, "all"]

    def test_all_runs_the_flagged_rows_in_table_order(self):
        results, claims = rp.run_target("all")
        flagged = [name for name, (_, in_all) in rp.TARGETS.items() if in_all]
        assert list(results) == flagged
        assert "main-theorem" not in flagged
        assert list(dict.fromkeys(c["id"].split(":")[0] for c in claims)) == flagged

    def test_main_theorem_passes(self, capsys):
        code, report = run_json(capsys, "reproduce", "main-theorem")
        assert code == 0
        assert report["claims"] and all(c["pass"] for c in report["claims"])

    def test_unknown_target_is_invalid_parameters(self):
        with pytest.raises(InvalidParameters) as exc:
            rp.run_target("nosuch")
        assert str(exc.value) == f"unknown target 'nosuch'; choose from {', '.join(rp.TARGETS)} or all"

    def test_factor_list_passes(self, capsys):
        code, report = run_json(capsys, "reproduce", "factor-list")
        assert code == 0
        assert report["passed"] is True
        assert all(c["pass"] for c in report["claims"])
        assert all("paper_location" in c for c in report["claims"])

    def test_reports_are_deterministic(self, capsys):
        _, first = run(capsys, "reproduce", "factor-list")
        _, second = run(capsys, "reproduce", "factor-list")
        assert first == second

    def test_cap_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "rank2-table", "--cap", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err

    def test_table_rendering(self, capsys):
        code, out = run(capsys, "reproduce", "factor-list", "--format", "table")
        assert code == 0
        assert "[pass]" in out and "overall: pass" in out

    def test_rank2_census_violation_fails_the_claim(self, capsys, monkeypatch):
        from orelat import certifier

        monkeypatch.setattr(certifier, "census_pattern_holds", lambda quad: quad != (7, 7, 4, 4))
        code, report = run_json(capsys, "reproduce", "rank2-table")
        assert code == 1
        assert report["passed"] is False
        claim = next(c for c in report["claims"] if c["id"] == "pattern-holds")
        assert claim["expected"] is True and claim["actual"] is False
        violations = report["results"]["pattern_violations"]
        assert violations and all(v["quadruple"] == [7, 7, 4, 4] for v in violations)
        assert all(v["where"].startswith("psl2_7[") for v in violations)
