"""Command line contract: subcommands, JSON outputs, and exit codes.

Exit codes: 0 pass, 1 violations or negative findings, 2 bad input,
3 cap exceeded.
"""

import gc
import hashlib
import json
import re
import threading

import pytest

from fpmap.cli import main, render_report
from fpmap.duality import convergent_line_space
from fpmap.errors import InputError
from fpmap.fpcore import GroupElement, Prime, Truncation
from fpmap.norms import random_metric_space
from fpmap.pipeline import STAGE_KEYS
from fpmap import fpcore, jsonio, norms


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def graded_run_cfg():
    return {
        "prime": 2,
        "dim": 4,
        "norm": {"kind": "cost_completion", "prime": 2, "dim": 4,
                 "seed": 0, "graded": True},
        "limits": {"l": 1, "m": 4},
    }


def violating_table_norm():
    tr = Truncation(2, 2)
    both = tr.rank_of(GroupElement.make(2, [(1, 1), (2, 1)]))
    entries = []
    for r in range(1, tr.size):
        value = "1/1" if r == both else "1/3"
        entries.append({"element": jsonio.element_to_pairs(tr.element_of(r)),
                        "value": value})
    return {"kind": "table", "prime": 2, "dim": 2, "entries": entries}


def stopped_run(capsys):
    """(the stages of its timing lines, its last line) of the stderr of a
    command that stops on an error: a run whose build began prints the
    stages it timed first."""
    *timed, last = capsys.readouterr().err.splitlines()
    assert all(re.fullmatch(r"timing \w+: \d+\.\d{3}s", line) for line in timed)
    return [line.split()[1].rstrip(":") for line in timed], last


def runs_under_env(monkeypatch, capsys, name, values, argv):
    """(exit code, captured output) of argv without name set, then with name
    set to each of values in turn."""
    runs = [(main(argv), capsys.readouterr())]
    for value in values:
        monkeypatch.setenv(name, value)
        runs.append((main(argv), capsys.readouterr()))
    return runs


def stdout_doc(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestRun:
    def test_pass_run_to_stdout(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        assert main(["run", "--config", cfg]) == 0
        doc = stdout_doc(capsys)
        assert doc["verdict"] == "pass"
        assert doc["timings"] is None

    def test_out_file_and_timings_on_stderr(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timing axioms:" in captured.err
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"

    def test_byte_identical_across_invocations(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        two = write_json(tmp_path / "run2.json", dict(graded_run_cfg(), threads=2))
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", two, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_include_timings_embeds_floats(self, tmp_path, capsys):
        # no option embeds timings in a report: argparse refuses the retired
        # flag, as it refuses --threads, and writes no report
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        out = tmp_path / "timed.json"
        assert main(["run", "--config", cfg, "--out", str(out), "--include-timings"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fpmap") and "Traceback" not in err
        assert err.endswith("error: unrecognized arguments: --include-timings\n")
        assert not out.exists()

    @pytest.mark.parametrize("norm, error", [
        ({"kind": "ultrametric", "prime": 2, "dim": 2, "weights": ["1/2"]},
         "error: need 2 weights, got 1"),
        ({"kind": "ultrametric", "prime": 2, "dim": 3},
         "error: config dim 2 does not match the norm's 3"),
    ], ids=["weights", "dim-mismatch"])
    def test_a_run_stopped_in_its_build_prints_its_timing(self, tmp_path, capsys, norm, error):
        cfg = write_json(tmp_path / "run.json", {"prime": 2, "dim": 2, "norm": norm})
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert stopped_run(capsys) == (["build"], error)
        assert not out.exists()

    def test_a_report_that_cannot_be_written_prints_every_timing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run.json" / "r")]) == 2
        timed, last = stopped_run(capsys)
        assert timed == ["build", *STAGE_KEYS]
        assert last.startswith("error: ")

    def test_violations_exit_one(self, tmp_path):
        run = {"prime": 2, "dim": 2, "norm": violating_table_norm(),
               "limits": {"m": 2}}
        cfg = write_json(tmp_path / "viol.json", run)
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "fail"
        assert doc["stages"]["axioms"]["violations"]

    def test_exhausted_exit_one_with_error_field(self, tmp_path):
        run = {
            "prime": 2, "dim": 4,
            "norm": {"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0,
                     "low": "1/262144", "high": "1/8192"},
            "limits": {"m": 4},
        }
        cfg = write_json(tmp_path / "run.json", run)
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["error"]["kind"] == "exhausted"
        assert doc["stages"]["selection"] is None


    def test_repeated_calls_leave_no_parser_cycles(self, tmp_path, capsys):
        # a parser built per call left about 300 objects in reference cycles
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() < 100
        finally:
            gc.enable()


class TestInputAndCapExits:
    def test_missing_file(self, capsys):
        assert main(["validate-norm", "--config", "/nonexistent/cfg.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        assert main(["validate-norm", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"kind": "ultra\xffmetric", "prime": 2, "dim": 2}',
        b'{"kind": "ultrametric", "prime": ' + b"7" * 5000 + b', "dim": 2}',
        b"[" * 200_000 + b"]" * 200_000,
    ], ids=["not-utf-8", "5000-digit-int", "200000-deep-array"])
    def test_undecodable_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert main(["validate-norm", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON: ")
        assert captured.err.count("\n") == 1

    def test_out_under_a_regular_file_exits_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json", {"kind": "ultrametric", "prime": 2, "dim": 2})
        assert main(["validate-norm", "--config", cfg, "--out", f"{cfg}/out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert err.count("\n") == 1

    def test_non_prime(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 6, "dim": 3})
        assert main(["validate-norm", "--config", cfg]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 3, "speed": 9})
        assert main(["validate-norm", "--config", cfg]) == 2

    def test_enum_cap_exit_three(self, tmp_path, capsys):
        run = dict(graded_run_cfg(), caps={"enum": 5})
        cfg = write_json(tmp_path / "run.json", run)
        assert main(["run", "--config", cfg]) == 3
        assert "cap 5" in capsys.readouterr().err

    def test_ultrametric_enum_cap_exit_three_at_build(self, tmp_path, capsys):
        # the value table is built with the norm, so the cap stops stage build
        run = {"prime": 2, "dim": 5, "caps": {"enum": 31},
               "norm": {"kind": "ultrametric", "prime": 2, "dim": 5}}
        assert main(["run", "--config", write_json(tmp_path / "run.json", run)]) == 3
        assert stopped_run(capsys) == (
            ["build"], "error: stage build: truncation has 32 elements, above cap 31")

    @pytest.mark.parametrize("dim, caps, max_tuple, timed, err", [
        # the norm builds its table, so the enum cap stops stage build, as
        # for the ultrametric norm
        (5, {"enum": 31}, 4, ["build"],
         "stage build: truncation has 32 elements, above cap 31"),
        # 13 to 23 points fit the default enum cap (test_graev_matching_cap_edge
        # runs 13), and 24 points pass it
        (24, {}, 4, ["build"],
         "stage build: truncation has 16777216 elements, above cap 10000000"),
        # and 13 points a cap of 31
        (13, {"enum": 31}, 1, ["build"],
         "stage build: truncation has 8192 elements, above cap 31"),
        # a table that fits the cap: words of up to 4 indices take 5568
        # triples, checked right after the build
        (12, {"enum": 4096}, 4, ["build"],
         "stage member_word_bound: bound scan needs ~5568 evaluations, above cap 4096"),
    ], ids=["inside-matching-cap", "past-matching-cap", "past-both-caps",
            "member-bound-before-axioms"])
    def test_graev_enum_cap_either_side_of_the_matching_cap(self, tmp_path, capsys, dim, caps,
                                                           max_tuple, timed, err):
        run = {"prime": 2, "dim": dim, "caps": caps, "limits": {"max_tuple": max_tuple},
               "norm": {"kind": "graev_boolean",
                        "space": random_metric_space(1, dim + 1, 1, 3).to_json_dict()}}
        assert main(["run", "--config", write_json(tmp_path / "run.json", run)]) == 3
        assert stopped_run(capsys) == (timed, f"error: {err}")

    def test_graev_matching_cap_edge(self, tmp_path, capsys):
        # the enum cap is a Graev table's one cap: dim 13 validates and runs
        # (to exhaustion, exit 1), and dim 24 passes the default cap and exits
        # 3 in the build, before any subset DP
        def space(n_points):
            return random_metric_space(1, n_points, 1, 3).to_json_dict()

        for n_points, code in ((14, 0), (25, 3)):
            norm = {"kind": "graev_boolean", "space": space(n_points)}
            assert main(["validate-norm", "--config", write_json(tmp_path / "g.json", norm)]) == code
        assert capsys.readouterr().err == (
            "error: stage build: truncation has 16777216 elements, above cap 10000000\n")
        def run(n_points):
            doc = {"prime": 2, "dim": n_points - 1,
                   "norm": {"kind": "graev_boolean", "space": space(n_points)}}
            return main(["run", "--config", write_json(tmp_path / "run.json", doc)])

        assert run(14) == 1
        capsys.readouterr()
        assert run(25) == 3
        assert stopped_run(capsys) == (
            ["build"], "error: stage build: truncation has 16777216 elements, above cap 10000000")

    @pytest.mark.parametrize("listed", ["well-formed", "not-an-array", "bad-entries"])
    @pytest.mark.parametrize("kind, key", [("table", "entries"), ("cost_completion", "costs"),
                                           ("ultrametric", "weights")],
                             ids=["table", "costs", "weights"])
    def test_an_over_cap_list_is_refused_before_its_entries(self, tmp_path, monkeypatch, capsys,
                                                            kind, key, listed):
        # a dim-30 norm exits 3 on its truncation before any entry of its list
        # is parsed, so a list that would not parse exits 3 too
        def reached(*args, **kwargs):
            raise AssertionError("parsed an entry of an over-cap list")

        monkeypatch.setattr(jsonio, "element_from_pairs", reached)
        monkeypatch.setattr(jsonio, "frac_from_str", reached)
        entry = "1/1" if key == "weights" else {"element": [[1, 1]], "value": "1/1"}
        items = {"well-formed": [entry] * 3000, "not-an-array": "x",
                 "bad-entries": [7, {"element": "x"}]}[listed]
        cfg = write_json(tmp_path / "n.json", {"kind": kind, "prime": 2, "dim": 30, key: items})
        assert main(["validate-norm", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: stage build: truncation has 1073741824 elements, above cap 10000000\n")

    @pytest.mark.parametrize("kind, key", [("table", "entries"), ("cost_completion", "costs"),
                                           ("ultrametric", "weights")],
                             ids=["table", "costs", "weights"])
    def test_a_bad_dim_is_named_before_a_malformed_list(self, tmp_path, capsys, kind, key):
        cfg = write_json(tmp_path / "n.json", {"kind": kind, "prime": 2, "dim": 0, key: "x"})
        assert main(["validate-norm", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: dimension must be a positive integer, got 0\n")


class TestEnvOverrides:
    def test_enum_cap_env_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPMAP_ENUM_CAP", "5")
        cfg = write_json(tmp_path / "run.json",
                         dict(graded_run_cfg(), caps={"enum": 1000}))
        assert main(["run", "--config", cfg]) == 3

    @pytest.mark.parametrize("caps", [5, [["enum", 5]]])
    def test_malformed_caps_with_env_cap(self, tmp_path, monkeypatch, capsys, caps):
        monkeypatch.setenv("FPMAP_ENUM_CAP", "100")
        cfg = write_json(tmp_path / "run.json", dict(graded_run_cfg(), caps=caps))
        assert main(["run", "--config", cfg]) == 2
        assert "caps must be a JSON object" in capsys.readouterr().err

    def test_bad_env_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FPMAP_ENUM_CAP", "banana")
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 3})
        assert main(["validate-norm", "--config", cfg]) == 2
        assert "FPMAP_ENUM_CAP" in capsys.readouterr().err

    def test_prime_cap_env(self, tmp_path, monkeypatch, capsys):
        # the prime cap is the constant 97: FPMAP_PRIME_CAP is not read
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 5, "dim": 2})
        first, *others = runs_under_env(monkeypatch, capsys, "FPMAP_PRIME_CAP", ["3", "x"],
                                        ["validate-norm", "--config", cfg])
        assert first[0] == 0 and others == [first, first]

    def test_prime_cap_env_ends_with_the_call(self, tmp_path, monkeypatch, capsys):
        # nor does it raise the cap, in the call or after it
        monkeypatch.setenv("FPMAP_PRIME_CAP", "200")
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 101, "dim": 1})
        assert main(["validate-norm", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: prime must lie in [2, 97], got 101\n"
        assert fpcore.PRIME_CAP == 97 and Prime(97).p == 97
        with pytest.raises(InputError, match=r"prime must lie in \[2, 97\], got 101"):
            Prime(101)

    GRADED_5_3 = {"kind": "cost_completion", "prime": 5, "dim": 3, "seed": 0, "graded": True}

    @pytest.mark.parametrize("args", [
        ["reduce"], ["extract", "--length", "2"], ["modulus", "--l", "1", "--m", "2"],
    ], ids=["reduce", "extract", "modulus"])
    def test_an_enum_cap_at_the_size_reaches_past_the_reduction(self, tmp_path, monkeypatch,
                                                                 capsys, args):
        # 5^3 words fit a cap of 125; the reduction's 5^3 - 1 candidates need no
        # check of their own, so the output is the default cap's
        cfg = write_json(tmp_path / "n.json", self.GRADED_5_3)
        runs = []
        for cap in (None, "125"):
            if cap is not None:
                monkeypatch.setenv("FPMAP_ENUM_CAP", cap)
            runs.append((main([args[0], "--config", cfg, *args[1:]]), capsys.readouterr()))
        assert runs[0][0] == 0 and runs[1] == runs[0]

    def test_an_enum_cap_at_the_size_stops_the_member_bound(self, tmp_path, monkeypatch,
                                                            capsys):
        # the member bound counts (word, depth, scalar) triples, which can
        # pass the size, so it keeps its own check
        monkeypatch.setenv("FPMAP_ENUM_CAP", "125")
        cfg = write_json(tmp_path / "run.json", {"prime": 5, "dim": 3, "norm": self.GRADED_5_3})
        assert main(["run", "--config", cfg]) == 3
        assert stopped_run(capsys) == (
            ["build"], "error: stage member_word_bound: bound scan needs ~1500 evaluations, "
                       "above cap 125")

    @pytest.mark.parametrize("command, timed, err", [
        (["run"], ["build"],
         "error: stage member_word_bound: bound scan needs ~8 evaluations, above cap 4"),
        (["verify"], [],
         "error: stage member_word_bound: bound scan needs ~8 evaluations, above cap 4"),
    ], ids=["run", "verify"])
    def test_the_member_bound_estimate_comes_before_the_axioms(self, tmp_path, monkeypatch,
                                                              capsys, command, timed, err):
        # a norm that fails its axioms stopped the chain (exit 1) before the
        # member bound was reached; its estimate is now checked right after
        # the build, while validate-norm, which does not scan it, still exits 1
        monkeypatch.setenv("FPMAP_ENUM_CAP", "4")
        norm = violating_table_norm()
        doc = {"prime": 2, "dim": 2, "norm": norm} if command == ["run"] else norm
        cfg = write_json(tmp_path / "c.json", doc)
        assert main([*command, "--config", cfg]) == 3
        assert stopped_run(capsys) == (timed, err)
        norm_cfg = write_json(tmp_path / "n.json", norm)
        assert main(["validate-norm", "--config", norm_cfg]) == 1
        # malformed input still exits 2 first
        assert main([*command, "--config", write_json(tmp_path / "bad.json",
                                                       dict(doc, extra=1))]) == 2
        assert main(["verify", "--config", norm_cfg, "--limits", "m=1"]) == 2
        assert capsys.readouterr().err.endswith("error: unknown limit 'm=1'; expected n=<int>\n")

    def test_matching_cap_env_reaches_graev(self, tmp_path, monkeypatch, capsys):
        # FPMAP_MATCHING_CAP is not read: the 3-point norm validates under any value
        space = convergent_line_space(2)
        cfg = write_json(tmp_path / "g.json",
                         {"kind": "graev_boolean", "space": space.to_json_dict()})
        first, *others = runs_under_env(monkeypatch, capsys, "FPMAP_MATCHING_CAP", ["2", "x"],
                                        ["validate-norm", "--config", cfg])
        assert first[0] == 0 and others == [first, first]


class TestValidateNorm:
    def test_clean_norm(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 3})
        assert main(["validate-norm", "--config", cfg]) == 0
        doc = stdout_doc(capsys)
        assert doc["ok"] is True
        assert doc["violations"] == []

    def test_violating_norm(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json", violating_table_norm())
        assert main(["validate-norm", "--config", cfg]) == 1
        doc = stdout_doc(capsys)
        assert doc["ok"] is False
        assert doc["violations"][0]["axiom"] == 3

    def test_entries_as_mapping_is_input_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "table", "prime": 2, "dim": 2,
                          "entries": {"10": "1/3", "01": "1/3", "11": "1/1"}})
        assert main(["validate-norm", "--config", cfg]) == 2
        assert "entries must be a JSON array" in capsys.readouterr().err


class TestReduceVerify:
    def test_reduce_then_verify_roundtrip(self, tmp_path, capsys):
        norm_cfg = {"kind": "cost_completion", "prime": 2, "dim": 4,
                    "seed": 0, "graded": True}
        cfg = write_json(tmp_path / "n.json", norm_cfg)
        red = tmp_path / "red.json"
        assert main(["reduce", "--config", cfg, "--out", str(red)]) == 0
        doc = json.loads(red.read_text())
        assert doc["norm"] == norm_cfg
        assert len(doc["reduced"]["steps"]) == 4
        assert main(["verify", "--reduced", str(red)]) == 0
        ver = stdout_doc(capsys)
        assert ver["properties"]["ok"] is True
        assert ver["member_word_bound"]["ok"] is True
        assert ver["pair_domination"]["ok"] is True

    def test_lemma_selection(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 3})
        assert main(["verify", "--config", cfg, "--lemma", "1",
                     "--limits", "n=3"]) == 0
        doc = stdout_doc(capsys)
        assert doc["properties"] is None
        assert doc["pair_domination"] is None
        assert "up to 3 distinct" in doc["member_word_bound"]["domain"]

    def test_bad_limits_token(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 3})
        assert main(["verify", "--config", cfg, "--limits", "q=4"]) == 2
        assert "unknown limit" in capsys.readouterr().err
        assert main(["verify", "--config", cfg, "--limits", "n=x"]) == 2

    @pytest.mark.parametrize("lemma", ["props", "1", "2", "all"])
    def test_reduced_basis_past_the_norms_dim_exits_two(self, tmp_path, capsys, lemma):
        # every checker reads the norm's table, whose rank_of refuses index 3
        cfg = write_json(tmp_path / "n.json", {"kind": "ultrametric", "prime": 3, "dim": 2})
        red = tmp_path / "red.json"
        assert main(["reduce", "--config", cfg, "--out", str(red)]) == 0
        doc = json.loads(red.read_text())
        for key in ("original", "reduced"):
            doc["reduced"][key][1] = [[3, 1]]
        doc["reduced"]["steps"][1]["element"] = [[3, 1]]
        argv = ["verify", "--reduced", write_json(red, doc), "--lemma", lemma]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: index 3 outside truncation of dimension 2\n")

    def test_a_longer_basis_past_the_norms_dim_exits_two_under_a_cap_at_its_size(
            self, tmp_path, monkeypatch, capsys):
        # the basis's 3^3 words pass a cap of 9, but the norm's truncation
        # refuses index 3 before any of them is formed
        cfg = write_json(tmp_path / "n.json", {"kind": "ultrametric", "prime": 3, "dim": 3})
        red = tmp_path / "red.json"
        assert main(["reduce", "--config", cfg, "--out", str(red)]) == 0
        doc = json.loads(red.read_text())
        doc["norm"]["dim"] = 2
        monkeypatch.setenv("FPMAP_ENUM_CAP", "9")
        assert main(["verify", "--reduced", write_json(red, doc), "--lemma", "props"]) == 2
        assert capsys.readouterr().err == "error: index 3 outside truncation of dimension 2\n"

    def test_verify_needs_a_source(self, capsys):
        assert main(["verify"]) == 2
        assert capsys.readouterr().err.endswith(
            "fpmap verify: error: one of the arguments --config --reduced is required\n")

    def test_verify_refuses_both_sources(self, tmp_path, capsys):
        # both are refused, even where --config names no file
        cfg = write_json(tmp_path / "n.json", {"kind": "ultrametric", "prime": 2, "dim": 3})
        red = tmp_path / "red.json"
        assert main(["reduce", "--config", cfg, "--out", str(red)]) == 0
        for config in (cfg, str(tmp_path / "missing.json")):
            assert main(["verify", "--config", config, "--reduced", str(red)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith("fpmap verify: error: argument --reduced: "
                                         "not allowed with argument --config\n")


class TestExtractModulus:
    def test_extract_graded(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "cost_completion", "prime": 2, "dim": 4,
                          "seed": 0, "graded": True})
        assert main(["extract", "--config", cfg, "--length", "4"]) == 0
        doc = stdout_doc(capsys)
        assert doc["selection"]["maxes"] == [1, 2, 3, 4]
        assert doc["family"]["indices"] == [1, 2, 3, 4]

    def test_extract_exhaustion_is_a_finding(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 3})
        assert main(["extract", "--config", cfg, "--length", "2"]) == 1
        assert "finding:" in capsys.readouterr().err

    def test_modulus_chain(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "cost_completion", "prime": 2, "dim": 4,
                          "seed": 0, "graded": True})
        assert main(["modulus", "--config", cfg, "--l", "1", "--m", "4"]) == 0
        doc = stdout_doc(capsys)
        assert doc["ok"] is True
        assert doc["delta"] == "1/8"


class TestDuality:
    def topo(self, tmp_path):
        return write_json(tmp_path / "topo.json", {
            "kind": "elements", "prime": 2, "dim": 3,
            "base": [[[[3, 1]]]],
        })

    def test_map_report(self, tmp_path, capsys):
        assert main(["duality", "--check", "map", "--spec", self.topo(tmp_path),
                     "--prime", "2", "--dim", "3"]) == 0
        doc = stdout_doc(capsys)
        assert doc["is_map"] is False
        assert doc["kernel_basis"] == [[[3, 1]]]

    def test_kernel_report(self, tmp_path, capsys):
        assert main(["duality", "--check", "kernel",
                     "--spec", self.topo(tmp_path)]) == 0
        doc = stdout_doc(capsys)
        assert doc == {"dim": 3, "kernel_basis": [[[3, 1]]], "prime": 2}

    @pytest.mark.parametrize("base", ["well-formed", "not-an-array", "bad-sets"])
    def test_an_over_cap_elements_spec_is_refused_before_its_sets(self, tmp_path, monkeypatch,
                                                                  capsys, base):
        # the base sets are read after the cap check, as a norm's lists are,
        # and the error has no stage
        def reached(*args, **kwargs):
            raise AssertionError("parsed an element of an over-cap spec")

        monkeypatch.setattr(jsonio, "element_from_pairs", reached)
        sets = {"well-formed": [[[[1, 1]]] * 3000, [[[2, 1]]]], "not-an-array": "x",
                "bad-sets": [7, ["x"]]}[base]
        spec = write_json(tmp_path / "topo.json",
                          {"kind": "elements", "prime": 2, "dim": 30, "base": sets})
        assert main(["duality", "--check", "map", "--spec", spec]) == 3
        assert capsys.readouterr().err == (
            "error: truncation has 1073741824 elements, above cap 10000000\n")

    def test_balls_over_a_graev_norm_past_its_matching_cap(self, tmp_path, capsys):
        # a norm of 13 non-basepoint points builds when the spec does; one of
        # 24 passes the default enum cap and is refused
        for n_points, code in ((14, 0), (25, 3)):
            norm = {"kind": "graev_boolean",
                    "space": random_metric_space(1, n_points, 1, 3).to_json_dict()}
            spec = write_json(tmp_path / "balls.json",
                              {"kind": "balls", "norm": norm, "radii": ["2"]})
            assert main(["duality", "--check", "map", "--spec", spec]) == code
        assert capsys.readouterr().err == (
            "error: truncation has 16777216 elements, above cap 10000000\n")

    @pytest.mark.parametrize("check", ["map", "kernel"])
    def test_matching_cap_env_reaches_a_balls_norm(self, tmp_path, monkeypatch, capsys, check):
        # FPMAP_MATCHING_CAP is not read, and a balls spec's descriptor that
        # names a matching cap exits 2 as validate-norm does on it
        norm = {"kind": "graev_boolean", "space": random_metric_space(1, 5, 1, 3).to_json_dict()}
        spec = write_json(tmp_path / "balls.json",
                          {"kind": "balls", "norm": norm, "radii": ["2"]})
        first, other = runs_under_env(monkeypatch, capsys, "FPMAP_MATCHING_CAP", ["2"],
                                      ["duality", "--check", check, "--spec", spec])
        assert first[0] == 0 and other == first
        norm = dict(norm, matching_cap=4)
        spec = write_json(tmp_path / "balls.json",
                          {"kind": "balls", "norm": norm, "radii": ["2"]})
        for argv in (["duality", "--check", check, "--spec", spec],
                     ["validate-norm", "--config", write_json(tmp_path / "n.json", norm)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: norm config has unknown key(s): matching_cap\n")

    def test_prime_cross_check(self, tmp_path, capsys):
        assert main(["duality", "--check", "map", "--spec", self.topo(tmp_path),
                     "--prime", "3"]) == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["map", "kernel", "coarser"])
    def test_cross_check_messages(self, tmp_path, capsys, check):
        # coarser reads a run config, map and kernel a topology spec
        if check == "coarser":
            spec, whose, dim = write_json(tmp_path / "run.json", graded_run_cfg()), "config", 4
        else:
            spec, whose, dim = self.topo(tmp_path), "spec", 3
        argv = ["duality", "--check", check, "--spec", spec]
        assert main(argv + ["--prime", "3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: --prime 3 does not match the {whose}'s 2\n")
        assert main(argv + ["--dim", "7"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: --dim 7 does not match the {whose}'s {dim}\n")
        assert main(argv + ["--prime", "2", "--dim", str(dim)]) == 0

    # sha256 of the stdout of each check, captured from the enumeration over
    # every dual vector that the span linear algebra replaced
    PINNED = {
        "balls": ({"kind": "balls", "norm": {"kind": "ultrametric", "prime": 2, "dim": 13},
                   "radii": ["1/4", "1/9"]}, 2 ** 13, {
            "map": "58bc7c32397c7e472c7a488e9209dffb6a97d780a501ce2735f44dabe996b939",
            "kernel": "7f202b135c9252ec6514131cb4bcd1631a62ff01e54462c1d7404273a2152683"}),
        "seeded": ({"kind": "seeded", "prime": 3, "dim": 5, "seed": 10}, 3 ** 5, {
            "map": "daf21713fc8e5ef1a62ff43744d4e3f11c3af1f0784382e664bba12dd38a2680",
            "kernel": "92ed7cf0396e356908e1a9767d2be52fb4549615afeb1635fbcff83cb3a64e27"}),
    }

    @pytest.mark.parametrize("check", ["map", "kernel"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_report_bytes(self, tmp_path, capsys, name, check):
        spec, _, digests = self.PINNED[name]
        assert main(["duality", "--check", check,
                     "--spec", write_json(tmp_path / "spec.json", spec)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digests[check]

    @pytest.mark.parametrize("check", ["map", "kernel"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_enum_cap_below_the_size_exits_three(self, tmp_path, monkeypatch, capsys,
                                                 name, check):
        spec, size, _ = self.PINNED[name]
        monkeypatch.setenv("FPMAP_ENUM_CAP", str(size - 1))
        assert main(["duality", "--check", check,
                     "--spec", write_json(tmp_path / "spec.json", spec)]) == 3
        assert f"above cap {size - 1}" in capsys.readouterr().err

    def test_coarser_uses_run_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        assert main(["duality", "--check", "coarser", "--spec", cfg]) == 0
        doc = stdout_doc(capsys)
        assert doc["violations"] == []
        assert doc["m"] == 4


class TestDemoAndReport:
    def test_demo_boolean(self, capsys):
        assert main(["demo-boolean", "--points", "100"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["certificate"]["counterexample"] is True
        assert doc["certificate"]["min_bad_value"] == "1/9900"
        # these bytes pin the cover DP on each word's block of the line and
        # epsilon_delta_certificate on 101 non-basepoint points, whose table
        # would pass the enum cap
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "caddc192176f444d22a13396ba75249edd88159fff97eef23773b05bbdb1a328"

    @pytest.mark.parametrize("points, digest", [
        (2, "84c8056f1fe7e452cff34040974d23d5073c5049117bd9fba03894e3ba96fe6f"),
        (3, "daf275ba86b97d05fffad7d34852b9c0e50d4401b7871d41ba88b0aaecdaad69"),
        (5, "14b993608b9c7055967069898e8fe2d1ad0203cdab346d8786bf973e012e7fdf"),
        (11, "ce0d2846c4290a4830fb5f54daaebb96c6e6c24b6ce0a5c3de329773c5280d4a"),
        (12, "d3001a280dfc9460d5d89eff4f9be9218827bc23ac79a08c0d58dd99cc3eaf63"),
        (40, "12d88ae72d39a3af6aa313a39e3b6b430cc795ca66aadfa43b20f70aef7c00be"),
    ])
    def test_demo_boolean_bytes(self, capsys, points, digest):
        # 11 and 12 points make spaces of 12 and 13 non-basepoint points,
        # whose Graev tables fit the enum cap: the demo values the words of
        # both from their blocks of line coordinates, as at every other size
        assert main(["demo-boolean", "--points", str(points)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("env, code, err", [
        ({"FPMAP_ENUM_CAP": "4"}, 3,
         "error: certificate scan needs ~21 combinations, above cap 4\n"),
        ({"FPMAP_ENUM_CAP": "21"}, 0, ""),
        ({"FPMAP_MATCHING_CAP": "1"}, 0, ""),
    ], ids=["enum", "estimate", "matching"])
    def test_demo_boolean_takes_the_environment_caps(self, monkeypatch, capsys, env, code,
                                                     err):
        # 5 points make 6 terms, whose certificate scan takes 21 combinations:
        # the enum cap bounds that estimate and no table, so a cap of 21 runs
        # the demo. FPMAP_MATCHING_CAP is not read, so it leaves the output
        # as it is
        assert main(["demo-boolean", "--points", "5"]) == 0
        default = capsys.readouterr().out
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["demo-boolean", "--points", "5"]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ("" if code else default)

    def test_demo_boolean_at_the_default_caps(self, monkeypatch, capsys):
        runs = []
        for env in ({}, {"FPMAP_ENUM_CAP": "10000000"}):
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            runs.append((main(["demo-boolean", "--points", "12"]), capsys.readouterr()))
        assert runs[0][0] == 0 and runs[1] == runs[0]

    def test_demo_boolean_bad_points(self, capsys):
        assert main(["demo-boolean", "--points", "1"]) == 2

    @pytest.mark.parametrize("argv, code, err", [
        # 5001 terms take 12507501 combinations, refused before the line's
        # coordinates are formed
        (["--points", "5000"], 3,
         "error: certificate scan needs ~12507501 combinations, above cap 10000000\n"),
        # 1/8^5000 has more digits than str() writes
        (["--points", "2", "--depth", "5000"], 2,
         "error: search_depth 5000 gives the grid value 1/8^5000 more than 4300 digits\n"),
        (["--points", "2", "--depth", "0"], 2, "error: search_depth must be at least 1, got 0\n"),
    ], ids=["points-5000", "depth-5000", "depth-0"])
    def test_demo_boolean_checks_the_certificate_first(self, capsys, monkeypatch, argv, code,
                                                       err):
        monkeypatch.setattr("fpmap.duality._line_coordinates", None)  # never reached
        assert main(["demo-boolean", *argv]) == code
        assert capsys.readouterr() == ("", err)

    def test_report_renders_pass(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        out = tmp_path / "report.json"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict: pass" in text
        assert "reduction: 4 steps" in text
        assert "modulus: l=1 m=4" in text

    def test_report_fail_exit(self, tmp_path, capsys):
        run = {"prime": 2, "dim": 2, "norm": violating_table_norm(),
               "limits": {"m": 2}}
        cfg = write_json(tmp_path / "viol.json", run)
        out = tmp_path / "report.json"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        text = capsys.readouterr().out
        assert "verdict: fail" in text
        assert "reduction: (not run)" in text

    @pytest.mark.parametrize("doc, err", [
        ([], "run report must be a JSON object, got list"),
        ({"stages": {"axioms": {}}},
         "run report is missing required key(s): config, verdict, error, timings"),
    ], ids=["array", "stages-only"])
    def test_report_refuses_a_document_that_is_not_a_run_report(self, tmp_path, capsys,
                                                                  doc, err):
        assert main(["report", write_json(tmp_path / "doc.json", doc)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    @pytest.mark.parametrize("stage, value, err", [
        ("axioms", {}, "KeyError('elements_checked')"),
        ("modulus", {"l": 1}, "KeyError('m')"),
        ("coarser", [], "TypeError('list indices must be integers or slices, not str')"),
    ])
    def test_report_refuses_a_stage_the_view_cannot_read(self, tmp_path, capsys,
                                                          stage, value, err):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["stages"][stage] = value
        assert main(["report", write_json(out, doc)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: malformed run report: {err}\n")

    def test_render_report_shows_error(self):
        doc = {
            "verdict": "fail",
            "config": {"prime": 2, "dim": 4, "norm": {"kind": "cost_completion"}},
            "error": {"stage": "selection", "kind": "exhausted",
                      "message": "no qualifying subsequence"},
            "stages": {k: None for k in (
                "axioms", "reduction", "properties", "member_word_bound",
                "pair_domination", "selection", "family", "modulus", "coarser")},
            "timings": None,
        }
        text = render_report(doc)
        assert "stopped at stage selection" in text
        assert "axioms: (not run)" in text


def threads_argv(tmp_path, case):
    """A passing command line for each subcommand that took --threads."""
    norm = write_json(tmp_path / "n.json",
                      {"kind": "cost_completion", "prime": 2, "dim": 4,
                       "seed": 0, "graded": True})
    run = write_json(tmp_path / "run.json", graded_run_cfg())
    topo = write_json(tmp_path / "topo.json",
                      {"kind": "elements", "prime": 2, "dim": 3, "base": [[[[3, 1]]]]})
    return {
        "validate-norm": ["validate-norm", "--config", norm],
        "reduce": ["reduce", "--config", norm],
        "verify": ["verify", "--config", norm],
        "extract": ["extract", "--config", norm, "--length", "4"],
        "modulus": ["modulus", "--config", norm, "--l", "1", "--m", "4"],
        "duality-map": ["duality", "--check", "map", "--spec", topo],
        "duality-coarser": ["duality", "--check", "coarser", "--spec", run],
        "run": ["run", "--config", run],
    }[case]


# command lines that argparse refuses before the flag is read, with the end
# of the error line it prints
ARGV_ERRORS = {
    "missing-config": (["run"], "error: the following arguments are required: --config\n"),
    "unknown-subcommand": (["prove"], "error: argument command: invalid choice: 'prove' "),
}


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("case", ["validate-norm", "reduce", "verify", "extract",
                                      "modulus", "duality-map", "duality-coarser", "run",
                                      *ARGV_ERRORS])
    def test_below_one_exits_two_on_every_subcommand(self, tmp_path, capsys, case, threads):
        # no subcommand takes --threads, whatever its value, and a run config
        # names no report file: --out alone does. main returns argparse's exit
        # code, as it returns every other one, and prints no traceback
        if case in ARGV_ERRORS:
            argv, err = ARGV_ERRORS[case]
            for args in (argv, argv + ["--threads", threads]):
                assert main(args) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "Traceback" not in captured.err
                assert err in captured.err and captured.err.startswith("usage: fpmap")
            return
        argv = threads_argv(tmp_path, case)
        for value in (threads, "2"):
            assert main(argv + ["--threads", value]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.endswith(f"error: unrecognized arguments: --threads {value}\n")
        assert main(argv) == 0
        run = tmp_path / "run.json"
        if str(run) in argv:
            report = tmp_path / "report.json"
            write_json(run, dict(graded_run_cfg(), out=str(report)))
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: run config has unknown key(s): out\n"
            assert not report.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: fpmap")

    def test_config_threads_zero_has_the_same_message(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", dict(graded_run_cfg(), threads=0))
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: threads must be a positive integer, got 0\n"

    @pytest.mark.parametrize("norm_cfg", [
        {"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0, "graded": True},
        {"kind": "ultrametric", "prime": 3, "dim": 3},
        {"kind": "ultrametric", "prime": 2, "dim": 7},
    ], ids=["graded", "ultrametric-3-3", "ultrametric-2-7"])
    def test_pool_starts_no_more_workers_than_chunks(self, tmp_path, capsys, monkeypatch,
                                                     norm_cfg):
        # the validator scans its value table serially: it starts no worker
        # at all, so never more than the chunks, and prints the same report
        cfg = write_json(tmp_path / "n.json", norm_cfg)
        assert main(["validate-norm", "--config", cfg]) == 0
        one = capsys.readouterr().out
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        assert main(["validate-norm", "--config", cfg]) == 0
        assert capsys.readouterr().out == one

    def test_run_starts_no_thread(self, tmp_path, capsys, monkeypatch):
        # weights up to 7/8^6 keep every value below the selection thresholds
        # at m = 5, so the chain passes; the triangle scan runs on 8 positions
        weights = [f"{i}/262144" for i in range(1, 8)]
        run = {"prime": 2, "dim": 7,
               "norm": {"kind": "ultrametric", "prime": 2, "dim": 7, "weights": weights}}
        scanned = []
        scan = norms._triangle_scan
        monkeypatch.setattr(norms, "_triangle_scan",
                            lambda *args: scanned.append(args[-1]) or scan(*args))
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        one, four = tmp_path / "one.json", tmp_path / "four.json"
        for threads, out in ((1, one), (4, four)):
            cfg = write_json(tmp_path / "run.json", dict(run, threads=threads))
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert scanned == [8, 8]
        assert four.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("steps", [2.5, True, "7", 0, 1e20])
@pytest.mark.parametrize("graded", [True, False])
def test_run_refuses_steps_that_are_not_positive_integers(tmp_path, capsys, steps, graded):
    # before, a float or a string crashed the cost draw with a traceback
    norm = dict(graded_run_cfg()["norm"], steps=steps)
    if not graded:
        del norm["graded"]
        norm.update(low="1/100", high="1")
    cfg = write_json(tmp_path / "run.json", dict(graded_run_cfg(), norm=norm))
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    timed, last = stopped_run(capsys)
    assert timed == ["build"]
    assert last.startswith("error: steps must be a positive integer")
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    {"dim": True},
    {"limits": {"max_tuple": True}},
    {"limits": {"l": True, "m": True}},
    {"caps": {"enum": True}},
    {"caps": {"matching": True}},
    {"threads": True},
], ids=["dim", "max_tuple", "l-m", "enum", "matching", "threads"])
def test_run_refuses_json_booleans_in_integer_fields(tmp_path, capsys, edit):
    # before, "dim": true ran as dim 1 and echoed true into the report
    cfg = dict(graded_run_cfg(), **edit)
    if "dim" in edit:
        cfg["norm"] = dict(cfg["norm"], dim=1)
    out = tmp_path / "report.json"
    assert main(["run", "--config", write_json(tmp_path / "run.json", cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    # graded: true is a flag, not an integer, and stays valid
    assert main(["run", "--config", write_json(tmp_path / "ok.json", graded_run_cfg()),
                 "--out", str(out)]) == 0
