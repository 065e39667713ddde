"""Command line contract: subcommands, JSON outputs, and exit codes.

Exit codes: 0 pass, 1 violations or negative findings, 2 bad input,
3 cap exceeded.
"""

import gc
import hashlib
import json
import threading

import pytest

from fpmap.cli import main, render_report
from fpmap.duality import convergent_line_space
from fpmap.fpcore import GroupElement, Prime, Truncation
from fpmap.norms import random_metric_space
from fpmap import jsonio, norms


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
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_include_timings_embeds_floats(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", graded_run_cfg())
        out = tmp_path / "timed.json"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--include-timings"]) == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["timings"]["reduction"], float)

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
        assert capsys.readouterr().err == (
            "error: stage build: truncation has 32 elements, above cap 31\n")

    @pytest.mark.parametrize("caps, err", [
        # within its matching cap the norm builds its table, so the enum cap
        # stops stage build, as for the ultrametric norm
        ({"enum": 31, "matching": 5}, "stage build: truncation has 32 elements, above cap 31"),
        # past it the norm has no table, and validate_axioms refuses it
        ({"matching": 4}, "stage axioms: 5 points exceed the matching cap 4"),
        # after checking the enum cap
        ({"enum": 31, "matching": 4}, "stage axioms: truncation has 32 elements, above cap 31"),
    ], ids=["inside-matching-cap", "past-matching-cap", "past-both-caps"])
    def test_graev_enum_cap_either_side_of_the_matching_cap(self, tmp_path, capsys, caps, err):
        run = {"prime": 2, "dim": 5, "caps": caps,
               "norm": {"kind": "graev_boolean",
                        "space": random_metric_space(1, 6, 1, 3).to_json_dict()}}
        assert main(["run", "--config", write_json(tmp_path / "run.json", run)]) == 3
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_graev_matching_cap_edge(self, tmp_path, capsys):
        # dim == cap validates; one point more exits 3 before any subset DP
        def space(n_points):
            return random_metric_space(1, n_points, 1, 3).to_json_dict()

        for n_points, code in ((4, 0), (5, 3)):
            norm = {"kind": "graev_boolean", "matching_cap": 3, "space": space(n_points)}
            assert main(["validate-norm", "--config", write_json(tmp_path / "g.json", norm)]) == code
        assert capsys.readouterr().err == "error: stage axioms: 4 points exceed the matching cap 3\n"
        run = {"prime": 2, "dim": 4, "caps": {"matching": 3},
               "norm": {"kind": "graev_boolean", "space": space(5)}}
        assert main(["run", "--config", write_json(tmp_path / "run.json", run)]) == 3
        assert capsys.readouterr().err == "error: stage axioms: 4 points exceed the matching cap 3\n"


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

    def test_prime_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPMAP_PRIME_CAP", "3")
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 5, "dim": 2})
        assert main(["validate-norm", "--config", cfg]) == 2

    def test_prime_cap_env_ends_with_the_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPMAP_PRIME_CAP", "3")
        cfg = write_json(tmp_path / "n.json",
                         {"kind": "ultrametric", "prime": 2, "dim": 2})
        assert main(["validate-norm", "--config", cfg]) == 0
        assert Prime(5).p == 5

    def test_matching_cap_env_reaches_graev(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPMAP_MATCHING_CAP", "2")
        space = convergent_line_space(2)
        cfg = write_json(tmp_path / "g.json",
                         {"kind": "graev_boolean", "space": space.to_json_dict()})
        assert main(["validate-norm", "--config", cfg]) == 3


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

    def test_verify_needs_a_source(self, capsys):
        assert main(["verify"]) == 2
        assert "--config or --reduced" in capsys.readouterr().err


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

    def test_balls_over_a_graev_norm_past_its_matching_cap(self, tmp_path, capsys):
        # the wide norm has no value table, so the balls cannot be read
        norm = {"kind": "graev_boolean", "matching_cap": 4,
                "space": random_metric_space(1, 6, 1, 3).to_json_dict()}
        spec = write_json(tmp_path / "balls.json",
                          {"kind": "balls", "norm": norm, "radii": ["2"]})
        assert main(["duality", "--check", "map", "--spec", spec]) == 3
        assert capsys.readouterr().err == "error: 5 points exceed the matching cap 4\n"

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
        # 100 points put the Graev norm past its matching cap, so these bytes
        # pin the word-by-word evaluation and epsilon_delta_certificate
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "caddc192176f444d22a13396ba75249edd88159fff97eef23773b05bbdb1a328"

    def test_demo_boolean_bad_points(self, capsys):
        assert main(["demo-boolean", "--points", "1"]) == 2

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
    """A passing command line for each subcommand that takes --threads."""
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
        # the map check never validates a norm, so only the CLI sees --threads
        "duality-map": ["duality", "--check", "map", "--spec", topo],
        "duality-coarser": ["duality", "--check", "coarser", "--spec", run],
        "run": ["run", "--config", run],
    }[case]


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("case", ["validate-norm", "reduce", "verify", "extract",
                                      "modulus", "duality-map", "duality-coarser", "run"])
    def test_below_one_exits_two_on_every_subcommand(self, tmp_path, capsys, case, threads):
        argv = threads_argv(tmp_path, case)
        assert main(argv + ["--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err == f"error: threads must be a positive integer, got {threads}\n"
        assert main(argv + ["--threads", "2"]) == 0

    def test_config_threads_zero_has_the_same_message(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", dict(graded_run_cfg(), threads=0))
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: threads must be a positive integer, got 0\n"

    @pytest.mark.parametrize("norm_cfg, threads", [
        ({"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0, "graded": True}, 8),
        ({"kind": "ultrametric", "prime": 3, "dim": 3}, 8),
        ({"kind": "ultrametric", "prime": 2, "dim": 7}, 2),
    ], ids=["graded", "ultrametric-3-3", "ultrametric-2-7"])
    def test_pool_starts_no_more_workers_than_chunks(self, tmp_path, capsys, monkeypatch,
                                                     norm_cfg, threads):
        # the validator scans its value table serially: --threads starts no
        # worker at all, so never more than the chunks, and prints the same report
        cfg = write_json(tmp_path / "n.json", norm_cfg)
        assert main(["validate-norm", "--config", cfg]) == 0
        one = capsys.readouterr().out
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        assert main(["validate-norm", "--config", cfg, "--threads", str(threads)]) == 0
        assert capsys.readouterr().out == one

    def test_run_starts_no_thread(self, tmp_path, capsys, monkeypatch):
        # weights up to 7/8^6 keep every value below the selection thresholds
        # at m = 5, so the chain passes; the triangle scan runs on 8 positions
        weights = [f"{i}/262144" for i in range(1, 8)]
        cfg = write_json(tmp_path / "run.json", {
            "prime": 2, "dim": 7,
            "norm": {"kind": "ultrametric", "prime": 2, "dim": 7, "weights": weights}})
        scanned = []
        scan = norms._triangle_scan
        monkeypatch.setattr(norms, "_triangle_scan",
                            lambda *args: scanned.append(len(args[-1])) or scan(*args))
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        one, four = tmp_path / "one.json", tmp_path / "four.json"
        assert main(["run", "--config", cfg, "--threads", "1", "--out", str(one)]) == 0
        assert main(["run", "--config", cfg, "--threads", "4", "--out", str(four)]) == 0
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
    assert capsys.readouterr().err.startswith("error: steps must be a positive integer")
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
