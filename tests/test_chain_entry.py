"""One chain entry point: every chain subcommand is a stage subset of `run`.

validate-norm, reduce, extract, modulus and duality --check coarser must
print exactly the matching stage documents of one `fpmap run`, cap
overrides must take one precedence on every subcommand, and one run must
call each stage function that the benchmark tracer patches exactly once.
"""

import json
from dataclasses import replace

import pytest

from fpmap import jsonio, pipeline
from fpmap.cli import main
from fpmap.duality import convergent_line_space
from fpmap.errors import CapExceededError, InputError
from fpmap.fpcore import OrderedBasis, Truncation
from fpmap.norms import CostCompletionNorm, graded_cost, validate_axioms
from fpmap.reduction import check_member_word_bound, reduce_basis, verify_reduced_properties


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def graded(p, dim, l, m):
    return {
        "prime": p,
        "dim": dim,
        "norm": {"kind": "cost_completion", "prime": p, "dim": dim,
                 "seed": 0, "graded": True},
        "limits": {"l": l, "m": m},
    }


RUN_CONFIGS = {
    "graded-p2-d4": graded(2, 4, 1, 4),
    "graded-p3-d3": graded(3, 3, 2, 3),
}


def run_stages(tmp_path, capsys, run_cfg):
    path = write_json(tmp_path / "run.json", run_cfg)
    assert main(["run", "--config", path]) == 0
    return json.loads(capsys.readouterr().out)["stages"]


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_subcommands_print_the_run_stage_documents(tmp_path, capsys, name):
    run_cfg = RUN_CONFIGS[name]
    stages = run_stages(tmp_path, capsys, run_cfg)
    run = write_json(tmp_path / "run.json", run_cfg)
    norm = write_json(tmp_path / "norm.json", run_cfg["norm"])
    l, m = run_cfg["limits"]["l"], run_cfg["limits"]["m"]
    cases = [
        (["validate-norm", "--config", norm], stages["axioms"]),
        (["reduce", "--config", norm],
         {"norm": run_cfg["norm"], "reduced": stages["reduction"]}),
        (["extract", "--config", norm, "--length", str(m)],
         {"selection": stages["selection"], "family": stages["family"]}),
        (["modulus", "--config", norm, "--l", str(l), "--m", str(m)], stages["modulus"]),
        (["duality", "--check", "coarser", "--spec", run], stages["coarser"]),
    ]
    for argv, doc in cases:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == jsonio.canonical_dumps(doc), argv


def test_an_exhausted_selection_is_the_run_error_as_a_finding(tmp_path, capsys):
    norm = {"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0,
            "low": "1/262144", "high": "1/8192"}
    run = write_json(tmp_path / "run.json", {"prime": 2, "dim": 4, "norm": norm,
                                             "limits": {"m": 4}})
    assert main(["run", "--config", run]) == 1
    finding = f"finding: {json.loads(capsys.readouterr().out)['error']['message']}\n"
    norm = write_json(tmp_path / "norm.json", norm)
    for argv in (["extract", "--config", norm, "--length", "4"],
                 ["modulus", "--config", norm, "--l", "1", "--m", "4"],
                 ["duality", "--check", "coarser", "--spec", run]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", finding), argv


# the stage functions perfbench/tracer.py patches in fpmap.pipeline
TRACED_NAMES = (
    "norm_from_config", "validate_axioms", "reduce_basis", "verify_reduced_properties",
    "check_member_word_bound", "check_pair_domination", "norm_sorted_span",
    "select_null_subsequence", "extract_independent_family", "independence_modulus",
    "product_coarser_check",
)


def test_one_run_calls_each_traced_stage_function_once(tmp_path, capsys, monkeypatch):
    calls = dict.fromkeys(TRACED_NAMES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    run_stages(tmp_path, capsys, RUN_CONFIGS["graded-p2-d4"])
    assert calls == dict.fromkeys(TRACED_NAMES, 1)


def capped_graev(tmp_path):
    """A Graev norm of dim 5 whose descriptor allows 10 matching points."""
    norm = {"kind": "graev_boolean", "matching_cap": 10,
            "space": convergent_line_space(4).to_json_dict()}
    run = {"prime": 2, "dim": 5, "norm": norm, "limits": {"l": 1, "m": 1}}
    return write_json(tmp_path / "norm.json", norm), write_json(tmp_path / "run.json", run)


def capped_argv(tmp_path, case):
    norm, run = capped_graev(tmp_path)
    return {
        "validate-norm": ["validate-norm", "--config", norm],
        "reduce": ["reduce", "--config", norm],
        "extract": ["extract", "--config", norm, "--length", "1"],
        "modulus": ["modulus", "--config", norm, "--l", "1", "--m", "1"],
        "coarser": ["duality", "--check", "coarser", "--spec", run],
        "run": ["run", "--config", run],
    }[case]


class TestCapPrecedence:
    @pytest.mark.parametrize("case", ["validate-norm", "reduce", "extract", "modulus",
                                      "coarser", "run"])
    def test_env_matching_cap_beats_the_descriptor(self, tmp_path, capsys, monkeypatch, case):
        argv = capped_argv(tmp_path, case)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("FPMAP_MATCHING_CAP", "2")
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: stage axioms: 3 points exceed the matching cap 2\n")

    def test_run_caps_beat_the_descriptor_and_env_beats_both(self, tmp_path, capsys,
                                                              monkeypatch):
        capped_graev(tmp_path)
        doc = dict(json.loads((tmp_path / "run.json").read_text()), caps={"matching": 2})
        run = write_json(tmp_path / "capped.json", doc)
        assert main(["run", "--config", run]) == 3
        capsys.readouterr()
        monkeypatch.setenv("FPMAP_MATCHING_CAP", "10")
        assert main(["run", "--config", run]) == 0
        # the environment's cap bounds the work; the echo is the file's document
        echo = json.loads(capsys.readouterr().out)["config"]
        assert echo["caps"] == {"matching": 2}

    def test_reduce_echoes_the_descriptor_it_built(self, tmp_path, capsys, monkeypatch):
        norm, _ = capped_graev(tmp_path)
        monkeypatch.setenv("FPMAP_MATCHING_CAP", "7")
        assert main(["reduce", "--config", norm]) == 0
        assert json.loads(capsys.readouterr().out)["norm"]["matching_cap"] == 7


class TestVacuousLimits:
    def graded_norm(self, tmp_path):
        return write_json(tmp_path / "norm.json", RUN_CONFIGS["graded-p2-d4"]["norm"])

    def test_modulus_l_above_m_exits_two(self, tmp_path, capsys):
        argv = ["modulus", "--config", self.graded_norm(tmp_path), "--l", "3", "--m", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: l must be in 1..2, got 3\n"

    def test_modulus_checks_l_before_building_the_norm(self, tmp_path, capsys, monkeypatch):
        # this band norm exhausts its selection at m = 4, so an l checked only
        # by the modulus stage would surface as that finding, with exit 1
        norm = write_json(tmp_path / "norm.json", {
            "kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0,
            "low": "1/262144", "high": "1/8192"})
        built = []
        monkeypatch.setattr(pipeline, "norm_from_config",
                            lambda *args, **kwargs: built.append(args))
        assert main(["modulus", "--config", norm, "--l", "5", "--m", "4"]) == 2
        assert capsys.readouterr().err == "error: l must be in 1..4, got 5\n"
        assert main(["modulus", "--config", norm, "--l", "0", "--m", "4"]) == 2
        assert capsys.readouterr().err == "error: l must be in 1..4, got 0\n"
        assert built == []

    def test_independence_modulus_rejects_l_above_m(self):
        cfg = pipeline.RunConfig.from_json_dict(RUN_CONFIGS["graded-p2-d4"])
        report = pipeline.run_pipeline(cfg, stages=("modulus",))
        assert report.stages["modulus"]["l"] == 1
        with pytest.raises(InputError, match="l must be in 1..2, got 3"):
            pipeline.run_pipeline(replace(cfg, l=3, m=2), stages=("modulus",))

    @pytest.mark.parametrize("lemma", ["props", "1", "all"])
    def test_verify_n_below_one_exits_two(self, tmp_path, capsys, lemma):
        argv = ["verify", "--config", self.graded_norm(tmp_path), "--lemma", lemma]
        assert main(argv + ["--limits", "n=1"]) == 0
        capsys.readouterr()
        assert main(argv + ["--limits", "n=0"]) == 2
        assert capsys.readouterr().err == "error: max_tuple must be a positive integer, got 0\n"

    @pytest.mark.parametrize("checker", [verify_reduced_properties, check_member_word_bound])
    def test_checkers_reject_max_tuple_below_one(self, checker):
        norm = CostCompletionNorm(graded_cost(0, 2, 3))
        validate_axioms(norm)
        reduced = reduce_basis(OrderedBasis.standard(norm.prime, 3), norm)
        assert checker(reduced, norm, max_tuple=1).ok
        for bad in (0, -2):
            with pytest.raises(InputError, match="max_tuple must be a positive integer"):
                checker(reduced, norm, max_tuple=bad)


class TestStageSubsets:
    def cfg(self):
        return pipeline.RunConfig.from_json_dict(RUN_CONFIGS["graded-p3-d3"])

    @pytest.mark.parametrize("stages, ran", [
        ((), ("axioms",)),
        (("axioms",), ("axioms",)),
        (("reduction",), ("axioms", "reduction")),
        (("pair_domination", "properties"),
         ("axioms", "reduction", "properties", "pair_domination")),
        (("family",), ("axioms", "reduction", "selection", "family")),
        (("modulus",), ("axioms", "reduction", "selection", "family", "modulus")),
        (("coarser",), ("axioms", "reduction", "selection", "family", "coarser")),
    ])
    def test_prerequisites_run_and_nothing_else(self, stages, ran):
        report = pipeline.run_pipeline(self.cfg(), stages=stages)
        assert tuple(k for k, v in report.stages.items() if v is not None) == ran
        assert tuple(report.timings) == ("build", *ran)
        assert report.ok

    def test_full_run_equals_the_default(self):
        cfg = self.cfg()
        assert (pipeline.run_pipeline(cfg, stages=pipeline.STAGE_KEYS).to_canonical_json()
                == pipeline.run_pipeline(cfg).to_canonical_json())

    def test_bare_descriptor_takes_prime_and_dim_from_the_norm(self):
        norm = {"kind": "graev_boolean", "space": convergent_line_space(2).to_json_dict()}
        report = pipeline.run_pipeline(pipeline.RunConfig(None, None, norm),
                                       stages=("reduction",))
        assert len(report.stages["reduction"]["steps"]) == 3

    def test_failed_axioms_stop_a_subcommand_with_a_finding(self, tmp_path, capsys):
        tr = Truncation(2, 2)
        entries = [{"element": jsonio.element_to_pairs(tr.element_of(r)),
                    "value": "1/1" if r == 3 else "1/3"} for r in range(1, 4)]
        norm = write_json(tmp_path / "n.json", {"kind": "table", "prime": 2, "dim": 2,
                                                "entries": entries})
        assert main(["reduce", "--config", norm]) == 1
        assert capsys.readouterr().err == (
            "finding: the norm failed axiom validation; see its axiom_report\n")


class TestBuildTiming:
    def test_build_is_timed_like_a_stage(self, tmp_path, capsys):
        run = write_json(tmp_path / "run.json", RUN_CONFIGS["graded-p2-d4"])
        out = tmp_path / "report.json"
        assert main(["run", "--config", run, "--out", str(out), "--include-timings"]) == 0
        assert capsys.readouterr().err.startswith("timing build: ")
        doc = json.loads(out.read_text())
        assert set(doc["timings"]) == {"build", *pipeline.STAGE_KEYS}
        assert main(["report", str(out)]) == 0
        assert "\ntiming build: " in capsys.readouterr().out

    def test_canonical_bytes_leave_build_out(self, tmp_path, capsys):
        cfg = pipeline.RunConfig.from_json_dict(RUN_CONFIGS["graded-p2-d4"])
        report = pipeline.run_pipeline(cfg)
        assert "build" in report.timings
        assert '"build"' not in report.to_canonical_json()

    def test_build_cap_errors_name_the_stage(self):
        cfg = pipeline.RunConfig.from_json_dict(dict(RUN_CONFIGS["graded-p2-d4"],
                                                     caps={"enum": 5}))
        with pytest.raises(CapExceededError, match="^stage build: "):
            pipeline.run_pipeline(cfg)
