"""End-to-end runs: config parsing, stage wiring, verdicts, canonical bytes."""

import time

import pytest

from fpmap import extraction, jsonio, norms
from fpmap.duality import convergent_line_space
from fpmap.errors import CapExceededError, InputError
from fpmap.fpcore import DEFAULT_ENUM_CAP, GroupElement, Truncation
from fpmap.pipeline import STAGE_KEYS, RunConfig, run_pipeline


def graded_cfg(seed=0, p=2, dim=4, **extra):
    cfg = {
        "prime": p,
        "dim": dim,
        "norm": {"kind": "cost_completion", "prime": p, "dim": dim,
                 "seed": seed, "graded": True},
        "limits": {"l": 1, "m": min(dim, 5)},
    }
    cfg.update(extra)
    return cfg


def violating_table_cfg():
    """A table where N(e1 + e2) > N(e1) + N(e2): axiom stage must flag it."""
    tr = Truncation(2, 2)
    both = tr.rank_of(GroupElement.make(2, [(1, 1), (2, 1)]))
    entries = []
    for r in range(1, tr.size):
        value = "1/1" if r == both else "1/3"
        entries.append({"element": jsonio.element_to_pairs(tr.element_of(r)),
                        "value": value})
    return {
        "prime": 2,
        "dim": 2,
        "norm": {"kind": "table", "prime": 2, "dim": 2, "entries": entries},
        "limits": {"l": 1, "m": 2},
    }


def uniform_band_cfg():
    """Seeded costs in one narrow band: selection cannot complete a chain."""
    return {
        "prime": 2,
        "dim": 4,
        "norm": {"kind": "cost_completion", "prime": 2, "dim": 4, "seed": 0,
                 "low": "1/262144", "high": "1/8192"},
        "limits": {"m": 4},
    }


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.from_json_dict({
            "prime": 2, "dim": 6,
            "norm": {"kind": "ultrametric", "prime": 2, "dim": 6},
        })
        assert cfg.max_tuple == 4
        assert cfg.l == 1
        assert cfg.m == 5
        assert cfg.enum_cap == DEFAULT_ENUM_CAP

    def test_m_default_caps_at_dim(self):
        cfg = RunConfig.from_json_dict({
            "prime": 2, "dim": 3,
            "norm": {"kind": "ultrametric", "prime": 2, "dim": 3},
        })
        assert cfg.m == 3

    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="unknown key"):
            RunConfig.from_json_dict({
                "prime": 2, "dim": 3,
                "norm": {"kind": "ultrametric", "prime": 2, "dim": 3},
                "seed": 7,
            })
        # the report path is the CLI's --out alone
        with pytest.raises(InputError, match=r"run config has unknown key\(s\): out$"):
            RunConfig.from_json_dict(graded_cfg(out="report.json"))

    def test_unknown_limits_key(self):
        with pytest.raises(InputError, match="unknown key"):
            RunConfig.from_json_dict(graded_cfg(limits={"m": 4, "depth": 2}))

    def test_unknown_caps_key(self):
        with pytest.raises(InputError, match="unknown key"):
            RunConfig.from_json_dict(graded_cfg(caps={"spam": 10}))
        # the matching cap is a constant, not a run-config cap
        with pytest.raises(InputError, match=r"caps has unknown key\(s\): matching$"):
            RunConfig.from_json_dict(graded_cfg(caps={"enum": 100, "matching": 12}))

    @pytest.mark.parametrize("limits", [{"l": 3, "m": 2}, {"m": 9}, {"l": 0}])
    def test_limit_ordering_enforced(self, limits):
        with pytest.raises(InputError, match="l <= m <= dim"):
            RunConfig.from_json_dict(graded_cfg(limits=limits))

    def test_bad_scalar_fields(self):
        with pytest.raises(InputError, match="max_tuple"):
            RunConfig.from_json_dict(graded_cfg(limits={"max_tuple": 0}))
        with pytest.raises(InputError, match="threads"):
            RunConfig.from_json_dict(graded_cfg(threads=0))
        with pytest.raises(InputError, match="enum cap"):
            RunConfig.from_json_dict(graded_cfg(caps={"enum": -1}))
        with pytest.raises(InputError, match="dim"):
            RunConfig.from_json_dict(graded_cfg(dim=0))

    @pytest.mark.parametrize("field, value, match", [
        ("dim", True, "dim must be"),
        ("limits", {"max_tuple": True}, "max_tuple"),
        ("limits", {"l": True}, "l <= m <= dim"),
        ("limits", {"m": True}, "l <= m <= dim"),
        ("caps", {"enum": True}, "enum cap"),
        # the matching cap is no integer field now, but an unknown key
        pytest.param("caps", {"matching": True}, r"unknown key\(s\): matching$",
                     id="caps-value5-matching cap"),
        ("threads", True, "threads"),
    ])
    def test_booleans_are_not_integers(self, field, value, match):
        # JSON true is a Python int; an integer field must still refuse it
        with pytest.raises(InputError, match=match):
            RunConfig.from_json_dict(graded_cfg(**{field: value}))

    def test_norm_must_be_object(self):
        with pytest.raises(InputError, match="JSON object"):
            RunConfig.from_json_dict({"prime": 2, "dim": 3, "norm": "ultrametric"})

    def test_prime_mismatch_caught_at_build(self):
        cfg = RunConfig.from_json_dict({
            "prime": 3, "dim": 3,
            "norm": {"kind": "ultrametric", "prime": 2, "dim": 3},
        })
        with pytest.raises(InputError, match="does not match the norm's"):
            cfg.build_norm()

    def test_dim_mismatch_caught_at_build(self):
        cfg = RunConfig.from_json_dict({
            "prime": 2, "dim": 4,
            "norm": {"kind": "ultrametric", "prime": 2, "dim": 3},
        })
        with pytest.raises(InputError, match="does not match the norm's"):
            cfg.build_norm()


class TestRunPipeline:
    def test_graded_run_passes(self):
        rep = run_pipeline(RunConfig.from_json_dict(graded_cfg()))
        assert rep.verdict == "pass"
        assert rep.ok
        assert rep.error is None
        assert all(rep.stages[k] is not None for k in STAGE_KEYS)

    def test_stage_payloads(self):
        rep = run_pipeline(RunConfig.from_json_dict(graded_cfg()))
        assert rep.stages["selection"]["maxes"] == [1, 2, 3, 4]
        assert rep.stages["family"]["indices"] == [1, 2, 3, 4]
        assert rep.stages["modulus"]["l"] == 1
        assert rep.stages["modulus"]["m"] == 4
        assert rep.stages["modulus"]["delta"] == "1/8"
        assert rep.stages["coarser"]["violations"] == []
        assert rep.stages["axioms"]["elements_checked"] == 16

    def test_report_document_shape(self):
        cfg = graded_cfg()
        doc = run_pipeline(RunConfig.from_json_dict(cfg)).to_json_dict()
        assert set(doc) == {"config", "stages", "verdict", "error", "timings"}
        assert list(doc["stages"]) == list(STAGE_KEYS)
        assert doc["config"] == cfg
        assert doc["timings"] is None

    def test_timings_are_opt_in(self):
        # the caller's record takes the stage seconds; the report never does
        cfg, timings = RunConfig.from_json_dict(graded_cfg()), {}
        doc = run_pipeline(cfg, timings=timings).to_json_dict()
        assert list(timings) == ["build", *STAGE_KEYS]
        assert all(isinstance(v, float) for v in timings.values())
        assert jsonio.canonical_dumps(doc) == jsonio.canonical_dumps(
            run_pipeline(cfg).to_json_dict())

    @pytest.mark.parametrize("stage, report_cls", [("axioms", norms.AxiomReport),
                                                   ("coarser", extraction.CoarserReport)])
    def test_a_stage_is_timed_with_its_document(self, monkeypatch, stage, report_cls):
        original = report_cls.to_json_dict

        def slow(report):
            time.sleep(0.02)
            return original(report)

        monkeypatch.setattr(report_cls, "to_json_dict", slow)
        timings = {}
        run_pipeline(RunConfig.from_json_dict(graded_cfg()), timings=timings)
        assert timings[stage] >= 0.02

    def test_canonical_bytes_stable(self):
        doc1 = run_pipeline(RunConfig.from_json_dict(graded_cfg())).to_json_dict()
        doc2 = run_pipeline(RunConfig.from_json_dict(graded_cfg())).to_json_dict()
        assert jsonio.canonical_dumps(doc1) == jsonio.canonical_dumps(doc2)

    def test_canonical_bytes_thread_invariant(self):
        # threads is accepted and ignored, and stays out of the echo
        doc1 = run_pipeline(RunConfig.from_json_dict(graded_cfg())).to_json_dict()
        doc2 = run_pipeline(RunConfig.from_json_dict(graded_cfg(threads=2))).to_json_dict()
        assert jsonio.canonical_dumps(doc1) == jsonio.canonical_dumps(doc2)

    def test_axiom_violation_halts_chain(self):
        rep = run_pipeline(RunConfig.from_json_dict(violating_table_cfg()))
        assert rep.verdict == "fail"
        assert rep.error is None
        assert rep.stages["axioms"]["violations"]
        for key in STAGE_KEYS[1:]:
            assert rep.stages[key] is None

    def test_exhausted_selection_reported_not_raised(self):
        rep = run_pipeline(RunConfig.from_json_dict(uniform_band_cfg()))
        assert rep.verdict == "fail"
        assert rep.error == {
            "stage": "selection",
            "kind": "exhausted",
            "message": ("no qualifying subsequence of length 4; achievable length "
                        "is 3, slot 4 blocked by the max-progression constraint"),
            "achievable_length": 3,
            "failed_slot": 4,
            "constraint": "max-progression",
        }
        for key in ("axioms", "reduction", "properties", "member_word_bound",
                    "pair_domination"):
            assert rep.stages[key] is not None
        for key in ("selection", "family", "modulus", "coarser"):
            assert rep.stages[key] is None

    def test_enum_cap_enforced(self):
        with pytest.raises(CapExceededError, match="cap 5"):
            run_pipeline(RunConfig.from_json_dict(graded_cfg(caps={"enum": 5})))

    def test_matching_cap_overflow_names_stage(self):
        # 13 non-basepoint points run the chain to its selection; 24 pass the
        # default enum cap, so the norm is refused at build
        def cfg(n_points):
            dim = n_points + 1
            return RunConfig.from_json_dict({
                "prime": 2,
                "dim": dim,
                "norm": {"kind": "graev_boolean", "prime": 2, "dim": dim,
                         "space": convergent_line_space(n_points).to_json_dict()},
                "limits": {"m": 3},
            })

        rep = run_pipeline(cfg(12))
        assert rep.stages["axioms"]["ok"] is True
        assert rep.error["stage"] == "selection"
        with pytest.raises(CapExceededError, match="^stage build: truncation has 16777216 "
                                                   "elements, above cap 10000000$"):
            run_pipeline(cfg(23))

    def test_limits_reach_the_checkers(self):
        cfg = graded_cfg(limits={"max_tuple": 2, "l": 2, "m": 3})
        rep = run_pipeline(RunConfig.from_json_dict(cfg))
        assert rep.verdict == "pass"
        assert rep.stages["modulus"]["l"] == 2
        assert rep.stages["modulus"]["m"] == 3
        assert len(rep.stages["selection"]["maxes"]) == 3
        assert "up to 2 distinct" in rep.stages["member_word_bound"]["domain"]
