"""Shipped curve systems, relations, and script replays."""

import pytest

from cablekit.curves import words_equal_on_homology
from cablekit.library import (
    genlantern_derivation_bundle,
    lantern_genus3_model,
    negative_cable_bundle,
    resolved_registry,
    resolved_system,
    shipped_scripts,
    sigma22_registry,
    sigma22_script_system,
    stabilization_bundle,
)
from cablekit.words import TwistWord


class TestSystems:
    def test_sigma22_loads_and_checks(self):
        sys_ = sigma22_script_system()
        assert sys_.genus == 2 and len(sys_.boundary_labels) == 2
        sys_.check()

    def test_resolved_loads_and_checks(self):
        sys_ = resolved_system()
        assert sys_.genus == 2 and len(sys_.boundary_labels) == 3
        sys_.check()

    def test_registries_gate_all_relations(self):
        for reg in (sigma22_registry(), resolved_registry()):
            for rel in reg.relations.values():
                assert words_equal_on_homology(rel.lhs, rel.rhs, reg.system), rel.name


class TestShippedScripts:
    def test_all_replay(self):
        for name, bundle in shipped_scripts().items():
            result = bundle.replay()
            assert result.verified, name
            assert result.word == bundle.expect, name

    def test_stabilization_script_target(self):
        bundle = stabilization_bundle()
        result = bundle.replay()
        names = [g.curve for g in result.word]
        assert names == ["delta3", "delta2", "delta1", "n1_1", "n1_2"]
        assert result.word.is_positive()
        # every step was verified: the log has one line per step
        assert len(result.log) == len(bundle.script.steps)

    def test_negative_cable_script_all_positive(self):
        bundle = negative_cable_bundle()
        result = bundle.replay()
        assert result.word.is_positive()
        assert len(result.word) == 18

    def test_genlantern_derivation(self):
        bundle = genlantern_derivation_bundle()
        result = bundle.replay()
        assert [g.curve for g in result.word] == ["dpartial", "D3g", "D2g", "D1g"]


class TestLanternModel:
    def test_nontrivial_oracle_pass(self):
        sys_, reg = lantern_genus3_model()
        rel = reg.relations["lantern"]
        m = sys_.word_matrix(rel.lhs)
        assert m == sys_.word_matrix(rel.rhs)
        assert any(
            m[i][j] != (1 if i == j else 0) for i in range(6) for j in range(6)
        )


class TestDataOverride:
    def test_cablekit_data_env(self, tmp_path, monkeypatch):
        import json
        import shutil
        from importlib import resources

        src = resources.files("cablekit").joinpath("data")
        for name in ("sigma22_g1.json", "resolved_neg_cable_g1.json"):
            shutil.copy(str(src.joinpath(name)), tmp_path / name)
        monkeypatch.setenv("CABLEKIT_DATA", str(tmp_path))
        sys_ = sigma22_script_system()
        sys_.check()
