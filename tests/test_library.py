"""Shipped curve systems, relations, and script replays."""

import json
from pathlib import Path

import pytest

from cablekit.curves import NonExpandableGeneratorError, algebraic_length, symplectic_pairing
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
from cablekit.monodromy import cable_p1_system, sigma22_cover_system
from cablekit.words import TwistWord
from test_words_curves import chain_model

# the curve systems as they shipped in JSON before they were declared in Python
FIXTURES = Path(__file__).parent / "fixtures"


class TestSystems:
    def test_sigma22_loads_and_checks(self):
        sys_ = sigma22_script_system()
        assert sys_.genus == 2 and len(sys_.boundary_labels) == 2
        sys_.check()

    def test_resolved_loads_and_checks(self):
        sys_ = resolved_system()
        assert sys_.genus == 2 and len(sys_.boundary_labels) == 3
        sys_.check()

    @pytest.mark.parametrize("build, filename", [
        (sigma22_script_system, "sigma22_g1.json"),
        (resolved_system, "resolved_neg_cable_g1.json"),
    ])
    def test_constructor_equals_the_data_file(self, build, filename):
        data = json.loads((FIXTURES / filename).read_text(encoding="utf-8"))
        sys_ = build()
        assert (sys_.genus, list(sys_.boundary_labels), sys_.name) == (
            data["genus"], data["boundary_labels"], data["name"])
        # the curated flags agree with the flag derived from the class, and
        # every boundary-parallel curve of the data has zero class
        assert {name: (list(info.homology), info.nonseparating)
                for name, info in sys_.curves.items()} == {
            name: (c["homology"], c.get("nonseparating", True))
            for name, c in data["curves"].items()}
        assert not any(sys_.curve(name).support for name, c in data["curves"].items()
                       if c.get("boundary_parallel") is not None)
        assert list(sys_.curves) == list(data["curves"])
        recorded = {tuple(sorted((a, b))): value for a, b, value in data["intersections"]}
        assert sys_.intersections == recorded and len(recorded) == len(data["intersections"])
        assert sys_.expansions == {} == data.get("expansions", {})
        sys_.check()

    def test_every_system_has_its_own_name(self):
        # an error names its system, and verify-word picks one by name
        names = [chain_model(1).name, cable_p1_system(1, 2).name,
                 sigma22_cover_system(1).name, sigma22_script_system().name,
                 resolved_system().name, lantern_genus3_model()[0].name]
        assert names == ["chain_g1", "cable_p1_g1_p2", "cover22_g1", "sigma22_g1_script",
                         "resolved_neg_cable_g1", "lantern_genus3"]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("build", [sigma22_script_system, resolved_system])
    def test_the_script_chain_is_the_cable_chain_under_an_isometry(self, build):
        # the map fixing a1, b1 and negating a2, b2 preserves the pairing and
        # sends each chain class of cable_p1_system(1, 2) to +- its class on
        # the script page, n2_1 reversed: twists do not see the sign, so the
        # (2,1)-cable word replayed there proves a fact about the cable page
        def iso(cls):
            return {t: x if t < 2 else -x for t, x in cls.items()}

        basis = [{t: 1} for t in range(4)]
        assert all(symplectic_pairing(iso(u), iso(v)) == symplectic_pairing(u, v)
                   for u in basis for v in basis)
        cable, script = cable_p1_system(1, 2), build()
        signs = {}
        for name in ("n1_1", "n1_2", "x1", "n2_2", "n2_1"):
            image, want = iso(cable.curve(name).support), script.curve(name).support
            negated = {t: -x for t, x in want.items()}
            signs[name] = 1 if image == want else -1 if image == negated else 0
        assert signs == {"n1_1": 1, "n1_2": 1, "x1": 1, "n2_2": 1, "n2_1": -1}

    def test_twist_about_the_stabilization_curve_has_no_algebraic_length(self):
        # gamma has zero class, so it separates the capped page, and it has no
        # registered factorization into nonseparating twists
        with pytest.raises(NonExpandableGeneratorError, match=r"^D_gamma is not"):
            algebraic_length(TwistWord.twists("gamma"), sigma22_script_system())

    def test_registries_gate_all_relations(self):
        for reg in (sigma22_registry(), resolved_registry()):
            for rel in reg.relations.values():
                assert reg.system.word_delta(rel.lhs) == reg.system.word_delta(rel.rhs), rel.name


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
