import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from fractions import Fraction

import pytest

import satcuma
from satcuma.scenario import (SPEED_OF_LIGHT, AntennaConfig, LinkBudget, Scenario,
                              ScenarioError, UserField, build_scenario,
                              db_to_linear, nominal_snr, path_loss_coeff,
                              _draw_phases, table_default_config)


class TestPathLoss:
    def test_exact_light_speed_convention(self):
        zeta = path_loss_coeff(30e9, 1.2e6)
        assert zeta == pytest.approx(4.391538315697107e-19, rel=1e-12)

    def test_table_values_within_band(self):
        assert 4.3e-19 <= path_loss_coeff(30e9, 1.2e6) <= 4.5e-19

    def test_unit_path_loss_distance(self):
        lam = SPEED_OF_LIGHT / 30e9
        assert path_loss_coeff(30e9, lam / (4 * math.pi)) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_distance_and_frequency(self):
        assert path_loss_coeff(30e9, 1e6) > path_loss_coeff(30e9, 2e6)
        assert path_loss_coeff(20e9, 1e6) > path_loss_coeff(30e9, 1e6)

    def test_domain_errors(self):
        with pytest.raises(ScenarioError):
            path_loss_coeff(-1.0, 1.0)
        with pytest.raises(ScenarioError):
            path_loss_coeff(30e9, 0.0)


def _budget(**over):
    """An explicit link budget at the table values, with fields replaced by over."""
    return LinkBudget(**{"P": 1.0, "G": 1e4, "B": 1e7, "T": 207.0, "f_c": 30e9, **over})


class TestLinkBudget:
    def test_table_noise_and_snr(self):
        b = build_scenario(table_default_config(K=21, W=2, U=5)).budget
        assert b == _budget()
        assert b.noise_power == pytest.approx(2.85867e-14, rel=1e-9)
        assert nominal_snr(b) == pytest.approx(3.4981302493817055e17, rel=1e-12)

    def test_fields_have_no_defaults(self):
        # the default link budget lives only in the config defaults
        assert all(f.default is MISSING for f in fields(LinkBudget))
        with pytest.raises(TypeError):
            LinkBudget(P=1.0, G=1e4, B=1e7, T=207.0)

    def test_doubling_bandwidth_halves_snr(self):
        b1, b2 = _budget(B=1e7), _budget(B=2e7)
        assert nominal_snr(b2) == pytest.approx(nominal_snr(b1) / 2, rel=1e-14)

    def test_dbi_conversion(self):
        assert db_to_linear(40.0) == pytest.approx(1e4, rel=1e-14)

    def test_scaling_invariance(self):
        # P -> cP, G -> G/c leaves the nominal SNR unchanged
        c = 7.3
        b1 = _budget(P=1.0, G=1e4)
        b2 = _budget(P=c, G=1e4 / c)
        assert nominal_snr(b1) == pytest.approx(nominal_snr(b2), rel=1e-14)

    def test_positive_field_validation(self):
        with pytest.raises(ScenarioError, match="T"):
            _budget(T=-1.0)


class TestAntennaConfig:
    def test_density_is_exact_rational(self):
        cfg = AntennaConfig(K=61, W=3)
        assert cfg.mu == Fraction(20)
        assert cfg.mu_is_even_integer
        assert build_scenario({"K": 61, "W": 3, "U": 1}).Kbar == 30

    def test_mu_times_w_plus_one_is_k(self):
        for k in range(2, 120):
            for w in range(1, 6):
                cfg = AntennaConfig(K=k, W=w)
                assert cfg.mu * w + 1 == k

    def test_evenness_flag(self):
        assert AntennaConfig(K=9, W=2).mu_is_even_integer         # mu = 4
        assert not AntennaConfig(K=10, W=3).mu_is_even_integer    # mu = 3
        assert not AntennaConfig(K=8, W=2).mu_is_even_integer     # mu = 7/2

    def test_bounds(self):
        with pytest.raises(ScenarioError):
            AntennaConfig(K=1, W=1)
        with pytest.raises(ScenarioError):
            AntennaConfig(K=5, W=0)


class TestUserField:
    def test_phase_support_validation(self):
        with pytest.raises(ScenarioError, match="psi"):
            UserField(U=1, zeta=(1.0,), psi=(0.0,))
        with pytest.raises(ScenarioError, match="psi"):
            UserField(U=1, zeta=(1.0,), psi=(2 * math.pi,))

    def test_positive_zeta(self):
        with pytest.raises(ScenarioError, match="zeta"):
            UserField(U=2, zeta=(1.0, 0.0), psi=(1.0, 2.0))


class TestBuildScenario:
    def test_reference_geometry(self):
        sc = build_scenario(table_default_config(K=61, W=3, U=5))
        assert sc.antenna.mu == 20
        assert sc.Kbar == 30
        assert sc.warnings == ()

    def test_small_even_geometry(self):
        sc = build_scenario({"K": 9, "W": 2, "U": 1})
        assert sc.antenna.mu == 4
        assert sc.Kbar == 4

    def test_odd_density_builds_with_warning(self):
        sc = build_scenario({"K": 10, "W": 3, "U": 2})
        assert sc.antenna.mu == 3
        assert "odd-mu" in sc.warnings

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ScenarioError, match="unknown"):
            build_scenario({"K": 9, "W": 2, "U": 1, "rain_db": 3.0})

    def test_missing_key(self):
        with pytest.raises(ScenarioError, match="U"):
            build_scenario({"K": 9, "W": 2})

    def test_per_user_distances(self):
        sc = build_scenario({"K": 9, "W": 2, "U": 3,
                             "distance_m": [1.2e6, 1.5e6, 2.0e6]})
        assert sc.users.zeta[0] > sc.users.zeta[1] > sc.users.zeta[2]

    def test_distance_list_length_checked(self):
        with pytest.raises(ScenarioError, match="distance_m"):
            build_scenario({"K": 9, "W": 2, "U": 3, "distance_m": [1.0, 2.0]})

    @pytest.mark.parametrize("distance", [1e155, 8e96])
    def test_underflowing_interference_spread_is_rejected(self, distance):
        # zeta ~ 6e-317 (subnormal) and ~ 1e-200 (normal) both square to 0,
        # so kappa would be 0; the error names the keys that set zeta
        with pytest.raises(ScenarioError, match="interference spread kappa is 0.0 "
                                                "for f_c_hz=.*distance_m="):
            build_scenario({"K": 21, "W": 2, "U": 5, "distance_m": distance})
        # a noise-only scenario has no interference spread
        assert build_scenario({"K": 21, "W": 2, "U": 1, "distance_m": distance}).users.U == 1

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"K": 21, "W": 2, "U": 5, "seed": 3}))
        sc = build_scenario(str(path))
        assert sc.antenna.K == 21
        assert sc.seed == 3

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{K: 21")
        with pytest.raises(ScenarioError, match="parse"):
            build_scenario(str(path))

    def test_missing_file_is_reported_as_unreadable(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(ScenarioError, match="cannot read config file") as exc:
            build_scenario(missing)
        assert "missing.json" in str(exc.value)
        assert "parse" not in str(exc.value)

    def test_parse_failure_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="bad.json"):
            build_scenario(str(path))

    def test_json_string_source(self):
        sc = build_scenario('{"K": 9, "W": 2, "U": 3, "seed": 2}')
        assert (sc.antenna.K, sc.users.U, sc.seed) == (9, 3, 2)
        with pytest.raises(ScenarioError, match="JSON object"):
            build_scenario("[9, 2, 3]")

    def test_bytes_source_is_rejected_naming_its_type(self):
        with pytest.raises(ScenarioError, match="unsupported config source type bytes"):
            build_scenario(b'{"K": 9, "W": 2, "U": 2}')

    def test_phase_draw_deterministic(self):
        a = build_scenario({"K": 9, "W": 2, "U": 4, "seed": 11})
        b = build_scenario({"K": 9, "W": 2, "U": 4, "seed": 11})
        assert a.users.psi == b.users.psi
        c = build_scenario({"K": 9, "W": 2, "U": 4, "seed": 12})
        assert a.users.psi != c.users.psi

    def test_phase_draw_cache_returns_the_uncached_draw(self):
        cached = _draw_phases(4, 11)
        assert _draw_phases(4, 11) is cached
        assert cached == _draw_phases.__wrapped__(4, 11)
        assert build_scenario({"K": 9, "W": 2, "U": 4, "seed": 11}).users.psi == cached

    def test_derived_phase_mapping(self):
        sc = build_scenario({"K": 9, "W": 2, "U": 1})
        assert sc.t == pytest.approx(0.75 - sc.users.psi[0] / (2 * math.pi))

    def test_numeric_strings_accepted(self):
        plain = build_scenario({"K": 9, "W": 2, "U": 2})
        assert build_scenario({"K": 9, "W": 2, "U": 2, "T_kelvin": "207",
                               "distance_m": ["1.2e6", 1.2e6]}) == plain

    def test_nonpositive_v_rejected(self):
        # mu = 1/2: sin(2*pi) rounds to a tiny negative number
        with pytest.raises(ScenarioError, match="V must be positive"):
            build_scenario({"K": 3, "W": 4, "U": 1})

    def test_stores_only_its_inputs(self):
        assert [f.name for f in fields(Scenario)] == ["antenna", "budget", "users", "seed"]
        assert not hasattr(satcuma, "DerivedChannel")
        assert not hasattr(satcuma.scenario, "DerivedChannel")

    def test_constants_follow_replaced_inputs(self):
        sc = build_scenario({"K": 21, "W": 2, "U": 5})
        assert sc.warnings == () and sc.Kbar == 10
        odd = replace(sc, antenna=AntennaConfig(K=23, W=2))
        assert odd.mu == 11 and "odd-mu" in odd.warnings
        assert odd.V == odd.antenna.V != sc.V
        assert odd.Kbar == 11
        wide = replace(sc, budget=replace(sc.budget, B=2 * sc.budget.B))
        assert wide.Gamma == sc.Gamma / 2
        assert wide.noise_term == 2 * sc.noise_term
        assert hash(wide) != hash(sc) and wide != sc

    def test_immutability(self):
        sc = build_scenario({"K": 9, "W": 2, "U": 1})
        with pytest.raises(AttributeError):
            sc.antenna = None

    def test_equal_scenarios_hash_equal(self):
        a = build_scenario({"K": 11, "W": 2, "U": 3})
        b = build_scenario({"K": 11, "W": 2, "U": 3})
        assert a == b and hash(a) == hash(b)
        assert a != build_scenario({"K": 11, "W": 2, "U": 3, "seed": 1})

    def test_hash_survives_pickles_from_other_processes(self):
        # a pickled scenario carries its hash into pool workers, and string
        # hashes differ between processes: scenarios pickled under two hash
        # seeds must still hash equal (this one carries the odd-mu warning)
        src = os.path.dirname(os.path.dirname(os.path.abspath(satcuma.__file__)))
        code = ("import pickle, sys\nfrom satcuma import build_scenario\n"
                "sc = build_scenario({'K': 11, 'W': 2, 'U': 3})\n"
                "sys.stdout.buffer.write(pickle.dumps(sc))\n")
        pickled = [pickle.loads(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout)
            for seed in ("1", "2")]
        here = build_scenario({"K": 11, "W": 2, "U": 3})
        assert here.warnings and pickled == [here, here]
        assert hash(pickled[0]) == hash(pickled[1]) == hash(here)

    def test_hash_does_not_rehash_the_parts(self, monkeypatch):
        # the scenario keys per-scenario caches; each lookup must not hash
        # the nested dataclasses again
        sc = build_scenario({"K": 21, "W": 2, "U": 5})
        calls = []
        part_hash = UserField.__hash__
        monkeypatch.setattr(UserField, "__hash__",
                            lambda self: calls.append(self) or part_hash(self))
        assert hash(sc) == hash(sc)
        assert calls == []
