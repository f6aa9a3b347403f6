import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twrc import (
    CoincidentNodesError,
    GAIN_FIELDS,
    Geometry,
    LinkGains,
    ValidationError,
    gains_from_geometry,
    solve,
    validate_gains,
    validate_geometry,
)

from helpers import MAP_GEOMETRY


class TestLinkGainsValidation:
    def test_accepts_uniform_gains(self):
        g = LinkGains(**{name: 0.5 for name in GAIN_FIELDS}, p=1.0)
        assert validate_gains(g) is g

    def test_rejects_negative_gain_naming_field(self):
        g = LinkGains(g12=-0.1, g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=1.0)
        with pytest.raises(ValidationError, match="g12"):
            validate_gains(g)

    def test_rejects_nan_gain(self):
        g = LinkGains(g12=0.5, g21=float("nan"), g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5)
        with pytest.raises(ValidationError, match="g21"):
            validate_gains(g)

    def test_rejects_negative_power(self):
        g = LinkGains(g12=0.5, g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=-1.0)
        with pytest.raises(ValidationError, match="p"):
            validate_gains(g)

    def test_accepts_zero_direct_links(self):
        # multi-hop topology: no direct user-to-user links
        g = LinkGains(g12=0.0, g21=0.0, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=1.0)
        assert validate_gains(g) is g

    def test_swapped_exchanges_user_roles(self):
        g = LinkGains(g12=0.1, g21=0.2, g1r=0.3, gr1=0.4, g2r=0.5, gr2=0.6, p=2.0)
        s = g.swapped()
        assert (s.g12, s.g21) == (g.g21, g.g12)
        assert (s.g1r, s.g2r) == (g.g2r, g.g1r)
        assert (s.gr1, s.gr2) == (g.gr2, g.gr1)
        assert s.p == g.p
        assert s.swapped() == g

    def test_dict_round_trip(self):
        g = LinkGains(g12=0.1, g21=0.2, g1r=0.3, gr1=0.4, g2r=0.5, gr2=0.6, p=2.0)
        assert LinkGains.from_dict(g.to_dict()) == g

    def test_from_dict_reports_missing_keys(self):
        with pytest.raises(ValidationError, match="gr2"):
            LinkGains.from_dict({name: 0.5 for name in GAIN_FIELDS if name != "gr2"})

    def test_from_dict_defaults_p_to_one(self):
        data = {name: 0.5 for name in GAIN_FIELDS}
        assert LinkGains.from_dict(data) == LinkGains(**data, p=1.0)

    @pytest.mark.parametrize("extra", ["P", "gr11"])
    def test_from_dict_refuses_unknown_keys(self, extra):
        data = {name: 0.5 for name in GAIN_FIELDS}
        data[extra] = 2.0
        with pytest.raises(ValidationError, match=f"unknown keys: {extra}"):
            LinkGains.from_dict(data)

    def test_from_dict_rejects_non_numeric(self):
        data = {name: 0.5 for name in GAIN_FIELDS}
        data["p"] = "one"
        with pytest.raises(ValidationError, match="numbers"):
            LinkGains.from_dict(data)

    @pytest.mark.parametrize("bad", ["0.25", True])
    def test_from_dict_accepts_only_json_numbers(self, bad):
        data = {name: 0.5 for name in GAIN_FIELDS}
        data["g12"] = bad
        with pytest.raises(ValidationError, match="values must be numbers: g12"):
            LinkGains.from_dict(data)

    def test_from_dict_refuses_an_int_too_large_for_a_float(self):
        data = dict({name: 0.5 for name in GAIN_FIELDS}, gr1=10 ** 400)
        with pytest.raises(ValidationError, match="gr1 must be a finite number"):
            LinkGains.from_dict(data)

    @pytest.mark.parametrize("name", GAIN_FIELDS + ("p",))
    @pytest.mark.parametrize("bad", ["0.5", None, 1j])
    def test_rejects_non_numeric_field_naming_it(self, name, bad):
        values = {field: 0.5 for field in GAIN_FIELDS + ("p",)}
        values[name] = bad
        with pytest.raises(ValidationError, match=rf"\b{name} must be a number"):
            validate_gains(LinkGains(**values))

    def test_solve_rejects_string_gain(self):
        g = LinkGains(g12="0.5", g21=0.5, g1r=0.5, gr1=0.5, g2r=0.5, gr2=0.5, p=1.0)
        with pytest.raises(ValidationError, match="g12"):
            solve(g, 0.5)

    def test_accepts_numpy_scalars(self):
        g = LinkGains(**{name: np.float64(0.5) for name in GAIN_FIELDS}, p=np.float32(1.0))
        assert validate_gains(g) is g


class TestGeometry:
    def test_defaults_are_20m_fdd_setup(self):
        geom = MAP_GEOMETRY
        assert geom.user1 == (0.0, 0.0)
        assert geom.user2 == (20.0, 0.0)
        assert geom.gamma1 == 2.3
        assert geom.gamma2 == 3.6

    def test_direct_gain_at_20m_low_exponent(self):
        g = gains_from_geometry(MAP_GEOMETRY, p=1.0)
        assert g.g21 == pytest.approx(20.0 ** -1.15, rel=1e-12)
        assert g.g21 == pytest.approx(0.0319018, abs=5e-7)

    def test_direct_gain_at_20m_high_exponent(self):
        g = gains_from_geometry(MAP_GEOMETRY, p=1.0)
        assert g.g12 == pytest.approx(20.0 ** -1.8, rel=1e-12)

    def test_unit_distance_gives_unit_gain(self):
        geom = Geometry(user1=(0.0, 0.0), user2=(1.0, 0.0), relay=(0.0, 1.0))
        g = gains_from_geometry(geom)
        assert g.g21 == 1.0
        assert g.g12 == 1.0
        assert g.gr1 == 1.0

    def test_exponent_split_by_message_direction(self):
        # links carrying user 1's message use gamma1, the rest gamma2
        geom = Geometry(user1=(0.0, 0.0), user2=(4.0, 0.0), relay=(0.0, 3.0))
        g = gains_from_geometry(geom)
        assert g.gr1 == pytest.approx(3.0 ** -(2.3 / 2))
        assert g.g1r == pytest.approx(3.0 ** -(3.6 / 2))
        assert g.g2r == pytest.approx(5.0 ** -(2.3 / 2))
        assert g.gr2 == pytest.approx(5.0 ** -(3.6 / 2))
        assert g.g21 == pytest.approx(4.0 ** -(2.3 / 2))
        assert g.g12 == pytest.approx(4.0 ** -(3.6 / 2))

    def test_coincident_relay_and_user_rejected(self):
        geom = Geometry(relay=(0.0, 0.0))
        with pytest.raises(CoincidentNodesError, match="user1"):
            gains_from_geometry(geom)

    def test_coincident_users_rejected(self):
        geom = Geometry(user2=(0.0, 0.0), relay=(5.0, 5.0))
        with pytest.raises(CoincidentNodesError, match="user2"):
            gains_from_geometry(geom)

    @pytest.mark.parametrize("relay", [(3.552713678800501e-15, 3.552713678800501e-15), (1e-200, 0.0)])
    def test_nearly_coincident_relay_and_user_rejected(self, relay):
        # a gain past GAIN_LIMIT; the path-loss power overflows for the second
        with pytest.raises(CoincidentNodesError, match="user1"):
            gains_from_geometry(Geometry(relay=relay))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValidationError, match="gamma1"):
            validate_geometry(Geometry(gamma1=0.0))

    def test_rejects_negative_power(self):
        with pytest.raises(ValidationError, match="p"):
            gains_from_geometry(MAP_GEOMETRY, p=-0.5)

    def test_geometry_dict_round_trip(self):
        geom = Geometry(user1=(1.0, 2.0), user2=(3.0, 4.0), relay=(0.0, 9.0),
                        gamma1=2.0, gamma2=4.0)
        assert Geometry.from_dict(geom.to_dict()) == geom

    def test_geometry_from_dict_refuses_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown keys: rely"):
            Geometry.from_dict({"user1": [0, 0], "user2": [20, 0], "rely": [5, 5]})

    def test_geometry_from_dict_rejects_bad_point(self):
        with pytest.raises(ValidationError, match="relay"):
            Geometry.from_dict({"relay": [1.0]})

    @pytest.mark.parametrize("data", [{"user1": ["a", 0]}, {"relay": [0, None]},
                                      {"gamma1": None}, {"gamma2": "steep"},
                                      {"user2": ["0.25", 0]}, {"relay": [0, True]},
                                      {"gamma1": "0.25"}, {"gamma2": True}])
    def test_geometry_from_dict_rejects_non_numeric(self, data):
        with pytest.raises(ValidationError, match="numbers"):
            Geometry.from_dict(data)

    @pytest.mark.parametrize("geom, name", [(Geometry(gamma1="2"), "gamma1"),
                                            (Geometry(user2=("20", 0.0)), "user2"),
                                            (Geometry(relay=None), "relay")])
    def test_non_numeric_geometry_rejected(self, geom, name):
        with pytest.raises(ValidationError, match=name):
            validate_geometry(geom)
        with pytest.raises(ValidationError, match=name):
            gains_from_geometry(geom)

    @pytest.mark.parametrize("p", ["1", None])
    def test_rejects_non_numeric_power(self, p):
        with pytest.raises(ValidationError, match="p"):
            gains_from_geometry(MAP_GEOMETRY, p=p)


@given(
    d=st.floats(min_value=0.5, max_value=50.0),
    closer=st.floats(min_value=0.01, max_value=0.49),
)
def test_gain_strictly_decreases_with_distance(d, closer):
    far = Geometry(user1=(0.0, 0.0), user2=(100.0, 0.0), relay=(d, 0.0))
    near = far.with_relay((d * (1.0 - closer), 0.0))
    g_far = gains_from_geometry(far)
    g_near = gains_from_geometry(near)
    assert g_near.gr1 > g_far.gr1
    assert g_near.g1r > g_far.g1r


@given(scale=st.floats(min_value=1.5, max_value=4.0))
def test_doubling_distances_scales_gains_by_exponent_law(scale):
    base = Geometry(user1=(0.0, 0.0), user2=(8.0, 0.0), relay=(2.0, 3.0))
    scaled = Geometry(
        user1=(0.0, 0.0), user2=(8.0 * scale, 0.0), relay=(2.0 * scale, 3.0 * scale)
    )
    g0 = gains_from_geometry(base)
    g1 = gains_from_geometry(scaled)
    assert g1.gr1 == pytest.approx(g0.gr1 * scale ** -(2.3 / 2), rel=1e-12)
    assert g1.g12 == pytest.approx(g0.g12 * scale ** -(3.6 / 2), rel=1e-12)
