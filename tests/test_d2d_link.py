"""Unit tests for the radio link model."""

import pytest

from repro.d2d.link import LinkModel, distance_from_rssi, rssi_at
from repro.sim.rng import key64, keyed_normal


class TestPathLoss:
    def test_rssi_decreases_with_distance(self):
        values = [rssi_at(d) for d in (1.0, 5.0, 10.0, 50.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rssi_at_reference_distance(self):
        # at d0 = 1 m: RSSI = tx_power - PL0
        assert rssi_at(1.0, tx_power_dbm=15.0, path_loss_at_ref_db=40.0) == pytest.approx(
            -25.0
        )

    def test_ten_x_distance_costs_10n_db(self):
        # with exponent 3: 10x distance → 30 dB
        assert rssi_at(1.0) - rssi_at(10.0) == pytest.approx(30.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            rssi_at(-1.0)

    def test_zero_distance_is_finite(self):
        assert rssi_at(0.0) > rssi_at(1.0)

    def test_inverse_roundtrip(self):
        for d in (0.5, 1.0, 3.0, 12.0, 40.0):
            assert distance_from_rssi(rssi_at(d)) == pytest.approx(d, rel=1e-9)


class TestLinkModel:
    def test_estimate_distance_inverts_clean_rssi(self):
        link = LinkModel()
        clean = link.rssi(7.0)
        assert link.estimate_distance(clean) == pytest.approx(7.0, rel=1e-9)

    def test_noisy_estimates_center_on_truth(self):
        link = LinkModel(shadowing_sigma_db=2.0)
        estimates = [
            link.estimate_distance(
                link.rssi(5.0)
                + link.shadowing_sigma_db * keyed_normal(key64(f"link-{i}"))
            )
            for i in range(500)
        ]
        assert sum(estimates) / len(estimates) == pytest.approx(5.0, rel=0.15)

    def test_max_range_consistent_with_in_range(self):
        link = LinkModel()
        edge = link.max_range_m()
        assert link.in_range(edge * 0.99)
        assert not link.in_range(edge * 1.01)

    def test_per_zero_in_close_range(self):
        assert LinkModel().packet_error_rate(1.0) == 0.0

    def test_per_one_beyond_range(self):
        link = LinkModel()
        assert link.packet_error_rate(link.max_range_m() * 2) == 1.0

    def test_per_monotone_near_edge(self):
        link = LinkModel()
        edge = link.max_range_m()
        pers = [link.packet_error_rate(edge * f) for f in (0.5, 0.8, 0.95, 1.5)]
        assert all(b >= a for a, b in zip(pers, pers[1:]))
