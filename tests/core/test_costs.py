"""Unit tests for the Section 5.2 cost model."""

import pytest

from repro.core.costs import CostModel, CostReport


@pytest.fixture()
def model():
    return CostModel()


class TestComponents:
    def test_io_combines_seeks_and_blocks(self, model):
        assert model.io_ms(2, 100) == pytest.approx(2 * model.io_seek_ms + 100 * model.io_ms_per_block)

    def test_traffic_in_kilobytes(self, model):
        assert model.traffic_kb(1024, 1024) == pytest.approx(2.0)


class TestPrReport:
    def test_report_composition(self, model):
        report = model.pr_report(
            buckets_fetched=3,
            blocks_read=30,
            server_exponentiations=1000,
            server_multiplications=900,
            upstream_bytes=2048,
            downstream_bytes=4096,
            client_encryptions=24,
            client_decryptions=500,
        )
        assert report.scheme == "PR"
        assert report.server_io_ms == pytest.approx(model.io_ms(3, 30))
        assert report.server_cpu_ms == pytest.approx(
            1000 * model.server_modexp_ms + 900 * model.server_modmul_ms
        )
        assert report.traffic_kbytes == pytest.approx(6.0)
        assert report.user_cpu_ms > 0
        assert report.counts["client_decryptions"] == 500

    def test_user_cpu_scales_with_decryptions(self, model):
        few = model.pr_report(
            buckets_fetched=1, blocks_read=1, server_exponentiations=1, server_multiplications=0,
            upstream_bytes=1, downstream_bytes=1, client_encryptions=1, client_decryptions=10,
        )
        many = model.pr_report(
            buckets_fetched=1, blocks_read=1, server_exponentiations=1, server_multiplications=0,
            upstream_bytes=1, downstream_bytes=1, client_encryptions=1, client_decryptions=1000,
        )
        assert many.user_cpu_ms > few.user_cpu_ms


class TestPirReport:
    def test_report_composition(self, model):
        report = model.pir_report(
            buckets_fetched=2,
            blocks_read=20,
            server_multiplications=50_000,
            upstream_bytes=1024,
            downstream_bytes=10_240,
            client_group_elements=16,
            client_residuosity_tests=4000,
            client_score_operations=300,
        )
        assert report.scheme == "PIR"
        assert report.server_cpu_ms == pytest.approx(50_000 * model.server_modmul_ms)
        assert report.traffic_kbytes == pytest.approx(11.0)
        assert report.counts["client_residuosity_tests"] == 4000

    def test_custom_constants_respected(self):
        model = CostModel(server_modmul_ms=1.0)
        report = model.pir_report(
            buckets_fetched=0, blocks_read=0, server_multiplications=7,
            upstream_bytes=0, downstream_bytes=0, client_group_elements=0,
            client_residuosity_tests=0, client_score_operations=0,
        )
        assert report.server_cpu_ms == pytest.approx(7.0)


class TestCostReportAggregation:
    def _make(self, value):
        return CostReport(
            scheme="PR",
            server_io_ms=value,
            server_cpu_ms=2 * value,
            traffic_kbytes=3 * value,
            user_cpu_ms=4 * value,
            counts={"x": value},
        )

    def test_average(self):
        average = CostReport.average([self._make(10.0), self._make(30.0)])
        assert average.server_io_ms == pytest.approx(20.0)
        assert average.server_cpu_ms == pytest.approx(40.0)
        assert average.counts["x"] == pytest.approx(20.0)

    def test_average_of_empty_list_rejected(self):
        with pytest.raises(ValueError):
            CostReport.average([])

    def test_combined_weighting(self):
        combined = self._make(0.0).combined(self._make(10.0), weight_self=0.25)
        assert combined.server_io_ms == pytest.approx(7.5)
        assert combined.counts["x"] == pytest.approx(7.5)

