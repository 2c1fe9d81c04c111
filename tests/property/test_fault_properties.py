"""Resilience counters confess, and never change the modelled costs.

Replica failover and dark-shard degradation (the coordinator's two counts,
``tasks_retried`` and ``degraded_queries``) mask failures, so they must reach
:meth:`repro.core.costs.CostModel.pr_report` -- and leave every modelled
millisecond and byte where it was, since a failover re-runs work whose
results are bit-identical.
"""


class TestResilienceCountersReachCostReports:
    def test_pr_report_carries_resilience_counts(self):
        from repro.core.costs import CostModel

        report = CostModel().pr_report(
            buckets_fetched=1,
            blocks_read=2,
            server_exponentiations=0,
            server_multiplications=10,
            upstream_bytes=100,
            downstream_bytes=100,
            client_encryptions=4,
            client_decryptions=4,
            tasks_retried=3,
            degraded_queries=1,
        )
        assert report.counts["tasks_retried"] == 3
        assert report.counts["degraded_queries"] == 1

    def test_resilience_counters_do_not_change_modelled_costs(self):
        from repro.core.costs import CostModel

        model = CostModel()
        base = dict(
            buckets_fetched=1,
            blocks_read=2,
            server_exponentiations=5,
            server_multiplications=10,
            upstream_bytes=100,
            downstream_bytes=100,
            client_encryptions=4,
            client_decryptions=4,
        )
        clean = model.pr_report(**base)
        stormy = model.pr_report(**base, tasks_retried=9, degraded_queries=2)
        assert stormy.server_cpu_ms == clean.server_cpu_ms
        assert stormy.server_io_ms == clean.server_io_ms
        assert stormy.user_cpu_ms == clean.user_cpu_ms
        assert stormy.traffic_kbytes == clean.traffic_kbytes
