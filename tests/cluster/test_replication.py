"""Tests for replica groups: WAL shipping, failover, rejoin, divergence.

The load-bearing claims: a replicated cluster survives any storm that
leaves one live node per group with zero committed loss and zero phantom
redo; a stranded group dies loudly as a structured
:class:`~repro.errors.NodeFailure`; replay is byte-identical at any
worker count; and a promoted replica's durable state is byte-identical
to a never-crashed reference's durable prefix at the same commit point
(the divergence battery).
"""

import dataclasses

import pytest

from repro.bufferpool.recovery import recover, simulate_crash
from repro.cluster import replication
from repro.cluster.engine import (
    ClusterConfig,
    build_shard_stack,
    run_cluster,
)
from repro.engine.executor import ExecutionOptions, replay
from repro.errors import ClusterReplayError, NodeFailure
from repro.faults.nodes import NodeFault, NodeFaultPlan
from repro.storage.clock import to_ticks
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace

OPTIONS = ExecutionOptions(cpu_us_per_op=2.0, commit_every_ops=32)
NUM_PAGES = 1_200
NUM_OPS = 2_400


def make_config(
    policy="lru",
    variant="ace",
    num_shards=2,
    replication_factor=1,
    faults=(),
    seed=0,
    capture=False,
):
    plan = NodeFaultPlan(seed=seed, faults=tuple(faults)) if faults else None
    return ClusterConfig(
        profile=PCIE_SSD,
        policy=policy,
        variant=variant,
        num_pages=NUM_PAGES,
        num_shards=num_shards,
        options=OPTIONS,
        replication_factor=replication_factor,
        node_faults=plan,
        capture_promotion_images=capture,
    )


def make_trace(seed=42, num_ops=NUM_OPS):
    return generate_trace(MS, NUM_PAGES, num_ops, seed=seed)


class TestConfig:
    def test_label_gains_replication_suffix(self):
        assert make_config(replication_factor=2).label.endswith("/r2")
        base = ClusterConfig(
            profile=PCIE_SSD, policy="lru", variant="baseline",
            num_pages=NUM_PAGES, num_shards=2,
        )
        assert "/r" not in base.label

    def test_fault_plan_must_fit_the_cluster(self):
        with pytest.raises(ValueError):
            make_config(num_shards=2, faults=[
                NodeFault(shard=2, node=0, crash_at_access=1),
            ])
        with pytest.raises(ValueError):
            make_config(replication_factor=1, faults=[
                NodeFault(shard=0, node=2, crash_at_access=1),
            ])

    def test_negative_replication_rejected(self):
        with pytest.raises(ValueError):
            make_config(replication_factor=-1)

class TestFailover:
    def test_single_primary_crash_fails_over_and_audits_clean(self):
        config = make_config(faults=[
            NodeFault(shard=0, node=0, crash_at_access=101),
        ])
        metrics = run_cluster(config, make_trace(), workers=1)
        summary = metrics.replication
        assert summary is not None
        assert summary.failovers == 1
        assert summary.node_crashes == 1
        assert summary.lost_updates == 0
        assert summary.phantom_pages == 0
        assert summary.ok
        assert summary.final_epoch == 1
        assert summary.final_primaries == (1, 0)
        assert summary.max_failover_latency_us > 0
        # The in-flight window died with the primary and was retried:
        # 101 = 3 full commits of 32 plus 5 in-flight accesses.
        shard0 = summary.per_shard[0]
        assert shard0.retried_accesses == 5
        assert 0 < summary.availability < 1
        assert metrics.ops == NUM_OPS

    def test_largest_batches_merge_by_max_over_the_nodes_that_served(self):
        """Two primaries served shard 0; ``largest_*`` is a maximum, not a
        sum over them (it read 16 and 2 with ``n_w = 8`` when it was).  The
        promoted one absorbed whole shipments while it was a replica, so
        its largest batch is a commit window's image count, above the
        ``n_w`` that is all a never-failed-over shard ever writes."""
        config = make_config(faults=[
            NodeFault(shard=0, node=0, crash_at_access=900),
        ])
        metrics = run_cluster(config, make_trace(), workers=1)
        assert metrics.replication.failovers == 1
        shard0, shard1 = (shard.device for shard in metrics.per_shard)
        merged = metrics.merged.device
        for device in (shard0, shard1, merged):
            assert device.largest_write_batch == max(
                device.write_batch_size_histogram
            )
            assert device.largest_read_batch == 1
            assert device.writes == sum(
                size * count
                for size, count in device.write_batch_size_histogram.items()
            )
        assert shard1.largest_write_batch == 8
        assert 8 < shard0.largest_write_batch <= OPTIONS.commit_every_ops
        assert merged.largest_write_batch == shard0.largest_write_batch

    def test_no_faults_means_no_failovers_but_real_shipping(self):
        metrics = run_cluster(make_config(), make_trace(), workers=1)
        summary = metrics.replication
        assert summary.failovers == 0
        assert summary.availability == 1.0
        assert summary.final_epoch == 0
        assert all(r.shipped_records > 0 for r in summary.per_shard)
        assert summary.ok

    def test_unreplicated_config_has_no_summary(self):
        config = ClusterConfig(
            profile=PCIE_SSD, policy="lru", variant="baseline",
            num_pages=NUM_PAGES, num_shards=2, options=OPTIONS,
        )
        metrics = run_cluster(config, make_trace(), workers=1)
        assert metrics.replication is None

    def test_virtual_time_trigger(self):
        config = make_config(faults=[
            NodeFault(shard=0, node=0, crash_at_us=30_000.0),
        ])
        summary = run_cluster(config, make_trace(), workers=1).replication
        assert summary.failovers == 1
        event = summary.per_shard[0].failovers[0]
        assert event.virtual_time_us >= 30_000.0
        assert summary.ok
        # The primary fires after the first request whose end reaches
        # 30 ms, as when the clock was asked before every request.
        assert event == replication.FailoverEvent(
            shard=0, failed_node=0, promoted_node=1, ordinal=1,
            virtual_time_us=30002.53, failover_latency_us=17731.0,
            retried_accesses=19, candidates_lost=0,
        )
        assert summary.per_shard[0].attempted_accesses == 1304
        assert (summary.final_epoch, summary.final_primaries) == (1, (1, 0))

    def test_double_failure_falls_through_to_second_replica(self):
        config = make_config(replication_factor=2, faults=[
            NodeFault(shard=0, node=0, crash_at_access=101),
            NodeFault(shard=0, node=1, crash_at_access=101),
        ])
        summary = run_cluster(config, make_trace(), workers=1).replication
        shard0 = summary.per_shard[0]
        assert len(shard0.failovers) == 1
        event = shard0.failovers[0]
        assert event.promoted_node == 2
        assert event.candidates_lost == 1
        assert shard0.node_crashes == 2
        assert summary.final_primaries[0] == 2
        assert summary.ok

    def test_rejoin_and_fail_back(self):
        config = make_config(faults=[
            NodeFault(shard=0, node=0, crash_at_access=60,
                      rejoin_after_accesses=100),
            NodeFault(shard=0, node=1, crash_at_access=400),
        ])
        summary = run_cluster(config, make_trace(), workers=1).replication
        shard0 = summary.per_shard[0]
        assert len(shard0.failovers) == 2
        assert shard0.rejoins == 1
        # Node 0 crashed, rejoined via anti-entropy, and took back over
        # when the promoted node 1 died in turn.
        assert shard0.final_primary == 0
        assert summary.ok


class TestNodeFailurePath:
    def test_stranded_group_raises_structured_failure(self):
        # R=0 with a primary fault: nobody to fail over to.
        config = ClusterConfig(
            profile=PCIE_SSD, policy="lru", variant="baseline",
            num_pages=NUM_PAGES, num_shards=2, options=OPTIONS,
            node_faults=NodeFaultPlan(faults=(
                NodeFault(shard=0, node=0, crash_at_access=101),
            )),
        )
        with pytest.raises(ClusterReplayError) as excinfo:
            run_cluster(config, make_trace(), workers=1)
        failure = excinfo.value.failure
        assert isinstance(failure, NodeFailure)
        assert failure.shard == 0
        assert failure.node == 0
        assert failure.virtual_time_us > 0
        assert "no live replica" in failure.cause
        # Partial metrics cover exactly the committed prefix (the last
        # commit boundary before the crash: 3 full commits of 32).
        assert failure.partial_metrics is not None
        assert failure.partial_metrics.ops == 96

    def test_parallel_workers_raise_the_same_failure(self):
        config = ClusterConfig(
            profile=PCIE_SSD, policy="lru", variant="baseline",
            num_pages=NUM_PAGES, num_shards=2, options=OPTIONS,
            node_faults=NodeFaultPlan(faults=(
                NodeFault(shard=0, node=0, crash_at_access=101),
            )),
        )
        with pytest.raises(ClusterReplayError) as excinfo:
            run_cluster(config, make_trace(), workers=2)
        assert excinfo.value.failure.partial_metrics.ops == 96


class TestWorkerDeterminism:
    def test_merged_metrics_identical_across_worker_counts(self):
        config = make_config(replication_factor=2, faults=[
            NodeFault(shard=0, node=0, crash_at_access=101),
            NodeFault(shard=1, node=0, crash_at_access=300,
                      rejoin_after_accesses=200),
        ], seed=3)
        trace = make_trace()
        serial = run_cluster(config, trace, workers=1)
        parallel = run_cluster(config, trace, workers=2)
        # Wall-clock fields aside, the merged metrics and the complete
        # failover history must be byte-identical.
        a = dataclasses.asdict(serial)
        b = dataclasses.asdict(parallel)
        for entry in (a, b):
            entry.pop("replay_wall_s", None)
            entry.pop("elapsed_wall_s", None)
            entry.pop("replication", None)
        assert a == b
        assert serial.replication.per_shard == parallel.replication.per_shard
        assert serial.replication.final_primaries == \
            parallel.replication.final_primaries


def reference_durable_images(config, pages, writes, committed):
    """A never-crashed single-stack replay of the committed prefix.

    Replays exactly ``committed`` accesses on a fresh WAL-bearing stack,
    flushes, then crashes and recovers it — the durable images are the
    ground truth a promoted replica must match byte-for-byte.
    """
    manager = build_shard_stack(config, 0, with_wal=True)
    for index in range(committed):
        manager.access(pages[index], writes[index])
    manager.wal.flush()
    image = simulate_crash(manager)
    recover(image)
    return tuple(
        (page, image.device.peek(page))
        for page in range(config.num_pages)
        if image.device.peek(page) != 0
    )


class TestDivergenceBattery:
    """Satellite 3: promoted replicas never diverge from the reference.

    Every swept policy x variant, with the crash point deliberately
    inside an ACE batch window (101 = 3 x 32 + 5), plus a double-failure
    sweep at R=2 — the second-choice candidate's promotion images must
    match the reference too.
    """

    POLICIES = ("lru", "clock", "cflru")
    VARIANTS = ("baseline", "ace")

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_promoted_images_match_reference_prefix(self, policy, variant):
        config = make_config(
            policy=policy, variant=variant, num_shards=1,
            faults=[NodeFault(shard=0, node=0, crash_at_access=101)],
            capture=True,
        )
        trace = make_trace(num_ops=600)
        summary = run_cluster(config, trace, workers=1).replication
        shard0 = summary.per_shard[0]
        assert len(shard0.promotion_images) == 1
        committed, node, images = shard0.promotion_images[0]
        assert node == 1
        assert committed == 96  # the last commit boundary before 101
        reference = reference_durable_images(
            config, trace.pages, trace.writes, committed
        )
        assert images == reference
        assert summary.ok

    @pytest.mark.parametrize("policy", POLICIES)
    def test_double_failure_second_choice_matches_reference(self, policy):
        config = make_config(
            policy=policy, variant="ace", num_shards=1,
            replication_factor=2,
            faults=[
                NodeFault(shard=0, node=0, crash_at_access=101),
                NodeFault(shard=0, node=1, crash_at_access=101),
            ],
            capture=True,
        )
        trace = make_trace(num_ops=600)
        summary = run_cluster(config, trace, workers=1).replication
        shard0 = summary.per_shard[0]
        committed, node, images = shard0.promotion_images[0]
        assert node == 2
        assert shard0.failovers[0].candidates_lost == 1
        reference = reference_durable_images(
            config, trace.pages, trace.writes, committed
        )
        assert images == reference
        assert summary.ok

    def test_rejoined_node_promotes_to_reference_state(self):
        # Anti-entropy catch-up then promotion: the rebuilt node's
        # durable images must equal the reference at the *second* crash
        # point, proving the catch-up shipped the whole history.
        config = make_config(
            policy="lru", variant="ace", num_shards=1,
            faults=[
                NodeFault(shard=0, node=0, crash_at_access=60,
                          rejoin_after_accesses=100),
                NodeFault(shard=0, node=1, crash_at_access=400),
            ],
            capture=True,
        )
        trace = make_trace(num_ops=600)
        summary = run_cluster(config, trace, workers=1).replication
        shard0 = summary.per_shard[0]
        assert len(shard0.promotion_images) == 2
        committed, node, images = shard0.promotion_images[1]
        assert node == 0  # the rejoiner took back over
        reference = reference_durable_images(
            config, trace.pages, trace.writes, committed
        )
        assert images == reference
        assert summary.ok


def _apply_record_by_record(node, shipment):
    """The apply that preceded the packed shipment, kept as the reference:
    one ``log_update`` per record, a flush, a dedup dict, one
    ``write_page`` per image."""
    wal, device = node.wal, node.device
    for page, payload in zip(shipment.pages, shipment.payloads):
        wal.log_update(page, payload)
    wal.flush()
    latest = {}
    for page, payload in zip(shipment.pages, shipment.payloads):
        latest[page] = payload
    for page, payload in latest.items():
        device.write_page(page, payload=payload)


def _keep_groups(monkeypatch):
    """The list every replica group built from now on is appended to."""
    groups = []
    init = replication._ReplicaGroup.__init__

    def keeping(self, *args, **kwargs):
        init(self, *args, **kwargs)
        groups.append(self)

    monkeypatch.setattr(replication._ReplicaGroup, "__init__", keeping)
    return groups


class TestPackedShipment:
    """A commit reaches a replica as one packed shipment — one WAL batch
    append, one device batch.  What it leaves behind is what the
    record-by-record apply left; what it costs is one batch."""

    STORM = [
        NodeFault(shard=0, node=1, crash_at_access=70,
                  rejoin_after_accesses=64),
        NodeFault(shard=0, node=0, crash_at_access=300),
    ]

    @pytest.mark.parametrize("policy", TestDivergenceBattery.POLICIES)
    @pytest.mark.parametrize("variant", TestDivergenceBattery.VARIANTS)
    def test_replicas_end_byte_identical_to_the_per_record_apply(
        self, policy, variant, monkeypatch
    ):
        """Replica dies, rejoins by anti-entropy, is promoted: every
        node's log (records and physical page images, checksums included)
        and device end as the reference apply leaves them."""
        config = make_config(policy=policy, variant=variant, num_shards=1,
                             faults=self.STORM, capture=True)
        trace = make_trace(num_ops=600)
        groups = _keep_groups(monkeypatch)
        packed = run_cluster(config, trace, workers=1)
        monkeypatch.setattr(
            replication._GroupNode, "apply", _apply_record_by_record
        )
        stepped = run_cluster(config, trace, workers=1)
        group, reference = groups

        report = packed.replication.per_shard[0]
        assert (report.rejoins, len(report.failovers)) == (1, 1)
        assert report.audit_ok and report.shipped_records > 0
        assert report.promotion_images == \
            stepped.replication.per_shard[0].promotion_images
        assert report.shipped_records == \
            stepped.replication.per_shard[0].shipped_records
        for node, twin in zip(group.nodes, reference.nodes):
            assert node.wal.durable_records() == twin.wal.durable_records()
            assert node.wal.pages_written == twin.wal.pages_written
            assert node.wal.device.snapshot_payloads() == \
                twin.wal.device.snapshot_payloads()
            assert node.device.snapshot_payloads() == \
                twin.device.snapshot_payloads()
            assert node.device.stats.writes == twin.device.stats.writes

    @staticmethod
    def _group_with_uncommitted_writes(replication_factor=2):
        config = make_config(num_shards=1,
                             replication_factor=replication_factor)
        group = replication._ReplicaGroup(config, 0, ())
        trace = make_trace(num_ops=64)
        replay(group.primary.manager, trace.pages, trace.writes)
        group.primary.wal.flush()
        return group, trace

    def test_apply_costs_one_device_batch_and_the_commit_waits_for_the_slowest(
        self,
    ):
        group, trace = self._group_with_uncommitted_writes()
        written = sum(trace.writes)
        primary, fast, slow = group.nodes
        apply = slow.apply

        def apply_slowly(shipment):
            apply(shipment)
            slow.clock.advance(500.0)

        slow.apply = apply_slowly
        marks = [node.clock.ticks for node in group.nodes]
        group.commit(64)
        waited, fast_cost, slow_cost = (
            node.clock.ticks - mark for node, mark in zip(group.nodes, marks)
        )

        images = fast.device.stats.writes
        assert 8 < images <= written  # pages repeat within the window
        assert fast.device.stats.write_batch_size_histogram == {images: 1}
        log_pages = -(-written // fast.wal.records_per_page)
        assert fast.wal.pages_written == log_pages
        assert fast_cost == (
            log_pages * to_ticks(fast.wal.device.model.write_batch_us(1))
            + to_ticks(fast.device.model.write_batch_us(images))
        )
        # k_w at work: one batch, not one wave per image.
        assert fast.device.stats.write_ticks < (
            images * fast.device._single_write_ticks / 2
        )
        assert slow_cost == fast_cost + to_ticks(500.0)
        # The primary's log was already flushed: all it did was wait.
        assert waited == slow_cost
        assert group.shipped_records == 2 * written

    def test_anti_entropy_ships_what_a_commit_ships(self):
        """A payload-less UPDATE is not shippable: the rejoiner neither
        logs it nor writes ``None`` over the page (the hand-rolled
        catch-up did the second)."""
        group, trace = self._group_with_uncommitted_writes(
            replication_factor=1
        )
        primary, replica = group.nodes
        untouched = min(set(range(NUM_PAGES)) - set(trace.pages))
        primary.wal.log_update(untouched)
        group.commit(64)
        survivor_log = replica.wal.durable_records()
        survivor_pages = replica.device.snapshot_payloads()
        assert len(survivor_log) == sum(trace.writes)

        group._rejoin(replica)

        assert replica.wal.durable_records() == survivor_log
        assert replica.device.snapshot_payloads() == survivor_pages
        assert replica.device.peek(untouched) == 0
        assert replica.device.stats.write_batches == 1


def _comparable(metrics):
    """Merged cluster metrics minus the wall-clock fields."""
    plain = dataclasses.asdict(metrics)
    for wall in ("replay_wall_s", "elapsed_wall_s"):
        plain.pop(wall, None)
    return plain


class TestSegmentedReplay:
    """The primary runs ``replay`` over whole segments between the indices
    where its fault plan can fire — a timed fault is a deadline, not an
    index — with one CPU charge per segment.  The reference is the loop
    that preceded it — one request per segment, through
    ``manager.access``, the clock asked before each — which the integer
    clock makes equal to the last bit: summary, failover events,
    promotion images, metrics."""

    FAULTS = {
        "mid-window": [NodeFault(shard=0, node=0, crash_at_access=101)],
        "first index of a commit window": [
            NodeFault(shard=0, node=0, crash_at_access=96)
        ],
        "fail over and back": [
            NodeFault(shard=0, node=0, crash_at_access=101,
                      rejoin_after_accesses=32),
            NodeFault(shard=0, node=1, crash_at_access=140),
        ],
        "replica dies, rejoins, is promoted": [
            NodeFault(shard=0, node=1, crash_at_access=70,
                      rejoin_after_accesses=64),
            NodeFault(shard=0, node=0, crash_at_access=300),
        ],
        "timed": [NodeFault(shard=0, node=0, crash_at_us=30_000.0)],
    }

    @staticmethod
    def _step_one_request_per_segment(monkeypatch):
        fault_due = replication._ReplicaGroup._fault_due

        def one_request(self, node, progress, time_us, horizon):
            fault, end, _ = fault_due(self, node, progress, time_us,
                                      min(horizon, progress + 1))
            return fault, end, None

        def access_each(manager, pages, writes, op_ticks, until_ticks):
            assert len(pages) == 1 and until_ticks is None
            manager.access(pages[0], writes[0])
            manager.device.clock.ticks += op_ticks
            return 1

        monkeypatch.setattr(replication._ReplicaGroup, "_fault_due", one_request)
        monkeypatch.setattr(replication, "replay", access_each)

    @pytest.mark.parametrize("case", FAULTS)
    def test_segments_equal_request_by_request(self, case, monkeypatch):
        config = make_config(num_shards=1, faults=self.FAULTS[case], capture=True)
        trace = make_trace(num_ops=700)
        segments = []
        replay = replication.replay

        def recording(manager, pages, writes, *deadline):
            segments.append(replay(manager, pages, writes, *deadline))
            return segments[-1]

        monkeypatch.setattr(replication, "replay", recording)
        bulk = run_cluster(config, trace, workers=1)
        self._step_one_request_per_segment(monkeypatch)
        stepped = run_cluster(config, trace, workers=1)

        assert bulk.replication == stepped.replication
        assert _comparable(bulk) == _comparable(stepped)
        shard0 = bulk.replication.per_shard[0]
        assert len(shard0.failovers) == len(shard0.promotion_images) >= 1
        assert shard0.audit_ok
        assert sum(segments) == 700 + shard0.retried_accesses
        # Whole commit windows, a timed fault pending or not: one replay
        # per window, plus at most two more per fault (the cut window and
        # its retry), however many requests precede the crash.
        assert segments[0] == max(segments) == 32
        assert len(segments) <= -(-700 // 32) + 2 * len(self.FAULTS[case])
