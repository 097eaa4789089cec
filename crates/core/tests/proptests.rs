//! Property-based tests for the ATraPos cost model, partitioning schemes,
//! the two-step search (Algorithms 1 and 2), repartitioning plans, and the
//! adaptive monitoring interval.
//!
//! These pin down the guarantees the adaptive controller relies on: every
//! scheme the search produces is structurally valid and only uses active
//! cores, Algorithm 2 never makes the synchronization overhead worse,
//! repartitioning plans are minimal and reversible, and the monitoring
//! interval always stays inside its configured bounds.

use atrapos_core::{
    choose_partitioning, choose_placement, choose_scheme, plan_repartitioning,
    resource_utilization, sync_overhead, AdaptiveInterval, IntervalDecision, KeyDomain,
    PartitioningScheme, SearchConfig, SubPartitionId, WorkloadStats,
};
use atrapos_numa::{SocketId, Topology};
use atrapos_storage::TableId;
use proptest::prelude::*;

/// Strategy for a small machine shape: (sockets, cores per socket).
fn machine_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=4, 1usize..=4)
}

/// Build a workload trace with the given per-sub-partition loads for one
/// table.
fn trace_for_table(table: TableId, loads: &[f64]) -> WorkloadStats {
    let mut stats = WorkloadStats::new();
    stats.declare_table(table, loads.len());
    for (i, &l) in loads.iter().enumerate() {
        if l > 0.0 {
            stats.record_action(SubPartitionId::new(table, i), l);
        }
    }
    stats
}

proptest! {
    // ------------------------------------------------------------------
    // Key domains and sub-partitions
    // ------------------------------------------------------------------

    /// Every key maps to a sub-partition index inside `[0, n_sub)`, the
    /// mapping is monotone in the key, and the sub-partition's lower key
    /// maps back to the same index.
    #[test]
    fn key_domain_sub_partition_mapping_is_monotone_and_total(
        lo in -1_000i64..1_000,
        width in 1i64..100_000,
        n_sub in 1usize..200,
        key_a in -2_000i64..102_000,
        key_b in -2_000i64..102_000,
    ) {
        let domain = KeyDomain::new(lo, lo + width);
        let sa = domain.sub_partition_of(key_a, n_sub);
        let sb = domain.sub_partition_of(key_b, n_sub);
        prop_assert!(sa < n_sub);
        prop_assert!(sb < n_sub);
        if key_a <= key_b {
            prop_assert!(sa <= sb);
        }
        // Round trip: the lower key of a sub-partition belongs to it.  This
        // only holds when every sub-partition spans at least one key (always
        // the case in practice: domains have far more keys than the ~10
        // sub-partitions per partition the paper uses).
        if width >= n_sub as i64 {
            let lower = domain.sub_partition_lower(sa, n_sub);
            prop_assert_eq!(domain.sub_partition_of(lower.max(lo), n_sub), sa);
        }
        // Lower bounds are non-decreasing across sub-partition indices.
        for i in 1..n_sub.min(16) {
            prop_assert!(domain.sub_partition_lower(i, n_sub) >= domain.sub_partition_lower(i - 1, n_sub));
        }
    }

    /// The naive scheme (one partition of every table per active core) is
    /// always structurally valid, covers the whole domain, and places
    /// exactly one partition of each table on every core.
    #[test]
    fn naive_scheme_is_always_valid(
        (sockets, cores) in machine_shape(),
        n_tables in 1usize..4,
        sub_per in 1usize..20,
        width in 10i64..1_000_000,
    ) {
        let topo = Topology::multisocket(sockets, cores);
        let tables: Vec<(TableId, KeyDomain)> = (0..n_tables)
            .map(|i| (TableId(i as u32), KeyDomain::new(0, width)))
            .collect();
        let scheme = PartitioningScheme::naive(&tables, &topo, sub_per);
        let ids: Vec<TableId> = tables.iter().map(|&(t, _)| t).collect();
        scheme.check_invariants(&topo, &ids).map_err(TestCaseError::fail)?;
        let n_cores = sockets * cores;
        prop_assert_eq!(scheme.total_partitions(), n_tables * n_cores);
        prop_assert_eq!(scheme.partitions_per_core(&topo), vec![n_tables; n_cores]);
        // Every key routes to some core of the machine.
        for t in scheme.tables() {
            for key in [0, width / 2, width - 1] {
                let core = t.core_of_key(key);
                prop_assert!(core.index() < n_cores);
            }
        }
    }

    // ------------------------------------------------------------------
    // Cost model
    // ------------------------------------------------------------------

    /// `RU(S,W)` is non-negative, zero for a perfectly uniform trace on the
    /// naive scheme, and scales linearly with the load (homogeneity).
    #[test]
    fn resource_utilization_is_nonnegative_and_homogeneous(
        (sockets, cores) in machine_shape(),
        loads in prop::collection::vec(0.0f64..1_000.0, 1..80),
        scale in 1.0f64..50.0,
    ) {
        let topo = Topology::multisocket(sockets, cores);
        let n_cores = sockets * cores;
        let sub_per = (loads.len() / n_cores).max(1);
        let scheme = PartitioningScheme::naive(
            &[(TableId(0), KeyDomain::new(0, 1_000))],
            &topo,
            sub_per,
        );
        let stats = trace_for_table(TableId(0), &loads);
        let ru = resource_utilization(&scheme, &stats, &topo);
        prop_assert!(ru >= -1e-9);
        // Homogeneity: scaling every observation scales the imbalance.
        let scaled: Vec<f64> = loads.iter().map(|l| l * scale).collect();
        let ru_scaled = resource_utilization(&scheme, &trace_for_table(TableId(0), &scaled), &topo);
        prop_assert!((ru_scaled - ru * scale).abs() <= 1e-6 * (1.0 + ru * scale));
    }

    /// `TS(S,W)` is non-negative, zero on a single-socket machine, and zero
    /// whenever both sub-partitions of every observed pair are placed on the
    /// same socket.
    #[test]
    fn sync_overhead_is_zero_iff_colocated(
        pairs in prop::collection::vec((0usize..40, 0usize..40, 1u64..512), 0..30),
    ) {
        let single = Topology::multisocket(1, 4);
        let multi = Topology::multisocket(4, 1);
        let tables = [
            (TableId(0), KeyDomain::new(0, 1_000)),
            (TableId(1), KeyDomain::new(0, 1_000)),
        ];
        let scheme_single = PartitioningScheme::naive(&tables, &single, 10);
        let scheme_multi = PartitioningScheme::naive(&tables, &multi, 10);
        let mut stats = WorkloadStats::new();
        for &(a, b, bytes) in &pairs {
            stats.record_sync(
                SubPartitionId::new(TableId(0), a),
                SubPartitionId::new(TableId(1), b),
                bytes,
            );
        }
        prop_assert_eq!(sync_overhead(&scheme_single, &stats, &single), 0.0);
        let ts_multi = sync_overhead(&scheme_multi, &stats, &multi);
        prop_assert!(ts_multi >= 0.0);
        // With the naive scheme both tables use the same sub→core mapping,
        // so a pair with equal indices is co-located and contributes zero.
        let all_colocated = pairs.iter().all(|&(a, b, _)| {
            scheme_multi.table(TableId(0)).partition_of_sub(a.min(39))
                == scheme_multi.table(TableId(1)).partition_of_sub(b.min(39))
        });
        if all_colocated {
            prop_assert_eq!(ts_multi, 0.0);
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 1: choose partitioning
    // ------------------------------------------------------------------

    /// Whatever the trace, Algorithm 1 returns a structurally valid scheme
    /// that only uses active cores and covers every sub-partition of every
    /// table exactly once.
    #[test]
    fn choose_partitioning_returns_valid_schemes(
        (sockets, cores) in machine_shape(),
        loads in prop::collection::vec(0.0f64..1_000.0, 2..120),
        fail_last_socket in any::<bool>(),
    ) {
        let mut topo = Topology::multisocket(sockets, cores);
        if fail_last_socket && sockets > 1 {
            topo.fail_socket(SocketId((sockets - 1) as u16)).unwrap();
        }
        let naive = PartitioningScheme::naive(
            &[(TableId(0), KeyDomain::new(0, 10_000))],
            &topo,
            (loads.len() / topo.num_active_cores().max(1)).max(1),
        );
        let stats = trace_for_table(TableId(0), &loads);
        let chosen = choose_partitioning(&naive, &stats, &topo, &SearchConfig::default());
        chosen.check_invariants(&topo, &naive.table_ids()).map_err(TestCaseError::fail)?;
        for t in chosen.tables() {
            for p in &t.partitions {
                prop_assert!(topo.is_active(topo.socket_of(p.core)), "partition on failed socket");
            }
        }
    }

    /// On a trace where one core's naive partition would receive all the
    /// load, Algorithm 1 strictly improves the balance over the naive
    /// scheme (this is the situation of the paper's Figure 11 skew
    /// experiment).
    #[test]
    fn choose_partitioning_improves_heavy_skew(
        (sockets, cores) in (2usize..=4, 2usize..=4),
        hot_weight in 100.0f64..10_000.0,
    ) {
        let topo = Topology::multisocket(sockets, cores);
        let n_cores = sockets * cores;
        let sub_per = 10usize;
        let naive = PartitioningScheme::naive(
            &[(TableId(0), KeyDomain::new(0, 10_000))],
            &topo,
            sub_per,
        );
        // All the load on the first core's sub-partitions, spread over its
        // 10 sub-partitions so a finer split can rebalance it.
        let mut loads = vec![0.0; n_cores * sub_per];
        for sub in loads.iter_mut().take(sub_per) {
            *sub = hot_weight;
        }
        let stats = trace_for_table(TableId(0), &loads);
        let ru_naive = resource_utilization(&naive, &stats, &topo);
        let chosen = choose_partitioning(&naive, &stats, &topo, &SearchConfig::default());
        let ru_chosen = resource_utilization(&chosen, &stats, &topo);
        prop_assert!(
            ru_chosen < ru_naive,
            "RU should improve under heavy skew: naive {ru_naive}, chosen {ru_chosen}"
        );
    }

    // ------------------------------------------------------------------
    // Algorithm 2: choose placement
    // ------------------------------------------------------------------

    /// Algorithm 2 never increases the synchronization overhead, and the
    /// scheme it returns keeps exactly the same partition boundaries (it
    /// only reassigns cores).
    #[test]
    fn choose_placement_never_increases_sync_overhead(
        (sockets, cores) in (2usize..=4, 1usize..=3),
        pairs in prop::collection::vec((0usize..40, 0usize..40, 1u64..512), 1..25),
        loads in prop::collection::vec(0.0f64..100.0, 40..=40),
    ) {
        let topo = Topology::multisocket(sockets, cores);
        let tables = [
            (TableId(0), KeyDomain::new(0, 1_000)),
            (TableId(1), KeyDomain::new(0, 1_000)),
        ];
        let n_cores = sockets * cores;
        let scheme = PartitioningScheme::even(&tables, &topo, n_cores, (40 / n_cores).max(1));
        let mut stats = trace_for_table(TableId(0), &loads);
        for &(a, b, bytes) in &pairs {
            stats.record_sync(
                SubPartitionId::new(TableId(0), a.min(39)),
                SubPartitionId::new(TableId(1), b.min(39)),
                bytes,
            );
        }
        let ts_before = sync_overhead(&scheme, &stats, &topo);
        let placed = choose_placement(&scheme, &stats, &topo, &SearchConfig::default());
        let ts_after = sync_overhead(&placed, &stats, &topo);
        prop_assert!(ts_after <= ts_before + 1e-9, "TS got worse: {ts_before} -> {ts_after}");
        placed.check_invariants(&topo, &scheme.table_ids()).map_err(TestCaseError::fail)?;
        // The placement step only moves partitions between cores; the
        // sub-partition boundaries are untouched.
        for (t_before, t_after) in scheme.tables().iter().zip(placed.tables()) {
            prop_assert_eq!(t_before.partitions.len(), t_after.partitions.len());
            for (p_before, p_after) in t_before.partitions.iter().zip(&t_after.partitions) {
                prop_assert_eq!(p_before.sub_start, p_after.sub_start);
                prop_assert_eq!(p_before.sub_end, p_after.sub_end);
            }
        }
    }

    /// The full two-step search (Algorithm 1 + Algorithm 2) produces valid
    /// schemes that avoid failed sockets — the property behind the paper's
    /// Figure 12 hardware-failure experiment.
    #[test]
    fn choose_scheme_avoids_failed_sockets(
        sockets in 2usize..=4,
        cores in 1usize..=3,
        failed in 0usize..4,
        loads in prop::collection::vec(0.1f64..100.0, 20..80),
    ) {
        let mut topo = Topology::multisocket(sockets, cores);
        let failed_socket = SocketId((failed % sockets) as u16);
        // Keep at least one active socket.
        if sockets > 1 {
            topo.fail_socket(failed_socket).unwrap();
        }
        let naive = PartitioningScheme::naive(
            &[(TableId(0), KeyDomain::new(0, 10_000))],
            &Topology::multisocket(sockets, cores),
            (loads.len() / (sockets * cores)).max(1),
        );
        let stats = trace_for_table(TableId(0), &loads);
        let chosen = choose_scheme(&naive, &stats, &topo, &SearchConfig::default());
        chosen.check_invariants(&topo, &naive.table_ids()).map_err(TestCaseError::fail)?;
        if sockets > 1 {
            for t in chosen.tables() {
                for p in &t.partitions {
                    prop_assert_ne!(topo.socket_of(p.core), failed_socket);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Repartitioning plans
    // ------------------------------------------------------------------

    /// A plan from a scheme to itself is empty; a plan between two different
    /// schemes contains exactly one action per boundary in the symmetric
    /// difference of their boundary sets, and the reverse plan swaps splits
    /// and merges.
    #[test]
    fn repartition_plans_are_minimal_and_reversible(
        (sockets, cores) in (1usize..=4, 1usize..=4),
        parts_a in 1usize..8,
        parts_b in 1usize..8,
    ) {
        let topo = Topology::multisocket(sockets, cores);
        let tables = [(TableId(0), KeyDomain::new(0, 10_000))];
        // Two schemes with different partition counts over the same 40
        // sub-partitions (sub_per chosen so counts divide evenly).
        let scheme_a = PartitioningScheme::even(&tables, &topo, parts_a, 40 / parts_a.max(1) + 1);
        let scheme_b = PartitioningScheme::even(&tables, &topo, parts_b, 40 / parts_b.max(1) + 1);

        let self_plan = plan_repartitioning(&scheme_a, &scheme_a);
        prop_assert!(self_plan.is_empty(), "self plan should be empty");

        let forward = plan_repartitioning(&scheme_a, &scheme_b);
        let backward = plan_repartitioning(&scheme_b, &scheme_a);
        prop_assert_eq!(forward.actions.len(), backward.actions.len());
        prop_assert_eq!(forward.num_splits(), backward.num_merges());
        prop_assert_eq!(forward.num_merges(), backward.num_splits());
        // The plan size is bounded by the total number of distinct
        // boundaries of both schemes.
        let max_boundaries = scheme_a.table(TableId(0)).boundary_keys().len()
            + scheme_b.table(TableId(0)).boundary_keys().len();
        prop_assert!(forward.actions.len() <= max_boundaries);
    }

    // ------------------------------------------------------------------
    // Adaptive monitoring interval
    // ------------------------------------------------------------------

    /// The adaptive monitoring interval always stays within `[min, max]`,
    /// grows only when the throughput is stable, and never changes on an
    /// `Evaluate` decision (the reset to the minimum happens only when the
    /// controller actually repartitions, via `reset()` — paper §V-D).
    #[test]
    fn adaptive_interval_stays_in_bounds(
        throughputs in prop::collection::vec(0.0f64..100_000.0, 1..200),
        min_secs in 0.5f64..2.0,
        factor in 2.0f64..8.0,
    ) {
        let max_secs = min_secs * factor;
        let mut interval = AdaptiveInterval::new(min_secs, max_secs, 0.10);
        let mut prev = interval.current_secs();
        prop_assert!((prev - min_secs).abs() < 1e-9);
        for tput in throughputs {
            let decision = interval.observe(tput);
            let cur = interval.current_secs();
            prop_assert!(cur >= min_secs - 1e-9, "below min: {cur} < {min_secs}");
            prop_assert!(cur <= max_secs + 1e-9, "above max: {cur} > {max_secs}");
            match decision {
                IntervalDecision::Evaluate => {
                    // The interval is left for the controller to reset.
                    prop_assert!((cur - prev).abs() < 1e-9);
                }
                IntervalDecision::Stable => {
                    // A stable observation never shrinks the interval.
                    prop_assert!(cur >= prev - 1e-9);
                }
            }
            prev = cur;
        }
        interval.reset();
        prop_assert!((interval.current_secs() - min_secs).abs() < 1e-9);
    }

    /// Workload statistics merge is additive: merging two traces gives the
    /// sum of their loads, sync bytes, and transaction counts.
    #[test]
    fn workload_stats_merge_is_additive(
        loads_a in prop::collection::vec(0.0f64..100.0, 1..30),
        loads_b in prop::collection::vec(0.0f64..100.0, 1..30),
        syncs in prop::collection::vec((0usize..10, 0usize..10, 1u64..256), 0..20),
    ) {
        let mut a = trace_for_table(TableId(0), &loads_a);
        let mut b = trace_for_table(TableId(0), &loads_b);
        for &(x, y, bytes) in &syncs {
            b.record_sync(
                SubPartitionId::new(TableId(0), x),
                SubPartitionId::new(TableId(1), y),
                bytes,
            );
        }
        a.record_transaction();
        b.record_transaction();
        let total_before = a.total_load() + b.total_load();
        let sync_bytes_b: u64 = b.sync_pairs().map(|(_, o)| o.total_bytes).sum();
        a.merge(&b);
        prop_assert!((a.total_load() - total_before).abs() < 1e-6);
        prop_assert_eq!(a.transactions, 2);
        let sync_bytes_a: u64 = a.sync_pairs().map(|(_, o)| o.total_bytes).sum();
        prop_assert_eq!(sync_bytes_a, sync_bytes_b);
        a.clear();
        prop_assert_eq!(a.total_load(), 0.0);
        prop_assert_eq!(a.num_sync_pairs(), 0);
    }
}

// ----------------------------------------------------------------------
// Shared-nothing sharding advisor (§VII future-work extension)
// ----------------------------------------------------------------------

use atrapos_core::{advise_sharding, evaluate_sharding, ShardingConfig, ShardingPlan};

proptest! {
    /// Range sharding plans are always structurally valid, spread the
    /// sub-partitions evenly (no instance holds more than one sub-partition
    /// above any other), and route every key to a valid instance.
    #[test]
    fn range_sharding_plans_are_valid_and_balanced(
        n_sub in 1usize..64,
        n_instances in 1usize..9,
        n_machines in 1usize..5,
        width in 10i64..1_000_000,
        key in 0i64..1_000_000,
    ) {
        let tables = [(TableId(0), KeyDomain::new(0, width)), (TableId(1), KeyDomain::new(0, width))];
        let plan = ShardingPlan::range(&tables, n_sub, n_instances, n_machines);
        plan.check_invariants().map_err(TestCaseError::fail)?;
        let mut counts = vec![0usize; n_instances];
        for table in plan.tables() {
            for sub in 0..plan.num_sub_partitions(table) {
                counts[plan.instance_of_sub(table, sub)] += 1;
            }
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), 2 * n_sub);
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 2, "unbalanced range sharding: {counts:?}");
        let instance = plan.instance_of_key(TableId(0), key.min(width - 1));
        prop_assert!(instance < n_instances);
        prop_assert!(plan.instance_machine[instance] < n_machines);
    }

    /// Whatever the trace, the advisor returns a valid plan whose combined
    /// cost is never worse than the range sharding it starts from, and a
    /// single-instance deployment never has distributed transactions.
    #[test]
    fn advisor_never_degrades_the_starting_plan(
        n_sub in 2usize..32,
        n_instances in 1usize..6,
        loads in prop::collection::vec(0.0f64..500.0, 2..64),
        syncs in prop::collection::vec((0usize..32, 0usize..32, 1u64..64), 0..40),
    ) {
        let tables = [(TableId(0), KeyDomain::new(0, 10_000)), (TableId(1), KeyDomain::new(0, 10_000))];
        let mut stats = WorkloadStats::new();
        stats.declare_table(TableId(0), n_sub);
        stats.declare_table(TableId(1), n_sub);
        for (i, &l) in loads.iter().enumerate() {
            stats.record_action(SubPartitionId::new(TableId(i as u32 % 2), i % n_sub), l);
        }
        for &(a, b, count) in &syncs {
            for _ in 0..count.min(4) {
                stats.record_sync(
                    SubPartitionId::new(TableId(0), a % n_sub),
                    SubPartitionId::new(TableId(1), b % n_sub),
                    64,
                );
            }
        }
        let cfg = ShardingConfig::default();
        let range = ShardingPlan::range(&tables, n_sub, n_instances, n_instances);
        let advised = advise_sharding(&tables, n_sub, n_instances, n_instances, &stats, &cfg);
        advised.check_invariants().map_err(TestCaseError::fail)?;
        let before = evaluate_sharding(&range, &stats).combined(&cfg);
        let after = evaluate_sharding(&advised, &stats).combined(&cfg);
        prop_assert!(after <= before + 1e-9, "advisor made things worse: {before} -> {after}");
        if n_instances == 1 {
            prop_assert_eq!(evaluate_sharding(&advised, &stats).total_distributed(), 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// The Zipfian / drifting key samplers (statistical sanity)
// ---------------------------------------------------------------------

mod sampler {
    use atrapos_core::KeyDistribution;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Empirical per-key frequencies of `draws` samples.
    fn frequencies(d: KeyDistribution, lo: i64, hi: i64, seed: u64, draws: usize) -> Vec<f64> {
        let mut sampler = d.sampler(lo, hi);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; (hi - lo) as usize];
        for _ in 0..draws {
            let k = sampler.sample(&mut rng);
            assert!((lo..hi).contains(&k), "sample {k} outside [{lo}, {hi})");
            counts[(k - lo) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A fixed seed fixes the sample stream exactly, for every
        /// distribution shape and domain.
        #[test]
        fn sampler_is_deterministic_for_a_fixed_seed(
            seed in 0u64..1_000,
            theta in 0.0f64..1.2,
            lo in -500i64..500,
            width in 2i64..3_000,
        ) {
            for d in [
                KeyDistribution::Zipfian { theta },
                KeyDistribution::Drift {
                    data_fraction: 0.2,
                    access_fraction: 0.8,
                    period_txns: 1_000,
                },
            ] {
                let mut a = d.sampler(lo, lo + width);
                let mut b = d.sampler(lo, lo + width);
                let mut rng_a = SmallRng::seed_from_u64(seed);
                let mut rng_b = SmallRng::seed_from_u64(seed);
                for _ in 0..200 {
                    prop_assert_eq!(a.sample(&mut rng_a), b.sample(&mut rng_b));
                }
            }
        }

        /// Zipfian rank frequencies decrease with rank (checked on decile
        /// buckets, so statistical noise cannot flip the order).
        #[test]
        fn zipfian_rank_frequency_is_monotone(
            seed in 0u64..1_000,
            theta in 0.6f64..1.1,
        ) {
            let freq = frequencies(
                KeyDistribution::Zipfian { theta }, 0, 100, seed, 60_000,
            );
            let decile = |i: usize| freq[i * 10..(i + 1) * 10].iter().sum::<f64>();
            for i in 0..9 {
                prop_assert!(
                    decile(i) > decile(i + 1),
                    "decile {i} ({}) not hotter than decile {} ({}) at theta {theta}",
                    decile(i), i + 1, decile(i + 1)
                );
            }
        }

        /// At theta = 0 the Zipfian degenerates to uniform: every key's
        /// empirical frequency sits near 1/n.
        #[test]
        fn zipfian_theta_zero_is_uniform(seed in 0u64..1_000) {
            let n = 100usize;
            let freq = frequencies(
                KeyDistribution::Zipfian { theta: 0.0 }, 0, n as i64, seed, 50_000,
            );
            let expect = 1.0 / n as f64;
            for (k, f) in freq.iter().enumerate() {
                // ~9 binomial standard deviations — effectively never
                // trips on a correct sampler.
                prop_assert!(
                    (f - expect).abs() < 0.004,
                    "key {k} frequency {f} far from uniform {expect}"
                );
            }
        }

        /// Higher theta concentrates strictly more mass on the hottest
        /// decile of the domain.
        #[test]
        fn higher_theta_is_strictly_more_concentrated(
            seed in 0u64..1_000,
            theta_lo in 0.0f64..0.4,
            gap in 0.4f64..0.8,
        ) {
            let theta_hi = theta_lo + gap;
            let head_mass = |theta: f64| {
                frequencies(KeyDistribution::Zipfian { theta }, 0, 200, seed, 40_000)[..20]
                    .iter()
                    .sum::<f64>()
            };
            let lo_mass = head_mass(theta_lo);
            let hi_mass = head_mass(theta_hi);
            prop_assert!(
                hi_mass > lo_mass + 0.02,
                "theta {theta_hi} head mass {hi_mass} not above theta {theta_lo}'s {lo_mass}"
            );
        }
    }
}

proptest! {
    // Cheap, and the fallback to `i128` only shows on wide domains.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The routing arithmetic divides in `i64` when the product fits and in
    /// `i128` otherwise; either way every result equals the all-`i128`
    /// formula it replaced, over domains from one key to `i64::MAX` keys
    /// wide and keys inside, on the edges of and outside them.
    /// Shared-nothing's default range plan routes a key to
    /// `sub_partition_of` over its instances.
    #[test]
    fn i64_routing_matches_the_i128_formula(
        width in prop_oneof![
            2 => 1i64..1_000,
            1 => 1i64..(1 << 40),
            2 => 1i64..=i64::MAX,
            1 => (i64::MAX - 1_000)..=i64::MAX,
        ],
        lo_seed in any::<i64>(),
        n_sub in prop_oneof![1usize..64, 1usize..1_000_000],
        pick in 0u8..4,
        raw in any::<i64>(),
        off in -3i64..=3,
        idx_seed in any::<usize>(),
    ) {
        let lo = lo_seed.min(i64::MAX - width);
        let hi = lo + width;
        let domain = KeyDomain::new(lo, hi);
        let key = match pick {
            0 => raw,
            1 => lo.saturating_add(off),
            2 => hi.saturating_add(off),
            _ => lo.saturating_add(raw.rem_euclid(width)),
        };
        let (wide, n) = (i128::from(width), n_sub as i128);
        let offset = i128::from(key.clamp(lo, hi - 1)) - i128::from(lo);
        let want = ((offset * n / wide) as usize).min(n_sub - 1);
        prop_assert_eq!(domain.sub_partition_of(key, n_sub), want);
        for idx in [0, idx_seed % (n_sub + 1), n_sub - 1, n_sub] {
            let want = lo + ((wide * idx as i128 + n - 1) / n) as i64;
            prop_assert_eq!(domain.sub_partition_lower(idx, n_sub), want);
        }
    }
}
