//! Property-based sanity of the performance model: monotonicities and
//! bounds that must hold for *any* parameters in the calibrated ranges —
//! the model is used to extrapolate, so its structure matters more than
//! any single value.

use grape6_model::blockstats::BlockStatsModel;
use grape6_model::perf::{MachineLayout, PerfModel};
use proptest::prelude::*;

fn any_layout() -> impl Strategy<Value = MachineLayout> {
    prop_oneof![
        Just(MachineLayout::SingleHost),
        (1usize..=4).prop_map(|hosts| MachineLayout::Cluster { hosts }),
        (1usize..=4).prop_map(|clusters| MachineLayout::MultiCluster {
            clusters,
            hosts_per_cluster: 4
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Block time is positive and finite for any sane inputs.
    #[test]
    fn block_time_positive_finite(
        layout in any_layout(),
        n in 256usize..4_000_000,
        n_b in 1usize..100_000,
    ) {
        let m = PerfModel::default();
        let bt = m.block_time(layout, n, n_b.min(n));
        prop_assert!(bt.total().is_finite());
        prop_assert!(bt.total() > 0.0);
        prop_assert!(bt.host > 0.0 && bt.grape > 0.0);
        prop_assert!(bt.sync >= 0.0 && bt.exchange >= 0.0);
    }

    /// Larger blocks never take less total time (every term is
    /// non-decreasing in n_b).
    #[test]
    fn block_time_monotone_in_block_size(
        layout in any_layout(),
        n in 1_000usize..1_000_000,
        n_b in 1usize..10_000,
    ) {
        let m = PerfModel::default();
        let t1 = m.block_time(layout, n, n_b).total();
        let t2 = m.block_time(layout, n, n_b * 2).total();
        prop_assert!(t2 >= t1, "doubling the block shrank the time: {t1} -> {t2}");
    }

    /// More particles never make a fixed-size block faster (the GRAPE
    /// streaming term grows with N).
    #[test]
    fn block_time_monotone_in_n(
        layout in any_layout(),
        n in 1_000usize..1_000_000,
        n_b in 1usize..5_000,
    ) {
        let m = PerfModel::default();
        let t1 = m.block_time(layout, n, n_b).total();
        let t2 = m.block_time(layout, n * 2, n_b).total();
        prop_assert!(t2 >= t1);
    }

    /// Sustained speed never exceeds the layout's peak.
    #[test]
    fn speed_below_peak(
        layout in any_layout(),
        n in 512usize..2_000_000,
    ) {
        let m = PerfModel::tuned();
        let stats = BlockStatsModel::constant_softening();
        let s = m.speed(layout, n, &stats);
        prop_assert!(s > 0.0);
        prop_assert!(
            s <= m.peak(layout) * 1.0001,
            "speed {s:e} exceeds peak {:e}",
            m.peak(layout)
        );
    }

    /// The tuned system is never slower than the original anywhere.
    #[test]
    fn tuning_never_hurts(
        layout in any_layout(),
        n in 512usize..2_000_000,
    ) {
        let old = PerfModel::default();
        let new = PerfModel::tuned();
        let stats = BlockStatsModel::constant_softening();
        prop_assert!(new.speed(layout, n, &stats) >= old.speed(layout, n, &stats));
    }

    /// Block statistics: totals are positive, mean blocks within [1, N].
    #[test]
    fn blockstats_in_range(n in 256.0f64..4.0e6) {
        for m in [
            BlockStatsModel::constant_softening(),
            BlockStatsModel::inter_particle_softening(),
            BlockStatsModel::close_encounter_softening(),
        ] {
            let nb = m.mean_block(n);
            prop_assert!(nb >= 1.0);
            prop_assert!(nb <= n, "mean block {nb} exceeds N {n}");
            prop_assert!(m.total_steps(n) > 0.0);
            prop_assert!(m.blocks_per_unit(n) > 0.0);
        }
    }
}
