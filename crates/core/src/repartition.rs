//! Repartitioning actions (paper §V-D, "Repartitioning").
//!
//! A repartitioning action is either a **split** (divide an existing
//! partition in two at a key) or a **merge** (combine two adjacent
//! partitions); a *rearrangement* is a split followed by a merge.  Actions
//! modify the physical multi-rooted B-trees, the logical partition-local
//! structures, and the global partitioning information.  ATraPos pauses the
//! execution of regular actions while a repartitioning batch runs, so the
//! cost that matters is the wall-clock duration of the batch (Figure 9
//! shows it grows linearly with the number of actions and stays below
//! 200 ms even for 80 actions on an 800 K-row table).

use crate::partitioning::PartitioningScheme;
use atrapos_numa::Topology;
use atrapos_storage::{Database, Key, StorageResult, TableId};
use std::collections::BTreeSet;

/// One repartitioning action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepartitionAction {
    /// Split the partition containing `boundary` at `boundary`.
    Split {
        /// Table to split.
        table: TableId,
        /// New partition boundary (inclusive lower bound of the new upper
        /// partition).
        boundary: Key,
    },
    /// Merge the partition whose lower bound is `boundary` into its
    /// predecessor (i.e. remove that boundary).
    Merge {
        /// Table to merge in.
        table: TableId,
        /// Boundary to remove.
        boundary: Key,
    },
}

/// An ordered batch of repartitioning actions plus the placement the
/// resulting partitions should have.
#[derive(Debug, Clone, Default)]
pub struct RepartitionPlan {
    /// Actions in application order (merges first, then splits).
    pub actions: Vec<RepartitionAction>,
    /// Number of partition→core placement changes implied by the new
    /// scheme (cheap metadata updates in a shared-everything system).
    pub placement_changes: usize,
}

impl RepartitionPlan {
    /// Whether the plan performs no physical work.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty() && self.placement_changes == 0
    }

    /// Number of split actions.
    pub fn num_splits(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, RepartitionAction::Split { .. }))
            .count()
    }

    /// Number of merge actions.
    pub fn num_merges(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, RepartitionAction::Merge { .. }))
            .count()
    }
}

/// Outcome of applying a plan to the physical database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepartitionStats {
    /// Splits performed.
    pub splits: usize,
    /// Merges performed.
    pub merges: usize,
    /// Records moved between trees.
    pub records_moved: usize,
    /// Partition memory-node reassignments.
    pub reassignments: usize,
}

/// Compute the action batch that transforms the partition boundaries of
/// `old` into those of `new`.
pub fn plan_repartitioning(old: &PartitioningScheme, new: &PartitioningScheme) -> RepartitionPlan {
    let mut plan = RepartitionPlan::default();
    for new_t in new.tables() {
        let Some(old_t) = old.tables().iter().find(|t| t.table == new_t.table) else {
            // A table unknown to the old scheme: all its boundaries are new.
            for b in new_t.boundary_keys() {
                plan.actions.push(RepartitionAction::Split {
                    table: new_t.table,
                    boundary: b,
                });
            }
            continue;
        };
        let old_bounds: BTreeSet<Key> = old_t.boundary_keys().into_iter().collect();
        let new_bounds: BTreeSet<Key> = new_t.boundary_keys().into_iter().collect();
        // Merges first (remove boundaries), then splits (add boundaries).
        for b in old_bounds.difference(&new_bounds) {
            plan.actions.push(RepartitionAction::Merge {
                table: new_t.table,
                boundary: *b,
            });
        }
        for b in new_bounds.difference(&old_bounds) {
            plan.actions.push(RepartitionAction::Split {
                table: new_t.table,
                boundary: *b,
            });
        }
        // Placement changes: partitions whose boundary survived but whose
        // core changed, plus every new partition counts as one.
        for (i, p) in new_t.partitions.iter().enumerate() {
            let lower = if i == 0 {
                None
            } else {
                Some(Key::int(
                    new_t
                        .domain
                        .sub_partition_lower(p.sub_start, new_t.num_sub_partitions),
                ))
            };
            let old_core = old_t.partitions.iter().enumerate().find_map(|(j, op)| {
                let old_lower = if j == 0 {
                    None
                } else {
                    Some(Key::int(
                        old_t
                            .domain
                            .sub_partition_lower(op.sub_start, old_t.num_sub_partitions),
                    ))
                };
                (old_lower == lower).then_some(op.core)
            });
            if old_core != Some(p.core) {
                plan.placement_changes += 1;
            }
        }
    }
    // Sort so merges precede splits (splits then always land inside an
    // existing partition).
    plan.actions.sort_by_key(|a| match a {
        RepartitionAction::Merge { .. } => 0,
        RepartitionAction::Split { .. } => 1,
    });
    plan
}

/// Apply a plan to the physical database and align partition memory nodes
/// with the new scheme's placement.  Regular execution is assumed paused
/// (the paper does not interleave repartitioning and regular actions).
pub fn apply_plan(
    db: &mut Database,
    plan: &RepartitionPlan,
    new_scheme: &PartitioningScheme,
    topo: &Topology,
) -> StorageResult<RepartitionStats> {
    let mut stats = RepartitionStats::default();
    for action in &plan.actions {
        match action {
            RepartitionAction::Merge { table, boundary } => {
                let t = db.table_mut(*table)?;
                let index = t.index_mut();
                // Find the partition whose lower bound equals the boundary.
                let idx = (0..index.num_partitions())
                    .find(|&i| index.lower_bound(i).map(Key::int) == Some(*boundary))
                    .ok_or_else(|| {
                        atrapos_storage::StorageError::InvalidPartitionBoundary(format!(
                            "merge boundary {boundary} not found in table {table}"
                        ))
                    })?;
                stats.records_moved += index.merge_with_next(idx - 1)?;
                stats.merges += 1;
            }
            RepartitionAction::Split { table, boundary } => {
                let scheme_t = new_scheme.table(*table);
                let target_core =
                    scheme_t.partitions[scheme_t.partition_of_key(boundary.head_int())].core;
                let node = topo.socket_of(target_core);
                let t = db.table_mut(*table)?;
                let index = t.index_mut();
                let idx = index.partition_for(boundary);
                stats.records_moved += index.split_partition(idx, *boundary, node)?;
                stats.splits += 1;
            }
        }
    }
    // Align memory nodes with the final placement.
    for scheme_t in new_scheme.tables() {
        let t = db.table_mut(scheme_t.table)?;
        let index = t.index_mut();
        if index.num_partitions() != scheme_t.partitions.len() {
            continue; // table not physically partitioned by this scheme
        }
        for (i, p) in scheme_t.partitions.iter().enumerate() {
            let node = topo.socket_of(p.core);
            if index.partition(i).memory_node != node {
                index.set_memory_node(i, node);
                stats.reassignments += 1;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::{KeyDomain, PartitioningScheme};
    use atrapos_storage::{Column, ColumnType, Record, Schema, Table, Value};

    fn scheme(topo: &Topology, cores: usize) -> PartitioningScheme {
        let t = Topology::multisocket(1, cores);
        let _ = t;
        PartitioningScheme::naive(&[(TableId(0), KeyDomain::new(0, 1000))], topo, 10)
    }

    fn db_matching(schemeref: &PartitioningScheme, topo: &Topology) -> Database {
        let t = schemeref.table(TableId(0));
        let boundaries = t.boundary_keys();
        let nodes = t
            .partitions
            .iter()
            .map(|p| topo.socket_of(p.core))
            .collect();
        let mut table = Table::range_partitioned(
            TableId(0),
            Schema::new("t", vec![Column::new("id", ColumnType::Int)], vec![0]),
            boundaries,
            nodes,
        );
        for i in 0..1000 {
            table.load(Record::new(vec![Value::Int(i)])).unwrap();
        }
        let mut db = Database::new();
        db.add_table(table);
        db
    }

    #[test]
    fn identical_schemes_need_no_actions() {
        let topo = Topology::multisocket(2, 2);
        let s = scheme(&topo, 4);
        let plan = plan_repartitioning(&s, &s);
        assert!(plan.is_empty());
    }

    #[test]
    fn coarser_scheme_produces_merges_finer_produces_splits() {
        let topo = Topology::multisocket(2, 2);
        let fine = PartitioningScheme::naive(&[(TableId(0), KeyDomain::new(0, 1000))], &topo, 10);
        let coarse =
            PartitioningScheme::even(&[(TableId(0), KeyDomain::new(0, 1000))], &topo, 2, 20);
        let plan = plan_repartitioning(&fine, &coarse);
        assert!(plan.num_merges() > 0);
        assert_eq!(plan.num_splits(), 0);
        let back = plan_repartitioning(&coarse, &fine);
        assert!(back.num_splits() > 0);
        assert_eq!(back.num_merges(), 0);
    }

    #[test]
    fn apply_plan_transforms_the_physical_partitions() {
        let topo = Topology::multisocket(2, 2);
        let fine = scheme(&topo, 4);
        let coarse =
            PartitioningScheme::even(&[(TableId(0), KeyDomain::new(0, 1000))], &topo, 2, 20);
        let mut db = db_matching(&fine, &topo);
        assert_eq!(db.table(TableId(0)).unwrap().num_partitions(), 4);
        let plan = plan_repartitioning(&fine, &coarse);
        let stats = apply_plan(&mut db, &plan, &coarse, &topo).unwrap();
        assert_eq!(stats.merges, 2);
        assert_eq!(db.table(TableId(0)).unwrap().num_partitions(), 2);
        assert_eq!(db.table(TableId(0)).unwrap().len(), 1000);
        db.table(TableId(0))
            .unwrap()
            .index()
            .check_invariants()
            .unwrap();
        // And back again via splits.
        let plan_back = plan_repartitioning(&coarse, &fine);
        let stats_back = apply_plan(&mut db, &plan_back, &fine, &topo).unwrap();
        assert_eq!(stats_back.splits, 2);
        assert_eq!(db.table(TableId(0)).unwrap().num_partitions(), 4);
        assert_eq!(db.table(TableId(0)).unwrap().len(), 1000);
    }

    #[test]
    fn placement_only_changes_are_counted() {
        let topo = Topology::multisocket(2, 2);
        let a = scheme(&topo, 4);
        let mut b = a.clone();
        // Move the last partition to a different core, keep boundaries.
        let n = b.tables_mut()[0].partitions.len();
        b.tables_mut()[0].partitions[n - 1].core = atrapos_numa::CoreId(0);
        let plan = plan_repartitioning(&a, &b);
        assert_eq!(plan.actions.len(), 0);
        assert_eq!(plan.placement_changes, 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn split_then_merge_roundtrip_preserves_rows() {
        let topo = Topology::multisocket(2, 2);
        let fine = scheme(&topo, 4);
        let mut db = db_matching(&fine, &topo);
        let before: Vec<i64> = db
            .table(TableId(0))
            .unwrap()
            .index()
            .iter()
            .map(|(k, _)| k.head_int())
            .collect();
        let coarse =
            PartitioningScheme::even(&[(TableId(0), KeyDomain::new(0, 1000))], &topo, 2, 20);
        let plan = plan_repartitioning(&fine, &coarse);
        apply_plan(&mut db, &plan, &coarse, &topo).unwrap();
        let plan_back = plan_repartitioning(&coarse, &fine);
        apply_plan(&mut db, &plan_back, &fine, &topo).unwrap();
        let after: Vec<i64> = db
            .table(TableId(0))
            .unwrap()
            .index()
            .iter()
            .map(|(k, _)| k.head_int())
            .collect();
        assert_eq!(before, after);
    }
}
