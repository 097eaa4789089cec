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
//!
//! [`plan_repartitioning`] lists a batch's actions; their number sets the
//! pause.  [`apply_plan`] carries a batch out as one re-cut per table
//! ([`atrapos_storage::MrBTree::recut`]), so each row is copied at most
//! once however many actions touch it.

use crate::partitioning::PartitioningScheme;
use atrapos_numa::Topology;
use atrapos_storage::{Database, Key, StorageError, StorageResult, TableId};
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
    /// The actions, merges first, then splits, each table's in ascending
    /// boundary order.  [`apply_plan`] carries them out together.
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
    // Merges before splits.  `apply_plan` carries out a table's actions
    // together, so the order only sets how the list reads.
    plan.actions.sort_by_key(|a| match a {
        RepartitionAction::Merge { .. } => 0,
        RepartitionAction::Split { .. } => 1,
    });
    plan
}

/// Apply a plan to the physical database: one re-cut per table of
/// `new_scheme`, to the bounds its merges and splits leave.  Every bound is
/// checked before any table is re-cut, so a refused plan changes nothing.
/// Regular execution is assumed paused (the paper does not interleave
/// repartitioning and regular actions).
///
/// A table with one distinct bound per scheme partition boundary takes the
/// scheme's placement.  Where a narrow key domain gives several scheme
/// partitions one bound, a partition on a bound the table had keeps its
/// memory node, and one on a new bound goes to the socket of the core
/// owning that bound.  Returns the number of records whose partition's
/// lower bound changed.
pub fn apply_plan(
    db: &mut Database,
    plan: &RepartitionPlan,
    new_scheme: &PartitioningScheme,
    topo: &Topology,
) -> StorageResult<usize> {
    let (mut recuts, mut planned) = (Vec::new(), 0);
    for scheme_t in new_scheme.tables() {
        let index = db.table(scheme_t.table)?.index();
        let mut lowers: BTreeSet<i64> = index.lowers().iter().copied().collect();
        for action in &plan.actions {
            // A merge removes a bound the table has, a split adds one.
            let fits = match *action {
                RepartitionAction::Merge { table, boundary } if table == scheme_t.table => {
                    boundary.len() == 1 && lowers.remove(&boundary.head_int())
                }
                RepartitionAction::Split { table, boundary } if table == scheme_t.table => {
                    boundary.len() == 1 && lowers.insert(boundary.head_int())
                }
                _ => continue,
            };
            if !fits {
                let refused = format!("{action:?} does not fit the table");
                return Err(StorageError::InvalidPartitionBoundary(refused));
            }
            planned += 1;
        }
        let nodes = if lowers.len() + 1 == scheme_t.partitions.len() {
            let cores = scheme_t.partitions.iter().map(|p| p.core);
            cores.map(|core| topo.socket_of(core)).collect()
        } else {
            let old = index.memory_nodes();
            let node = |b: &i64| match index.lowers().binary_search(b) {
                Ok(i) => old[i + 1],
                Err(_) => topo.socket_of(scheme_t.core_of_key(*b)),
            };
            std::iter::once(old[0])
                .chain(lowers.iter().map(node))
                .collect()
        };
        recuts.push((scheme_t.table, lowers.into_iter().collect(), nodes));
    }
    if planned != plan.actions.len() {
        let refused = "the plan names a table the new scheme lacks";
        return Err(StorageError::InvalidPartitionBoundary(refused.into()));
    }
    let mut moved = 0;
    for (table, lowers, nodes) in recuts {
        moved += db.table_mut(table)?.index_mut().recut(lowers, nodes)?;
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::{KeyDomain, PartitionSpec, PartitioningScheme, TablePartitioning};
    use atrapos_numa::CoreId;
    use atrapos_storage::{Column, ColumnType, Record, Schema, Table, Value};

    fn scheme(topo: &Topology, cores: usize) -> PartitioningScheme {
        let t = Topology::multisocket(1, cores);
        let _ = t;
        PartitioningScheme::naive(&[(TableId(0), KeyDomain::new(0, 1000))], topo, 10)
    }

    /// A database laid out as ATraPos builds one: per scheme table, one
    /// range-partitioned table over the distinct bounds, each partition on
    /// the socket of the first scheme partition that starts at its bound,
    /// holding one row per key of the domain.
    fn db_matching(s: &PartitioningScheme, topo: &Topology) -> Database {
        let mut db = Database::new();
        for t in s.tables() {
            let mut boundaries: Vec<Key> = Vec::new();
            let mut nodes = vec![topo.socket_of(t.partitions[0].core)];
            for (b, p) in t.boundary_keys().into_iter().zip(&t.partitions[1..]) {
                if boundaries.last().is_none_or(|last| *last < b) {
                    boundaries.push(b);
                    nodes.push(topo.socket_of(p.core));
                }
            }
            let schema = Schema::new("t", vec![Column::new("id", ColumnType::Int)], vec![0]);
            let mut table = Table::range_partitioned(t.table, schema, boundaries, nodes);
            for i in t.domain.lo..t.domain.hi {
                table.load(Record::new(vec![Value::Int(i)])).unwrap();
            }
            db.add_table(table);
        }
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
        assert_eq!(plan.num_merges(), 2);
        // Keys 250..500 and 750..1000 move to a partition of a new bound.
        assert_eq!(apply_plan(&mut db, &plan, &coarse, &topo), Ok(500));
        assert_eq!(db.table(TableId(0)).unwrap().num_partitions(), 2);
        assert_eq!(db.table(TableId(0)).unwrap().len(), 1000);
        db.table(TableId(0))
            .unwrap()
            .index()
            .check_invariants()
            .unwrap();
        // And back again via splits.
        let plan_back = plan_repartitioning(&coarse, &fine);
        assert_eq!(plan_back.num_splits(), 2);
        assert_eq!(apply_plan(&mut db, &plan_back, &fine, &topo), Ok(500));
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

    /// A table of 80 sub-partitions over `[0, hi)`, its partitions
    /// starting at `starts` and owned by `cores`.
    fn table_of(id: u32, hi: i64, starts: &[usize], cores: &[u32]) -> TablePartitioning {
        let ends = starts.iter().skip(1).copied().chain([80]);
        TablePartitioning {
            table: TableId(id),
            domain: KeyDomain::new(0, hi),
            num_sub_partitions: 80,
            partitions: starts
                .iter()
                .zip(ends)
                .zip(cores)
                .map(|((&sub_start, sub_end), &core)| PartitionSpec {
                    sub_start,
                    sub_end,
                    core: CoreId(core),
                })
                .collect(),
        }
    }

    /// The bounds and memory nodes of `table`'s partitions.
    fn layout(db: &Database, table: u32) -> (Vec<i64>, Vec<u16>) {
        let index = db.table(TableId(table)).unwrap().index();
        let nodes = index.partitions().iter().map(|p| p.memory_node.0);
        (index.lowers().to_vec(), nodes.collect())
    }

    /// Two tables whose schemes change with merges and splits: table 0's
    /// narrow domain gives its 8 partitions 5 distinct bounds, table 1's
    /// 7.
    fn narrow_and_wide(topo: &Topology) -> (PartitioningScheme, PartitioningScheme, Database) {
        let old = PartitioningScheme::new(vec![
            table_of(
                0,
                8,
                &[0, 1, 5, 10, 11, 40, 41, 70],
                &[0, 1, 2, 3, 4, 5, 6, 7],
            ),
            table_of(
                1,
                800,
                &[0, 10, 20, 30, 40, 50, 60, 70],
                &[0, 1, 2, 3, 4, 5, 6, 7],
            ),
        ]);
        let new = PartitioningScheme::new(vec![
            table_of(
                0,
                8,
                &[0, 2, 3, 25, 30, 31, 50, 60],
                &[7, 6, 5, 4, 3, 2, 1, 0],
            ),
            table_of(
                1,
                800,
                &[0, 5, 20, 35, 40, 50, 65, 70],
                &[3, 1, 4, 1, 5, 2, 6, 0],
            ),
        ]);
        let db = db_matching(&old, topo);
        (old, new, db)
    }

    /// Where a narrow key domain gives several partitions one bound, a
    /// partition on a bound that stays keeps its memory node and one on a
    /// new bound takes the socket of the scheme partition owning that
    /// bound; a table whose bounds are all distinct takes the scheme's
    /// placement, partition by partition.  (The nodes are those the
    /// action-by-action application left.)
    #[test]
    fn plans_place_partitions_by_the_placement_rule() {
        let topo = Topology::multisocket(8, 1);
        let (old, new, mut db) = narrow_and_wide(&topo);
        assert_eq!(
            layout(&db, 0),
            (vec![1, 2, 4, 5, 7], vec![0, 1, 4, 5, 6, 7])
        );
        let plan = plan_repartitioning(&old, &new);
        assert_eq!((plan.num_merges(), plan.num_splits()), (5, 5));
        apply_plan(&mut db, &plan, &new, &topo).unwrap();
        assert_eq!(
            layout(&db, 0),
            (vec![1, 3, 4, 5, 6], vec![0, 1, 3, 5, 6, 0])
        );
        assert_eq!(
            layout(&db, 1),
            (
                vec![50, 200, 350, 400, 500, 650, 700],
                vec![3, 1, 4, 1, 5, 2, 6, 0]
            )
        );
    }

    /// A plan refused for its second table leaves the first as it was:
    /// every table is checked before any is re-cut.
    #[test]
    fn a_refused_plan_changes_nothing() {
        let topo = Topology::multisocket(8, 1);
        let (old, new, mut db) = narrow_and_wide(&topo);
        let mut plan = plan_repartitioning(&old, &new);
        let mut first_only = Database::new();
        first_only.add_table(db.table(TableId(0)).unwrap().clone());
        let before = snapshot(&first_only);
        let applied = apply_plan(&mut first_only, &plan, &new, &topo);
        assert_eq!(applied, Err(StorageError::UnknownTable(TableId(1))));
        assert_eq!(snapshot(&first_only), before);
        // A split on a bound table 1 keeps is refused the same way.
        plan.actions.push(RepartitionAction::Split {
            table: TableId(1),
            boundary: Key::int(200),
        });
        assert!(apply_plan(&mut db, &plan, &new, &topo).is_err());
        assert_eq!(snapshot(&db), before);
    }

    /// Table 0's bounds and memory nodes, and the keys of each partition.
    fn snapshot(db: &Database) -> (Vec<i64>, Vec<u16>, Vec<Vec<i64>>) {
        let (lowers, nodes) = layout(db, 0);
        let index = db.table(TableId(0)).unwrap().index();
        let keys = index.partitions().iter();
        let keys = keys.map(|p| p.tree.iter().map(|(k, _)| k.head_int()).collect());
        (lowers, nodes, keys.collect())
    }
}
