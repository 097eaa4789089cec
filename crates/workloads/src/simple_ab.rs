//! The two-table "simple transaction" of paper §V-A (Figure 6).
//!
//! Two tables A and B with correlated keys; the transaction reads one row
//! of A by its primary key and one row of B by the composite key
//! `(pk_a, pk_b)`.  Because the two actions always share the same `pk_a`,
//! the partitions of A and B that serve a given transaction are perfectly
//! correlated — placing them on the same socket removes all
//! synchronization cost, which is exactly what the ATraPos placement
//! algorithm discovers.
//!
//! The workload is data: [`crate::spec::simple_ab`] describes it and the
//! spec engine runs it.

use crate::spec::{simple_ab, CompiledWorkload, SpecError};

/// The Figure 6 workload.
pub struct SimpleAb;

impl SimpleAb {
    /// A workload with `rows_a` rows in A and 4 B rows per A row
    /// (`rows_a < 1` is [`SpecError::EmptyTable`]).
    // The workload is the compiled spec itself; a `Self` around it would
    // only delegate.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(rows_a: i64) -> Result<CompiledWorkload, SpecError> {
        simple_ab(rows_a).compile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_engine::Workload;
    use atrapos_numa::CoreId;
    use atrapos_storage::{Database, TableId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const TABLE_A: TableId = TableId(0);
    const TABLE_B: TableId = TableId(1);

    #[test]
    fn population_respects_the_b_per_a_ratio() {
        let w = SimpleAb::new(100).unwrap();
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        assert_eq!(db.table(TABLE_A).unwrap().len(), 100);
        assert_eq!(db.table(TABLE_B).unwrap().len(), 400);
    }

    #[test]
    fn transactions_touch_both_tables_with_the_same_head_key() {
        let mut w = SimpleAb::new(100).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..20 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            assert_eq!(spec.num_actions(), 2);
            let key_heads: Vec<i64> = spec.phases[0]
                .actions
                .iter()
                .map(|a| a.op.routing_key_head())
                .collect();
            assert_eq!(key_heads[0], key_heads[1]);
        }
    }

    #[test]
    fn schema_declares_the_foreign_key_dependency() {
        let w = SimpleAb::new(10).unwrap();
        let tables = w.tables();
        assert!(tables[1].schema.references(TABLE_A));
    }
}
