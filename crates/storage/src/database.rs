//! A database: a collection of tables addressed by [`TableId`].

use crate::error::{StorageError, StorageResult};
use crate::schema::TableId;
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// A collection of tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: Vec<Option<Table>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table.  Its [`TableId`] determines its slot; re-adding an
    /// id replaces the previous table.
    pub fn add_table(&mut self, table: Table) {
        let idx = table.id.index();
        if idx >= self.tables.len() {
            self.tables.resize_with(idx + 1, || None);
        }
        self.tables[idx] = Some(table);
    }

    /// Look up a table.
    pub fn table(&self, id: TableId) -> StorageResult<&Table> {
        self.tables
            .get(id.index())
            .and_then(|t| t.as_ref())
            .ok_or(StorageError::UnknownTable(id))
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, id: TableId) -> StorageResult<&mut Table> {
        self.tables
            .get_mut(id.index())
            .and_then(|t| t.as_mut())
            .ok_or(StorageError::UnknownTable(id))
    }

    /// All registered tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter().flatten()
    }

    /// All registered tables, mutably.
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables.iter_mut().flatten()
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.tables.iter().flatten().count()
    }

    /// Total number of records across all tables.
    pub fn total_records(&self) -> usize {
        self.tables().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, Value};
    use crate::schema::{Column, ColumnType, Schema};
    use atrapos_numa::SocketId;

    fn table(id: u32, name: &str) -> Table {
        Table::new(
            TableId(id),
            Schema::new(name, vec![Column::new("id", ColumnType::Int)], vec![0]),
            SocketId(0),
        )
    }

    #[test]
    fn add_and_lookup_tables() {
        let mut db = Database::new();
        db.add_table(table(0, "alpha"));
        db.add_table(table(3, "beta"));
        assert_eq!(db.num_tables(), 2);
        assert_eq!(db.table(TableId(0)).unwrap().name(), "alpha");
        assert_eq!(db.table(TableId(3)).unwrap().name(), "beta");
        assert!(matches!(
            db.table(TableId(1)),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn total_records_sums_tables() {
        let mut db = Database::new();
        let mut t = table(0, "alpha");
        for i in 0..10 {
            t.load(Record::new(vec![Value::Int(i)])).unwrap();
        }
        db.add_table(t);
        db.add_table(table(1, "beta"));
        assert_eq!(db.total_records(), 10);
    }

    #[test]
    fn re_adding_a_table_replaces_it() {
        let mut db = Database::new();
        db.add_table(table(0, "alpha"));
        db.add_table(table(0, "alpha_v2"));
        assert_eq!(db.num_tables(), 1);
        assert_eq!(db.table(TableId(0)).unwrap().name(), "alpha_v2");
    }
}
