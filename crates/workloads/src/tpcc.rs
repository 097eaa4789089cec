//! The TPC-C wholesale-supplier benchmark.
//!
//! Nine tables and the five standard transaction types.  All tables except
//! ITEM are keyed (and partitioned) by warehouse id; transactions touch
//! three or more tables, which is what makes TPC-C much less amenable to
//! partitioning than TATP (paper §VI-A).  The NewOrder flow graph follows
//! the paper's Figure 7: a fixed part reading warehouse/district/customer/
//! item rows, a district update, the order/new-order inserts with the stock
//! reads, and the per-item stock updates and order-line inserts, separated
//! by four synchronization points.
//!
//! The dataset is scaled by [`TpccConfig`]; the paper uses scaling factor 80
//! (80 warehouses).  Order ids, history ids, and delivery queues are
//! tracked by the generator so inserts never collide and deliveries always
//! target existing orders.

use atrapos_core::KeyDomain;
use atrapos_engine::workload::{ensure_tables, ReconfigureError, WorkloadChange};
use atrapos_engine::{Action, ActionOp, TableSpec, TransactionSpec, Workload};
use atrapos_numa::CoreId;
use atrapos_storage::{Cell, Column, ColumnType, Database, Key, Record, Schema, TableId};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;

use crate::generator::{decimal, Mix, TextBuf};

/// Table id of WAREHOUSE.
pub const WAREHOUSE: TableId = TableId(0);
/// Table id of DISTRICT.
pub const DISTRICT: TableId = TableId(1);
/// Table id of CUSTOMER.
pub const CUSTOMER: TableId = TableId(2);
/// Table id of HISTORY.
pub const HISTORY: TableId = TableId(3);
/// Table id of NEW_ORDER.
pub const NEW_ORDER: TableId = TableId(4);
/// Table id of ORDER.
pub const ORDER: TableId = TableId(5);
/// Table id of ORDER_LINE.
pub const ORDER_LINE: TableId = TableId(6);
/// Table id of ITEM.
pub const ITEM: TableId = TableId(7);
/// Table id of STOCK.
pub const STOCK: TableId = TableId(8);

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpccTxn {
    /// Order 5–15 items from a warehouse (45% of the mix).
    NewOrder,
    /// Record a customer payment (43%).
    Payment,
    /// Query the status of a customer's latest order (4%).
    OrderStatus,
    /// Deliver pending orders of a warehouse (4%).
    Delivery,
    /// Count recently sold items below a stock threshold (4%).
    StockLevel,
}

impl TpccTxn {
    /// All five transaction types.
    pub const ALL: [TpccTxn; 5] = [
        TpccTxn::NewOrder,
        TpccTxn::Payment,
        TpccTxn::OrderStatus,
        TpccTxn::Delivery,
        TpccTxn::StockLevel,
    ];

    /// Parse a figure label back into the transaction type (the typed
    /// reconfiguration channel names transactions by label).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.label() == label)
    }

    /// Human-readable name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TpccTxn::NewOrder => "NewOrder",
            TpccTxn::Payment => "Payment",
            TpccTxn::OrderStatus => "OrderStatus",
            TpccTxn::Delivery => "Delivery",
            TpccTxn::StockLevel => "StockLevel",
        }
    }
}

/// TPC-C scale parameters.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses (the TPC-C scaling factor; 80 in the paper).
    pub warehouses: i64,
    /// Districts per warehouse (10 in the spec).
    pub districts_per_warehouse: i64,
    /// Customers per district (3 000 in the spec).
    pub customers_per_district: i64,
    /// Items in the catalogue (100 000 in the spec).
    pub items: i64,
    /// Orders pre-loaded per district.
    pub initial_orders_per_district: i64,
}

impl TpccConfig {
    /// The paper's configuration (scaling factor 80).  Note: populating this
    /// takes gigabytes of memory; use [`TpccConfig::scaled`] for routine
    /// runs.
    pub fn paper() -> Self {
        Self {
            warehouses: 80,
            districts_per_warehouse: 10,
            customers_per_district: 3_000,
            items: 100_000,
            initial_orders_per_district: 3_000,
        }
    }

    /// A scaled-down configuration with `warehouses` warehouses.
    pub fn scaled(warehouses: i64) -> Self {
        Self {
            warehouses,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            items: 1_000,
            initial_orders_per_district: 30,
        }
    }
}

/// The TPC-C workload.
#[derive(Debug, Clone)]
pub struct Tpcc {
    config: TpccConfig,
    mix: Mix<TpccTxn>,
    /// Next order id per (warehouse, district).  `BTreeMap` rather than a
    /// std `HashMap` for all three: the generator state is sim-visible,
    /// and an ordered map can never leak hash-iteration nondeterminism
    /// into the spec stream (access here is keyed-only, but the ordered
    /// type makes that safe by construction — see `atrapos lint`).
    next_o_id: BTreeMap<(i64, i64), i64>,
    /// Oldest undelivered order per (warehouse, district).
    undelivered: BTreeMap<(i64, i64), i64>,
    /// Next history sequence number per (warehouse, district).
    next_h_seq: BTreeMap<(i64, i64), i64>,
    /// Reusable pair buffer: NewOrder's `(item, supply warehouse)` lines,
    /// Delivery's `(district, order id)` deliveries.
    scratch: Vec<(i64, i64)>,
}

impl Tpcc {
    /// Build the workload with the standard mix.
    pub fn new(config: TpccConfig) -> Self {
        let mut next_o_id = BTreeMap::new();
        let mut undelivered = BTreeMap::new();
        let mut next_h_seq = BTreeMap::new();
        for w in 1..=config.warehouses {
            for d in 1..=config.districts_per_warehouse {
                next_o_id.insert((w, d), config.initial_orders_per_district + 1);
                undelivered.insert((w, d), config.initial_orders_per_district * 2 / 3 + 1);
                next_h_seq.insert((w, d), 1);
            }
        }
        Self {
            config,
            mix: Self::standard_mix(),
            next_o_id,
            undelivered,
            next_h_seq,
            scratch: Vec::new(),
        }
    }

    /// The standard TPC-C mix (45/43/4/4/4).
    pub fn standard_mix() -> Mix<TpccTxn> {
        Mix::new(vec![
            (TpccTxn::NewOrder, 45.0),
            (TpccTxn::Payment, 43.0),
            (TpccTxn::OrderStatus, 4.0),
            (TpccTxn::Delivery, 4.0),
            (TpccTxn::StockLevel, 4.0),
        ])
    }

    /// Run only one transaction type (Figure 8 reports StockLevel and
    /// OrderStatus individually).
    pub fn set_single(&mut self, txn: TpccTxn) {
        self.mix = Mix::single(txn);
    }

    /// Restore the standard mix.
    pub fn set_standard_mix(&mut self) {
        self.mix = Self::standard_mix();
    }

    /// The scale configuration.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    fn pick_warehouse(&self, rng: &mut SmallRng) -> i64 {
        rng.gen_range(1..=self.config.warehouses)
    }

    fn pick_district(&self, rng: &mut SmallRng) -> i64 {
        rng.gen_range(1..=self.config.districts_per_warehouse)
    }

    fn pick_customer(&self, rng: &mut SmallRng) -> i64 {
        rng.gen_range(1..=self.config.customers_per_district)
    }

    fn pick_item(&self, rng: &mut SmallRng) -> i64 {
        rng.gen_range(1..=self.config.items)
    }

    /// Build a NewOrder into a reusable spec buffer (allocation-free apart
    /// from the inserted records).
    fn new_order_into(&mut self, rng: &mut SmallRng, spec: &mut TransactionSpec) {
        let warehouses = self.config.warehouses;
        let w = rng.gen_range(1..=warehouses);
        let d = rng.gen_range(1..=self.config.districts_per_warehouse);
        let c = rng.gen_range(1..=self.config.customers_per_district);
        let n_items = self.config.items;
        let ol_cnt = rng.gen_range(5..=15);
        let o_id = {
            let e = self.next_o_id.get_mut(&(w, d)).expect("district exists");
            let id = *e;
            *e += 1;
            id
        };
        let mut items = std::mem::take(&mut self.scratch);
        items.clear();
        let mut wtr = spec.refill("NewOrder");
        // Fixed part: read warehouse, district, customer, and the items.
        let phase1 = wtr.phase();
        phase1.push(Action::new(ActionOp::Read {
            table: WAREHOUSE,
            key: Key::int(w),
        }));
        phase1.push(Action::new(ActionOp::Read {
            table: DISTRICT,
            key: Key::ints(&[w, d]),
        }));
        phase1.push(Action::new(ActionOp::Read {
            table: CUSTOMER,
            key: Key::ints(&[w, d, c]),
        }));
        for _ in 0..ol_cnt {
            let i = rng.gen_range(1..=n_items);
            // 1% of the order lines come from a remote warehouse.
            let supply_w = if warehouses > 1 && rng.gen_range(0..100) == 0 {
                let mut other = rng.gen_range(1..=warehouses);
                if other == w {
                    other = (other % warehouses) + 1;
                }
                other
            } else {
                w
            };
            items.push((i, supply_w));
            phase1.push(Action::new(ActionOp::Read {
                table: ITEM,
                key: Key::int(i),
            }));
        }
        // Advance the district's next order id.
        wtr.phase().push(Action::new(ActionOp::Increment {
            table: DISTRICT,
            key: Key::ints(&[w, d]),
            column: 3,
            delta: 1,
        }));
        // Insert the order and read the stock rows.
        let phase3 = wtr.phase();
        phase3.push(Action::new(ActionOp::Insert {
            table: ORDER,
            record: Record::ints(&[w, d, o_id, c, 0, ol_cnt]),
        }));
        phase3.push(Action::new(ActionOp::Insert {
            table: NEW_ORDER,
            record: Record::ints(&[w, d, o_id]),
        }));
        for &(i, supply_w) in &items {
            phase3.push(Action::new(ActionOp::Read {
                table: STOCK,
                key: Key::ints(&[supply_w, i]),
            }));
        }
        // Update the stock rows and insert the order lines.
        let phase4 = wtr.phase();
        for (ol_number, &(i, supply_w)) in items.iter().enumerate() {
            phase4.push(Action::new(ActionOp::Increment {
                table: STOCK,
                key: Key::ints(&[supply_w, i]),
                column: 3,
                delta: 1,
            }));
            phase4.push(Action::new(ActionOp::Insert {
                table: ORDER_LINE,
                record: Record::ints(&[
                    w,
                    d,
                    o_id,
                    ol_number as i64 + 1,
                    i,
                    rng.gen_range(1..=10),
                    rng.gen_range(1..=9999),
                ]),
            }));
        }
        wtr.finish();
        self.scratch = items;
    }

    /// Build a Payment into a reusable spec buffer.
    fn payment_into(&mut self, rng: &mut SmallRng, spec: &mut TransactionSpec) {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        // 15% of payments are made by a customer of a remote warehouse.
        let (c_w, c_d) = if self.config.warehouses > 1 && rng.gen_range(0..100) < 15 {
            let mut other = self.pick_warehouse(rng);
            if other == w {
                other = (other % self.config.warehouses) + 1;
            }
            (other, self.pick_district(rng))
        } else {
            (w, d)
        };
        let c = self.pick_customer(rng);
        let amount = rng.gen_range(1..=5000);
        let h_seq = {
            let e = self.next_h_seq.get_mut(&(w, d)).expect("district exists");
            let id = *e;
            *e += 1;
            id
        };
        let mut wtr = spec.refill("Payment");
        let phase1 = wtr.phase();
        phase1.push(Action::new(ActionOp::Increment {
            table: WAREHOUSE,
            key: Key::int(w),
            column: 2,
            delta: amount,
        }));
        phase1.push(Action::new(ActionOp::Increment {
            table: DISTRICT,
            key: Key::ints(&[w, d]),
            column: 2,
            delta: amount,
        }));
        let phase2 = wtr.phase();
        phase2.push(Action::new(ActionOp::Increment {
            table: CUSTOMER,
            key: Key::ints(&[c_w, c_d, c]),
            column: 3,
            delta: -amount,
        }));
        phase2.push(Action::new(ActionOp::Insert {
            table: HISTORY,
            record: Record::ints(&[w, d, h_seq, c, amount]),
        }));
        wtr.finish();
    }

    /// Build an OrderStatus into a reusable spec buffer.
    fn order_status_into(&mut self, rng: &mut SmallRng, spec: &mut TransactionSpec) {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let c = self.pick_customer(rng);
        let max_o = self.next_o_id[&(w, d)] - 1;
        let o_id = rng.gen_range(1..=max_o.max(1));
        let mut wtr = spec.refill("OrderStatus");
        wtr.phase().push(Action::new(ActionOp::Read {
            table: CUSTOMER,
            key: Key::ints(&[w, d, c]),
        }));
        wtr.phase().push(Action::new(ActionOp::Read {
            table: ORDER,
            key: Key::ints(&[w, d, o_id]),
        }));
        wtr.phase().push(Action::new(ActionOp::ReadRange {
            table: ORDER_LINE,
            from: Key::ints(&[w, d, o_id, 0]),
            to: Key::ints(&[w, d, o_id + 1, 0]),
            limit: 15,
        }));
        wtr.finish();
    }

    /// Build a Delivery into a reusable spec buffer: the oldest undelivered
    /// order of every district that has one, or a read of the warehouse
    /// when none has.
    fn delivery_into(&mut self, rng: &mut SmallRng, spec: &mut TransactionSpec) {
        let w = self.pick_warehouse(rng);
        let carrier = rng.gen_range(1..=10);
        let mut orders = std::mem::take(&mut self.scratch);
        orders.clear();
        for d in 1..=self.config.districts_per_warehouse {
            let entry = self.undelivered.get_mut(&(w, d)).expect("district exists");
            let o_id = *entry;
            if o_id >= self.next_o_id[&(w, d)] {
                continue; // nothing to deliver in this district
            }
            *entry += 1;
            orders.push((d, o_id));
        }
        let mut wtr = spec.refill("Delivery");
        if orders.is_empty() {
            // Nothing to deliver anywhere: degenerate read of the warehouse.
            wtr.phase().push(Action::new(ActionOp::Read {
                table: WAREHOUSE,
                key: Key::int(w),
            }));
        } else {
            wtr.phase().extend(orders.iter().map(|&(d, o_id)| {
                Action::new(ActionOp::Delete {
                    table: NEW_ORDER,
                    key: Key::ints(&[w, d, o_id]),
                })
            }));
            let updates = wtr.phase();
            for &(d, o_id) in &orders {
                updates.push(Action::new(ActionOp::Update {
                    table: ORDER,
                    key: Key::ints(&[w, d, o_id]),
                    column: 4,
                    value: carrier,
                }));
                updates.push(Action::new(ActionOp::Increment {
                    table: CUSTOMER,
                    key: Key::ints(&[w, d, ((o_id - 1) % self.config.customers_per_district) + 1]),
                    column: 5,
                    delta: 1,
                }));
            }
        }
        wtr.finish();
        self.scratch = orders;
    }

    /// Build a StockLevel into a reusable spec buffer.
    fn stock_level_into(&mut self, rng: &mut SmallRng, spec: &mut TransactionSpec) {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let next_o = self.next_o_id[&(w, d)];
        let from_o = (next_o - 20).max(1);
        let mut wtr = spec.refill("StockLevel");
        wtr.phase().push(Action::new(ActionOp::Read {
            table: DISTRICT,
            key: Key::ints(&[w, d]),
        }));
        wtr.phase().push(
            Action::new(ActionOp::ReadRange {
                table: ORDER_LINE,
                from: Key::ints(&[w, d, from_o, 0]),
                to: Key::ints(&[w, d, next_o, 0]),
                limit: 200,
            })
            .with_extra_instructions(2_000),
        );
        // Probe the stock rows of ~20 distinct items referenced by the
        // recent order lines (the join of the paper's description).
        wtr.phase().extend((0..20).map(|_| {
            Action::new(ActionOp::Read {
                table: STOCK,
                key: Key::ints(&[w, self.pick_item(rng)]),
            })
        }));
        wtr.finish();
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &str {
        "TPC-C"
    }

    fn tables(&self) -> Vec<TableSpec> {
        let c = &self.config;
        let w_domain = KeyDomain::new(1, c.warehouses + 1);
        let item_domain = KeyDomain::new(1, c.items + 1);
        let districts = c.warehouses * c.districts_per_warehouse;
        let customers = districts * c.customers_per_district;
        let orders = districts * c.initial_orders_per_district;
        let mk = |id, name: &str, cols: Vec<Column>, pk: Vec<usize>, domain, rows: i64| TableSpec {
            id,
            schema: Schema::new(name, cols, pk),
            domain,
            rows: rows.max(0) as u64,
        };
        vec![
            mk(
                WAREHOUSE,
                "warehouse",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("name", ColumnType::Text),
                    Column::new("ytd", ColumnType::Int),
                ],
                vec![0],
                w_domain,
                c.warehouses,
            ),
            mk(
                DISTRICT,
                "district",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("d_id", ColumnType::Int),
                    Column::new("ytd", ColumnType::Int),
                    Column::new("next_o_id", ColumnType::Int),
                ],
                vec![0, 1],
                w_domain,
                districts,
            ),
            mk(
                CUSTOMER,
                "customer",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("d_id", ColumnType::Int),
                    Column::new("c_id", ColumnType::Int),
                    Column::new("balance", ColumnType::Int),
                    Column::new("payment_cnt", ColumnType::Int),
                    Column::new("delivery_cnt", ColumnType::Int),
                ],
                vec![0, 1, 2],
                w_domain,
                customers,
            ),
            mk(
                HISTORY,
                "history",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("d_id", ColumnType::Int),
                    Column::new("h_seq", ColumnType::Int),
                    Column::new("c_id", ColumnType::Int),
                    Column::new("amount", ColumnType::Int),
                ],
                vec![0, 1, 2],
                w_domain,
                0,
            ),
            mk(
                NEW_ORDER,
                "new_order",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("d_id", ColumnType::Int),
                    Column::new("o_id", ColumnType::Int),
                ],
                vec![0, 1, 2],
                w_domain,
                orders / 3,
            ),
            mk(
                ORDER,
                "order",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("d_id", ColumnType::Int),
                    Column::new("o_id", ColumnType::Int),
                    Column::new("c_id", ColumnType::Int),
                    Column::new("carrier_id", ColumnType::Int),
                    Column::new("ol_cnt", ColumnType::Int),
                ],
                vec![0, 1, 2],
                w_domain,
                orders,
            ),
            mk(
                ORDER_LINE,
                "order_line",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("d_id", ColumnType::Int),
                    Column::new("o_id", ColumnType::Int),
                    Column::new("ol_number", ColumnType::Int),
                    Column::new("i_id", ColumnType::Int),
                    Column::new("quantity", ColumnType::Int),
                    Column::new("amount", ColumnType::Int),
                ],
                vec![0, 1, 2, 3],
                w_domain,
                orders * 5,
            ),
            mk(
                ITEM,
                "item",
                vec![
                    Column::new("i_id", ColumnType::Int),
                    Column::new("name", ColumnType::Text),
                    Column::new("price", ColumnType::Int),
                ],
                vec![0],
                item_domain,
                c.items,
            ),
            mk(
                STOCK,
                "stock",
                vec![
                    Column::new("w_id", ColumnType::Int),
                    Column::new("i_id", ColumnType::Int),
                    Column::new("quantity", ColumnType::Int),
                    Column::new("ytd", ColumnType::Int),
                ],
                vec![0, 1],
                w_domain,
                c.warehouses * c.items,
            ),
        ]
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        ensure_tables(self, db);
        let c = &self.config;
        // Rows go in packed on the stack, text cells included.
        let mut text = TextBuf::default();
        // ITEM (shared catalogue).
        {
            let t = db.table_mut(ITEM).expect("item table");
            for i in 1..=c.items {
                let key = Key::int(i);
                if filter(ITEM, &key) {
                    t.load_cells(&[
                        Cell::Int(i),
                        Cell::Text(decimal(&mut text, "item-", i, 0)),
                        Cell::Int((i % 100) + 1),
                    ])
                    .expect("unique item");
                }
            }
        }
        for w in 1..=c.warehouses {
            if filter(WAREHOUSE, &Key::int(w)) {
                db.table_mut(WAREHOUSE)
                    .expect("warehouse table")
                    .load_cells(&[
                        Cell::Int(w),
                        Cell::Text(decimal(&mut text, "warehouse-", w, 0)),
                        Cell::Int(0),
                    ])
                    .expect("unique warehouse");
            }
            // STOCK.
            {
                let t = db.table_mut(STOCK).expect("stock table");
                for i in 1..=c.items {
                    let key = Key::ints(&[w, i]);
                    if filter(STOCK, &key) {
                        t.load_cells(&[w, i, 50 + (i % 50), 0])
                            .expect("unique stock");
                    }
                }
            }
            for d in 1..=c.districts_per_warehouse {
                if filter(DISTRICT, &Key::ints(&[w, d])) {
                    db.table_mut(DISTRICT)
                        .expect("district table")
                        .load_cells(&[w, d, 0, c.initial_orders_per_district + 1])
                        .expect("unique district");
                }
                {
                    let t = db.table_mut(CUSTOMER).expect("customer table");
                    for cu in 1..=c.customers_per_district {
                        let key = Key::ints(&[w, d, cu]);
                        if filter(CUSTOMER, &key) {
                            t.load_cells(&[w, d, cu, -10, 1, 0])
                                .expect("unique customer");
                        }
                    }
                }
                let undelivered_from = c.initial_orders_per_district * 2 / 3 + 1;
                for o in 1..=c.initial_orders_per_district {
                    let cu = ((o - 1) % c.customers_per_district) + 1;
                    if filter(ORDER, &Key::ints(&[w, d, o])) {
                        db.table_mut(ORDER)
                            .expect("order table")
                            .load_cells(&[w, d, o, cu, if o < undelivered_from { 1 } else { 0 }, 5])
                            .expect("unique order");
                    }
                    if o >= undelivered_from && filter(NEW_ORDER, &Key::ints(&[w, d, o])) {
                        db.table_mut(NEW_ORDER)
                            .expect("new_order table")
                            .load_cells(&[w, d, o])
                            .expect("unique new order");
                    }
                    let t = db.table_mut(ORDER_LINE).expect("order_line table");
                    for ol in 1..=5 {
                        let key = Key::ints(&[w, d, o, ol]);
                        if filter(ORDER_LINE, &key) {
                            t.load_cells(&[w, d, o, ol, ((o * 7 + ol) % c.items) + 1, 5, 100])
                                .expect("unique order line");
                        }
                    }
                }
            }
        }
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        _client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        match self.mix.pick(rng) {
            TpccTxn::NewOrder => self.new_order_into(rng, spec),
            TpccTxn::Payment => self.payment_into(rng, spec),
            TpccTxn::OrderStatus => self.order_status_into(rng, spec),
            TpccTxn::Delivery => self.delivery_into(rng, spec),
            TpccTxn::StockLevel => self.stock_level_into(rng, spec),
        }
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        match change {
            WorkloadChange::SingleTransaction { txn } => match TpccTxn::from_label(txn) {
                Some(t) => {
                    self.set_single(t);
                    Ok(())
                }
                None => Err(ReconfigureError::UnknownTransaction {
                    workload: self.name().to_string(),
                    txn: txn.clone(),
                    known: TpccTxn::ALL.iter().map(|t| t.label()).collect(),
                }),
            },
            WorkloadChange::StandardMix => {
                self.set_standard_mix();
                Ok(())
            }
            other => Err(ReconfigureError::Unsupported {
                workload: self.name().to_string(),
                change: other.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> Tpcc {
        Tpcc::new(TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 10,
            items: 50,
            initial_orders_per_district: 9,
        })
    }

    #[test]
    fn population_counts_match_the_configuration() {
        let w = tiny();
        let mut db = Database::new();
        w.populate(&mut db, &|_, _| true);
        assert_eq!(db.table(WAREHOUSE).unwrap().len(), 2);
        assert_eq!(db.table(DISTRICT).unwrap().len(), 4);
        assert_eq!(db.table(CUSTOMER).unwrap().len(), 40);
        assert_eq!(db.table(ITEM).unwrap().len(), 50);
        assert_eq!(db.table(STOCK).unwrap().len(), 100);
        assert_eq!(db.table(ORDER).unwrap().len(), 36);
        assert_eq!(db.table(ORDER_LINE).unwrap().len(), 180);
        // A third of the initial orders are still undelivered.
        assert_eq!(db.table(NEW_ORDER).unwrap().len(), 4 * 3);
    }

    #[test]
    fn new_order_has_the_figure7_flow_graph() {
        let mut w = tiny();
        let mut rng = SmallRng::seed_from_u64(1);
        w.set_single(TpccTxn::NewOrder);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        assert_eq!(spec.class, "NewOrder");
        assert_eq!(spec.phases.len(), 4);
        assert!(spec.is_update());
        // Fixed part: warehouse + district + customer + one read per item.
        let ol_cnt = spec.phases[0].actions.len() - 3;
        assert!((5..=15).contains(&ol_cnt));
        // Variable part: one stock update + one order-line insert per item.
        assert_eq!(spec.phases[3].actions.len(), 2 * ol_cnt);
        assert!(spec.num_sync_points() >= 4);
    }

    #[test]
    fn order_ids_never_collide() {
        let mut w = tiny();
        w.set_single(TpccTxn::NewOrder);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            // The ORDER insert carries (w, d, o_id).
            let rec = spec.phases[2]
                .actions
                .iter()
                .find_map(|a| match &a.op {
                    ActionOp::Insert { table, record } if *table == ORDER => Some(record.clone()),
                    _ => None,
                })
                .expect("order insert present");
            let key = (
                rec.get(0).as_int(),
                rec.get(1).as_int(),
                rec.get(2).as_int(),
            );
            assert!(seen.insert(key), "duplicate order id {key:?}");
        }
    }

    #[test]
    fn payment_touches_warehouse_district_customer_history() {
        let mut w = tiny();
        w.set_single(TpccTxn::Payment);
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        let tables: Vec<TableId> = spec
            .phases
            .iter()
            .flat_map(|p| p.actions.iter().map(|a| a.op.table()))
            .collect();
        assert!(tables.contains(&WAREHOUSE));
        assert!(tables.contains(&DISTRICT));
        assert!(tables.contains(&CUSTOMER));
        assert!(tables.contains(&HISTORY));
    }

    #[test]
    fn delivery_consumes_the_undelivered_queue() {
        let mut w = tiny();
        w.set_single(TpccTxn::Delivery);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut delete_count = 0;
        for _ in 0..20 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            delete_count += spec
                .phases
                .iter()
                .flat_map(|p| &p.actions)
                .filter(|a| matches!(a.op, ActionOp::Delete { .. }))
                .count();
        }
        // Only the pre-loaded undelivered orders can be delivered
        // (3 per district × 4 districts), after which Delivery degenerates.
        assert_eq!(delete_count, 12);
    }

    /// FNV-1a over the debug rendering of a seeded spec stream: every
    /// key, record value, phase boundary, and class label feeds the hash,
    /// so any behavioural change to generation moves it.
    fn spec_stream_digest(w: &mut Tpcc, seed: u64, n: usize) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..n {
            let spec = w.next_transaction(&mut rng, CoreId((i % 4) as u32));
            for b in format!("{spec:?}").bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the generated transaction stream across the internal-map
    /// change from std `HashMap` to `BTreeMap`: the order-id, delivery,
    /// and history-sequence state is keyed-access only, so the container
    /// swap must not move a single byte of any spec.  The constants were
    /// captured from the `HashMap`-based generator, then re-pinned for
    /// `ActionOp::Update`'s one-cell debug form (`column: c, value: v`
    /// instead of `changes: [(c, Int(v))]`), which the same stream with
    /// that one rewrite reproduces exactly.
    #[test]
    fn spec_stream_is_bit_identical_across_map_swap() {
        let mut w = tiny();
        assert_eq!(spec_stream_digest(&mut w, 42, 300), DIGEST_BEFORE_SWAP);
        // State carries across calls (order ids advanced, deliveries
        // consumed), so a second stream from the same workload has its
        // own pinned value.
        assert_eq!(spec_stream_digest(&mut w, 43, 300), DIGEST_AFTER_CARRYOVER);
    }

    const DIGEST_BEFORE_SWAP: u64 = 1981150833957518165;
    const DIGEST_AFTER_CARRYOVER: u64 = 6396352155351301697;

    #[test]
    fn standard_mix_produces_every_type() {
        let mut w = tiny();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut classes = std::collections::BTreeSet::new();
        for _ in 0..400 {
            classes.insert(w.next_transaction(&mut rng, CoreId(0)).class);
        }
        for expect in [
            "NewOrder",
            "Payment",
            "OrderStatus",
            "Delivery",
            "StockLevel",
        ] {
            assert!(classes.contains(expect), "missing {expect}");
        }
    }
}
