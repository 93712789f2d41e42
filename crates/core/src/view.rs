//! [`MaintainedView`]: a materialized join view plus the machinery that
//! keeps it consistent under one of the three maintenance methods.

use pvm_engine::{
    exec, Backend, Cluster, MeterReport, PartialPolicy, PartitionSpec, SpreadMode, TableDef,
    TableId,
};
use pvm_obs::MethodTag;
use pvm_serve::{ServePublisher, ServeReader};
use pvm_storage::Organization;
use pvm_types::{PvmError, Result, Row, Value};

use crate::auxrel::{self, AuxState};
use crate::delta::Delta;
use crate::globalindex::{self, GiState};
use crate::naive;
use crate::partial::{self, PartialState, PartialStats};
use crate::skew::{RebalanceReport, RebalancedTable, SkewConfig, SkewState};
use crate::viewdef::JoinViewDef;

/// The three maintenance methods of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceMethod {
    /// §2.1.1: broadcast deltas, probe base fragments at every node.
    Naive,
    /// §2.1.2: σπ copies partitioned on join attributes, single-node work.
    AuxiliaryRelation,
    /// §2.1.3: join-attribute → global-rid indices, few-node work.
    GlobalIndex,
}

impl MaintenanceMethod {
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceMethod::Naive => "naive",
            MaintenanceMethod::AuxiliaryRelation => "auxiliary relation",
            MaintenanceMethod::GlobalIndex => "global index",
        }
    }
}

/// Resolved identifiers shared by all method implementations.
#[derive(Debug, Clone)]
pub struct ViewHandle {
    pub def: JoinViewDef,
    /// Base table ids in definition order.
    pub base: Vec<TableId>,
    /// The view's stored table.
    pub view_table: TableId,
    /// Position (in the view schema) of the partitioning attribute.
    pub view_pcol: usize,
    /// Grouping/aggregation shape for aggregate join views; `None` for
    /// plain join views.
    pub agg: Option<crate::aggregate::AggShape>,
}

/// Cost report of one maintenance transaction, split into the paper's
/// phases. "update base relation" and "update view" are common to all
/// methods (§3.1.1 omits them from TW); what distinguishes the methods is
/// `aux` (the extra structure updates) plus `compute` (finding the view
/// delta).
#[derive(Debug, Clone)]
pub struct MaintenanceOutcome {
    /// Updating the base relation itself.
    pub base: MeterReport,
    /// Updating auxiliary relations / global indices of the updated
    /// relation (empty for the naive method).
    pub aux: MeterReport,
    /// Computing the changes to the view (redistribution + probes + joins
    /// + shipping results toward the view).
    pub compute: MeterReport,
    /// Applying the changes to the stored view.
    pub view: MeterReport,
    /// Join rows inserted into / deleted from the view.
    pub view_rows: u64,
    /// Physical view-row changes (`true` = insert, `false` = delete) in
    /// application order — captured only while the view is serving
    /// snapshots, then drained into the open batch for publication at
    /// commit. Empty otherwise.
    pub view_changes: Vec<(Row, bool)>,
}

impl MaintenanceOutcome {
    /// The paper's per-method TW (aux + compute), in I/Os.
    pub fn tw_io(&self) -> f64 {
        self.aux.total_workload_io() + self.compute.total_workload_io()
    }

    /// The §3.3 measured quantity: computing the view changes only.
    pub fn compute_io(&self) -> f64 {
        self.compute.total_workload_io()
    }

    /// Busiest-node response time over aux + compute (I/Os).
    pub fn response_io(&self) -> f64 {
        self.aux
            .per_node
            .iter()
            .zip(&self.compute.per_node)
            .map(|(a, c)| {
                pvm_types::IoWeights::default().total(a) + pvm_types::IoWeights::default().total(c)
            })
            .fold(0.0, f64::max)
    }

    /// Charged interconnect messages across all phases.
    pub fn sends(&self) -> u64 {
        self.base.sends() + self.aux.sends() + self.compute.sends() + self.view.sends()
    }

    /// Nodes that did abstract work in the compute phase — all-node vs.
    /// few-node vs. single-node, the paper's headline distinction.
    pub fn compute_active_nodes(&self) -> usize {
        self.compute.active_nodes()
    }

    pub(crate) fn merge(mut self, other: MaintenanceOutcome) -> MaintenanceOutcome {
        merge_report(&mut self.base, &other.base);
        merge_report(&mut self.aux, &other.aux);
        merge_report(&mut self.compute, &other.compute);
        merge_report(&mut self.view, &other.view);
        self.view_rows += other.view_rows;
        self.view_changes.extend(other.view_changes);
        self
    }
}

/// Accumulate `other`'s counters into `into` (per-node zip plus net).
fn merge_report(into: &mut MeterReport, other: &MeterReport) {
    for (x, y) in into.per_node.iter_mut().zip(&other.per_node) {
        *x += *y;
    }
    into.net += other.net;
}

/// Observed counted costs of one committed maintenance batch, split into
/// the paper's phases — the raw material behind `EXPLAIN ANALYZE
/// MAINTENANCE` and the `pvm_metrics` view counters. Recorded only while
/// the cluster's obs gate is on; pure bookkeeping over already-computed
/// [`MeterReport`]s, so it can never move a counted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCostRecord {
    /// Epoch the batch committed at.
    pub epoch: u64,
    /// Delta rows pushed through maintenance in this batch.
    pub delta_rows: u64,
    /// I/O charged to updating the base relation (0 when the base update
    /// was shared across views via [`maintain_all`]).
    pub base_io: f64,
    /// I/O charged to auxiliary-structure updates (ARs / GI).
    pub aux_io: f64,
    /// I/O charged to computing the view delta (probe + join + ship).
    pub compute_io: f64,
    /// I/O charged to installing the view delta.
    pub view_io: f64,
    /// Busiest-node response time over aux + compute (I/Os).
    pub response_io: f64,
    /// Interconnect messages charged across all phases.
    pub sends: u64,
    /// Interconnect payload bytes across all phases.
    pub bytes: u64,
    /// Nodes that did abstract work in the compute phase.
    pub compute_nodes: u64,
}

impl BatchCostRecord {
    fn empty() -> Self {
        BatchCostRecord {
            epoch: 0,
            delta_rows: 0,
            base_io: 0.0,
            aux_io: 0.0,
            compute_io: 0.0,
            view_io: 0.0,
            response_io: 0.0,
            sends: 0,
            bytes: 0,
            compute_nodes: 0,
        }
    }

    /// The paper's TW for this batch: aux + compute I/O.
    pub fn tw_io(&self) -> f64 {
        self.aux_io + self.compute_io
    }

    fn add_outcome(&mut self, rows: u64, outcome: &MaintenanceOutcome) {
        self.delta_rows += rows;
        self.aux_io += outcome.aux.total_workload_io();
        self.compute_io += outcome.compute.total_workload_io();
        self.view_io += outcome.view.total_workload_io();
        self.response_io += outcome.response_io();
        self.sends += outcome.sends();
        self.bytes += outcome.aux.net.bytes_sent
            + outcome.compute.net.bytes_sent
            + outcome.view.net.bytes_sent;
        self.compute_nodes = self
            .compute_nodes
            .max(outcome.compute_active_nodes() as u64);
    }

    /// Fold in structure updates merged into an outcome this record has
    /// already absorbed; `response_delta` is how far the merge raised
    /// that outcome's response time.
    fn add_aux(&mut self, aux: &MeterReport, response_delta: f64) {
        self.aux_io += aux.total_workload_io();
        self.response_io += response_delta;
        self.sends += aux.sends();
        self.bytes += aux.net.bytes_sent;
    }

    fn add_base(&mut self, base: &MeterReport) {
        self.base_io += base.total_workload_io();
        self.sends += base.sends();
        self.bytes += base.net.bytes_sent;
    }
}

/// One maintenance batch in flight: everything between a batch-begin and
/// its commit (one [`MaintainedView::apply`] call, or one
/// [`maintain_all`] round across its delete+insert phases). The epoch at
/// entry is recorded so commit can assert it never moved mid-batch.
#[derive(Debug)]
struct BatchState {
    entry_epoch: u64,
    /// Captured physical view-row changes, in application order —
    /// populated only while serving.
    captured: Vec<(Row, bool)>,
    /// Observed-cost accumulator — `Some` only while the obs gate is on.
    cost: Option<BatchCostRecord>,
}

/// A materialized join view maintained under a fixed method.
#[derive(Debug)]
pub struct MaintainedView {
    handle: ViewHandle,
    method: MaintenanceMethod,
    policy: crate::chain::JoinPolicy,
    batch: crate::chain::BatchPolicy,
    aux: Option<AuxState>,
    gi: Option<GiState>,
    /// Heavy-light skew handling: per-class traffic sketches, enabled via
    /// [`MaintainedView::create_skewed`] /
    /// [`MaintainedView::enable_skew_handling`].
    skew: Option<SkewState>,
    /// Monotonic maintenance epoch: advances exactly once per committed
    /// batch, regardless of [`crate::chain::BatchPolicy`] and of how many
    /// delete/insert phases the batch contained.
    epoch: u64,
    /// The batch currently being applied, if any.
    open_batch: Option<BatchState>,
    /// Snapshot-serving tier, when enabled
    /// ([`MaintainedView::enable_serving`]): commit publishes each
    /// batch's captured view changes here at the new epoch.
    serve: Option<ServePublisher>,
    /// Batches committed inside a still-open cluster transaction:
    /// `(epoch, changes)` held back from the serving tier until the
    /// transaction's commit point ([`MaintainedView::publish_pending`]) —
    /// or rewound on abort ([`MaintainedView::discard_pending`]). Readers
    /// never observe an epoch that could still roll back.
    pending_publish: Vec<(u64, Vec<(Row, bool)>)>,
    /// Partial-state bookkeeping, when enabled
    /// ([`MaintainedView::enable_partial`]): hole sets, per-entry byte
    /// accounting, admission sketch, `dropped_at` epochs.
    partial: Option<PartialState>,
    /// Cached cluster observability handle — captured on first apply so
    /// batch commit (which has no backend in scope) can gate and publish
    /// per-view metrics.
    obs: Option<std::sync::Arc<pvm_obs::Obs>>,
    /// Ring of the last [`MaintainedView::COST_HISTORY`] committed-batch
    /// cost records, newest last. Populated only while the obs gate is
    /// on; read by `EXPLAIN ANALYZE MAINTENANCE`.
    recent_costs: std::collections::VecDeque<BatchCostRecord>,
    /// Shared-maintenance group id, when a catalog planner has enrolled
    /// this view into one (see [`crate::share`]). Purely informational:
    /// grouping is recomputed per delta from live signatures; this id is
    /// what introspection surfaces.
    shared_group: Option<u64>,
}

impl MaintainedView {
    /// Create the view: validate the definition, materialize the view
    /// table (hash-partitioned on its partitioning attribute, with an
    /// index on it), install the method's structures, and populate
    /// everything from the current base contents.
    pub fn create(
        cluster: &mut Cluster,
        def: JoinViewDef,
        method: MaintenanceMethod,
    ) -> Result<MaintainedView> {
        def.validate(cluster)?;
        let base: Vec<TableId> = def
            .relations
            .iter()
            .map(|r| cluster.table_id(r))
            .collect::<Result<_>>()?;

        let schema = def.view_schema(cluster)?.into_ref();
        let view_pcol = def.partition_column;
        let view_table = cluster.create_table(TableDef::new(
            def.name.clone(),
            schema,
            PartitionSpec::hash(view_pcol),
            Organization::Heap,
        ))?;
        cluster.create_secondary_index(
            view_table,
            format!("{}_part", def.name),
            vec![view_pcol],
        )?;

        let handle = ViewHandle {
            def,
            base,
            view_table,
            view_pcol,
            agg: None,
        };

        let (aux, gi) = match method {
            MaintenanceMethod::Naive => {
                naive::install(cluster, &handle)?;
                (None, None)
            }
            MaintenanceMethod::AuxiliaryRelation => {
                (Some(auxrel::install(cluster, &handle)?), None)
            }
            MaintenanceMethod::GlobalIndex => (None, Some(globalindex::install(cluster, &handle)?)),
        };

        let view = MaintainedView {
            handle,
            method,
            policy: crate::chain::JoinPolicy::default(),
            batch: crate::chain::BatchPolicy::default(),
            aux,
            gi,
            skew: None,
            epoch: 0,
            open_batch: None,
            serve: None,
            pending_publish: Vec::new(),
            partial: None,
            obs: None,
            recent_costs: std::collections::VecDeque::new(),
            shared_group: None,
        };
        view.populate(cluster)?;
        Ok(view)
    }

    /// Create a view letting the cost-based advisor pick the maintenance
    /// method from live statistics, the expected update-transaction size,
    /// and a storage budget — the conclusion's "choose the best approach
    /// automatically".
    pub fn create_auto(
        cluster: &mut Cluster,
        def: JoinViewDef,
        expected_update_tuples: u64,
        budget_pages: u64,
    ) -> Result<MaintainedView> {
        let advice = crate::advisor::advise(cluster, &def, expected_update_tuples, budget_pages)?;
        let method = match advice.recommendation {
            pvm_model::Recommendation::Naive => MaintenanceMethod::Naive,
            pvm_model::Recommendation::AuxiliaryRelation => MaintenanceMethod::AuxiliaryRelation,
            pvm_model::Recommendation::GlobalIndex => MaintenanceMethod::GlobalIndex,
        };
        MaintainedView::create(cluster, def, method)
    }

    /// Create an auxiliary-relation-maintained view whose ARs come from a
    /// shared, already-materialized [`crate::minimize::ArPool`] (§2.1.2's
    /// one-AR-per-attribute sharing). The pool must have been
    /// [`planned`](crate::minimize::ArPool::plan) with this definition and
    /// materialized. Use [`maintain_all_pooled`] for updates so each
    /// shared AR is maintained exactly once per base delta.
    pub fn create_with_pool(
        cluster: &mut Cluster,
        def: JoinViewDef,
        pool: &crate::minimize::ArPool,
    ) -> Result<MaintainedView> {
        if !pool.is_materialized() {
            return Err(PvmError::InvalidOperation(
                "ArPool must be materialized before creating views against it".into(),
            ));
        }
        def.validate(cluster)?;
        let base: Vec<TableId> = def
            .relations
            .iter()
            .map(|r| cluster.table_id(r))
            .collect::<Result<_>>()?;

        let schema = def.view_schema(cluster)?.into_ref();
        let view_pcol = def.partition_column;
        let view_table = cluster.create_table(TableDef::new(
            def.name.clone(),
            schema,
            PartitionSpec::hash(view_pcol),
            Organization::Heap,
        ))?;
        cluster.create_secondary_index(
            view_table,
            format!("{}_part", def.name),
            vec![view_pcol],
        )?;

        let handle = ViewHandle {
            def,
            base,
            view_table,
            view_pcol,
            agg: None,
        };

        // Bind this view's (relation, attr) pairs to the pool's ARs.
        let mut ars = std::collections::HashMap::new();
        for (rel, &table) in handle.base.iter().enumerate() {
            let tdef = cluster.def(table)?.clone();
            for c in handle.def.join_attrs_of(rel) {
                if tdef.partitioning.is_on(c) {
                    crate::chain::ensure_join_index(cluster, table, c)?;
                    continue;
                }
                let info = pool.ar_for(&tdef.name, c).ok_or_else(|| {
                    PvmError::NotFound(format!(
                        "pool AR for ({}, {c}) — did you plan() this view?",
                        tdef.name
                    ))
                })?;
                ars.insert((rel, c), info.clone());
            }
        }
        let aux = AuxState { ars, shared: true };

        let view = MaintainedView {
            handle,
            method: MaintenanceMethod::AuxiliaryRelation,
            policy: crate::chain::JoinPolicy::default(),
            batch: crate::chain::BatchPolicy::default(),
            aux: Some(aux),
            gi: None,
            skew: None,
            epoch: 0,
            open_batch: None,
            serve: None,
            pending_publish: Vec::new(),
            partial: None,
            obs: None,
            recent_costs: std::collections::VecDeque::new(),
            shared_group: None,
        };
        view.populate(cluster)?;
        Ok(view)
    }

    /// Create a global-index-maintained view whose GIs come from a
    /// shared, already-materialized [`crate::minimize::GiPool`] — the GI
    /// analogue of [`MaintainedView::create_with_pool`]. The pool must
    /// cover this definition's `(base, attr)` needs (plan/enroll it
    /// first). Use [`crate::maintain_catalog`] for updates so each shared
    /// GI is maintained exactly once per base delta.
    pub fn create_with_gi_pool(
        cluster: &mut Cluster,
        def: JoinViewDef,
        pool: &crate::minimize::GiPool,
    ) -> Result<MaintainedView> {
        if !pool.is_materialized() {
            return Err(PvmError::InvalidOperation(
                "GiPool must be materialized before creating views against it".into(),
            ));
        }
        def.validate(cluster)?;
        let base: Vec<TableId> = def
            .relations
            .iter()
            .map(|r| cluster.table_id(r))
            .collect::<Result<_>>()?;

        let schema = def.view_schema(cluster)?.into_ref();
        let view_pcol = def.partition_column;
        let view_table = cluster.create_table(TableDef::new(
            def.name.clone(),
            schema,
            PartitionSpec::hash(view_pcol),
            Organization::Heap,
        ))?;
        cluster.create_secondary_index(
            view_table,
            format!("{}_part", def.name),
            vec![view_pcol],
        )?;

        let handle = ViewHandle {
            def,
            base,
            view_table,
            view_pcol,
            agg: None,
        };

        // Bind this view's (relation, attr) pairs to the pool's GIs.
        let mut gis = std::collections::HashMap::new();
        for (rel, &table) in handle.base.iter().enumerate() {
            let tdef = cluster.def(table)?.clone();
            for c in handle.def.join_attrs_of(rel) {
                if tdef.partitioning.is_on(c) {
                    crate::chain::ensure_join_index(cluster, table, c)?;
                    continue;
                }
                let info = pool.gi_for(&tdef.name, c).ok_or_else(|| {
                    PvmError::NotFound(format!(
                        "pool GI for ({}, {c}) — did you enroll() this view?",
                        tdef.name
                    ))
                })?;
                gis.insert((rel, c), info.clone());
            }
        }
        let gi = GiState { gis, shared: true };

        let view = MaintainedView {
            handle,
            method: MaintenanceMethod::GlobalIndex,
            policy: crate::chain::JoinPolicy::default(),
            batch: crate::chain::BatchPolicy::default(),
            aux: None,
            gi: Some(gi),
            skew: None,
            epoch: 0,
            open_batch: None,
            serve: None,
            pending_publish: Vec::new(),
            partial: None,
            obs: None,
            recent_costs: std::collections::VecDeque::new(),
            shared_group: None,
        };
        view.populate(cluster)?;
        Ok(view)
    }

    /// Choose how nodes join their delta shares with local fragments:
    /// [`crate::chain::JoinPolicy::IndexOnly`] (default; the access path
    /// the paper's figures stipulate) or
    /// [`crate::chain::JoinPolicy::CostBased`] (the §3.1.2
    /// index-vs-sort-merge choice, executed — large deltas switch to one
    /// local scan per node where that is cheaper).
    pub fn set_join_policy(&mut self, policy: crate::chain::JoinPolicy) {
        self.policy = policy;
    }

    /// The active join policy.
    pub fn join_policy(&self) -> crate::chain::JoinPolicy {
        self.policy
    }

    /// Choose how maintenance messages are packed:
    /// [`crate::chain::BatchPolicy::Coalesced`] (default; one multi-row
    /// message per populated destination, with grouped probes on the
    /// receive side) or [`crate::chain::BatchPolicy::PerRow`] (the
    /// one-message-per-delta-row pipeline, kept as the equivalence
    /// oracle). Both produce bit-identical view contents.
    pub fn set_batch_policy(&mut self, batch: crate::chain::BatchPolicy) {
        self.batch = batch;
    }

    /// The active batch policy.
    pub fn batch_policy(&self) -> crate::chain::BatchPolicy {
        self.batch
    }

    /// Create an **aggregate** join view: `SELECT group…, COUNT/SUM …
    /// FROM join GROUP BY group…`, maintained under `method`. The
    /// underlying join's delta flows through the same machinery; shipped
    /// rows are folded into their groups at the group's home node. See
    /// [`crate::aggregate`].
    pub fn create_aggregate(
        cluster: &mut Cluster,
        def: JoinViewDef,
        shape: crate::aggregate::AggShape,
        method: MaintenanceMethod,
    ) -> Result<MaintainedView> {
        def.validate(cluster)?;
        let base: Vec<TableId> = def
            .relations
            .iter()
            .map(|r| cluster.table_id(r))
            .collect::<Result<_>>()?;
        let join_schema = def.view_schema(cluster)?;
        let stored = shape.stored_schema(&def, &join_schema)?.into_ref();
        // Stored rows lead with the group columns; partition on the first
        // so every update of a group lands on one node.
        let view_table = cluster.create_table(TableDef::new(
            def.name.clone(),
            stored,
            PartitionSpec::hash(0),
            Organization::Heap,
        ))?;
        cluster.create_secondary_index(
            view_table,
            format!("{}_groups", def.name),
            shape.stored_group_positions(),
        )?;

        let handle = ViewHandle {
            def,
            base,
            view_table,
            view_pcol: 0,
            agg: Some(shape),
        };
        let (aux, gi) = match method {
            MaintenanceMethod::Naive => {
                naive::install(cluster, &handle)?;
                (None, None)
            }
            MaintenanceMethod::AuxiliaryRelation => {
                (Some(auxrel::install(cluster, &handle)?), None)
            }
            MaintenanceMethod::GlobalIndex => (None, Some(globalindex::install(cluster, &handle)?)),
        };
        let view = MaintainedView {
            handle,
            method,
            policy: crate::chain::JoinPolicy::default(),
            batch: crate::chain::BatchPolicy::default(),
            aux,
            gi,
            skew: None,
            epoch: 0,
            open_batch: None,
            serve: None,
            pending_publish: Vec::new(),
            partial: None,
            obs: None,
            recent_costs: std::collections::VecDeque::new(),
            shared_group: None,
        };
        view.populate(cluster)?;
        Ok(view)
    }

    /// Bulk-load the view table from the current base contents (used at
    /// creation; not a maintenance path).
    fn populate(&self, cluster: &mut Cluster) -> Result<()> {
        let rows = self.recompute_expected(cluster)?;
        cluster.insert(self.handle.view_table, rows)?;
        Ok(())
    }

    pub fn method(&self) -> MaintenanceMethod {
        self.method
    }

    pub fn def(&self) -> &JoinViewDef {
        &self.handle.def
    }

    pub fn view_table(&self) -> TableId {
        self.handle.view_table
    }

    /// Tables of the method's auxiliary structures (AR tables, GI
    /// tables), sorted. Together with the view table and the base
    /// tables these are exactly the state a fault-equivalence check
    /// must find bit-identical to a fault-free run.
    pub fn method_tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        if let Some(aux) = &self.aux {
            out.extend(aux.ars.values().map(|info| info.table));
        }
        if let Some(gi) = &self.gi {
            out.extend(gi.gis.values().map(|info| info.table));
        }
        out.sort();
        out
    }

    /// True when this view's maintenance structures belong to a shared
    /// pool (ARs from a [`crate::minimize::ArPool`], GIs from a
    /// [`crate::minimize::GiPool`]) — [`MaintainedView::destroy`] leaves
    /// those tables alone.
    pub fn is_pool_shared(&self) -> bool {
        self.aux.as_ref().is_some_and(|a| a.shared) || self.gi.as_ref().is_some_and(|g| g.shared)
    }

    /// Shared-maintenance group id, when a catalog planner assigned one.
    pub fn shared_group(&self) -> Option<u64> {
        self.shared_group
    }

    /// Record (or clear) the shared-maintenance group this view belongs
    /// to. Informational — grouping is recomputed per delta from live
    /// signatures ([`crate::share`]); the id is what introspection shows.
    pub fn set_shared_group(&mut self, group: Option<u64>) {
        self.shared_group = group;
    }

    /// Re-home a private auxiliary-relation view onto a shared pool:
    /// drop its private AR tables and bind the pool's merged ARs
    /// instead. The pool must already cover every `(base, attr)` this
    /// view probes — [`crate::minimize::ArPool::enroll`] its definition
    /// first. Calling this on an already pool-bound view just rebinds.
    pub fn adopt_ar_pool(
        &mut self,
        cluster: &mut Cluster,
        pool: &crate::minimize::ArPool,
    ) -> Result<()> {
        if self.method != MaintenanceMethod::AuxiliaryRelation {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is not auxiliary-relation maintained",
                self.handle.def.name
            )));
        }
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot adopt a shared pool".into(),
            ));
        }
        if self.aux.as_ref().is_some_and(|a| a.shared) {
            return self.rebind_ar_pool(cluster, pool);
        }
        // Resolve the new bindings first so a missing pool AR leaves the
        // view's private structures intact.
        let ars = self.resolve_pool_ars(cluster, pool)?;
        if let Some(old) = self.aux.take() {
            for info in old.ars.values() {
                cluster.drop_table(info.table)?;
            }
        }
        self.aux = Some(AuxState { ars, shared: true });
        Ok(())
    }

    /// The pool AR bindings this view needs — the read-only half of
    /// [`MaintainedView::adopt_ar_pool`]. Fails without mutating when the
    /// pool lacks a `(base, attr)` the view probes.
    fn resolve_pool_ars(
        &self,
        cluster: &Cluster,
        pool: &crate::minimize::ArPool,
    ) -> Result<std::collections::HashMap<(usize, usize), auxrel::ArInfo>> {
        let mut ars = std::collections::HashMap::new();
        for (rel, &table) in self.handle.base.iter().enumerate() {
            let tdef = cluster.def(table)?.clone();
            for c in self.handle.def.join_attrs_of(rel) {
                if tdef.partitioning.is_on(c) {
                    continue;
                }
                let info = pool.ar_for(&tdef.name, c).ok_or_else(|| {
                    PvmError::NotFound(format!(
                        "pool AR for ({}, {c}) — enroll this view's definition first",
                        tdef.name
                    ))
                })?;
                ars.insert((rel, c), info.clone());
            }
        }
        Ok(ars)
    }

    /// Verify [`MaintainedView::adopt_ar_pool`] would succeed — right
    /// method, no partial state, and the pool covers every `(base, attr)`
    /// this view probes — without mutating anything. Callers migrating a
    /// whole group onto a pool check every member first, so a failure
    /// cannot leave the group half-adopted.
    pub fn check_ar_pool(&self, cluster: &Cluster, pool: &crate::minimize::ArPool) -> Result<()> {
        if self.method != MaintenanceMethod::AuxiliaryRelation {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is not auxiliary-relation maintained",
                self.handle.def.name
            )));
        }
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot adopt a shared pool".into(),
            ));
        }
        self.resolve_pool_ars(cluster, pool).map(|_| ())
    }

    /// Refresh a pool-bound view's AR bindings after the pool widened or
    /// recreated tables ([`crate::minimize::ArPool::enroll`] returned
    /// changed keys). Every pool-bound view must be rebound before its
    /// next maintenance.
    pub fn rebind_ar_pool(
        &mut self,
        cluster: &Cluster,
        pool: &crate::minimize::ArPool,
    ) -> Result<()> {
        let Some(aux) = self.aux.as_mut() else {
            return Err(PvmError::InvalidOperation(
                "view has no auxiliary-relation state".into(),
            ));
        };
        if !aux.shared {
            return Err(PvmError::InvalidOperation(
                "view is not bound to an AR pool".into(),
            ));
        }
        for ((rel, c), slot) in aux.ars.iter_mut() {
            let base_name = cluster.def(self.handle.base[*rel])?.name.clone();
            let info = pool.ar_for(&base_name, *c).ok_or_else(|| {
                PvmError::NotFound(format!("pool AR for ({base_name}, {c}) during rebind"))
            })?;
            *slot = info.clone();
        }
        Ok(())
    }

    /// Re-home a private global-index view onto a shared pool: drop its
    /// private GI tables and bind the pool's GIs instead (GI analogue of
    /// [`MaintainedView::adopt_ar_pool`]). Calling this on an already
    /// pool-bound view just rebinds.
    pub fn adopt_gi_pool(
        &mut self,
        cluster: &mut Cluster,
        pool: &crate::minimize::GiPool,
    ) -> Result<()> {
        if self.method != MaintenanceMethod::GlobalIndex {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is not global-index maintained",
                self.handle.def.name
            )));
        }
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot adopt a shared pool".into(),
            ));
        }
        if self.gi.as_ref().is_some_and(|g| g.shared) {
            return self.rebind_gi_pool(cluster, pool);
        }
        let gis = self.resolve_pool_gis(cluster, pool)?;
        if let Some(old) = self.gi.take() {
            for info in old.gis.values() {
                cluster.drop_table(info.table)?;
            }
        }
        self.gi = Some(GiState { gis, shared: true });
        Ok(())
    }

    /// The pool GI bindings this view needs — the read-only half of
    /// [`MaintainedView::adopt_gi_pool`].
    fn resolve_pool_gis(
        &self,
        cluster: &Cluster,
        pool: &crate::minimize::GiPool,
    ) -> Result<std::collections::HashMap<(usize, usize), globalindex::GiInfo>> {
        let mut gis = std::collections::HashMap::new();
        for (rel, &table) in self.handle.base.iter().enumerate() {
            let tdef = cluster.def(table)?.clone();
            for c in self.handle.def.join_attrs_of(rel) {
                if tdef.partitioning.is_on(c) {
                    continue;
                }
                let info = pool.gi_for(&tdef.name, c).ok_or_else(|| {
                    PvmError::NotFound(format!(
                        "pool GI for ({}, {c}) — enroll this view's definition first",
                        tdef.name
                    ))
                })?;
                gis.insert((rel, c), info.clone());
            }
        }
        Ok(gis)
    }

    /// Verify [`MaintainedView::adopt_gi_pool`] would succeed without
    /// mutating anything (GI analogue of
    /// [`MaintainedView::check_ar_pool`]).
    pub fn check_gi_pool(&self, cluster: &Cluster, pool: &crate::minimize::GiPool) -> Result<()> {
        if self.method != MaintenanceMethod::GlobalIndex {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is not global-index maintained",
                self.handle.def.name
            )));
        }
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot adopt a shared pool".into(),
            ));
        }
        self.resolve_pool_gis(cluster, pool).map(|_| ())
    }

    /// Refresh a pool-bound view's GI bindings (GI analogue of
    /// [`MaintainedView::rebind_ar_pool`]; GIs never widen, so this only
    /// matters if the pool was rebuilt).
    pub fn rebind_gi_pool(
        &mut self,
        cluster: &Cluster,
        pool: &crate::minimize::GiPool,
    ) -> Result<()> {
        let Some(gi) = self.gi.as_mut() else {
            return Err(PvmError::InvalidOperation(
                "view has no global-index state".into(),
            ));
        };
        if !gi.shared {
            return Err(PvmError::InvalidOperation(
                "view is not bound to a GI pool".into(),
            ));
        }
        for ((rel, c), slot) in gi.gis.iter_mut() {
            let base_name = cluster.def(self.handle.base[*rel])?.name.clone();
            let info = pool.gi_for(&base_name, *c).ok_or_else(|| {
                PvmError::NotFound(format!("pool GI for ({base_name}, {c}) during rebind"))
            })?;
            *slot = info.clone();
        }
        Ok(())
    }

    pub(crate) fn view_handle(&self) -> &ViewHandle {
        &self.handle
    }

    pub(crate) fn aux_state(&self) -> Option<&AuxState> {
        self.aux.as_ref()
    }

    pub(crate) fn gi_state(&self) -> Option<&GiState> {
        self.gi.as_ref()
    }

    pub(crate) fn is_partial(&self) -> bool {
        self.partial.is_some()
    }

    pub(crate) fn has_skew(&self) -> bool {
        self.skew.is_some()
    }

    /// Whether maintenance must capture physical view-row changes for
    /// this view (serving tier or partial accounting).
    pub(crate) fn is_capturing(&self) -> bool {
        self.serve.is_some() || self.partial.is_some()
    }

    pub(crate) fn has_open_batch(&self) -> bool {
        self.open_batch.is_some()
    }

    /// Fold a group-executed maintenance outcome into this member's open
    /// batch — the bookkeeping tail of [`MaintainedView::apply_prepared`]
    /// for a phase whose route/probe/ship chain ran once for the whole
    /// group ([`crate::share`]): captured view changes drain into the
    /// batch, and the obs-gated cost record absorbs the outcome.
    pub(crate) fn note_group_outcome<B: Backend>(
        &mut self,
        backend: &B,
        delta_rows: u64,
        outcome: &mut MaintenanceOutcome,
    ) {
        if let Some(open) = &mut self.open_batch {
            open.captured.append(&mut outcome.view_changes);
        }
        let obs = self
            .obs
            .get_or_insert_with(|| backend.engine().obs_handle())
            .clone();
        if obs.enabled() {
            if let Some(open) = &mut self.open_batch {
                open.cost
                    .get_or_insert_with(BatchCostRecord::empty)
                    .add_outcome(delta_rows, outcome);
            }
        }
    }

    /// Merge a shared pool's structure updates into this view's phase
    /// `outcome` — after [`MaintainedView::apply_prepared`] or
    /// [`MaintainedView::note_group_outcome`] recorded it — and into the
    /// open batch's cost record, so the per-view counters and `EXPLAIN
    /// ANALYZE MAINTENANCE` see the same aux cost as the outcome.
    pub(crate) fn absorb_pool_aux(&mut self, outcome: &mut MaintenanceOutcome, aux: &MeterReport) {
        let response_before = outcome.response_io();
        merge_report(&mut outcome.aux, aux);
        if let Some(cost) = self.open_batch.as_mut().and_then(|b| b.cost.as_mut()) {
            cost.add_aux(aux, outcome.response_io() - response_before);
        }
    }

    /// Current contents of the stored view (cluster-wide).
    pub fn contents(&self, cluster: &Cluster) -> Result<Vec<Row>> {
        cluster.scan_all(self.handle.view_table)
    }

    /// Recompute the view from scratch via a full join — the correctness
    /// oracle every maintenance path is tested against.
    pub fn recompute_expected(&self, cluster: &Cluster) -> Result<Vec<Row>> {
        let relations: Vec<Vec<Row>> = self
            .handle
            .base
            .iter()
            .map(|&id| cluster.scan_all(id))
            .collect::<Result<_>>()?;
        let full = exec::multiway_join(&relations, &self.handle.def.exec_edges())?;
        // Project definition-order concatenated rows to the view schema.
        let mut layout = crate::layout::Layout::new();
        for (i, rel_rows) in relations.iter().enumerate() {
            let arity = match rel_rows.first() {
                Some(r) => r.arity(),
                None => cluster.def(self.handle.base[i])?.schema.arity(),
            };
            layout.push(i, (0..arity).collect());
        }
        let projected: Vec<Row> = full
            .iter()
            .map(|r| layout.project(r, &self.handle.def.projection))
            .collect::<Result<_>>()?;
        match &self.handle.agg {
            None => Ok(projected),
            Some(shape) => shape.aggregate_all(&projected),
        }
    }

    /// Apply a delta on base relation `rel` (by definition index),
    /// maintaining base table, method structures, and the view. Returns
    /// the phase-split cost report. Works against any [`Backend`] — the
    /// sequential [`Cluster`] or a threaded runtime.
    pub fn apply<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        delta: &Delta,
    ) -> Result<MaintenanceOutcome> {
        if rel >= self.handle.def.relation_count() {
            return Err(PvmError::InvalidReference(format!(
                "relation {rel} out of range for view '{}'",
                self.handle.def.name
            )));
        }
        self.begin_batch();
        match self.apply_phases(backend, rel, delta) {
            Ok(outcome) => {
                self.commit_batch(backend.in_txn());
                self.enforce_partial_budget(backend)?;
                Ok(outcome)
            }
            Err(e) => {
                self.abort_batch();
                Err(e)
            }
        }
    }

    fn apply_phases<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        delta: &Delta,
    ) -> Result<MaintenanceOutcome> {
        let (deletes, inserts) = delta.phases();
        let mut outcome: Option<MaintenanceOutcome> = None;
        if let Some(rows) = deletes {
            let o = self.apply_rows(backend, rel, rows, false)?;
            outcome = Some(o);
        }
        if let Some(rows) = inserts {
            let o = self.apply_rows(backend, rel, rows, true)?;
            outcome = Some(match outcome {
                Some(prev) => prev.merge(o),
                None => o,
            });
        }
        outcome.ok_or_else(|| PvmError::InvalidOperation("empty delta".into()))
    }

    /// Open a maintenance batch: record the entry epoch so commit can
    /// assert that nothing advanced it mid-batch. One batch is exactly one
    /// epoch tick — [`MaintainedView::commit_batch`] is the *only* place
    /// the epoch moves, so Coalesced and PerRow batch policies (and
    /// multi-phase deltas) all advance it exactly once per applied batch.
    pub(crate) fn begin_batch(&mut self) {
        assert!(
            self.open_batch.is_none(),
            "view '{}': batch opened while another is in flight",
            self.handle.def.name
        );
        self.open_batch = Some(BatchState {
            entry_epoch: self.epoch,
            captured: Vec::new(),
            cost: None,
        });
    }

    /// Commit the open batch: advance the epoch by exactly one and — when
    /// serving — publish the batch's captured view changes at the new
    /// epoch (link first, epoch visible second; see `pvm-serve`). With
    /// `defer` set (a cluster transaction is open), the publication is
    /// held in `pending_publish` until [`MaintainedView::publish_pending`]
    /// runs at the transaction's commit point.
    pub(crate) fn commit_batch(&mut self, defer: bool) {
        let batch = self
            .open_batch
            .take()
            .expect("batch commit without an open batch");
        assert_eq!(
            self.epoch, batch.entry_epoch,
            "view '{}': epoch advanced mid-batch under {:?} policy",
            self.handle.def.name, self.batch
        );
        self.epoch += 1;
        if let Some(mut cost) = batch.cost {
            cost.epoch = self.epoch;
            if self.recent_costs.len() == Self::COST_HISTORY {
                self.recent_costs.pop_front();
            }
            self.recent_costs.push_back(cost);
            // Publish the aggregate per-view counters under stable names.
            // `self.obs` is set by the apply path that built `cost`;
            // counters never feed back into counted costs.
            if let Some(obs) = self.obs.as_ref().filter(|o| o.enabled()) {
                let m = obs.metrics();
                let name = &self.handle.def.name;
                m.counter(&pvm_obs::metric::view_batches(name)).inc();
                m.counter(&pvm_obs::metric::view_delta_rows(name))
                    .add(cost.delta_rows);
                m.counter(&pvm_obs::metric::view_tw_milli_io(name))
                    .add((cost.tw_io() * 1000.0).round() as u64);
                m.counter(&pvm_obs::metric::view_sends(name))
                    .add(cost.sends);
            }
        }
        if let Some(p) = &mut self.partial {
            // Hole rows were never captured, so captured changes are
            // exactly the resident-byte delta; keys the gates dropped get
            // this commit's epoch as their `dropped_at`.
            p.on_commit(
                self.epoch,
                self.handle.view_pcol,
                self.handle.view_table,
                &batch.captured,
            );
        }
        if self.serve.is_some() {
            if defer {
                self.pending_publish.push((self.epoch, batch.captured));
            } else {
                self.publish_pending();
                self.serve
                    .as_ref()
                    .expect("serving")
                    .publish(self.epoch, batch.captured);
            }
        }
    }

    /// Release every batch held back by an open transaction to the
    /// serving tier — the transaction's commit point. No-op when nothing
    /// is pending.
    pub fn publish_pending(&mut self) {
        if let Some(serve) = &self.serve {
            for (epoch, changes) in self.pending_publish.drain(..) {
                serve.publish(epoch, changes);
            }
        }
    }

    /// Drop every held-back publication and rewind the epoch to the last
    /// *published* state — the transaction abort path. Safe because
    /// readers never saw the pending epochs (nothing was published), and
    /// the engine's rollback restores the stored view to exactly the
    /// published state.
    pub fn discard_pending(&mut self) {
        self.epoch -= self.pending_publish.len() as u64;
        self.pending_publish.clear();
    }

    /// Drop the open batch (if any) without advancing the epoch — the
    /// failed maintenance path. Safe to call with no batch open.
    pub(crate) fn abort_batch(&mut self) {
        self.open_batch = None;
        if let Some(p) = &mut self.partial {
            p.clear_pending();
        }
    }

    fn apply_rows<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        rows: &[Row],
        insert: bool,
    ) -> Result<MaintenanceOutcome> {
        let (base, placed) = update_base(backend, self.handle.base[rel], rows, insert)?;
        let mut outcome = self.apply_prepared(backend, rel, &placed, insert)?;
        if let Some(cost) = self.open_batch.as_mut().and_then(|b| b.cost.as_mut()) {
            cost.add_base(&base);
        }
        outcome.base = base;
        Ok(outcome)
    }

    /// Maintain this view for a base update that has **already been
    /// applied** — `placed` pairs each delta row with the global rid it
    /// occupied (insert) or vacated (delete). This is the entry point for
    /// maintaining several views over one shared base update; see
    /// [`maintain_all`]. The returned outcome's `base` phase is empty.
    pub fn apply_prepared<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        placed: &[(Row, pvm_types::GlobalRid)],
        insert: bool,
    ) -> Result<MaintenanceOutcome> {
        if rel >= self.handle.def.relation_count() {
            return Err(PvmError::InvalidReference(format!(
                "relation {rel} out of range for view '{}'",
                self.handle.def.name
            )));
        }
        if let Some(skew) = &mut self.skew {
            // Inserts and deletes both cause routed probes and structure
            // updates, so both count as traffic. Observed straight off
            // `placed` — no cloned row staging.
            skew.observe_rows(rel, placed.iter().map(|(r, _)| r))?;
        }
        // Called outside an `apply` / `maintain_all` batch, this single
        // phase is its own batch (and its own epoch tick).
        let standalone = self.open_batch.is_none();
        if standalone {
            self.begin_batch();
        }
        // Partial state: rebuild the structure entries this delta will
        // probe (their source relation is the *other* one, untouched by
        // this delta, so the refill is exact), then gate the batch's
        // stages on an immutable snapshot of the hole sets.
        let refill_err = self.partial_refill(backend, rel, placed).err();
        if let Some(e) = refill_err {
            if standalone {
                self.abort_batch();
            }
            return Err(e);
        }
        let gates = self.partial.as_ref().map(PartialState::gates);
        let handle = &self.handle;
        let policy = self.policy;
        let batch = self.batch;
        // Serving publishes captured changes; partial accounting needs
        // them too (and must see what was dropped at the gates).
        let capture = self.serve.is_some() || self.partial.is_some();
        let result = match self.method {
            MaintenanceMethod::Naive => naive::apply(
                backend,
                handle,
                rel,
                placed,
                insert,
                policy,
                batch,
                capture,
                gates.as_ref(),
            ),
            MaintenanceMethod::AuxiliaryRelation => {
                let state = self.aux.as_ref().expect("aux state installed");
                auxrel::apply(
                    backend,
                    handle,
                    state,
                    rel,
                    placed,
                    insert,
                    policy,
                    batch,
                    capture,
                    gates.as_ref(),
                )
            }
            MaintenanceMethod::GlobalIndex => {
                let state = self.gi.as_ref().expect("gi state installed");
                globalindex::apply(
                    backend,
                    handle,
                    state,
                    rel,
                    placed,
                    insert,
                    policy,
                    batch,
                    capture,
                    gates.as_ref(),
                )
            }
        };
        match result {
            Ok(mut outcome) => {
                if let Some(p) = &mut self.partial {
                    p.account_struct_delta(rel, placed, insert)?;
                    if let Some(g) = &gates {
                        p.note_batch_dropped(g.take_dropped());
                    }
                }
                if let Some(open) = &mut self.open_batch {
                    open.captured.append(&mut outcome.view_changes);
                }
                let obs = self
                    .obs
                    .get_or_insert_with(|| backend.engine().obs_handle())
                    .clone();
                if obs.enabled() {
                    if let Some(open) = &mut self.open_batch {
                        open.cost
                            .get_or_insert_with(BatchCostRecord::empty)
                            .add_outcome(placed.len() as u64, &outcome);
                    }
                }
                if standalone {
                    self.commit_batch(backend.in_txn());
                    self.enforce_partial_budget(backend)?;
                }
                Ok(outcome)
            }
            Err(e) => {
                if standalone {
                    self.abort_batch();
                }
                Err(e)
            }
        }
    }

    /// The view's maintenance epoch: 0 at creation, +1 per committed
    /// batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many committed-batch cost records are retained for
    /// introspection ([`MaintainedView::recent_costs`]).
    pub const COST_HISTORY: usize = 32;

    /// Observed per-batch cost records, oldest first — at most
    /// [`MaintainedView::COST_HISTORY`] of them, recorded only while the
    /// cluster's obs gate was on at apply time.
    pub fn recent_costs(&self) -> impl ExactSizeIterator<Item = &BatchCostRecord> {
        self.recent_costs.iter()
    }

    /// Start serving MVCC snapshots of this view: seed a `pvm-serve`
    /// delta chain with the current contents at the current epoch, and
    /// from the next batch commit on publish every batch's physical view
    /// changes at its new epoch. Returns a cloneable [`ServeReader`] —
    /// hand one to each reader session/thread. The cluster's [`Obs`]
    /// handle gates the `serve.*` metrics, so serving charges nothing
    /// while observability is off.
    pub fn enable_serving<B: Backend>(&mut self, backend: &B) -> Result<ServeReader> {
        if self.serve.is_some() {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is already serving snapshots",
                self.handle.def.name
            )));
        }
        if self.open_batch.is_some() || backend.in_txn() {
            return Err(PvmError::InvalidOperation(
                "cannot enable serving while a maintenance batch or transaction is open".into(),
            ));
        }
        let rows = self.contents(backend.engine())?;
        let publisher = ServePublisher::new(
            &self.handle.def.name,
            self.epoch,
            rows,
            Some(backend.engine().obs_handle()),
        );
        let reader = publisher.reader();
        self.serve = Some(publisher);
        Ok(reader)
    }

    /// A fresh read handle onto the serving tier, when enabled.
    pub fn serve_reader(&self) -> Option<ServeReader> {
        self.serve.as_ref().map(|p| p.reader())
    }

    fn method_tag(&self) -> MethodTag {
        match self.method {
            MaintenanceMethod::Naive => MethodTag::Naive,
            MaintenanceMethod::AuxiliaryRelation => MethodTag::AuxRel,
            MaintenanceMethod::GlobalIndex => MethodTag::GlobalIndex,
        }
    }

    /// Put this view under a per-node memory budget
    /// ([`PartialPolicy::budget_bytes`]): cold view partitions — and, for
    /// two-relation views, cold AR / GI entries — are evicted as *holes*
    /// under size-aware LRU, and a read that hits a hole recomputes just
    /// that key from the base relations ([`MaintainedView::read_key`]).
    ///
    /// Rejected for aggregate views (a group's fold state cannot be
    /// recomputed from one key's base rows alone), pool-shared ARs
    /// (other views read them eagerly), and skew-handled views (a
    /// rebalance rewrites the structures the accounting tracks).
    pub fn enable_partial<B: Backend>(
        &mut self,
        backend: &mut B,
        policy: PartialPolicy,
    ) -> Result<()> {
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is already partial",
                self.handle.def.name
            )));
        }
        if self.handle.agg.is_some() {
            return Err(PvmError::InvalidOperation(
                "aggregate views cannot be partial: group state is not recomputable per key".into(),
            ));
        }
        if self.aux.as_ref().is_some_and(|a| a.shared) {
            return Err(PvmError::InvalidOperation(
                "views on pool-shared auxiliary relations cannot be partial".into(),
            ));
        }
        if self.skew.is_some() {
            return Err(PvmError::InvalidOperation(
                "skew-handled views cannot be partial: rebalance invalidates the accounting".into(),
            ));
        }
        if self.open_batch.is_some() || backend.in_txn() {
            return Err(PvmError::InvalidOperation(
                "cannot enable partial state while a maintenance batch or transaction is open"
                    .into(),
            ));
        }
        let cluster = backend.engine_mut();
        // Upqueries probe the base relations naive-style regardless of
        // the view's method, so every join attribute — and the anchor
        // (partitioning) attribute — must be indexed.
        naive::install(cluster, &self.handle)?;
        let anchor = self.handle.def.partition_attr();
        crate::chain::ensure_join_index(cluster, self.handle.base[anchor.rel], anchor.col)?;
        let structs = if self.handle.def.relation_count() == 2 {
            partial::collect_structs(cluster, &self.handle, self.aux.as_ref(), self.gi.as_ref())?
        } else {
            // Wider views keep their structures eager; only the view
            // partitions are partial.
            Vec::new()
        };
        // GI refill captures rids, which only a *secondary* index search
        // yields; a source relation clustered on the join attribute
        // satisfies `ensure_join_index` without one.
        for s in &structs {
            if let partial::StructKind::Gi = s.kind {
                let def = cluster.def(s.source_table)?;
                let clustered = matches!(
                    &def.organization,
                    Organization::Clustered { key } if key.as_slice() == [s.join_col]
                );
                if clustered {
                    let name = format!("{}_pq{}", def.name, s.join_col);
                    cluster.create_secondary_index(s.source_table, name, vec![s.join_col])?;
                }
            }
        }
        let l = cluster.node_count();
        let mut state = PartialState::new(policy, l, structs);
        // Everything currently materialized is resident: charge it where
        // it is stored.
        let pcol = self.handle.view_pcol;
        let seeds: Vec<(TableId, usize)> = state
            .structs
            .iter()
            .map(|s| (s.table, s.key_col()))
            .collect();
        for n in cluster.nodes() {
            let node = n.id().index();
            for (_, row) in n.storage(self.handle.view_table)?.scan()? {
                state.budget.charge(
                    (self.handle.view_table, row[pcol].clone()),
                    node,
                    row.byte_size() as u64,
                );
            }
            for &(table, key_col) in &seeds {
                for (_, row) in n.storage(table)?.scan()? {
                    state.budget.charge(
                        (table, row[key_col].clone()),
                        node,
                        row.byte_size() as u64,
                    );
                }
            }
        }
        self.partial = Some(state);
        // Evict straight down to the budget.
        self.enforce_partial_budget(backend)?;
        Ok(())
    }

    /// Partial-state counters, when enabled.
    pub fn partial_stats(&self) -> Option<PartialStats> {
        self.partial.as_ref().map(|p| p.stats())
    }

    /// View keys currently evicted, sorted — the scan path upqueries
    /// these before reading ([`MaintainedView::ensure_all_resident`]).
    pub fn partial_holes(&self) -> Vec<Value> {
        match &self.partial {
            Some(p) => {
                let mut keys: Vec<Value> = p.holes.iter().cloned().collect();
                keys.sort();
                keys
            }
            None => Vec::new(),
        }
    }

    /// Refuse a full-scan read at `epoch` when any key's eviction fence
    /// sits above it: eviction purged that key's chain history from the
    /// serve tier, so the snapshot is no longer reconstructible. A no-op
    /// for non-partial views and current-epoch reads.
    pub fn verify_scan_epoch(&self, epoch: u64) -> Result<()> {
        let Some(p) = &self.partial else {
            return Ok(());
        };
        if let Some((k, &d)) = p.dropped_at.iter().find(|(_, &d)| d > epoch) {
            return Err(PvmError::InvalidOperation(format!(
                "snapshot too old: key {k} of partial view '{}' was evicted at epoch {d} \
                 (reading at {epoch}); retry at the current epoch",
                self.handle.def.name
            )));
        }
        Ok(())
    }

    /// Make `key` readable at `epoch`: refuse reads below the key's
    /// `dropped_at` floor (eviction purged that history everywhere — the
    /// reader must retry at the current epoch), upquery if the key is a
    /// hole, and record the hit / miss. A no-op for non-partial views.
    /// Budget enforcement is left to the caller so a freshly installed
    /// result cannot be evicted before it is read.
    pub fn ensure_key_resident<B: Backend>(
        &mut self,
        backend: &mut B,
        key: &Value,
        epoch: u64,
    ) -> Result<()> {
        let view_table = self.handle.view_table;
        let Some(p) = &mut self.partial else {
            return Ok(());
        };
        if let Some(&d) = p.dropped_at.get(key) {
            if d > epoch {
                return Err(PvmError::InvalidOperation(format!(
                    "snapshot too old: key {key} of partial view '{}' was evicted at epoch {d} \
                     (reading at {epoch}); retry at the current epoch",
                    self.handle.def.name
                )));
            }
        }
        if !p.holes.contains(key) {
            p.hits += 1;
            p.sketch.observe(key);
            p.budget.touch(&(view_table, key.clone()));
            let obs = backend.engine().obs_handle();
            if obs.enabled() {
                obs.metrics().counter(pvm_obs::metric::PARTIAL_HITS).inc();
                obs.metrics()
                    .histogram(pvm_obs::metric::PARTIAL_HIT_RATE)
                    .observe(1000);
            }
            return Ok(());
        }
        // Miss: recompute the key from the base relations. Exact because
        // every delta for the key since `dropped_at[key]` was dropped —
        // its join result has not moved since `epoch` (see the module
        // docs of `crate::partial`).
        if backend.in_txn() || self.open_batch.is_some() {
            return Err(PvmError::InvalidOperation(
                "cannot upquery a partial view while a transaction or maintenance batch is open"
                    .into(),
            ));
        }
        p.misses += 1;
        p.sketch.observe(key);
        let t0 = std::time::Instant::now();
        let changes = partial::run_upquery(
            backend,
            &self.handle,
            self.policy,
            self.batch,
            self.method_tag(),
            key,
        )?;
        let rows: Vec<Row> = changes
            .into_iter()
            .filter(|(_, ins)| *ins)
            .map(|(r, _)| r)
            .collect();
        let p = self.partial.as_mut().expect("partial");
        p.holes.remove(key);
        let node = p.home(key);
        let bytes: u64 = rows.iter().map(|r| r.byte_size() as u64).sum();
        p.budget.charge((view_table, key.clone()), node, bytes);
        if let Some(serve) = &self.serve {
            // Fold the result into the serve-tier base — no epoch is
            // published; `dropped_at` already fences stale readers.
            serve.install_rows(&rows);
        }
        let obs = backend.engine().obs_handle();
        if obs.enabled() {
            let m = obs.metrics();
            m.counter(pvm_obs::metric::PARTIAL_MISSES).inc();
            m.histogram(pvm_obs::metric::PARTIAL_HIT_RATE).observe(0);
            m.histogram(pvm_obs::metric::PARTIAL_UPQUERY_US)
                .observe(t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Upquery every hole (in sorted key order, for determinism) so a
    /// full scan at the current epoch sees the complete view. Returns the
    /// number of upqueries issued. The caller should
    /// [`MaintainedView::enforce_partial_budget`] after its read.
    pub fn ensure_all_resident<B: Backend>(&mut self, backend: &mut B) -> Result<u64> {
        let keys = self.partial_holes();
        let epoch = self.epoch;
        for k in &keys {
            self.ensure_key_resident(backend, k, epoch)?;
        }
        Ok(keys.len() as u64)
    }

    /// Point-read the view at its current epoch, upquerying on a miss:
    /// the partial read path. Serves from the MVCC snapshot tier when
    /// enabled, else from the stored view table. Works on non-partial
    /// views too (plain point read).
    pub fn read_key<B: Backend>(&mut self, backend: &mut B, key: &Value) -> Result<Vec<Row>> {
        let epoch = self.epoch;
        self.ensure_key_resident(backend, key, epoch)?;
        let rows = match &self.serve {
            Some(serve) => serve.reader().snapshot().lookup(self.handle.view_pcol, key),
            None => partial::read_stored_key(
                backend,
                self.handle.view_table,
                self.handle.view_pcol,
                key,
            )?,
        };
        self.enforce_partial_budget(backend)?;
        Ok(rows)
    }

    /// Evict entries until every node is back under the policy budget:
    /// delete each victim's stored rows, purge its serve-tier history,
    /// install the hole, and (for view keys) stamp `dropped_at` with the
    /// current epoch. Heavy keys per the admission sketch go last.
    /// Deferred while a transaction or maintenance batch is open — a
    /// rolled-back delete would corrupt the accounting; the next
    /// post-commit call catches up. Returns the number of entries
    /// evicted.
    pub fn enforce_partial_budget<B: Backend>(&mut self, backend: &mut B) -> Result<u64> {
        let Some(p) = &self.partial else {
            return Ok(0);
        };
        if backend.in_txn() || self.open_batch.is_some() {
            return Ok(0);
        }
        let view_table = self.handle.view_table;
        let pcol = self.handle.view_pcol;
        let victims = if p.budget.over_budget() {
            let heavy = p.heavy_keys();
            p.budget
                .plan_evictions(|(t, v)| *t == view_table && heavy.contains(v))
        } else {
            Vec::new()
        };
        let epoch = self.epoch;
        let mut evicted = 0u64;
        for key in victims {
            let (table, v) = &key;
            if *table == view_table {
                partial::delete_matching(backend, view_table, pcol, v)?;
                if let Some(serve) = &self.serve {
                    serve.purge_matching(pcol, v);
                }
                let p = self.partial.as_mut().expect("partial");
                p.holes.insert(v.clone());
                p.dropped_at.insert(v.clone(), epoch);
                p.budget.remove(&key);
                p.evictions += 1;
            } else {
                let Some(col) = self
                    .partial
                    .as_ref()
                    .expect("partial")
                    .structs
                    .iter()
                    .find(|s| s.table == *table)
                    .map(|s| s.key_col())
                else {
                    continue;
                };
                partial::delete_matching(backend, *table, col, v)?;
                let p = self.partial.as_mut().expect("partial");
                p.struct_holes.entry(*table).or_default().insert(v.clone());
                p.budget.remove(&key);
                p.evictions += 1;
            }
            evicted += 1;
        }
        let p = self.partial.as_ref().expect("partial");
        let obs = backend.engine().obs_handle();
        if obs.enabled() {
            let m = obs.metrics();
            if evicted > 0 {
                m.counter(pvm_obs::metric::PARTIAL_EVICTIONS).add(evicted);
            }
            m.histogram(pvm_obs::metric::PARTIAL_RESIDENT_BYTES)
                .observe(p.budget.total_resident());
        }
        Ok(evicted)
    }

    /// Rebuild the structure entries the incoming delta will probe, for
    /// values that are currently holes — from the *other* relation's base
    /// fragments, which this delta does not touch, so the refilled
    /// entries are exact before the compute phase reads them.
    fn partial_refill<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        placed: &[(Row, pvm_types::GlobalRid)],
    ) -> Result<()> {
        let Some(p) = &self.partial else {
            return Ok(());
        };
        if p.structs.is_empty() {
            return Ok(());
        }
        let mut jobs: Vec<(partial::StructInfo, std::collections::BTreeSet<Value>)> = Vec::new();
        for s in &p.structs {
            if s.source_rel == rel {
                // The delta's own structures are *updated* (hole-gated),
                // never probed by this delta.
                continue;
            }
            let Some(holes) = p.struct_holes.get(&s.table) else {
                continue;
            };
            if holes.is_empty() {
                continue;
            }
            let mut needed = std::collections::BTreeSet::new();
            for (row, _) in placed {
                let v = &row[s.probe_col_other];
                if holes.contains(v) {
                    needed.insert(v.clone());
                }
            }
            if !needed.is_empty() {
                jobs.push((s.clone(), needed));
            }
        }
        for (s, needed) in jobs {
            let installed = partial::run_refill(backend, &s, &needed)?;
            let p = self.partial.as_mut().expect("partial");
            for (node, rows) in installed.iter().enumerate() {
                for row in rows {
                    p.budget.charge(
                        (s.table, row[s.key_col()].clone()),
                        node,
                        row.byte_size() as u64,
                    );
                }
            }
            if let Some(h) = p.struct_holes.get_mut(&s.table) {
                for v in &needed {
                    h.remove(v);
                }
            }
        }
        Ok(())
    }

    /// [`MaintainedView::create`] plus
    /// [`MaintainedView::enable_skew_handling`] in one call: the method's
    /// structures come up heavy-light-partitioned (with an empty heavy
    /// set, i.e. bit-identical to plain hash) and every maintained delta
    /// feeds the traffic sketches. Call
    /// [`MaintainedView::rebalance`] once traffic has been observed to
    /// actually spread the hot values.
    pub fn create_skewed(
        cluster: &mut Cluster,
        def: JoinViewDef,
        method: MaintenanceMethod,
        config: SkewConfig,
    ) -> Result<MaintainedView> {
        let mut view = MaintainedView::create(cluster, def, method)?;
        view.enable_skew_handling(cluster, config)?;
        Ok(view)
    }

    /// Turn on heavy-light skew handling (§ "Skew handling" in the
    /// README): every AR table is re-declared
    /// `HeavyLight{mode: Salt}` on its partitioning attribute and every
    /// GI table `HeavyLight{mode: Replicate}` on its key column — with an
    /// **empty heavy set**, so routing (and all counted costs) stay
    /// bit-identical to plain hash until [`MaintainedView::rebalance`]
    /// freezes observed heavy values in. From this call on, every delta
    /// the view maintains is also fed to the per-join-attribute-class
    /// frequency sketches.
    ///
    /// Only the method's private structures are reorganized — base
    /// relations keep their partitioning (a base already partitioned on
    /// the join attribute serves probes as before, un-spread). Errors for
    /// the naive method (no structures to reorganize) and for pool-shared
    /// ARs (other views route by the pool's specs).
    pub fn enable_skew_handling(
        &mut self,
        cluster: &mut Cluster,
        config: SkewConfig,
    ) -> Result<()> {
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot enable skew handling: rebalance would rewrite the \
                 structures the partial accounting tracks"
                    .into(),
            ));
        }
        match self.method {
            MaintenanceMethod::Naive => {
                return Err(PvmError::InvalidOperation(
                    "naive maintenance has no auxiliary structures to spread; \
                     skew handling applies to AR / GI views"
                        .into(),
                ));
            }
            MaintenanceMethod::AuxiliaryRelation => {
                let aux = self.aux.as_ref().expect("aux state installed");
                if aux.shared {
                    return Err(PvmError::InvalidOperation(
                        "pool-shared auxiliary relations cannot be reorganized per-view".into(),
                    ));
                }
                for info in aux.ars.values() {
                    let spec = PartitionSpec::heavy_light(
                        info.key_pos,
                        Vec::new(),
                        config.spread,
                        SpreadMode::Salt,
                    );
                    cluster.repartition(info.table, spec)?;
                }
            }
            MaintenanceMethod::GlobalIndex => {
                let gi = self.gi.as_ref().expect("gi state installed");
                for info in gi.gis.values() {
                    // GI entries are (key, node, page, slot): key is column 0.
                    let spec = PartitionSpec::heavy_light(
                        0,
                        Vec::new(),
                        config.spread,
                        SpreadMode::Replicate,
                    );
                    cluster.repartition(info.table, spec)?;
                }
            }
        }
        self.skew = Some(SkewState::new(&self.handle.def, config));
        Ok(())
    }

    /// Feed the skew sketches with delta traffic on relation `rel`
    /// without maintaining anything — for pre-training on a known
    /// workload before the first [`MaintainedView::rebalance`]. No-op
    /// when skew handling is off.
    pub fn train_skew(&mut self, rel: usize, rows: &[Row]) -> Result<()> {
        if let Some(skew) = &mut self.skew {
            skew.observe(rel, rows)?;
        }
        Ok(())
    }

    /// The live skew state, when skew handling is enabled.
    pub fn skew_state(&self) -> Option<&SkewState> {
        self.skew.as_ref()
    }

    /// Freeze the currently-observed heavy values into the AR / GI
    /// partitioning specs and migrate rows accordingly (light values keep
    /// their hash homes; heavy AR rows are salted over their spread set,
    /// heavy GI entries replicated across it). Not metered — this is a
    /// reorganization utility, not a maintenance transaction. Returns
    /// what moved; a no-op (empty report entries, `rows_moved = 0`) when
    /// the heavy sets are unchanged.
    pub fn rebalance<B: Backend>(&mut self, backend: &mut B) -> Result<RebalanceReport> {
        let Some(skew) = &self.skew else {
            return Err(PvmError::InvalidOperation(
                "skew handling is not enabled for this view".into(),
            ));
        };
        let config = skew.config;
        let mut report = RebalanceReport::default();
        let mut plans: Vec<(TableId, PartitionSpec, usize)> = Vec::new();
        if let Some(aux) = &self.aux {
            for (&(rel, c), info) in &aux.ars {
                let heavy = skew.heavy_for(rel, c);
                let n = heavy.len();
                let spec = PartitionSpec::heavy_light(
                    info.key_pos,
                    heavy,
                    config.spread,
                    SpreadMode::Salt,
                );
                plans.push((info.table, spec, n));
            }
        }
        if let Some(gi) = &self.gi {
            for (&(rel, c), info) in &gi.gis {
                let heavy = skew.heavy_for(rel, c);
                let n = heavy.len();
                // A GI is *written* by deltas on its own relation (entry
                // per delta tuple) and *probed* by deltas on the other
                // relations of the class. Replicating heavy entries is
                // right for the probe-dominant side (probes salt to one
                // replica) but multiplies writes by the spread factor, so
                // a write-dominant GI salts its heavy entries instead —
                // writes spread, and the rarer probes fan out over the
                // spread set and union disjoint entry lists.
                let (own, cross) = skew.traffic_split(rel, c);
                let mode = if own > cross {
                    SpreadMode::Salt
                } else {
                    SpreadMode::Replicate
                };
                let spec = PartitionSpec::heavy_light(0, heavy, config.spread, mode);
                plans.push((info.table, spec, n));
            }
        }
        plans.sort_by_key(|(t, _, _)| *t);
        for (table, spec, heavy_values) in plans {
            let rows_moved = backend.engine_mut().repartition(table, spec)?;
            report.tables.push(RebalancedTable {
                table,
                heavy_values,
                rows_moved,
            });
        }
        Ok(report)
    }

    /// Extra storage (pages) the method's structures occupy — zero for
    /// naive, σπ copies for AR, key+rid entries for GI.
    pub fn storage_overhead_pages(&self, cluster: &Cluster) -> Result<usize> {
        let mut pages = 0;
        if let Some(aux) = &self.aux {
            for info in aux.ars.values() {
                pages += cluster.total_pages(info.table)?;
            }
        }
        if let Some(gi) = &self.gi {
            for info in gi.gis.values() {
                pages += cluster.total_pages(info.table)?;
            }
        }
        Ok(pages)
    }

    /// [`MaintainedView::apply`] wrapped in a cluster transaction — the
    /// paper's `begin transaction … end transaction`: base update,
    /// auxiliary-structure update, and view update commit or roll back as
    /// one unit. On error, every node's DML is undone (deleted rows come
    /// back at their original rids) and the error is returned.
    pub fn apply_atomic<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        delta: &Delta,
    ) -> Result<MaintenanceOutcome> {
        backend.begin_txn()?;
        match self.apply(backend, rel, delta) {
            Ok(outcome) => {
                backend.commit_txn()?;
                self.publish_pending();
                self.enforce_partial_budget(backend)?;
                Ok(outcome)
            }
            Err(e) => {
                backend.abort_txn()?;
                self.discard_pending();
                Err(e)
            }
        }
    }

    /// The join chain the planner would use for a delta on relation
    /// `rel`, with fan-outs estimated from current cluster statistics —
    /// the §2.2 choice, inspectable (`EXPLAIN MAINTENANCE` in pvm-sql).
    pub fn plan_for(&self, cluster: &Cluster, rel: usize) -> Result<Vec<crate::planner::PlanStep>> {
        let fanout = crate::view_stats_fanout(cluster, &self.handle)?;
        crate::planner::plan_chain(&self.handle.def, rel, fanout)
    }

    /// Tear the view down: drop its stored table and every maintenance
    /// structure it owns (private ARs / GIs). Pool-shared ARs are left
    /// alone — other views may still read them. This is how the storage
    /// the paper worries about ("the parallel RDBMS may not have enough
    /// disk space") is handed back.
    pub fn destroy(self, cluster: &mut Cluster) -> Result<()> {
        cluster.drop_table(self.handle.view_table)?;
        if let Some(aux) = self.aux {
            if !aux.shared {
                for info in aux.ars.values() {
                    cluster.drop_table(info.table)?;
                }
            }
        }
        if let Some(gi) = self.gi {
            if !gi.shared {
                for info in gi.gis.values() {
                    cluster.drop_table(info.table)?;
                }
            }
        }
        Ok(())
    }

    /// Verify the stored view equals the from-scratch recomputation
    /// (multiset comparison). Test / debugging aid.
    pub fn check_consistent(&self, cluster: &Cluster) -> Result<()> {
        let mut actual = self.contents(cluster)?;
        let mut expected = self.recompute_expected(cluster)?;
        actual.sort();
        expected.sort();
        if actual != expected {
            return Err(PvmError::Corrupt(format!(
                "view '{}' diverged: {} stored vs {} expected rows",
                self.handle.def.name,
                actual.len(),
                expected.len()
            )));
        }
        Ok(())
    }
}

/// Apply a delta to the base relation once and return the cost report
/// plus each row's global rid placement (occupied on insert, vacated on
/// delete). Rows absent at delete time are skipped — they contribute no
/// view delta.
pub(crate) fn update_base<B: Backend>(
    backend: &mut B,
    table: TableId,
    rows: &[Row],
    insert: bool,
) -> Result<(MeterReport, Vec<(Row, pvm_types::GlobalRid)>)> {
    use pvm_types::GlobalRid;
    let guard = backend.start_meter();
    let mut placed = Vec::with_capacity(rows.len());
    let cluster = backend.engine_mut();
    if insert {
        for (row, (node, rid)) in rows.iter().zip(cluster.insert(table, rows.to_vec())?) {
            placed.push((row.clone(), GlobalRid::new(node, rid)));
        }
    } else {
        for row in rows {
            let home = cluster.route(table, row)?;
            let node = cluster.node_mut(home)?;
            let Some(rid) = node.find_rid(table, row, &[])? else {
                continue;
            };
            node.delete_rid(table, rid)?;
            placed.push((row.clone(), GlobalRid::new(home, rid)));
        }
    }
    Ok((backend.finish_meter(&guard), placed))
}

/// Maintain several views over one shared base-relation delta: the base
/// table named `relation` is updated **once**, then every view that joins
/// it is maintained from the same placements — the many-views-per-table
/// situation §2.1.2 discusses. Views that do not reference `relation` are
/// left untouched. Returns one outcome per view, in input order (the
/// shared base phase is reported on the first maintained view).
pub fn maintain_all<B: Backend>(
    backend: &mut B,
    views: &mut [&mut MaintainedView],
    relation: &str,
    delta: &Delta,
) -> Result<Vec<MaintenanceOutcome>> {
    let table = backend.engine().table_id(relation)?;
    // One maintain_all round is one batch — and one epoch tick — on every
    // view that joins the relation, even when the delta splits into a
    // delete and an insert phase.
    for view in views.iter_mut() {
        if view.handle.def.relation_index(relation).is_ok() {
            view.begin_batch();
        }
    }
    match maintain_all_phases(backend, views, table, relation, delta) {
        Ok(outcomes) => {
            let defer = backend.in_txn();
            for view in views.iter_mut() {
                if view.open_batch.is_some() {
                    view.commit_batch(defer);
                }
            }
            if !defer {
                for view in views.iter_mut() {
                    view.enforce_partial_budget(backend)?;
                }
            }
            Ok(outcomes)
        }
        Err(e) => {
            for view in views.iter_mut() {
                view.abort_batch();
            }
            Err(e)
        }
    }
}

fn maintain_all_phases<B: Backend>(
    backend: &mut B,
    views: &mut [&mut MaintainedView],
    table: TableId,
    relation: &str,
    delta: &Delta,
) -> Result<Vec<MaintenanceOutcome>> {
    let mut outcomes: Vec<Option<MaintenanceOutcome>> = views.iter().map(|_| None).collect();
    let (deletes, inserts) = delta.phases();
    for (rows, insert) in [(deletes, false), (inserts, true)] {
        let Some(rows) = rows else { continue };
        let (base, placed) = update_base(backend, table, rows, insert)?;
        let mut base = Some(base);
        for (i, view) in views.iter_mut().enumerate() {
            let Ok(rel) = view.handle.def.relation_index(relation) else {
                continue;
            };
            let mut out = view.apply_prepared(backend, rel, &placed, insert)?;
            if let Some(b) = base.take() {
                out.base = b;
            }
            outcomes[i] = Some(match outcomes[i].take() {
                Some(prev) => prev.merge(out),
                None => out,
            });
        }
        if let Some(b) = base {
            // No view joined the relation; surface the base report anyway
            // on the first slot if present.
            if let Some(first) = outcomes.first_mut() {
                if first.is_none() {
                    *first = Some(MaintenanceOutcome {
                        base: b.clone(),
                        aux: empty_report(backend),
                        compute: empty_report(backend),
                        view: empty_report(backend),
                        view_rows: 0,
                        view_changes: Vec::new(),
                    });
                }
            }
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(untouched_outcome))
        .collect())
}

/// The outcome reported for a view the delta's relation does not join:
/// empty reports, nothing maintained.
pub(crate) fn untouched_outcome() -> MaintenanceOutcome {
    MaintenanceOutcome {
        base: MeterReport {
            per_node: Vec::new(),
            net: Default::default(),
        },
        aux: MeterReport {
            per_node: Vec::new(),
            net: Default::default(),
        },
        compute: MeterReport {
            per_node: Vec::new(),
            net: Default::default(),
        },
        view: MeterReport {
            per_node: Vec::new(),
            net: Default::default(),
        },
        view_rows: 0,
        view_changes: Vec::new(),
    }
}

pub(crate) fn empty_report<B: Backend>(backend: &B) -> MeterReport {
    let guard = backend.start_meter();
    backend.finish_meter(&guard)
}

/// [`maintain_all`] for pool-backed views: the base table is updated
/// once, **each shared AR is updated once** (by the pool), and then every
/// view's compute/apply phases run. The pool's AR-update cost is reported
/// in the first outcome's `aux` phase.
pub fn maintain_all_pooled<B: Backend>(
    backend: &mut B,
    pool: &crate::minimize::ArPool,
    views: &mut [&mut MaintainedView],
    relation: &str,
    delta: &Delta,
) -> Result<Vec<MaintenanceOutcome>> {
    let table = backend.engine().table_id(relation)?;
    for view in views.iter_mut() {
        if view.handle.def.relation_index(relation).is_ok() {
            view.begin_batch();
        }
    }
    let result: Result<Vec<MaintenanceOutcome>> = (|| {
        let mut outcomes: Vec<Option<MaintenanceOutcome>> = views.iter().map(|_| None).collect();
        let (deletes, inserts) = delta.phases();
        for (rows, insert) in [(deletes, false), (inserts, true)] {
            let Some(rows) = rows else { continue };
            let (base, placed) = update_base(backend, table, rows, insert)?;
            let guard = backend.start_meter();
            let pool_batch = crate::share::pool_batch_policy(views, relation);
            pool.apply_base_delta(backend, relation, &placed, insert, pool_batch)?;
            let pool_aux = backend.finish_meter(&guard);
            let mut shared_phases = Some((base, pool_aux));
            for (i, view) in views.iter_mut().enumerate() {
                let Ok(rel) = view.handle.def.relation_index(relation) else {
                    continue;
                };
                let mut out = view.apply_prepared(backend, rel, &placed, insert)?;
                if let Some((b, a)) = shared_phases.take() {
                    out.base = b;
                    out.aux = a;
                }
                outcomes[i] = Some(match outcomes[i].take() {
                    Some(prev) => prev.merge(out),
                    None => out,
                });
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(untouched_outcome))
            .collect())
    })();
    match result {
        Ok(outcomes) => {
            let defer = backend.in_txn();
            for view in views.iter_mut() {
                if view.open_batch.is_some() {
                    view.commit_batch(defer);
                }
            }
            if !defer {
                for view in views.iter_mut() {
                    view.enforce_partial_budget(backend)?;
                }
            }
            Ok(outcomes)
        }
        Err(e) => {
            for view in views.iter_mut() {
                view.abort_batch();
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_engine::ClusterConfig;
    use pvm_types::{row, Column, Schema, Value};

    /// A(a, c, payload) partitioned on a; B(b, d, payload) partitioned on
    /// b. Join A.c = B.d — neither partitioned on the join attribute, the
    /// paper's hard case 2.
    fn setup(l: usize) -> (Cluster, TableId, TableId) {
        let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(512));
        let a = cluster
            .create_table(TableDef::hash_heap(
                "a",
                Schema::new(vec![Column::int("a"), Column::int("c"), Column::str("pa")]).into_ref(),
                0,
            ))
            .unwrap();
        let b = cluster
            .create_table(TableDef::hash_heap(
                "b",
                Schema::new(vec![Column::int("b"), Column::int("d"), Column::str("pb")]).into_ref(),
                0,
            ))
            .unwrap();
        // 50 B-rows, 10 distinct join values → N = 5.
        cluster
            .insert(
                b,
                (0..50).map(|i| row![i, i % 10, format!("b{i}")]).collect(),
            )
            .unwrap();
        cluster
            .insert(
                a,
                (0..20).map(|i| row![i, i % 10, format!("a{i}")]).collect(),
            )
            .unwrap();
        (cluster, a, b)
    }

    fn jv_def() -> JoinViewDef {
        JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3)
    }

    fn methods() -> [MaintenanceMethod; 3] {
        [
            MaintenanceMethod::Naive,
            MaintenanceMethod::AuxiliaryRelation,
            MaintenanceMethod::GlobalIndex,
        ]
    }

    #[test]
    fn create_populates_existing_join() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            assert_eq!(
                view.contents(&cluster).unwrap().len(),
                20 * 5,
                "{m:?}: each A row matches 5 B rows"
            );
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn insert_maintains_all_methods() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "new"]]))
                .unwrap();
            assert_eq!(out.view_rows, 5, "{m:?}");
            view.check_consistent(&cluster).unwrap();
            // And an insert into B (roles switch).
            let out = view
                .apply(&mut cluster, 1, &Delta::Insert(vec![row![100, 3, "newb"]]))
                .unwrap();
            assert_eq!(out.view_rows, 3, "{m:?}: three A rows have c = 3 now");
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn delete_maintains_all_methods() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(&mut cluster, 0, &Delta::Delete(vec![row![0, 0, "a0"]]))
                .unwrap();
            assert_eq!(out.view_rows, 5, "{m:?}");
            view.check_consistent(&cluster).unwrap();
            let out = view
                .apply(&mut cluster, 1, &Delta::Delete(vec![row![0, 0, "b0"]]))
                .unwrap();
            assert_eq!(out.view_rows, 1, "{m:?}: one remaining A row with c = 0");
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn update_is_delete_plus_insert() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            view.apply(
                &mut cluster,
                0,
                &Delta::Update {
                    old: vec![row![0, 0, "a0"]],
                    new: vec![row![0, 7, "a0"]],
                },
            )
            .unwrap();
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn active_nodes_distinguish_methods() {
        // The paper's headline: naive does compute work at ALL nodes;
        // AR at one node per step; GI in between.
        let l = 8;
        let (mut cluster, _, _) = setup(l);
        let mut naive =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let out = naive
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        assert_eq!(out.compute_active_nodes(), l, "naive probes at every node");

        let (mut cluster, _, _) = setup(l);
        let mut ar =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        let out = ar
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        assert_eq!(
            out.compute_active_nodes(),
            1,
            "AR probes at exactly one node"
        );

        let (mut cluster, _, _) = setup(l);
        let mut gi =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::GlobalIndex).unwrap();
        let out = gi
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        let active = out.compute_active_nodes();
        assert!(
            active >= 1 && active <= 1 + 5.min(l),
            "GI touches the probe node plus ≤ K holder nodes, got {active}"
        );
    }

    #[test]
    fn tw_matches_analytical_model() {
        // Engine-measured TW (aux + compute I/Os) for a single-tuple insert
        // must equal the §3.1.1 formulas: AR = 3; GI(dist non-clustered) =
        // 3 + N; naive(non-clustered) = L + N.
        let l = 8u64;
        let n = 5u64; // 5 matches per value in setup()

        let (mut cluster, _, _) = setup(l as usize);
        let mut ar =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        let out = ar
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![300, 4, "x"]]))
            .unwrap();
        assert_eq!(out.tw_io(), 3.0, "AR: 1 INSERT (2 I/Os) + 1 SEARCH");

        let (mut cluster, _, _) = setup(l as usize);
        let mut gi =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::GlobalIndex).unwrap();
        let out = gi
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![300, 4, "x"]]))
            .unwrap();
        assert_eq!(
            out.tw_io(),
            (3 + n) as f64,
            "GI: INSERT + SEARCH + N FETCHes"
        );

        let (mut cluster, _, _) = setup(l as usize);
        let mut nv =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let out = nv
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![300, 4, "x"]]))
            .unwrap();
        assert_eq!(out.tw_io(), (l + n) as f64, "naive: L SEARCHes + N FETCHes");
    }

    #[test]
    fn storage_overhead_ordering() {
        // naive = 0 < GI < AR, the paper's space hierarchy.
        let mut overheads = Vec::new();
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            overheads.push(view.storage_overhead_pages(&cluster).unwrap());
        }
        assert_eq!(overheads[0], 0, "naive stores nothing extra");
        assert!(overheads[2] >= 1, "GI stores entries");
        assert!(
            overheads[1] >= overheads[2],
            "AR copies dominate GI entries"
        );
    }

    #[test]
    fn view_partitioned_on_b_attribute() {
        // "JV not partitioned on an attribute of A": partition the view on
        // a B column; insert into A must still route result rows correctly.
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut def = jv_def();
            def.partition_column = 3; // view column 3 = B.b
            let mut view = MaintainedView::create(&mut cluster, def, m).unwrap();
            view.apply(&mut cluster, 0, &Delta::Insert(vec![row![400, 2, "x"]]))
                .unwrap();
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn no_matches_inserts_nothing() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(vec![row![500, 999, "lonely"]]),
                )
                .unwrap();
            assert_eq!(out.view_rows, 0, "{m:?}");
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn null_join_values_never_match() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(vec![Row::new(vec![
                        Value::Int(600),
                        Value::Null,
                        Value::from("n"),
                    ])]),
                )
                .unwrap();
            assert_eq!(out.view_rows, 0, "{m:?}");
        }
    }

    #[test]
    fn bad_relation_index_rejected() {
        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        assert!(view
            .apply(&mut cluster, 9, &Delta::insert_one(row![1, 1, "x"]))
            .is_err());
    }

    #[test]
    fn method_labels() {
        assert_eq!(MaintenanceMethod::Naive.label(), "naive");
        assert_eq!(
            MaintenanceMethod::AuxiliaryRelation.label(),
            "auxiliary relation"
        );
        assert_eq!(MaintenanceMethod::GlobalIndex.label(), "global index");
    }

    #[test]
    fn epoch_advances_once_per_batch_under_both_policies() {
        // The BatchPolicy/epoch contract made explicit: one apply() call
        // is one batch is one epoch tick — whether messages are coalesced
        // or sent per row, and whether the delta is a plain insert or an
        // update (delete phase + insert phase).
        use crate::chain::BatchPolicy;
        for m in methods() {
            for policy in [BatchPolicy::Coalesced, BatchPolicy::PerRow] {
                let (mut cluster, _, _) = setup(4);
                let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
                view.set_batch_policy(policy);
                assert_eq!(view.epoch(), 0);
                view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "x"]]))
                    .unwrap();
                assert_eq!(view.epoch(), 1, "{m:?}/{policy:?}: one insert batch");
                view.apply(
                    &mut cluster,
                    0,
                    &Delta::Update {
                        old: vec![row![100, 3, "x"]],
                        new: vec![row![100, 5, "x"]],
                    },
                )
                .unwrap();
                assert_eq!(
                    view.epoch(),
                    2,
                    "{m:?}/{policy:?}: a two-phase update is still one batch"
                );
                // A failed batch must not tick the epoch.
                assert!(view
                    .apply(&mut cluster, 9, &Delta::insert_one(row![1]))
                    .is_err());
                assert_eq!(view.epoch(), 2, "{m:?}/{policy:?}: failed batch ticked");
            }
        }
    }

    #[test]
    fn serving_snapshots_track_the_stored_view() {
        // Every committed batch publishes exactly the view delta: a
        // snapshot taken after each commit matches the stored contents
        // (and the recompute oracle) at that moment, and older pinned
        // snapshots keep reading their own epoch.
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let reader = view.enable_serving(&cluster).unwrap();
            let s0 = reader.snapshot();
            let mut at_s0 = view.contents(&cluster).unwrap();
            at_s0.sort();

            view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "x"]]))
                .unwrap();
            view.apply(&mut cluster, 1, &Delta::Delete(vec![row![0, 0, "b0"]]))
                .unwrap();
            assert_eq!(reader.current_epoch(), 2, "{m:?}");

            let mut stored = view.contents(&cluster).unwrap();
            stored.sort();
            assert_eq!(reader.snapshot().rows(), stored, "{m:?}: head snapshot");
            assert_eq!(s0.rows(), at_s0, "{m:?}: pinned epoch-0 snapshot");
        }
    }

    #[test]
    fn serving_aggregate_views_folds_group_changes() {
        use crate::aggregate::{AggShape, AggSpec};
        let (mut cluster, _, _) = setup(4);
        let def = jv_def();
        let shape = AggShape {
            group_by: vec![1],
            aggregates: vec![AggSpec::count()],
        };
        let mut view = MaintainedView::create_aggregate(
            &mut cluster,
            def,
            shape,
            MaintenanceMethod::AuxiliaryRelation,
        )
        .unwrap();
        let reader = view.enable_serving(&cluster).unwrap();
        view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "x"]]))
            .unwrap();
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);
        view.apply(&mut cluster, 0, &Delta::Delete(vec![row![100, 3, "x"]]))
            .unwrap();
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);
    }

    #[test]
    fn enable_serving_twice_is_rejected() {
        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        view.enable_serving(&cluster).unwrap();
        assert!(view.enable_serving(&cluster).is_err());
        assert!(view.serve_reader().is_some());
    }

    #[test]
    fn transactions_defer_publication_until_commit() {
        let (mut cluster, _, _) = setup(4);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let reader = view.enable_serving(&cluster).unwrap();
        let delta = Delta::Insert(vec![row![100, 3, "x"]]);

        // Aborted transaction: readers never saw the epoch, and the
        // rewind keeps view epoch == published head.
        cluster.begin_txn().unwrap();
        view.apply(&mut cluster, 0, &delta).unwrap();
        assert_eq!(view.epoch(), 1);
        assert_eq!(reader.current_epoch(), 0, "publication waits for commit");
        cluster.abort_txn().unwrap();
        view.discard_pending();
        assert_eq!(view.epoch(), 0);
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);

        // Committed transaction: the commit point releases the epoch.
        cluster.begin_txn().unwrap();
        view.apply(&mut cluster, 0, &delta).unwrap();
        cluster.commit_txn().unwrap();
        view.publish_pending();
        assert_eq!(reader.current_epoch(), 1);
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);
    }

    #[test]
    fn maintain_all_ticks_each_joining_view_once() {
        let (mut cluster, _, _) = setup(4);
        let mut v1 =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let mut def2 = jv_def();
        def2.name = "jv2".into();
        let mut v2 =
            MaintainedView::create(&mut cluster, def2, MaintenanceMethod::GlobalIndex).unwrap();
        let r1 = v1.enable_serving(&cluster).unwrap();
        let r2 = v2.enable_serving(&cluster).unwrap();
        maintain_all(
            &mut cluster,
            &mut [&mut v1, &mut v2],
            "a",
            &Delta::Update {
                old: vec![row![0, 0, "a0"]],
                new: vec![row![0, 4, "a0"]],
            },
        )
        .unwrap();
        assert_eq!((v1.epoch(), v2.epoch()), (1, 1), "one tick per view");
        let mut c1 = v1.contents(&cluster).unwrap();
        c1.sort();
        let mut c2 = v2.contents(&cluster).unwrap();
        c2.sort();
        assert_eq!(r1.snapshot().rows(), c1);
        assert_eq!(r2.snapshot().rows(), c2);
    }

    #[test]
    fn partial_reads_match_oracle_after_eviction() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            view.enable_partial(&mut cluster, PartialPolicy::with_budget(600))
                .unwrap();
            assert!(
                view.partial_stats().unwrap().evictions > 0,
                "{m:?}: a tiny budget must evict"
            );
            // Maintain under holes: a new A key, a deleted B row, and
            // deltas whose view rows land on holes and get dropped.
            view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "a100"]]))
                .unwrap();
            view.apply(&mut cluster, 1, &Delta::Delete(vec![row![7, 7, "b7"]]))
                .unwrap();
            view.apply(&mut cluster, 1, &Delta::Insert(vec![row![50, 9, "b50"]]))
                .unwrap();
            let oracle = view.recompute_expected(&cluster).unwrap();
            for k in (0..21).chain([100, 999]) {
                let key = Value::Int(k);
                let mut got = view.read_key(&mut cluster, &key).unwrap();
                let mut want: Vec<Row> = oracle.iter().filter(|r| r[0] == key).cloned().collect();
                got.sort();
                want.sort();
                assert_eq!(got, want, "{m:?}: key {k}");
            }
        }
    }

    #[test]
    fn partial_accounting_matches_stored_bytes_and_budget() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let budget = 900u64;
            view.enable_partial(&mut cluster, PartialPolicy::with_budget(budget))
                .unwrap();
            for i in 0..6i64 {
                view.apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(vec![row![200 + i, i % 10, "x"]]),
                )
                .unwrap();
                view.apply(
                    &mut cluster,
                    1,
                    &Delta::Insert(vec![row![300 + i, i % 10, "y"]]),
                )
                .unwrap();
            }
            view.read_key(&mut cluster, &Value::Int(3)).unwrap();
            // The ledger must equal the physically stored bytes, and every
            // node must be back under budget after enforcement.
            let mut tables = vec![view.view_table()];
            tables.extend(view.method_tables());
            let mut stored_total = 0u64;
            for n in cluster.nodes() {
                let mut node_bytes = 0u64;
                for &t in &tables {
                    for (_, r) in n.storage(t).unwrap().scan().unwrap() {
                        node_bytes += r.byte_size() as u64;
                    }
                }
                assert!(
                    node_bytes <= budget,
                    "{m:?}: node {} stores {node_bytes} bytes > budget {budget}",
                    n.id().index()
                );
                stored_total += node_bytes;
            }
            let stats = view.partial_stats().unwrap();
            assert_eq!(stats.resident_bytes, stored_total, "{m:?}: ledger drift");
        }
    }

    #[test]
    fn partial_refuses_reads_below_dropped_at() {
        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(400))
            .unwrap();
        let holes = view.partial_holes();
        assert!(!holes.is_empty());
        let k = holes[0].clone();
        let e0 = view.epoch();
        // A delta for the hole key gets dropped at the gates, bumping its
        // dropped_at past e0.
        let Value::Int(kv) = k else { unreachable!() };
        view.apply(&mut cluster, 0, &Delta::Insert(vec![row![kv, 3, "dup"]]))
            .unwrap();
        let key = Value::Int(kv);
        let err = view
            .ensure_key_resident(&mut cluster, &key, e0)
            .unwrap_err();
        assert!(err.to_string().contains("snapshot too old"), "{err}");
        // At the current epoch the same key upqueries fine.
        let got = view.read_key(&mut cluster, &key).unwrap();
        let want: Vec<Row> = view
            .recompute_expected(&cluster)
            .unwrap()
            .into_iter()
            .filter(|r| r[0] == key)
            .collect();
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn partial_serves_snapshot_reads_with_upquery() {
        let (mut cluster, _, _) = setup(4);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::GlobalIndex).unwrap();
        view.enable_serving(&cluster).unwrap();
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(500))
            .unwrap();
        view.apply(&mut cluster, 1, &Delta::Insert(vec![row![60, 2, "b60"]]))
            .unwrap();
        let oracle = view.recompute_expected(&cluster).unwrap();
        for k in 0..20 {
            let key = Value::Int(k);
            let mut got = view.read_key(&mut cluster, &key).unwrap();
            let mut want: Vec<Row> = oracle.iter().filter(|r| r[0] == key).cloned().collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "key {k}");
        }
    }

    #[test]
    fn partial_rejected_for_aggregates_and_during_txn() {
        let (mut cluster, _, _) = setup(2);
        let shape = crate::aggregate::AggShape {
            group_by: vec![1],
            aggregates: vec![crate::aggregate::AggSpec::count()],
        };
        let mut agg = MaintainedView::create_aggregate(
            &mut cluster,
            jv_def(),
            shape,
            MaintenanceMethod::Naive,
        )
        .unwrap();
        assert!(agg
            .enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
            .is_err());

        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        cluster.begin_txn().unwrap();
        assert!(view
            .enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
            .is_err());
        cluster.abort_txn().unwrap();
        // With a roomy budget nothing is evicted and reads are plain hits.
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
            .unwrap();
        assert_eq!(view.partial_stats().unwrap().evictions, 0);
        let got = view.read_key(&mut cluster, &Value::Int(5)).unwrap();
        assert_eq!(got.len(), 5, "key 5 joins its 5 B rows");
        let stats = view.partial_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }
}
