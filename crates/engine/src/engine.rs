//! The query engine: multi-column set-valued tables, optional inverted
//! indexes, learned estimator UDFs, and the cost-based planner that picks
//! between them.
//!
//! Un-pinned queries are routed through [`crate::plan`]: the registered
//! learned cardinality estimator (falling back to posting-list statistics,
//! then a heuristic) prices sequential scan vs inverted index vs learned
//! estimate and the cheapest applicable path runs. A `USING` clause is a
//! *hint* the planner obeys — it still builds and costs the full plan, so
//! `EXPLAIN` and the plan metrics work for pinned queries too.

use crate::inverted::InvertedIndex;
use crate::plan::expr::Expr;
use crate::plan::{build_plan, exec, explain, ColumnInfo, PlanCtx};
use crate::sql::{parse_query, CountQuery, ExecMode, ParseError, Query, Verb};
use crate::table::SetTable;
use parking_lot::RwLock;
use setlearn::tasks::{CardinalityEstimator, LearnedBloom, LearnedSetIndex};
use setlearn_data::SetCollection;
use setlearn_obs::QERROR_BOUNDS;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An estimator UDF: canonical query set → estimated count.
pub type EstimatorUdf = Arc<dyn Fn(&[u32]) -> f64 + Send + Sync>;

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Unknown table.
    NoSuchTable(String),
    /// The queried column does not exist on the table.
    NoSuchColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// `USING index` without a built index on every referenced column.
    NoIndex(String),
    /// `USING estimate` without a registered estimator on every referenced
    /// column.
    NoEstimator(String),
    /// `SELECT EXISTS ... USING estimate` without a registered membership
    /// filter.
    NoMembershipFilter(String),
    /// `SELECT FIRST ... USING estimate` without a registered learned index.
    NoLearnedIndex(String),
    /// The query shape is valid but the engine cannot run it as asked
    /// (e.g. a learned-structure probe over a multi-predicate filter).
    Unsupported(String),
    /// Query text failed to parse.
    Parse(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            EngineError::NoSuchColumn { table, column } => {
                write!(f, "no column '{column}' on table '{table}'")
            }
            EngineError::NoIndex(t) => write!(f, "no inverted index on table '{t}'"),
            EngineError::NoEstimator(t) => write!(f, "no estimator registered on table '{t}'"),
            EngineError::NoMembershipFilter(t) => {
                write!(f, "no membership filter registered on table '{t}'")
            }
            EngineError::NoLearnedIndex(t) => {
                write!(f, "no learned index registered on table '{t}'")
            }
            EngineError::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
            EngineError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e.to_string())
    }
}

/// Result of a query execution. The meaning of `count` depends on the verb:
/// COUNT → the (possibly estimated) count; EXISTS → 1.0 / 0.0;
/// FIRST → the position, or -1.0 when no set contains the query.
#[derive(Debug, Clone, PartialEq)]
pub struct CountResult {
    /// Verb-dependent result value (see the struct docs).
    pub count: f64,
    /// Whether the answer is exact.
    pub exact: bool,
    /// The access path that *actually executed* — reported by the engine,
    /// not echoed from the caller's hint.
    pub mode: ExecMode,
    /// The executed verb.
    pub verb: Verb,
    /// The planner's estimated matching rows for the filter.
    pub est_rows: f64,
    /// The planner's estimated cost of the executed path (abstract
    /// row-touch units).
    pub est_cost: f64,
    /// Whether the path was pinned by `USING` rather than chosen on cost.
    pub pinned: bool,
}

/// A query result plus the `EXPLAIN` rendering when one was requested.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The executed result.
    pub result: CountResult,
    /// The rendered plan, present iff the query asked for `EXPLAIN`.
    pub explain: Option<String>,
}

struct ColumnEntry {
    collection: SetCollection,
    avg_len: f64,
    index: Option<InvertedIndex>,
    estimator: Option<EstimatorUdf>,
}

impl ColumnEntry {
    fn new(collection: SetCollection) -> Self {
        let rows = collection.len();
        let total: usize = collection.sets().iter().map(|s| s.len()).sum();
        let avg_len = if rows > 0 { total as f64 / rows as f64 } else { 0.0 };
        ColumnEntry { collection, avg_len, index: None, estimator: None }
    }
}

struct TableEntry {
    /// Columns in registration order; `[0]` is the primary column (the one
    /// named at `create_table`), which owns the table-level membership
    /// filter and learned index.
    columns: Vec<(String, ColumnEntry)>,
    membership: Option<LearnedBloom>,
    learned_index: Option<LearnedSetIndex>,
}

impl TableEntry {
    fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.collection.len())
    }

    fn ctx<'a>(&'a self, table: &'a str) -> PlanCtx<'a> {
        PlanCtx {
            table,
            rows: self.rows(),
            columns: self
                .columns
                .iter()
                .map(|(name, c)| ColumnInfo {
                    name,
                    collection: &c.collection,
                    avg_len: c.avg_len,
                    index: c.index.as_ref(),
                    estimator: c.estimator.as_ref(),
                })
                .collect(),
            membership: self.membership.as_ref(),
            learned_index: self.learned_index.as_ref(),
        }
    }
}

/// An in-memory engine hosting set-valued tables.
///
/// Concurrency: reads take a shared lock; registration takes an exclusive
/// lock, mirroring a catalog.
pub struct Engine {
    tables: RwLock<HashMap<String, TableEntry>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine { tables: RwLock::new(HashMap::new()) }
    }

    /// Registers a table; `column` names its (primary) set-valued column.
    pub fn create_table(&self, table: SetTable, column: impl Into<String>) {
        let name = table.name().to_owned();
        self.tables.write().insert(
            name,
            TableEntry {
                columns: vec![(column.into(), ColumnEntry::new(table.into_collection()))],
                membership: None,
                learned_index: None,
            },
        );
    }

    /// Adds a second (or later) set-valued column to an existing table. The
    /// new column must have exactly one set per existing row.
    pub fn add_column(
        &self,
        table: &str,
        column: impl Into<String>,
        collection: SetCollection,
    ) -> Result<(), EngineError> {
        let column = column.into();
        let mut tables = self.tables.write();
        let entry =
            tables.get_mut(table).ok_or_else(|| EngineError::NoSuchTable(table.into()))?;
        if entry.columns.iter().any(|(n, _)| *n == column) {
            return Err(EngineError::Unsupported(format!(
                "column '{column}' already exists on table '{table}'"
            )));
        }
        if collection.len() != entry.rows() {
            return Err(EngineError::Unsupported(format!(
                "column '{column}' has {} rows but table '{table}' has {}",
                collection.len(),
                entry.rows()
            )));
        }
        entry.columns.push((column, ColumnEntry::new(collection)));
        Ok(())
    }

    /// Builds the inverted index on **every** column of a table (Table 12's
    /// "with index").
    pub fn create_index(&self, table: &str) -> Result<(), EngineError> {
        let mut tables = self.tables.write();
        let entry =
            tables.get_mut(table).ok_or_else(|| EngineError::NoSuchTable(table.into()))?;
        for (_, c) in entry.columns.iter_mut() {
            c.index = Some(InvertedIndex::build(&c.collection));
        }
        Ok(())
    }

    /// Registers a learned cardinality estimator on the table's primary
    /// column. Accepts anything implementing
    /// [`setlearn::tasks::CardinalityEstimator`].
    pub fn register_estimator<E>(&self, table: &str, estimator: E) -> Result<(), EngineError>
    where
        E: CardinalityEstimator + 'static,
    {
        self.register_estimator_udf(table, Arc::new(move |q| estimator.estimate_rows(q)))
    }

    /// Registers a learned Bloom filter as the table's membership structure
    /// (`SELECT EXISTS ... USING estimate`).
    pub fn register_membership(
        &self,
        table: &str,
        filter: LearnedBloom,
    ) -> Result<(), EngineError> {
        let mut tables = self.tables.write();
        let entry =
            tables.get_mut(table).ok_or_else(|| EngineError::NoSuchTable(table.into()))?;
        entry.membership = Some(filter);
        Ok(())
    }

    /// Registers a learned set index as the table's position structure
    /// (`SELECT FIRST ... USING estimate`).
    pub fn register_learned_index(
        &self,
        table: &str,
        index: LearnedSetIndex,
    ) -> Result<(), EngineError> {
        let mut tables = self.tables.write();
        let entry =
            tables.get_mut(table).ok_or_else(|| EngineError::NoSuchTable(table.into()))?;
        entry.learned_index = Some(index);
        Ok(())
    }

    /// Registers an arbitrary estimator UDF on the table's primary column.
    pub fn register_estimator_udf(
        &self,
        table: &str,
        udf: EstimatorUdf,
    ) -> Result<(), EngineError> {
        let mut tables = self.tables.write();
        let entry =
            tables.get_mut(table).ok_or_else(|| EngineError::NoSuchTable(table.into()))?;
        let col = entry.columns.first_mut().expect("tables always have a primary column");
        col.1.estimator = Some(udf);
        Ok(())
    }

    /// Executes a SQL query (see [`crate::sql`] for the grammar), discarding
    /// any `EXPLAIN` rendering. Without a `USING` clause the planner picks
    /// the cheapest applicable path.
    pub fn execute_sql(&self, sql: &str) -> Result<CountResult, EngineError> {
        Ok(self.run_sql(sql)?.result)
    }

    /// Executes a SQL query, returning the result and — when the query was
    /// prefixed with `EXPLAIN` — the rendered plan.
    pub fn run_sql(&self, sql: &str) -> Result<QueryOutput, EngineError> {
        self.run_query(&parse_query(sql)?)
    }

    /// Plans and executes a SQL query as if prefixed with `EXPLAIN`,
    /// returning the rendered plan (the query *does* execute, so the
    /// rendering includes per-node actual row counts).
    pub fn explain_sql(&self, sql: &str) -> Result<String, EngineError> {
        let mut q = parse_query(sql)?;
        q.explain = true;
        Ok(self.run_query(&q)?.explain.expect("explain was requested"))
    }

    /// Executes a parsed legacy single-predicate query through the planner.
    pub fn execute(&self, q: &CountQuery) -> Result<CountResult, EngineError> {
        let query = Query {
            verb: q.verb,
            table: q.table.clone(),
            filter: Expr::contains(q.column.clone(), q.elements.clone()),
            hint: q.mode,
            explain: false,
        };
        Ok(self.run_query(&query)?.result)
    }

    /// Plans and executes a parsed query.
    pub fn run_query(&self, q: &Query) -> Result<QueryOutput, EngineError> {
        let tables = self.tables.read();
        let entry =
            tables.get(&q.table).ok_or_else(|| EngineError::NoSuchTable(q.table.clone()))?;
        let ctx = entry.ctx(&q.table);
        let plan = build_plan(&ctx, q.verb, &q.filter, q.hint)?;
        let outcome = exec::run(&ctx, &plan, q.explain);

        let est_cost = plan
            .considered
            .iter()
            .find(|(m, _)| *m == plan.path)
            .and_then(|(_, c)| *c)
            .unwrap_or(plan.root.est.cost);
        let result = CountResult {
            count: outcome.value,
            exact: outcome.exact,
            mode: plan.path,
            verb: q.verb,
            est_rows: plan.root.est.rows,
            est_cost,
            pinned: plan.pinned,
        };

        if setlearn_obs::metrics_on() {
            let m = setlearn_obs::metrics();
            m.counter_with("setlearn_plan_chosen_total", &[("path", explain::mode_str(plan.path))])
                .inc();
            // Cost-error feedback only makes sense where both sides are row
            // counts: exact COUNT executions.
            if q.verb == Verb::Count && result.exact {
                let est = plan.root.est.rows.max(1.0);
                let actual = result.count.max(1.0);
                m.histogram("setlearn_plan_cost_error", QERROR_BOUNDS)
                    .observe((est / actual).max(actual / est));
            }
        }

        let explain_text = q.explain.then(|| explain::render(&plan, &outcome));
        Ok(QueryOutput { result, explain: explain_text })
    }

    /// Total inverted-index bytes across a table's columns (0 when none
    /// built).
    pub fn index_size_bytes(&self, table: &str) -> Result<usize, EngineError> {
        let tables = self.tables.read();
        let entry =
            tables.get(table).ok_or_else(|| EngineError::NoSuchTable(table.into()))?;
        Ok(entry
            .columns
            .iter()
            .filter_map(|(_, c)| c.index.as_ref())
            .map(InvertedIndex::size_bytes)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setlearn_data::{GeneratorConfig, SetCollection};

    fn engine_with(c: SetCollection) -> Engine {
        let e = Engine::new();
        e.create_table(SetTable::from_collection("t", c), "tags");
        e
    }

    #[test]
    fn seqscan_and_index_agree() {
        let c = GeneratorConfig::rw(800, 5).generate();
        let e = engine_with(c.clone());
        e.create_index("t").unwrap();
        for (_, set) in c.iter().take(30) {
            let q = format!(
                "SELECT COUNT(*) FROM t WHERE tags @> {{{}}}",
                set.iter()
                    .take(3)
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let seq = e.execute_sql(&format!("{q} USING seqscan")).unwrap();
            let idx = e.execute_sql(&format!("{q} USING index")).unwrap();
            assert_eq!(seq.count, idx.count);
            assert!(seq.exact && idx.exact);
            assert!(seq.pinned && idx.pinned);
            assert_eq!(seq.mode, ExecMode::SeqScan);
            assert_eq!(idx.mode, ExecMode::Index);
        }
    }

    #[test]
    fn default_plan_prefers_index_when_built() {
        let c = GeneratorConfig::sd(200, 2).generate();
        let e = engine_with(c);
        let r = e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1}").unwrap();
        assert_eq!(r.mode, ExecMode::SeqScan);
        assert!(!r.pinned);
        e.create_index("t").unwrap();
        let r = e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1}").unwrap();
        assert_eq!(r.mode, ExecMode::Index);
        assert!(!r.pinned);
    }

    #[test]
    fn estimator_udf_plugs_in() {
        let c = GeneratorConfig::sd(200, 2).generate();
        let e = engine_with(c);
        e.register_estimator_udf("t", Arc::new(|q| q.len() as f64 * 10.0)).unwrap();
        let r = e
            .execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1, 2} USING estimate")
            .unwrap();
        assert_eq!(r.count, 20.0);
        assert!(!r.exact);
    }

    #[test]
    fn unpinned_count_picks_the_learned_estimate_when_registered() {
        let c = GeneratorConfig::sd(500, 2).generate();
        let e = engine_with(c);
        e.create_index("t").unwrap();
        e.register_estimator_udf("t", Arc::new(|q| q.len() as f64 * 10.0)).unwrap();
        // The O(1) model forward undercuts both exact paths; the result is
        // flagged inexact so callers can tell.
        let r = e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1, 2}").unwrap();
        assert_eq!(r.mode, ExecMode::Estimate);
        assert!(!r.exact);
        assert!(!r.pinned);
        // EXISTS/FIRST never trade exactness without being pinned.
        let r = e.execute_sql("SELECT EXISTS FROM t WHERE tags @> {1, 2}").unwrap();
        assert_ne!(r.mode, ExecMode::Estimate);
        assert!(r.exact);
    }

    #[test]
    fn errors_are_specific() {
        let c = GeneratorConfig::sd(100, 2).generate();
        let e = engine_with(c);
        assert!(matches!(
            e.execute_sql("SELECT COUNT(*) FROM nope WHERE tags @> {1}"),
            Err(EngineError::NoSuchTable(_))
        ));
        assert!(matches!(
            e.execute_sql("SELECT COUNT(*) FROM t WHERE wrong @> {1}"),
            Err(EngineError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1} USING index"),
            Err(EngineError::NoIndex(_))
        ));
        assert!(matches!(
            e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1} USING estimate"),
            Err(EngineError::NoEstimator(_))
        ));
        assert!(matches!(
            e.execute_sql("SELECT BANANA"),
            Err(EngineError::Parse(_))
        ));
    }

    #[test]
    fn boolean_filters_agree_across_exact_paths() {
        let c = GeneratorConfig::rw(600, 21).generate();
        let e = engine_with(c.clone());
        e.create_index("t").unwrap();
        let queries = [
            "tags @> {1} AND tags @> {2}",
            "tags @> {1} OR tags @> {2}",
            "tags @> {1} AND NOT tags @> {2}",
            "NOT (tags @> {1} OR tags @> {2})",
            "(tags @> {1} OR tags @> {2}) AND tags @> {3}",
        ];
        for w in queries {
            for verb in ["COUNT(*)", "EXISTS", "FIRST"] {
                let seq = e
                    .execute_sql(&format!("SELECT {verb} FROM t WHERE {w} USING seqscan"))
                    .unwrap();
                let idx = e
                    .execute_sql(&format!("SELECT {verb} FROM t WHERE {w} USING index"))
                    .unwrap();
                assert_eq!(seq.count, idx.count, "verb {verb} filter {w}");
                assert!(seq.exact && idx.exact);
            }
        }
    }

    #[test]
    fn seqscan_filter_matches_oracle_on_boolean_queries() {
        let c = GeneratorConfig::rw(400, 33).generate();
        let e = engine_with(c.clone());
        // Oracle: count rows satisfying (⊇{1} ∧ ¬⊇{2}) ∨ ⊇{3} by hand.
        let want = c
            .iter()
            .filter(|(_, s)| {
                use setlearn_data::set::is_subset;
                (is_subset(&[1], s) && !is_subset(&[2], s)) || is_subset(&[3], s)
            })
            .count() as f64;
        let got = e
            .execute_sql(
                "SELECT COUNT(*) FROM t WHERE tags @> {1} AND NOT tags @> {2} OR tags @> {3}",
            )
            .unwrap();
        assert_eq!(got.count, want);
        assert!(got.exact);
    }

    #[test]
    fn planner_without_estimator_is_bit_identical_to_direct_execution() {
        let c = GeneratorConfig::rw(500, 8).generate();
        let e = engine_with(c.clone());
        // No estimator, no index: the planner's seq scan must equal the
        // collection oracle exactly.
        for (_, set) in c.iter().take(20) {
            let q: Vec<u32> = set.iter().take(2).copied().collect();
            let lit = q.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            let r = e
                .execute_sql(&format!("SELECT COUNT(*) FROM t WHERE tags @> {{{lit}}}"))
                .unwrap();
            assert_eq!(r.count, c.cardinality(&q) as f64);
            assert!(r.exact);
        }
        // With an index: still identical.
        e.create_index("t").unwrap();
        for (_, set) in c.iter().take(20) {
            let q: Vec<u32> = set.iter().take(2).copied().collect();
            let lit = q.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            let r = e
                .execute_sql(&format!("SELECT COUNT(*) FROM t WHERE tags @> {{{lit}}}"))
                .unwrap();
            assert_eq!(r.count, c.cardinality(&q) as f64);
        }
    }

    #[test]
    fn contradictions_fold_to_trivial_plans() {
        let c = GeneratorConfig::sd(100, 2).generate();
        let e = engine_with(c);
        let out = e
            .run_sql("EXPLAIN SELECT COUNT(*) FROM t WHERE tags @> {1} AND NOT tags @> {1}")
            .unwrap();
        assert_eq!(out.result.count, 0.0);
        assert!(out.result.exact);
        let text = out.explain.unwrap();
        assert!(text.contains("Trivial"), "explain:\n{text}");
    }

    #[test]
    fn multi_column_tables_answer_cross_column_queries() {
        let tags = SetCollection::new(vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![2]], 3);
        let mentions = SetCollection::new(vec![vec![5], vec![5, 6], vec![6], vec![5]], 8);
        let e = Engine::new();
        e.create_table(SetTable::from_collection("posts", tags), "tags");
        e.add_column("posts", "mentions", mentions).unwrap();
        // Rows matching tags ⊇ {2} are 1,2,3; mentions ⊇ {5} are 0,1,3.
        let r = e
            .execute_sql("SELECT COUNT(*) FROM posts WHERE tags @> {2} AND mentions @> {5}")
            .unwrap();
        assert_eq!(r.count, 2.0); // rows 1 and 3
        let r = e
            .execute_sql("SELECT COUNT(*) FROM posts WHERE tags @> {2} OR mentions @> {5}")
            .unwrap();
        assert_eq!(r.count, 4.0);
        // Index path agrees after building per-column indexes.
        e.create_index("posts").unwrap();
        let r = e
            .execute_sql(
                "SELECT COUNT(*) FROM posts WHERE tags @> {2} AND mentions @> {5} USING index",
            )
            .unwrap();
        assert_eq!(r.count, 2.0);
        // Row-count mismatch and duplicate columns are rejected.
        let short = SetCollection::new(vec![vec![0]], 2);
        assert!(matches!(
            e.add_column("posts", "links", short),
            Err(EngineError::Unsupported(_))
        ));
        assert!(matches!(
            e.add_column("posts", "tags", SetCollection::new(vec![vec![0]; 4], 2)),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn explain_orders_predicates_by_estimated_selectivity() {
        // Element 0 appears in every row, element 9 in exactly one: the
        // planner must probe {9} before {0} inside the AND.
        let mut rows: Vec<Vec<u32>> = (0..50).map(|i| vec![0, 1 + (i % 3)]).collect();
        rows[7] = vec![0, 9];
        let c = SetCollection::new(rows, 10);
        let e = engine_with(c);
        e.create_index("t").unwrap();
        // Same-column AND predicates merge into one probe, so ordering is
        // observable through OR (children sorted descending by estimated
        // rows): element 0 hits all 50 rows, element 1 about a third, and
        // element 9 exactly one, so the plan must list them in that order
        // even though the query text is reversed.
        let text = e
            .explain_sql("SELECT COUNT(*) FROM t WHERE tags @> {9} OR tags @> {1} OR tags @> {0}")
            .unwrap();
        let pos0 = text.find("{0}").expect("explain mentions {0}");
        let pos1 = text.find("{1}").expect("explain mentions {1}");
        let pos9 = text.find("{9}").expect("explain mentions {9}");
        assert!(
            pos0 < pos1 && pos1 < pos9,
            "OR children should be ordered by descending estimated rows:\n{text}"
        );
        assert!(text.starts_with("plan path="), "grep-able first line:\n{text}");
    }

    #[test]
    fn count_result_reports_executed_path_not_the_hint() {
        let c = GeneratorConfig::sd(150, 4).generate();
        let e = engine_with(c);
        let r = e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1}").unwrap();
        assert_eq!(r.mode, ExecMode::SeqScan);
        assert!(!r.pinned);
        assert!(r.est_cost > 0.0);
        e.create_index("t").unwrap();
        let pinned = e
            .execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1} USING seqscan")
            .unwrap();
        assert_eq!(pinned.mode, ExecMode::SeqScan);
        assert!(pinned.pinned);
        let chosen = e.execute_sql("SELECT COUNT(*) FROM t WHERE tags @> {1}").unwrap();
        assert_eq!(chosen.mode, ExecMode::Index);
        assert!(!chosen.pinned);
    }
}

#[cfg(test)]
mod verb_tests {
    use super::*;
    use crate::table::SetTable;
    use setlearn::hybrid::GuidedConfig;
    use setlearn::model::DeepSetsConfig;
    use setlearn::tasks::{BloomConfig, IndexConfig, LearnedBloom, LearnedSetIndex};
    use setlearn_data::{workload::membership_queries, GeneratorConfig};

    fn quick_guided() -> GuidedConfig {
        GuidedConfig {
            warmup_epochs: 8,
            rounds: 1,
            epochs_per_round: 4,
            percentile: 0.9,
            batch_size: 64,
            learning_rate: 5e-3,
            seed: 4,
        }
    }

    #[test]
    fn exists_verb_matches_oracle_on_exact_plans() {
        let c = GeneratorConfig::rw(400, 6).generate();
        let e = Engine::new();
        e.create_table(SetTable::from_collection("t", c.clone()), "tags");
        e.create_index("t").unwrap();
        for (_, set) in c.iter().take(20) {
            let lit = set[..2.min(set.len())]
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let seq = e
                .execute_sql(&format!("SELECT EXISTS FROM t WHERE tags @> {{{lit}}} USING seqscan"))
                .unwrap();
            let idx = e
                .execute_sql(&format!("SELECT EXISTS FROM t WHERE tags @> {{{lit}}} USING index"))
                .unwrap();
            assert_eq!(seq.count, 1.0);
            assert_eq!(idx.count, 1.0);
            assert_eq!(seq.verb, Verb::Exists);
        }
        // A guaranteed-absent combination.
        let absent = e
            .execute_sql("SELECT EXISTS FROM t WHERE tags @> {0, 1, 2, 3, 4, 5, 6, 7, 8}")
            .unwrap();
        assert_eq!(absent.count, 0.0);
    }

    #[test]
    fn first_verb_matches_oracle_on_exact_plans() {
        let c = GeneratorConfig::rw(300, 9).generate();
        let e = Engine::new();
        e.create_table(SetTable::from_collection("t", c.clone()), "tags");
        e.create_index("t").unwrap();
        for (_, set) in c.iter().take(20) {
            let lit = set[..2.min(set.len())]
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let q: Vec<u32> = set[..2.min(set.len())].to_vec();
            let want = c.first_position(&q).map_or(-1.0, |p| p as f64);
            let seq = e
                .execute_sql(&format!("SELECT FIRST FROM t WHERE tags @> {{{lit}}} USING seqscan"))
                .unwrap();
            let idx = e
                .execute_sql(&format!("SELECT FIRST FROM t WHERE tags @> {{{lit}}} USING index"))
                .unwrap();
            assert_eq!(seq.count, want);
            assert_eq!(idx.count, want);
        }
    }

    #[test]
    fn learned_structures_serve_exists_and_first_estimates() {
        let c = GeneratorConfig::rw(400, 11).generate();
        let e = Engine::new();
        e.create_table(SetTable::from_collection("t", c.clone()), "tags");

        let workload = membership_queries(&c, 300, 300, 4, 3);
        let mut bcfg = BloomConfig::new(DeepSetsConfig::clsm(c.num_elements()));
        bcfg.epochs = 15;
        let (filter, _) = LearnedBloom::build(&workload, &bcfg);
        e.register_membership("t", filter).unwrap();

        let mut icfg = IndexConfig::new(DeepSetsConfig::clsm(c.num_elements()));
        icfg.guided = quick_guided();
        icfg.max_subset_size = 2;
        let (index, _) = LearnedSetIndex::build(&c, &icfg);
        e.register_learned_index("t", index).unwrap();

        let set = c.get(42);
        let lit = set[..2].iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        let exists = e
            .execute_sql(&format!("SELECT EXISTS FROM t WHERE tags @> {{{lit}}} USING estimate"))
            .unwrap();
        assert_eq!(exists.count, 1.0, "trained positive must pass");
        assert!(!exists.exact);

        let first = e
            .execute_sql(&format!("SELECT FIRST FROM t WHERE tags @> {{{lit}}} USING estimate"))
            .unwrap();
        let q: Vec<u32> = set[..2].to_vec();
        assert_eq!(first.count, c.first_position(&q).unwrap() as f64);
    }

    #[test]
    fn missing_learned_structures_error_specifically() {
        let c = GeneratorConfig::sd(100, 2).generate();
        let e = Engine::new();
        e.create_table(SetTable::from_collection("t", c), "tags");
        assert!(matches!(
            e.execute_sql("SELECT EXISTS FROM t WHERE tags @> {1} USING estimate"),
            Err(EngineError::NoMembershipFilter(_))
        ));
        assert!(matches!(
            e.execute_sql("SELECT FIRST FROM t WHERE tags @> {1} USING estimate"),
            Err(EngineError::NoLearnedIndex(_))
        ));
    }
}
