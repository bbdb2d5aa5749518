//! Strategy specifications and their translation to client tasks.
//!
//! A [`UdfApplication`] names one client-site UDF call: which input columns
//! are its arguments and what the appended result column is called. The two
//! strategy specs bundle one or more applications (§5.1's *grouped* UDFs)
//! with the strategy's batching and pushdowns, and know how to derive the
//! operator's output schema and the [`ClientTask`] shipped to the client.
//! Each strategy ships one way: the semi-join numbers its distinct
//! arguments in a hash index and the client memoizes nothing; the
//! client-site join ships every record and the client memoizes its UDF
//! results.

use csq_common::{Field, Result, Schema};
use csq_expr::PhysExpr;

use csq_client::{ClientTask, TaskMode, UdfStep};

/// One client-site UDF call applied to an input relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfApplication {
    /// Registered UDF name.
    pub udf: String,
    /// Argument column ordinals in the *input* schema. A later application
    /// may also reference the result ordinals of earlier applications
    /// (input width + application index).
    pub arg_cols: Vec<usize>,
    /// Field describing the appended result column.
    pub result_field: Field,
}

impl UdfApplication {
    /// Convenience constructor.
    pub fn new(udf: &str, arg_cols: Vec<usize>, result_field: Field) -> UdfApplication {
        UdfApplication {
            udf: udf.to_string(),
            arg_cols,
            result_field,
        }
    }
}

/// Extended schema after appending every application's result column.
pub fn extended_schema(input: &Schema, udfs: &[UdfApplication]) -> Schema {
    let mut s = input.clone();
    for u in udfs {
        s = s.with_field(u.result_field.clone());
    }
    s
}

/// Semi-join strategy parameters (§2.3.1, §3.1.1–§3.1.2).
#[derive(Debug, Clone)]
pub struct SemiJoinSpec {
    /// The UDF applications shipped together (shared-argument grouping).
    pub udfs: Vec<UdfApplication>,
    /// Pipeline concurrency factor: max tuples between sender and receiver
    /// (at most ⌈`concurrency` / `batch_size`⌉ spans are unpaired at once).
    /// 1 ≈ tuple-at-a-time.
    pub concurrency: usize,
    /// Distinct argument tuples per network message.
    pub batch_size: usize,
}

impl SemiJoinSpec {
    /// A spec with the defaults used throughout the paper's experiments:
    /// one tuple per message.
    pub fn new(udfs: Vec<UdfApplication>, concurrency: usize) -> SemiJoinSpec {
        SemiJoinSpec {
            udfs,
            concurrency: concurrency.max(1),
            batch_size: 1,
        }
    }

    /// The union of all argument columns that live in the *input* (ordinals
    /// `< input_width`), sorted ascending — the projection the sender ships
    /// (the paper's "argument columns", including §5.1.2's argument superset
    /// for grouped semi-joins). References to earlier UDF results (ordinals
    /// `>= input_width`) are excluded: those never cross the downlink.
    pub fn arg_union(&self, input_width: usize) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .udfs
            .iter()
            .flat_map(|u| u.arg_cols.iter().copied())
            .filter(|&c| c < input_width)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Output schema: input columns followed by each result column.
    pub fn output_schema(&self, input: &Schema) -> Schema {
        extended_schema(input, &self.udfs)
    }

    /// Build the client task. The task operates on the *argument projection*
    /// of the input row, so application argument ordinals are remapped;
    /// references to earlier results are remapped into the projected space.
    /// Every shipped tuple is distinct, so the client memoizes nothing.
    pub fn client_task(&self, input: &Schema) -> Result<ClientTask> {
        let union = self.arg_union(input.len());
        let proj_width = union.len();
        let input_width = input.len();
        let pos_of = |c: usize| -> Option<u32> {
            if c < input_width {
                union.iter().position(|&u| u == c).map(|p| p as u32)
            } else {
                // Result of application (c - input_width) lives right after
                // the projected argument columns on the client.
                Some((proj_width + (c - input_width)) as u32)
            }
        };
        let mut steps = Vec::with_capacity(self.udfs.len());
        for u in &self.udfs {
            let arg_cols: Option<Vec<u32>> = u.arg_cols.iter().map(|&c| pos_of(c)).collect();
            let arg_cols = arg_cols.ok_or_else(|| {
                csq_common::CsqError::Plan(format!(
                    "semi-join: argument column missing from union for UDF '{}'",
                    u.udf
                ))
            })?;
            steps.push(UdfStep {
                udf: u.udf.clone(),
                arg_cols,
            });
        }
        let n = self.udfs.len();
        let task = ClientTask {
            mode: TaskMode::SemiJoin,
            input_width: proj_width as u32,
            steps,
            predicate: None,
            return_cols: Some((proj_width..proj_width + n).map(|c| c as u32).collect()),
            dedup_cache: false,
        };
        task.validate()?;
        Ok(task)
    }
}

/// Client-site join strategy parameters (§2.3.2, §3.1.3).
#[derive(Debug, Clone)]
pub struct ClientJoinSpec {
    /// The UDF applications executed at the client.
    pub udfs: Vec<UdfApplication>,
    /// Pushable predicate over the *extended* row (input ⊕ results),
    /// evaluated at the client before returning (§2.3.2).
    pub pushed_predicate: Option<PhysExpr>,
    /// Pushable projection: extended-row ordinals returned to the server.
    /// `None` returns everything.
    pub return_cols: Option<Vec<usize>>,
    /// Whole records per network message.
    pub batch_size: usize,
    /// Pipeline concurrency factor: at most ⌈`concurrency` / `batch_size`⌉
    /// messages are unanswered at once.
    pub concurrency: usize,
}

impl ClientJoinSpec {
    /// A spec with the paper's defaults: no pushdowns, one record per
    /// message, and 16 records unanswered at once.
    pub fn new(udfs: Vec<UdfApplication>) -> ClientJoinSpec {
        ClientJoinSpec {
            udfs,
            pushed_predicate: None,
            return_cols: None,
            batch_size: 1,
            concurrency: 16,
        }
    }

    /// Output schema: the returned projection of the extended schema.
    pub fn output_schema(&self, input: &Schema) -> Schema {
        let ext = extended_schema(input, &self.udfs);
        match &self.return_cols {
            Some(cols) => ext.project(cols),
            None => ext,
        }
    }

    /// Build the client task (full rows in, filtered/projected rows out).
    /// Duplicate records are shipped, so the client memoizes its UDF results.
    pub fn client_task(&self, input: &Schema) -> Result<ClientTask> {
        let steps = self
            .udfs
            .iter()
            .map(|u| UdfStep {
                udf: u.udf.clone(),
                arg_cols: u.arg_cols.iter().map(|&c| c as u32).collect(),
            })
            .collect();
        let task = ClientTask {
            mode: TaskMode::ClientJoin,
            input_width: input.len() as u32,
            steps,
            predicate: self.pushed_predicate.clone(),
            return_cols: self
                .return_cols
                .as_ref()
                .map(|cols| cols.iter().map(|&c| c as u32).collect()),
            dedup_cache: true,
        };
        task.validate()?;
        Ok(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::DataType;

    fn input() -> Schema {
        Schema::new(vec![
            Field::qualified("S", "Name", DataType::Str),
            Field::qualified("S", "Quotes", DataType::Blob),
            Field::qualified("S", "Futures", DataType::Blob),
        ])
    }

    fn analysis() -> UdfApplication {
        UdfApplication::new(
            "ClientAnalysis",
            vec![1],
            Field::new("ca_result", DataType::Int),
        )
    }

    fn volatility() -> UdfApplication {
        UdfApplication::new(
            "Volatility",
            vec![1, 2],
            Field::new("vol_result", DataType::Float),
        )
    }

    #[test]
    fn semijoin_arg_union_and_schema() {
        let spec = SemiJoinSpec::new(vec![analysis(), volatility()], 5);
        assert_eq!(spec.arg_union(input().len()), vec![1, 2]);
        let out = spec.output_schema(&input());
        assert_eq!(out.len(), 5);
        assert_eq!(out.field(3).name, "ca_result");
        assert_eq!(out.field(4).name, "vol_result");
    }

    #[test]
    fn semijoin_task_remaps_into_projection() {
        let spec = SemiJoinSpec::new(vec![analysis(), volatility()], 5);
        let task = spec.client_task(&input()).unwrap();
        assert_eq!(task.input_width, 2); // Quotes, Futures
        assert_eq!(task.steps[0].arg_cols, vec![0]); // Quotes → slot 0
        assert_eq!(task.steps[1].arg_cols, vec![0, 1]);
        assert_eq!(task.return_cols, Some(vec![2, 3]));
        assert_eq!(task.mode, TaskMode::SemiJoin);
    }

    #[test]
    fn semijoin_task_allows_result_dependencies() {
        // Second UDF consumes the first one's result (§5.1.2 grouping:
        // "The result of one client-site UDF is input to another").
        let dependent = UdfApplication::new(
            "Refine",
            vec![3], // = input_width(3) + 0 → result of application 0
            Field::new("refined", DataType::Int),
        );
        let spec = SemiJoinSpec::new(vec![analysis(), dependent], 4);
        let task = spec.client_task(&input()).unwrap();
        // Union is just Quotes; results start at slot 1.
        assert_eq!(task.input_width, 1);
        assert_eq!(task.steps[1].arg_cols, vec![1]);
    }

    #[test]
    fn client_join_schema_with_projection() {
        let mut spec = ClientJoinSpec::new(vec![analysis()]);
        spec.return_cols = Some(vec![0, 3]); // Name + result
        let out = spec.output_schema(&input());
        assert_eq!(out.len(), 2);
        assert_eq!(out.field(0).name, "Name");
        assert_eq!(out.field(1).name, "ca_result");
        let task = spec.client_task(&input()).unwrap();
        assert_eq!(task.input_width, 3);
        assert_eq!(task.return_cols, Some(vec![0, 3]));
        assert_eq!(task.mode, TaskMode::ClientJoin);
    }

    #[test]
    fn concurrency_clamped_to_one() {
        let spec = SemiJoinSpec::new(vec![analysis()], 0);
        assert_eq!(spec.concurrency, 1);
    }
}
