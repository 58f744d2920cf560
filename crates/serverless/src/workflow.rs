//! A Fission-Workflows-style serverless workflow engine.
//!
//! The AtLarge–Platform9 collaboration "co-created the Fission Workflows
//! system, which acts as a workflow execution engine in the hierarchical
//! Kubernetes-Fission ecosystem". Here composite functions are an
//! expression tree — sequence, parallel, choice, and atomic task — and
//! the engine evaluates them against a FaaS platform model, paying
//! orchestration overhead per step. The experiments compare the engine's
//! makespan against the workflow's intrinsic critical path.

use crate::platform::{FaasConfig, FunctionSpec};

/// A composite function.
#[derive(Debug, Clone, PartialEq)]
pub enum Composite {
    /// Invoke one function by registry index.
    Task(usize),
    /// Run parts one after another.
    Sequence(Vec<Composite>),
    /// Run branches concurrently; join on the slowest.
    Parallel(Vec<Composite>),
    /// Evaluate the condition function, then run one branch by its
    /// (deterministic) outcome.
    Choice {
        /// Condition function index.
        condition: usize,
        /// Branch when the condition selects true (even hash).
        then_branch: Box<Composite>,
        /// Branch otherwise.
        else_branch: Box<Composite>,
    },
}

impl Composite {
    /// Number of atomic tasks (including conditions) in the expression.
    pub fn task_count(&self) -> usize {
        match self {
            Composite::Task(_) => 1,
            Composite::Sequence(parts) | Composite::Parallel(parts) => {
                parts.iter().map(Composite::task_count).sum()
            }
            Composite::Choice {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.task_count() + else_branch.task_count(),
        }
    }
}

/// The engine's execution report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowRun {
    /// End-to-end makespan, seconds.
    pub makespan: f64,
    /// Functions actually invoked.
    pub invocations: usize,
    /// Seconds spent in orchestration overhead (routing + engine steps).
    pub overhead: f64,
}

/// The workflow engine: evaluates composites over a warm platform model.
///
/// Warm-instance execution is assumed (the engine keeps its functions
/// hot); each step pays the router overhead plus the engine's own
/// `step_overhead`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowEngine {
    registry: Vec<FunctionSpec>,
    config: FaasConfig,
    /// Engine bookkeeping cost per orchestration step, seconds.
    pub step_overhead: f64,
}

impl WorkflowEngine {
    /// Creates an engine over a function registry.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty.
    pub fn new(registry: Vec<FunctionSpec>, config: FaasConfig) -> Self {
        assert!(!registry.is_empty(), "registry must not be empty");
        WorkflowEngine {
            registry,
            config,
            step_overhead: 0.005,
        }
    }

    fn invoke_time(&self, func: usize) -> f64 {
        self.config.router_overhead + self.step_overhead + self.registry[func].exec_time
    }

    /// Executes a composite; deterministic (choices hash the condition
    /// function's index with `seed`).
    pub fn execute(&self, wf: &Composite, seed: u64) -> WorkflowRun {
        let (time, invocations, overhead) = self.eval(wf, seed);
        WorkflowRun {
            makespan: time,
            invocations,
            overhead,
        }
    }

    fn eval(&self, wf: &Composite, seed: u64) -> (f64, usize, f64) {
        let per_step = self.config.router_overhead + self.step_overhead;
        match wf {
            Composite::Task(f) => (self.invoke_time(*f), 1, per_step),
            Composite::Sequence(parts) => {
                let mut t = 0.0;
                let mut n = 0;
                let mut o = 0.0;
                for p in parts {
                    let (pt, pn, po) = self.eval(p, seed);
                    t += pt;
                    n += pn;
                    o += po;
                }
                (t, n, o)
            }
            Composite::Parallel(parts) => {
                let mut t: f64 = 0.0;
                let mut n = 0;
                let mut o = 0.0;
                for p in parts {
                    let (pt, pn, po) = self.eval(p, seed);
                    t = t.max(pt);
                    n += pn;
                    o += po;
                }
                (t, n, o)
            }
            Composite::Choice {
                condition,
                then_branch,
                else_branch,
            } => {
                let cond_t = self.invoke_time(*condition);
                let pick_then = (seed ^ *condition as u64).count_ones().is_multiple_of(2);
                let (bt, bn, bo) = if pick_then {
                    self.eval(then_branch, seed)
                } else {
                    self.eval(else_branch, seed)
                };
                (cond_t + bt, 1 + bn, per_step + bo)
            }
        }
    }

    /// Intrinsic critical path: the same evaluation with zero overhead —
    /// what a perfect orchestrator would achieve.
    pub fn critical_path(&self, wf: &Composite, seed: u64) -> f64 {
        let zero = WorkflowEngine {
            registry: self.registry.clone(),
            config: FaasConfig {
                router_overhead: 0.0,
                ..self.config
            },
            step_overhead: 0.0,
        };
        zero.execute(wf, seed).makespan
    }
}

/// The canonical demo workflow: prepare, fan out map tasks, reduce.
pub fn map_reduce_workflow(mappers: usize) -> Composite {
    Composite::Sequence(vec![
        Composite::Task(0),
        Composite::Parallel((0..mappers).map(|_| Composite::Task(1)).collect()),
        Composite::Task(2),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Vec<FunctionSpec> {
        vec![
            FunctionSpec {
                name: "prepare".into(),
                exec_time: 0.1,
                memory_gb: 0.25,
            },
            FunctionSpec {
                name: "map".into(),
                exec_time: 1.0,
                memory_gb: 0.5,
            },
            FunctionSpec {
                name: "reduce".into(),
                exec_time: 0.3,
                memory_gb: 0.5,
            },
        ]
    }

    fn engine() -> WorkflowEngine {
        WorkflowEngine::new(registry(), FaasConfig::default())
    }

    #[test]
    fn parallel_fans_out_in_constant_depth() {
        let e = engine();
        let seq_like = Composite::Sequence((0..8).map(|_| Composite::Task(1)).collect());
        let par = Composite::Parallel((0..8).map(|_| Composite::Task(1)).collect());
        let s = e.execute(&seq_like, 1);
        let p = e.execute(&par, 1);
        assert_eq!(s.invocations, 8);
        assert_eq!(p.invocations, 8);
        assert!(
            s.makespan > 7.0 * p.makespan / 2.0,
            "seq {} par {}",
            s.makespan,
            p.makespan
        );
    }

    #[test]
    fn map_reduce_makespan_close_to_critical_path() {
        let e = engine();
        let wf = map_reduce_workflow(16);
        let run = e.execute(&wf, 2);
        let cp = e.critical_path(&wf, 2);
        assert!(run.makespan >= cp);
        // Engine overhead within 10% of the intrinsic time — the
        // "production-ready workflow engine" bar.
        assert!(
            run.makespan < cp * 1.1,
            "makespan {} vs critical path {cp}",
            run.makespan
        );
        assert_eq!(run.invocations, 18);
    }

    #[test]
    fn choice_executes_one_branch() {
        let wf = Composite::Choice {
            condition: 0,
            then_branch: Box::new(Composite::Task(1)),
            else_branch: Box::new(Composite::Sequence(vec![
                Composite::Task(1),
                Composite::Task(1),
            ])),
        };
        let e = engine();
        let r = e.execute(&wf, 4);
        assert!(r.invocations == 2 || r.invocations == 3);
        assert_eq!(wf.task_count(), 4);
    }

    #[test]
    fn overhead_grows_with_task_count() {
        let e = engine();
        let small = e.execute(&map_reduce_workflow(2), 1);
        let large = e.execute(&map_reduce_workflow(32), 1);
        assert!(large.overhead > small.overhead);
    }

    #[test]
    fn deterministic() {
        let e = engine();
        let wf = map_reduce_workflow(4);
        assert_eq!(e.execute(&wf, 9), e.execute(&wf, 9));
    }
}
