//! Function pools on the parallel-in-time kernel: the one FaaS model.
//!
//! The platform decomposes the way real FaaS deployments shard it: each
//! *function's pool* (warm instances and billing meter) is an
//! independent [`LogicalProcess`], and workflow chains hop between
//! pools through the router. Every hop pays the router overhead in
//! transit, and that overhead is exactly the kernel lookahead: no
//! function can influence another's pool sooner than
//! `router_overhead`, so shards simulate independently between router
//! hops and the merged run is byte-identical at any shard count.
//!
//! An invocation pays `router_overhead` (in transit to the pool) plus
//! `cold_start` when no warm instance is idle, then `exec_time`; idle
//! instances are reclaimed `keep_alive` seconds after going idle.
//! [`run_platform`](crate::platform::run_platform) runs plain
//! invocation schedules as one-stage chains on one shard.

use crate::platform::{FaasConfig, FunctionSpec};
use atlarge_des::shard::{
    LogicalProcess, PartitionError, ShardCtx, ShardedSimulation, StaticPartition,
};
use atlarge_telemetry::recorder::Recorder;
use atlarge_telemetry::tracer::EventLabel;
use std::sync::Arc;

/// Events of one function pool.
#[derive(Debug, Clone)]
pub enum PoolEvent {
    /// A request arrives at this function's pool (router overhead
    /// already paid in transit).
    Invoke {
        /// Unique request id, assigned in arrival order.
        req: u64,
        /// Workflow chain the request follows.
        chain: u32,
        /// Stage of the chain this invocation executes.
        stage: u32,
        /// When the request originally arrived at the router.
        enqueued: f64,
        /// Cold starts paid by the request so far.
        cold_hops: u32,
    },
    /// An instance finishes executing.
    Finish {
        /// Request id.
        req: u64,
        /// Workflow chain.
        chain: u32,
        /// Completed stage.
        stage: u32,
        /// Original arrival time.
        enqueued: f64,
        /// Cold starts paid so far (including this stage's, if any).
        cold_hops: u32,
    },
    /// A keep-alive timer fires for an idle instance.
    Expire {
        /// When the instance went idle.
        idle_since: f64,
    },
}

impl EventLabel for PoolEvent {
    fn label(&self) -> &'static str {
        match self {
            PoolEvent::Invoke { .. } => "invoke",
            PoolEvent::Finish { .. } => "finish",
            PoolEvent::Expire { .. } => "expire",
        }
    }
}

/// End-to-end outcome of one workflow request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id (arrival order).
    pub req: u64,
    /// Arrival time at the router.
    pub enqueued: f64,
    /// End-to-end latency through the whole chain.
    pub latency: f64,
    /// Cold starts the request paid across its stages.
    pub cold_hops: u32,
}

/// Result of a sharded platform run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedFaasResult {
    /// Completed requests, sorted by request id.
    pub requests: Vec<RequestOutcome>,
    /// Total function invocations executed (stages, not requests).
    pub invocations: usize,
    /// Invocations that paid a cold start.
    pub cold: usize,
    /// Total GB-seconds billed.
    pub gb_seconds: f64,
    /// Idle instances reclaimed after their keep-alive.
    pub expirations: usize,
}

impl ShardedFaasResult {
    /// Fraction of invocations that paid a cold start.
    pub fn cold_fraction(&self) -> f64 {
        self.cold as f64 / self.invocations.max(1) as f64
    }

    /// Mean end-to-end request latency.
    pub fn mean_latency(&self) -> f64 {
        self.requests.iter().map(|r| r.latency).sum::<f64>() / self.requests.len().max(1) as f64
    }

    /// End-to-end latencies sorted ascending (for percentile reads and
    /// order-insensitive comparisons).
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.requests.iter().map(|r| r.latency).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// One function's pool: its warm instances and billing meter, plus the
/// routing table of the workflow chains.
pub struct FunctionPool {
    spec: FunctionSpec,
    config: FaasConfig,
    chains: Arc<Vec<Vec<usize>>>,
    /// Warm idle instances, keyed by when they went idle.
    idle: Vec<f64>,
    /// Requests whose *final* stage ran here.
    completed: Vec<RequestOutcome>,
    invocations: usize,
    cold: usize,
    gb_seconds: f64,
    expirations: usize,
}

impl FunctionPool {
    fn new(spec: FunctionSpec, config: FaasConfig, chains: Arc<Vec<Vec<usize>>>) -> Self {
        FunctionPool {
            spec,
            config,
            chains,
            idle: Vec::new(),
            completed: Vec::new(),
            invocations: 0,
            cold: 0,
            gb_seconds: 0.0,
            expirations: 0,
        }
    }
}

impl LogicalProcess for FunctionPool {
    type Event = PoolEvent;

    fn handle(&mut self, ev: PoolEvent, ctx: &mut ShardCtx<'_, PoolEvent>) {
        match ev {
            PoolEvent::Invoke {
                req,
                chain,
                stage,
                enqueued,
                cold_hops,
            } => {
                self.invocations += 1;
                let warm = self.idle.pop().is_some();
                let mut delay = self.spec.exec_time;
                let mut cold_hops = cold_hops;
                if !warm {
                    self.cold += 1;
                    cold_hops += 1;
                    delay += self.config.cold_start;
                }
                self.gb_seconds += self.spec.exec_time * self.spec.memory_gb;
                ctx.schedule_in(
                    delay,
                    PoolEvent::Finish {
                        req,
                        chain,
                        stage,
                        enqueued,
                        cold_hops,
                    },
                );
            }
            PoolEvent::Finish {
                req,
                chain,
                stage,
                enqueued,
                cold_hops,
            } => {
                self.idle.push(ctx.now());
                ctx.schedule_in(
                    self.config.keep_alive,
                    PoolEvent::Expire {
                        idle_since: ctx.now(),
                    },
                );
                let next = self
                    .chains
                    .get(chain as usize)
                    .and_then(|c| c.get(stage as usize + 1))
                    .copied();
                match next {
                    Some(func) => {
                        // The next router hop: its overhead is the
                        // lookahead the partition declared, so this send
                        // is legal from any shard to any other.
                        ctx.send_in(
                            self.config.router_overhead,
                            func as u32,
                            PoolEvent::Invoke {
                                req,
                                chain,
                                stage: stage + 1,
                                enqueued,
                                cold_hops,
                            },
                        );
                    }
                    None => self.completed.push(RequestOutcome {
                        req,
                        enqueued,
                        latency: ctx.now() - enqueued,
                        cold_hops,
                    }),
                }
            }
            PoolEvent::Expire { idle_since } => {
                // Reclaim the instance only if it is still idle since then.
                if let Some(pos) = self.idle.iter().position(|&t| t == idle_since) {
                    self.idle.remove(pos);
                    self.expirations += 1;
                }
            }
        }
    }
}

/// Runs workflow chains over sharded function pools.
///
/// `chains` lists each workflow as a sequence of function indices;
/// `requests` lists `(arrival_time, chain_index)` pairs. Functions are
/// distributed over `shards` shards block-wise with the router overhead
/// as lookahead (it must be strictly positive). The result is
/// byte-identical for every `shards`/`threads` combination.
///
/// # Panics
///
/// Panics if no function is registered, a chain is empty or names an
/// unknown function, or a request names an unknown chain.
pub fn run_sharded_platform(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    chains: Vec<Vec<usize>>,
    requests: &[(f64, usize)],
    seed: u64,
    shards: usize,
    threads: usize,
) -> Result<ShardedFaasResult, PartitionError> {
    let sim = platform_sim(functions, config, chains, requests, seed, shards, None)?;
    Ok(run_to_end(sim.with_threads(threads)))
}

/// Runs `sim` until its queues drain and merges the pools' outcomes.
pub(crate) fn run_to_end(
    mut sim: ShardedSimulation<StaticPartition, FunctionPool>,
) -> ShardedFaasResult {
    sim.run();
    let mut requests = Vec::new();
    let mut invocations = 0;
    let mut cold = 0;
    let mut gb_seconds = 0.0;
    let mut expirations = 0;
    for pool in sim.into_lps() {
        requests.extend(pool.completed);
        invocations += pool.invocations;
        cold += pool.cold;
        gb_seconds += pool.gb_seconds;
        expirations += pool.expirations;
    }
    requests.sort_by_key(|r| r.req);
    ShardedFaasResult {
        requests,
        invocations,
        cold,
        gb_seconds,
        expirations,
    }
}

/// The pools of [`run_sharded_platform`] with `recorder` (if any)
/// attached as the kernel tracer and every request's entry hop
/// scheduled, ready to run.
pub(crate) fn platform_sim(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    chains: Vec<Vec<usize>>,
    requests: &[(f64, usize)],
    seed: u64,
    shards: usize,
    recorder: Option<&Recorder>,
) -> Result<ShardedSimulation<StaticPartition, FunctionPool>, PartitionError> {
    assert!(!functions.is_empty(), "register at least one function");
    for chain in &chains {
        assert!(!chain.is_empty(), "workflow chains must have a stage");
        for &f in chain {
            assert!(f < functions.len(), "chain names unknown function {f}");
        }
    }
    for &(_, chain) in requests {
        assert!(chain < chains.len(), "request names unknown chain {chain}");
    }
    let part = StaticPartition::block(functions.len(), shards, config.router_overhead);
    let chains = Arc::new(chains);
    let lps: Vec<FunctionPool> = functions
        .into_iter()
        .map(|spec| FunctionPool::new(spec, config, Arc::clone(&chains)))
        .collect();
    let mut sim: ShardedSimulation<_, _> = ShardedSimulation::new(part, lps, seed)?;
    if let Some(rec) = recorder {
        sim = sim.with_tracer(rec.clone());
    }
    for (req, &(t, chain)) in requests.iter().enumerate() {
        // The entry router hop: requests reach the first pool one
        // router overhead after arriving at the router.
        sim.schedule(
            t + config.router_overhead,
            chains[chain][0] as u32,
            PoolEvent::Invoke {
                req: req as u64,
                chain: chain as u32,
                stage: 0,
                enqueued: t,
                cold_hops: 0,
            },
        );
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<FunctionSpec> {
        (0..n)
            .map(|i| FunctionSpec {
                name: format!("f{i}"),
                exec_time: 0.05 + 0.01 * i as f64,
                memory_gb: 0.128,
            })
            .collect()
    }

    #[test]
    fn results_are_identical_at_every_shard_and_thread_count() {
        let chains = vec![vec![0, 1, 2], vec![3, 4, 5], vec![2, 4], vec![5]];
        let requests: Vec<(f64, usize)> = (0..40).map(|i| (i as f64 * 0.3, i % 4)).collect();
        let reference = run_sharded_platform(
            specs(6),
            FaasConfig::default(),
            chains.clone(),
            &requests,
            5,
            1,
            1,
        )
        .expect("valid run");
        assert_eq!(reference.requests.len(), 40);
        for shards in [2usize, 3, 6] {
            for threads in [1usize, 2] {
                let got = run_sharded_platform(
                    specs(6),
                    FaasConfig::default(),
                    chains.clone(),
                    &requests,
                    5,
                    shards,
                    threads,
                )
                .expect("valid run");
                assert_eq!(
                    got, reference,
                    "platform diverged at {shards} shards / {threads} threads"
                );
            }
        }
    }

    #[test]
    fn inline_and_threaded_drivers_run_the_same_rounds() {
        let chains = vec![vec![0, 1, 2], vec![3, 4, 5], vec![2, 4], vec![5]];
        let requests: Vec<(f64, usize)> = (0..200).map(|i| (i as f64 * 0.3, i % 4)).collect();
        for shards in [2usize, 3, 6] {
            let rounds = |threads| {
                let mut sim = platform_sim(
                    specs(6),
                    FaasConfig::default(),
                    chains.clone(),
                    &requests,
                    5,
                    shards,
                    None,
                )
                .expect("valid run")
                .with_threads(threads);
                sim.run();
                sim.rounds()
            };
            let inline = rounds(1);
            assert!(inline > 1, "chains cross shards at {shards} shards");
            assert_eq!(rounds(2), inline, "rounds diverged at {shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "request names unknown chain 2")]
    fn request_for_an_unknown_chain_is_rejected() {
        let chains = vec![vec![0], vec![1]];
        let requests = [(0.0, 0), (1.0, 2)];
        let _ = run_sharded_platform(specs(2), FaasConfig::default(), chains, &requests, 1, 1, 1);
    }

    #[test]
    fn chain_latency_adds_router_hops_and_cold_starts() {
        let config = FaasConfig::default();
        let result = run_sharded_platform(specs(2), config, vec![vec![0, 1]], &[(0.0, 0)], 1, 2, 2)
            .expect("valid run");
        assert_eq!(result.requests.len(), 1);
        let r = result.requests[0];
        assert_eq!(r.cold_hops, 2, "both stages start cold");
        let expected = 2.0 * config.router_overhead + 2.0 * config.cold_start + 0.05 + 0.06;
        assert!(
            (r.latency - expected).abs() < 1e-9,
            "latency {} expected {expected}",
            r.latency
        );
    }

    #[test]
    fn warm_instances_are_reused_within_keep_alive() {
        let result = run_sharded_platform(
            specs(2),
            FaasConfig::default(),
            vec![vec![0, 1]],
            &[(0.0, 0), (10.0, 0)],
            1,
            2,
            1,
        )
        .expect("valid run");
        assert_eq!(result.invocations, 4);
        assert_eq!(result.cold, 2, "second request must run warm end to end");
        assert_eq!(result.requests[1].cold_hops, 0);
        assert!(result.requests[1].latency < result.requests[0].latency);
    }

    #[test]
    fn zero_router_overhead_is_rejected() {
        let config = FaasConfig {
            router_overhead: 0.0,
            ..FaasConfig::default()
        };
        let err = run_sharded_platform(specs(2), config, vec![vec![0]], &[], 1, 2, 1).err();
        assert!(
            matches!(err, Some(PartitionError::BadLookahead { .. })),
            "expected BadLookahead, got {err:?}"
        );
    }
}
