//! The FaaS platform simulator.
//!
//! The components follow the SPEC-RG reference architecture
//! ([`crate::refarch`]): requests enter through a router, a scheduler
//! places them on warm instances of the target function or triggers a
//! cold start; idle instances expire after a keep-alive window. The
//! model itself is the per-function pool of [`crate::sharded`]; this
//! module runs it on plain invocation schedules and exposes the
//! metrics that the performance-challenges vision
//! \[102\] put on the agenda — cold-start fraction, latency percentiles,
//! and the pay-per-use cost that principle (2) of \[101\] demands.

use crate::sharded::{platform_sim, run_to_end, ShardedFaasResult};
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::manifest::config_digest;
use atlarge_telemetry::recorder::Recorder;
use std::collections::BTreeMap;

/// A registered function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Function name.
    pub name: String,
    /// Execution time on a warm instance, seconds.
    pub exec_time: f64,
    /// Memory footprint in GB (drives cost).
    pub memory_gb: f64,
}

/// Platform configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasConfig {
    /// Cold-start delay (instance provisioning + runtime boot), seconds.
    pub cold_start: f64,
    /// Idle keep-alive before an instance is reclaimed, seconds.
    pub keep_alive: f64,
    /// Router/scheduler overhead per invocation, seconds.
    pub router_overhead: f64,
    /// Price per GB-second of execution.
    pub price_gb_s: f64,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            cold_start: 0.5,
            keep_alive: 600.0,
            router_overhead: 0.002,
            price_gb_s: 0.000_016_7, // Lambda-like
        }
    }
}

/// Metrics of one platform run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasMetrics {
    /// Per-invocation end-to-end latencies, in invocation order.
    pub latencies: Vec<f64>,
    /// Fraction of invocations that paid a cold start.
    pub cold_fraction: f64,
    /// Total GB-s billed.
    pub gb_seconds: f64,
    /// Completed invocations.
    pub completed: usize,
}

impl FaasMetrics {
    /// Latency summary.
    pub fn latency_summary(&self) -> Summary {
        Summary::from_slice(&self.latencies)
    }

    /// Execution cost under the configured price.
    pub fn cost(&self, price_gb_s: f64) -> f64 {
        self.gb_seconds * price_gb_s
    }
}

/// Runs the platform over an invocation schedule `(time, function
/// index)`. Returns the metrics, with latencies in invocation order.
///
/// Each function is a one-stage workflow chain on its own
/// [`FunctionPool`](crate::sharded::FunctionPool), run on one shard and
/// one thread.
///
/// # Panics
///
/// Panics if `functions` is empty or holds more than
/// [`MAX_ENTITIES`](atlarge_des::shard::MAX_ENTITIES) functions, or if an
/// invocation names an unknown function.
pub fn run_platform(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    invocations: &[(f64, usize)],
    seed: u64,
) -> FaasMetrics {
    metrics(&run_pools(functions, config, invocations, seed, None))
}

/// Runs the platform with `recorder` attached as the simulation tracer,
/// then writes the platform metrics (`faas.invocations`,
/// `faas.cold_starts`, `faas.expirations`, the `faas.latency_s` tally)
/// from the results. Telemetry is observational: the returned metrics
/// are identical to an untraced [`run_platform`] of the same inputs and
/// seed — a property the test suite asserts.
pub fn run_platform_traced(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    invocations: &[(f64, usize)],
    seed: u64,
    recorder: &Recorder,
) -> FaasMetrics {
    recorder.set_run_info("serverless.faas", seed, config_digest(&config));
    let result = run_pools(functions, config, invocations, seed, Some(recorder));
    recorder.add("faas.invocations", result.invocations as u64);
    recorder.add("faas.cold_starts", result.cold as u64);
    recorder.add("faas.expirations", result.expirations as u64);
    for r in &result.requests {
        recorder.observe("faas.latency_s", r.latency);
    }
    metrics(&result)
}

/// Runs every invocation as a one-stage chain `[f]` on one shard.
fn run_pools(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    invocations: &[(f64, usize)],
    seed: u64,
    recorder: Option<&Recorder>,
) -> ShardedFaasResult {
    let chains = (0..functions.len()).map(|f| vec![f]).collect();
    // One shard has no cross-shard lookahead to reject, so the only
    // partition error left is a registry beyond the kernel's entity limit.
    let sim = platform_sim(functions, config, chains, invocations, seed, 1, recorder)
        .unwrap_or_else(|err| panic!("{err}"));
    run_to_end(sim.with_threads(1))
}

fn metrics(result: &ShardedFaasResult) -> FaasMetrics {
    let latencies: Vec<f64> = result.requests.iter().map(|r| r.latency).collect();
    FaasMetrics {
        completed: latencies.len(),
        latencies,
        cold_fraction: result.cold_fraction(),
        gb_seconds: result.gb_seconds,
    }
}

/// The serverless-vs-reserved comparison of the FaaS argument: a bursty,
/// mostly-idle workload on (a) the FaaS platform, billed per use, and
/// (b) an always-on reserved VM fleet sized for the peak. Returns
/// `(faas_cost, reserved_cost, faas_p50_latency)`.
pub fn faas_vs_reserved(
    invocations: &[(f64, usize)],
    spec: FunctionSpec,
    horizon: f64,
    vm_price_per_hour: f64,
    seed: u64,
) -> (f64, f64, f64) {
    let config = FaasConfig::default();
    let metrics = run_platform(vec![spec.clone()], config, invocations, seed);
    let faas_cost = metrics.cost(config.price_gb_s);
    // Reserved fleet: enough VMs for the peak concurrency, always on.
    let mut events: Vec<(f64, i64)> = Vec::new();
    for &(t, _) in invocations {
        events.push((t, 1));
        events.push((t + spec.exec_time, -1));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut level = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        level += d;
        peak = peak.max(level);
    }
    let reserved_cost = peak.max(1) as f64 * vm_price_per_hour * horizon / 3600.0;
    let p50 = metrics.latency_summary().median();
    (faas_cost, reserved_cost, p50)
}

/// Per-function invocation counts grouped from a schedule (registry
/// sanity-checks in tests).
pub fn invocation_histogram(invocations: &[(f64, usize)]) -> BTreeMap<usize, usize> {
    let mut h = BTreeMap::new();
    for &(_, f) in invocations {
        *h.entry(f).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, exec: f64) -> FunctionSpec {
        FunctionSpec {
            name: name.into(),
            exec_time: exec,
            memory_gb: 0.5,
        }
    }

    #[test]
    fn first_call_is_cold_second_is_warm() {
        let invs = vec![(0.0, 0), (10.0, 0)];
        let m = run_platform(vec![spec("f", 1.0)], FaasConfig::default(), &invs, 1);
        assert_eq!(m.completed, 2);
        assert_eq!(m.cold_fraction, 0.5);
        // First latency includes the cold start.
        assert!(m.latencies[0] > m.latencies[1]);
    }

    #[test]
    fn keep_alive_expiry_causes_recold() {
        let cfg = FaasConfig {
            keep_alive: 5.0,
            ..FaasConfig::default()
        };
        let invs = vec![(0.0, 0), (100.0, 0)];
        let m = run_platform(vec![spec("f", 1.0)], cfg, &invs, 1);
        assert_eq!(m.cold_fraction, 1.0, "expired instance must re-cold-start");
    }

    #[test]
    fn concurrent_burst_scales_instances() {
        // Each concurrent call needs its own instance, so all pay a cold
        // start.
        let invs: Vec<(f64, usize)> = (0..20).map(|_| (0.0, 0)).collect();
        let m = run_platform(vec![spec("f", 2.0)], FaasConfig::default(), &invs, 1);
        assert_eq!(m.cold_fraction, 1.0);
    }

    #[test]
    fn pay_per_use_tracks_execution_only() {
        let invs = vec![(0.0, 0), (1_000.0, 0)];
        let m = run_platform(vec![spec("f", 2.0)], FaasConfig::default(), &invs, 1);
        // 2 invocations × 2 s × 0.5 GB = 2 GB-s regardless of idle time.
        assert!((m.gb_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faas_cheaper_for_bursty_sparse_workloads() {
        // One call a minute for a day: a reserved VM idles ~97% of the
        // time.
        let invs: Vec<(f64, usize)> = (0..1440).map(|i| (i as f64 * 60.0, 0)).collect();
        let (faas, reserved, p50) = faas_vs_reserved(&invs, spec("f", 1.0), 86_400.0, 0.05, 3);
        assert!(
            faas < reserved / 10.0,
            "faas {faas} should be far below reserved {reserved}"
        );
        assert!(p50 < 2.0);
    }

    #[test]
    fn cold_starts_hurt_tail_latency() {
        // Sparse calls with a short keep-alive: every call cold.
        let cfg = FaasConfig {
            keep_alive: 1.0,
            cold_start: 1.5,
            ..FaasConfig::default()
        };
        let invs: Vec<(f64, usize)> = (0..50).map(|i| (i as f64 * 100.0, 0)).collect();
        let m = run_platform(vec![spec("f", 0.2)], cfg, &invs, 1);
        let s = m.latency_summary();
        assert!(
            s.median() > 1.5,
            "cold-start dominated median {}",
            s.median()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let invs: Vec<(f64, usize)> = (0..30).map(|i| (i as f64 * 7.0, 0)).collect();
        let cfg = FaasConfig {
            keep_alive: 20.0,
            ..FaasConfig::default()
        };
        let plain = run_platform(vec![spec("f", 1.0)], cfg, &invs, 11);
        let rec = Recorder::new();
        let traced = run_platform_traced(vec![spec("f", 1.0)], cfg, &invs, 11, &rec);
        assert_eq!(plain, traced, "telemetry must not perturb the run");
        assert_eq!(rec.counter("faas.invocations"), 30);
        assert_eq!(
            rec.counter("faas.cold_starts") as f64 / 30.0,
            traced.cold_fraction
        );
        assert_eq!(
            rec.tally("faas.latency_s")
                .expect("latencies recorded")
                .len(),
            traced.completed
        );
        assert_eq!(rec.dispatches("invoke"), 30);
        let m = rec.manifest();
        assert_eq!(m.model, "serverless.faas");
        assert!(m.events_dispatched >= 60, "invokes + finishes at least");
    }

    #[test]
    fn histogram_counts_by_function() {
        let invs = vec![(0.0, 0), (1.0, 1), (2.0, 0)];
        let h = invocation_histogram(&invs);
        assert_eq!(h[&0], 2);
        assert_eq!(h[&1], 1);
    }
}
