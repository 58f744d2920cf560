//! Golden pins for `run_platform` on three hand-built schedules.
//!
//! The expected values were recorded from the single-queue FaaS model
//! that `run_platform` ran on before the per-function pool became the
//! only serverless model. Counts are exact; latencies and GB-seconds
//! are compared within 1e-12 because the pool adds the router hop and
//! the execution time in two steps, which may round differently.

use atlarge_serverless::platform::{run_platform, FaasConfig, FunctionSpec};

fn spec(name: &str, exec_time: f64, memory_gb: f64) -> FunctionSpec {
    FunctionSpec {
        name: name.into(),
        exec_time,
        memory_gb,
    }
}

fn assert_golden(
    functions: Vec<FunctionSpec>,
    config: FaasConfig,
    invocations: &[(f64, usize)],
    cold: usize,
    gb_seconds: f64,
    sorted_latencies: &[f64],
) {
    let m = run_platform(functions, config, invocations, 1);
    assert_eq!(m.completed, sorted_latencies.len(), "completed");
    assert_eq!(
        m.cold_fraction,
        cold as f64 / invocations.len() as f64,
        "cold starts"
    );
    assert!(
        (m.gb_seconds - gb_seconds).abs() < 1e-12,
        "gb_seconds {} vs {gb_seconds}",
        m.gb_seconds
    );
    let mut got = m.latencies.clone();
    got.sort_by(f64::total_cmp);
    assert_eq!(got.len(), sorted_latencies.len());
    for (g, want) in got.iter().zip(sorted_latencies) {
        assert!((g - want).abs() < 1e-12, "latency {g} vs {want}");
    }
}

#[test]
fn two_functions_with_mixed_traffic() {
    let invocations = [
        (0.0, 0),
        (0.0, 1),
        (0.1, 0),
        (0.4, 0),
        (1.0, 1),
        (1.2, 1),
        (3.0, 0),
        (3.0, 1),
        (10.0, 0),
        (25.0, 1),
        (40.0, 0),
        (40.1, 0),
        (41.0, 1),
    ];
    assert_golden(
        vec![spec("resize", 0.25, 0.5), spec("encode", 1.5, 2.0)],
        FaasConfig {
            keep_alive: 20.0,
            ..FaasConfig::default()
        },
        &invocations,
        9,
        18.875,
        &[
            0.2519999999999998,
            0.25200000000000067,
            0.752,
            0.752,
            0.7520000000000001,
            0.7520000000000024,
            0.7520000000000024,
            1.5019999999999998,
            1.5020000000000024,
            2.001999999999999,
            2.002,
            2.002,
            2.002,
        ],
    );
}

#[test]
fn keep_alive_expiry_forces_a_second_cold_start() {
    assert_golden(
        vec![spec("f", 1.0, 0.5)],
        FaasConfig {
            keep_alive: 5.0,
            ..FaasConfig::default()
        },
        &[(0.0, 0), (3.0, 0), (20.0, 0), (22.0, 0)],
        2,
        2.0,
        &[
            1.001999999999999,
            1.0019999999999998,
            1.501999999999999,
            1.502,
        ],
    );
}

#[test]
fn burst_at_time_zero_cold_starts_every_call() {
    let burst: Vec<(f64, usize)> = (0..20).map(|_| (0.0, 0)).collect();
    assert_golden(
        vec![spec("f", 2.0, 0.5)],
        FaasConfig::default(),
        &burst,
        20,
        20.0,
        &[2.502; 20],
    );
}
