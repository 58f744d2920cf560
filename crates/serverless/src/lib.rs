//! `atlarge-serverless` — serverless / FaaS reproduction (§6.4, Table 7).
//!
//! The serverless line combined community efforts (terminology \[101\],
//! performance challenges \[102\], the "Serverless is More" evolution
//! analysis \[60\], the SPEC-RG FaaS reference architecture \[103\]) with
//! systems building (Fission Workflows, the Pocket ephemeral store
//! \[96\], \[104\]). The reproduction covers each thread:
//!
//! - [`refarch`] — the SPEC-RG FaaS reference architecture as data, with
//!   platform mappings and the three serverless principles of \[101\].
//! - [`sharded`] — the one FaaS model: per-function instance pools with
//!   cold starts, pay-per-use billing and keep-alive expiry, linked by
//!   router hops into workflow chains, on the parallel-in-time kernel.
//! - [`platform`] — the function registry and platform configuration;
//!   runs invocation schedules on the pools (one-stage chains, one
//!   shard) for latency/cost metrics and the serverless-vs-reserved
//!   comparison.
//! - [`workflow`] — a Fission-Workflows-style engine evaluating composite
//!   functions (sequence / parallel / choice) with per-step overhead.
//! - [`storage`] — a Pocket-style tiered ephemeral store with
//!   right-sizing.
//! - [`evolution`] — the \[60\] timeline argument: serverless'
//!   prerequisite technologies and why "its emergence could not have
//!   happened ten years ago".
//! - [`experiments`] — the Table 7 row-by-row reproduction.

pub mod evolution;
pub mod experiments;
pub mod platform;
pub mod refarch;
pub mod sharded;
pub mod storage;
pub mod workflow;

pub use platform::FaasConfig;
