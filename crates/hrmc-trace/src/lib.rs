//! # hrmc-trace — causal packet-lifecycle analysis
//!
//! Offline diagnosis of H-RMC JSONL event traces. Feed it any stream
//! this workspace emits — a simulation event log, a live endpoint's
//! [`JsonlObserver`](hrmc_core::JsonlObserver) stream, or a
//! [`FlightRecorder`](hrmc_core::FlightRecorder) dump — and it
//! reconstructs each sequence number's causal lifecycle
//! (sent → lost/arrived → NAK with suppression attribution →
//! retransmit → delivered → released) and emits the diagnoses a
//! post-mortem needs:
//!
//! - per-member loss and recovery-latency attribution,
//! - NAK-suppression efficiency (how close feedback stayed to one NAK
//!   per loss),
//! - the sender's flow-control timeline (phase spans with the rate
//!   halvings that caused each downgrade),
//! - receive-window region occupancy per member,
//! - PROBE-stall attribution on buffer release,
//! - RTT-estimate convergence,
//! - and an end-state audit: every sequence released, or its absence
//!   attributable to an ejected/failed member.
//!
//! The crate is deliberately dependency-light (hrmc-core + the in-tree
//! serde shims) so `hrmc analyze` stays available everywhere the CLI
//! builds.
//!
//! ```no_run
//! let analysis = hrmc_trace::analyze_file(std::path::Path::new("trace.jsonl")).unwrap();
//! println!("{}", analysis.render_table());
//! ```

pub mod analysis;
pub mod parse;
pub mod report;

pub use analysis::{analyze_file, analyze_str};
pub use parse::{
    parse_file, parse_str, parse_telemetry_file, parse_telemetry_str, ParseStats, Source,
    TraceError, TraceEvent,
};
pub use report::{
    Analysis, FlowReport, LifecycleReport, MemberReport, PhaseSpan, RegionOccupancy, ReleaseReport,
    RttReport, SuppressionReport, TransferReport,
};
