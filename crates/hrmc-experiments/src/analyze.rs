//! Self-analyzing runs: any experiment can capture its own JSONL event
//! stream in memory and hand it straight to the `hrmc-trace` analyzer,
//! so a sweep point that misbehaves can be diagnosed (loss attribution,
//! suppression efficiency, flow-control timeline, PROBE stalls) without
//! re-running it with a trace file and a separate tool. `hrmc-exp
//! timeline` captures its `--events` / `--analyze` stream through here.

use std::sync::{Arc, Mutex};

use hrmc_sim::{SimParams, SimReport, Simulation};
use hrmc_trace::Analysis;

/// `Write` handle into a shared in-memory buffer (the simulator takes
/// the writer by value; the caller keeps the other handle).
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run one simulation with its event stream captured in memory, and
/// return the ordinary report, the JSONL stream itself, and the full
/// causal-lifecycle analysis of the run.
pub fn run_analyzed(params: SimParams) -> (SimReport, String, Analysis) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(params);
    sim.set_event_log(Box::new(SharedBuf(buf.clone())));
    let report = sim.run();
    let log = String::from_utf8(std::mem::take(&mut *buf.lock().unwrap()))
        .expect("event log is UTF-8 JSONL");
    let analysis = hrmc_trace::analyze_str(&log).expect("own event log must parse");
    (report, log, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrmc_app::Scenario;

    #[test]
    fn lossy_run_self_analyzes() {
        let scenario = Scenario::lan(2, 10_000_000, 256 * 1024, 200_000)
            .with_loss(0.01)
            .with_seed(7);
        let (report, log, analysis) = run_analyzed(scenario.params());
        assert!(report.completed);
        assert!(!log.is_empty());
        // The analysis must agree with the report on first principles.
        assert_eq!(analysis.transfer.data_bytes, report.transfer_bytes);
        assert_eq!(
            analysis.transfer.retransmissions,
            report.sender.retransmissions
        );
        assert_eq!(analysis.members.len(), 2);
        assert!(
            analysis.lifecycle.complete,
            "a completed run must account for every sequence"
        );
    }
}
