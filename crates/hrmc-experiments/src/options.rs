//! Options shared by every experiment set.

use std::path::PathBuf;

/// Options common to every set (see the crate docs for their flags).
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Runs per cell (seeds 1..=repeats); paper averages 5.
    pub repeats: u64,
    /// Transfer-size divisor (quick mode sets 10).
    pub scale_down: u64,
    /// Directory for JSON output.
    pub out_dir: PathBuf,
    /// Receiver-count override where a set supports it.
    pub receivers: Option<usize>,
    /// Worker threads for the run pool (default: the machine's available
    /// parallelism; 1 forces sequential runs).
    pub jobs: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            repeats: 3,
            scale_down: 1,
            out_dir: PathBuf::from("results"),
            receivers: None,
            jobs: crate::sweep::default_jobs(),
        }
    }
}

impl ExpOptions {
    /// Apply the quick-mode divisor to a transfer size.
    pub fn transfer(&self, full: u64) -> u64 {
        (full / self.scale_down).max(100_000)
    }

    /// Write a JSON value under `out_dir/<name>.json`.
    pub fn save_json(&self, name: &str, value: &serde_json::Value) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
        std::fs::write(self.out_dir.join(format!("{name}.json")), text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = ExpOptions::default();
        assert_eq!(o.repeats, 3);
        assert_eq!(o.scale_down, 1);
        assert_eq!(o.transfer(40_000_000), 40_000_000);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn transfer_scaling_floors() {
        let mut o = ExpOptions::default();
        o.scale_down = 10;
        assert_eq!(o.transfer(40_000_000), 4_000_000);
        assert_eq!(o.transfer(200_000), 100_000); // floor
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn save_json_roundtrip() {
        let mut o = ExpOptions::default();
        o.out_dir = std::env::temp_dir().join("hrmc-exp-test");
        let v = serde_json::json!({"a": [1, 2, 3]});
        o.save_json("unit", &v).unwrap();
        let read: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(o.out_dir.join("unit.json")).unwrap())
                .unwrap();
        assert_eq!(read, v);
    }
}
