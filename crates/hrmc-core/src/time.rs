//! Time representation shared by the engines and their drivers.
//!
//! The kernel driver's timers run at jiffy granularity (10 ms on the
//! paper's Linux 2.1.103 kernel); the simulator needs microsecond
//! resolution for serialization and host-processing delays. We therefore
//! express all protocol time as `u64` microseconds and provide jiffy
//! conversions for the timer logic.

/// Absolute or relative time in microseconds.
pub type Micros = u64;

/// One Linux jiffy on the paper's kernel: 10 ms (paper §4.2: "The
/// Transmitter (transmit_timer) runs every jiffy (10 msec)").
pub const JIFFY_US: Micros = 10_000;

/// One millisecond in microseconds.
pub const MS: Micros = 1_000;

/// One second in microseconds.
pub const SEC: Micros = 1_000_000;

/// Convert a jiffy count to microseconds.
#[inline]
pub const fn jiffies(n: u64) -> Micros {
    n * JIFFY_US
}

/// Multiply a duration by a floating scale factor, saturating at u64::MAX.
/// Used for RTT-multiple timeouts (MINBUF × RTT, WARNBUF × RTT, ...).
#[inline]
pub fn scale(us: Micros, factor: f64) -> Micros {
    let v = us as f64 * factor;
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jiffy_constants() {
        assert_eq!(JIFFY_US, 10_000);
        assert_eq!(jiffies(50), 500_000); // initial update period: 0.5 s
        assert_eq!(jiffies(200), 2 * SEC); // keepalive cap: 2 s
    }

    #[test]
    fn scale_behaves() {
        assert_eq!(scale(1_000, 10.0), 10_000);
        assert_eq!(scale(1_000, 0.5), 500);
        assert_eq!(scale(u64::MAX, 2.0), u64::MAX);
        assert_eq!(scale(0, 1_000_000.0), 0);
    }
}
