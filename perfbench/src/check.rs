//! Output checks: digests pinned for the reference seed, invariants for
//! every seed. A failed check is counted against the operation and the
//! run goes on; the count becomes the result line's `failed`.

use dsn_sim::RunStats;
use std::collections::BTreeMap;

/// FNV-1a over 64-bit words: a stable digest of an operation's output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a float in by its exact bit pattern.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Every `RunStats` field, floats by bit pattern (the fingerprint
    /// convention of the simulator's own pinned-output tests).
    pub fn run_stats(&mut self, s: &RunStats) -> &mut Self {
        for w in [
            s.delivered_packets,
            s.created_packets,
            s.total_packets_all_time,
            s.avg_latency_cycles.to_bits(),
            s.avg_latency_ns.to_bits(),
            s.p99_latency_cycles,
            s.max_latency_cycles,
            s.min_latency_cycles,
            s.accepted_flits_per_cycle_per_host.to_bits(),
            s.offered_flits_per_cycle_per_host.to_bits(),
            s.accepted_gbps_per_host.to_bits(),
            s.offered_gbps_per_host.to_bits(),
            s.mean_channel_utilization.to_bits(),
            s.max_channel_utilization.to_bits(),
            s.peak_in_flight_packets,
            s.peak_buffered_flits,
            s.longest_stall_cycles,
            s.deadlock_suspected as u64,
            s.completion_cycle.map_or(u64::MAX, |c| c),
            s.dropped_packets,
            s.dropped_packets_all_time,
            s.salvaged_packets,
            s.retried_packets,
            s.abandoned_packets,
            s.post_fault_delivered,
            s.post_fault_avg_latency_cycles.to_bits(),
            s.post_fault_p99_latency_cycles,
            s.flows_started,
            s.flows_completed,
            s.flows_started_all_time,
            s.flows_completed_all_time,
            s.flow_packets_delivered,
            s.fct_avg_cycles.to_bits(),
            s.fct_p50_cycles,
            s.fct_p99_cycles,
            s.fct_p999_cycles,
            s.fct_max_cycles,
        ] {
            self.word(w);
        }
        for c in &s.fct_classes {
            self.word(c.min_packets as u64)
                .word(c.flows)
                .float(c.fct_avg_cycles)
                .word(c.fct_p99_cycles);
        }
        self
    }
}

/// Pinned digests: `(profile, workload, op) → digest`, read from
/// `pins.txt` (lines `<profile> <workload> <op> <hex digest>`).
pub struct Pins(BTreeMap<(String, String, String), u64>);

impl Pins {
    /// Parse the pin file's text; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [profile, workload, op, hex] = f[..] else {
                return Err(format!("pins line {}: expected 4 fields", i + 1));
            };
            let v = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|e| format!("pins line {}: {e}", i + 1))?;
            map.insert((profile.into(), workload.into(), op.into()), v);
        }
        Ok(Pins(map))
    }

    /// The pinned digest of one operation, if any.
    pub fn get(&self, profile: &str, workload: &str, op: &str) -> Option<u64> {
        self.0
            .get(&(profile.to_string(), workload.to_string(), op.to_string()))
            .copied()
    }
}

/// Counts operations and failed checks for one run.
pub struct Checker {
    pins: Pins,
    profile: &'static str,
    workload: &'static str,
    /// XOR mask applied to every pin (non-zero only in the self-test that
    /// proves a wrong pin is caught).
    pin_mask: u64,
    /// Print `pin ...` lines for the reference repetition.
    print_digests: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Human-readable description of each failure.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `workload` at `profile` against `pins`.
    pub fn new(
        pins: Pins,
        profile: &'static str,
        workload: &'static str,
        pin_mask: u64,
        print_digests: bool,
    ) -> Self {
        Checker {
            pins,
            profile,
            workload,
            pin_mask,
            print_digests,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Record one operation: `digest` is compared with its pin when
    /// `pinned` (the reference repetition), and each `(ok, what)`
    /// invariant must hold. Returns whether every check passed.
    pub fn op(&mut self, op: &str, pinned: bool, digest: u64, invariants: &[(bool, &str)]) -> bool {
        self.attempted += 1;
        let mut problems = Vec::new();
        if pinned {
            if self.print_digests {
                eprintln!("pin {} {} {op} {digest:016x}", self.profile, self.workload);
            }
            match self.pins.get(self.profile, self.workload, op) {
                Some(pin) if pin ^ self.pin_mask == digest => {}
                Some(pin) => problems.push(format!(
                    "digest {digest:016x} != pinned {:016x}",
                    pin ^ self.pin_mask
                )),
                None => problems.push(format!("no pin for digest {digest:016x}")),
            }
        }
        for &(ok, what) in invariants {
            if !ok {
                problems.push(format!("invariant failed: {what}"));
            }
        }
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        self.failures.push(format!("{op}: {}", problems.join("; ")));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pins() -> Pins {
        Pins::parse("# comment\nfull w op 00000000000000ff\n").unwrap()
    }

    #[test]
    fn pinned_digest_passes_and_mismatch_fails() {
        let mut c = Checker::new(pins(), "full", "w", 0, false);
        assert!(c.op("op", true, 0xff, &[]));
        assert!(!c.op("op", true, 0xfe, &[]));
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn wrong_pin_is_counted() {
        let mut c = Checker::new(pins(), "full", "w", 1, false);
        assert!(!c.op("op", true, 0xff, &[]));
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn invariants_count_on_any_seed() {
        let mut c = Checker::new(pins(), "full", "w", 0, false);
        assert!(c.op("other", false, 0, &[(true, "fine")]));
        assert!(!c.op("other", false, 0, &[(false, "broken")]));
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn digest_depends_on_every_word() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1).word(2);
        b.word(2).word(1);
        assert_ne!(a.value(), b.value());
    }
}
