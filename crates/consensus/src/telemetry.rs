//! Telemetry adapters: one call records a [`ConsensusOutcome`]'s cost
//! and exclusion profile into a metrics registry, labelled by mechanism
//! so the scheme-comparison experiments (Tables III/IV) can read
//! per-mechanism totals straight out of a run manifest.

use hfl_telemetry::Registry;

use crate::ConsensusOutcome;

/// Records one consensus instance into `registry`, labelled
/// `mechanism=<name>` (use [`crate::Consensus::name`]):
///
/// * `consensus_instances_total` — decided instances,
/// * `consensus_excluded_total` — proposals excluded as suspicious,
/// * `consensus_rounds_total` — protocol rounds executed,
/// * `consensus_messages_total` / `consensus_bytes_total` — cost.
pub fn record_outcome(registry: &Registry, mechanism: &'static str, out: &ConsensusOutcome) {
    let labels = [("mechanism", mechanism)];
    registry
        .counter("consensus_instances_total", &labels)
        .inc(1);
    registry
        .counter("consensus_excluded_total", &labels)
        .inc(out.excluded.len() as u64);
    registry
        .counter("consensus_rounds_total", &labels)
        .inc(out.rounds as u64);
    registry
        .counter("consensus_messages_total", &labels)
        .inc(out.messages);
    registry
        .counter("consensus_bytes_total", &labels)
        .inc(out.bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accumulates_under_mechanism_label() {
        let registry = Registry::new();
        let out = ConsensusOutcome {
            decided: vec![0.0],
            excluded: vec![2, 5],
            rounds: 3,
            messages: 40,
            bytes: 640,
        };
        record_outcome(&registry, "vote", &out);
        record_outcome(&registry, "vote", &out);
        record_outcome(&registry, "pbft", &out);

        let labels = [("mechanism", "vote")];
        assert_eq!(
            registry.counter("consensus_instances_total", &labels).get(),
            2
        );
        assert_eq!(
            registry.counter("consensus_excluded_total", &labels).get(),
            4
        );
        assert_eq!(registry.counter("consensus_rounds_total", &labels).get(), 6);
        assert_eq!(
            registry.counter("consensus_messages_total", &labels).get(),
            80
        );
        assert_eq!(
            registry.counter("consensus_bytes_total", &labels).get(),
            1280
        );
        let pbft = [("mechanism", "pbft")];
        assert_eq!(
            registry.counter("consensus_instances_total", &pbft).get(),
            1
        );
    }
}
