//! Round / message / bit accounting for the simulator.

use sparsimatch_obs::{keys, WorkMeter};

/// Communication metrics accumulated over a simulated execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Synchronous communication rounds executed.
    pub rounds: u64,
    /// Unicast messages delivered (one per (edge, direction) with a
    /// non-empty payload in a round).
    pub messages: u64,
    /// Total payload bits delivered.
    pub bits: u64,
    /// Largest single-message payload observed, in bits — the CONGEST
    /// model demands this stays `O(log n)`.
    pub max_message_bits: u64,
    /// Payload clones of the message-passing model on the host: the
    /// broadcast fan-out's copies, one per duplicate delivery, and one per
    /// delivery while a sender retains its payload for retransmission.
    /// Pure host-side cost accounting, whatever copies the engine itself
    /// makes — a unicast message on a perfect transport moves its payload
    /// and clones nothing.
    pub messages_cloned: u64,
}

impl Metrics {
    /// CONGEST compliance: every message fit in `c·⌈log₂ n⌉` bits.
    pub fn congest_compliant(&self, n: usize, c: u64) -> bool {
        let logn = (usize::BITS - n.max(2).leading_zeros()) as u64;
        self.max_message_bits <= c * logn
    }
}

impl Metrics {
    /// Zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Merge another metrics record into this one (rounds add too:
    /// sequential composition of protocol phases).
    pub fn absorb(&mut self, other: Metrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.messages_cloned += other.messages_cloned;
    }

    /// Mirror into the unified [`WorkMeter`] accounting: rounds, messages
    /// and bits accumulate; the largest message is a high-water maximum.
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.add(keys::ROUNDS, self.rounds);
        meter.add(keys::MESSAGES, self.messages);
        meter.add(keys::MESSAGE_BITS, self.bits);
        meter.record_max(keys::MAX_MESSAGE_BITS, self.max_message_bits);
        meter.add(keys::MESSAGES_CLONED, self.messages_cloned);
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} bits",
            self.rounds, self.messages, self.bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fields() {
        let mut a = Metrics {
            rounds: 1,
            messages: 10,
            bits: 100,
            max_message_bits: 8,
            messages_cloned: 2,
        };
        a.absorb(Metrics {
            rounds: 2,
            messages: 5,
            bits: 7,
            max_message_bits: 32,
            messages_cloned: 3,
        });
        assert_eq!(
            a,
            Metrics {
                rounds: 3,
                messages: 15,
                bits: 107,
                max_message_bits: 32,
                messages_cloned: 5,
            }
        );
    }

    #[test]
    fn mirror_into_meter() {
        let m = Metrics {
            rounds: 2,
            messages: 30,
            bits: 240,
            max_message_bits: 16,
            messages_cloned: 7,
        };
        let mut meter = WorkMeter::new();
        m.mirror_into(&mut meter);
        m.mirror_into(&mut meter);
        assert_eq!(meter.get(keys::ROUNDS), 4);
        assert_eq!(meter.get(keys::MESSAGES), 60);
        assert_eq!(meter.get(keys::MESSAGE_BITS), 480);
        assert_eq!(meter.get_max(keys::MAX_MESSAGE_BITS), 16);
        assert_eq!(meter.get(keys::MESSAGES_CLONED), 14);
    }

    #[test]
    fn display_is_readable() {
        let m = Metrics {
            rounds: 2,
            messages: 3,
            bits: 4,
            max_message_bits: 4,
            messages_cloned: 0,
        };
        assert_eq!(m.to_string(), "2 rounds, 3 messages, 4 bits");
    }
}
