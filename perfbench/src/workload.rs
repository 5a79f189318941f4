//! The benchmark's workloads and the seeded command generator.

use fastbft_smr::KvCommand;
use fastbft_types::Value;

/// Which transport carries replica traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Authenticated loopback TCP (`fastbft_net`).
    Tcp,
    /// The in-process channel transport (`fastbft_runtime`).
    Channel,
}

/// How the client offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Commands fall due on a fixed schedule, whatever the cluster does.
    Open {
        /// Commands per second.
        rate: f64,
    },
    /// A fixed number of commands outstanding; each ack releases the next.
    Closed {
        /// Commands in flight.
        outstanding: usize,
    },
}

/// One workload: cluster shape, transport, command size and load.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub f: usize,
    pub t: usize,
    pub net: Net,
    /// Encoded size of every client command, in bytes.
    pub payload: usize,
    /// Seats (0-based) stopped after spawn, before any command.
    pub crashed: &'static [usize],
    pub load: Load,
}

impl Workload {
    /// Indexes of the seats that keep running.
    pub fn live(&self) -> Vec<usize> {
        (0..self.n).filter(|i| !self.crashed.contains(i)).collect()
    }
}

pub const WORKLOADS: [Workload; 3] = [
    // The paper's headline configuration and the `tcp_kv` deployment at
    // its capacity: small commands, so per-command costs (ingress, dedup,
    // batch encode, apply) dominate. Enough outstanding that every drain
    // leaves a backlog: with fewer (64, 256) or under an open loop at a
    // third of capacity, the adaptive batcher's congestion guard flips it
    // between latency regimes lasting seconds, and run-to-run spreads
    // exceed any usable bound.
    Workload {
        name: "n4-small-closed",
        n: 4,
        f: 1,
        t: 1,
        net: Net::Tcp,
        payload: 32,
        crashed: &[],
        load: Load::Closed { outstanding: 1024 },
    },
    // Bytes and n² fan-out dominate: hashing, MACs over large frames,
    // encode and copy, and many I/O threads per core.
    Workload {
        name: "n7-1k-closed",
        n: 7,
        f: 2,
        t: 1,
        net: Net::Tcp,
        payload: 1024,
        crashed: &[],
        load: Load::Closed { outstanding: 64 },
    },
    // f seats stopped: the fast quorum is unreachable, every slot takes
    // the slow path and slots led by a dead seat wait out view changes.
    // The network layer does no work here.
    Workload {
        name: "n7-crashed-open",
        n: 7,
        f: 2,
        t: 1,
        net: Net::Channel,
        payload: 64,
        crashed: &[2, 4],
        load: Load::Open { rate: 2_000.0 },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Number of distinct keys the puts spread over.
pub const KEYS: u64 = 1024;

/// Width of the hex command id that ends every generated command.
const ID_DIGITS: usize = 8;

/// SplitMix64: a small, seedable generator; the same seed gives the same
/// stream on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Makes the unique `Put` with command id `id`: a seeded key out of
/// [`KEYS`], and a value of seeded filler that ends with the id in hex, so
/// an applied command maps back to its id without a lookup table. The
/// encoded command is exactly `payload` bytes long.
pub fn command(rng: &mut Rng, id: u32, payload: usize) -> Value {
    let key = format!("k{:04}", rng.next_u64() % KEYS);
    let overhead = KvCommand::Put {
        key: key.clone(),
        value: String::new(),
    }
    .to_value()
    .len();
    let filler = payload
        .checked_sub(overhead + ID_DIGITS)
        .expect("payload too small for a put with an id");
    let mut value = String::with_capacity(filler + ID_DIGITS);
    while value.len() < filler {
        let word = rng.next_u64();
        for b in word.to_le_bytes() {
            if value.len() < filler {
                value.push(char::from(b'a' + b % 26));
            }
        }
    }
    value.push_str(&format!("{id:0width$x}", width = ID_DIGITS));
    let cmd = KvCommand::Put { key, value }.to_value();
    debug_assert_eq!(cmd.len(), payload);
    cmd
}

/// The id [`command`] put at the end of `cmd`, if it has one.
pub fn command_id(cmd: &Value) -> Option<u32> {
    let bytes = cmd.as_bytes();
    let tail = bytes.get(bytes.len().checked_sub(ID_DIGITS)?..)?;
    u32::from_str_radix(std::str::from_utf8(tail).ok()?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_have_the_payload_size_and_round_trip_their_id() {
        let mut rng = Rng::new(3);
        for (id, payload) in [(0, 32), (7, 64), (0xabcdef, 1024)] {
            let cmd = command(&mut rng, id, payload);
            assert_eq!(cmd.len(), payload);
            assert_eq!(command_id(&cmd), Some(id));
            assert!(matches!(
                KvCommand::from_value(&cmd),
                Some(KvCommand::Put { .. })
            ));
        }
        assert_eq!(command_id(&KvCommand::Noop.to_value()), None);
    }

    #[test]
    fn the_seed_fixes_the_commands() {
        let gen = |seed| {
            let mut rng = Rng::new(seed);
            (0..16)
                .map(|i| command(&mut rng, i, 64))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
