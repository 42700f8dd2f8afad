//! The three workloads: their inputs, server sizing and query streams.
//!
//! All are closed loops: each client sends its next query only after the
//! previous one returned. Every query runs through `TopKServer` with the
//! histogram operator on the same sleeping throttled storage.

use std::time::Duration;

use histok_exec::ServerConfig;
use histok_types::SortSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::input::DataSpec;

/// Fixed latency of every storage request (write, read, finish, skip) —
/// the disaggregated-storage round trip of the paper's §2.1.
pub const STORAGE_LATENCY: Duration = Duration::from_micros(50);
/// Run-file block size for every query.
pub const BLOCK_BYTES: usize = 16 * 1024;
/// Background-I/O worker threads of the server.
pub const IO_THREADS: usize = 4;
/// Interactive queries ask for at most this many rows.
pub const INTERACTIVE_MAX_K: u64 = 100;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client; k larger than the query's memory lease, over uniform
    /// and lognormal keys. The cutoff filter does most of the work.
    DeepTopk,
    /// One client; export-sized k over strictly improving keys. The
    /// filter eliminates nothing; sort and storage do the work.
    FilterDefeated,
    /// Two clients sharing one server with a seeded mix of interactive,
    /// DISTINCT, offset-paged and export queries under a small pool.
    FleetMixed,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "deep_topk" => Some(Kind::DeepTopk),
            "filter_defeated" => Some(Kind::FilterDefeated),
            "fleet_mixed" => Some(Kind::FleetMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DeepTopk => "deep_topk",
            Kind::FilterDefeated => "filter_defeated",
            Kind::FleetMixed => "fleet_mixed",
        }
    }

    /// Concurrent clients.
    pub fn clients(self) -> usize {
        match self {
            Kind::DeepTopk | Kind::FilterDefeated => 1,
            Kind::FleetMixed => 2,
        }
    }

    /// The inputs, indexed by [`Plan::dataset`].
    pub fn datasets(self) -> Vec<DataSpec> {
        match self {
            Kind::DeepTopk => {
                vec![DataSpec::Uniform { rows: DEEP_ROWS }, DataSpec::Lognormal { rows: DEEP_ROWS }]
            }
            Kind::FilterDefeated => vec![DataSpec::Adversarial { rows: ADV_ROWS }],
            Kind::FleetMixed => vec![
                DataSpec::Uniform { rows: FLEET_ROWS },
                DataSpec::Zipf { rows: FLEET_ROWS, s: 1.2, distinct: ZIPF_KEYS },
            ],
        }
    }

    /// The server every client of the workload shares.
    pub fn server_config(self) -> ServerConfig {
        let base = ServerConfig {
            total_memory: 64 * 1024 * 1024,
            io_threads: IO_THREADS,
            min_lease: 16 * 1024,
            // Covers the k-row heap of an interactive query, so it takes
            // the small-query path and never spills.
            small_query_bytes: 24 * 1024,
            row_bytes_hint: 192,
            folded_row_bytes_hint: 32,
        };
        match self {
            Kind::DeepTopk | Kind::FilterDefeated => base,
            // Below two concurrent exports: the second export queues, and
            // leases rebalance at phase boundaries.
            Kind::FleetMixed => {
                ServerConfig { total_memory: FLEET_POOL, min_lease: FLEET_MIN_LEASE, ..base }
            }
        }
    }
}

/// Rows of each `deep_topk` input.
const DEEP_ROWS: u64 = 200_000;
/// `deep_topk` k: 5% of the input, several times what the lease holds.
const DEEP_K: u64 = DEEP_ROWS / 20;
const DEEP_LEASE: usize = 256 * 1024;

/// Rows of the adversarial input: enough one-lease runs to exceed the
/// default merge fan-in (512), so the cascade planner runs.
const ADV_ROWS: u64 = 80_000;
const ADV_K: u64 = ADV_ROWS / 10 * 9;
const ADV_LEASE: usize = 16 * 1024;

const FLEET_ROWS: u64 = 150_000;
const ZIPF_KEYS: u64 = 100_000;
const FLEET_EXPORT_K: u64 = FLEET_ROWS / 4;
const FLEET_EXPORT_LEASE: usize = 1024 * 1024;
const FLEET_LEASE: usize = 512 * 1024;
const FLEET_POOL: usize = 1024 * 1024;
const FLEET_MIN_LEASE: usize = 768 * 1024;
const FLEET_PAGE_ROWS: u64 = 1_000;
const FLEET_PAGES: u64 = 20;
const FLEET_DISTINCT_K: u64 = 2_000;
/// One shuffled round of fleet query classes.
const FLEET_DECK: [Class; 10] = [
    Class::Interactive,
    Class::Interactive,
    Class::Interactive,
    Class::Interactive,
    Class::Paged,
    Class::Paged,
    Class::Distinct,
    Class::Distinct,
    Class::Export,
    Class::Export,
];
/// Interactive queries' requested workspace (they are admitted with
/// their estimated footprint, far below this).
const INTERACTIVE_LEASE: usize = 1024 * 1024;

/// A query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `deep_topk`'s k beyond the lease.
    DeepTopk,
    /// Export-sized k (spills everything the filter keeps).
    Export,
    /// `LIMIT l OFFSET o` over the sorted input.
    Paged,
    /// `SELECT DISTINCT … LIMIT k` over duplicate-heavy keys.
    Distinct,
    /// `LIMIT k` with k ≤ [`INTERACTIVE_MAX_K`].
    Interactive,
}

impl Class {
    /// The class's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::DeepTopk => "deep_topk",
            Class::Export => "export",
            Class::Paged => "paged",
            Class::Distinct => "distinct",
            Class::Interactive => "interactive",
        }
    }
}

/// One query to send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Its class.
    pub class: Class,
    /// Index into [`Kind::datasets`].
    pub dataset: usize,
    /// The top-k clause (always ascending).
    pub spec: SortSpec,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Requested workspace bytes.
    pub memory: usize,
}

impl Plan {
    fn interactive(dataset: usize, k: u64) -> Plan {
        Plan {
            class: Class::Interactive,
            dataset,
            spec: SortSpec::ascending(k),
            distinct: false,
            memory: INTERACTIVE_LEASE,
        }
    }
}

/// A client's seeded query sequence.
#[derive(Debug)]
pub struct Stream {
    kind: Kind,
    rng: StdRng,
    sent: u64,
    pages: u64,
    deck: Vec<Class>,
}

impl Stream {
    /// The sequence of client `client` for `seed`.
    pub fn new(kind: Kind, seed: u64, client: usize) -> Stream {
        let rng = StdRng::seed_from_u64(seed ^ (0x5EED_0000 + client as u64));
        Stream { kind, rng, sent: 0, pages: 0, deck: Vec::new() }
    }

    /// The next query.
    pub fn next_plan(&mut self) -> Plan {
        let i = self.sent;
        self.sent += 1;
        match self.kind {
            // Heavy query, then an interactive query on the same input:
            // the dashboard refresh between two big queries.
            Kind::DeepTopk => {
                let dataset = (i / 2 % 2) as usize;
                if i.is_multiple_of(2) {
                    Plan {
                        class: Class::DeepTopk,
                        dataset,
                        spec: SortSpec::ascending(DEEP_K),
                        distinct: false,
                        memory: DEEP_LEASE,
                    }
                } else {
                    Plan::interactive(dataset, INTERACTIVE_MAX_K)
                }
            }
            Kind::FilterDefeated => {
                if i.is_multiple_of(2) {
                    Plan {
                        class: Class::Export,
                        dataset: 0,
                        spec: SortSpec::ascending(ADV_K),
                        distinct: false,
                        memory: ADV_LEASE,
                    }
                } else {
                    Plan::interactive(0, INTERACTIVE_MAX_K)
                }
            }
            Kind::FleetMixed => {
                if self.deck.is_empty() {
                    self.deck = FLEET_DECK.to_vec();
                    self.deck.shuffle(&mut self.rng);
                }
                let class = self.deck.pop().expect("deck refilled above");
                match class {
                    Class::Interactive => {
                        Plan::interactive(0, self.rng.gen_range(10..=INTERACTIVE_MAX_K))
                    }
                    Class::Paged => {
                        // The client pages through the sorted input and
                        // starts over after the last page.
                        let page = self.pages % FLEET_PAGES;
                        self.pages += 1;
                        Plan {
                            class,
                            dataset: 0,
                            spec: SortSpec::ascending(FLEET_PAGE_ROWS)
                                .with_offset(page * FLEET_PAGE_ROWS),
                            distinct: false,
                            memory: FLEET_LEASE,
                        }
                    }
                    Class::Distinct => Plan {
                        class,
                        dataset: 1,
                        spec: SortSpec::ascending(FLEET_DISTINCT_K),
                        distinct: true,
                        memory: FLEET_LEASE,
                    },
                    Class::DeepTopk => unreachable!("not in the fleet deck"),
                    Class::Export => Plan {
                        class,
                        dataset: 0,
                        spec: SortSpec::ascending(FLEET_EXPORT_K),
                        distinct: false,
                        memory: FLEET_EXPORT_LEASE,
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_per_client() {
        let take = |seed, client| -> Vec<Plan> {
            let mut s = Stream::new(Kind::FleetMixed, seed, client);
            (0..30).map(|_| s.next_plan()).collect()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
    }

    #[test]
    fn fleet_deck_keeps_its_class_mix() {
        let mut s = Stream::new(Kind::FleetMixed, 9, 0);
        let plans: Vec<Plan> = (0..FLEET_DECK.len() * 3).map(|_| s.next_plan()).collect();
        for class in [Class::Interactive, Class::Paged, Class::Distinct, Class::Export] {
            let want = FLEET_DECK.iter().filter(|&&c| c == class).count() * 3;
            assert_eq!(plans.iter().filter(|p| p.class == class).count(), want, "{class:?}");
        }
        assert!(plans
            .iter()
            .all(|p| p.class != Class::Interactive || p.spec.limit <= INTERACTIVE_MAX_K));
    }

    #[test]
    fn single_client_streams_alternate_heavy_and_interactive() {
        let mut s = Stream::new(Kind::DeepTopk, 3, 0);
        let plans: Vec<Plan> = (0..8).map(|_| s.next_plan()).collect();
        let classes: Vec<Class> = plans.iter().map(|p| p.class).collect();
        assert_eq!(classes[..2], [Class::DeepTopk, Class::Interactive]);
        let datasets: Vec<usize> = plans.iter().map(|p| p.dataset).collect();
        assert_eq!(datasets, [0, 0, 1, 1, 0, 0, 1, 1]);
    }
}
