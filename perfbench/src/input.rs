//! Seeded input materialization, result oracles, and the row iterator
//! queries pull from.
//!
//! Every dataset is generated once at set-up from the run's seed, with
//! the oracles every query is checked against. Queries receive the rows
//! through [`SharedRows`], which clones one row per pull (the payload is
//! a reference-counted buffer), so no query pays for generation or for a
//! copy of the whole input.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use histok_types::{Bytes, F64Key, Row, SortSpec};
use histok_workload::{Distribution, Workload};

/// Payload bytes of the `lineitem`-shaped rows.
pub const LINEITEM_BYTES: usize = 64;

/// What to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataSpec {
    /// Shuffled distinct keys `1..=rows`, lineitem payloads.
    Uniform {
        /// Row count.
        rows: u64,
    },
    /// Lognormal(0, 2) keys, lineitem payloads.
    Lognormal {
        /// Row count.
        rows: u64,
    },
    /// Strictly improving keys (the paper's §5.5 adversarial input),
    /// lineitem payloads.
    Adversarial {
        /// Row count.
        rows: u64,
    },
    /// Zipf(`s`) ranks over `distinct` keys; the payload is the key's
    /// 8 bytes, so every duplicate carries the same payload.
    Zipf {
        /// Row count.
        rows: u64,
        /// Skew exponent.
        s: f64,
        /// Key-space size.
        distinct: u64,
    },
}

/// One materialized input with its oracles.
#[derive(Debug)]
pub struct Dataset {
    /// The rows, in arrival order.
    pub rows: Arc<Vec<Row<F64Key>>>,
    /// Sum of the rows' run-file encodings: the bytes a full spill writes.
    pub input_bytes: u64,
    /// Row indices in ascending key order (ties by arrival).
    order: Vec<u32>,
    /// Ascending distinct keys, each with the range of `order` holding
    /// its rows.
    groups: Vec<(f64, u32, u32)>,
}

impl Dataset {
    /// Generates `spec` from `seed` and computes its oracles.
    pub fn generate(spec: DataSpec, seed: u64) -> Dataset {
        let lineitem = |w: Workload| -> Vec<Row<F64Key>> {
            w.with_payload_bytes(LINEITEM_BYTES).rows().collect()
        };
        let rows: Vec<Row<F64Key>> = match spec {
            DataSpec::Uniform { rows } => lineitem(Workload::uniform(rows, seed)),
            DataSpec::Lognormal { rows } => lineitem(
                Workload::uniform(rows, seed).with_distribution(Distribution::lognormal_default()),
            ),
            DataSpec::Adversarial { rows } => {
                lineitem(Workload::uniform(rows, seed).with_distribution(Distribution::Adversarial))
            }
            DataSpec::Zipf { rows, s, distinct } => Workload::uniform(rows, seed)
                .with_distribution(Distribution::Zipf { s, n: distinct })
                .keys()
                .map(|k| Row::new(k, Bytes::copy_from_slice(&k.get().to_le_bytes())))
                .collect(),
        };
        assert!(rows.len() < u32::MAX as usize, "row indices are stored as u32");
        let input_bytes = rows.iter().map(|r| r.encoded_len() as u64).sum();
        // Sorting (key, index) pairs keeps the sort's memory access
        // sequential, so set-up time does not hinge on cache and TLB luck.
        let mut keyed: Vec<(f64, u32)> =
            rows.iter().enumerate().map(|(i, r)| (r.key.get(), i as u32)).collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let order: Vec<u32> = keyed.iter().map(|&(_, idx)| idx).collect();
        let mut groups: Vec<(f64, u32, u32)> = Vec::new();
        for (pos, &(key, _)) in keyed.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.0.to_bits() == key.to_bits() => g.2 = pos as u32 + 1,
                _ => groups.push((key, pos as u32, pos as u32 + 1)),
            }
        }
        Dataset { rows: Arc::new(rows), input_bytes, order, groups }
    }

    /// Row count.
    pub fn len(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        self.groups.len() as u64
    }

    /// Checks an ascending query's output against the oracle: the keys
    /// of the `spec` window of the sorted input (of its distinct keys
    /// when `distinct`), each with the payload of an input row carrying
    /// that key.
    pub fn check(
        &self,
        spec: &SortSpec,
        distinct: bool,
        got: &[Row<F64Key>],
    ) -> Result<(), String> {
        if spec.order != histok_types::SortOrder::Ascending {
            return Err("the oracle covers ascending queries only".into());
        }
        let total = if distinct { self.groups.len() } else { self.order.len() } as u64;
        let begin = spec.offset.min(total);
        let end = spec.offset.saturating_add(spec.limit).min(total);
        if got.len() as u64 != end - begin {
            return Err(format!("expected {} rows, got {}", end - begin, got.len()));
        }
        for (i, row) in got.iter().enumerate() {
            let pos = begin as usize + i;
            let group =
                if distinct { pos } else { self.groups.partition_point(|g| (g.2 as usize) <= pos) };
            let (key, from, to) = self.groups[group];
            if row.key.get().to_bits() != key.to_bits() {
                return Err(format!("row {i}: expected key {key}, got {}", row.key.get()));
            }
            let carried = self.order[from as usize..to as usize]
                .iter()
                .any(|&idx| self.rows[idx as usize].payload == row.payload);
            if !carried {
                return Err(format!("row {i}: payload of key {key} matches no input row"));
            }
        }
        Ok(())
    }
}

/// Time spent inside [`SharedRows::next`], estimated by timing every
/// [`PULL_SAMPLE`]-th pull (timing every pull would cost more than the
/// pull itself).
#[derive(Debug, Default)]
pub struct PullClock {
    first: OnceLock<Instant>,
    pulls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

/// One pull in this many is timed.
pub const PULL_SAMPLE: u64 = 64;

impl PullClock {
    /// When the first row was pulled.
    pub fn first_pull(&self) -> Option<Instant> {
        self.first.get().copied()
    }

    /// Estimated total nanoseconds inside the iterator, net of the
    /// clock's own read cost `timer_ns` per sample.
    pub fn estimated_ns(&self, timer_ns: u64) -> u64 {
        let sampled = self.sampled.load(Ordering::Relaxed);
        if sampled == 0 {
            return 0;
        }
        let net = self.sampled_ns.load(Ordering::Relaxed).saturating_sub(sampled * timer_ns);
        (net as f64 * self.pulls.load(Ordering::Relaxed) as f64 / sampled as f64) as u64
    }
}

/// Median cost of reading the clock twice back to back: the bias one
/// timed pull carries.
pub fn timer_overhead_ns() -> u64 {
    let mut costs: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            Instant::now().duration_since(t).as_nanos() as u64
        })
        .collect();
    costs.sort_unstable();
    costs[costs.len() / 2]
}

/// A query's input: clones rows out of a shared dataset, one per pull.
#[derive(Debug)]
pub struct SharedRows {
    rows: Arc<Vec<Row<F64Key>>>,
    next: usize,
    clock: Option<Arc<PullClock>>,
}

impl SharedRows {
    /// Iterates all of `rows`; times pulls into `clock` when given.
    pub fn new(rows: Arc<Vec<Row<F64Key>>>, clock: Option<Arc<PullClock>>) -> Self {
        SharedRows { rows, next: 0, clock }
    }
}

impl Iterator for SharedRows {
    type Item = Row<F64Key>;

    #[inline]
    fn next(&mut self) -> Option<Row<F64Key>> {
        let Some(clock) = &self.clock else {
            let row = self.rows.get(self.next).cloned();
            self.next += 1;
            return row;
        };
        let n = clock.pulls.fetch_add(1, Ordering::Relaxed);
        if n % PULL_SAMPLE != 0 {
            let row = self.rows.get(self.next).cloned();
            self.next += 1;
            return row;
        }
        let start = Instant::now();
        let row = self.rows.get(self.next).cloned();
        self.next += 1;
        let ns = start.elapsed().as_nanos() as u64;
        clock.first.get_or_init(|| start);
        clock.sampled.fetch_add(1, Ordering::Relaxed);
        clock.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        row
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(ds: &Dataset, idx: &[usize]) -> Vec<Row<F64Key>> {
        idx.iter().map(|&i| ds.rows[i].clone()).collect()
    }

    #[test]
    fn generation_is_seeded() {
        let a = Dataset::generate(DataSpec::Uniform { rows: 500 }, 7);
        let b = Dataset::generate(DataSpec::Uniform { rows: 500 }, 7);
        let c = Dataset::generate(DataSpec::Uniform { rows: 500 }, 8);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows, c.rows);
        assert_eq!(a.input_bytes, 500 * (8 + 4 + LINEITEM_BYTES as u64));
    }

    #[test]
    fn oracle_accepts_the_sorted_window_and_rejects_mistakes() {
        let ds = Dataset::generate(DataSpec::Uniform { rows: 200 }, 3);
        let spec = SortSpec::ascending(5).with_offset(10);
        let want: Vec<usize> = ds.order[10..15].iter().map(|&i| i as usize).collect();
        let good = rows_of(&ds, &want);
        assert_eq!(ds.check(&spec, false, &good), Ok(()));
        assert!(ds.check(&spec, false, &good[..4]).is_err(), "short result");
        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert!(ds.check(&spec, false, &swapped).is_err(), "wrong order");
        let mut wrong_payload = good.clone();
        wrong_payload[2].payload = ds.rows[want[3]].payload.clone();
        assert!(ds.check(&spec, false, &wrong_payload).is_err(), "payload of another row");
        // A window past the end is empty.
        assert_eq!(ds.check(&SortSpec::ascending(5).with_offset(500), false, &[]), Ok(()));
    }

    #[test]
    fn distinct_oracle_counts_keys_not_rows() {
        let ds = Dataset::generate(DataSpec::Zipf { rows: 2_000, s: 1.2, distinct: 50 }, 5);
        assert!(ds.distinct_keys() <= 50 && ds.distinct_keys() > 10);
        let keys: Vec<f64> = ds.groups.iter().take(4).map(|g| g.0).collect();
        let got: Vec<Row<F64Key>> = keys
            .iter()
            .map(|&k| Row::new(F64Key(k), Bytes::copy_from_slice(&k.to_le_bytes())))
            .collect();
        assert_eq!(ds.check(&SortSpec::ascending(4), true, &got), Ok(()));
        // The plain oracle sees the duplicates the distinct one folds.
        assert!(ds.check(&SortSpec::ascending(4), false, &got).is_err());
    }

    #[test]
    fn shared_rows_yield_the_dataset_and_time_samples() {
        let ds = Dataset::generate(DataSpec::Lognormal { rows: 1_000 }, 1);
        let clock = Arc::new(PullClock::default());
        let pulled: Vec<Row<F64Key>> =
            SharedRows::new(ds.rows.clone(), Some(clock.clone())).collect();
        assert_eq!(&pulled, ds.rows.as_ref());
        assert_eq!(clock.pulls.load(Ordering::Relaxed), 1_001, "includes the final None");
        assert_eq!(clock.sampled.load(Ordering::Relaxed), 1_001u64.div_ceil(PULL_SAMPLE));
        assert!(clock.first_pull().is_some());
        let plain: Vec<Row<F64Key>> = SharedRows::new(ds.rows.clone(), None).collect();
        assert_eq!(plain.len(), 1_000);
    }
}
