//! The quick Figure 3 campaign as records: 15 benchmarks × (1 baseline +
//! 6 DRI grid points) = 105 store records, exactly the set `suite figure3`
//! writes under `DRI_QUICK=1`.

use dri_experiments::harness::{base_config, quick_mode, space};
use dri_experiments::persist::{self, BASELINE_KIND, SCHEMA_VERSION};
use dri_experiments::runner::ConventionalRun;
use dri_experiments::{grid_configs, DriRun, ResultStore, RunConfig, SimSession};
use synth_workload::suite::Benchmark;

/// Which simulation a record holds.
pub enum Point {
    Baseline(RunConfig),
    Policy(RunConfig),
}

/// One store record of the campaign.
pub struct Record {
    pub kind: &'static str,
    pub key: u128,
    /// Index of the benchmark in `Benchmark::all()` order.
    pub benchmark: usize,
    pub point: Point,
}

/// A resolved simulation result.
pub enum Run {
    Conventional(ConventionalRun),
    Policy(DriRun),
}

impl Run {
    /// The record payload this result persists as.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Run::Conventional(run) => persist::encode_conventional(run),
            Run::Policy(run) => persist::encode_dri(run),
        }
    }
}

pub struct Campaign {
    /// Records in campaign order: per benchmark, the baseline then its grid.
    pub records: Vec<Record>,
    /// Every DRI grid point of every benchmark (what prefetch plans).
    pub grid: Vec<RunConfig>,
}

impl Campaign {
    /// The quick-mode campaign. Fails unless `DRI_QUICK=1` is set, since
    /// the record keys depend on it.
    pub fn quick() -> Result<Campaign, String> {
        if !quick_mode() {
            return Err("set DRI_QUICK=1: the benchmark runs the quick campaign".to_owned());
        }
        let mut records = Vec::new();
        let mut grid = Vec::new();
        for (benchmark, b) in Benchmark::all().into_iter().enumerate() {
            let base = base_config(b);
            let points = grid_configs(&base, &space());
            records.push(Record {
                kind: BASELINE_KIND,
                key: persist::baseline_key(&base),
                benchmark,
                point: Point::Baseline(base),
            });
            for cfg in &points {
                records.push(Record {
                    kind: persist::policy_kind(cfg),
                    key: persist::policy_key(cfg),
                    benchmark,
                    point: Point::Policy(cfg.clone()),
                });
            }
            grid.extend(points);
        }
        Ok(Campaign { records, grid })
    }

    /// The seeded payload of every record, read from the store `suite
    /// figure3` filled at `root`.
    pub fn reference(&self, root: &str) -> Result<Vec<Vec<u8>>, String> {
        let store = ResultStore::open(root).map_err(|e| format!("open store {root}: {e}"))?;
        self.records
            .iter()
            .map(|r| {
                store
                    .load(r.kind, SCHEMA_VERSION, r.key)
                    .ok_or_else(|| format!("store {root} lacks {} record {:032x}", r.kind, r.key))
            })
            .collect()
    }
}

/// Resolves one record through `session`'s tiers (memory, then remote).
pub fn resolve(session: &SimSession, record: &Record) -> Run {
    match &record.point {
        Point::Baseline(cfg) => Run::Conventional(session.conventional(cfg)),
        Point::Policy(cfg) => Run::Policy(session.policy_run(cfg)),
    }
}

/// splitmix64: the benchmark's only source of seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u128(&mut self) -> u128 {
        (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
