//! The engine layer probe: for each of the 15 quick benchmarks, times
//! workload generation, the functional interpreter, the out-of-order core
//! with each i-cache, a replay of the core's recorded fetch stream
//! through each i-cache alone, and the energy comparison — each around a
//! public call. The simulated counts it sums are exact and double as a
//! bit-identity fingerprint, and every run it times is checked against
//! the record `suite figure3` stored for the same configuration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cache_sim::icache::{ConventionalICache, InstCache};
use cache_sim::policy::LeakagePolicy;
use cache_sim::stats::CacheStats;
use dri_core::DriICache;
use dri_experiments::runner::{compare_with_baseline, ConventionalRun, DriSummary};
use dri_experiments::{DriRun, RunConfig};
use ooo_cpu::core::{Core, RunResult};
use synth_workload::{Benchmark, Machine, Program};

use crate::campaign::{Campaign, Point, Run};
use crate::out::{ms, ns, us, Json};
use crate::Args;

/// Energy comparisons timed per benchmark (one is well under a µs).
const COMPARE_REPS: u32 = 2000;

/// One call the core made on its i-cache.
enum Event {
    Access(u64, u64),
    Retire(u64, u64),
    Finish(u64),
}

/// An i-cache wrapper that records the calls the core makes, so the same
/// fetch stream can be replayed through a fresh cache with no core.
struct Recorder<C> {
    inner: C,
    events: Vec<Event>,
}

impl<C: InstCache> InstCache for Recorder<C> {
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        self.events.push(Event::Access(addr, cycle));
        self.inner.access(addr, cycle)
    }

    fn hit_latency(&self) -> u64 {
        self.inner.hit_latency()
    }

    fn block_bytes(&self) -> u64 {
        self.inner.block_bytes()
    }

    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        self.events.push(Event::Retire(n, cycle));
        self.inner.retire_instructions(n, cycle);
    }

    fn finish(&mut self, cycle: u64) {
        self.events.push(Event::Finish(cycle));
        self.inner.finish(cycle);
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }
}

/// Drives `cache` through a recorded stream; returns the time taken and
/// the number of fetch accesses.
fn replay<C: InstCache>(cache: &mut C, events: &[Event]) -> (Duration, u64) {
    let mut fetches = 0u64;
    let started = Instant::now();
    for event in events {
        match *event {
            Event::Access(addr, cycle) => {
                black_box(cache.access(addr, cycle));
                fetches += 1;
            }
            Event::Retire(n, cycle) => cache.retire_instructions(n, cycle),
            Event::Finish(cycle) => cache.finish(cycle),
        }
    }
    (started.elapsed(), fetches)
}

/// Runs the core with `icache` and times the run.
fn time_core<'p, C: InstCache>(
    program: &'p Program,
    cfg: &RunConfig,
    icache: C,
    budget: u64,
) -> (Duration, RunResult, Core<'p, C>) {
    let mut core = Core::with_hierarchy(program, cfg.cpu, icache, cfg.hierarchy);
    let started = Instant::now();
    let result = core.run(budget);
    (started.elapsed(), result, core)
}

fn dri_run<C: InstCache + LeakagePolicy>(result: &RunResult, core: &Core<'_, C>) -> DriRun {
    let cache = core.icache();
    DriRun {
        timing: result.stats,
        icache: *cache.stats(),
        dri: DriSummary {
            avg_active_fraction: cache.avg_active_fraction(),
            avg_size_bytes: cache.avg_size_bytes(),
            final_size_bytes: cache.active_size_bytes(),
            resizes: cache.resizes() as usize,
            intervals: cache.intervals(),
            resizing_bits: cache.resizing_tag_bits(),
        },
        l2_inst_accesses: core.hierarchy().l2_inst_accesses(),
        bpred_accuracy: result.bpred_accuracy,
    }
}

#[derive(Default)]
struct Totals {
    generate: Duration,
    interp: Duration,
    interp_insts: u64,
    core: Duration,
    core_dri: Duration,
    core_insts: u64,
    core_dri_insts: u64,
    l1i: Duration,
    l1i_fetches: u64,
    dri: Duration,
    dri_fetches: u64,
    compare: Duration,
    compares: u64,
    sim_cycles: u64,
    l1i_misses: u64,
    dri_resizes: u64,
    dri_intervals: u64,
    checked: u64,
    failed: u64,
}

pub fn run(args: &Args) -> Result<Json, String> {
    let campaign = Campaign::quick()?;
    let reference = campaign.reference(args.str("reference")?)?;
    let mut t = Totals::default();
    for (index, benchmark) in Benchmark::all().into_iter().enumerate() {
        // The benchmark's baseline record and its first grid point.
        let mut records = campaign
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.benchmark == index);
        let (base_at, base_cfg) = match records.next() {
            Some((at, r)) => match &r.point {
                Point::Baseline(cfg) => (at, cfg),
                Point::Policy(_) => return Err("campaign order: baseline first".to_owned()),
            },
            None => return Err(format!("no records for {}", benchmark.name())),
        };
        let (dri_at, dri_cfg) = match records.next() {
            Some((at, r)) => match &r.point {
                Point::Policy(cfg) => (at, cfg),
                Point::Baseline(_) => return Err("campaign order: grid after baseline".to_owned()),
            },
            None => return Err(format!("no grid points for {}", benchmark.name())),
        };
        let budget = base_cfg
            .instruction_budget
            .ok_or("quick configurations carry an instruction budget")?;

        let started = Instant::now();
        let generated = black_box(benchmark.build());
        t.generate += started.elapsed();
        let program = &generated.program;

        let mut machine = Machine::new(program);
        let started = Instant::now();
        let summary = machine.run(budget);
        t.interp += started.elapsed();
        t.interp_insts += summary.retired;

        let conventional = ConventionalICache::new(base_cfg.baseline_icache());
        let (elapsed, result, core) = time_core(program, base_cfg, conventional, budget);
        t.core += elapsed;
        t.core_insts += result.stats.instructions;
        let conv = ConventionalRun {
            timing: result.stats,
            icache: *core.icache().stats(),
            l2_inst_accesses: core.hierarchy().l2_inst_accesses(),
            bpred_accuracy: result.bpred_accuracy,
        };
        drop(core);

        let (elapsed, result, core) =
            time_core(program, dri_cfg, DriICache::new(dri_cfg.dri), budget);
        t.core_dri += elapsed;
        t.core_dri_insts += result.stats.instructions;
        let dri = dri_run(&result, &core);
        drop(core);

        // Record both fetch streams (untimed), then replay each through a
        // fresh cache of its kind; the replay must reproduce the counters.
        let recorder = Recorder {
            inner: ConventionalICache::new(base_cfg.baseline_icache()),
            events: Vec::new(),
        };
        let (_, _, core) = time_core(program, base_cfg, recorder, budget);
        let events = &core.icache().events;
        let mut fresh = ConventionalICache::new(base_cfg.baseline_icache());
        let (elapsed, fetches) = replay(&mut fresh, events);
        t.l1i += elapsed;
        t.l1i_fetches += fetches;
        let conv_replayed = *fresh.stats() == conv.icache;
        drop(core);

        let recorder = Recorder {
            inner: DriICache::new(dri_cfg.dri),
            events: Vec::new(),
        };
        let (_, _, core) = time_core(program, dri_cfg, recorder, budget);
        let events = &core.icache().events;
        let mut fresh = DriICache::new(dri_cfg.dri);
        let (elapsed, fetches) = replay(&mut fresh, events);
        t.dri += elapsed;
        t.dri_fetches += fetches;
        let dri_replayed =
            *fresh.stats() == dri.icache && fresh.resizes() as usize == dri.dri.resizes;
        drop(core);

        let started = Instant::now();
        for _ in 0..COMPARE_REPS {
            black_box(compare_with_baseline(
                black_box(dri_cfg),
                black_box(&conv),
                black_box(&dri),
            ));
        }
        t.compare += started.elapsed();
        t.compares += u64::from(COMPARE_REPS);

        t.sim_cycles += conv.timing.cycles + dri.timing.cycles;
        t.l1i_misses += conv.icache.misses;
        t.dri_resizes += dri.dri.resizes as u64;
        t.dri_intervals += dri.dri.intervals;
        t.checked += 1;
        let stored = Run::Conventional(conv).encode() == reference[base_at]
            && Run::Policy(dri).encode() == reference[dri_at];
        if !(stored && conv_replayed && dri_replayed) {
            eprintln!(
                "perfbench-probe engine: {} differs (stored records {stored}, \
                 conventional replay {conv_replayed}, dri replay {dri_replayed})",
                benchmark.name()
            );
            t.failed += 1;
        }
    }

    let per = |d: Duration, n: u64| ns(d) / n.max(1) as f64;
    let interp = per(t.interp, t.interp_insts);
    let core = per(t.core, t.core_insts);
    let l1i_per_inst = per(t.l1i, t.core_insts);
    let mut json = Json::new();
    json.num("workload.generate_ms", ms(t.generate))
        .num("workload.interp_ns_per_inst", interp)
        .num("cpu.core_ns_per_inst", core)
        .num(
            "cpu.core_dri_ns_per_inst",
            per(t.core_dri, t.core_dri_insts),
        )
        .num("cpu.timing_self_ns_per_inst", core - interp - l1i_per_inst)
        .num("cache.l1i_ns_per_fetch", per(t.l1i, t.l1i_fetches))
        .num("core.dri_ns_per_fetch", per(t.dri, t.dri_fetches))
        .num(
            "energy.compare_us",
            us(t.compare) / t.compares.max(1) as f64,
        )
        .int("cpu.sim_cycles", t.sim_cycles)
        .int("cpu.committed_insts", t.core_insts + t.core_dri_insts)
        .int("cache.l1i_misses", t.l1i_misses)
        .int("core.dri_resizes", t.dri_resizes)
        .int("core.dri_intervals", t.dri_intervals)
        .int("attempted", t.checked)
        .int("failed", t.failed);
    Ok(json)
}
