//! Closed-loop clients of the `warm-replay` and `push-fill` workloads.
//!
//! One thread, one connection at a time. Each loop paces its operations
//! to a fixed start schedule: when an operation finishes early the client
//! waits for the next slot, and when it runs late the missed slots are
//! skipped, never replayed in a burst. The pacing keeps new connections
//! per second far below what the ephemeral port range recycles (every
//! exchange is `Connection: close`, and each closed socket sits in
//! TIME_WAIT for 60 s), so one run's churn cannot slow the next: the
//! replay loop opens ~144 connections per second and the push loop ~100,
//! which stays under 10k TIME_WAIT sockets against a ~28k-port range.
//! Unpaced loops spread almost three times as much from run to run.
//! Operations started during the first `WARMUP` are run and checked but
//! not timed: the first loop after idle reads ~20% slow.

use std::thread::sleep;
use std::time::{Duration, Instant};

use dri_experiments::persist::SCHEMA_VERSION;
use dri_experiments::{RemoteStore, SimSession};
use dri_serve::PushOutcome;

use crate::campaign::{resolve, Campaign, Rng, Run};
use crate::out::{ms, Json};
use crate::Args;

/// Untimed start of every loop.
const WARMUP: Duration = Duration::from_secs(1);
/// warm-replay: one cold session starts every 25 ms ...
const REPLAY_PERIOD: Duration = Duration::from_millis(25);
/// ... and one in 40 resolves record by record (105 connections).
const POINT_EVERY: u64 = 40;
/// push-fill: one 7-record batch-put starts every 10 ms.
const PUSH_PERIOD: Duration = Duration::from_millis(10);

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// CPU seconds `pid` has used so far (user + system, from
/// `/proc/<pid>/stat`; the kernel reports it net of hypervisor steal).
fn cpu_seconds(pid: &str, clk_tck: f64) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / clk_tck),
        _ => Err(format!("{path}: no utime/stime")),
    }
}

/// CPU time of this client and of the server process together.
struct CpuMeter {
    server_pid: String,
    clk_tck: f64,
}

impl CpuMeter {
    fn new(args: &Args) -> Result<CpuMeter, String> {
        // SAFETY: sysconf reads a process-wide constant and has no
        // preconditions.
        let clk_tck = unsafe { sysconf(SC_CLK_TCK) };
        if clk_tck <= 0 {
            return Err("sysconf(_SC_CLK_TCK) failed".to_owned());
        }
        Ok(CpuMeter {
            server_pid: args.str("server-pid")?.to_owned(),
            clk_tck: clk_tck as f64,
        })
    }

    fn now(&self) -> Result<f64, String> {
        Ok(cpu_seconds("self", self.clk_tck)? + cpu_seconds(&self.server_pid, self.clk_tck)?)
    }
}

/// The fixed start schedule of a paced loop.
struct Pacer {
    period: Duration,
    next: Instant,
    warm_end: Instant,
    end: Instant,
}

impl Pacer {
    fn new(args: &Args, period: Duration) -> Result<Pacer, String> {
        let seconds = Duration::from_secs_f64(args.num("seconds")?);
        let start = Instant::now();
        Ok(Pacer {
            period,
            next: start,
            warm_end: start + WARMUP,
            end: start + WARMUP + seconds,
        })
    }

    /// Waits for the next slot; `None` once the run is over, otherwise
    /// whether the operation about to start is timed.
    fn wait(&mut self) -> Option<bool> {
        let now = Instant::now();
        if now >= self.end {
            return None;
        }
        if now < self.next {
            sleep(self.next - now);
        }
        let started = Instant::now();
        while self.next <= started {
            self.next += self.period;
        }
        Some(started >= self.warm_end)
    }
}

/// `warm-replay`: cold worker sessions against a warm `dri-serve`, each
/// resolving the whole campaign. Every `POINT_EVERY`-th session (the
/// seed picks the phase) resolves record by record — 105 `GET`s, each on
/// a fresh connection, in a seed-shuffled order; the rest take the
/// default batch prefetch, one `POST /batch`.
pub fn replay(args: &Args) -> Result<Json, String> {
    let addr = args.str("addr")?;
    let campaign = Campaign::quick()?;
    let reference = campaign.reference(args.str("reference")?)?;
    let mut rng = Rng::new(args.num("seed")?);
    let phase = rng.next_u64() % POINT_EVERY;
    let mut order: Vec<usize> = (0..campaign.records.len()).collect();
    let meter = CpuMeter::new(args)?;
    let mut pacer = Pacer::new(args, REPLAY_PERIOD)?;
    let mut cpu_start = None;

    let (mut batch_ms, mut point_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut simulations, mut workload_gens) = (0u64, 0u64, 0u64, 0u64);
    let (mut round_trips, mut records) = (0u64, 0u64);
    let mut iteration = 0u64;
    while let Some(timed) = pacer.wait() {
        if timed && cpu_start.is_none() {
            cpu_start = Some(meter.now()?);
        }
        let per_record = iteration % POINT_EVERY == phase;
        iteration += 1;
        if per_record {
            rng.shuffle(&mut order);
        }
        let started = Instant::now();
        let session = SimSession::builder().remote(RemoteStore::new(addr)).build();
        let runs: Vec<Run> = if per_record {
            let mut slots: Vec<Option<Run>> = campaign.records.iter().map(|_| None).collect();
            for &r in &order {
                slots[r] = Some(resolve(&session, &campaign.records[r]));
            }
            slots.into_iter().flatten().collect()
        } else {
            session.prefetch(&campaign.grid);
            campaign
                .records
                .iter()
                .map(|r| resolve(&session, r))
                .collect()
        };
        let elapsed = started.elapsed();

        let stats = session.stats();
        let remote = session.remote_stats().unwrap_or_default();
        let identical = runs.len() == reference.len()
            && runs
                .iter()
                .zip(&reference)
                .all(|(run, want)| run.encode() == *want);
        // A degraded tier can still return correct records (a failed
        // batch falls back to per-record GETs), so the exchange count is
        // checked too: one POST /batch, or one GET per record.
        let exchanges = if per_record {
            reference.len() as u64
        } else {
            1
        };
        attempted += 1;
        if stats.simulations() > 0 || !identical || remote.requests != exchanges {
            failed += 1;
        }
        simulations += stats.simulations();
        workload_gens += stats.workload_misses;
        if timed {
            if per_record {
                point_ms.push(ms(elapsed));
            } else {
                batch_ms.push(ms(elapsed));
                // Per batch session only, so the count is exact whatever
                // the mix of sessions in the timed window.
                round_trips += remote.requests;
            }
            records += runs.len() as u64;
        }
    }
    let cpu_s = meter.now()? - cpu_start.unwrap_or(0.0);
    let mut json = Json::new();
    json.list("batch_ms", &batch_ms)
        .list("point_ms", &point_ms)
        .num("cpu_s", cpu_s)
        .int("records", records)
        .int("attempted", attempted)
        .int("failed", failed)
        .int("simulations", simulations)
        .int("workload_gens", workload_gens)
        .int("round_trips", round_trips);
    Ok(json)
}

/// `push-fill`: campaign-shaped writes as `push_grid` sends them — one
/// `POST /batch-put` of one benchmark's 7 real encoded records at a
/// time, 15 per campaign — each record under a fresh key drawn from the
/// seed, so the server can never deduplicate a repeated write. After the
/// loop every pushed record is read back and compared byte for byte, and
/// the campaign is pushed once more under its real keys.
pub fn push(args: &Args) -> Result<Json, String> {
    let remote = RemoteStore::with_token(args.str("addr")?, Some(args.str("token")?.to_owned()));
    let campaign = Campaign::quick()?;
    let reference = campaign.reference(args.str("reference")?)?;
    let benchmarks = campaign.records.last().map_or(0, |r| r.benchmark + 1);
    let mut rng = Rng::new(args.num("seed")?);
    let meter = CpuMeter::new(args)?;
    let mut pacer = Pacer::new(args, PUSH_PERIOD)?;
    let mut cpu_start = None;

    let mut batch_ms = Vec::new();
    let (mut attempted, mut failed, mut records, mut round_trips) = (0u64, 0u64, 0u64, 0u64);
    // (record index, key) of every push, for the read-back.
    let mut pushed: Vec<(usize, u128)> = Vec::new();
    let mut iteration = 0usize;
    while let Some(timed) = pacer.wait() {
        if timed && cpu_start.is_none() {
            cpu_start = Some(meter.now()?);
        }
        let benchmark = iteration % benchmarks;
        iteration += 1;
        let batch: Vec<(usize, u128, Vec<u8>)> = campaign
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.benchmark == benchmark)
            .map(|(i, _)| {
                let key = rng.next_u128();
                (
                    i,
                    key,
                    dri_store::frame_record(SCHEMA_VERSION, key, &reference[i]),
                )
            })
            .collect();
        let entries: Vec<(&str, u32, u128, &[u8])> = batch
            .iter()
            .map(|(i, key, framed)| {
                (
                    campaign.records[*i].kind,
                    SCHEMA_VERSION,
                    *key,
                    framed.as_slice(),
                )
            })
            .collect();
        let started = Instant::now();
        let (outcomes, trips) = remote.push_batch(&entries);
        let elapsed = started.elapsed();
        attempted += 1;
        if outcomes.len() != entries.len() || outcomes.iter().any(|o| *o != PushOutcome::Accepted) {
            failed += 1;
        }
        pushed.extend(batch.iter().map(|(i, key, _)| (*i, *key)));
        if timed {
            batch_ms.push(ms(elapsed));
            records += entries.len() as u64;
            round_trips += trips;
        }
    }
    let cpu_s = meter.now()? - cpu_start.unwrap_or(0.0);

    let wanted: Vec<(&str, u32, u128)> = pushed
        .iter()
        .map(|&(i, key)| (campaign.records[i].kind, SCHEMA_VERSION, key))
        .collect();
    // Read back one campaign's worth at a time, so the server's peak
    // memory does not grow with the number of records the run pushed.
    let readback_failed = remote
        .fetch_batch_chunked(&wanted, reference.len())
        .into_iter()
        .zip(&pushed)
        .filter(|(got, &(i, _))| got.as_deref() != Some(reference[i].as_slice()))
        .count() as u64;

    // Last, the campaign itself under its real keys, batch by batch as
    // above, so a cold `suite figure3` can replay it from this server and
    // prove the written records usable, not just byte-equal.
    let mut campaign_failed = 0u64;
    for benchmark in 0..benchmarks {
        let framed: Vec<(usize, Vec<u8>)> = campaign
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.benchmark == benchmark)
            .map(|(i, r)| (i, dri_store::frame_record(SCHEMA_VERSION, r.key, &reference[i])))
            .collect();
        let entries: Vec<(&str, u32, u128, &[u8])> = framed
            .iter()
            .map(|(i, bytes)| {
                let r = &campaign.records[*i];
                (r.kind, SCHEMA_VERSION, r.key, bytes.as_slice())
            })
            .collect();
        let (outcomes, _) = remote.push_batch(&entries);
        if outcomes.len() != entries.len() || outcomes.iter().any(|o| *o != PushOutcome::Accepted) {
            campaign_failed += 1;
        }
    }
    let mut json = Json::new();
    json.list("batch_ms", &batch_ms)
        .num("cpu_s", cpu_s)
        .int("records", records)
        .int("pushed", (pushed.len() + reference.len()) as u64)
        .int("attempted", attempted + 1 + benchmarks as u64)
        .int("failed", failed + u64::from(readback_failed > 0) + campaign_failed)
        .int("round_trips", round_trips);
    Ok(json)
}
