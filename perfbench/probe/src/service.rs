//! The service layer probe: times the public store, persist, serve and
//! client calls in isolation, on real campaign records, with every file
//! under `--scratch` (a tmpfs mount) and every request against the
//! running `dri-serve` at `--addr`, which holds the seeded campaign.
//! Each timing is the median over several rounds.

use std::hint::black_box;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::Instant;

use dri_experiments::persist::{self, BASELINE_KIND, SCHEMA_VERSION};
use dri_experiments::{RemoteStore, ResultStore, SimSession};
use dri_serve::http::RequestParser;
use dri_serve::{auth, BATCH_CHUNK};
use dri_store::compress::{compress, decompress};
use dri_store::{decode_record, frame_record, HashRing, Journal, JournalEntry, JournalOptions};

use crate::campaign::Campaign;
use crate::out::{median, Json};
use crate::Args;

const ROUNDS: usize = 7;

/// Median over `ROUNDS` of the time one round takes, divided by the
/// `calls` each round makes, in seconds.
fn per_call(calls: usize, mut round: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            round();
            started.elapsed().as_secs_f64() / calls.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// Median of single timed calls, in seconds.
fn each(samples: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|i| {
            let started = Instant::now();
            call(i);
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// The `POST /batch-put` body the client frames for `records`.
fn batch_put_body(records: &[(&str, u128, Vec<u8>)]) -> Vec<u8> {
    let mut body = Vec::new();
    for (kind, key, framed) in records {
        body.push(kind.len() as u8);
        body.extend_from_slice(kind.as_bytes());
        body.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(&(framed.len() as u64).to_le_bytes());
        body.extend_from_slice(framed);
    }
    body
}

pub fn run(args: &Args) -> Result<Json, String> {
    let addr = args.str("addr")?;
    let scratch = Path::new(args.str("scratch")?);
    let campaign = Campaign::quick()?;
    let payloads = campaign.reference(args.str("reference")?)?;
    let records = &campaign.records;
    let n = records.len();
    let framed: Vec<Vec<u8>> = records
        .iter()
        .zip(&payloads)
        .map(|(r, p)| frame_record(SCHEMA_VERSION, r.key, p))
        .collect();
    let mut failed = 0u64;
    let mut json = Json::new();

    // persist: decode and encode every record payload.
    let decode = per_call(n * 20, || {
        for _ in 0..20 {
            for (r, p) in records.iter().zip(&payloads) {
                if r.kind == BASELINE_KIND {
                    black_box(persist::decode_conventional(black_box(p)));
                } else {
                    black_box(persist::decode_dri(black_box(p)));
                }
            }
        }
    });
    let conventional: Vec<_> = payloads
        .iter()
        .map(|p| persist::decode_conventional(p))
        .collect();
    let dri: Vec<_> = payloads.iter().map(|p| persist::decode_dri(p)).collect();
    let encode = per_call(n * 20, || {
        for _ in 0..20 {
            for (c, d) in conventional.iter().zip(&dri) {
                match (c, d) {
                    (Some(c), _) => black_box(persist::encode_conventional(black_box(c))),
                    (None, Some(d)) => black_box(persist::encode_dri(black_box(d))),
                    (None, None) => Vec::new(),
                };
            }
        }
    });
    json.num("experiments.decode_ns_per_record", decode * 1e9)
        .num("experiments.encode_ns_per_record", encode * 1e9);

    // store: record validation, compression, and disk-tier I/O on tmpfs.
    let validate = per_call(n * 20, || {
        for _ in 0..20 {
            for (r, f) in records.iter().zip(&framed) {
                black_box(decode_record(black_box(f), SCHEMA_VERSION, r.key));
            }
        }
    });
    let packed: Vec<Vec<u8>> = payloads.iter().map(|p| compress(p)).collect();
    let compress_time = per_call(n * 20, || {
        for _ in 0..20 {
            for p in &payloads {
                black_box(compress(black_box(p)));
            }
        }
    });
    let decompress_time = per_call(n * 20, || {
        for _ in 0..20 {
            for (c, p) in packed.iter().zip(&payloads) {
                black_box(decompress(black_box(c), p.len()));
            }
        }
    });
    let raw_bytes: usize = payloads.iter().map(Vec::len).sum();
    let packed_bytes: usize = packed.iter().map(Vec::len).sum();
    if packed
        .iter()
        .zip(&payloads)
        .any(|(c, p)| decompress(c, p.len()).as_deref() != Some(p.as_slice()))
    {
        failed += 1;
    }
    let store =
        ResultStore::open(scratch.join("store")).map_err(|e| format!("scratch store: {e}"))?;
    let save = per_call(n, || {
        for (r, p) in records.iter().zip(&payloads) {
            store.save(r.kind, SCHEMA_VERSION, r.key, p);
        }
    });
    let load = per_call(n, || {
        for r in records {
            black_box(store.load(r.kind, SCHEMA_VERSION, r.key));
        }
    });
    if records
        .iter()
        .zip(&payloads)
        .any(|(r, p)| store.load(r.kind, SCHEMA_VERSION, r.key).as_ref() != Some(p))
    {
        failed += 1;
    }
    let journal = Journal::open(&scratch.join("journal"), JournalOptions::default())
        .map_err(|e| format!("scratch journal: {e}"))?;
    let batches: Vec<Vec<JournalEntry>> = (0..=records.last().map_or(0, |r| r.benchmark))
        .map(|b| {
            records
                .iter()
                .zip(&payloads)
                .filter(|(r, _)| r.benchmark == b)
                .map(|(r, p)| JournalEntry {
                    kind: r.kind.to_owned(),
                    schema: SCHEMA_VERSION,
                    key: r.key,
                    payload: p.clone(),
                })
                .collect()
        })
        .collect();
    let append = per_call(batches.len(), || {
        for batch in &batches {
            if journal.append_batch(batch.clone()).is_err() {
                failed += 1;
            }
        }
    });
    let ring = HashRing::new([addr], 1)?;
    let route = per_call(n * 100, || {
        for _ in 0..100 {
            for r in records {
                black_box(ring.owner_indices(black_box(r.key)));
            }
        }
    });
    json.num("store.validate_ns", validate * 1e9)
        .num("store.compress_ns", compress_time * 1e9)
        .num("store.decompress_ns", decompress_time * 1e9)
        .num(
            "store.compress_ratio",
            packed_bytes as f64 / raw_bytes.max(1) as f64,
        )
        .num("store.save_us", save * 1e6)
        .num("store.load_us", load * 1e6)
        .num("store.journal_append_us", append * 1e6)
        .num("store.ring_route_ns", route * 1e9);

    // serve: request parsing and request signing, in process.
    let first = &records[0];
    let request = format!(
        "GET /record/{}/v{SCHEMA_VERSION}/{:032x} HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: 0\r\nConnection: close\r\n\r\n",
        first.kind, first.key
    );
    let parse = per_call(20_000, || {
        for _ in 0..20_000 {
            let mut parser = RequestParser::new();
            black_box(parser.feed(black_box(request.as_bytes())).ok());
        }
    });
    let seven: Vec<(&str, u128, Vec<u8>)> = records
        .iter()
        .zip(&framed)
        .filter(|(r, _)| r.benchmark == 0)
        .map(|(r, f)| (r.kind, r.key, f.clone()))
        .collect();
    let body = batch_put_body(&seven);
    let sign = per_call(2_000, || {
        for _ in 0..2_000 {
            black_box(auth::sign(
                "perfbench",
                "POST",
                "/batch-put",
                black_box(&body),
            ));
        }
    });
    json.num("serve.parse_ns", parse * 1e9)
        .num("serve.auth_sign_ns", sign * 1e9);

    // Client calls against the live server: connect, one fetch, one
    // batch fetch of the campaign, and a cold session's prefetch.
    let socket = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))?;
    let connect = each(40, |_| {
        if TcpStream::connect(socket).is_err() {
            failed += 1;
        }
    });
    let remote = RemoteStore::new(addr);
    let fetch = each(40, |i| {
        let r = &records[i % n];
        if remote.fetch(r.kind, SCHEMA_VERSION, r.key).as_ref() != Some(&payloads[i % n]) {
            failed += 1;
        }
    });
    let refs: Vec<(&str, u32, u128)> = records
        .iter()
        .map(|r| (r.kind, SCHEMA_VERSION, r.key))
        .collect();
    let batch_remote = RemoteStore::new(addr);
    let fetch_batch = each(15, |_| {
        let got = batch_remote.fetch_batch_chunked(&refs, BATCH_CHUNK);
        if got
            .iter()
            .zip(&payloads)
            .any(|(g, p)| g.as_ref() != Some(p))
        {
            failed += 1;
        }
    });
    let batch_stats = batch_remote.stats();
    let prefetch = each(10, |_| {
        let session = SimSession::builder().remote(RemoteStore::new(addr)).build();
        let report = session.prefetch(&campaign.grid);
        if report.remote_hits as usize != n {
            failed += 1;
        }
    });
    json.num("serve.connect_us", connect * 1e6)
        .num("client.fetch_us", fetch * 1e6)
        .num("client.fetch_batch_ms", fetch_batch * 1e3)
        .num("experiments.prefetch_ms", prefetch * 1e3)
        .num(
            "serve.bytes_per_record",
            batch_stats.bytes_fetched as f64 / batch_stats.hits.max(1) as f64,
        )
        .int("attempted", 1)
        .int("failed", failed);
    Ok(json)
}
