//! `serve-mixed`: `ccr serve --jobs 1 --no-store` children driven
//! closed-loop by two client threads through the public
//! `ccr::serve::Client::submit_and_wait`. Exactly 80% of requests
//! repeat a point (result-cache hits); the rest are fresh points.
//!
//! A run is a sequence of epochs. Each epoch spawns a fresh server and
//! sends it a fixed number of requests from the seed's stream for that
//! epoch, so the hit/miss mix stays the same however long the run is
//! (one long session would run out of fresh points and turn into pure
//! hits).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccr::serve::{Bind, Client};

use crate::report::{median, peak_rss_mb, quantile, HarnessLog, Outcome};
use crate::stream::{Point, RequestStream, BLOCK};
use crate::trace::{root_tallies, Tracer};
use crate::Run;

/// Closed-loop clients (= hardware threads of the reference host).
pub const CLIENTS: usize = 2;
/// Requests each client sends per epoch: 13 blocks, so 13 fresh points,
/// which name every workload once (see `RequestStream`). Every epoch
/// then compiles and simulates the same mix of workloads.
pub const EPOCH_REQUESTS: usize = ccr_workloads::NAMES.len() * BLOCK;
/// A run makes at least this many requests, so that p95 has ten
/// samples beyond it.
pub const MIN_REQUESTS: usize = 200;
/// Server spawns timed per run at least; the median is the set-up time.
const SETUP_REPS: usize = 15;
/// An epoch stops early past this, whatever it has done.
const EPOCH_CAP: Duration = Duration::from_secs(60);

/// A running server child. Dropping it kills the child and waits.
pub struct Server {
    child: Child,
    bind: Bind,
    log: PathBuf,
    stderr: PathBuf,
}

impl Server {
    /// Spawns a server and waits until it accepts a connection;
    /// returns it with the time that took.
    pub fn spawn(run: &Run, tag: &str) -> Result<(Server, f64), String> {
        let stem = format!("serve-{}-{}-{tag}", std::process::id(), run.seed);
        // Relative: the socket path must stay short, and client and
        // server share the working directory.
        let sock = run.out_rel.join(format!("{stem}.sock"));
        let _ = std::fs::remove_file(&sock);
        let log = run.out.join(format!("{stem}.jsonl"));
        let stderr = run.out.join(format!("{stem}.stderr"));
        let err_file =
            std::fs::File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let start = Instant::now();
        // The server looks up its git commit; keep that lookup from
        // searching above the repository root.
        let ceiling = run.root.parent().unwrap_or(&run.root);
        let child = Command::new(&run.ccr)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .arg("serve")
            .arg("--socket")
            .arg(&sock)
            .args(["--jobs", "1", "--no-store", "--harness-out"])
            .arg(&log)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("{}: {e}", run.ccr.display()))?;
        let mut server = Server {
            child,
            bind: Bind::Unix(sock),
            log,
            stderr,
        };
        loop {
            if Client::connect(&server.bind).is_ok() {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("ccr serve exited early ({status})"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("ccr serve did not accept within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set size of the server process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to drain and exit, and waits for it.
    pub fn shutdown(mut self) -> Result<ServerLogs, String> {
        Client::connect(&self.bind)?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                if !status.success() {
                    return Err(format!("ccr serve exited with {status}"));
                }
                break;
            }
            if Instant::now() > deadline {
                return Err("ccr serve did not exit within 30 s of shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stderr = std::fs::read_to_string(&self.stderr).unwrap_or_default();
        let _ = std::fs::remove_file(&self.stderr);
        Ok(ServerLogs {
            log: HarnessLog::take(&self.log),
            compile_cache: parse_compile_cache(&stderr),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Bind::Unix(sock) = &self.bind {
            let _ = std::fs::remove_file(sock);
        }
    }
}

/// What a server leaves behind after shutdown.
pub struct ServerLogs {
    /// Its `--harness-out` event log.
    pub log: HarnessLog,
    /// Compile-cache (hits, misses) from its exit summary.
    pub compile_cache: (u64, u64),
}

/// Reads `compile cache: H hit(s), M miss(es)` off the server's exit
/// summary on stderr.
fn parse_compile_cache(stderr: &str) -> (u64, u64) {
    let Some(tail) = stderr
        .rsplit("compile cache: ")
        .next()
        .filter(|_| stderr.contains("compile cache: "))
    else {
        return (0, 0);
    };
    let nums: Vec<u64> = tail
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .take(2)
        .filter_map(|s| s.parse().ok())
        .collect();
    (
        nums.first().copied().unwrap_or(0),
        nums.get(1).copied().unwrap_or(0),
    )
}

/// One completed request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Submit to done, ms.
    pub latency_ms: f64,
    /// The server's own wall time for it, ms.
    pub server_ms: f64,
    /// Whether the stream marked it a repeat.
    pub repeat: bool,
}

/// What one client thread of an epoch brings back.
struct ClientTally {
    samples: Vec<Sample>,
    refused: u64,
    mismatched: u64,
}

/// One finished epoch.
pub struct Epoch {
    /// Completed requests.
    pub samples: Vec<Sample>,
    /// Spawn until the server accepted a connection, s.
    pub setup_s: f64,
    /// First submit to last reply, s.
    pub wall_s: f64,
    /// Requests refused or failed server-side.
    pub refused: u64,
    /// Replies that differed from the first reply to the same point.
    pub mismatched: u64,
    /// Server peak RSS, MiB.
    pub peak_rss_mb: f64,
    /// Server logs after shutdown.
    pub logs: ServerLogs,
    /// Cumulative result-cache (hits, misses) at the last reply.
    pub result_cache: (u64, u64),
}

/// First reply text per point, across every epoch of the run.
type Replies = Mutex<HashMap<Point, String>>;

/// Runs epoch `index` on a fresh server.
fn epoch(
    run: &Run,
    index: usize,
    tag: &str,
    t: &Tracer,
    replies: &Replies,
) -> Result<Epoch, String> {
    let (server, setup_s) = Server::spawn(run, &format!("{tag}{index}"))?;
    let cache = Mutex::new((0u64, 0u64));
    let start = Instant::now();
    let per_client: Vec<Result<ClientTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cache, bind) = (&cache, &server.bind);
                scope.spawn(move || {
                    let mut client = Client::connect(bind)?;
                    let (mut samples, mut refused, mut mismatched) = (Vec::new(), 0, 0);
                    let req_base = ((index * CLIENTS + c) * EPOCH_REQUESTS) as u64;
                    let root = t.begin("bench.client", Tracer::ROOT, req_base, false);
                    let stream = RequestStream::new(run.seed, index, c, CLIENTS);
                    for (seq, (point, repeat)) in stream.take(EPOCH_REQUESTS).enumerate() {
                        if start.elapsed() > EPOCH_CAP {
                            break;
                        }
                        let sent = Instant::now();
                        let reply = t.span(
                            "serve.submit_and_wait",
                            root,
                            req_base + seq as u64,
                            false,
                            |_| client.submit_and_wait(&point.request()),
                        );
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let reply = match reply {
                            Ok(r) => r,
                            Err(e) => {
                                eprintln!("serve-mixed: {point:?}: {e}");
                                refused += 1;
                                continue;
                            }
                        };
                        {
                            let mut cache = cache.lock().expect("cache counters");
                            if reply.cache_hits + reply.cache_misses >= cache.0 + cache.1 {
                                *cache = (reply.cache_hits, reply.cache_misses);
                            }
                        }
                        let mut replies = replies.lock().expect("reply map");
                        let first = replies.entry(point).or_insert_with(|| reply.text.clone());
                        if *first != reply.text {
                            eprintln!("serve-mixed: {point:?}: reply differs from the first one");
                            mismatched += 1;
                        }
                        samples.push(Sample {
                            latency_ms,
                            server_ms: reply.wall_ms as f64,
                            repeat,
                        });
                    }
                    t.end(root);
                    Ok(ClientTally {
                        samples,
                        refused,
                        mismatched,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = server.peak_rss_mb();
    let logs = server.shutdown()?;
    let mut e = Epoch {
        samples: Vec::new(),
        setup_s,
        wall_s,
        refused: 0,
        mismatched: 0,
        peak_rss_mb,
        logs,
        result_cache: cache.into_inner().expect("cache counters"),
    };
    for r in per_client {
        let tally = r?;
        e.samples.extend(tally.samples);
        e.refused += tally.refused;
        e.mismatched += tally.mismatched;
    }
    Ok(e)
}

/// Epochs `0..` for about `seconds`, and at least `min` epochs and
/// [`MIN_REQUESTS`] requests; counted into `o` and logged per request
/// under `tag`.
fn epochs(
    run: &Run,
    tag: &str,
    t: &Tracer,
    seconds: Duration,
    min: usize,
    replies: &Replies,
    o: &mut Outcome,
) -> Result<Vec<Epoch>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    let requests = |es: &[Epoch]| es.iter().map(|e| e.samples.len()).sum::<usize>();
    while out.len() < min.max(1)
        || crate::another_round(start, last, seconds)
        || requests(&out) < MIN_REQUESTS
    {
        let round = Instant::now();
        out.push(epoch(run, out.len(), tag, t, replies)?);
        last = round.elapsed();
    }
    let path = run.out.join(format!("requests-{}-{tag}.csv", run.seed));
    let mut csv = String::from("epoch,latency_ms,server_ms,repeat\n");
    for (i, e) in out.iter().enumerate() {
        o.count(e.samples.len() as u64 + e.refused, e.refused + e.mismatched);
        for x in &e.samples {
            csv.push_str(&format!(
                "{i},{},{},{}\n",
                x.latency_ms, x.server_ms, x.repeat
            ));
        }
    }
    if let Err(e) = std::fs::write(&path, csv) {
        eprintln!("serve-mixed: {}: {e}", path.display());
    }
    let n: usize = out.iter().map(|e| e.samples.len()).sum();
    let repeats = out
        .iter()
        .flat_map(|e| &e.samples)
        .filter(|x| x.repeat)
        .count();
    eprintln!(
        "serve-mixed ({tag}): {} epoch(s), {n} request(s), {repeats} repeat(s)",
        out.len()
    );
    Ok(out)
}

fn latencies(es: &[Epoch]) -> Vec<f64> {
    es.iter()
        .flat_map(|e| e.samples.iter().map(|x| x.latency_ms))
        .collect()
}

fn per(es: &[Epoch], f: impl Fn(&Epoch) -> f64) -> f64 {
    median(&es.iter().map(f).collect::<Vec<_>>())
}

/// Untraced: epochs until the run's time is up.
pub fn run(run: &Run, o: &mut Outcome) -> Result<(), String> {
    let replies = Replies::default();
    let es = epochs(
        run,
        "plain",
        &Tracer::new(false),
        run.seconds,
        1,
        &replies,
        o,
    )?;
    let mut setups: Vec<f64> = es.iter().map(|e| e.setup_s).collect();
    while setups.len() < SETUP_REPS {
        let (server, secs) = Server::spawn(run, &format!("setup{}", setups.len()))?;
        setups.push(secs);
        server.shutdown()?;
    }
    let lat = latencies(&es);
    let wall: f64 = es.iter().map(|e| e.wall_s).sum();
    let (cycles, sim_ms) = es.iter().fold((0, 0), |(c, m), e| {
        (c + e.logs.log.sim_cycles, m + e.logs.log.sim_ms)
    });
    o.metric("setup_s", median(&setups), "s");
    o.metric("wall_s", per(&es, |e| e.wall_s), "s");
    o.metric(
        "compile_s",
        per(&es, |e| e.logs.log.compile_ms as f64 / 1e3),
        "s",
    );
    o.metric(
        "sim_mcyc_per_s",
        cycles as f64 / (sim_ms as f64 / 1e3) / 1e6,
        "Mcyc/s",
    );
    o.metric("points_per_s", lat.len() as f64 / wall, "1/s");
    o.metric("req_p50_ms", quantile(&lat, 0.5), "ms");
    o.metric("req_p95_ms", quantile(&lat, 0.95), "ms");
    o.metric("peak_rss_mb", per(&es, |e| e.peak_rss_mb), "MiB");
    Ok(())
}

/// Traced: untraced epochs for half the run's time, then as many traced
/// epochs with the same request streams, so their latencies compare.
pub fn run_traced(run: &Run, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
    let replies = Replies::default();
    let off = Tracer::new(false);
    let plain = epochs(run, "plain", &off, run.seconds / 2, 1, &replies, o)?;
    let traced = epochs(run, "traced", t, Duration::ZERO, plain.len(), &replies, o)?;

    let es = &plain;
    o.metric(
        "engine.compile_hits",
        per(es, |e| e.logs.compile_cache.0 as f64),
        "count",
    );
    o.metric(
        "engine.compile_misses",
        per(es, |e| e.logs.compile_cache.1 as f64),
        "count",
    );
    o.metric(
        "engine.profile_runs_per_key",
        per(es, |e| {
            e.logs.compile_cache.1 as f64 / e.logs.log.compile_workloads.len().max(1) as f64
        }),
        "ratio",
    );
    o.metric(
        "engine.result_hit_ratio",
        per(es, |e| {
            e.result_cache.0 as f64 / (e.result_cache.0 + e.result_cache.1).max(1) as f64
        }),
        "ratio",
    );
    o.metric(
        "engine.compile_busy_ms",
        per(es, |e| e.logs.log.compile_busy_ns as f64 / 1e6),
        "ms",
    );
    o.metric(
        "engine.sim_busy_ms",
        per(es, |e| e.logs.log.sim_busy_ns as f64 / 1e6),
        "ms",
    );
    o.metric(
        "engine.pool_util_pct",
        per(es, |e| e.logs.log.pool_util_pct()),
        "%",
    );
    // Means: a hit's server time reads 0 at the reply's ms resolution.
    let samples: Vec<&Sample> = es.iter().flat_map(|e| &e.samples).collect();
    let n = samples.len().max(1) as f64;
    let server: f64 = samples.iter().map(|x| x.server_ms).sum();
    let wait: f64 = samples.iter().map(|x| x.latency_ms - x.server_ms).sum();
    o.metric("serve.server_ms", server / n, "ms");
    o.metric("serve.wait_ms", wait / n, "ms");
    o.metric(
        "serve.refused",
        es.iter().map(|e| e.refused as f64).sum(),
        "count",
    );

    let mean = |es: &[Epoch]| {
        let lat = latencies(es);
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    };
    o.metric(
        "trace.overhead_pct",
        100.0 * (mean(&traced) - mean(&plain)) / mean(&plain),
        "%",
    );
    let tallies = root_tallies(&t.spans(), "bench.client");
    let roots: u64 = tallies.iter().map(|r| r.wall_ns).sum();
    let layers: u64 = tallies.iter().map(|r| r.layer_ns).sum();
    o.metric(
        "trace.accounted_pct",
        100.0 * layers as f64 / roots.max(1) as f64,
        "%",
    );
    Ok(())
}
