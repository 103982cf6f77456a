//! A background sampler thread over a [`MetricsRegistry`].
//!
//! The monitor snapshots a shared registry on a fixed period and
//! hands each [`MonitorSample`] to a caller-supplied callback — the
//! harness uses this to render live progress to stderr and to append
//! `monitor` events to `harness.jsonl` while a long experiment sweep
//! runs. Sampling is strictly read-only: the monitored computation
//! never blocks on the monitor (registry reads are atomic loads under
//! a briefly-held registration mutex), and stopping the monitor
//! always delivers one final sample so short runs still record their
//! end state.
//!
//! The same invariant as every other observer in this crate applies:
//! the monitor must not perturb the experiment. It shares no state
//! with the simulation beyond the registry it reads, so every
//! simulated statistic is bit-identical with the monitor on or off.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// One periodic (or final) observation of a [`MetricsRegistry`].
#[derive(Clone, Debug)]
pub struct MonitorSample {
    /// Sample sequence number, starting at 0.
    pub seq: u64,
    /// Milliseconds since the monitor started.
    pub elapsed_ms: u64,
    /// True for the one sample taken while stopping.
    pub last: bool,
    /// The registry contents at sample time.
    pub snapshot: MetricsSnapshot,
}

/// A running sampler thread. Dropping a `Monitor` without calling
/// [`Monitor::stop`] also stops the thread, but discards the final
/// sample's outcome (the callback still runs).
pub struct Monitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<u64>>,
    /// Signalled once the sampler thread has made its first allocation;
    /// taken by the first [`Monitor::wait_started`].
    started: Mutex<Option<Receiver<()>>>,
}

impl Monitor {
    /// Spawns a sampler over `registry`, invoking `on_sample` every
    /// `period` until stopped. The period is polled in small slices so
    /// [`Monitor::stop`] returns promptly even with long periods.
    pub fn spawn(
        registry: Arc<MetricsRegistry>,
        period: Duration,
        mut on_sample: impl FnMut(&MonitorSample) + Send + 'static,
    ) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let (started_tx, started_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let handle = std::thread::Builder::new()
            .name("ccr-monitor".to_string())
            .spawn(move || {
                // The first allocation binds a thread to a malloc
                // arena. See `wait_started`.
                drop(std::hint::black_box(Box::new(0u64)));
                let _ = started_tx.send(());
                let started = Instant::now();
                let slice = period
                    .min(Duration::from_millis(20))
                    .max(Duration::from_millis(1));
                let mut seq = 0u64;
                let mut next = started + period;
                while !stop_flag.load(Ordering::Relaxed) {
                    if Instant::now() >= next {
                        on_sample(&MonitorSample {
                            seq,
                            elapsed_ms: started.elapsed().as_millis() as u64,
                            last: false,
                            snapshot: registry.snapshot(),
                        });
                        seq += 1;
                        next += period;
                    }
                    std::thread::sleep(slice);
                }
                // The stopping sample: short runs (under one period)
                // still observe their end state exactly once.
                on_sample(&MonitorSample {
                    seq,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                    last: true,
                    snapshot: registry.snapshot(),
                });
                seq + 1
            })
            .expect("spawn monitor thread");
        Monitor {
            stop,
            handle: Some(handle),
            started: Mutex::new(Some(started_rx)),
        }
    }

    /// Blocks until the sampler thread has started and allocated (at
    /// most once; later calls return at once). Call it before starting
    /// worker threads: a thread takes a malloc arena at its first
    /// allocation, and a sampler that allocates only at its first
    /// sample would race those workers for the arenas earlier workers
    /// released. A worker that wins the sampler's arena grows it to its
    /// own high-water mark, and peak memory with it.
    pub fn wait_started(&self) {
        let started = self.started.lock().expect("monitor start lock").take();
        if let Some(rx) = started {
            let _ = rx.recv();
        }
    }

    /// Stops the sampler, waits for its final sample, and returns the
    /// total number of samples delivered (always at least 1).
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("monitor joined once")
            .join()
            .expect("monitor thread panicked")
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn stop_always_delivers_a_final_sample() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter_add("n", 7);
        let seen: Arc<Mutex<Vec<MonitorSample>>> = Arc::default();
        let sink = Arc::clone(&seen);
        // A one-hour period: only the stopping sample can fire.
        let mon = Monitor::spawn(Arc::clone(&reg), Duration::from_secs(3600), move |s| {
            sink.lock().unwrap().push(s.clone());
        });
        reg.counter_add("n", 1);
        let samples = mon.stop();
        assert_eq!(samples, 1);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen[0].last);
        assert_eq!(seen[0].seq, 0);
        assert_eq!(seen[0].snapshot.counter("n"), 8, "end state observed");
    }

    #[test]
    fn periodic_samples_observe_live_counters() {
        let reg = Arc::new(MetricsRegistry::new());
        let seen: Arc<Mutex<Vec<(u64, u64, bool)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let mon = Monitor::spawn(Arc::clone(&reg), Duration::from_millis(5), move |s| {
            sink.lock()
                .unwrap()
                .push((s.seq, s.snapshot.counter("work"), s.last));
        });
        let c = reg.counter("work");
        for _ in 0..20 {
            c.inc();
            std::thread::sleep(Duration::from_millis(1));
        }
        let samples = mon.stop();
        let seen = seen.lock().unwrap();
        assert_eq!(samples as usize, seen.len());
        assert!(seen.len() >= 2, "several periods elapsed: {seen:?}");
        // Sequence numbers are consecutive, exactly one final sample,
        // and the observed counter is monotone non-decreasing.
        for (i, (seq, _, last)) in seen.iter().enumerate() {
            assert_eq!(*seq as usize, i);
            assert_eq!(*last, i == seen.len() - 1);
        }
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1), "{seen:?}");
        assert_eq!(seen.last().unwrap().1, 20);
    }

    #[test]
    fn dropping_a_monitor_stops_its_thread() {
        let reg = Arc::new(MetricsRegistry::new());
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let mon = Monitor::spawn(reg, Duration::from_secs(3600), move |_| {
            flag.store(true, Ordering::Relaxed);
        });
        drop(mon); // joins; the final sample runs on the way out
        assert!(fired.load(Ordering::Relaxed));
    }
}
