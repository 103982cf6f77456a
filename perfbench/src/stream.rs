//! Seeded input generation. The benchmark owns the seed; the program
//! under test only ever sees the generated workload order and request
//! stream, so the same seed always drives the same inputs.

use ccr_workloads::{InputSet, NAMES};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so independent
    /// streams of the same seed do not share a sequence.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The workload order of one cold-suite pass.
pub fn suite_order(seed: u64, pass: usize) -> Vec<&'static str> {
    let mut order = NAMES.to_vec();
    Rng::new(seed, &format!("suite-cold/pass{pass}")).shuffle(&mut order);
    order
}

/// CRB entry counts a served point draws from.
pub const ENTRIES: [usize; 4] = [16, 32, 64, 128];
/// CRB computation-instance counts a served point draws from.
pub const INSTANCES: [usize; 4] = [2, 4, 8, 16];
/// A client's requests come in blocks of this many: one fresh point at a
/// seeded position in the block and repeats in the rest (80% repeats).
/// The first block starts with its fresh point, so a repeat always has
/// a point to repeat.
pub const BLOCK: usize = 10;

/// One served simulation point (always at scale 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Point {
    /// Workload name.
    pub workload: &'static str,
    /// Input set the point is measured on.
    pub input: InputSet,
    /// CRB entries.
    pub entries: usize,
    /// CRB computation instances (also the region trial's).
    pub instances: usize,
}

impl Point {
    /// The `submit` request line for this point.
    pub fn request(&self) -> String {
        ccr::serve::submit_point_request(self.workload, self.input, 1, self.entries, self.instances)
    }
}

/// One client's request stream.
///
/// Fresh points follow a stratified order drawn per seed and epoch:
/// the client's `j`-th fresh point takes the workload at position
/// `(j * clients + client) % 13` of a shuffled workload list and the
/// (input, instances) pair — one compile key per workload — at
/// position `j % 8` of a shuffled pair list. As 13 and 8 are coprime,
/// every 104 consecutive fresh points of a client cover each
/// (workload, pair) once, so any stretch of the stream spreads its
/// fresh points evenly over workloads and compile keys, and a client
/// never asks for the same compile key twice within 104 fresh points.
/// The CRB entry count comes from a per-(workload, pair) shuffle
/// indexed by client and block, so no two clients share a fresh point.
///
/// Every [`BLOCK`] requests hold exactly one fresh point, so any run of
/// whole blocks has the same hit/miss mix whatever the seed. A repeat
/// names a point this client already had answered, so in a closed loop
/// every repeat is a result-cache hit and every fresh point a miss.
#[derive(Clone, Debug)]
pub struct RequestStream {
    rng: Rng,
    fresh: Vec<Point>,
    next_fresh: usize,
    seen: Vec<Point>,
    sent: usize,
    fresh_slot: usize,
}

impl RequestStream {
    /// Stream `client` of `clients` (1, 2 or 4) in epoch `epoch` of
    /// `seed`.
    pub fn new(seed: u64, epoch: usize, client: usize, clients: usize) -> RequestStream {
        assert!(
            matches!(clients, 1 | 2 | 4) && client < clients,
            "streams are defined for 1, 2 or 4 clients"
        );
        let mut rng = Rng::new(seed, &format!("serve-mixed/epoch{epoch}"));
        let mut workloads = NAMES;
        rng.shuffle(&mut workloads);
        let mut pairs: Vec<(InputSet, usize)> = [InputSet::Train, InputSet::Ref]
            .into_iter()
            .flat_map(|input| INSTANCES.map(|instances| (input, instances)))
            .collect();
        rng.shuffle(&mut pairs);
        let entries: Vec<Vec<[usize; 4]>> = (0..workloads.len())
            .map(|_| {
                (0..pairs.len())
                    .map(|_| {
                        let mut e = ENTRIES;
                        rng.shuffle(&mut e);
                        e
                    })
                    .collect()
            })
            .collect();
        let block = workloads.len() * pairs.len();
        let fresh = (0..block * ENTRIES.len() / clients)
            .map(|j| {
                let w = (j * clients + client) % workloads.len();
                let p = j % pairs.len();
                let e = (j / block * clients + client) % ENTRIES.len();
                Point {
                    workload: workloads[w],
                    input: pairs[p].0,
                    entries: entries[w][p][e],
                    instances: pairs[p].1,
                }
            })
            .collect();
        RequestStream {
            rng: Rng::new(seed, &format!("serve-mixed/epoch{epoch}/client{client}")),
            fresh,
            next_fresh: 0,
            seen: Vec::new(),
            sent: 0,
            fresh_slot: 0,
        }
    }
}

impl Iterator for RequestStream {
    /// The point, and whether it repeats an earlier request.
    type Item = (Point, bool);

    fn next(&mut self) -> Option<(Point, bool)> {
        let slot = self.sent % BLOCK;
        if slot == 0 && self.sent > 0 {
            self.fresh_slot = self.rng.below(BLOCK);
        }
        self.sent += 1;
        if slot != self.fresh_slot || self.next_fresh == self.fresh.len() {
            let p = self.seen[self.rng.below(self.seen.len())];
            return Some((p, true));
        }
        let p = self.fresh[self.next_fresh];
        self.next_fresh += 1;
        self.seen.push(p);
        Some((p, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every point a served request can name: 13 workloads x {train,
    /// ref} x 4 entry counts x 4 instance counts.
    fn point_space() -> Vec<Point> {
        let mut out = Vec::new();
        for &workload in NAMES.iter() {
            for input in [InputSet::Train, InputSet::Ref] {
                for entries in ENTRIES {
                    for instances in INSTANCES {
                        out.push(Point {
                            workload,
                            input,
                            entries,
                            instances,
                        });
                    }
                }
            }
        }
        out
    }

    fn take(seed: u64, client: usize) -> Vec<(Point, bool)> {
        RequestStream::new(seed, 0, client, 2).take(400).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(suite_order(7, 0), suite_order(7, 0));
        assert_eq!(suite_order(7, 3), suite_order(7, 3));
        assert_eq!(take(7, 0), take(7, 0));
        assert_eq!(take(7, 1), take(7, 1));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(suite_order(7, 0), suite_order(8, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1), "clients draw distinct streams");
        let epoch = |e| RequestStream::new(7, e, 0, 2).take(50).collect::<Vec<_>>();
        assert_ne!(epoch(0), epoch(1), "epochs draw distinct streams");
    }

    #[test]
    fn suite_order_is_a_permutation() {
        let mut order = suite_order(11, 2);
        order.sort_unstable();
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        assert_eq!(order, names);
    }

    #[test]
    fn fresh_points_spread_evenly_over_workloads() {
        let fresh: Vec<Point> = RequestStream::new(3, 0, 0, 1)
            .filter(|(_, repeat)| !repeat)
            .map(|(p, _)| p)
            .take(NAMES.len() * 2)
            .collect();
        for w in NAMES {
            assert_eq!(fresh.iter().filter(|p| p.workload == w).count(), 2, "{w}");
        }
        let all: std::collections::HashSet<Point> = RequestStream::new(3, 0, 0, 1)
            .filter(|(_, repeat)| !repeat)
            .map(|(p, _)| p)
            .take(point_space().len())
            .collect();
        assert_eq!(all.len(), point_space().len(), "every point once");
    }

    #[test]
    fn every_point_is_fresh_exactly_once_across_clients() {
        for clients in [1, 2, 4] {
            let mut all = std::collections::HashSet::new();
            for c in 0..clients {
                let s = RequestStream::new(9, 1, c, clients);
                assert_eq!(s.fresh.len(), point_space().len() / clients);
                all.extend(s.fresh);
            }
            assert_eq!(all.len(), point_space().len(), "{clients} client(s)");
        }
    }

    #[test]
    fn clients_never_share_fresh_points_and_repeats_were_seen() {
        let a = take(5, 0);
        let b = take(5, 1);
        let fresh = |s: &[(Point, bool)]| -> Vec<Point> {
            s.iter().filter(|(_, r)| !r).map(|(p, _)| *p).collect()
        };
        let (fa, fb) = (fresh(&a), fresh(&b));
        assert!(fa.iter().all(|p| !fb.contains(p)));
        for s in [&a, &b] {
            let mut seen = Vec::new();
            for (p, repeat) in s.iter() {
                assert_eq!(*repeat, seen.contains(p), "{p:?}");
                seen.push(*p);
            }
        }
        for s in [&a, &b] {
            for block in s.chunks(BLOCK) {
                let fresh = block.iter().filter(|(_, r)| !r).count();
                assert_eq!(fresh, 1, "one fresh point per block");
            }
        }
        assert!(!a[0].1, "a stream starts with a fresh point");
    }
}
