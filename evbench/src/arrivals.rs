//! The client's seeded arrival stream.
//!
//! The engine never sees the seed: the client turns it into vehicle
//! sessions (drive cycle, ambient, controller) and sends only
//! Open/Step/Query/Close commands. A splitmix64 generator keeps the
//! stream reproducible without a random-number dependency.
//!
//! Sessions are dealt from shuffled bags: every consecutive run of one
//! bag (each cycle × ambient × controller combination once) holds the
//! whole mix. Seeds then differ in arrival order and burst sizes, not in
//! the proportions of cheap and expensive sessions, which would
//! otherwise dominate the spread of a run that serves a few dozen
//! sessions.

use ev_core::ControllerKind;

/// splitmix64: a 64-bit counter pushed through an avalanche mix.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (multiply-high, no modulo bias worth
    /// speaking of at these ranges).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Drive cycles a session draws from (ECE_EUDC, UDDS, US06).
pub(crate) const CYCLES: usize = 3;

/// Ambient temperatures (°C) a session draws from: deep winter, freezing,
/// mild, paper-hot. The cabin starts soaked to the ambient.
pub(crate) const AMBIENTS_C: [f64; 4] = [-10.0, 0.0, 20.0, 35.0];

/// Which controllers a workload's sessions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerMix {
    /// Every session runs the paper's MPC.
    Mpc,
    /// Each session runs On/Off or fuzzy, 50/50.
    Rule,
}

/// One generated vehicle session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Vehicle id (arrival order).
    pub id: u64,
    /// Index into the cycle mix.
    pub cycle: usize,
    /// Index into [`AMBIENTS_C`].
    pub ambient: usize,
    /// The session's controller.
    pub kind: ControllerKind,
}

impl SessionSpec {
    /// Index of this session's (cycle, ambient) simulation.
    #[must_use]
    pub(crate) fn sim_index(&self) -> usize {
        self.cycle * AMBIENTS_C.len() + self.ambient
    }
}

/// Bursts of 1–4 vehicle sessions dealt from the seeded mix.
#[derive(Debug, Clone)]
pub(crate) struct Arrivals {
    rng: SplitMix64,
    kinds: &'static [ControllerKind],
    next_id: u64,
    /// The rest of the current bag of (cycle, ambient, controller).
    bag: Vec<(usize, usize, ControllerKind)>,
}

impl Arrivals {
    /// The arrival stream for `seed`.
    #[must_use]
    pub(crate) fn new(seed: u64, mix: ControllerMix) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            kinds: match mix {
                ControllerMix::Mpc => &[ControllerKind::Mpc],
                ControllerMix::Rule => &[ControllerKind::OnOff, ControllerKind::Fuzzy],
            },
            next_id: 0,
            bag: Vec::new(),
        }
    }

    /// Size of the next burst, 1–4.
    pub(crate) fn burst(&mut self) -> usize {
        1 + self.rng.below(4)
    }

    /// The next session.
    pub(crate) fn session(&mut self) -> SessionSpec {
        if self.bag.is_empty() {
            for cycle in 0..CYCLES {
                for ambient in 0..AMBIENTS_C.len() {
                    for &kind in self.kinds {
                        self.bag.push((cycle, ambient, kind));
                    }
                }
            }
            // Fisher–Yates.
            for i in (1..self.bag.len()).rev() {
                let j = self.rng.below(i + 1);
                self.bag.swap(i, j);
            }
        }
        let (cycle, ambient, kind) = self.bag.pop().expect("bag refilled above");
        let id = self.next_id;
        self.next_id += 1;
        SessionSpec {
            id,
            cycle,
            ambient,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, mix: ControllerMix, n: usize) -> Vec<SessionSpec> {
        let mut a = Arrivals::new(seed, mix);
        (0..n).map(|_| a.session()).collect()
    }

    #[test]
    fn splitmix_matches_reference_output() {
        // First outputs of the reference splitmix64 for seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = first(42, ControllerMix::Rule, 64);
        assert_eq!(a, first(42, ControllerMix::Rule, 64));
        assert_ne!(a, first(7, ControllerMix::Rule, 64));
    }

    #[test]
    fn every_bag_deals_the_whole_mix_once() {
        let mut a = Arrivals::new(1, ControllerMix::Rule);
        let bag = 2 * CYCLES * AMBIENTS_C.len();
        for _ in 0..5 {
            let mut dealt: Vec<(usize, bool)> = (0..bag)
                .map(|_| {
                    let s = a.session();
                    (s.sim_index(), s.kind == ControllerKind::OnOff)
                })
                .collect();
            dealt.sort_unstable();
            dealt.dedup();
            assert_eq!(dealt.len(), bag, "a combination repeated within one bag");
        }
        let bursts: Vec<usize> = (0..400).map(|_| a.burst()).collect();
        assert!((1..=4).all(|b| bursts.contains(&b)));
        assert!(bursts.iter().all(|b| (1..=4).contains(b)));
    }

    #[test]
    fn mpc_mix_runs_only_mpc() {
        assert!(first(3, ControllerMix::Mpc, 50)
            .iter()
            .all(|s| s.kind == ControllerKind::Mpc));
    }
}
