//! Connection-fault injection.
//!
//! §3.3 of the paper: "CrumbCruncher fails to connect to the website because
//! of a network error (ECONNREFUSED, ECONNRESET, etc.) … which occurred on
//! 3.3% of the sites it attempted to visit", and the paper expects failure
//! probability to be independent of the walk step. [`FaultModel`] reproduces
//! that process — and, for the fault-tolerance layer, gives every outage a
//! deterministic *duration* so a retry with backoff can outlast it.
//!
//! Both entry points draw from the same deterministic stream construction:
//! a salted hash over an explicit position (a per-model attempt counter for
//! [`FaultModel::attempt`], the `(host, sim-time)` pair for
//! [`FaultModel::attempt_host`]). No draw consumes hidden RNG state, so
//! cloning a model or interleaving callers can never desynchronize the
//! fault process — the property the parallel executor relies on.

use std::collections::HashMap;

use cc_util::DetRng;

use crate::time::{SimDuration, SimTime};

pub use cc_util::error::NetError;

/// Share of host outages that are *hard* (lasting far beyond any retry
/// budget), as opposed to transient blips a backoff can outlast.
const HARD_OUTAGE_SHARE: f64 = 0.25;

/// Hard outages last a simulated day: no retry budget outlasts them.
const HARD_OUTAGE: SimDuration = SimDuration::from_millis(24 * 60 * 60 * 1000);

/// Transient outages last `TRANSIENT_MIN_MS + h % TRANSIENT_SPREAD_MS`
/// milliseconds — calibrated so the default retry budget recovers most of
/// them while a retry-free crawl still observes every one as a failure.
const TRANSIENT_MIN_MS: u64 = 100;
const TRANSIENT_SPREAD_MS: u64 = 1_900;

/// An i.i.d. connection-fault process with deterministic outage windows.
///
/// Besides the plain per-attempt draw ([`FaultModel::attempt`]), the model
/// offers a **host-keyed** mode ([`FaultModel::attempt_host`]): whether a
/// host is down is a deterministic function of `(salt, host)`, so all
/// crawlers sharing a salt observe the *same* outage — matching the paper,
/// which counts failures per *site visited* (a down site is down for every
/// crawler that tries it). Each outage additionally has a deterministic
/// duration, measured from the first failed attempt on this model's
/// timeline: attempts after the window has passed succeed, which is what
/// makes retry-with-backoff meaningful.
#[derive(Debug, Clone)]
pub struct FaultModel {
    salt: u64,
    failure_rate: f64,
    /// Stream position of the next [`FaultModel::attempt`] draw.
    attempt_no: u64,
    /// First failed-attempt instant per down host (outages are measured
    /// from the first time this model observed them).
    first_seen: HashMap<String, SimTime>,
}

impl FaultModel {
    /// Build a fault model with a per-attempt failure probability.
    ///
    /// The seed rng only contributes the salt; the model itself never
    /// holds RNG state (see the module docs).
    pub fn new(rng: DetRng, failure_rate: f64) -> Self {
        let mut seed_rng = rng;
        let salt = seed_rng.next();
        FaultModel {
            salt,
            failure_rate,
            attempt_no: 0,
            first_seen: HashMap::new(),
        }
    }

    /// A model that never fails (for tests needing clean runs).
    pub fn none(rng: DetRng) -> Self {
        FaultModel::new(rng, 0.0)
    }

    /// The configured failure rate.
    pub fn failure_rate(&self) -> f64 {
        self.failure_rate
    }

    /// Decide the fate of one connection attempt.
    ///
    /// Returns `Ok(())` or one of the error kinds, with `ECONNREFUSED` and
    /// `ECONNRESET` dominating as in the paper's error description. Each
    /// call advances the model's attempt counter by exactly one, so two
    /// models with the same salt stay in lockstep draw for draw.
    pub fn attempt(&mut self) -> Result<(), NetError> {
        let h = mix(self.salt ^ 0xA77E_3F01_D5B2_9C64, self.attempt_no);
        self.attempt_no += 1;
        if unit(h) >= self.failure_rate {
            cc_telemetry::counter_id(cc_telemetry::CounterId::NET_CONNECT_OK, 1);
            return Ok(());
        }
        let e = error_kind_for(mix(h, 1));
        cc_telemetry::counter_id(fault_counter(e), 1);
        Err(e)
    }

    /// Host-keyed attempt at simulated instant `now`.
    ///
    /// Deterministic per `(salt, host)`: the same hosts are down for every
    /// model sharing a salt. A down host stays down for its outage
    /// duration (measured from this model's first failed attempt) and
    /// recovers afterwards.
    pub fn attempt_host(&mut self, host: &str, now: SimTime) -> Result<(), NetError> {
        let h = host_hash(self.salt, host);
        if unit(h) >= self.failure_rate {
            cc_telemetry::counter_id(cc_telemetry::CounterId::NET_CONNECT_OK, 1);
            return Ok(());
        }
        let start = *self.first_seen.entry(host.to_string()).or_insert(now);
        if now >= start.plus(outage_duration(h)) {
            cc_telemetry::counter_id(cc_telemetry::CounterId::NET_CONNECT_OK, 1);
            cc_telemetry::counter_id(cc_telemetry::CounterId::NET_OUTAGE_RECOVERED, 1);
            return Ok(());
        }
        let e = error_kind_for(h);
        cc_telemetry::counter_id(fault_counter(e), 1);
        Err(e)
    }

    /// The outage window for a host, if the model considers it down at
    /// all: `None` for healthy hosts, otherwise the duration from the
    /// first failed attempt until recovery. Hard outages effectively never
    /// recover within a walk.
    pub fn outage_for(&self, host: &str) -> Option<SimDuration> {
        let h = host_hash(self.salt, host);
        (unit(h) < self.failure_rate).then(|| outage_duration(h))
    }
}

/// Deterministic duration of the outage keyed by `h`.
fn outage_duration(h: u64) -> SimDuration {
    let d = mix(h, 0x0D1C_E5EE);
    if unit(d) < HARD_OUTAGE_SHARE {
        HARD_OUTAGE
    } else {
        SimDuration::from_millis(TRANSIENT_MIN_MS + mix(d, 1) % TRANSIENT_SPREAD_MS)
    }
}

/// The pre-registered counter for an injected fault kind, so an injection
/// allocates neither the error's `Display` string nor a formatted key.
fn fault_counter(e: NetError) -> cc_telemetry::CounterId {
    match e {
        NetError::ConnRefused => cc_telemetry::CounterId::NET_FAULT_ECONNREFUSED,
        NetError::ConnReset => cc_telemetry::CounterId::NET_FAULT_ECONNRESET,
        NetError::TimedOut => cc_telemetry::CounterId::NET_FAULT_ETIMEDOUT,
        NetError::NameResolution => cc_telemetry::CounterId::NET_FAULT_EAI_NONAME,
    }
}

/// Map a well-mixed hash to an error kind, `ECONNREFUSED`/`ECONNRESET`
/// dominating as in the paper.
fn error_kind_for(h: u64) -> NetError {
    match h % 20 {
        0..=8 => NetError::ConnRefused,
        9..=15 => NetError::ConnReset,
        16..=18 => NetError::TimedOut,
        _ => NetError::NameResolution,
    }
}

/// Map a hash to `[0, 1)` using the top 53 bits.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64-style avalanche of a (key, position) pair: the shared draw
/// primitive behind both attempt modes.
#[inline]
fn mix(key: u64, position: u64) -> u64 {
    let mut z = key ^ position.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the salt and host bytes.
fn host_hash(salt: u64, host: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt.rotate_left(17);
    for &b in host.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Final avalanche so low bits are well mixed.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fails() {
        let mut fm = FaultModel::none(DetRng::new(1));
        for _ in 0..10_000 {
            assert!(fm.attempt().is_ok());
        }
    }

    #[test]
    fn full_rate_always_fails() {
        let mut fm = FaultModel::new(DetRng::new(2), 1.0);
        for _ in 0..100 {
            assert!(fm.attempt().is_err());
        }
    }

    #[test]
    fn rate_is_approximately_respected() {
        let mut fm = FaultModel::new(DetRng::new(3), 0.033);
        let fails = (0..100_000).filter(|_| fm.attempt().is_err()).count();
        let rate = fails as f64 / 100_000.0;
        assert!((rate - 0.033).abs() < 0.004, "observed rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FaultModel::new(DetRng::new(7), 0.5);
        let mut b = FaultModel::new(DetRng::new(7), 0.5);
        for _ in 0..1_000 {
            assert_eq!(a.attempt(), b.attempt());
        }
    }

    #[test]
    fn attempt_is_clone_safe() {
        // Cloning must not share or fork hidden RNG state: the clone
        // replays the same stream from its current position.
        let mut a = FaultModel::new(DetRng::new(21), 0.5);
        for _ in 0..10 {
            let _ = a.attempt();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.attempt(), b.attempt());
        }
    }

    #[test]
    fn error_kinds_all_occur() {
        let mut fm = FaultModel::new(DetRng::new(11), 1.0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(fm.attempt().unwrap_err());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn host_keyed_faults_are_stable_and_shared() {
        let mut a = FaultModel::new(DetRng::new(5), 0.5);
        let mut b = FaultModel::new(DetRng::new(5), 0.5);
        for host in ["a.com", "b.net", "r.trk.io", "www.shop.world"] {
            // Same salt (same seed) ⇒ same verdict at the same instant,
            // call after call and across crawler instances.
            let t = SimTime(1_000);
            let va = a.attempt_host(host, t);
            assert_eq!(va, b.attempt_host(host, t));
            assert_eq!(va, a.attempt_host(host, t));
        }
    }

    #[test]
    fn host_keyed_rate_approximately_respected() {
        let mut fm = FaultModel::new(DetRng::new(9), 0.033);
        let fails = (0..50_000)
            .filter(|i| fm.attempt_host(&format!("site-{i}.com"), SimTime::EPOCH).is_err())
            .count();
        let rate = fails as f64 / 50_000.0;
        assert!((rate - 0.033).abs() < 0.005, "observed {rate}");
    }

    #[test]
    fn different_salts_differ() {
        let mut a = FaultModel::new(DetRng::new(1), 0.5);
        let mut b = FaultModel::new(DetRng::new(2), 0.5);
        let disagreements = (0..100)
            .filter(|i| {
                let h = format!("h{i}.com");
                a.attempt_host(&h, SimTime::EPOCH).is_ok()
                    != b.attempt_host(&h, SimTime::EPOCH).is_ok()
            })
            .count();
        assert!(disagreements > 10, "salts should decorrelate outages");
    }

    #[test]
    fn transient_outages_recover_after_their_window() {
        let mut fm = FaultModel::new(DetRng::new(13), 1.0);
        // Find a transiently-down host.
        let (host, dur) = (0..1_000)
            .map(|i| format!("t{i}.com"))
            .find_map(|h| match fm.outage_for(&h) {
                Some(d) if d < SimDuration::from_secs(60) => Some((h, d)),
                _ => None,
            })
            .expect("some transient outage among 1000 hosts");
        let t0 = SimTime(500);
        assert!(fm.attempt_host(&host, t0).is_err(), "down at first attempt");
        // Still down one millisecond before the window closes…
        let just_before = SimTime(t0.0 + dur.as_millis() - 1);
        assert!(fm.attempt_host(&host, just_before).is_err());
        // …and recovered at the boundary.
        assert!(fm.attempt_host(&host, t0.plus(dur)).is_ok());
    }

    #[test]
    fn hard_outages_do_not_recover_within_a_walk() {
        let mut fm = FaultModel::new(DetRng::new(17), 1.0);
        let host = (0..1_000)
            .map(|i| format!("p{i}.com"))
            .find(|h| fm.outage_for(h) == Some(HARD_OUTAGE))
            .expect("some hard outage among 1000 hosts");
        let t0 = SimTime::EPOCH;
        assert!(fm.attempt_host(&host, t0).is_err());
        // An hour of backoff later: still down.
        assert!(fm
            .attempt_host(&host, t0.plus(SimDuration::from_hours(1)))
            .is_err());
    }

    #[test]
    fn first_attempt_always_fails_for_down_hosts() {
        // Without retries the model is indistinguishable from the old
        // persistent-outage behavior: the first attempt on a down host
        // fails no matter when it happens.
        let mut fm = FaultModel::new(DetRng::new(19), 1.0);
        for i in 0..100 {
            let host = format!("d{i}.com");
            assert!(fm.attempt_host(&host, SimTime(i * 977)).is_err());
        }
    }

    #[test]
    fn outage_durations_mix_hard_and_transient() {
        let fm = FaultModel::new(DetRng::new(23), 1.0);
        let durations: Vec<SimDuration> = (0..2_000)
            .filter_map(|i| fm.outage_for(&format!("m{i}.com")))
            .collect();
        let hard = durations.iter().filter(|d| **d == HARD_OUTAGE).count();
        let share = hard as f64 / durations.len() as f64;
        assert!(
            (share - HARD_OUTAGE_SHARE).abs() < 0.05,
            "hard-outage share {share}"
        );
        assert!(durations
            .iter()
            .filter(|d| **d != HARD_OUTAGE)
            .all(|d| d.as_millis() >= TRANSIENT_MIN_MS
                && d.as_millis() < TRANSIENT_MIN_MS + TRANSIENT_SPREAD_MS));
    }
}
