//! The static metric registry: pre-registered IDs for hot-path metrics.
//!
//! Every name-keyed recording call (`counter("net.connect.ok", 1)`) pays a
//! map lookup — and, under the original collector, a process-wide mutex —
//! per touch. A 250-walk crawl makes ~180k such touches, all funneling
//! through one lock, which is exactly the cross-worker serialization that
//! kept the parallel executor slower than serial.
//!
//! This module fixes the lookup half of that cost: metrics whose names are
//! known at compile time are **pre-registered** here and addressed by a
//! dense integer ID ([`CounterId`], [`EventId`], [`GaugeId`],
//! [`HistogramId`]). An ID is an index into a fixed-size slot array — on
//! the [`crate::Collector`] itself (lock-free atomic slots) and on each
//! per-worker [`crate::WorkerCollector`] shard (uncontended slots) — so a
//! hot-path touch is one array index plus one relaxed atomic op: no
//! allocation, no string hashing, no lock.
//!
//! Determinism: pre-registration is what keeps the sharded plane
//! byte-identical to the global one. The registry fixes the *name* of
//! every ID-addressed metric ahead of time, shard merging only ever sums
//! (or mins/maxes) commutative totals, and the report is still rendered
//! from name-sorted `BTreeMap`s — so any merge order, any shard count, and
//! the unsharded collector all produce the same `cc-telemetry/v1` bytes.
//! (`tests/shard_props.rs` proves this over arbitrary permutations.)
//!
//! Names *not* registered here keep working through the string-keyed
//! compat API — that is the cold path for dynamic labels (per-worker
//! gauges, per-endpoint latency splits, low-frequency events with
//! variable fields).

/// Declares one ID type plus its name table and lookup helpers.
macro_rules! declare_ids {
    (
        $(#[$doc:meta])*
        $Id:ident, $NAMES:ident, $ALL:ident;
        $( $konst:ident => $name:literal ),+ $(,)?
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $Id(u16);

        /// Registered names, in ID order.
        pub(crate) const $NAMES: &[&str] = &[ $( $name ),+ ];

        impl $Id {
            declare_ids!(@consts $Id; 0; $( $konst ),+);

            /// Every registered ID, in declaration order.
            pub const $ALL: &'static [$Id] = &{
                let mut i = 0u16;
                let mut all = [$Id(0); $NAMES.len()];
                while (i as usize) < $NAMES.len() {
                    all[i as usize] = $Id(i);
                    i += 1;
                }
                all
            };

            /// The metric name this ID addresses.
            pub fn name(self) -> &'static str {
                $NAMES[self.0 as usize]
            }

            /// The dense slot index (0-based, `< Self::count()`).
            pub(crate) fn index(self) -> usize {
                self.0 as usize
            }

            /// Number of registered IDs of this kind.
            pub fn count() -> usize {
                $NAMES.len()
            }

            /// Reverse lookup: the ID registered for `name`, if any.
            pub fn from_name(name: &str) -> Option<$Id> {
                $NAMES
                    .iter()
                    .position(|n| *n == name)
                    .map(|i| $Id(i as u16))
            }
        }
    };
    (@consts $Id:ident; $idx:expr; $konst:ident) => {
        #[allow(missing_docs)]
        pub const $konst: $Id = $Id($idx);
    };
    (@consts $Id:ident; $idx:expr; $konst:ident, $( $rest:ident ),+) => {
        #[allow(missing_docs)]
        pub const $konst: $Id = $Id($idx);
        declare_ids!(@consts $Id; $idx + 1; $( $rest ),+);
    };
}

declare_ids! {
    /// A pre-registered counter (deterministic section, monotonic sum).
    CounterId, COUNTER_NAMES, ALL;
    NET_CONNECT_OK => "net.connect.ok",
    NET_OUTAGE_RECOVERED => "net.outage.recovered",
    NET_FAULT_ECONNREFUSED => "net.fault.injected.ECONNREFUSED",
    NET_FAULT_ECONNRESET => "net.fault.injected.ECONNRESET",
    NET_FAULT_ETIMEDOUT => "net.fault.injected.ETIMEDOUT",
    NET_FAULT_EAI_NONAME => "net.fault.injected.EAI_NONAME",
    NET_RETRY_ATTEMPT => "net.retry.attempt",
    NET_RETRY_RECOVERED => "net.retry.recovered",
    NET_BREAKER_FAST_FAIL => "net.breaker.fast_fail",
    NET_BREAKER_TRIP => "net.breaker.trip",
    WEB_REQUESTS_SERVED => "web.requests.served",
    WEB_PAGES_LOADED => "web.pages.loaded",
    BROWSER_NAVIGATIONS_COMPLETED => "browser.navigations.completed",
    BROWSER_NAV_HOPS_TOTAL => "browser.nav_hops.total",
    BROWSER_REDIRECT_CHAINS_FOLLOWED => "browser.redirect_chains.followed",
    CRAWL_STEPS_RECORDED => "crawl.steps.recorded",
    CRAWL_WALKS_WITH_RETRIES => "crawl.walks.with_retries",
    CRAWL_CHECKPOINT_WRITES => "crawl.checkpoint.writes",
    CRAWL_RESUME_WALKS_RESTORED => "crawl.resume.walks_restored",
    CRAWL_RESUME_WALKS_REMAINING => "crawl.resume.walks_remaining",
    CLASSIFY_UID_CONFIRMED => "classify.uid_confirmed",
    PIPELINE_CANDIDATES_FOUND => "pipeline.candidates.found",
    PIPELINE_PATHS_OBSERVED => "pipeline.paths.observed",
    PIPELINE_FINDINGS_CONFIRMED => "pipeline.findings.confirmed",
    SERVE_REQUESTS => "serve.requests",
    SERVE_SESSIONS => "serve.sessions",
    SERVE_REVALIDATED_304 => "serve.revalidated_304",
    SERVE_5XX => "serve.5xx",
    SERVE_SHED => "serve.shed",
    SERVE_EPOCH_SWAPS => "serve.epoch.swaps",
    GAGGLE_LEASES_ISSUED => "gaggle.leases.issued",
    GAGGLE_LEASES_COMPLETED => "gaggle.leases.completed",
    GAGGLE_LEASES_EXPIRED => "gaggle.leases.expired",
    GAGGLE_LEASES_REISSUED => "gaggle.leases.reissued",
    GAGGLE_WORKERS_CONNECTED => "gaggle.workers.connected",
    GAGGLE_WORKERS_DISCONNECTED => "gaggle.workers.disconnected",
    GAGGLE_FRAMES_SENT => "gaggle.frames.sent",
    GAGGLE_FRAMES_RECEIVED => "gaggle.frames.received",
    GAGGLE_BYTES_SENT => "gaggle.bytes.sent",
    GAGGLE_BYTES_RECEIVED => "gaggle.bytes.received",
    GAGGLE_RESULTS_DROPPED_STALE => "gaggle.results.dropped_stale",
}

declare_ids! {
    /// A pre-registered event with its fields already rendered into the
    /// aggregation key (deterministic section).
    EventId, EVENT_NAMES, ALL;
    WEB_SCRIPT_EXECUTED_TRACKER => "web.script.executed{kind=tracker}",
    CRAWL_WALK_COMPLETED => "crawl.walk.terminated{kind=completed}",
    CRAWL_WALK_SYNC_FAILURE => "crawl.walk.terminated{kind=sync_failure}",
    CRAWL_WALK_DIVERGENCE => "crawl.walk.terminated{kind=divergence}",
    CRAWL_WALK_CONNECT_FAILURE => "crawl.walk.terminated{kind=connect_failure}",
    BROWSER_REDIRECT_CHAIN_TRUNCATED => "browser.redirect_chain.truncated",
    CLASSIFY_REJECTED_SAME_ACROSS_USERS => "classify.token_rejected{heuristic=same_across_users}",
    CLASSIFY_REJECTED_SESSION_ROTATION => "classify.token_rejected{heuristic=session_rotation}",
    CLASSIFY_REJECTED_TIMESTAMP_OR_DATE => "classify.token_rejected{heuristic=timestamp_or_date}",
    CLASSIFY_REJECTED_LOOKS_LIKE_URL => "classify.token_rejected{heuristic=looks_like_url}",
    CLASSIFY_REJECTED_TOO_SHORT => "classify.token_rejected{heuristic=too_short}",
    CLASSIFY_REJECTED_MANUAL => "classify.token_rejected{heuristic=manual}",
}

declare_ids! {
    /// A pre-registered gauge (timing section, last write wins).
    GaugeId, GAUGE_NAMES, ALL;
    SERVE_INFLIGHT => "serve.inflight",
    SERVE_EPOCH_CURRENT => "serve.epoch.current",
}

declare_ids! {
    /// A pre-registered latency histogram (timing section).
    HistogramId, HISTOGRAM_NAMES, ALL;
    NET_SIM_LATENCY => "net.sim_latency",
    CRAWL_WALK_DURATION => "crawl.walk_duration",
    SERVE_LATENCY => "serve.latency",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_names() {
        for &id in CounterId::ALL {
            assert_eq!(CounterId::from_name(id.name()), Some(id));
        }
        for &id in EventId::ALL {
            assert_eq!(EventId::from_name(id.name()), Some(id));
        }
        for &id in GaugeId::ALL {
            assert_eq!(GaugeId::from_name(id.name()), Some(id));
        }
        for &id in HistogramId::ALL {
            assert_eq!(HistogramId::from_name(id.name()), Some(id));
        }
    }

    #[test]
    fn registered_names_are_unique_per_kind() {
        for names in [COUNTER_NAMES, EVENT_NAMES, GAUGE_NAMES, HISTOGRAM_NAMES] {
            let mut seen = std::collections::HashSet::new();
            for n in names {
                assert!(seen.insert(*n), "duplicate registered name {n}");
            }
        }
    }

    #[test]
    fn unknown_names_do_not_resolve() {
        assert_eq!(CounterId::from_name("no.such.metric"), None);
        assert_eq!(EventId::from_name("no.such.event"), None);
    }

    #[test]
    fn all_covers_every_index_in_order() {
        assert_eq!(CounterId::ALL.len(), CounterId::count());
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }
}
