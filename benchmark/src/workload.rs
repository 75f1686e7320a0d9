//! The four workloads: what each builds, what one round of it does, and
//! the seeded inputs it feeds the program under test.
//!
//! Everything random comes from one `ChaCha8Rng` seeded by `--seed`; the
//! program receives only the generated sessions and events.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use teeve_overlay::NodeCapacity;
use teeve_pubsub::Session;
use teeve_runtime::RuntimeEvent;
use teeve_topology::backbone_north_america;
use teeve_types::{CostMs, Degree, DisplayId, SiteId, StreamId};

/// Cameras (streams) per site, the ring of the paper's Figure 4.
const CAMERAS: u32 = 8;
/// Displays per site.
const DISPLAYS: u32 = 2;
/// Interactivity bound `B_cost`: loose enough that no join on the sampled
/// North-American backbone is rejected for latency, so no operation fails.
const COST_BOUND: CostMs = CostMs::new(250);

/// Which session a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every display watches a random site; every FOV op retargets a
    /// random display. Capacity admits every join.
    Churn,
    /// Sites 1.. all watch site 0's eight streams through an out-degree
    /// bound that forces a 3-hop tree; FOV ops retarget the receivers'
    /// second display, leaving the relay trees in place.
    Relay,
}

/// One workload's frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// Concurrent sessions behind the one service (one closed-loop
    /// client each).
    pub sessions: usize,
    pub sites: usize,
    pub payload_bytes: usize,
    /// FOV ops per session per round.
    pub ops_per_round: usize,
    /// Frames per stream of the round's data batch (0 = no batch).
    pub batch_frames: u64,
    /// Host the sessions on a store-backed (`recover`ed) service.
    pub durable: bool,
    pub warmup_rounds: usize,
    /// `peak_rss_mb` is read when this many timed rounds are done, so
    /// the reading compares equal work whatever the run's speed.
    pub rss_round: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fov_churn_live",
        why: "control plane does all the work: one 12-site session, 1 KiB frames, no store, no data batch",
        shape: Shape::Churn,
        sessions: 1,
        sites: 12,
        payload_bytes: 1024,
        ops_per_round: 1,
        batch_frames: 0,
        durable: false,
        warmup_rounds: 200,
        rss_round: 3000,
    },
    Workload {
        name: "relay_small_frames",
        why: "per-frame relay cost sets the rate: 3-hop 16-receiver tree, unpaced 1024 x 256 B batches",
        shape: Shape::Relay,
        sessions: 1,
        sites: 17,
        payload_bytes: 256,
        ops_per_round: 4,
        batch_frames: 1024,
        durable: false,
        warmup_rounds: 4,
        rss_round: 30,
    },
    Workload {
        name: "relay_large_frames",
        why: "per-byte relay cost sets the rate: same tree, unpaced 8 x 64 KiB batches (the paper's frame size)",
        shape: Shape::Relay,
        sessions: 1,
        sites: 17,
        payload_bytes: 64 * 1024,
        ops_per_round: 4,
        batch_frames: 8,
        durable: false,
        warmup_rounds: 4,
        rss_round: 30,
    },
    Workload {
        name: "control_scale_durable",
        why: "plan size, store and cross-session waiting matter: four 32-site sessions on a store-backed service",
        shape: Shape::Churn,
        sessions: 4,
        sites: 32,
        payload_bytes: 1024,
        ops_per_round: 1,
        batch_frames: 0,
        durable: true,
        warmup_rounds: 20,
        rss_round: 300,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Builds one session of this workload and the events that settle it
    /// before the fleet is launched.
    pub fn build_session(&self, rng: &mut ChaCha8Rng) -> (Session, Vec<RuntimeEvent>) {
        let costs = backbone_north_america()
            .sample_session(self.sites, rng)
            .expect("the backbone has enough connected PoPs")
            .costs;
        let builder = Session::builder(costs)
            .cameras_per_site(CAMERAS)
            .displays_per_site(DISPLAYS)
            .cost_bound(COST_BOUND);
        match self.shape {
            Shape::Churn => {
                let mut session = builder
                    .symmetric_capacity(Degree::new(8 * self.sites as u32))
                    .build();
                for site in SiteId::all(self.sites) {
                    for display in 0..DISPLAYS {
                        let target = other_site(rng, 0, self.sites, site);
                        session.subscribe_viewpoint(DisplayId::new(site, display), target);
                    }
                }
                (session, Vec::new())
            }
            Shape::Relay => {
                // The runtime joins receivers in site order, and a join
                // picks the tree member with the most spare out-degree
                // (a receiver's counts from 8 below its limit: one slot
                // per own stream stays reserved). Spare out-degree that
                // falls with the site index keeps the trees bushy: sites
                // 1-2 carry six children per stream between them, sites
                // 3-10 relay to the last six, and everyone keeps 8 slots
                // for the second displays' streams. Depth comes out at
                // 3-4 hops, under the runtime's rebuild threshold of 6.
                let outbound = |site: usize| match site {
                    0 => 24,
                    1..=2 => 56,
                    3..=10 => 20,
                    _ => 16,
                };
                let capacities = (0..self.sites)
                    .map(|site| NodeCapacity {
                        inbound: Degree::new(2 * CAMERAS),
                        outbound: Degree::new(outbound(site)),
                    })
                    .collect();
                let mut session = builder.capacities(capacities).build();
                let origin_streams: Vec<StreamId> = (0..CAMERAS)
                    .map(|q| StreamId::new(SiteId::new(0), q))
                    .collect();
                for site in SiteId::all(self.sites).skip(1) {
                    session.subscribe_streams(DisplayId::new(site, 0), origin_streams.clone());
                }
                // Bandwidth reports that settle the receivers on the three
                // rungs of the 8/4/2 Mbps ladder, coarser toward the
                // leaves (a relay forwards no finer than it receives):
                // none for sites 1-6 (full quality), then budgets that
                // hold eight streams at about 4 and about 2 Mbps and
                // still admit the second display's four at the floor.
                let settle = SiteId::all(self.sites)
                    .skip(7)
                    .map(|site| RuntimeEvent::BandwidthSample {
                        site,
                        bits_per_sec: if site.index() <= 11 { 36e6 } else { 24e6 },
                    })
                    .collect();
                (session, settle)
            }
        }
    }

    /// The next FOV op of one session: a seeded viewpoint retarget.
    pub fn next_event(&self, rng: &mut ChaCha8Rng) -> RuntimeEvent {
        let (first, display) = match self.shape {
            Shape::Churn => (0, None),
            Shape::Relay => (1, Some(1)),
        };
        let site = SiteId::new(rng.gen_range(first..self.sites as u32));
        let display = display.unwrap_or_else(|| rng.gen_range(0..DISPLAYS));
        RuntimeEvent::Viewpoint {
            display: DisplayId::new(site, display),
            target: other_site(rng, first, self.sites, site),
        }
    }
}

/// A uniformly chosen site of `first..sites` other than `not`.
fn other_site(rng: &mut ChaCha8Rng, first: u32, sites: usize, not: SiteId) -> SiteId {
    loop {
        let candidate = SiteId::new(rng.gen_range(first..sites as u32));
        if candidate != not {
            return candidate;
        }
    }
}
