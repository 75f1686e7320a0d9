//! The forest construction problem (paper Section 4.2, Table 1).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};
use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};

/// A single subscription request `r_i(s_j^q)`: RP `i` requests the stream
/// `s_j^q` originating from site `H_j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Request {
    /// The requesting (subscribing) RP node.
    pub subscriber: SiteId,
    /// The requested stream.
    pub stream: StreamId,
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r_{}({})", self.subscriber.index(), self.stream)
    }
}

/// Inbound/outbound bandwidth limits of one RP node, in streams
/// (`I_i`, `O_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeCapacity {
    /// Inbound limit `I_i`.
    pub inbound: Degree,
    /// Outbound limit `O_i`.
    pub outbound: Degree,
}

impl NodeCapacity {
    /// Creates a capacity with equal inbound and outbound limits, the shape
    /// used throughout the paper's evaluation (`O_i = I_i`).
    pub fn symmetric(limit: Degree) -> Self {
        NodeCapacity {
            inbound: limit,
            outbound: limit,
        }
    }
}

/// A multicast group `G(s)`: the set of RP nodes that requested stream `s`,
/// together with the stream's source.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MulticastGroup {
    stream: StreamId,
    subscribers: Vec<SiteId>,
}

impl MulticastGroup {
    /// Returns the stream this group disseminates.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Returns the source RP (the stream's origin site).
    pub fn source(&self) -> SiteId {
        self.stream.origin()
    }

    /// Returns the subscribing RPs, in ascending site order. The source is
    /// not included.
    pub fn subscribers(&self) -> &[SiteId] {
        &self.subscribers
    }

    /// Returns the group size `|G(s)|`: the number of requesting RPs.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Returns true if no RP requested the stream (never the case for
    /// groups stored in a [`ProblemInstance`]).
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }
}

/// Error produced while assembling a [`ProblemInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A request referenced a site outside the session.
    UnknownSite {
        /// The offending site.
        site: SiteId,
        /// Number of sites in the session.
        sites: usize,
    },
    /// A site subscribed to a stream it originates itself; local streams
    /// reach local displays through the site's star network, not the
    /// overlay.
    SelfSubscription {
        /// The offending request.
        request: Request,
    },
    /// A stream's local index is out of range for its origin site.
    UnknownStream {
        /// The offending stream.
        stream: StreamId,
        /// Number of streams published by the origin site.
        available: u32,
    },
    /// The capacity table does not cover every site.
    MissingCapacity {
        /// The site without a declared capacity.
        site: SiteId,
    },
    /// The cost matrix size does not match the number of sites.
    CostMatrixMismatch {
        /// Number of sites declared.
        sites: usize,
        /// Size of the provided cost matrix.
        matrix: usize,
    },
    /// The session has fewer than the paper's minimum of three sites
    /// (`N ≥ 3`); two-site sessions need no overlay.
    TooFewSites {
        /// Number of sites declared.
        sites: usize,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::UnknownSite { site, sites } => {
                write!(f, "site {site} outside session of {sites} sites")
            }
            ProblemError::SelfSubscription { request } => {
                write!(f, "request {request} subscribes to a local stream")
            }
            ProblemError::UnknownStream { stream, available } => {
                write!(
                    f,
                    "stream {stream} does not exist (origin publishes {available})"
                )
            }
            ProblemError::MissingCapacity { site } => {
                write!(f, "no capacity declared for site {site}")
            }
            ProblemError::CostMatrixMismatch { sites, matrix } => {
                write!(f, "cost matrix covers {matrix} nodes, session has {sites}")
            }
            ProblemError::TooFewSites { sites } => {
                write!(
                    f,
                    "a multi-site session needs at least 3 sites, got {sites}"
                )
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A complete instance of the **forest construction problem**:
///
/// * a completely connected graph over `N` RP nodes with latency costs,
/// * per-node in/out-degree bounds `I(v)`, `O(v)`,
/// * a latency bound `B_cost`,
/// * one multicast group per subscribed stream.
///
/// Instances are immutable once built; construction algorithms read them and
/// produce a forest.
///
/// # Examples
///
/// ```
/// use teeve_overlay::ProblemInstance;
/// use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
///
/// let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
/// let problem = ProblemInstance::builder(costs, CostMs::new(100))
///     .symmetric_capacities(Degree::new(20))
///     .streams_per_site(&[2, 2, 2])
///     .subscribe(SiteId::new(0), StreamId::new(SiteId::new(1), 0))
///     .subscribe(SiteId::new(2), StreamId::new(SiteId::new(1), 0))
///     .build()?;
/// assert_eq!(problem.site_count(), 3);
/// assert_eq!(problem.group_count(), 1);
/// assert_eq!(problem.total_requests(), 2);
/// # Ok::<(), teeve_overlay::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemInstance {
    n: usize,
    capacities: Vec<NodeCapacity>,
    streams_per_site: Vec<u32>,
    costs: CostMatrix,
    cost_bound: CostMs,
    groups: Vec<MulticastGroup>,
    /// `u[i][j]`: number of streams originating from `H_j` requested by
    /// `RP_i` (the paper's `u_{i→j}`).
    request_counts: Vec<Vec<u32>>,
}

impl ProblemInstance {
    /// Starts building a problem over the sites covered by `costs`, with
    /// interactivity bound `cost_bound`.
    pub fn builder(costs: CostMatrix, cost_bound: CostMs) -> ProblemBuilder {
        ProblemBuilder {
            costs,
            cost_bound,
            capacities: Vec::new(),
            streams_per_site: Vec::new(),
            requests: BTreeSet::new(),
        }
    }

    /// Returns the number of sites `N`.
    pub fn site_count(&self) -> usize {
        self.n
    }

    /// Returns the capacity of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn capacity(&self, site: SiteId) -> NodeCapacity {
        self.capacities[site.index()]
    }

    /// Returns the number of streams published by `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn streams_of(&self, site: SiteId) -> u32 {
        self.streams_per_site[site.index()]
    }

    /// Returns the pairwise latency matrix.
    pub fn costs(&self) -> &CostMatrix {
        &self.costs
    }

    /// Returns the latency between two RPs.
    pub fn cost(&self, a: SiteId, b: SiteId) -> CostMs {
        self.costs.cost(a, b)
    }

    /// Returns the interactivity bound `B_cost`.
    pub fn cost_bound(&self) -> CostMs {
        self.cost_bound
    }

    /// Returns the multicast groups, one per subscribed stream, in
    /// ascending stream order. `F = self.groups().len()`.
    pub fn groups(&self) -> &[MulticastGroup] {
        &self.groups
    }

    /// Returns the number of multicast groups `F`.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Returns the total number of subscription requests across all groups.
    pub fn total_requests(&self) -> usize {
        self.groups.iter().map(MulticastGroup::len).sum()
    }

    /// Returns `u_{i→j}`: the number of streams originating from `to`
    /// requested by `from`.
    ///
    /// # Panics
    ///
    /// Panics if either site is outside the session.
    pub fn request_count(&self, from: SiteId, to: SiteId) -> u32 {
        self.request_counts[from.index()][to.index()]
    }

    /// Returns `m_i`: the number of streams originating at `site` that are
    /// subscribed by at least one other RP. Used by MCTF's forwarding
    /// capacity (`O_i - m_i`) and to initialize the reservation counters.
    pub fn subscribed_local_streams(&self, site: SiteId) -> u32 {
        self.groups.iter().filter(|g| g.source() == site).count() as u32
    }

    /// Returns an iterator over every request in the instance, grouped by
    /// multicast group (group index, then ascending subscriber).
    pub fn requests(&self) -> impl Iterator<Item = Request> + '_ {
        self.groups.iter().flat_map(|g| {
            g.subscribers().iter().map(move |&subscriber| Request {
                subscriber,
                stream: g.stream(),
            })
        })
    }
}

/// Incremental builder for [`ProblemInstance`]; see
/// [`ProblemInstance::builder`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    costs: CostMatrix,
    cost_bound: CostMs,
    capacities: Vec<NodeCapacity>,
    streams_per_site: Vec<u32>,
    requests: BTreeSet<Request>,
}

impl ProblemBuilder {
    /// Declares the capacity of every site at once, in site order.
    pub fn capacities(mut self, capacities: Vec<NodeCapacity>) -> Self {
        self.capacities = capacities;
        self
    }

    /// Gives every site the same symmetric capacity (`O_i = I_i = limit`).
    pub fn symmetric_capacities(mut self, limit: Degree) -> Self {
        self.capacities = vec![NodeCapacity::symmetric(limit); self.costs.len()];
        self
    }

    /// Declares how many streams each site publishes, in site order.
    ///
    /// Subscriptions to stream indices at or above a site's count are
    /// rejected at build time.
    pub fn streams_per_site(mut self, counts: &[u32]) -> Self {
        self.streams_per_site = counts.to_vec();
        self
    }

    /// Adds one subscription request. Duplicate requests collapse: the
    /// overlay delivers each stream to a site at most once, and fan-out to
    /// multiple local displays happens on the site's star network.
    pub fn subscribe(mut self, subscriber: SiteId, stream: StreamId) -> Self {
        self.requests.insert(Request { subscriber, stream });
        self
    }

    /// Validates and assembles the instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the session has fewer than three sites, the
    /// capacity table or cost matrix does not match the site count, or any
    /// request references an unknown site/stream or subscribes to a local
    /// stream.
    pub fn build(self) -> Result<ProblemInstance, ProblemError> {
        let n = self.costs.len();
        if n < 3 {
            return Err(ProblemError::TooFewSites { sites: n });
        }
        if self.capacities.len() != n {
            let site = SiteId::new(self.capacities.len() as u32);
            return Err(ProblemError::MissingCapacity { site });
        }
        let streams_per_site = if self.streams_per_site.is_empty() {
            // Default: infer from the largest subscribed index per site.
            let mut counts = vec![0u32; n];
            for r in &self.requests {
                let o = r.stream.origin().index();
                if o < n {
                    counts[o] = counts[o].max(r.stream.local_index() + 1);
                }
            }
            counts
        } else {
            if self.streams_per_site.len() != n {
                return Err(ProblemError::CostMatrixMismatch {
                    sites: self.streams_per_site.len(),
                    matrix: n,
                });
            }
            self.streams_per_site
        };

        let mut request_counts = vec![vec![0u32; n]; n];
        let mut groups: std::collections::BTreeMap<StreamId, Vec<SiteId>> =
            std::collections::BTreeMap::new();
        for r in self.requests {
            let sub = r.subscriber;
            let origin = r.stream.origin();
            if sub.index() >= n {
                return Err(ProblemError::UnknownSite {
                    site: sub,
                    sites: n,
                });
            }
            if origin.index() >= n {
                return Err(ProblemError::UnknownSite {
                    site: origin,
                    sites: n,
                });
            }
            if sub == origin {
                return Err(ProblemError::SelfSubscription { request: r });
            }
            let available = streams_per_site[origin.index()];
            if r.stream.local_index() >= available {
                return Err(ProblemError::UnknownStream {
                    stream: r.stream,
                    available,
                });
            }
            request_counts[sub.index()][origin.index()] += 1;
            groups.entry(r.stream).or_default().push(sub);
        }

        let groups = groups
            .into_iter()
            .map(|(stream, subscribers)| MulticastGroup {
                stream,
                subscribers,
            })
            .collect();

        Ok(ProblemInstance {
            n,
            capacities: self.capacities,
            streams_per_site,
            costs: self.costs,
            cost_bound: self.cost_bound,
            groups,
            request_counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_costs(n: usize) -> CostMatrix {
        CostMatrix::from_fn(n, |_, _| CostMs::new(5))
    }

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    #[test]
    fn builds_groups_per_stream() {
        let problem = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[2, 2, 2])
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(2), stream(1, 0))
            .subscribe(site(0), stream(2, 1))
            .build()
            .unwrap();
        assert_eq!(problem.group_count(), 2);
        let g = &problem.groups()[0];
        assert_eq!(g.stream(), stream(1, 0));
        assert_eq!(g.source(), site(1));
        assert_eq!(g.subscribers(), &[site(0), site(2)]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn duplicate_requests_collapse() {
        let problem = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[1, 1, 1])
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(0), stream(1, 0))
            .build()
            .unwrap();
        assert_eq!(problem.total_requests(), 1);
        assert_eq!(problem.request_count(site(0), site(1)), 1);
    }

    #[test]
    fn request_counts_match_subscriptions() {
        let problem = ProblemInstance::builder(flat_costs(4), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[3, 3, 3, 3])
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(0), stream(1, 1))
            .subscribe(site(0), stream(2, 0))
            .subscribe(site(3), stream(0, 2))
            .build()
            .unwrap();
        assert_eq!(problem.request_count(site(0), site(1)), 2);
        assert_eq!(problem.request_count(site(0), site(2)), 1);
        assert_eq!(problem.request_count(site(0), site(3)), 0);
        assert_eq!(problem.request_count(site(3), site(0)), 1);
    }

    #[test]
    fn subscribed_local_streams_counts_distinct_streams() {
        let problem = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[3, 3, 3])
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(2), stream(1, 0))
            .subscribe(site(0), stream(1, 2))
            .build()
            .unwrap();
        assert_eq!(problem.subscribed_local_streams(site(1)), 2);
        assert_eq!(problem.subscribed_local_streams(site(0)), 0);
    }

    #[test]
    fn rejects_self_subscription() {
        let err = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[1, 1, 1])
            .subscribe(site(1), stream(1, 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ProblemError::SelfSubscription { .. }));
    }

    #[test]
    fn rejects_unknown_stream_index() {
        let err = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[1, 1, 1])
            .subscribe(site(0), stream(1, 5))
            .build()
            .unwrap_err();
        assert!(matches!(err, ProblemError::UnknownStream { .. }));
    }

    #[test]
    fn rejects_unknown_site() {
        let err = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[1, 1, 1])
            .subscribe(site(7), stream(1, 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ProblemError::UnknownSite { .. }));
    }

    #[test]
    fn rejects_two_site_sessions() {
        let err = ProblemInstance::builder(flat_costs(2), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .build()
            .unwrap_err();
        assert_eq!(err, ProblemError::TooFewSites { sites: 2 });
    }

    #[test]
    fn rejects_missing_capacities() {
        let err = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .capacities(vec![NodeCapacity::symmetric(Degree::new(5)); 2])
            .build()
            .unwrap_err();
        assert!(matches!(err, ProblemError::MissingCapacity { .. }));
    }

    #[test]
    fn infers_stream_counts_when_not_declared() {
        let problem = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .subscribe(site(0), stream(1, 4))
            .build()
            .unwrap();
        assert_eq!(problem.streams_of(site(1)), 5);
        assert_eq!(problem.streams_of(site(0)), 0);
    }

    #[test]
    fn requests_iterator_covers_all_groups() {
        let problem = ProblemInstance::builder(flat_costs(3), CostMs::new(100))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[2, 2, 2])
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(2), stream(1, 0))
            .subscribe(site(1), stream(0, 1))
            .build()
            .unwrap();
        let all: Vec<Request> = problem.requests().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all.len(), problem.total_requests());
    }

    #[test]
    fn serde_roundtrip() {
        let problem = ProblemInstance::builder(flat_costs(3), CostMs::new(50))
            .symmetric_capacities(Degree::new(8))
            .streams_per_site(&[2, 2, 2])
            .subscribe(site(0), stream(1, 1))
            .build()
            .unwrap();
        let json = serde_json::to_string(&problem).unwrap();
        let back: ProblemInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, problem);
    }
}
