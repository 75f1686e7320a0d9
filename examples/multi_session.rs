//! Many concurrent 3DTI sessions behind one `MembershipService`.
//!
//! The paper's membership server dictates *one* session. Here a service
//! hosts a handful of independent sessions at once: each gets its own
//! scoped runtime in the registry, churn events are queued per session,
//! and `drive_all` advances every session one epoch, worker threads
//! stealing one session at a time. Per-session and service-wide reports
//! come out at the end.
//!
//! Run with: `cargo run --example multi_session`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::prelude::*;
use teeve::runtime::TraceConfig;
use teeve::service::SessionHandle;
use teeve::types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};

const SESSIONS: usize = 6;
const SITES: usize = 8;
const EPOCHS: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One service, one registry.
    let service = MembershipService::new();

    // 2. Admit six sessions with different cost structures; each starts
    //    with a ring of gazes so the first epoch already builds trees.
    let mut handles: Vec<SessionHandle> = Vec::new();
    for index in 0..SESSIONS {
        let costs = CostMatrix::from_fn(SITES, |i, j| {
            CostMs::new(3 + ((i * 31 + j * 17 + index * 7) % 9) as u32)
        });
        let mut session = Session::builder(costs)
            .cameras_per_site(6)
            .displays_per_site(2)
            .symmetric_capacity(Degree::new(10))
            .build();
        for site in SiteId::all(SITES) {
            let i = site.index() as u32;
            session
                .subscribe_viewpoint(DisplayId::new(site, 0), SiteId::new((i + 1) % SITES as u32));
        }
        let handle = service.create_session(SessionSpec::new(session))?;
        println!("admitted {}", handle.id());
        handles.push(handle);
    }

    // 3. Eight rounds: queue each session's seeded churn, then advance
    //    the whole service one epoch in a single parallel pass.
    println!(
        "\n{:>5} {:>8} {:>7} {:>6} {:>6} {:>7} {:>9} {:>10}",
        "round", "sessions", "events", "joins", "rej", "delta", "plan", "work µs"
    );
    for round in 0..EPOCHS {
        for handle in &handles {
            let index = handle.id().raw();
            let mut rng = ChaCha8Rng::seed_from_u64(index * 100 + round as u64);
            let trace = TraceConfig {
                epochs: 1,
                events_per_epoch: 3,
                ..TraceConfig::default()
            };
            for epoch in trace.generate(SITES, 2, &mut rng) {
                handle.submit_requests(epoch)?;
            }
        }
        let report = service.drive_all();
        println!(
            "{:>5} {:>8} {:>7} {:>6} {:>6} {:>7} {:>9} {:>10}",
            round,
            report.sessions,
            report.events,
            report.subscribes,
            report.rejected,
            report.delta_entries,
            report.plan_entries,
            report.total_reconverge.as_micros(),
        );
        for handle in &handles {
            handle.validate()?;
        }
    }

    // 4. Per-session breakdown, then close everything.
    println!("\nper-session totals:");
    for handle in &handles {
        let report = handle.report()?;
        let plan = handle.plan()?;
        println!(
            "  {}: {} epochs ({} rebuilt), {} joins ({} accepted), \
             delta traffic {}/{} entries, plan revision {} ({} entries)",
            handle.id(),
            report.epochs,
            report.rebuilds,
            report.subscribes,
            report.accepted,
            report.delta_entries,
            report.plan_entries,
            plan.revision(),
            plan.site_plans()
                .iter()
                .map(|sp| sp.entries.len())
                .sum::<usize>(),
        );
    }
    for handle in handles {
        handle.close()?;
    }
    assert_eq!(service.session_count(), 0);
    println!("\nall sessions closed.");
    Ok(())
}
