//! A standalone rendezvous-point process.
//!
//! Hosts one RP on a one-thread [`Reactor`] until its coordinator orders
//! it down — the process form of the node every in-process
//! `LiveCluster` hosts the same way. A coordinator in another process
//! (or on another host) drives it purely over TCP: there is no shared
//! state to share, so the binary is nothing but bind, advertise, serve.
//!
//! Usage: `rp_node <site-index> [bind-addr [advertise-addr]]`
//!
//! `bind-addr` defaults to `127.0.0.1:0`. On separate machines bind a
//! wildcard or private address and advertise the routable one the
//! coordinator and parent RPs must dial (an advertised port of 0 means
//! "the port actually bound"): `rp_node 3 0.0.0.0:0 10.0.0.7:0`.
//!
//! Prints one line, `LISTEN <addr>`, to stdout once the listener is
//! bound; the parent process (e.g. the multi-process smoke test) reads it
//! to learn the node's advertised address. Exits 0 when a `Shutdown`
//! order arrives.

use std::io::Write;
use std::net::SocketAddr;

use teeve_net::Reactor;
use teeve_types::SiteId;

fn usage() -> ! {
    eprintln!("usage: rp_node <site-index> [bind-addr [advertise-addr]]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let site: u32 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let mut addrs = args.map(|s| s.parse::<SocketAddr>().unwrap_or_else(|_| usage()));
    let bind = addrs
        .next()
        .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
    let advertise = addrs.next();

    let reactor = Reactor::new(1).unwrap_or_else(|e| {
        eprintln!("rp_node: reactor failed to start: {e}");
        std::process::exit(1);
    });
    let node = reactor
        .bind_node_at(SiteId::new(site), bind, advertise)
        .unwrap_or_else(|e| {
            eprintln!("rp_node: bind failed: {e}");
            std::process::exit(1);
        });
    println!("LISTEN {}", node.addr());
    std::io::stdout().flush().ok();
    node.join();
}
