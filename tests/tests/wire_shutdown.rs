//! `WireServer::shutdown` joins every connection thread within a bound,
//! even while a client keeps sending. A connection thread used to notice
//! the stop only when a read timed out, so a client that never paused
//! kept it (and with it the server) alive forever.
//!
//! This file holds one test, so its binary runs no other test's threads
//! and `/proc/self/task` counts only the server's.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use vr_net::{NextHop, RouteUpdate, VnId};
use vr_wire::{Message, ServerConfig, WireBackend, WireClient, WireServer};

/// A backend with no routes and no threads of its own.
struct Misses;

impl WireBackend for Misses {
    fn lookup(&mut self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        (vec![None; packets.len()], 1)
    }

    fn apply_updates(&mut self, _updates: &[RouteUpdate]) -> Result<u64, String> {
        Err("read-only".into())
    }

    fn generation(&self) -> u64 {
        1
    }

    fn vn_count(&self) -> usize {
        1
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// The server's read timeout: how long an idle connection takes to
/// notice a stop.
const READER_TICK: Duration = Duration::from_millis(100);

#[test]
fn shutdown_joins_a_connection_whose_client_never_pauses() {
    let before = threads();
    let cfg = ServerConfig {
        write_timeout_ms: 500,
        ..ServerConfig::default()
    };
    let bound = Duration::from_millis(cfg.write_timeout_ms) + READER_TICK;
    let server = WireServer::serve_tcp("127.0.0.1:0", Misses, cfg, None).expect("bind");
    let addr = server.local_addr().expect("tcp addr");

    // Closed loop, back to back: the connection's thread always has a
    // frame to read, so no read ever times out.
    let (served_tx, served) = mpsc::channel();
    let client = thread::spawn(move || {
        let mut client = WireClient::connect_tcp(addr).expect("connect");
        let mut frames = 0u64;
        while let Ok(Message::LookupResponse { .. }) = client.lookup(&[(0, 1); 16]) {
            frames += 1;
            if frames == 100 {
                let _ = served_tx.send(());
            }
        }
        frames
    });
    served
        .recv_timeout(Duration::from_secs(10))
        .expect("the client is being served");

    let (done_tx, done) = mpsc::channel();
    let stopper = thread::spawn(move || {
        let _ = done_tx.send(server.shutdown().is_some());
    });
    let returned = done
        .recv_timeout(bound)
        .expect("shutdown returns within the write timeout plus one reader tick");
    assert!(returned, "shutdown hands the backend back");
    stopper.join().expect("stopper");
    assert!(client.join().expect("client") >= 100, "the client ends when its socket closes");

    // Joined threads leave /proc/self/task a moment after `join` returns.
    let mut after = threads();
    for _ in 0..100 {
        if after <= before {
            break;
        }
        thread::sleep(Duration::from_millis(10));
        after = threads();
    }
    assert_eq!(after, before, "every server thread is gone");
}
