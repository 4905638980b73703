//! Open-loop HTTP read load against the query server.
//!
//! A generator thread sends request `i` when it falls due at
//! `start + i / rate`, one connection at a time (the server closes each
//! connection after its response). Latency counts from when a request was
//! due, so a stall also charges the requests queued behind it; how late
//! the generator itself ran is kept separately.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One completed (or failed) read.
#[derive(Debug, Clone)]
pub struct ReadSample {
    /// Index into the request set.
    pub req: usize,
    pub due: Instant,
    pub sent: Instant,
    pub connected: Instant,
    pub done: Instant,
    /// HTTP status, or 0 when the connection or transfer failed.
    pub status: u16,
    /// Hash of the response body.
    pub body_hash: u64,
}

impl ReadSample {
    /// Latency from when the request was due, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One blocking GET. Returns the status (0 on any IO failure), the body,
/// and the instant the connection was established.
pub fn get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>, Instant) {
    let fail = |t| (0, Vec::new(), t);
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return fail(Instant::now());
    };
    let connected = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    if write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").is_err() {
        return fail(connected);
    }
    let mut raw = Vec::with_capacity(4096);
    if stream.read_to_end(&mut raw).is_err() {
        return fail(connected);
    }
    let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return fail(connected);
    };
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, raw[split + 4..].to_vec(), connected)
}

/// Drive an open-loop schedule of `rate` requests per second, cycling
/// through `order` (indices into `paths`). Stops after `max` requests, or
/// once `stop` is set and at least `min` requests were sent.
pub fn open_loop(
    addr: SocketAddr,
    paths: &[String],
    order: &[usize],
    rate: f64,
    min: usize,
    max: usize,
    stop: &AtomicBool,
) -> Vec<ReadSample> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut samples = Vec::with_capacity(min);
    for i in 0..max {
        if i >= min && stop.load(Ordering::Acquire) {
            break;
        }
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = order[i % order.len()];
        let sent = Instant::now();
        let (status, body, connected) = get(addr, &paths[req]);
        samples.push(ReadSample {
            req,
            due,
            sent,
            connected,
            done: Instant::now(),
            status,
            body_hash: body_hash(&body),
        });
    }
    samples
}
