//! Load generators: all load comes from this process, over loopback.
//!
//! * [`open_loop`] — independent users: requests leave on a schedule
//!   whether or not earlier ones were answered. Latency is taken from the
//!   instant a request was *due*, so a stall charges every request it
//!   delayed (no coordinated omission), and how late the generator itself
//!   ran is reported beside it.
//! * [`closed_loop`] — callers that wait: each connection sends its next
//!   request after the previous reply, optionally paced to a rate (then
//!   latency is again taken from the due time).
//! * [`echo_server`] — a trivial loopback echo thread: the same frames
//!   through it give the sandbox's own round-trip floor.

use giant::apps::ServeRequest;
use giant::net::wire::{decode_reply, read_frame, Reply};
use giant::net::NetClient;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Sleeps until shortly before `deadline`, then spins: a plain sleep
/// overshoots by tens of microseconds, which at 16 000 rps is the whole
/// inter-arrival gap.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How one reply compared with the reference answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical to the in-process answer.
    Match,
    /// A typed refusal (`Shed`) or a transport failure: the operation
    /// failed, but nothing incorrect was served.
    Failed,
    /// An answer that differs from the reference: the run is invalid.
    Wrong,
}

/// Judges a reply payload against the expected bytes.
pub fn judge(payload: &[u8], expected: &[u8]) -> Verdict {
    if payload == expected {
        Verdict::Match
    } else if matches!(decode_reply(payload), Ok(Reply::Shed { .. })) {
        Verdict::Failed
    } else {
        Verdict::Wrong
    }
}

/// What an open-loop run measured, one entry per request in send order.
pub struct OpenLoopRun {
    /// Reply arrival minus due time, µs (`NaN` when no reply arrived).
    pub latency_us: Vec<f64>,
    /// Actual send minus due time, µs: how late the generator ran.
    pub lag_us: Vec<f64>,
    /// Requests that failed (shed, or lost to a closed connection).
    pub failed: usize,
    /// Replies that differed from the reference answer.
    pub wrong: usize,
    /// First due time to last reply, seconds.
    pub wall_s: f64,
    /// When the first request was due.
    pub epoch: Instant,
}

/// Sends `frames` (request `i` carries wire id `i + 1`) at `rate` per
/// second over one connection — a sender thread and this thread as the
/// receiver — and checks every reply against `expected(i)`.
pub fn open_loop<'a>(
    addr: SocketAddr,
    frames: &[&[u8]],
    expected: impl Fn(usize) -> &'a [u8],
    rate: f64,
) -> std::io::Result<OpenLoopRun> {
    let n = frames.len();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let epoch = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| epoch + gap.mul_f64(i as f64);
    let stop = AtomicBool::new(false);

    let mut latency_us = vec![f64::NAN; n];
    let (mut failed, mut wrong, mut answered) = (0, 0, 0);
    let mut last = epoch;
    let lag_us = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut stream = &stream;
            let mut lag = Vec::with_capacity(n);
            for (i, frame) in frames.iter().enumerate() {
                wait_until(due(i));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                lag.push((Instant::now() - due(i)).as_secs_f64() * 1e6);
                if stream.write_all(frame).is_err() {
                    break;
                }
            }
            lag
        });
        for _ in 0..n {
            let Ok((id, payload)) = read_frame(&mut reader) else {
                break;
            };
            last = Instant::now();
            answered += 1;
            let i = (id as usize).wrapping_sub(1);
            if i >= n {
                wrong += 1;
                continue;
            }
            latency_us[i] = (last - due(i)).as_secs_f64() * 1e6;
            match judge(&payload, expected(i)) {
                Verdict::Match => {}
                Verdict::Failed => failed += 1,
                Verdict::Wrong => wrong += 1,
            }
        }
        // A closed connection ends the run early: release the sender.
        stop.store(true, Ordering::Relaxed);
        sender.join().expect("open-loop sender panicked")
    });
    Ok(OpenLoopRun {
        latency_us,
        lag_us,
        failed: failed + (n - answered),
        wrong,
        wall_s: (last - epoch).as_secs_f64(),
        epoch,
    })
}

/// One closed-loop request as measured by its connection.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSample {
    /// Index into the workload's request pool.
    pub request: u32,
    /// When the request was sent (or was due, when paced).
    pub start: Instant,
    /// When its reply arrived.
    pub end: Instant,
    /// Whether the reply was `Reply::Ok`.
    pub ok: bool,
}

/// Drives one connection through `NetClient::serve`: request `k` is
/// `pool[order[k]]`, sent after reply `k - 1`. With `rate`, request `k` is
/// additionally held until `k / rate` seconds in, and its latency counts
/// from that due time. Stops at the end of `order` or when `stop` is set.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[ServeRequest],
    order: &[u32],
    rate: Option<f64>,
    stop: &AtomicBool,
) -> std::io::Result<Vec<ClosedSample>> {
    let mut client = NetClient::connect(addr).map_err(std::io::Error::other)?;
    let epoch = Instant::now();
    let mut out = Vec::with_capacity(order.len());
    for (k, &request) in order.iter().enumerate() {
        let start = match rate {
            Some(rate) => {
                let due = epoch + Duration::from_secs_f64(k as f64 / rate);
                wait_until(due);
                due
            }
            None => Instant::now(),
        };
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let reply = client.serve(pool[request as usize].clone());
        out.push(ClosedSample {
            request,
            start,
            end: Instant::now(),
            ok: matches!(reply, Ok(Reply::Ok(_))),
        });
        if reply.is_err() {
            break;
        }
    }
    Ok(out)
}

/// Sends `frame` and reads one reply frame on a raw connection; returns
/// the reply payload. The check phase uses this to compare wire bytes.
pub fn raw_call(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<Vec<u8>> {
    stream.write_all(frame)?;
    let (_, payload) = read_frame(stream).map_err(std::io::Error::other)?;
    Ok(payload)
}

/// A loopback echo thread: whatever bytes arrive go straight back. Serves
/// one connection, then exits; join the handle after dropping the client.
pub fn echo_server() -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        while let Ok(n) = conn.read(&mut buf) {
            if n == 0 || conn.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    });
    Ok((addr, handle))
}

/// Median round trip of `frames` through [`echo_server`], µs per frame:
/// write a frame, read the same number of bytes back.
pub fn echo_rtts_us(frames: &[&[u8]]) -> std::io::Result<Vec<f64>> {
    let (addr, handle) = echo_server()?;
    let mut stream = TcpStream::connect(addr)?;
    let mut back = Vec::new();
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        back.resize(frame.len(), 0);
        let t = Instant::now();
        stream.write_all(frame)?;
        stream.read_exact(&mut back)?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    handle.join().expect("echo thread panicked");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant::net::wire::encode_frame;

    /// An echo server that answers in order but stalls once, before reply
    /// `stall_at`, for `stall`.
    fn stalling_echo(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut reader = conn.try_clone().expect("clone");
            while let Ok((id, payload)) = read_frame(&mut reader) {
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let frame = encode_frame(id, payload).expect("encode");
                if conn.write_all(&frame).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 100 requests at 2000 rps (one every 500 µs); the server stalls
        // 50 ms before answering request 20. A generator that timed from
        // the actual send would see one slow request; timing from the due
        // time charges the stall to every request queued behind it.
        let stall = Duration::from_millis(50);
        let (addr, handle) = stalling_echo(20, stall);
        let payload = vec![7u8; 16];
        let frames: Vec<Vec<u8>> = (1..=100)
            .map(|id| encode_frame(id, payload.clone()).expect("encode"))
            .collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let run = open_loop(addr, &refs, |_| &payload, 2000.0).expect("run");
        handle.join().expect("echo thread");
        assert_eq!((run.failed, run.wrong), (0, 0));
        // Requests before the stall are fast.
        assert!(run.latency_us[5] < 20_000.0, "{}", run.latency_us[5]);
        // Request 40 (wire id 41) was due 10.5 ms after request 19 and
        // sat behind the stall: it waited most of the remaining ~40 ms.
        assert!(run.latency_us[40] > 25_000.0, "{}", run.latency_us[40]);
        let inflated = run.latency_us.iter().filter(|&&l| l > 10_000.0).count();
        assert!(inflated >= 40, "only {inflated} requests saw the stall");
        // The generator itself kept to its schedule.
        assert_eq!(run.lag_us.len(), 100);
    }

    #[test]
    fn judge_separates_refusals_from_wrong_answers() {
        let shed = giant::net::wire::encode_reply_payload(&Reply::Shed { depth: 9, cap: 8 })
            .expect("encode");
        assert_eq!(judge(b"abc", b"abc"), Verdict::Match);
        assert_eq!(judge(&shed, b"abc"), Verdict::Failed);
        assert_eq!(judge(b"abd", b"abc"), Verdict::Wrong);
    }
}
