//! Load-generator side of the wire: closed-loop and open-loop request
//! loops over newline-delimited JSON connections.
//!
//! The loops only move bytes and take timestamps. Responses are kept
//! verbatim and checked against the oracle after the timed region.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Reads one response line, blocking until it is complete.
    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = Vec::new();
        match self.reader.read_until(b'\n', &mut line) {
            Ok(_) if line.last() == Some(&b'\n') => {
                line.pop();
                String::from_utf8(line).map_err(|_| ErrorKind::InvalidData.into())
            }
            Ok(_) => Err(ErrorKind::UnexpectedEof.into()),
            Err(e) => Err(e),
        }
    }

    /// Waits until a response can be read or `timeout` passes; true if
    /// one can be read.
    fn wait_readable(&self, timeout: Duration) -> std::io::Result<bool> {
        if !self.reader.buffer().is_empty() {
            return Ok(true);
        }
        poll::readable(self.writer.as_raw_fd(), timeout)
    }

    /// Sends one line and waits for its response.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// One request of an open-loop schedule and what became of it.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Index of the request line in the caller's list.
    pub index: usize,
    /// How late the generator sent it, past its due time.
    pub late: Duration,
    /// Due time to response; `None` if no response arrived.
    pub latency: Option<Duration>,
    pub response: Option<String>,
}

/// What one connection saw during an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    pub requests: Vec<Sent>,
    /// Requests sent but not yet answered, sampled when the schedule
    /// was half sent and when it was fully sent.
    pub outstanding_mid: usize,
    pub outstanding_end: usize,
    /// The connection failed; requests after the failure are unsent.
    pub error: Option<String>,
}

/// Drives one connection through an open-loop schedule: request
/// `schedule[i].1` is due at `start + schedule[i].0`, whether or not
/// earlier ones were answered. Latency is timed from the due time, so
/// a stall also charges the requests queued behind it. Waits at most
/// `drain` after the last send for outstanding answers.
pub fn open_loop(
    conn: &mut Conn,
    lines: &[String],
    schedule: &[(Duration, usize)],
    start: Instant,
    drain: Duration,
) -> OpenLoopLog {
    let mut log = OpenLoopLog {
        requests: Vec::with_capacity(schedule.len()),
        ..OpenLoopLog::default()
    };
    let mut next = 0usize;
    let mut answered = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    poll::tighten_timer_slack();
    let result = (|| -> std::io::Result<()> {
        loop {
            let now = Instant::now();
            if next < schedule.len() {
                let (offset, index) = schedule[next];
                let due = start + offset;
                if now >= due {
                    conn.send(&lines[index])?;
                    log.requests.push(Sent {
                        index,
                        late: now - due,
                        latency: None,
                        response: None,
                    });
                    next += 1;
                    if next == schedule.len().div_ceil(2) {
                        log.outstanding_mid = next - answered;
                    }
                    if next == schedule.len() {
                        log.outstanding_end = next - answered;
                        drain_deadline = Some(Instant::now() + drain);
                    }
                    continue;
                }
            }
            if answered == schedule.len() {
                return Ok(());
            }
            // Sleep in the kernel until a response arrives or the next
            // request falls due, whichever is first.
            let wait = match (next < schedule.len(), drain_deadline) {
                (true, _) => (start + schedule[next].0).saturating_duration_since(now),
                (false, Some(d)) if now < d => d - now,
                (false, _) => return Ok(()),
            };
            if answered < next {
                if conn.wait_readable(wait)? {
                    let resp = conn.recv()?;
                    let at = Instant::now();
                    let sent = &mut log.requests[answered];
                    let due = start + schedule[answered].0;
                    sent.latency = Some(at - due);
                    sent.response = Some(resp);
                    answered += 1;
                }
            } else if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    })();
    if let Err(e) = result {
        log.error = Some(e.to_string());
    }
    // Unsent requests are part of the phase too: record them as
    // attempted and unanswered.
    for &(_, index) in &schedule[log.requests.len()..] {
        log.requests.push(Sent {
            index,
            late: Duration::ZERO,
            latency: None,
            response: None,
        });
    }
    log
}

/// Seeded exponential inter-arrival offsets for `rate` requests per
/// second over `secs` seconds (a Poisson arrival process).
pub fn poisson_offsets(rng: &mut impl rand::Rng, rate: f64, secs: f64) -> Vec<Duration> {
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF draw; 1 − u is in (0, 1], so ln is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Readiness waits with microsecond timeouts. The standard library has
/// none: a socket read timeout rounds up to the kernel tick (up to
/// 10 ms), far too coarse for an arrival schedule of 100 µs gaps.
mod poll {
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, arg2: std::ffi::c_ulong, ...) -> i32;
    }

    /// Waits up to `timeout` for `fd` to become readable (or hung up).
    pub fn readable(fd: RawFd, timeout: Duration) -> std::io::Result<bool> {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pfd` and `ts` are live, properly laid-out locals for
        // the duration of the call; nfds = 1 matches the single entry;
        // a null sigmask leaves the signal mask unchanged.
        let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        match n {
            n if n > 0 => Ok(true),
            0 => Ok(false),
            _ => {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    Ok(false)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Lets this thread's timed waits wake within 1 µs of their due
    /// time instead of the default 50 µs slack.
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack. Failure is harmless
        // (the default slack stays), so the result is ignored.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000);
        }
    }
}

/// What a closed-loop phase produced.
#[derive(Debug, Default)]
pub struct ClosedPhase {
    pub tally: crate::common::Tally,
    /// Correct answers as (completion time in seconds since the phase
    /// start, round trip in ms).
    pub samples: Vec<(f64, f64)>,
    /// Client-side gap between an answer and the next send, ms: how
    /// late a closed-loop generator runs.
    pub gaps_ms: Vec<f64>,
    /// The correct answers' response lines.
    pub responses: Vec<String>,
    pub wall_s: f64,
}

impl ClosedPhase {
    /// Folds a later phase of the same kind into this one.
    pub fn absorb(&mut self, other: ClosedPhase) {
        self.tally.add(&other.tally);
        self.samples.extend(other.samples);
        self.gaps_ms.extend(other.gaps_ms);
        self.responses.extend(other.responses);
        self.wall_s += other.wall_s;
    }
}

/// Sends `lines[pick()]` and waits for each answer, for `secs` seconds
/// and at least `min_samples` requests (but no longer than four times
/// `secs`), then checks every answer against `expected`.
pub fn closed_loop(
    conn: &mut Conn,
    lines: &[String],
    expected: &[Vec<f64>],
    tol: crate::common::Tolerance,
    mut pick: impl FnMut() -> usize,
    secs: f64,
    min_samples: usize,
) -> ClosedPhase {
    let start = Instant::now();
    let soft = Duration::from_secs_f64(secs);
    let hard = soft * 4;
    let mut sent = Vec::new();
    let mut last_answer: Option<Instant> = None;
    let mut phase = ClosedPhase::default();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= hard || (elapsed >= soft && sent.len() >= min_samples) {
            break;
        }
        let i = pick();
        let t0 = Instant::now();
        if let Some(prev) = last_answer {
            phase.gaps_ms.push(crate::common::ms(t0 - prev));
        }
        let response = conn.round_trip(&lines[i]);
        let t1 = Instant::now();
        last_answer = Some(t1);
        let failed = response.is_err();
        sent.push((i, t1 - t0, (t1 - start).as_secs_f64(), response.ok()));
        if failed {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    for (i, rtt, done, response) in sent {
        let verdict = crate::common::check_response(response.as_deref(), &expected[i], tol);
        phase.tally.record(verdict);
        if let (crate::common::Verdict::Ok, Some(line)) = (verdict, response) {
            phase.samples.push((done, crate::common::ms(rtt)));
            phase.responses.push(line);
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A scripted server: answers each line at once, except that it
    /// stalls `stall` before answering request number `at`.
    fn stalling_server(at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let line = line.unwrap();
                if i == at {
                    std::thread::sleep(stall);
                }
                writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_in_the_latency_of_requests_queued_behind_it() {
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(400, stall);
        let mut conn = Conn::connect(addr).unwrap();
        let lines: Vec<String> = (0..1200).map(|i| format!("{{\"n\": {i}}}")).collect();
        // One request every 0.25 ms: 240 of them fall due during the stall.
        let schedule: Vec<(Duration, usize)> = (0..1200)
            .map(|i| (Duration::from_micros(250 * i as u64), i))
            .collect();
        let log = open_loop(
            &mut conn,
            &lines,
            &schedule,
            Instant::now(),
            Duration::from_secs(5),
        );
        drop(conn);
        server.join().unwrap();
        assert!(log.error.is_none());
        let latencies: Vec<f64> = log
            .requests
            .iter()
            .map(|s| crate::common::ms(s.latency.expect("every request answered")))
            .collect();
        for (s, line) in log.requests.iter().zip(&lines) {
            assert_eq!(s.response.as_deref(), Some(line.as_str()));
        }
        // Timed from the due time, the requests queued behind the stall
        // carry what is left of it: the first of them nearly all of it.
        assert!(
            latencies[400] >= 55.0,
            "stalled request: {} ms",
            latencies[400]
        );
        assert!(
            latencies[401] >= 50.0,
            "queued request: {} ms",
            latencies[401]
        );
        let p99 = crate::stats::percentile(&latencies, 0.99).unwrap();
        assert!(p99 >= 50.0, "p99 {p99} ms hides the stall");
        let p50 = crate::stats::percentile(&latencies, 0.5).unwrap();
        assert!(p50 < 10.0, "p50 {p50} ms: most requests are unaffected");
    }
}
