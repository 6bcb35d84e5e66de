//! The load generator of the served workloads: one pipelined protocol-v2
//! connection driven by two threads, a sender that follows the phase's
//! schedule and a receiver that times and checks every answer.
//!
//! A closed phase keeps a fixed number of selections in flight and sends
//! the next one when an answer arrives.  An open phase sends on a fixed
//! schedule regardless of answers (up to the server's per-connection
//! in-flight cap), and every request is timed from when it was due.

use crate::stats::Timed;
use cvcp_core::json::Json;
use cvcp_core::SelectionRequest;
use cvcp_server::{RankedSelection, Request, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Keep `window` selections in flight.
    Closed {
        /// Selections in flight.
        window: usize,
    },
    /// Send `rate` selections per second on a fixed schedule.
    Open {
        /// Offered rate, per second.
        rate: f64,
    },
}

/// How one selection ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A result bit-identical to the reference.
    Ok,
    /// A result that differs from the reference.
    Mismatch,
    /// A structured error (refusal or failure), by code.
    Error(String),
    /// No answer before the phase's drain deadline.
    Lost,
}

/// One timed selection.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Due, send and answer times, seconds since the phase started.
    pub timed: Timed,
    /// How it ended.
    pub outcome: Outcome,
    /// The traced result's graph profile, when the request asked for one.
    pub profile: Option<Json>,
    /// The request id.
    pub id: String,
}

impl Sample {
    /// Latency in milliseconds, from the due time, for answered requests.
    pub fn latency_ms(&self) -> Option<f64> {
        self.timed.due_latency().map(|s| s * 1e3)
    }
}

/// Everything a phase recorded.
#[derive(Debug, Default)]
pub struct PhaseRecord {
    /// Every selection attempted, in completion order.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last answer, seconds.
    pub elapsed: f64,
    /// `Request::to_line` times, nanoseconds (traced phases).
    pub encode_ns: Vec<f64>,
    /// `Response::from_line` times, nanoseconds (traced phases).
    pub decode_ns: Vec<f64>,
}

struct Pending {
    template: usize,
    due: f64,
    sent: f64,
}

#[derive(Default)]
struct Shared {
    pending: BTreeMap<String, Pending>,
    record: PhaseRecord,
    sending_done: bool,
}

fn bits_equal(a: &RankedSelection, b: &RankedSelection) -> bool {
    let same = |x: &[cvcp_server::RankedEntry], y: &[cvcp_server::RankedEntry]| {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.param == q.param && p.score.to_bits() == q.score.to_bits())
    };
    a.best_param == b.best_param
        && a.best_score.to_bits() == b.best_score.to_bits()
        && same(&a.ranking, &b.ranking)
        && same(&a.evaluations, &b.evaluations)
}

/// Opens a protocol-v2 connection and returns it with the server's
/// per-connection in-flight cap.
fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>, usize), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    writeln!(stream, "{}", Request::Hello { version: 2 }.to_line()).map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    match Response::from_line(&line) {
        Ok(Response::HelloAck {
            version: 2,
            max_in_flight,
            ..
        }) => Ok((stream, reader, max_in_flight.max(1))),
        other => Err(format!("protocol v2 negotiation failed: {other:?}")),
    }
}

/// Runs one phase against the server at `addr`.  `templates` are the
/// workload's requests, `references` their in-process results, `draws`
/// the template sequence, `tag` a unique id prefix.  With `trace`, every
/// request asks for a traced result and the codec calls are timed.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    addr: &str,
    templates: &[SelectionRequest],
    references: &[RankedSelection],
    draws: &mut dyn Iterator<Item = usize>,
    schedule: Schedule,
    duration: f64,
    trace: bool,
    tag: &str,
) -> Result<PhaseRecord, String> {
    let (mut stream, mut reader, cap) = connect(addr)?;
    let shared = Mutex::new(Shared::default());
    let changed = Condvar::new();
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();

    std::thread::scope(|scope| -> Result<(), String> {
        let receiver = scope.spawn(|| {
            let mut line = String::new();
            loop {
                {
                    let state = shared.lock().expect("generator state");
                    if state.sending_done && state.pending.is_empty() {
                        return Ok(());
                    }
                }
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        let state = shared.lock().expect("generator state");
                        return if state.sending_done && state.pending.is_empty() {
                            Ok(())
                        } else {
                            Err("server closed the connection".to_string())
                        };
                    }
                    Ok(_) => {}
                    Err(e) => return Err(format!("reading answers: {e}")),
                }
                let t0 = Instant::now();
                let response = Response::from_line(&line);
                let decode = t0.elapsed().as_nanos() as f64;
                let done = now();
                let mut state = shared.lock().expect("generator state");
                if trace {
                    state.record.decode_ns.push(decode);
                }
                let (id, outcome, profile, selection) = match response {
                    Ok(Response::Result {
                        id,
                        selection,
                        profile,
                    }) => (id, Outcome::Ok, profile, Some(selection)),
                    Ok(Response::Error {
                        id: Some(id),
                        error,
                    }) => (id, Outcome::Error(error.code), None, None),
                    Ok(Response::Progress { .. }) => continue,
                    Ok(other) => return Err(format!("unexpected answer {other:?}")),
                    Err(e) => return Err(format!("bad answer line: {}: {}", e.code, e.message)),
                };
                let Some(p) = state.pending.remove(&id) else {
                    return Err(format!("answer for unknown id {id}"));
                };
                let outcome = match selection {
                    Some(sel) if !bits_equal(&sel, &references[p.template]) => Outcome::Mismatch,
                    _ => outcome,
                };
                state.record.samples.push(Sample {
                    timed: Timed {
                        due: p.due,
                        sent: p.sent,
                        done: Some(done),
                    },
                    outcome,
                    profile,
                    id,
                });
                changed.notify_all();
            }
        });

        let mut seq = 0u64;
        let mut send = |template: usize, due: f64| -> Result<(), String> {
            let mut request = templates[template].clone();
            request.id = format!("{tag}-{seq}");
            request.trace = trace;
            seq += 1;
            let t0 = Instant::now();
            let mut line = Request::Select(request.clone()).to_line();
            let encode = t0.elapsed().as_nanos() as f64;
            line.push('\n');
            {
                let mut state = shared.lock().expect("generator state");
                if trace {
                    state.record.encode_ns.push(encode);
                }
                state.pending.insert(
                    request.id,
                    Pending {
                        template,
                        due,
                        sent: now(),
                    },
                );
            }
            stream
                .write_all(line.as_bytes())
                .map_err(|e| format!("sending: {e}"))
        };
        let wait_below = |limit: usize| {
            let mut state = shared.lock().expect("generator state");
            while state.pending.len() >= limit {
                state = changed.wait(state).expect("generator state");
            }
        };
        let sent = (|| -> Result<(), String> {
            match schedule {
                Schedule::Closed { window } => {
                    while now() < duration {
                        wait_below(window.min(cap));
                        if now() >= duration {
                            break;
                        }
                        let Some(template) = draws.next() else { break };
                        send(template, now())?;
                    }
                }
                Schedule::Open { rate } => {
                    for i in 0u64.. {
                        let due = i as f64 / rate;
                        if due >= duration {
                            break;
                        }
                        let ahead = due - now();
                        if ahead > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(ahead));
                        }
                        wait_below(cap);
                        let Some(template) = draws.next() else { break };
                        send(template, due)?;
                    }
                }
            }
            Ok(())
        })();
        let idle = {
            let mut state = shared.lock().expect("generator state");
            state.sending_done = true;
            state.pending.is_empty()
        };
        // Wake a receiver blocked on an idle socket; otherwise it exits
        // after the last answer.
        if idle || sent.is_err() {
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
        let received = receiver.join().expect("receiver thread panicked");
        sent?;
        received
    })?;

    let state = shared.into_inner().expect("generator state");
    let mut record = state.record;
    record.elapsed = record
        .samples
        .iter()
        .filter_map(|s| s.timed.done)
        .fold(0.0, f64::max);
    for (id, p) in state.pending {
        record.samples.push(Sample {
            timed: Timed {
                due: p.due,
                sent: p.sent,
                done: None,
            },
            outcome: Outcome::Lost,
            profile: None,
            id,
        });
    }
    Ok(record)
}
