//! `serve`: a loopback `MatchServer` with `ServeConfig::default()`,
//! driven by one connection on one client thread. The connection
//! declares E34's 4 patterns, opens 128 sessions and streams each
//! session's seeded bytes as 512-byte FEEDs, keeping 8 FEEDs in flight
//! round-robin over its sessions (pipelined, closed loop).
//!
//! Why: a served feed costs far more core time than the dictionary
//! scan inside it, so poll-loop, syscall, codec and session changes
//! show here and dictionary-kernel changes barely do. An operation is
//! one FEED, timed from its send to its `FEED_OK`.

use crate::measure::{alternate, repeated_setup, windows_in, Meter, Phase, Recorder};
use crate::oracle::PeriodicOracle;
use crate::rng::{plant, symbols, Rng};
use crate::trace::{Open, SpanId, Trace, Tracer};
use crate::{Report, RunConfig};
use pm_chip::dictionary::{DictionaryMatcher, PatternDictionary};
use pm_serve::config::ServeConfig;
use pm_serve::protocol::{Decoder, Frame, Match, PROTOCOL_VERSION};
use pm_serve::server::MatchServer;
use pm_serve::session::{Conn, Shared};
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client connections, one client thread each. One, so that the
/// busy threads (the client and the server worker it lands on) do not
/// outnumber the 2 cores: with 2 connections, 4 busy threads shared the
/// cores and throughput swung 15–45 Mchar/s from window to window and
/// by a third between runs with how the scheduler placed them.
const CONNS: usize = 1;
const FEED: usize = 512;
const IN_FLIGHT: usize = 8;
/// In-process `Conn::handle` replays at most this many FEEDs.
const REPLAY_CAP: usize = 20_000;

/// `(sessions per connection, FEEDs per session before its text
/// repeats)`.
fn scale(short: bool) -> (usize, usize) {
    if short {
        (IN_FLIGHT, 4)
    } else {
        (128, 64)
    }
}

/// E34's dictionary: three literals and one wild-card pattern.
const PATTERNS: [(&[u8], Option<u8>); 4] = [
    (b"systolic", None),
    (b"vlsi", None),
    (b"pattern", None),
    (b"ch?p", Some(b'?')),
];

fn compiled() -> Vec<Pattern> {
    PATTERNS
        .iter()
        .map(|(bytes, wild)| {
            Pattern::from_bytes(bytes, *wild, Alphabet::EIGHT_BIT).expect("E34 patterns are valid")
        })
        .collect()
}

/// Every session's text and its oracle.
struct Inputs {
    /// `texts[conn][session]`: the bytes the session streams, repeated.
    texts: Vec<Vec<Vec<u8>>>,
    oracles: Vec<Vec<PeriodicOracle>>,
    sessions: usize,
}

impl Inputs {
    fn new(seed: u64, short: bool) -> Self {
        let (sessions, cycle) = scale(short);
        let len = cycle * FEED;
        let patterns = compiled();
        let reference = PatternDictionary::new(&patterns, ServeConfig::default().width).matcher();
        let mut texts = Vec::new();
        let mut oracles = Vec::new();
        for c in 0..CONNS {
            let mut conn_texts = Vec::new();
            let mut conn_oracles = Vec::new();
            for s in 0..sessions {
                let mut rng = Rng::new(seed, ((c * sessions + s) as u64) << 8);
                let mut bytes = rng.bytes(Alphabet::EIGHT_BIT, len);
                // Two plants of each pattern per cycle, some across
                // FEED boundaries, and one across the repeat point.
                for _ in 0..2 {
                    for p in &patterns {
                        plant(&mut bytes, p, rng.below(len), b'x');
                    }
                }
                plant(&mut bytes, &patterns[0], len - 3, b'x');
                conn_oracles.push(PeriodicOracle::new(&symbols(&bytes), |t| {
                    reference.find_all(t)
                }));
                conn_texts.push(bytes);
            }
            texts.push(conn_texts);
            oracles.push(conn_oracles);
        }
        Inputs {
            texts,
            oracles,
            sessions,
        }
    }

    fn chunk(&self, conn: usize, session: usize, offset: u64) -> &[u8] {
        let text = &self.texts[conn][session];
        let at = (offset % text.len() as u64) as usize;
        &text[at..at + FEED]
    }
}

/// Whether `got` carries exactly the oracle's events.
fn same_events(got: &[Match], want: &[pm_matchers::aho_corasick::DictMatch]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.pattern as usize == w.pattern && g.end == w.end as u64)
}

/// What one connection observed while driving FEEDs.
struct Drive {
    /// Acknowledged FEEDs, tallied by window.
    recorder: Recorder,
    /// FEEDs acknowledged.
    acked: u64,
    /// FEEDs refused or failed (not consumed by the server).
    refused: u64,
    /// FEEDs refused, failed, acknowledged with a wrong count, or
    /// whose events differ from the oracle.
    failed: u64,
    /// `SERVER_BUSY` answers among the refusals.
    busy: u64,
    reply_bytes: u64,
}

struct InFlight {
    session: usize,
    offset: u64,
    sent: Instant,
    op: u64,
    root: Option<Open>,
}

/// When a drive stops sending.
#[derive(Clone, Copy)]
enum Until {
    Feeds(u64),
    Deadline(Instant),
}

/// One client connection, speaking the protocol with `Frame::encode`
/// and `Decoder` over a blocking socket.
struct Client {
    conn: usize,
    stream: TcpStream,
    decoder: Decoder,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// The last FEED's payload buffer, reused for the next FEED.
    spare: Vec<u8>,
    /// Server session ids, by session index.
    ids: Vec<u64>,
    /// Bytes each session has had acknowledged.
    cursor: Vec<u64>,
    next: usize,
    ops: u64,
    /// Reply bytes read from the socket.
    read_bytes: u64,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Client {
    fn connect(addr: SocketAddr, conn: usize, sessions: usize) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).map_err(io_err("set_nodelay"))?;
        // A server that stops answering fails the run instead of
        // hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(io_err("set_read_timeout"))?;
        let mut client = Client {
            conn,
            stream,
            decoder: Decoder::new(),
            rbuf: vec![0; 64 << 10],
            wbuf: Vec::new(),
            spare: Vec::new(),
            ids: Vec::new(),
            cursor: vec![0; sessions],
            next: 0,
            ops: 0,
            read_bytes: 0,
        };
        match client.request(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Frame::HelloOk { .. } => {}
            other => return Err(format!("HELLO answered with {other:?}")),
        }
        for (bytes, wild) in PATTERNS {
            let frame = Frame::AddPattern {
                wild,
                bytes: bytes.to_vec(),
            };
            match client.request(&frame)? {
                Frame::PatternAdded { .. } => {}
                other => return Err(format!("ADD_PATTERN answered with {other:?}")),
            }
        }
        for _ in 0..sessions {
            match client.request(&Frame::OpenSession)? {
                Frame::SessionOpened { session } => client.ids.push(session),
                other => return Err(format!("OPEN_SESSION answered with {other:?}")),
            }
        }
        Ok(client)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        self.wbuf.clear();
        frame.encode(&mut self.wbuf);
        self.stream.write_all(&self.wbuf).map_err(io_err("write"))
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.send(frame)?;
        self.recv(None, None, 0)
    }

    /// The next frame from the server, reading as needed.
    fn recv(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        parent: Option<SpanId>,
        op: u64,
    ) -> Result<Frame, String> {
        loop {
            if let Some(frame) = self.buffered(tracer.as_deref_mut(), parent, op)? {
                return Ok(frame);
            }
            let t0 = Instant::now();
            let n = self.stream.read(&mut self.rbuf).map_err(io_err("read"))?;
            let t1 = Instant::now();
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.read_bytes += n as u64;
            self.decoder.push(&self.rbuf[..n]);
            if let Some(t) = tracer.as_deref_mut() {
                t.record("serve.socket.read", 0, None, t0, t1);
                t.record("serve.protocol.decode", 0, None, t1, Instant::now());
            }
        }
    }

    /// The next frame already buffered, without reading. The decode
    /// span of a frame becomes a child of `parent`, the span of the
    /// operation it answers.
    fn buffered(
        &mut self,
        tracer: Option<&mut Tracer>,
        parent: Option<SpanId>,
        op: u64,
    ) -> Result<Option<Frame>, String> {
        let t0 = Instant::now();
        let next = self.decoder.next();
        if let Some(t) = tracer {
            let (parent, op) = match next {
                Ok(Some(_)) => (parent, op),
                _ => (None, 0),
            };
            t.record("serve.protocol.decode", op, parent, t0, Instant::now());
        }
        next.map_err(|e| format!("undecodable reply: {e}"))
    }

    /// Streams FEEDs round-robin over the sessions with up to
    /// `IN_FLIGHT` outstanding until `until`, then drains; checks each
    /// acknowledged FEED's events against the oracle as it lands. Each
    /// refill of the window goes out in one write. `dur` sizes the
    /// recorder's windows, counted from `epoch`.
    fn drive(
        &mut self,
        inputs: &Inputs,
        until: Until,
        (epoch, dur): (Instant, Duration),
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Drive, String> {
        let mut d = Drive {
            recorder: Recorder::new(epoch, dur),
            acked: 0,
            refused: 0,
            failed: 0,
            busy: 0,
            reply_bytes: 0,
        };
        let mut flights: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
        let mut sent = 0u64;
        let mut events: Vec<Match> = Vec::new();
        let read_before = self.read_bytes;
        loop {
            self.wbuf.clear();
            while flights.len() < IN_FLIGHT
                && match until {
                    Until::Feeds(n) => sent < n,
                    Until::Deadline(t) => Instant::now() < t,
                }
            {
                // Sessions outnumber the window, so the session picked
                // has no FEED outstanding and its cursor is current.
                let session = self.next;
                self.next = (self.next + 1) % self.ids.len();
                let offset = self.cursor[session];
                self.ops += 1;
                let sent_at = Instant::now();
                let root = tracer
                    .as_deref_mut()
                    .map(|t| t.open("op.feed", self.ops, None));
                let mut bytes = std::mem::take(&mut self.spare);
                bytes.clear();
                bytes.extend_from_slice(inputs.chunk(self.conn, session, offset));
                let frame = Frame::Feed {
                    session: self.ids[session],
                    bytes,
                };
                frame.encode(&mut self.wbuf);
                if let Frame::Feed { bytes, .. } = frame {
                    self.spare = bytes;
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(
                        "serve.protocol.encode",
                        self.ops,
                        root.map(|r| r.id()),
                        sent_at,
                        Instant::now(),
                    );
                }
                flights.push_back(InFlight {
                    session,
                    offset,
                    sent: sent_at,
                    op: self.ops,
                    root,
                });
                sent += 1;
            }
            if !self.wbuf.is_empty() {
                let t0 = Instant::now();
                self.stream.write_all(&self.wbuf).map_err(io_err("write"))?;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.socket.write", 0, None, t0, Instant::now());
                }
            }
            let Some(front) = flights.front() else {
                break;
            };
            let parent = front.root.map(|r| r.id());
            let mut frame = self.recv(tracer.as_deref_mut(), parent, front.op)?;
            // Answer every reply already buffered before refilling, so
            // the refill goes out in one write.
            loop {
                let front = flights.front().expect("a reply answers an in-flight FEED");
                let front_id = self.ids[front.session];
                match frame {
                    Frame::MatchEvents {
                        session,
                        events: batch,
                    } if session == front_id => events.extend(batch),
                    Frame::FeedOk { session, consumed } if session == front_id => {
                        let f = flights.pop_front().expect("front exists");
                        let latency = f.sent.elapsed();
                        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), f.root) {
                            t.close(root);
                        }
                        self.cursor[f.session] += FEED as u64;
                        d.recorder.op(latency, FEED as u64);
                        d.acked += 1;
                        let start = f.offset as usize;
                        let want =
                            inputs.oracles[self.conn][f.session].expected(start, start + FEED);
                        if consumed != self.cursor[f.session] || !same_events(&events, &want) {
                            d.failed += 1;
                        }
                        events.clear();
                    }
                    Frame::ServerBusy { .. } | Frame::Error { .. } => {
                        // Refused or failed: the server did not consume
                        // the chunk, so the session resends it next turn.
                        let f = flights.pop_front().expect("front exists");
                        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), f.root) {
                            t.close(root);
                        }
                        events.clear();
                        d.busy += u64::from(matches!(frame, Frame::ServerBusy { .. }));
                        d.refused += 1;
                        d.failed += 1;
                    }
                    other => return Err(format!("unexpected reply to FEED: {other:?}")),
                }
                let Some(front) = flights.front() else {
                    break;
                };
                let parent = front.root.map(|r| r.id());
                match self.buffered(tracer.as_deref_mut(), parent, front.op)? {
                    Some(next) => frame = next,
                    None => break,
                }
            }
        }
        d.reply_bytes = self.read_bytes - read_before;
        Ok(d)
    }
}

/// A running server with its connected, warmed-up clients. Dropping
/// it says BYE on every connection and shuts the server down, joining
/// all its threads.
struct Rig {
    server: Option<MatchServer>,
    clients: Vec<Client>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        for c in &mut self.clients {
            let _ = c.send(&Frame::Bye);
        }
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Starts the server, connects, declares patterns, opens sessions and
/// feeds every session once.
fn setup(inputs: &Inputs, meter: &mut Meter) -> Result<Rig, String> {
    let server = MatchServer::start(ServeConfig::default()).map_err(io_err("server start"))?;
    let addr = server.local_addr();
    let mut rig = Rig {
        server: Some(server),
        clients: Vec::new(),
    };
    for c in 0..CONNS {
        rig.clients.push(Client::connect(addr, c, inputs.sessions)?);
    }
    for client in &mut rig.clients {
        let until = Until::Feeds(inputs.sessions as u64);
        let d = client.drive(inputs, until, (meter.started(), Duration::ZERO), None)?;
        meter.absorb(&d.recorder, d.acked + d.refused, d.failed);
    }
    Ok(rig)
}

/// Drives every connection on its own thread until `dur` has passed,
/// marking window boundaries meanwhile.
fn measure(
    rig: &mut Rig,
    inputs: &Inputs,
    dur: Duration,
    tracers: &mut [Tracer],
) -> Result<(Phase, Vec<Drive>), String> {
    let mut meter = Meter::start();
    let epoch = meter.started();
    let deadline = epoch + dur;
    let mut tracers = tracers.iter_mut();
    let drives: Vec<Result<Drive, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .map(|client| {
                let tracer = tracers.next();
                let until = Until::Deadline(deadline);
                scope.spawn(move || client.drive(inputs, until, (epoch, dur), tracer))
            })
            .collect();
        let windows = windows_in(dur);
        for k in 1..windows {
            let boundary = epoch + dur * k / windows;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            meter.mark();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut out = Vec::new();
    for d in drives {
        let d = d?;
        meter.absorb(&d.recorder, d.acked + d.refused, d.failed);
        out.push(d);
    }
    Ok((meter.finish(), out))
}

/// Connection 0's first `feeds` FEEDs, in the order it sends them
/// (round-robin over its sessions), as `(session, offset)`.
fn feed_order(inputs: &Inputs, feeds: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..feeds).map(|k| (k % inputs.sessions, (k / inputs.sessions) * FEED))
}

/// Replays connection 0's first `feeds` FEEDs through an in-process
/// `Shared`/`Conn` (no sockets), timing each `Conn::handle`. Returns
/// the FEEDs replayed and those whose replies differ from the oracle.
fn replay_session(inputs: &Inputs, feeds: usize, tracer: &mut Tracer) -> (u64, u64) {
    let mut conn = Conn::new(Shared::new(ServeConfig::default()));
    let mut out = Vec::new();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
    };
    conn.handle(hello, &mut out);
    for (bytes, wild) in PATTERNS {
        let bytes = bytes.to_vec();
        conn.handle(Frame::AddPattern { wild, bytes }, &mut out);
    }
    let mut ids = Vec::new();
    for _ in 0..inputs.sessions {
        out.clear();
        conn.handle(Frame::OpenSession, &mut out);
        match out.as_slice() {
            [Frame::SessionOpened { session }] => ids.push(*session),
            _ => return (1, 1),
        }
    }
    let mut failed = 0;
    for (k, (s, offset)) in feed_order(inputs, feeds).enumerate() {
        out.clear();
        let frame = Frame::Feed {
            session: ids[s],
            bytes: inputs.chunk(0, s, offset as u64).to_vec(),
        };
        tracer.span("serve.session.handle", k as u64, None, || {
            conn.handle(frame, &mut out)
        });
        let want = inputs.oracles[0][s].expected(offset, offset + FEED);
        let ok = match out.as_slice() {
            [Frame::FeedOk { .. }] => want.is_empty(),
            [Frame::MatchEvents { events, .. }, Frame::FeedOk { .. }] => same_events(events, &want),
            _ => false,
        };
        failed += u64::from(!ok);
    }
    (feeds as u64, failed)
}

/// Replays the same FEEDs straight into per-session
/// `DictionaryMatcher`s built as a connection builds its dictionary,
/// timing each `feed`. Returns the dictionary, its compile time, the
/// FEEDs replayed and those whose events differ from the oracle.
fn replay_dictionary(
    inputs: &Inputs,
    feeds: usize,
    tracer: &mut Tracer,
) -> (PatternDictionary, f64, u64, u64) {
    let t = Instant::now();
    let dict = PatternDictionary::new(&compiled(), ServeConfig::default().width);
    let compile_s = t.elapsed().as_secs_f64();
    let mut matchers: Vec<DictionaryMatcher> = vec![dict.matcher(); inputs.sessions];
    let mut failed = 0;
    for (k, (s, offset)) in feed_order(inputs, feeds).enumerate() {
        let chunk: Vec<Symbol> = symbols(inputs.chunk(0, s, offset as u64));
        let events = tracer.span("chip.dictionary.feed", k as u64, None, || {
            matchers[s].feed(&chunk)
        });
        failed += u64::from(events != inputs.oracles[0][s].expected(offset, offset + FEED));
    }
    (dict, compile_s, feeds as u64, failed)
}

/// Runs the workload.
///
/// # Errors
///
/// Socket failures, an unexpected reply, or failures writing the
/// trace.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let inputs = Inputs::new(cfg.seed, cfg.short);
    let mut report = Report::default();
    report.note(format!(
        "shape: {CONNS} connection(s) (1 client thread each) x {} sessions, {FEED}-byte FEEDs, \
         {IN_FLIGHT} in flight per connection, {} server worker threads, width {}",
        inputs.sessions,
        ServeConfig::default().effective_workers(),
        ServeConfig::default().width
    ));
    let (setup_s, mut rig, warm) = repeated_setup(cfg.setup_reps(), |meter| setup(&inputs, meter))?;
    report.attempted += warm.attempted;
    report.failed += warm.failed;

    if !cfg.trace {
        report.set("setup_s", setup_s);
        let (phase, _) = measure(&mut rig, &inputs, cfg.duration(), &mut [])?;
        phase.report_end_to_end(&mut report);
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        return Ok(report);
    }

    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNS).map(|_| Tracer::new(epoch)).collect();
    let mut drives = Vec::new();
    let (plain, traced) = alternate(cfg.duration() / 2, |on, dur| {
        let tracers: &mut [Tracer] = if on { &mut tracers } else { &mut [] };
        let (phase, d) = measure(&mut rig, &inputs, dur, tracers)?;
        if on {
            drives.extend(d);
        }
        Ok(phase)
    })?;
    drop(rig);
    let mut replay_tracer = Tracer::new(Instant::now());
    // Every segment's drives, connection by connection.
    let conn0: u64 = drives.iter().step_by(CONNS).map(|d| d.acked).sum();
    let feeds = (conn0 as usize).clamp(1, REPLAY_CAP);
    let session = replay_session(&inputs, feeds, &mut replay_tracer);
    let (dict, compile_s, dict_feeds, dict_failed) =
        replay_dictionary(&inputs, feeds, &mut replay_tracer);
    tracers.push(replay_tracer);
    let trace = Trace::merge(tracers);
    for (a, f) in [
        (plain.attempted, plain.failed),
        (traced.attempted, traced.failed),
        session,
        (dict_feeds, dict_failed),
    ] {
        report.attempted += a;
        report.failed += f;
    }

    let acked = traced.samples;
    let encode = trace.per_op_us("serve.protocol.encode", acked);
    let decode = trace.per_op_us("serve.protocol.decode", acked);
    let handle = trace.p50_us("serve.session.handle");
    report.set("serve.protocol.encode_us", encode);
    report.set("serve.protocol.decode_us", decode);
    report.set("serve.session.handle_us", handle);
    report.set(
        "serve.server.residual_us",
        trace.p50_us("op.feed") - handle - encode - decode,
    );
    let busy: u64 = drives.iter().map(|d| d.busy).sum();
    report.set(
        "serve.session.busy_frac",
        busy as f64 / traced.attempted.max(1) as f64,
    );
    let reply: u64 = drives.iter().map(|d| d.reply_bytes).sum();
    report.set(
        "serve.session.reply_bytes_per_input_byte",
        reply as f64 / traced.chars.max(1) as f64,
    );
    let stats = *dict.stats();
    report.set("chip.dictionary.compile_s", compile_s);
    report.set(
        "chip.dictionary.feed_us",
        trace.p50_us("chip.dictionary.feed"),
    );
    report.set("chip.dictionary.groups", stats.groups as f64);
    report.set("chip.dictionary.occupancy", stats.occupancy());
    report.set("chip.dictionary.resident", stats.resident as f64);
    report.note(format!("in-process replay: {feeds} FEEDs of connection 0"));
    crate::trace_summary(&mut report, cfg, "serve", &trace, &plain, &traced)?;
    Ok(report)
}
