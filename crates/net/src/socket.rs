//! Real socket transport: nonblocking TCP between DTX processes.
//!
//! The multi-process half of the transport seam. Inside one process,
//! [`crate::Network`] still routes messages between local sites (the
//! simulated LAN is the deterministic test harness); a
//! [`SocketTransport`] carries traffic for sites hosted by *other OS
//! processes* over real TCP connections, speaking the framed wire format
//! of [`crate::wire`] (specified in `WIRE.md`).
//!
//! The wiring between the two is two closures:
//!
//! * the network's **uplink** ([`crate::Network::set_uplink`]) encodes an
//!   outbound envelope and queues it on the destination process's
//!   connection ([`SocketTransport::send_msg`]);
//! * the transport's **message handler**
//!   ([`SocketTransport::set_msg_handler`]) takes a decoded inbound
//!   envelope and delivers it to the local endpoint
//!   ([`crate::Network::deliver`]).
//!
//! ## Structure: one poller per shard
//!
//! Connections are pinned to a small fixed pool of **poller threads**
//! (default `min(4, cores)`, see [`SocketConfig`]) exactly like the timer
//! wheel pins links to delivery shards: thread count is O(pollers) no
//! matter how many processes peer, and one poller owns all of a
//! connection's reads so frame extraction needs no cross-thread
//! coordination. Pollers run the same poll-mode-nap discipline as the
//! wheel workers — drain everything movable, then nap briefly — instead
//! of parking per socket. Poller 0 additionally polls the (nonblocking)
//! listener for inbound connections; there is no separate acceptor
//! thread.
//!
//! ## Ordering
//!
//! All traffic for an ordered `(from, to)` site pair flows over one TCP
//! connection (a site's route is fixed by the first handshake that
//! advertises it), senders append complete frames under the connection's
//! write lock, and one poller extracts frames in stream order — so
//! per-pair FIFO holds across the process boundary exactly as it does in
//! the simulation (`tests/process.rs` storms this with the shapes of
//! `tests/net_props.rs`).
//!
//! ## Handshake
//!
//! Both ends of a fresh connection immediately send a `Hello` frame
//! listing the site ids they host; receipt installs `site → connection`
//! routes. An initiator that already knows the peer's sites (from the
//! driver's peer map) passes them to [`SocketTransport::connect`] so
//! routes exist before the reply arrives. Frames sent while a route is
//! still unknown are buffered (bounded) and flushed when the route
//! appears.

use crate::wire::{
    extract_frame, frame, FrameHeader, FrameKind, WireCodec, WireReader, WireWriter,
};
use crate::{Envelope, NetError, SiteId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pseudo-site id used as the `from`/`to` of control frames exchanged
/// with a driver process (the driver hosts no scheduler; it speaks only
/// the control plane). Reserved: real sites are numbered from 0 and
/// clusters never reach 65535.
pub const DRIVER_SITE: SiteId = SiteId(u16::MAX);

/// Tuning knobs of the socket transport.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Poller-thread pool size — the upper bound on socket threads
    /// regardless of how many processes peer. Default: `min(4, cores)`,
    /// at least 1.
    pub pollers: usize,
    /// Nap between poll passes when nothing moved (the socket analogue
    /// of the wheel worker's poll nap). Default: 250 µs.
    pub nap: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SocketConfig {
            pollers: cores.clamp(1, 4),
            nap: Duration::from_micros(250),
        }
    }
}

/// Real bytes-on-wire counters (what `BENCH_wire.json` reports). Unlike
/// [`crate::NetStats`], which counts *approximate* payload sizes from
/// [`crate::Wire::wire_size`], these count the actual framed bytes
/// written to and read from sockets.
#[derive(Debug, Default)]
pub struct WireStats {
    frames_out: AtomicU64,
    frames_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    decode_errors: AtomicU64,
    pending_dropped: AtomicU64,
}

impl WireStats {
    /// Frames queued for transmission.
    pub fn frames_out(&self) -> u64 {
        self.frames_out.load(Ordering::Relaxed)
    }

    /// Frames received and dispatched.
    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Bytes written to sockets (headers included — real wire bytes).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Bytes read from sockets.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Inbound `Msg` frames whose body failed to decode (dropped; the
    /// frame boundary stayed intact so the connection survives).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// Frames dropped because their destination had no route and the
    /// pending buffer was full.
    pub fn pending_dropped(&self) -> u64 {
        self.pending_dropped.load(Ordering::Relaxed)
    }
}

/// Inbound scheduler-message sink (decoded `Msg` frames).
pub type MsgHandler<M> = Arc<dyn Fn(Envelope<M>) + Send + Sync>;

/// Inbound control-plane sink: the frame header plus the raw `Ctrl`
/// body. Handlers must not block — hand the body to a worker thread
/// (control bodies are decoded by `dtx-core`'s control codec; this crate
/// does not know their shape).
pub type CtrlHandler = Arc<dyn Fn(FrameHeader, Vec<u8>) + Send + Sync>;

/// Frames buffered per not-yet-routed site before drops start.
const PENDING_CAP: usize = 4096;

/// Write/read chunk size of one poller pass.
const IO_CHUNK: usize = 64 * 1024;

/// How long shutdown keeps flushing unsent bytes before giving up.
const FLUSH_BUDGET: Duration = Duration::from_millis(500);

/// One TCP connection. The write half (`out`) is shared with senders;
/// the read half (`inbuf`) is touched only by the owning poller.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Framed bytes awaiting transmission, appended under the lock in
    /// send order (per-pair FIFO rides on this plus TCP's own ordering).
    out: Mutex<Vec<u8>>,
    /// Received bytes awaiting frame extraction.
    inbuf: Mutex<Vec<u8>>,
    closed: AtomicBool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> std::io::Result<Arc<Conn>> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Arc::new(Conn {
            id,
            stream,
            out: Mutex::new(Vec::new()),
            inbuf: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        }))
    }
}

struct SockInner<M> {
    /// Site ids hosted by this process (advertised in `Hello`).
    hosted: Vec<SiteId>,
    listener: TcpListener,
    local_addr: SocketAddr,
    cfg: SocketConfig,
    /// site → connection id, installed by handshakes and
    /// [`SocketTransport::connect`]'s expectation list. First writer
    /// wins, so a simultaneous cross-connect cannot flap a route
    /// mid-stream.
    routes: RwLock<HashMap<SiteId, u64>>,
    conns: RwLock<HashMap<u64, Arc<Conn>>>,
    /// Connections grouped by owning poller shard.
    shards: Vec<Mutex<Vec<Arc<Conn>>>>,
    /// Frames for sites with no route yet (bounded by [`PENDING_CAP`]).
    pending: Mutex<HashMap<SiteId, Vec<Vec<u8>>>>,
    next_conn: AtomicU64,
    stats: WireStats,
    msg_handler: RwLock<Option<MsgHandler<M>>>,
    ctrl_handler: RwLock<Option<CtrlHandler>>,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A cloneable handle to this process's socket transport (all clones
/// share state).
pub struct SocketTransport<M: WireCodec + Send + 'static> {
    inner: Arc<SockInner<M>>,
}

impl<M: WireCodec + Send + 'static> Clone for SocketTransport<M> {
    fn clone(&self) -> Self {
        SocketTransport {
            inner: self.inner.clone(),
        }
    }
}

impl<M: WireCodec + Send + 'static> SocketTransport<M> {
    /// Binds `addr` (use port 0 for an OS-assigned port; see
    /// [`SocketTransport::local_addr`]) and starts the poller pool. The
    /// transport accepts inbound connections immediately; install
    /// handlers before peers start talking.
    pub fn bind(hosted: &[SiteId], addr: &str, cfg: SocketConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let pollers = cfg.pollers.max(1);
        let inner = Arc::new(SockInner {
            hosted: hosted.to_vec(),
            listener,
            local_addr,
            cfg: SocketConfig { pollers, ..cfg },
            routes: RwLock::new(HashMap::new()),
            conns: RwLock::new(HashMap::new()),
            shards: (0..pollers).map(|_| Mutex::new(Vec::new())).collect(),
            pending: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            stats: WireStats::default(),
            msg_handler: RwLock::new(None),
            ctrl_handler: RwLock::new(None),
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        for shard in 0..pollers {
            let inner2 = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("dtx-sock-poll-{shard}"))
                .spawn(move || poll_loop(inner2, shard))
                .expect("spawn socket poller");
            inner.threads.lock().push(handle);
        }
        Ok(SocketTransport { inner })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// The site ids this process hosts.
    pub fn hosted(&self) -> &[SiteId] {
        &self.inner.hosted
    }

    /// Real bytes-on-wire counters.
    pub fn stats(&self) -> &WireStats {
        &self.inner.stats
    }

    /// Installs the inbound scheduler-message sink (usually a closure
    /// over [`crate::Network::deliver`]).
    pub fn set_msg_handler(&self, handler: Option<MsgHandler<M>>) {
        *self.inner.msg_handler.write() = handler;
    }

    /// Installs the inbound control-plane sink.
    pub fn set_ctrl_handler(&self, handler: Option<CtrlHandler>) {
        *self.inner.ctrl_handler.write() = handler;
    }

    /// Connects to a peer process and sends the handshake. `expect`
    /// lists the sites known (from the peer map) to live there — their
    /// routes are installed immediately so traffic can flow before the
    /// peer's own `Hello` arrives; the empty list works too (routes then
    /// wait on the handshake).
    pub fn connect(&self, addr: &str, expect: &[SiteId]) -> std::io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        let id = self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn = Conn::new(id, stream)?;
        queue_hello(&self.inner, &conn);
        register_conn(&self.inner, conn);
        let mut routes = self.inner.routes.write();
        for &site in expect {
            routes.entry(site).or_insert(id);
        }
        drop(routes);
        for &site in expect {
            flush_pending(&self.inner, site);
        }
        Ok(())
    }

    /// Encodes `payload` and queues it for the process hosting `to`.
    /// Unknown destinations are buffered (bounded) until a route
    /// appears — process startup is a race between the peer map and the
    /// first send.
    pub fn send_msg(&self, from: SiteId, to: SiteId, payload: &M) -> Result<(), NetError> {
        let framed = frame(FrameKind::Msg, from, to, &payload.encode());
        route_frame(&self.inner, to, framed)
    }

    /// Queues a control-plane frame (body already encoded by the caller)
    /// for the process hosting `to`.
    pub fn send_ctrl(&self, from: SiteId, to: SiteId, body: &[u8]) -> Result<(), NetError> {
        let framed = frame(FrameKind::Ctrl, from, to, body);
        route_frame(&self.inner, to, framed)
    }

    /// True when a route to `site` exists (its hosting process has
    /// handshaken or been connected with an expectation list).
    pub fn has_route(&self, site: SiteId) -> bool {
        self.inner.routes.read().contains_key(&site)
    }

    /// Stops the pollers after a bounded best-effort flush of unsent
    /// frames, then closes every connection. Clears the handlers (they
    /// typically close over the local `Network`, which closes over this
    /// transport via the uplink — clearing breaks the reference cycle).
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        for h in threads {
            let _ = h.join();
        }
        for conn in self.inner.conns.read().values() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        *self.inner.msg_handler.write() = None;
        *self.inner.ctrl_handler.write() = None;
    }
}

/// Encodes this process's `Hello` (hosted-site list) onto `conn`'s
/// outbound buffer. `from` is the lowest hosted site (or [`DRIVER_SITE`]
/// for a pure driver); `to` is unknown at handshake time and carries the
/// same value.
fn queue_hello<M>(inner: &SockInner<M>, conn: &Conn) {
    let mut w = WireWriter::new();
    w.put_varint(inner.hosted.len() as u64);
    for site in &inner.hosted {
        w.put_varint(site.0 as u64);
    }
    let me = inner.hosted.first().copied().unwrap_or(DRIVER_SITE);
    let framed = frame(FrameKind::Hello, me, me, &w.finish());
    push_frame(inner, conn, framed);
}

/// Appends one framed message to `conn`'s outbound buffer, counting it.
fn push_frame<M>(inner: &SockInner<M>, conn: &Conn, framed: Vec<u8>) {
    inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .bytes_out
        .fetch_add(framed.len() as u64, Ordering::Relaxed);
    conn.out.lock().extend_from_slice(&framed);
}

/// Adds a fresh connection to the conn table and its poller shard.
fn register_conn<M>(inner: &SockInner<M>, conn: Arc<Conn>) {
    let shard = (conn.id as usize) % inner.shards.len();
    inner.conns.write().insert(conn.id, Arc::clone(&conn));
    inner.shards[shard].lock().push(conn);
}

/// Queues `framed` on the connection routing `to`, or into the bounded
/// pending buffer when no route exists yet.
fn route_frame<M>(inner: &SockInner<M>, to: SiteId, framed: Vec<u8>) -> Result<(), NetError> {
    let conn = {
        let routes = inner.routes.read();
        routes
            .get(&to)
            .and_then(|id| inner.conns.read().get(id).cloned())
    };
    match conn {
        Some(conn) => {
            push_frame(inner, &conn, framed);
            Ok(())
        }
        None => {
            {
                let mut pending = inner.pending.lock();
                let q = pending.entry(to).or_default();
                if q.len() >= PENDING_CAP {
                    inner.stats.pending_dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    q.push(framed);
                }
            }
            // A handshake may have installed the route between the check
            // above and the buffering — re-check so the frame cannot be
            // stranded in a pending queue nobody will flush again.
            if inner.routes.read().contains_key(&to) {
                flush_pending(inner, to);
            }
            Ok(())
        }
    }
}

/// Moves any frames buffered for `site` onto its (now routed)
/// connection, preserving their buffering order.
fn flush_pending<M>(inner: &SockInner<M>, site: SiteId) {
    let frames = match inner.pending.lock().remove(&site) {
        Some(f) => f,
        None => return,
    };
    let conn = {
        let routes = inner.routes.read();
        routes
            .get(&site)
            .and_then(|id| inner.conns.read().get(id).cloned())
    };
    if let Some(conn) = conn {
        let mut out = conn.out.lock();
        for framed in frames {
            inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            inner
                .stats
                .bytes_out
                .fetch_add(framed.len() as u64, Ordering::Relaxed);
            out.extend_from_slice(&framed);
        }
    }
    // No route after all (race with a failed connect): drop, counted.
    else {
        inner
            .stats
            .pending_dropped
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
    }
}

/// One poller thread: drains its shard's connections (write, read,
/// extract, dispatch) in poll-mode passes with naps, mirroring the
/// reactor's wheel workers. Shard 0 also accepts inbound connections.
fn poll_loop<M: WireCodec + Send + 'static>(inner: Arc<SockInner<M>>, shard: usize) {
    // One read buffer for every connection and pass of this thread.
    let mut scratch = vec![0u8; IO_CHUNK];
    loop {
        let stopping = inner.stop.load(Ordering::Relaxed);
        let mut moved = false;
        if shard == 0 && !stopping {
            moved |= accept_pass(&inner);
        }
        let conns: Vec<Arc<Conn>> = inner.shards[shard].lock().clone();
        for conn in &conns {
            if conn.closed.load(Ordering::Relaxed) {
                continue;
            }
            moved |= write_pass(conn);
            moved |= read_pass(&inner, conn, &mut scratch);
            extract_pass(&inner, conn);
        }
        if stopping {
            // Bounded best-effort flush of whatever is still queued, then
            // exit; unsendable bytes are abandoned when the budget runs
            // out (the peer is likely gone).
            let deadline = Instant::now() + FLUSH_BUDGET;
            while Instant::now() < deadline {
                let mut left = false;
                for conn in &conns {
                    if conn.closed.load(Ordering::Relaxed) {
                        continue;
                    }
                    write_pass(conn);
                    left |= !conn.out.lock().is_empty();
                }
                if !left {
                    break;
                }
                std::thread::sleep(inner.cfg.nap);
            }
            return;
        }
        if !moved {
            std::thread::sleep(inner.cfg.nap);
        }
    }
}

/// Accepts every pending inbound connection (nonblocking listener).
fn accept_pass<M>(inner: &Arc<SockInner<M>>) -> bool {
    let mut any = false;
    loop {
        match inner.listener.accept() {
            Ok((stream, _)) => {
                let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(conn) = Conn::new(id, stream) {
                    queue_hello(inner, &conn);
                    register_conn(inner, conn);
                    any = true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return any,
            Err(_) => return any,
        }
    }
}

/// Writes as much of `conn`'s outbound buffer as the socket accepts.
fn write_pass(conn: &Conn) -> bool {
    let mut out = conn.out.lock();
    if out.is_empty() {
        return false;
    }
    let mut written = 0usize;
    while written < out.len() {
        let end = (written + IO_CHUNK).min(out.len());
        match (&conn.stream).write(&out[written..end]) {
            Ok(0) => {
                conn.closed.store(true, Ordering::Relaxed);
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closed.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
    out.drain(..written);
    written > 0
}

/// Reads everything currently available on `conn` into its inbuf, by
/// way of the calling poller's `scratch` buffer.
fn read_pass<M>(inner: &SockInner<M>, conn: &Conn, scratch: &mut [u8]) -> bool {
    let mut any = false;
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.closed.store(true, Ordering::Relaxed);
                return any;
            }
            Ok(n) => {
                inner.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                conn.inbuf.lock().extend_from_slice(&scratch[..n]);
                any = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return any,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closed.store(true, Ordering::Relaxed);
                return any;
            }
        }
    }
}

/// Extracts and dispatches every complete frame buffered on `conn`. A
/// header-level error (bad magic/version/length) desynchronizes the
/// stream irrecoverably, so the connection is closed; a body-level
/// decode failure only drops that frame.
fn extract_pass<M: WireCodec + Send + 'static>(inner: &Arc<SockInner<M>>, conn: &Conn) {
    let mut inbuf = conn.inbuf.lock();
    let mut consumed = 0usize;
    loop {
        match extract_frame(&inbuf[consumed..]) {
            Ok(Some((header, body))) => {
                let total = crate::wire::HEADER_LEN + header.body_len;
                dispatch(inner, conn, header, body);
                consumed += total;
            }
            Ok(None) => break,
            Err(_) => {
                conn.closed.store(true, Ordering::Relaxed);
                inbuf.clear();
                return;
            }
        }
    }
    inbuf.drain(..consumed);
}

/// Routes one received frame to its sink.
fn dispatch<M: WireCodec + Send + 'static>(
    inner: &Arc<SockInner<M>>,
    conn: &Conn,
    header: FrameHeader,
    body: &[u8],
) {
    inner.stats.frames_in.fetch_add(1, Ordering::Relaxed);
    match header.kind {
        FrameKind::Hello => {
            let mut r = WireReader::new(body);
            let Ok(count) = r.varint() else {
                conn.closed.store(true, Ordering::Relaxed);
                return;
            };
            let mut sites = Vec::new();
            for _ in 0..count.min(u16::MAX as u64) {
                match r.varint() {
                    Ok(s) if s <= u16::MAX as u64 => sites.push(SiteId(s as u16)),
                    _ => {
                        conn.closed.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
            let mut routes = inner.routes.write();
            for &site in &sites {
                routes.entry(site).or_insert(conn.id);
            }
            drop(routes);
            for &site in &sites {
                flush_pending(inner, site);
            }
        }
        FrameKind::Msg => match M::decode(body) {
            Ok(payload) => {
                let handler = inner.msg_handler.read().clone();
                if let Some(h) = handler {
                    h(Envelope {
                        from: header.from,
                        to: header.to,
                        payload,
                    });
                }
            }
            Err(_) => {
                inner.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        },
        FrameKind::Ctrl => {
            let handler = inner.ctrl_handler.read().clone();
            if let Some(h) = handler {
                h(header, body.to_vec());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireError;
    use crossbeam::channel::unbounded;

    /// A tiny codec-bearing payload for transport-level tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u64);

    impl WireCodec for Ping {
        fn encode_body(&self, w: &mut WireWriter) {
            w.put_varint(self.0);
        }
        fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            Ok(Ping(r.varint()?))
        }
    }

    fn pair() -> (SocketTransport<Ping>, SocketTransport<Ping>) {
        let a = SocketTransport::bind(&[SiteId(0)], "127.0.0.1:0", SocketConfig::default())
            .expect("bind a");
        let b = SocketTransport::bind(&[SiteId(1)], "127.0.0.1:0", SocketConfig::default())
            .expect("bind b");
        a.connect(&b.local_addr().to_string(), &[SiteId(1)])
            .expect("connect");
        (a, b)
    }

    #[test]
    fn messages_cross_the_socket_in_order() {
        let (a, b) = pair();
        let (tx, rx) = unbounded();
        b.set_msg_handler(Some(Arc::new(move |env: Envelope<Ping>| {
            let _ = tx.send(env);
        })));
        const N: u64 = 500;
        for i in 0..N {
            a.send_msg(SiteId(0), SiteId(1), &Ping(i)).unwrap();
        }
        for i in 0..N {
            let env = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("delivery within timeout");
            assert_eq!(env.from, SiteId(0));
            assert_eq!(env.to, SiteId(1));
            assert_eq!(env.payload, Ping(i), "per-pair FIFO across the socket");
        }
        assert!(a.stats().bytes_out() >= N * (crate::wire::HEADER_LEN as u64));
        assert!(b.stats().frames_in() >= N);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reverse_route_is_learned_from_the_handshake() {
        let (a, b) = pair();
        let (tx, rx) = unbounded();
        a.set_msg_handler(Some(Arc::new(move |env: Envelope<Ping>| {
            let _ = tx.send(env.payload);
        })));
        // b never called connect — its route to site 0 comes from a's
        // Hello. Sends may land in the pending buffer until then.
        b.send_msg(SiteId(1), SiteId(0), &Ping(77)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("delivered"),
            Ping(77)
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn ctrl_frames_reach_the_ctrl_handler() {
        let (a, b) = pair();
        let (tx, rx) = unbounded();
        b.set_ctrl_handler(Some(Arc::new(move |header: FrameHeader, body: Vec<u8>| {
            let _ = tx.send((header.from, body));
        })));
        a.send_ctrl(DRIVER_SITE, SiteId(1), b"control body")
            .unwrap();
        let (from, body) = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(from, DRIVER_SITE);
        assert_eq!(body, b"control body");
        a.shutdown();
        b.shutdown();
    }
}
