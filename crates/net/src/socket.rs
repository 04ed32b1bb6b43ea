//! Real socket transport: blocking TCP between DTX processes.
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
//!   outbound envelope and writes it to the destination process's
//!   connection ([`SocketTransport::send_msg`]);
//! * the transport's **message handler**
//!   ([`SocketTransport::set_msg_handler`]) takes a decoded inbound
//!   envelope and delivers it to the local endpoint
//!   ([`crate::Network::deliver`]).
//!
//! ## Structure: one reader thread per connection
//!
//! Every connection has one **reader thread** that blocks in `read`,
//! peels complete frames off its receive buffer and dispatches them to
//! the handlers. Senders write on their own thread: a frame reaches the
//! kernel through one `write_all` under the connection's write lock, so
//! there is no outbound buffer and no writer thread. One **acceptor
//! thread** blocks in `accept`. A transport thus runs 1 + (connections)
//! threads — O(peers) — and each sleeps in the kernel until bytes or a
//! peer arrive.
//!
//! A write that fails, or that the peer does not drain within
//! `WRITE_TIMEOUT` (5 s), closes the connection; so does a reader that
//! sees EOF or a desynchronized stream. That send and every later one on
//! the connection's routes return [`NetError::Closed`].
//!
//! ## Ordering
//!
//! All traffic for an ordered `(from, to)` site pair flows over one TCP
//! connection (a site's route is fixed by the first handshake that
//! advertises it), each frame is written whole under the connection's
//! write lock, and one reader extracts frames in stream order — so
//! per-pair FIFO holds across the process boundary exactly as it does in
//! the simulation (`tests/process.rs` storms this with the shapes of
//! `tests/net_props.rs`).
//!
//! ## Handshake
//!
//! Both ends of a fresh connection first send a `Hello` frame listing
//! the site ids they host; receipt installs `site → connection` routes.
//! An initiator that already knows the peer's sites (from the driver's
//! peer map) passes them to [`SocketTransport::connect`] so routes exist
//! before the reply arrives. Frames sent while a route is still unknown
//! are buffered (bounded) and written before the route is published, so
//! no later send can overtake them. The reader thread that receives the
//! `Hello` writes them: the one place a reader writes.

use crate::wire::{
    extract_frame, frame, with_frame, FrameHeader, FrameKind, WireCodec, WireError, WireReader,
    HEADER_LEN,
};
use crate::{Envelope, NetError, SiteId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pseudo-site id used as the `from`/`to` of control frames exchanged
/// with a driver process (the driver hosts no scheduler; it speaks only
/// the control plane). Reserved: real sites are numbered from 0 and
/// clusters never reach 65535.
pub const DRIVER_SITE: SiteId = SiteId(u16::MAX);

/// Settings of the socket transport. There are none: a transport runs
/// one acceptor thread plus one reader thread per connection, and
/// nothing about that is tunable. The type keeps
/// [`SocketTransport::bind`]'s signature stable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketConfig {}

/// Real bytes-on-wire counters (what `BENCH_wire.json` reports): the
/// framed bytes written to and read from sockets, `Hello` handshakes and
/// control frames included. A `Msg` frame counts the same bytes
/// [`crate::NetStats`] charges its message in the simulation.
#[derive(Debug, Default)]
pub struct WireStats {
    frames_out: AtomicU64,
    frames_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    decode_errors: AtomicU64,
    pending_dropped: AtomicU64,
    accept_errors: AtomicU64,
}

impl WireStats {
    /// Frames the kernel accepted for transmission.
    pub fn frames_out(&self) -> u64 {
        self.frames_out.load(Ordering::Relaxed)
    }

    /// Frames received and dispatched.
    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Bytes the kernel accepted for transmission (headers included —
    /// real wire bytes).
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
    /// pending buffer was full, or because the connection their route
    /// finally named could not take them.
    pub fn pending_dropped(&self) -> u64 {
        self.pending_dropped.load(Ordering::Relaxed)
    }

    /// Failed `accept` calls on the listener, such as running out of
    /// file descriptors. The acceptor pauses `ACCEPT_ERROR_PAUSE` after
    /// each one.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }
}

/// Inbound scheduler-message sink (decoded `Msg` frames).
pub type MsgHandler<M> = Arc<dyn Fn(Envelope<M>) + Send + Sync>;

/// Inbound control-plane sink: the frame header plus the raw `Ctrl`
/// body. Handlers run on a connection's reader thread and must not
/// block — hand the body to a worker thread (control bodies are decoded
/// by `dtx-core`'s control codec; this crate does not know their shape).
pub type CtrlHandler = Arc<dyn Fn(FrameHeader, Vec<u8>) + Send + Sync>;

/// Frames buffered per not-yet-routed site before drops start.
const PENDING_CAP: usize = 4096;

/// Size of one blocking `read` on a connection. Every reader thread
/// holds one such buffer, and frames average ~140 bytes.
const READ_CHUNK: usize = 16 * 1024;

/// How long the acceptor sleeps after a failed `accept`. An error such
/// as `EMFILE` persists until a descriptor frees up, and retrying it at
/// once would spin a core.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// How long one write may wait for the peer to drain its socket. A peer
/// that is stopped but still connected then closes the connection
/// instead of parking the sending thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One TCP connection. Senders write whole frames under `out`; the
/// connection's reader thread is the only one that reads `stream`.
struct Conn {
    stream: TcpStream,
    /// The write half: a clone of `stream`, locked for one whole write.
    out: Mutex<TcpStream>,
    closed: AtomicBool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Arc<Conn>> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Arc::new(Conn {
            out: Mutex::new(stream.try_clone()?),
            stream,
            closed: AtomicBool::new(false),
        }))
    }

    /// Marks the connection dead and shuts its socket down both ways,
    /// which wakes its reader and tells the peer.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Writes `bytes` — `frames` whole frames — in one `write_all` under
    /// the write lock, counting them once the kernel has them. A failed
    /// or timed-out write may have left half a frame on the stream, so it
    /// closes the connection for good.
    fn write(&self, stats: &WireStats, bytes: &[u8], frames: u64) -> Result<(), NetError> {
        let mut out = self.out.lock();
        if self.is_closed() {
            return Err(NetError::Closed);
        }
        if out.write_all(bytes).is_err() {
            self.close();
            return Err(NetError::Closed);
        }
        stats.frames_out.fetch_add(frames, Ordering::Relaxed);
        stats
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

struct SockInner<M> {
    /// Site ids hosted by this process (advertised in `Hello`).
    hosted: Vec<SiteId>,
    listener: TcpListener,
    local_addr: SocketAddr,
    /// site → connection, installed by handshakes and
    /// [`SocketTransport::connect`]'s expectation list. First writer
    /// wins, so a simultaneous cross-connect cannot flap a route
    /// mid-stream.
    routes: RwLock<HashMap<SiteId, Arc<Conn>>>,
    /// Frames for sites with no route yet (bounded by [`PENDING_CAP`]).
    /// Routes are published under this lock, after the frames buffered
    /// for them went out (see [`install_routes`]).
    pending: Mutex<HashMap<SiteId, Vec<Vec<u8>>>>,
    /// Every connection with its reader thread, for shutdown.
    conns: Mutex<Vec<(Arc<Conn>, JoinHandle<()>)>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    stats: WireStats,
    msg_handler: RwLock<Option<MsgHandler<M>>>,
    ctrl_handler: RwLock<Option<CtrlHandler>>,
    stop: AtomicBool,
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
    /// [`SocketTransport::local_addr`]) and starts the acceptor thread.
    /// The transport accepts inbound connections immediately; install
    /// handlers before peers start talking.
    pub fn bind(hosted: &[SiteId], addr: &str, _cfg: SocketConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(SockInner {
            hosted: hosted.to_vec(),
            listener,
            local_addr,
            routes: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            acceptor: Mutex::new(None),
            stats: WireStats::default(),
            msg_handler: RwLock::new(None),
            ctrl_handler: RwLock::new(None),
            stop: AtomicBool::new(false),
        });
        let inner2 = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("dtx-sock-accept".into())
            .spawn(move || accept_loop(inner2))?;
        *inner.acceptor.lock() = Some(acceptor);
        Ok(SocketTransport { inner })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
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
        let conn = open_conn(&self.inner, TcpStream::connect(addr)?)?;
        install_routes(&self.inner, &conn, expect);
        Ok(())
    }

    /// Encodes `payload` and writes it to the process hosting `to`, on
    /// the calling thread. Unknown destinations are buffered (bounded)
    /// until a route appears — process startup is a race between the
    /// peer map and the first send. A closed route answers
    /// [`NetError::Closed`].
    pub fn send_msg(&self, from: SiteId, to: SiteId, payload: &M) -> Result<(), NetError> {
        with_frame(
            FrameKind::Msg,
            from,
            to,
            |w| payload.encode_body(w),
            |framed| route_frame(&self.inner, to, framed),
        )
    }

    /// Encodes a control-plane message (whose codec this crate does not
    /// know) and writes it to the process hosting `to`, like
    /// [`SocketTransport::send_msg`].
    pub fn send_ctrl(
        &self,
        from: SiteId,
        to: SiteId,
        msg: &impl WireCodec,
    ) -> Result<(), NetError> {
        with_frame(
            FrameKind::Ctrl,
            from,
            to,
            |w| msg.encode_body(w),
            |framed| route_frame(&self.inner, to, framed),
        )
    }

    /// Stops accepting, closes every connection and joins every thread
    /// the transport started. A self-connect wakes the blocked `accept`;
    /// shutting each socket down wakes its blocked `read`. Frames already
    /// written are in the kernel's hands. Clears the handlers (they
    /// typically close over the local `Network`, which closes over this
    /// transport via the uplink — clearing breaks the reference cycle).
    pub fn shutdown(&self) {
        let inner = &self.inner;
        if inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = inner.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(Ipv4Addr::LOCALHOST.into());
        }
        let _ = TcpStream::connect(wake);
        if let Some(acceptor) = inner.acceptor.lock().take() {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *inner.conns.lock());
        for (conn, _) in &conns {
            conn.close();
        }
        for (_, reader) in conns {
            let _ = reader.join();
        }
        *inner.msg_handler.write() = None;
        *inner.ctrl_handler.write() = None;
    }
}

/// This process's `Hello` frame: the hosted-site list. `from` is the
/// lowest hosted site (or [`DRIVER_SITE`] for a pure driver); `to` is
/// unknown at handshake time and carries the same value.
fn hello<M>(inner: &SockInner<M>) -> Vec<u8> {
    let me = inner.hosted.first().copied().unwrap_or(DRIVER_SITE);
    frame(FrameKind::Hello, me, me, |w| {
        w.put_seq(&inner.hosted, |w, site| w.put_varint(site.0 as u64))
    })
}

/// The site list of a `Hello` body, or `None` when it is malformed.
fn hello_sites(body: &[u8]) -> Option<Vec<SiteId>> {
    let site = |r: &mut WireReader<'_>| match r.varint()? {
        v if v <= u16::MAX as u64 => Ok(SiteId(v as u16)),
        tag => Err(WireError::BadTag {
            what: "SiteId",
            tag,
        }),
    };
    WireReader::new(body).seq(1, site).ok()
}

/// Sets up a fresh connection: writes this process's `Hello` first, then
/// starts the connection's reader thread and records both for shutdown.
fn open_conn<M: WireCodec + Send + 'static>(
    inner: &Arc<SockInner<M>>,
    stream: TcpStream,
) -> std::io::Result<Arc<Conn>> {
    let conn = Conn::new(stream)?;
    conn.write(&inner.stats, &hello(inner), 1)
        .map_err(|_| ErrorKind::BrokenPipe)?;
    let mut conns = inner.conns.lock();
    // Checked under the lock `shutdown` sweeps with: a connection opened
    // while the transport shuts down is either swept or never started.
    if inner.stop.load(Ordering::SeqCst) {
        conn.close();
        return Err(ErrorKind::NotConnected.into());
    }
    let (inner2, conn2) = (Arc::clone(inner), Arc::clone(&conn));
    let reader = std::thread::Builder::new()
        .name("dtx-sock-read".into())
        .spawn(move || read_loop(inner2, conn2))?;
    conns.push((Arc::clone(&conn), reader));
    Ok(conn)
}

/// Writes `framed` to the connection routing `to`, or buffers it in the
/// bounded pending queue when no route exists yet.
fn route_frame<M>(inner: &SockInner<M>, to: SiteId, framed: &[u8]) -> Result<(), NetError> {
    let routed = inner.routes.read().get(&to).cloned();
    let conn = match routed {
        Some(conn) => conn,
        None => {
            let mut pending = inner.pending.lock();
            // Re-checked under the pending lock: a route published since
            // the check above has already written what was buffered for
            // it, so this frame goes straight out behind them.
            if let Some(conn) = inner.routes.read().get(&to).cloned() {
                conn
            } else {
                let q = pending.entry(to).or_default();
                if q.len() >= PENDING_CAP {
                    inner.stats.pending_dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    q.push(framed.to_vec());
                }
                return Ok(());
            }
        }
    };
    conn.write(&inner.stats, framed, 1)
}

/// Routes each of `sites` that has no route yet to `conn`. The frames
/// buffered for a site are written before its route is published, both
/// under the pending lock, so no send can overtake them.
fn install_routes<M>(inner: &SockInner<M>, conn: &Arc<Conn>, sites: &[SiteId]) {
    let mut pending = inner.pending.lock();
    for &site in sites {
        if inner.routes.read().contains_key(&site) {
            continue;
        }
        if let Some(frames) = pending.remove(&site) {
            let n = frames.len() as u64;
            if conn.write(&inner.stats, &frames.concat(), n).is_err() {
                inner.stats.pending_dropped.fetch_add(n, Ordering::Relaxed);
            }
        }
        inner.routes.write().insert(site, Arc::clone(conn));
    }
}

/// The acceptor thread: blocks in `accept` until `shutdown` sets the
/// stop flag and wakes it with a connection of its own. A failed
/// `accept` is counted and followed by a short pause.
fn accept_loop<M: WireCodec + Send + 'static>(inner: Arc<SockInner<M>>) {
    for stream in inner.listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let _ = open_conn(&inner, stream);
            }
            Err(_) => {
                inner.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
            }
        }
    }
}

/// A connection's reader thread: blocks in `read`, then extracts and
/// dispatches every complete frame, until EOF, an error or `close` ends
/// the connection. A header-level error (bad magic/version/length)
/// desynchronizes the stream irrecoverably, so it closes the connection;
/// a body-level decode failure only drops that frame.
fn read_loop<M: WireCodec + Send + 'static>(inner: Arc<SockInner<M>>, conn: Arc<Conn>) {
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut inbuf = Vec::new();
    'read: while !conn.is_closed() {
        let n = match (&conn.stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        inner.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        inbuf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0usize;
        loop {
            match extract_frame(&inbuf[consumed..]) {
                Ok(Some((header, body))) => {
                    consumed += HEADER_LEN + header.body_len;
                    dispatch(&inner, &conn, header, body);
                }
                Ok(None) => break,
                Err(_) => break 'read,
            }
        }
        inbuf.drain(..consumed);
    }
    conn.close();
}

/// Routes one received frame to its sink.
fn dispatch<M: WireCodec + Send + 'static>(
    inner: &SockInner<M>,
    conn: &Arc<Conn>,
    header: FrameHeader,
    body: &[u8],
) {
    inner.stats.frames_in.fetch_add(1, Ordering::Relaxed);
    match header.kind {
        FrameKind::Hello => match hello_sites(body) {
            Some(sites) => install_routes(inner, conn, &sites),
            None => conn.close(),
        },
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
    use crate::wire::{WireError, WireWriter};
    use crossbeam::channel::{unbounded, Receiver};
    use std::time::Instant;

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

    type Inbox = Receiver<Envelope<Ping>>;

    fn bind(hosted: &[SiteId]) -> SocketTransport<Ping> {
        SocketTransport::bind(hosted, "127.0.0.1:0", SocketConfig::default()).expect("bind")
    }

    fn pair() -> (SocketTransport<Ping>, SocketTransport<Ping>) {
        let (a, b) = (bind(&[SiteId(0)]), bind(&[SiteId(1)]));
        a.connect(&b.local_addr().to_string(), &[SiteId(1)])
            .expect("connect");
        (a, b)
    }

    /// Installs a message handler on `t` that forwards every envelope.
    fn inbox(t: &SocketTransport<Ping>) -> Inbox {
        let (tx, rx) = unbounded();
        t.set_msg_handler(Some(Arc::new(move |env: Envelope<Ping>| {
            let _ = tx.send(env);
        })));
        rx
    }

    /// A pair with inboxes after one round trip: both ends have routes.
    fn linked() -> (SocketTransport<Ping>, SocketTransport<Ping>, Inbox, Inbox) {
        let (a, b) = pair();
        let (rx_a, rx_b) = (inbox(&a), inbox(&b));
        round_trip(&a, &b, (&rx_a, &rx_b), 0);
        (a, b, rx_a, rx_b)
    }

    /// One ping `a → b` and its answer `b → a`.
    fn round_trip(
        a: &SocketTransport<Ping>,
        b: &SocketTransport<Ping>,
        rx: (&Inbox, &Inbox),
        i: u64,
    ) {
        let wait = Duration::from_secs(5);
        a.send_msg(SiteId(0), SiteId(1), &Ping(i)).unwrap();
        assert_eq!(rx.1.recv_timeout(wait).expect("ping").payload, Ping(i));
        b.send_msg(SiteId(1), SiteId(0), &Ping(i)).unwrap();
        assert_eq!(rx.0.recv_timeout(wait).expect("pong").payload, Ping(i));
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
        let rx = inbox(&a);
        // b never called connect — its route to site 0 comes from a's
        // Hello. Sends may land in the pending buffer until then.
        b.send_msg(SiteId(1), SiteId(0), &Ping(77)).unwrap();
        let env = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(env.payload, Ping(77));
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
        a.send_ctrl(DRIVER_SITE, SiteId(1), &Ping(300)).unwrap();
        let (from, body) = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(from, DRIVER_SITE);
        assert_eq!(body, Ping(300).encode());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_frame_to_an_idle_transport_is_read_at_once() {
        let (a, b, rx_a, rx_b) = linked();
        // splitmix64 over a fixed seed: each ping lands at a random point
        // of an idle stretch. A fixed pause could phase-lock with a
        // periodic poll and hide it.
        let mut state = 0x50C4_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut took = Vec::with_capacity(200);
        for i in 1..=200 {
            std::thread::sleep(Duration::from_micros(300 + next() % 1_000));
            let t0 = Instant::now();
            round_trip(&a, &b, (&rx_a, &rx_b), i);
            took.push(t0.elapsed());
        }
        a.shutdown();
        b.shutdown();
        took.sort();
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_micros(200),
            "median round trip {median:?} (p10 {:?}, p90 {:?})",
            took[took.len() / 10],
            took[took.len() * 9 / 10]
        );
    }

    #[test]
    fn sends_to_a_shut_down_peer_fail_as_closed() {
        let (a, b, ..) = linked();
        a.shutdown();
        // Send flat out until the dead connection is noticed, by the
        // reader's EOF or by a failed write, whichever comes first.
        let t0 = Instant::now();
        while b.send_msg(SiteId(1), SiteId(0), &Ping(1)).is_ok() {
            assert!(t0.elapsed() < Duration::from_secs(1), "sends still succeed");
        }
        let (bytes, frames) = (b.stats().bytes_out(), b.stats().frames_out());
        for i in 0..100 {
            let sent = b.send_msg(SiteId(1), SiteId(0), &Ping(i));
            assert_eq!(sent, Err(NetError::Closed));
        }
        assert_eq!(b.stats().bytes_out(), bytes, "no more bytes counted out");
        assert_eq!(b.stats().frames_out(), frames);
        b.shutdown();
    }

    #[test]
    fn shutdown_wakes_every_blocked_thread_of_an_idle_pair() {
        let (a, b, ..) = linked();
        // Let both acceptors block in `accept` and both readers in `read`.
        std::thread::sleep(Duration::from_millis(20));
        let second = Duration::from_secs(1);
        let t0 = Instant::now();
        a.shutdown();
        assert!(
            t0.elapsed() < second,
            "a.shutdown() took {:?}",
            t0.elapsed()
        );
        // a's shutdown reached the peer: b's reader sees EOF and closes
        // b's end, so b's sends start failing.
        let t0 = Instant::now();
        while b.send_msg(SiteId(1), SiteId(0), &Ping(1)) != Err(NetError::Closed) {
            assert!(t0.elapsed() < second, "b's reader never saw EOF");
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        b.shutdown();
        assert!(
            t0.elapsed() < second,
            "b.shutdown() took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn a_failing_accept_is_counted_and_paced() {
        let t = bind(&[SiteId(0)]);
        // Make the listener non-blocking and wake the acceptor once: every
        // later `accept` fails with `WouldBlock`, an error that persists
        // like `EMFILE` does.
        t.inner.listener.set_nonblocking(true).unwrap();
        let _peer = TcpStream::connect(t.local_addr()).unwrap();
        let t0 = Instant::now();
        while t.stats().accept_errors() == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "no accept error counted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = t.stats().accept_errors();
        std::thread::sleep(Duration::from_millis(200));
        let errors = t.stats().accept_errors() - before;
        assert!(errors <= 30, "{errors} accept errors in 200 ms");
        let t0 = Instant::now();
        t.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn a_storm_sent_before_the_handshake_is_flushed_in_order() {
        // Sites 0, 1 at a and 2, 3 at b. Every pair sends `EARLY` frames
        // before the transports know each other, so both pending buffers
        // fill. `a` then dials with no expectation list: each buffer is
        // flushed by the reader that receives the peer's `Hello`, while
        // every pair keeps storming from its own thread.
        const EARLY: u64 = 100;
        const PER_PAIR: u64 = 400;
        let (a, b) = (bind(&[SiteId(0), SiteId(1)]), bind(&[SiteId(2), SiteId(3)]));
        let (rx_a, rx_b) = (inbox(&a), inbox(&b));
        let mut links = Vec::new();
        for (t, here, there) in [(&a, [0, 1], [2, 3]), (&b, [2, 3], [0, 1])] {
            for from in here {
                links.extend(there.map(|to| (t, SiteId(from), SiteId(to))));
            }
        }
        let send = |&(t, from, to): &(&SocketTransport<Ping>, SiteId, SiteId), seqs| {
            for seq in seqs {
                t.send_msg(from, to, &Ping(seq)).unwrap();
            }
        };
        links.iter().for_each(|link| send(link, 0..EARLY));
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for link in &links {
                scope.spawn(move || send(link, EARLY..PER_PAIR));
            }
            a.connect(&b.local_addr().to_string(), &[])
                .expect("connect");
        });
        let mut next = HashMap::new();
        for rx in [&rx_a, &rx_b] {
            for _ in 0..4 * PER_PAIR {
                let left = Duration::from_secs(5).saturating_sub(t0.elapsed());
                let env = rx.recv_timeout(left).expect("the storm ends within 5 s");
                let want = next.entry((env.from, env.to)).or_insert(0);
                assert_eq!(env.payload, Ping(*want), "{:?} -> {:?}", env.from, env.to);
                *want += 1;
            }
        }
        assert_eq!(a.stats().pending_dropped() + b.stats().pending_dropped(), 0);
        a.shutdown();
        b.shutdown();
    }
}
