//! The reactor transport backend: slices move over nonblocking localhost
//! sockets multiplexed by a fixed pool of epoll threads (`ecpipe-reactor`).
//!
//! Byte-for-byte the same protocol as [`TcpTransport`](super::TcpTransport)
//! — the wire format lives in [`wire`](super::wire), the credit-based link
//! flow control in [`framed`](super::framed), and the conformance suites
//! run over both — but the threading model is inverted. Where the TCP
//! backend parks one accept thread per listener and one reader thread per
//! accepted connection, this backend registers every socket (listeners and
//! connections alike) with one [`Reactor`]: a handful of poll threads serve
//! arbitrarily many nodes and connections, which is what lets a load
//! harness push thousands of concurrent client operations without thread
//! counts growing with the cluster.
//!
//! # Data flow
//!
//! *Send path (caller threads).* A sender's `try_send` takes a link credit
//! and its token-bucket reservation — handing the slice back when either
//! is missing — then locks the connection's outbound buffer: if
//! the buffer is empty it writes the whole frame, header and payload, to
//! the nonblocking socket in one vectored write
//! ([`wire::write_frame`](super::wire::write_frame)), so the header never
//! leaves as a segment of its own, and queues only the remainder a full
//! socket refuses (arming writable interest); otherwise it appends — FIFO
//! order is preserved, so `EOS` always trails the data it follows. Senders
//! block briefly on a high-water mark so an unbounded burst cannot balloon
//! the buffer.
//!
//! *Flush path (reactor threads).* When the socket turns writable the
//! reactor drains the outbound buffer, disarms writable interest once
//! empty, and wakes any sender parked on the watermark.
//!
//! *Receive path (reactor threads).* When an accepted socket turns readable
//! the reactor drives the connection's
//! [`FrameDecoder`](super::wire::FrameDecoder) until `WouldBlock`: each
//! header is read into a fixed array, each payload straight from the
//! socket into a buffer from the connection's [`BufPool`] (one link
//! window, [`PIPELINE_DEPTH`] buffers, is kept for reuse), which is frozen
//! into the slice's `Bytes` without a copy. Complete frames go to their
//! link queues — where [`FramedRx`] receivers (caller threads) pop them
//! exactly as they do for the TCP backend — and a payload's buffer returns
//! to the pool when its receiver drops the slice. On EOF the connection
//! deregisters itself and every link it fed is sender-closed; links are
//! keyed by the connection's sending address, so a reconnection's links
//! are not.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use ecpipe_reactor::{Interest, Reactor, Readiness, Registration, Source};
use ecpipe_sync::{Condvar, Mutex};
use simnet::{NodeId, Topology};

use crate::buf::BufPool;
use crate::exec::PIPELINE_DEPTH;
use crate::lock_order;

use super::framed::{Carrier, FramedRx, LinkState, LinkTable};
use super::wire::{self, encode_header, FrameDecoder, HEADER_LEN, OP_DATA, OP_EOS, OP_HELLO};
use super::{
    Pacer, Shaper, SliceMsg, SliceReceiver, SliceSender, SliceTx, StatsRegistry, Transport,
    TransportError, TrySendError, WAIT_TICK,
};

/// Poll threads per transport unless overridden — deliberately small: the
/// whole point is that the thread budget does not scale with nodes, links
/// or in-flight operations.
const DEFAULT_THREADS: usize = 2;

/// Once a connection's outbound buffer exceeds this, senders park until the
/// reactor drains it below — bounding per-connection memory when a peer's
/// socket stops accepting bytes.
const HIGH_WATER: usize = 1 << 20;

/// Payload buffers each inbound connection's pool keeps for reuse: one link
/// window of slices. A connection carrying several links at once allocates
/// past it and lets the extras go, so idle connections hold little.
const POOL_RETAINED: usize = PIPELINE_DEPTH;

/// Buffered bytes to write out, plus the connection's liveness.
struct OutboundState {
    buf: Vec<u8>,
    /// Write cursor into `buf`; compacted as the reactor drains it.
    start: usize,
    closed: bool,
}

impl OutboundState {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// One outbound connection for a directed node pair, shared by every link
/// (and sender thread) between the pair.
struct OutboundConn {
    pair: (NodeId, NodeId),
    /// This end's address, naming the connection in the link table.
    local: Carrier,
    stream: TcpStream,
    /// Lock class: `rtransport.conn` ([`lock_order::RTRANSPORT_CONN`]).
    state: Mutex<OutboundState>,
    /// Senders park here when the buffer crosses [`HIGH_WATER`].
    drained: Condvar,
    /// The epoll registration slot; populated right after registration and
    /// taken by teardown.
    ///
    /// Lock class: `rtransport.conn_reg`
    /// ([`lock_order::RTRANSPORT_CONN_REG`]).
    registration: Mutex<Option<Registration>>,
}

impl OutboundConn {
    /// Arms or disarms writable interest. Called with the buffer state lock
    /// held, which makes the interest decision atomic with the buffer
    /// emptiness it is based on (the registration class ranks above the
    /// buffer class, so this nesting is legal).
    fn set_writable_interest(&self, writable: bool) {
        if let Some(reg) = self.registration.lock().as_ref() {
            let _ = reg.set_interest(Interest {
                readable: false,
                writable,
            });
        }
    }

    /// Writes one frame (header + payload) with one vectored write,
    /// buffering whatever the socket refuses. Frames from concurrent
    /// senders never interleave: the buffer lock is held across the frame.
    fn write_frame(&self, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "reactor transport connection is closed",
            ));
        }
        // Direct-write only while nothing is queued ahead of us.
        let mut sent = 0;
        if state.pending() == 0 {
            match wire::write_frame(&self.stream, header, payload) {
                Ok(n) => sent = n,
                Err(e) => {
                    state.closed = true;
                    self.drained.notify_all();
                    return Err(e);
                }
            }
        }
        let header_sent = sent.min(header.len());
        let payload_sent = sent - header_sent;
        state.buf.extend_from_slice(&header[header_sent..]);
        state.buf.extend_from_slice(&payload[payload_sent..]);
        if state.pending() > 0 {
            self.set_writable_interest(true);
            // High-water mark: hold senders until the reactor drains the
            // backlog (ticked, so a missed wakeup costs latency not
            // liveness).
            let state = self
                .drained
                .wait_while_tick(state, WAIT_TICK, |s| !s.closed && s.pending() > HIGH_WATER);
            if state.closed {
                return Err(std::io::Error::new(
                    ErrorKind::BrokenPipe,
                    "reactor transport connection closed while flushing",
                ));
            }
        }
        Ok(())
    }

    /// Drains the outbound buffer into the socket (reactor thread). Returns
    /// `true` once the connection is dead and should be evicted.
    fn flush(&self, peer_closed: bool) -> bool {
        let mut state = self.state.lock();
        if peer_closed {
            state.closed = true;
        }
        while !state.closed && state.pending() > 0 {
            let start = state.start;
            match (&self.stream).write(&state.buf[start..]) {
                Ok(0) => state.closed = true,
                Ok(n) => {
                    state.start += n;
                    if state.start == state.buf.len() {
                        state.buf.clear();
                        state.start = 0;
                    } else if state.start >= state.buf.len() / 2 {
                        // Compact once the drained prefix dominates, so a
                        // long-lived backlog can't grow the buffer without
                        // bound.
                        let start = state.start;
                        state.buf.drain(..start);
                        state.start = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => state.closed = true,
            }
        }
        if state.closed || state.pending() == 0 {
            self.set_writable_interest(false);
        }
        self.drained.notify_all();
        state.closed
    }

    /// Marks the connection dead, wakes parked senders, detaches it from
    /// the reactor and shuts the socket down. Idempotent.
    fn teardown(&self) {
        {
            let mut state = self.state.lock();
            state.closed = true;
        }
        self.drained.notify_all();
        let registration = self.registration.lock().take();
        drop(registration);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The readiness callback for an outbound connection: flush on writable,
/// evict on error/hangup. Kept separate from [`OutboundConn`] so the
/// registration can live *inside* the connection (the dispatch table holds
/// this thin wrapper, not the connection that owns the registration —
/// otherwise neither could ever drop).
struct FlushSource {
    conn: Arc<OutboundConn>,
    conns: Weak<Mutex<ConnTable>>,
}

impl Source for FlushSource {
    fn on_ready(&self, readiness: Readiness) {
        let dead = self.conn.flush(readiness.closed);
        if dead {
            if let Some(conns) = self.conns.upgrade() {
                evict_outbound(&conns, &self.conn);
            }
            self.conn.teardown();
        }
    }
}

/// Parser state of one accepted (inbound) connection.
struct InboundState {
    decoder: FrameDecoder,
    finished: bool,
}

/// One accepted connection: reads frames and routes them to link queues.
struct InboundConn {
    id: u64,
    /// The sending end's address: the carrier of every link this
    /// connection feeds.
    peer: Carrier,
    stream: TcpStream,
    /// Lock class: `rtransport.conn` ([`lock_order::RTRANSPORT_CONN`]).
    state: Mutex<InboundState>,
    table: Arc<LinkTable>,
    conns: Weak<Mutex<ConnTable>>,
}

impl Source for InboundConn {
    fn on_ready(&self, readiness: Readiness) {
        let mut frames = Vec::new();
        let finished;
        {
            let mut state = self.state.lock();
            if state.finished {
                return;
            }
            if readiness.readable {
                if !state.decoder.read_from(&self.stream, &mut frames) {
                    state.finished = true;
                }
            } else if readiness.closed {
                state.finished = true;
            }
            finished = state.finished;
        }
        // Dispatch outside the connection lock: pushing into link queues
        // takes the (higher-ranked) link locks and wakes receivers.
        for frame in frames {
            self.table.dispatch(frame);
        }
        if finished {
            // Deregister first (dropping the registration ends dispatch to
            // this source), then close every link the connection fed.
            if let Some(conns) = self.conns.upgrade() {
                conns.lock().inbound.remove(&self.id);
            }
            let _ = self.stream.shutdown(Shutdown::Both);
            self.table.close_conn_links(self.peer);
        }
    }
}

/// The accept callback for one node's listener: drains the accept queue,
/// registering each new connection with the reactor.
struct AcceptSource {
    listener: TcpListener,
    reactor: Weak<Reactor>,
    conns: Weak<Mutex<ConnTable>>,
    table: Arc<LinkTable>,
}

impl Source for AcceptSource {
    fn on_ready(&self, _readiness: Readiness) {
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let (Some(reactor), Some(conns)) = (self.reactor.upgrade(), self.conns.upgrade())
            else {
                return;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let mut conn_table = conns.lock();
            let id = conn_table.next_inbound;
            conn_table.next_inbound += 1;
            let inbound = Arc::new(InboundConn {
                id,
                peer,
                stream,
                state: Mutex::new(
                    &lock_order::RTRANSPORT_CONN,
                    InboundState {
                        decoder: FrameDecoder::new(BufPool::with_max_retained(POOL_RETAINED)),
                        finished: false,
                    },
                ),
                table: self.table.clone(),
                conns: Arc::downgrade(&conns),
            });
            let fd = inbound.stream.as_raw_fd();
            match reactor.register(fd, Interest::READABLE, inbound.clone() as _) {
                Ok(registration) => {
                    conn_table.inbound.insert(
                        id,
                        InboundEntry {
                            conn: inbound,
                            _registration: registration,
                        },
                    );
                }
                Err(_) => {
                    let _ = inbound.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

struct InboundEntry {
    conn: Arc<InboundConn>,
    /// Dropping the entry deregisters the socket.
    _registration: Registration,
}

struct Listener {
    addr: SocketAddr,
    /// Dropping the handle deregisters the listener; the socket itself is
    /// owned by the [`AcceptSource`] in the reactor's dispatch table.
    _registration: Registration,
}

/// Every live connection of the transport, inbound and outbound, under one
/// lock.
struct ConnTable {
    outbound: HashMap<(NodeId, NodeId), Arc<OutboundConn>>,
    inbound: HashMap<u64, InboundEntry>,
    next_inbound: u64,
}

/// Removes `conn` from the outbound cache if it is still the cached entry
/// for its pair (a reconnect may already have replaced it).
fn evict_outbound(conns: &Mutex<ConnTable>, conn: &Arc<OutboundConn>) {
    let mut table = conns.lock();
    if let Some(current) = table.outbound.get(&conn.pair) {
        if Arc::ptr_eq(current, conn) {
            table.outbound.remove(&conn.pair);
        }
    }
}

struct ReactorTx {
    /// The shared connection, or the socket-setup failure that prevented
    /// it (surfaced per-send, mirroring the TCP backend).
    conn: Result<Arc<OutboundConn>, String>,
    link_id: u64,
    link: Arc<LinkState>,
    table: Arc<LinkTable>,
    pacer: Option<Pacer>,
}

impl SliceTx for ReactorTx {
    fn try_send(&self, msg: SliceMsg) -> Result<(), TrySendError> {
        let conn = self
            .conn
            .as_ref()
            .map_err(|reason| TransportError::Io(std::io::Error::other(reason.clone())))?;
        let bytes = HEADER_LEN + msg.data.len();
        let msg = self.link.take_credit(msg, self.pacer.as_ref(), bytes)?;
        let header = encode_header(
            OP_DATA,
            self.link_id,
            msg.index as u64,
            msg.stripe,
            msg.repair,
            msg.data.len() as u32,
        );
        conn.write_frame(&header, &msg.data)
            .map_err(|e| TransportError::Io(e).into())
    }
}

impl Drop for ReactorTx {
    fn drop(&mut self) {
        // Graceful end-of-stream: the EOS frame joins the same buffer the
        // DATA frames went through, so it arrives after them.
        if let Ok(conn) = &self.conn {
            let header = encode_header(OP_EOS, self.link_id, 0, 0, 0, 0);
            if conn.write_frame(&header, &[]).is_err() {
                // The connection is gone; end the stream locally instead.
                self.link.close_sender();
            }
        }
        let carrier = self.conn.as_ref().ok().map(|conn| conn.local);
        self.table
            .release_link_half(carrier, self.link_id, &self.link, true);
    }
}

/// The event-driven socket backend: the same framed protocol, credit
/// backpressure and token-bucket shaping as
/// [`TcpTransport`](super::TcpTransport), served by a
/// fixed pool of epoll threads instead of a thread per listener and
/// connection. See the module docs for the data flow.
pub struct ReactorTransport {
    stats: StatsRegistry,
    table: Arc<LinkTable>,
    /// Lock class: `rtransport.listeners`
    /// ([`lock_order::RTRANSPORT_LISTENERS`]).
    listeners: Mutex<HashMap<NodeId, Listener>>,
    /// Lock class: `rtransport.conns` ([`lock_order::RTRANSPORT_CONNS`]).
    conns: Arc<Mutex<ConnTable>>,
    next_link_id: AtomicU64,
    shaper: Shaper,
    /// Declared last: registrations in the tables above must drop before
    /// the pool they point into (transport `Drop` also tears down
    /// explicitly; the field order is the backstop).
    reactor: Arc<Reactor>,
}

impl Default for ReactorTransport {
    fn default() -> Self {
        ReactorTransport::new()
    }
}

impl ReactorTransport {
    /// Creates a transport served by the default small reactor pool.
    ///
    /// # Panics
    ///
    /// Panics if the reactor's epoll instances or threads cannot be
    /// created — an environment error (fd/thread exhaustion) with nothing
    /// sensible to degrade to.
    pub fn new() -> Self {
        ReactorTransport::with_threads(DEFAULT_THREADS)
    }

    /// Creates a transport served by exactly `threads` poll threads
    /// (clamped to at least one). The budget is fixed for the transport's
    /// lifetime regardless of how many nodes, connections or links it
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics if the reactor's epoll instances or threads cannot be
    /// created.
    pub fn with_threads(threads: usize) -> Self {
        let reactor =
            Arc::new(Reactor::new(threads).expect("create epoll reactor for ReactorTransport"));
        ReactorTransport {
            stats: StatsRegistry::default(),
            table: Arc::new(LinkTable::default()),
            listeners: Mutex::new(&lock_order::RTRANSPORT_LISTENERS, HashMap::new()),
            conns: Arc::new(Mutex::new(
                &lock_order::RTRANSPORT_CONNS,
                ConnTable {
                    outbound: HashMap::new(),
                    inbound: HashMap::new(),
                    next_inbound: 0,
                },
            )),
            next_link_id: AtomicU64::new(1),
            shaper: Shaper::default(),
            reactor,
        }
    }

    /// Creates a transport where every link is throttled to `bytes_per_sec`
    /// by a token bucket — the same shaping as the other backends.
    pub fn with_rate_limit(bytes_per_sec: u64) -> Self {
        let mut transport = ReactorTransport::new();
        transport.shaper = Shaper::flat(bytes_per_sec);
        transport
    }

    /// Creates a transport whose links are shaped per directed node pair by
    /// the topology's bandwidth model ([`Topology::bandwidth`]); all links
    /// over one pair share one bucket, matching the connection reuse.
    pub fn with_topology(topology: Arc<Topology>) -> Self {
        let mut transport = ReactorTransport::new();
        transport.shaper = Shaper::topology(topology);
        transport
    }

    /// Re-rates one directed pair's shared bucket at runtime
    /// (topology-shaped transports only). Returns whether the transport
    /// shapes per pair.
    pub fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        self.shaper.set_link_rate(src, dst, bytes_per_sec)
    }

    /// The fixed number of reactor threads serving this transport.
    pub fn reactor_threads(&self) -> usize {
        self.reactor.thread_count()
    }

    /// Fault-injection hook: severs the cached connection for a directed
    /// pair, as if the peer process restarted. In-flight senders on the
    /// pair fail; receivers see end-of-stream; the *next* link over the
    /// pair transparently reconnects. Returns whether a connection existed.
    pub fn disconnect_pair(&self, src: NodeId, dst: NodeId) -> bool {
        let conn = self.conns.lock().outbound.remove(&(src, dst));
        match conn {
            Some(conn) => {
                conn.teardown();
                true
            }
            None => false,
        }
    }

    /// The loopback address a node's listener is bound to (binding and
    /// registering it first if needed).
    fn listener_addr(&self, node: NodeId) -> std::io::Result<SocketAddr> {
        let mut listeners = self.listeners.lock();
        if let Some(listener) = listeners.get(&node) {
            return Ok(listener.addr);
        }
        let socket = TcpListener::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let fd = socket.as_raw_fd();
        let source = Arc::new(AcceptSource {
            listener: socket,
            reactor: Arc::downgrade(&self.reactor),
            conns: Arc::downgrade(&self.conns),
            table: self.table.clone(),
        });
        let registration = self.reactor.register(fd, Interest::READABLE, source)?;
        listeners.insert(
            node,
            Listener {
                addr,
                _registration: registration,
            },
        );
        Ok(addr)
    }

    /// The reusable outbound connection for a directed node pair
    /// (established on first use; every later link between the pair shares
    /// it).
    fn conn(&self, src: NodeId, dst: NodeId) -> std::io::Result<Arc<OutboundConn>> {
        if let Some(conn) = self.conns.lock().outbound.get(&(src, dst)) {
            return Ok(conn.clone());
        }
        let addr = self.listener_addr(dst)?;
        let mut conns = self.conns.lock();
        // Double-checked: another thread may have connected meanwhile.
        if let Some(conn) = conns.outbound.get(&(src, dst)) {
            return Ok(conn.clone());
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let conn = Arc::new(OutboundConn {
            pair: (src, dst),
            local: stream.local_addr()?,
            stream,
            state: Mutex::new(
                &lock_order::RTRANSPORT_CONN,
                OutboundState {
                    buf: Vec::new(),
                    start: 0,
                    closed: false,
                },
            ),
            drained: Condvar::new(),
            registration: Mutex::new(&lock_order::RTRANSPORT_CONN_REG, None),
        });
        // Registered with no interest armed: hangup/error events still
        // surface (so a dead peer evicts the connection), and writable
        // interest is armed only while the outbound buffer has bytes.
        let registration = self.reactor.register(
            conn.stream.as_raw_fd(),
            Interest {
                readable: false,
                writable: false,
            },
            Arc::new(FlushSource {
                conn: conn.clone(),
                conns: Arc::downgrade(&self.conns),
            }),
        )?;
        *conn.registration.lock() = Some(registration);
        let hello = encode_header(OP_HELLO, src as u64, dst as u64, 0, 0, 0);
        conn.write_frame(&hello, &[])?;
        conns.outbound.insert((src, dst), conn.clone());
        Ok(conn)
    }
}

impl Transport for ReactorTransport {
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
        let stats = self.stats.register(src, dst);
        let link_id = self.next_link_id.fetch_add(1, Ordering::Relaxed);
        let link = Arc::new(LinkState::new(capacity));
        let conn = self
            .conn(src, dst)
            .map_err(|e| format!("reactor transport setup for link {src}->{dst} failed: {e}"));
        if conn.is_err() {
            // No data can ever arrive; unblock the receiver immediately and
            // let the sender report the setup failure on first use.
            link.close_sender();
        }
        let carrier = conn.as_ref().ok().map(|conn| conn.local);
        self.table.register(carrier, link_id, link.clone());
        let wakers = link.wakers.clone();
        let tx = ReactorTx {
            conn,
            link_id,
            link: link.clone(),
            table: self.table.clone(),
            pacer: self.shaper.pacer(src, dst),
        };
        let rx = FramedRx {
            carrier,
            link_id,
            link,
            table: self.table.clone(),
        };
        (
            SliceSender::new(Box::new(tx), stats, wakers.clone()),
            SliceReceiver::new(Box::new(rx), wakers),
        )
    }

    fn stats(&self) -> &StatsRegistry {
        &self.stats
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        // Unblock any straggling senders/receivers.
        self.table.close_all();
        // Tear down every connection: outbound teardown wakes parked
        // senders and deregisters; clearing the tables drops the inbound
        // registrations. The entries (and their sources in the reactor's
        // dispatch tables) die with the registrations.
        let (outbound, inbound) = {
            let mut conns = self.conns.lock();
            (
                std::mem::take(&mut conns.outbound),
                std::mem::take(&mut conns.inbound),
            )
        };
        for conn in outbound.values() {
            conn.teardown();
        }
        for entry in inbound.values() {
            let _ = entry.conn.stream.shutdown(Shutdown::Both);
        }
        drop(inbound);
        // Deregister the listeners, then the reactor (the last Arc) joins
        // its poll threads on drop.
        self.listeners.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn roundtrip_over_a_reactor_socket() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 4);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"hello")).tagged(5, 3))
            .unwrap();
        tx.send(SliceMsg::new(1, Bytes::from_static(b"world")))
            .unwrap();
        let first = rx.recv().unwrap();
        assert_eq!(first.index, 0);
        assert_eq!((first.stripe, first.repair), (5, 3));
        assert_eq!(first.data, Bytes::from_static(b"hello"));
        assert_eq!(rx.recv().unwrap().data, Bytes::from_static(b"world"));
        drop(tx);
        assert!(rx.recv().is_none());
        assert_eq!(transport.link_bytes(0, 1), 10);
    }

    #[test]
    fn connections_are_reused_across_links() {
        let transport = ReactorTransport::new();
        let (tx1, rx1) = transport.link(2, 3, 2);
        let (tx2, rx2) = transport.link(2, 3, 2);
        tx1.send(SliceMsg::new(0, Bytes::from_static(b"a")))
            .unwrap();
        tx2.send(SliceMsg::new(0, Bytes::from_static(b"b")))
            .unwrap();
        assert_eq!(rx1.recv().unwrap().data, Bytes::from_static(b"a"));
        assert_eq!(rx2.recv().unwrap().data, Bytes::from_static(b"b"));
        assert_eq!(transport.conns.lock().outbound.len(), 1);
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        drop(rx);
        assert!(matches!(
            tx.send(SliceMsg::new(0, Bytes::new())),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn finished_links_are_reclaimed() {
        let transport = ReactorTransport::new();
        for i in 0..10 {
            let (tx, rx) = transport.link(0, 1, 2);
            tx.send(SliceMsg::new(i, Bytes::from_static(b"p"))).unwrap();
            rx.recv().unwrap();
            drop((tx, rx));
        }
        // Both halves gone → no per-link state left behind.
        assert!(transport.table.links.lock().is_empty());
        assert!(transport
            .table
            .conn_links
            .lock()
            .values()
            .all(|ids| ids.is_empty()));
    }

    #[test]
    fn thread_budget_does_not_grow_with_links() {
        let transport = ReactorTransport::with_threads(2);
        assert_eq!(transport.reactor_threads(), 2);
        let mut links = Vec::new();
        for node in 1..9 {
            links.push(transport.link(0, node, 2));
        }
        for (i, (tx, rx)) in links.iter().enumerate() {
            tx.send(SliceMsg::new(i, Bytes::from_static(b"z"))).unwrap();
            assert_eq!(rx.recv().unwrap().index, i);
        }
        // Still exactly two poll threads, eight nodes later.
        assert_eq!(transport.reactor_threads(), 2);
    }

    #[test]
    fn large_bursts_flush_through_the_reactor() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 64);
        // Push well past socket buffers so the writable path must engage.
        let payload = Bytes::from(vec![7u8; 256 * 1024]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..32 {
                    tx.send(SliceMsg::new(i, payload.clone())).unwrap();
                }
            });
            for i in 0..32 {
                let msg = rx.recv().unwrap();
                assert_eq!(msg.index, i);
                assert_eq!(msg.data.len(), 256 * 1024);
                assert!(msg.data.iter().all(|&b| b == 7));
            }
        });
        assert_eq!(transport.link_bytes(0, 1), 32 * 256 * 1024);
    }

    #[test]
    fn received_payloads_reuse_the_connection_pool() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 3 * POOL_RETAINED);
        let retained = || {
            let conns = transport.conns.lock();
            let entry = conns
                .inbound
                .values()
                .next()
                .expect("one inbound connection");
            let retained = entry.conn.state.lock().decoder.pool().retained();
            retained
        };
        let payload = Bytes::from(vec![3u8; 32 * 1024]);

        // Warm-up: the first slice's buffer enters the connection's pool.
        tx.send(SliceMsg::new(0, payload.clone())).unwrap();
        let warm = rx.recv().unwrap();
        let addr = warm.data.as_ptr() as usize;
        drop(warm);

        // One slice in flight at a time: every payload is read into the
        // same recycled allocation.
        for i in 1..=64 {
            tx.send(SliceMsg::new(i, payload.clone())).unwrap();
            let msg = rx.recv().unwrap();
            assert_eq!(msg.data, payload);
            assert_eq!(
                msg.data.as_ptr() as usize,
                addr,
                "slice {i} was reallocated"
            );
            drop(msg);
            assert_eq!(retained(), 1);
        }

        // A burst deeper than the window allocates past the pool, and the
        // pool keeps only its bound when the burst drains.
        for i in 0..3 * POOL_RETAINED {
            tx.send(SliceMsg::new(i, payload.clone())).unwrap();
        }
        let held: Vec<_> = (0..3 * POOL_RETAINED).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(retained(), 0);
        drop(held);
        assert_eq!(retained(), POOL_RETAINED);
    }

    #[test]
    fn disconnect_pair_fails_senders_and_reconnects() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 4);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"pre")))
            .unwrap();
        assert_eq!(rx.recv().unwrap().data, Bytes::from_static(b"pre"));
        assert!(transport.disconnect_pair(0, 1));
        assert!(!transport.disconnect_pair(0, 1), "already severed");
        // The old sender's connection is dead.
        let mut failed = false;
        for i in 0..50 {
            match tx.send(SliceMsg::new(i, Bytes::from_static(b"x"))) {
                Err(TransportError::Io(_)) => {
                    failed = true;
                    break;
                }
                Err(TransportError::Disconnected) => {
                    failed = true;
                    break;
                }
                Ok(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(failed, "sends on a severed connection must start failing");
        // A fresh link transparently reconnects.
        let (tx2, rx2) = transport.link(0, 1, 4);
        tx2.send(SliceMsg::new(9, Bytes::from_static(b"post")))
            .unwrap();
        assert_eq!(rx2.recv().unwrap().data, Bytes::from_static(b"post"));
    }

    #[test]
    fn shutdown_is_clean_with_open_links() {
        let transport = ReactorTransport::new();
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"x"))).unwrap();
        let _ = rx.recv();
        drop((tx, rx));
        drop(transport); // must not hang or panic
    }
}
