//! The TCP transport backend: slices move over real localhost sockets.
//!
//! Mirrors the extended evaluation of the paper (arXiv:1908.01527), where
//! helpers exchange slices over direct TCP connections instead of Redis.
//! One listener thread per node accepts connections; one TCP connection is
//! established per directed `(src, dst)` node pair and reused by every link
//! (and therefore every slice and every repair) between those nodes, with
//! frames demultiplexed by link id.
//!
//! The wire format is shared with [`ReactorTransport`](super::ReactorTransport)
//! and documented in [`wire`](super::wire); the credit-based flow control
//! (a link's `capacity` enforced with sender-side credits) is shared too
//! and lives in [`framed`](super::framed). What distinguishes this backend
//! is its threading model: blocking sockets, one accept thread per
//! listener and one reader thread per accepted connection — simple and
//! fine at a handful of nodes, superseded by the reactor backend when
//! connection counts grow.
//!
//! # Throttling
//!
//! [`TcpTransport::with_rate_limit`] gives every link a token-bucket
//! throttle, which is how the paper's 1 Gb/s testbed is approximated on a
//! loopback device: with `rate` bytes/s per link, a single-block repair
//! under repair pipelining should take about `1 + (k-1)/s` times a direct
//! block send (§3.2), which the conformance tests measure.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ecpipe_sync::{Mutex, OnceFlag};
use simnet::{NodeId, Topology};

use crate::lock_order;

use super::framed::{Carrier, FramedRx, LinkState, LinkTable};
use super::wire::{self, encode_header, read_frame, OP_DATA, OP_EOS, OP_HELLO};
use super::{
    Pacer, Shaper, SliceMsg, SliceReceiver, SliceSender, SliceTx, StatsRegistry, Transport,
    TransportError, TrySendError,
};

/// One reusable TCP connection for a directed node pair. All links between
/// the pair share the writer; frames carry the link id for demultiplexing.
struct Conn {
    /// This end's address, naming the connection in the link table.
    local: Carrier,
    /// Lock class: `tcp.writer` ([`lock_order::TCP_WRITER`]).
    writer: Mutex<TcpStream>,
    /// Clone used to interrupt blocked I/O at shutdown.
    stream: TcpStream,
}

impl Conn {
    fn write_frame(
        &self,
        opcode: u8,
        link: u64,
        index: u64,
        stripe: u64,
        repair: u64,
        payload: &[u8],
    ) -> std::io::Result<()> {
        let header = encode_header(opcode, link, index, stripe, repair, payload.len() as u32);
        let mut writer = self.writer.lock();
        let sent = wire::write_frame(&mut *writer, &header, payload)?;
        if sent < header.len() + payload.len() {
            // Only a socket with a write timeout can stop short; this one
            // has none.
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "tcp transport socket stopped mid-frame",
            ));
        }
        Ok(())
    }
}

struct ListenerHandle {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

struct Shared {
    table: Arc<LinkTable>,
    shutdown: OnceFlag,
    /// Lock class: `tcp.reader_threads` ([`lock_order::TCP_READER_THREADS`]).
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            table: Arc::new(LinkTable::default()),
            shutdown: OnceFlag::new(),
            reader_threads: Mutex::new(&lock_order::TCP_READER_THREADS, Vec::new()),
        }
    }
}

struct TcpTx {
    /// The shared connection, or the socket-setup failure that prevented
    /// it: setup errors surface per-send as `TransportError::Io` (failing
    /// the repair) instead of panicking inside the executor.
    conn: Result<Arc<Conn>, String>,
    link_id: u64,
    link: Arc<LinkState>,
    shared: Arc<Shared>,
    pacer: Option<Pacer>,
}

impl SliceTx for TcpTx {
    fn try_send(&self, msg: SliceMsg) -> Result<(), TrySendError> {
        let conn = self
            .conn
            .as_ref()
            .map_err(|reason| TransportError::Io(std::io::Error::other(reason.clone())))?;
        let bytes = wire::HEADER_LEN + msg.data.len();
        let msg = self.link.take_credit(msg, self.pacer.as_ref(), bytes)?;
        // The credit bounds what a link puts on the socket, and the reader
        // thread on the far side drains the socket into the link queue
        // whatever the receiver does, so this write never waits on a
        // pipeline stage.
        conn.write_frame(
            OP_DATA,
            self.link_id,
            msg.index as u64,
            msg.stripe,
            msg.repair,
            &msg.data,
        )
        .map_err(|e| TransportError::Io(e).into())
    }
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        // Graceful end-of-stream: queued DATA frames arrive first (same
        // socket, FIFO), then the receiver sees the close.
        if let Ok(conn) = &self.conn {
            if conn
                .write_frame(OP_EOS, self.link_id, 0, 0, 0, &[])
                .is_err()
            {
                // The connection is gone; end the stream locally instead.
                self.link.close_sender();
            }
        }
        let carrier = self.conn.as_ref().ok().map(|conn| conn.local);
        self.shared
            .table
            .release_link_half(carrier, self.link_id, &self.link, true);
    }
}

/// The localhost TCP backend: framed slices over reused per-node-pair
/// connections, credit-based backpressure at link capacity, and an optional
/// per-link token-bucket throttle (see the `wire` module source for the
/// wire format).
pub struct TcpTransport {
    stats: StatsRegistry,
    shared: Arc<Shared>,
    /// Lock class: `tcp.listeners` ([`lock_order::TCP_LISTENERS`]).
    listeners: Mutex<HashMap<NodeId, ListenerHandle>>,
    /// Lock class: `tcp.conns` ([`lock_order::TCP_CONNS`]).
    conns: Mutex<HashMap<(NodeId, NodeId), Arc<Conn>>>,
    next_link_id: AtomicU64,
    shaper: Shaper,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl TcpTransport {
    /// Creates a transport with no bandwidth limit. Listeners are bound
    /// lazily, one per node, on `127.0.0.1` ephemeral ports.
    pub fn new() -> Self {
        TcpTransport {
            stats: StatsRegistry::default(),
            shared: Arc::new(Shared::default()),
            listeners: Mutex::new(&lock_order::TCP_LISTENERS, HashMap::new()),
            conns: Mutex::new(&lock_order::TCP_CONNS, HashMap::new()),
            next_link_id: AtomicU64::new(1),
            shaper: Shaper::default(),
        }
    }

    /// Creates a transport where every link is throttled to `bytes_per_sec`
    /// by a token bucket, approximating the paper's per-link 1 Gb/s testbed
    /// on the loopback device.
    pub fn with_rate_limit(bytes_per_sec: u64) -> Self {
        let mut transport = TcpTransport::new();
        transport.shaper = Shaper::flat(bytes_per_sec);
        transport
    }

    /// Creates a transport whose links are shaped per directed node pair by
    /// the topology's bandwidth model ([`Topology::bandwidth`]), so a
    /// heterogeneous cluster is reproduced on loopback sockets. All links
    /// over one pair share one bucket — matching the connection reuse, which
    /// also keys by directed pair.
    pub fn with_topology(topology: Arc<Topology>) -> Self {
        let mut transport = TcpTransport::new();
        transport.shaper = Shaper::topology(topology);
        transport
    }

    /// Re-rates one directed pair's shared bucket at runtime
    /// (topology-shaped transports only), throttling streams already in
    /// flight — the fault-injection hook behind the mid-stream
    /// link-degradation tests. Returns whether the transport shapes per
    /// pair.
    pub fn set_link_rate(&self, src: NodeId, dst: NodeId, bytes_per_sec: u64) -> bool {
        self.shaper.set_link_rate(src, dst, bytes_per_sec)
    }

    /// The loopback address a node's listener is bound to (binding it first
    /// if needed).
    fn listener_addr(&self, node: NodeId) -> std::io::Result<SocketAddr> {
        let mut listeners = self.listeners.lock();
        if let Some(handle) = listeners.get(&node) {
            return Ok(handle.addr);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = self.shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, shared));
        listeners.insert(
            node,
            ListenerHandle {
                addr,
                accept_thread: Some(accept_thread),
            },
        );
        Ok(addr)
    }

    /// The reusable connection for a directed node pair (established on
    /// first use; every later link between the pair shares it).
    fn conn(&self, src: NodeId, dst: NodeId) -> std::io::Result<Arc<Conn>> {
        if let Some(conn) = self.conns.lock().get(&(src, dst)) {
            return Ok(conn.clone());
        }
        let addr = self.listener_addr(dst)?;
        let mut conns = self.conns.lock();
        // Double-checked: another thread may have connected meanwhile.
        if let Some(conn) = conns.get(&(src, dst)) {
            return Ok(conn.clone());
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let conn = Arc::new(Conn {
            local: stream.local_addr()?,
            writer: Mutex::new(&lock_order::TCP_WRITER, stream.try_clone()?),
            stream,
        });
        conn.write_frame(OP_HELLO, src as u64, dst as u64, 0, 0, &[])?;
        conns.insert((src, dst), conn.clone());
        Ok(conn)
    }
}

impl Transport for TcpTransport {
    fn link(&self, src: NodeId, dst: NodeId, capacity: usize) -> (SliceSender, SliceReceiver) {
        let stats = self.stats.register(src, dst);
        let link_id = self.next_link_id.fetch_add(1, Ordering::Relaxed);
        let link = Arc::new(LinkState::new(capacity));
        let conn = self
            .conn(src, dst)
            .map_err(|e| format!("tcp transport setup for link {src}->{dst} failed: {e}"));
        if conn.is_err() {
            // No data can ever arrive; unblock the receiver immediately and
            // let the sender report the setup failure on first use.
            link.close_sender();
        }
        let carrier = conn.as_ref().ok().map(|conn| conn.local);
        self.shared.table.register(carrier, link_id, link.clone());
        let wakers = link.wakers.clone();
        let tx = TcpTx {
            conn,
            link_id,
            link: link.clone(),
            shared: self.shared.clone(),
            pacer: self.shaper.pacer(src, dst),
        };
        let rx = FramedRx {
            carrier,
            link_id,
            link,
            table: self.shared.table.clone(),
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

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.set();
        // Unblock any straggling senders/receivers.
        self.shared.table.close_all();
        // Tear down connections; reader threads wake with EOF/error.
        for conn in self.conns.lock().values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Wake each accept loop with a throwaway connection, then join.
        let mut listeners = self.listeners.lock();
        for handle in listeners.values_mut() {
            let _ = TcpStream::connect(handle.addr);
            if let Some(t) = handle.accept_thread.take() {
                let _ = t.join();
            }
        }
        let readers = std::mem::take(&mut *self.shared.reader_threads.lock());
        for t in readers {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while let Ok((stream, peer)) = listener.accept() {
        if shared.shutdown.is_set() {
            break;
        }
        stream.set_nodelay(true).ok();
        let shared_for_reader = shared.clone();
        let reader = std::thread::spawn(move || reader_loop(stream, peer, shared_for_reader));
        shared.reader_threads.lock().push(reader);
    }
}

/// Consumes frames from one accepted connection (whose sending end is
/// `peer`) and routes them to the in-process link queues.
fn reader_loop(mut stream: TcpStream, peer: Carrier, shared: Arc<Shared>) {
    // Ends on EOF or a reset: the peer (or the transport's Drop) tore the
    // connection down; every link it fed is finished.
    while let Ok(frame) = read_frame(&mut stream) {
        match frame.opcode {
            OP_HELLO => {}
            OP_DATA | OP_EOS => shared.table.dispatch(frame),
            _ => break,
        }
    }
    shared.table.close_conn_links(peer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn roundtrip_over_a_socket() {
        let transport = TcpTransport::new();
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
        let transport = TcpTransport::new();
        let (tx1, rx1) = transport.link(2, 3, 2);
        let (tx2, rx2) = transport.link(2, 3, 2);
        tx1.send(SliceMsg::new(0, Bytes::from_static(b"a")))
            .unwrap();
        tx2.send(SliceMsg::new(0, Bytes::from_static(b"b")))
            .unwrap();
        assert_eq!(rx1.recv().unwrap().data, Bytes::from_static(b"a"));
        assert_eq!(rx2.recv().unwrap().data, Bytes::from_static(b"b"));
        assert_eq!(transport.conns.lock().len(), 1);
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, 1);
        drop(rx);
        assert!(matches!(
            tx.send(SliceMsg::new(0, Bytes::new())),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn finished_links_are_reclaimed() {
        let transport = TcpTransport::new();
        for i in 0..10 {
            let (tx, rx) = transport.link(0, 1, 2);
            tx.send(SliceMsg::new(i, Bytes::from_static(b"p"))).unwrap();
            rx.recv().unwrap();
            drop((tx, rx));
        }
        // Both halves gone → no per-link state left behind.
        assert!(transport.shared.table.links.lock().is_empty());
        assert!(transport
            .shared
            .table
            .conn_links
            .lock()
            .values()
            .all(|ids| ids.is_empty()));
    }

    #[test]
    fn shutdown_is_clean_with_open_links() {
        let transport = TcpTransport::new();
        let (tx, rx) = transport.link(0, 1, 2);
        tx.send(SliceMsg::new(0, Bytes::from_static(b"x"))).unwrap();
        let _ = rx.recv();
        drop((tx, rx));
        drop(transport); // must not hang or panic
    }
}
