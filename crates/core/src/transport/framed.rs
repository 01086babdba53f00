//! Link-level flow control shared by the socket-backed transports.
//!
//! Both [`TcpTransport`](super::TcpTransport) and
//! [`ReactorTransport`](super::ReactorTransport) multiplex many logical
//! links over one connection per directed node pair, and both enforce a
//! link's `capacity` with sender-side credits: a sender consumes one credit
//! per slice and is handed its slice back at zero; the receiver returns a
//! credit each time it pops a slice, waking the sender's
//! [`Waker`](super::Waker). Credits are process-local control state (these backends
//! run all nodes in one process over localhost); the data plane — every
//! slice payload — always crosses a real socket. The per-link queue/credit
//! state ([`LinkState`]) and the registry tying link ids to their carrying
//! connection ([`LinkTable`]) live here so the two backends stay
//! byte-for-byte interchangeable.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;

use ecpipe_sync::Mutex;

use crate::lock_order;

use super::wire::{Frame, OP_DATA, OP_EOS};
use super::{LinkWakers, Pacer, SliceMsg, SliceRx, TransportError, TryRecv, TrySendError};

/// Shared state of one logical link (queue on the receive side, credits on
/// the send side) plus the wakers of its two halves.
pub(super) struct LinkState {
    /// Lock class: `framed.link_state` ([`lock_order::FRAMED_LINK_STATE`]).
    pub(super) inner: Mutex<LinkInner>,
    pub(super) wakers: Arc<LinkWakers>,
}

pub(super) struct LinkInner {
    pub(super) queue: VecDeque<SliceMsg>,
    pub(super) credits: usize,
    pub(super) sender_closed: bool,
    pub(super) receiver_closed: bool,
    /// Local halves dropped (distinct from the wire-level closed flags
    /// above): once both are gone the registry entry can be reclaimed.
    pub(super) tx_dropped: bool,
    pub(super) rx_dropped: bool,
}

impl LinkState {
    pub(super) fn new(capacity: usize) -> Self {
        LinkState {
            inner: Mutex::new(
                &lock_order::FRAMED_LINK_STATE,
                LinkInner {
                    queue: VecDeque::new(),
                    credits: capacity.max(1),
                    sender_closed: false,
                    receiver_closed: false,
                    tx_dropped: false,
                    rx_dropped: false,
                },
            ),
            wakers: LinkWakers::new(),
        }
    }

    pub(super) fn close_sender(&self) {
        self.inner.lock().sender_closed = true;
        self.wakers.wake_rx();
    }

    pub(super) fn close_receiver(&self) {
        self.inner.lock().receiver_closed = true;
        self.wakers.wake_tx();
    }

    /// The credit gate of a send: takes one credit for `msg`, or hands the
    /// message back when the link has none or when `pacer` holds a slice of
    /// `bytes` (the credit is checked first, so a slice pays the line rate
    /// only once it can go).
    pub(super) fn take_credit(
        &self,
        msg: SliceMsg,
        pacer: Option<&Pacer>,
        bytes: usize,
    ) -> Result<SliceMsg, TrySendError> {
        let mut inner = self.inner.lock();
        if inner.receiver_closed {
            return Err(TransportError::Disconnected.into());
        }
        if inner.credits == 0 {
            return Err(TrySendError::Full(msg));
        }
        if let Some(pacer) = pacer {
            if let Some(until) = pacer.hold(bytes) {
                return Err(TrySendError::Paced(msg, until));
            }
            pacer.release();
        }
        inner.credits -= 1;
        Ok(msg)
    }
}

/// Names the socket connection carrying a link: the sending end's local
/// address, which the accepting end sees as its peer address. Unlike the
/// node pair, it tells a reconnected pair's new connection apart from the
/// old one whose teardown may still be in progress.
pub(super) type Carrier = SocketAddr;

/// The registry of live links and of which connection carries each one, so
/// a connection teardown can close exactly the receive queues it fed.
pub(super) struct LinkTable {
    /// Lock class: `framed.links` ([`lock_order::FRAMED_LINKS`]).
    pub(super) links: Mutex<HashMap<u64, Arc<LinkState>>>,
    /// Links riding each connection.
    ///
    /// Lock class: `framed.conn_links` ([`lock_order::FRAMED_CONN_LINKS`]).
    pub(super) conn_links: Mutex<HashMap<Carrier, Vec<u64>>>,
}

impl Default for LinkTable {
    fn default() -> Self {
        LinkTable {
            links: Mutex::new(&lock_order::FRAMED_LINKS, HashMap::new()),
            conn_links: Mutex::new(&lock_order::FRAMED_CONN_LINKS, HashMap::new()),
        }
    }
}

impl LinkTable {
    /// Registers a freshly-opened link as riding the `carrier` connection
    /// (`None` when the connection could not be set up).
    pub(super) fn register(&self, carrier: Option<Carrier>, link_id: u64, link: Arc<LinkState>) {
        self.links.lock().insert(link_id, link);
        if let Some(carrier) = carrier {
            self.conn_links
                .lock()
                .entry(carrier)
                .or_default()
                .push(link_id);
        }
    }

    /// Records that one local half of a link was dropped; once both halves
    /// are gone the registry entries are reclaimed, so a long-lived
    /// transport does not accumulate state for finished repairs.
    pub(super) fn release_link_half(
        &self,
        carrier: Option<Carrier>,
        link_id: u64,
        link: &LinkState,
        tx: bool,
    ) {
        let both_dropped = {
            let mut inner = link.inner.lock();
            if tx {
                inner.tx_dropped = true;
            } else {
                inner.rx_dropped = true;
            }
            inner.tx_dropped && inner.rx_dropped
        };
        if both_dropped {
            self.links.lock().remove(&link_id);
            if let Some(carrier) = carrier {
                let mut conn_links = self.conn_links.lock();
                if let Some(ids) = conn_links.get_mut(&carrier) {
                    ids.retain(|&id| id != link_id);
                    if ids.is_empty() {
                        conn_links.remove(&carrier);
                    }
                }
            }
        }
    }

    /// Marks every link fed by the `carrier` connection as sender-closed:
    /// the connection is gone, no more slices can arrive.
    pub(super) fn close_conn_links(&self, carrier: Carrier) {
        let ids = self.conn_links.lock().remove(&carrier).unwrap_or_default();
        let links = self.links.lock();
        for id in ids {
            if let Some(link) = links.get(&id) {
                link.close_sender();
            }
        }
    }

    /// Closes both ends of every live link — the shutdown path, unblocking
    /// any straggling senders and receivers.
    pub(super) fn close_all(&self) {
        let links = self.links.lock();
        for link in links.values() {
            link.close_sender();
            link.close_receiver();
        }
    }

    /// Routes one received `DATA`/`EOS` frame to its link queue. Frames for
    /// links already gone (both halves dropped) are discarded — the normal
    /// fate of an `EOS` racing a receiver teardown.
    pub(super) fn dispatch(&self, frame: Frame) {
        match frame.opcode {
            OP_DATA => {
                let link = self.links.lock().get(&frame.link).cloned();
                if let Some(link) = link {
                    let mut inner = link.inner.lock();
                    if !inner.receiver_closed {
                        inner.queue.push_back(SliceMsg {
                            index: frame.index as usize,
                            stripe: frame.stripe,
                            repair: frame.repair,
                            data: frame.payload,
                        });
                        drop(inner);
                        link.wakers.wake_rx();
                    }
                }
            }
            OP_EOS => {
                let link = self.links.lock().get(&frame.link).cloned();
                if let Some(link) = link {
                    link.close_sender();
                }
            }
            _ => {}
        }
    }
}

/// The receiving half of a socket-transport link: pops slices pushed by the
/// backend's frame-dispatch path, returning credits as it drains. Shared by
/// both socket backends — receive semantics are identical once frames reach
/// the link queue.
pub(super) struct FramedRx {
    pub(super) carrier: Option<Carrier>,
    pub(super) link_id: u64,
    pub(super) link: Arc<LinkState>,
    pub(super) table: Arc<LinkTable>,
}

impl SliceRx for FramedRx {
    fn try_recv(&self) -> TryRecv {
        let mut inner = self.link.inner.lock();
        match inner.queue.pop_front() {
            Some(msg) => {
                inner.credits += 1;
                drop(inner);
                self.link.wakers.wake_tx();
                TryRecv::Msg(msg)
            }
            None if inner.sender_closed => TryRecv::Closed,
            None => TryRecv::Empty,
        }
    }
}

impl Drop for FramedRx {
    fn drop(&mut self) {
        self.link.close_receiver();
        self.table
            .release_link_half(self.carrier, self.link_id, &self.link, false);
    }
}
