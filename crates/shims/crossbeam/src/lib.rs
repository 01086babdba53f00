//! Minimal offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel::{bounded, unbounded}` MPMC channels built on
//! `Mutex` + `Condvar`. Semantics match crossbeam where the workspace relies
//! on them: blocking `send` on a full buffer, blocking `recv` on an empty
//! one, and disconnection errors once the opposite side is fully dropped.
//! Throughput is far below real crossbeam; swap the path dependency for the
//! real crate when a registry is available.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: VecDeque<T>,
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        shared: Mutex<Shared<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Sender::try_send`]; either way the message is
    /// handed back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel's buffer is full.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and all
    /// senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Channel is currently empty.
        Empty,
        /// Channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates a channel buffering at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(capacity))
    }

    /// Creates a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            shared: Mutex::new(Shared {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Shared<T> {
        fn is_full(&self) -> bool {
            self.capacity
                .is_some_and(|cap| self.queue.len() >= cap.max(1))
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while the buffer is full. Fails once every
        /// receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut shared = self.inner.shared.lock().unwrap();
            loop {
                if shared.receivers == 0 {
                    return Err(SendError(value));
                }
                if !shared.is_full() {
                    shared.queue.push_back(value);
                    self.inner.not_empty.notify_one();
                    return Ok(());
                }
                shared = self.inner.not_full.wait(shared).unwrap();
            }
        }

        /// Sends `value` if the buffer has room, handing it back otherwise.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut shared = self.inner.shared.lock().unwrap();
            if shared.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if shared.is_full() {
                return Err(TrySendError::Full(value));
            }
            shared.queue.push_back(value);
            self.inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.shared.lock().unwrap().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut shared = self.inner.shared.lock().unwrap();
            shared.senders -= 1;
            if shared.senders == 0 {
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next message, blocking while the channel is empty.
        /// Fails once every sender has been dropped and the buffer drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut shared = self.inner.shared.lock().unwrap();
            loop {
                if let Some(value) = shared.queue.pop_front() {
                    self.inner.not_full.notify_one();
                    return Ok(value);
                }
                if shared.senders == 0 {
                    return Err(RecvError);
                }
                shared = self.inner.not_empty.wait(shared).unwrap();
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut shared = self.inner.shared.lock().unwrap();
            match shared.queue.pop_front() {
                Some(value) => {
                    self.inner.not_full.notify_one();
                    Ok(value)
                }
                None if shared.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Drains remaining messages without blocking (iterator form).
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.shared.lock().unwrap().receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut shared = self.inner.shared.lock().unwrap();
            shared.receivers -= 1;
            if shared.receivers == 0 {
                self.inner.not_full.notify_all();
            }
        }
    }

    impl<T> Iterator for Receiver<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::thread;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_fails_after_senders_drop() {
        let (tx, rx) = bounded::<u8>(1);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let sender = thread::spawn(move || {
            for i in 1..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        sender.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_hands_back_when_full_or_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn mpmc_clone_both_ends() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        let mut all = vec![rx.recv().unwrap(), rx2.recv().unwrap()];
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
