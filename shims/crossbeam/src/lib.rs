//! Offline shim for the subset of `crossbeam` this workspace uses: the
//! `channel` module with bounded/unbounded MPMC channels and disconnect
//! semantics, implemented over `std::sync::{Mutex, Condvar}`.
//!
//! Note: unlike real crossbeam, `bounded(0)` is treated as `bounded(1)`
//! rather than a rendezvous channel; the workspace never creates
//! zero-capacity channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of a channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers have been dropped.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`]: channel empty and disconnected.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders have been dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// The channel is empty and all senders have been dropped.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Full(_) => f.write_str("Full(..)"),
                Self::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Full(_) => f.write_str("sending on a full channel"),
                Self::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    impl<T> TrySendError<T> {
        /// Recovers the message that failed to send.
        pub fn into_inner(self) -> T {
            match self {
                Self::Full(t) | Self::Disconnected(t) => t,
            }
        }

        /// Whether the failure was a full queue.
        #[must_use]
        pub fn is_full(&self) -> bool {
            matches!(self, Self::Full(_))
        }

        /// Whether the failure was a disconnected channel.
        #[must_use]
        pub fn is_disconnected(&self) -> bool {
            matches!(self, Self::Disconnected(_))
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Empty => f.write_str("receiving on an empty channel"),
                Self::Disconnected => f.write_str("receiving on an empty and disconnected channel"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Timeout => f.write_str("timed out waiting on channel"),
                Self::Disconnected => f.write_str("receiving on an empty and disconnected channel"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    ///
    /// `cap == 0` is rounded up to 1 (no rendezvous support in this shim).
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    /// Creates a channel with unlimited capacity.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while the channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message back if all receivers have been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                let full = st.cap.is_some_and(|c| st.queue.len() >= c);
                if !full {
                    st.queue.push_back(msg);
                    drop(st);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .0
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Sends `msg` without blocking.
        ///
        /// # Errors
        ///
        /// Returns [`TrySendError::Full`] when at capacity and
        /// [`TrySendError::Disconnected`] when all receivers are gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.cap.is_some_and(|c| st.queue.len() >= c) {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Number of messages currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.0.lock().queue.is_empty()
        }

        /// The channel capacity, if bounded.
        #[must_use]
        pub fn capacity(&self) -> Option<usize> {
            self.0.lock().cap
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is empty and all senders
        /// have been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Receives a message without blocking.
        ///
        /// # Errors
        ///
        /// Returns [`TryRecvError::Empty`] when no message is queued and
        /// [`TryRecvError::Disconnected`] when additionally all senders are
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receives a message, blocking up to `timeout`.
        ///
        /// # Errors
        ///
        /// Returns [`RecvTimeoutError::Timeout`] if the deadline passes and
        /// [`RecvTimeoutError::Disconnected`] if the channel is empty with
        /// all senders gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, res) = self
                    .0
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                if res.timed_out() && st.queue.is_empty() {
                    if st.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of messages currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.0.lock().queue.is_empty()
        }

        /// The channel capacity, if bounded.
        #[must_use]
        pub fn capacity(&self) -> Option<usize> {
            self.0.lock().cap
        }

        /// A blocking iterator yielding messages until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// A non-blocking iterator draining currently queued messages.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    /// Non-blocking iterator; see [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    /// Blocking iterator over received messages; see [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Self(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Self(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                // Like real crossbeam, the last receiver discards whatever
                // is still queued: nobody can ever read it, and a message
                // may own a reply sender somebody is waiting on. Dropped
                // outside the lock — a message may own a handle to this
                // very channel.
                let unread = std::mem::take(&mut st.queue);
                drop(st);
                drop(unread);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        #[test]
        fn last_receiver_discards_queued_messages() {
            // A request queued at a receiver that goes away must release
            // the reply sender it carries, or the requester waits forever.
            let (req_tx, req_rx) = unbounded::<Sender<u32>>();
            let (reply_tx, reply_rx) = bounded::<u32>(1);
            req_tx.send(reply_tx).unwrap();
            drop(req_rx);
            assert_eq!(reply_rx.recv(), Err(RecvError));
            drop(req_tx);
        }

        #[test]
        fn bounded_try_send_full() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            assert_eq!(rx.recv().unwrap(), 1);
            tx.try_send(3).unwrap();
        }

        #[test]
        fn bounded_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = thread::spawn(move || tx.send(2).map(|()| true).unwrap_or(false));
            thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            assert!(t.join().unwrap());
        }

        #[test]
        fn mpmc_no_loss() {
            let (tx, rx) = bounded(4);
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..500u64 {
                            tx.send(p * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for p in producers {
                p.join().unwrap();
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            let mut expect: Vec<u64> = (0..4)
                .flat_map(|p| (0..500).map(move |i| p * 1000 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(all, expect);
        }

        #[test]
        fn recv_timeout_works() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        }
    }
}
