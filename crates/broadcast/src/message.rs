//! Broadcast messages and their control information.

use std::fmt;
use std::rc::Rc;

use pcb_clock::{KeySet, ProcessId, Timestamp};

/// Unique identity of a broadcast message: sender plus per-sender sequence
/// number (1-based; assigned by the sender in send order).
///
/// ```
/// use pcb_broadcast::MessageId;
/// use pcb_clock::ProcessId;
/// let id = MessageId::new(ProcessId::new(2), 5);
/// assert_eq!(id.to_string(), "p2#5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    sender: ProcessId,
    seq: u64,
}

impl MessageId {
    /// Builds an id from sender and 1-based sequence number.
    #[must_use]
    pub const fn new(sender: ProcessId, seq: u64) -> Self {
        Self { sender, seq }
    }

    /// The originating process.
    #[must_use]
    pub const fn sender(self) -> ProcessId {
        self.sender
    }

    /// The sender-local sequence number (1-based).
    #[must_use]
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sender, self.seq)
    }
}

/// A broadcast message as it travels on the wire.
///
/// Control information is the probabilistic timestamp (`R` integers) plus
/// the sender's key set (recoverable from a 16-byte `set_id`); payloads are
/// generic. The key set is shared behind an [`Rc`] because in a broadcast
/// every receiver sees the same copy.
///
/// Like [`Timestamp`]'s, the key set's count is non-atomic on purpose:
/// each shell owns its endpoints on one thread, and the simulator's
/// `pool::run_indexed` jobs build theirs inside the job, so a message
/// never crosses threads.
///
/// ```compile_fail
/// use bytes::Bytes;
/// use pcb_broadcast::{Message, MessageId};
/// use pcb_clock::{KeySet, KeySpace, ProcessId, Timestamp};
/// use std::rc::Rc;
/// let keys = Rc::new(KeySet::from_entries(KeySpace::new(4, 1).unwrap(), &[0]).unwrap());
/// let id = MessageId::new(ProcessId::new(0), 1);
/// let message = Message::new(id, keys, Timestamp::zero(4), Bytes::new());
/// // What a thread spawn demands of what it moves: `Send + 'static`.
/// fn hand_to_another_thread<T: Send + 'static>(_: T) {}
/// hand_to_another_thread(message);
/// ```
#[derive(Debug, Clone)]
pub struct Message<P> {
    id: MessageId,
    keys: Rc<KeySet>,
    timestamp: Timestamp,
    epoch: u64,
    payload: P,
}

impl<P> Message<P> {
    /// Assembles a message (normally done by `PcbProcess::broadcast`).
    /// Carries config epoch 0 — the genesis configuration — unless
    /// re-stamped with [`Message::with_epoch`].
    #[must_use]
    pub fn new(id: MessageId, keys: Rc<KeySet>, timestamp: Timestamp, payload: P) -> Self {
        Self { id, keys, timestamp, epoch: 0, payload }
    }

    /// Stamps the message with the cluster configuration epoch whose
    /// `(R, K)` geometry its timestamp was drawn in.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The config epoch this message's timestamp belongs to. A receiver
    /// on a different epoch must refuse the frame (cross-epoch refusal,
    /// recovered via anti-entropy) or route it to its draining
    /// previous-epoch process.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Message identity.
    #[must_use]
    pub fn id(&self) -> MessageId {
        self.id
    }

    /// The sender's process id.
    #[must_use]
    pub fn sender(&self) -> ProcessId {
        self.id.sender
    }

    /// The sender's key set `f(p_j)`.
    #[must_use]
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// Shared handle to the sender's key set.
    #[must_use]
    pub fn keys_shared(&self) -> Rc<KeySet> {
        Rc::clone(&self.keys)
    }

    /// The probabilistic timestamp `m.V`.
    #[must_use]
    pub fn timestamp(&self) -> &Timestamp {
        &self.timestamp
    }

    /// Borrow of the payload.
    #[must_use]
    pub fn payload(&self) -> &P {
        &self.payload
    }

    /// Decomposes the message into its parts. The main consumer is stamp
    /// recycling: a store evicting an aged-out message hands the
    /// timestamp back to a [`pcb_clock::StampPool`] instead of dropping
    /// it (a no-op if the stamp is still shared).
    #[must_use]
    pub fn into_parts(self) -> (MessageId, Rc<KeySet>, Timestamp, P) {
        (self.id, self.keys, self.timestamp, self.payload)
    }

    /// Control-information size on the wire: the `R`-entry timestamp plus a
    /// 16-byte `set_id` (the key set is *not* shipped expanded) plus the
    /// 12-byte message id. This is the quantity the paper's mechanism
    /// shrinks from `O(N)` to `O(R)`.
    #[must_use]
    pub fn control_overhead(&self) -> usize {
        self.timestamp.wire_size() + 16 + 12
    }

    /// Maps the payload, keeping all control information.
    #[must_use]
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Message<Q> {
        Message {
            id: self.id,
            keys: self.keys,
            timestamp: self.timestamp,
            epoch: self.epoch,
            payload: f(self.payload),
        }
    }
}

impl<P> fmt::Display for Message<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_clock::KeySpace;

    fn sample() -> Message<&'static str> {
        let space = KeySpace::new(4, 2).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[0, 1]).unwrap());
        Message::new(
            MessageId::new(ProcessId::new(1), 3),
            keys,
            Timestamp::from_entries(vec![1, 1, 0, 0]),
            "hello",
        )
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.id(), MessageId::new(ProcessId::new(1), 3));
        assert_eq!(m.sender(), ProcessId::new(1));
        assert_eq!(m.id().seq(), 3);
        assert_eq!(*m.payload(), "hello");
        assert_eq!(m.keys().entries(), &[0, 1]);
        assert_eq!(m.timestamp().entries(), &[1, 1, 0, 0]);
    }

    #[test]
    fn id_ordering_is_sender_then_seq() {
        let a = MessageId::new(ProcessId::new(0), 9);
        let b = MessageId::new(ProcessId::new(1), 1);
        let c = MessageId::new(ProcessId::new(1), 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn overhead_counts_r_not_n() {
        let m = sample();
        // R = 4 entries * 8 bytes + 16 (set id) + 12 (message id).
        assert_eq!(m.control_overhead(), 32 + 28);
    }

    #[test]
    fn map_preserves_control_information() {
        let m = sample().map(str::len);
        assert_eq!(*m.payload(), 5);
        assert_eq!(m.sender(), ProcessId::new(1));
        assert_eq!(m.to_string(), "p1#3@[1,1,0,0]");
    }

    #[test]
    fn fanout_shares_one_stamp_and_payload() {
        // A shell fans one broadcast out by cloning it per receiver; every
        // copy must point at the stamp and the payload bytes the sender
        // handed over, so a broadcast materializes each exactly once.
        let stamp = Timestamp::from_entries(vec![3, 1, 4, 1]);
        let payload = bytes::Bytes::from(vec![0xAB; 64]);
        let keys = Rc::new(KeySet::from_entries(KeySpace::new(4, 2).unwrap(), &[0, 2]).unwrap());
        let m = Message::new(
            MessageId::new(ProcessId::new(0), 1),
            keys,
            stamp.clone(),
            payload.clone(),
        );
        for copy in (0..4).map(|_| m.clone()) {
            assert!(copy.timestamp().shares_storage_with(&stamp), "stamp was deep-copied");
            assert_eq!(copy.payload().as_ptr(), payload.as_ptr(), "payload was copied");
        }
    }
}
