//! Transaction batches and their digests — the mempool currency of the
//! batch dissemination layer.
//!
//! Following the Narwhal/Bullshark decoupling, transaction bytes travel
//! peer-to-peer in [`Batch`]es, while the consensus path (vertices, RBC,
//! ordering) carries only constant-size [`BatchDigest`]s. The digest
//! itself is computed by the layer that owns a hash implementation
//! (`dagrider-crypto` depends on this crate, not the reverse), so this
//! module defines only the wire representation.

use std::fmt;

use crate::codec::{Decode, DecodeError, Encode};
use crate::{ProcessId, Transaction};

/// A 32-byte content digest naming one [`Batch`].
///
/// Vertices carry `Vec<BatchDigest>` payloads instead of inline
/// transactions, so the consensus path's per-batch cost is these 32
/// bytes regardless of how many transaction bytes the batch holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchDigest([u8; 32]);

impl BatchDigest {
    /// Wraps raw digest bytes.
    pub const fn new(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// The digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Display for BatchDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Eight hex chars are enough to tell digests apart in logs.
        for byte in &self.0[..4] {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

impl Encode for BatchDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for BatchDigest {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self(<[u8; 32]>::decode(buf)?))
    }
}

/// A batch of client transactions assembled by one worker channel.
///
/// Batches are disseminated peer-to-peer outside the consensus path and
/// addressed by the digest of their encoded bytes. The creator and worker
/// index identify which channel assembled the batch (for tracing and
/// fetch routing); they are part of the digested bytes, so equal
/// transaction sets from different channels still get distinct digests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Batch {
    creator: ProcessId,
    worker: u32,
    transactions: Vec<Transaction>,
}

impl Batch {
    /// Creates a batch assembled by `creator`'s worker channel `worker`.
    pub fn new(creator: ProcessId, worker: u32, transactions: impl Into<Vec<Transaction>>) -> Self {
        Self { creator, worker, transactions: transactions.into() }
    }

    /// The node whose worker assembled this batch.
    pub const fn creator(&self) -> ProcessId {
        self.creator
    }

    /// The index of the worker channel that assembled this batch.
    pub const fn worker(&self) -> u32 {
        self.worker
    }

    /// The batched transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Consumes the batch, returning its transactions.
    pub fn into_transactions(self) -> Vec<Transaction> {
        self.transactions
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the batch carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Total payload bytes across all transactions.
    pub fn payload_bytes(&self) -> usize {
        self.transactions.iter().map(Transaction::len).sum()
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch({}/w{}: {} txs, {} bytes)",
            self.creator,
            self.worker,
            self.len(),
            self.payload_bytes()
        )
    }
}

impl Encode for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.creator.encode(buf);
        self.worker.encode(buf);
        self.transactions.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.creator.encoded_len() + self.worker.encoded_len() + self.transactions.encoded_len()
    }
}

impl Decode for Batch {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            creator: ProcessId::decode(buf)?,
            worker: u32::decode(buf)?,
            transactions: Vec::<Transaction>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accounts_payload_bytes() {
        let batch = Batch::new(
            ProcessId::new(1),
            2,
            vec![Transaction::synthetic(0, 10), Transaction::synthetic(1, 22)],
        );
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.payload_bytes(), 32);
        assert!(!batch.is_empty());
        assert_eq!(batch.creator(), ProcessId::new(1));
        assert_eq!(batch.worker(), 2);
    }

    #[test]
    fn batch_codec_roundtrip() {
        let batch = Batch::new(
            ProcessId::new(3),
            0,
            vec![Transaction::synthetic(7, 17), Transaction::new(vec![])],
        );
        let bytes = batch.to_bytes();
        assert_eq!(bytes.len(), batch.encoded_len());
        assert_eq!(Batch::from_bytes(&bytes).unwrap(), batch);
    }

    #[test]
    fn digest_codec_is_fixed_width() {
        let digest = BatchDigest::new([0xab; 32]);
        let bytes = digest.to_bytes();
        assert_eq!(bytes.len(), 32);
        assert_eq!(digest.encoded_len(), 32);
        assert_eq!(BatchDigest::from_bytes(&bytes).unwrap(), digest);
        assert!(BatchDigest::from_bytes(&bytes[..31]).is_err());
    }

    #[test]
    fn digest_displays_a_short_prefix() {
        let digest = BatchDigest::new([0x1f; 32]);
        assert_eq!(digest.to_string(), "1f1f1f1f");
    }
}
