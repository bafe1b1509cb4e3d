//! Message codecs.
//!
//! The transport crates frame bytes; *what* those bytes say is a codec's
//! job. The data plane speaks one encoding, the compact binary layout of
//! `fdml-wire` (which keeps the vocabulary crate free of wire-layout
//! concerns). The JSON codec here is the reference rendering of a
//! [`Message`]: human-readable, used by the benchmark's codec probe and by
//! tests as an independent round-trip. Framing (length prefix, CRC) stays
//! with the transport.

use crate::message::Message;
use std::fmt;

/// An encode or decode failure, carrying the codec's own diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The message could not be serialized.
    Encode(String),
    /// The byte body could not be parsed back into a message.
    Decode(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Encode(why) => write!(f, "encode failed: {why}"),
            CodecError::Decode(why) => write!(f, "decode failed: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Turns a [`Message`] into a byte body and back.
///
/// Contract: `decode(encode(m)) == m` for every message.
pub trait MessageCodec: Send + Sync {
    /// Serialize one message to a self-describing byte body.
    fn encode(&self, msg: &Message) -> Result<Vec<u8>, CodecError>;
    /// Parse a byte body produced by [`MessageCodec::encode`].
    fn decode(&self, bytes: &[u8]) -> Result<Message, CodecError>;
}

/// The human-readable codec: one serde-JSON document per message, the
/// reference rendering of the vocabulary. No transport writes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

impl MessageCodec for JsonCodec {
    fn encode(&self, msg: &Message) -> Result<Vec<u8>, CodecError> {
        serde_json::to_string(msg)
            .map(String::into_bytes)
            .map_err(|e| CodecError::Encode(e.to_string()))
    }

    fn decode(&self, bytes: &[u8]) -> Result<Message, CodecError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CodecError::Decode(format!("invalid utf-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| CodecError::Decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_sniffable() {
        let msg = Message::TreeTask {
            task: 9,
            newick: "(a:1,b:2);".into(),
        };
        let body = JsonCodec.encode(&msg).unwrap();
        assert_eq!(body[0], b'{');
        assert_eq!(JsonCodec.decode(&body).unwrap(), msg);
    }

    #[test]
    fn json_decode_rejects_garbage() {
        assert!(JsonCodec.decode(b"not json").is_err());
        assert!(JsonCodec.decode(&[0xFD, 0x01]).is_err());
    }
}
