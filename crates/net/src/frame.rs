//! The frame layer: length-prefixed payloads over a byte stream.
//!
//! Every protocol message travels as one *frame*: a 4-byte big-endian
//! unsigned length `N`, followed by `N` payload bytes. The layer carries
//! bytes and does not look inside them — a payload is a JSON control
//! message or a binary row block, which is the message layer's business
//! ([`crate::proto`]). The prefix is what lets the server survive hostile
//! or broken peers cheaply: an oversized length is rejected after reading
//! just 4 bytes (no allocation proportional to the attacker's claim), a
//! truncated body surfaces as a typed [`FrameError::Truncated`] instead of
//! a hang, and a read timeout on the socket turns slow-loris dribbling
//! into a clean close.
//!
//! The layer is symmetric — client and server use the same functions —
//! and byte-counting: reads and writes return the on-wire size so sessions
//! can account traffic per client. [`write_frame`] sends one frame and
//! flushes; a sender with several frames ready ([`append_frame`]) lays
//! them out in one buffer and hands the socket a single write.

use std::io::{self, Read, Write};

/// Hard ceiling a reader accepts for one frame, before configuration.
pub const MAX_FRAME_BYTES_CEILING: u32 = 64 * 1024 * 1024;

/// Default per-frame size limit (8 MiB), enough for thousands of streamed
/// match rows per frame while keeping a hostile length prefix cheap.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// What went wrong while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly between frames (not an error for
    /// a session loop; callers usually treat it as "goodbye without the
    /// courtesy frame").
    Closed,
    /// The length prefix exceeds the configured limit.
    TooLarge {
        /// The length the prefix claimed.
        claimed: u32,
        /// The configured limit.
        limit: u32,
    },
    /// The stream ended (or timed out) mid-prefix or mid-payload.
    Truncated {
        /// Bytes of the frame actually received.
        got: usize,
        /// Bytes the frame should have had (prefix + payload).
        wanted: usize,
    },
    /// An I/O error other than a mid-frame EOF or timeout.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { claimed, limit } => {
                write!(f, "frame of {claimed} bytes exceeds the {limit}-byte limit")
            }
            FrameError::Truncated { got, wanted } => {
                write!(f, "truncated frame: got {got} of {wanted} bytes")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// True when the error is a read timeout (a stalled peer under a socket
/// read timeout — the slow-loris case).
pub fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads exactly `buf.len()` bytes, reporting how many arrived before an
/// EOF or timeout cut the read short.
fn read_exact_counted(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), (usize, io::Error)> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err((
                    filled,
                    io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-frame"),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err((filled, e)),
        }
    }
    Ok(())
}

/// Reads one frame, returning its payload and the total on-wire bytes
/// consumed (prefix included). A clean EOF *before* the first prefix byte is
/// [`FrameError::Closed`]; anything mid-frame (EOF or read timeout) is
/// [`FrameError::Truncated`].
pub fn read_frame(reader: &mut impl Read, max_bytes: u32) -> Result<(Vec<u8>, u64), FrameError> {
    let mut prefix = [0u8; 4];
    if let Err((got, err)) = read_exact_counted(reader, &mut prefix) {
        if got == 0 && err.kind() == io::ErrorKind::UnexpectedEof {
            return Err(FrameError::Closed);
        }
        if err.kind() == io::ErrorKind::UnexpectedEof || is_timeout(&err) {
            return Err(FrameError::Truncated { got, wanted: 4 });
        }
        return Err(FrameError::Io(err));
    }
    let len = u32::from_be_bytes(prefix);
    let limit = max_bytes.min(MAX_FRAME_BYTES_CEILING);
    if len > limit {
        return Err(FrameError::TooLarge {
            claimed: len,
            limit,
        });
    }
    let mut payload = vec![0u8; len as usize];
    if let Err((got, err)) = read_exact_counted(reader, &mut payload) {
        if err.kind() == io::ErrorKind::UnexpectedEof || is_timeout(&err) {
            return Err(FrameError::Truncated {
                got: 4 + got,
                wanted: 4 + len as usize,
            });
        }
        return Err(FrameError::Io(err));
    }
    Ok((payload, 4 + len as u64))
}

fn too_long() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        "frame payload exceeds u32 length",
    )
}

/// Writes one frame and flushes, returning the on-wire bytes written.
pub fn write_frame(writer: &mut impl Write, payload: impl AsRef<[u8]>) -> io::Result<u64> {
    let payload = payload.as_ref();
    let len = u32::try_from(payload.len()).map_err(|_| too_long())?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(4 + payload.len() as u64)
}

/// Appends one frame to `buf`, its payload written in place by `fill`.
/// Nothing reaches a socket: the caller sends `buf` — any number of
/// frames — with one write.
pub fn append_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let prefix_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    fill(buf);
    let Ok(len) = u32::try_from(buf.len() - prefix_at - 4) else {
        buf.truncate(prefix_at);
        return Err(too_long());
    };
    buf[prefix_at..prefix_at + 4].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn wire(payload: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn round_trips_and_counts_bytes() {
        let bytes = wire("{\"type\":\"ping\"}");
        assert_eq!(bytes.len(), 4 + 15);
        let (text, n) = read_frame(&mut Cursor::new(&bytes), 1024).unwrap();
        assert_eq!(text, b"{\"type\":\"ping\"}");
        assert_eq!(n, bytes.len() as u64);
        // Several frames back to back.
        let mut stream = wire("a");
        stream.extend(wire("bb"));
        let mut cursor = Cursor::new(&stream);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().0, b"a");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().0, b"bb");
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"whatever");
        match read_frame(&mut Cursor::new(&bytes), 1024) {
            Err(FrameError::TooLarge { claimed, limit }) => {
                assert_eq!(claimed, u32::MAX);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_reported_with_byte_counts() {
        // Prefix cut short.
        let err = read_frame(&mut Cursor::new(&[0u8, 0]), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { got: 2, wanted: 4 }));
        // Payload cut short.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(&bytes), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { got: 7, wanted: 14 }));
    }

    #[test]
    fn payloads_are_bytes_not_text() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, [0x01u8, 0xff, 0xfe]).unwrap();
        let (payload, n) = read_frame(&mut Cursor::new(&bytes), 1024).unwrap();
        assert_eq!(payload, [0x01, 0xff, 0xfe]);
        assert_eq!(n, 7);
    }

    #[test]
    fn appended_frames_read_back_like_written_ones() {
        let mut buf = Vec::new();
        append_frame(&mut buf, |out| out.extend_from_slice(b"a")).unwrap();
        append_frame(&mut buf, |_| {}).unwrap();
        append_frame(&mut buf, |out| out.extend_from_slice(&[0x02, 0x00])).unwrap();
        let mut expected = wire("a");
        expected.extend(wire(""));
        write_frame(&mut expected, [0x02u8, 0x00]).unwrap();
        assert_eq!(buf, expected);
    }

    #[test]
    fn display_strings_are_informative() {
        assert!(FrameError::Closed.to_string().contains("closed"));
        assert!(FrameError::TooLarge {
            claimed: 9,
            limit: 4
        }
        .to_string()
        .contains("exceeds"));
        assert!(FrameError::Truncated { got: 1, wanted: 2 }
            .to_string()
            .contains("truncated"));
    }
}
