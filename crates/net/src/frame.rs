//! Wire framing: every byte on a `dear-net` socket travels inside a frame
//! with a fixed 5-byte header — `[kind: u8][len: u32 LE]` — followed by
//! `len` payload bytes. Gradient payloads are dtype-tagged byte arrays
//! (`[generation: u64][dtype: u8][element bytes]`, see [`WireBuf`]);
//! rendezvous control frames carry small hand-rolled binary bodies.
//!
//! Little-endian is the wire byte order regardless of host (the paper's
//! testbeds are x86-64, but the format is explicit so heterogeneous hosts
//! interoperate). Data frames are **self-describing**: the receiver decodes
//! by the frame's own dtype tag, never by local configuration, so peers on
//! different wire precisions interoperate frame by frame.

use std::io::{self, IoSlice, Read, Write};

use dear_collectives::{DType, WireBuf};

/// Bytes of the fixed frame header: `[kind: u8][len: u32 LE]`.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Frame type tags. The numeric values are wire ABI; do not renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A generation-stamped, dtype-tagged gradient/parameter payload
    /// (`[generation: u64][dtype: u8][element bytes LE]` — a [`Message`]
    /// payload). The generation lets a restarted world reject frames that
    /// straggle in from a previous incarnation; the dtype tag (see
    /// [`DType::tag`]) makes each frame self-describing.
    ///
    /// [`Message`]: dear_collectives::Message
    Data = 1,
    /// Graceful end-of-stream: the peer is done sending forever.
    Shutdown = 2,
    /// Worker → master: join request
    /// (`[rank: u32][port: u16][generation: u64][host_id: u64][host utf8]`,
    /// rank `u32::MAX` requests auto-assignment).
    Hello = 3,
    /// Master → worker: rank assignment and peer table
    /// (`[rank: u32][world: u32][generation: u64]`, per rank
    /// `[len: u16][addr utf8]`, then per rank
    /// `[host_id: u64][prev_rank: u32]`).
    Welcome = 4,
    /// Mesh dial: first frame on a peer-to-peer connection, identifying the
    /// dialling rank (`[rank: u32]`).
    Ident = 5,
    /// Worker → rank 0: full mesh established, ready for step 0.
    Ready = 6,
    /// Rank 0 → worker: all ranks ready, start.
    Go = 7,
    /// Periodic liveness probe (`[generation: u64]`), sent by the
    /// heartbeat monitor when a peer link has been idle. Carries no data;
    /// any frame arriving counts as liveness.
    Heartbeat = 8,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Data,
            2 => FrameKind::Shutdown,
            3 => FrameKind::Hello,
            4 => FrameKind::Welcome,
            5 => FrameKind::Ident,
            6 => FrameKind::Ready,
            7 => FrameKind::Go,
            8 => FrameKind::Heartbeat,
            _ => return None,
        })
    }
}

/// Upper bound on a frame body; larger lengths are treated as stream
/// corruption rather than honoured with a giant allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Checks that a body of `len` bytes fits in a frame. The header's length
/// field is a `u32`, so a body over [`MAX_FRAME_BYTES`] must be rejected
/// here — `len as u32` would silently truncate at 4 GiB and desynchronize
/// the stream (the peer would read the truncated length, then misparse the
/// remaining bytes as headers).
///
/// # Errors
///
/// Returns `InvalidData` when `len > MAX_FRAME_BYTES`.
pub fn check_body_len(len: usize) -> io::Result<()> {
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    Ok(())
}

/// Writes one frame. `body` is borrowed; the caller keeps its buffer.
///
/// # Errors
///
/// Returns `InvalidData` (via [`check_body_len`]) for bodies over
/// [`MAX_FRAME_BYTES`]; otherwise propagates I/O errors from the
/// underlying writer.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, body: &[u8]) -> io::Result<()> {
    check_body_len(body.len())?;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0] = kind as u8;
    header[1..5].copy_from_slice(&(body.len() as u32).to_le_bytes());
    write_all_vectored(w, &header, body)
}

/// Writes `header` then `body` via `write_vectored`: one syscall on the
/// happy path (so a frame can never be torn between a header write and a
/// body write by a peer death in the gap), with a partial-write
/// continuation loop for short writes on non-blocking-ish transports.
fn write_all_vectored<W: Write>(w: &mut W, header: &[u8], body: &[u8]) -> io::Result<()> {
    let mut bufs = [IoSlice::new(header), IoSlice::new(body)];
    let mut slices = &mut bufs[..];
    let mut remaining = header.len() + body.len();
    while remaining > 0 {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ));
            }
            Ok(n) => {
                remaining -= n.min(remaining);
                if remaining == 0 {
                    break;
                }
                IoSlice::advance_slices(&mut slices, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Bytes of a [`FrameKind::Data`] frame before the element bytes: the
/// frame header plus the generation stamp and dtype tag.
pub const DATA_HEADER_BYTES: usize = FRAME_HEADER_BYTES + DATA_BODY_OVERHEAD;

/// Builds the complete header of a [`FrameKind::Data`] frame on the stack:
/// `[kind][len: u32 LE][generation: u64 LE][dtype tag]`. Pairing this with
/// the payload's own byte slice replaces the old copy-assembled body `Vec`
/// — the element bytes never move until the kernel copies them out.
///
/// # Errors
///
/// Returns `InvalidData` (via [`check_body_len`]) when the payload would
/// exceed [`MAX_FRAME_BYTES`].
pub fn data_frame_header(
    generation: u64,
    payload: &WireBuf,
) -> io::Result<[u8; DATA_HEADER_BYTES]> {
    data_header(generation, payload.dtype(), payload.num_bytes())
}

/// [`data_frame_header`] for `payload_bytes` element bytes of `dtype`.
fn data_header(
    generation: u64,
    dtype: DType,
    payload_bytes: usize,
) -> io::Result<[u8; DATA_HEADER_BYTES]> {
    let body_len = DATA_BODY_OVERHEAD + payload_bytes;
    check_body_len(body_len)?;
    let mut header = [0u8; DATA_HEADER_BYTES];
    header[0] = FrameKind::Data as u8;
    header[1..5].copy_from_slice(&(body_len as u32).to_le_bytes());
    header[5..13].copy_from_slice(&generation.to_le_bytes());
    header[13] = dtype.tag();
    Ok(header)
}

/// Writes one [`FrameKind::Data`] frame as a stack header + borrowed
/// payload pair via `write_all_vectored` — a single syscall in the
/// common case, zero payload copies. Returns the wire bytes written so the
/// caller can count traffic without re-deriving frame overheads.
///
/// # Errors
///
/// Returns `InvalidData` for oversize payloads; otherwise propagates I/O
/// errors from the underlying writer.
pub fn write_data_frame<W: Write>(
    w: &mut W,
    generation: u64,
    payload: &WireBuf,
) -> io::Result<usize> {
    let header = data_frame_header(generation, payload)?;
    write_all_vectored(w, &header, payload.bytes())?;
    Ok(DATA_HEADER_BYTES + payload.num_bytes())
}

/// Writes the [`FrameKind::Data`] frame that [`write_data_frame`] writes
/// for `WireBuf::encode(src, DType::F32)`, straight from `src`'s memory:
/// on a little-endian host an `f32`'s bytes are its wire encoding, so the
/// element bytes are never copied before the kernel copies them out.
///
/// # Errors
///
/// Returns `InvalidData` for oversize payloads, before writing anything;
/// otherwise propagates I/O errors from the underlying writer.
#[cfg(target_endian = "little")]
pub fn write_f32_data_frame<W: Write>(
    w: &mut W,
    generation: u64,
    src: &[f32],
) -> io::Result<usize> {
    // SAFETY: f32 has no padding and u8 has alignment 1; the slice covers
    // exactly the `size_of_val(src)` initialized bytes of `src`.
    let bytes = unsafe {
        std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), std::mem::size_of_val(src))
    };
    let header = data_header(generation, DType::F32, bytes.len())?;
    write_all_vectored(w, &header, bytes)?;
    Ok(DATA_HEADER_BYTES + bytes.len())
}

/// Reads and validates one frame header, returning the kind and body
/// length without touching the body bytes — the caller chooses where the
/// body lands (a pooled buffer for data payloads, a scratch `Vec` for
/// control frames).
///
/// # Errors
///
/// Returns `UnexpectedEof` at end of stream, and `InvalidData` for unknown
/// kinds or oversized lengths.
pub fn read_frame_header<R: Read>(r: &mut R) -> io::Result<(FrameKind, usize)> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let kind = FrameKind::from_u8(header[0]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {}", header[0]),
        )
    })?;
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    Ok((kind, len))
}

/// Reads one frame into `body` (cleared and reused, so steady-state reads
/// don't allocate). Returns the frame kind.
///
/// # Errors
///
/// Returns `UnexpectedEof` at end of stream, and `InvalidData` for unknown
/// kinds or oversized lengths.
pub fn read_frame<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<FrameKind> {
    let (kind, len) = read_frame_header(r)?;
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(kind)
}

/// Bytes of [`FrameKind::Data`] body overhead before the element bytes:
/// the 8-byte generation stamp plus the 1-byte dtype tag.
pub const DATA_BODY_OVERHEAD: usize = 9;

/// Encodes a [`FrameKind::Data`] body: an 8-byte LE generation stamp, a
/// 1-byte dtype tag, then the payload's element bytes (`out` cleared and
/// reused). Lengths are **bytes**, dtype-dependent: a bf16 payload's body
/// is half the size of the same element count in f32.
pub fn encode_data_body(generation: u64, payload: &WireBuf, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(DATA_BODY_OVERHEAD + payload.num_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.push(payload.dtype().tag());
    out.extend_from_slice(payload.bytes());
}

/// Splits a [`FrameKind::Data`] body into its generation stamp, dtype, and
/// the raw element bytes.
///
/// # Errors
///
/// Returns `InvalidData` if the body is shorter than the stamp + tag, or
/// carries an unknown dtype tag.
pub fn split_data_body(body: &[u8]) -> io::Result<(u64, DType, &[u8])> {
    if body.len() < DATA_BODY_OVERHEAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "data frame of {} bytes lacks a generation stamp and dtype tag",
                body.len()
            ),
        ));
    }
    let generation = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let dtype = DType::from_tag(body[8]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown dtype tag {}", body[8]),
        )
    })?;
    Ok((generation, dtype, &body[DATA_BODY_OVERHEAD..]))
}

/// Encodes the 8-byte body of a [`FrameKind::Heartbeat`] frame.
#[must_use]
pub fn encode_generation(generation: u64) -> [u8; 8] {
    generation.to_le_bytes()
}

/// Decodes a [`FrameKind::Heartbeat`] body.
///
/// # Errors
///
/// Returns `InvalidData` if the body is not exactly 8 bytes.
pub fn decode_generation(body: &[u8]) -> io::Result<u64> {
    let bytes: [u8; 8] = body
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "short HEARTBEAT"))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Body of a [`FrameKind::Hello`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Requested rank, or `u32::MAX` for auto-assignment.
    pub rank: u32,
    /// The worker's listener port.
    pub port: u16,
    /// The world generation the worker believes it is joining; the master
    /// rejects mismatches so a straggler from a killed incarnation cannot
    /// join the restarted world.
    pub generation: u64,
    /// The worker's physical-host identity (`DEAR_HOST_ID`), republished by
    /// the master in the WELCOME so every rank learns the full host map —
    /// the fact the tiered transport routes on. [`crate::NetConfig::UNKNOWN_HOST`]
    /// means "not configured"; the master then assigns a unique pseudo-host
    /// per rank, degenerating to the all-TCP behavior.
    pub host_id: u64,
    /// Advertised host; empty means "use the address the master sees".
    pub host: String,
}

impl Hello {
    /// Serializes to a frame body
    /// (`[rank: u32][port: u16][generation: u64][host_id: u64][host utf8]`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(22 + self.host.len());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.port.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.host_id.to_le_bytes());
        out.extend_from_slice(self.host.as_bytes());
        out
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on truncation or malformed UTF-8.
    pub fn decode(body: &[u8]) -> io::Result<Hello> {
        if body.len() < 22 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "short HELLO"));
        }
        let rank = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
        let port = u16::from_le_bytes(body[4..6].try_into().expect("2 bytes"));
        let generation = u64::from_le_bytes(body[6..14].try_into().expect("8 bytes"));
        let host_id = u64::from_le_bytes(body[14..22].try_into().expect("8 bytes"));
        let host = std::str::from_utf8(&body[22..])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "HELLO host not UTF-8"))?
            .to_string();
        Ok(Hello {
            rank,
            port,
            generation,
            host_id,
            host,
        })
    }
}

/// Body of a [`FrameKind::Welcome`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// The rank assigned to the receiving worker.
    pub rank: u32,
    /// World size.
    pub world: u32,
    /// The master's world generation, authoritative for every member.
    pub generation: u64,
    /// Dialable `host:port` of every rank's listener, indexed by rank.
    pub addrs: Vec<String>,
    /// Physical-host identity of every rank, indexed by rank — collected
    /// from the HELLOs and republished so each member can tell which peers
    /// share its host (and thus its shared-memory fabric).
    pub host_ids: Vec<u64>,
    /// Each rank's rank in the **previous** generation, indexed by (new)
    /// rank; `u32::MAX` for fresh joiners and at initial rendezvous for
    /// nobody (every rank maps to itself). A resize survivor uses this
    /// table to re-locate peers it knew by old rank — e.g. which surviving
    /// shared-memory neighbors map to which new global ranks.
    pub prev_ranks: Vec<u32>,
}

impl Welcome {
    /// Serializes to a frame body
    /// (`[rank: u32][world: u32][generation: u64]`, the addr table, then
    /// per rank `[host_id: u64][prev_rank: u32]`).
    ///
    /// # Panics
    ///
    /// Panics if `host_ids` or `prev_ranks` length disagrees with `addrs`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert_eq!(
            self.addrs.len(),
            self.host_ids.len(),
            "one host id per rank"
        );
        assert_eq!(
            self.addrs.len(),
            self.prev_ranks.len(),
            "one prev rank per rank"
        );
        let mut out = Vec::new();
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.world.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        for addr in &self.addrs {
            out.extend_from_slice(&(addr.len() as u16).to_le_bytes());
            out.extend_from_slice(addr.as_bytes());
        }
        for (&host_id, &prev) in self.host_ids.iter().zip(&self.prev_ranks) {
            out.extend_from_slice(&host_id.to_le_bytes());
            out.extend_from_slice(&prev.to_le_bytes());
        }
        out
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on truncation or malformed UTF-8.
    pub fn decode(body: &[u8]) -> io::Result<Welcome> {
        let short = || io::Error::new(io::ErrorKind::InvalidData, "short WELCOME");
        if body.len() < 16 {
            return Err(short());
        }
        let rank = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
        let world = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
        let generation = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        // Every rank takes at least 14 bytes (an empty address's length, a
        // host id and a previous rank): a larger claimed world is a short
        // body, refused before anything is reserved for it.
        if world as usize > (body.len() - 16) / 14 {
            return Err(short());
        }
        let mut addrs = Vec::with_capacity(world as usize);
        let mut at = 16usize;
        for _ in 0..world {
            if body.len() < at + 2 {
                return Err(short());
            }
            let len = u16::from_le_bytes(body[at..at + 2].try_into().expect("2 bytes")) as usize;
            at += 2;
            if body.len() < at + len {
                return Err(short());
            }
            let addr = std::str::from_utf8(&body[at..at + len])
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "WELCOME addr not UTF-8"))?
                .to_string();
            addrs.push(addr);
            at += len;
        }
        let mut host_ids = Vec::with_capacity(world as usize);
        let mut prev_ranks = Vec::with_capacity(world as usize);
        for _ in 0..world {
            if body.len() < at + 12 {
                return Err(short());
            }
            host_ids.push(u64::from_le_bytes(
                body[at..at + 8].try_into().expect("8 bytes"),
            ));
            prev_ranks.push(u32::from_le_bytes(
                body[at + 8..at + 12].try_into().expect("4 bytes"),
            ));
            at += 12;
        }
        Ok(Welcome {
            rank,
            world,
            generation,
            addrs,
            host_ids,
            prev_ranks,
        })
    }
}

/// Encodes the 4-byte body of an [`FrameKind::Ident`] frame.
#[must_use]
pub fn encode_ident(rank: u32) -> [u8; 4] {
    rank.to_le_bytes()
}

/// Decodes an [`FrameKind::Ident`] body.
///
/// # Errors
///
/// Returns `InvalidData` if the body is not exactly 4 bytes.
pub fn decode_ident(body: &[u8]) -> io::Result<u32> {
    let bytes: [u8; 4] = body
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "short IDENT"))?;
    Ok(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_roundtrip_over_a_byte_pipe() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Data, &[1, 2, 3, 4]).unwrap();
        write_frame(&mut wire, FrameKind::Shutdown, &[]).unwrap();
        let mut cursor = &wire[..];
        let mut body = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut body).unwrap(), FrameKind::Data);
        assert_eq!(body, vec![1, 2, 3, 4]);
        assert_eq!(
            read_frame(&mut cursor, &mut body).unwrap(),
            FrameKind::Shutdown
        );
        assert!(body.is_empty());
        assert_eq!(
            read_frame(&mut cursor, &mut body).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversize_body_is_rejected_at_the_boundary() {
        // The length check is factored out so the boundary is testable
        // without allocating a gigabyte: exactly MAX is fine, MAX + 1 is
        // InvalidData (never a silent `as u32` truncation).
        assert!(check_body_len(MAX_FRAME_BYTES).is_ok());
        assert_eq!(
            check_body_len(MAX_FRAME_BYTES + 1).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            check_body_len(u32::MAX as usize + 1).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn unknown_kind_is_invalid_data() {
        let wire = [99u8, 0, 0, 0, 0];
        let mut body = Vec::new();
        assert_eq!(
            read_frame(&mut &wire[..], &mut body).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn hello_welcome_roundtrip() {
        let hello = Hello {
            rank: u32::MAX,
            port: 40_123,
            generation: 3,
            host_id: 0xDEAD_BEEF_0BAD_F00D,
            host: String::new(),
        };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        assert!(Hello::decode(&hello.encode()[..20]).is_err());
        let welcome = Welcome {
            rank: 2,
            world: 4,
            generation: 3,
            addrs: vec![
                "127.0.0.1:1".into(),
                "127.0.0.1:2".into(),
                "10.0.0.3:45000".into(),
                "127.0.0.1:4".into(),
            ],
            host_ids: vec![11, 11, 22, 22],
            prev_ranks: vec![3, 1, 2, u32::MAX],
        };
        let encoded = welcome.encode();
        assert_eq!(Welcome::decode(&encoded).unwrap(), welcome);
        assert!(Welcome::decode(&encoded[..10]).is_err());
        // Truncating inside the host-id/prev-rank table is also detected.
        assert!(Welcome::decode(&encoded[..encoded.len() - 5]).is_err());
        assert_eq!(decode_ident(&encode_ident(7)).unwrap(), 7);
    }

    #[test]
    fn data_body_carries_its_generation_stamp_and_dtype() {
        let elems = [1.0f32, -2.5, f32::NAN];
        let mut body = Vec::new();
        encode_data_body(41, &WireBuf::from_f32(&elems), &mut body);
        assert_eq!(body.len(), DATA_BODY_OVERHEAD + elems.len() * 4);
        let (generation, dtype, raw) = split_data_body(&body).unwrap();
        assert_eq!(generation, 41);
        assert_eq!(dtype, DType::F32);
        let mut back = [0.0f32; 3];
        WireBuf::from_raw(dtype, raw.to_vec())
            .unwrap()
            .decode_into(&mut back)
            .unwrap();
        for (a, b) in elems.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(split_data_body(&body[..8]).is_err());
    }

    #[test]
    fn narrow_data_body_is_self_describing_and_half_size() {
        let elems = [1.0f32, 2.0, 3.0, 4.0];
        let mut f32_body = Vec::new();
        encode_data_body(7, &WireBuf::from_f32(&elems), &mut f32_body);
        let mut bf16_body = Vec::new();
        encode_data_body(7, &WireBuf::encode(&elems, DType::Bf16), &mut bf16_body);
        assert_eq!(f32_body.len(), DATA_BODY_OVERHEAD + 16);
        assert_eq!(bf16_body.len(), DATA_BODY_OVERHEAD + 8);
        let (generation, dtype, raw) = split_data_body(&bf16_body).unwrap();
        assert_eq!(generation, 7);
        assert_eq!(dtype, DType::Bf16);
        let back = WireBuf::from_raw(dtype, raw.to_vec()).unwrap().to_f32_vec();
        assert_eq!(back, elems, "bf16-exact values roundtrip");
    }

    #[test]
    fn unknown_dtype_tag_is_invalid_data() {
        let mut body = Vec::new();
        encode_data_body(1, &WireBuf::from_f32(&[1.0]), &mut body);
        body[8] = 0xEE; // corrupt the dtype tag
        assert_eq!(
            split_data_body(&body).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A writer that accepts at most `step` bytes per call, forcing the
    /// vectored path through its partial-write continuation loop across
    /// the header/payload slice boundary.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_data_frame_matches_the_copy_assembled_encoding() {
        // The zero-copy path must be byte-for-byte the wire format the old
        // encode_data_body + write_frame pair produced — peers on either
        // implementation interoperate.
        let payload = WireBuf::encode(&[1.0f32, -2.5, f32::NAN, 65504.0], DType::F16);
        let mut old = Vec::new();
        let mut body = Vec::new();
        encode_data_body(97, &payload, &mut body);
        write_frame(&mut old, FrameKind::Data, &body).unwrap();
        let mut new = Vec::new();
        let written = write_data_frame(&mut new, 97, &payload).unwrap();
        assert_eq!(new, old);
        assert_eq!(written, new.len());
        assert_eq!(written, DATA_HEADER_BYTES + payload.num_bytes());
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn f32_frame_from_the_slice_matches_the_encoded_frame() {
        let nan = f32::from_bits(0x7FC0_1234);
        for src in [&[][..], &[1.5, -0.0, nan, f32::from_bits(1), f32::MAX]] {
            let mut encoded = Vec::new();
            let n = write_data_frame(&mut encoded, 41, &WireBuf::encode(src, DType::F32)).unwrap();
            let mut direct = Vec::new();
            assert_eq!(write_f32_data_frame(&mut direct, 41, src).unwrap(), n);
            assert_eq!(direct, encoded);
            // Short writes are continued through the slice too.
            let mut w = Trickle {
                out: Vec::new(),
                step: 3,
            };
            write_f32_data_frame(&mut w, 41, src).unwrap();
            assert_eq!(w.out, encoded);
        }
        // One element past the frame limit is refused before a byte goes
        // out. (The zeroed allocation is never touched, so it costs address
        // space, not memory.)
        let over = vec![0.0f32; (MAX_FRAME_BYTES - DATA_BODY_OVERHEAD) / 4 + 1];
        let mut w = Trickle {
            out: Vec::new(),
            step: usize::MAX,
        };
        let err = write_f32_data_frame(&mut w, 0, &over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(w.out.is_empty());
    }

    #[test]
    fn partial_writes_are_continued_not_torn() {
        // Trickle 3 bytes per write call: the continuation loop must
        // advance through the header slice into the payload slice and
        // still emit an intact frame.
        let payload = WireBuf::from_f32(&[0.5f32, -0.25, 3.75]);
        let mut reference = Vec::new();
        write_data_frame(&mut reference, 5, &payload).unwrap();
        for step in [1, 3, 4, 7] {
            let mut w = Trickle {
                out: Vec::new(),
                step,
            };
            write_data_frame(&mut w, 5, &payload).unwrap();
            assert_eq!(w.out, reference, "step {step}");
        }
        // Control frames share the helper.
        let mut w = Trickle {
            out: Vec::new(),
            step: 2,
        };
        write_frame(&mut w, FrameKind::Heartbeat, &encode_generation(9)).unwrap();
        let mut body = Vec::new();
        assert_eq!(
            read_frame(&mut &w.out[..], &mut body).unwrap(),
            FrameKind::Heartbeat
        );
        assert_eq!(decode_generation(&body).unwrap(), 9);
    }

    #[test]
    fn torn_frame_surfaces_eof_never_a_hang() {
        // A peer that dies mid-frame leaves a prefix on the stream. Every
        // truncation point — inside the header, header-only, or mid-body —
        // must surface UnexpectedEof from the reader immediately.
        let mut wire = Vec::new();
        write_data_frame(&mut wire, 3, &WireBuf::from_f32(&[1.0, 2.0])).unwrap();
        for cut in [
            1,
            4,
            FRAME_HEADER_BYTES,
            FRAME_HEADER_BYTES + 3,
            wire.len() - 1,
        ] {
            let mut body = Vec::new();
            assert_eq!(
                read_frame(&mut &wire[..cut], &mut body).unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
        // The header-first reader reports the same truncations.
        assert_eq!(
            read_frame_header(&mut &wire[..3]).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let (kind, len) = read_frame_header(&mut &wire[..]).unwrap();
        assert_eq!(kind, FrameKind::Data);
        assert_eq!(len, DATA_BODY_OVERHEAD + 8);
    }

    #[test]
    fn heartbeat_body_roundtrip() {
        assert_eq!(
            decode_generation(&encode_generation(u64::MAX)).unwrap(),
            u64::MAX
        );
        assert!(decode_generation(&[0u8; 7]).is_err());
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Heartbeat, &encode_generation(2)).unwrap();
        let mut body = Vec::new();
        assert_eq!(
            read_frame(&mut &wire[..], &mut body).unwrap(),
            FrameKind::Heartbeat
        );
        assert_eq!(decode_generation(&body).unwrap(), 2);
    }

    #[test]
    fn welcome_claiming_more_ranks_than_its_body_holds_is_invalid_data() {
        // A 16-byte body claiming u32::MAX ranks: the decoder used to
        // reserve its tables from `world` before reading them, and the
        // failed allocation aborted the process.
        let mut body = [0u8; 16];
        body[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Welcome::decode(&body).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A host or address string of one-, two- and three-byte characters.
    fn text(picks: &[u8]) -> String {
        picks
            .iter()
            .map(|&b| ['a', '.', '7', ':', 'é', '香'][usize::from(b) % 6])
            .collect()
    }

    fn invalid(e: io::Error) -> bool {
        e.kind() == io::ErrorKind::InvalidData
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn truncated_encodings_are_refused_or_decode_a_shorter_tail(
            rank in any::<u32>(),
            port in any::<u16>(),
            generation in any::<u64>(),
            host_id in any::<u64>(),
            host in prop::collection::vec(any::<u8>(), 0..12),
            addrs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..6),
            table in prop::collection::vec(any::<(u64, u32)>(), 6),
            elems in prop::collection::vec(any::<u32>(), 0..8),
            wire in 0usize..3,
        ) {
            // Bodies whose every field has a length: any strict prefix is
            // short.
            let n = addrs.len();
            let welcome = Welcome {
                rank,
                world: n as u32,
                generation,
                addrs: addrs.iter().map(|a| text(a)).collect(),
                host_ids: table[..n].iter().map(|t| t.0).collect(),
                prev_ranks: table[..n].iter().map(|t| t.1).collect(),
            };
            let bytes = welcome.encode();
            prop_assert_eq!(Welcome::decode(&bytes).unwrap(), welcome);
            for cut in 0..bytes.len() {
                prop_assert!(Welcome::decode(&bytes[..cut]).is_err_and(invalid), "WELCOME cut at {}", cut);
            }
            let bytes = encode_generation(generation);
            for cut in 0..bytes.len() {
                prop_assert!(decode_generation(&bytes[..cut]).is_err_and(invalid));
            }
            let bytes = encode_ident(rank);
            for cut in 0..bytes.len() {
                prop_assert!(decode_ident(&bytes[..cut]).is_err_and(invalid));
            }
            // A HELLO's host runs to the end of the body: a prefix that
            // cuts the fixed fields is short, a longer one is the same
            // HELLO with a shorter host, or refused if it splits a
            // character.
            let hello = Hello { rank, port, generation, host_id, host: text(&host) };
            let bytes = hello.encode();
            prop_assert_eq!(Hello::decode(&bytes).unwrap(), hello);
            for cut in 0..bytes.len() {
                match Hello::decode(&bytes[..cut]) {
                    Ok(h) => {
                        prop_assert_eq!((h.rank, h.port, h.generation, h.host_id), (rank, port, generation, host_id));
                        prop_assert_eq!(h.host.as_bytes(), &bytes[22..cut]);
                    }
                    Err(e) => {
                        prop_assert!(invalid(e));
                        prop_assert!(cut < 22 || std::str::from_utf8(&bytes[22..cut]).is_err());
                    }
                }
            }
            // Likewise a data body's elements: past the stamp and tag a
            // prefix splits the same header, and a cut inside an element
            // makes no payload.
            let floats: Vec<f32> = elems.iter().map(|&b| f32::from_bits(b)).collect();
            let payload = WireBuf::encode(&floats, [DType::F32, DType::Bf16, DType::F16][wire]);
            let mut bytes = Vec::new();
            encode_data_body(generation, &payload, &mut bytes);
            for cut in 0..bytes.len() {
                match split_data_body(&bytes[..cut]) {
                    Ok((g, dtype, raw)) => {
                        prop_assert_eq!((g, dtype), (generation, payload.dtype()));
                        prop_assert_eq!(raw, &payload.bytes()[..cut - DATA_BODY_OVERHEAD]);
                        prop_assert_eq!(
                            WireBuf::from_raw(dtype, raw.to_vec()).is_ok(),
                            raw.len() % dtype.size_bytes() == 0
                        );
                    }
                    Err(e) => prop_assert!(invalid(e) && cut < DATA_BODY_OVERHEAD),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_decode_or_fail_typed(
            body in prop::collection::vec(any::<u8>(), 0..513),
            kind in any::<u8>(),
            len in any::<u16>(),
        ) {
            // Whatever a peer sends, no decoder panics or aborts.
            let _ = Hello::decode(&body);
            let _ = Welcome::decode(&body);
            let _ = decode_generation(&body);
            let _ = decode_ident(&body);
            if let Ok((_, dtype, raw)) = split_data_body(&body) {
                let _ = WireBuf::from_raw(dtype, raw.to_vec());
            }
            // A stream of one header, its length field at most 64 KiB,
            // then whatever follows: a whole frame of a known kind reads,
            // a short one is an EOF, an unknown kind is invalid.
            let len = usize::from(len);
            let mut stream = vec![kind];
            stream.extend_from_slice(&(len as u32).to_le_bytes());
            stream.extend_from_slice(&body);
            let mut out = Vec::new();
            match (FrameKind::from_u8(kind), read_frame(&mut &stream[..], &mut out)) {
                (Some(want), Ok(got)) => {
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(&out[..], &body[..len]);
                }
                (Some(_), Err(e)) => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    prop_assert!(body.len() < len);
                }
                (None, result) => prop_assert!(result.is_err_and(invalid)),
            }
        }
    }
}
