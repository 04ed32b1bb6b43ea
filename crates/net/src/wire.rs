//! Binary wire framing: varints, bounds-checked readers, and the frame
//! header every DTX process boundary speaks.
//!
//! This module is the *generic* half of the wire format — the primitives
//! and the frame envelope. The `Message`-specific tag table and
//! per-variant codecs live in `dtx-core::wire` (the dependency points
//! that way: core depends on net). The normative specification of both
//! halves is `WIRE.md` at the repository root; a unit test over there
//! walks the spec's tag table against the codec so the document cannot
//! drift from the code.
//!
//! Design rules (see `WIRE.md` §2):
//!
//! * **Length-prefixed frames.** Every frame is a fixed 12-byte header
//!   (magic, version, kind, from, to, body length) followed by exactly
//!   `body length` body bytes. A reader never needs to understand a body
//!   to skip it — that is what makes version negotiation and partial
//!   reads tractable on a nonblocking socket.
//! * **LEB128 varints** for counts and integers inside bodies: most ids
//!   and lengths are tiny, and a varint never costs more than 10 bytes
//!   for a `u64`.
//! * **Decode never panics.** Every read is bounds-checked and returns
//!   [`WireError`]; corrupt or truncated input is an error value, which
//!   the fuzz tests in `dtx-core` pin (random truncations and bit flips
//!   must error, never panic).

use crate::SiteId;
use std::cell::RefCell;
use std::fmt;
use std::io::Write;

/// First two bytes of every frame: `0xD7 'X'` ("DTX"). A connection that
/// opens with anything else is not speaking DTX and is dropped
/// immediately instead of being parsed into garbage.
pub const MAGIC: [u8; 2] = [0xD7, 0x58];

/// Wire-format version this build speaks (header byte 2). Decoders
/// refuse other versions — see `WIRE.md` §6 for the compat policy
/// (additive variants bump nothing; layout changes bump this byte).
pub const WIRE_VERSION: u8 = 1;

/// Fixed frame-header length in bytes (see `WIRE.md` §2: magic ×2,
/// version, kind, from ×2, to ×2, body length ×4).
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame body. Far above any legitimate message
/// (documents stream in chunks well below this), so a length field this
/// large means corruption — fail fast instead of allocating gigabytes.
pub const MAX_BODY_LEN: usize = 64 << 20;

/// Capacity the per-thread frame buffer of [`with_frame`] keeps between
/// frames. In a `tcp_mesh` run (seed 2009, 277 000 frames, mean 278 B)
/// every frame measured 14 B to 16.1 KiB except the `LoadDoc` frames of
/// ~100 KiB, so a thread stops allocating once it has sent its largest
/// transaction frame, and a rare huge one does not pin its buffer.
const SCRATCH_KEEP: usize = 64 << 10;

/// What a frame carries (header byte 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection handshake: the sender advertises the sites it hosts.
    Hello,
    /// A scheduler-to-scheduler `Message` (routed by `from`/`to`).
    Msg,
    /// Control-plane traffic (catalog registration, document loads,
    /// transaction submission, stats, shutdown).
    Ctrl,
}

impl FrameKind {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(FrameKind::Hello),
            1 => Ok(FrameKind::Msg),
            2 => Ok(FrameKind::Ctrl),
            _ => Err(WireError::BadKind(b)),
        }
    }

    fn byte(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Msg => 1,
            FrameKind::Ctrl => 2,
        }
    }
}

/// Decode failure. Truncation and corruption are ordinary error values —
/// nothing in this module panics on input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated,
    /// Frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// Frame carried a wire-format version this build does not speak.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Unknown enum tag while decoding a body.
    BadTag {
        /// Which enum the tag belongs to (static name, e.g. `"Message"`).
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A varint ran past 10 bytes (not a valid `u64`).
    VarintOverflow,
    /// A declared length exceeds [`MAX_BODY_LEN`] or the remaining input.
    BadLength(u64),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A field failed semantic validation (e.g. an unparsable query).
    Malformed(&'static str),
    /// Decoding finished with this many input bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {:02x}{:02x}", m[0], m[1]),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::BadLength(n) => write!(f, "declared length {n} out of range"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte buffer. Infallible — encoding is
/// total; only decoding can fail.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// LEB128 unsigned varint (1–10 bytes; 7 value bits per byte,
    /// continuation in the high bit — see `WIRE.md` §3).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Raw bytes, *without* a length prefix (caller frames them).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed bytes: varint count, then the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string (same layout as [`WireWriter::put_bytes`]).
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// `x`'s `Display` text as a length-prefixed string, the bytes
    /// `put_str(&x.to_string())` writes, formatted straight into the
    /// buffer: the length is known only afterwards, so its varint is
    /// appended and rotated in front of the text.
    pub fn put_display(&mut self, x: &impl fmt::Display) {
        let start = self.buf.len();
        write!(self.buf, "{x}").expect("writing to a Vec never fails");
        let text = self.buf.len() - start;
        self.put_varint(text as u64);
        let prefix = self.buf.len() - start - text;
        self.buf[start..].rotate_right(prefix);
    }

    /// A sequence: varint item count, then each item through `put`.
    /// Read back with [`WireReader::seq`].
    pub fn put_seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.put_varint(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }
}

/// Bounds-checked decoder over a byte slice. Every method returns
/// [`WireError`] on truncation or corruption; none panic.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`WireError::TrailingBytes`] unless the input is
    /// fully consumed — a decoded value must account for every byte of
    /// its frame, or the stream is desynchronized.
    pub fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// A bool byte; anything other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte not 0/1")),
        }
    }

    /// LEB128 unsigned varint (reject > 10 bytes).
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            let bits = (byte & 0x7F) as u64;
            // The 10th byte may only carry the u64's top single bit.
            if i == 9 && byte > 0x01 {
                return Err(WireError::VarintOverflow);
            }
            v |= bits << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// A varint validated to fit `usize` and to not exceed the remaining
    /// input — the guard every byte-length prefix goes through, so a
    /// flipped length bit cannot trigger a huge allocation. Item counts
    /// go through the same kind of guard in [`WireReader::seq`].
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > MAX_BODY_LEN as u64 || n > self.remaining() as u64 {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix()?;
        self.raw(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    /// A sequence written by [`WireWriter::put_seq`]: a varint count, then
    /// `count` items through `read`. Every item costs at least `min_item`
    /// bytes (at least 1), so a count above `remaining() / min_item` is
    /// [`WireError::BadLength`] before anything is reserved — the guard
    /// every item count goes through.
    pub fn seq<T>(
        &mut self,
        min_item: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.varint()?;
        if n > (self.remaining() / min_item.max(1)) as u64 {
            return Err(WireError::BadLength(n));
        }
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }
}

/// A type with a binary body encoding. `encode`/`decode` wrap the body
/// methods with the whole-buffer contract (decode must consume every
/// byte). Frame headers are separate — see [`frame`] / [`extract_frame`].
pub trait WireCodec: Sized {
    /// Appends this value's body bytes to `w`.
    fn encode_body(&self, w: &mut WireWriter);

    /// Decodes one value from `r`, leaving `r` positioned after it.
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes to a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_body(&mut w);
        w.finish()
    }

    /// The length of this value's frame: [`HEADER_LEN`] plus the body
    /// [`WireCodec::encode_body`] writes. The frame is encoded by
    /// [`with_frame`], into the buffer a socket send would use, so
    /// sizing a value allocates no buffer of its own.
    fn frame_len(&self) -> usize {
        let site = SiteId(0);
        with_frame(
            FrameKind::Msg,
            site,
            site,
            |w| self.encode_body(w),
            <[u8]>::len,
        )
    }

    /// Decodes from a complete buffer; trailing bytes are an error.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode_body(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A decoded frame header (see `WIRE.md` §2 for the byte layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the body is.
    pub kind: FrameKind,
    /// Originating site (or the driver pseudo-site for control frames).
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Body length in bytes.
    pub body_len: usize,
}

/// Encodes one complete frame into this thread's frame buffer and hands
/// the bytes to `send`: the header with a zero length field, the body
/// `put` writes straight after it, then the real length patched in. The
/// buffer is reused from frame to frame (it keeps up to 64 KiB), so a
/// frame allocates nothing once the thread has sent one as large. The
/// buffer is lent out while `put` and `send` run: neither may frame on
/// the same thread.
pub fn with_frame<R>(
    kind: FrameKind,
    from: SiteId,
    to: SiteId,
    put: impl FnOnce(&mut WireWriter),
    send: impl FnOnce(&[u8]) -> R,
) -> R {
    thread_local! {
        static FRAME: RefCell<WireWriter> = RefCell::default();
    }
    FRAME.with(|cell| {
        let mut w = cell.borrow_mut();
        w.buf.clear();
        w.buf.extend_from_slice(&MAGIC);
        w.buf.push(WIRE_VERSION);
        w.buf.push(kind.byte());
        w.buf.extend_from_slice(&from.0.to_be_bytes());
        w.buf.extend_from_slice(&to.0.to_be_bytes());
        w.buf.extend_from_slice(&[0; 4]);
        put(&mut w);
        let body_len = w.buf.len() - HEADER_LEN;
        debug_assert!(body_len <= MAX_BODY_LEN);
        w.buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&(body_len as u32).to_be_bytes());
        let sent = send(&w.buf);
        w.buf.shrink_to(SCRATCH_KEEP);
        sent
    })
}

/// One complete frame, as [`with_frame`] lays it out, in a fresh buffer.
pub fn frame(
    kind: FrameKind,
    from: SiteId,
    to: SiteId,
    put: impl FnOnce(&mut WireWriter),
) -> Vec<u8> {
    with_frame(kind, from, to, put, <[u8]>::to_vec)
}

/// Parses a frame header from the front of `buf`. Returns `Ok(None)`
/// when fewer than [`HEADER_LEN`] bytes are available (read more), an
/// error on bad magic/version/kind/length (drop the connection — the
/// stream cannot be resynchronized).
pub fn decode_header(buf: &[u8]) -> Result<Option<FrameHeader>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let kind = FrameKind::from_byte(buf[3])?;
    let from = SiteId(u16::from_be_bytes([buf[4], buf[5]]));
    let to = SiteId(u16::from_be_bytes([buf[6], buf[7]]));
    let body_len = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::BadLength(body_len as u64));
    }
    Ok(Some(FrameHeader {
        kind,
        from,
        to,
        body_len,
    }))
}

/// Extracts one complete frame from the front of `buf`: the header, the
/// body slice, and the total byte count to consume. `Ok(None)` means the
/// buffer holds only a partial frame — keep the bytes and read more
/// (the socket read path calls this in a loop over its receive buffer).
pub fn extract_frame(buf: &[u8]) -> Result<Option<(FrameHeader, &[u8])>, WireError> {
    let Some(header) = decode_header(buf)? else {
        return Ok(None);
    };
    let total = HEADER_LEN + header.body_len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((header, &buf[HEADER_LEN..total])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v, "round trip of {v}");
            assert_eq!(r.remaining(), 0);
        }
        // Encoded sizes match LEB128 expectations.
        for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (16384, 3)] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.finish().len(), len, "size of {v}");
        }
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        // 11 continuation bytes: more than any u64 needs.
        let overlong = [0x80u8; 11];
        assert_eq!(
            WireReader::new(&overlong).varint(),
            Err(WireError::VarintOverflow)
        );
        // 10th byte with more than the top bit set overflows u64.
        let mut too_big = [0x80u8; 10];
        too_big[9] = 0x02;
        assert_eq!(
            WireReader::new(&too_big).varint(),
            Err(WireError::VarintOverflow)
        );
        // Continuation bit set but input ends.
        let truncated = [0x80u8];
        assert_eq!(
            WireReader::new(&truncated).varint(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut w = WireWriter::new();
        w.put_str("");
        w.put_str("héllo — DTX");
        w.put_bytes(&[1, 2, 3]);
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "héllo — DTX");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn put_display_writes_the_bytes_of_put_str() {
        // Prefixes of one, two and three varint bytes.
        for n in [0, 5, 127, 128, 300, 16_383, 16_384] {
            let text = "é".repeat(n / 2) + &"x".repeat(n % 2);
            let (mut shown, mut copied) = (WireWriter::new(), WireWriter::new());
            shown.put_u8(9);
            shown.put_display(&text);
            copied.put_u8(9);
            copied.put_str(&text);
            assert_eq!(shown.finish(), copied.finish(), "{n}-byte text");
        }
    }

    #[test]
    fn bad_utf8_and_bad_bool_error() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.finish();
        assert_eq!(WireReader::new(&bytes).str(), Err(WireError::BadUtf8));
        assert_eq!(
            WireReader::new(&[7u8]).bool(),
            Err(WireError::Malformed("bool byte not 0/1"))
        );
    }

    #[test]
    fn length_prefix_guards_against_huge_declared_lengths() {
        // A length claiming more than the remaining input must error
        // without allocating.
        let mut w = WireWriter::new();
        w.put_varint(1 << 30);
        let bytes = w.finish();
        assert!(matches!(
            WireReader::new(&bytes).len_prefix(),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn seq_rejects_a_count_one_past_what_min_item_allows() {
        // Three 2-byte pairs: a count of 3 fits exactly, 4 is a lie.
        let pair = |r: &mut WireReader<'_>| Ok((r.u8()?, r.u8()?));
        let mut w = WireWriter::new();
        w.put_seq(&[(1u8, 2u8), (3, 4), (5, 6)], |w, &(a, b)| {
            w.put_u8(a);
            w.put_u8(b);
        });
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq(2, pair).unwrap(), vec![(1, 2), (3, 4), (5, 6)]);
        r.expect_end().unwrap();

        let mut lying = bytes.clone();
        lying[0] = 4;
        assert_eq!(
            WireReader::new(&lying).seq(2, pair),
            Err(WireError::BadLength(4))
        );
        // With 1-byte items the same body allows a count up to 6.
        lying[0] = 7;
        assert_eq!(
            WireReader::new(&lying).seq(1, |r| r.u8()),
            Err(WireError::BadLength(7))
        );
        lying[0] = 6;
        assert_eq!(
            WireReader::new(&lying).seq(1, |r| r.u8()).unwrap(),
            vec![1, 2, 3, 4, 5, 6]
        );
        // A huge declared count errors before reserving anything.
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX);
        assert_eq!(
            WireReader::new(&w.finish()).seq(1, |r| r.u8()),
            Err(WireError::BadLength(u64::MAX))
        );
    }

    #[test]
    fn frame_round_trips() {
        let body = b"payload bytes";
        let f = frame(FrameKind::Msg, SiteId(3), SiteId(7), |w| w.put_raw(body));
        assert_eq!(f.len(), HEADER_LEN + body.len());
        let (header, got) = extract_frame(&f).unwrap().expect("complete");
        assert_eq!(
            header,
            FrameHeader {
                kind: FrameKind::Msg,
                from: SiteId(3),
                to: SiteId(7),
                body_len: body.len(),
            }
        );
        assert_eq!(got, body);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let f = frame(FrameKind::Ctrl, SiteId(0), SiteId(1), |w| {
            w.put_raw(&[9; 40])
        });
        for cut in 0..f.len() {
            assert_eq!(
                extract_frame(&f[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
        assert!(extract_frame(&f).unwrap().is_some());
    }

    #[test]
    fn a_reused_frame_buffer_carries_no_tail_of_a_larger_frame() {
        let big = with_frame(
            FrameKind::Ctrl,
            SiteId(1),
            SiteId(2),
            |w| w.put_raw(&[9; 5000]),
            <[u8]>::to_vec,
        );
        assert_eq!(big.len(), HEADER_LEN + 5000);
        let small = with_frame(
            FrameKind::Msg,
            SiteId(3),
            SiteId(7),
            |w| w.put_raw(b"body"),
            <[u8]>::to_vec,
        );
        let (header, body) = extract_frame(&small).unwrap().expect("complete");
        assert_eq!(small.len(), HEADER_LEN + 4);
        assert_eq!(
            (header.kind, header.body_len, body),
            (FrameKind::Msg, 4, &b"body"[..])
        );
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let good = frame(FrameKind::Hello, SiteId(1), SiteId(2), |_| {});
        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert!(matches!(
            decode_header(&bad_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_version = good.clone();
        bad_version[2] = 99;
        assert_eq!(decode_header(&bad_version), Err(WireError::BadVersion(99)));
        let mut bad_kind = good.clone();
        bad_kind[3] = 42;
        assert_eq!(decode_header(&bad_kind), Err(WireError::BadKind(42)));
        let mut bad_len = good.clone();
        bad_len[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_header(&bad_len),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error_for_whole_buffer_decode() {
        struct Two(u8, u8);
        impl WireCodec for Two {
            fn encode_body(&self, w: &mut WireWriter) {
                w.put_u8(self.0);
                w.put_u8(self.1);
            }
            fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Two(r.u8()?, r.u8()?))
            }
        }
        let bytes = Two(1, 2).encode();
        assert_eq!(bytes, vec![1, 2]);
        let with_junk = [1u8, 2, 3];
        assert_eq!(
            Two::decode(&with_junk).err(),
            Some(WireError::TrailingBytes(1))
        );
        assert!(Two::decode(&bytes).is_ok());
    }
}
