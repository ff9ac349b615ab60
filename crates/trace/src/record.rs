//! Trace recording and replay — the `.mtr` format.
//!
//! Synthetic generation is deterministic, but exporting traces makes runs
//! portable across tool versions, lets external (real) traces drive the
//! simulator, and lets any scenario be recorded once and replayed
//! bit-identically. The format is a compact little-endian byte stream,
//! conventionally stored with the `.mtr` extension:
//!
//! ```text
//! magic "MLCT"  version u8
//! record*:
//!   tag u8  — 0 op, 1 load, 2 store, 3 branch
//!   Op:     latency u8, dep varint (0 = none)
//!   Load:   vaddr varint, size u8, addr_dep varint (0 = none)
//!   Store:  vaddr varint, size u8, data_dep varint (0 = none)
//!   Branch: flags u8 (bit0 = mispredicted), dep varint (0 = none)
//! ```
//!
//! Varints are LEB128 (7 bits per byte, high bit = continuation).
//!
//! Two access styles:
//!
//! * whole-trace: [`write_trace`] / [`read_trace`] (small traces, tests);
//! * streaming: [`TraceWriter`] appends records one at a time and
//!   [`TraceReader`] iterates records straight off any [`Read`] — so a
//!   multi-gigabyte trace can feed `OoOCore` without ever being
//!   materialized in memory.

use std::io::{self, Read, Write};

use malec_types::addr::VAddr;

use crate::inst::TraceInst;

const MAGIC: &[u8; 4] = b"MLCT";
const VERSION: u8 = 1;

fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 63 && byte[0] > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn dep_to_wire(dep: Option<u32>) -> u64 {
    dep.map_or(0, |d| u64::from(d) + 1)
}

fn dep_from_wire(v: u64) -> Option<u32> {
    if v == 0 {
        None
    } else {
        Some((v - 1).min(u64::from(u32::MAX)) as u32)
    }
}

/// Writes a trace to `w`. A mutable reference also works (`&mut Vec<u8>`
/// via `io::Write`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use malec_trace::record::{read_trace, write_trace};
/// use malec_trace::{all_benchmarks, WorkloadGenerator};
///
/// let insts: Vec<_> = WorkloadGenerator::new(&all_benchmarks()[0], 1).take(100).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, insts.iter().copied())?;
/// assert_eq!(read_trace(&mut buf.as_slice())?, insts);
/// # Ok(())
/// # }
/// ```
pub fn write_trace(
    w: &mut impl Write,
    trace: impl IntoIterator<Item = TraceInst>,
) -> io::Result<()> {
    let mut writer = TraceWriter::new(w)?;
    for inst in trace {
        writer.write(inst)?;
    }
    Ok(())
}

/// Incremental `.mtr` writer: emits the header on construction, then one
/// record per [`write`](TraceWriter::write) call. Streams of any length can
/// be recorded without buffering them.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use malec_trace::record::{read_trace, TraceWriter};
/// use malec_trace::{all_benchmarks, WorkloadGenerator};
///
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf)?;
/// for inst in WorkloadGenerator::new(&all_benchmarks()[0], 1).take(100) {
///     w.write(inst)?;
/// }
/// assert_eq!(read_trace(&mut buf.as_slice())?.len(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W> {
    w: W,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `w` (writes the magic + version header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        Ok(Self { w, written: 0 })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write(&mut self, inst: TraceInst) -> io::Result<()> {
        match inst {
            TraceInst::Op { latency, dep } => {
                self.w.write_all(&[0, latency])?;
                write_varint(&mut self.w, dep_to_wire(dep))?;
            }
            TraceInst::Load {
                vaddr,
                size,
                addr_dep,
            } => {
                self.w.write_all(&[1])?;
                write_varint(&mut self.w, vaddr.raw())?;
                self.w.write_all(&[size])?;
                write_varint(&mut self.w, dep_to_wire(addr_dep))?;
            }
            TraceInst::Store {
                vaddr,
                size,
                data_dep,
            } => {
                self.w.write_all(&[2])?;
                write_varint(&mut self.w, vaddr.raw())?;
                self.w.write_all(&[size])?;
                write_varint(&mut self.w, dep_to_wire(data_dep))?;
            }
            TraceInst::Branch { mispredicted, dep } => {
                self.w.write_all(&[3, u8::from(mispredicted)])?;
                write_varint(&mut self.w, dep_to_wire(dep))?;
            }
        }
        self.written += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Reads a complete trace from `r`.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic/version/tag, and propagates I/O
/// errors. A clean EOF at a record boundary ends the trace.
pub fn read_trace(r: &mut impl Read) -> io::Result<Vec<TraceInst>> {
    TraceReader::new(r)?.collect()
}

/// Streaming `.mtr` reader: an iterator of records pulled straight off the
/// underlying [`Read`]. Nothing beyond the current record is buffered, so
/// arbitrarily large traces can feed the simulator directly. A malformed or
/// truncated record is yielded as an error, after which the reader is
/// fused.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use malec_trace::record::{write_trace, TraceReader};
/// use malec_trace::{all_benchmarks, WorkloadGenerator};
///
/// let insts: Vec<_> = WorkloadGenerator::new(&all_benchmarks()[0], 1).take(50).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, insts.iter().copied())?;
/// let streamed: Vec<_> = TraceReader::new(buf.as_slice())?.collect::<std::io::Result<_>>()?;
/// assert_eq!(streamed, insts);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    r: R,
    /// Set once EOF or an error was yielded; further `next` calls return
    /// `None` instead of misreading the stream mid-record.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace on `r`, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic or version; propagates I/O
    /// errors.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut header = [0u8; 5];
        r.read_exact(&mut header)?;
        if &header[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        if header[4] != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unsupported trace version",
            ));
        }
        Ok(Self { r, done: false })
    }

    fn read_record(&mut self) -> io::Result<Option<TraceInst>> {
        let mut tag = [0u8; 1];
        match self.r.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let r = &mut self.r;
        let inst = match tag[0] {
            0 => {
                let mut latency = [0u8; 1];
                r.read_exact(&mut latency)?;
                TraceInst::Op {
                    latency: latency[0],
                    dep: dep_from_wire(read_varint(r)?),
                }
            }
            1 => {
                let vaddr = VAddr::new(read_varint(r)?);
                let mut size = [0u8; 1];
                r.read_exact(&mut size)?;
                TraceInst::Load {
                    vaddr,
                    size: size[0],
                    addr_dep: dep_from_wire(read_varint(r)?),
                }
            }
            2 => {
                let vaddr = VAddr::new(read_varint(r)?);
                let mut size = [0u8; 1];
                r.read_exact(&mut size)?;
                TraceInst::Store {
                    vaddr,
                    size: size[0],
                    data_dep: dep_from_wire(read_varint(r)?),
                }
            }
            3 => {
                let mut flags = [0u8; 1];
                r.read_exact(&mut flags)?;
                TraceInst::Branch {
                    mispredicted: flags[0] & 1 != 0,
                    dep: dep_from_wire(read_varint(r)?),
                }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown trace record tag {other}"),
                ))
            }
        };
        Ok(Some(inst))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<TraceInst>;

    fn next(&mut self) -> Option<io::Result<TraceInst>> {
        if self.done {
            return None;
        }
        match self.read_record() {
            Ok(Some(inst)) => Some(Ok(inst)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::WorkloadGenerator;
    use crate::profile::all_benchmarks;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_generated_trace() {
        for profile in all_benchmarks().iter().take(4) {
            let insts: Vec<TraceInst> = WorkloadGenerator::new(profile, 9).take(5_000).collect();
            let mut buf = Vec::new();
            write_trace(&mut buf, insts.iter().copied()).expect("write");
            let back = read_trace(&mut buf.as_slice()).expect("read");
            assert_eq!(back, insts, "{}", profile.name);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).expect("write");
        assert_eq!(buf.len(), 5, "just the header");
        assert!(read_trace(&mut buf.as_slice()).expect("read").is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01".to_vec();
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let buf = b"MLCT\x63".to_vec();
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).expect("write");
        buf.push(9);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn streaming_reader_matches_whole_trace_read() {
        let insts: Vec<TraceInst> = WorkloadGenerator::new(&all_benchmarks()[2], 4)
            .take(3_000)
            .collect();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).expect("header");
        for &i in &insts {
            w.write(i).expect("record");
        }
        assert_eq!(w.written(), 3_000);
        w.finish().expect("finish");
        let streamed: Vec<TraceInst> = TraceReader::new(buf.as_slice())
            .expect("open")
            .collect::<io::Result<_>>()
            .expect("records");
        assert_eq!(streamed, insts);
        assert_eq!(read_trace(&mut buf.as_slice()).expect("read"), insts);
    }

    #[test]
    fn streaming_reader_stops_after_an_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).expect("write");
        buf.push(9); // unknown tag
        let mut reader = TraceReader::new(buf.as_slice()).expect("open");
        assert!(reader.next().expect("one item").is_err());
        assert!(reader.next().is_none(), "fused after the error");
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        write_trace(
            &mut buf,
            [TraceInst::Load {
                vaddr: VAddr::new(0x1234_5678),
                size: 8,
                addr_dep: Some(3),
            }],
        )
        .expect("write");
        buf.truncate(buf.len() - 1);
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in proptest::num::u64::ANY) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            prop_assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }

        #[test]
        fn prop_dep_wire_roundtrip(d in proptest::option::of(0u32..u32::MAX)) {
            prop_assert_eq!(dep_from_wire(dep_to_wire(d)), d);
        }
    }

    /// A small valid trace to corrupt (deterministic, so proptest offsets
    /// address stable byte positions).
    fn valid_trace_bytes() -> Vec<u8> {
        let insts: Vec<TraceInst> = WorkloadGenerator::new(&all_benchmarks()[1], 13)
            .take(300)
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, insts.iter().copied()).expect("write");
        buf
    }

    #[test]
    fn truncated_header_is_a_clean_error() {
        let buf = valid_trace_bytes();
        for cut in 0..5 {
            let err = read_trace(&mut &buf[..cut]).expect_err("short header must error");
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn overlong_varint_is_a_clean_error() {
        // A load whose vaddr varint never terminates within u64 range:
        // eleven continuation bytes is unconditionally overlong (64 bits
        // need at most ten 7-bit groups).
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).expect("header");
        buf.push(1); // load tag
        buf.extend_from_slice(&[0x80; 11]);
        buf.push(0x01);
        let err = read_trace(&mut buf.as_slice()).expect_err("overlong varint must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn varint_bits_beyond_u64_are_rejected() {
        // Ten groups whose last carries bits past bit 63.
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).expect("header");
        buf.push(1); // load tag
        buf.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f]);
        let err = read_trace(&mut buf.as_slice()).expect_err("overflow must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn mid_record_eof_is_an_error_not_a_panic() {
        let buf = valid_trace_bytes();
        // Walk the trace record by record to find every record boundary,
        // then cut strictly inside the final record.
        let n_records = read_trace(&mut buf.as_slice()).expect("valid").len();
        for cut in [buf.len() - 1, buf.len() - 2] {
            let result = read_trace(&mut &buf[..cut]);
            match result {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}"),
                // Cutting exactly at a record boundary yields a shorter,
                // valid trace; anything else must have errored above.
                Ok(insts) => assert!(insts.len() < n_records, "cut at {cut} lost nothing"),
            }
        }
    }

    proptest! {
        /// Truncating a valid trace at *any* offset either yields a clean
        /// prefix of the records (a cut at a record boundary) or a clean
        /// error — never a panic, never fabricated records.
        #[test]
        fn prop_truncation_never_panics(cut in 0usize..4096) {
            let buf = valid_trace_bytes();
            let full = read_trace(&mut buf.as_slice()).expect("valid");
            let cut = cut.min(buf.len());
            match read_trace(&mut &buf[..cut]) {
                Ok(insts) => {
                    prop_assert!(insts.len() <= full.len());
                    prop_assert_eq!(&full[..insts.len()], &insts[..], "a prefix, bit for bit");
                }
                Err(e) => {
                    prop_assert!(matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                    ), "unexpected error kind: {}", e);
                }
            }
        }

        /// Flipping one byte anywhere in a valid trace is either still
        /// decodable (the flip landed in a payload byte) or a clean error —
        /// the streaming reader must never panic on corrupt input.
        #[test]
        fn prop_single_byte_corruption_never_panics(
            offset in 0usize..4096,
            xor in 1u64..256,
        ) {
            let mut buf = valid_trace_bytes();
            let offset = offset.min(buf.len() - 1);
            buf[offset] ^= xor as u8;
            match TraceReader::new(buf.as_slice()) {
                Ok(reader) => {
                    for record in reader {
                        if record.is_err() {
                            break;
                        }
                    }
                }
                Err(e) => {
                    // Header corruption: must be the magic/version error.
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                }
            }
        }
    }
}
