//! Serialization of captured traces: record a program once, replay it under
//! many machine configurations without re-tracing.
//!
//! The format is a simple versioned little-endian binary encoding (no
//! external dependencies). Readers validate the magic, the version, and all
//! structural bounds. [`decode_trace`] reports failures as a typed
//! [`TraceDecodeError`]; [`read_trace`] keeps the original `io::Result`
//! surface (every decode failure maps to `io::ErrorKind::InvalidData`,
//! truncation to `UnexpectedEof`). Neither ever panics on malformed input.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use warden_rt::{trace_program, trace_io, RtOptions};
//!
//! let program = trace_program("demo", RtOptions::default(), |ctx| {
//!     let xs = ctx.alloc::<u64>(8);
//!     ctx.write(&xs, 0, 7);
//! });
//! let mut buf = Vec::new();
//! trace_io::write_trace(&mut buf, &program)?;
//! let back = trace_io::read_trace(&mut buf.as_slice())?;
//! assert_eq!(back.name, "demo");
//! assert_eq!(back.stats, program.stats);
//! # Ok(())
//! # }
//! ```

use crate::trace::{Event, RmwOp, RtStats, TaskTrace, TraceAddr, TraceProgram};
use std::fmt;
use std::io::{self, Read, Write};
use warden_mem::{Addr, Memory, PageAddr, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"WARDTRC1";

/// Why a trace failed to decode.
///
/// Every malformed input maps to one of these variants; the decoder never
/// panics. Truncation surfaces as [`TraceDecodeError::Io`] with kind
/// `UnexpectedEof` (the reader ran dry mid-field).
#[derive(Debug)]
pub enum TraceDecodeError {
    /// The underlying reader failed (includes truncation: `UnexpectedEof`).
    Io(io::Error),
    /// The stream does not start with the `WARDTRC1` magic.
    BadMagic,
    /// The declared benchmark-name length exceeds the 4096-byte cap.
    NameTooLong(usize),
    /// The benchmark name is not valid UTF-8.
    NameNotUtf8,
    /// A task names a parent id outside the task table.
    ParentOutOfRange {
        /// The task whose header is malformed.
        task: usize,
        /// The out-of-range parent id it declared.
        parent: u64,
    },
    /// Task 0 (the root) declared a parent.
    RootHasParent,
    /// A fork event's child count is zero or exceeds the task count.
    ForkChildCount(usize),
    /// A fork event names a child id outside the task table.
    ForkChildId(usize),
    /// A memory-access event's size is outside `1..=8`.
    AccessSize(u8),
    /// An event carries an unrecognized tag byte.
    UnknownTag(u8),
    /// An event's address is at or above [`TraceAddr::LIMIT`] (2^40), so
    /// it does not fit an in-memory event.
    AddrOutOfRange(u64),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceDecodeError::BadMagic => write!(f, "not a WARDen trace (bad magic)"),
            TraceDecodeError::NameTooLong(n) => {
                write!(f, "unreasonable name length ({n} bytes)")
            }
            TraceDecodeError::NameNotUtf8 => write!(f, "name is not UTF-8"),
            TraceDecodeError::ParentOutOfRange { task, parent } => {
                write!(f, "task {task}: parent id {parent} out of range")
            }
            TraceDecodeError::RootHasParent => write!(f, "root task must have no parent"),
            TraceDecodeError::ForkChildCount(n) => {
                write!(f, "fork child count {n} out of range")
            }
            TraceDecodeError::ForkChildId(c) => {
                write!(f, "fork child id {c} out of range")
            }
            TraceDecodeError::AccessSize(s) => {
                write!(f, "access size {s} out of range (want 1..=8)")
            }
            TraceDecodeError::UnknownTag(t) => write!(f, "unknown event tag {t}"),
            TraceDecodeError::AddrOutOfRange(a) => {
                write!(f, "event address {a:#x} is at or above 2^40")
            }
        }
    }
}

impl std::error::Error for TraceDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceDecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceDecodeError {
    fn from(e: io::Error) -> TraceDecodeError {
        TraceDecodeError::Io(e)
    }
}

impl From<TraceDecodeError> for io::Error {
    fn from(e: TraceDecodeError) -> io::Error {
        match e {
            TraceDecodeError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

type Decode<T> = Result<T, TraceDecodeError>;

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_addr<W: Write>(w: &mut W, a: TraceAddr) -> io::Result<()> {
    put_u64(w, Addr::from(a).0)
}

fn get_u32<R: Read>(r: &mut R) -> Decode<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> Decode<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_addr<R: Read>(r: &mut R) -> Decode<TraceAddr> {
    let a = get_u64(r)?;
    TraceAddr::new(Addr(a)).ok_or(TraceDecodeError::AddrOutOfRange(a))
}

fn put_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    match *ev {
        Event::Load { addr, size } => {
            w.write_all(&[0, size])?;
            put_addr(w, addr)
        }
        Event::Store { addr, size, val } => {
            w.write_all(&[1, size])?;
            put_addr(w, addr)?;
            w.write_all(&val.to_le_bytes())
        }
        Event::Rmw {
            addr,
            size,
            val,
            op,
        } => {
            let tag = match op {
                RmwOp::Swap => 2,
                RmwOp::Add => 3,
            };
            w.write_all(&[tag, size])?;
            put_addr(w, addr)?;
            w.write_all(&val.to_le_bytes())
        }
        Event::Compute { amount } => {
            w.write_all(&[4, 0])?;
            put_u64(w, amount)
        }
        Event::Fork { ref children } => {
            w.write_all(&[5, 0])?;
            put_u32(w, children.len() as u32)?;
            for &c in children {
                put_u64(w, c as u64)?;
            }
            Ok(())
        }
        Event::RegionAdd { start, end, token } => {
            w.write_all(&[6, 0])?;
            put_addr(w, start)?;
            put_addr(w, end)?;
            put_u32(w, token)
        }
        Event::RegionRemove { token } => {
            w.write_all(&[7, 0])?;
            put_u32(w, token)
        }
    }
}

fn get_event<R: Read>(r: &mut R, ntasks: usize) -> Decode<Event> {
    let mut head = [0u8; 2];
    r.read_exact(&mut head)?;
    let (tag, size) = (head[0], head[1]);
    if matches!(tag, 0..=3) && !(1..=8).contains(&size) {
        return Err(TraceDecodeError::AccessSize(size));
    }
    Ok(match tag {
        0 => Event::Load {
            addr: get_addr(r)?,
            size,
        },
        1 => Event::Store {
            addr: get_addr(r)?,
            size,
            val: get_u64(r)?.into(),
        },
        2 | 3 => Event::Rmw {
            addr: get_addr(r)?,
            size,
            val: get_u64(r)?.into(),
            op: if tag == 2 { RmwOp::Swap } else { RmwOp::Add },
        },
        4 => Event::Compute {
            amount: get_u64(r)?,
        },
        5 => {
            let n = get_u32(r)? as usize;
            if n == 0 || n > ntasks {
                return Err(TraceDecodeError::ForkChildCount(n));
            }
            let mut children = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let c = get_u64(r)? as usize;
                if c >= ntasks {
                    return Err(TraceDecodeError::ForkChildId(c));
                }
                children.push(c);
            }
            Event::Fork {
                children: children.into(),
            }
        }
        6 => Event::RegionAdd {
            start: get_addr(r)?,
            end: get_addr(r)?,
            token: get_u32(r)?,
        },
        7 => Event::RegionRemove { token: get_u32(r)? },
        _ => return Err(TraceDecodeError::UnknownTag(tag)),
    })
}

fn put_memory<W: Write>(w: &mut W, mem: &Memory) -> io::Result<()> {
    let pages = mem.resident();
    put_u32(w, pages.len() as u32)?;
    for (p, data) in pages {
        put_u64(w, p.0)?;
        w.write_all(&data)?;
    }
    Ok(())
}

fn get_memory<R: Read>(r: &mut R) -> Decode<Memory> {
    let n = get_u32(r)?;
    let mut mem = Memory::new();
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    for _ in 0..n {
        let page = PageAddr(get_u64(r)?);
        r.read_exact(&mut buf)?;
        // Makes the page resident but stores only its non-zero blocks:
        // `Memory` keeps no block that was only ever written with zeros.
        mem.write_bytes(page.base(), &buf);
    }
    Ok(mem)
}

/// Serialize a captured trace. `w` may be a `&mut` reference (any
/// `W: Write` works).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(w: &mut W, program: &TraceProgram) -> io::Result<()> {
    w.write_all(MAGIC)?;
    put_u32(w, program.name.len() as u32)?;
    w.write_all(program.name.as_bytes())?;
    put_u32(w, program.tasks.len() as u32)?;
    for task in &program.tasks {
        put_u64(w, task.parent.map_or(u64::MAX, |p| p as u64))?;
        put_u32(w, task.depth)?;
        put_u32(w, task.events.len() as u32)?;
        for ev in &task.events {
            put_event(w, ev)?;
        }
    }
    let s = &program.stats;
    for v in [
        s.tasks,
        s.forks,
        s.allocated_bytes,
        s.pages_fresh,
        s.pages_recycled,
        s.regions_marked,
        s.max_depth as u64,
        s.events,
        s.instructions,
        s.memory_accesses,
        s.accesses_in_ward,
    ] {
        put_u64(w, v)?;
    }
    put_u64(w, program.address_range.0 .0)?;
    put_u64(w, program.address_range.1 .0)?;
    put_memory(w, &program.initial_memory)?;
    put_memory(w, &program.memory)
}

/// Deserialize a trace written by [`write_trace`], reporting failures as a
/// typed [`TraceDecodeError`].
///
/// # Errors
///
/// Returns the specific structural violation (bad magic, out-of-range ids,
/// bad sizes, unknown tags), or [`TraceDecodeError::Io`] for reader
/// failures including truncation (`UnexpectedEof`). Never panics on
/// malformed input.
pub fn decode_trace<R: Read>(r: &mut R) -> Decode<TraceProgram> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let name_len = get_u32(r)? as usize;
    if name_len > 4096 {
        return Err(TraceDecodeError::NameTooLong(name_len));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| TraceDecodeError::NameNotUtf8)?;
    let ntasks = get_u32(r)? as usize;
    let mut tasks = Vec::with_capacity(ntasks.min(1 << 16));
    for tid in 0..ntasks {
        let parent_raw = get_u64(r)?;
        let parent = if parent_raw == u64::MAX {
            None
        } else {
            let p = parent_raw as usize;
            if p >= ntasks {
                return Err(TraceDecodeError::ParentOutOfRange {
                    task: tid,
                    parent: parent_raw,
                });
            }
            Some(p)
        };
        if tid == 0 && parent.is_some() {
            return Err(TraceDecodeError::RootHasParent);
        }
        let depth = get_u32(r)?;
        let nevents = get_u32(r)? as usize;
        let mut events = Vec::with_capacity(nevents.min(1 << 16));
        for _ in 0..nevents {
            events.push(get_event(r, ntasks)?);
        }
        tasks.push(TaskTrace {
            parent,
            depth,
            events,
        });
    }
    let mut vals = [0u64; 11];
    for v in &mut vals {
        *v = get_u64(r)?;
    }
    let stats = RtStats {
        tasks: vals[0],
        forks: vals[1],
        allocated_bytes: vals[2],
        pages_fresh: vals[3],
        pages_recycled: vals[4],
        regions_marked: vals[5],
        max_depth: vals[6] as u32,
        events: vals[7],
        instructions: vals[8],
        memory_accesses: vals[9],
        accesses_in_ward: vals[10],
    };
    let address_range = (Addr(get_u64(r)?), Addr(get_u64(r)?));
    let initial_memory = get_memory(r)?;
    let memory = get_memory(r)?;
    Ok(TraceProgram::assemble(
        name,
        tasks,
        memory,
        stats,
        address_range,
        initial_memory,
    ))
}

/// Deserialize a trace written by [`write_trace`] behind an `io::Result`
/// surface (a thin wrapper over [`decode_trace`]).
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic/version, out-of-range ids, or
/// unknown tags; `UnexpectedEof` on truncation; and propagates I/O errors
/// from the reader.
pub fn read_trace<R: Read>(r: &mut R) -> io::Result<TraceProgram> {
    decode_trace(r).map_err(io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_program, RtOptions};

    fn sample() -> TraceProgram {
        trace_program("roundtrip", RtOptions::default(), |ctx| {
            let input = ctx.preload(&[5u64, 6, 7]);
            let xs = ctx.tabulate::<u64>(64, 8, &|c, i| c.read(&input, i % 3) + i);
            let total = ctx.reduce(0, 64, 8, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
            let flag = ctx.alloc::<u64>(1);
            ctx.fetch_add(&flag, 0, total);
            let (ok, _) = ctx.cas(&flag, 0, total, total + 1);
            assert!(ok);
        })
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        let q = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(q.name, p.name);
        assert_eq!(q.stats, p.stats);
        assert_eq!(q.tasks.len(), p.tasks.len());
        for (a, b) in p.tasks.iter().zip(&q.tasks) {
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.events, b.events);
        }
        assert_eq!(q.address_range, p.address_range);
        assert_eq!(q.memory.digest(), p.memory.digest());
        assert_eq!(q.initial_memory.digest(), p.initial_memory.digest());
        q.check_invariants().unwrap();
    }

    #[test]
    fn tasks_longer_than_the_preallocation_leave_no_slack_once_decoded() {
        // Decoding preallocates at most 1 << 16 events per task, so a longer
        // task grows by doubling; finalization must still end slack-free.
        let mut p = sample();
        p.tasks[0]
            .events
            .extend((0..(1 << 16) + 1000).map(|amount| Event::Compute { amount }));
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        let q = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(q.tasks[0].events, p.tasks[0].events);
        for t in &q.tasks {
            assert_eq!(t.events.capacity(), t.events.len());
        }
    }

    /// Hand-built events at the packing edges: the top 40-bit address,
    /// all-ones operands, every access size, both atomics, a 3-child fork
    /// and a region add/remove.
    fn packing_edges() -> TraceProgram {
        let top = TraceAddr::new(Addr(TraceAddr::LIMIT - 1)).unwrap();
        let page = |a: u64| TraceAddr::new(Addr(a)).unwrap();
        let mut root = Vec::new();
        for size in 1..=8u8 {
            let val = u64::MAX.into();
            root.push(Event::Load { addr: top, size });
            root.push(Event::Store {
                addr: top,
                size,
                val,
            });
            for op in [RmwOp::Swap, RmwOp::Add] {
                root.push(Event::Rmw {
                    addr: top,
                    size,
                    val,
                    op,
                });
            }
        }
        root.push(Event::RegionAdd {
            start: page(PAGE_SIZE),
            end: page(TraceAddr::LIMIT - PAGE_SIZE),
            token: u32::MAX,
        });
        root.push(Event::RegionRemove { token: u32::MAX });
        root.push(Event::Compute { amount: u64::MAX });
        root.push(Event::Fork {
            children: [1, 2, 3].into(),
        });
        let task = |parent, events| TaskTrace {
            parent,
            depth: u32::from(parent.is_some()),
            events,
        };
        let tasks = vec![
            task(None, root),
            task(Some(0), vec![Event::Compute { amount: 1 }]),
            task(Some(0), vec![]),
            task(Some(0), vec![]),
        ];
        let range = (Addr(0), Addr(TraceAddr::LIMIT));
        TraceProgram::assemble(
            "edges".into(),
            tasks,
            Memory::new(),
            RtStats::default(),
            range,
            Memory::new(),
        )
    }

    #[test]
    fn packing_edges_round_trip() {
        let p = packing_edges();
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        let q = read_trace(&mut buf.as_slice()).unwrap();
        for (a, b) in p.tasks.iter().zip(&q.tasks) {
            assert_eq!(a.events, b.events);
        }
        let Event::Rmw { addr, val, .. } = q.tasks[0].events[2] else {
            panic!("event 2 is an atomic");
        };
        assert_eq!(Addr::from(addr), Addr(TraceAddr::LIMIT - 1));
        assert_eq!(u64::from(val), u64::MAX);
        let Some(Event::Fork { children }) = q.tasks[0].events.last() else {
            panic!("the root ends in a fork");
        };
        assert_eq!(&children[..], [1, 2, 3]);
        // The wire format still carries a full 8-byte address.
        let mut one = Vec::new();
        put_event(&mut one, &q.tasks[0].events[0]).unwrap();
        let mut want = vec![0, 1];
        want.extend((TraceAddr::LIMIT - 1).to_le_bytes());
        assert_eq!(&one[..10], &want[..]);
    }

    #[test]
    fn addresses_at_or_above_2_pow_40_are_rejected() {
        let limit = TraceAddr::LIMIT.to_le_bytes();
        let word = [0xAB; 8];
        let token = 9u32.to_le_bytes();
        let cases: [Vec<&[u8]>; 5] = [
            vec![&[0, 8], &limit],
            vec![&[1, 8], &limit, &word],
            vec![&[3, 8], &limit, &word],
            vec![&[6, 0], &limit, &limit, &token],
            vec![&[6, 0], &[0; 8], &limit, &token],
        ];
        for parts in cases {
            let bytes = parts.concat();
            match get_event(&mut bytes.as_slice(), 1) {
                Err(TraceDecodeError::AddrOutOfRange(a)) => assert_eq!(a, TraceAddr::LIMIT),
                other => panic!("{bytes:?}: {other:?}"),
            }
        }
        // Through `read_trace`: move the one load in a valid trace to 2^40.
        let load = Event::Load {
            addr: TraceAddr::new(Addr(TraceAddr::LIMIT - 1)).unwrap(),
            size: 8,
        };
        let root = TaskTrace {
            parent: None,
            depth: 0,
            events: vec![load],
        };
        let p = TraceProgram::assemble(
            "far".into(),
            vec![root],
            Memory::new(),
            RtStats::default(),
            (Addr(0), Addr(0)),
            Memory::new(),
        );
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        let top = (TraceAddr::LIMIT - 1).to_le_bytes();
        let at = buf.windows(8).rposition(|w| w == top).unwrap();
        buf[at..at + 8].copy_from_slice(&limit);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2^40"), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&mut &b"NOTATRCE________"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let typed = decode_trace(&mut &b"NOTATRCE________"[..]).unwrap_err();
        assert!(matches!(typed, TraceDecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let p = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        for cut in [9, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_trace(&mut &buf[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// Byte offsets of every page payload in an encoded trace: the two
    /// memory images close the encoding, and each is a page count followed
    /// by an 8-byte address and `PAGE_SIZE` payload bytes per page.
    fn payload_ranges(p: &TraceProgram, encoded_len: usize) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::new();
        let mut end = encoded_len;
        for mem in [&p.memory, &p.initial_memory] {
            let mut section = Vec::new();
            put_memory(&mut section, mem).unwrap();
            let start = end - section.len();
            let mut at = start + 4;
            while at < end {
                ranges.push(at + 8..at + 8 + PAGE_SIZE as usize);
                at += 8 + PAGE_SIZE as usize;
            }
            end = start;
        }
        ranges
    }

    #[test]
    fn every_prefix_fails_cleanly() {
        // Truncation: decoding a strict prefix must return a typed error
        // (truncation = Io/UnexpectedEof once the magic is intact) and must
        // never panic or spuriously succeed. Every field boundary is cut,
        // but a page payload is read in one `read_exact`, so inside one
        // only its first, middle and last byte are cut.
        let p = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        let payloads = payload_ranges(&p, buf.len());
        assert!(!payloads.is_empty(), "the sample has resident pages");
        let inside = |cut: usize| payloads.iter().find(|r| r.contains(&cut));
        let cuts = (0..buf.len()).filter(|&cut| {
            inside(cut).is_none_or(|r| [r.start, (r.start + r.end) / 2, r.end - 1].contains(&cut))
        });
        for cut in cuts {
            let err = decode_trace(&mut &buf[..cut]).expect_err("prefix must fail");
            if cut >= MAGIC.len() {
                match err {
                    TraceDecodeError::Io(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
                    }
                    other => panic!("cut at {cut}: unexpected error {other}"),
                }
            } else {
                assert!(
                    matches!(err, TraceDecodeError::Io(_)),
                    "cut at {cut} inside magic"
                );
            }
        }
    }

    #[test]
    fn corrupted_child_id_rejected() {
        let p = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        // Find the first Fork event's child-count field and blow up an id.
        // Cheap approach: flip bytes across the task section until the
        // reader objects with InvalidData (never panics).
        let mut rejected = 0;
        for i in (16..buf.len().min(4000)).step_by(37) {
            let mut bad_buf = buf.clone();
            bad_buf[i] ^= 0xFF;
            match read_trace(&mut bad_buf.as_slice()) {
                Err(_) => rejected += 1,
                Ok(q) => {
                    // A mutation that still parses must still be structurally
                    // bounded.
                    assert!(q.tasks.len() < 1_000_000);
                }
            }
        }
        assert!(rejected > 0, "some corruption must be caught");
    }

    #[test]
    fn decode_errors_name_the_violation() {
        let p = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &p).unwrap();
        // Corrupt the declared name length to something absurd.
        let mut long_name = buf.clone();
        long_name[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_trace(&mut long_name.as_slice()).unwrap_err(),
            TraceDecodeError::NameTooLong(_)
        ));
        // An io::Error round-trip keeps InvalidData for structural errors.
        let as_io: io::Error = TraceDecodeError::UnknownTag(99).into();
        assert_eq!(as_io.kind(), io::ErrorKind::InvalidData);
        assert!(as_io.to_string().contains("99"));
    }
}
