//! Memory substrate for the WARDen reproduction.
//!
//! This crate provides the low-level building blocks shared by the coherence
//! protocol ([`warden-coherence`]), the timing simulator ([`warden-sim`]), and
//! the HLPL runtime ([`warden-rt`]):
//!
//! * [`Addr`] / [`BlockAddr`] / [`PageAddr`] — typed simulated addresses with
//!   cache-block and page arithmetic,
//! * [`CacheGeometry`] and [`CacheArray`] — set-associative cache structures
//!   with LRU replacement,
//! * [`WriteMask`] and [`BlockData`] — byte-sectored cache blocks, the
//!   hardware mechanism WARDen's reconciliation relies on (paper §6.1),
//! * [`Memory`] — a sparse backing store holding *real data bytes*, which lets
//!   the test suite check that WARDen's unordered write reconciliation
//!   produces the same final memory image as plain MESI.
//!
//! # Example
//!
//! ```
//! use warden_mem::{Addr, Memory, BLOCK_SIZE};
//!
//! let mut mem = Memory::new();
//! mem.write_u64(Addr(0x1000), 42);
//! assert_eq!(mem.read_u64(Addr(0x1000)), 42);
//! assert_eq!(Addr(0x1000).block(), Addr(0x1040).block() - 1);
//! assert_eq!(BLOCK_SIZE, 64);
//! ```
//!
//! [`warden-coherence`]: ../warden_coherence/index.html
//! [`warden-sim`]: ../warden_sim/index.html
//! [`warden-rt`]: ../warden_rt/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod array;
mod block;
pub mod codec;
mod geometry;
mod memory;
mod pagemap;
mod sector;

pub use addr::{Addr, BlockAddr, PageAddr, BLOCK_SHIFT, BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use array::{CacheArray, Evicted, Slot};
pub use block::BlockData;
pub use geometry::CacheGeometry;
pub use memory::Memory;
pub use pagemap::PageMap;
pub use sector::WriteMask;
