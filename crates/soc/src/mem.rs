//! Byte-addressable main-memory model (the off-chip DRAM behind the memory
//! controller in Fig. 3). Functional only — timing lives in [`crate::bus`].

use std::borrow::Cow;

/// A memory access outside `[0, cap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// First byte requested.
    pub addr: u64,
    /// Bytes requested.
    pub len: usize,
    /// The memory's capacity cap.
    pub cap: usize,
}

impl std::fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} bytes at {:#x} reach past the {}B memory cap",
            self.len, self.addr, self.cap
        )
    }
}

impl std::error::Error for OutOfRange {}

/// Flat byte-addressable memory, growing on demand up to a configured cap.
#[derive(Debug, Clone)]
pub struct MainMemory {
    data: Vec<u8>,
    cap: usize,
}

impl MainMemory {
    /// Memory with a capacity cap (accesses beyond it panic — catching
    /// runaway DMA programming errors in tests).
    pub fn new(cap: usize) -> Self {
        MainMemory {
            data: Vec::new(),
            cap,
        }
    }

    /// A comfortably large default (256 MiB cap, lazily allocated).
    pub fn with_default_cap() -> Self {
        Self::new(256 << 20)
    }

    /// The capacity cap, in bytes (devices validate DMA ranges against it).
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn ensure(&mut self, end: usize) {
        assert!(
            end <= self.cap,
            "memory access beyond the {}B cap",
            self.cap
        );
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
    }

    /// Bytes currently backed.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write a byte slice at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        let addr = addr as usize;
        self.ensure(addr + bytes.len());
        self.data[addr..addr + bytes.len()].copy_from_slice(bytes);
    }

    /// Read `len` bytes at `addr` (unbacked bytes read as 0).
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let addr = addr as usize;
        assert!(addr + len <= self.cap, "memory read beyond the cap");
        let mut out = vec![0u8; len];
        if addr < self.data.len() {
            let n = len.min(self.data.len() - addr);
            out[..n].copy_from_slice(&self.data[addr..addr + n]);
        }
        out
    }

    /// Borrow `len` bytes at `addr` without copying when they are backed;
    /// a range reaching past the backed bytes is copied, its unbacked tail
    /// reading as 0 (exactly [`MainMemory::read`]). A range past the cap
    /// is a typed error rather than a panic.
    pub fn view(&self, addr: u64, len: usize) -> Result<Cow<'_, [u8]>, OutOfRange> {
        let end = usize::try_from(addr)
            .ok()
            .and_then(|a| a.checked_add(len))
            .filter(|&end| end <= self.cap)
            .ok_or(OutOfRange {
                addr,
                len,
                cap: self.cap,
            })?;
        let start = addr as usize;
        Ok(match self.data.get(start..end) {
            Some(bytes) => Cow::Borrowed(bytes),
            None => Cow::Owned(self.read(addr, len)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut m = MainMemory::new(1 << 20);
        m.write(100, b"hello");
        assert_eq!(m.read(100, 5), b"hello");
        assert_eq!(m.read(99, 1), [0]);
    }

    #[test]
    fn unbacked_reads_zero() {
        let m = MainMemory::new(1024);
        assert_eq!(m.read(512, 4), [0, 0, 0, 0]);
        assert!(m.is_empty());
    }

    #[test]
    fn view_borrows_backed_bytes_and_zero_fills_the_rest() {
        let mut m = MainMemory::new(1024);
        m.write(100, b"hello");
        assert!(matches!(m.view(100, 5), Ok(Cow::Borrowed(b"hello"))));
        assert_eq!(m.view(103, 4).unwrap().as_ref(), b"lo\0\0");
        assert_eq!(m.view(512, 3).unwrap().as_ref(), [0, 0, 0]);
        assert!(m.view(1024, 0).unwrap().is_empty());
        for (addr, len) in [(1020, 5), (u64::MAX, 1), (0, usize::MAX)] {
            assert_eq!(
                m.view(addr, len),
                Err(OutOfRange {
                    addr,
                    len,
                    cap: 1024
                })
            );
        }
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn cap_enforced() {
        let mut m = MainMemory::new(64);
        m.write(60, &[0u8; 8]);
    }
}
