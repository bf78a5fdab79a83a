//! The golden-fingerprint fold shared by `chaos.rs` and `determinism.rs`:
//! FNV-1a over integers (never `Debug` strings, whose format is not part
//! of any contract). A fingerprint constant recorded on one commit and
//! still holding on the next is the cross-commit proof that hosts, paths,
//! ids and AL choices stayed bit-identical.

use alvc::nfv::HostLocation;

/// 64-bit FNV-1a; every integer is folded as its 8 little-endian bytes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn put(&mut self, x: usize) {
        for byte in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a sequence followed by its length, so `[1, 2], [3]` and
    /// `[1], [2, 3]` differ.
    pub fn put_all(&mut self, xs: impl IntoIterator<Item = usize>) {
        let mut n = 0;
        for x in xs {
            self.put(x);
            n += 1;
        }
        self.put(n);
    }

    pub fn put_host(&mut self, host: HostLocation) {
        match host {
            HostLocation::Server(s) => self.put_all([0, s.index()]),
            HostLocation::OptoRouter(o) => self.put_all([1, o.index()]),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
