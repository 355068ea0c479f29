//! FNV-1a 64-bit: the workspace's one dependency-free, deterministic hash
//! (the checkpoint/WAL/wire checksums built on `giant-ontology`'s `binio`).

/// FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over more bytes: FNV-1a is sequential, so
/// `fnv1a64_extend(fnv1a64(a), b)` hashes `a ‖ b` without concatenating.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
