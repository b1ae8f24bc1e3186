//! Page integrity: checksummed envelopes over tile payloads.
//!
//! Production archives treat storage as *untrusted*: a page can come back
//! on time, from the right offset, and still be wrong — a flipped bit in a
//! DMA buffer, a stale replica, a decayed tape block. None of the PR-1
//! fault machinery catches that, because the store itself does not know
//! the payload is bad. This module closes the gap:
//!
//! * [`fnv1a64`] — a hand-rolled FNV-1a 64-bit hash (no dependencies),
//!   fast enough that sealing a page is a single pass over its bytes.
//! * [`PageEnvelope`] — a page payload together with the checksum computed
//!   over it at *seal* time. Readers call [`PageEnvelope::verify`] and
//!   treat a mismatch as a detected corruption — retryable on another
//!   replica, reportable as
//!   [`ArchiveError::PageCorrupt`](crate::error::ArchiveError::PageCorrupt).
//! * [`corrupt_value`] — the deterministic bit-flip the `Corruption` fault
//!   kind ([`crate::fault::FaultKind::Corruption`]) applies to payload
//!   values, chosen so finite values stay finite (the damage is silent at
//!   the type level; only the checksum sees it).
//!
//! The checksum covers coordinates *and* values, so a payload that is
//! bitwise plausible but shifted (right values, wrong cells) also fails
//! verification.

use crate::extent::CellCoord;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Mantissa-only XOR mask used by the `Corruption` fault kind: flips two
/// low-mantissa bits of an `f64`, so corrupted values stay finite (the
/// exponent and sign are untouched) and the damage is invisible without a
/// checksum.
pub const CORRUPTION_MASK: u64 = 0x0000_0000_0040_0021;

/// FNV-1a over a byte slice: the classic fold
/// `h = (h ^ byte) * prime`, seeded with the 64-bit offset basis.
///
/// # Examples
///
/// ```
/// use mbir_archive::integrity::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
/// assert_ne!(fnv1a64(b"page"), fnv1a64(b"pagf"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Checksum of a page payload: an FNV-1a-style fold over every tuple's
/// row, column, and value bit pattern, mixed a 64-bit word at a time
/// (`h = (h ^ word) * prime`) rather than byte-wise, so a tuple costs
/// three xor-multiplies instead of 24 byte steps. Tuples round-robin
/// across four independently seeded lanes, which breaks the serial
/// multiply dependency chain (the lanes' folds overlap in the pipeline)
/// while keeping the result deterministic: each word's lane and position
/// are fixed by payload order, so any bit flip, swap, or truncation
/// lands in a definite lane and avalanches through its multiplies. The
/// lanes and the payload length are folded into a single digest at the
/// end.
pub fn payload_checksum(payload: &[(CellCoord, f64)]) -> u64 {
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET.wrapping_mul(FNV_PRIME),
        FNV_OFFSET.rotate_left(17),
        FNV_OFFSET.rotate_left(31),
    ];
    for (i, (coord, value)) in payload.iter().enumerate() {
        let lane = &mut lanes[i & 3];
        let mut mix = |word: u64| {
            *lane ^= word;
            *lane = lane.wrapping_mul(FNV_PRIME);
        };
        mix(coord.row as u64);
        mix(coord.col as u64);
        mix(value.to_bits());
    }
    let mut h = FNV_OFFSET ^ payload.len() as u64;
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Applies the deterministic corruption bit-flip to one value. Involutive:
/// corrupting twice restores the original bits.
pub fn corrupt_value(v: f64) -> f64 {
    f64::from_bits(v.to_bits() ^ CORRUPTION_MASK)
}

/// A page payload sealed with the checksum of its contents.
///
/// The envelope models the write path of a checksumming store: the
/// checksum is computed over the payload *as written*. Anything that
/// mutates the payload afterwards — the `Corruption` fault kind, a flaky
/// transport — leaves the checksum stale, and [`verify`](Self::verify)
/// catches it.
///
/// # Examples
///
/// ```
/// use mbir_archive::extent::CellCoord;
/// use mbir_archive::integrity::{corrupt_value, PageEnvelope};
///
/// let mut env = PageEnvelope::seal(vec![(CellCoord::new(0, 0), 1.5)]);
/// assert!(env.verify());
/// env.corrupt_payload();
/// assert!(!env.verify());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageEnvelope {
    /// FNV-1a checksum of `payload` at seal time.
    pub checksum: u64,
    /// The page's `(coordinate, value)` tuples.
    pub payload: Vec<(CellCoord, f64)>,
}

impl PageEnvelope {
    /// Seals a payload: computes and stores its checksum.
    pub fn seal(payload: Vec<(CellCoord, f64)>) -> Self {
        PageEnvelope {
            checksum: payload_checksum(&payload),
            payload,
        }
    }

    /// Whether the payload still matches the sealed checksum.
    pub fn verify(&self) -> bool {
        payload_checksum(&self.payload) == self.checksum
    }

    /// Applies the deterministic corruption flip to every payload value,
    /// leaving the checksum untouched — the silent-corruption model.
    pub fn corrupt_payload(&mut self) {
        for (_, v) in &mut self.payload {
            *v = corrupt_value(*v);
        }
    }

    /// Consumes the envelope, returning the payload without re-verifying.
    pub fn into_payload(self) -> Vec<(CellCoord, f64)> {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<(CellCoord, f64)> {
        (0..8)
            .map(|i| (CellCoord::new(i / 4, i % 4), i as f64 * 1.25 - 3.0))
            .collect()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_verify_roundtrip() {
        let env = PageEnvelope::seal(payload());
        assert!(env.verify());
        assert_eq!(env.into_payload(), payload());
    }

    #[test]
    fn any_value_flip_is_detected() {
        for i in 0..8 {
            let mut env = PageEnvelope::seal(payload());
            env.payload[i].1 = corrupt_value(env.payload[i].1);
            assert!(!env.verify(), "flip of value {i} undetected");
        }
    }

    #[test]
    fn coordinate_shift_is_detected() {
        let mut env = PageEnvelope::seal(payload());
        // Same values, rotated coordinates: bitwise-plausible, wrong cells.
        let coords: Vec<CellCoord> = env.payload.iter().map(|(c, _)| *c).collect();
        for (i, (c, _)) in env.payload.iter_mut().enumerate() {
            *c = coords[(i + 1) % coords.len()];
        }
        assert!(!env.verify());
    }

    #[test]
    fn corruption_is_involutive_and_finite() {
        for v in [0.0, -1.5, 1e308, -1e-308, 123.456] {
            let c = corrupt_value(v);
            assert_ne!(c.to_bits(), v.to_bits());
            assert!(c.is_finite(), "corrupting {v} produced {c}");
            assert_eq!(corrupt_value(c).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn corrupt_payload_flips_every_value() {
        let mut env = PageEnvelope::seal(payload());
        env.corrupt_payload();
        assert!(!env.verify());
        for ((_, got), (_, want)) in env.payload.iter().zip(payload()) {
            assert_eq!(got.to_bits(), corrupt_value(want).to_bits());
        }
        // Corrupting again restores the original payload exactly.
        env.corrupt_payload();
        assert!(env.verify());
    }

    #[test]
    fn empty_payload_verifies() {
        let env = PageEnvelope::seal(Vec::new());
        assert!(env.verify());
    }
}
