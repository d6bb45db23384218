//! ChaCha20 stream cipher and deterministic CSPRNG (RFC 8439).
//!
//! PAPAYA's asynchronous secure aggregation expands a small per-client random
//! seed into an additive one-time pad "as large as the model" (Section 5,
//! Appendix A.2).  The expansion must be a cryptographically secure PRNG and
//! must be *identically reproducible* on the client (to mask) and inside the
//! TSA (to regenerate the aggregated unmask).  [`ChaCha20Rng`] provides that
//! deterministic keystream; [`ChaCha20`] provides the raw cipher used by the
//! seed-encryption AEAD.

/// The ChaCha20 block function / stream cipher.
#[derive(Clone, Debug)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

impl ChaCha20 {
    /// Creates a cipher instance with a 256-bit key and 96-bit nonce,
    /// starting at block `counter`.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut k = [0u32; 8];
        for i in 0..8 {
            k[i] = u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut n = [0u32; 3];
        for i in 0..3 {
            n[i] = u32::from_le_bytes([
                nonce[4 * i],
                nonce[4 * i + 1],
                nonce[4 * i + 2],
                nonce[4 * i + 3],
            ]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter,
        }
    }

    /// Produces the 64-byte keystream block for the given block index.
    pub fn block(&self, block_counter: u32) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = block_counter;
        state[13..16].copy_from_slice(&self.nonce);

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Encrypts or decrypts `data` in place (XOR with the keystream starting
    /// at the cipher's initial counter).
    pub fn apply_keystream(&self, data: &mut [u8]) {
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            let ks = self.block(self.counter.wrapping_add(block_idx as u32));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// Deterministic cryptographically secure random number generator backed by
/// the ChaCha20 keystream.
///
/// This is the PRNG used to expand per-client 16/32-byte seeds into
/// model-sized one-time pads.  Both the client and the TSA construct the same
/// `ChaCha20Rng` from the shared seed, so the masks cancel exactly.
///
/// # Example
///
/// ```
/// use papaya_crypto::chacha20::ChaCha20Rng;
/// let mut a = ChaCha20Rng::from_seed([1u8; 32]);
/// let mut b = ChaCha20Rng::from_seed([1u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct ChaCha20Rng {
    cipher: ChaCha20,
    block: [u8; 64],
    block_idx: u32,
    offset: usize,
}

impl ChaCha20Rng {
    /// Creates a generator from a 256-bit seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let cipher = ChaCha20::new(&seed, &[0u8; 12], 0);
        let block = cipher.block(0);
        ChaCha20Rng {
            cipher,
            block,
            block_idx: 0,
            offset: 0,
        }
    }

    /// Creates a generator from a 16-byte seed (the paper's seed size) by
    /// expanding it with SHA-256.
    pub fn from_seed16(seed: [u8; 16]) -> Self {
        let digest = crate::sha256::sha256(&seed);
        Self::from_seed(digest)
    }

    /// Moves to the next keystream block.
    fn refill(&mut self) {
        self.block_idx = self.block_idx.wrapping_add(1);
        self.block = self.cipher.block(self.block_idx);
        self.offset = 0;
    }

    /// Returns the next byte of keystream.
    #[inline]
    pub fn next_byte(&mut self) -> u8 {
        if self.offset == 64 {
            self.refill();
        }
        let b = self.block[self.offset];
        self.offset += 1;
        b
    }

    /// The next `K` keystream bytes: one slice copy when they lie inside
    /// the current block, byte reads only when they straddle its end.
    #[inline]
    fn next_bytes<const K: usize>(&mut self) -> [u8; K] {
        if self.offset == 64 {
            self.refill();
        }
        match self.block[self.offset..].first_chunk::<K>() {
            Some(bytes) => {
                self.offset += K;
                *bytes
            }
            None => std::array::from_fn(|_| self.next_byte()),
        }
    }

    /// Returns the next 32 bits of keystream (little-endian).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.next_bytes())
    }

    /// Returns the next 64 bits of keystream (little-endian).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.next_bytes())
    }

    /// Fills `dest` with keystream bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut dest = dest;
        while !dest.is_empty() {
            if self.offset == 64 {
                self.refill();
            }
            let take = (64 - self.offset).min(dest.len());
            let (head, rest) = dest.split_at_mut(take);
            head.copy_from_slice(&self.block[self.offset..self.offset + take]);
            self.offset += take;
            dest = rest;
        }
    }

    /// Returns a uniformly random `u64` below `bound` (rejection sampling).
    ///
    /// A draw `v` is accepted when it lies below the largest multiple of
    /// `bound` that fits in a `u64`, `zone = u64::MAX - u64::MAX % bound`.
    /// That multiple is at least `2^64 - bound`, so only the rare draws in
    /// the top `bound` values need the division that computes it.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let v = self.next_u64();
            if v < bound.wrapping_neg() || v < u64::MAX - (u64::MAX % bound) {
                return if bound.is_power_of_two() {
                    v & (bound - 1)
                } else {
                    v % bound
                };
            }
        }
    }
}

impl rand::RngCore for ChaCha20Rng {
    fn next_u32(&mut self) -> u32 {
        ChaCha20Rng::next_u32(self)
    }
    fn next_u64(&mut self) -> u64 {
        ChaCha20Rng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        ChaCha20Rng::fill_bytes(self, dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        ChaCha20Rng::fill_bytes(self, dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 section 2.3.2 test vector.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block(1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 section 2.4.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let cipher = ChaCha20::new(&key, &nonce, 1);
        cipher.apply_keystream(&mut data);
        assert_eq!(hex(&data[..16]), "6e2e359a2568f98041ba0728dd0d6981");
        // Decryption round-trips.
        cipher.apply_keystream(&mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaCha20Rng::from_seed([42u8; 32]);
        let mut b = ChaCha20Rng::from_seed([42u8; 32]);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha20Rng::from_seed([1u8; 32]);
        let mut b = ChaCha20Rng::from_seed([2u8; 32]);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seed16_expansion_deterministic() {
        let mut a = ChaCha20Rng::from_seed16([7u8; 16]);
        let mut b = ChaCha20Rng::from_seed16([7u8; 16]);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_uniform_range() {
        let mut rng = ChaCha20Rng::from_seed([3u8; 32]);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_bytes_spans_blocks() {
        let mut rng = ChaCha20Rng::from_seed([5u8; 32]);
        let mut big = vec![0u8; 300];
        rng.fill_bytes(&mut big);
        // Same output as drawing byte by byte.
        let mut rng2 = ChaCha20Rng::from_seed([5u8; 32]);
        let singles: Vec<u8> = (0..300).map(|_| rng2.next_byte()).collect();
        assert_eq!(big, singles);
    }

    /// Reads `len` keystream bytes one `next_byte` at a time: the
    /// reference every word-wise read must reproduce.
    fn byte_stream(seed: [u8; 32], len: usize) -> Vec<u8> {
        let mut rng = ChaCha20Rng::from_seed(seed);
        (0..len).map(|_| rng.next_byte()).collect()
    }

    #[test]
    fn interleaved_reads_match_byte_stream() {
        let seed = [6u8; 32];
        let reference = byte_stream(seed, 4096);
        // From every offset within a block, cycle through all four readers
        // (with fill lengths that drift the alignment), so words straddle
        // block boundaries at every position.
        for start in 0..64 {
            let mut rng = ChaCha20Rng::from_seed(seed);
            let mut got = Vec::new();
            for _ in 0..start {
                got.push(rng.next_byte());
            }
            for step in 0..80 {
                match step % 4 {
                    0 => got.push(rng.next_byte()),
                    1 => got.extend_from_slice(&rng.next_u32().to_le_bytes()),
                    2 => got.extend_from_slice(&rng.next_u64().to_le_bytes()),
                    _ => {
                        let mut buf = vec![0u8; (step * 7 + start) % 131];
                        rng.fill_bytes(&mut buf);
                        got.extend_from_slice(&buf);
                    }
                }
            }
            assert_eq!(got[..], reference[..got.len()], "start {start}");
        }
    }

    #[test]
    fn next_below_matches_division_formula() {
        // The formula the shortcut replaces: a byte-assembled u64, accepted
        // below `u64::MAX - u64::MAX % bound`, reduced by `%`.
        fn reference(rng: &mut ChaCha20Rng, bound: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX % bound);
            loop {
                let v = u64::from_le_bytes(std::array::from_fn(|_| rng.next_byte()));
                if v < zone {
                    return v % bound;
                }
            }
        }
        // Powers of two (masked), other bounds (divided), and bounds just
        // above 2^63 whose draws land in the top zone about half the time.
        let bounds = [
            1,
            2,
            1 << 32,
            1 << 40,
            1 << 63,
            3,
            7,
            1_000_003,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for bound in bounds {
            let mut fast = ChaCha20Rng::from_seed([8u8; 32]);
            let mut slow = ChaCha20Rng::from_seed([8u8; 32]);
            for i in 0..20_000 {
                assert_eq!(
                    fast.next_below(bound),
                    reference(&mut slow, bound),
                    "bound {bound}, draw {i}"
                );
            }
        }
    }

    #[test]
    fn rand_rngcore_impl_usable() {
        use rand::Rng;
        let mut rng = ChaCha20Rng::from_seed([9u8; 32]);
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
    }
}
