//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! Used for HMAC, attestation measurement hashes, Merkle-tree nodes, and key
//! derivation throughout the secure-aggregation stack.  Blocks are
//! compressed with the x86-64 SHA extensions when the CPU has them, and by a
//! portable implementation otherwise; both compute the same function.

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use papaya_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(hex(&h.finalize()),
///            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress)
    }

    /// [`update`](Sha256::update) through the given compression function.
    #[inline(always)]
    fn update_with(&mut self, data: &[u8], compress: CompressFn) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        while let Some((block, rest)) = input.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// [`finalize`](Sha256::finalize) through the given compression
    /// function.
    #[inline(always)]
    fn finalize_with(mut self, compress: CompressFn) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, 8-byte big-endian bit length.
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        let length_at = if self.buffer_len < 56 { 56 } else { 120 };
        let zeros_end = length_at - self.buffer_len;
        padding[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_with(&padding[..zeros_end + 8], compress);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// A SHA-256 compression function: folds one 64-byte block into the state.
type CompressFn = fn(&mut [u32; 8], &[u8; 64]);

/// Compresses one block with the SHA-NI instructions when the CPU has them
/// (the feature check is cached by `std`), with [`compress_scalar`]
/// otherwise.  Both paths compute the same function.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, block) {
        return;
    }
    compress_scalar(state, block);
}

/// The portable FIPS 180-4 compression function.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-NI compression function: the crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Compresses `block` into `state` and returns `true` when the CPU has
    /// the SHA extensions (and the SSSE3/SSE4.1 shuffles around them);
    /// returns `false`, touching nothing, otherwise.
    #[inline]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: the three target features `compress_ni` enables were
        // detected on this CPU just above.
        unsafe { compress_ni(state, block) };
        true
    }

    /// Four rounds: adds the round constants `K[4i..4i+4]` to the schedule
    /// words `w` and runs two `sha256rnds2` steps over the `abef`/`cdgh`
    /// state halves.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// The next four message-schedule words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    /// FIPS 180-4 compression with the SHA extensions.
    ///
    /// # Safety
    ///
    /// Calling it needs `unsafe`: the CPU must support `sha`, `ssse3` and
    /// `sse4.1` (`sse2` is part of x86-64).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_ni(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle turning each little-endian lane into a big-endian word.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let words = state.as_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 readable bytes, so both unaligned 16-byte
        // loads stay inside it.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1))) };
        // Lanes (high to low) a b e f and c d g h, as sha256rnds2 takes them.
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let data = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 readable bytes, so the four unaligned
        // 16-byte loads stay inside it.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            [
                _mm_loadu_si128(data),
                _mm_loadu_si128(data.add(1)),
                _mm_loadu_si128(data.add(2)),
                _mm_loadu_si128(data.add(3)),
            ]
        };
        w0 = _mm_shuffle_epi8(w0, bswap);
        w1 = _mm_shuffle_epi8(w1, bswap);
        w2 = _mm_shuffle_epi8(w2, bswap);
        w3 = _mm_shuffle_epi8(w3, bswap);
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        // Rounds 16..64 in groups of four, each extending the schedule by
        // four words into the slot of the oldest ones.
        for i in 1..4 {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 4 * i);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 4 * i + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 4 * i + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 4 * i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        // Back to lanes a b c d and e f g h (low to high).
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        let words = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 writable bytes, so both unaligned 16-byte
        // stores stay inside it.
        unsafe {
            _mm_storeu_si128(words, dcba);
            _mm_storeu_si128(words.add(1), hgfe);
        }
    }
}

/// One-shot convenience wrapper around [`Sha256`].
///
/// # Example
///
/// ```
/// let d = papaya_crypto::sha256::sha256(b"hello");
/// assert_eq!(d.len(), 32);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::ChaCha20Rng;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The digest of `data` through the portable compression function
    /// alone, whatever the CPU.
    fn sha256_scalar(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(data, compress_scalar);
        h.finalize_with(compress_scalar)
    }

    /// Checks a FIPS 180-4 vector through the dispatcher (SHA-NI where the
    /// CPU has it) and through the scalar path directly.
    fn assert_vector(data: &[u8], digest: &str) {
        assert_eq!(hex(&sha256(data)), digest, "dispatched");
        assert_eq!(hex(&sha256_scalar(data)), digest, "scalar");
    }

    #[test]
    fn empty_string_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn paths_agree_on_every_length() {
        // Every padding shape (lengths around 55/56/64 mod 64) and up to
        // five blocks, on non-repeating bytes.
        let mut rng = ChaCha20Rng::from_seed([3u8; 32]);
        let mut data = vec![0u8; 300];
        rng.fill_bytes(&mut data);
        for len in 0..=300 {
            assert_eq!(
                sha256(&data[..len]),
                sha256_scalar(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn paths_agree_on_random_update_splits() {
        let mut rng = ChaCha20Rng::from_seed([4u8; 32]);
        let mut data = vec![0u8; 1000];
        rng.fill_bytes(&mut data);
        for _ in 0..50 {
            let len = rng.next_below(data.len() as u64 + 1) as usize;
            let expected = sha256_scalar(&data[..len]);
            let (mut dispatched, mut scalar) = (Sha256::new(), Sha256::new());
            let mut rest = &data[..len];
            while !rest.is_empty() {
                let take = rng.next_below(rest.len().min(150) as u64 + 1) as usize;
                dispatched.update(&rest[..take]);
                scalar.update_with(&rest[..take], compress_scalar);
                rest = &rest[take..];
            }
            assert_eq!(dispatched.finalize(), expected, "dispatched, len {len}");
            assert_eq!(
                scalar.finalize_with(compress_scalar),
                expected,
                "scalar, len {len}"
            );
        }
    }

    #[test]
    fn compression_functions_agree_on_random_states() {
        let mut rng = ChaCha20Rng::from_seed([5u8; 32]);
        for _ in 0..200 {
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let (mut dispatched, mut scalar) = (state, state);
            compress(&mut dispatched, &block);
            compress_scalar(&mut scalar, &block);
            assert_eq!(dispatched, scalar);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn exactly_one_block_boundary() {
        // 55, 56, 63, 64, 65 byte inputs exercise padding edge cases.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Compare against a second computation with byte-by-byte updates.
            let mut h2 = Sha256::new();
            for b in &data {
                h2.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }
}
