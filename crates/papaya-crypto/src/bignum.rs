//! Fixed-width big unsigned integers with Montgomery modular arithmetic.
//!
//! The Diffie–Hellman exchange between clients and the Trusted Secure
//! Aggregator (Appendix A.1 of the PAPAYA paper) needs modular exponentiation
//! over a large prime group.  This module provides a small, from-scratch,
//! constant-width big-integer type [`Uint`] and a [`Montgomery`] context that
//! performs efficient `a^e mod n` for odd moduli.
//!
//! Widths are expressed in 64-bit limbs via const generics; [`U2048`]
//! (32 limbs) is the width used by the RFC 3526 group 14 modulus, and
//! [`U256`] (4 limbs) is used by the fast test group.

use std::cmp::Ordering;
use std::fmt;

/// Fixed-width little-endian (limb order) unsigned integer with `N` 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const N: usize> {
    /// Limbs in little-endian order: `limbs[0]` is the least significant.
    limbs: [u64; N],
}

/// 2048-bit unsigned integer (32 limbs).
pub type U2048 = Uint<32>;
/// 256-bit unsigned integer (4 limbs).
pub type U256 = Uint<4>;

impl<const N: usize> fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        let mut started = false;
        for limb in self.limbs.iter().rev() {
            if started {
                write!(f, "{limb:016x}")?;
            } else if *limb != 0 {
                write!(f, "{limb:x}")?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl<const N: usize> fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Uint<N> {
    /// The value 0.
    pub const ZERO: Self = Uint { limbs: [0u64; N] };

    /// The value 1.
    pub fn one() -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = 1;
        Uint { limbs }
    }

    /// Constructs from little-endian limbs.
    pub fn from_limbs(limbs: [u64; N]) -> Self {
        Uint { limbs }
    }

    /// Returns the little-endian limbs.
    pub fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = v;
        Uint { limbs }
    }

    /// Parses a big-endian byte slice.  Bytes beyond the width are an error.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > N * 8`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= N * 8,
            "byte slice of length {} does not fit in {} limbs",
            bytes.len(),
            N
        );
        let mut limbs = [0u64; N];
        for (i, b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (*b as u64) << ((i % 8) * 8);
        }
        Uint { limbs }
    }

    /// Serializes to big-endian bytes (`N * 8` bytes, zero padded).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; N * 8];
        for (i, limb) in self.limbs.iter().enumerate() {
            let bytes = limb.to_be_bytes();
            let start = N * 8 - (i + 1) * 8;
            out[start..start + 8].copy_from_slice(&bytes);
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, whitespace ignored).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters or if the value does not fit.
    pub fn from_hex(s: &str) -> Self {
        let cleaned: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(cleaned.len() <= N * 16, "hex string too long for width");
        let mut bytes = Vec::with_capacity(cleaned.len().div_ceil(2));
        let padded = if cleaned.len() % 2 == 1 {
            format!("0{cleaned}")
        } else {
            cleaned
        };
        for i in (0..padded.len()).step_by(2) {
            // papaya-lint: allow(panic-hygiene) -- documented panic: from_hex is a test/constant helper whose contract rejects non-hex input
            bytes.push(u8::from_str_radix(&padded[i..i + 2], 16).expect("invalid hex digit"));
        }
        Self::from_be_bytes(&bytes)
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Returns true if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns the index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return Some(i * 64 + 63 - limb.leading_zeros() as usize);
            }
        }
        None
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        if i >= N * 64 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns 4-bit window `w` (bits `4w..4w+4`; windows never straddle a
    /// limb boundary since 64 is a multiple of 4).
    #[inline]
    pub fn window4(&self, w: usize) -> u64 {
        let bit = w * 4;
        if bit >= N * 64 {
            return 0;
        }
        (self.limbs[bit / 64] >> (bit % 64)) & 0xf
    }

    /// Compares two values.
    pub fn cmp_value(&self, other: &Self) -> Ordering {
        for i in (0..N).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Adds, returning the result and the carry-out.
    // Index style keeps the carry chain legible across the three arrays.
    #[allow(clippy::needless_range_loop)]
    pub fn overflowing_add(&self, other: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for i in 0..N {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (Uint { limbs: out }, carry != 0)
    }

    /// Subtracts, returning the result and the borrow-out.
    // Index style keeps the borrow chain legible across the three arrays.
    #[allow(clippy::needless_range_loop)]
    pub fn overflowing_sub(&self, other: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for i in 0..N {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (Uint { limbs: out }, borrow != 0)
    }

    /// Modular addition `(self + other) mod modulus`, assuming both operands
    /// are already reduced.
    pub fn add_mod(&self, other: &Self, modulus: &Self) -> Self {
        let (sum, carry) = self.overflowing_add(other);
        if carry || sum.cmp_value(modulus) != Ordering::Less {
            sum.overflowing_sub(modulus).0
        } else {
            sum
        }
    }

    /// Modular doubling.
    pub fn double_mod(&self, modulus: &Self) -> Self {
        self.add_mod(self, modulus)
    }

    /// Reduces `self` modulo `modulus` (general, bit-by-bit; used only at
    /// setup time, not in hot loops).
    pub fn reduce(&self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modulus must be non-zero");
        if self.cmp_value(modulus) == Ordering::Less {
            return *self;
        }
        let mut result = Self::ZERO;
        let highest = match self.highest_bit() {
            Some(h) => h,
            None => return Self::ZERO,
        };
        for i in (0..=highest).rev() {
            result = result.double_mod(modulus);
            if self.bit(i) {
                result = result.add_mod(&Self::one(), modulus);
            }
        }
        result
    }

    /// The low `min(M, N)` limbs as a `Uint<M>`, zero-extended: exact when
    /// widening, and exact when narrowing a value below `2^(64 M)`.
    fn resize<const M: usize>(&self) -> Uint<M> {
        let mut limbs = [0u64; M];
        let k = M.min(N);
        limbs[..k].copy_from_slice(&self.limbs[..k]);
        Uint { limbs }
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
}

/// Limb width of the narrow Montgomery kernel.  A modulus of at most 256
/// bits (the simulation's Diffie–Hellman group) runs every multiplication at
/// this width, whatever the width of the type it is stored in.
const NARROW: usize = 4;

/// Montgomery-form modular arithmetic context for an odd modulus.
///
/// Every multiplication runs one CIOS kernel whose width `W` (in limbs) is a
/// compile-time constant, so its carry chains unroll and its operands are
/// exactly `W` limbs wide.  The context picks `W` once, at construction: 4
/// limbs when the modulus fits in 256 bits, the full type width `N`
/// otherwise.  A 256-bit group embedded in a `Uint<32>` thus costs 4-limb
/// multiplications on 32-byte operands.  The Montgomery radix
/// `R = 2^(64 W)` follows the width; it never shows, because every public
/// operation takes and returns ordinary residues.
#[derive(Clone, Debug)]
pub struct Montgomery<const N: usize> {
    modulus: Uint<N>,
    /// Kernel width in limbs: [`NARROW`] or `N`.
    width: usize,
    /// `-modulus^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod modulus`.
    r2: Uint<N>,
    /// `R mod modulus` (the Montgomery form of 1).
    r1: Uint<N>,
}

/// Runs `$body` with `$k` bound to the context's [`Kernel`] at its width —
/// the one place the runtime width becomes a compile-time one.
macro_rules! at_width {
    ($ctx:expr, $k:ident => $body:expr) => {
        if $ctx.width == NARROW {
            let $k = $ctx.kernel::<NARROW>();
            $body
        } else {
            let $k = $ctx.kernel::<N>();
            $body
        }
    };
}

impl<const N: usize> Montgomery<N> {
    /// Creates a context for the given odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero.
    pub fn new(modulus: Uint<N>) -> Self {
        assert!(
            modulus.is_odd(),
            "Montgomery arithmetic requires an odd modulus"
        );
        // papaya-lint: allow(panic-hygiene) -- documented panic: Montgomery construction requires a non-zero odd modulus (asserted above)
        let active = modulus.highest_bit().expect("modulus must be non-zero") / 64 + 1;
        let width = if active <= NARROW && NARROW <= N {
            NARROW
        } else {
            N
        };
        let n0_inv = inv_mod_2_64(modulus.limbs[0]).wrapping_neg();

        // r1 = 2^(64 W) mod modulus, computed by repeated modular doubling
        // of 1.  The radix must match the kernel width, or every conversion
        // in and out of Montgomery form would be off by a power of two.
        let mut r1 = Uint::<N>::one().reduce(&modulus);
        for _ in 0..(64 * width) {
            r1 = r1.double_mod(&modulus);
        }
        // r2 = 2^(128 W) mod modulus = r1 doubled 64 W more times.
        let mut r2 = r1;
        for _ in 0..(64 * width) {
            r2 = r2.double_mod(&modulus);
        }
        Montgomery {
            modulus,
            width,
            n0_inv,
            r2,
            r1,
        }
    }

    /// Returns the modulus.
    pub fn modulus(&self) -> &Uint<N> {
        &self.modulus
    }

    /// The context's constants at kernel width `W` (which must be the
    /// context's width: the radix-dependent `r1`/`r2` are only valid there).
    fn kernel<const W: usize>(&self) -> Kernel<W> {
        debug_assert_eq!(W, self.width, "kernel width mismatch");
        Kernel {
            n: self.modulus.resize(),
            n0_inv: self.n0_inv,
            r1: self.r1.resize(),
            r2: self.r2.resize(),
        }
    }

    /// Modular multiplication `a * b mod modulus`.  Operands at or above the
    /// modulus are reduced first.
    pub fn mul_mod(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let a = a.reduce(&self.modulus);
        let b = b.reduce(&self.modulus);
        // (a b R^-1) R^2 R^-1 = a b: two kernel calls, no conversions.
        at_width!(self, k => k.mul(&k.mul(&a.resize(), &b.resize()), &k.r2).resize())
    }

    /// Modular exponentiation `base^exponent mod modulus` using a fixed
    /// 4-bit window over Montgomery form (left-to-right): ~w/4 windowed
    /// multiplies instead of one per set bit, on top of the w squarings.
    pub fn pow_mod<const E: usize>(&self, base: &Uint<N>, exponent: &Uint<E>) -> Uint<N> {
        let base = base.reduce(&self.modulus);
        at_width!(self, k => k.pow(&base.resize(), exponent).resize())
    }

    /// Builds a fixed-base window table for repeated exponentiations of the
    /// same `base` with exponents up to `exp_bits` bits.  Costs ~18 modular
    /// multiplications per 4-bit window to build; each subsequent
    /// [`pow_mod_fixed`](Montgomery::pow_mod_fixed) then needs at most one
    /// multiplication per window and **no squarings** — ~6x cheaper than
    /// [`pow_mod`](Montgomery::pow_mod) for 256-bit exponents.  Worth it
    /// from roughly four exponentiations on the same base.  Entries are
    /// stored at the kernel width: 32 bytes each for a 256-bit modulus.
    pub fn precompute_base(&self, base: &Uint<N>, exp_bits: usize) -> FixedBase<N> {
        let windows = exp_bits.div_ceil(4);
        let base = base.reduce(&self.modulus);
        let powers = if self.width == NARROW {
            Powers::Narrow(self.kernel::<NARROW>().precompute(&base.resize(), windows))
        } else {
            Powers::Wide(self.kernel::<N>().precompute(&base.resize(), windows))
        };
        FixedBase { powers, windows }
    }

    /// Fixed-base exponentiation against a table from
    /// [`precompute_base`](Montgomery::precompute_base).  Bit-identical to
    /// [`pow_mod`](Montgomery::pow_mod) on the same base.
    ///
    /// # Panics
    ///
    /// Panics if the exponent has set bits beyond the table's `exp_bits`, or
    /// if the table was built by a context of another kernel width.
    pub fn pow_mod_fixed<const E: usize>(
        &self,
        base: &FixedBase<N>,
        exponent: &Uint<E>,
    ) -> Uint<N> {
        assert!(
            exponent.highest_bit().map_or(0, |h| h / 4 + 1) <= base.windows,
            "exponent exceeds the precomputed window count"
        );
        match &base.powers {
            Powers::Narrow(table) if self.width == NARROW => {
                self.kernel::<NARROW>().pow_fixed(table, exponent).resize()
            }
            Powers::Wide(table) if self.width != NARROW => {
                self.kernel::<N>().pow_fixed(table, exponent).resize()
            }
            _ => panic!("fixed-base table built at another kernel width"),
        }
    }
}

/// A [`Montgomery`] context's constants at the compile-time kernel width
/// `W`; every modular multiplication of the crate runs through
/// [`Kernel::mul`].
struct Kernel<const W: usize> {
    n: Uint<W>,
    n0_inv: u64,
    r1: Uint<W>,
    r2: Uint<W>,
}

impl<const W: usize> Kernel<W> {
    /// Montgomery multiplication: returns `a * b * R^{-1} mod n` for
    /// operands below `n`, by CIOS (coarsely integrated operand scanning)
    /// with the two overflow limbs held in scalars.
    // Index style keeps the CIOS carry chains legible across `t`, `a`, `b`.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn mul(&self, a: &Uint<W>, b: &Uint<W>) -> Uint<W> {
        let (a, b, n) = (&a.limbs, &b.limbs, &self.n.limbs);
        let mut t = [0u64; W];
        let mut t_hi = 0u64; // t[W]; t[W + 1] is at most 1 and folds back below
        for i in 0..W {
            // t += a[i] * b
            let mut carry = 0u64;
            for j in 0..W {
                (t[j], carry) = mac(t[j], a[i], b[j], carry);
            }
            let (sum, overflow) = t_hi.overflowing_add(carry);
            // m = t[0] * n0_inv mod 2^64; t += m * n, then shift right one limb.
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], m, n[0], 0);
            for j in 1..W {
                (t[j - 1], carry) = mac(t[j], m, n[j], carry);
            }
            let (top, overflow2) = sum.overflowing_add(carry);
            t[W - 1] = top;
            t_hi = overflow as u64 + overflow2 as u64;
        }
        // t < 2n: subtract n once unless that borrows past t_hi.
        let t = Uint { limbs: t };
        let (diff, borrow) = t.overflowing_sub(&self.n);
        if t_hi != 0 || !borrow {
            diff
        } else {
            t
        }
    }

    /// Converts a reduced residue into Montgomery form.
    fn to_mont(&self, a: &Uint<W>) -> Uint<W> {
        self.mul(a, &self.r2)
    }

    /// Converts out of Montgomery form.
    fn to_normal(&self, a: &Uint<W>) -> Uint<W> {
        self.mul(a, &Uint::one())
    }

    /// `base^exponent` for a reduced `base`, by a fixed 4-bit window
    /// left to right.
    fn pow<const E: usize>(&self, base: &Uint<W>, exponent: &Uint<E>) -> Uint<W> {
        let Some(highest) = exponent.highest_bit() else {
            return self.to_normal(&self.r1);
        };
        // powers[d - 1] = base^d in Montgomery form, d = 1..=15.
        let base_m = self.to_mont(base);
        let mut powers = [base_m; 15];
        for d in 1..15 {
            powers[d] = self.mul(&powers[d - 1], &base_m);
        }
        let mut acc = self.r1; // Montgomery form of 1.
        let top_window = highest / 4;
        for w in (0..=top_window).rev() {
            if w != top_window {
                for _ in 0..4 {
                    acc = self.mul(&acc, &acc);
                }
            }
            let digit = exponent.window4(w);
            if digit != 0 {
                acc = self.mul(&acc, &powers[digit as usize - 1]);
            }
        }
        self.to_normal(&acc)
    }

    /// The fixed-base table of a reduced `base` over `windows` 4-bit
    /// windows: entry `i * 15 + (d - 1)` is `base^(d * 16^i)` in Montgomery
    /// form.
    fn precompute(&self, base: &Uint<W>, windows: usize) -> Vec<Uint<W>> {
        let mut table = Vec::with_capacity(windows * 15);
        // window_base = base^(16^i) in Montgomery form.
        let mut window_base = self.to_mont(base);
        for i in 0..windows {
            if i > 0 {
                for _ in 0..4 {
                    window_base = self.mul(&window_base, &window_base);
                }
            }
            let mut acc = window_base;
            table.push(acc);
            for _ in 1..15 {
                acc = self.mul(&acc, &window_base);
                table.push(acc);
            }
        }
        table
    }

    /// `base^exponent` against a [`Kernel::precompute`] table of `base`:
    /// at most one multiplication per window and no squarings.
    fn pow_fixed<const E: usize>(&self, table: &[Uint<W>], exponent: &Uint<E>) -> Uint<W> {
        let mut acc = self.r1; // Montgomery form of 1.
        for (w, powers) in table.chunks_exact(15).enumerate() {
            let digit = exponent.window4(w);
            if digit != 0 {
                acc = self.mul(&acc, &powers[digit as usize - 1]);
            }
        }
        self.to_normal(&acc)
    }
}

/// A precomputed 4-bit fixed-base window table: Montgomery-form powers
/// `base^(d * 16^i)` for every window `i` and nonzero digit `d`, built by
/// [`Montgomery::precompute_base`].  Exponentiation against it
/// ([`Montgomery::pow_mod_fixed`]) needs no squarings at all, which is what
/// makes per-epoch bases (a group generator, a TSA epoch key) cheap to
/// exponentiate thousands of times.
#[derive(Clone, Debug)]
pub struct FixedBase<const N: usize> {
    /// The powers at the building context's kernel width.
    powers: Powers<N>,
    /// Number of 4-bit exponent windows covered.
    windows: usize,
}

/// [`FixedBase`] entries at one of the two kernel widths.
#[derive(Clone, Debug)]
enum Powers<const N: usize> {
    /// [`NARROW`]-limb entries, for a modulus of at most 256 bits.
    Narrow(Vec<Uint<NARROW>>),
    /// Full-width entries.
    Wide(Vec<Uint<N>>),
}

/// `t + a * b + carry` as (low limb, high limb); never overflows 128 bits.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let sum = t as u128 + (a as u128) * (b as u128) + carry as u128;
    (sum as u64, (sum >> 64) as u64)
}

/// Computes the inverse of `a` modulo `2^64` for odd `a` (Newton iteration).
fn inv_mod_2_64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut x = a; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    debug_assert_eq!(a.wrapping_mul(x), 1);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
        let bytes = v.to_be_bytes();
        assert_eq!(U256::from_be_bytes(&bytes), v);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00");
        let b = U256::from_u64(0x12);
        let (sum, carry) = a.overflowing_add(&b);
        assert!(!carry);
        let (diff, borrow) = sum.overflowing_sub(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_hex("ffffffffffffffff");
        let b = U256::from_u64(1);
        let (sum, carry) = a.overflowing_add(&b);
        assert!(!carry);
        assert_eq!(sum, U256::from_hex("10000000000000000"));
    }

    #[test]
    fn overflow_detected() {
        let max = U256::from_limbs([u64::MAX; 4]);
        let (_, carry) = max.overflowing_add(&U256::one());
        assert!(carry);
        let (_, borrow) = U256::ZERO.overflowing_sub(&U256::one());
        assert!(borrow);
    }

    #[test]
    fn reduce_small_modulus() {
        // 1000 mod 7 = 6
        let a = U256::from_u64(1000);
        let m = U256::from_u64(7);
        assert_eq!(a.reduce(&m), U256::from_u64(6));
    }

    #[test]
    fn inv_mod_2_64_works() {
        for a in [1u64, 3, 5, 0xffff_ffff_ffff_fff1, 0x1234_5679] {
            let inv = inv_mod_2_64(a);
            assert_eq!(a.wrapping_mul(inv), 1, "a = {a}");
        }
    }

    #[test]
    fn montgomery_small_prime() {
        // p = 101 (prime). Check multiplication table entries.
        let p = U256::from_u64(101);
        let ctx = Montgomery::new(p);
        for a in [0u64, 1, 2, 50, 100] {
            for b in [0u64, 1, 3, 99, 100] {
                let res = ctx.mul_mod(&U256::from_u64(a), &U256::from_u64(b));
                assert_eq!(res, U256::from_u64((a * b) % 101), "{a} * {b} mod 101");
            }
        }
    }

    #[test]
    fn montgomery_pow_matches_naive() {
        let p = U256::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let base = U256::from_u64(123_456_789);
        let result = ctx.pow_mod(&base, &U256::from_u64(65_537));
        // Naive computation with u128 arithmetic.
        let mut acc: u128 = 1;
        let b: u128 = 123_456_789;
        let m: u128 = 1_000_000_007;
        let mut e = 65_537u32;
        let mut cur = b % m;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * cur % m;
            }
            cur = cur * cur % m;
            e >>= 1;
        }
        assert_eq!(result, U256::from_u64(acc as u64));
    }

    #[test]
    fn fermat_little_theorem_256bit() {
        // secp256k1 field prime: a^(p-1) = 1 mod p for a not divisible by p.
        let p = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let ctx = Montgomery::new(p);
        let p_minus_1 = p.overflowing_sub(&U256::one()).0;
        for a in [2u64, 3, 65_537, 0xdeadbeef] {
            let r = ctx.pow_mod(&U256::from_u64(a), &p_minus_1);
            assert_eq!(r, U256::one(), "a = {a}");
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let p = U256::from_u64(97);
        let ctx = Montgomery::new(p);
        assert_eq!(ctx.pow_mod(&U256::from_u64(5), &U256::ZERO), U256::one());
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = Montgomery::new(U256::from_u64(100));
    }

    #[test]
    fn narrow_modulus_in_wide_type_matches_narrow_type() {
        // The DH module embeds the 256-bit test group in a Uint<32>; its
        // narrow kernel must agree with a natively 4-limb context.
        let hex = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
        let wide = Montgomery::new(U2048::from_hex(hex));
        let narrow = Montgomery::new(U256::from_hex(hex));
        for (a, e) in [(2u64, 65_537u64), (0xdeadbeef, 12_345), (3, u64::MAX)] {
            let rw = wide.pow_mod(&U2048::from_u64(a), &U2048::from_u64(e));
            let rn = narrow.pow_mod(&U256::from_u64(a), &U256::from_u64(e));
            assert_eq!(rw.to_be_bytes()[32 * 8 - 32..], rn.to_be_bytes()[..]);
        }
    }

    #[test]
    fn fixed_base_matches_pow_mod() {
        // The no-squaring fixed-base path must agree bit-for-bit with plain
        // square-and-multiply across exponent shapes (sparse, dense, tiny,
        // full-width) — the session handshake depends on the two paths being
        // interchangeable.
        let p = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let ctx = Montgomery::new(p);
        let base = U256::from_u64(5);
        let table = ctx.precompute_base(&base, 256);
        let exponents = [
            U256::ZERO,
            U256::one(),
            U256::from_u64(2),
            U256::from_u64(0xdead_beef),
            U256::from_u64(1 << 63),
            U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
            U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001"),
            U256::from_hex("123456789abcdef0fedcba9876543210aa55aa55aa55aa550123456789abcdef"),
        ];
        for e in exponents {
            assert_eq!(
                ctx.pow_mod_fixed(&table, &e),
                ctx.pow_mod(&base, &e),
                "e = {e}"
            );
        }
    }

    #[test]
    fn fixed_base_works_at_full_width() {
        let p = U2048::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let base = U2048::from_u64(123_456_789);
        let table = ctx.precompute_base(&base, 64);
        let e = U2048::from_u64(65_537);
        assert_eq!(ctx.pow_mod_fixed(&table, &e), ctx.pow_mod(&base, &e));
    }

    #[test]
    #[should_panic(expected = "exceeds the precomputed window count")]
    fn fixed_base_rejects_oversized_exponents() {
        let p = U256::from_u64(97);
        let ctx = Montgomery::new(p);
        let table = ctx.precompute_base(&U256::from_u64(5), 8);
        let _ = ctx.pow_mod_fixed(&table, &U256::from_u64(1 << 9));
    }

    #[test]
    fn window4_extracts_nibbles() {
        let v = U256::from_hex("a1b2c3d4");
        assert_eq!(v.window4(0), 0x4);
        assert_eq!(v.window4(1), 0xd);
        assert_eq!(v.window4(6), 0x1);
        assert_eq!(v.window4(7), 0xa);
        assert_eq!(v.window4(8), 0);
        assert_eq!(v.window4(10_000), 0);
    }

    #[test]
    fn to_mont_reduces_oversized_operands() {
        // mul_mod takes raw (possibly unreduced) operands; values at or
        // above the modulus must be reduced before the narrow kernel
        // truncates them to its width.
        let p = U2048::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let big = U2048::from_hex("ffffffffffffffffffffffffffffffff"); // 128 bits
        let expected = big.reduce(&p);
        let r = ctx.mul_mod(&big, &U2048::from_u64(1));
        assert_eq!(r, expected);
        let reduced: u128 = big
            .to_be_bytes()
            .iter()
            .fold(0u128, |acc, &b| (acc * 256 + b as u128) % 1_000_000_007);
        let r2 = ctx.mul_mod(&big, &big);
        assert_eq!(
            r2,
            U2048::from_u64((reduced * reduced % 1_000_000_007) as u64)
        );
    }

    #[test]
    fn fermat_little_theorem_2048bit_group() {
        // RFC 3526 group 14 modulus at full 32-limb width: the full-width
        // kernel.  A short exponent keeps the test fast.
        let p = U2048::from_hex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
             4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
             98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
             9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
             E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
             3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        );
        let ctx = Montgomery::new(p);
        // g^(2^20) via pow_mod against 20 iterated mul_mod squarings.
        let g = U2048::from_u64(2);
        let mut by_mul = g.reduce(&p);
        for _ in 0..20 {
            by_mul = ctx.mul_mod(&by_mul, &by_mul);
        }
        // Exponent 2^20: bit 20 set.
        let e = U2048::from_u64(1 << 20);
        assert_eq!(ctx.pow_mod(&g, &e), by_mul);
    }
}
