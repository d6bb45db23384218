//! Property-based tests for the cryptographic substrate.

use papaya_crypto::aead::{open, seal, AeadKey};
use papaya_crypto::bignum::{Montgomery, Uint, U2048, U256};
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_crypto::dh::{DhGroup, DhPrivateKey};
use papaya_crypto::hmac::hmac_sha256;
use proptest::prelude::*;

proptest! {
    /// Addition and subtraction are exact inverses whenever no overflow
    /// occurs (checked against 128-bit reference arithmetic).
    #[test]
    fn bignum_add_sub_match_u128(a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>()) {
        let x = U256::from_limbs([a, b, 0, 0]);
        let y = U256::from_limbs([c, d, 0, 0]);
        let (sum, carry) = x.overflowing_add(&y);
        prop_assert!(!carry);
        let (back, borrow) = sum.overflowing_sub(&y);
        prop_assert!(!borrow);
        prop_assert_eq!(back, x);
        // Low 128 bits agree with native arithmetic.
        let x128 = (b as u128) << 64 | a as u128;
        let y128 = (d as u128) << 64 | c as u128;
        let (expected, _) = x128.overflowing_add(y128);
        let lo = sum.limbs()[0] as u128 | (sum.limbs()[1] as u128) << 64;
        prop_assert_eq!(lo, expected);
    }

    /// Montgomery modular multiplication agrees with 128-bit reference
    /// arithmetic for random odd 64-bit moduli.
    #[test]
    fn montgomery_mul_matches_reference(a in any::<u64>(), b in any::<u64>(), m in 3u64..u64::MAX) {
        let modulus = m | 1; // force odd
        let ctx = Montgomery::new(U256::from_u64(modulus));
        let got = ctx.mul_mod(&U256::from_u64(a % modulus), &U256::from_u64(b % modulus));
        let expected = ((a % modulus) as u128 * (b % modulus) as u128 % modulus as u128) as u64;
        prop_assert_eq!(got, U256::from_u64(expected));
    }

    /// Modular exponentiation satisfies the homomorphism
    /// `g^(x) * g^(y) = g^(x+y) (mod p)` for a prime modulus.
    #[test]
    fn pow_mod_is_homomorphic(x in 0u64..1_000_000, y in 0u64..1_000_000) {
        let p = U256::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let g = U256::from_u64(5);
        let gx = ctx.pow_mod(&g, &U256::from_u64(x));
        let gy = ctx.pow_mod(&g, &U256::from_u64(y));
        let gxy = ctx.pow_mod(&g, &U256::from_u64(x + y));
        prop_assert_eq!(ctx.mul_mod(&gx, &gy), gxy);
    }

    /// Big-endian byte serialization of bignums round-trips.
    #[test]
    fn bignum_byte_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
        let v = U256::from_be_bytes(&bytes);
        let full = v.to_be_bytes();
        prop_assert_eq!(U256::from_be_bytes(&full), v);
    }

    /// AEAD seal/open round-trips and rejects any single-byte tampering.
    #[test]
    fn aead_roundtrip_and_tamper_detection(
        secret in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        ad in proptest::collection::vec(any::<u8>(), 0..32),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        flip in any::<(usize, u8)>(),
    ) {
        let key = AeadKey::from_shared_secret(&secret);
        let sealed = seal(&key, &nonce, &ad, &payload);
        prop_assert_eq!(open(&key, &ad, &sealed).unwrap(), payload);
        let mut tampered = sealed.clone();
        let idx = flip.0 % tampered.len();
        let mask = if flip.1 == 0 { 1 } else { flip.1 };
        tampered[idx] ^= mask;
        prop_assert!(open(&key, &ad, &tampered).is_err());
    }

    /// HMAC is deterministic and key-separated.
    #[test]
    fn hmac_deterministic_and_key_separated(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(hmac_sha256(&k1, &msg), hmac_sha256(&k1, &msg));
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    /// ChaCha20 keystreams from different seeds differ, and `next_below`
    /// respects its bound.
    #[test]
    fn chacha_streams_and_bounds(seed in any::<[u8; 32]>(), bound in 1u64..1_000_000) {
        let mut rng = ChaCha20Rng::from_seed(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Diffie–Hellman key agreement holds for arbitrary RNG seeds in the
    /// fast test group.
    #[test]
    fn dh_agreement_for_random_keys(seed in any::<[u8; 32]>()) {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed(seed);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        prop_assert_eq!(a.shared_secret(&b.public_key()), b.shared_secret(&a.public_key()));
    }
}

/// `a * b mod n` by shift-and-add over the bits of `b`: no Montgomery form,
/// only the schoolbook modular doubling and addition.
fn naive_mul_mod<const N: usize>(a: &Uint<N>, b: &Uint<N>, n: &Uint<N>) -> Uint<N> {
    let (a, b) = (a.reduce(n), b.reduce(n));
    let mut acc = Uint::ZERO;
    for i in (0..=b.highest_bit().unwrap_or(0)).rev() {
        acc = acc.double_mod(n);
        if b.bit(i) {
            acc = acc.add_mod(&a, n);
        }
    }
    acc
}

/// `base^e mod n` by left-to-right square-and-multiply over
/// [`naive_mul_mod`].
fn naive_pow_mod<const N: usize, const E: usize>(
    base: &Uint<N>,
    e: &Uint<E>,
    n: &Uint<N>,
) -> Uint<N> {
    let mut acc = Uint::one().reduce(n);
    for i in (0..=e.highest_bit().unwrap_or(0)).rev() {
        acc = naive_mul_mod(&acc, &acc, n);
        if e.bit(i) {
            acc = naive_mul_mod(&acc, base, n);
        }
    }
    acc
}

/// An odd modulus occupying exactly `active` limbs: the random limbs below
/// `active`, with the top one forced nonzero.
fn modulus_with_active_limbs<const N: usize>(random: &[u64; N], active: usize) -> Uint<N> {
    let mut limbs = [0u64; N];
    limbs[..active].copy_from_slice(&random[..active]);
    limbs[0] |= 1;
    limbs[active - 1] |= 1 << (random[N - 1] % 64);
    Uint::from_limbs(limbs)
}

/// Checks `mul_mod`, `pow_mod` and `pow_mod_fixed` of one context against
/// the naive reference, for operands that may exceed the modulus.
fn check_against_naive<const N: usize>(
    modulus: Uint<N>,
    a: Uint<N>,
    b: Uint<N>,
    e: Uint<4>,
) -> Result<(), TestCaseError> {
    let ctx = Montgomery::new(modulus);
    prop_assert_eq!(ctx.mul_mod(&a, &b), naive_mul_mod(&a, &b, &modulus));
    let expected = naive_pow_mod(&a, &e, &modulus);
    prop_assert_eq!(ctx.pow_mod(&a, &e), expected);
    let table = ctx.precompute_base(&a, e.highest_bit().map_or(0, |h| h + 1));
    prop_assert_eq!(ctx.pow_mod_fixed(&table, &e), expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The width-specialised Montgomery kernel agrees with naive
    /// square-and-multiply for moduli of 1, 4 and 32 active limbs — the
    /// narrow kernel (1 and 4 limbs, whose radix is wider than a 1-limb
    /// modulus) and the full-width one — in a 2048-bit type and in a
    /// natively 256-bit one.
    #[test]
    fn montgomery_matches_naive_square_and_multiply(
        random in any::<[u64; 32]>(),
        a in any::<[u64; 32]>(),
        b in any::<[u64; 32]>(),
        e in any::<[u64; 2]>(),
    ) {
        let e128 = Uint::<4>::from_limbs([e[0], e[1], 0, 0]);
        for active in [1, 4, 32] {
            // A 32-limb naive reference is slow; a 24-bit exponent keeps
            // its square-and-multiply short.
            let exponent = if active == 32 { Uint::from_u64(e[0] >> 40) } else { e128 };
            check_against_naive(
                modulus_with_active_limbs(&random, active),
                U2048::from_limbs(a),
                U2048::from_limbs(b),
                exponent,
            )?;
        }
        let narrow = |v: &[u64; 32]| U256::from_limbs([v[0], v[1], v[2], v[3]]);
        for active in [1, 4] {
            check_against_naive(
                modulus_with_active_limbs(&[random[0], random[1], random[2], random[31]], active),
                narrow(&a),
                narrow(&b),
                e128,
            )?;
        }
    }
}
