//! Finite-field Diffie–Hellman key exchange (Appendix A.1 of the paper).
//!
//! The Trusted Secure Aggregator (TSA) prepares a batch of key-exchange
//! *initial messages* in advance; each participating client completes the
//! exchange with a single *completing message* and both sides derive the same
//! shared secret, which then protects the client's mask seed in transit.
//!
//! Two groups are provided:
//!
//! * [`DhGroup::rfc3526_2048`] — the 2048-bit MODP group 14 from RFC 3526,
//!   the realistic configuration;
//! * [`DhGroup::test_group_256`] — a 256-bit prime group used by tests and
//!   large simulations where thousands of exchanges must run quickly.

use crate::bignum::{FixedBase, Montgomery, Uint, U2048};
use crate::chacha20::ChaCha20Rng;
use crate::sha256::Sha256;
use std::sync::Arc;

/// Width (in 64-bit limbs) of exchanged group elements.
const LIMBS: usize = 32;

/// Private exponents are 256-bit (see [`DhPrivateKey::generate`]); fixed-base
/// tables are sized to cover them.
const EXPONENT_BITS: usize = 256;

/// A Diffie–Hellman group: a prime modulus and a generator.
///
/// Carries a fixed-base window table for the generator (shared across
/// clones), so key generation — always an exponentiation of the same base —
/// skips every squaring.
#[derive(Clone, Debug)]
pub struct DhGroup {
    ctx: Arc<Montgomery<LIMBS>>,
    generator: U2048,
    /// Fixed-base table for the generator, used by every key generation.
    gen_table: Arc<FixedBase<LIMBS>>,
    /// Human-readable group label, included in key derivation transcripts.
    name: &'static str,
}

/// A party's public key (the group element `g^x mod p`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DhPublicKey {
    element: U2048,
}

/// A party's private exponent.
#[derive(Clone, Debug)]
pub struct DhPrivateKey {
    group: DhGroup,
    exponent: Uint<4>,
    public: DhPublicKey,
}

/// The 32-byte shared secret derived from a completed exchange.
pub type SharedSecret = [u8; 32];

impl DhGroup {
    /// The 2048-bit MODP group (group 14) from RFC 3526 with generator 2.
    pub fn rfc3526_2048() -> Self {
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
        Self::new(p, U2048::from_u64(2), "rfc3526-modp-2048")
    }

    /// A small 256-bit prime group (the secp256k1 field prime, generator 5).
    ///
    /// Not intended to offer production-grade security; it exists so that
    /// simulations involving thousands of clients can run the full protocol
    /// quickly.  The protocol code paths are identical to the 2048-bit group.
    pub fn test_group_256() -> Self {
        let p = U2048::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        Self::new(p, U2048::from_u64(5), "test-256")
    }

    fn new(p: U2048, generator: U2048, name: &'static str) -> Self {
        let ctx = Arc::new(Montgomery::new(p));
        let gen_table = Arc::new(ctx.precompute_base(&generator, EXPONENT_BITS));
        DhGroup {
            ctx,
            generator,
            gen_table,
            name,
        }
    }

    /// The group's prime modulus.
    pub fn modulus(&self) -> &U2048 {
        self.ctx.modulus()
    }

    /// The group's generator.
    pub fn generator(&self) -> &U2048 {
        &self.generator
    }

    /// The group's label (bound into derived keys).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn pow(&self, base: &U2048, exp: &Uint<4>) -> U2048 {
        self.ctx.pow_mod(base, exp)
    }

    /// Builds a fixed-base window table for `key`, for a party that will
    /// complete many exchanges against the same peer key (every client of a
    /// TSA epoch completes against the one epoch key).  Pays for itself
    /// after a handful of [`DhPrivateKey::shared_secret_precomputed`] calls.
    pub fn precompute_public(&self, key: &DhPublicKey) -> DhPrecomputedPublic {
        DhPrecomputedPublic {
            element: key.element,
            table: Arc::new(self.ctx.precompute_base(&key.element, EXPONENT_BITS)),
        }
    }
}

/// A peer public key with a fixed-base window table attached; see
/// [`DhGroup::precompute_public`].
#[derive(Clone, Debug)]
pub struct DhPrecomputedPublic {
    element: U2048,
    table: Arc<FixedBase<LIMBS>>,
}

impl DhPrecomputedPublic {
    /// The public key this table was built from.
    pub fn public_key(&self) -> DhPublicKey {
        DhPublicKey {
            element: self.element,
        }
    }
}

impl DhPublicKey {
    /// Returns the raw group element.
    pub fn element(&self) -> &U2048 {
        &self.element
    }

    /// Serializes the public key to big-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.element.to_be_bytes()
    }

    /// Deserializes a public key from big-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than 256 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        DhPublicKey {
            element: U2048::from_be_bytes(bytes),
        }
    }
}

impl DhPrivateKey {
    /// Generates a fresh private key (256-bit exponent) in the given group.
    pub fn generate(group: &DhGroup, rng: &mut ChaCha20Rng) -> Self {
        let mut limbs = [0u64; 4];
        loop {
            for limb in limbs.iter_mut() {
                *limb = rng.next_u64();
            }
            let exponent = Uint::from_limbs(limbs);
            // Reject weak exponents: a highest set bit below 2 means an
            // exponent below 4 (0, 1, 2 or 3).
            if exponent.highest_bit().unwrap_or(0) >= 2 {
                // Fixed-base exponentiation: bit-identical to pow(generator,
                // exponent), minus all the squarings.
                let element = group.ctx.pow_mod_fixed(&group.gen_table, &exponent);
                return DhPrivateKey {
                    group: group.clone(),
                    exponent,
                    public: DhPublicKey { element },
                };
            }
        }
    }

    /// Returns this party's public key.
    pub fn public_key(&self) -> DhPublicKey {
        self.public.clone()
    }

    /// Completes the exchange with the peer's public key and derives the
    /// 32-byte shared secret as `SHA-256(group_name || g^{xy})`.
    pub fn shared_secret(&self, peer: &DhPublicKey) -> SharedSecret {
        let shared_element = self.group.pow(&peer.element, &self.exponent);
        self.derive_secret(&shared_element)
    }

    /// Like [`shared_secret`](DhPrivateKey::shared_secret) but against a
    /// peer key with a precomputed fixed-base table — bit-identical output,
    /// no squarings.
    pub fn shared_secret_precomputed(&self, peer: &DhPrecomputedPublic) -> SharedSecret {
        let shared_element = self.group.ctx.pow_mod_fixed(&peer.table, &self.exponent);
        self.derive_secret(&shared_element)
    }

    fn derive_secret(&self, shared_element: &U2048) -> SharedSecret {
        let mut hasher = Sha256::new();
        hasher.update(self.group.name.as_bytes());
        hasher.update(&shared_element.to_be_bytes());
        hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answers recorded before the width-specialised Montgomery
    /// kernel: for a fixed RNG seed, both groups must keep producing the
    /// same key pairs and shared secrets, through the fixed-base keygen,
    /// the variable-base exchange and the precomputed-table exchange.
    #[test]
    fn known_answers_are_pinned() {
        let cases = [
            (
                DhGroup::test_group_256(),
                "802527b9698e90af3cf2db64d73571fcb52c9f45a9bb30bf7c3c314b2e156d94",
                "a7110f2939933bf34a1e219b40e3c33ea23ad8fd6eeb9e5c4a1b2d82c1bd97b1",
                "5b1e484e5583d37a233bfefd1a5e4fd8bad4572a66ef4db6f35aac18a17bb1df",
            ),
            (
                DhGroup::rfc3526_2048(),
                "614c21b5b0c34b37a8f45ebf3952e0d5f841182e041ce640a9a8ccfb6455d586\
                 83cf620d4282e782d7b630f9e03bbb3fd44e34b94635f6dd99f4530117d2e7bd\
                 fe7bd1653011306ff4aebd74ff5c8ab85a2aff84708b9c2e9f62d90072b5a8d4\
                 a116d3ed135e209a1368cd46bed8a069e4b3f2f1629449ecafcb4d89bec576ab\
                 8530ed455b334b48ec555f06a04a92ad06227368aa8f5606a433fc425dff5a57\
                 885c54641a67282dcc61b1030f303cfd52c38ace06769491562a7949be942b8b\
                 6a8ae508a84480ffdea09ab5cfc57706ec3cc297021408cd273d711ff1d44c66\
                 43477c652811cbcbe0bf60a5dd73e3a09af2996a38e36de0903e69ec66a68b4",
                "85d2df4f484bc2b7ae32f259b43761c960a736f619513977ea90269ca38f1aff\
                 7baab7884c603e67b628743b9a4591894cc9d25961de4313bb5e68c95b3f260f\
                 7558989d44b0d7bd869aca5126e1eff141a25fc0627e2268a8cb36ce958f8f06\
                 2ea69d2fcfd6472797ce1c388449c3440dfb3d55d2b8fb441ea53a23d21582d3\
                 45864395d4765b5ea93a83f62205f72cdf1bb2de4403c9406673a61049afa905\
                 2f811c3a9dad95b66d567cec4834ba2dc0f0f356d978e509707817ccaaf16163\
                 34181e9649202651b9748b0cf28191e3fe50d1473174e789b01dcd6bfe2c464d\
                 fe28a2534bd0530aaf156d71d607725821f6b3a75a089a47024f613c31b4e972",
                "f4b100ec1de85caa3d5b361f368f2656fab48d47b870a70356d02b283eac54a1",
            ),
        ];
        for (group, a_pub, b_pub, secret) in cases {
            let mut rng = ChaCha20Rng::from_seed([11u8; 32]);
            let a = DhPrivateKey::generate(&group, &mut rng);
            let b = DhPrivateKey::generate(&group, &mut rng);
            assert_eq!(
                *a.public_key().element(),
                U2048::from_hex(a_pub),
                "{}",
                group.name()
            );
            assert_eq!(
                *b.public_key().element(),
                U2048::from_hex(b_pub),
                "{}",
                group.name()
            );
            assert_eq!(
                hex(&a.shared_secret(&b.public_key())),
                secret,
                "{}",
                group.name()
            );
            assert_eq!(
                hex(&b.shared_secret(&a.public_key())),
                secret,
                "{}",
                group.name()
            );
            let b_pre = group.precompute_public(&b.public_key());
            assert_eq!(
                hex(&a.shared_secret_precomputed(&b_pre)),
                secret,
                "{}",
                group.name()
            );
        }
    }

    #[test]
    fn exchange_agrees_test_group() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([1u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        assert_eq!(
            a.shared_secret(&b.public_key()),
            b.shared_secret(&a.public_key())
        );
    }

    #[test]
    fn exchange_agrees_rfc3526() {
        let group = DhGroup::rfc3526_2048();
        let mut rng = ChaCha20Rng::from_seed([2u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        assert_eq!(
            a.shared_secret(&b.public_key()),
            b.shared_secret(&a.public_key())
        );
    }

    #[test]
    fn third_party_disagrees() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([3u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        let eve = DhPrivateKey::generate(&group, &mut rng);
        assert_ne!(
            a.shared_secret(&b.public_key()),
            eve.shared_secret(&b.public_key())
        );
    }

    #[test]
    fn precomputed_shared_secret_matches_plain() {
        for group in [DhGroup::test_group_256(), DhGroup::rfc3526_2048()] {
            let mut rng = ChaCha20Rng::from_seed([7u8; 32]);
            let tsa = DhPrivateKey::generate(&group, &mut rng);
            let tsa_pre = group.precompute_public(&tsa.public_key());
            assert_eq!(tsa_pre.public_key(), tsa.public_key());
            for _ in 0..3 {
                let client = DhPrivateKey::generate(&group, &mut rng);
                assert_eq!(
                    client.shared_secret_precomputed(&tsa_pre),
                    client.shared_secret(&tsa.public_key()),
                    "{}",
                    group.name()
                );
            }
        }
    }

    #[test]
    fn public_key_roundtrip() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([4u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let pk = a.public_key();
        let restored = DhPublicKey::from_bytes(&pk.to_bytes());
        assert_eq!(pk, restored);
    }

    #[test]
    fn different_keypairs_have_different_publics() {
        let group = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([5u8; 32]);
        let a = DhPrivateKey::generate(&group, &mut rng);
        let b = DhPrivateKey::generate(&group, &mut rng);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn secret_depends_on_group_label() {
        // Using the same exponents in groups with the same modulus but
        // different labels must yield different derived secrets (domain
        // separation in the transcript hash).
        let g1 = DhGroup::test_group_256();
        let mut rng = ChaCha20Rng::from_seed([6u8; 32]);
        let a = DhPrivateKey::generate(&g1, &mut rng);
        let b = DhPrivateKey::generate(&g1, &mut rng);
        let s = a.shared_secret(&b.public_key());
        assert_eq!(s.len(), 32);
        assert_ne!(s, [0u8; 32]);
    }
}
