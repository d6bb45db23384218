//! Criterion bench: cryptographic primitives underlying AsyncSecAgg.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use papaya_crypto::chacha20::ChaCha20Rng;
use papaya_crypto::dh::{DhGroup, DhPrivateKey};
use papaya_crypto::merkle::MerkleLog;
use papaya_crypto::sha256::sha256;
use papaya_secagg::attestation::verify_quote;
use papaya_secagg::mask::expand_mask_into;
use papaya_secagg::session::client_handshake;
use papaya_secagg::{GroupParams, SecAggConfig, Tsa};

fn hash_and_stream(c: &mut Criterion) {
    let data = vec![0xabu8; 1 << 20];
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("1MiB", |b| b.iter(|| sha256(&data)));
    group.finish();

    c.bench_function("chacha20_expand_1M_group_elements", |b| {
        b.iter(|| {
            let mut rng = ChaCha20Rng::from_seed16([7u8; 16]);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_below(1 << 32));
            }
            acc
        })
    });
}

fn dh_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("diffie_hellman");
    group.sample_size(10);
    for (name, g) in [
        ("test_256", DhGroup::test_group_256()),
        ("rfc3526_2048", DhGroup::rfc3526_2048()),
    ] {
        group.bench_function(name, |b| {
            let mut rng = ChaCha20Rng::from_seed([9u8; 32]);
            let server = DhPrivateKey::generate(&g, &mut rng);
            b.iter(|| {
                let client = DhPrivateKey::generate(&g, &mut rng);
                client.shared_secret(&server.public_key())
            });
        });
    }
    group.finish();
}

/// Per-call costs of the primitives the session-cached secure pipeline runs
/// per first contact and per update, at the simulation's settings (the
/// 256-bit group, `Z_{2^40}` masks of 128 elements).
fn secure_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("secure_primitives");
    let config = SecAggConfig::insecure_fast(128, 1);
    let dh = config.dh_group.clone();
    let mut rng = ChaCha20Rng::from_seed([9u8; 32]);
    group.bench_function("dh_keygen_fixed", |b| {
        b.iter(|| DhPrivateKey::generate(&dh, &mut rng))
    });
    let server = DhPrivateKey::generate(&dh, &mut rng);
    let client = DhPrivateKey::generate(&dh, &mut rng);
    group.bench_function("shared_secret_var_base", |b| {
        b.iter(|| client.shared_secret(&server.public_key()))
    });

    let mut tsa = Tsa::new(&config, [0x11u8; 32]);
    let publication = tsa.publication();
    let init = tsa.session_init();
    let mut key_seed = [0u8; 32];
    group.bench_function("client_handshake", |b| {
        b.iter(|| {
            key_seed[0] = key_seed[0].wrapping_add(1);
            client_handshake(&dh, &key_seed, &init, &publication)
        })
    });
    let handshake = client_handshake(&dh, &[1u8; 32], &init, &publication);
    group.bench_function("tsa_establish_session", |b| {
        b.iter(|| tsa.establish_session(1, &handshake.client_public))
    });
    let payload = init.tsa_public.to_bytes();
    group.bench_function("verify_quote", |b| {
        b.iter(|| verify_quote(&publication, &init.quote, &payload))
    });

    let params = GroupParams::new(1 << 40);
    let mut scratch = Vec::new();
    let mut seed = [0u8; 16];
    group.bench_function("expand_mask_128", |b| {
        b.iter(|| {
            seed[0] = seed[0].wrapping_add(1);
            expand_mask_into(&seed, params, 128, &mut scratch);
            scratch[127]
        })
    });
    let data = [0xabu8; 256];
    group.bench_function("sha256_256B", |b| b.iter(|| sha256(&data)));
    group.finish();
}

fn merkle_log(c: &mut Criterion) {
    c.bench_function("merkle_log_append_and_prove_1k", |b| {
        b.iter(|| {
            let mut log = MerkleLog::new();
            for i in 0..1000usize {
                log.append(format!("binary-{i}").into_bytes());
            }
            let root = log.root();
            let proof = log.inclusion_proof(999).unwrap();
            proof.verify(&root, b"binary-999", 999, 1000)
        })
    });
}

criterion_group!(
    benches,
    hash_and_stream,
    dh_exchange,
    secure_primitives,
    merkle_log
);
criterion_main!(benches);
