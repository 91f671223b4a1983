//! Training bit-identity pins: short, fully seeded encrypted training
//! runs whose final parameters must hash to fixed fingerprints.
//!
//! The golden suites elsewhere compare two runs of the same code with
//! each other, so they cannot see a change that moves every run the
//! same way. These constants were recorded from the per-element
//! `group.pow` combination of the secure weight gradient; any rewrite of
//! that path (or of anything else on the training path) must reproduce
//! the same `f64` bits exactly.

use cryptonn_core::{Client, CryptoCnn, CryptoMlp, CryptoNnConfig, Objective};
use cryptonn_fe::{KeyAuthority, PermittedFunctions};
use cryptonn_group::SchnorrGroup;
use cryptonn_matrix::{Matrix, Tensor4};
use cryptonn_nn::one_hot;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns of a stream of `f64`s.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn authority(config: &CryptoNnConfig, seed: u64) -> KeyAuthority {
    let group = SchnorrGroup::precomputed(config.level);
    KeyAuthority::with_seed(group, PermittedFunctions::all(), seed)
}

/// Deterministic pseudo-data in `[-1, 1)`, independent of any RNG crate.
fn pattern(i: usize, salt: usize) -> f64 {
    ((i * 37 + salt * 101) % 200) as f64 / 100.0 - 1.0
}

#[test]
fn mlp_training_matches_the_recorded_fingerprint() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 21);
    let (features, classes, m) = (10, 3, 6);
    let mut client = Client::for_mlp(&auth, features, classes, config.fp, 22);
    let mut rng = StdRng::seed_from_u64(23);
    let mut model = CryptoMlp::new(
        features,
        &[5],
        classes,
        Objective::SoftmaxCrossEntropy,
        config,
        &mut rng,
    );

    let mut losses = Vec::new();
    for step in 0..3 {
        let x = Matrix::from_fn(m, features, |r, c| pattern(r * features + c, step));
        let labels: Vec<usize> = (0..m).map(|r| (r + step) % classes).collect();
        let batch = client
            .encrypt_batch(&x, &one_hot(&labels, classes))
            .unwrap();
        losses.push(
            model
                .train_encrypted_batch(&auth, &batch, 0.8)
                .unwrap()
                .loss,
        );
    }

    let snap = model.snapshot().unwrap();
    let mut values: Vec<f64> = losses;
    values.extend_from_slice(snap.w1.as_slice());
    values.extend_from_slice(snap.b1.as_slice());
    for layer in &snap.rest {
        values.extend_from_slice(layer.w.as_slice());
        values.extend_from_slice(layer.b.as_slice());
    }
    assert_eq!(fnv(values), MLP_FINGERPRINT, "MLP training drifted");
}

#[test]
fn cnn_training_matches_the_recorded_fingerprint() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 31);
    let (classes, m) = (3, 2);
    let mut rng = StdRng::seed_from_u64(32);
    let mut model = CryptoCnn::lenet_small(config, classes, &mut rng);
    let spec = model.conv_spec();
    let mut client = Client::for_cnn(&auth, &spec, 1, classes, config.fp, 33);

    let mut losses = Vec::new();
    for step in 0..2 {
        let flat: Vec<f64> = (0..m * 196).map(|i| pattern(i, step)).collect();
        let images = Tensor4::from_vec(m, 1, 14, 14, flat);
        let labels: Vec<usize> = (0..m).map(|r| (r + step) % classes).collect();
        let batch = client
            .encrypt_image_batch(&images, &one_hot(&labels, classes), &spec)
            .unwrap();
        losses.push(
            model
                .train_encrypted_batch(&auth, &batch, 0.5)
                .unwrap()
                .loss,
        );
    }

    // The secure first layer's parameters, plus the plaintext tail seen
    // through its predictions on a fixed probe.
    let probe = Matrix::from_fn(2, 196, |r, c| pattern(r * 196 + c, 7));
    let mut values: Vec<f64> = losses;
    values.extend_from_slice(model.first_layer().filters().as_slice());
    values.extend_from_slice(model.first_layer().bias());
    values.extend_from_slice(model.predict_plain(&probe).as_slice());
    assert_eq!(fnv(values), CNN_FINGERPRINT, "CNN training drifted");
}

const MLP_FINGERPRINT: u64 = 2_990_378_635_167_420_373;
const CNN_FINGERPRINT: u64 = 2_471_035_183_295_778_147;
