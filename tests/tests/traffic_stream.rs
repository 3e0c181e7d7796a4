//! The key streams `SkewedTraffic` draws are pinned: the repo benchmark's
//! two and a tenant-weighted mix.
//! The source builds its per-VN pools once and then draws a VN and a
//! rank per packet; a change to the pool build, the tenant CDF or the
//! order of the RNG draws shows up here as a changed fingerprint. The
//! fingerprints were taken while the pipeline simulator still had a
//! packet generator of its own, before `SkewedTraffic` became the one
//! source.

use vr_net::synth::FamilySpec;
use vr_net::{SkewedSpec, SkewedTraffic, VnId};

/// Pairs drawn per source.
const PAIRS: usize = 4096;

/// FNV-1a over the pairs, one `vn << 32 | dst` word each.
fn fingerprint(pairs: &[(VnId, u32)]) -> u64 {
    let fold = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    pairs
        .iter()
        .map(|&(vn, dst)| u64::from(vn) << 32 | u64::from(dst))
        .fold(0xcbf2_9ce4_8422_2325, fold)
}

/// The repo benchmark's seed split (splitmix64 finaliser over
/// `seed + tag · φ`); its key stream is drawn under `sub_seed(seed, 1)`.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed.wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The repo benchmark's key streams at seed 2012: the paper family at
/// K = 15 and shared fraction 0.5, 16 concrete destinations per prefix,
/// drawn Zipf(1.0) (the wire workloads) and uniformly (`svc_scan`).
#[test]
fn benchmark_key_streams_are_pinned() {
    let tables = FamilySpec::paper_worst_case(15, 0.5, 2012)
        .generate()
        .unwrap();
    let seed = sub_seed(2012, 1);
    for (spec, want) in [
        (SkewedSpec::zipf(15, 1.0, seed), 0xbf98_2130_12ff_1e75),
        (SkewedSpec::uniform(15, seed), 0x879e_2f17_faa0_5319),
    ] {
        let s = spec.s;
        let mut traffic = SkewedTraffic::new(
            SkewedSpec {
                expansions: 16,
                ..spec
            },
            &tables,
        )
        .unwrap();
        let got = fingerprint(&traffic.pairs(PAIRS));
        assert_eq!(got, want, "s = {s}: {got:#018x}");
    }
}

/// A tenant-weighted mix (VN 1 never drawn).
#[test]
fn weighted_stream_is_pinned() {
    let tables = vr_integration_tests::family(4, 0.5, 77);
    let weighted = SkewedSpec {
        tenant_weights: Some(vec![3.0, 0.0, 1.0, 0.5]),
        ..SkewedSpec::zipf(4, 0.8, 5)
    };
    let mut traffic = SkewedTraffic::new(weighted, &tables).unwrap();
    let pairs = traffic.pairs(PAIRS);
    assert!(pairs.iter().all(|&(vn, _)| vn != 1));
    let got = fingerprint(&pairs);
    assert_eq!(got, 0x87e9_0a57_f226_e89e, "weighted: {got:#018x}");
}
