//! The PRNG stream-stability contract: known-answer vectors for
//! xoshiro256++ with SplitMix64 seeding and for the `random_range` draws
//! derived from it, determinism, and distribution smoke tests. If any
//! test here fails, recorded experiment results are no longer
//! reproducible — do not "fix" the vectors, fix the generator.

use daos_util::rng::SmallRng;

/// Reference outputs computed from the canonical xoshiro256++ /
/// SplitMix64 algorithms (prng.di.unimi.it).
#[test]
fn known_answer_vectors() {
    let expect: [(u64, [u64; 5]); 4] = [
        (
            0,
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
                0x7eca04ebaf4a5eea,
            ],
        ),
        (
            1,
            [
                0xcfc5d07f6f03c29b,
                0xbf424132963fe08d,
                0x19a37d5757aaf520,
                0xbf08119f05cd56d6,
                0x2f47184b86186fa4,
            ],
        ),
        (
            42,
            [
                0xd0764d4f4476689f,
                0x519e4174576f3791,
                0xfbe07cfb0c24ed8c,
                0xb37d9f600cd835b8,
                0xcb231c3874846a73,
            ],
        ),
        (
            0xdeadbeef,
            [
                0x0c520eb8fea98ede,
                0x2b74a6338b80e0e2,
                0xbe238770c3795322,
                0x5f235f98a244ea97,
                0xe004f0cc1514d858,
            ],
        ),
    ];
    for (seed, vals) in expect {
        let mut rng = SmallRng::seed_from_u64(seed);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(got, vals, "stream for seed {seed} drifted");
    }
}

/// The derived draws, pinned: six `random_range` values per range and
/// the raw `next_u64` that follows them, which pins how many draws the
/// rejection loop consumed. Recorded from the divide-every-call Lemire
/// form before it became nearly-divisionless. The bounds cover the
/// trivial (1), powers of two (2), small odd moduli (3, 90), one just
/// past 2³², one just past 2⁶³ (rejection about half the time) and
/// `u64::MAX`; then an `i64` range and an inclusive `u32` range.
#[test]
fn random_range_known_answers() {
    type Draws<T> = ([T; 6], u64);
    /// Seed, then the seven exclusive bounds, the `i64` and the inclusive range.
    type Case = (u64, [Draws<u64>; 7], Draws<i64>, Draws<u32>);
    let bounds: [u64; 7] = [1, 2, 3, 90, (1 << 32) + 1, (1 << 63) + 1, u64::MAX];
    let expect: [Case; 2] = [
        (
            42,
            [
                ([0, 0, 0, 0, 0, 0], 0x201718ff221a3556),
                ([1, 0, 1, 1, 1, 1], 0x11ccbfbb36590dbd),
                ([1, 1, 0, 0, 1, 1], 0x296566311008aaa4),
                ([77, 58, 47, 73, 12, 38], 0xf2eda4bfdf254cbb),
                (
                    [2248098503, 3744603704, 362852477, 2736276573, 3089707834, 1198914430],
                    0xfbf66cab58c5ce18,
                ),
                (
                    [
                        7274844196454145259,
                        3747491092365156393,
                        4969047947334454603,
                        4310250678272370671,
                        5457526296917683256,
                        439993727454004939,
                    ],
                    0x6a22c726e186d3a2,
                ),
                (
                    [
                        11880187017084977319,
                        10674110879303664472,
                        13955903524794606583,
                        4466588716908858722,
                        13721728628974436118,
                        9035636477185272433,
                    ],
                    0x7405e883d0b9af7b,
                ),
            ],
            (
                [619260427, 252995351, -648268214, 475071018, -633064870, 303495666],
                0x0f77d1b5e9830d8b,
            ),
            (
                [1405603383, 2075811123, 1811503183, 2065976081, 2068866865, 1363930810],
                0x988361a80b1dcb8a,
            ),
        ),
        (
            7,
            [
                ([0, 0, 0, 0, 0, 0], 0xb951f9b3621ea380),
                ([0, 1, 0, 0, 0, 1], 0x1cf3305d746a1ca7),
                ([1, 0, 0, 0, 0, 2], 0xacf56b1fbeddbdf4),
                ([37, 71, 47, 75, 0, 0], 0x1edc5ff1a2b08acd),
                (
                    [1652633554, 1227698303, 3449360607, 356789780, 2180059934, 3577903835],
                    0x574fb3dd612fb6b1,
                ),
                (
                    [
                        2333462508452732704,
                        5415386366555429082,
                        5695607453362702755,
                        558091034644329695,
                        1318140484212516668,
                        2846755697657630029,
                    ],
                    0x16b50822fde2e074,
                ),
                (
                    [
                        5487733035853232648,
                        15639483186010676474,
                        1009460832890067157,
                        9807586327015655297,
                        4051762370988217141,
                        17425949320052249226,
                    ],
                    0x90ed3284d75b8dfb,
                ),
            ],
            (
                [634229887, -638677900, -422112005, 928467324, -249358558, -658679949],
                0xb7d777e88440f754,
            ),
            (
                [162907266, 1888428895, 1434311498, 630377242, 404618434, 488811608],
                0xc0bc6571f0476d6f,
            ),
        ),
    ];
    for (seed, exclusive, signed, inclusive) in expect {
        let mut rng = SmallRng::seed_from_u64(seed);
        for (bound, (vals, next)) in bounds.into_iter().zip(exclusive) {
            let got: Vec<u64> = (0..6).map(|_| rng.random_range(0..bound)).collect();
            assert_eq!((got, rng.next_u64()), (vals.to_vec(), next), "seed {seed}, 0..{bound}");
        }
        let got: Vec<i64> =
            (0..6).map(|_| rng.random_range(-1_000_000_007i64..999_999_937)).collect();
        assert_eq!((got, rng.next_u64()), (signed.0.to_vec(), signed.1), "seed {seed}, i64");
        let got: Vec<u32> = (0..6).map(|_| rng.random_range(10u32..=(1 << 31) + 10)).collect();
        assert_eq!((got, rng.next_u64()), (inclusive.0.to_vec(), inclusive.1), "seed {seed}, ..=");
    }
}

/// Lemire's method as it was written before it became nearly-
/// divisionless: the rejection threshold divided out on every call.
fn lemire_dividing(rng: &mut SmallRng, bound: u64) -> u64 {
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = (rng.next_u64() as u128) * (bound as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

daos_util::proptest! {
    cases = 100_000;

    /// The library's `[0, bound)` draw equals the dividing form in value
    /// and in consumption, for bounds of every magnitude — `raw >> shift`
    /// reaches the bounds just past a power of two, where rejection fires.
    fn nearly_divisionless_lemire_equals_the_dividing_form(
        seed in 0u64..=u64::MAX,
        raw in 0u64..=u64::MAX,
        shift in 0u32..64,
    ) {
        let bound = (raw >> shift).max(1);
        let mut fast = SmallRng::seed_from_u64(seed);
        let mut reference = fast.clone();
        for _ in 0..4 {
            let want = lemire_dividing(&mut reference, bound);
            daos_util::prop_assert_eq!(fast.random_range(0..bound), want);
        }
        daos_util::prop_assert_eq!(fast.next_u64(), reference.next_u64(), "bound {}", bound);
    }
}

#[test]
fn same_seed_identical_stream() {
    let mut a = SmallRng::seed_from_u64(0x5eed);
    let mut b = SmallRng::seed_from_u64(0x5eed);
    for _ in 0..10_000 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    // And through the derived draws, which consume fixed draw counts.
    let mut a = SmallRng::seed_from_u64(7);
    let mut b = SmallRng::seed_from_u64(7);
    for _ in 0..1000 {
        assert_eq!(a.random_range(0u64..977), b.random_range(0u64..977));
        assert_eq!(a.random::<f64>(), b.random::<f64>());
    }
}

#[test]
fn different_seeds_diverge() {
    let mut a = SmallRng::seed_from_u64(1);
    let mut b = SmallRng::seed_from_u64(2);
    let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
    assert_eq!(same, 0, "adjacent seeds must decorrelate via SplitMix64");
}

#[test]
fn random_range_respects_bounds() {
    let mut rng = SmallRng::seed_from_u64(100);
    for _ in 0..10_000 {
        let x = rng.random_range(17u64..29);
        assert!((17..29).contains(&x));
        let y = rng.random_range(-5i32..=5);
        assert!((-5..=5).contains(&y));
        let z = rng.random_range(0.25f64..=0.75);
        assert!((0.25..=0.75).contains(&z));
        let w = rng.random_range(3usize..4); // single-value range
        assert_eq!(w, 3);
    }
}

#[test]
fn unit_draws_stay_in_unit_interval() {
    let mut rng = SmallRng::seed_from_u64(101);
    for _ in 0..10_000 {
        let x: f64 = rng.random();
        assert!((0.0..1.0).contains(&x));
        let y: f32 = rng.random();
        assert!((0.0..1.0).contains(&y));
    }
}

/// Chi-square-flavoured uniformity smoke test: 16 buckets, 64k draws.
/// Expected 4096/bucket; bound |obs - exp| < 5 sigma (sigma ≈ 62).
#[test]
fn random_range_uniformity_smoke() {
    let mut rng = SmallRng::seed_from_u64(2024);
    const BUCKETS: usize = 16;
    const DRAWS: usize = 65_536;
    let mut counts = [0usize; BUCKETS];
    for _ in 0..DRAWS {
        counts[rng.random_range(0..BUCKETS)] += 1;
    }
    let exp = (DRAWS / BUCKETS) as f64;
    let sigma = (exp * (1.0 - 1.0 / BUCKETS as f64)).sqrt();
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - exp).abs() < 5.0 * sigma,
            "bucket {i}: {c} vs expected {exp} (5σ = {:.0})",
            5.0 * sigma
        );
    }
}

/// Lemire rejection really is unbiased for an awkward modulus: a bound
/// just above a power of two, where plain modulo would skew low values.
#[test]
fn uniformity_awkward_modulus() {
    let mut rng = SmallRng::seed_from_u64(77);
    const BOUND: u64 = 3; // u64::MAX % 3 != 0 → modulo bias would show
    let mut counts = [0u64; BOUND as usize];
    for _ in 0..90_000 {
        counts[rng.random_range(0..BOUND) as usize] += 1;
    }
    for &c in &counts {
        assert!((c as i64 - 30_000).unsigned_abs() < 1_000, "{counts:?}");
    }
}
