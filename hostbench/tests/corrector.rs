//! The host-speed corrector reads in nominal reference units.

use hostbench::host::{median, reference_loop, Corrector, NOMINAL_REF_S};
use std::hint::black_box;

/// Median corrected time of `trials` bracketed runs of `unit`.
fn corrected(trials: usize, mut unit: impl FnMut()) -> f64 {
    let mut c = Corrector::new();
    let times: Vec<f64> = (0..trials).map(|_| c.bracket(&mut unit).1.corrected_s()).collect();
    median(&times)
}

#[test]
fn k_reference_calls_read_k_nominal() {
    for k in [1u64, 4] {
        let got = corrected(7, || {
            for _ in 0..k {
                black_box(reference_loop());
            }
        });
        let want = k as f64 * NOMINAL_REF_S;
        assert!((got / want - 1.0).abs() < 0.2, "{k} reference calls read {got} s, want {want} s");
    }
}

#[test]
fn doubling_the_work_doubles_the_corrected_time() {
    let data: Vec<f64> = (0..1 << 16).map(f64::from).collect();
    let data = &data;
    let unit = |passes: usize| {
        move || {
            let mut sum = 0.0;
            for _ in 0..passes {
                sum += black_box(data).iter().map(|x| x.sqrt()).sum::<f64>();
            }
            black_box(sum);
        }
    };
    let one = corrected(7, unit(8));
    let two = corrected(7, unit(16));
    let ratio = two / one;
    assert!((1.7..2.3).contains(&ratio), "doubled work read {ratio}× the corrected time");
}

#[test]
fn the_correction_divides_by_the_mean_reading() {
    let b = hostbench::host::Bracketed { wall_s: 3.0, ref_before_s: 0.001, ref_after_s: 0.003 };
    assert_eq!(b.factor(), NOMINAL_REF_S / 0.002);
    assert_eq!(b.corrected_s(), 3.0 * NOMINAL_REF_S / 0.002);
}
