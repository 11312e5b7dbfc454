//! E-A2 — voltage-scaling exploration: power-vs-VDD series for both
//! reference designs ("parameters such as … supply voltages can be
//! varied dynamically"), plus the timing-constrained minimum-supply
//! search. Regenerates the curves, then times the sweep machinery.

use criterion::{criterion_group, criterion_main, Criterion};
use powerplay::designs::infopad;
use powerplay::designs::luminance::{sheet, LuminanceArch};
use powerplay::{whatif, Voltage};
use powerplay_bench::{banner, record_metrics, session, throughput};

const VDD_POINTS: [f64; 9] = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.3, 5.0];

fn regenerate() {
    let pp = session();
    banner("E-A2: power vs supply voltage");
    let decoder = sheet(LuminanceArch::GroupedLut);
    let system = infopad::sheet();
    println!(
        "{:>6} {:>16} {:>16}",
        "vdd", "decoder (Fig 3)", "InfoPad system"
    );
    let decoder = pp.compile(&decoder);
    let dec_curve = whatif::sweep_compiled(&decoder, "vdd", &VDD_POINTS).unwrap();
    let sys_curve = whatif::sweep_compiled(&pp.compile(&system), "vdd", &VDD_POINTS).unwrap();
    for ((vdd, d), (_, s)) in dec_curve.iter().zip(&sys_curve) {
        println!(
            "{vdd:>6.2} {:>16} {:>16}",
            d.total_power().to_string(),
            s.total_power().to_string(),
        );
    }
    println!(
        "(decoder scales ~vdd^2; the display/radio-dominated system barely moves — \
         the 'optimize the right component' lesson)"
    );
    match whatif::min_vdd_meeting_timing(&decoder, Voltage::new(0.75), Voltage::new(3.3)).unwrap() {
        Some((vdd, report)) => println!(
            "minimum supply meeting 2 MHz timing: {:.2} V -> {}",
            vdd.value(),
            report.total_power(),
        ),
        None => println!("timing unreachable"),
    }
}

fn bench(c: &mut Criterion) {
    regenerate();
    let pp = session();
    // Each timed iteration compiles, as a fresh study of a design does.
    let decoder = sheet(LuminanceArch::GroupedLut);
    c.bench_function("sweep/nine_point_vdd_sweep", |b| {
        b.iter(|| {
            whatif::sweep_compiled(&pp.compile(&decoder), "vdd", &VDD_POINTS)
                .unwrap()
                .len()
        })
    });
    c.bench_function("sweep/sensitivities", |b| {
        b.iter(|| whatif::sensitivities_compiled(&pp.compile(&decoder)).unwrap())
    });
    c.bench_function("sweep/min_vdd_bisection", |b| {
        b.iter(|| {
            whatif::min_vdd_meeting_timing(
                &pp.compile(&decoder),
                Voltage::new(0.75),
                Voltage::new(3.3),
            )
            .unwrap()
            .map(|(v, _)| v)
        })
    });

    // Dense sweep, serial vs parallel, on the hierarchical InfoPad
    // system. The parallel path must return the same reports in the
    // same order — checked here before timing anything — and beat the
    // serial clone-mutate-play loop.
    let system = infopad::sheet();
    let dense: Vec<f64> = (0..64).map(|i| 1.0 + 0.05 * f64::from(i)).collect();
    let serial = whatif::sweep_global_serial(&system, pp.registry(), "vdd", &dense).unwrap();
    let parallel = whatif::sweep_compiled(&pp.compile(&system), "vdd", &dense).unwrap();
    assert_eq!(serial, parallel, "parallel sweep must be bit-identical");

    let mut group = c.benchmark_group("sweep/dense64_infopad");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            whatif::sweep_global_serial(&system, pp.registry(), "vdd", &dense)
                .unwrap()
                .len()
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            whatif::sweep_compiled(&pp.compile(&system), "vdd", &dense)
                .unwrap()
                .len()
        })
    });
    group.finish();

    let serial_rate = throughput(400, || {
        std::hint::black_box(
            whatif::sweep_global_serial(&system, pp.registry(), "vdd", &dense)
                .unwrap()
                .len(),
        );
    });
    let parallel_rate = throughput(400, || {
        std::hint::black_box(
            whatif::sweep_compiled(&pp.compile(&system), "vdd", &dense)
                .unwrap()
                .len(),
        );
    });
    let points = dense.len() as f64;
    println!(
        "64-point InfoPad vdd sweep: serial {:.0} plays/sec, parallel {:.0} plays/sec ({:.1}x)",
        serial_rate * points,
        parallel_rate * points,
        parallel_rate / serial_rate
    );
    record_metrics(
        "sweep_vdd",
        &[
            ("points", points),
            ("serial_plays_per_sec", serial_rate * points),
            ("parallel_plays_per_sec", parallel_rate * points),
            ("parallel_speedup", parallel_rate / serial_rate),
            // The parallel path batches points through the bytecode
            // sweep kernel (8 lanes per instruction-dispatch pass);
            // same measurement, recorded under the bytecode_ family.
            ("bytecode_batched_plays_per_sec", parallel_rate * points),
            ("bytecode_batch_speedup", parallel_rate / serial_rate),
        ],
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
