//! E-F6/F7 — paper Figures 6–7: model access across the network.
//! Spins up a local PowerPlay site, regenerates the fetch flow (request
//! for model → model), and times both single-model and whole-library
//! transfers over real HTTP.

use criterion::{criterion_group, criterion_main, Criterion};
use powerplay::ucb_library;
use powerplay_bench::banner;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::remote;

fn bench(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("powerplay-bench-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let server = app.serve("127.0.0.1:0").expect("bind ephemeral port");
    let base = format!("http://{}", server.addr());

    banner("Figure 7: model access across the network (HTTP, not SMTP)");
    let fetched = remote::fetch_library(&base).expect("fetch own library");
    println!("GET {base}/api/v1/library -> {} models", fetched.len());
    let element = remote::fetch_element(&base, "ucb/multiplier").expect("fetch one model");
    println!(
        "GET {base}/api/v1/elements/ucb/multiplier -> `{}` ({} params)",
        element.name(),
        element.params().len(),
    );
    println!("(paper: 'access of models across the network has been demonstrated')");

    let mut group = c.benchmark_group("fig7");
    group.sample_size(30);
    group.bench_function("fetch_single_model", |b| {
        b.iter(|| remote::fetch_element(&base, "ucb/multiplier").unwrap())
    });
    group.bench_function("fetch_whole_library", |b| {
        b.iter(|| remote::fetch_library(&base).unwrap().len())
    });
    group.bench_function("merge_remote_into_local", |b| {
        b.iter(|| {
            let mut local = powerplay::Registry::new();
            remote::merge_remote_library(&mut local, &base).unwrap()
        })
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
