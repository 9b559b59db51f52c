//! Criterion performance benches: simulated-round throughput per algorithm
//! and substrate cost, for engineering regressions (not a paper artifact).

use ccwan_core::{alg1, alg2, alg4, ConsensusRun, Value, ValueDomain};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wan_cd::{CdClass, ClassDetector, FreedomPolicy};
use wan_cm::{FairWakeUp, NoCm};
use wan_phy::{PhyConfig, RadioChannel};
use wan_sim::crash::NoCrashes;
use wan_sim::loss::{Ecf, RandomLoss};
use wan_sim::{Components, Multiset, ProcessId, Round};

fn ecf_components(class: CdClass, seed: u64) -> Components {
    Components {
        detector: Box::new(ClassDetector::new(class, FreedomPolicy::Quiet, seed)),
        manager: Box::new(FairWakeUp::immediate()),
        loss: Box::new(Ecf::new(RandomLoss::new(0.3, seed), Round(1))),
        crash: Box::new(NoCrashes),
    }
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus_run");
    let domain = ValueDomain::new(256);
    for n in [4usize, 16] {
        let values: Vec<Value> = (0..n).map(|i| Value(i as u64 % 256)).collect();
        group.bench_with_input(BenchmarkId::new("alg1", n), &n, |b, _| {
            b.iter(|| {
                let mut run = ConsensusRun::new(
                    alg1::processes(domain, &values),
                    ecf_components(CdClass::MAJ_EV_AC, 7),
                )
                .with_observer(());
                run.run_to_completion(Round(100))
            })
        });
        group.bench_with_input(BenchmarkId::new("alg2", n), &n, |b, _| {
            b.iter(|| {
                let mut run = ConsensusRun::new(
                    alg2::processes(domain, &values),
                    ecf_components(CdClass::ZERO_EV_AC, 7),
                )
                .with_observer(());
                run.run_to_completion(Round(200))
            })
        });
        group.bench_with_input(BenchmarkId::new("alg4_bst", n), &n, |b, _| {
            b.iter(|| {
                let mut run = ConsensusRun::new(
                    alg4::processes(domain, &values),
                    Components {
                        detector: Box::new(ClassDetector::new(
                            CdClass::ZERO_AC,
                            FreedomPolicy::Quiet,
                            1,
                        )),
                        manager: Box::new(NoCm),
                        loss: Box::new(RandomLoss::new(1.0, 1)),
                        crash: Box::new(NoCrashes),
                    },
                )
                .with_observer(());
                run.run_to_completion(Round(400))
            })
        });
    }
    group.finish();
}

fn bench_phy(c: &mut Criterion) {
    let mut group = c.benchmark_group("phy_round");
    for n in [8usize, 32] {
        let channel = RadioChannel::new(PhyConfig::new(n, 3));
        let senders: Vec<ProcessId> = (0..n / 2).map(ProcessId).collect();
        group.bench_with_input(BenchmarkId::new("resolve", n), &n, |b, _| {
            let mut r = 0u64;
            b.iter(|| {
                r += 1;
                channel.resolve(Round(r), &senders)
            })
        });
    }
    group.finish();
}

fn bench_multiset(c: &mut Criterion) {
    c.bench_function("multiset_union_64", |b| {
        let a: Multiset<u64> = (0..64u64).collect();
        let z: Multiset<u64> = (32..96u64).collect();
        b.iter(|| a.union(&z))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_algorithms, bench_phy, bench_multiset
}
criterion_main!(benches);
