//! Concurrency soak battery for the serve core: exactly-one-compile
//! bucketing under heavy client fan-in, bitwise-identical responses
//! across clients and execution thread counts, admission-control
//! determinism, and fault resilience mid-compile.

use sf_ir::dsl::print_graph;
use spacefusion::pipeline::FusionPolicy;
use spacefusion::resilience::{
    silence_injected_panics, FaultInjector, FaultKind, FaultPlan, FaultStage,
};
use spacefusion::serve::{CacheOutcome, CompileRequest, Response, ServeConfig, ServeCore};
use std::collections::HashMap;
use std::sync::Mutex;

/// The request zoo: four distinct buckets over two graphs × two
/// policies. Each bucket pins one binding seed so every response for it
/// must be bitwise identical.
fn zoo() -> Vec<CompileRequest> {
    let softmax = print_graph(&sf_models::subgraphs::softmax(16, 64));
    let layernorm = print_graph(&sf_models::subgraphs::layernorm(8, 128));
    let buckets = [
        (softmax.clone(), FusionPolicy::SpaceFusion),
        (softmax, FusionPolicy::Unfused),
        (layernorm.clone(), FusionPolicy::SpaceFusion),
        (layernorm, FusionPolicy::MiOnly),
    ];
    buckets
        .into_iter()
        .enumerate()
        .map(|(k, (graph, policy))| CompileRequest {
            id: k as u64,
            graph,
            policy,
            seed: 1000 + k as u64,
            ..CompileRequest::default()
        })
        .collect()
}

/// Hammers a core with 16 threads × 50 requests round-robining over the
/// zoo and returns the per-bucket response checksums observed.
fn soak(core: &ServeCore, threads: usize, per_thread: usize) -> HashMap<u64, Vec<Vec<u64>>> {
    let reqs = zoo();
    let observed: Mutex<HashMap<u64, Vec<Vec<u64>>>> = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let reqs = &reqs;
            let observed = &observed;
            let core = core.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    let req = reqs[(t + i) % reqs.len()].clone();
                    let id = req.id;
                    match core.submit(req) {
                        Response::Ok(ok) => {
                            assert_eq!(ok.id, id);
                            let sums: Vec<u64> = ok.outputs.iter().map(|o| o.checksum).collect();
                            assert!(!sums.is_empty(), "bucket {id} returned no outputs");
                            observed.lock().unwrap().entry(id).or_default().push(sums);
                        }
                        other => panic!("bucket {id}: unexpected response {other:?}"),
                    }
                }
            });
        }
    });
    observed.into_inner().unwrap()
}

#[test]
fn sixteen_clients_compile_each_bucket_exactly_once() {
    let core = ServeCore::start(ServeConfig {
        workers: 8,
        queue_depth: 1024,
        ..ServeConfig::default()
    })
    .unwrap();
    let observed = soak(&core, 16, 50);
    let stats = core.shutdown().unwrap();
    assert_eq!(stats.requests, 16 * 50);
    assert_eq!(stats.ok, 16 * 50);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.sheds, 0, "queue is deep enough for the soak");
    assert_eq!(
        stats.program_compiles, 4,
        "exactly one compile per bucket, {} requests notwithstanding",
        stats.requests
    );
    assert_eq!(stats.program_hits, 16 * 50 - 4);
    // Every response within a bucket is bitwise identical.
    assert_eq!(observed.len(), 4, "all four buckets served");
    for (bucket, runs) in &observed {
        assert_eq!(runs.len(), 16 * 50 / 4);
        for run in runs {
            assert_eq!(run, &runs[0], "bucket {bucket} diverged across clients");
        }
    }
}

#[test]
fn responses_are_bitwise_identical_across_exec_thread_counts() {
    let mut per_core: Vec<HashMap<u64, Vec<u64>>> = Vec::new();
    for exec_threads in [1, 2, 8] {
        let core = ServeCore::start(ServeConfig {
            workers: 4,
            exec_threads,
            ..ServeConfig::default()
        })
        .unwrap();
        let observed = soak(&core, 8, 8);
        core.shutdown().unwrap();
        per_core.push(
            observed
                .into_iter()
                .map(|(bucket, mut runs)| (bucket, runs.pop().unwrap()))
                .collect(),
        );
    }
    let baseline = &per_core[0];
    for (i, other) in per_core.iter().enumerate().skip(1) {
        assert_eq!(
            baseline, other,
            "exec-thread count #{i} changed response bits"
        );
    }
}

#[test]
fn admission_control_sheds_deterministically_lowest_index_wins() {
    let core = ServeCore::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let softmax = print_graph(&sf_models::subgraphs::softmax(8, 32));
    // A: occupies the single worker, held on a named gate.
    let a = {
        let core = core.clone();
        let graph = softmax.clone();
        std::thread::spawn(move || {
            core.submit(CompileRequest {
                id: 100,
                graph,
                hold: Some("g".into()),
                seed: 1,
                ..CompileRequest::default()
            })
        })
    };
    while core.in_flight() != 1 {
        std::thread::yield_now();
    }
    // B: fills the one queue slot.
    let b = {
        let core = core.clone();
        let graph = softmax.clone();
        std::thread::spawn(move || {
            core.submit(CompileRequest {
                id: 101,
                graph,
                seed: 1,
                ..CompileRequest::default()
            })
        })
    };
    while core.queued() != 1 {
        std::thread::yield_now();
    }
    // C: arrives third — the queue is full at its arrival instant, so it
    // is shed with the next admission index. Lowest index won the slot.
    let c = core.submit(CompileRequest {
        id: 102,
        graph: softmax,
        seed: 1,
        ..CompileRequest::default()
    });
    match c {
        Response::Retry { id, index } => {
            assert_eq!(id, 102);
            assert_eq!(index, 2, "C is the third admission (indices 0, 1, 2)");
        }
        other => panic!("expected retry, got {other:?}"),
    }
    core.release_gate("g");
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    assert!(matches!(a, Response::Ok(ref ok) if ok.index == 0), "{a:?}");
    assert!(matches!(b, Response::Ok(ref ok) if ok.index == 1), "{b:?}");
    let stats = core.shutdown().unwrap();
    assert_eq!(stats.sheds, 1);
    assert_eq!(stats.ok, 2);
}

#[test]
fn seeded_mid_compile_panic_degrades_and_leaves_no_poison() {
    silence_injected_panics();
    // The injector fires exactly once: the first compile absorbs a
    // schedule-stage panic through the degradation ladder.
    let faults = FaultInjector::new(FaultPlan::single(FaultStage::Schedule, FaultKind::Panic));
    let core = ServeCore::start(ServeConfig {
        workers: 4,
        faults: Some(faults.into()),
        ..ServeConfig::default()
    })
    .unwrap();
    let observed = soak(&core, 16, 10);
    let stats = core.shutdown().unwrap();
    assert_eq!(stats.ok, 160, "every request succeeds despite the fault");
    assert_eq!(stats.errors, 0);
    assert!(
        stats.degradations >= 1,
        "the injected panic must be visible as a degradation, got {stats:?}"
    );
    // The faulted bucket still answers consistently after recovery.
    for runs in observed.values() {
        for run in runs {
            assert_eq!(run, &runs[0]);
        }
    }
}

#[test]
fn rank_above_the_limit_is_an_error_response_and_the_core_keeps_serving() {
    let core = ServeCore::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let rank5 = "graph r5 f32\ninput x [2, 2, 2, 2, 2]\ny = relu x\noutput y\n";
    match core.submit(CompileRequest {
        id: 5,
        graph: rank5.into(),
        ..CompileRequest::default()
    }) {
        Response::Error { id, message } => {
            assert_eq!(id, 5);
            assert!(
                message.contains("rank 5 exceeds the limit of 4"),
                "{message}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    let ok = core.submit(zoo().remove(0));
    assert!(matches!(ok, Response::Ok(_)), "{ok:?}");
    let stats = core.shutdown().unwrap();
    assert_eq!((stats.errors, stats.ok), (1, 1));
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    use spacefusion::serve::{ServeClient, Server};
    use std::time::Duration;

    let sock = std::env::temp_dir().join(format!("sfc-serve-test-{}.sock", std::process::id()));
    let server = Server::bind(
        &sock,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut client = ServeClient::connect_with_retry(&sock, Duration::from_secs(5)).unwrap();
    let req = CompileRequest {
        id: 7,
        graph: print_graph(&sf_models::subgraphs::softmax(8, 32)),
        seed: 3,
        want_data: true,
        ..CompileRequest::default()
    };
    let first = match client.compile(req.clone()).unwrap() {
        Response::Ok(ok) => {
            assert_eq!(ok.id, 7);
            assert_eq!(ok.cache, CacheOutcome::Miss);
            assert!(!ok.outputs.is_empty());
            assert!(ok.outputs[0].data.is_some(), "want_data inlines bits");
            ok
        }
        other => panic!("unexpected response {other:?}"),
    };
    // A second client sees a bucket hit with identical bits.
    let mut client2 = ServeClient::connect(&sock).unwrap();
    match client2.compile(req).unwrap() {
        Response::Ok(ok) => {
            assert_eq!(ok.cache, CacheOutcome::Hit);
            assert_eq!(
                ok.outputs, first.outputs,
                "bitwise identical across clients"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
    let stats = client2.stats().unwrap();
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.program_compiles, 1);
    client2.shutdown().unwrap();
    let final_stats = daemon.join().unwrap();
    assert_eq!(final_stats.ok, 2);
    assert!(!sock.exists(), "socket file removed at shutdown");
}
