//! Self-tests of the benchmark's workloads: they are reproducible, they
//! reach the layers they are meant to reach, and at two requests in flight
//! under the default admission settings nothing is rejected or degraded.
//!
//! Rounds are served in-process by `AnalysisService::serve` over pipes, with
//! the daemon's benchmark configuration, and driven by the same closed loop
//! the benchmark drives the real daemon with. Rounds are cut short to keep
//! the tests quick.

use cpsdfa_core::cache::ArenaDigests;
use cpsdfa_service::proto::{Served, Status};
use cpsdfa_service::{AnalysisService, ServiceConfig};
use cpsdfa_syntax::arena::TermArena;
use perfbench::daemon::{closed_loop, Reply};
use perfbench::replay::Replay;
use perfbench::solve::references;
use perfbench::workload::{Plan, Workload, CLIENTS};
use std::collections::HashSet;
use std::io::BufReader;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The daemon as the benchmark starts it, in-process: two workers, the
/// default admission settings, a persist dir, every answer certified.
fn service(persist: &Path) -> AnalysisService {
    AnalysisService::new(ServiceConfig {
        workers: 2,
        persist_dir: Some(persist.to_owned()),
        certify_sample: 1,
        ..ServiceConfig::default()
    })
}

/// Serves `lines` to closed-loop clients over pipes, as the daemon serves
/// them over stdin and stdout.
fn serve(service: &AnalysisService, lines: &[String], clients: &[usize]) -> Vec<Reply> {
    let (requests_in, mut requests_out) = std::io::pipe().expect("pipe");
    let (replies_in, replies_out) = std::io::pipe().expect("pipe");
    std::thread::scope(|scope| {
        let server =
            scope.spawn(move || service.serve(BufReader::new(requests_in), replies_out, None));
        let out = closed_loop(
            &mut requests_out,
            &mut BufReader::new(replies_in),
            lines,
            clients,
        )
        .expect("closed loop");
        drop(requests_out);
        server.join().expect("server thread").expect("serve");
        out.replies
    })
}

fn serve_round(service: &AnalysisService, plan: &Plan) -> Vec<Reply> {
    let clients: Vec<usize> = plan.stream.iter().map(|r| r.client).collect();
    serve(service, &plan.lines(), &clients)
}

/// Every reply is an undegraded answer equal to the reference; returns how
/// each was served.
fn check_answers(plan: &Plan, replies: &[Reply]) -> Vec<Served> {
    let refs = references(&plan.programs, 2).expect("references");
    replies
        .iter()
        .zip(&plan.stream)
        .map(|(reply, req)| match &reply.response.status {
            Status::Ok {
                cache,
                degraded,
                answer_digest,
                ..
            } => {
                assert!(!degraded, "degraded: {:?}", reply.response);
                assert_eq!(*answer_digest, refs[req.program].digest, "wrong answer");
                cache.clone()
            }
            other => panic!("request {} not answered: {other:?}", reply.response.id),
        })
        .collect()
}

fn replay(plan: &Plan, dir: &Path) -> Replay {
    let expected: Vec<u64> = references(&plan.programs, 2)
        .expect("references")
        .iter()
        .map(|r| r.digest)
        .collect();
    let mut replay = Replay::open(dir, true).expect("replay");
    replay.run(plan, &expected);
    assert_eq!(replay.counts.wrong, 0, "replayed answers differ");
    replay
}

#[test]
fn the_same_seed_gives_the_same_request_lines() {
    for w in Workload::ALL {
        assert_eq!(w.plan(7).lines(), w.plan(7).lines(), "{}", w.name());
        assert_ne!(w.plan(7).lines(), w.plan(8).lines(), "{}", w.name());
    }
}

#[test]
fn cold_miss_programs_have_distinct_digests() {
    let plan = Workload::ColdMiss.plan(3);
    assert!(plan.stream.len() >= 1000);
    let (mut arena, mut digests) = (TermArena::new(), ArenaDigests::new());
    let keys: HashSet<_> = plan
        .stream
        .iter()
        .map(|r| {
            let p = &plan.programs[r.program];
            let root = arena.parse(&p.source).expect("generated programs parse");
            (p.kind, digests.term_digest(&arena, root))
        })
        .collect();
    assert_eq!(keys.len(), plan.stream.len());
}

#[test]
fn cold_miss_misses_every_request_and_certifies_nothing() {
    let mut plan = Workload::ColdMiss.plan(4);
    plan.stream.truncate(24);
    let dir = scratch("cold");
    let served = check_answers(&plan, &serve_round(&service(&dir.join("serve")), &plan));
    assert!(served.iter().all(|s| *s == Served::Miss), "{served:?}");
    let counts = replay(&plan, &dir.join("replay")).counts;
    assert_eq!((counts.hits, counts.certify_calls), (0, 0));
    assert_eq!(counts.warm_attempts, 0);
    assert_eq!(counts.solves, 24);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zipf_hot_hits_every_request_after_priming() {
    let mut plan = Workload::ZipfHot.plan(5);
    plan.stream.truncate(40);
    let dir = scratch("zipf");
    let primer = service(&dir);
    let clients: Vec<usize> = (0..plan.prime.len()).map(|i| i % CLIENTS).collect();
    serve(&primer, &plan.prime_lines(), &clients);
    drop(primer);
    let served = check_answers(&plan, &serve_round(&service(&dir), &plan));
    assert!(served.iter().all(|s| *s == Served::Hit), "{served:?}");
    let counts = replay(&plan, &dir).counts;
    assert_eq!(counts.recovered, plan.prime.len() as u64);
    assert_eq!((counts.hits, counts.solves), (40, 0));
    assert_eq!(counts.warm_attempts, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_edit_mixes_warm_answers_and_cold_fallbacks() {
    let mut plan = Workload::WatchEdit.plan(9);
    // Four steps of every session: a base and three edits.
    let sessions = plan.stream.iter().filter_map(|r| r.session).max().unwrap() as usize;
    plan.stream.truncate(4 * sessions);
    let dir = scratch("watch");
    let served = check_answers(&plan, &serve_round(&service(&dir.join("serve")), &plan));
    let later = &served[sessions..];
    assert!(later.contains(&Served::Warm), "{served:?}");
    assert!(later.contains(&Served::Miss), "{served:?}");
    let counts = replay(&plan, &dir.join("replay")).counts;
    assert!(counts.warm_answers > 0 && counts.warm_answers < counts.warm_eligible);
    assert!(counts.warm_attempts > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
