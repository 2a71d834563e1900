//! Concurrency stress: the seven bundled cases synthesized through the
//! service from eight client threads must come out DRC-clean and
//! byte-identical to serial synthesis, and a second identical wave must
//! be served entirely from the content-addressed cache.

mod common;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use columba_s::{Columba, Netlist};
use columba_service::{ExportKind, JobId, JobState, Service, ServiceConfig, TraceKind};

const CLIENTS: usize = 8;

fn submit_with_backoff(service: &Service, text: &str) -> JobId {
    loop {
        match service.submit_text(text) {
            Ok(id) => return id,
            Err(e) => {
                // backpressure is expected under burst load; retry
                assert!(
                    matches!(e, columba_service::SubmitError::QueueFull { .. }),
                    "unexpected rejection: {e}"
                );
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn concurrent_waves_match_serial_synthesis_and_second_wave_hits_cache() {
    let cases = common::bundled_cases();
    assert_eq!(cases.len(), 7, "the repo bundles seven cases");
    let options = common::deterministic_options();
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        options: options.clone(),
        job_deadline: None,
        ..ServiceConfig::default()
    }));

    // wave 1: eight clients race over a shared work list of the seven
    // distinct cases
    let work: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(cases.clone()));
    let submitted: Arc<Mutex<HashMap<String, JobId>>> = Arc::new(Mutex::new(HashMap::new()));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let work = Arc::clone(&work);
            let submitted = Arc::clone(&submitted);
            let service = Arc::clone(&service);
            thread::spawn(move || loop {
                let Some((name, text)) = work.lock().expect("work list lock").pop() else {
                    return;
                };
                let id = submit_with_backoff(&service, &text);
                submitted.lock().expect("id map lock").insert(name, id);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let submitted = Arc::try_unwrap(submitted)
        .expect("clients joined")
        .into_inner()
        .expect("id map lock");
    assert_eq!(submitted.len(), 7);
    for (name, &id) in &submitted {
        let status = service
            .wait(id, Duration::from_secs(600))
            .expect("job known");
        assert_eq!(status.state, JobState::Done, "{name}: {:?}", status.error);
        assert!(!status.from_cache, "{name}: wave 1 must actually solve");
        let design = status.design.expect("done jobs carry the design");
        assert!(design.summary.drc_clean, "{name}: design failed DRC");
    }

    // every service result is byte-identical to synthesizing the same
    // case serially under the same options
    let serial = Columba::with_options(options);
    for (name, text) in &cases {
        let netlist = Netlist::parse(text).expect("bundled cases parse");
        let baseline = serial
            .synthesize_resilient(&netlist, None)
            .unwrap_or_else(|e| panic!("{name}: serial synthesis failed: {e}"));
        let id = submitted[name];
        let design = service.export(id, ExportKind::Svg).expect("design ready");
        assert_eq!(
            design.svg,
            baseline.outcome.to_svg().expect("in-memory render"),
            "{name}: service SVG differs from serial synthesis"
        );
        assert_eq!(
            design.scr,
            baseline
                .outcome
                .to_autocad_script()
                .expect("in-memory render"),
            "{name}: service SCR differs from serial synthesis"
        );
    }

    // wave 2: every client submits every case; all 56 must be cache hits
    let wave2: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let service = Arc::clone(&service);
            let cases = cases.clone();
            thread::spawn(move || {
                cases
                    .iter()
                    .map(|(name, text)| (name.clone(), submit_with_backoff(&service, text)))
                    .collect::<Vec<(String, JobId)>>()
            })
        })
        .collect();
    let mut wave2_ids = Vec::new();
    for client in wave2 {
        for (name, id) in client.join().expect("client thread") {
            wave2_ids.push(id);
            let status = service
                .wait(id, Duration::from_secs(600))
                .expect("job known");
            assert_eq!(status.state, JobState::Done, "{name}: {:?}", status.error);
            assert!(
                status.from_cache,
                "{name}: wave 2 must be served from the cache"
            );
        }
    }

    let m = service.metrics();
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.jobs_done, 7 + 7 * CLIENTS);
    assert_eq!(m.cache.misses, 7, "one miss per distinct case");
    assert_eq!(m.cache.hits, (7 * CLIENTS) as u64);
    service.shutdown();
    // the job logs hold one solved event per distinct case and a cache
    // hit for every wave-2 job
    let count = |kind: TraceKind| {
        submitted
            .values()
            .chain(&wave2_ids)
            .flat_map(|&id| service.job_events(id).expect("known job"))
            .filter(|e| e.kind == kind)
            .count()
    };
    assert_eq!(count(TraceKind::Solved), 7);
    assert_eq!(count(TraceKind::CacheHit), 7 * CLIENTS);
}
