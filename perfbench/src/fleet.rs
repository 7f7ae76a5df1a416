//! The `serve_fleet` workload: fleets of 12 `TenantSpec::quick` tenants,
//! every second one under the `bursty` scenario, served in rounds through
//! `Server::run` at batch width 8 on 2 runtime threads. The resident
//! budget holds half the fleet, so every round evicts and rehydrates.
//!
//! The traced run replays each fleet through the public phase API with
//! every session saved and loaded each round, times each call, and checks
//! that the replay ends on the same session bytes as `Server::run`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deco::{DecoPhase, PreparedSegment};
use deco_condense::{match_jobs_parallel, BatchMatchJob};
use deco_datasets::SyntheticVision;
use deco_eval::DatasetId;
use deco_scenarios::Bursty;
use deco_serve::{ScenarioConfig, Server, ServerConfig, SessionState, TenantSession, TenantSpec};

use crate::ledger::{
    self, Ledger, APPLY, BUILD, COMPLETE, CONDENSE, LOAD, MATCH, PREPARE, RENDER, SAVE,
    TENANT_BUILD, TRAIN,
};
use crate::RunRecord;

/// Runtime threads the merged match dispatch fans out over.
pub const THREADS: usize = 2;
/// Tenants per fleet.
const TENANTS: u64 = 12;
/// Tenants whose jobs merge into one dispatch.
const BATCH: usize = 8;
/// Segments per tenant, one per round. Round 0 builds every tenant on
/// first touch and is the fleet's set-up.
const ROUNDS: usize = 8;
/// Test images per class for the final accuracy.
const TEST_PER_CLASS: usize = 20;
/// Fleets whose tenants make up the accuracy metric. A run always serves
/// at least this many.
const ACCURACY_FLEETS: usize = 3;

/// The tenants of fleet `f` of a run.
fn fleet_specs(data: &SyntheticVision, seed: u64, f: usize) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|id| {
            let tenant_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((f as u64) << 32 | id);
            let spec = TenantSpec::quick(id, tenant_seed, data.spec(), ROUNDS);
            if id % 2 == 1 {
                spec.with_scenario(ScenarioConfig::Bursty(Bursty::default()))
            } else {
                spec
            }
        })
        .collect()
}

/// Serves fleets until `budget` has passed and at least
/// [`ACCURACY_FLEETS`] are done. Untraced, the phase replay of the first
/// fleet runs once afterwards as the correctness check; traced, every
/// fleet is replayed and the replay is the per-layer ledger.
pub fn run(seed: u64, budget: Duration, traced: bool, scratch: &Path) -> RunRecord {
    deco_runtime::with_thread_count(THREADS, || {
        let data = DatasetId::Core50.build();
        let test = data.test_set(TEST_PER_CLASS);
        let spill = scratch.join("spill");
        let replay_dir = scratch.join("replay");
        std::fs::create_dir_all(&replay_dir).expect("scratch directory is writable");
        let one_tenant = TenantSession::new(fleet_specs(&data, seed, 0).remove(0), &data);
        let budget_bytes = (TENANTS / 2) * one_tenant.resident_bytes();

        let mut rec = RunRecord::default();
        let mut ledger = Ledger::default();
        let mut first_fleet = None;
        let start = Instant::now();
        let mut f = 0;
        while f < ACCURACY_FLEETS || start.elapsed() < budget {
            let specs = fleet_specs(&data, seed, f);
            let served = serve(&data, &specs, budget_bytes, &spill, &mut rec, &mut ledger);
            if let Some(states) = &served {
                rec.state_bytes
                    .extend(states.iter().map(|s| s.serialized_bytes() as u64));
                if f < ACCURACY_FLEETS {
                    for (spec, state) in specs.iter().zip(states) {
                        let tenant = TenantSession::from_state(spec.clone(), &data, state);
                        rec.accuracy.push(tenant.learner().evaluate(&test));
                    }
                }
            }
            if traced {
                let ok = replay_matches(&data, &specs, served.as_deref(), &replay_dir, &mut ledger);
                rec.check("phase_replay_equals_server_run", ok);
            } else if f == 0 {
                first_fleet = Some((specs, served));
            }
            f += 1;
        }
        if let Some((specs, served)) = first_fleet {
            let mut untimed = Ledger::default();
            let ok = replay_matches(&data, &specs, served.as_deref(), &replay_dir, &mut untimed);
            rec.check("phase_replay_equals_server_run", ok);
        }
        if traced {
            let mut probe = Ledger::default();
            let specs = fleet_specs(&data, seed, 0);
            ledger::with_tape_accounting(|| replay(&data, &specs, &replay_dir, &mut probe));
            ledger.tape_peak_bytes = probe.tape_peak_bytes;
            let untraced_items_per_s = rec.items as f64 / rec.steady.as_secs_f64();
            rec.layers = ledger.metrics(untraced_items_per_s);
            rec.traced_segments = ledger.segments;
        }
        rec
    })
}

/// Serves one fleet through `Server::run`, one round per segment, and
/// returns every tenant's final session; `None` if a round panicked.
fn serve(
    data: &SyntheticVision,
    specs: &[TenantSpec],
    budget_bytes: u64,
    spill: &Path,
    rec: &mut RunRecord,
    ledger: &mut Ledger,
) -> Option<Vec<SessionState>> {
    let config = ServerConfig::new(spill.to_path_buf())
        .with_budget(Some(budget_bytes))
        .with_batch_tenants(BATCH);
    let mut server = Server::new(data, config);
    for spec in specs {
        server.admit(spec.clone());
    }
    let offered = TENANTS * ROUNDS as u64;
    rec.attempted += offered;
    let mut served = 0;
    for round in 0..ROUNDS {
        for spec in specs {
            server.submit(spec.id, 1);
        }
        let t = Instant::now();
        let events = catch_unwind(AssertUnwindSafe(|| server.run()));
        let wall = t.elapsed();
        let Ok(events) = events else {
            rec.failed += offered - served;
            return None;
        };
        served += events.len() as u64;
        if round == 0 {
            rec.setup_s.push(wall.as_secs_f64());
        } else {
            rec.steady += wall;
            for event in &events {
                rec.segment_ms.push(event.batch_seconds * 1e3);
                rec.items += event.report.segment_len as u64;
            }
        }
    }
    rec.failed += offered - served;
    ledger.rounds += ROUNDS as u64;
    ledger.evictions += server.evictions();
    ledger.rehydrations += server.rehydrations();
    Some(specs.iter().map(|s| server.state_of(s.id)).collect())
}

/// Replays the fleet through the phase API and compares the final
/// session bytes with those `Server::run` produced.
fn replay_matches(
    data: &SyntheticVision,
    specs: &[TenantSpec],
    served: Option<&[SessionState]>,
    dir: &Path,
    ledger: &mut Ledger,
) -> bool {
    let Some(served) = served else {
        return false;
    };
    let Ok(replayed) = catch_unwind(AssertUnwindSafe(|| replay(data, specs, dir, ledger))) else {
        return false;
    };
    replayed.len() == served.len()
        && replayed
            .iter()
            .zip(served)
            .all(|(r, s)| r.to_bytes() == s.to_bytes())
}

fn session_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("tenant-{id}.dsrv"))
}

/// The rounds of `Server::run` through the public phase API, batch by
/// batch in the server's order, with every session loaded before and
/// saved after its batch. Returns the final sessions.
fn replay(
    data: &SyntheticVision,
    specs: &[TenantSpec],
    dir: &Path,
    ledger: &mut Ledger,
) -> Vec<SessionState> {
    let start = Instant::now();
    let pool_before = deco_tensor::pool::stats();
    let allocs_before = ledger::allocations();
    for round in 0..ROUNDS {
        let round_start = Instant::now();
        let voted_before = ledger.voted;
        for batch in specs.chunks(BATCH) {
            let batch_start = Instant::now();
            let match_before = ledger.busy(MATCH);
            let mut sessions: Vec<TenantSession> = batch
                .iter()
                .map(|spec| {
                    if round == 0 {
                        ledger.time(TENANT_BUILD, || TenantSession::new(spec.clone(), data))
                    } else {
                        ledger.time(LOAD, || {
                            let state = SessionState::load(&session_path(dir, spec.id))
                                .expect("replayed session file is readable");
                            TenantSession::from_state(spec.clone(), data, &state)
                        })
                    }
                })
                .collect();
            step_batch(data, &mut sessions, ledger);
            ledger.note_tape_peak();
            ledger.serial += batch_start
                .elapsed()
                .saturating_sub(ledger.busy(MATCH) - match_before);
            for session in &sessions {
                ledger.time(SAVE, || {
                    session
                        .state()
                        .save(&session_path(dir, session.spec().id))
                        .expect("replay directory is writable")
                });
            }
        }
        if round > 0 {
            ledger.steady += round_start.elapsed();
            ledger.steady_items += ledger.voted - voted_before;
        }
    }
    ledger.allocs += ledger::allocations() - allocs_before;
    ledger.add_pool_since(pool_before);
    ledger.wall += start.elapsed();
    let finals: Vec<SessionState> = specs
        .iter()
        .map(|spec| {
            SessionState::load(&session_path(dir, spec.id))
                .expect("replayed session file is readable")
        })
        .collect();
    ledger.session_bytes += finals
        .iter()
        .map(|s| s.serialized_bytes() as u64)
        .sum::<u64>();
    ledger.sessions += finals.len() as u64;
    finals
}

/// One lockstep batch, the phases of the server's batch step: pull,
/// pseudo-label and vote per tenant; condensation rounds whose jobs from
/// every tenant merge into one `match_jobs_parallel` dispatch; then
/// segment completion in tenant order.
fn step_batch(data: &SyntheticVision, sessions: &mut [TenantSession], ledger: &mut Ledger) {
    struct Active {
        idx: usize,
        prepared: PreparedSegment,
        phase: DecoPhase,
        remaining: usize,
    }
    let mut active: Vec<Active> = Vec::new();
    let mut finished: Vec<(usize, PreparedSegment)> = Vec::new();
    for (idx, session) in sessions.iter_mut().enumerate() {
        let Some(segment) = ledger.time(RENDER, || session.next_segment(data)) else {
            continue;
        };
        let prepared = ledger.time(PREPARE, || session.learner().prepare_segment(&segment));
        ledger.voted += segment.len() as u64;
        ledger.kept += prepared.kept() as u64;
        match ledger.time(BUILD, || {
            session.learner_mut().deco_begin_segment(&prepared)
        }) {
            Some(phase) => active.push(Active {
                idx,
                remaining: phase.iterations,
                prepared,
                phase,
            }),
            None => {
                ledger.time(CONDENSE, || {
                    session.learner_mut().condense_prepared(&prepared)
                });
                finished.push((idx, prepared));
            }
        }
    }

    while active.iter().any(|a| a.remaining > 0) {
        let mut jobs: Vec<BatchMatchJob> = Vec::new();
        let mut slices = Vec::new();
        for (ai, a) in active.iter().enumerate() {
            if a.remaining == 0 {
                continue;
            }
            let built = ledger.time(BUILD, || {
                sessions[a.idx]
                    .learner_mut()
                    .deco_build_iteration(&a.prepared)
            });
            let params = Arc::new(built.params);
            let lo = jobs.len();
            jobs.extend(built.jobs.into_iter().map(|job| BatchMatchJob {
                config: built.config,
                params: Arc::clone(&params),
                job,
                epsilon_scale: built.epsilon_scale,
            }));
            slices.push((ai, lo..jobs.len(), built.rows_list));
        }
        ledger.dispatches += 1;
        ledger.jobs += jobs.len() as u64;
        let results = ledger.time(MATCH, || match_jobs_parallel(jobs));
        for (ai, range, rows_list) in slices {
            let a = &mut active[ai];
            ledger.time(APPLY, || {
                sessions[a.idx].learner_mut().deco_apply_iteration(
                    &a.phase,
                    &rows_list,
                    &results[range],
                )
            });
            a.remaining -= 1;
        }
    }

    finished.extend(active.into_iter().map(|a| (a.idx, a.prepared)));
    finished.sort_by_key(|(idx, _)| *idx);
    for (idx, prepared) in finished {
        let t = Instant::now();
        let report = sessions[idx].learner_mut().complete_segment(prepared);
        ledger.add(
            if report.model_updated {
                TRAIN
            } else {
                COMPLETE
            },
            t.elapsed(),
        );
        ledger.segments += 1;
    }
}
