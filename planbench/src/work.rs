//! The three workloads: their inputs, one request each (plain and
//! traced), and the checks and scores of a request's outputs.
//!
//! A request is one analyst session: a fresh `ProtectedKernel`, then the
//! plan(s), then the estimate x̂. Request `idx` draws its kernel seed from
//! the run seed and `idx` alone, so its outputs do not depend on timing.

use std::time::Instant;

use ektelo_core::kernel::{ProtectedKernel, Result as KResult, SourceVar};
use ektelo_data::generators::{census_cps_sized, dpbench_suite, shape_1d, Shape1D, CENSUS_ROWS};
use ektelo_data::workloads::random_range;
use ektelo_data::Table;
use ektelo_matrix::Matrix;
use ektelo_plans::baseline::{plan_greedy_h, plan_h2, plan_hb, plan_identity, plan_privelet};
use ektelo_plans::data_aware::{plan_ahp, plan_dawa};
use ektelo_plans::mwem::{plan_mwem, plan_mwem_variant_d, MwemOptions};
use ektelo_plans::striped::plan_hb_striped;
use ektelo_plans::util::PlanResult;

use crate::recompose::{self, names, Select};
use crate::score::{
    check_beats_uniform, check_estimate, check_ledger, check_marginals, check_noise_free,
    check_nonneg, check_total, max_levels, noise_free_tolerance, CensusTruth, LaplaceMoments,
    RangeTruth, CENSUS_SIZES,
};
use crate::trace::Tracer;

/// ε of every plan a request runs.
pub const EPS: f64 = 0.1;
/// ε of the noise-free check requests made during set-up.
pub const EPS_CHECK: f64 = 1e6;
/// Domain of the 1-D workloads.
pub const N_1D: usize = 4096;
/// Records in each 1-D histogram.
pub const RECORDS_1D: f64 = 1e5;
/// Random range queries of the 1-D workloads.
pub const RANGES_1D: usize = 1000;
/// Request indices at or above this are set-up requests.
const WARM_BASE: u64 = 1 << 40;

pub const NAMES: [&str; 3] = ["census_hb_striped", "mwem_nnls_1d", "sessions_1d"];

pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the datasets. Like the paper's CPS extract and DPBench
/// histograms, each workload's dataset is fixed; `--seed` drives every
/// request's kernel seed (its noise, data-dependent partitions and MWEM
/// selections), so the seed-to-seed spread of a metric is the spread the
/// privacy randomness causes.
const DATA_SEED: u64 = 2018;

fn request_seed(seed: u64, idx: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ idx)
}

fn ranges_of(w: &Matrix) -> Vec<(usize, usize)> {
    match w {
        Matrix::Range(r) => r.ranges().collect(),
        _ => unreachable!("random_range builds a range-query matrix"),
    }
}

/// What a request leaves to be checked: one estimate and one ledger entry
/// (ε given, ε charged, ε still reserved) per plan.
pub struct Estimates {
    pub x_hats: Vec<Vec<f64>>,
    pub ledger: Vec<(f64, f64, f64)>,
}

/// A request's estimates and the session's kernel.
pub struct Output {
    pub est: Estimates,
    pub kernel: ProtectedKernel,
}

/// A request's score: its Table 5 error and, on `sessions_1d`, the
/// Identity plan's noise moments.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scored {
    pub error: f64,
    pub laplace: LaplaceMoments,
}

impl Output {
    fn new(kernel: ProtectedKernel) -> Self {
        Output {
            est: Estimates {
                x_hats: Vec::with_capacity(8),
                ledger: Vec::with_capacity(8),
            },
            kernel,
        }
    }

    /// Records a finished plan given `eps`, with the budget spent before it.
    fn record(&mut self, eps: f64, spent_before: f64, x_hat: Vec<f64>) {
        let k = &self.kernel;
        self.est
            .ledger
            .push((eps, k.budget_spent() - spent_before, k.budget_reserved()));
        self.est.x_hats.push(x_hat);
    }
}

/// An optional tracer: spans are recorded only when one is given.
fn span<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

// ---------------------------------------------------------------------
// census_hb_striped
// ---------------------------------------------------------------------

pub struct Census {
    seed: u64,
    table: Table,
    truth: CensusTruth,
}

impl Census {
    fn setup(seed: u64) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let table = census_cps_sized(CENSUS_ROWS, DATA_SEED);
        let data_ms = t.elapsed().as_secs_f64() * 1e3;
        let names = ["income", "age", "marital", "race", "gender"];
        let cols: Vec<&[u32]> = names.iter().map(|n| table.column(n)).collect();
        let truth = CensusTruth::from_rows(&CENSUS_SIZES, &cols);
        check_marginals(
            &CENSUS_SIZES,
            &ektelo_data::vectorize(&table),
            &truth.marginals,
        )?;
        Ok((Census { seed, table, truth }, data_ms))
    }

    fn request(&self, idx: u64, eps: f64, mut tr: Option<&mut Tracer>) -> KResult<Output> {
        let table = self.table.clone();
        let seed = request_seed(self.seed, idx);
        let t = &mut tr;
        let k = span(t, names::INIT, || ProtectedKernel::init(table, eps, seed));
        let x = span(t, names::VECTORIZE, || k.vectorize(k.root()))?;
        let mut out = Output::new(k);
        let k = &out.kernel;
        let before = k.budget_spent();
        let x_hat = match tr {
            Some(t) => recompose::hb_striped(k, x, &CENSUS_SIZES, 0, eps, t)?,
            None => plan_hb_striped(k, x, &CENSUS_SIZES, 0, eps)?.x_hat,
        };
        out.record(eps, before, x_hat);
        Ok(out)
    }

    fn check(&self, out: &Estimates) -> Result<Scored, String> {
        check_ledger(out.ledger[0].0, out.ledger[0].1, out.ledger[0].2)?;
        let x_hat = &out.x_hats[0];
        check_estimate(x_hat, self.truth.x.len())?;
        let (marg, prefix) = self.truth.errors(x_hat);
        Ok(Scored {
            error: (marg + prefix) / 2.0,
            ..Scored::default()
        })
    }

    fn noise_free_check(&self) -> Result<(), String> {
        let out = self
            .request(WARM_BASE - 1, EPS_CHECK, None)
            .map_err(|e| e.to_string())?;
        let cells = self.truth.x.len();
        let tol = noise_free_tolerance(cells, 2 * cells, max_levels(CENSUS_SIZES[0]), EPS_CHECK);
        check_noise_free(&out.est.x_hats[0], &self.truth.x, tol)
            .map_err(|e| format!("HB-Striped: {e}"))
    }
}

// ---------------------------------------------------------------------
// mwem_nnls_1d
// ---------------------------------------------------------------------

pub struct Mwem1d {
    seed: u64,
    x: Vec<f64>,
    workload: Matrix,
    ranges: Vec<(usize, usize)>,
    truth: RangeTruth,
    uniform_error: f64,
}

impl Mwem1d {
    fn setup(seed: u64) -> (Self, f64) {
        let t = Instant::now();
        let x = shape_1d(Shape1D::Clustered, N_1D, RECORDS_1D, DATA_SEED);
        let workload = random_range(N_1D, RANGES_1D, DATA_SEED);
        let data_ms = t.elapsed().as_secs_f64() * 1e3;
        let ranges = ranges_of(&workload);
        let truth = RangeTruth::new(&ranges, &x);
        let uniform = vec![truth.records / N_1D as f64; N_1D];
        let uniform_error = truth.error(&ranges, &uniform);
        (
            Mwem1d {
                seed,
                x,
                workload,
                ranges,
                truth,
                uniform_error,
            },
            data_ms,
        )
    }

    fn opts(&self) -> MwemOptions {
        MwemOptions {
            rounds: 10,
            total: self.truth.records,
            mw_iterations: 30,
        }
    }

    fn request(&self, idx: u64, mut tr: Option<&mut Tracer>) -> KResult<Output> {
        let data = self.x.clone();
        let seed = request_seed(self.seed, idx);
        let k = span(&mut tr, names::INIT, || {
            ProtectedKernel::init_from_vector(data, EPS, seed)
        });
        let mut out = Output::new(k);
        let k = &out.kernel;
        let x = k.root();
        let opts = self.opts();
        let before = k.budget_spent();
        let x_hat = match tr {
            Some(t) => recompose::mwem(
                k,
                x,
                &self.workload,
                EPS,
                &opts,
                recompose::MWEM_VARIANT_D,
                t,
            )?,
            None => plan_mwem_variant_d(k, x, &self.workload, EPS, &opts)?.x_hat,
        };
        out.record(EPS, before, x_hat);
        Ok(out)
    }

    fn check(&self, out: &Estimates) -> Result<Scored, String> {
        check_ledger(out.ledger[0].0, out.ledger[0].1, out.ledger[0].2)?;
        let x_hat = &out.x_hats[0];
        check_estimate(x_hat, N_1D)?;
        check_nonneg(x_hat)?;
        Ok(Scored {
            error: self.truth.error(&self.ranges, x_hat),
            ..Scored::default()
        })
    }
}

// ---------------------------------------------------------------------
// sessions_1d
// ---------------------------------------------------------------------

/// A plan of a `sessions_1d` request.
#[derive(Clone, Copy, Debug)]
enum SessionPlan {
    Select(Select),
    Ahp,
    Dawa,
    Mwem,
}

/// The eight plans of a `sessions_1d` request, in order.
const SESSION_PLANS: [(&str, SessionPlan); 8] = [
    ("Identity", SessionPlan::Select(Select::Identity)),
    ("H2", SessionPlan::Select(Select::H2)),
    ("HB", SessionPlan::Select(Select::Hb)),
    ("Privelet", SessionPlan::Select(Select::Privelet)),
    ("Greedy-H", SessionPlan::Select(Select::GreedyH)),
    ("AHP", SessionPlan::Ahp),
    ("DAWA", SessionPlan::Dawa),
    ("MWEM", SessionPlan::Mwem),
];

pub struct Sessions {
    seed: u64,
    shapes: Vec<Vec<f64>>,
    truths: Vec<RangeTruth>,
    workload: Matrix,
    ranges: Vec<(usize, usize)>,
}

impl Sessions {
    fn setup(seed: u64) -> (Self, f64) {
        let t = Instant::now();
        let shapes: Vec<Vec<f64>> = dpbench_suite(N_1D, RECORDS_1D, DATA_SEED)
            .into_iter()
            .map(|(_, x)| x)
            .collect();
        let workload = random_range(N_1D, RANGES_1D, DATA_SEED);
        let data_ms = t.elapsed().as_secs_f64() * 1e3;
        let ranges = ranges_of(&workload);
        let truths = shapes.iter().map(|x| RangeTruth::new(&ranges, x)).collect();
        (
            Sessions {
                seed,
                shapes,
                truths,
                workload,
                ranges,
            },
            data_ms,
        )
    }

    fn shape(&self, idx: u64) -> usize {
        (idx % self.shapes.len() as u64) as usize
    }

    /// One plan: its `ektelo_plans` function, or its re-composition
    /// when a tracer is given.
    fn run_plan(
        &self,
        k: &ProtectedKernel,
        plan: SessionPlan,
        opts: &MwemOptions,
        tr: Option<&mut Tracer>,
    ) -> KResult<Vec<f64>> {
        let (x, w, r) = (k.root(), &self.workload, &self.ranges[..]);
        Ok(match (plan, tr) {
            (SessionPlan::Select(s), Some(t)) => recompose::select_measure_ls(k, x, s, r, EPS, t)?,
            (SessionPlan::Select(s), None) => {
                match s {
                    Select::Identity => plan_identity(k, x, EPS)?,
                    Select::H2 => plan_h2(k, x, EPS)?,
                    Select::Hb => plan_hb(k, x, EPS)?,
                    Select::Privelet => plan_privelet(k, x, EPS)?,
                    Select::GreedyH => plan_greedy_h(k, x, w, EPS)?,
                }
                .x_hat
            }
            (SessionPlan::Ahp, Some(t)) => recompose::ahp(k, x, EPS, 0.5, t)?,
            (SessionPlan::Ahp, None) => plan_ahp(k, x, EPS, 0.5)?.x_hat,
            (SessionPlan::Dawa, Some(t)) => recompose::dawa(k, x, r, EPS, 0.25, t)?,
            (SessionPlan::Dawa, None) => plan_dawa(k, x, w, EPS, 0.25)?.x_hat,
            (SessionPlan::Mwem, Some(t)) => {
                recompose::mwem(k, x, w, EPS, opts, recompose::MWEM_ORIGINAL, t)?
            }
            (SessionPlan::Mwem, None) => plan_mwem(k, x, w, EPS, opts)?.x_hat,
        })
    }

    fn request(&self, idx: u64, mut tr: Option<&mut Tracer>) -> KResult<Output> {
        let s = self.shape(idx);
        let data = self.shapes[s].clone();
        let seed = request_seed(self.seed, idx);
        // Eight plans at ε 0.1 each; the session budget leaves room for
        // the rounding of their budget splits.
        let k = span(&mut tr, names::INIT, || {
            ProtectedKernel::init_from_vector(data, 1.0, seed)
        });
        let mut out = Output::new(k);
        let opts = MwemOptions {
            rounds: 10,
            total: self.truths[s].records,
            mw_iterations: 30,
        };
        for (_, plan) in SESSION_PLANS {
            let before = out.kernel.budget_spent();
            let x_hat = self.run_plan(&out.kernel, plan, &opts, tr.as_deref_mut())?;
            out.record(EPS, before, x_hat);
        }
        Ok(out)
    }

    fn check(&self, idx: u64, out: &Estimates) -> Result<Scored, String> {
        let s = self.shape(idx);
        let x = &self.shapes[s];
        let mut error = 0.0;
        let mut laplace = LaplaceMoments::default();
        if out.x_hats.len() != SESSION_PLANS.len() {
            return Err(format!("{} estimates for 8 plans", out.x_hats.len()));
        }
        for ((name, plan), (x_hat, &(given, charged, reserved))) in
            SESSION_PLANS.iter().zip(out.x_hats.iter().zip(&out.ledger))
        {
            let tag = |e: String| format!("{name}: {e}");
            check_ledger(given, charged, reserved).map_err(tag)?;
            check_estimate(x_hat, N_1D).map_err(tag)?;
            match plan {
                SessionPlan::Select(Select::Identity) => laplace.add(EPS, x_hat, x),
                SessionPlan::Mwem => {
                    check_nonneg(x_hat).map_err(tag)?;
                    check_total(x_hat, self.truths[s].records).map_err(tag)?;
                }
                _ => {}
            }
            error += self.truths[s].error(&self.ranges, x_hat);
        }
        Ok(Scored {
            error: error / SESSION_PLANS.len() as f64,
            laplace,
        })
    }

    /// Identity, H2, HB and Privelet at a very large ε reproduce x.
    fn noise_free_check(&self) -> Result<(), String> {
        let x = &self.shapes[0];
        type Plan = fn(&ProtectedKernel, SourceVar, f64) -> PlanResult;
        let plans: [(&str, Plan); 4] = [
            ("Identity", plan_identity),
            ("H2", plan_h2),
            ("HB", plan_hb),
            ("Privelet", plan_privelet),
        ];
        let tol = noise_free_tolerance(N_1D, 2 * N_1D, max_levels(N_1D), EPS_CHECK);
        for (i, (name, plan)) in plans.into_iter().enumerate() {
            let k = ProtectedKernel::init_from_vector(
                x.clone(),
                EPS_CHECK,
                request_seed(self.seed, WARM_BASE - 1 - i as u64),
            );
            let x_hat = plan(&k, k.root(), EPS_CHECK)
                .map_err(|e| format!("{name}: {e}"))?
                .x_hat;
            check_noise_free(&x_hat, x, tol).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

pub enum Workload {
    Census(Census),
    Mwem(Mwem1d),
    Sessions(Sessions),
}

impl Workload {
    /// Builds the inputs and true answers and runs the set-up checks;
    /// returns the workload and its data-generation time in ms.
    pub fn setup(name: &str, seed: u64) -> Result<(Self, f64), String> {
        Ok(match name {
            "census_hb_striped" => {
                let (w, ms) = Census::setup(seed)?;
                (Workload::Census(w), ms)
            }
            "mwem_nnls_1d" => {
                let (w, ms) = Mwem1d::setup(seed);
                (Workload::Mwem(w), ms)
            }
            "sessions_1d" => {
                let (w, ms) = Sessions::setup(seed);
                (Workload::Sessions(w), ms)
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {NAMES:?}"
                ))
            }
        })
    }

    /// Requests per round; a run attempts whole rounds.
    pub fn round(&self) -> u64 {
        match self {
            Workload::Sessions(_) => 10,
            _ => 2,
        }
    }

    /// The first `scored()` requests make up `scaled_error`; a run makes
    /// at least that many (a whole number of rounds).
    pub fn scored(&self) -> u64 {
        match self {
            Workload::Census(_) => 8,
            Workload::Mwem(_) => 40,
            Workload::Sessions(_) => 100,
        }
    }

    /// Request `idx`; spans are recorded when a tracer is given, and the
    /// plan is then the re-composition from operator calls.
    pub fn request(&self, idx: u64, tr: Option<&mut Tracer>) -> KResult<Output> {
        match self {
            Workload::Census(w) => w.request(idx, EPS, tr),
            Workload::Mwem(w) => w.request(idx, tr),
            Workload::Sessions(w) => w.request(idx, tr),
        }
    }

    /// Checks a request's outputs and scores them.
    pub fn check(&self, idx: u64, out: &Estimates) -> Result<Scored, String> {
        match self {
            Workload::Census(w) => w.check(out),
            Workload::Mwem(w) => w.check(out),
            Workload::Sessions(w) => w.check(idx, out),
        }
    }

    /// Set-up passes per run; `setup_s` is their median. The 1-D set-ups
    /// are short, so they get more passes.
    pub fn setup_passes(&self) -> usize {
        match self {
            Workload::Census(_) => 3,
            _ => 5,
        }
    }

    /// Set-up requests: the noise-free check, then ordinary requests that
    /// fill the caches (four of the short `sessions_1d` ones, else one);
    /// each is checked.
    pub fn warm_up(&self) -> Result<(), String> {
        let ordinary = match self {
            Workload::Census(w) => {
                w.noise_free_check()?;
                1
            }
            Workload::Sessions(w) => {
                w.noise_free_check()?;
                4
            }
            Workload::Mwem(_) => 1,
        };
        for i in 0..ordinary {
            let idx = WARM_BASE + i;
            let out = self.request(idx, None).map_err(|e| e.to_string())?;
            self.check(idx, &out.est)?;
        }
        Ok(())
    }

    /// Checks over all of a run's requests, in index order.
    pub fn final_check(&self, scores: &[Scored]) -> Result<(), String> {
        match self {
            Workload::Census(_) => Ok(()),
            Workload::Mwem(w) => {
                let mean = scores.iter().map(|s| s.error).sum::<f64>() / scores.len() as f64;
                check_beats_uniform(mean, w.uniform_error)
            }
            Workload::Sessions(_) => {
                let mut m = LaplaceMoments::default();
                for s in scores {
                    m.merge(&s.laplace);
                }
                m.check().map_err(|e| format!("Identity noise: {e}"))
            }
        }
    }
}
