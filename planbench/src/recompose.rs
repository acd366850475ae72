//! The benchmark's plans re-composed from the public operator calls the
//! plan functions make, with a span around every call.
//!
//! Each function issues the same kernel calls in the same order as its
//! `ektelo_plans` counterpart (graph plans: pre-account, reserve, the
//! node calls with every charge redeemed from the reservation, release),
//! so for the same kernel seed it returns the same x̂ bit for bit. The
//! benchmark checks that on every traced request. What is left between
//! spans — spec building, measurement-log copies, strategy glue — is the
//! request's unattributed time.

use ektelo_core::kernel::{ProtectedKernel, Result, SourceVar};
use ektelo_core::ops::graph::{
    mwem_augment_with_level, mwem_row_strategy, MwemLoopOp, MwemRoundInference, PlanBuilder,
    PlanSpec,
};
use ektelo_core::ops::inference::{
    known_total_measurement, least_squares, mult_weights_inference,
    non_negative_least_squares_opts, relative_total_scale, LsSolver,
};
use ektelo_core::ops::partition::{
    ahp_partition, dawa_partition, interval_partition_bounds, map_ranges_to_buckets,
    stripe_partition, AhpOptions, DawaOptions,
};
use ektelo_core::ops::selection::{self, greedy_h, worst_approx};
use ektelo_matrix::Matrix;
use ektelo_plans::mwem::MwemOptions;
use ektelo_plans::util::split_budget;
use ektelo_solvers::NnlsOptions;

use crate::trace::Tracer;

/// Span names, one per layer metric.
pub mod names {
    pub const INIT: &str = "kernel.init";
    pub const VECTORIZE: &str = "kernel.vectorize";
    pub const SPLIT: &str = "kernel.split";
    pub const REDUCE: &str = "kernel.reduce";
    pub const RESERVE: &str = "kernel.reserve";
    pub const MEASURE: &str = "kernel.measure";
    pub const PRE_ACCOUNT: &str = "graph.pre_account";
    pub const STRIPE: &str = "partition.stripe";
    pub const DATA_AWARE: &str = "partition.data_aware";
    pub const SEL_IDENTITY: &str = "selection.identity";
    pub const SEL_HIER: &str = "selection.hier";
    pub const SEL_PRIVELET: &str = "selection.privelet";
    pub const SEL_GREEDY_H: &str = "selection.greedy_h";
    pub const SEL_WORST: &str = "selection.worst_approx";
    pub const LSQR: &str = "inference.lsqr";
    pub const NNLS: &str = "inference.nnls";
    pub const MW: &str = "inference.mw";

    /// Every span name a traced request can record, in report order.
    pub const ALL: [&str; 17] = [
        INIT,
        VECTORIZE,
        SPLIT,
        REDUCE,
        RESERVE,
        MEASURE,
        PRE_ACCOUNT,
        STRIPE,
        DATA_AWARE,
        SEL_IDENTITY,
        SEL_HIER,
        SEL_PRIVELET,
        SEL_GREEDY_H,
        SEL_WORST,
        LSQR,
        NNLS,
        MW,
    ];
}
use names::*;

/// The selection node of a `select → LM → LS` graph plan.
#[derive(Clone, Copy, Debug)]
pub enum Select {
    Identity,
    H2,
    Hb,
    Privelet,
    GreedyH,
}

fn ls(kernel: &ProtectedKernel, start: usize, tr: &mut Tracer) -> Vec<f64> {
    let ms = kernel.measurements_since(start);
    tr.span(LSQR, || least_squares(&ms, LsSolver::Iterative))
}

/// Pre-accounts `spec` and reserves its cost for input `x`, exactly as
/// `PlanExecutor::run` does.
fn admit<'k>(
    kernel: &'k ProtectedKernel,
    spec: &PlanSpec,
    x: SourceVar,
    tr: &mut Tracer,
) -> Result<ektelo_core::kernel::BudgetReservation<'k>> {
    let cost = tr.span(PRE_ACCOUNT, || spec.pre_account())?;
    let path = kernel.stability_to_root(x);
    tr.span(RESERVE, || kernel.reserve_budget(cost.total * path))
}

/// Plans #1–#5: `S· LM LS` through the graph executor's call sequence.
pub fn select_measure_ls(
    kernel: &ProtectedKernel,
    x: SourceVar,
    sel: Select,
    ranges: &[(usize, usize)],
    eps: f64,
    tr: &mut Tracer,
) -> Result<Vec<f64>> {
    let spec = {
        let mut b = PlanBuilder::new();
        let input = b.input();
        let s = match sel {
            Select::Identity => b.select_identity(input),
            Select::H2 => b.select_h2(input),
            Select::Hb => b.select_hb(input),
            Select::Privelet => b.select_privelet(input),
            Select::GreedyH => b.select_greedy_h(input, ranges),
        };
        b.measure_laplace(input, s, eps);
        let e = b.infer_least_squares(LsSolver::Iterative);
        b.finish(e)
    };
    let res = admit(kernel, &spec, x, tr)?;
    let start = kernel.measurement_count();
    let n = kernel.vector_len(x)?;
    let m = match sel {
        Select::Identity => tr.span(SEL_IDENTITY, || selection::identity(n)),
        Select::H2 => tr.span(SEL_HIER, || selection::h2(n)),
        Select::Hb => tr.span(SEL_HIER, || selection::hb(n)),
        Select::Privelet => tr.span(SEL_PRIVELET, || selection::privelet(n)),
        Select::GreedyH => tr.span(SEL_GREEDY_H, || greedy_h(n, ranges)),
    };
    tr.span(MEASURE, || res.vector_laplace(x, &m, eps))?;
    let x_hat = ls(kernel, start, tr);
    tr.span(RESERVE, || drop(res));
    Ok(x_hat)
}

/// Plan #15, HB-Striped: `PS TP[ SHB LM ] LS`.
pub fn hb_striped(
    kernel: &ProtectedKernel,
    x: SourceVar,
    sizes: &[usize],
    attr: usize,
    eps: f64,
    tr: &mut Tracer,
) -> Result<Vec<f64>> {
    let spec = {
        let mut b = PlanBuilder::new();
        let input = b.input();
        let p = b.partition_stripes(sizes, attr);
        let stripes = b.transform_split(input, p);
        let s = b.select_hb_shared(stripes);
        b.measure_laplace_batch_shared(stripes, s, eps);
        let e = b.infer_least_squares(LsSolver::Iterative);
        b.finish(e)
    };
    let res = admit(kernel, &spec, x, tr)?;
    let start = kernel.measurement_count();
    let p = tr.span(STRIPE, || stripe_partition(sizes, attr));
    let stripes = tr.span(SPLIT, || kernel.split_by_partition(x, &p))?;
    let n = kernel.vector_len(stripes[0])?;
    let m = tr.span(SEL_HIER, || selection::hb(n));
    let reqs: Vec<(SourceVar, &Matrix, f64)> = stripes.iter().map(|&sv| (sv, &m, eps)).collect();
    tr.span(MEASURE, || res.vector_laplace_batch(&reqs))?;
    let x_hat = ls(kernel, start, tr);
    tr.span(RESERVE, || drop(res));
    Ok(x_hat)
}

/// Plan #8, AHP (imperative): `PA TR SI LM LS`.
pub fn ahp(
    kernel: &ProtectedKernel,
    x: SourceVar,
    eps: f64,
    rho: f64,
    tr: &mut Tracer,
) -> Result<Vec<f64>> {
    let shares = split_budget(eps, &[rho, 1.0 - rho]);
    let start = kernel.measurement_count();
    let p = tr.span(DATA_AWARE, || {
        ahp_partition(kernel, x, shares[0], &AhpOptions::default())
    })?;
    let reduced = tr.span(REDUCE, || kernel.reduce_by_partition(x, &p))?;
    let groups = kernel.vector_len(reduced)?;
    let m = tr.span(SEL_IDENTITY, || selection::identity(groups));
    tr.span(MEASURE, || kernel.vector_laplace(reduced, &m, shares[1]))?;
    Ok(ls(kernel, start, tr))
}

/// Plan #9, DAWA (imperative): `PD TR SG LM LS`.
pub fn dawa(
    kernel: &ProtectedKernel,
    x: SourceVar,
    ranges: &[(usize, usize)],
    eps: f64,
    rho: f64,
    tr: &mut Tracer,
) -> Result<Vec<f64>> {
    let shares = split_budget(eps, &[rho, 1.0 - rho]);
    let start = kernel.measurement_count();
    let p = tr.span(DATA_AWARE, || {
        dawa_partition(kernel, x, shares[0], &DawaOptions::new(shares[1]))
    })?;
    let reduced = tr.span(REDUCE, || kernel.reduce_by_partition(x, &p))?;
    let groups = kernel.vector_len(reduced)?;
    let bounds = interval_partition_bounds(&p);
    let bucket_ranges = map_ranges_to_buckets(ranges, &bounds);
    let m = tr.span(SEL_GREEDY_H, || greedy_h(groups, &bucket_ranges));
    tr.span(MEASURE, || kernel.vector_laplace(reduced, &m, shares[1]))?;
    Ok(ls(kernel, start, tr))
}

/// Which MWEM: plain selection or augmented with a hierarchy level
/// (variant b), and the inference closing each round.
#[derive(Clone, Copy, Debug)]
pub struct MwemVariant {
    pub augment: bool,
    pub inference: MwemRoundInference,
}

/// Plan #7, the original MWEM: `I:( SW LM MW )`.
pub const MWEM_ORIGINAL: MwemVariant = MwemVariant {
    augment: false,
    inference: MwemRoundInference::MultWeights,
};

/// Plan #20, MWEM variant d: `I:( SW SH2 LM NLS )`.
pub const MWEM_VARIANT_D: MwemVariant = MwemVariant {
    augment: true,
    inference: MwemRoundInference::NnlsKnownTotal,
};

/// The MWEM family: `I:( SW [SH2] LM MW|NLS )`, the graph executor's
/// adaptive loop call by call.
pub fn mwem(
    kernel: &ProtectedKernel,
    x: SourceVar,
    workload: &Matrix,
    eps: f64,
    opts: &MwemOptions,
    variant: MwemVariant,
    tr: &mut Tracer,
) -> Result<Vec<f64>> {
    let t = opts.rounds.max(1) as f64;
    let eps_round = eps / (2.0 * t);
    let spec = {
        let mut b = PlanBuilder::new();
        let input = b.input();
        let e = b.mwem_loop(MwemLoopOp {
            input,
            workload: workload.clone(),
            rounds: opts.rounds,
            eps_select: eps_round,
            eps_measure: eps_round,
            augment: variant.augment,
            inference: variant.inference,
            total: opts.total,
            mw_iterations: opts.mw_iterations,
        });
        b.finish(e)
    };
    let res = admit(kernel, &spec, x, tr)?;
    let start = kernel.measurement_count();
    let n = kernel.vector_len(x)?;
    let mut x_hat = vec![opts.total / n as f64; n];
    for round in 0..opts.rounds {
        let idx = tr.span(SEL_WORST, || {
            worst_approx(kernel, x, workload, &x_hat, 1.0, eps_round, Some(&res))
        })?;
        let row = workload.row(idx);
        let selected = mwem_row_strategy(n, &row);
        let strategy = if variant.augment {
            mwem_augment_with_level(&selected, &row, n, round)
        } else {
            selected
        };
        tr.span(MEASURE, || res.vector_laplace(x, &strategy, eps_round))?;
        let measurements = kernel.measurements_since(start);
        x_hat = match variant.inference {
            MwemRoundInference::MultWeights => tr.span(MW, || {
                mult_weights_inference(&measurements, opts.total, None, opts.mw_iterations)
            }),
            MwemRoundInference::NnlsKnownTotal => {
                let cols = measurements[0].query.cols();
                let mut ms = measurements.to_vec();
                let scale = relative_total_scale(&measurements);
                ms.push(known_total_measurement(cols, opts.total, x, scale));
                tr.span(NNLS, || {
                    non_negative_least_squares_opts(
                        &ms,
                        &NnlsOptions {
                            max_iters: 600,
                            tol: 1e-7,
                        },
                    )
                })
            }
        };
    }
    tr.span(RESERVE, || drop(res));
    Ok(x_hat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{check_ledger, same_bits};
    use ektelo_data::generators::{shape_1d, Shape1D};
    use ektelo_data::workloads::random_range;
    use ektelo_data::{Schema, Table};
    use ektelo_plans::baseline::{plan_greedy_h, plan_h2, plan_hb, plan_identity, plan_privelet};
    use ektelo_plans::data_aware::{plan_ahp, plan_dawa};
    use ektelo_plans::mwem::{plan_mwem, plan_mwem_variant_d};
    use ektelo_plans::striped::plan_hb_striped;
    use std::time::Instant;

    const EPS: f64 = 0.5;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now())
    }

    fn hist(n: usize) -> Vec<f64> {
        shape_1d(Shape1D::Bimodal, n, 20_000.0, 3)
    }

    /// Runs `plain` and `traced` on equally seeded kernels over `x`.
    fn both(
        x: &[f64],
        plain: impl Fn(&ProtectedKernel, SourceVar) -> Vec<f64>,
        traced: impl Fn(&ProtectedKernel, SourceVar, &mut Tracer) -> Vec<f64>,
    ) -> (Vec<f64>, Vec<f64>) {
        let k = ProtectedKernel::init_from_vector(x.to_vec(), 1.0, 11);
        let a = plain(&k, k.root());
        let k = ProtectedKernel::init_from_vector(x.to_vec(), 1.0, 11);
        let mut tr = tracer();
        let b = traced(&k, k.root(), &mut tr);
        assert!(!tr.spans.is_empty());
        (a, b)
    }

    #[test]
    fn select_measure_ls_plans_match_bit_for_bit() {
        let x = hist(256);
        let w = random_range(256, 40, 5);
        let ranges: Vec<(usize, usize)> = match &w {
            Matrix::Range(r) => r.ranges().collect(),
            _ => unreachable!(),
        };
        type Plan = fn(&ProtectedKernel, SourceVar, f64) -> ektelo_plans::util::PlanResult;
        let cases: [(Select, Plan); 4] = [
            (Select::Identity, plan_identity),
            (Select::H2, plan_h2),
            (Select::Hb, plan_hb),
            (Select::Privelet, plan_privelet),
        ];
        for (sel, plan) in cases {
            let (a, b) = both(
                &x,
                |k, v| plan(k, v, EPS).unwrap().x_hat,
                |k, v, tr| select_measure_ls(k, v, sel, &[], EPS, tr).unwrap(),
            );
            assert!(same_bits(&a, &b), "{sel:?}");
        }
        let (a, b) = both(
            &x,
            |k, v| plan_greedy_h(k, v, &w, EPS).unwrap().x_hat,
            |k, v, tr| select_measure_ls(k, v, Select::GreedyH, &ranges, EPS, tr).unwrap(),
        );
        assert!(same_bits(&a, &b), "Greedy-H");
    }

    #[test]
    fn data_aware_plans_match_bit_for_bit() {
        let x = hist(256);
        let w = random_range(256, 40, 5);
        let ranges: Vec<(usize, usize)> = match &w {
            Matrix::Range(r) => r.ranges().collect(),
            _ => unreachable!(),
        };
        let (a, b) = both(
            &x,
            |k, v| plan_ahp(k, v, EPS, 0.5).unwrap().x_hat,
            |k, v, tr| ahp(k, v, EPS, 0.5, tr).unwrap(),
        );
        assert!(same_bits(&a, &b), "AHP");
        let (a, b) = both(
            &x,
            |k, v| plan_dawa(k, v, &w, EPS, 0.25).unwrap().x_hat,
            |k, v, tr| dawa(k, v, &ranges, EPS, 0.25, tr).unwrap(),
        );
        assert!(same_bits(&a, &b), "DAWA");
    }

    #[test]
    fn mwem_plans_match_bit_for_bit() {
        let x = hist(128);
        let w = random_range(128, 32, 2);
        let opts = MwemOptions {
            rounds: 5,
            total: x.iter().sum(),
            mw_iterations: 30,
        };
        let (a, b) = both(
            &x,
            |k, v| plan_mwem(k, v, &w, EPS, &opts).unwrap().x_hat,
            |k, v, tr| mwem(k, v, &w, EPS, &opts, MWEM_ORIGINAL, tr).unwrap(),
        );
        assert!(same_bits(&a, &b), "MWEM");
        let (a, b) = both(
            &x,
            |k, v| plan_mwem_variant_d(k, v, &w, EPS, &opts).unwrap().x_hat,
            |k, v, tr| mwem(k, v, &w, EPS, &opts, MWEM_VARIANT_D, tr).unwrap(),
        );
        assert!(same_bits(&a, &b), "MWEM variant d");
    }

    #[test]
    fn hb_striped_matches_bit_for_bit() {
        let sizes = [40, 3, 2];
        let schema = Schema::from_sizes(&[("v", 40), ("a", 3), ("b", 2)]);
        let mut t = Table::empty(schema);
        for i in 0..3000u32 {
            t.push_row(&[(i * 7 + i / 5) % 40, i % 3, (i / 3) % 2]);
        }
        let run = |traced: bool| {
            let k = ProtectedKernel::init(t.clone(), EPS, 21);
            let x = k.vectorize(k.root()).unwrap();
            if traced {
                hb_striped(&k, x, &sizes, 0, EPS, &mut tracer()).unwrap()
            } else {
                plan_hb_striped(&k, x, &sizes, 0, EPS).unwrap().x_hat
            }
        };
        assert!(same_bits(&run(false), &run(true)));
    }

    #[test]
    fn same_bits_and_the_ledger_catch_a_planted_fault() {
        let x = hist(64);
        let (a, mut b) = both(
            &x,
            |k, v| plan_identity(k, v, EPS).unwrap().x_hat,
            |k, v, tr| select_measure_ls(k, v, Select::Identity, &[], EPS, tr).unwrap(),
        );
        assert!(same_bits(&a, &b));
        b[7] = f64::from_bits(b[7].to_bits() ^ 1);
        assert!(!same_bits(&a, &b), "one flipped bit must show");
        // A plan that charges once more than it was given.
        let k = ProtectedKernel::init_from_vector(x.clone(), 1.0, 4);
        let before = k.budget_spent();
        select_measure_ls(&k, k.root(), Select::Identity, &[], EPS, &mut tracer()).unwrap();
        k.vector_laplace(k.root(), &Matrix::total(64), 0.01)
            .unwrap();
        assert!(check_ledger(EPS, k.budget_spent() - before, k.budget_reserved()).is_err());
        // A reservation still held when the ledger is read.
        let held = k.reserve_budget(0.1).unwrap();
        assert!(check_ledger(EPS, EPS, k.budget_reserved()).is_err());
        drop(held);
    }
}
