//! Scoring and output checks computed apart from the program.
//!
//! Nothing here calls the matrix layer: true answers come from the table
//! rows or the generated histogram, estimated answers from direct cell
//! sums (marginals) and prefix sums (ranges, Prefix(Income)). The checks
//! are pure functions of numbers the benchmark holds, so the tests below
//! can feed them planted wrong outputs.

/// Census attribute sizes `[income, age, marital, race, gender]`
/// (paper Table 5: 5000 × 5 × 7 × 4 × 2 = 1.4M cells).
pub const CENSUS_SIZES: [usize; 5] = [5000, 5, 7, 4, 2];

/// LSQR's default stopping tolerance (`‖Aᵀr‖ ≤ atol·‖A‖·‖r‖`), which the
/// noise-free tolerance is derived from.
pub const LSQR_ATOL: f64 = 1e-8;

/// Table 5's metric: the RMSE of workload answers divided by the number
/// of records.
pub fn scaled_l2(sum_sq: f64, queries: usize, records: f64) -> f64 {
    (sum_sq / queries as f64).sqrt() / records.max(1.0)
}

// ---------------------------------------------------------------------
// Census: marginals and Prefix(Income)
// ---------------------------------------------------------------------

/// All attribute pairs `(i, j)`, `i < j`, in a fixed order.
fn pairs(d: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..d {
        for j in i + 1..d {
            out.push((i, j));
        }
    }
    out
}

/// Calls `f(coords, cell)` for every cell of a row-major domain (first
/// attribute most significant), decoding coordinates with an odometer.
fn for_each_cell(sizes: &[usize], mut f: impl FnMut(&[usize], usize)) {
    let n: usize = sizes.iter().product();
    let mut c = vec![0usize; sizes.len()];
    for cell in 0..n {
        f(&c, cell);
        for a in (0..sizes.len()).rev() {
            c[a] += 1;
            if c[a] < sizes[a] {
                break;
            }
            c[a] = 0;
        }
    }
}

/// One- and two-way marginal tables, one `Vec` per attribute then one per
/// attribute pair, each laid out row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Marginals {
    sizes: Vec<usize>,
    pairs: Vec<(usize, usize)>,
    pub one_way: Vec<Vec<f64>>,
    pub two_way: Vec<Vec<f64>>,
}

impl Marginals {
    fn zeros(sizes: &[usize]) -> Self {
        let pairs = pairs(sizes.len());
        Marginals {
            sizes: sizes.to_vec(),
            one_way: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            two_way: pairs
                .iter()
                .map(|&(i, j)| vec![0.0; sizes[i] * sizes[j]])
                .collect(),
            pairs,
        }
    }

    fn add(&mut self, coords: &[usize], v: f64) {
        for (a, t) in self.one_way.iter_mut().enumerate() {
            t[coords[a]] += v;
        }
        for (t, &(i, j)) in self.two_way.iter_mut().zip(&self.pairs) {
            t[coords[i] * self.sizes[j] + coords[j]] += v;
        }
    }

    /// Marginals counted straight from table columns (one column per
    /// attribute, one entry per row).
    pub fn from_rows(sizes: &[usize], columns: &[&[u32]]) -> Self {
        let mut m = Marginals::zeros(sizes);
        let rows = columns.first().map_or(0, |c| c.len());
        let mut coords = vec![0usize; sizes.len()];
        for r in 0..rows {
            for (c, col) in coords.iter_mut().zip(columns) {
                *c = col[r] as usize;
            }
            m.add(&coords, 1.0);
        }
        m
    }

    /// Marginals of a cell vector by direct cell sums.
    pub fn from_cells(sizes: &[usize], x: &[f64]) -> Self {
        let mut m = Marginals::zeros(sizes);
        for_each_cell(sizes, |c, cell| {
            let v = x[cell];
            if v != 0.0 {
                m.add(c, v);
            }
        });
        m
    }

    /// Number of two-way marginal queries.
    pub fn two_way_queries(&self) -> usize {
        self.two_way.iter().map(Vec::len).sum()
    }

    /// Sum of squared differences of the two-way tables.
    pub fn two_way_sq_diff(&self, other: &Marginals) -> f64 {
        self.two_way
            .iter()
            .zip(&other.two_way)
            .flat_map(|(a, b)| a.iter().zip(b))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// Number of "any or one value" choices for the non-income attributes of
/// Prefix(Income): `(5+1)(7+1)(4+1)(2+1) = 720`.
fn prefix_income_combos(sizes: &[usize]) -> usize {
    sizes[1..].iter().map(|s| s + 1).product()
}

/// Adds `v` at income `inc` to every Prefix(Income) combination the
/// cell `rest` (its non-income coordinates) belongs to: each attribute is
/// either `<any>` (slot 0) or its own value (slot `v + 1`). Layout is
/// income-major: `out[inc * combos + combo]`.
#[cfg(test)]
fn add_prefix_income(sizes: &[usize], inc: usize, rest: &[usize], v: f64, out: &mut [f64]) {
    let k = rest.len();
    let combos = prefix_income_combos(sizes);
    let base = inc * combos;
    for mask in 0u32..(1 << k) {
        let mut idx = 0usize;
        for (a, &c) in rest.iter().enumerate() {
            let slot = if mask & (1 << a) != 0 { c + 1 } else { 0 };
            idx = idx * (sizes[a + 1] + 1) + slot;
        }
        out[base + idx] += v;
    }
}

/// Turns per-income counts into prefix counts (income ∈ [0, i]).
#[cfg(test)]
fn prefix_over_income(sizes: &[usize], t: &mut [f64]) {
    let combos = prefix_income_combos(sizes);
    for inc in 1..sizes[0] {
        let (done, rest) = t.split_at_mut(inc * combos);
        let prev = &done[(inc - 1) * combos..];
        for (a, b) in rest[..combos].iter_mut().zip(prev) {
            *a += b;
        }
    }
}

/// Prefix(Income) answers counted from table columns: the reference the
/// tests hold the cell-based answers to.
#[cfg(test)]
fn prefix_income_from_rows(sizes: &[usize], columns: &[&[u32]]) -> Vec<f64> {
    let mut t = vec![0.0; sizes[0] * prefix_income_combos(sizes)];
    let rows = columns.first().map_or(0, |c| c.len());
    let mut rest = vec![0usize; sizes.len() - 1];
    for r in 0..rows {
        for (c, col) in rest.iter_mut().zip(&columns[1..]) {
            *c = col[r] as usize;
        }
        add_prefix_income(sizes, columns[0][r] as usize, &rest, 1.0, &mut t);
    }
    prefix_over_income(sizes, &mut t);
    t
}

/// Appends an `<any>` slot to every axis of a row-major block: along each
/// axis, slot 0 becomes the sum over the axis and slot `v + 1` holds value
/// `v` — the combination order [`add_prefix_income`] uses.
fn extend_with_totals(block: &[f64], dims: &[usize]) -> Vec<f64> {
    let mut cur = block.to_vec();
    let mut cur_dims = dims.to_vec();
    for a in 0..dims.len() {
        let outer: usize = cur_dims[..a].iter().product();
        let inner: usize = cur_dims[a + 1..].iter().product();
        let s = cur_dims[a];
        let mut next = vec![0.0; outer * (s + 1) * inner];
        for o in 0..outer {
            for v in 0..s {
                for i in 0..inner {
                    let val = cur[(o * s + v) * inner + i];
                    next[(o * (s + 1) + v + 1) * inner + i] = val;
                    next[o * (s + 1) * inner + i] += val;
                }
            }
        }
        cur = next;
        cur_dims[a] = s + 1;
    }
    cur
}

/// Prefix(Income) answers of a cell vector: direct cell sums over the
/// non-income attributes of each income bin, then prefix sums over
/// income.
#[cfg(test)]
fn prefix_income_from_cells(sizes: &[usize], x: &[f64]) -> Vec<f64> {
    let combos = prefix_income_combos(sizes);
    let block: usize = sizes[1..].iter().product();
    let mut t = Vec::with_capacity(sizes[0] * combos);
    for inc in x.chunks(block) {
        t.extend(extend_with_totals(inc, &sizes[1..]));
    }
    prefix_over_income(sizes, &mut t);
    t
}

/// Sum of squared differences between the Prefix(Income) answers of `x`
/// and `y`. The answers are linear in the cells, so this is the sum of
/// squares of the answers of `x − y`, accumulated one income bin at a
/// time: only one bin's answers are held, not all `5000 × 720`.
pub fn prefix_income_sq_diff(sizes: &[usize], x: &[f64], y: &[f64]) -> f64 {
    let block: usize = sizes[1..].iter().product();
    let mut prefix = vec![0.0; prefix_income_combos(sizes)];
    let mut d = vec![0.0; block];
    let mut sq = 0.0;
    for (xs, ys) in x.chunks(block).zip(y.chunks(block)) {
        for ((d, a), b) in d.iter_mut().zip(xs).zip(ys) {
            *d = a - b;
        }
        for (p, e) in prefix.iter_mut().zip(extend_with_totals(&d, &sizes[1..])) {
            *p += e;
        }
        sq += prefix.iter().map(|p| p * p).sum::<f64>();
    }
    sq
}

/// Cell counts of a row-major domain (first attribute most significant),
/// counted from table columns.
pub fn cells_from_rows(sizes: &[usize], columns: &[&[u32]]) -> Vec<f64> {
    let mut x = vec![0.0; sizes.iter().product()];
    let rows = columns.first().map_or(0, |c| c.len());
    for r in 0..rows {
        let cell = columns
            .iter()
            .zip(sizes)
            .fold(0, |cell, (col, &s)| cell * s + col[r] as usize);
        x[cell] += 1.0;
    }
    x
}

/// True census answers, counted from the rows at set-up: the cells and
/// their marginals. Prefix(Income) errors are computed from the cells on
/// each check, so its 3.6M true answers are not held.
pub struct CensusTruth {
    pub sizes: Vec<usize>,
    pub x: Vec<f64>,
    pub marginals: Marginals,
    pub records: f64,
}

impl CensusTruth {
    pub fn from_rows(sizes: &[usize], columns: &[&[u32]]) -> Self {
        CensusTruth {
            sizes: sizes.to_vec(),
            x: cells_from_rows(sizes, columns),
            marginals: Marginals::from_rows(sizes, columns),
            records: columns.first().map_or(0, |c| c.len()) as f64,
        }
    }

    /// `(2-way marginals, Prefix(Income))` Table 5 errors of `x_hat`.
    pub fn errors(&self, x_hat: &[f64]) -> (f64, f64) {
        let est = Marginals::from_cells(&self.sizes, x_hat);
        let marg = scaled_l2(
            self.marginals.two_way_sq_diff(&est),
            self.marginals.two_way_queries(),
            self.records,
        );
        let queries = self.sizes[0] * prefix_income_combos(&self.sizes);
        let sq = prefix_income_sq_diff(&self.sizes, &self.x, x_hat);
        (marg, scaled_l2(sq, queries, self.records))
    }
}

/// Set-up check: the program's vectorized census must have exactly the
/// one- and two-way marginals counted from the rows.
pub fn check_marginals(
    sizes: &[usize],
    program_x: &[f64],
    from_rows: &Marginals,
) -> Result<(), String> {
    let expected: usize = sizes.iter().product();
    if program_x.len() != expected {
        return Err(format!(
            "vectorize: {} cells, expected {expected}",
            program_x.len()
        ));
    }
    let got = Marginals::from_cells(sizes, program_x);
    for (a, (g, w)) in got.one_way.iter().zip(&from_rows.one_way).enumerate() {
        if g != w {
            return Err(format!(
                "vectorize: 1-way marginal of attribute {a} differs from the rows"
            ));
        }
    }
    for ((i, j), (g, w)) in pairs(sizes.len())
        .into_iter()
        .zip(got.two_way.iter().zip(&from_rows.two_way))
    {
        if g != w {
            return Err(format!(
                "vectorize: 2-way marginal ({i},{j}) differs from the rows"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// 1-D range workloads
// ---------------------------------------------------------------------

/// `p[k] = Σ_{i<k} x[i]`.
pub fn prefix_sums(x: &[f64]) -> Vec<f64> {
    let mut p = Vec::with_capacity(x.len() + 1);
    let mut acc = 0.0;
    p.push(0.0);
    for &v in x {
        acc += v;
        p.push(acc);
    }
    p
}

/// Answers of half-open ranges `[lo, hi)` from prefix sums.
pub fn range_answers(ranges: &[(usize, usize)], x: &[f64]) -> Vec<f64> {
    let p = prefix_sums(x);
    ranges.iter().map(|&(lo, hi)| p[hi] - p[lo]).collect()
}

/// True answers of a 1-D range workload over one histogram.
pub struct RangeTruth {
    pub answers: Vec<f64>,
    pub records: f64,
}

impl RangeTruth {
    pub fn new(ranges: &[(usize, usize)], x: &[f64]) -> Self {
        RangeTruth {
            answers: range_answers(ranges, x),
            records: x.iter().sum(),
        }
    }

    /// Table 5 scaled per-query L2 error of `x_hat` on the ranges.
    pub fn error(&self, ranges: &[(usize, usize)], x_hat: &[f64]) -> f64 {
        let est = range_answers(ranges, x_hat);
        let sq: f64 = self
            .answers
            .iter()
            .zip(&est)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        scaled_l2(sq, est.len(), self.records)
    }
}

// ---------------------------------------------------------------------
// Per-request checks
// ---------------------------------------------------------------------

/// x̂ has the domain's length and only finite entries.
pub fn check_estimate(x_hat: &[f64], n: usize) -> Result<(), String> {
    if x_hat.len() != n {
        return Err(format!(
            "estimate has {} cells, domain has {n}",
            x_hat.len()
        ));
    }
    match x_hat.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(format!("estimate cell {i} is {}", x_hat[i])),
        None => Ok(()),
    }
}

/// Two estimates are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// The ε a plan charged equals the ε it was given (up to the rounding of
/// a budget split), and no reservation is left outstanding.
pub fn check_ledger(given: f64, charged: f64, reserved_after: f64) -> Result<(), String> {
    if (charged - given).abs() > 1e-9 * given {
        return Err(format!("plan given eps {given} charged {charged}"));
    }
    if reserved_after != 0.0 {
        return Err(format!(
            "{reserved_after} eps still reserved after the plan"
        ));
    }
    Ok(())
}

pub fn check_nonneg(x_hat: &[f64]) -> Result<(), String> {
    match x_hat.iter().position(|&v| v < 0.0) {
        Some(i) => Err(format!("estimate cell {i} is negative ({})", x_hat[i])),
        None => Ok(()),
    }
}

/// Multiplicative weights keeps the given total.
pub fn check_total(x_hat: &[f64], total: f64) -> Result<(), String> {
    let s: f64 = x_hat.iter().sum();
    if (s - total).abs() > 1e-9 * total.abs().max(1.0) {
        return Err(format!("estimate sums to {s}, given total {total}"));
    }
    Ok(())
}

/// Upper bound on `‖x̂ − x‖₂` for a full-rank data-independent plan run
/// at a very large ε and inferred by LSQR.
///
/// The strategies checked (Identity, H2, HB, Privelet and HB per stripe)
/// are 0/±1 matrices that contain the identity or have orthogonal rows of
/// support ≥ 1, so `σ_min(S) ≥ 1`; their sensitivity and per-column
/// support are at most `levels`, they have at most `rows` rows, and
/// `‖S‖_F² ≤ cells · levels`. With Laplace noise η of scale
/// `levels/ε`, `E‖η‖² = 2·rows·(levels/ε)²`; the bound allows three times
/// its root. The least-squares solution x* is within `‖η‖/σ_min` of x,
/// and LSQR's stopping rule `‖Aᵀr‖ ≤ atol·‖A‖_F·‖r‖` puts x̂ within
/// `atol·F·‖η‖ / (1 − atol·F²)` of x* (row weights cancel).
pub fn noise_free_tolerance(cells: usize, rows: usize, levels: usize, eps: f64) -> f64 {
    let noise = 3.0 * (2.0 * rows as f64).sqrt() * levels as f64 / eps;
    let f2 = cells as f64 * levels as f64;
    let k = LSQR_ATOL * f2;
    assert!(k < 1.0, "strategy too large for the LSQR bound");
    noise * (1.0 + LSQR_ATOL * f2.sqrt() / (1.0 - k))
}

/// `⌈log₂ n⌉ + 1`: the most levels a hierarchy of branching ≥ 2 (or the
/// Haar split tree) has over `n` cells.
pub fn max_levels(n: usize) -> usize {
    (usize::BITS - (n.max(1) - 1).leading_zeros()) as usize + 1
}

pub fn check_noise_free(x_hat: &[f64], x: &[f64], tol: f64) -> Result<(), String> {
    check_estimate(x_hat, x.len())?;
    let d: f64 = x_hat
        .iter()
        .zip(x)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    if d > tol {
        return Err(format!(
            "noise-free estimate is {d} from x (tolerance {tol})"
        ));
    }
    Ok(())
}

/// An estimate must beat the uniform estimate on the workload.
pub fn check_beats_uniform(err: f64, err_uniform: f64) -> Result<(), String> {
    if err < err_uniform {
        Ok(())
    } else {
        Err(format!(
            "error {err} not below the uniform estimate's {err_uniform}"
        ))
    }
}

/// Moments of `ε·(x̂ − x)` over the Identity plan's cells: with Laplace
/// noise of scale 1/ε each draw is Laplace(1), so the mean is 0, the
/// variance 2 and the mean absolute value 1 (a Gaussian of variance 2
/// would give 1.128).
#[derive(Clone, Copy, Debug, Default)]
pub struct LaplaceMoments {
    pub n: f64,
    pub sum: f64,
    pub sum_sq: f64,
    pub sum_abs: f64,
}

impl LaplaceMoments {
    pub fn add(&mut self, eps: f64, x_hat: &[f64], x: &[f64]) {
        for (a, b) in x_hat.iter().zip(x) {
            let z = eps * (a - b);
            self.n += 1.0;
            self.sum += z;
            self.sum_sq += z * z;
            self.sum_abs += z.abs();
        }
    }

    pub fn merge(&mut self, o: &LaplaceMoments) {
        self.n += o.n;
        self.sum += o.sum;
        self.sum_sq += o.sum_sq;
        self.sum_abs += o.sum_abs;
    }

    /// Six standard errors on each moment: Var(Z) = 2, Var(Z²) = 24 − 4 =
    /// 20, Var(|Z|) = 2 − 1 = 1 for Z ~ Laplace(1).
    pub fn check(&self) -> Result<(), String> {
        if self.n < 1000.0 {
            return Err(format!("only {} noise draws to test", self.n));
        }
        let mean = self.sum / self.n;
        let second = self.sum_sq / self.n;
        let abs = self.sum_abs / self.n;
        let se = |var: f64| 6.0 * (var / self.n).sqrt();
        if mean.abs() > se(2.0) {
            return Err(format!("noise mean {mean}, expected 0 ± {}", se(2.0)));
        }
        if (second - 2.0).abs() > se(20.0) {
            return Err(format!(
                "noise variance {second}, expected 2 ± {}",
                se(20.0)
            ));
        }
        if (abs - 1.0).abs() > se(1.0) {
            return Err(format!("noise mean |z| {abs}, expected 1 ± {}", se(1.0)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 3] = [6, 3, 2];

    fn rows() -> Vec<Vec<u32>> {
        let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut s = 7u64;
        for _ in 0..200 {
            for (c, &n) in cols.iter_mut().zip(&SIZES) {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                c.push(((s >> 33) % n as u64) as u32);
            }
        }
        cols
    }

    fn cells(cols: &[Vec<u32>]) -> Vec<f64> {
        let mut x = vec![0.0; SIZES.iter().product()];
        for ((&a, &b), &c) in cols[0].iter().zip(&cols[1]).zip(&cols[2]) {
            x[(a as usize * SIZES[1] + b as usize) * SIZES[2] + c as usize] += 1.0;
        }
        x
    }

    fn refs(cols: &[Vec<u32>]) -> Vec<&[u32]> {
        cols.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn rows_and_cells_agree_on_every_answer() {
        let cols = rows();
        let x = cells(&cols);
        let truth = CensusTruth::from_rows(&SIZES, &refs(&cols));
        assert_eq!(truth.x, x);
        assert_eq!(truth.marginals, Marginals::from_cells(&SIZES, &x));
        let prefix = prefix_income_from_rows(&SIZES, &refs(&cols));
        assert_eq!(prefix, prefix_income_from_cells(&SIZES, &x));
        assert_eq!(truth.errors(&x), (0.0, 0.0));
        // The top income prefix with every attribute <any> is the total.
        let combos = prefix_income_combos(&SIZES);
        assert_eq!(prefix[(SIZES[0] - 1) * combos], 200.0);
        check_marginals(&SIZES, &x, &truth.marginals).unwrap();
    }

    #[test]
    fn prefix_income_error_matches_the_materialized_answers() {
        let x = cells(&rows());
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| v + (i % 5) as f64 - 1.5)
            .collect();
        let (a, b) = (
            prefix_income_from_cells(&SIZES, &x),
            prefix_income_from_cells(&SIZES, &y),
        );
        let want: f64 = a.iter().zip(&b).map(|(a, b)| (a - b) * (a - b)).sum();
        let got = prefix_income_sq_diff(&SIZES, &x, &y);
        assert!(
            want > 0.0 && (got - want).abs() < 1e-9 * want,
            "{got} vs {want}"
        );
    }

    #[test]
    fn a_wrong_marginal_is_caught() {
        let cols = rows();
        let mut x = cells(&cols);
        let truth = Marginals::from_rows(&SIZES, &refs(&cols));
        // Move one count to another cell: every 1-way total still sums
        // right, but a marginal changes.
        x[0] += 1.0;
        x[5] -= 1.0;
        assert!(check_marginals(&SIZES, &x, &truth).is_err());
        assert!(check_marginals(&SIZES, &x[1..], &truth).is_err());
    }

    #[test]
    fn range_error_is_zero_only_for_the_truth() {
        let x: Vec<f64> = (0..16).map(|i| (i * i % 7) as f64).collect();
        let ranges = [(0, 16), (3, 4), (2, 9)];
        let t = RangeTruth::new(&ranges, &x);
        assert_eq!(t.answers[0], x.iter().sum::<f64>());
        assert_eq!(t.error(&ranges, &x), 0.0);
        let mut y = x.clone();
        y[3] += 3.0;
        // Cell 3 is in all three ranges and cell 12 in the first only.
        y[12] += 1.0;
        let want = ((16.0 + 9.0 + 9.0) / 3.0f64).sqrt() / t.records;
        assert!((t.error(&ranges, &y) - want).abs() < 1e-12 * want);
    }

    #[test]
    fn a_perturbed_estimate_is_caught() {
        let x = vec![5.0; 64];
        let tol = noise_free_tolerance(64, 128, max_levels(64), 1e6);
        assert!(check_noise_free(&x, &x, tol).is_ok());
        let mut y = x.clone();
        y[9] += 0.01;
        assert!(check_noise_free(&y, &x, tol).is_err());
        y[9] = f64::NAN;
        assert!(check_estimate(&y, 64).is_err());
        assert!(check_estimate(&x[1..], 64).is_err());
        y[9] = -1e-9;
        assert!(check_nonneg(&y).is_err());
        assert!(check_total(&y, 320.0).is_err());
        assert!(check_total(&x, 320.0).is_ok());
        assert!(check_beats_uniform(2.0, 1.0).is_err());
    }

    #[test]
    fn an_extra_charge_or_open_reservation_is_caught() {
        assert!(check_ledger(0.1, 0.1, 0.0).is_ok());
        assert!(check_ledger(0.1, 0.1 + 1e-6, 0.0).is_err());
        assert!(check_ledger(0.1, 0.2, 0.0).is_err());
        assert!(check_ledger(0.1, 0.1, 0.05).is_err());
    }

    #[test]
    fn levels_bound_hierarchy_depth() {
        assert_eq!(max_levels(1), 1);
        assert_eq!(max_levels(2), 2);
        assert_eq!(max_levels(4096), 13);
        assert_eq!(max_levels(5000), 14);
    }

    /// Inverse-CDF draws from a deterministic uniform stream.
    fn uniforms(n: usize) -> impl Iterator<Item = f64> {
        let mut s = 0x9e3779b97f4a7c15u64;
        (0..n).map(move |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        })
    }

    fn moments(noise: &[f64], eps: f64) -> LaplaceMoments {
        let x = vec![100.0; noise.len()];
        let x_hat: Vec<f64> = x.iter().zip(noise).map(|(a, z)| a + z / eps).collect();
        let mut m = LaplaceMoments::default();
        m.add(eps, &x_hat, &x);
        m
    }

    #[test]
    fn laplace_noise_passes_and_other_noise_fails() {
        let n = 80_000;
        let laplace: Vec<f64> = uniforms(n)
            .map(|u| {
                let t = u - 0.5;
                -t.signum() * (1.0 - 2.0 * t.abs()).ln()
            })
            .collect();
        moments(&laplace, 0.1).check().unwrap();
        // Gaussian of the same variance (2): fails on the mean |z|.
        let u: Vec<f64> = uniforms(2 * n).collect();
        let gauss: Vec<f64> = u
            .chunks(2)
            .map(|p| {
                2f64.sqrt() * (-2.0 * p[0].ln()).sqrt() * (2.0 * std::f64::consts::PI * p[1]).cos()
            })
            .collect();
        assert!(moments(&gauss, 0.1).check().is_err());
        // Laplace at the wrong scale: fails on the variance.
        let wide: Vec<f64> = laplace.iter().map(|z| 1.2 * z).collect();
        assert!(moments(&wide, 0.1).check().is_err());
        // Biased noise: fails on the mean.
        let biased: Vec<f64> = laplace.iter().map(|z| z + 0.1).collect();
        assert!(moments(&biased, 0.1).check().is_err());
    }
}
