//! Independent recomputation for the output checks.
//!
//! A [`Checker`] owns a fresh `Inum` of its own: it costs a design per
//! query by the optimizer's skeletons and the design's access paths, with
//! no cost matrix, so its answers do not depend on any cell the session
//! under test computed, reused or restored.

use pgdesign::Designer;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_inum::Inum;
use pgdesign_query::ast::Query;
use pgdesign_query::Workload;

/// Fresh-`Inum` costing.
pub struct Checker<'a> {
    inum: Inum<'a>,
}

impl<'a> Checker<'a> {
    pub fn new(designer: &'a Designer) -> Self {
        Checker {
            inum: Inum::new(&designer.catalog, &designer.optimizer),
        }
    }

    /// Cost of one query under `design`.
    pub fn cost(&self, design: &PhysicalDesign, query: &Query) -> f64 {
        self.inum.cost(design, query)
    }

    /// Per-query costs of `workload` under `design`, in workload order.
    pub fn query_costs(&self, design: &PhysicalDesign, workload: &Workload) -> Vec<f64> {
        workload.iter().map(|(q, _)| self.cost(design, q)).collect()
    }

    /// Weighted workload cost under `design`, summed in workload order.
    pub fn workload_cost(&self, design: &PhysicalDesign, workload: &Workload) -> f64 {
        workload.iter().map(|(q, w)| w * self.cost(design, q)).sum()
    }
}

/// `a` and `b` agree within `rel` of the larger magnitude.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// The first position where `got` and `want` disagree beyond `rel`, or
/// where their lengths differ.
pub fn mismatch(got: &[f64], want: &[f64], rel: f64) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} values, expected {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| !close(*g, *w, rel))
        .map(|i| format!("query {i}: {} vs fresh {}", got[i], want[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_is_relative() {
        assert!(close(1e6, 1e6 + 1e-4, 1e-9));
        assert!(!close(1.0, 1.0 + 1e-6, 1e-9));
        assert!(close(0.0, 0.0, 1e-9));
        assert!(mismatch(&[1.0, 2.0], &[1.0, 2.5], 1e-9)
            .unwrap()
            .starts_with("query 1"));
        assert!(mismatch(&[1.0], &[1.0, 2.0], 1e-9).is_some());
    }
}
