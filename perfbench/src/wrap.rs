//! Span-recording wrappers around the two seams LSQR calls through: the
//! [`Backend`] that runs the products and the [`Operator`] that owns the
//! matrix. Both forward every call unchanged, so a wrapped solve is
//! bitwise the solve it wraps.

use gaia_backends::{Backend, LaunchPlan};
use gaia_lsqr::{Operator, OperatorError, TileProvenance};
use gaia_sparse::SparseSystem;

use crate::trace::span;

/// Records `backends.aprod1`, `backends.aprod2` and `backends.blas` spans.
pub struct TimedBackend<'a> {
    inner: &'a dyn Backend,
}

impl<'a> TimedBackend<'a> {
    pub fn new(inner: &'a dyn Backend) -> Self {
        TimedBackend { inner }
    }
}

impl Backend for TimedBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        let _s = span("backends.aprod1");
        self.inner.aprod1(sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        let _s = span("backends.aprod2");
        self.inner.aprod2(sys, y, out);
    }

    fn launch_plan(&self) -> Option<LaunchPlan> {
        self.inner.launch_plan()
    }

    fn nrm2(&self, v: &[f64]) -> f64 {
        let _s = span("backends.blas");
        self.inner.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        let _s = span("backends.blas");
        self.inner.scal(v, s);
    }

    fn axpy(&self, y: &mut [f64], a: f64, x: &[f64]) {
        let _s = span("backends.blas");
        self.inner.axpy(y, a, x);
    }
}

/// Records `sparse.aprod1`, `sparse.aprod2` and `sparse.column_norms`
/// spans around the operator. An operator span's self time (its duration
/// minus the backend spans inside it) is the time spent fetching and
/// reshaping the matrix: tile loads, gathers and scatters.
pub struct TimedOperator<O> {
    inner: O,
}

impl<O: Operator> TimedOperator<O> {
    pub fn new(inner: O) -> Self {
        TimedOperator { inner }
    }
}

impl<O: Operator> Operator for TimedOperator<O> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }

    fn known_terms(&self) -> &[f64] {
        self.inner.known_terms()
    }

    fn column_norms(&self) -> Result<Vec<f64>, OperatorError> {
        let _s = span("sparse.column_norms");
        self.inner.column_norms()
    }

    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let _s = span("sparse.aprod1");
        self.inner.aprod1(x, out)
    }

    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let _s = span("sparse.aprod2");
        self.inner.aprod2(y, out)
    }

    fn nrm2(&self, v: &[f64]) -> f64 {
        self.inner.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        self.inner.scal(v, s);
    }

    fn provenance(&self) -> Option<TileProvenance> {
        self.inner.provenance()
    }
}
