//! Names `bench/nc_benchmark` still calls: the inference kernels of [`crate::tensor`] and
//! [`crate::loss`], re-exported under their old module.  Inference has one kernel set;
//! see `docs/kernels.md`.
//!
//! Kept for the benchmark's frozen calls; goes when the benchmark moves to `try_estimate`.

pub use crate::loss::softmax_rows_into;
pub use crate::tensor::{gemm_nt, matmul_blocked};

/// The instruction set the kernels run on: always `"portable"`, the scalar kernels.
pub fn isa_name() -> &'static str {
    "portable"
}
