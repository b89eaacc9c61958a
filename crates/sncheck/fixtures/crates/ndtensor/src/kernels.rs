//! Fixture: the GEMM microkernels are hot-path code — ad-hoc heap
//! allocation must fire there exactly as in the other hot modules (this
//! fixture's relative path shadows `crates/ndtensor/src/kernels.rs`, one
//! of the registered hot files).

pub fn bad_microkernel_scratch(k: usize, n: usize) -> Vec<f32> {
    vec![0.0f32; k * n]
}

pub fn bad_packed_panel(rows: &[f32]) -> Vec<f32> {
    rows.to_vec()
}

pub fn allowed_one_time_setup(n: usize) -> Vec<f32> {
    // sncheck:allow(no-hot-alloc): one-time setup, not per-call
    Vec::with_capacity(n)
}

pub fn allowed_pool_take(len: usize) -> Vec<f32> {
    // `scratch::take` lookalikes are not flagged: the pool is the
    // sanctioned allocation path.
    let v: Vec<f32> = Vec::new();
    let _ = len;
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let _ = vec![0.0f32; 8];
    }
}
