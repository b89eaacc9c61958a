// The acceptance fixture for the transitive hot-path rules: a bench
// binary whose timing loop is a hot root, because `score_batch` matches
// the built-in root table for any owner. Every per-line rule exempts
// bench binaries (FileKind::Benches), so the v1 linter passes this file
// clean — the panic, the allocation and the clock read are each buried
// one or two calls below the root and only the call-graph pass can see
// them.
fn score_batch() {
    for _ in 0..1000 {
        serve_once();
    }
}

fn serve_once() {
    let batch = prepare();
    submit(batch);
}

// Two calls below the root: the per-line rules never fire here (bench
// scope), the reachability rules must.
fn prepare() -> Vec<u8> {
    let staging = vec![0u8; 64]; // hot-path-transitive-alloc
    staging
}

fn submit(batch: Vec<u8>) {
    let t = Instant::now(); // hot-path-transitive-clock
    queue(batch).expect("queue full"); // hot-path-transitive-panic
    drop(t);
}

fn queue(_batch: Vec<u8>) -> Result<(), ()> {
    Ok(())
}

// Not reachable from the root: nothing in here may fire.
fn cold_setup() {
    let warmup = vec![0u8; 1 << 20];
    warmup.last().unwrap();
}

fn main() {
    cold_setup();
    score_batch();
}
