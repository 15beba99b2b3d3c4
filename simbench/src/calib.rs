//! Host-speed calibration: a fixed piece of work that is the benchmark's
//! own code, timed between the workload's timed runs.
//!
//! On a shared host the speed of every program moves by tens of percent
//! over minutes as other tenants come and go. The run-time figures
//! (`sim_node_s_per_s`, `cpu_us_per_sim_node_s`) are scaled by how long
//! this kernel took in the same window against [`REFERENCE_S`], so they
//! read as the speed of the reference host and a slow or fast phase of the
//! host cancels out. The kernel is an
//! interpreter loop (decode, dispatch, data-dependent branches, loads and
//! stores in a small memory, a multiply-add chain and a binary heap), the
//! same kind of work the simulator does. Nothing in it calls the
//! simulator, so a change to the simulator moves the figures and not the
//! scale.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Interpreter steps one calibration runs on each thread.
pub const STEPS: u64 = 40_000_000;

/// Seconds one calibration of [`STEPS`] takes on the reference host, a
/// 2-vCPU Intel Xeon VM (about 0.17 s on one thread and 0.18 s on two at
/// once): the speed the end-to-end figures are reported at.
pub const REFERENCE_S: f64 = 0.175;

/// Words of interpreter memory.
const MEMORY_WORDS: usize = 4096;

#[derive(Clone, Copy)]
enum Op {
    Load(usize, usize),
    Add(usize, usize),
    Xor(usize, usize),
    Mul(usize, usize),
    Shr(usize, u32),
    Store(usize, usize),
    Jnz(usize, usize),
    Fma(usize),
    Dec(usize),
}

/// The interpreted program: a counted loop of mixed integer and float
/// work whose branch at step 11 depends on the data.
const PROGRAM: [Op; 19] = [
    Op::Load(0, 17),
    Op::Load(1, 300),
    Op::Add(0, 1),
    Op::Xor(2, 0),
    Op::Mul(3, 2),
    Op::Shr(3, 5),
    Op::Store(3, 41),
    Op::Fma(3),
    Op::Load(4, 900),
    Op::Add(4, 3),
    Op::Xor(5, 4),
    Op::Jnz(5, 13),
    Op::Dec(6),
    Op::Store(5, 77),
    Op::Load(2, 1000),
    Op::Add(2, 6),
    Op::Fma(2),
    Op::Dec(7),
    Op::Jnz(7, 0),
];

/// Runs at least `steps` interpreter steps from memory filled by `seed`
/// and returns a checksum of the final state.
pub fn checksum(steps: u64, seed: u64) -> u64 {
    let mut memory = vec![0u64; MEMORY_WORDS];
    let mut x = seed | 1;
    for word in &mut memory {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *word = x;
    }
    let at = |base: usize, offset: u64| base.wrapping_add(offset as usize) % MEMORY_WORDS;
    let mut r = [0u64; 8];
    let mut f = 1.0f64;
    let mut pc = 0;
    let mut done = 0u64;
    let mut heap = BinaryHeap::new();
    while done < steps {
        r[7] = 64;
        loop {
            done += 1;
            match PROGRAM[pc] {
                Op::Load(d, a) => r[d] = memory[at(a, r[6])],
                Op::Add(d, s) => r[d] = r[d].wrapping_add(r[s]),
                Op::Xor(d, s) => r[d] ^= r[s],
                Op::Mul(d, s) => r[d] = r[d].wrapping_mul(r[s] | 1),
                Op::Shr(d, k) => r[d] >>= k,
                Op::Store(s, a) => memory[at(a, r[s])] = r[s],
                Op::Jnz(c, target) => {
                    if r[c] & 3 != 0 {
                        pc = target;
                        continue;
                    }
                }
                Op::Fma(s) => f = f.mul_add(0.999_999, (r[s] & 0xffff) as f64 * 1e-9),
                Op::Dec(d) => r[d] = r[d].wrapping_sub(1),
            }
            pc += 1;
            if pc == PROGRAM.len() {
                pc = 0;
                if r[7] == 0 || r[7] > 64 {
                    break;
                }
            }
        }
        heap.push(Reverse(r[0] >> 40));
        if heap.len() > 256 {
            heap.pop();
        }
    }
    r.iter().fold(f.to_bits(), |a, b| a ^ b) ^ heap.len() as u64
}

/// Seconds one calibration takes with `threads` threads each running
/// [`STEPS`] steps at once, as the workload's own threads would.
pub fn time(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for seed in 0..threads.max(1) {
            scope.spawn(move || black_box(checksum(black_box(STEPS), seed as u64 + 7)));
        }
    });
    start.elapsed().as_secs_f64()
}
