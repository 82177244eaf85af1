//! Pieces every workload shares: statistics, output fingerprints, host
//! facts, resident-memory probes, the interleaved op loop, and the report
//! that becomes the command's output.

use sparsimatch_matching::Matching;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How one invocation was asked to run.
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every input of the run is drawn from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub quick: bool,
    /// Corrupt one op's output, so that the correctness gate must trip.
    pub corrupt: bool,
}

/// The tail percentile `latency_ms_tail` reads on the workloads of two op
/// kinds: the fewest timed ops a run makes still leave ten beyond it.
pub const KIND_TAIL: f64 = 0.9;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// FNV-1a over a stream of words: equal fingerprints mean equal outputs,
/// without holding two copies of a large matching.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A matching as fingerprint words: its pairs in order, then its size.
pub fn matching_words(m: &Matching) -> impl Iterator<Item = u64> + '_ {
    m.pairs()
        .flat_map(|(u, v)| [u64::from(u.0), u64::from(v.0)])
        .chain([m.len() as u64])
}

/// Compares every repetition of one op with the op's first output.
pub struct SameOutput {
    reference: Option<u64>,
    corrupt: bool,
}

impl SameOutput {
    /// With `corrupt`, the first fingerprint compared against the
    /// reference is flipped, which is how the tests prove the gate trips.
    pub fn new(corrupt: bool) -> SameOutput {
        SameOutput {
            reference: None,
            corrupt,
        }
    }

    /// `Ok` when `fp` equals the first fingerprint; the first call records it.
    pub fn verdict(&mut self, fp: u64) -> Result<(), String> {
        let Some(reference) = self.reference else {
            self.reference = Some(fp);
            return Ok(());
        };
        let fp = if std::mem::take(&mut self.corrupt) {
            fp ^ 1
        } else {
            fp
        };
        if fp == reference {
            Ok(())
        } else {
            Err("output fingerprint differs from the first repetition".into())
        }
    }

    pub fn reference(&self) -> Option<u64> {
        self.reference
    }
}

pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of unsorted samples, `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    if len < 2 {
        return [s.first().copied().unwrap_or(0.0); 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// `nproc`, total memory and kernel version, recorded in every output.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mem = proc_kib("/proc/meminfo", "MemTotal:")
        .map_or_else(|| "unknown".to_string(), |k| (k / 1024).to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    format!("nproc={nproc} mem_total_mib={mem} kernel={kernel}")
}

fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Hand the allocator's free memory back to the kernel, so that what setup
/// freed does not stay in the resident size a memory window starts from.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free memory; it
        // touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Where runs put edge files, sockets and span logs: beside the build,
/// inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the benchmark runs from a cargo target directory");
    let dir = target.join("perfbench-scratch");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    // Relative to the working directory when possible: unix socket paths
    // are limited to about a hundred bytes.
    let relative = std::env::current_dir()
        .and_then(|cwd| cwd.canonicalize())
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf));
    relative.unwrap_or(dir)
}

/// A file removed when the guard drops, on every exit path.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The benchmark's own reference kernel, which neither the seed nor the
/// program under test changes: sort a copy of 100 000 fixed random words.
/// The virtual machine's speed drifts and jumps by tens of percent (for
/// seconds at a time every op runs about 1.5× slower); of the kernels
/// tried, this one slows most like the workloads do. A pass runs right
/// before every op and setup and once after the last, and each op is
/// scaled by [`REF_NOMINAL_MS`] over the mean of the two passes around it:
/// the op's time at the speed at which a pass takes that long.
pub struct Calibration {
    words: Vec<u32>,
    sorted: Vec<u32>,
    samples: Vec<f64>,
}

/// Milliseconds one kernel pass takes at the nominal host speed.
pub const REF_NOMINAL_MS: f64 = 2.0;
const REF_WORDS: usize = 100_000;

impl Calibration {
    pub fn new() -> Calibration {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let words: Vec<u32> = (0..REF_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibration {
            sorted: words.clone(),
            words,
            samples: Vec::new(),
        }
    }

    /// Time one pass and keep the sample. Returns its index.
    pub fn sample(&mut self) -> usize {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.words);
        self.sorted.sort_unstable();
        std::hint::black_box(self.sorted[REF_WORDS / 2]);
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
        self.samples.len() - 1
    }

    /// The factor taking a time measured between passes `i` and `i + 1`
    /// to the nominal speed.
    pub fn scale(&self, i: usize) -> f64 {
        let after = self.samples.get(i + 1).unwrap_or(&self.samples[i]);
        2.0 * REF_NOMINAL_MS / (self.samples[i] + after)
    }

    /// Median pass time of the run, in ms, and the number of passes.
    pub fn median_ms(&self) -> (f64, usize) {
        (median(&self.samples), self.samples.len())
    }

    /// Resident size of the kernel's data, which `peak_rss_mib` leaves out.
    pub fn resident_mib(&self) -> f64 {
        (4 * (self.words.len() + self.sorted.len())) as f64 / f64::from(1u32 << 20)
    }
}

/// Run `setup` [`SETUP_REPS`] times between kernel passes, dropping each
/// result before the next so that only one copy is ever resident. Keeps
/// the last and returns the median seconds, nominal and raw.
pub fn repeat_setup<S>(cal: &mut Calibration, mut setup: impl FnMut() -> S) -> (S, [f64; 2]) {
    let mut timed = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let pass = cal.sample();
        let start = Instant::now();
        kept = Some(setup());
        timed.push((pass, start.elapsed().as_secs_f64()));
    }
    cal.sample();
    let nominal: Vec<f64> = timed.iter().map(|&(i, s)| s * cal.scale(i)).collect();
    let raw: Vec<f64> = timed.iter().map(|&(_, s)| s).collect();
    let kept = kept.expect("at least one setup");
    (kept, [median(&nominal), median(&raw)])
}

/// Per op kind, the timed milliseconds of each op and the factor taking
/// it to the nominal host speed.
pub struct Timed {
    pub raw: Vec<Vec<f64>>,
    pub scale: Vec<Vec<f64>>,
}

impl Timed {
    pub fn nominal(&self) -> Vec<Vec<f64>> {
        let kinds = self.raw.iter().zip(&self.scale);
        kinds
            .map(|(raw, scale)| raw.iter().zip(scale).map(|(ms, f)| ms * f).collect())
            .collect()
    }
}

/// Run `kinds` op kinds in rounds until `seconds` have passed, one op of
/// every kind per round, each right after a kernel pass, alternating the
/// order (ABBA) so that slow host drift hits every kind alike. `op(kind)`
/// returns the op's timed milliseconds.
pub fn interleave(
    kinds: usize,
    seconds: f64,
    cal: &mut Calibration,
    mut op: impl FnMut(usize) -> f64,
) -> Timed {
    let start = Instant::now();
    let mut raw = vec![Vec::new(); kinds];
    let mut passes = vec![Vec::new(); kinds];
    let mut round = 0usize;
    while round < 2 || start.elapsed().as_secs_f64() < seconds {
        for i in 0..kinds {
            let kind = if round.is_multiple_of(2) {
                i
            } else {
                kinds - 1 - i
            };
            passes[kind].push(cal.sample());
            raw[kind].push(op(kind));
        }
        round += 1;
    }
    cal.sample();
    let scale = passes
        .iter()
        .map(|p| p.iter().map(|&i| cal.scale(i)).collect())
        .collect();
    Timed { raw, scale }
}

/// What a run measured and whether every check held.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Set metric `name` to `value`, measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        match self.values.iter_mut().find(|v| v.0 == name) {
            Some(slot) => (slot.1, slot.2) = (value, samples),
            None => self.values.push((name.to_string(), value, samples)),
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.values.iter().find(|v| v.0 == name).map(|v| (v.1, v.2))
    }

    /// Count one checked op as attempted, and as failed unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
        ok
    }

    /// [`Report::check`] on a verdict whose `Err` names the problem.
    pub fn verdict(&mut self, what: &str, verdict: Result<(), String>) -> bool {
        match verdict {
            Ok(()) => self.check(true, String::new),
            Err(e) => self.check(false, || format!("{what}: {e}")),
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Start the timed phase's resident-memory window of process `pid`:
    /// writing `5` to its `clear_refs` restarts VmHWM from the current
    /// resident size, so setup's peak does not count.
    pub fn start_rss_window(&mut self, pid: u32) {
        trim_heap();
        if std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_err() {
            self.note("VmHWM could not be reset: peak_rss_mib includes setup");
        }
    }

    /// Close the window: `peak_rss_mib` is process `pid`'s VmHWM, less
    /// `own_mib` the benchmark itself keeps resident.
    pub fn end_rss_window(&mut self, pid: u32, own_mib: f64) {
        match proc_kib(&format!("/proc/{pid}/status"), "VmHWM:") {
            Some(kib) => self.set("peak_rss_mib", kib as f64 / 1024.0 - own_mib, 1),
            None => {
                self.check(false, || format!("VmHWM of process {pid} is unreadable"));
            }
        }
    }

    /// The op metrics every workload reports from its timed samples, in
    /// raw ms; `tail` is the workload's fixed tail percentile.
    pub fn set_op_metrics(
        &mut self,
        delta_ms: &[f64],
        variant_ms: &[f64],
        all_ms: &[f64],
        tail: f64,
        ops_per_s: f64,
        ops: usize,
    ) {
        self.set("delta_op_ms_p50", median(delta_ms), delta_ms.len());
        self.set("variant_op_ms_p50", median(variant_ms), variant_ms.len());
        self.set("latency_ms_tail", quantile(all_ms, tail), all_ms.len());
        self.note(format!(
            "latency_ms_tail reads p{:.0} of {} timed ops",
            100.0 * tail,
            all_ms.len()
        ));
        self.set("ops_per_s", ops_per_s, ops);
    }

    /// The op metrics of a workload of two op kinds, at the nominal host
    /// speed: `ops_per_s` counts ops per second spent in them.
    pub fn set_kind_metrics(&mut self, timed: &Timed) {
        let nominal = timed.nominal();
        let all = nominal.concat();
        let busy_s = all.iter().sum::<f64>() / 1e3;
        let ops = all.len();
        self.set_op_metrics(
            &nominal[0],
            &nominal[1],
            &all,
            KIND_TAIL,
            ops as f64 / busy_s,
            ops,
        );
        self.note(format!(
            "raw medians: {:.4} ms and {:.4} ms",
            median(&timed.raw[0]),
            median(&timed.raw[1])
        ));
    }

    /// `setup_s` at the nominal host speed, noting the raw median.
    pub fn set_setup(&mut self, [nominal, raw]: [f64; 2]) {
        self.set("setup_s", nominal, SETUP_REPS);
        self.note(format!("raw setup median: {raw:.6} s"));
    }

    /// Note the kernel's median pass, the host's speed during the run.
    pub fn note_calibration(&mut self, cal: &Calibration) {
        let (ms, passes) = cal.median_ms();
        self.note(format!(
            "reference kernel: median pass {ms:.4} ms over {passes} passes; timings are at the nominal {REF_NOMINAL_MS} ms per pass"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
    }

    #[test]
    fn the_gate_flips_once_when_corrupt() {
        let mut same = SameOutput::new(true);
        assert!(same.verdict(7).is_ok());
        assert!(same.verdict(7).is_err());
        assert!(same.verdict(7).is_ok());
        assert!(SameOutput::new(false).verdict(1).is_ok());
    }
}
