//! The three serving workloads: deploy a frozen plan on three devices,
//! stream images through the session in a closed loop and at a full credit
//! window, and check every output against the single-device reference.

use crate::metrics::{calmest, percentile, Outcome};
use crate::spans::SpanLog;
use crate::RunOpts;
use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use edge_runtime::{
    ChannelTransport, Runtime, RuntimeOptions, RuntimeReport, Session, TcpTransport, Ticket,
    Transport,
};
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Providers every serving workload deploys.
pub const DEVICES: usize = 3;
/// The credit window of the load generator (and of the deployment).
pub const WINDOW: usize = 2;
/// Share of each round spent in the closed loop; the rest is pipelined.
const CLOSED_SHARE: f64 = 0.5;
/// Largest |out − reference| / reference range a quantized output may show.
/// Random weights and two re-quantising hops put tiny-vgg at 0.01–0.05 on
/// most seeds, with a thin tail: 0.092 was the worst of seeds 1–400.  A
/// broken int8 path is off by half the range or more.
pub const Q8_TOLERANCE: f64 = 0.15;

/// One serving workload.  The plan is frozen here, not planned per run, so
/// that planner changes cannot move the serving numbers.
pub struct ServingSpec {
    pub name: &'static str,
    pub model: fn() -> Model,
    /// Layer-volume boundaries; every volume is split into equal bands.
    pub cuts: &'static [usize],
    pub tcp: bool,
    pub quantized: bool,
    /// Images served after each deploy before anything is timed.
    pub warmup: usize,
    /// Set-ups per run; `setup_s` is the fastest of them.
    pub setups: usize,
    /// Distinct input images the run cycles through.
    pub inputs: usize,
    /// Rounds of (closed loop, then full window) one run measures.
    pub rounds: usize,
}

pub const VGG11_INPROC: ServingSpec = ServingSpec {
    name: "vgg11_inproc",
    model: zoo::vgg11,
    cuts: &[0, 7, 10, 13],
    tcp: false,
    quantized: false,
    warmup: 3,
    // A set-up faults in 1.3 GB of fresh pages and streams the weights
    // twice; on a shared host that takes 2 s or 4 s.  Eight tries find 2 s.
    setups: 8,
    inputs: 3,
    rounds: 3,
};

pub const TINYVGG_TCP: ServingSpec = ServingSpec {
    name: "tinyvgg_tcp",
    model: zoo::tiny_vgg,
    cuts: &[0, 3, 6, 7],
    tcp: true,
    quantized: false,
    warmup: 200,
    setups: 5,
    inputs: 16,
    rounds: 20,
};

pub const TINYVGG_TCP_Q8: ServingSpec = ServingSpec {
    name: "tinyvgg_tcp_q8",
    quantized: true,
    ..TINYVGG_TCP
};

impl ServingSpec {
    /// A plan over the frozen cuts; `split` bands a volume of the given
    /// output height.
    pub fn plan(
        &self,
        model: &Model,
        split: impl Fn(usize) -> VolumeSplit,
    ) -> Result<ExecutionPlan, String> {
        let scheme = PartitionScheme::new(model, self.cuts.to_vec()).map_err(err)?;
        let splits: Vec<VolumeSplit> = scheme
            .volumes()
            .iter()
            .map(|v| split(v.last_output_height(model)))
            .collect();
        let plan = ExecutionPlan::from_splits(model, &scheme, &splits, DEVICES).map_err(err)?;
        plan.validate(model).map_err(err)?;
        Ok(plan)
    }

    fn warmup(&self, opts: &RunOpts) -> usize {
        if opts.quick {
            self.warmup.min(10)
        } else {
            self.warmup
        }
    }

    fn setups(&self, opts: &RunOpts) -> usize {
        if opts.quick {
            1
        } else {
            self.setups
        }
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Restricts the calling thread, and every thread spawned from it later, to
/// the last CPU it may run on; returns that CPU's number.
///
/// Every serving workload runs this way.  Two vCPUs of a shared host are
/// sometimes two cores and sometimes much less (the host may run both on
/// one core's hyperthreads), for minutes at a stretch: whatever keeps both
/// busy reads 30–45 % slower then, and nothing inside a 20 s run can tell.
/// The tiny workloads suffer twice: an image there is a chain of some
/// thirty thread wake-ups of ~50 µs of work each, and across vCPUs each is
/// an interrupt into a halted vCPU that the host must schedule first.  One
/// busy vCPU always gets a core: runs on one CPU repeat to 1–6 %.  The
/// kernel, codec, socket, dispatch and hand-off costs under test are all
/// still paid; what no longer shows is how well the program uses a second
/// core (`available_parallelism` reads 1, so the rayon shim runs inline).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // glibc's `cpu_set_t`: 1024 bits.  std links libc already.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; `allowed` is `size` writable bytes.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is `size` readable bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Everything a serving run generates from the seed before timing starts.
pub struct Fixture {
    pub model: Model,
    pub weights: ModelWeights,
    pub plan: ExecutionPlan,
    pub inputs: Vec<Tensor>,
    /// Every layer's f32 single-device output for `inputs[0]`.
    pub layer_outputs: Vec<Tensor>,
    pub checker: Checker,
}

impl Fixture {
    pub fn new(spec: &ServingSpec, opts: &RunOpts) -> Result<Self, String> {
        let model = (spec.model)();
        let weights = ModelWeights::deterministic(&model, opts.seed);
        let plan = spec.plan(&model, |h| VolumeSplit::equal(DEVICES, h))?;
        let inputs: Vec<Tensor> = (0..spec.inputs as u64)
            .map(|i| deterministic_input(&model, opts.seed.wrapping_mul(1_000_003).wrapping_add(i)))
            .collect();
        let mut layer_outputs = Vec::new();
        let mut references = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let mut outputs = exec::run_full(&model, &weights, input).map_err(err)?;
            references.push(outputs.last().cloned().ok_or("model has no layers")?);
            if i == 0 {
                layer_outputs = std::mem::take(&mut outputs);
            }
        }
        Ok(Self {
            model,
            weights,
            plan,
            inputs,
            layer_outputs,
            checker: Checker::new(references, !spec.quantized),
        })
    }
}

/// Compares every served output with its reference and keeps the count.
pub struct Checker {
    references: Vec<Tensor>,
    /// Spread of the reference outputs over the whole input pool.  (One
    /// image's logits can span a far smaller range after the final ReLU,
    /// which would turn a normal quantisation step into a large fraction.)
    range: f64,
    /// First output seen per input: repeats must reproduce it bit for bit.
    first: Vec<Option<Tensor>>,
    exact: bool,
    pub attempted: u64,
    pub failed: u64,
    pub max_err_frac: f64,
}

impl Checker {
    pub fn new(references: Vec<Tensor>, exact: bool) -> Self {
        let values = || references.iter().flat_map(|r| r.data().iter().copied());
        let lo = values().fold(f32::INFINITY, f32::min);
        let hi = values().fold(f32::NEG_INFINITY, f32::max);
        Self {
            first: vec![None; references.len()],
            range: f64::from(hi - lo).max(f64::MIN_POSITIVE),
            references,
            exact,
            attempted: 0,
            failed: 0,
            max_err_frac: 0.0,
        }
    }

    /// f32 outputs must equal `run_full`'s bit for bit; quantized outputs
    /// must stay within [`Q8_TOLERANCE`] of it and repeat bit for bit.
    pub fn check(&mut self, input: usize, out: &Tensor) {
        self.attempted += 1;
        let reference = &self.references[input];
        let ok = if self.exact {
            out == reference
        } else {
            let stable = match &self.first[input] {
                Some(first) => first == out,
                None => {
                    self.first[input] = Some(out.clone());
                    true
                }
            };
            let frac = match out.max_abs_diff(reference) {
                Ok(diff) => f64::from(diff) / self.range,
                Err(_) => f64::INFINITY,
            };
            self.max_err_frac = self.max_err_frac.max(frac);
            stable && frac <= Q8_TOLERANCE
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// Band boundaries moved: quantized outputs may legitimately change.
    pub fn plan_changed(&mut self) {
        self.first.iter_mut().for_each(|f| *f = None);
    }
}

/// A live deployment.  The session is declared first so it shuts down
/// before the fabric whose accept threads it relies on.
pub struct Deployed {
    pub session: Session,
    _transport: Box<dyn Transport>,
}

pub fn deploy(spec: &ServingSpec, fx: &Fixture, telemetry: &Telemetry) -> Result<Deployed, String> {
    let mut transport: Box<dyn Transport> = if spec.tcp {
        Box::new(TcpTransport::new(DEVICES).map_err(err)?)
    } else {
        Box::new(ChannelTransport::new(DEVICES))
    };
    let options = RuntimeOptions::default()
        .with_max_in_flight(WINDOW)
        .with_recv_timeout(Duration::from_secs(60))
        .with_quantized(spec.quantized);
    let session = Runtime::deploy_traced(
        &fx.model,
        &fx.plan,
        &fx.weights,
        transport.as_mut(),
        &options,
        telemetry,
    )
    .map_err(err)?;
    Ok(Deployed {
        session,
        _transport: transport,
    })
}

/// When a phase of the load generator ends.
#[derive(Clone, Copy)]
pub enum Stop {
    Images(usize),
    At(Instant),
}

impl Stop {
    fn reached(self, served: usize) -> bool {
        match self {
            Stop::Images(n) => served >= n,
            Stop::At(t) => Instant::now() >= t,
        }
    }
}

/// What a pipelined phase measured.
pub struct Pipelined {
    /// Completions per second while the window was kept full.
    pub ips: f64,
    pub images: usize,
}

/// The load generator: one submitter thread over one session.
pub struct Load<'a> {
    pub session: &'a Session,
    inputs: &'a [Tensor],
    pub checker: &'a mut Checker,
    /// Images submitted to this session so far; the session numbers its
    /// tickets the same way, so this is the request id of the next image.
    submitted: u64,
}

impl<'a> Load<'a> {
    pub fn new(session: &'a Session, inputs: &'a [Tensor], checker: &'a mut Checker) -> Self {
        Self {
            session,
            inputs,
            checker,
            submitted: 0,
        }
    }

    fn next_input(&mut self) -> (usize, u64) {
        let request = self.submitted;
        self.submitted += 1;
        ((request % self.inputs.len() as u64) as usize, request)
    }

    /// One image outstanding at a time; returns each image's latency (ms)
    /// from before `submit` to after `wait`.
    pub fn closed_loop(&mut self, stop: Stop, log: &mut SpanLog) -> Result<Vec<f64>, String> {
        let mut latencies = Vec::new();
        while !stop.reached(latencies.len()) {
            let (input, request) = self.next_input();
            let (session, image) = (self.session, &self.inputs[input]);
            let t0 = Instant::now();
            let out = log.scope("e2e.request", Some(request), |log| {
                let ticket = log.scope("edge-runtime.submit", Some(request), |_| {
                    session.submit(image)
                })?;
                log.scope("edge-runtime.wait", Some(request), |_| session.wait(ticket))
            });
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            self.checker.check(input, &out.map_err(err)?);
        }
        Ok(latencies)
    }

    /// Keeps [`WINDOW`] images in flight until `until`, then drains.
    /// Throughput is counted from the first completion to the last one
    /// that happened while the window was still being refilled, so neither
    /// the ramp-up nor the drain dilutes it.
    pub fn pipelined(&mut self, until: Instant) -> Result<Pipelined, String> {
        let started = Instant::now();
        let mut in_flight: VecDeque<(Ticket, usize)> = VecDeque::with_capacity(WINDOW);
        let mut full_window: Vec<Instant> = Vec::new();
        let mut images = 0;
        loop {
            let refilling = Instant::now() < until;
            while refilling && in_flight.len() < WINDOW {
                let (input, _) = self.next_input();
                let ticket = self.session.submit(&self.inputs[input]).map_err(err)?;
                in_flight.push_back((ticket, input));
            }
            let Some((ticket, input)) = in_flight.pop_front() else {
                break;
            };
            let out = self.session.wait(ticket).map_err(err)?;
            if refilling {
                full_window.push(Instant::now());
            }
            images += 1;
            self.checker.check(input, &out);
        }
        let ips = match (full_window.first(), full_window.last()) {
            (Some(first), Some(last)) if full_window.len() > 2 => {
                (full_window.len() - 1) as f64 / (*last - *first).as_secs_f64()
            }
            // Too short a phase to reach a steady state (smoke runs only).
            _ => images as f64 / started.elapsed().as_secs_f64(),
        };
        Ok(Pipelined { ips, images })
    }
}

pub fn device_sum(report: &RuntimeReport, f: impl Fn(&edge_runtime::DeviceMetrics) -> f64) -> f64 {
    report.devices.iter().map(f).sum()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Deploys and warms one session up; returns it with the set-up time and,
/// within it, the deploy time (both seconds).
pub fn set_up(
    spec: &ServingSpec,
    fx: &mut Fixture,
    opts: &RunOpts,
    telemetry: &Telemetry,
    log: &mut SpanLog,
) -> Result<(Deployed, f64, f64), String> {
    let warmup = spec.warmup(opts);
    let t0 = Instant::now();
    let (deployed, deploy_s) = log.scope("e2e.setup", None, |log| {
        let deployed = log.scope("edge-runtime.deploy", None, |_| deploy(spec, fx, telemetry))?;
        let deploy_s = t0.elapsed().as_secs_f64();
        log.scope("e2e.warmup", None, |log| {
            Load::new(&deployed.session, &fx.inputs, &mut fx.checker)
                .closed_loop(Stop::Images(warmup), log)
        })?;
        Ok::<_, String>((deployed, deploy_s))
    })?;
    Ok((deployed, t0.elapsed().as_secs_f64(), deploy_s))
}

/// The untraced pass: the end-to-end metrics of one serving workload.
pub fn run(spec: &ServingSpec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut fx = Fixture::new(spec, opts)?;
    let mut log = SpanLog::new(false);
    let telemetry = Telemetry::disabled();

    let (deployed, first_setup_s, _) = set_up(spec, &mut fx, opts, &telemetry, &mut log)?;

    let round = Duration::from_secs_f64(opts.seconds / spec.rounds as f64);
    let mut samples = 0;
    let mut p50 = Vec::new();
    let mut ips = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut load = Load::new(&deployed.session, &fx.inputs, &mut fx.checker);
    for _ in 0..spec.rounds {
        let start = Instant::now();
        let latencies =
            load.closed_loop(Stop::At(start + round.mul_f64(CLOSED_SHARE)), &mut log)?;
        samples += latencies.len();
        p50.push(percentile(&latencies, 50.0).0);
        let before = device_sum(&load.session.metrics(), |d| d.bytes_in as f64);
        let phase = load.pipelined(start + round)?;
        let after = device_sum(&load.session.metrics(), |d| d.bytes_in as f64);
        ips.push(phase.ips);
        wire_bytes.push((after - before) / phase.images as f64);
    }
    deployed.session.shutdown().map_err(err)?;
    // Read before the set-ups below: every re-deploy in one process leaves
    // some 2 MB of allocator arenas behind, which no user of one deployment
    // sees (11 MB after the first on `tinyvgg_tcp`, 17–22 MB after five).
    let peak_rss_mb = peak_rss_mb()?;

    // The first set-up also pays for memory the process never touched
    // before; the others show what a set-up costs by itself.
    let mut setup_s = vec![first_setup_s];
    for _ in 1..spec.setups(opts) {
        let (again, total_s, _) = set_up(spec, &mut fx, opts, &telemetry, &mut log)?;
        setup_s.push(total_s);
        again.session.shutdown().map_err(err)?;
    }

    let mut outcome = Outcome {
        attempted: fx.checker.attempted,
        failed: fx.checker.failed,
        ..Outcome::default()
    };
    // The wire cost of an image is a property of the plan: it must repeat.
    if wire_bytes.iter().any(|b| *b != wire_bytes[0]) {
        println!("wire bytes per image differ between rounds: {wire_bytes:?}");
        outcome.failed += 1;
    }
    println!(
        "{}: {samples} closed-loop samples in {} rounds; p50 per round {p50:.3?} ms, \
         ips per round {ips:.2?}, {} B/image on the wire, set-ups {setup_s:.3?} s, \
         max output error {:.5} of range",
        spec.name, spec.rounds, wire_bytes[0], fx.checker.max_err_frac,
    );
    // Other tenants of a shared box only ever add time, and they do so for
    // seconds at a stretch: the calmest round is the program's own cost.
    outcome.set("latency_ms_p50", calmest(&p50));
    outcome.set("throughput_per_s", ips.iter().copied().fold(0.0, f64::max));
    outcome.set("peak_rss_mb", peak_rss_mb);
    outcome.set("quality", 1.0 - fx.checker.max_err_frac);
    outcome.set("setup_s", calmest(&setup_s));
    Ok(outcome)
}
