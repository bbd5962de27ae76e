//! The traced run's span recorder.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! (name, start, end, parent).  Spans nest: a span's *self time* is its
//! duration minus the time its child spans cover, so the self time of the
//! per-pass root span is the part of the end-to-end time no layer call
//! accounts for — the residual.  Spans are kept in memory (the first
//! [`KEPT_SPANS`]; later ones only feed the per-name totals) and written
//! out when the run ends.  A disabled tracer calls straight through.

use std::io::Write;
use std::time::Instant;

/// Spans kept verbatim for the trace file; every span feeds the totals.
const KEPT_SPANS: usize = 20_000;

/// Every span name the benchmark records, one per layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One pass of the workload (the root of every other span).
    Pass,
    /// `CorkiTrajectoryPolicy::plan_into`.
    Plan,
    /// `Trajectory::sample_full`.
    Sample,
    /// `RobotModel::forward_kinematics`.
    Fk,
    /// `TaskSpaceController::compute_torque` (with its reference).
    Control,
    /// `ArmSimulator::step`, the simulated arm.
    Plant,
    /// `ScenarioSpec::from_json` + `expand`.
    ScenarioExpand,
    /// `FleetSimulator::new` (with its config copy).
    FleetNew,
    /// `FleetSimulator::run`.
    FleetRun,
    /// `corki_serve::run_live`.
    RunLive,
}

impl Span {
    pub const COUNT: usize = 10;

    pub fn label(self) -> &'static str {
        match self {
            Span::Pass => "pass",
            Span::Plan => "policy.plan",
            Span::Sample => "trajectory.sample",
            Span::Fk => "robot.fk",
            Span::Control => "robot.control",
            Span::Plant => "robot.plant",
            Span::ScenarioExpand => "system.scenario_expand",
            Span::FleetNew => "system.fleet_new",
            Span::FleetRun => "system.fleet_run",
            Span::RunLive => "serve.run_live",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean self time per span, ns (0 when the span never ran).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    id: u64,
    span: Span,
    start: Instant,
    child_ns: u64,
}

struct Record {
    id: u64,
    parent: u64,
    span: Span,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<Open>,
    kept: Vec<Record>,
    dropped: u64,
    next_id: u64,
    stats: [SpanStat; Span::COUNT],
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::with_capacity(8),
            kept: Vec::new(),
            dropped: 0,
            next_id: 1,
            stats: [SpanStat::default(); Span::COUNT],
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `span` when tracing is on.
    #[inline]
    pub fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.begin(span);
        let result = f();
        self.end();
        result
    }

    /// Opens a span (when tracing is on); close it with [`Tracer::end`].
    pub fn begin(&mut self, span: Span) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            self.open.push(Open { id, span, start: Instant::now(), child_ns: 0 });
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let open = self.open.pop().expect("end() matches a begin()");
        let duration = end.duration_since(open.start).as_nanos() as u64;
        let stat = &mut self.stats[open.span.index()];
        stat.count += 1;
        stat.total_ns += duration;
        stat.self_ns += duration.saturating_sub(open.child_ns);
        let parent = self.open.last_mut().map_or(0, |parent| {
            parent.child_ns += duration;
            parent.id
        });
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Record {
                id: open.id,
                parent,
                span: open.span,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn stat(&self, span: Span) -> SpanStat {
        self.stats[span.index()]
    }

    /// Writes the kept spans as JSON lines after a header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        writeln!(out, "{{\"spans_kept\":{},\"spans_dropped\":{}}}", self.kept.len(), self.dropped)?;
        for r in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id,
                r.parent,
                r.span.label(),
                r.start_ns,
                r.end_ns
            )?;
        }
        out.flush()
    }
}
