//! In-memory span recorder for the traced run.
//!
//! A span has a name, start and end (ns since the recorder's origin), an
//! optional parent span and an optional frame id; spans of one frame
//! share that id. Spans are only recorded around calls this benchmark
//! makes into the program's public API. Per-thread CPU samples are kept
//! alongside. Everything is written out once, at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;
use crate::procstat::ThreadCpu;

pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    frame: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct CpuSample {
    at_ns: u64,
    cpu: ThreadCpu,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    samples: Vec<CpuSample>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            samples: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        frame: Option<u64>,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            frame,
        });
        id
    }

    /// Opens a span whose end is not known yet; see [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.span(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, start, end, parent, frame);
        (out, (end - start).as_secs_f64())
    }

    pub fn sample_cpu(&mut self, cpu: ThreadCpu) {
        let at_ns = self.ns(Instant::now());
        self.samples.push(CpuSample { at_ns, cpu });
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span and CPU sample as one JSON document.
    pub fn write(&self, path: &Path, header: &json::Object) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"run\": {},", header.encode())?;
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"frame\": {}}}{sep}",
                json::string(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.frame),
            )?;
        }
        writeln!(out, "],\n\"cpu_samples\": [")?;
        for (i, s) in self.samples.iter().enumerate() {
            let sep = if i + 1 == self.samples.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"at_ns\": {}, \"driver_cpu_s\": {}, \"worker_cpu_s\": {}, \"worker_threads\": {}}}{sep}",
                s.at_ns,
                json::number(s.cpu.driver_s),
                json::number(s.cpu.others_s),
                s.cpu.others,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
