//! The benchmark's own spans, recorded around calls into each layer's
//! public functions and kept in memory until the run writes them out.
//!
//! The program's `obs` tracing stays off: turning it on changes what
//! executes (it disables minibatch prefetch).

use std::cell::RefCell;
use std::time::Instant;

use gnn4tdl_serve::json;

struct Span {
    name: &'static str,
    req: u64,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Records nested spans on one thread. Off, [`Tracer::span`] only calls
/// the closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: RefCell::default(), open: RefCell::default() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` for request `req`; the span's
    /// parent is the innermost span open around this call.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span { name, req, start, end: start, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Wall time of each span named `name`, in seconds, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Self time of each span named `name`: its duration minus the time
    /// its child spans cover, in seconds, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut children = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end - s.start - c)
            .collect()
    }

    /// Sum of [`Self::self_times`] for `name`, in seconds.
    pub fn total_self(&self, name: &str) -> f64 {
        self.self_times(name).iter().sum()
    }

    /// `{"spans": [{"name", "req", "start_us", "end_us", "parent"}, ...]}`
    /// with times from the tracer's creation and `parent` an index into
    /// the same array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(96 * spans.len() + 16);
        out.push_str("{\"spans\": [");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\": ");
            json::write_str(&mut out, s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ", \"req\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                s.req,
                s.start * 1e6,
                s.end * 1e6
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {}
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 1, || {
            busy(2);
            tracer.span("inner", 1, || busy(5));
        });
        let outer = tracer.durations("outer")[0];
        let inner = tracer.durations("inner")[0];
        let own = tracer.self_times("outer")[0];
        assert!((own - (outer - inner)).abs() < 1e-9);
        assert!(own >= 0.002 && inner >= 0.005);
        let doc = json::parse(&tracer.to_json()).unwrap();
        let spans = doc.get("spans").and_then(json::Json::as_array).unwrap();
        assert_eq!(spans[1].get("parent").and_then(json::Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&json::Json::Null));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, || 7), 7);
        assert!(tracer.durations("x").is_empty());
    }
}
