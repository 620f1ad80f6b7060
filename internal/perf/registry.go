// Package perf is the simulator's performance-observability layer: a
// lock-free metrics registry (counters, gauges, span timers) with an
// atomic snapshot API, hierarchical wall-clock span timing, the pprof
// helpers the commands share (Profiled, MountPprof), and the
// spear-bench/1 perf-baseline document that holds measured gains across
// changes (write with bash bench/run.sh --out, diff with spearstat
// -bench).
//
// The package follows the obs.Recorder zero-cost discipline: a nil
// *Registry is a valid, permanently disabled registry, every metric
// handle it returns is nil, and every operation on a nil handle is a
// single nil check — the disabled hot path allocates nothing and costs
// one predictable branch. The enabled hot path is one atomic add per
// operation; registration (the only locked path) happens once at setup,
// never per event.
package perf

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// base anchors the package's monotonic clock: Now() durations are
// nanoseconds since process-local base, comparable only within one
// process — exactly what span timing needs, without wall-clock jumps.
var base = time.Now()

// Now returns the monotonic clock reading in nanoseconds. Subtracting
// two readings gives an elapsed duration.
func Now() int64 { return int64(time.Since(base)) }

// Counter is a monotonically increasing uint64. A nil *Counter (from a
// nil registry) ignores all adds.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64. A nil *Gauge ignores all sets.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// SpanTimer aggregates a named span region: total nanoseconds, entry
// count, and the maximum single duration. Obtain one from
// Registry.Span, then Start/End around the region. A nil *SpanTimer
// produces no-op Spans.
type SpanTimer struct {
	ns    atomic.Uint64
	count atomic.Uint64
	max   atomic.Uint64
}

// Start opens a span region. Nil-safe: a span from a nil timer is inert.
func (t *SpanTimer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: Now()}
}

// Span is one open timing region; End closes it. The zero Span is inert.
type Span struct {
	t     *SpanTimer
	start int64
}

// End records the elapsed time and returns it in nanoseconds (0 when
// inert), so call sites can reuse the measurement without reading the
// clock again.
func (s Span) End() uint64 {
	if s.t == nil {
		return 0
	}
	d := Now() - s.start
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	s.t.ns.Add(ns)
	s.t.count.Add(1)
	for {
		old := s.t.max.Load()
		if ns <= old || s.t.max.CompareAndSwap(old, ns) {
			break
		}
	}
	return ns
}

// TotalNanos returns the accumulated span time (0 on nil).
func (t *SpanTimer) TotalNanos() uint64 {
	if t == nil {
		return 0
	}
	return t.ns.Load()
}

// Count returns how many spans completed (0 on nil).
func (t *SpanTimer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Registry holds named metrics. Registration (Counter/Gauge/Span) takes
// a mutex and may allocate; the returned handles are then
// lock-free. Asking twice for the same name returns the same handle, so
// concurrent registration from pool workers is safe and cheap enough
// for per-run (not per-cycle) call sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	spans    map[string]*SpanTimer
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		spans:    map[string]*SpanTimer{},
	}
}

// Counter returns the named counter, registering it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Span returns the named span timer, registering it on first use.
// Nil-safe.
func (r *Registry) Span(name string) *SpanTimer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.spans[name]
	if !ok {
		t = &SpanTimer{}
		r.spans[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of every registered metric, with
// names sorted for deterministic serialization. Values from concurrent
// writers are individually atomic (no torn reads), though the snapshot
// as a whole is not a consistent cut — fine for monitoring and bench
// documents, which only need each metric to be a real value.
type Snapshot struct {
	Counters []CounterValue `json:"counters,omitempty"`
	Gauges   []GaugeValue   `json:"gauges,omitempty"`
	Spans    []SpanValue    `json:"spans,omitempty"`
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// SpanValue is one span timer in a snapshot.
type SpanValue struct {
	Name    string `json:"name"`
	Nanos   uint64 `json:"ns"`
	Count   uint64 `json:"count"`
	MaxNano uint64 `json:"max_ns"`
}

// Snapshot copies every metric. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, t := range r.spans {
		s.Spans = append(s.Spans, SpanValue{Name: name, Nanos: t.TotalNanos(), Count: t.Count(), MaxNano: t.max.Load()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	return s
}
