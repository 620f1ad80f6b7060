package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(3.5)
	sp := r.Span("s").Start()
	if sp.End() != 0 {
		t.Fatal("inert span reported nonzero duration")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Spans) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestDisabledPathDoesNotAllocate pins the zero-cost contract for the
// disabled (nil-handle) hot path, mirroring the obs zero-alloc test.
func TestDisabledPathDoesNotAllocate(t *testing.T) {
	var c *Counter
	var g *Gauge
	var st *SpanTimer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		st.Start().End()
	})
	if allocs != 0 {
		t.Fatalf("disabled perf path allocates %v per run, want 0", allocs)
	}
}

// TestEnabledHotPathDoesNotAllocate pins the enabled hot path too:
// handle operations are pure atomics — only registration may allocate.
func TestEnabledHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	st := r.Span("s")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		st.Start().End()
	})
	if allocs != 0 {
		t.Fatalf("enabled perf hot path allocates %v per run, want 0", allocs)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if r.Counter("x") != c {
		t.Fatal("re-registering a counter returned a different handle")
	}
	g := r.Gauge("y")
	g.Set(1.25)
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", got)
	}
}

func TestSpanTimerAggregates(t *testing.T) {
	r := NewRegistry()
	st := r.Span("region")
	for i := 0; i < 3; i++ {
		st.Start().End()
	}
	if st.Count() != 3 {
		t.Fatalf("span count = %d, want 3", st.Count())
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Count != 3 {
		t.Fatalf("snapshot spans: %+v", snap.Spans)
	}
	if snap.Spans[0].MaxNano > 0 && snap.Spans[0].MaxNano > snap.Spans[0].Nanos {
		t.Fatalf("max %d exceeds total %d", snap.Spans[0].MaxNano, snap.Spans[0].Nanos)
	}
}

// TestRegistryConcurrency hammers every metric type from pool-width
// goroutines; run with -race this doubles as the data-race check, and
// the counter totals prove no update was lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration races with use and with Snapshot on purpose.
			c := r.Counter("hits")
			st := r.Span("work")
			g := r.Gauge("last")
			for i := 0; i < iters; i++ {
				c.Add(1)
				g.Set(float64(i))
				st.Start().End()
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*iters {
		t.Fatalf("lost counter updates: %d, want %d", got, workers*iters)
	}
	if got := r.Span("work").Count(); got != workers*iters {
		t.Fatalf("lost span updates: %d, want %d", got, workers*iters)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Add(1)
	r.Counter("aa").Add(1)
	r.Counter("mm").Add(1)
	snap := r.Snapshot()
	names := []string{}
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	if names[0] != "aa" || names[1] != "mm" || names[2] != "zz" {
		t.Fatalf("snapshot not sorted: %v", names)
	}
}

func TestBenchRoundTrip(t *testing.T) {
	b := NewBench("baseline", CaptureEnv("2026-01-01T00:00:00Z", "bash bench/run.sh --out BENCH_baseline.json"))
	b.Add("sweep.wall.ns", "ns", 1e9, LowerIsBetter, 20)
	b.Add("sim.throughput.ips", "instrs/s", 4e6, HigherIsBetter, 15)
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.Name != "baseline" || len(got.Metrics) != 2 {
		t.Fatalf("round trip mangled document: %+v", got)
	}
	if m := got.Metric("sim.throughput.ips"); m == nil || m.Value != 4e6 || m.Better != HigherIsBetter {
		t.Fatalf("metric mangled: %+v", m)
	}
}

func TestReadBenchRejectsWrongSchema(t *testing.T) {
	_, err := ReadBench(strings.NewReader(`{"schema":"spear-report/2","name":"x"}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported bench schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestCompareDirectionsAndThresholds(t *testing.T) {
	old := NewBench("old", Env{})
	old.Add("wall.ns", "ns", 100, LowerIsBetter, 10)
	old.Add("ips", "instrs/s", 100, HigherIsBetter, 10)
	old.Add("info", "n", 100, LowerIsBetter, 0) // never gates
	old.Add("gone", "n", 1, LowerIsBetter, 10)

	new_ := NewBench("new", Env{})
	new_.Add("wall.ns", "ns", 120, LowerIsBetter, 10)   // +20% slower: regress
	new_.Add("ips", "instrs/s", 85, HigherIsBetter, 10) // -15% throughput: regress
	new_.Add("info", "n", 500, LowerIsBetter, 0)        // informational
	new_.Add("added", "n", 1, LowerIsBetter, 10)

	deltas := Compare(old, new_, 0)
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if !byName["wall.ns"].Regressed {
		t.Fatal("lower-is-better +20% should regress")
	}
	if !byName["ips"].Regressed {
		t.Fatal("higher-is-better -15% should regress")
	}
	if byName["info"].Regressed {
		t.Fatal("threshold 0 must never gate")
	}
	if byName["gone"].Missing != "new" || byName["added"].Missing != "old" {
		t.Fatalf("missing flags wrong: %+v %+v", byName["gone"], byName["added"])
	}
	if Regressions(deltas) != 2 {
		t.Fatalf("regressions = %d, want 2", Regressions(deltas))
	}

	// A generous override lets both moves pass.
	if n := Regressions(Compare(old, new_, 50)); n != 0 {
		t.Fatalf("override 50%% still regresses %d metrics", n)
	}
}

func TestCompareImprovementAndZeroBase(t *testing.T) {
	old := NewBench("old", Env{})
	old.Add("wall.ns", "ns", 100, LowerIsBetter, 10)
	old.Add("zero", "n", 0, LowerIsBetter, 10)
	new_ := NewBench("new", Env{})
	new_.Add("wall.ns", "ns", 50, LowerIsBetter, 10)
	new_.Add("zero", "n", 5, LowerIsBetter, 10)
	deltas := Compare(old, new_, 0)
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if !byName["wall.ns"].Improved || byName["wall.ns"].Regressed {
		t.Fatalf("halving a lower-is-better metric should improve: %+v", byName["wall.ns"])
	}
	if !math.IsInf(byName["zero"].Pct, 1) || !byName["zero"].Regressed {
		t.Fatalf("0 -> 5 should be +inf%% regression: %+v", byName["zero"])
	}
	out := RenderComparison(old, new_, deltas)
	if !strings.Contains(out, "REGRESS") || !strings.Contains(out, "improve") {
		t.Fatalf("rendered table missing verdicts:\n%s", out)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("req").Add(42)
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	Handler(r).ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 42 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}

	// Nil registry serves an empty snapshot, never panics.
	w2 := httptest.NewRecorder()
	Handler(nil).ServeHTTP(w2, req)
	if w2.Code != 200 {
		t.Fatalf("nil registry status %d", w2.Code)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	r := NewRegistry()
	st := r.Span("s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Start().End()
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var st *SpanTimer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Start().End()
	}
}
