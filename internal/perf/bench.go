package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// BenchSchema identifies the perf-baseline document format. Readers
// reject anything else, so the format can evolve by bumping the suffix.
const BenchSchema = "spear-bench/1"

// Bench is one captured performance baseline: a named set of scalar
// metrics plus the environment they were measured on. The repository
// benchmark (bash bench/run.sh --out FILE) writes one; spearstat -bench
// compares two.
type Bench struct {
	Schema  string   `json:"schema"`
	Name    string   `json:"name"`
	Env     Env      `json:"env"`
	Metrics []Metric `json:"metrics"`
}

// Env stamps where and how a baseline was captured, so a comparison
// across different machines is recognizable as apples-to-oranges.
type Env struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
	CapturedAt string `json:"captured_at,omitempty"`
	// Note records how to regenerate the document (typically the exact
	// spearbench command line).
	Note string `json:"note,omitempty"`
}

// CaptureEnv stamps the current process environment. capturedAt is
// passed in (rather than read here) so tests stay deterministic.
func CaptureEnv(capturedAt, note string) Env {
	host, _ := os.Hostname()
	return Env{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Hostname:   host,
		CapturedAt: capturedAt,
		Note:       note,
	}
}

// Metric is one measured scalar. Better says which direction is an
// improvement ("lower" or "higher"); ThresholdPct is the regression
// tolerance baked into the baseline — a comparison flags the metric when
// it moves past the threshold in the worse direction. ThresholdPct 0
// means "informational only, never gate".
type Metric struct {
	Name         string  `json:"name"`
	Unit         string  `json:"unit"`
	Value        float64 `json:"value"`
	Better       string  `json:"better"`
	ThresholdPct float64 `json:"threshold_pct,omitempty"`
}

// Better direction values for Metric.
const (
	LowerIsBetter  = "lower"
	HigherIsBetter = "higher"
)

// NewBench returns an empty named document with the schema stamped.
func NewBench(name string, env Env) *Bench {
	return &Bench{Schema: BenchSchema, Name: name, Env: env}
}

// Add appends a metric.
func (b *Bench) Add(name, unit string, value float64, better string, thresholdPct float64) {
	b.Metrics = append(b.Metrics, Metric{Name: name, Unit: unit, Value: value, Better: better, ThresholdPct: thresholdPct})
}

// Sort orders metrics by name for stable serialization.
func (b *Bench) Sort() {
	sort.Slice(b.Metrics, func(i, j int) bool { return b.Metrics[i].Name < b.Metrics[j].Name })
}

// Metric returns the named metric, or nil.
func (b *Bench) Metric(name string) *Metric {
	for i := range b.Metrics {
		if b.Metrics[i].Name == name {
			return &b.Metrics[i]
		}
	}
	return nil
}

// WriteJSON serializes the document with metrics sorted by name.
func (b *Bench) WriteJSON(w io.Writer) error {
	b.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBench parses and validates a spear-bench/1 document.
func ReadBench(r io.Reader) (*Bench, error) {
	var b Bench
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("parse bench document: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("unsupported bench schema %q (want %q)", b.Schema, BenchSchema)
	}
	return &b, nil
}

// ReadBenchFile reads a spear-bench/1 document from disk.
func ReadBenchFile(path string) (*Bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := ReadBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
