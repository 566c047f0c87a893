package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"chet/internal/telemetry"
)

// tinyRun runs one workload on its tiny configuration.
func tinyRun(t *testing.T, workload string, traced bool, corrupt func([]float64)) *result {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 7, seconds: time.Second, trace: traced, tiny: true, corrupt: corrupt, spec: sp}
	if traced {
		cfg.traceOut = filepath.Join(t.TempDir(), workload+".json")
	}
	res := newResult()
	if err := workloads[workload](cfg, res); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res.finish()
	if traced {
		if _, err := os.Stat(cfg.traceOut); err != nil {
			t.Errorf("%s: traced run wrote no trace: %v", workload, err)
		}
	}
	return res
}

// TestEveryMetricEmitted runs every workload untraced and traced on tiny
// parameters: all gates pass, every end-to-end metric is measured and
// nonzero on every workload, and every per-layer metric is measured by
// the traced run of the workload that exercises its layer.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real cryptography")
	}
	measured := map[string]bool{}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, traced, nil)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, res.failed, res.attempted, res.failures)
			}
			names, units := reportedMetrics(traced)
			rep := res.report(names, units)
			if len(rep.Metrics) != len(names) {
				t.Errorf("%s traced=%v: report has %d metrics, want %d", w, traced, len(rep.Metrics), len(names))
			}
			for _, name := range names {
				if _, ok := res.samples[name]; ok {
					measured[name] = true
				}
				if !traced && !(res.metrics[name] > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, res.metrics[name])
				}
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("no workload measures per-layer metric %s", d.name)
		}
	}
}

// TestCorruptedOutputFails proves the correctness gate is live: perturbing
// one decrypted value drives the error rate above zero on every inference
// workload.
func TestCorruptedOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real cryptography")
	}
	corrupt := func(v []float64) { v[0] += 1 }
	for _, w := range []string{"nn1-boot", "fleet-serve"} {
		res := tinyRun(t, w, false, corrupt)
		if res.failed == 0 {
			t.Errorf("%s: corrupted outputs passed the gate (%d attempted)", w, res.attempted)
		}
		names, units := reportedMetrics(false)
		if res.report(names, units).Correct {
			t.Errorf("%s: corrupted run reported correct", w)
		}
	}
}

// TestTracedOutputsBitIdentical: the traced run compares every traced
// output with the untraced one bit for bit and counts a mismatch as a
// failure, so a clean traced run proves tracing does not perturb results.
func TestTracedOutputsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real cryptography")
	}
	for _, w := range []string{"nn1-boot", "fleet-serve"} {
		res := tinyRun(t, w, true, nil)
		if res.failed != 0 {
			t.Errorf("%s: traced run failed: %v", w, res.failures)
		}
	}
	if bitIdentical([]float64{1, 2}, []float64{1, 2}) != nil {
		t.Error("equal outputs reported different")
	}
	if bitIdentical([]float64{1, 2}, []float64{1, 2.0000000000000004}) == nil {
		t.Error("a one-ulp difference went unnoticed")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if _, ok := sp.Workloads[w]; !ok {
			t.Errorf("spec.json has no entry for workload %s", w)
		}
	}
}

func TestSelfTime(t *testing.T) {
	scope := func(id, parent uint64, startMS, durMS int) telemetry.Span {
		return telemetry.Span{Kind: telemetry.KindScope, Op: "s", SpanID: id, Parent: parent,
			Start: time.Duration(startMS) * time.Millisecond, Dur: time.Duration(durMS) * time.Millisecond}
	}
	spans := []telemetry.Span{
		scope(1, 0, 0, 10), // parent 0..10
		scope(2, 1, 1, 3),  // child 1..4
		scope(3, 1, 3, 3),  // child 3..6 overlaps the first
		scope(4, 1, 9, 5),  // child 9..14 sticks out of the parent
		{Kind: telemetry.KindOp, Op: "mul", Parent: 1, Start: 6 * time.Millisecond, Dur: time.Millisecond},
	}
	self := selfTime(spans)
	if got := self[1]; got != 4*time.Millisecond {
		t.Errorf("self time %v, want 4ms (10 - covered 1..6 and 9..10)", got)
	}
	if got := self[2]; got != 3*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", got)
	}
}
