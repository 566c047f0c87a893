// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives one seeded workload in-process, times each layer from outside
// by timing calls into that layer's public functions, checks every output
// against the plaintext circuit, and prints one JSON result as its last
// line of standard output.
//
//	perfbench --workload nn1-boot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run wraps the backends in telemetry.Tracer and reports the per-layer
// metrics instead. spec.json holds each workload's rationale, the layers it
// bypasses, the correctness budgets, and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadFunc runs one workload and fills in its result.
type workloadFunc func(cfg runConfig, res *result) error

// workloads maps each workload name to the function that runs it.
var workloads = map[string]workloadFunc{
	"nn1-boot":    runNN1,
	"fleet-serve": runFleet,
}

// runConfig is everything a workload receives: the seed its inputs derive
// from, how long to measure, whether this is the traced run, and where to
// write the trace.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// traceOut is the Chrome trace file a traced run writes when it ends;
	// empty writes nothing.
	traceOut string
	// tiny swaps every workload's model and ring for the smallest ones that
	// still exercise the same layers, for the benchmark's own tests.
	tiny bool
	// corrupt, when set, perturbs every decrypted output before the
	// correctness gate sees it (tests prove the gate fires).
	corrupt func([]float64)
	spec    spec
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := flag.String("out", "", "directory for the traced run's Chrome trace (empty: none)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fail("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1, got %d", *trace)
	}
	sp, err := loadSpec()
	if err != nil {
		fail("%v", err)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		spec:    sp,
	}
	if cfg.trace && *out != "" {
		cfg.traceOut = filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}

	// A hung run ends itself, without a result, rather than hang its caller.
	time.AfterFunc(170*time.Second, func() { fail("%s: run exceeded 170s", *workload) })
	res := newResult()
	if err := run(cfg, res); err != nil {
		fail("%s: %v", *workload, err)
	}
	res.finish()

	fmt.Printf("# perfbench %s\n", stampLine(*workload, cfg))
	names, units := reportedMetrics(cfg.trace)
	for i, name := range names {
		fmt.Printf("#   %-34s %14.6g %-6s %s\n", name, res.metrics[name], units[i], res.samples[name])
	}
	for _, g := range res.gates {
		fmt.Printf("# gate %s\n", g)
	}
	line, err := json.Marshal(res.report(names, units))
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// stampLine identifies what produced a result: source revision, toolchain,
// parallelism, and the run's own parameters.
func stampLine(workload string, cfg runConfig) string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%.0f trace=%v commit=%s source=%s go=%s GOMAXPROCS=%d nproc=%d",
		workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, commitOf("."), sourceDigest("."),
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// result accumulates one run's metrics and correctness bookkeeping.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]string // "n=12 p50" per metric
	gates             []string          // every correctness gate and its verdict
	failures          []string          // first few failure messages
	// worstErr is the largest |decrypted - plaintext| any output showed;
	// negative until an output is checked.
	worstErr float64
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]string{}, worstErr: -1}
}

// check gates one decrypted output against the plaintext circuit.
func (r *result) check(got, want []float64, budget float64, corrupt func([]float64)) error {
	e, err := checkOutput(got, want, budget, corrupt)
	r.observe(e)
	return err
}

// observe records an output error for the run's error summary.
func (r *result) observe(e float64) { r.worstErr = max(r.worstErr, e) }

// set records a metric with the sample count and statistic it came from.
func (r *result) set(name string, v float64, n int, stat string) {
	r.metrics[name] = v
	r.samples[name] = fmt.Sprintf("n=%d %s", n, stat)
}

// setQuantile records the p-quantile (p50/p90) of a sample.
func (r *result) setQuantile(name string, xs []float64, p float64) {
	r.set(name, quantile(xs, p), len(xs), fmt.Sprintf("p%.0f", 100*p))
}

// attempt counts one attempted operation and, when err is non-nil, its
// failure.
func (r *result) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// gate records a run-level check; a failed gate fails the run.
func (r *result) gate(name string, ok bool, detail string) {
	verdict := "ok"
	if !ok {
		verdict = "FAIL"
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, name+": "+detail)
		}
	}
	r.gates = append(r.gates, fmt.Sprintf("%-28s %s  %s", name, verdict, detail))
}

// note records a run-level observation that is not a correctness gate.
func (r *result) note(name, detail string) {
	r.gates = append(r.gates, fmt.Sprintf("%-28s info  %s", name, detail))
}

// finish derives the error rate and lists the failures.
func (r *result) finish() {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	verdict := "ok"
	if r.failed > 0 {
		verdict = "FAIL"
	}
	r.gates = append(r.gates, fmt.Sprintf("%-28s %s  %d failed of %d attempted (%.4f)",
		"error_rate", verdict, r.failed, r.attempted, rate))
	if r.worstErr >= 0 {
		r.gates = append(r.gates, fmt.Sprintf("%-28s %.3g over every checked output", "max_abs_err", r.worstErr))
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", f)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) report(names, units []string) report {
	out := report{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for i, name := range names {
		v := r.metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[name] = metricValue{Value: v, Unit: units[i]}
	}
	return out
}
