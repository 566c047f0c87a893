package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. Compile time is a per-layer metric: the
// workloads' circuits compile in milliseconds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"throughput_per_s", "1/s"},
	{"mem_p90_mb", "MB"},
}

// tracedOps are the HISA instructions whose count and time the traced run
// reports per inference.
var tracedOps = []string{"rotl", "mul", "relin", "rescale", "mulplain", "mulscalar", "add", "bootstrap"}

// bootStages are the bootstrap pipeline stages, as the tracer names their
// spans ("boot:<stage>") and as the metrics name them.
var bootStages = []struct{ span, metric string }{
	{"modraise", "modraise"},
	{"coeff-to-slot", "coeff_to_slot"},
	{"evalmod", "evalmod"},
	{"slot-to-coeff", "slot_to_coeff"},
}

// kernelKinds maps circuit op kinds (the prefix of an htc kernel scope
// label, "conv2d:conv1") to the kernel metric they are billed to.
var kernelKinds = map[string]string{
	"conv2d":          "conv2d",
	"dense":           "dense",
	"activation":      "activation",
	"polyeval":        "activation",
	"avgpool2d":       "pool",
	"globalavgpool2d": "pool",
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; a layer a workload bypasses reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"core.compile_s", "s"},
		{"core.est_cost_s", "s"},
		{"core.est_over_measured", "ratio"},
		{"core.rotation_keys", "count"},
		{"core.boot_placements", "count"},
		{"hisa.keygen_s", "s"},
		{"htc.encrypt_s", "s"},
		{"htc.execute_s", "s"},
		{"htc.decrypt_s", "s"},
		{"htc.conv2d_s", "s"},
		{"htc.dense_s", "s"},
		{"htc.activation_s", "s"},
		{"htc.pool_s", "s"},
	}
	for _, op := range tracedOps {
		ms = append(ms, metricDef{"hisa." + op + ".count", "count"}, metricDef{"hisa." + op + "_s", "s"})
	}
	ms = append(ms,
		metricDef{"boot.refreshes", "count"},
		metricDef{"boot.refresh_p50_s", "s"},
	)
	for _, st := range bootStages {
		ms = append(ms, metricDef{"boot." + st.metric + "_s", "s"})
	}
	return append(ms,
		metricDef{"ring.allocs_per_infer", "count"},
		metricDef{"ring.alloc_mb_per_infer", "MB"},
		metricDef{"serve.queue_wait_p50_s", "s"},
		metricDef{"serve.eval_p50_s", "s"},
		metricDef{"serve.lanes_per_eval", "ratio"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.latency_p90_s", "s"},
		metricDef{"fleet.session_open_p50_s", "s"},
		metricDef{"wire.session_open_bytes", "bytes"},
		metricDef{"wire.request_bytes_per_image", "bytes"},
		metricDef{"wire.response_bytes_per_image", "bytes"},
		metricDef{"fleet.relay_overhead_s", "s"},
		metricDef{"fleet.handoffs", "count"},
		metricDef{"fleet.occupied_workers", "count"},
		metricDef{"fleet.load_skew", "ratio"},
		metricDef{"telemetry.overhead_pct", "%"},
		metricDef{"telemetry.spans", "count"},
	)
}()

// reportedMetrics lists the names and units a run reports.
func reportedMetrics(traced bool) (names, units []string) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		names = append(names, d.name)
		units = append(units, d.unit)
	}
	return names, units
}

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the program reads: each workload's
// correctness budget. The rest of the file documents the benchmark.
type spec struct {
	Workloads map[string]struct {
		// MaxAbsErr bounds |decrypted - plaintext| over every output
		// element of every checked image.
		MaxAbsErr float64 `json:"max_abs_err"`
	} `json:"workloads"`
}

func loadSpec() (spec, error) {
	var s spec
	dec := json.NewDecoder(bytes.NewReader(specJSON))
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}

// budget returns a workload's error budget.
func (c runConfig) budget(workload string) float64 {
	return c.spec.Workloads[workload].MaxAbsErr
}

// quantile interpolates linearly between the closest ranks of xs (the
// telemetry.Quantile convention). It returns 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// memSampler samples, every 50 ms, the memory the Go runtime holds from
// the operating system: everything it has mapped minus what it has released.
// Its p90 over a run is the footprint the process keeps for most of the run;
// the process's single peak rides on garbage-collection timing, and it
// ranged from 74 to 114 MB between identical runs compiling the five
// Table-3 networks.
type memSampler struct {
	stopc, done chan struct{}
	mb          []float64
}

func sampleMemory() *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-tick.C:
				metrics.Read(sample)
				held := sample[0].Value.Uint64() - sample[1].Value.Uint64()
				m.mb = append(m.mb, float64(held)/(1<<20))
			}
		}
	}()
	return m
}

// stop ends the sampling, waits for the sampler to exit, and returns the
// samples in MB. It may be called more than once.
func (m *memSampler) stop() []float64 {
	select {
	case <-m.stopc:
	default:
		close(m.stopc)
	}
	<-m.done
	return m.mb
}

// setMemory reports mem_p90_mb from a run's samples and notes the process's
// peak resident set size beside it.
func (r *result) setMemory(mb []float64) {
	r.setQuantile("mem_p90_mb", mb, 0.9)
	r.note("peak_rss", fmt.Sprintf("%.1f MB (getrusage maxrss)", peakRSSMB()))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// derive mixes a stream label into the workload seed (splitmix64), so every
// input stream — images, keys, request mix — is a pure function of --seed.
func derive(seed uint64, stream string) uint64 {
	x := seed
	for _, c := range []byte(stream) {
		x = x*0x100000001b3 ^ uint64(c)
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// commitOf reads the checked-out commit from .git without running git; a
// source export without .git reports "none".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result from a source export (no .git) still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "spec.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
