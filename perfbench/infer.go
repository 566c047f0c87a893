package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"chet/internal/circuit"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/telemetry"
	"chet/internal/tensor"
)

// inferWorkload is an in-process encrypted-inference workload: one caller
// in a closed loop, one image per request, encrypt -> infer -> decrypt.
type inferWorkload struct {
	name    string
	model   *nn.Model
	opts    core.Options
	workers int // htc worker pool per inference (Session.Workers)
	// setupReps is how many times set-up (compile + key generation) runs;
	// setup_s is their median. compileReps is the least number of compiles
	// behind compile_s.
	setupReps, compileReps int
	// warmup inferences run, checked but untimed, between set-up and the
	// measured loop: the first inference builds key-switching forms
	// lazily, a cost paid once per session.
	warmup int
}

// runNN1 is the one-block deep MLP at logN=9 with compiler bootstrap
// placement (window 3), so every inference runs eleven refreshes. Deeper
// variants take 7 s or more per inference on a two-vCPU host, too few
// samples for a steady median in one run.
func runNN1(cfg runConfig, res *result) error {
	w := inferWorkload{
		name:  "nn1-boot",
		model: nn.DeepMLP(1),
		opts: core.Options{
			Scheme: core.SchemeRNS, SecurityBits: -1, MinLogN: 9, MaxLogN: 9,
			Policies:  []htc.LayoutPolicy{htc.PolicyCHW},
			Bootstrap: &core.BootstrapOptions{Window: 3},
		},
		workers:     2,
		setupReps:   3,
		compileReps: 5,
		warmup:      1,
	}
	if cfg.tiny {
		w.setupReps, w.compileReps = 1, 3
	}
	return runInfer(cfg, res, w)
}

// inferSetup is what set-up leaves for the measured loop.
type inferSetup struct {
	comp    *core.Compiled
	raw     hisa.Backend // the RNS backend with this run's keys
	imgs    []*tensor.Tensor
	want    []*tensor.Tensor
	compile []float64 // seconds per core.Compile, from compileSample (traced runs)
	keygen  []float64 // seconds per core.BuildBackend
	setup   []float64 // seconds per full set-up
}

// images is how many distinct seeded inputs a run cycles through.
const images = 4

// minCompileSeconds is the least compile work behind a core.compile_s median:
// workloads whose circuit compiles in a millisecond repeat it until the
// sample is this long.
const minCompileSeconds = 0.5

func setupInfer(cfg runConfig, w inferWorkload) (*inferSetup, error) {
	s := &inferSetup{}
	if cfg.trace {
		var err error
		if s.compile, err = compileSample(w.model.Circuit, w.opts, w.compileReps); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.setupReps; i++ {
		s.raw = nil
		runtime.GC() // the previous repetition's keys are garbage
		t0 := time.Now()
		comp, err := core.Compile(w.model.Circuit, w.opts)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		t1 := time.Now()
		raw, err := core.BuildBackend(comp, ring.NewTestPRNG(derive(cfg.seed, "keys")))
		if err != nil {
			return nil, fmt.Errorf("building backend: %w", err)
		}
		t2 := time.Now()
		s.keygen = append(s.keygen, t2.Sub(t1).Seconds())
		s.setup = append(s.setup, t2.Sub(t0).Seconds())
		s.comp, s.raw = comp, raw
	}
	for i := 0; i < images; i++ {
		img := nn.SyntheticImage(w.model.InputShape, derive(cfg.seed, fmt.Sprint("image", i)))
		s.imgs = append(s.imgs, img)
		s.want = append(s.want, w.model.Circuit.Evaluate(img))
	}
	runtime.GC() // key-generation garbage belongs to set-up, not to the first request
	return s, nil
}

// compileSample times repeated compiles of one circuit, at least reps of
// them and at least minCompileSeconds of compile work. Workloads take it
// before key generation, so the sample does not share the CPU with the
// collection of key-generation garbage.
func compileSample(c *circuit.Circuit, opts core.Options, reps int) ([]float64, error) {
	var xs []float64
	for len(xs) < reps || sum(xs) < minCompileSeconds {
		t0 := time.Now()
		if _, err := core.Compile(c, opts); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return xs, nil
}

// inferenceRunner executes the compiled circuit on one backend and checks
// the bootstrap tally of its Refresher against the compiler's placements.
type inferenceRunner struct {
	comp *core.Compiled
	b    hisa.Backend
	rf   *hisa.Refresher // nil without a bootstrap plan
	opts htc.ExecOptions
}

func newRunner(comp *core.Compiled, inner hisa.Backend, workers int) (*inferenceRunner, error) {
	b, err := core.BootBackend(comp, inner)
	if err != nil {
		return nil, err
	}
	r := &inferenceRunner{comp: comp, b: b, opts: htc.ExecOptions{Workers: workers}}
	r.rf, _ = b.(*hisa.Refresher)
	if comp.ScalePlan != nil {
		r.opts.Scale = htc.PlanPolicy{Plan: comp.ScalePlan}
	}
	return r, nil
}

func (r *inferenceRunner) encrypt(img *tensor.Tensor) *htc.CipherTensor {
	return htc.EncryptTensor(r.b, img, r.comp.Plan(), r.comp.Options.Scales)
}

// execute runs the circuit and requires the Refresher to have refreshed
// exactly where the compiler placed bootstraps.
func (r *inferenceRunner) execute(ct *htc.CipherTensor) (out *htc.CipherTensor, err error) {
	before := r.bootstraps()
	err = protect(func() {
		out = htc.ExecuteOpts(r.b, r.comp.Circuit, ct, r.comp.Best.Policy, r.comp.Options.Scales, r.opts)
	})
	if err != nil {
		return nil, err
	}
	if p := r.comp.BootPlan; p != nil {
		if got := r.bootstraps() - before; got != len(p.Placements) {
			return out, fmt.Errorf("placement parity: %d runtime refreshes, %d compiler placements", got, len(p.Placements))
		}
	}
	return out, nil
}

func (r *inferenceRunner) bootstraps() int {
	if r.rf == nil {
		return 0
	}
	return r.rf.Bootstraps()
}

func (r *inferenceRunner) decrypt(out *htc.CipherTensor) *tensor.Tensor {
	return htc.DecryptTensor(r.b, out)
}

func runInfer(cfg runConfig, res *result, w inferWorkload) error {
	s, err := setupInfer(cfg, w)
	if err != nil {
		return err
	}
	plain, err := newRunner(s.comp, s.raw, w.workers)
	if err != nil {
		return err
	}
	budget := cfg.budget(w.name)
	for i := 0; i < w.warmup; i++ {
		out, err := plain.execute(plain.encrypt(s.imgs[0]))
		if err == nil {
			err = res.check(plain.decrypt(out).Data, s.want[0].Data, budget, cfg.corrupt)
		}
		res.attempt(err)
	}
	if cfg.trace {
		return runInferTraced(cfg, res, w, s, plain, budget)
	}

	var lat []float64
	correct := 0
	mem := sampleMemory()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds()+median(lat) <= cfg.seconds.Seconds(); i++ {
		k := i % images
		t0 := time.Now()
		out, err := plain.execute(plain.encrypt(s.imgs[k]))
		var got *tensor.Tensor
		if err == nil {
			got = plain.decrypt(out)
		}
		lat = append(lat, time.Since(t0).Seconds())
		if err == nil {
			err = res.check(got.Data, s.want[k].Data, budget, cfg.corrupt)
		}
		res.attempt(err)
		if err == nil {
			correct++
		}
	}
	wall := time.Since(start).Seconds()
	res.setMemory(mem.stop())
	res.setQuantile("setup_s", s.setup, 0.5)
	res.setQuantile("latency_p50_s", lat, 0.5)
	res.set("throughput_per_s", float64(correct)/wall, len(lat), "images/wall")
	return nil
}

// runInferTraced alternates untraced and traced inferences of the same
// ciphertext. The untraced arm gives the layer timings and allocation
// counts; the traced arm (the backend wrapped in telemetry.Tracer) gives
// kernel, op and bootstrap-stage spans; both must decrypt to the same bits.
func runInferTraced(cfg runConfig, res *result, w inferWorkload, s *inferSetup, plain *inferenceRunner, budget float64) error {
	inner := s.raw
	if s.comp.BootPlan != nil {
		// The tracer hooks the bootstrap stages of the backend it wraps, so
		// the traced arm gets its own backend with the same keys; sharing
		// one would record the untraced arm's refreshes too.
		var err error
		if inner, err = core.BuildBackend(s.comp, ring.NewTestPRNG(derive(cfg.seed, "keys"))); err != nil {
			return fmt.Errorf("building backend: %w", err)
		}
	}
	tracer := telemetry.NewTracer(inner, telemetry.Config{Capacity: 1 << 18})
	traced, err := newRunner(s.comp, tracer, w.workers)
	if err != nil {
		return err
	}
	var latU, latT, encS, execS, decS, allocs, allocMB []float64
	traceBase := derive(cfg.seed, "trace") &^ 0xffff
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds()+median(latU)+median(latT) <= cfg.seconds.Seconds(); i++ {
		k := i % images
		t0 := time.Now()
		ct := plain.encrypt(s.imgs[k])
		t1 := time.Now()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t2 := time.Now()
		outU, err := plain.execute(ct)
		t3 := time.Now()
		runtime.ReadMemStats(&m1)
		var gotU *tensor.Tensor
		if err == nil {
			gotU = plain.decrypt(outU)
		}
		t4 := time.Now()
		encS = append(encS, t1.Sub(t0).Seconds())
		execS = append(execS, t3.Sub(t2).Seconds())
		decS = append(decS, t4.Sub(t3).Seconds())
		latU = append(latU, t1.Sub(t0).Seconds()+t4.Sub(t2).Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if err == nil {
			err = res.check(gotU.Data, s.want[k].Data, budget, cfg.corrupt)
		}

		// The traced arm reuses the ciphertext, so its output must match
		// the untraced one bit for bit; both arms pay the same encryption.
		tid := traceBase + uint64(i) + 1
		t5 := time.Now()
		endReq, _ := tracer.StartScopeCtx("bench:request", tid, 0)
		endExec := tracer.StartScope("bench:execute")
		outT, errT := traced.execute(ct)
		endExec()
		var gotT *tensor.Tensor
		if errT == nil {
			endDec := tracer.StartScope("bench:decrypt")
			gotT = traced.decrypt(outT)
			endDec()
		}
		endReq()
		latT = append(latT, t1.Sub(t0).Seconds()+time.Since(t5).Seconds())
		if err == nil {
			err = errT
		}
		if err == nil {
			err = bitIdentical(gotU.Data, gotT.Data)
		}
		res.attempt(err)
	}

	spans := tracer.Snapshot()
	setInferLayers(res, s, w, execS)
	res.setQuantile("htc.encrypt_s", encS, 0.5)
	res.setQuantile("htc.execute_s", execS, 0.5)
	res.setQuantile("htc.decrypt_s", decS, 0.5)
	res.set("ring.allocs_per_infer", median(allocs), len(allocs), "p50")
	res.set("ring.alloc_mb_per_infer", median(allocMB), len(allocMB), "p50")
	setLayerOps(res, spans, len(latT))
	overhead := 100 * (median(latT) - median(latU)) / median(latU)
	res.set("telemetry.overhead_pct", overhead, len(latT), "p50 traced vs p50 untraced")
	res.note("telemetry_overhead", fmt.Sprintf("%.2f%% over %d traced/untraced pairs; the ROADMAP budget is 5%%", overhead, len(latT)))
	res.set("telemetry.spans", float64(tracer.SpanCount())/float64(len(latT)), len(latT), "per inference")
	res.gate("trace_complete", tracer.Dropped() == 0, fmt.Sprintf("%d spans dropped", tracer.Dropped()))
	return writeTrace(cfg.traceOut, []telemetry.ProcessTrace{{
		Name: "perfbench " + w.name, PID: 1, Epoch: tracer.Epoch(), Spans: spans,
	}}, map[string]any{"workload": w.name, "seed": cfg.seed})
}

// setInferLayers reports the compiler's decisions and the set-up layers.
func setInferLayers(res *result, s *inferSetup, w inferWorkload, execS []float64) {
	est := s.comp.Best.EstimatedCost / 1e6 // microseconds
	res.setQuantile("core.compile_s", s.compile, 0.5)
	res.set("core.est_cost_s", est, 1, "cost model")
	res.set("core.est_over_measured", est/median(execS), len(execS), "estimate / p50 htc.execute_s")
	res.set("core.rotation_keys", float64(len(s.comp.Best.Rotations)), 1, "compiled")
	placements := 0
	if p := s.comp.BootPlan; p != nil {
		placements = len(p.Placements)
	}
	res.set("core.boot_placements", float64(placements), 1, "compiled")
	res.setQuantile("hisa.keygen_s", s.keygen, 0.5)
}

// checkOutput is the correctness gate for one decrypted prediction: every
// element within budget of the plaintext circuit, and the same argmax. It
// also returns the largest error it saw.
func checkOutput(got, want []float64, budget float64, corrupt func([]float64)) (float64, error) {
	if corrupt != nil {
		got = append([]float64(nil), got...)
		corrupt(got)
	}
	if len(got) != len(want) {
		return math.Inf(1), fmt.Errorf("output has %d values, plaintext %d", len(got), len(want))
	}
	maxErr := 0.0
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > maxErr || math.IsNaN(d) {
			maxErr = d
		}
	}
	if !(maxErr <= budget) {
		return maxErr, fmt.Errorf("max abs error %.3g exceeds budget %.3g", maxErr, budget)
	}
	if a, b := argmax(got), argmax(want); a != b {
		return maxErr, fmt.Errorf("argmax %d, plaintext argmax %d", a, b)
	}
	return maxErr, nil
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func bitIdentical(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("traced output has %d values, untraced %d", len(b), len(a))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("traced output %d is %v, untraced %v", i, b[i], a[i])
		}
	}
	return nil
}

// protect turns a panic in the program under test into a failed request.
func protect(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	f()
	return nil
}
