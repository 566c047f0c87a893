package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chet/internal/core"
	"chet/internal/fleet"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/serve"
	"chet/internal/telemetry"
	"chet/internal/tensor"
)

// fleetWorkload sizes fleet-serve: LeNet-tiny compiled with batch capacity
// 8, served by two in-process workers behind an in-process router, driven
// by two closed-loop clients.
type fleetWorkload struct {
	model   *nn.Model
	opts    core.Options
	workers int
	clients int
	// reopenAfter is how long a session serves before its client closes
	// it and opens a fresh one (key generation, key upload and router
	// handoff). A period in time, not in requests, fixes how many opens a
	// run holds: they take about 2 s each, and counting requests let a
	// slow stretch of the host change their number and with it the run's
	// throughput.
	reopenAfter time.Duration
	// setupReps is how many fleets an untraced run starts; setup_s is
	// their median set-up time.
	setupReps   int
	compileReps int
}

func newFleetWorkload(tiny bool) fleetWorkload {
	w := fleetWorkload{
		model:       nn.LeNetTiny(),
		opts:        core.Options{Scheme: core.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11, Batch: 8},
		workers:     2,
		clients:     2,
		reopenAfter: 10 * time.Second,
		setupReps:   3,
		compileReps: 5,
	}
	if tiny {
		w.reopenAfter, w.setupReps, w.compileReps = 300*time.Millisecond, 1, 2
	}
	return w
}

// fleetImages is the size of the seeded image pool requests draw from.
const fleetImages = 8

// requestMix is one block of a client's requests, as lanes per request: 1
// is a single-image Infer, more is a client-packed InferBatch. Every block
// holds the same requests in a seeded order, so the images per request do
// not depend on the seed.
var requestMix = []int{1, 1, 1, 1, 2, 4, 6, 8}

// runFleet measures the served fleet. The untraced run starts the fleet
// setupReps times and measures the last one for the whole run. The traced run starts an untraced fleet for the first
// half and a tracing fleet (serve.Config.Trace) for the second, with the
// same seeds, so tracing overhead and bit-identity are measured on the same
// request sequence.
func runFleet(cfg runConfig, res *result) error {
	w := newFleetWorkload(cfg.tiny)
	imgs := make([]*tensor.Tensor, fleetImages)
	want := make([]*tensor.Tensor, fleetImages)
	for i := range imgs {
		imgs[i] = nn.SyntheticImage(w.model.InputShape, derive(cfg.seed, fmt.Sprint("image", i)))
		want[i] = w.model.Circuit.Evaluate(imgs[i])
	}
	if !cfg.trace {
		// Set-up runs setupReps times and setup_s is the median; the last
		// fleet started is the one measured.
		var setups []float64
		var st *fleetStack
		for rep := 0; rep < w.setupReps; rep++ {
			if st != nil {
				st.stop()
				runtime.GC() // the stopped fleet's keys are garbage
			}
			var err error
			if st, err = startFleet(cfg, w, false); err != nil {
				return err
			}
			setups = append(setups, st.setup)
		}
		mem := sampleMemory()
		ph := runFleetPhase(cfg, w, st, imgs, want, cfg.seconds)
		res.setMemory(mem.stop())
		st.stop()
		ph.record(res)
		res.setQuantile("setup_s", setups, 0.5)
		res.setQuantile("latency_p50_s", ph.latency, 0.5)
		res.set("throughput_per_s", float64(ph.windowImages)/ph.wall, ph.windowImages, "correct images answered within the run / run seconds")
		return nil
	}

	compiles, err := compileSample(w.model.Circuit, w.opts, w.compileReps)
	if err != nil {
		return err
	}
	phase := func(traced bool) (*fleetPhase, error) {
		st, err := startFleet(cfg, w, traced)
		if err != nil {
			return nil, err
		}
		defer st.stop()
		return runFleetPhase(cfg, w, st, imgs, want, cfg.seconds/2), nil
	}
	base, err := phase(false)
	if err != nil {
		return err
	}
	base.record(res)
	tr, err := phase(true)
	if err != nil {
		return err
	}
	tr.record(res)
	// Each client's first session replays the same keys, image draws and
	// encryption randomness in both phases, so its answers must agree bit
	// for bit.
	for i := range base.firstOutputs {
		n := min(len(base.firstOutputs[i]), len(tr.firstOutputs[i]))
		for k := 0; k < n; k++ {
			res.attempt(bitIdentical(base.firstOutputs[i][k], tr.firstOutputs[i][k]))
		}
	}

	res.setQuantile("core.compile_s", compiles, 0.5)
	res.set("core.est_cost_s", tr.comp.Best.EstimatedCost/1e6, 1, "cost model")
	res.set("core.rotation_keys", float64(len(tr.comp.Best.Rotations)), 1, "compiled")
	res.setQuantile("htc.encrypt_s", tr.encrypt, 0.5)
	res.setQuantile("htc.decrypt_s", tr.decrypt, 0.5)
	res.setQuantile("serve.queue_wait_p50_s", tr.queueWait, 0.5)
	res.setQuantile("serve.eval_p50_s", tr.eval, 0.5)
	res.setQuantile("htc.execute_s", tr.eval, 0.5)
	res.set("core.est_over_measured", tr.comp.Best.EstimatedCost/1e6/median(tr.eval), len(tr.eval), "estimate / p50 serve eval")
	res.set("serve.lanes_per_eval", float64(tr.images)/float64(max(tr.evals, 1)), tr.evals, "images/evaluations")
	res.set("serve.rejected", float64(tr.rejected), tr.requests, "count")
	res.setQuantile("serve.latency_p90_s", tr.latency, 0.9)
	res.setQuantile("fleet.session_open_p50_s", tr.opens, 0.5)
	res.set("wire.session_open_bytes", median(tr.openBytes), len(tr.openBytes), "p50")
	res.set("wire.request_bytes_per_image", float64(tr.reqBytes)/float64(max(tr.images, 1)), tr.images, "mean")
	res.set("wire.response_bytes_per_image", float64(tr.respBytes)/float64(max(tr.images, 1)), tr.images, "mean")
	res.set("fleet.relay_overhead_s", tr.relayOverhead, tr.requests, "mean client RTT - mean worker latency")
	res.set("fleet.handoffs", float64(tr.handoffs), 1, "count")
	res.set("fleet.occupied_workers", float64(tr.occupied), 1, "count")
	res.set("fleet.load_skew", tr.skew, 1, "max/mean relayed")
	// Workers dump the spans of their live sessions only, so op and kernel
	// figures average the evaluations those sessions ran.
	ws := tr.workerSpans()
	evals := 0
	for _, sp := range ws {
		if sp.Kind == telemetry.KindScope && strings.HasPrefix(sp.Op, "infer ") {
			evals++
		}
	}
	setLayerOps(res, ws, evals)
	overhead := 100 * (median(tr.latency) - median(base.latency)) / median(base.latency)
	res.set("telemetry.overhead_pct", overhead, len(tr.latency), "p50 traced vs p50 untraced phase")
	res.note("telemetry_overhead", fmt.Sprintf("%.2f%% over %d traced and %d untraced requests; the ROADMAP budget is 5%%",
		overhead, len(tr.latency), len(base.latency)))
	res.set("telemetry.spans", float64(len(ws))/float64(max(evals, 1)), evals, "worker spans per evaluation")
	return writeTrace(cfg.traceOut, tr.procs, map[string]any{"workload": "fleet-serve", "seed": cfg.seed})
}

// fleetPhase is one fleet's measurements.
type fleetPhase struct {
	comp                    *core.Compiled
	setup                   float64
	latency, rtt            []float64 // client-seen per request; Infer round trip only
	encrypt, decrypt        []float64
	opens, openBytes        []float64
	queueWait, eval         []float64 // per-worker window p50s
	requests, images, evals int
	windowImages            int // correct images answered within the phase
	rejected, handoffs      uint64
	reqBytes, respBytes     int64
	relayOverhead, skew     float64
	wall                    float64 // the measured seconds
	worst                   float64 // largest output error
	workers, occupied       int
	// errs are the phase's per-operation outcomes (nil = correct).
	errs []error
	// firstOutputs holds, per client, the decrypted values of its first
	// session's requests in order.
	firstOutputs [][][]float64
	procs        []telemetry.ProcessTrace
}

// record counts the phase's operations and gates its placement: a phase
// that left a worker idle measured a smaller fleet than it claims.
func (p *fleetPhase) record(res *result) {
	for _, err := range p.errs {
		res.attempt(err)
	}
	res.observe(p.worst)
	res.gate("occupied_workers", p.occupied >= p.workers,
		fmt.Sprintf("%d of %d workers served requests (load skew %.2f)", p.occupied, p.workers, p.skew))
}

// workerSpans are the spans the workers recorded (every process but the
// router and the benchmark's own).
func (p *fleetPhase) workerSpans() []telemetry.Span {
	var out []telemetry.Span
	for _, pt := range p.procs {
		if pt.Name != "chet-router" && pt.Name != "perfbench" {
			out = append(out, pt.Spans...)
		}
	}
	return out
}

// fleetClient is one closed-loop client: a session at a time, each on its
// own connection to the router.
type fleetClient struct {
	idx     int
	worker  string // the worker every session of this client lands on
	c       *serve.Client
	conn    *countedConn
	session int       // sessions opened so far
	opened  time.Time // when the current session opened
	// read0/written0 are the connection's byte counts once its session
	// opened; the rest is request and response traffic.
	read0, written0 int64
	traceN          uint64
	mix             *rand.Rand
	block           []int // the rest of the current requestMix block
	spans           *telemetry.SpanRing

	latency, rtt, encrypt, decrypt, opens, openBytes []float64
	requests, images                                 int
	windowImages                                     int // correct images answered before the phase ended
	reqBytes, respBytes                              int64
	errs                                             []error
	first                                            [][]float64
	worst                                            float64 // largest output error
}

// fleetStack is one running fleet: the serve workers and the router on
// loopback, and every client with its first session open.
type fleetStack struct {
	comp    *core.Compiled
	lns     []net.Listener // the workers' listeners, then the router's
	servers []*serve.Server
	router  *fleet.Router
	op      *opener
	clients []*fleetClient
	spans   *telemetry.SpanRing
	// setup is the seconds from compile to every client's first session
	// open: compile, starting the workers and the router, and the opens.
	setup float64
}

// startFleet brings up a fleet and opens every client's first session.
// On error it stops whatever it started.
func startFleet(cfg runConfig, w fleetWorkload, traced bool) (st *fleetStack, err error) {
	// Choosing the ports is the benchmark's own work, not set-up.
	lns, owners, err := listenPlacementStable(w.workers)
	if err != nil {
		return nil, err
	}
	st = &fleetStack{lns: lns}
	defer func() {
		if err != nil {
			st.stop()
			st = nil
		}
	}()
	t0 := time.Now()
	if st.comp, err = core.Compile(w.model.Circuit, w.opts); err != nil {
		return st, fmt.Errorf("compile: %w", err)
	}
	for i := 0; i < w.workers; i++ {
		s, err := serve.New(serve.Config{
			Compiled: st.comp,
			// Only the one client placed here has sessions on this
			// worker, and only its current one is live; older key sets
			// are evicted, bounding memory.
			MaxSessions:  1,
			Workers:      1,
			Parallel:     1,
			Trace:        traced,
			ProcessLabel: fmt.Sprintf("worker-%d", i),
		})
		if err != nil {
			return st, err
		}
		st.servers = append(st.servers, s)
	}
	var addrs []string
	for i, ln := range lns {
		go st.servers[i].Serve(ln)
		addrs = append(addrs, ln.Addr().String())
	}
	// The router keeps every client's current session plus the one a
	// reopening client just left; older key sets are evicted, bounding
	// memory.
	if st.router, err = fleet.New(fleet.Config{Workers: addrs, MaxSessions: w.clients + 1, ProbeInterval: 100 * time.Millisecond}); err != nil {
		return st, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.lns = append(st.lns, rl)
	cl := &countingListener{Listener: rl}
	go st.router.Serve(cl)
	st.op = &opener{router: st.router, ring: newRing(addrs), ln: cl, addr: rl.Addr().String(), comp: st.comp, seed: cfg.seed}

	if traced {
		st.spans = telemetry.NewSpanRing(1 << 14)
	}
	for i := 0; i < w.clients; i++ {
		c := &fleetClient{
			idx:    i,
			worker: owners[i],
			mix:    rand.New(rand.NewSource(int64(derive(cfg.seed, fmt.Sprint("mix", i))))),
			spans:  st.spans,
		}
		st.clients = append(st.clients, c)
		if err := st.op.reopen(c); err != nil {
			return st, fmt.Errorf("opening client %d: %w", i, err)
		}
	}
	st.setup = time.Since(t0).Seconds()
	return st, nil
}

// stop closes the clients' sessions, then shuts down the router and the
// workers and waits for them to drain.
func (st *fleetStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, c := range st.clients {
		c.close()
	}
	if st.router != nil {
		st.router.Shutdown(ctx)
	}
	for _, s := range st.servers {
		s.Shutdown(ctx)
	}
	for _, ln := range st.lns {
		ln.Close() // a listener no server took over; the rest are closed already
	}
}

// runFleetPhase measures one running fleet for dur. Both clients run a
// closed loop until dur has passed and finish the request in flight;
// throughput counts the images answered within dur, so neither a client's
// last request nor a reopen at the end stretches the window.
func runFleetPhase(cfg runConfig, w fleetWorkload, st *fleetStack, imgs, want []*tensor.Tensor, dur time.Duration) *fleetPhase {
	ph := &fleetPhase{comp: st.comp, setup: st.setup, workers: w.workers, wall: dur.Seconds()}
	servers, router := st.servers, st.router
	sm0 := serverMetrics(servers)
	rm0 := router.Metrics()
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *fleetClient) {
			defer wg.Done()
			for time.Now().Before(end) {
				if time.Since(c.opened) >= w.reopenAfter {
					if err := st.op.tryReopen(c); err != nil {
						c.errs = append(c.errs, err)
						return
					}
				}
				c.request(imgs, want, cfg, end)
			}
		}(c)
	}
	wg.Wait()
	sm1 := serverMetrics(servers)
	rm1 := router.Metrics()

	var workerLatSum time.Duration
	var workerLatN uint64
	for i := range servers {
		a, b := sm0[i], sm1[i]
		workerLatSum += b.Latency.Sum - a.Latency.Sum
		workerLatN += b.Latency.Count - a.Latency.Count
		ph.evals += int(b.Evaluation.Count - a.Evaluation.Count)
		ph.rejected += (b.RejectedQueueFull + b.RejectedDeadline + b.RejectedShutdown) -
			(a.RejectedQueueFull + a.RejectedDeadline + a.RejectedShutdown)
		if b.Evaluation.Count > a.Evaluation.Count {
			ph.queueWait = append(ph.queueWait, b.QueueWait.P50.Seconds())
			ph.eval = append(ph.eval, b.Evaluation.P50.Seconds())
		}
	}
	ph.handoffs = rm1.Handoffs - rm0.Handoffs
	var relayed []float64
	for i := range rm1.Workers {
		r := float64(rm1.Workers[i].Relayed - rm0.Workers[i].Relayed)
		relayed = append(relayed, r)
		if r > 0 {
			ph.occupied++
		}
	}
	if m := sum(relayed) / float64(len(relayed)); m > 0 {
		ph.skew = quantile(relayed, 1) / m
	}

	for _, c := range st.clients {
		c.close()
		ph.latency = append(ph.latency, c.latency...)
		ph.rtt = append(ph.rtt, c.rtt...)
		ph.encrypt = append(ph.encrypt, c.encrypt...)
		ph.decrypt = append(ph.decrypt, c.decrypt...)
		ph.opens = append(ph.opens, c.opens...)
		ph.openBytes = append(ph.openBytes, c.openBytes...)
		ph.requests += c.requests
		ph.images += c.images
		ph.windowImages += c.windowImages
		ph.reqBytes += c.reqBytes
		ph.respBytes += c.respBytes
		ph.errs = append(ph.errs, c.errs...)
		ph.firstOutputs = append(ph.firstOutputs, c.first)
		ph.worst = max(ph.worst, c.worst)
	}
	if workerLatN > 0 {
		ph.relayOverhead = sum(ph.rtt)/float64(len(ph.rtt)) - workerLatSum.Seconds()/float64(workerLatN)
	}

	if st.spans != nil {
		ph.procs = append(router.CollectTrace(0), telemetry.ProcessTrace{
			Name: "perfbench", PID: 100, Epoch: st.spans.Epoch(), Spans: st.spans.Snapshot(),
		})
	}
	return ph
}

// request sends one seeded request: a single-image Infer or a
// client-packed InferBatch of 2-8 lanes, and checks every lane.
func (c *fleetClient) request(imgs, want []*tensor.Tensor, cfg runConfig, end time.Time) {
	if len(c.block) == 0 {
		c.block = append([]int(nil), requestMix...)
		c.mix.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	lanes := c.block[0]
	c.block = c.block[1:]
	pick := make([]int, lanes)
	batch := make([]*tensor.Tensor, lanes)
	for i := range pick {
		pick[i] = c.mix.Intn(len(imgs))
		batch[i] = imgs[pick[i]]
	}
	c.traceN++
	tid := c.c.TraceBase() + c.traceN
	t0 := time.Now()
	var outs []*tensor.Tensor
	var err error
	var t1, t2 time.Time
	if lanes == 1 {
		ct := c.c.Encrypt(batch[0])
		t1 = time.Now()
		out, e := c.c.Infer(ct)
		t2, err = time.Now(), e
		if err == nil {
			outs = []*tensor.Tensor{c.c.Decrypt(out)}
		}
	} else {
		ct := c.c.EncryptBatch(batch)
		t1 = time.Now()
		out, e := c.c.InferBatch(ct, lanes)
		t2, err = time.Now(), e
		if err == nil {
			outs = c.c.DecryptBatch(out, lanes)
		}
	}
	t3 := time.Now()
	c.requests++
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("client %d request %d: %w", c.idx, c.traceN, err))
		return
	}
	if c.spans != nil {
		req := telemetry.NewSpanID()
		c.spans.Record(telemetry.KindScope, "bench:request", t0, t3, tid, req, 0)
		c.spans.Record(telemetry.KindScope, "bench:encrypt", t0, t1, tid, telemetry.NewSpanID(), req)
		c.spans.Record(telemetry.KindScope, "bench:infer", t1, t2, tid, telemetry.NewSpanID(), req)
		c.spans.Record(telemetry.KindScope, "bench:decrypt", t2, t3, tid, telemetry.NewSpanID(), req)
	}
	c.latency = append(c.latency, t3.Sub(t0).Seconds())
	c.rtt = append(c.rtt, t2.Sub(t1).Seconds())
	c.encrypt = append(c.encrypt, t1.Sub(t0).Seconds())
	c.decrypt = append(c.decrypt, t3.Sub(t2).Seconds())
	for i, out := range outs {
		e, err := checkOutput(out.Data, want[pick[i]].Data, cfg.budget("fleet-serve"), cfg.corrupt)
		c.worst = max(c.worst, e)
		if err != nil {
			err = fmt.Errorf("client %d request %d lane %d: %w", c.idx, c.traceN, i, err)
		} else {
			c.images++
			if !t3.After(end) {
				c.windowImages++
			}
		}
		c.errs = append(c.errs, err)
		if c.session == 1 {
			c.first = append(c.first, out.Data)
		}
	}
}

// close ends c's session and books its request and response bytes.
func (c *fleetClient) close() {
	if c.c == nil {
		return
	}
	c.c.Close()
	c.c = nil
	c.reqBytes += c.conn.read.Load() - c.read0
	c.respBytes += c.conn.written.Load() - c.written0
}

// opener serializes session opens so the benchmark knows the session ID
// the router will assign next, and with it the worker the router's
// consistent-hash ring will place the session on.
type opener struct {
	mu     sync.Mutex
	router *fleet.Router
	ring   *fleet.Ring // replica of the router's ring over the same workers
	ln     *countingListener
	addr   string
	comp   *core.Compiled
	seed   uint64
}

func newRing(addrs []string) *fleet.Ring {
	r := fleet.NewRing(fleet.DefaultReplicas)
	for _, a := range addrs {
		r.Add(a)
	}
	return r
}

// tryReopen replaces c's session if the next session ID lands on c's
// worker; otherwise c keeps its session and tries again after its next
// request. Either client's turn comes when the other one reopens, so
// every session of a client lands on the same worker and both workers
// stay occupied.
func (o *opener) tryReopen(c *fleetClient) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if owner, _ := o.ring.Owner(o.router.Metrics().SessionsOpened + 1); owner != c.worker {
		return nil
	}
	return o.openLocked(c)
}

// reopen opens c's first session, which the address choice placed on c's
// worker.
func (o *opener) reopen(c *fleetClient) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if owner, _ := o.ring.Owner(o.router.Metrics().SessionsOpened + 1); owner != c.worker {
		return fmt.Errorf("next session lands on %s, want %s", owner, c.worker)
	}
	return o.openLocked(c)
}

func (o *opener) openLocked(c *fleetClient) error {
	c.close()
	c.session++
	before := o.router.Metrics()
	label := fmt.Sprint("client", c.idx, "session", c.session)
	t0 := time.Now()
	cli, err := serve.Dial(o.addr, serve.ClientConfig{
		Compiled:  o.comp,
		PRNG:      ring.NewTestPRNG(derive(o.seed, label)),
		TraceBase: derive(o.seed, "trace"+label) &^ (1<<20 - 1),
	})
	d := time.Since(t0).Seconds()
	c.traceN = 0
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("client %d session %d: %w", c.idx, c.session, err))
		return err
	}
	c.c, c.conn, c.opened = cli, o.ln.newest(), time.Now()
	c.read0, c.written0 = c.conn.read.Load(), c.conn.written.Load()
	c.opens = append(c.opens, d)
	c.openBytes = append(c.openBytes, float64(c.read0))
	after := o.router.Metrics()
	for i := range after.Workers {
		if after.Workers[i].Handoffs > before.Workers[i].Handoffs && after.Workers[i].Addr != c.worker {
			err := fmt.Errorf("client %d session %d placed on %s, predicted %s", c.idx, c.session, after.Workers[i].Addr, c.worker)
			c.errs = append(c.errs, err)
			return nil
		}
	}
	c.errs = append(c.errs, nil)
	return nil
}

// placementIDs is how many session IDs the workers' addresses must place in
// rotation; a phase opens fewer sessions than this.
const placementIDs = 16

// listenPlacementStable opens one loopback listener per worker, on ports
// chosen so that the router's ring places session IDs 1..placementIDs on
// the workers in strict rotation. Session IDs count up from 1 and the ring
// hashes worker addresses, so on arbitrary ports two clients' sessions can
// share a worker while the other idles. Clients open in the same rotation
// (a client whose turn has not come defers its reopen), so each client's
// sessions all land on one worker; owners[i] is client i's worker.
func listenPlacementStable(workers int) ([]net.Listener, []string, error) {
	rng := rand.New(rand.NewSource(1)) // the same candidates on every run
	for try := 0; try < 1<<22; try++ {
		addrs := make([]string, workers)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", 20000+rng.Intn(40000))
		}
		owners, ok := rotation(newRing(addrs), workers)
		if !ok {
			continue
		}
		var lns []net.Listener
		for _, a := range addrs {
			ln, err := net.Listen("tcp", a)
			if err != nil {
				break // port taken: try the next candidate
			}
			lns = append(lns, ln)
		}
		if len(lns) == workers {
			return lns, owners, nil
		}
		for _, l := range lns {
			l.Close()
		}
	}
	return nil, nil, fmt.Errorf("no loopback ports place sessions in rotation")
}

// rotation reports whether r places session IDs 1..placementIDs on
// distinct workers in a repeating cycle, and the cycle.
func rotation(r *fleet.Ring, workers int) ([]string, bool) {
	var owners []string
	seen := map[string]bool{}
	for id := 1; id <= placementIDs; id++ {
		o, _ := r.Owner(uint64(id))
		if id <= workers {
			if seen[o] {
				return nil, false
			}
			seen[o] = true
		} else if o != owners[id-1-workers] {
			return nil, false
		}
		owners = append(owners, o)
	}
	return owners[:workers], true
}

func serverMetrics(servers []*serve.Server) []serve.ServerMetrics {
	out := make([]serve.ServerMetrics, len(servers))
	for i, s := range servers {
		out[i] = s.Metrics()
	}
	return out
}

// countingListener counts the bytes of every connection it accepts, so the
// benchmark can measure what the wire carries per session open and per
// request without touching the protocol code.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countedConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countedConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// newest is the most recently accepted connection: with opens serialized,
// the one the client that just dialed is using.
func (l *countingListener) newest() *countedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[len(l.conns)-1]
}

// countedConn is the router's side of one client connection: read counts
// client-to-router bytes, written router-to-client bytes.
type countedConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}
