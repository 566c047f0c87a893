package core

import (
	"fmt"

	"chet/internal/boot"
	"chet/internal/circuit"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/tensor"
)

// This file is the bootstrap-placement pass. A circuit deeper than any
// secure modulus chain cannot compile at all without bootstrapping; with
// Options.Bootstrap the compiler instead lays out a bootstrap chain
// (boot.Spec.ChainBits: base prime, a working window of data levels, the
// pipeline's own levels, the CoeffToSlot prime on top) and mirrors the
// runtime hisa.Refresher inside the Analysis interpretation: whenever a
// multiplicative operand's remaining level falls below the floor, the
// analysis records a placement, resets the operand to the fresh level, and
// charges the bootstrap's full instruction inventory (boot.Spec.Ops) to the
// cost model. Because the trigger rule, the fresh level, and the rescale
// quantization are byte-for-byte the ones the Refresher applies over the RNS
// backend, the number and order of placements the compiler predicts equal
// the bootstraps the runtime performs.

// BootstrapOptions enables and configures compiler-placed bootstrapping
// (Options.Bootstrap). Requires SchemeRNS and ScaleGreedy.
type BootstrapOptions struct {
	// Window is the number of working levels between bootstraps — the data
	// band of the modulus chain. Larger windows bootstrap less often but
	// need a taller (less secure per ring degree) chain. Default 4.
	Window int
	// Degree overrides the Chebyshev degree of the sine approximation
	// (default boot.DefaultDegree).
	Degree int
	// Floor is the minimum level a multiplicative operand must hold;
	// operands below it are bootstrapped first. Default 1 — the smallest
	// budget that still admits the op's own rescale.
	Floor int
}

// BootConfig is the analysis-side bootstrap configuration: the derived
// arithmetic spec plus the placement parameters (AnalysisConfig.Bootstrap).
type BootConfig struct {
	Spec   boot.Spec
	Window int
	Floor  int
}

// BootPlacement is one compiler-placed bootstrap — a row of the
// chet-compile -explain placement table.
type BootPlacement struct {
	// Index is the placement ordinal in execution order.
	Index int
	// Node is the circuit node whose kernel triggered the placement
	// (-1 until the recording pass attributes it); Name is its
	// "kind:name" label.
	Node int
	Name string
	// Op is the HISA instruction whose operand fell below the floor.
	Op string
	// LevelBefore is the operand's remaining level at the trigger;
	// LevelAfter is the fresh level it returns at (= Window).
	LevelBefore, LevelAfter int
	// Cost is the cost-model estimate of this bootstrap (microseconds).
	Cost float64
}

// BootReport is the bootstrap-placement plan attached to a compilation
// (Compiled.BootPlan).
type BootReport struct {
	// Spec is the bootstrap arithmetic the chain was laid out for; the
	// runtime backend is constructed against the same spec.
	Spec boot.Spec
	// Window, Floor mirror the options; FreshLevel is the level every
	// bootstrap (and every dropped fresh encryption) returns at.
	Window, Floor, FreshLevel int
	// Depth is the number of chain levels one bootstrap consumes.
	Depth int
	// Placements in execution order, attributed to circuit nodes.
	Placements []BootPlacement
	// EstCost is the summed placement estimate (microseconds).
	EstCost float64
}

// bootSpecFor derives the bootstrap arithmetic for a ring degree under the
// compilation options: full slot packing (the compiler always packs N/2
// slots), working primes sized like the candidate chain moduli.
func bootSpecFor(logN int, opts *Options) (boot.Spec, error) {
	spec, err := boot.DeriveSpec(logN, logN-1, opts.Bootstrap.Degree)
	if err != nil {
		return boot.Spec{}, err
	}
	spec.PrimeBits = opts.RNSPrimeBits
	return spec, nil
}

// bootConfig rebuilds the analysis bootstrap configuration for a finished
// compilation; nil when bootstrapping was not requested.
func (c *Compiled) bootConfig() *BootConfig {
	if c.Options.Bootstrap == nil {
		return nil
	}
	spec, err := bootSpecFor(c.Best.LogN, &c.Options)
	if err != nil {
		// The winning LogN was derived through the same call during the
		// parameter search; it cannot fail here.
		panic("core: bootstrap spec for compiled ring: " + err.Error())
	}
	return &BootConfig{Spec: spec, Window: c.Options.Bootstrap.Window, Floor: c.Options.Bootstrap.Floor}
}

// bootCost prices one bootstrap's instruction inventory under the cost
// model at the full-chain modulus state — a conservative upper bound, since
// the pipeline starts at the top of the chain and descends. A relinearized
// product costs a CtMul; a product summed into a shared relinearization
// costs only its tensor, four coefficient-wise products where a PlainMul
// does two.
func bootCost(spec boot.Spec, m CostModel, n float64, st state) float64 {
	ops := spec.Ops()
	return float64(ops.Rotations)*m.Rotate(n, st) +
		float64(ops.PlainMuls)*m.PlainMul(n, st) +
		float64(ops.Relins)*m.CtMul(n, st) +
		float64(2*(ops.CtMuls-ops.Relins))*m.PlainMul(n, st) +
		float64(ops.ScalarMuls)*m.ScalarMul(n, st) +
		float64(ops.Rescales)*m.Rescale(n, st)
}

// recordBootPlan executes the compiled circuit once more under a bootstrap-
// aware analysis and attaches the placement report: each placement the
// analysis triggers is attributed to the circuit node whose kernel was
// executing. The run is serial, so placement order is deterministic and
// identical to the parameter pass that sized the chain.
func recordBootPlan(c *circuit.Circuit, comp *Compiled) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recording run aborted: %v", r)
		}
	}()
	cfg := comp.bootConfig()
	if cfg == nil {
		return nil
	}
	opts := comp.Options
	a := NewAnalysis(AnalysisConfig{
		Scheme:        opts.Scheme,
		Slots:         1 << uint(comp.Best.LogN-1),
		RNSPrimeBits:  opts.RNSPrimeBits,
		MagMarginBits: opts.MagMarginBits,
		CostPrimes:    float64(len(comp.Best.RNSChainBits)),
		Model:         opts.CostModel,
		Batch:         opts.Batch,
		Bootstrap:     cfg,
	})

	names := make(map[int]string, len(c.Nodes))
	for _, n := range c.Nodes {
		names[n.ID] = fmt.Sprintf("%v:%s", n.Kind, n.Name)
	}
	var placements []BootPlacement
	prev := 0
	attribute := func(node int, name string) {
		ps := a.BootPlacements()
		for ; prev < len(ps); prev++ {
			p := ps[prev]
			p.Node = node
			p.Name = name
			placements = append(placements, p)
		}
	}

	img := tensor.New(c.Input.OutShape...)
	enc := htc.EncryptTensor(a, img, comp.Plan(), opts.Scales)
	htc.ExecuteOpts(a, c, enc, comp.Best.Policy, opts.Scales, htc.ExecOptions{
		OnNode: func(n *circuit.Node, _ *htc.CipherTensor) { attribute(n.ID, names[n.ID]) },
	})
	attribute(-1, "(output)")

	total := 0.0
	for _, p := range placements {
		total += p.Cost
	}
	comp.BootPlan = &BootReport{
		Spec:       cfg.Spec,
		Window:     cfg.Window,
		Floor:      cfg.Floor,
		FreshLevel: cfg.Window,
		Depth:      cfg.Spec.Depth(),
		Placements: placements,
		EstCost:    total,
	}
	return nil
}

// BootBackend wraps a compiled circuit's runtime backend with the
// hisa.Refresher that realizes the compiler's bootstrap placements; without
// a BootPlan the backend is returned unchanged. Callers that want the
// runtime bootstrap tally assert the result to *hisa.Refresher.
func BootBackend(comp *Compiled, b hisa.Backend) (hisa.Backend, error) {
	if comp.BootPlan == nil {
		return b, nil
	}
	rf, err := hisa.NewRefresher(b, comp.BootPlan.Floor)
	if err != nil {
		return nil, fmt.Errorf("core: wrapping refresher: %w", err)
	}
	return rf, nil
}
