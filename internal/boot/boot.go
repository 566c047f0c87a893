package boot

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chet/internal/ckks"
	"chet/internal/polyfit"
)

// StageHook observes one interior stage of a bootstrap pipeline run. Stages
// are "modraise" (truncate + ModRaise + sub-ring trace), "coeff-to-slot",
// "evalmod" (both branches + recombination), and "slot-to-coeff". Hooks run
// on the bootstrapping goroutine and must be fast and concurrency-safe.
type StageHook func(stage string, start, end time.Time)

// Bootstrapper executes the bootstrap pipeline against a parameter set laid
// out by Spec.ChainBits. It is safe for concurrent use: the evaluator is
// concurrency-safe and the plaintext matrix cache is mutex-guarded.
type Bootstrapper struct {
	params *ckks.Parameters
	spec   Spec
	ev     *ckks.Evaluator
	enc    *ckks.Encoder
	approx *polyfit.Approximation
	plan   psPlan
	hook   atomic.Pointer[StageHook]

	mu   sync.Mutex
	mats map[matKey]*bsgsMatrix
}

// SetStageHook installs (or, with nil, removes) the per-stage observer.
// Safe to call while bootstraps are running.
func (b *Bootstrapper) SetStageHook(h StageHook) {
	if h == nil {
		b.hook.Store(nil)
		return
	}
	b.hook.Store(&h)
}

// stage invokes the installed hook, if any.
func (b *Bootstrapper) stage(name string, start time.Time) {
	if h := b.hook.Load(); h != nil {
		(*h)(name, start, time.Now())
	}
}

// New builds a bootstrapper over an existing evaluator and encoder. The
// evaluator must hold the relinearization key and rotation keys for
// Spec.RotationAmounts() plus conjugation. The sine approximation is fitted
// here and validated against the spec's accuracy budget, so a
// mis-parameterized spec fails loudly at construction, not as silent
// precision loss at inference time.
func New(params *ckks.Parameters, spec Spec, ev *ckks.Evaluator, enc *ckks.Encoder) (*Bootstrapper, error) {
	if params.LogN() != spec.LogN {
		return nil, fmt.Errorf("boot: params logN %d != spec logN %d", params.LogN(), spec.LogN)
	}
	if params.LogSlots() != spec.LogSlots {
		return nil, fmt.Errorf("boot: params logSlots %d != spec logSlots %d", params.LogSlots(), spec.LogSlots)
	}
	if params.MaxLevel() < spec.Depth() {
		return nil, fmt.Errorf("boot: chain has %d levels, bootstrap needs %d", params.MaxLevel(), spec.Depth())
	}
	// Base polynomial: G(t) = cos(c·t − π/2·2^{-r}) on [−1, 1] with
	// c = 2π(K+½)/2^r; after r double angles, cos(2^r·θ) = sin(2π(K+½)t).
	scale := math.Exp2(float64(spec.DoubleAngles))
	c := 2 * math.Pi * (float64(spec.K) + 0.5) / scale
	shift := math.Pi / 2 / scale
	g := func(t float64) float64 { return math.Cos(c*t - shift) }
	approx, err := polyfit.Chebyshev(g, -1, 1, spec.Degree)
	if err != nil {
		return nil, fmt.Errorf("boot: sine fit: %w", err)
	}
	// The fit error is amplified by at most 4^r through the double angles;
	// insist the base fit leaves comfortable headroom.
	if e := approx.MaxError(g, 2001); e > 1e-8 {
		return nil, fmt.Errorf("boot: sine fit error %g too large at degree %d for K=%d, r=%d (raise degree or double angles)",
			e, spec.Degree, spec.K, spec.DoubleAngles)
	}
	return &Bootstrapper{
		params: params,
		spec:   spec,
		ev:     ev,
		enc:    enc,
		approx: approx,
		plan:   newPSPlan(spec.Degree),
		mats:   map[matKey]*bsgsMatrix{},
	}, nil
}

// Spec returns the bootstrap arithmetic this bootstrapper was built for.
func (b *Bootstrapper) Spec() Spec { return b.spec }

// FreshLevel is the level a bootstrapped ciphertext lands at: the top of
// the chain minus the pipeline's own consumption.
func (b *Bootstrapper) FreshLevel() int { return b.params.MaxLevel() - b.spec.Depth() }

// Bootstrap refreshes ct: the returned ciphertext decrypts to the same
// message (within the pipeline's precision budget) at FreshLevel(). The
// input is not modified and may be at any level — only its bottom prime is
// read, as an exhausted ciphertext's would be. The input's scale is
// threaded exactly through the pipeline constants, so arrival-scale drift
// from earlier rescales does not perturb the q0-periodicity EvalMod relies
// on.
func (b *Bootstrapper) Bootstrap(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, fmt.Errorf("boot: cannot bootstrap a degree-%d ciphertext (relinearize first)", ct.Degree())
	}
	ev := b.ev
	r := b.params.Ring()
	q0 := float64(b.params.Qi(0))
	gap := float64(b.spec.Gap())
	deltaIn := ct.Scale

	// Truncate to the bottom prime and lift to the full chain.
	stageStart := time.Now()
	low := &ckks.Ciphertext{C0: r.GetPoly(0), C1: r.GetPoly(0), Scale: ct.Scale, Lvl: 0}
	low.C0.CopyLevel(ct.C0, 0)
	low.C1.CopyLevel(ct.C1, 0)
	cur := ev.ModRaise(low)
	ev.Recycle(low)

	// Sub-ring trace: kills the dense component of q0·I, scales the packed
	// message by gap. No-op at full packing.
	n := b.params.N()
	for amt := b.params.Slots(); amt < n/2; amt <<= 1 {
		rot := ev.ApplyGalois(cur, r.GaloisElementForRotation(amt))
		next := ev.Add(cur, rot)
		ev.Recycle(rot)
		ev.Recycle(cur)
		cur = next
	}
	b.stage("modraise", stageStart)

	// CoeffToSlot with the normalization α folded into the matrix:
	// t = coeffs/(q0·(K+½)) ∈ ~[−1, 1].
	// The 1/gap cancels the trace's coherent gap-multiplication, so EvalMod's
	// u = (K+½)t has integer part exactly I (not gap·I) and K stays small at
	// any packing density.
	alpha := deltaIn / (2 * q0 * gap * (float64(b.spec.K) + 0.5))
	stageStart = time.Now()
	tRe, tIm, err := b.CoeffToSlot(cur, alpha, true)
	ev.Recycle(cur)
	if err != nil {
		return nil, err
	}
	b.stage("coeff-to-slot", stageStart)

	// EvalMod per branch: t -> sin(2πu) ≈ 2π·frac(u), u = (K+½)t.
	stageStart = time.Now()
	yRe := b.evalMod(tRe)
	ev.Recycle(tRe)
	yIm := b.evalMod(tIm)
	ev.Recycle(tIm)
	ri := ev.MulByI(yIm)
	ev.Recycle(yIm)
	v := ev.Add(yRe, ri)
	ev.Recycle(ri)
	ev.Recycle(yRe)
	b.stage("evalmod", stageStart)

	// SlotToCoeff with β folding every remaining constant back out:
	// y ≈ (2π·Δ/q0)·v_true, so β = q0/(2π·Δ).
	stageStart = time.Now()
	beta := q0 / (2 * math.Pi * deltaIn)
	out, err := b.SlotToCoeff(v, beta)
	ev.Recycle(v)
	if err != nil {
		return nil, err
	}
	b.stage("slot-to-coeff", stageStart)
	if want := b.FreshLevel(); out.Lvl != want {
		return nil, fmt.Errorf("boot: pipeline landed at level %d, expected %d (chain/spec mismatch)", out.Lvl, want)
	}
	return out, nil
}

// CoeffToSlot homomorphically moves coefficient pairs into slots: one BSGS
// multiplication by fold·U⁻¹ followed by a conjugation split. The returned
// tRe and tIm hold 2·fold/Δ times the real and imaginary coefficient parts
// of the input's slot decomposition; tIm is nil when wantIm is false.
// Consumes one level. Exported for the round-trip parity tests, which use a
// neutral fold (½) to assert SlotToCoeff∘CoeffToSlot ≈ identity.
func (b *Bootstrapper) CoeffToSlot(ct *ckks.Ciphertext, fold float64, wantIm bool) (tRe, tIm *ckks.Ciphertext, err error) {
	mat, err := b.matrixFor(matC2S, fold, ct.Lvl)
	if err != nil {
		return nil, nil, err
	}
	ev := b.ev
	w, err := b.applyBSGS(ct, mat)
	if err != nil {
		return nil, nil, err
	}
	wc := ev.Conjugate(w)
	tRe = ev.Add(w, wc)
	if wantIm {
		d := ev.Sub(wc, w)
		tIm = ev.MulByI(d)
		ev.Recycle(d)
	}
	ev.Recycle(w)
	ev.Recycle(wc)
	return tRe, tIm, nil
}

// SlotToCoeff is the inverse transform: one BSGS multiplication by fold·U.
// Consumes one level.
func (b *Bootstrapper) SlotToCoeff(ct *ckks.Ciphertext, fold float64) (*ckks.Ciphertext, error) {
	mat, err := b.matrixFor(matS2C, fold, ct.Lvl)
	if err != nil {
		return nil, err
	}
	return b.applyBSGS(ct, mat)
}

// RefEvalMod is the plaintext lockstep reference of the homomorphic EvalMod
// step: the fitted base polynomial (domain-guarded — a t outside [−1, 1]
// means the K bound was violated and the result would be garbage) followed
// by the double-angle ladder.
func (b *Bootstrapper) RefEvalMod(t float64) (float64, error) {
	h, err := b.approx.EvalChecked(t)
	if err != nil {
		return 0, fmt.Errorf("boot: EvalMod input outside K bound: %w", err)
	}
	for i := 0; i < b.spec.DoubleAngles; i++ {
		h = 2*h*h - 1
	}
	return h, nil
}
