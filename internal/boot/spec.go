// Package boot implements CKKS bootstrapping: refreshing an exhausted
// ciphertext (level 0, no multiplicative budget left) into a fresh one high
// on the modulus chain that decrypts to the same message.
//
// The pipeline is the standard one, built entirely from this repository's
// existing kernels:
//
//	ModRaise  — lift the level-0 ciphertext to the full chain. It now
//	            decrypts to m + q0·I for a small integer polynomial I.
//	SubSum    — when slots are sparsely packed (gap = N/(2·slots) > 1), a
//	            log2(gap)-step partial automorphism sum (the trace onto the
//	            sub-ring Z[X^gap]) that annihilates the dense part of q0·I
//	            and multiplies the sub-ring component by gap.
//	CoeffToSlot — a hoisted-rotation BSGS multiplication by α·U⁻¹ (U is
//	            exactly the encoder's canonical-embedding FFT), followed by
//	            one conjugation to split real and imaginary coefficient
//	            parts into two ciphertexts t with |t| ≤ 1.
//	EvalMod   — removes q0·I: evaluates sin(2πu)/2π ≈ frac(u) at
//	            u = (K+½)·t via a Chebyshev fit (internal/polyfit) of
//	            cos((2π(K+½)t − π/2)/2^r) on [−1, 1], evaluated
//	            baby-step/giant-step, and r double-angle squarings, so the
//	            polynomial degree stays within polyfit's numerically safe
//	            range no matter how large K is.
//	SlotToCoeff — BSGS multiplication by β·U folding all pipeline constants
//	            back out; the result decrypts slot-wise to the original
//	            message at the original scale.
//
// The K bound, double-angle count, chain layout, level budget, and
// instruction counts are all pure functions of (logN, logSlots, degree) —
// Spec — so the compiler can place and price bootstraps without
// constructing keys or evaluators.
package boot

import (
	"fmt"
	"math"
	"sort"
)

const (
	// DefaultDegree is the Chebyshev degree of the sine fit. 20 keeps the
	// fit error near 1e-11 for arguments up to maxFitRange while staying
	// well inside polyfit's numerically safe monomial-conversion range.
	DefaultDegree = 20
	// DefaultQ0Bits sizes the base prime q0, balancing two opposed error
	// terms: EvalMod noise is amplified by β = q0/(2π·Δ) on the way back to
	// message space (wants q0 small), while the sine-vs-fractional-part
	// linearization bias grows like (2π·Δ·m/q0)²/6 (wants q0 large). With
	// Δ = 2^40 and ~1e-6 EvalMod noise the total is minimized near
	// q0/2πΔ ≈ 80, i.e. 49 bits, landing both terms near 1e-4.
	DefaultQ0Bits = 49
	// DefaultC2SBits sizes the prime consumed by CoeffToSlot. Its matrix
	// entries are ~Δ/q0 (tiny), so the plaintext must be encoded against a
	// large prime or rounding noise dominates the slot values, which are
	// then amplified by the EvalMod slope.
	DefaultC2SBits = 55
	// kSigma is the tail bound multiplier on the mod-raise residual I:
	// K = ceil(kSigma·σ) where σ² = gap·h/12 with h the expected secret
	// hamming weight. 4.5σ puts the per-coefficient failure probability
	// below ~7e-6 even across deep-network bootstrap counts.
	kSigma = 4.5
	// maxFitRange caps the double-angle base argument c = 2π(K+½)/2^r: r is
	// the smallest count with c ≤ maxFitRange, keeping the Chebyshev fit of
	// cos(c·t − π/2·2^{-r}) accurate at DefaultDegree.
	maxFitRange = 5.0
)

// Spec is the pure-arithmetic description of a bootstrap configuration:
// everything the compiler needs to lay out a modulus chain, provision
// rotation keys, and price a bootstrap, derivable without key material.
type Spec struct {
	LogN     int
	LogSlots int
	// Q0Bits, PrimeBits, C2SBits are the bit sizes of the base prime, the
	// working (data + EvalMod) primes, and the CoeffToSlot prime.
	Q0Bits    int
	PrimeBits int
	C2SBits   int
	// Degree is the Chebyshev degree of the sine approximation.
	Degree int
	// K bounds the mod-raise residual: EvalMod is valid on |u| ≤ K+½.
	K int
	// DoubleAngles is the number of cos(2θ) = 2cos²θ−1 squarings after the
	// base polynomial.
	//
	// Note there is no real-only shortcut: even a purely real slot vector
	// has nonzero coefficients in both halves of the ring (the complex
	// coefficient pairing is not the slot-value pairing), so EvalMod always
	// runs on both the real- and imaginary-part branches.
	DoubleAngles int
}

// DeriveSpec computes the bootstrap arithmetic for a ring/packing choice.
func DeriveSpec(logN, logSlots, degree int) (Spec, error) {
	if logN < 4 || logN > 16 {
		return Spec{}, fmt.Errorf("boot: logN %d out of range [4, 16]", logN)
	}
	if logSlots < 1 || logSlots > logN-1 {
		return Spec{}, fmt.Errorf("boot: logSlots %d out of range [1, %d]", logSlots, logN-1)
	}
	if degree == 0 {
		degree = DefaultDegree
	}
	if degree < 8 || degree > 24 {
		return Spec{}, fmt.Errorf("boot: sine degree %d out of range [8, 24]", degree)
	}
	n := 1 << logN
	// Residual bound: I's coefficients are ~Gaussian with σ² = h/12 (h the
	// expected ternary-secret weight 2N/3). The sub-ring trace fixes sub-ring
	// monomials POINTWISE (5^slots ≡ 1 mod 4·slots makes every automorphism in
	// it the identity on Z[X^gap]), so it multiplies message AND residual
	// coherently by gap; CoeffToSlot divides that gap straight back out, so K
	// only ever needs to cover I itself — independent of the packing gap.
	h := 2 * n / 3
	sigma := math.Sqrt(float64(h) / 12)
	k := int(math.Ceil(kSigma * sigma))
	if k < 4 {
		k = 4
	}
	r := 1
	for 2*math.Pi*(float64(k)+0.5)/math.Exp2(float64(r)) > maxFitRange {
		r++
	}
	return Spec{
		LogN:         logN,
		LogSlots:     logSlots,
		Q0Bits:       DefaultQ0Bits,
		PrimeBits:    40,
		C2SBits:      DefaultC2SBits,
		Degree:       degree,
		K:            k,
		DoubleAngles: r,
	}, nil
}

// Slots returns the packed slot count.
func (s Spec) Slots() int { return 1 << s.LogSlots }

// Gap returns the coefficient stride of the packed sub-ring.
func (s Spec) Gap() int { return (1 << (s.LogN - 1)) / s.Slots() }

// EvalModLevels is the multiplicative depth of the q0-removal step: the
// base polynomial's reservation and the double-angle squarings.
func (s Spec) EvalModLevels() int { return s.baseLevels() + s.DoubleAngles }

// baseLevels is the depth reserved for the base polynomial: ⌈log₂ d⌉+1,
// what a power basis plus one combine rescale needs. The Paterson–Stockmeyer
// plan fits inside it at every supported degree (⌈log₂(d+1)⌉ at d=20);
// evalMod drops its input by the difference, so chain layouts and placements
// do not depend on the evaluation strategy.
func (s Spec) baseLevels() int { return ceilLog2(s.Degree) + 1 }

// Depth is the total number of levels one bootstrap consumes: CoeffToSlot,
// EvalMod, SlotToCoeff.
func (s Spec) Depth() int { return 2 + s.EvalModLevels() }

// ChainBits lays out a modulus chain (bottom to top) for this spec with
// `window` working levels available to the model between bootstraps: the
// base prime, the data window, the EvalMod/SlotToCoeff primes, and the
// large CoeffToSlot prime on top. len = 1 + window + Depth().
func (s Spec) ChainBits(window int) []int {
	bits := make([]int, 0, 1+window+s.Depth())
	bits = append(bits, s.Q0Bits)
	for i := 0; i < window+s.Depth()-1; i++ {
		bits = append(bits, s.PrimeBits)
	}
	return append(bits, s.C2SBits)
}

// bsgsSplit picks the baby/giant split n1·n2 = slots with n1 ~ sqrt(slots).
func bsgsSplit(slots int) (n1, n2 int) {
	n1 = 1
	for n1*n1 < slots {
		n1 <<= 1
	}
	return n1, slots / n1
}

// RotationAmounts lists every rotation amount the pipeline key-switches:
// BSGS baby and giant steps over the slot group, plus the sub-ring trace
// amounts (multiples of the slot count — identities on the packed slots, so
// they must bypass slot normalization when keys are provisioned). The
// conjugation key is needed as well; callers pass includeConjugate=true to
// key generation.
func (s Spec) RotationAmounts() []int {
	slots := s.Slots()
	n1, n2 := bsgsSplit(slots)
	seen := map[int]bool{}
	var out []int
	add := func(k int) {
		if k != 0 && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for j := 1; j < n1; j++ {
		add(j)
	}
	for k := 1; k < n2; k++ {
		add(k * n1)
	}
	for amt := slots; amt < (1<<s.LogN)/2; amt <<= 1 {
		add(amt)
	}
	return out
}

// OpCounts is the instruction inventory of one bootstrap, for cost models
// and meters.
type OpCounts struct {
	Rotations  int // key-switched automorphisms (baby+giant+trace+conjugate)
	PlainMuls  int // BSGS diagonal multiplications
	CtMuls     int // EvalMod ciphertext-ciphertext tensor products (incl. squarings)
	Relins     int // relinearization key switches closing those products
	ScalarMuls int // EvalMod coefficient scalings and double-angle doublings
	Rescales   int
}

// Ops returns the instruction counts of one bootstrap under this spec. The
// EvalMod counts come from the same plan evalMod walks.
func (s Spec) Ops() OpCounts {
	slots := s.Slots()
	n1, n2 := bsgsSplit(slots)
	branches := 2
	perMatmul := (n1 - 1) + (n2 - 1)
	trace := log2i(s.Gap())
	ps := newPSPlan(s.Degree).counts()
	return OpCounts{
		Rotations:  2*perMatmul + trace + 1,
		PlainMuls:  2 * slots,
		CtMuls:     branches * (ps.muls + s.DoubleAngles),
		Relins:     branches * (ps.relins + s.DoubleAngles),
		ScalarMuls: branches * (ps.scalarMuls + s.DoubleAngles),
		Rescales:   2 + branches*(ps.rescales+s.DoubleAngles),
	}
}

// psBabyLog sizes the Paterson–Stockmeyer leaves: a leaf spans at most
// 2^psBabyLog coefficients, c₀ + c₁t + c₂t² + c₃t³, over the baby powers.
const psBabyLog = 2

// psBlock is one node of the Paterson–Stockmeyer tree over the monomial
// coefficients c[lo..hi]. A leaf is a linear combination of baby powers;
// any other block is low(t) + t^(2^giant)·high(t).
type psBlock struct {
	lo, hi    int
	giant     int      // 0 for a leaf
	low, high *psBlock // high == nil: the high part is the single coefficient c[hi]
}

func (blk *psBlock) leaf() bool { return blk.giant == 0 }

// newPSBlock splits c[lo..hi] (hi−lo < 2^m) at the largest giant step that
// leaves a non-empty high part.
func newPSBlock(lo, hi, m int) *psBlock {
	for m > psBabyLog && hi < lo+1<<(m-1) {
		m--
	}
	if m <= psBabyLog {
		return &psBlock{lo: lo, hi: hi}
	}
	mid := lo + 1<<(m-1)
	blk := &psBlock{lo: lo, hi: hi, giant: m - 1, low: newPSBlock(lo, mid-1, m-1)}
	if hi > mid {
		blk.high = newPSBlock(mid, hi, m-1)
	}
	return blk
}

// need is the depth below the plan's entry level at which blk can be
// summed: a leaf waits for its highest baby power, a product for its giant
// power and for its high part's rescale.
func (blk *psBlock) need() int {
	if blk.leaf() {
		return ceilLog2(blk.hi - blk.lo)
	}
	n := max(blk.low.need(), blk.giant)
	if blk.high != nil {
		n = max(n, blk.high.need()+1)
	}
	return n
}

// lazy reports whether blk sums products that still await relinearization.
func (blk *psBlock) lazy() bool {
	return !blk.leaf() && (blk.high != nil || blk.low.lazy())
}

// psPlan is the baby-step/giant-step evaluation of a degree-d polynomial.
type psPlan struct {
	root *psBlock
}

func newPSPlan(degree int) psPlan {
	return psPlan{root: newPSBlock(0, degree, ceilLog2(degree+1))}
}

// levels is the depth the plan consumes: the root's need plus its rescale.
func (p psPlan) levels() int { return p.root.need() + 1 }

// powers lists, ascending, every power of t above t¹ the plan reads. Each
// is built as t^⌈k/2⌉·t^⌊k/2⌋, so the list is closed under those halves.
func (p psPlan) powers() []int {
	used := map[int]bool{}
	var mark func(k int)
	mark = func(k int) {
		if k > 1 && !used[k] {
			used[k] = true
			mark((k + 1) / 2)
			mark(k / 2)
		}
	}
	var walk func(blk *psBlock)
	walk = func(blk *psBlock) {
		if blk.leaf() {
			mark(blk.hi - blk.lo)
			return
		}
		mark(1 << blk.giant)
		walk(blk.low)
		if blk.high != nil {
			walk(blk.high)
		}
	}
	walk(p.root)
	out := make([]int, 0, len(used))
	for k := range used {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// psCounts is the per-branch instruction inventory of a plan.
type psCounts struct {
	muls, relins, rescales, scalarMuls int
}

// counts tallies what evalBase executes: one relinearized, rescaled product
// per power; per block, a scalar multiple per leaf term or single-coefficient
// high part, a tensor product per multi-coefficient high part, and a close
// (relinearize if lazy, then rescale) of every such high part and the root.
func (p psPlan) counts() psCounts {
	nPow := len(p.powers())
	c := psCounts{muls: nPow, relins: nPow, rescales: nPow}
	closeBlock := func(blk *psBlock) {
		c.rescales++
		if blk.lazy() {
			c.relins++
		}
	}
	var walk func(blk *psBlock)
	walk = func(blk *psBlock) {
		if blk.leaf() {
			c.scalarMuls += blk.hi - blk.lo
			return
		}
		walk(blk.low)
		if blk.high == nil {
			c.scalarMuls++
			return
		}
		walk(blk.high)
		closeBlock(blk.high)
		c.muls++
	}
	walk(p.root)
	closeBlock(p.root)
	return c
}

func ceilLog2(x int) int {
	l := 0
	for (1 << l) < x {
		l++
	}
	return l
}

func log2i(x int) int {
	l := 0
	for (1 << (l + 1)) <= x {
		l++
	}
	return l
}
