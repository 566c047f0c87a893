package boot

import (
	"chet/internal/ckks"
)

// evalMod evaluates the q0-removal polynomial on t (slot values in
// [−1, 1], any scale): the fitted base polynomial by a baby-step/giant-step
// (Paterson–Stockmeyer) walk of psPlan's block tree, then the double-angle
// ladder. Consumes exactly Spec.EvalModLevels() levels; the ladder's input
// scale is re-anchored to the parameter default scale Δ regardless of the
// input scale.
//
// The plan builds the baby powers t²…t³, the giant powers t⁴, t⁸, t¹⁶ (one
// relinearized product each) and combines each block as low(t) + tᴳ·high(t).
// That needs ⌈log₂(d+1)⌉ levels where Spec reserves ⌈log₂ d⌉+1, so t is
// dropped by the spare level on entry: every product runs one level
// cheaper, and the output still lands where Spec says. Products that are
// only summed stay degree 2 and share one relinearization; a high part
// that is a single coefficient is a scalar multiple of its giant power.
//
// Each block is asked for an exact scale T at an exact level: its leaf
// terms are scalar multiples of baby powers with encoding factors T/scale,
// and a high part is evaluated for scale q·T/scale(giant) one level up, so
// its rescale and the giant product land on T again. Every Add therefore
// matches scales exactly, whatever drift the powers carry, and the root is
// asked for q·Δ so its rescale yields Δ.
//
// Every product closes as Relinearize then Rescale, never through the
// fused RelinearizeRescale: the fused order adds the key-switch noise after
// the division by q, and at full packing that raised EvalMod's error
// against RefEvalMod from 2.6e-6 to 8.4e-5 (see ckks/fused.go).
//
// Anchoring the ladder to the default scale rather than the input scale
// matters for deep circuits: each double-angle rung maps S → S²/q and
// therefore doubles any relative scale drift per rung. A ciphertext
// arriving after hundreds of kernel rescales carries ~1e-5..1e-4 of upward
// drift (chain primes sit a hair below their power-of-two targets);
// amplified 2^r through the ladder that would blow past the backend's
// output-scale guard. Starting the ladder at exactly Δ leaves only the
// ladder's own prime offsets, ~1e-6 at r=5, independent of circuit depth.
func (b *Bootstrapper) evalMod(t *ckks.Ciphertext) *ckks.Ciphertext {
	return b.doubleAngles(b.evalBase(t))
}

// doubleAngles runs the ladder h ← 2h² − 1, which doubles the cosine
// argument each step at one level per step; h is consumed.
func (b *Bootstrapper) doubleAngles(h *ckks.Ciphertext) *ckks.Ciphertext {
	ev := b.ev
	for i := 0; i < b.spec.DoubleAngles; i++ {
		sq := ev.Mul(h, h)
		ev.Rescale(sq)
		db := ev.MulScalar(sq, 2, 1)
		ev.Recycle(sq)
		next := ev.AddScalar(db, -1)
		ev.Recycle(db)
		ev.Recycle(h)
		h = next
	}
	return h
}

// evalBase evaluates the fitted base polynomial on t and returns it at
// level t.Lvl − Spec.baseLevels() with scale Δ.
func (b *Bootstrapper) evalBase(t *ckks.Ciphertext) *ckks.Ciphertext {
	ev := b.ev
	r := b.params.Ring()
	out := t.Lvl - b.spec.baseLevels()
	entry := out + b.plan.levels()

	powers := b.plan.powers()
	pows := make([]*ckks.Ciphertext, powers[len(powers)-1]+1)
	pows[1] = &ckks.Ciphertext{C0: r.GetPoly(entry), C1: r.GetPoly(entry), Scale: t.Scale, Lvl: entry}
	pows[1].C0.CopyLevel(t.C0, entry)
	pows[1].C1.CopyLevel(t.C1, entry)
	for _, k := range powers {
		m := ev.Mul(pows[(k+1)/2], pows[k/2])
		ev.Rescale(m)
		pows[k] = m
	}

	acc := b.evalBlock(b.plan.root, pows, float64(b.params.Qi(out+1))*b.params.DefaultScale(), out+1)
	for _, p := range pows {
		ev.Recycle(p)
	}
	return b.close(acc)
}

// evalBlock returns blk's polynomial at exactly level lvl and scale T. The
// result is degree 2 when it sums products still awaiting relinearization.
func (b *Bootstrapper) evalBlock(blk *psBlock, pows []*ckks.Ciphertext, T float64, lvl int) *ckks.Ciphertext {
	ev := b.ev
	c := b.approx.C
	if blk.leaf() {
		var acc *ckks.Ciphertext
		for i := 1; i <= blk.hi-blk.lo; i++ {
			term := ev.MulScalar(pows[i], c[blk.lo+i], T/pows[i].Scale)
			ev.DropToLevel(term, lvl)
			acc = b.sum(acc, term)
		}
		out := ev.AddScalar(acc, c[blk.lo])
		ev.Recycle(acc)
		return out
	}
	g := pows[1<<blk.giant]
	var high *ckks.Ciphertext
	if blk.high == nil {
		high = ev.MulScalar(g, c[blk.hi], T/g.Scale)
		ev.DropToLevel(high, lvl)
	} else {
		h := b.close(b.evalBlock(blk.high, pows, T/g.Scale*float64(b.params.Qi(lvl+1)), lvl+1))
		high = ev.MulNoRelin(g, h)
		ev.Recycle(h)
	}
	return b.sum(b.evalBlock(blk.low, pows, T, lvl), high)
}

// close relinearizes ct if it is degree 2, then rescales it; ct is consumed.
func (b *Bootstrapper) close(ct *ckks.Ciphertext) *ckks.Ciphertext {
	ev := b.ev
	if ct.C2 != nil {
		rl := ev.Relinearize(ct)
		ev.Recycle(ct)
		ct = rl
	}
	ev.Rescale(ct)
	return ct
}

// sum returns acc + term, consuming both; a nil acc yields term.
func (b *Bootstrapper) sum(acc, term *ckks.Ciphertext) *ckks.Ciphertext {
	if acc == nil {
		return term
	}
	s := b.ev.Add(acc, term)
	b.ev.Recycle(acc)
	b.ev.Recycle(term)
	return s
}
