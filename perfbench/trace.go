package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"chet/internal/telemetry"
)

// selfTime is a scope span's duration minus the part of its interval its
// child scopes cover. HISA op spans are leaves billed to the scope that
// issued them, so a kernel's self time includes its instructions and
// excludes only nested scopes.
func selfTime(spans []telemetry.Span) map[uint64]time.Duration {
	children := map[uint64][]telemetry.Span{}
	for _, s := range spans {
		if s.Kind == telemetry.KindScope && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Kind != telemetry.KindScope || s.SpanID == 0 {
			continue
		}
		out[s.SpanID] = s.Dur - covered(s.Start, s.Start+s.Dur, children[s.SpanID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi time.Duration, spans []telemetry.Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.Start+s.Dur, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// kernelSeconds sums the self time of every htc kernel scope by kernel
// metric ("conv2d", "dense", "activation", "pool").
func kernelSeconds(spans []telemetry.Span) map[string]float64 {
	self := selfTime(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if s.Kind != telemetry.KindScope {
			continue
		}
		kind, _, ok := strings.Cut(s.Op, ":")
		if !ok {
			continue
		}
		if k, ok := kernelKinds[kind]; ok {
			out[k] += self[s.SpanID].Seconds()
		}
	}
	return out
}

// opTotals tallies op spans by mnemonic.
func opTotals(spans []telemetry.Span) map[string]telemetry.OpTotal {
	out := map[string]telemetry.OpTotal{}
	for _, s := range spans {
		if s.Kind != telemetry.KindOp {
			continue
		}
		t := out[s.Op]
		t.Count++
		t.Total += s.Dur
		out[s.Op] = t
	}
	return out
}

// opDurations lists the durations of every op span with the given mnemonic.
func opDurations(spans []telemetry.Span, op string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == telemetry.KindOp && s.Op == op {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// setLayerOps reports per-inference HISA op counts and times, bootstrap
// stage times per refresh, and kernel self times from one traced arm's
// spans.
func setLayerOps(res *result, spans []telemetry.Span, inferences int) {
	n := float64(max(inferences, 1))
	totals := opTotals(spans)
	for _, op := range tracedOps {
		t := totals[op]
		res.set("hisa."+op+".count", float64(t.Count)/n, inferences, "per inference")
		res.set("hisa."+op+"_s", t.Total.Seconds()/n, inferences, "per inference")
	}
	refreshes := opDurations(spans, "bootstrap")
	res.set("boot.refreshes", float64(totals["bootstrap"].Count)/n, inferences, "per inference")
	res.setQuantile("boot.refresh_p50_s", refreshes, 0.5)
	for _, st := range bootStages {
		t := totals["boot:"+st.span]
		per := 0.0
		if c := totals["bootstrap"].Count; c > 0 {
			per = t.Total.Seconds() / float64(c)
		}
		res.set("boot."+st.metric+"_s", per, int(t.Count), "per refresh")
	}
	k := kernelSeconds(spans)
	for _, kind := range []string{"conv2d", "dense", "activation", "pool"} {
		res.set("htc."+kind+"_s", k[kind]/n, inferences, "self time per inference")
	}
}

// writeTrace writes every process's spans as one Chrome trace, once, when
// the run ends.
func writeTrace(path string, procs []telemetry.ProcessTrace, other map[string]any) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceMulti(f, procs, other); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
