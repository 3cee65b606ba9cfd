package main

import (
	"math"
	"sort"
)

// quantile interpolates linearly between order statistics; q in [0,1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// steps is how many hooks the episode's ranks all entered; the last one
// is the stop step, whose bridge update never ran.
func (ep *episode) steps() int {
	n := math.MaxInt
	for _, l := range ep.ranks {
		n = min(n, len(l.entry))
	}
	if n == math.MaxInt {
		return 0
	}
	return n
}

// maxOver and minOver reduce f over the episode's rank logs.
func (ep *episode) maxOver(f func(*rankLog) int64) int64 {
	m := int64(math.MinInt64)
	for _, l := range ep.ranks {
		m = max(m, f(l))
	}
	return m
}

func (ep *episode) minOver(f func(*rankLog) int64) int64 {
	m := int64(math.MaxInt64)
	for _, l := range ep.ranks {
		m = min(m, f(l))
	}
	return m
}

// samples pools per-step timings over episodes. Step k (1-based) of an
// episode is index k-1 of every rank log.
type samples struct {
	setupS    []float64
	stepMs    []float64 // hook to hook, max over ranks
	insituMs  []float64 // Update on triggered steps, max over ranks
	latencyMs []float64 // triggered Update start to end of analysis
	updateMs  []float64 // every Update, max over ranks
	solverMs  []float64 // solver workloads: previous Update end to hook entry, max over ranks
	skewMs    []float64 // spread of rank arrival at one step's hook
	beginMs   []float64 // lossless endpoint BeginStep calls
	execMs    []float64 // lossless endpoint work per step
	stepCount int       // completed periods, the denominator of rates
	loopNs    int64     // summed loop time those periods span
	updateNs  int64     // summed Update time of the slowest rank
	memPeak   []float64
}

func collect(eps []*episode) *samples {
	s := &samples{}
	for _, ep := range eps {
		n := ep.steps()
		if n < 2 {
			continue
		}
		s.setupS = append(s.setupS, float64(ep.setupEnd-ep.start)/1e9)
		s.memPeak = append(s.memPeak, ep.vals["sim_mem_peak"])
		at := func(k int) func(*rankLog) int64 {
			return func(l *rankLog) int64 { return l.entry[k-1] }
		}
		for k := 1; k <= n; k++ {
			if len(ep.ranks) > 1 {
				s.skewMs = append(s.skewMs, float64(ep.maxOver(at(k))-ep.minOver(at(k)))/1e6)
			}
			if k >= 2 {
				period := ep.maxOver(func(l *rankLog) int64 { return l.entry[k-1] - l.entry[k-2] })
				s.stepMs = append(s.stepMs, float64(period)/1e6)
				if ep.solver {
					solve := ep.maxOver(func(l *rankLog) int64 { return l.entry[k-1] - l.updEnd[k-2] })
					s.solverMs = append(s.solverMs, float64(solve)/1e6)
				}
			}
			if k == n {
				break // the stop step ran no update
			}
			upd := ep.maxOver(func(l *rankLog) int64 { return l.updEnd[k-1] - l.updStart[k-1] })
			s.updateMs = append(s.updateMs, float64(upd)/1e6)
			if k%ep.trigger != 0 {
				continue
			}
			s.insituMs = append(s.insituMs, float64(upd)/1e6)
			start := ep.minOver(func(l *rankLog) int64 { return l.updStart[k-1] })
			finish := ep.maxOver(func(l *rankLog) int64 { return l.updEnd[k-1] })
			if ep.lossless != nil {
				finish = 0
				if k < len(ep.lossless.finishAt) {
					finish = ep.lossless.finishAt[k]
				}
			}
			if finish > 0 {
				s.latencyMs = append(s.latencyMs, float64(finish-start)/1e6)
			}
		}
		s.stepCount += n - 1
		s.loopNs += ep.maxOver(at(n)) - ep.maxOver(at(1))
		s.updateNs += ep.maxOver(func(l *rankLog) int64 {
			var sum int64
			for k := 1; k < n; k++ {
				sum += l.updEnd[k-1] - l.updStart[k-1]
			}
			return sum
		})
		if t := ep.lossless; t != nil {
			for _, b := range t.begins {
				s.beginMs = append(s.beginMs, float64(b)/1e6)
			}
			for _, e := range t.execs {
				s.execMs = append(s.execMs, float64(e)/1e6)
			}
		}
	}
	return s
}

func (s *samples) stepsPerS() float64 {
	if s.loopNs == 0 {
		return 0
	}
	return float64(s.stepCount) / (float64(s.loopNs) / 1e9)
}

// endToEnd computes the metrics a user of the pipeline sees: each is
// the median over the run's episodes of that episode's statistic, so
// a burst of interference that slows a few episodes moves it little.
// It also returns the samples behind each metric, summed over episodes.
func endToEnd(eps []*episode) (map[string]float64, map[string]int) {
	per := map[string][]float64{}
	n := map[string]int{}
	add := func(name string, xs []float64, stat func([]float64) float64) {
		if len(xs) > 0 {
			per[name] = append(per[name], stat(xs))
			n[name] += len(xs)
		}
	}
	p90 := func(xs []float64) float64 { return quantile(xs, 0.9) }
	for _, ep := range eps {
		s := collect([]*episode{ep})
		if s.stepCount == 0 {
			continue
		}
		add("setup_s", s.setupS, median)
		add("sim_mem_peak_bytes", s.memPeak, median)
		per["steps_per_s"] = append(per["steps_per_s"], s.stepsPerS())
		n["steps_per_s"] += s.stepCount
		add("step_ms_p50", s.stepMs, median)
		add("step_ms_p90", s.stepMs, p90)
		add("insitu_ms_per_trigger", s.insituMs, median)
		add("latency_ms_p50", s.latencyMs, median)
		add("latency_ms_p90", s.latencyMs, p90)
	}
	vals := map[string]float64{}
	for _, name := range []string{"setup_s", "steps_per_s", "step_ms_p50", "step_ms_p90",
		"insitu_ms_per_trigger", "latency_ms_p50", "latency_ms_p90", "sim_mem_peak_bytes"} {
		vals[name] = median(per[name])
	}
	return vals, n
}

// perLayer computes the single-layer metrics. A layer a workload does
// not exercise reads 0, which is the prediction "no change" for it.
func perLayer(eps []*episode) map[string]float64 {
	s := collect(eps)
	sum := func(key string) float64 {
		var t float64
		for _, ep := range eps {
			t += ep.vals[key]
		}
		return t
	}
	peak := func(key string) float64 {
		var m float64
		for _, ep := range eps {
			m = max(m, ep.vals[key])
		}
		return m
	}
	med := func(key string) float64 {
		var xs []float64
		for _, ep := range eps {
			if v, ok := ep.vals[key]; ok {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	out := map[string]float64{
		"fluid.step_ms_p50":             median(s.solverMs),
		"mpirt.rank_skew_ms_p50":        median(s.skewMs),
		"core.update_ms_p50":            median(s.updateMs),
		"sensei.pull_ms":                med("sensei.pull_ms"),
		"sensei.pull_bytes":             ratio(sum("sensei.pull_bytes"), sum("sensei.triggers")),
		"sensei.overhead_frac":          ratio(float64(s.updateNs), float64(s.loopNs)),
		"catalyst.exec_ms":              med("catalyst.exec_ms"),
		"catalyst.images":               sum("catalyst.images"),
		"adios.begin_step_ms_p50":       median(s.beginMs),
		"adios.wire_bytes_per_step":     ratio(sum("adios.wire_bytes"), sum("adios.wire_steps")),
		"adios.steps_sent":              sum("adios.steps_sent"),
		"staging.delivered_frac.render": ratio(sum("staging.delivered.render"), sum("staging.published")),
		"codec.wire_ratio":              ratio(sum("staging.wire.render"), sum("staging.raw.render")),
		"intransit.exec_ms":             median(s.execMs),
		"intransit.steps_processed":     sum("intransit.steps_processed"),
		"intransit.steps_skipped":       sum("intransit.steps_skipped"),
	}
	for _, phase := range []string{"advection", "pressure", "viscous", "scalar"} {
		out["fluid."+phase+"_ms"] = med("fluid." + phase + "_ms")
	}
	for _, typ := range []string{"catalyst", "adios", "staging"} {
		out["sensei.exec_ms."+typ] = med("sensei.exec_ms." + typ)
	}
	for _, cat := range memCategories {
		out["mem.peak_bytes."+cat] = peak("mem.peak_bytes." + cat)
	}
	for _, c := range []string{"hist", "render"} {
		out["staging.delivered."+c] = sum("staging.delivered." + c)
		out["staging.dropped."+c] = sum("staging.dropped." + c)
		out["staging.wire_bytes_per_step."+c] = ratio(sum("staging.wire."+c), sum("staging.delivered."+c))
	}

	// Iterations over each episode's leading window (rank 0 sees the
	// global counts).
	var p, v, sc, win float64
	var mallocs, bytes, gcs uint64
	for _, ep := range eps {
		for _, it := range ep.ranks[0].iters {
			p += float64(it[0])
			v += float64(it[1] + it[2] + it[3])
			sc += float64(it[4])
			win++
		}
		mallocs += ep.memEnd.Mallocs - ep.memStart.Mallocs
		bytes += ep.memEnd.TotalAlloc - ep.memStart.TotalAlloc
		gcs += uint64(ep.memEnd.NumGC - ep.memStart.NumGC)
	}
	out["fluid.pressure_iters"] = ratio(p, win)
	out["fluid.viscous_iters"] = ratio(v, win)
	out["fluid.scalar_iters"] = ratio(sc, win)
	out["go.allocs_per_step"] = ratio(float64(mallocs), float64(s.stepCount))
	out["go.alloc_bytes_per_step"] = ratio(float64(bytes), float64(s.stepCount))
	out["go.gc_per_step"] = ratio(float64(gcs), float64(s.stepCount))

	// Self time per layer from the traced episodes' spans, and the cost
	// of tracing itself: the untraced episodes' throughput over the
	// traced ones'.
	self := layerSelfMs(eps)
	for span, metric := range selfMetrics {
		out[metric] = self[span]
	}
	var plain, traced []*episode
	for _, ep := range eps {
		if ep.traced {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	out["trace.overhead_frac"] = ratio(collect(plain).stepsPerS(), collect(traced).stepsPerS()) - 1
	return out
}

// selfMetrics names the per-layer self-time metric of each span.
var selfMetrics = map[string]string{
	"step":             "self_ms.hook",
	"fluid.step":       "self_ms.fluid",
	"producer.load":    "self_ms.load",
	"core.update":      "self_ms.core",
	"endpoint.step":    "self_ms.endpoint",
	"adios.begin_step": "self_ms.adios",
	"intransit.exec":   "self_ms.intransit",
}
