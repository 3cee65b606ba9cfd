package main

import (
	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/intransit"
)

// fault names one step a tapped source drops or duplicates on purpose,
// so the self-test can prove that delivery faults surface as failures.
type fault struct {
	kind string // "", "drop" or "dup"
	step int64
}

// endpointTap observes one intransit.Endpoint from outside, through
// wrappers on its step sources. The endpoint calls them one after the
// other on its own goroutine, so the tap needs no locking; its records
// are read after the endpoint's goroutine has been joined.
type endpointTap struct {
	name     string
	lossless bool // every published step must arrive once, in order
	fault    fault
	ck       *checks

	// Source 0's BeginStep entry for step k+1 is the moment the
	// endpoint finished analysing step k.
	finishAt []int64 // indexed by step ordinal
	begins   []int64 // BeginStep durations: wire wait plus decode
	execs    []int64 // endpoint work per step: ingest, analyses, release
	steps    []int64 // step ordinals source 0 delivered, in order
	sums     []stepSums
	rawBytes int64 // plain-frame size of everything source 0 delivered
	spans    *spanLog

	cur        int64 // step source 0 last delivered, 0 before the first
	roundStart int64
	lastReturn int64
	roundBegin [][2]int64
	dup        *adios.Step
}

// stepSums are the checksums of one delivered step's arrays, in
// fanoutFields order; have marks which arrays the step carried.
type stepSums struct {
	step int64
	sums [len(fanoutFields)]uint64
	have [len(fanoutFields)]bool
}

func newEndpointTap(name string, lossless bool, f fault, ck *checks, traced bool) *endpointTap {
	return &endpointTap{
		name: name, lossless: lossless, fault: f, ck: ck,
		finishAt: make([]int64, 0, 1<<15),
		begins:   make([]int64, 0, 1<<16),
		execs:    make([]int64, 0, 1<<15),
		steps:    make([]int64, 0, 1<<15),
		spans:    newSpanLog("endpoint-"+name, traced),
	}
}

// wrap returns the tapped sources the endpoint is built over.
func (t *endpointTap) wrap(inner ...intransit.StepSource) []intransit.StepSource {
	out := make([]intransit.StepSource, len(inner))
	for i, s := range inner {
		out[i] = &tappedSource{tap: t, idx: i, inner: s}
	}
	return out
}

// tappedSource is one wrapped StepSource. It forwards Recycle, so the
// endpoint keeps decoding into reused storage exactly as it would
// without the wrapper.
type tappedSource struct {
	tap   *endpointTap
	idx   int
	inner intransit.StepSource
	last  int64
}

func (s *tappedSource) Recycle(st *adios.Step) {
	if r, ok := s.inner.(intransit.StepRecycler); ok {
		r.Recycle(st)
	}
}

func (s *tappedSource) BeginStep() (*adios.Step, error) {
	t := s.tap
	in := now()
	if s.idx == 0 {
		if t.cur > 0 {
			t.finish(in)
		}
		t.roundStart = in
		t.roundBegin = t.roundBegin[:0]
	}
	st, err := s.next()
	out := now()
	t.begins = append(t.begins, out-in)
	t.roundBegin = append(t.roundBegin, [2]int64{in, out})
	if err != nil {
		return nil, err
	}
	s.checkOrder(st.Step)
	if s.idx == 0 {
		t.cur = st.Step
		t.steps = append(t.steps, st.Step)
		t.rawBytes += int64(adios.MarshaledSize(st))
		if t.sums != nil {
			t.sums = append(t.sums, sumStep(st))
		}
	}
	// The endpoint's own work starts now: the checks above are the
	// benchmark's, charged to the endpoint.step root's self time.
	t.lastReturn = now()
	return st, nil
}

// next pulls the inner source's next step, applying the planted fault
// on source 0.
func (s *tappedSource) next() (*adios.Step, error) {
	t := s.tap
	if s.idx == 0 && t.dup != nil {
		st := t.dup
		t.dup = nil
		return st, nil
	}
	st, err := s.inner.BeginStep()
	if err != nil || s.idx != 0 || st.Step != t.fault.step {
		return st, err
	}
	switch t.fault.kind {
	case "drop":
		s.Recycle(st)
		return s.inner.BeginStep()
	case "dup":
		t.dup = cloneStep(st)
	}
	return st, nil
}

// checkOrder counts one delivery: a lossless source must deliver each
// step exactly once and in order, any source strictly increasing steps.
func (s *tappedSource) checkOrder(step int64) {
	t := s.tap
	if step == s.last+1 || (!t.lossless && step > s.last) {
		t.ck.pass()
	} else {
		t.ck.expect(false, "%s source %d delivered step %d after %d", t.name, s.idx, step, s.last)
	}
	s.last = step
}

// finish closes the endpoint's work on step t.cur at time end.
func (t *endpointTap) finish(end int64) {
	for int64(len(t.finishAt)) <= t.cur {
		t.finishAt = append(t.finishAt, 0)
	}
	t.finishAt[t.cur] = end
	t.execs = append(t.execs, end-t.lastReturn)
	if t.spans != nil {
		root := t.spans.add("endpoint.step", t.roundStart, end, -1, t.cur)
		for _, b := range t.roundBegin {
			t.spans.add("adios.begin_step", b[0], b[1], root, t.cur)
		}
		t.spans.add("intransit.exec", t.lastReturn, end, root, t.cur)
	}
	t.cur = 0
}

func sumStep(st *adios.Step) stepSums {
	out := stepSums{step: st.Step}
	for f, name := range fanoutVars {
		if v := st.FindVar(name); v != nil {
			out.sums[f] = checksum(v.F64)
			out.have[f] = true
		}
	}
	return out
}

func cloneStep(st *adios.Step) *adios.Step {
	c := &adios.Step{Step: st.Step, Time: st.Time, Attrs: map[string]string{}}
	for k, v := range st.Attrs {
		c.Attrs[k] = v
	}
	for _, v := range st.Vars {
		v.F64 = append([]float64(nil), v.F64...)
		v.I64 = append([]int64(nil), v.I64...)
		v.U8 = append([]byte(nil), v.U8...)
		v.Shape = append([]int64(nil), v.Shape...)
		c.Vars = append(c.Vars, v)
	}
	return c
}
