package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/nekrs"
)

// maxIter is fluid.Config's default MaxIter, which the benchmark's cases
// keep: a CG solve that used all of it did not converge.
const maxIter = 2000

// memWindow is the step at which the Accountant peak is read for
// sim_mem_peak_bytes. Rendered geometry grows as the flow develops, so
// a peak read at the end would depend on how many steps the machine
// managed in the episode's time.
const memWindow = 20

// iterWindow is how many leading steps of each episode the iteration
// counts cover. A fixed window makes the counts independent of how many
// steps a timed episode reached, so they repeat exactly.
const iterWindow = 30

// checks counts correctness checks; any goroutine may record one.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

// pass records one check that passed. Hot paths call it instead of
// expect, so passing checks box no format arguments.
func (c *checks) pass() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
}

// expect records one check; format describes the failure.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// episode is one set-up, closed-loop measurement and tear-down of a
// workload. A run repeats episodes and pools what they recorded.
type episode struct {
	traced   bool
	seed     uint64
	dir      string // scratch output of this episode
	ck       *checks
	fault    fault
	start    int64 // when set-up began
	loop     int64 // how long the measured loop runs
	deadline int64 // rank 0 stops the loop at the first hook past it
	stopAt   atomic.Int64

	setupEnd int64 // latest rank's loop start
	trigger  int   // sim-side analysis frequency
	solver   bool  // the ranks step the solver between hooks

	ranks    []*rankLog
	lossless *endpointTap // the endpoint latency is measured at, nil in situ
	tracks   []*spanLog

	memStart, memEnd runtime.MemStats

	// vals are per-episode layer readings, each already reduced over
	// ranks; see perLayer for how episodes combine them. Ranks report
	// concurrently, so mu guards it.
	mu   sync.Mutex
	vals map[string]float64
}

// maxVal keeps the largest reading under key (a reduction over ranks).
func (ep *episode) maxVal(key string, v float64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if cur, ok := ep.vals[key]; !ok || v > cur {
		ep.vals[key] = v
	}
}

func (ep *episode) addVal(key string, v float64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.vals[key] += v
}

// addRankTracks keeps the ranks' spans of a traced episode.
func (ep *episode) addRankTracks() {
	for _, l := range ep.ranks {
		if l.spans != nil {
			ep.tracks = append(ep.tracks, l.spans)
		}
	}
}

// rankLog is one sim or producer rank's per-step record, indexed by
// step-1. It is written only by the rank's goroutine.
type rankLog struct {
	rank     int
	entry    []int64 // hook entry: the solver (or load) finished this step
	updStart []int64
	updEnd   []int64 // 0 when the hook stopped before updating
	iters    [][5]int
	lastExit int64
	spans    *spanLog
	sim      *nekrs.Sim
	timerAt  map[string]metrics.PhaseStat // Sim.Timer when the loop began
	memPeak  int64                        // Accountant peak at step memWindow
}

func newRankLog(rank int, traced bool, track string) *rankLog {
	const capSteps = 1 << 15
	return &rankLog{
		rank:     rank,
		entry:    make([]int64, 0, capSteps),
		updStart: make([]int64, 0, capSteps),
		updEnd:   make([]int64, 0, capSteps),
		iters:    make([][5]int, 0, iterWindow),
		spans:    newSpanLog(track, traced),
	}
}

// loopStarted marks the end of set-up on this rank. Callers with several
// ranks hold a barrier just before, so every rank starts together.
func (ep *episode) loopStarted(l *rankLog, sim *nekrs.Sim) {
	l.lastExit = now()
	l.sim = sim
	l.timerAt = sim.Timer.Snapshot()
	ep.mu.Lock()
	ep.setupEnd = max(ep.setupEnd, l.lastExit)
	ep.mu.Unlock()
	if l.rank == 0 {
		ep.deadline = l.lastExit + ep.loop
		runtime.ReadMemStats(&ep.memStart)
	}
}

// enter records the hook entry of step k and reports whether the loop
// must stop there. Rank 0 alone reads the clock against the deadline and
// names the next step as the last; the ranks meet in the solver's
// collectives every step, so every rank sees that step number before
// reaching it and all stop on the same step.
func (ep *episode) enter(l *rankLog, k int) (stop bool) {
	t := now()
	l.entry = append(l.entry, t)
	if l.rank == 0 && ep.stopAt.Load() == 0 && t >= ep.deadline {
		ep.stopAt.Store(int64(k) + 1)
	}
	if s := ep.stopAt.Load(); s != 0 && int64(k) >= s {
		l.updStart = append(l.updStart, 0)
		l.updEnd = append(l.updEnd, 0)
		return true
	}
	return false
}

// update times one Bridge.Update around the call and records the
// step's spans: the solver (or load) phase, the update, and the
// harness's own remainder as the root.
func (ep *episode) update(l *rankLog, bridge *core.Bridge, k int, t float64, solverSpan string) error {
	start := now()
	_, err := bridge.Update(k, t)
	end := now()
	l.updStart = append(l.updStart, start)
	l.updEnd = append(l.updEnd, end)
	if k == memWindow {
		l.memPeak = l.sim.Acct.Peak()
	}
	if l.spans != nil {
		exit := now()
		root := l.spans.add("step", l.lastExit, exit, -1, int64(k))
		l.spans.add(solverSpan, l.lastExit, l.entry[k-1], root, int64(k))
		l.spans.add("core.update", start, end, root, int64(k))
		l.lastExit = exit
	}
	return err
}

// simHook is the StepHook of the solver workloads: hook entry marks the
// end of the solver's step, then the bridge runs. Rank 0 also checks
// that every CG solve converged and keeps the leading iteration counts.
func (ep *episode) simHook(l *rankLog, bridge *core.Bridge) nekrs.StepHook {
	return func(st fluid.StepStats) error {
		if ep.enter(l, st.Step) {
			return nekrs.ErrStop
		}
		if l.rank == 0 {
			it := [5]int{st.PressureIters, st.ViscousIters[0], st.ViscousIters[1], st.ViscousIters[2], st.ScalarIters}
			ok := true
			for _, n := range it {
				ok = ok && n < maxIter
			}
			if ok {
				ep.ck.pass()
			} else {
				ep.ck.expect(false, "step %d: a CG solve hit MaxIter (iterations %v)", st.Step, it)
			}
			if len(l.iters) < iterWindow {
				l.iters = append(l.iters, it)
			}
		}
		return ep.update(l, bridge, st.Step, st.Time, "fluid.step")
	}
}

// loopEnded reads the rank's counters once the loop has stopped.
func (ep *episode) loopEnded(l *rankLog) {
	sim := l.sim
	if l.rank == 0 {
		runtime.ReadMemStats(&ep.memEnd)
	}
	if l.memPeak == 0 {
		l.memPeak = sim.Acct.Peak() // the episode ended before memWindow
	}
	end := sim.Timer.Snapshot()
	for _, phase := range []string{"advection", "pressure", "viscous", "scalar"} {
		if ms, ok := meanMsSince(end, l.timerAt, phase); ok {
			ep.maxVal("fluid."+phase+"_ms", ms)
		}
	}
}

// meanMsSince reports the mean duration in ms of one Timer phase's calls
// between two snapshots, and whether there were any.
func meanMsSince(end, start map[string]metrics.PhaseStat, phase string) (float64, bool) {
	n := end[phase].Count - start[phase].Count
	if n == 0 {
		return 0, false
	}
	return float64((end[phase].Total - start[phase].Total).Nanoseconds()) / float64(n) / 1e6, true
}

// checkFields verifies that the rank's solver state is finite and its
// divergence bounded. The discrete divergence of this P_N-P_N scheme is
// not zero: it grows with the velocity as the flow spins up (on pb146
// it passes 1 near step 120 and levels off near 2.3 as the peak
// velocity nears 1). So it is bounded relative to divScale, the
// divergence a field of the same peak velocity varying at the grid
// spacing h would have. The ratio is 0.51 after pb146's first step,
// below 0.2 from step 40 and near 0.1 once the flow has developed; on
// RBC it stays below 0.1 for the first 1500 steps. A grid-scale
// instability drives it towards 1. DivergenceL2 and MaxVelocity are
// collective: every rank calls this at the same point.
func (ep *episode) checkFields(sim *nekrs.Sim, h float64) {
	bad := 0
	for _, mem := range sim.Solver.Fields() {
		for _, v := range mem.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad++
			}
		}
	}
	rank := sim.Solver.Comm().Rank()
	ep.ck.expect(bad == 0, "rank %d: %d non-finite field values", rank, bad)
	div := sim.Solver.DivergenceL2()
	divScale := sim.Solver.MaxVelocity() * math.Sqrt(sim.Solver.Volume()) / h
	ep.ck.expect(div < maxRelDivergence*divScale, "rank %d: DivergenceL2 %.3g over %g of its grid-scale bound %.3g",
		rank, div, maxRelDivergence, divScale)
}

// gridSpacing is a case's mean node spacing: its smallest element edge
// over the polynomial order.
func gridSpacing(c cases.Case) float64 {
	m := c.Mesh
	edge := min(m.Lx/float64(m.Nx), m.Ly/float64(m.Ny), m.Lz/float64(m.Nz))
	return edge / float64(m.Order)
}

// senseiCounters reads one sim rank's bridge counters: the Timer's
// pull and per-analysis phases (since loop start) and the planner's
// PullStats, plus the Accountant's category peaks.
func (ep *episode) senseiCounters(l *rankLog, bridge *core.Bridge) {
	sim := l.sim
	end := sim.Timer.Snapshot()
	for name := range end {
		typ, ok := strings.CutPrefix(name, "sensei:")
		ms, ran := meanMsSince(end, l.timerAt, name)
		if !ok || !ran {
			continue
		}
		key := "sensei.exec_ms." + typ
		if typ == "pull" {
			key = "sensei.pull_ms"
		}
		ep.maxVal(key, ms)
	}
	var pulled int64
	triggers := 0
	for _, ps := range bridge.Analysis().PullStats() {
		pulled += ps.BytesPulled
		if ps.Executions > triggers {
			triggers = ps.Executions
		}
	}
	ep.addVal("sensei.pull_bytes", float64(pulled))
	if l.rank == 0 {
		ep.addVal("sensei.triggers", float64(triggers))
	}
	for _, cat := range memCategories {
		ep.maxVal("mem.peak_bytes."+cat, float64(sim.Acct.CategoryPeak(cat)))
	}
	ep.maxVal("sim_mem_peak", float64(l.memPeak))
}

// memCategories are the Accountant categories reported per layer.
var memCategories = []string{"device", "solver-work", "sensei-mirror", "vtk-copy", "vtk-structure", "sst-queue", "staging-hub"}
