package intransit

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
	"nekrs-sensei/internal/sensei"

	"nekrs-sensei/internal/staging"

	_ "nekrs-sensei/internal/checkpoint" // register "checkpoint" analysis
)

func newSolver(t *testing.T, comm *mpirt.Comm, size int) *fluid.Solver {
	t.Helper()
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: 2, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 2,
	}, comm.Rank(), size)
	if err != nil {
		t.Fatal(err)
	}
	bc := map[mesh.Face]fluid.VelBC{}
	for _, f := range []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax} {
		bc[f] = fluid.VelBC{}
	}
	s, err := fluid.NewSolver(fluid.Config{
		Mesh: m, Comm: comm, Dev: occa.NewDevice(occa.CUDA, nil),
		Nu: 0.1, Kappa: 0.1, Dt: 1e-3, Temperature: true, VelBC: bc,
		InitialTemperature: func(x, y, z float64) float64 { return x + 10*y + 100*z },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ctxFor(comm *mpirt.Comm, dir string) *sensei.Context {
	return &sensei.Context{
		Comm: comm, Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), OutputDir: dir,
	}
}

// TestFullPipelineIntegrity streams two simulation ranks' data through
// SST into a single endpoint and verifies values arrive bit-exact.
func TestFullPipelineIntegrity(t *testing.T) {
	const simRanks = 2
	const steps = 3

	// Simulation side writers (addresses collected for the endpoint).
	addrCh := make(chan [simRanks]string, 1)
	var endpointErr error
	var received [][]float64 // per step: merged temperature
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs := <-addrCh
		var readers []*adios.Reader
		for _, a := range addrs {
			r, err := adios.OpenReader(a)
			if err != nil {
				endpointErr = err
				return
			}
			defer r.Close()
			readers = append(readers, r)
		}
		ctx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
		ep, err := NewEndpoint(ctx, Sources(readers...), nil)
		if err != nil {
			endpointErr = err
			return
		}
		// Capture each step's merged temperature via a custom analysis.
		ep.ca.AddAnalysis("capture", 1, captureFunc(func(st *sensei.Step) error {
			g, err := st.Mesh("mesh")
			if err != nil {
				return err
			}
			arr := g.FindPointData("temperature")
			received = append(received, append([]float64(nil), arr.Data...))
			return nil
		}))
		if _, err := ep.Run(); err != nil {
			endpointErr = err
		}
	}()

	var sent [][]float64 // per step: concatenated rank temps (rank order)
	sentPerStep := make([][][]float64, steps)
	mpirt.Run(simRanks, func(c *mpirt.Comm) {
		s := newSolver(t, c, simRanks)
		ctx := ctxFor(c, "")
		w, err := NewWriter("127.0.0.1:0", ctx.Acct, 0, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Rendezvous: rank order matters for the merge comparison.
		all := gatherAddrs(c, w.Addr())
		if c.Rank() == 0 {
			var a [simRanks]string
			copy(a[:], all)
			addrCh <- a
		}
		send := NewSendAdaptor(w, "mesh", []string{"temperature"})
		da := core.NewNekDataAdaptor(s, ctx.Acct)
		for step := 0; step < steps; step++ {
			s.Step()
			da.SetStep(step, s.Time())
			sendStep, err := sensei.Pull(da, send.Describe(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := send.Execute(sendStep); err != nil {
				t.Error(err)
				return
			}
			da.ReleaseData() //nolint:errcheck
			// Record what this rank sent.
			mirror := make([]float64, s.T.Len())
			s.T.CopyToHost(mirror)
			mu.Lock()
			if sentPerStep[step] == nil {
				sentPerStep[step] = make([][]float64, simRanks)
			}
			sentPerStep[step][c.Rank()] = mirror
			mu.Unlock()
		}
		if err := send.Finalize(); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
	if endpointErr != nil {
		t.Fatal(endpointErr)
	}
	for step := range sentPerStep {
		var merged []float64
		for r := 0; r < simRanks; r++ {
			merged = append(merged, sentPerStep[step][r]...)
		}
		sent = append(sent, merged)
	}
	if len(received) != steps {
		t.Fatalf("endpoint saw %d steps, want %d", len(received), steps)
	}
	for step := range sent {
		if len(sent[step]) != len(received[step]) {
			t.Fatalf("step %d: %d vs %d values", step, len(sent[step]), len(received[step]))
		}
		for i := range sent[step] {
			if sent[step][i] != received[step][i] {
				t.Fatalf("step %d value %d: sent %v received %v", step, i, sent[step][i], received[step][i])
			}
		}
	}
}

var mu sync.Mutex

// captureFunc adapts a closure to a sensei.Analysis pulling every
// array of "mesh"; it never requests a stop.
type captureFunc func(st *sensei.Step) error

func (f captureFunc) Describe() sensei.Requirements         { return sensei.RequireAllArrays("mesh") }
func (f captureFunc) Execute(st *sensei.Step) (bool, error) { return false, f(st) }
func (f captureFunc) Finalize() error                       { return nil }

// TestEndpointVTUCheckpoint drives the paper's in transit
// Checkpointing measurement point end to end: sim -> SST -> endpoint
// writes VTU.
func TestEndpointVTUCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const steps = 2

	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	var epErr error
	var processed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := adios.OpenReader(<-addrCh)
		if err != nil {
			epErr = err
			return
		}
		defer r.Close()
		ctx := ctxFor(mpirt.NewWorld(1).Comm(0), dir)
		cfg := `<sensei>
  <analysis type="checkpoint" mesh="mesh" prefix="rbc" frequency="1"/>
</sensei>`
		ep, err := NewEndpoint(ctx, Sources(r), []byte(cfg))
		if err != nil {
			epErr = err
			return
		}
		processed, epErr = ep.Run()
	}()

	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	w, err := NewWriter("127.0.0.1:0", ctx.Acct, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrCh <- w.Addr()
	send := NewSendAdaptor(w, "mesh", nil) // all arrays
	da := core.NewNekDataAdaptor(s, ctx.Acct)
	for step := 0; step < steps; step++ {
		s.Step()
		da.SetStep(step, s.Time())
		sendStep, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(sendStep); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	if err := send.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if epErr != nil {
		t.Fatal(epErr)
	}
	if processed != steps {
		t.Errorf("processed %d steps, want %d", processed, steps)
	}
	for _, name := range []string{"rbc_000000_r0000.vtu", "rbc_000001_r0000.vtu", "rbc_000000.pvtu"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}
}

// TestStructureSentOnce: the grid structure travels only in the first
// step; later steps carry arrays only.
func TestStructureSentOnce(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	w, err := NewWriter("127.0.0.1:0", ctx.Acct, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	send := NewSendAdaptor(w, "mesh", []string{"pressure"})
	da := core.NewNekDataAdaptor(s, ctx.Acct)
	for step := 0; step < 2; step++ {
		da.SetStep(step, 0)
		sendStep, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(sendStep); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	go w.Close() //nolint:errcheck
	s1, err := r.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	if s1.FindVar("points") == nil || s1.Attrs["structure"] != "1" {
		t.Error("first step missing structure")
	}
	if s2.FindVar("points") != nil || s2.Attrs["structure"] == "1" {
		t.Error("second step resent structure")
	}
	if s1.Bytes() <= s2.Bytes() {
		t.Errorf("structure step (%d B) should exceed array step (%d B)", s1.Bytes(), s2.Bytes())
	}
}

func TestStreamAdaptorErrors(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	a := NewStreamDataAdaptor(comm, 1)
	if _, err := a.Mesh("mesh", true); err == nil {
		t.Error("expected no-data error")
	}
	if _, err := a.MeshMetadata(0); err == nil {
		t.Error("expected no-data error")
	}
	// Arrays before structure.
	step := &adios.Step{Step: 1, Vars: []adios.Variable{adios.NewF64("array/p", []float64{1})}}
	if err := a.Ingest(0, step); err == nil {
		t.Error("expected structure-first error")
	}
}

// TestStreamAdaptorMergesBlocks verifies connectivity offsetting when
// merging blocks from two sources.
func TestStreamAdaptorMergesBlocks(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	a := NewStreamDataAdaptor(comm, 2)
	mkStep := func(origin float64) *adios.Step {
		pts := make([]float64, 24)
		for i := 0; i < 8; i++ {
			pts[3*i] = origin + float64(i%2)
			pts[3*i+1] = float64((i / 2) % 2)
			pts[3*i+2] = float64(i / 4)
		}
		return &adios.Step{
			Step:  0,
			Attrs: map[string]string{"structure": "1"},
			Vars: []adios.Variable{
				adios.NewF64("points", pts),
				adios.NewI64("connectivity", []int64{0, 1, 3, 2, 4, 5, 7, 6}),
				adios.NewI64("offsets", []int64{8}),
				adios.NewU8("types", []byte{12}),
				adios.NewF64("array/f", []float64{0, 1, 2, 3, 4, 5, 6, 7}),
			},
		}
	}
	if err := a.Ingest(0, mkStep(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(1, mkStep(10)); err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	g, err := a.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() != 16 || g.NumCells() != 2 {
		t.Fatalf("merged %d points %d cells", g.NumPoints(), g.NumCells())
	}
	// Second cell's connectivity must reference the second block.
	if g.Connectivity[8] != 8 {
		t.Errorf("offsetting failed: %v", g.Connectivity[8:])
	}
	if err := a.AddArray(g, "mesh", sensei.AssocPoint, "f"); err != nil {
		t.Fatal(err)
	}
	arr := g.FindPointData("f")
	if len(arr.Data) != 16 || arr.Data[8] != 0 {
		t.Errorf("merged array = %v", arr.Data)
	}
	md, err := a.MeshMetadata(0)
	if err != nil {
		t.Fatal(err)
	}
	if md.NumPoints != 16 || !md.HasArray("f") {
		t.Errorf("metadata = %+v", md)
	}
	if math.Abs(a.Time()-0) > 1e-12 || a.TimeStep() != 0 {
		t.Error("time metadata wrong")
	}
}

// stubSource replays a canned step sequence, then io.EOF.
type stubSource struct {
	steps []*adios.Step
	i     int
}

func (s *stubSource) BeginStep() (*adios.Step, error) {
	if s.i >= len(s.steps) {
		return nil, io.EOF
	}
	s.i++
	return s.steps[s.i-1], nil
}

// stubStep builds a one-hex-cell step; structure travels on step 0.
func stubStep(step int64, origin float64) *adios.Step {
	s := &adios.Step{Step: step, Time: float64(step), Attrs: map[string]string{}}
	if step == 0 {
		pts := make([]float64, 24)
		for i := 0; i < 8; i++ {
			pts[3*i] = origin + float64(i%2)
			pts[3*i+1] = float64((i / 2) % 2)
			pts[3*i+2] = float64(i / 4)
		}
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", pts),
			adios.NewI64("connectivity", []int64{0, 1, 3, 2, 4, 5, 7, 6}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
		)
	}
	s.Vars = append(s.Vars, adios.NewF64("array/f", []float64{
		float64(step), 1, 2, 3, 4, 5, 6, 7,
	}))
	return s
}

// TestEndpointResyncSkewedSources: hub sources under a drop policy
// shed steps independently, so two sources can deliver different step
// subsequences; the endpoint must realign on the common steps instead
// of merging mismatched timesteps.
func TestEndpointResyncSkewedSources(t *testing.T) {
	a := &stubSource{steps: []*adios.Step{stubStep(0, 0), stubStep(2, 0), stubStep(5, 0)}}
	b := &stubSource{steps: []*adios.Step{stubStep(0, 10), stubStep(3, 10), stubStep(5, 10)}}
	ctx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
	ep, err := NewEndpoint(ctx, []StepSource{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	ep.ca.AddAnalysis("capture", 1, captureFunc(func(st *sensei.Step) error {
		g, err := st.Mesh("mesh")
		if err != nil {
			return err
		}
		arr := g.FindPointData("f")
		// Both blocks must carry the same step's data after resync.
		if arr.Data[0] != arr.Data[8] {
			t.Errorf("merged mismatched steps: %v vs %v", arr.Data[0], arr.Data[8])
		}
		seen = append(seen, st.TimeStep())
		return nil
	}))
	n, err := ep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(seen) != 2 || seen[0] != 0 || seen[1] != 5 {
		t.Errorf("processed %d steps %v, want the aligned steps [0 5]", n, seen)
	}
}

// TestStagingFanoutEndpoints runs the hub-based deployment shape in
// process: one simulation publishes into a staging hub and three
// endpoints with different backpressure policies consume it through
// the same StepSource seam as direct SST readers.
func TestStagingFanoutEndpoints(t *testing.T) {
	const steps = 6
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	hub := staging.NewHub(ctx.Acct)
	send := staging.New(ctx, hub, "mesh", []string{"temperature"})

	specs := []struct {
		name   string
		policy staging.Policy
		depth  int
	}{
		{"sync", staging.Block, 2},
		{"lossy", staging.DropOldest, 2},
		{"viz", staging.LatestOnly, 1},
	}
	processed := make([]int, len(specs))
	lastTemp := make([][]float64, len(specs))
	epErrs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		cons, err := hub.Subscribe(spec.name, spec.policy, spec.depth)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cons *staging.Consumer) {
			defer wg.Done()
			epCtx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
			ep, err := NewEndpoint(epCtx, []StepSource{cons}, nil)
			if err != nil {
				epErrs[i] = err
				return
			}
			ep.ca.AddAnalysis("capture", 1, captureFunc(func(st *sensei.Step) error {
				g, err := st.Mesh("mesh")
				if err != nil {
					return err
				}
				lastTemp[i] = append([]float64(nil), g.FindPointData("temperature").Data...)
				return nil
			}))
			processed[i], epErrs[i] = ep.Run()
		}(i, cons)
	}

	da := core.NewNekDataAdaptor(s, ctx.Acct)
	for step := 0; step < steps; step++ {
		s.Step()
		da.SetStep(step, s.Time())
		sendStep, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(sendStep); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	if err := send.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range epErrs {
		if err != nil {
			t.Fatalf("%s endpoint: %v", specs[i].name, err)
		}
	}

	if processed[0] != steps {
		t.Errorf("block endpoint processed %d steps, want %d", processed[0], steps)
	}
	for i := range specs {
		if processed[i] == 0 {
			t.Errorf("%s endpoint processed nothing", specs[i].name)
		}
	}
	// Every endpoint's final step is the simulation's final state —
	// bit-exact, since the hub shares the adaptor's buffers.
	final := make([]float64, s.T.Len())
	s.T.CopyToHost(final)
	for i := range specs {
		if len(lastTemp[i]) != len(final) {
			t.Fatalf("%s: %d values, want %d", specs[i].name, len(lastTemp[i]), len(final))
		}
		for j := range final {
			if lastTemp[i][j] != final[j] {
				t.Fatalf("%s: value %d: got %v want %v", specs[i].name, j, lastTemp[i][j], final[j])
			}
		}
	}
	if hub.Published() != steps {
		t.Errorf("hub published %d, want %d", hub.Published(), steps)
	}
}

func TestSendAdaptorFactory(t *testing.T) {
	dir := t.TempDir()
	contact := filepath.Join(dir, "contact.txt")
	comm := mpirt.NewWorld(1).Comm(0)
	ctx := ctxFor(comm, "")
	a, err := sensei.NewAnalysisAdaptor("adios", ctx, map[string]string{
		"address": "127.0.0.1:0", "queue": "4", "contact": contact,
	})
	if err != nil {
		t.Fatal(err)
	}
	send := a.(*SendAdaptor)
	if send.Writer().Addr() == "" {
		t.Error("no address")
	}
	addrs, err := adios.ReadContact(contact, 0)
	if err != nil || len(addrs) != 1 || addrs[0] != send.Writer().Addr() {
		t.Errorf("contact = %v, %v", addrs, err)
	}
	// Connect a sink so Finalize's end-of-stream delivery completes
	// without waiting for the close deadline.
	r, err := adios.OpenReader(send.Writer().Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := r.BeginStep(); err != nil {
				return
			}
		}
	}()
	if err := send.Finalize(); err != nil {
		t.Error(err)
	}
	<-done
	if _, err := sensei.NewAnalysisAdaptor("adios", ctx, map[string]string{"queue": "bogus"}); err == nil {
		t.Error("expected queue error")
	}
}

// TestSendSubsetOnWire: a reader declaring an array subset in its
// hello makes the send adaptor pull and ship only those arrays
// (structure step excepted); an unadvertised array is rejected in the
// handshake.
func TestSendSubsetOnWire(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	w, err := NewWriter("127.0.0.1:0", ctx.Acct, 8, 0, []string{"pressure", "temperature"})
	if err != nil {
		t.Fatal(err)
	}

	// Handshake rejection: the requested array is not advertised. The
	// rejected hello claims nothing, so the stream still takes a reader.
	if _, err := adios.OpenReaderWith(w.Addr(), adios.ReaderOptions{
		Arrays: []string{"vorticity_x"},
	}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want handshake rejection, got %v", err)
	}
	r, err := adios.OpenReaderWith(w.Addr(), adios.ReaderOptions{Arrays: []string{"pressure"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	send := NewSendAdaptor(w, "mesh", []string{"pressure", "temperature"})
	if got := w.RequestedArrays(); len(got) != 1 || got[0] != "pressure" {
		t.Fatalf("RequestedArrays = %v, want [pressure]", got)
	}
	// The declaration shrank to the reader's subset.
	if req := send.Describe(); req.Mesh("mesh") == nil ||
		len(req.Mesh("mesh").PointArrayNames()) != 1 {
		t.Errorf("Describe after subset hello = %v", send.Describe())
	}

	da := core.NewNekDataAdaptor(s, ctx.Acct)
	const steps = 2
	for step := 0; step < steps; step++ {
		s.Step()
		da.SetStep(step, s.Time())
		st, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(st); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	go send.Finalize() //nolint:errcheck
	for step := 0; step < steps; step++ {
		got, err := r.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if got.FindVar("array/pressure") == nil {
			t.Errorf("step %d: requested array missing", step)
		}
		if got.FindVar("array/temperature") != nil {
			t.Errorf("step %d: unrequested array shipped", step)
		}
	}
	if _, err := r.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

// stopAfter is a v2 analysis requesting a stop at the n-th execution.
type stopAfter struct {
	n, execs int
}

func (s *stopAfter) Describe() sensei.Requirements { return sensei.NoRequirements() }
func (s *stopAfter) Execute(st *sensei.Step) (bool, error) {
	s.execs++
	return s.execs >= s.n, nil
}
func (s *stopAfter) Finalize() error { return nil }

// TestEndpointStopSignal: an analysis returning stop=true ends the
// endpoint's Run cleanly after that step, without an error and
// without draining the rest of the stream.
func TestEndpointStopSignal(t *testing.T) {
	hub := staging.NewHub(nil)
	cons, err := hub.Subscribe("stop", staging.DropOldest, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
	ep, err := NewEndpoint(ctx, []StepSource{cons}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.ca.AddAnalysis("stopper", 1, &stopAfter{n: 2})

	names := []string{"f"}
	for i := 0; i < 6; i++ {
		if err := hub.Publish(mkHubStep(i, names)); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := ep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2 || !ep.Stopped() {
		t.Errorf("steps=%d stopped=%v, want 2 steps and stopped", steps, ep.Stopped())
	}
	hub.Close()
}

// mkHubStep builds a minimal valid stream step for hub-fed endpoints.
func mkHubStep(seq int, names []string) *adios.Step {
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq),
		Attrs: map[string]string{"mesh": "mesh"},
	}
	if seq == 0 {
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", make([]float64, 3*8), 8, 3),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
		)
	}
	for _, n := range names {
		s.Vars = append(s.Vars, adios.NewF64("array/"+n, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	}
	return s
}

// TestStorageReuseVanishedArray: with storage reuse enabled, an array
// that stops arriving mid-stream must still be a hard AddArray error
// (missing key), not a silent zero-length delivery from a recycled
// buffer.
func TestStorageReuseVanishedArray(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	da := NewStreamDataAdaptor(comm, 1)
	da.SetStorageReuse(true)

	structure := &adios.Step{
		Step: 0, Attrs: map[string]string{"structure": "1"},
		Vars: []adios.Variable{
			adios.NewF64("points", []float64{0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1}),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
			adios.NewF64("array/p", []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		},
	}
	if err := da.Ingest(0, structure); err != nil {
		t.Fatal(err)
	}
	if err := da.Seal(); err != nil {
		t.Fatal(err)
	}
	g, err := da.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(g, "mesh", sensei.AssocPoint, "p"); err != nil {
		t.Fatalf("step 0: %v", err)
	}
	if err := da.ReleaseData(); err != nil {
		t.Fatal(err)
	}

	// Step 1 no longer ships "p".
	next := &adios.Step{Step: 1, Attrs: map[string]string{}}
	if err := da.Ingest(0, next); err != nil {
		t.Fatal(err)
	}
	g, err = da.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(g, "mesh", sensei.AssocPoint, "p"); err == nil {
		t.Error("vanished array delivered silently under storage reuse")
	}

	// Step 2 ships it again: the parked buffer is recycled.
	again := &adios.Step{Step: 2, Attrs: map[string]string{},
		Vars: []adios.Variable{adios.NewF64("array/p", []float64{9, 10, 11, 12, 13, 14, 15, 16})}}
	if err := da.ReleaseData(); err != nil {
		t.Fatal(err)
	}
	if err := da.Ingest(0, again); err != nil {
		t.Fatal(err)
	}
	g, err = da.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(g, "mesh", sensei.AssocPoint, "p"); err != nil {
		t.Fatalf("step 2: %v", err)
	}
	if arr := g.FindPointData("p"); arr == nil || arr.Data[0] != 9 {
		t.Errorf("recycled array has wrong contents: %+v", arr)
	}
}

// gatherAddrs collects every rank's address on rank 0, in rank order.
func gatherAddrs(comm *mpirt.Comm, addr string) []string {
	all := comm.GatherBytes(0, []byte(addr))
	if comm.Rank() != 0 {
		return nil
	}
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = string(b)
	}
	return out
}
