package adios_test

import (
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/faultnet"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/metrics"
)

// These tests drive the Reader against the producer of a direct SST
// stream — intransit.Writer, the "adios" analysis' one-consumer
// staging hub — over the real wire, the way an endpoint does. They
// live in an external test package because the producer side imports
// this package.

func sampleStep() *adios.Step {
	return &adios.Step{
		Step: 7, Time: 0.007,
		Attrs: map[string]string{"mesh": "mesh", "case": "rbc"},
		Vars: []adios.Variable{
			adios.NewF64("pressure", []float64{1.5, -2.5, 3.25}, 3),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewU8("types", []byte{12, 12}),
		},
	}
}

// codedStep builds a step with one codec-eligible array whose values
// evolve smoothly with the step number, so temporal deltas stay small.
func codedStep(step int64, n int) *adios.Step {
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(float64(i)/40) + 1e-3*float64(step)
	}
	return &adios.Step{
		Step: step, Time: float64(step) * 0.01,
		Attrs: map[string]string{"case": "rbc"},
		Vars: []adios.Variable{
			adios.NewF64("array/u", u, int64(n)),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3}),
		},
	}
}

func f64BitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func newWriter(t testing.TB, acct *metrics.Accountant, queue, reattach int, arrays []string) *intransit.Writer {
	t.Helper()
	w, err := intransit.NewWriter("127.0.0.1:0", acct, queue, reattach, arrays)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSSTStreamDelivery(t *testing.T) {
	w := newWriter(t, nil, 0, 0, nil)
	const steps = 10
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			s := sampleStep()
			s.Step = int64(i)
			if err := w.Put(s); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < steps; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if s.Step != int64(i) {
			t.Errorf("step order: got %d want %d", s.Step, i)
		}
		if s.FindVar("pressure") == nil {
			t.Error("missing variable")
		}
	}
	if _, err := r.BeginStep(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	wg.Wait()
	if r.StepsReceived() != steps {
		t.Errorf("StepsReceived = %d", r.StepsReceived())
	}
	if w.StepsSent() != steps {
		t.Errorf("StepsSent = %d", w.StepsSent())
	}
}

func TestSSTBackpressure(t *testing.T) {
	acct := metrics.NewAccountant()
	w := newWriter(t, acct, 2, 0, nil)
	// No reader yet: the first two Puts stage, the third must block.
	put := func() { w.Put(sampleStep()) } //nolint:errcheck // error path tested elsewhere
	put()
	put()
	if acct.CategoryInUse("staging-hub") == 0 {
		t.Error("queue not accounted")
	}
	blocked := make(chan struct{})
	go func() {
		put()
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Error("third Put should block on full queue")
	case <-time.After(50 * time.Millisecond):
	}
	// A consumer drains the queue and unblocks the producer.
	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		if _, err := r.BeginStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after drain")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("queue accounting leak: %d", got)
	}
	if acct.CategoryPeak("staging-hub") == 0 {
		t.Error("no queue peak recorded")
	}
	if acct.CategoryPeak("sst-queue") != 0 {
		t.Error("staged bytes charged to the retired sst-queue category")
	}
}

func TestSSTQueueGrowsWithSlowConsumer(t *testing.T) {
	acct := metrics.NewAccountant()
	w := newWriter(t, acct, 8, 0, nil)
	for i := 0; i < 8; i++ {
		if err := w.Put(sampleStep()); err != nil {
			t.Fatal(err)
		}
	}
	// All eight steps staged: queue memory is the per-step payload
	// times the depth — the Figure 6 mechanism.
	if got, want := acct.CategoryInUse("staging-hub"), 8*sampleStep().Bytes(); got != want {
		t.Errorf("staged bytes = %d, want %d", got, want)
	}
	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go w.Close() //nolint:errcheck // drained below
	n := 0
	for {
		if _, err := r.BeginStep(); err != nil {
			break
		}
		n++
	}
	if n != 8 {
		t.Errorf("received %d steps, want 8", n)
	}
}

func TestWriterPutAfterClose(t *testing.T) {
	w := newWriter(t, nil, 0, 0, nil)
	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(sampleStep()); err == nil {
		t.Error("expected error on closed writer")
	}
}

// TestWriterOneReader: every hello claims the stream's one consumer,
// whatever consumer name or policy it announces; a second concurrent
// reader is rejected, and without reattach a reader that leaves ends
// the stream for the producer.
func TestWriterOneReader(t *testing.T) {
	w := newWriter(t, nil, 2, 0, nil)
	defer w.Close()
	r, err := adios.OpenReaderWith(w.Addr(), adios.ReaderOptions{Consumer: "viz", Policy: "latest-only"})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Hub().Stats(); len(st) != 1 || st[0].Name != "reader" || st[0].Policy.String() != "block" {
		t.Fatalf("hub consumers = %+v, want the one declared block consumer", st)
	}
	var rej *adios.RejectedError
	if _, err := adios.OpenReader(w.Addr()); !errors.As(err, &rej) {
		t.Fatalf("second reader: err = %v, want a handshake rejection", err)
	}
	if err := w.Put(sampleStep()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.BeginStep(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	deadline := time.Now().Add(5 * time.Second)
	var perr error
	for perr == nil && time.Now().Before(deadline) {
		perr = w.Put(sampleStep())
		time.Sleep(time.Millisecond)
	}
	if perr == nil || !strings.Contains(perr.Error(), "disconnected") {
		t.Fatalf("Put after the reader left: %v, want a disconnect error", perr)
	}
	if _, err := adios.OpenReader(w.Addr()); !errors.As(err, &rej) {
		t.Fatalf("successor without reattach: err = %v, want a handshake rejection", err)
	}
}

// TestSSTCodecNegotiation drives codec negotiation through the
// stream: requests outside the advertisement are rejected at
// handshake, and an accepted request compresses the stream end to
// end — including a structure step mid-stream that resets the
// temporal chain.
func TestSSTCodecNegotiation(t *testing.T) {
	t.Run("reject unadvertised codec", func(t *testing.T) {
		w := newWriter(t, nil, 0, 0, nil)
		defer w.Close()
		w.Hub().SetCodecAdvertised([]string{"transpose-delta"})
		_, err := adios.OpenReaderWith(w.Addr(), adios.ReaderOptions{Codecs: []string{"quantize:1e-3"}})
		if err == nil || !strings.Contains(err.Error(), "quantize") {
			t.Fatalf("err = %v, want quantize rejection", err)
		}
		// The rejected hello claimed nothing: an advertised request binds.
		r, err := adios.OpenReaderWith(w.Addr(), adios.ReaderOptions{Codecs: []string{"transpose-delta"}})
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	})

	t.Run("bad codec spec fails before dial", func(t *testing.T) {
		if _, err := adios.OpenReaderWith("127.0.0.1:1", adios.ReaderOptions{Codecs: []string{"bogus"}}); err == nil ||
			!strings.Contains(err.Error(), "bogus") {
			t.Fatalf("err = %v, want unknown codec", err)
		}
	})

	t.Run("temporal stream with structure step", func(t *testing.T) {
		w := newWriter(t, nil, 4, 0, nil)
		const steps = 8
		want := make([]*adios.Step, steps)
		for i := range want {
			want[i] = codedStep(int64(i), 300)
			if i == 4 {
				want[i].Attrs["structure"] = "1"
			}
		}
		errCh := make(chan error, 1)
		go func() {
			for _, s := range want {
				if err := w.Put(s); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- w.Close()
		}()
		r, err := adios.OpenReaderWith(w.Addr(), adios.ReaderOptions{Codecs: []string{"temporal-delta"}})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < steps; i++ {
			got, err := r.BeginStep()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if got.Step != int64(i) {
				t.Fatalf("step order: got %d want %d", got.Step, i)
			}
			if !f64BitsEqual(want[i].FindVar("array/u").F64, got.FindVar("array/u").F64) {
				t.Fatalf("step %d: payload mismatch over the wire", i)
			}
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if got := w.Hub().Stats()[0].Codecs; len(got) != 1 || got[0] != "temporal-delta" {
			t.Errorf("negotiated codecs = %v", got)
		}
		cs := w.Hub().Status().CodecStreams
		if len(cs) != 1 || !(cs[0].EncodedBytes > 0 && cs[0].EncodedBytes < cs[0].RawBytes) {
			t.Errorf("codec streams = %+v, want one compressing the smooth field", cs)
		}
	})

	t.Run("identity request leaves the wire plain", func(t *testing.T) {
		w := newWriter(t, nil, 2, 0, nil)
		r, err := adios.OpenReader(w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		go func() {
			w.Put(codedStep(0, 10)) //nolint:errcheck
			w.Close()               //nolint:errcheck
		}()
		if _, err := r.BeginStep(); err != nil {
			t.Fatal(err)
		}
		if got := w.Hub().Stats()[0].Codecs; got != nil {
			t.Errorf("negotiated codecs = %v, want nil", got)
		}
		if cs := w.Hub().Status().CodecStreams; len(cs) != 0 {
			t.Errorf("codec streams = %+v, want none", cs)
		}
	})
}

// TestReaderRecycleRoundTrip streams steps through the writer with the
// endpoint's recycle protocol: after the first step the reader decodes
// into recycled storage (asserted by backing-array identity) and every
// step's contents still match what was sent.
func TestReaderRecycleRoundTrip(t *testing.T) {
	w := newWriter(t, nil, 2, 0, nil)
	const steps = 8
	go func() {
		for i := 0; i < steps; i++ {
			s := &adios.Step{
				Step: int64(i), Time: float64(i),
				Attrs: map[string]string{"mesh": "mesh"},
				Vars: []adios.Variable{
					adios.NewF64("array/u", []float64{float64(i), float64(i) + 0.5}),
				},
			}
			if err := w.Put(s); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		w.Close() //nolint:errcheck
	}()
	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var prev *adios.Step
	var prevBacking *float64
	for i := 0; i < steps; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if s.Step != int64(i) || len(s.Vars) != 1 || s.Vars[0].F64[0] != float64(i) {
			t.Fatalf("step %d: wrong contents %+v", i, s)
		}
		if prev != nil {
			if s != prev {
				t.Fatalf("step %d: recycled step not reused (got %p, want %p)", i, s, prev)
			}
			if &s.Vars[0].F64[0] != prevBacking {
				t.Fatalf("step %d: payload storage not reused", i)
			}
		}
		prev, prevBacking = s, &s.Vars[0].F64[0]
		r.Recycle(s)
	}
	if _, err := r.BeginStep(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestWriterReattach cuts the stream mid-run through a fault proxy with
// reattach on, once plain and once coded: the reader redials with its
// session token and resumes, and sees every step exactly once, the
// structure step first.
func TestWriterReattach(t *testing.T) {
	for _, tc := range []struct {
		name   string
		codecs []string
	}{
		{"plain", nil},
		{"coded", []string{"temporal-delta"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const steps, n = 12, 1024
			want := make([]*adios.Step, steps)
			for i := range want {
				want[i] = codedStep(int64(i), n)
			}
			want[0].Attrs["structure"] = "1"
			w := newWriter(t, nil, 2, 1, nil)
			px, err := faultnet.NewProxy("127.0.0.1:0", w.Addr(), faultnet.NewProfile())
			if err != nil {
				t.Fatal(err)
			}
			defer px.Close()
			r, err := adios.OpenReaderWith(px.Addr(), adios.ReaderOptions{
				Codecs: tc.codecs,
				Retry:  &adios.RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Session() == "" {
				t.Fatal("reattach stream issued no session token")
			}
			// Cut the link partway through the fourth step's frame.
			px.Profile().ResetAfterBytes(int64(3.5 * float64(8*n)))
			errCh := make(chan error, 1)
			go func() {
				for _, s := range want {
					if err := w.Put(s); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- w.Close()
			}()
			var got []int64
			for {
				st, err := r.BeginStep()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("after steps %v: %v", got, err)
				}
				if len(got) == 0 && st.Attrs["structure"] != "1" {
					t.Fatalf("first step %d is not the structure step", st.Step)
				}
				if !f64BitsEqual(want[st.Step].FindVar("array/u").F64, st.FindVar("array/u").F64) {
					t.Fatalf("step %d: payload mismatch across the cut", st.Step)
				}
				got = append(got, st.Step)
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			if r.Reconnects() == 0 {
				t.Fatal("the cut never happened: reader did not reconnect")
			}
			for i, s := range got {
				if s != int64(i) {
					t.Fatalf("steps %v: want 0..%d exactly once", got, steps-1)
				}
			}
			if len(got) != steps {
				t.Fatalf("got %d steps, want %d", len(got), steps)
			}
		})
	}
}

func BenchmarkSSTThroughput(b *testing.B) {
	data := make([]float64, 50000)
	s := &adios.Step{Step: 1, Time: 0.1, Vars: []adios.Variable{adios.NewF64("u", data)}}
	w := newWriter(b, nil, 4, 0, nil)
	r, err := adios.OpenReader(w.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(s.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := r.BeginStep(); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if err := w.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	w.Close() //nolint:errcheck
}
