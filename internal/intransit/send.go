// Package intransit implements the paper's in transit workflow: a
// SENSEI analysis adaptor on the simulation side that ships each
// trigger's data through the ADIOS2/SST transport (instead of
// analyzing locally), and an endpoint runtime that receives steps,
// reconstructs the VTK data model, and drives its own SENSEI
// ConfigurableAnalysis — "the endpoint of our workflow is always a
// SENSEI data consumer."
//
// With this split, the memory available to simulation ranks is
// independent of the number of visualization ranks (the property the
// paper emphasizes), and a slow endpoint shows up on the simulation
// side only as bounded SST queue growth.
//
// Two endpoint runtimes consume the stream: Endpoint is the paper's
// serial consumer, and Group is its parallel generalization — R
// cooperative ranks that claim one staging consumer name as a group,
// shard the analysis work by block range (reductions merge across
// ranks, rendering composites via binary swap into one image per
// step), and realign skewed streams at a per-step barrier with
// straggler accounting. See group.go and DESIGN.md.
package intransit

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
)

// SendAdaptor is the simulation-side analysis adaptor (SENSEI's
// "ADIOS2 analysis adaptor"): Execute publishes the requested arrays —
// and, once, the grid structure — into the rank's SST stream.
// Registered as analysis type "adios" with attributes address, queue,
// arrays, contact, mesh and reattach.
//
// The adaptor is requirements-aware in both directions: Describe
// declares the configured arrays downstream of the simulation (so the
// planner pulls them once, shared with co-located analyses), and the
// reader's hello may declare an `arrays` subset upstream — from then
// on only the requested arrays are pulled and shipped, turning the
// endpoint's declared requirements into wire-bandwidth savings. A
// subset naming an array outside the configured `arrays` attribute is
// rejected in the handshake.
type SendAdaptor struct {
	writer        *Writer
	meshName      string
	arrays        []string
	structureSent bool
}

// Writer is one rank's end of an SST stream: a staging hub with one
// pre-declared block consumer of depth queue, served to one reader at
// a time. Every hello claims that consumer, whatever consumer name or
// policy it announces; its array subset and codec request apply as on
// any hub, and a second concurrent reader is rejected.
//
// With reattach > 0 the consumer is bound as a resumable session, so
// the stream survives that many reader disconnects: the reader
// redialing with its token, or a fresh one adopting the parked
// session, resumes exactly once from the acknowledged step. With
// reattach 0 a lost reader ends the stream and the next Put fails.
type Writer struct {
	hub      *staging.Hub
	binder   *staging.Binder
	srv      *staging.Server
	reattach int
	attached chan struct{} // closed when the first reader binds

	mu       sync.Mutex
	cons     *staging.Consumer // the reader's consumer (the declared one until a reader binds)
	attaches int
}

const (
	readerConsumer = "reader"         // the one consumer every reader claims
	reattachTTL    = 30 * time.Second // how long a lost reader's position is kept
	// closeWait bounds how long Close waits for a first reader, so a
	// run shorter than the endpoint's start-up still delivers.
	closeWait = 5 * time.Second
)

// NewWriter starts a stream on addr (use "127.0.0.1:0" for an
// ephemeral port). queue bounds the steps staged ahead of the reader
// (<= 0 selects 2, the SST default); staged bytes are accounted under
// acct's "staging-hub" category. A non-nil arrays is the advertised
// set reader subsets are checked against.
func NewWriter(addr string, acct *metrics.Accountant, queue, reattach int, arrays []string) (*Writer, error) {
	hub := staging.NewHub(acct)
	hub.SetAdvertised(arrays)
	w := &Writer{hub: hub, binder: staging.NewBinder(hub, staging.Block, queue),
		reattach: reattach, attached: make(chan struct{})}
	if reattach > 0 {
		w.binder.EnableSessions(reattachTTL)
	}
	var err error
	if w.cons, err = w.binder.Declare(staging.ConsumerSpec{Name: readerConsumer}); err != nil {
		return nil, err
	}
	if w.srv, err = staging.Serve(hub, addr, w.resolve); err != nil {
		return nil, err
	}
	return w, nil
}

// resolve binds a reader's hello to the stream's one consumer.
func (w *Writer) resolve(req staging.SubscribeRequest) (*staging.Subscription, error) {
	req.Name, req.Policy, req.Depth, req.Group = readerConsumer, "", 0, 0
	req.NewSession = w.reattach > 0 && req.Session == ""
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.attaches > w.reattach {
		return nil, fmt.Errorf("stream already served %d reader(s), reattach=%d", w.attaches, w.reattach)
	}
	sub, err := w.binder.Resolve(req)
	if err != nil {
		return nil, err
	}
	if w.attaches == 0 {
		close(w.attached)
	}
	w.attaches++
	w.cons = sub.Cons
	return sub, nil
}

func (w *Writer) consumer() *staging.Consumer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cons
}

// Addr reports the stream's contact address for the rendezvous step.
func (w *Writer) Addr() string { return w.srv.Addr() }

// Hub exposes the stream's staging hub (stats, recording).
func (w *Writer) Hub() *staging.Hub { return w.hub }

// StepsSent reports the steps the reader has received and credited.
func (w *Writer) StepsSent() int64 { return w.consumer().Credited() }

// RequestedArrays reports the array subset the reader declared in its
// hello: nil before a reader binds or when it wants everything.
func (w *Writer) RequestedArrays() []string { return w.consumer().Arrays() }

// Put stages one step, blocking while queue steps already wait for the
// reader (backpressure). It fails after Close, and once the stream has
// lost its reader for good.
func (w *Writer) Put(s *adios.Step) error {
	w.mu.Lock()
	lost := w.attaches > w.reattach && w.cons.IsClosed()
	w.mu.Unlock()
	if lost {
		return fmt.Errorf("intransit: reader disconnected mid-stream")
	}
	return w.hub.Publish(s)
}

// Close ends the stream: the reader drains the staged steps and sees
// end-of-stream. If no reader has attached yet, Close first waits up
// to closeWait for one; after that the staged steps are discarded.
func (w *Writer) Close() error {
	err := w.hub.Close()
	select {
	case <-w.attached:
	case <-time.After(closeWait):
	}
	w.binder.Shutdown() // a parked session would hold its steps until its TTL
	w.srv.Close()       //nolint:errcheck // always nil; per-reader failures are in srv.Err
	return err
}

// NewSendAdaptor wraps an existing stream writer (programmatic use).
func NewSendAdaptor(w *Writer, meshName string, arrays []string) *SendAdaptor {
	if meshName == "" {
		meshName = "mesh"
	}
	return &SendAdaptor{writer: w, meshName: meshName, arrays: arrays}
}

func init() {
	sensei.Register("adios", func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		addr := attrs["address"]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		queue, reattach := 2, 0
		if q := attrs["queue"]; q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("intransit: bad queue %q", q)
			}
			queue = v
		}
		if rt := attrs["reattach"]; rt != "" {
			v, err := strconv.Atoi(rt)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("intransit: bad reattach %q", rt)
			}
			reattach = v
		}
		var arrays []string
		if a := strings.TrimSpace(attrs["arrays"]); a != "" {
			for _, s := range strings.Split(a, ",") {
				arrays = append(arrays, strings.TrimSpace(s))
			}
		}
		// A configured array set doubles as the advertisement readers'
		// subset requests are validated against in the handshake.
		w, err := NewWriter(addr, ctx.Acct, queue, reattach, arrays)
		if err != nil {
			return nil, err
		}
		if err := staging.PublishContact(ctx, w.Addr(), attrs["contact"], ""); err != nil {
			return nil, err
		}
		return NewSendAdaptor(w, attrs["mesh"], arrays), nil
	})
}

// Writer exposes the rank's stream (stats, address, hub).
func (s *SendAdaptor) Writer() *Writer { return s.writer }

// sendSet resolves the arrays this step must ship: the connected
// reader's declared subset when one arrived, otherwise the configured
// set (nil = every advertised array).
func (s *SendAdaptor) sendSet() []string {
	if req := s.writer.RequestedArrays(); req != nil {
		return req
	}
	return s.arrays
}

// Describe implements sensei.Analysis: the arrays to ship — shrunk to
// the reader's declared subset once its hello arrives, so upstream
// requirements reach all the way into the simulation-side pull.
func (s *SendAdaptor) Describe() sensei.Requirements {
	if set := s.sendSet(); len(set) > 0 {
		return sensei.RequireArrays(s.meshName, sensei.AssocPoint, set...)
	}
	return sensei.RequireAllArrays(s.meshName)
}

// Execute implements sensei.Analysis.
func (s *SendAdaptor) Execute(st *sensei.Step) (bool, error) {
	step, err := staging.StreamStep(st, s.meshName, s.sendSet(), !s.structureSent)
	if err != nil {
		return false, err
	}
	s.structureSent = true
	return false, s.writer.Put(step)
}

// RetainsStepData implements sensei.StepRetainer: the hub marshals a
// published step in its network pump, after Execute has returned, so
// the planner must not recycle the pulled arrays underneath it.
func (s *SendAdaptor) RetainsStepData() bool { return true }

// Finalize closes the stream, draining the staged steps to the reader.
func (s *SendAdaptor) Finalize() error { return s.writer.Close() }
