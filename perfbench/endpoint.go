package main

import (
	"fmt"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/catalyst"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
)

// endpointRun is one in transit endpoint rank: readers attached to every
// producer address in the contact file, an intransit.Endpoint over
// tapped sources, and the counters read once its stream has ended.
type endpointRun struct {
	tap     *endpointTap
	opts    adios.ReaderOptions
	config  string
	outDir  string
	readers []*adios.Reader
	ctx     *sensei.Context
	ep      *intransit.Endpoint
	// attachErr is written before attached is released, err (the
	// attach or serve result) before done is.
	attachErr error
	err       error
}

// startEndpoints attaches every endpoint in its own goroutine, once
// the producers have published their contact file, and serves it until
// end of stream. Started earlier, endpoints would poll for the file
// and set-up time would jump by the poll interval. attached is released
// once every endpoint has attached or failed to; done once every
// endpoint has finished.
func startEndpoints(contact string, eps []*endpointRun, published <-chan struct{}) (attached, done *sync.WaitGroup) {
	attached, done = &sync.WaitGroup{}, &sync.WaitGroup{}
	for _, e := range eps {
		attached.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			<-published
			e.attachErr = e.attach(contact)
			attached.Done()
			if e.err = e.attachErr; e.err == nil {
				e.err = e.serve()
			}
		}()
	}
	return attached, done
}

// contactSignal is closed by rank 0 once bridge initialization, which
// writes the contact file, has returned, on success and failure alike.
type contactSignal struct {
	once sync.Once
	ch   chan struct{}
}

func newContactSignal() *contactSignal { return &contactSignal{ch: make(chan struct{})} }

func (c *contactSignal) publish() { c.once.Do(func() { close(c.ch) }) }

// attachErr reports the first endpoint that failed to attach. Call it
// after attached has been released.
func attachErr(eps []*endpointRun) error {
	for _, e := range eps {
		if e.attachErr != nil {
			return fmt.Errorf("endpoint %s: %w", e.tap.name, e.attachErr)
		}
	}
	return nil
}

func (e *endpointRun) attach(contact string) error {
	addrs, err := adios.ReadContact(contact, 30*time.Second)
	if err != nil {
		return err
	}
	for _, addr := range addrs {
		r, err := adios.OpenReaderWith(addr, e.opts)
		if err != nil {
			e.closeReaders()
			return err
		}
		e.readers = append(e.readers, r)
	}
	return nil
}

func (e *endpointRun) closeReaders() {
	for _, r := range e.readers {
		_ = r.Close() // the stream has ended or failed; nothing to flush
	}
}

// serve runs the endpoint until every source reaches end of stream. On
// failure the readers close, so blocked producers fail instead of
// waiting for a consumer that is gone.
func (e *endpointRun) serve() error {
	defer e.closeReaders()
	e.ctx = &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(), OutputDir: e.outDir,
	}
	src := make([]intransit.StepSource, len(e.readers))
	for i, r := range e.readers {
		src[i] = r
	}
	ep, err := intransit.NewEndpoint(e.ctx, e.tap.wrap(src...), []byte(e.config))
	if err != nil {
		return err
	}
	e.ep = ep
	_, err = ep.Run()
	return err
}

// wireBytes sums what the endpoint's readers received.
func (e *endpointRun) wireBytes() int64 {
	var n int64
	for _, r := range e.readers {
		n += r.BytesReceived()
	}
	return n
}

// report reads the endpoint's counters into the episode and checks
// that a lossless endpoint saw every published step, published being
// the number of steps each producer rank shipped.
func (e *endpointRun) report(ep *episode, published int64) {
	if e.tap.spans != nil {
		ep.tracks = append(ep.tracks, e.tap.spans)
	}
	if e.ep == nil {
		return
	}
	ep.addVal("intransit.steps_skipped", float64(e.ep.StepsSkipped()))
	if ms, ok := meanMsSince(e.ctx.Timer.Snapshot(), nil, "sensei:catalyst"); ok {
		ep.maxVal("catalyst.exec_ms", ms)
	}
	if c, ok := e.ep.Analysis().FindAdaptor("catalyst").(*catalyst.Adaptor); ok {
		ep.addVal("catalyst.images", float64(c.ImagesWritten()))
	}
	if !e.tap.lossless {
		return
	}
	ep.addVal("intransit.steps_processed", float64(e.ep.StepsProcessed()))
	ep.ck.expect(e.ep.StepsSkipped() == 0, "%s endpoint skipped %d steps", e.tap.name, e.ep.StepsSkipped())
	ep.ck.expect(int64(e.ep.StepsProcessed()) == published,
		"%s endpoint processed %d steps, producers published %d", e.tap.name, e.ep.StepsProcessed(), published)
}
