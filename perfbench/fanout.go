package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
)

// fanoutDt is the simulated time between generated frames.
const fanoutDt = 2e-3

// fanoutScript renders the render consumer's one image per step.
const fanoutScript = `<catalyst>
  <image width="%[1]d" height="%[1]d" output="fanout_temp_%%06d.png" colormap="coolwarm"
         camera="0,-1,0.3" field="temperature">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
</catalyst>`

// streamFanout runs one episode of the solver-free staging workload: one
// producer rank on the pb146 mesh loads a generated frame per step
// through the restart API, and the bridge publishes it through the
// staging hub to two pre-declared consumers with different policies,
// subsets and codecs.
func streamFanout(ep *episode) error {
	// The frames are the benchmark's input, not part of set-up: generate
	// them over the producer's mesh (the one NewSim builds on rank 0 of
	// 1) before set-up time starts.
	pb := cases.PB146(1, 4)
	msh, err := mesh.NewBox(pb.Mesh, 0, 1)
	if err != nil {
		return err
	}
	frames := newFrameSource(msh, pb, ep.seed)
	ep.start = now()

	contact := filepath.Join(ep.dir, "contact.txt")
	script := filepath.Join(ep.dir, "render.xml")
	if err := os.WriteFile(script, []byte(fmt.Sprintf(fanoutScript, imagePx)), 0o644); err != nil {
		return err
	}
	simCfg := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="1" contact="%s" arrays="%s"
            consumers="hist:block:2,render:latest-only:1:temperature:transpose-delta"/>
</sensei>`, contact, strings.Join(fanoutFields[:], ","))
	hist := &endpointRun{
		tap:    newEndpointTap("hist", true, ep.fault, ep.ck, ep.traced),
		opts:   adios.ReaderOptions{Consumer: "hist"},
		config: `<sensei><analysis type="histogram" array="pressure" bins="16" frequency="1"/></sensei>`,
		outDir: filepath.Join(ep.dir, "hist"),
	}
	render := &endpointRun{
		tap:    newEndpointTap("render", false, fault{}, ep.ck, ep.traced),
		opts:   adios.ReaderOptions{Consumer: "render"},
		config: fmt.Sprintf(`<sensei><analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/></sensei>`, script),
		outDir: filepath.Join(ep.dir, "render"),
	}
	hist.tap.sums = make([]stepSums, 0, 1<<15)
	render.tap.sums = make([]stepSums, 0, 1<<15)
	ep.trigger = 1
	ep.lossless = hist.tap
	endpoints := []*endpointRun{hist, render}
	contactReady := newContactSignal()
	attached, done := startEndpoints(contact, endpoints, contactReady.ch)

	l := newRankLog(0, ep.traced, "producer-rank-0")
	ep.ranks = []*rankLog{l}
	var produced [][len(fanoutFields)]uint64 // checksums of step k at k-1
	var stats []staging.ConsumerStats
	var published int64
	prodErr := mpirt.RunErr(1, func(comm *mpirt.Comm) error {
		defer contactReady.publish()
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			return err
		}
		produced = make([][len(fanoutFields)]uint64, 0, 1<<15)
		ctx := &sensei.Context{Comm: comm, Acct: sim.Acct, Timer: sim.Timer, Storage: sim.Storage, OutputDir: ep.dir}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(simCfg))
		contactReady.publish()
		if err != nil {
			return err
		}
		attached.Wait()
		if err := attachErr(endpoints); err != nil {
			_ = bridge.Finalize() // the attach failure is the error to report
			return err
		}
		ep.loopStarted(l, sim)
		var runErr error
		for k := 1; ; k++ {
			var sums [len(fanoutFields)]uint64
			t := float64(k) * fanoutDt
			if runErr = sim.Solver.LoadFields(frames.frame(int64(k), &sums), t, k); runErr != nil {
				break
			}
			produced = append(produced, sums)
			if ep.enter(l, k) {
				break
			}
			if runErr = ep.update(l, bridge, k, t, "producer.load"); runErr != nil {
				break
			}
		}
		ep.loopEnded(l)
		if runErr != nil {
			_ = bridge.Finalize() // the loop's error is the one to report
			return runErr
		}
		ep.senseiCounters(l, bridge)
		hub := bridge.Analysis().FindAdaptor("staging").(*staging.Adaptor).Hub()
		if err := bridge.Finalize(); err != nil {
			return err
		}
		stats, published = hub.Stats(), hub.Published()
		return nil
	})
	done.Wait()
	hist.report(ep, int64(ep.steps()-1))
	render.report(ep, 0)
	ep.addRankTracks()
	if prodErr != nil {
		return prodErr
	}
	for _, e := range endpoints {
		ep.ck.expect(e.err == nil, "endpoint %s: %v", e.tap.name, e.err)
	}

	ep.addVal("staging.published", float64(published))
	for _, cs := range stats {
		ep.addVal("staging.delivered."+cs.Name, float64(cs.Delivered))
		ep.addVal("staging.dropped."+cs.Name, float64(cs.Dropped))
		ep.addVal("staging.wire."+cs.Name, float64(cs.WireBytes))
	}
	ep.addVal("staging.raw.render", float64(render.tap.rawBytes))
	ep.addVal("adios.wire_bytes", float64(hist.wireBytes()))
	ep.addVal("adios.wire_steps", float64(len(hist.tap.steps)))
	for _, e := range endpoints {
		checkSums(ep, e.tap, produced)
	}
	checkImages(ep, render.tap.steps, filepath.Join("render", "fanout_temp_%06d.png"))
	return nil
}

// checkSums compares every array a consumer decoded with the frame the
// producer generated for that step; the codecs are lossless, so the
// comparison is exact.
func checkSums(ep *episode, t *endpointTap, produced [][len(fanoutFields)]uint64) {
	for _, got := range t.sums {
		k := got.step
		if k < 1 || k > int64(len(produced)) {
			ep.ck.expect(false, "%s decoded step %d that was never generated", t.name, k)
			continue
		}
		n := 0
		for f := range fanoutFields {
			if !got.have[f] {
				continue
			}
			n++
			ep.ck.expect(got.sums[f] == produced[k-1][f], "%s step %d: %s differs from the generated frame", t.name, k, fanoutFields[f])
		}
		ep.ck.expect(n > 0, "%s step %d carried none of the generated arrays", t.name, k)
	}
}
