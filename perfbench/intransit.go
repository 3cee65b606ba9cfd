package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
)

const (
	rbcSimRanks = 2
	rbcQueue    = 2 // SST staging depth on each sim rank
	// The RBC perturbation feeds buoyancy, so it changes the flow and
	// the iteration counts; it is kept two orders below the case's own
	// deterministic 1e-2 perturbation so seeds vary the work only a
	// little.
	rbcPerturbation = 1e-4
)

// rbcScript renders the paper's two RBC images per step at the
// endpoint: a side-view temperature slice and a vertical-velocity
// coloured temperature isosurface.
const rbcScript = `<catalyst>
  <image width="%[1]d" height="%[1]d" output="rbc_side_%%06d.png" colormap="coolwarm"
         camera="0,-1,0.12" field="temperature">
    <slice normal="0,1,0" offset="%[2]g"/>
  </image>
  <image width="%[1]d" height="%[1]d" output="rbc_w_%%06d.png" colormap="viridis"
         camera="1,1,1" field="velocity_z">
    <contour field="temperature" iso="0.5"/>
  </image>
</catalyst>`

// rbcCase is the in transit weak-scaling cell at two sim ranks: four
// elements along x per rank at element size 0.5, four across y and
// three up z, order 4.
func rbcCase() cases.Case {
	c := cases.RBC(1e5, 0.71, 2, 4, 3, 4)
	c.Mesh.Nx = 4 * rbcSimRanks
	c.Mesh.Lx = 0.5 * float64(c.Mesh.Nx)
	return c
}

// intransitRBC runs one episode of the in transit workload: two RBC sim
// ranks ship every step through the direct SST writer (the "adios"
// analysis) to one endpoint rank with one reader per sim rank, which
// renders both images per step.
func intransitRBC(ep *episode) error {
	contact := filepath.Join(ep.dir, "contact.txt")
	outDir := filepath.Join(ep.dir, "endpoint")
	script := filepath.Join(ep.dir, "rbc.xml")
	c := rbcCase()
	if err := os.WriteFile(script, []byte(fmt.Sprintf(rbcScript, imagePx, c.Mesh.Ly/2)), 0o644); err != nil {
		return err
	}
	simCfg := fmt.Sprintf(`<sensei>
  <analysis type="adios" frequency="1" contact="%s" queue="%d" arrays="%s"/>
</sensei>`, contact, rbcQueue, "velocity_x,velocity_y,velocity_z,pressure,temperature")
	epCfg := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/>
</sensei>`, script)

	ep.solver = true
	ep.trigger = 1
	end := &endpointRun{
		tap:    newEndpointTap("rbc", true, ep.fault, ep.ck, ep.traced),
		config: epCfg, outDir: outDir,
	}
	ep.lossless = end.tap
	endpoints := []*endpointRun{end}
	contactReady := newContactSignal()
	attached, done := startEndpoints(contact, endpoints, contactReady.ch)

	ep.ranks = make([]*rankLog, rbcSimRanks)
	for r := range ep.ranks {
		ep.ranks[r] = newRankLog(r, ep.traced, fmt.Sprintf("sim-rank-%d", r))
	}
	simErr := mpirt.RunErr(rbcSimRanks, func(comm *mpirt.Comm) error {
		l := ep.ranks[comm.Rank()]
		if comm.Rank() == 0 {
			defer contactReady.publish()
		}
		sim, err := nekrs.NewSim(comm, nil, c)
		if err != nil {
			return err
		}
		if err := perturbTemperature(sim.Solver, c, ep.seed, rbcPerturbation); err != nil {
			return err
		}
		ctx := &sensei.Context{Comm: comm, Acct: sim.Acct, Timer: sim.Timer, Storage: sim.Storage, OutputDir: ep.dir}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(simCfg))
		if comm.Rank() == 0 {
			contactReady.publish()
		}
		if err != nil {
			return err
		}
		attached.Wait()
		if err := attachErr(endpoints); err != nil {
			_ = bridge.Finalize() // the attach failure is the error to report
			return err
		}
		comm.Barrier()
		ep.loopStarted(l, sim)
		runErr := sim.Run(1<<30, ep.simHook(l, bridge))
		ep.loopEnded(l)
		if runErr != nil {
			_ = bridge.Finalize() // the run's error is the one to report
			return runErr
		}
		ep.checkFields(sim, gridSpacing(c))
		ep.senseiCounters(l, bridge)
		send := bridge.Analysis().FindAdaptor("adios").(*intransit.SendAdaptor)
		if err := bridge.Finalize(); err != nil {
			return err
		}
		ep.addVal("adios.steps_sent", float64(send.Writer().StepsSent()))
		return nil
	})
	done.Wait()
	end.report(ep, int64(ep.steps()-1))
	ep.addRankTracks()
	if simErr != nil {
		return simErr
	}
	ep.ck.expect(end.err == nil, "endpoint: %v", end.err)
	ep.addVal("adios.wire_bytes", float64(end.wireBytes()))
	ep.addVal("adios.wire_steps", float64(len(end.tap.steps)))
	checkImages(ep, end.tap.steps, filepath.Join("endpoint", "rbc_side_%06d.png"), filepath.Join("endpoint", "rbc_w_%06d.png"))
	return nil
}
