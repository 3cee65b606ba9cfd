package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/catalyst"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
)

const (
	insituRanks    = 2
	insituInterval = 5 // SENSEI+Catalyst trigger cadence in steps
	imagePx        = 128
	// Seeded perturbation amplitude of the initial temperature. pb146
	// temperature is passive, so the perturbation leaves the flow, and
	// with it the pressure and viscous iteration counts, untouched.
	pb146Perturbation = 1e-3
	// Largest DivergenceL2 accepted, as a share of its grid-scale bound
	// (see checkFields).
	maxRelDivergence = 1.0
)

// pb146Script renders the paper's two pb146 images per trigger: a
// velocity slice down the bed and a temperature isosurface.
const pb146Script = `<catalyst>
  <image width="%[1]d" height="%[1]d" output="pb146_slice_%%06d.png" colormap="viridis"
         camera="0,-1,0.3" field="velocity_z">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
  <image width="%[1]d" height="%[1]d" output="pb146_temp_%%06d.png" colormap="coolwarm"
         camera="1,1,0.5" field="temperature">
    <contour field="temperature" iso="0.05"/>
  </image>
</catalyst>`

// insituPB146 runs one episode of the in situ workload: pb146 on two
// ranks with the bridge rendering through Catalyst every fifth step.
func insituPB146(ep *episode) error {
	script := filepath.Join(ep.dir, "pb146.xml")
	if err := os.WriteFile(script, []byte(fmt.Sprintf(pb146Script, imagePx)), 0o644); err != nil {
		return err
	}
	cfg := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="%d"/>
</sensei>`, script, insituInterval)
	ep.solver = true
	ep.trigger = insituInterval
	pb := cases.PB146(1, 4)
	ep.ranks = make([]*rankLog, insituRanks)
	for r := range ep.ranks {
		ep.ranks[r] = newRankLog(r, ep.traced, fmt.Sprintf("sim-rank-%d", r))
	}
	err := mpirt.RunErr(insituRanks, func(comm *mpirt.Comm) error {
		l := ep.ranks[comm.Rank()]
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			return err
		}
		if err := perturbTemperature(sim.Solver, pb, ep.seed, pb146Perturbation); err != nil {
			return err
		}
		ctx := &sensei.Context{Comm: comm, Acct: sim.Acct, Timer: sim.Timer, Storage: sim.Storage, OutputDir: ep.dir}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(cfg))
		if err != nil {
			return err
		}
		comm.Barrier()
		ep.loopStarted(l, sim)
		runErr := sim.Run(1<<30, ep.simHook(l, bridge))
		ep.loopEnded(l)
		if runErr != nil {
			return runErr
		}
		ep.checkFields(sim, gridSpacing(pb))
		ep.senseiCounters(l, bridge)
		if comm.Rank() == 0 {
			ep.addVal("catalyst.images", float64(bridge.Analysis().FindAdaptor("catalyst").(*catalyst.Adaptor).ImagesWritten()))
		}
		return bridge.Finalize()
	})
	if err != nil {
		return err
	}
	ep.vals["catalyst.exec_ms"] = ep.vals["sensei.exec_ms.catalyst"]
	ep.addRankTracks()
	var triggered []int64
	for k := insituInterval; k < ep.steps(); k += insituInterval {
		triggered = append(triggered, int64(k))
	}
	checkImages(ep, triggered, "pb146_slice_%06d.png", "pb146_temp_%06d.png")
	return nil
}

// checkImages verifies that every listed step left its non-empty PNGs
// in the episode directory.
func checkImages(ep *episode, steps []int64, patterns ...string) {
	for _, k := range steps {
		for _, p := range patterns {
			name := fmt.Sprintf(p, k)
			fi, err := os.Stat(filepath.Join(ep.dir, name))
			ep.ck.expect(err == nil && fi.Size() > 0, "step %d: image %s missing or empty", k, name)
		}
	}
}
