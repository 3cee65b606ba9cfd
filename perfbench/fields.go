package main

import (
	"math"
	"math/rand/v2"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mesh"
)

// modeSum is a seeded sum of smooth Fourier modes over the case's box.
// Evaluating it at node coordinates gives every copy of a node shared
// by neighbouring elements or ranks the same value, so generated fields
// stay continuous. Wave numbers are whole periods of the box, so the
// sum is periodic along periodic axes; along walled axes an envelope
// vanishing on the walls keeps Dirichlet boundary values unchanged.
type modeSum struct {
	box    [3]float64
	walled [3]bool
	amp    []float64
	wave   [][3]float64
	phase  []float64
}

func newModeSum(rng *rand.Rand, c cases.Case, modes int) modeSum {
	m := modeSum{
		box:    [3]float64{c.Mesh.Lx, c.Mesh.Ly, c.Mesh.Lz},
		walled: [3]bool{!c.Mesh.Periodic[0], !c.Mesh.Periodic[1], !c.Mesh.Periodic[2]},
	}
	for i := 0; i < modes; i++ {
		m.amp = append(m.amp, rng.Float64()*2-1)
		m.wave = append(m.wave, [3]float64{float64(1 + rng.IntN(3)), float64(1 + rng.IntN(3)), float64(1 + rng.IntN(3))})
		m.phase = append(m.phase, 2*math.Pi*rng.Float64())
	}
	return m
}

// at evaluates the sum at one point; the result lies in [-1, 1].
func (m modeSum) at(p [3]float64) float64 {
	var sum, norm float64
	for i, a := range m.amp {
		arg := m.phase[i]
		for d := 0; d < 3; d++ {
			arg += 2 * math.Pi * m.wave[i][d] * p[d] / m.box[d]
		}
		sum += a * math.Cos(arg)
		norm += math.Abs(a)
	}
	env := 1.0
	for d := 0; d < 3; d++ {
		if m.walled[d] {
			env *= math.Sin(math.Pi * p[d] / m.box[d])
		}
	}
	return env * sum / norm
}

// eval fills one value per local node of the mesh.
func (m modeSum) eval(msh *mesh.Mesh) []float64 {
	out := make([]float64, msh.NumNodes())
	for i := range out {
		out[i] = m.at([3]float64{msh.X[i], msh.Y[i], msh.Z[i]})
	}
	return out
}

// perturbTemperature loads the solver's initial state back through the
// public restart API with a seeded temperature perturbation of the
// given amplitude added, so the solver only ever sees generated input.
// Every rank derives the same modes from the seed.
func perturbTemperature(s *fluid.Solver, c cases.Case, seed uint64, amplitude float64) error {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	delta := newModeSum(rng, c, 4).eval(s.Mesh())
	temp := make([]float64, len(delta))
	s.Fields()["temperature"].CopyToHost(temp)
	for i := range temp {
		temp[i] += amplitude * delta[i]
	}
	return s.LoadFields(map[string][]float64{"temperature": temp}, s.Time(), s.StepCount())
}

// fanoutFields are the primary solver fields stream-fanout publishes.
var fanoutFields = [...]string{"velocity_x", "velocity_y", "velocity_z", "pressure", "temperature"}

// fanoutVars are the wire variable names those fields travel under.
var fanoutVars = [...]string{"array/velocity_x", "array/velocity_y", "array/velocity_z", "array/pressure", "array/temperature"}

// frameSource synthesises temporally coherent frames: field f at step k
// is base_f + a_f cos(wk) + b_f sin(wk), so consecutive frames differ
// by a small smooth increment, the kind of change delta codecs exploit.
type frameSource struct {
	base, cosPart, sinPart [len(fanoutFields)][]float64
	out                    [len(fanoutFields)][]float64
	fields                 map[string][]float64
}

// frameOmega sets how far consecutive frames move along the cycle.
const frameOmega = 2 * math.Pi / 97

func newFrameSource(msh *mesh.Mesh, c cases.Case, seed uint64) *frameSource {
	rng := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909))
	fs := &frameSource{fields: make(map[string][]float64, len(fanoutFields))}
	for f, name := range fanoutFields {
		fs.base[f] = newModeSum(rng, c, 5).eval(msh)
		fs.cosPart[f] = newModeSum(rng, c, 3).eval(msh)
		fs.sinPart[f] = newModeSum(rng, c, 3).eval(msh)
		fs.out[f] = make([]float64, len(fs.base[f]))
		fs.fields[name] = fs.out[f]
	}
	return fs
}

// frame fills the reusable output buffers with step k's fields and
// returns them keyed by field name, together with their checksums.
func (fs *frameSource) frame(k int64, sums *[len(fanoutFields)]uint64) map[string][]float64 {
	cw, sw := 0.2*math.Cos(frameOmega*float64(k)), 0.2*math.Sin(frameOmega*float64(k))
	for f := range fanoutFields {
		b, cp, sp, out := fs.base[f], fs.cosPart[f], fs.sinPart[f], fs.out[f]
		for i := range out {
			out[i] = b[i] + cw*cp[i] + sw*sp[i]
		}
		sums[f] = checksum(out)
	}
	return fs.fields
}

// checksum is FNV-1a over the exact bit patterns, so any change to any
// value, however small, changes the sum.
func checksum(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}
