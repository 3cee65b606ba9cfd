package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch is the benchmark's single time base: every timestamp is
// nanoseconds of monotonic time since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one interval the benchmark observed around a call into a
// layer. Spans of one step share Step across every rank and endpoint,
// which is the step's trace id within an episode.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the same track, -1 for a root
	Step   int64  `json:"step"`
}

// spanLog is one goroutine's spans (a sim rank or an endpoint), kept in
// memory until the run ends. A nil log records nothing, which is how
// untraced episodes run.
type spanLog struct {
	Track string `json:"track"`
	Spans []span `json:"spans"`
}

func newSpanLog(track string, traced bool) *spanLog {
	if !traced {
		return nil
	}
	return &spanLog{Track: track, Spans: make([]span, 0, 1<<14)}
}

// add records a span and returns its index for children to reference.
func (l *spanLog) add(name string, start, end int64, parent int32, step int64) int32 {
	if l == nil {
		return -1
	}
	l.Spans = append(l.Spans, span{Name: name, Start: start, End: end, Parent: parent, Step: step})
	return int32(len(l.Spans) - 1)
}

// selfTimes sums each span name's self time: its duration minus the
// part of it its children cover. Children of one parent never overlap
// here (each track is one goroutine), so subtracting their durations
// is exact. Returns nanoseconds per name and the distinct steps seen.
func (l *spanLog) selfTimes() (map[string]int64, int) {
	self := map[string]int64{}
	steps := map[int64]bool{}
	for _, s := range l.Spans {
		self[s.Name] += s.End - s.Start
		steps[s.Step] = true
		if s.Parent >= 0 {
			self[l.Spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self, len(steps)
}

// traceFile is what a traced run writes: every traced episode's tracks.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Episodes [][]*spanLog `json:"episodes"`
}

// writeTrace writes the spans under dir and returns the file's path.
func writeTrace(dir, workload string, seed uint64, eps []*episode) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed}
	for _, ep := range eps {
		if ep.traced {
			tf.Episodes = append(tf.Episodes, ep.tracks)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// layerSelfMs reports, per span name, the self time per step in ms:
// each track's self time divided by the steps it saw, maximum over the
// tracks that record that name (the slowest rank or endpoint).
func layerSelfMs(eps []*episode) map[string]float64 {
	out := map[string]float64{}
	type acc struct {
		ns    int64
		steps int
	}
	perTrack := map[string]map[string]*acc{} // track -> name -> totals
	for _, ep := range eps {
		for _, tr := range ep.tracks {
			self, steps := tr.selfTimes()
			m := perTrack[tr.Track]
			if m == nil {
				m = map[string]*acc{}
				perTrack[tr.Track] = m
			}
			for name, ns := range self {
				a := m[name]
				if a == nil {
					a = &acc{}
					m[name] = a
				}
				a.ns += ns
				a.steps += steps
			}
		}
	}
	for _, names := range perTrack {
		for name, a := range names {
			if a.steps == 0 {
				continue
			}
			v := float64(a.ns) / float64(a.steps) / 1e6
			if v > out[name] {
				out[name] = v
			}
		}
	}
	return out
}
