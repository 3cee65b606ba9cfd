package main

import (
	"encoding/json"
	"os"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// A short run of every workload, untraced and traced, emits exactly the
// metrics BENCHMARK.json names, with their units, and passes its checks.
func TestEveryMetricEmitted(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, rep, err := run(runConfig{workload: w.Name, seed: 7, seconds: 3, trace: traced, episodes: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %s, declared %s", w.Name, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not declared", w.Name, traced, name)
				}
			}
		}
	}
}

// A step dropped or duplicated on its way into a lossless endpoint must
// count as a failed operation, not pass as a faster run.
func TestDeliveryFaultsFail(t *testing.T) {
	for _, w := range []string{"intransit-rbc", "stream-fanout"} {
		for _, kind := range []string{"drop", "dup"} {
			res, _, err := run(runConfig{workload: w, seed: 7, seconds: 3, episodes: 1, fault: fault{kind: kind, step: 2}})
			if err != nil {
				t.Fatalf("%s %s: %v", w, kind, err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s %s: correct=%v failed=%d, want the planted fault counted", w, kind, res.Correct, res.Failed)
			}
		}
	}
}
