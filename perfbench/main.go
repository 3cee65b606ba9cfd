// Command perfbench is the repository benchmark: it runs one named
// workload of the paper's pipeline in this process, times every layer
// from outside around the program's public entry points, checks the
// outputs, and prints the metrics as one JSON object on its last line.
//
//	perfbench --workload insitu-pb146 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced episodes, prints the per-layer
// metrics (tracing overhead included) and writes the spans under
// .bench_build/perfbench/trace. See README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to one episode of it.
var workloads = map[string]func(*episode) error{
	"insitu-pb146":  insituPB146,
	"intransit-rbc": intransitRBC,
	"stream-fanout": streamFanout,
}

// outRoot holds everything a run writes, relative to the checkout root.
const outRoot = ".bench_build/perfbench"

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // loop time of all episodes together
	trace    bool
	episodes int // odd-numbered episodes are traced when trace is set
	fault    fault
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail printed before the result line.
type report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Episodes int               `json:"episodes"`
	Samples  map[string]int    `json:"samples,omitempty"`
	Env      map[string]string `json:"env"`
	Failures []string          `json:"failures,omitempty"`
	Spans    string            `json:"spans,omitempty"`
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload: insitu-pb146, intransit-rbc or stream-fanout")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured loop time of the whole run")
	traceFlag := flag.Int("trace", 0, "1 = per-layer metrics from traced episodes, 0 = end-to-end metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	// Ten untraced episodes give the end-to-end medians; single set-ups
	// vary by tens of percent (scheduling, garbage collection), so the
	// set-up median needs that many. A traced run alternates untraced
	// and traced episodes so tracing overhead is measured under the same
	// conditions.
	cfg.episodes = 10
	if cfg.trace {
		cfg.episodes = 4
	}
	if workloads[cfg.workload] == nil || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload insitu-pb146|intransit-rbc|stream-fanout, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	// A wedged pipeline must not hold the run past its time limit.
	watchdog := time.AfterFunc(time.Duration(cfg.seconds*float64(time.Second))+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(1)
	})
	res, rep, err := run(cfg)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res, rep)
}

// run executes the episodes of one run and computes its result.
func run(cfg runConfig) (*result, *report, error) {
	n := cfg.episodes
	steal0, total0 := cpuSteal()
	runDir := filepath.Join(outRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	ck := &checks{}
	var eps []*episode
	loop := time.Duration(cfg.seconds / float64(n) * float64(time.Second))
	for i := 0; i < n; i++ {
		ep := &episode{
			traced: cfg.trace && i%2 == 1,
			seed:   cfg.seed,
			dir:    filepath.Join(runDir, fmt.Sprintf("ep%d", i)),
			ck:     ck,
			fault:  cfg.fault,
			vals:   map[string]float64{},
		}
		if err := os.MkdirAll(ep.dir, 0o755); err != nil {
			return nil, nil, err
		}
		ep.start = now()
		ep.loop = int64(loop)
		if err := workloads[cfg.workload](ep); err != nil {
			return nil, nil, fmt.Errorf("%s episode %d: %w", cfg.workload, i, err)
		}
		if err := os.RemoveAll(ep.dir); err != nil {
			return nil, nil, err
		}
		eps = append(eps, ep)
	}

	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Episodes: n, Env: envStamp()}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor ran other guests on this machine's CPUs
		// while the run was measuring: runs with a large share were slowed
		// by their neighbours, not by the code.
		rep.Env["steal_frac"] = fmt.Sprintf("%.4f", float64(steal1-steal0)/float64(total1-total0))
	}
	res := &result{Metrics: map[string]metric{}}
	if cfg.trace {
		for name, v := range perLayer(eps) {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
		}
		path, err := writeTrace(filepath.Join(outRoot, "trace"), cfg.workload, cfg.seed, eps)
		if err != nil {
			return nil, nil, err
		}
		rep.Spans = path
	} else {
		vals, samples := endToEnd(eps)
		for name, v := range vals {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
		}
		rep.Samples = samples
	}
	res.Attempted, res.Failed = ck.attempted, ck.failed
	res.Correct = ck.failed == 0 && ck.attempted > 0
	rep.Failures = ck.notes
	return res, rep, nil
}

// printResult prints a readable table, the report, and last the result
// object whose fields BENCHMARK.json describes.
func printResult(w *os.File, res *result, rep *report) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	raw, _ := json.Marshal(rep) // plain structs of maps and strings always marshal
	fmt.Fprintf(w, "report %s\n", raw)
	raw, _ = json.Marshal(res)
	fmt.Fprintf(w, "%s\n", raw)
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "setup_s":
		return "s"
	case name == "steps_per_s":
		return "1/s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.Contains(name, "frac") || strings.Contains(name, "ratio"):
		return "ratio"
	}
	return "count"
}

// envStamp records what the numbers were measured on.
func envStamp() map[string]string {
	env := map[string]string{
		"cores":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "none",
	}
	if c := gitHead(".git"); c != "" {
		env["commit"] = c
	}
	return env
}

// gitHead resolves the checked-out commit from a .git directory without
// running git, which would search directories above the checkout.
func gitHead(dir string) string {
	raw, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(raw))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD holds the hash itself
	}
	if raw, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// cpuSteal reads the steal and total jiffies of all CPUs from
// /proc/stat; zeros where that is unavailable.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
